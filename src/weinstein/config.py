"""Run configuration: key=value text files with validated defaults.

Format: one ``key = value`` pair per line, '#' starts a comment, blank
lines ignored.  Unknown keys and malformed values raise ConfigError with
the offending line.  ``serialize`` round-trips to an equal config.
No key sets a tolerance: each is declared once, in ``verify.TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict

import numpy as np


class ConfigError(ValueError):
    pass


def alpha_tag(alpha: float) -> str:
    """The ``alpha<a>`` part of a check id: alpha at 6 significant digits."""
    return f"alpha{alpha:g}"


@dataclass
class RunConfig:
    alpha: float = 0.5
    d: int = 1
    n: int = 64                 # Cartesian points per axis
    m: int = 64                 # radial points
    radial_extent: float = 0.0  # R; 0 means R = L = sqrt(pi n / 2)
    a_min: float = 0.0625
    a_max: float = 16.0
    scales: int = 48
    theta_count: int = 64
    # reduced profile used by the operator-level checks
    op_n: int = 32
    op_m: int = 32
    op_scales: int = 20
    window_phi: str = "default"  # 'default' or csv:<path>
    window_psi: str = "default"
    symbol: str = "l1_bump"      # symbol class for the localize subcommand
    alphas: str = "0,0.5,1.5"    # alpha sweep for the verification suite
    seed: int = 42
    out_dir: str = "out"

    def alpha_list(self) -> list[float]:
        try:
            vals = [float(s) for s in self.alphas.split(",") if s.strip()]
        except ValueError as e:
            raise ConfigError(f"bad alphas list {self.alphas!r}: {e}") from None
        return vals

    def validate(self) -> "RunConfig":
        if not np.isfinite(self.alpha) or self.alpha <= -0.5:
            raise ConfigError(f"alpha must be > -1/2, got {self.alpha}")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        for key in ("n", "m", "op_n", "op_m"):
            if getattr(self, key) < 2:
                raise ConfigError(f"{key} must be >= 2")
        if not (np.isfinite(self.radial_extent) and self.radial_extent >= 0):
            raise ConfigError(f"radial_extent must be finite and >= 0 (0 means R = L), "
                              f"got {self.radial_extent}")
        if not (0 < self.a_min < self.a_max):
            raise ConfigError(f"need 0 < a_min < a_max, got [{self.a_min}, {self.a_max}]")
        if self.scales < 2 or self.op_scales < 2:
            raise ConfigError("scale counts must be >= 2")
        if self.theta_count < 2:
            raise ConfigError("theta_count must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key in ("window_phi", "window_psi"):
            v = getattr(self, key)
            if v != "default" and not v.startswith("csv:"):
                raise ConfigError(f"{key} must be 'default' or 'csv:<path>', got {v!r}")
        alphas = self.alpha_list()
        for a in alphas:
            if not np.isfinite(a) or a <= -0.5:
                raise ConfigError(f"alphas entries must be finite and > -1/2, got {a}")
        tags = [alpha_tag(a) for a in alphas]
        if len(set(tags)) < len(tags):
            raise ConfigError(f"alphas entries must differ in their check id tag, got "
                              f"{self.alphas!r} ({', '.join(tags)})")
        return self


def parse_config(text: str) -> RunConfig:
    """Parse key=value text into a validated RunConfig."""
    known = {f.name for f in fields(RunConfig)}
    defaults = RunConfig()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = type(getattr(defaults, key))
        try:
            if kind is int:
                values[key] = int(val)
            elif kind is float:
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {val!r} for {key}") from None
    try:
        return RunConfig(**values).validate()
    except ConfigError as e:
        raise ConfigError(str(e)) from None


def serialize(config: RunConfig) -> str:
    lines = [f"{k} = {v}" for k, v in asdict(config).items()]
    return "\n".join(lines) + "\n"


def apply_overrides(config: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply repeatable --set key=value overrides on top of a config."""
    text = serialize(config) + "\n".join(pairs)
    return parse_config(text)
