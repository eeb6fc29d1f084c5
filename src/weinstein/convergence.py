"""Convergence study: quadrature-limited identities at doubling resolutions.

Level k runs the main grid with n, m and scales multiplied by 2^k on its
self-dual box (L = sqrt(pi n / 2) grows with n).  Every quantity reported
must improve by at least ``RATIO_MIN`` per level: Plancherel, Parseval and
the round trip of the transform on displaced radial bumps, which strain the
radial Gauss-Legendre rule, and the two-wavelet Parseval identity and CWT
inversion on a mean-suppressed probe.  Exact discrete identities sit at
rounding on every grid; they are the battery's rows and are not repeated.

The wavelet probe is mean-suppressed.  On the battery's Gaussian, which is
not, ``wav.inversion`` at alpha 0.5 reads 1.17e-2 at 64/64/48; it moves 3%
when the scale range widens 4x (1/64..64, J=72: 1.13e-2), not at all when
J doubles (J=96: 1.17e-2), and 1.7x when the lattice and J double
(128/128/96: 6.77e-3), short of the 3x gate.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import ConfigError, RunConfig
from .grids import lp_norm
from .probes import mean_zero_probe, radial_bump_probe
from .report import CheckRow, make_row
from .transform import check_parseval, check_plancherel, forward, inverse
from .verify import _rel, config_stack
from .wavelets import build_pair, check_two_wavelet_parseval, cwt, invert_cwt

RATIO_MIN = 3.0
#: floor below which a level is considered converged to rounding
FLOOR = 1e-13


def _level_errors(config: RunConfig, level: int) -> dict:
    """Relative error of each quantity, in report order, on level ``level``'s stack."""
    k = 2**level
    st = config_stack(dataclasses.replace(config, n=config.n * k, m=config.m * k,
                                          scales=config.scales * k), config.alpha)
    plan = st.plan
    f = radial_bump_probe(st.grid)
    h = radial_bump_probe(st.grid, center=2.3, width=0.4)
    norm_ff, norm_f = check_plancherel(plan, f)
    fh, ff_fh = check_parseval(plan, f, h)
    pair = build_pair(plan, st.scale_grid, st.kernel)
    probe = mean_zero_probe(st.grid)
    w_lhs, w_rhs = check_two_wavelet_parseval(pair, probe, probe)
    return {
        "plancherel": abs(norm_ff - norm_f) / norm_f,
        "parseval": abs(fh - ff_fh) / max(norm_f * lp_norm(h, 2), 1e-300),
        "roundtrip": _rel(inverse(plan, forward(plan, f)), f),
        "wavelet_parseval": abs(w_lhs - w_rhs) / max(abs(w_rhs), 1e-300),
        "inversion": _rel(invert_cwt(pair, cwt(pair, probe, "phi")), probe),
    }


def run_convergence(config: RunConfig, levels: int = 2) -> list[CheckRow]:
    """Each quantity's error per level, and its gated ratio between successive levels.

    The default windows run on self-dual boxes, so a config that sets a
    window or radial_extent is rejected (ConfigError), and so are fewer than 2
    levels, which give no ratio to gate.  A level that exhausts resources
    yields a flagged partial report of the levels before it instead of
    aborting the study.
    """
    fixed = ("window_phi", "window_psi", "radial_extent")
    overridden = [f"{k}={getattr(config, k)!r}" for k in fixed
                  if getattr(config, k) != getattr(RunConfig, k)]
    if overridden:
        raise ConfigError("convergence runs the default windows on self-dual boxes; "
                          f"it cannot take {', '.join(overridden)}")
    if levels < 2:
        raise ConfigError(f"convergence needs at least 2 levels, got {levels}")
    rows: list[CheckRow] = []
    series = []
    for lv in range(levels):
        try:
            series.append(_level_errors(config, lv))
        except MemoryError:
            rows.append(make_row(f"convergence.partial.level{lv}",
                                 "level skipped: resource limits exceeded",
                                 np.nan, 0.0, 0.0, passed=False))
            break
    for name in series[0] if series else ():
        for lv, errs in enumerate(series):
            rows.append(make_row(f"convergence.{name}.level{lv}",
                                 f"{name} error at resolution x{2**lv}",
                                 errs[name], 0.0, np.inf, passed=True))
        for lv in range(1, len(series)):
            e0, e1 = series[lv - 1][name], series[lv][name]
            ratio = e0 / max(e1, 1e-300)
            ok = ratio >= RATIO_MIN or e1 <= FLOOR or e0 <= FLOOR
            rows.append(make_row(f"convergence.{name}.ratio{lv}",
                                 f"{name} error ratio level{lv - 1}/level{lv} >= {RATIO_MIN}",
                                 ratio, RATIO_MIN, 0.0, passed=bool(ok)))
    return rows
