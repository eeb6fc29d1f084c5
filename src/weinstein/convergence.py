"""Convergence study: key identities at doubling resolutions.

Each level doubles the axis counts (n, m) and the scale count J; the
box grows with the self-dual coupling L = sqrt(pi n / 2).  Quadrature
limited checks must improve by at least the configured ratio per level.

Exact discrete identities (adjoint, weak/strong consistency) are
reported for reference but not ratio-gated: they sit at rounding level on
every grid.  The transform checks use probes with a displaced radial
bump so the radial quadrature is genuinely exercised; wavelet round trips
use mean-suppressed probes, since content at zero frequency hits a
range-truncation floor of the scale-space synthesis that no lattice
refinement removes.
"""

from __future__ import annotations

import numpy as np

from . import localization as loc
from .config import ConfigError, RunConfig
from .grids import Field, field_from_function, inner_product, lp_norm
from .probes import gaussian, mean_zero_probe, random_field
from .report import CheckRow, make_row
from .transform import forward, inverse
from .translation import convolve, convolve_spectral
from .verify import build_stack, _rel
from .wavelets import build_pair, cwt, invert_cwt, check_two_wavelet_parseval

RATIO_MIN = 3.0


def _radial_bump_probe(grid, center: float = 3.0, width: float = 0.33) -> Field:
    """Gaussian-class probe with a displaced even radial bump.

    Strains the radial Gauss-Legendre rule so transform-level errors are
    measurable above rounding at the coarse level.
    """

    def fn(p):
        u = p[..., : grid.d]
        r = p[..., grid.d]
        cart = np.exp(-np.sum(u**2, axis=-1) / 2.0)
        bump = (np.exp(-((r - center) ** 2) / (2 * width**2))
                + np.exp(-((r + center) ** 2) / (2 * width**2)))
        return cart * bump

    return field_from_function(grid, fn)


def _level_errors(config: RunConfig, level: int) -> dict:
    k = 2**level
    st = build_stack(config.alpha, config.d, config.n * k, config.m * k,
                     config.a_min, config.a_max, config.scales * k,
                     config.theta_count)
    g, plan = st.grid, st.plan
    errs = {}
    f = _radial_bump_probe(g)
    Ff = forward(plan, f)
    errs["plancherel"] = abs(lp_norm(Ff, 2) - lp_norm(f, 2)) / lp_norm(f, 2)
    h = _radial_bump_probe(g, center=2.3, width=0.4)
    lhs = inner_product(f, h)
    rhs = inner_product(Ff, forward(plan, h))
    errs["parseval"] = abs(lhs - rhs) / max(lp_norm(f, 2) * lp_norm(h, 2), 1e-300)
    h = gaussian(g, 0.9)
    errs["roundtrip"] = _rel(inverse(plan, Ff), f)
    cv = convolve(st.kernel, h, f)
    errs["conv_direct_vs_spectral"] = _rel(cv, convolve_spectral(plan, h, f))
    pair = build_pair(plan, st.scale_grid, st.kernel)
    probe = mean_zero_probe(g)
    W = cwt(pair, probe, "phi")
    lhs2, rhs2 = check_two_wavelet_parseval(pair, probe, probe)
    errs["wavelet_parseval"] = abs(lhs2 - rhs2) / max(abs(rhs2), 1e-300)
    errs["inversion"] = _rel(invert_cwt(pair, W), probe)
    errs.update(_exact_identity_errors(config, level))
    return errs


def _exact_identity_errors(config: RunConfig, level: int) -> dict:
    """Weak/strong consistency and adjoint identity per level.

    These are identities of the finite sums themselves; they sit at
    rounding level on every grid (no ratio gate applies).
    """
    k = 2**level
    st = build_stack(config.alpha, config.d, 16 * k, 16 * k, config.a_min,
                     config.a_max, 8 * k, config.theta_count)
    pair = build_pair(st.plan, st.scale_grid, st.kernel)
    sym = loc.symbol_bump(pair.scale_grid)
    L = loc.assemble(pair, sym)
    rng = np.random.default_rng(config.seed + level)
    f = random_field(st.grid, rng)
    h = random_field(st.grid, rng)
    weak = loc.weak_form(pair, sym, f, h)
    strong = inner_product(loc.apply_operator(L, f), h)
    Ladj = loc.adjoint(L)
    scale = max(float(np.max(np.abs(L.matrix))), 1e-300)
    return {
        "weak_strong_exact": abs(weak - strong) / max(abs(weak), 1e-300),
        "adjoint_exact": float(np.max(np.abs(Ladj.matrix - L.matrix.conj().T))) / scale,
    }


#: checks whose error is quadrature-limited and must shrink by RATIO_MIN
GATED = ("plancherel", "parseval", "roundtrip", "wavelet_parseval", "inversion")
#: floor below which a level is considered converged to rounding
FLOOR = 1e-13


def run_convergence(config: RunConfig, levels: int = 2) -> list[CheckRow]:
    """Repeat key checks at doubling resolution; gate ratios for quadrature checks.

    The default windows run on self-dual boxes of the study's own, so a config
    that sets a window or an extent is rejected (ConfigError), and so are fewer
    than 2 levels, which give no ratio to gate.  A level that
    exhausts resources yields a flagged partial report instead of aborting
    the study.
    """
    fixed = ("window_phi", "window_psi", "cart_extent", "radial_extent")
    overridden = [f"{k}={getattr(config, k)!r}" for k in fixed
                  if getattr(config, k) != getattr(RunConfig, k)]
    if overridden:
        raise ConfigError("convergence runs the default windows on self-dual boxes of its "
                          f"own; it cannot take {', '.join(overridden)}")
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
    if not series:
        return rows
    for name in series[0]:
        for lv, errs in enumerate(series):
            rows.append(make_row(f"convergence.{name}.level{lv}",
                                 f"{name} error at resolution x{2**lv}",
                                 errs[name], 0.0, np.inf, passed=True))
        if name in GATED:
            for lv in range(1, levels):
                e0, e1 = series[lv - 1][name], series[lv][name]
                ratio = e0 / max(e1, 1e-300)
                ok = ratio >= RATIO_MIN or e1 <= FLOOR or e0 <= FLOOR
                rows.append(make_row(f"convergence.{name}.ratio{lv}",
                                     f"{name} error ratio level{lv - 1}/level{lv} >= {RATIO_MIN}",
                                     ratio, RATIO_MIN, 0.0, passed=bool(ok)))
    return rows
