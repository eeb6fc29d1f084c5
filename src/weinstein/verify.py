"""The verification battery: every identity and bound at configurable scale.

Each check is declared once in ``CHECKS`` (statement, tolerance, mode); the
group functions compute its values and emit its rows.  Rows come out in a
fixed order so reports are byte-reproducible for a given config and seed.  Transform
level checks run per alpha on the full grid; wavelet-chain checks run on
the full grid at the config's alpha; operator-level checks run on the
reduced profile (op_n, op_m, op_scales) across alphas, window pairs and
symbol classes, and the paper's examples on it at the config's alpha.
``config_stack`` and ``config_windows`` turn a config into these inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import localization as loc
from .config import RunConfig, alpha_tag
from .grids import (Field, build_base_grid, build_scale_grid, inner_product,
                    lp_norm, reflect)
from .probes import gaussian, random_even_field, random_field
from .report import CheckRow, make_row, parse_field_csv, read_csv_input
from .special import weinstein_kernel
from .transform import (build_plan, check_hausdorff_young, check_parseval,
                        check_plancherel, forward, inverse)
from .translation import (ThetaRule, TranslationKernel, check_translate_fourier, convolve,
                          convolve_spectral, lattice_shift, translate)
from .wavelets import (WaveletPair, Window, admissibility_constant, build_pair, cwt,
                       cwt_convolution_form, check_two_wavelet_parseval, dilate,
                       family_member, invert_cwt, scaled_freq_data, two_wavelet_constant,
                       window_from_profile)

# every tolerance of the battery and of localize's bound report; no setting overrides one
TOL = {
    "kernel": 1e-12,
    "transform": 1e-3,
    "exact": 1e-10,
    "mass": 1e-6,
    "slack": 0.05,
    "convolution": 2e-3,
    "adm_value": 1e-4,
    "adm_spread": 1e-3,
    "wavelet": 2e-2,
    "operator_exact": 1e-10,
    "rank_one": 1e-8,
    "bound_slack": 0.05,
    "examples": 3e-2,
    "svd_fraction": 0.25,
    "svd_level": 1e-3,
    "rounding": 1e-12,
    "rounding_tight": 1e-14,
    "symmetry": 1e-6,
    "dilation": 1e-2,
    "mollification": 0.2,
    "paracommutator_diag": 5e-3,
}

# Every check, in report order: id stem -> (statement, tolerance, mode).  The
# tolerance is a TOL key, (key, factor) for factor * TOL[key], or None for 0.
# The mode is make_row's, or "pred" for a row whose group computes the verdict.
# op.bound statements name p and the tightest bound (btag) of each row.
CHECKS = {
    "kernel.bound": ("max(|Lambda(lam,x)| - 1) <= 0", "kernel", "pred"),
    "kernel.at_zero": ("Lambda(lam, 0) = 1", "kernel", "abs"),
    "kernel.symmetry": ("Lambda(lam,x) = Lambda(x,lam)", "kernel", "abs"),
    "kernel.reflection": ("Lambda(lam,-x) = Lambda(-lam,x)", "kernel", "abs"),
    "transform.gaussian_fixed_point": (
        "F(exp(-|x|^2/2)) = exp(-|lam|^2/2), relative L2", "transform", "abs"),
    "transform.roundtrip": (
        "inverse(forward(f)) = f on the Gaussian, relative L2", "transform", "abs"),
    "transform.roundtrip_random": (
        "inverse(forward(f)) = f on a random probe, relative L2", "transform", "abs"),
    "transform.linearity": ("F(a f + b g) = a F(f) + b F(g)", "rounding", "abs"),
    "transform.plancherel": ("||F f||_2 = ||f||_2, worst of 20 probes", "transform", "abs"),
    "transform.parseval": ("<f,g> = <F f, F g>, worst of 20 probes", "transform", "abs"),
    "transform.hausdorff_young": ("||F f||_q <= ||f||_p, q = p/(p-1)", "slack", "le"),
    "transform.conjugation": ("F(conj f) = conj(F(f(-.)))", "exact", "abs"),
    "transform.reflection": ("F(f)(lam) = F(f(-.))(-lam)", "exact", "abs"),
    "transform.zero_row": (
        "sum_x Lambda(x, 0) w_x = sum_x w_x (relative)", "rounding_tight", "abs"),
    "theta.normalization": (
        "C_alpha int_0^pi (sin t)^{2a} dt = 1 (raw quadrature)", "exact", "rel"),
    "translate.identity": ("tau_0 f = f exactly", "rounding", "abs"),
    "translate.symmetry": (
        "tau_x f(y) = tau_y f(x) at random node pairs (Gaussian f)", "symmetry", "abs"),
    "translate.transform_identity": (
        "F(tau_x f) = Lambda(x,.) F(f), worst relative L2", "transform", "abs"),
    "translate.mass": ("int tau_x f dmu = int f dmu", "mass", "abs"),
    "translate.contraction": ("||tau_x f||_p <= ||f||_p", "slack", "le"),
    "translate.positivity": ("f >= 0 implies min(tau_x f) >= -1e-12", "rounding", "pred"),
    "conv.transform_identity": ("F(f * g) = F(f) F(g), relative L2", "convolution", "abs"),
    "conv.commutativity": ("f * g = g * f", "symmetry", "abs"),
    "conv.direct_vs_spectral": (
        "quadrature and F^-1(F f F g) routes agree, relative L2", "convolution", "abs"),
    "conv.l2_product_norm": ("||f * g||_2 = ||F(f) F(g)||_2", "convolution", "rel"),
    "conv.young": ("||f*g||_r <= ||f||_p ||g||_q", "slack", "le"),
    "conv.associativity": ("(f*g)*h = f*(g*h)", ("convolution", 2), "abs"),
    "conv.mollification": ("f * (narrow normalized bump) close to f", "mollification", "abs"),
    "adm.value_phi": ("C of the |xi|^2 Gaussian profile = 1/2", "adm_value", "abs"),
    "adm.spread_phi": ("scale integral constant across sampled xi", "adm_spread", "abs"),
    "adm.value_psi": ("C of the |xi|^4 Gaussian profile = 3", ("adm_value", 6.0), "abs"),
    "adm.spread_psi": (
        "scale integral constant across sampled xi (second window)", "adm_spread", "abs"),
    "adm.value_cross": ("cross constant of the default pair = 1", ("adm_value", 2.0), "abs"),
    "wav.pipelines_gaussian": (
        "inner-product and convolution-form transforms agree", "convolution", "abs"),
    "wav.pipelines_random": ("pipeline agreement on a random even probe", "convolution", "abs"),
    "wav.linearity": ("W(a f + b g) = a W(f) + b W(g)", "rounding", "abs"),
    "wav.sup_bound": ("max |W(f)| <= ||f||_2 ||phi||_2", "slack", "le"),
    "wav.two_wavelet_parseval": ("<W_phi f, W_psi g>_X = C_{phi,psi} <f, g>", "wavelet", "abs"),
    "wav.inversion": ("synthesis of W_phi(f) over X recovers f (Gaussian)", "wavelet", "abs"),
    "wav.dilate_norm": ("||phi_a||_p = a^{(2a+d+2)(1/p-1)} ||phi||_p", "dilation", "rel"),
    "wav.dilate_fourier": ("F(phi_a)(xi) = F(phi)(a xi)", "dilation", "abs"),
    "wav.family_l2": ("||phi_{a,x}||_2 <= ||phi||_2", "slack", "le"),
    "wav.family_lp": ("||phi_{a,x}||_p <= a^{(2a+d+2)(1/p-1/2)} ||phi||_p", "slack", "le"),
    "wav.family_identity": ("phi_{1,0} = phi", "exact", "abs"),
    "wav.self_localization": (
        "argmax |W(phi_{1,0})| lies in the cell block at (1, 0)", None, "pred"),
    "op.weak_strong": (
        "<L f, g> equals the scale-space weak form exactly", "operator_exact", "abs"),
    "op.adjoint_matrix": (
        "matrix(L*) = weighted conjugate transpose of matrix(L)", "rounding", "abs"),
    "op.adjoint_pairing": ("<L f, g> = <f, L* g>", "operator_exact", "abs"),
    "op.symbol_scaling": ("matrix(c sigma) = c matrix(sigma)", "rounding", "abs"),
    "op.hermitian": (
        "real symbol, psi = phi: symmetrized matrix is Hermitian", "operator_exact", "abs"),
    "op.rank_one_matrix": ("single-cell symbol gives w <.,phi_ax> psi_ax", "rank_one", "abs"),
    "op.rank_one_norm": (
        "rank-one operator norm = w ||phi_ax||_2 ||psi_ax||_2", "rank_one", "rel"),
    "op.rank_one_spectrum": (
        "single-cell operator has one nonzero singular value", "exact", "abs"),
    "op.identity_symbol": ("<L_{phi,phi}(1) f, f> = C_phi ||f||_2^2", "examples", "rel"),
    "op.bound": ("measured {p}-norm <= tightest bound ({btag})", "bound_slack", "le"),
    "op.bound_lower": (
        "probe lower bound for the {p}-norm <= bound ({btag})", "bound_slack", "le"),
    "op.svd_decay": (
        "normalized singular values below 1e-3 within 25% of spectrum", None, "pred"),
    "ex.multiplier_equivalence": ("L(chi(a)) f = F^{-1}(m F f), relative L2", "examples", "abs"),
    "ex.multiplier_constancy": (
        "chi=1, psi=phi: m = C_phi across the analysis band", "adm_spread", "abs"),
    "ex.paraproduct_lemma": ("int p(f,g) dmu = C_{phi,psi} <f, g>", "examples", "abs"),
    "ex.paraproduct_l1": (
        "||p(f,g)||_1 <= sqrt(C_phi C_psi) ||f||_2 ||g||_2", "slack", "le"),
    "ex.paraproduct_zero": ("p(0, g) = 0", "rounding_tight", "abs"),
    "ex.paracommutator_weak": (
        "<L(chi zeta) f, g> = double frequency integral with kernel K", "examples", "abs"),
    "ex.paracommutator_diag": (
        "K(xi, xi) with chi=1, psi=phi reduces to C_phi", "paracommutator_diag", "rel"),
}


def _emitter(alpha: float, pair: str = ""):
    """(emit, rows): ``emit`` appends to ``rows`` the row of a ``CHECKS`` entry.

    emit(stem, lhs, rhs=0.0, part="", passed=None, **fields) writes the id
    ``stem[.part].alpha<a>[.pair]``, the statement with ``fields`` filled in,
    the entry's tolerance resolved against ``TOL`` and its mode; a "pred"
    entry, and only one, takes its verdict from ``passed``.
    """
    rows = []

    def emit(stem, lhs, rhs=0.0, part="", passed=None, **fields):
        statement, spec, mode = CHECKS[stem]
        if (mode == "pred") != (passed is not None):
            raise ValueError(f"{stem}: a verdict is passed exactly for a 'pred' check")
        key, factor = spec if isinstance(spec, tuple) else (spec, None)
        tolerance = 0.0 if key is None else TOL[key] if factor is None else factor * TOL[key]
        check_id = ".".join(filter(None, (stem, part, alpha_tag(alpha), pair)))
        rows.append(make_row(check_id, statement.format(**fields) if fields else statement,
                             lhs, rhs, tolerance, passed, mode))

    return emit, rows


@dataclass
class Stack:
    """One grid with its plan, translation kernel and scale grid."""

    grid: object
    plan: object
    kernel: object
    scale_grid: object


def build_stack(alpha: float, d: int, n: int, m: int, a_min: float, a_max: float,
                scales: int, theta_count: int, radial_extent: float = 0.0) -> Stack:
    grid = build_base_grid(alpha, d, n, m, radial_extent if radial_extent > 0 else None)
    plan = build_plan(grid)
    kernel = TranslationKernel(grid, ThetaRule(alpha, theta_count))
    sg = build_scale_grid(grid, a_min, a_max, scales)
    return Stack(grid=grid, plan=plan, kernel=kernel, scale_grid=sg)


def config_stack(config: RunConfig, alpha: float, operators: bool = False) -> Stack:
    """The stack a run of ``config`` works on at ``alpha``.

    The main grid (n, m, scales) with the configured radial extent, or with
    ``operators`` the operator profile (op_n, op_m, op_scales) with R = L.
    """
    if operators:
        return build_stack(alpha, config.d, config.op_n, config.op_m, config.a_min,
                           config.a_max, config.op_scales, config.theta_count)
    return build_stack(alpha, config.d, config.n, config.m, config.a_min, config.a_max,
                       config.scales, config.theta_count, config.radial_extent)


def config_windows(config: RunConfig, grid) -> tuple:
    """(phi, psi): a Window read from each ``csv:`` setting on ``grid``, None for default.

    ConfigError if a file cannot be read, does not list the nodes of ``grid``
    in the writers' order or holds non-finite values.  A CSV window carries no
    frequency profile, so its transform is interpolated.
    """
    return tuple(None if sel == "default" else
                 Window(field=Field(grid, parse_field_csv(grid, read_csv_input(sel))),
                        name=f"csv_{key}")
                 for key, sel in (("phi", config.window_phi), ("psi", config.window_psi)))


def _rel(f: Field, ref: Field) -> float:
    num = lp_norm(f - ref, 2)
    den = lp_norm(ref, 2)
    return num / max(den, 1e-300)


def _rand_safe_node(grid, rng) -> np.ndarray:
    """Node with radial part <= R/2: translated probes stay on the grid.

    Cartesian offsets need no restriction (exact wraparound on the torus);
    radial offsets larger than R minus the probe extent push mass past the
    radial boundary, where the unbounded-domain identities cannot hold.
    """
    pts = grid.nodes()
    safe = pts[pts[:, -1] <= grid.radial_extent / 2]
    return safe[rng.integers(0, len(safe))]


# ---------------------------------------------------------------------------
# kernel checks (criterion: kernel properties at 1e4 random pairs)
# ---------------------------------------------------------------------------

def kernel_checks(alpha: float, d: int, rng) -> list[CheckRow]:
    n_pairs = 10_000
    lam = rng.normal(scale=3.0, size=(n_pairs, d + 1))
    x = rng.normal(scale=3.0, size=(n_pairs, d + 1))
    lam[:, d] = np.abs(lam[:, d])
    x[:, d] = np.abs(x[:, d])
    emit, rows = _emitter(alpha)
    K = weinstein_kernel(alpha, d, lam, x)
    excess = float(np.max(np.abs(K) - 1.0))
    emit("kernel.bound", excess, passed=excess <= TOL["kernel"])
    zero = np.zeros(d + 1)
    Kz = weinstein_kernel(alpha, d, lam, np.broadcast_to(zero, lam.shape))
    emit("kernel.at_zero", float(np.max(np.abs(Kz - 1.0))))
    Ksym = weinstein_kernel(alpha, d, x, lam)
    emit("kernel.symmetry", float(np.max(np.abs(K - Ksym))))
    xr = x.copy()
    xr[:, :d] *= -1.0
    lr = lam.copy()
    lr[:, :d] *= -1.0
    Krefl = weinstein_kernel(alpha, d, lam, xr)
    Krefl2 = weinstein_kernel(alpha, d, lr, x)
    emit("kernel.reflection", float(np.max(np.abs(Krefl - Krefl2))))
    return rows


# ---------------------------------------------------------------------------
# transform checks
# ---------------------------------------------------------------------------

def transform_checks(st: Stack, rng) -> list[CheckRow]:
    g, plan = st.grid, st.plan
    emit, rows = _emitter(g.alpha)
    G = gaussian(g)
    emit("transform.gaussian_fixed_point", _rel(forward(plan, G), G))
    emit("transform.roundtrip", _rel(inverse(plan, forward(plan, G)), G))
    f0 = random_field(g, rng)
    emit("transform.roundtrip_random", _rel(inverse(plan, forward(plan, f0)), f0))
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    f1, f2 = random_field(g, rng), random_field(g, rng)
    lin = forward(plan, Field(g, a * f1.values + b * f2.values))
    lin_rhs = Field(g, a * forward(plan, f1).values + b * forward(plan, f2).values)
    emit("transform.linearity", _rel(lin, lin_rhs))

    worst_pl, worst_pa = 0.0, 0.0
    for _ in range(20):
        f = random_field(g, rng)
        lhs, rhs = check_plancherel(plan, f)
        worst_pl = max(worst_pl, abs(lhs - rhs) / max(rhs, 1e-300))
        h = random_field(g, rng)
        lhs2, rhs2 = check_parseval(plan, f, h)
        den = max(lp_norm(f, 2) * lp_norm(h, 2), 1e-300)
        worst_pa = max(worst_pa, abs(lhs2 - rhs2) / den)
    emit("transform.plancherel", worst_pl)
    emit("transform.parseval", worst_pa)

    f = random_field(g, rng)
    for p in (1.0, 1.5, 2.0):
        emit("transform.hausdorff_young", *check_hausdorff_young(plan, f, p), part=f"p{p:g}")
    Ff = forward(plan, f)
    # conjugation and reflection identities
    fr = reflect(f)
    lhs_c = forward(plan, Field(g, np.conj(f.values)))
    rhs_c = Field(g, np.conj(forward(plan, fr).values))
    emit("transform.conjugation", _rel(lhs_c, rhs_c))
    emit("transform.reflection", _rel(Ff, reflect(forward(plan, fr))))
    # kernel row at zero frequency sums the weights exactly
    pts = g.nodes()
    row0 = weinstein_kernel(g.alpha, g.d, pts, np.zeros(g.d + 1)) * g.node_weights.reshape(-1)
    wsum = g.node_weights.sum()
    emit("transform.zero_row", float(np.abs(row0.sum() - wsum)) / wsum)
    return rows


# ---------------------------------------------------------------------------
# translation and convolution checks
# ---------------------------------------------------------------------------

def translation_checks(st: Stack, rng) -> list[CheckRow]:
    g, plan, kern = st.grid, st.plan, st.kernel
    emit, rows = _emitter(g.alpha)
    emit("theta.normalization", kern.theta.raw_weight_sum, 1.0)
    G = gaussian(g)
    zero = np.zeros(g.d + 1)
    emit("translate.identity",
         float(np.max(np.abs(translate(kern, zero, G).values - G.values))))
    # symmetry at random node pairs for the Gaussian
    worst = 0.0
    for _ in range(10):
        x = _rand_safe_node(g, rng)
        y = _rand_safe_node(g, rng)
        tx = translate(kern, x, G)
        ty = translate(kern, y, G)
        vx = tx.values.reshape(-1)[g.cart_flat_index(y[:g.d]) * g.radial_points
                                   + int(np.argmin(np.abs(g.radial_nodes - y[g.d])))]
        vy = ty.values.reshape(-1)[g.cart_flat_index(x[:g.d]) * g.radial_points
                                   + int(np.argmin(np.abs(g.radial_nodes - x[g.d])))]
        worst = max(worst, abs(vx - vy))
    emit("translate.symmetry", worst)
    # transform identity, mass, contraction, positivity
    worst_mmm = 0.0
    for _ in range(5):
        f = random_field(g, rng)
        x = _rand_safe_node(g, rng)
        worst_mmm = max(worst_mmm, _rel(*check_translate_fourier(plan, kern, x, f)))
    emit("translate.transform_identity", worst_mmm)
    pts_all = g.nodes()
    safe_mass = pts_all[pts_all[:, -1] <= 0.3 * g.radial_extent]
    x = safe_mass[rng.integers(0, len(safe_mass))]
    tf = translate(kern, x, G)
    one = Field(g, np.ones(g.shape, dtype=complex))
    emit("translate.mass", abs(inner_product(tf, one) - inner_product(G, one)))
    for p in (1, 2, np.inf):
        emit("translate.contraction", lp_norm(tf, p), lp_norm(G, p), part=f"p{p}")
    low = float(np.min(tf.values.real))
    emit("translate.positivity", low, passed=low >= -TOL["rounding"])
    return rows


def convolution_checks(st: Stack, rng) -> list[CheckRow]:
    g, plan, kern = st.grid, st.plan, st.kernel
    emit, rows = _emitter(g.alpha)
    f = random_even_field(g, rng)
    h = random_even_field(g, rng)
    cv = convolve(kern, f, h)
    lhs = forward(plan, cv)
    rhs = Field(g, forward(plan, f).values * forward(plan, h).values)
    emit("conv.transform_identity", _rel(lhs, rhs))
    emit("conv.commutativity", _rel(convolve(kern, h, f), cv))
    emit("conv.direct_vs_spectral", _rel(cv, convolve_spectral(plan, f, h)))
    emit("conv.l2_product_norm", lp_norm(cv, 2), lp_norm(rhs, 2))
    for (p, q, r) in ((1, 1, 1), (1, 2, 2), (2, 2, np.inf)):
        emit("conv.young", lp_norm(cv, r), lp_norm(f, p) * lp_norm(h, q), part=f"{p}_{q}_{r}")
    g1 = gaussian(g, 1.0)
    g2 = gaussian(g, 0.9)
    g3 = gaussian(g, 0.8)
    lhs_a = convolve(kern, convolve(kern, g1, g2), g3)
    rhs_a = convolve(kern, g1, convolve(kern, g2, g3))
    emit("conv.associativity", _rel(lhs_a, rhs_a))
    # mollification: convolution with a narrow normalized bump stays close to f
    bump = gaussian(g, 0.35)
    one = Field(g, np.ones(g.shape, dtype=complex))
    bump = (1.0 / inner_product(bump, one).real) * bump
    mol = convolve(kern, g1, bump)
    emit("conv.mollification", _rel(mol, g1))
    return rows


# ---------------------------------------------------------------------------
# wavelet checks
# ---------------------------------------------------------------------------

def wavelet_checks(st: Stack, rng, windows: tuple = (None, None)) -> list[CheckRow]:
    """Wavelet-chain checks on the pair of ``windows`` (``config_windows``)."""
    g, plan = st.grid, st.plan
    emit, rows = _emitter(g.alpha)
    pair = build_pair(plan, st.scale_grid, st.kernel, *windows)
    default_pair = windows == (None, None)
    C_phi, sp_phi = admissibility_constant(plan, st.scale_grid, pair.phi)
    if default_pair:
        emit("adm.value_phi", C_phi, 0.5)
    emit("adm.spread_phi", sp_phi)
    C_psi, sp_psi = admissibility_constant(plan, st.scale_grid, pair.psi)
    if default_pair:
        emit("adm.value_psi", C_psi, 3.0)
    emit("adm.spread_psi", sp_psi)
    Ccross, _ = two_wavelet_constant(plan, st.scale_grid, pair.phi, pair.psi)
    if default_pair:
        emit("adm.value_cross", abs(Ccross), 1.0)

    f = gaussian(g)
    W1 = cwt(pair, f, "phi")
    W2 = cwt_convolution_form(pair, f, "phi")

    def xl2(W):
        return float(np.sqrt(np.sum(pair.scale_grid.combined_weights * np.abs(W.values) ** 2)))

    emit("wav.pipelines_gaussian", xl2(W1 - W2) / max(xl2(W1), 1e-300))
    fe = random_even_field(g, rng)
    We1 = cwt(pair, fe, "phi")
    We2 = cwt_convolution_form(pair, fe, "phi")
    emit("wav.pipelines_random", xl2(We1 - We2) / max(xl2(We1), 1e-300))
    # linearity and sup bound
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    h = random_even_field(g, rng)
    Wlin = cwt(pair, Field(g, a * fe.values + b * h.values), "phi")
    Wrhs = a * We1.values + b * cwt(pair, h, "phi").values
    emit("wav.linearity", float(np.max(np.abs(Wlin.values - Wrhs)))
         / max(float(np.max(np.abs(Wrhs))), 1e-300))
    emit("wav.sup_bound", float(np.max(np.abs(W1.values))),
         lp_norm(f, 2) * lp_norm(pair.phi.field, 2))
    lhs, rhs = check_two_wavelet_parseval(pair, f, random_even_field(g, rng))
    emit("wav.two_wavelet_parseval", abs(lhs - rhs) / max(abs(rhs), 1e-300))
    emit("wav.inversion", _rel(invert_cwt(pair, W1), f))
    # dilation identities at representable scales
    for a_ in (0.5, 2.0):
        da = dilate(a_, pair.phi.field)
        for p in (1, 2, np.inf):
            e = 0.0 if p == np.inf else 1.0 / p
            pred = a_ ** (g.measure_power * (e - 1.0)) * lp_norm(pair.phi.field, p)
            emit("wav.dilate_norm", lp_norm(da, p), pred, part=f"a{a_:g}.p{p}")
        Fd = forward(plan, da)
        pred_vals = scaled_freq_data(pair.phi, plan, [a_])[0]
        num = np.sqrt(np.sum(g.node_weights * np.abs(Fd.values - pred_vals) ** 2))
        den = np.sqrt(np.sum(g.node_weights * np.abs(pred_vals) ** 2))
        emit("wav.dilate_fourier", num / max(den, 1e-300), part=f"a{a_:g}")
    # family member norms, at scales where the band-limit taper is inactive
    x = _rand_safe_node(g, rng)
    for a_ in (1.0, 2.0):
        fam = family_member(st.kernel, plan, pair.phi, a_, x)
        emit("wav.family_l2", lp_norm(fam, 2), lp_norm(pair.phi.field, 2), part=f"a{a_:g}")
        for p in (1, np.inf):
            e = 0.0 if p == np.inf else 1.0 / p
            pred = a_ ** (g.measure_power * (e - 0.5)) * lp_norm(pair.phi.field, p)
            emit("wav.family_lp", lp_norm(fam, p), pred, part=f"a{a_:g}.p{p}")
    # transform of the family member at (1, 0) is the window itself
    zero = np.zeros(g.d + 1)
    fam0 = family_member(st.kernel, plan, pair.phi, 1.0, zero)
    emit("wav.family_identity", _rel(fam0, pair.phi.field))
    # localization of W(phi_{1,0}) near (a, x) = (1, 0)
    Wp = cwt(pair, fam0, "phi")
    mags = np.abs(Wp.values)
    jmax, cmax, rmax = np.unravel_index(int(np.argmax(mags)), mags.shape)
    la = np.log(pair.scale_grid.scales)
    dla = la[1] - la[0]
    cart = g.cart_coordinates()
    ok = (abs(la[jmax]) <= 1.5 * dla
          and np.linalg.norm(cart[cmax]) <= 2.1 * g.cart_step
          and g.radial_nodes[rmax] <= g.radial_nodes[min(3, g.radial_points - 1)] + 1e-12)
    emit("wav.self_localization", float(jmax), float(np.argmin(np.abs(la))), passed=ok)
    return rows


# ---------------------------------------------------------------------------
# operator checks
# ---------------------------------------------------------------------------

def _second_pair(plan, scale_grid, kernel) -> WaveletPair:
    """A second admissible pair: narrower Gaussian profiles |xi|^2 e^{-|xi|^2}
    and |xi|^4 e^{-|xi|^2} with constants 1/8, 3/16 and cross 1/8."""
    w1 = window_from_profile(plan, lambda s: s**2 * np.exp(-(s**2)), name="n2")
    w2 = window_from_profile(plan, lambda s: s**4 * np.exp(-(s**2)), name="n4")
    return WaveletPair(plan=plan, scale_grid=scale_grid, kernel=kernel, phi=w1, psi=w2)


def _symbols(sg) -> dict:
    return {
        "indicator": loc.symbol_indicator(sg),
        "l1_bump": loc.symbol_bump(sg),
        "separable": loc.symbol_separable(sg),
        "scale_only": loc.symbol_scale_only(sg),
    }


def _shared_operators(pair: WaveletPair) -> dict:
    """The pair's ``l1_bump``, ``separable`` and ``scale_only`` operators, which
    the exact, bound and example checks share."""
    return {name: loc.assemble(pair, s) for name, s in _symbols(pair.scale_grid).items()
            if name in ("l1_bump", "separable", "scale_only")}


def operator_exact_checks(L: loc.LocalizationOperator, pair_same: WaveletPair,
                          rng) -> list[CheckRow]:
    """Exact discrete identities (weak/strong, adjoint, rank-one, scaling) of
    the ``l1_bump`` operator L and of operators of its pair and of
    ``pair_same``, the pair with psi = phi."""
    pair, sym = L.pair, L.symbol
    g = pair.plan.grid
    emit, rows = _emitter(g.alpha)
    f = random_field(g, rng)
    h = random_field(g, rng)
    weak = loc.weak_form(pair, sym, f, h)
    strong = inner_product(loc.apply_operator(L, f), h)
    emit("op.weak_strong", abs(weak - strong) / max(abs(weak), 1e-300))
    Ladj = loc.adjoint(L)
    scale = max(float(np.max(np.abs(L.matrix))), 1e-300)
    emit("op.adjoint_matrix", float(np.max(np.abs(Ladj.matrix - L.matrix.conj().T))) / scale)
    emit("op.adjoint_pairing", abs(strong - inner_product(f, loc.apply_operator(Ladj, h)))
         / max(abs(weak), 1e-300))
    c = 2.5
    L2x = loc.assemble(pair, loc.SymbolField(sym.grid, c * sym.values,
                                             declared_class=sym.declared_class))
    emit("op.symbol_scaling", float(np.max(np.abs(L2x.matrix - c * L.matrix))) / (c * scale))

    # hermitian for a real symbol with psi = phi
    Hm = loc._sym_matrix(loc.assemble(pair_same, sym))
    emit("op.hermitian", float(np.max(np.abs(Hm - Hm.conj().T)))
         / max(float(np.max(np.abs(Hm))), 1e-300))

    # rank-one single cell
    jmid = pair.scale_grid.scale_points // 2
    ccell = g.cart_flat_index(np.zeros(g.d))
    rcell = g.radial_points // 3
    sym1 = loc.symbol_single_cell(pair.scale_grid, jmid, ccell, rcell)
    L1 = loc.assemble(pair, sym1)
    a_ = float(pair.scale_grid.scales[jmid])
    xpt = np.concatenate([g.cart_coordinates()[ccell], [g.radial_nodes[rcell]]])
    phi_ax = family_member(pair.kernel, pair.plan, pair.phi, a_, xpt)
    psi_ax = family_member(pair.kernel, pair.plan, pair.psi, a_, xpt)
    wcell = (pair.scale_grid.scale_weights[jmid]
             * a_ ** (-pair.scale_grid.measure_power)
             * g.node_weights[ccell, rcell])
    pred = wcell * np.outer(psi_ax.values.reshape(-1), np.conj(phi_ax.values.reshape(-1)))
    emit("op.rank_one_matrix", float(np.max(np.abs(L1.matrix - pred)))
         / max(float(np.max(np.abs(pred))), 1e-300))
    emit("op.rank_one_norm", loc.measured_norm(L1, 2),
         wcell * lp_norm(phi_ax, 2) * lp_norm(psi_ax, 2))
    sv1 = loc.singular_value_profile(L1)
    emit("op.rank_one_spectrum", float(sv1[1] / sv1[0]))

    # sigma = 1 with psi = phi approximates C_phi * identity in the quadratic form
    Lid = loc.assemble(pair_same, loc.symbol_indicator(pair.scale_grid))
    fG = gaussian(g)
    val = inner_product(loc.apply_operator(Lid, fG), fG).real
    emit("op.identity_symbol", val, pair_same.C_phi * lp_norm(fG, 2) ** 2)
    return rows


def operator_bound_checks(pair: WaveletPair, pair_name: str, probes: np.ndarray,
                          shared: dict) -> list[CheckRow]:
    """Norm-bound dominance and singular-value decay across symbol classes.

    Classes in ``shared`` (``_shared_operators``) use the operator there; the
    others are assembled here, one at a time.
    """
    emit, rows = _emitter(pair.plan.grid.alpha, pair_name)
    for name, s in _symbols(pair.scale_grid).items():
        Ls = shared.get(name) or loc.assemble(pair, s)
        for p in (1, 2, np.inf):
            measured = loc.measured_norm(Ls, p)
            bound, btag, _ = loc.theoretical_bound(pair, s, p)
            emit("op.bound", measured, bound, part=f"{name}.p{p}", p=p, btag=btag)
        for p, measured in loc._probe_norms(Ls, (1.25, 1.5, 3.0), probes).items():
            bound, btag, _ = loc.theoretical_bound(pair, s, p)
            emit("op.bound_lower", measured, bound, part=f"{name}.p{p:g}", p=p, btag=btag)
        if name in ("l1_bump", "separable"):
            sv = loc.singular_value_profile(Ls)
            k = int(np.argmax(sv / sv[0] < TOL["svd_level"]))
            frac = k / len(sv) if sv[0] > 0 else 0.0
            emit("op.svd_decay", frac, TOL["svd_fraction"], part=name,
                 passed=0 < frac <= TOL["svd_fraction"])
    return rows


def example_checks(shared: dict, pair_same: WaveletPair, rng) -> list[CheckRow]:
    """The paper's examples, on the ``scale_only`` and ``separable`` operators
    of ``shared`` (``_shared_operators``), on their pair and on ``pair_same``,
    the pair with psi = phi."""
    Lc, Lsep = shared["scale_only"], shared["separable"]
    pair, sym = Lc.pair, Lc.symbol
    plan, sg = pair.plan, pair.scale_grid
    g = plan.grid
    emit, rows = _emitter(g.alpha)

    # multiplier: scale-only symbol acts as a transform-side multiplier
    f = random_even_field(g, rng)
    lhs = loc.apply_operator(Lc, f)
    m = loc.multiplier_symbol(pair, sym.chi)
    emit("ex.multiplier_equivalence", _rel(lhs, loc.apply_multiplier(pair, m, f)))
    # chi = 1, psi = phi: m is the admissibility constant on the analysis band
    m1 = loc.multiplier_symbol(pair_same, np.ones(sg.scale_points))
    pts = g.nodes().reshape(g.shape + (g.d + 1,))
    rad = np.sqrt(np.sum(pts**2, axis=-1))
    # radii where [a_min, a_max] covers the scale integrand to ~1e-4
    band = (rad > 0.35) & (rad < 2.8)
    spread = float(np.max(np.abs(m1.values[band].real - pair_same.C_phi))
                   / pair_same.C_phi)
    emit("ex.multiplier_constancy", spread)

    # paraproduct lemma and L1 bound (unit-normalized windows)
    nphi = lp_norm(pair.phi.field, 2)
    npsi = lp_norm(pair.psi.field, 2)
    wphi = type(pair.phi)(field=(1.0 / nphi) * pair.phi.field,
                          freq_profile=_scale_profile(pair.phi.freq_profile, 1.0 / nphi),
                          name="phi_unit")
    wpsi = type(pair.psi)(field=(1.0 / npsi) * pair.psi.field,
                          freq_profile=_scale_profile(pair.psi.freq_profile, 1.0 / npsi),
                          name="psi_unit")
    pairu = WaveletPair(plan=plan, scale_grid=sg, kernel=pair.kernel, phi=wphi, psi=wpsi)
    fu = random_even_field(g, rng)
    gu = random_even_field(g, rng)
    pp = loc.paraproduct(pairu, fu, gu)
    one = Field(g, np.ones(g.shape, dtype=complex))
    lhs_l = inner_product(pp, one)
    rhs_l = pairu.C_phi_psi * inner_product(fu, gu)
    emit("ex.paraproduct_lemma", abs(lhs_l - rhs_l) / max(abs(rhs_l), 1e-300))
    emit("ex.paraproduct_l1", lp_norm(pp, 1),
         np.sqrt(abs(pairu.C_phi * pairu.C_psi)) * lp_norm(fu, 2) * lp_norm(gu, 2))
    emit("ex.paraproduct_zero", float(np.max(np.abs(loc.paraproduct(
        pairu, Field(g, np.zeros(g.shape, complex)), gu).values))))

    # paracommutator: weak form through the frequency-side kernel
    sym_sep = Lsep.symbol
    fpc = random_even_field(g, rng)
    gpc = random_even_field(g, rng)
    lhs_pc = inner_product(loc.apply_operator(Lsep, fpc), gpc)
    rhs_pc = _paracommutator_weak(pair, sym_sep, fpc, gpc)
    emit("ex.paracommutator_weak", abs(lhs_pc - rhs_pc) / max(abs(lhs_pc), 1e-300))
    # kernel reductions
    xi = np.array([0.4] * g.d + [0.9])
    kv = loc.paracommutator_kernel(pair_same, loc.symbol_separable(sg, 0.0, 1e6),
                                   xi, xi)
    emit("ex.paracommutator_diag", complex(kv).real, pair_same.C_phi)
    return rows


def _scale_profile(profile, c):
    if profile is None:
        return None
    return lambda pts: c * profile(pts)


def _paracommutator_weak(pair: WaveletPair, sym, f: Field, g2: Field) -> complex:
    """Discrete double frequency integral

    sum_{xi,eta} w_xi w_eta K(xi,eta) (tau_eta F zeta)(xi) F f(xi) conj(F g(eta)).
    """
    g = pair.plan.grid
    plan = pair.plan
    zeta_field = Field(g, np.asarray(sym.zeta, dtype=complex))
    Fzeta = forward(plan, zeta_field)
    K = pair.kernel.tensor
    nc, m = g.shape
    # V[(eta_c, eta_r), (xi_c, xi_r)] = (tau_eta F_zeta)(xi)
    G = np.einsum("xyr,cr->cxy", K, Fzeta.values)         # [xi_c, eta_r, xi_r]
    V = np.empty((nc * m, nc, m), dtype=np.complex128)
    for ic in range(nc):
        V[ic * m:(ic + 1) * m] = lattice_shift(g, G, ic).transpose(1, 0, 2)
    Ff = forward(plan, f).values.reshape(-1)
    Fg = forward(plan, g2).values.reshape(-1)
    pts = g.nodes()
    Kmat = loc.paracommutator_kernel(pair, sym, pts, pts)  # [xi, eta]
    w = g.node_weights.reshape(-1)
    Vfl = V.reshape(nc * m, nc * m)                        # [eta, xi]
    integrand = Kmat * Vfl.T * Ff[:, None] * np.conj(Fg)[None, :]
    return complex(w @ integrand @ w)


# ---------------------------------------------------------------------------
# full battery
# ---------------------------------------------------------------------------

def run_verify(config: RunConfig) -> list[CheckRow]:
    """Run every check; row order is fixed by declaration order.

    The csv: windows are read first (ConfigError before any check runs).  The
    sweep checks run at every entry of ``alphas``; the wavelet checks (main
    grid, configured windows) and the examples (operator profile, default
    pair) run at ``config.alpha``, after the sweep when it is not an entry.
    """
    alphas = config.alpha_list()
    st_main = config_stack(config, config.alpha)
    windows = config_windows(config, st_main.grid)
    rows: list[CheckRow] = []
    rng = np.random.default_rng(config.seed)
    for alpha in alphas:
        rows += kernel_checks(alpha, config.d, rng)
    for alpha in alphas:
        st = st_main if alpha == config.alpha else config_stack(config, alpha)
        rows += transform_checks(st, rng)
        rows += translation_checks(st, rng)
        rows += convolution_checks(st, rng)
    rows += wavelet_checks(st_main, rng, windows)
    probes = None
    for alpha in alphas if config.alpha in alphas else alphas + [config.alpha]:
        st_op = config_stack(config, alpha, operators=True)
        pair_a = build_pair(st_op.plan, st_op.scale_grid, st_op.kernel)
        pair_same = WaveletPair(plan=st_op.plan, scale_grid=st_op.scale_grid,
                                kernel=st_op.kernel, phi=pair_a.phi, psi=pair_a.phi)
        shared = _shared_operators(pair_a)
        if alpha in alphas:
            if probes is None:      # the probe values do not depend on alpha
                probes = loc.probe_matrix(st_op.grid, samples=200, seed=config.seed + 1)
            pair_b = _second_pair(st_op.plan, st_op.scale_grid, st_op.kernel)
            rows += operator_exact_checks(shared["l1_bump"], pair_same, rng)
            rows += operator_bound_checks(pair_a, "pairA", probes, shared)
            rows += operator_bound_checks(pair_b, "pairB", probes, {})
        if alpha == config.alpha:
            rows += example_checks(shared, pair_same, rng)
        del shared      # freed before the next alpha assembles its own
    return rows
