"""The verification battery: every identity and bound at configurable scale.

Checks are grouped by module and emitted in a fixed declaration order so
reports are byte-reproducible for a given config and seed.  Transform
level checks run per alpha on the full grid; wavelet-chain checks run on
the full grid at the config's alpha; operator-level checks run on the
reduced profile (op_n, op_m, op_scales) across alphas, window pairs and
symbol classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import localization as loc
from .config import RunConfig
from .grids import (Field, build_base_grid, build_scale_grid, inner_product,
                    lp_norm, reflect)
from .probes import gaussian, random_even_field, random_field
from .report import CheckRow, make_row
from .special import weinstein_kernel
from .transform import (build_plan, check_hausdorff_young, check_parseval,
                        check_plancherel, forward, inverse)
from .translation import (ThetaRule, TranslationKernel, convolve, convolve_spectral,
                          lattice_shift, translate)
from .wavelets import (WaveletPair, admissibility_constant, build_pair, cwt,
                       cwt_convolution_form, check_two_wavelet_parseval, dilate,
                       family_member, invert_cwt, two_wavelet_constant,
                       window_from_profile)

# built-in tolerances; config tol_* overrides replace nonzero entries
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
}


def tolerances(config: RunConfig) -> dict:
    t = dict(TOL)
    mapping = {
        "tol_kernel": "kernel",
        "tol_transform": "transform",
        "tol_convolution": "convolution",
        "tol_wavelet": "wavelet",
        "tol_operator_exact": "operator_exact",
        "tol_bound_slack": "bound_slack",
        "tol_examples": "examples",
    }
    for key, name in mapping.items():
        v = getattr(config, key)
        if v > 0:
            t[name] = v
    return t


@dataclass
class Stack:
    """One grid with its plan, translation kernel and scale grid."""

    grid: object
    plan: object
    kernel: object
    scale_grid: object


def build_stack(alpha: float, d: int, n: int, m: int, a_min: float, a_max: float,
                scales: int, theta_count: int, cart_extent: float = 0.0,
                radial_extent: float = 0.0) -> Stack:
    grid = build_base_grid(alpha, d, n, m,
                           cart_extent if cart_extent > 0 else None,
                           radial_extent if radial_extent > 0 else None)
    plan = build_plan(grid)
    kernel = TranslationKernel(grid, ThetaRule(alpha, theta_count))
    sg = build_scale_grid(grid, a_min, a_max, scales)
    return Stack(grid=grid, plan=plan, kernel=kernel, scale_grid=sg)


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

def kernel_checks(alpha: float, d: int, rng, tol: dict) -> list[CheckRow]:
    n_pairs = 10_000
    lam = rng.normal(scale=3.0, size=(n_pairs, d + 1))
    x = rng.normal(scale=3.0, size=(n_pairs, d + 1))
    lam[:, d] = np.abs(lam[:, d])
    x[:, d] = np.abs(x[:, d])
    tag = f"alpha{alpha:g}"
    K = weinstein_kernel(alpha, d, lam, x)
    excess = float(np.max(np.abs(K) - 1.0))
    rows = [
        make_row(f"kernel.bound.{tag}", "max(|Lambda(lam,x)| - 1) <= 0",
                 excess, 0.0, tol["kernel"], passed=bool(excess <= tol["kernel"])),
    ]
    zero = np.zeros(d + 1)
    Kz = weinstein_kernel(alpha, d, lam, np.broadcast_to(zero, lam.shape))
    rows.append(make_row(f"kernel.at_zero.{tag}", "Lambda(lam, 0) = 1",
                         float(np.max(np.abs(Kz - 1.0))), 0.0, tol["kernel"], mode="abs"))
    Ksym = weinstein_kernel(alpha, d, x, lam)
    rows.append(make_row(f"kernel.symmetry.{tag}", "Lambda(lam,x) = Lambda(x,lam)",
                         float(np.max(np.abs(K - Ksym))), 0.0, tol["kernel"], mode="abs"))
    xr = x.copy()
    xr[:, :d] *= -1.0
    lr = lam.copy()
    lr[:, :d] *= -1.0
    Krefl = weinstein_kernel(alpha, d, lam, xr)
    Krefl2 = weinstein_kernel(alpha, d, lr, x)
    rows.append(make_row(f"kernel.reflection.{tag}", "Lambda(lam,-x) = Lambda(-lam,x)",
                         float(np.max(np.abs(Krefl - Krefl2))), 0.0, tol["kernel"], mode="abs"))
    return rows


# ---------------------------------------------------------------------------
# transform checks
# ---------------------------------------------------------------------------

def transform_checks(st: Stack, rng, tol: dict, n_probes: int = 20) -> list[CheckRow]:
    g, plan = st.grid, st.plan
    tag = f"alpha{g.alpha:g}"
    rows = []
    G = gaussian(g)
    rows.append(make_row(f"transform.gaussian_fixed_point.{tag}",
                         "F(exp(-|x|^2/2)) = exp(-|lam|^2/2), relative L2",
                         _rel(forward(plan, G), G), 0.0, tol["transform"], mode="abs"))
    rows.append(make_row(f"transform.roundtrip.{tag}",
                         "inverse(forward(f)) = f on the Gaussian, relative L2",
                         _rel(inverse(plan, forward(plan, G)), G), 0.0,
                         tol["transform"], mode="abs"))
    f0 = random_field(g, rng)
    rows.append(make_row(f"transform.roundtrip_random.{tag}",
                         "inverse(forward(f)) = f on a random probe, relative L2",
                         _rel(inverse(plan, forward(plan, f0)), f0), 0.0,
                         tol["transform"], mode="abs"))
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    f1, f2 = random_field(g, rng), random_field(g, rng)
    lin = forward(plan, Field(g, a * f1.values + b * f2.values))
    lin_rhs = Field(g, a * forward(plan, f1).values + b * forward(plan, f2).values)
    rows.append(make_row(f"transform.linearity.{tag}", "F(a f + b g) = a F(f) + b F(g)",
                         _rel(lin, lin_rhs), 0.0, 1e-12, mode="abs"))

    worst_pl, worst_pa = 0.0, 0.0
    for _ in range(n_probes):
        f = random_field(g, rng)
        lhs, rhs = check_plancherel(plan, f)
        worst_pl = max(worst_pl, abs(lhs - rhs) / max(rhs, 1e-300))
        h = random_field(g, rng)
        lhs2, rhs2 = check_parseval(plan, f, h)
        den = max(lp_norm(f, 2) * lp_norm(h, 2), 1e-300)
        worst_pa = max(worst_pa, abs(lhs2 - rhs2) / den)
    rows.append(make_row(f"transform.plancherel.{tag}",
                         f"||F f||_2 = ||f||_2, worst of {n_probes} probes",
                         worst_pl, 0.0, tol["transform"], mode="abs"))
    rows.append(make_row(f"transform.parseval.{tag}",
                         f"<f,g> = <F f, F g>, worst of {n_probes} probes",
                         worst_pa, 0.0, tol["transform"], mode="abs"))

    f = random_field(g, rng)
    for p in (1.0, 1.5, 2.0):
        lhs, rhs = check_hausdorff_young(plan, f, p)
        rows.append(make_row(f"transform.hausdorff_young.p{p:g}.{tag}",
                             "||F f||_q <= ||f||_p, q = p/(p-1)",
                             lhs, rhs, tol["slack"], mode="le"))
    Ff = forward(plan, f)
    rows.append(make_row(f"transform.sup_bound.{tag}", "max |F f| <= ||f||_1",
                         lp_norm(Ff, np.inf), lp_norm(f, 1), tol["slack"], mode="le"))
    # conjugation and reflection identities
    fr = reflect(f)
    lhs_c = forward(plan, Field(g, np.conj(f.values)))
    rhs_c = Field(g, np.conj(forward(plan, fr).values))
    rows.append(make_row(f"transform.conjugation.{tag}",
                         "F(conj f) = conj(F(f(-.)))", _rel(lhs_c, rhs_c), 0.0,
                         tol["exact"], mode="abs"))
    rhs_r = reflect(forward(plan, fr))
    rows.append(make_row(f"transform.reflection.{tag}",
                         "F(f)(lam) = F(f(-.))(-lam)", _rel(Ff, rhs_r), 0.0,
                         tol["exact"], mode="abs"))
    # kernel row at zero frequency sums the weights exactly
    pts = g.nodes()
    row0 = weinstein_kernel(g.alpha, g.d, pts, np.zeros(g.d + 1)) * g.node_weights.reshape(-1)
    wsum = g.node_weights.sum()
    rows.append(make_row(f"transform.zero_row.{tag}",
                         "sum_x Lambda(x, 0) w_x = sum_x w_x (relative)",
                         float(np.abs(row0.sum() - wsum)) / wsum, 0.0,
                         1e-14, mode="abs"))
    return rows


# ---------------------------------------------------------------------------
# translation and convolution checks
# ---------------------------------------------------------------------------

def translation_checks(st: Stack, rng, tol: dict) -> list[CheckRow]:
    g, plan, kern = st.grid, st.plan, st.kernel
    tag = f"alpha{g.alpha:g}"
    rows = []
    rows.append(make_row(f"theta.normalization.{tag}",
                         "C_alpha int_0^pi (sin t)^{2a} dt = 1 (raw quadrature)",
                         kern.theta.raw_weight_sum, 1.0, 1e-10, mode="rel"))
    G = gaussian(g)
    zero = np.zeros(g.d + 1)
    rows.append(make_row(f"translate.identity.{tag}", "tau_0 f = f exactly",
                         float(np.max(np.abs(translate(kern, zero, G).values - G.values))),
                         0.0, 1e-12, mode="abs"))
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
    rows.append(make_row(f"translate.symmetry.{tag}",
                         "tau_x f(y) = tau_y f(x) at random node pairs (Gaussian f)",
                         worst, 0.0, 1e-6, mode="abs"))
    # transform identity, mass, contraction, positivity
    worst_mmm = 0.0
    for _ in range(5):
        f = random_field(g, rng)
        x = _rand_safe_node(g, rng)
        tf = translate(kern, x, f)
        lhs = forward(plan, tf)
        fac = weinstein_kernel(g.alpha, g.d, g.nodes(), x).reshape(g.shape)
        rhs = Field(g, fac * forward(plan, f).values)
        worst_mmm = max(worst_mmm, _rel(lhs, rhs))
    rows.append(make_row(f"translate.transform_identity.{tag}",
                         "F(tau_x f) = Lambda(x,.) F(f), worst relative L2",
                         worst_mmm, 0.0, tol["transform"], mode="abs"))
    pts_all = g.nodes()
    safe_mass = pts_all[pts_all[:, -1] <= 0.3 * g.radial_extent]
    x = safe_mass[rng.integers(0, len(safe_mass))]
    tf = translate(kern, x, G)
    one = Field(g, np.ones(g.shape, dtype=complex))
    rows.append(make_row(f"translate.mass.{tag}",
                         "int tau_x f dmu = int f dmu",
                         abs(inner_product(tf, one) - inner_product(G, one)), 0.0,
                         tol["mass"], mode="abs"))
    for p in (1, 2, np.inf):
        rows.append(make_row(f"translate.contraction.p{p}.{tag}",
                             "||tau_x f||_p <= ||f||_p",
                             lp_norm(tf, p), lp_norm(G, p), tol["slack"], mode="le"))
    rows.append(make_row(f"translate.positivity.{tag}",
                         "f >= 0 implies min(tau_x f) >= -1e-12",
                         float(np.min(tf.values.real)), 0.0, 1e-12,
                         passed=bool(np.min(tf.values.real) >= -1e-12)))
    return rows


def convolution_checks(st: Stack, rng, tol: dict) -> list[CheckRow]:
    g, plan, kern = st.grid, st.plan, st.kernel
    tag = f"alpha{g.alpha:g}"
    rows = []
    f = random_even_field(g, rng)
    h = random_even_field(g, rng)
    cv = convolve(kern, f, h)
    lhs = forward(plan, cv)
    rhs = Field(g, forward(plan, f).values * forward(plan, h).values)
    rows.append(make_row(f"conv.transform_identity.{tag}",
                         "F(f * g) = F(f) F(g), relative L2",
                         _rel(lhs, rhs), 0.0, tol["convolution"], mode="abs"))
    rows.append(make_row(f"conv.commutativity.{tag}", "f * g = g * f",
                         _rel(convolve(kern, h, f), cv), 0.0, 1e-6, mode="abs"))
    sp = convolve_spectral(plan, f, h)
    rows.append(make_row(f"conv.direct_vs_spectral.{tag}",
                         "quadrature and F^-1(F f F g) routes agree, relative L2",
                         _rel(cv, sp), 0.0, tol["convolution"], mode="abs"))
    rows.append(make_row(f"conv.l2_product_norm.{tag}",
                         "||f * g||_2 = ||F(f) F(g)||_2",
                         lp_norm(cv, 2), lp_norm(rhs, 2), tol["convolution"], mode="rel"))
    for (p, q, r) in ((1, 1, 1), (1, 2, 2), (2, 2, np.inf)):
        rows.append(make_row(f"conv.young.{p}_{q}_{r}.{tag}",
                             "||f*g||_r <= ||f||_p ||g||_q",
                             lp_norm(cv, r), lp_norm(f, p) * lp_norm(h, q),
                             tol["slack"], mode="le"))
    g1 = gaussian(g, 1.0)
    g2 = gaussian(g, 0.9)
    g3 = gaussian(g, 0.8)
    lhs_a = convolve(kern, convolve(kern, g1, g2), g3)
    rhs_a = convolve(kern, g1, convolve(kern, g2, g3))
    rows.append(make_row(f"conv.associativity.{tag}", "(f*g)*h = f*(g*h)",
                         _rel(lhs_a, rhs_a), 0.0, 2 * tol["convolution"], mode="abs"))
    # mollification: convolution with a narrow normalized bump stays close to f
    bump = gaussian(g, 0.35)
    one = Field(g, np.ones(g.shape, dtype=complex))
    bump = (1.0 / inner_product(bump, one).real) * bump
    mol = convolve(kern, g1, bump)
    rows.append(make_row(f"conv.mollification.{tag}",
                         "f * (narrow normalized bump) close to f",
                         _rel(mol, g1), 0.0, 0.2, mode="abs"))
    return rows


# ---------------------------------------------------------------------------
# wavelet checks
# ---------------------------------------------------------------------------

def wavelet_checks(st: Stack, rng, tol: dict,
                   windows: tuple | None = None) -> list[CheckRow]:
    g, plan = st.grid, st.plan
    tag = f"alpha{g.alpha:g}"
    rows = []
    if windows is None:
        pair = build_pair(plan, st.scale_grid, st.kernel)
    else:
        pair = build_pair(plan, st.scale_grid, st.kernel, windows[0], windows[1])
    default_pair = windows is None
    C_phi, sp_phi = admissibility_constant(plan, st.scale_grid, pair.phi)
    if default_pair:
        rows.append(make_row(f"adm.value_phi.{tag}",
                             "C of the |xi|^2 Gaussian profile = 1/2",
                             C_phi, 0.5, tol["adm_value"], mode="abs"))
    rows.append(make_row(f"adm.spread_phi.{tag}",
                         "scale integral constant across sampled xi",
                         sp_phi, 0.0, tol["adm_spread"], mode="abs"))
    C_psi, sp_psi = admissibility_constant(plan, st.scale_grid, pair.psi)
    if default_pair:
        rows.append(make_row(f"adm.value_psi.{tag}",
                             "C of the |xi|^4 Gaussian profile = 3",
                             C_psi, 3.0, 6.0 * tol["adm_value"], mode="abs"))
    rows.append(make_row(f"adm.spread_psi.{tag}",
                         "scale integral constant across sampled xi (second window)",
                         sp_psi, 0.0, tol["adm_spread"], mode="abs"))
    Ccross, sp_c = two_wavelet_constant(plan, st.scale_grid, pair.phi, pair.psi)
    if default_pair:
        rows.append(make_row(f"adm.value_cross.{tag}",
                             "cross constant of the default pair = 1",
                             abs(Ccross), 1.0, 2.0 * tol["adm_value"], mode="abs"))
    Cself, _ = two_wavelet_constant(plan, st.scale_grid, pair.phi, pair.phi)
    rows.append(make_row(f"adm.self_cross_coincide.{tag}",
                         "cross constant with psi=phi equals C_phi",
                         abs(Cself - C_phi), 0.0, 1e-12, mode="abs"))

    f = gaussian(g)
    W1 = cwt(pair, f, "phi")
    W2 = cwt_convolution_form(pair, f, "phi")

    def xl2(W):
        return float(np.sqrt(np.sum(pair.scale_grid.combined_weights * np.abs(W.values) ** 2)))

    rows.append(make_row(f"wav.pipelines_gaussian.{tag}",
                         "inner-product and convolution-form transforms agree",
                         xl2(W1 - W2) / max(xl2(W1), 1e-300), 0.0,
                         tol["convolution"], mode="abs"))
    fe = random_even_field(g, rng)
    We1 = cwt(pair, fe, "phi")
    We2 = cwt_convolution_form(pair, fe, "phi")
    rows.append(make_row(f"wav.pipelines_random.{tag}",
                         "pipeline agreement on a random even probe",
                         xl2(We1 - We2) / max(xl2(We1), 1e-300), 0.0,
                         tol["convolution"], mode="abs"))
    # linearity and sup bound
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    h = random_even_field(g, rng)
    Wlin = cwt(pair, Field(g, a * fe.values + b * h.values), "phi")
    Wrhs = a * cwt(pair, fe, "phi").values + b * cwt(pair, h, "phi").values
    rows.append(make_row(f"wav.linearity.{tag}", "W(a f + b g) = a W(f) + b W(g)",
                         float(np.max(np.abs(Wlin.values - Wrhs)))
                         / max(float(np.max(np.abs(Wrhs))), 1e-300),
                         0.0, 1e-12, mode="abs"))
    rows.append(make_row(f"wav.sup_bound.{tag}",
                         "max |W(f)| <= ||f||_2 ||phi||_2",
                         float(np.max(np.abs(W1.values))),
                         lp_norm(f, 2) * lp_norm(pair.phi.field, 2),
                         tol["slack"], mode="le"))
    lhs, rhs = check_two_wavelet_parseval(pair, f, random_even_field(g, rng))
    rows.append(make_row(f"wav.two_wavelet_parseval.{tag}",
                         "<W_phi f, W_psi g>_X = C_{phi,psi} <f, g>",
                         abs(lhs - rhs) / max(abs(rhs), 1e-300), 0.0,
                         tol["wavelet"], mode="abs"))
    rec = invert_cwt(pair, W1)
    rows.append(make_row(f"wav.inversion.{tag}",
                         "synthesis of W_phi(f) over X recovers f (Gaussian)",
                         _rel(rec, f), 0.0, tol["wavelet"], mode="abs"))
    # dilation identities at representable scales
    for a_ in (0.5, 2.0):
        da = dilate(a_, pair.phi.field)
        q = 2.0 * g.alpha + g.d + 2.0
        for p in (1, 2, np.inf):
            e = 0.0 if p == np.inf else 1.0 / p
            pred = a_ ** (q * (e - 1.0)) * lp_norm(pair.phi.field, p)
            rows.append(make_row(f"wav.dilate_norm.a{a_:g}.p{p}.{tag}",
                                 "||phi_a||_p = a^{(2a+d+2)(1/p-1)} ||phi||_p",
                                 lp_norm(da, p), pred, 1e-2, mode="rel"))
        Fd = forward(plan, da)
        pts = g.nodes() * a_
        from .wavelets import eval_freq_data
        pred_vals = eval_freq_data(pair.phi, plan, pts).reshape(g.shape)
        num = np.sqrt(np.sum(g.node_weights * np.abs(Fd.values - pred_vals) ** 2))
        den = np.sqrt(np.sum(g.node_weights * np.abs(pred_vals) ** 2))
        rows.append(make_row(f"wav.dilate_fourier.a{a_:g}.{tag}",
                             "F(phi_a)(xi) = F(phi)(a xi)",
                             num / max(den, 1e-300), 0.0, 1e-2, mode="abs"))
    # family member norms, at scales where the band-limit taper is inactive
    x = _rand_safe_node(g, rng)
    for a_ in (1.0, 2.0):
        fam = family_member(st.kernel, plan, pair.phi, a_, x)
        rows.append(make_row(f"wav.family_l2.a{a_:g}.{tag}",
                             "||phi_{a,x}||_2 <= ||phi||_2",
                             lp_norm(fam, 2), lp_norm(pair.phi.field, 2),
                             tol["slack"], mode="le"))
        q = 2.0 * g.alpha + g.d + 2.0
        for p in (1, np.inf):
            e = 0.0 if p == np.inf else 1.0 / p
            pred = a_ ** (q * (e - 0.5)) * lp_norm(pair.phi.field, p)
            rows.append(make_row(f"wav.family_lp.a{a_:g}.p{p}.{tag}",
                                 "||phi_{a,x}||_p <= a^{(2a+d+2)(1/p-1/2)} ||phi||_p",
                                 lp_norm(fam, p), pred, tol["slack"], mode="le"))
    # transform of the family member at (1, 0) is the window itself
    zero = np.zeros(g.d + 1)
    fam0 = family_member(st.kernel, plan, pair.phi, 1.0, zero)
    rows.append(make_row(f"wav.family_identity.{tag}",
                         "phi_{1,0} = phi", _rel(fam0, pair.phi.field), 0.0,
                         1e-10, mode="abs"))
    # localization of W(phi_{1,0}) near (a, x) = (1, 0)
    Wp = cwt(pair, fam0, "phi")
    mags = np.abs(Wp.values)
    jmax, cmax, rmax = np.unravel_index(int(np.argmax(mags)), mags.shape)
    la = np.log(pair.scale_grid.scales)
    dla = la[1] - la[0]
    cart = g.cart_coordinates()
    ok = (abs(la[jmax]) <= 1.5 * dla
          and np.linalg.norm(cart[cmax]) <= 2.1 * g.cart_step
          and g.radial_nodes[rmax] <= np.partition(g.radial_nodes, 3)[3] + 1e-12)
    rows.append(make_row(f"wav.self_localization.{tag}",
                         "argmax |W(phi_{1,0})| lies in the cell block at (1, 0)",
                         float(jmax), float(np.argmin(np.abs(la))), 0.0, passed=ok))
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


def operator_exact_checks(st: Stack, rng, tol: dict, pair: WaveletPair) -> list[CheckRow]:
    """Exact discrete identities (weak/strong, adjoint, rank-one, scaling)."""
    g = st.grid
    tag = f"alpha{g.alpha:g}"
    rows = []
    sym = loc.symbol_bump(pair.scale_grid)
    L = loc.assemble(pair, sym)
    f = random_field(g, rng)
    h = random_field(g, rng)
    weak = loc.weak_form(pair, sym, f, h)
    strong = inner_product(loc.apply_operator(L, f), h)
    rows.append(make_row(f"op.weak_strong.{tag}",
                         "<L f, g> equals the scale-space weak form exactly",
                         abs(weak - strong) / max(abs(weak), 1e-300), 0.0,
                         tol["operator_exact"], mode="abs"))
    Ladj = loc.adjoint(L)
    scale = max(float(np.max(np.abs(L.matrix))), 1e-300)
    rows.append(make_row(f"op.adjoint_matrix.{tag}",
                         "matrix(L*) = weighted conjugate transpose of matrix(L)",
                         float(np.max(np.abs(Ladj.matrix - L.matrix.conj().T))) / scale,
                         0.0, tol["operator_exact"], mode="abs"))
    rows.append(make_row(f"op.adjoint_pairing.{tag}",
                         "<L f, g> = <f, L* g>",
                         abs(inner_product(loc.apply_operator(L, f), h)
                             - inner_product(f, loc.apply_operator(Ladj, h)))
                         / max(abs(weak), 1e-300),
                         0.0, tol["operator_exact"], mode="abs"))
    Ldd = loc.adjoint(Ladj)
    rows.append(make_row(f"op.double_adjoint.{tag}", "L** = L",
                         float(np.max(np.abs(Ldd.matrix - L.matrix))) / scale,
                         0.0, 1e-12, mode="abs"))
    c = 2.5
    L2x = loc.assemble(pair, loc.SymbolField(sym.grid, c * sym.values,
                                             declared_class=sym.declared_class))
    rows.append(make_row(f"op.symbol_scaling.{tag}",
                         "matrix(c sigma) = c matrix(sigma)",
                         float(np.max(np.abs(L2x.matrix - c * L.matrix))) / (c * scale),
                         0.0, 1e-12, mode="abs"))

    # hermitian for a real symbol with psi = phi
    pair_same = WaveletPair(plan=pair.plan, scale_grid=pair.scale_grid,
                            kernel=pair.kernel, phi=pair.phi, psi=pair.phi)
    Lh = loc.assemble(pair_same, sym)
    Wn = pair.plan.grid.node_weights.reshape(-1)
    Hm = np.sqrt(Wn)[:, None] * Lh.matrix * np.sqrt(Wn)[None, :]
    rows.append(make_row(f"op.hermitian.{tag}",
                         "real symbol, psi = phi: symmetrized matrix is Hermitian",
                         float(np.max(np.abs(Hm - Hm.conj().T)))
                         / max(float(np.max(np.abs(Hm))), 1e-300),
                         0.0, tol["operator_exact"], mode="abs"))

    # rank-one single cell
    jmid = pair.scale_grid.scale_points // 2
    ccell = g.cart_flat_index(np.zeros(g.d))
    rcell = g.radial_points // 3
    sym1 = loc.symbol_single_cell(pair.scale_grid, jmid, ccell, rcell)
    L1 = loc.assemble(pair, sym1)
    a_ = float(pair.scale_grid.scales[jmid])
    xpt = np.concatenate([g.cart_coordinates()[ccell], [g.radial_nodes[rcell]]])
    phi_ax = family_member(st.kernel, pair.plan, pair.phi, a_, xpt)
    psi_ax = family_member(st.kernel, pair.plan, pair.psi, a_, xpt)
    wcell = (pair.scale_grid.scale_weights[jmid]
             * a_ ** (-pair.scale_grid.measure_power)
             * g.node_weights[ccell, rcell])
    pred = wcell * np.outer(psi_ax.values.reshape(-1), np.conj(phi_ax.values.reshape(-1)))
    rows.append(make_row(f"op.rank_one_matrix.{tag}",
                         "single-cell symbol gives w <.,phi_ax> psi_ax",
                         float(np.max(np.abs(L1.matrix - pred)))
                         / max(float(np.max(np.abs(pred))), 1e-300),
                         0.0, tol["rank_one"], mode="abs"))
    rows.append(make_row(f"op.rank_one_norm.{tag}",
                         "rank-one operator norm = w ||phi_ax||_2 ||psi_ax||_2",
                         loc.measured_norm(L1, 2),
                         wcell * lp_norm(phi_ax, 2) * lp_norm(psi_ax, 2),
                         tol["rank_one"], mode="rel"))
    sv1 = loc.singular_value_profile(L1)
    rows.append(make_row(f"op.rank_one_spectrum.{tag}",
                         "single-cell operator has one nonzero singular value",
                         float(sv1[1] / sv1[0]), 0.0, 1e-10, mode="abs"))

    # sigma = 1 with psi = phi approximates C_phi * identity in the quadratic form
    Lid = loc.assemble(pair_same, loc.symbol_indicator(pair.scale_grid))
    fG = gaussian(g)
    val = inner_product(loc.apply_operator(Lid, fG), fG).real
    rows.append(make_row(f"op.identity_symbol.{tag}",
                         "<L_{phi,phi}(1) f, f> = C_phi ||f||_2^2",
                         val, pair_same.C_phi * lp_norm(fG, 2) ** 2, tol["examples"],
                         mode="rel"))
    return rows


def operator_bound_checks(st: Stack, tol: dict, pair_name: str, pair: WaveletPair,
                          probes: np.ndarray) -> list[CheckRow]:
    """Norm-bound dominance and singular-value decay across symbol classes."""
    g = st.grid
    tag = f"alpha{g.alpha:g}.{pair_name}"
    rows = []
    for name, s in _symbols(pair.scale_grid).items():
        Ls = loc.assemble(pair, s)
        for p in (1, 2, np.inf):
            measured = loc.measured_norm(Ls, p)
            bound, btag, _ = loc.theoretical_bound(pair, s, p)
            rows.append(make_row(f"op.bound.{name}.p{p}.{tag}",
                                 f"measured {p}-norm <= tightest bound ({btag})",
                                 measured, bound, tol["bound_slack"], mode="le"))
        for p in (1.25, 1.5, 3.0):
            measured = loc.measured_norm(Ls, p, probes=probes)
            bound, btag, _ = loc.theoretical_bound(pair, s, p)
            rows.append(make_row(f"op.bound_lower.{name}.p{p:g}.{tag}",
                                 f"probe lower bound for the {p}-norm <= bound ({btag})",
                                 measured, bound, tol["bound_slack"], mode="le"))
        if name in ("l1_bump", "separable"):
            sv = loc.singular_value_profile(Ls)
            k = int(np.argmax(sv / sv[0] < tol["svd_level"]))
            frac = k / len(sv) if sv[0] > 0 else 0.0
            rows.append(make_row(f"op.svd_decay.{name}.{tag}",
                                 "normalized singular values below 1e-3 within 25% of spectrum",
                                 frac, tol["svd_fraction"], 0.0,
                                 passed=bool(0 < frac <= tol["svd_fraction"])))
    return rows


def example_checks(st: Stack, rng, tol: dict) -> list[CheckRow]:
    g, plan = st.grid, st.plan
    tag = f"alpha{g.alpha:g}"
    rows = []
    pair = build_pair(plan, st.scale_grid, st.kernel)
    sg = pair.scale_grid

    # multiplier: scale-only symbol acts as a transform-side multiplier
    sym = loc.symbol_scale_only(sg)
    Lc = loc.assemble(pair, sym)
    f = random_even_field(g, rng)
    lhs = loc.apply_operator(Lc, f)
    m = loc.multiplier_symbol(pair, sym.chi)
    rhs = loc.apply_multiplier(pair, m, f)
    rows.append(make_row(f"ex.multiplier_equivalence.{tag}",
                         "L(chi(a)) f = F^{-1}(m F f), relative L2",
                         _rel(lhs, rhs), 0.0, tol["examples"], mode="abs"))
    # chi = 1, psi = phi: m is the admissibility constant on the analysis band
    pair_same = WaveletPair(plan=plan, scale_grid=sg, kernel=st.kernel,
                            phi=pair.phi, psi=pair.phi)
    m1 = loc.multiplier_symbol(pair_same, np.ones(sg.scale_points))
    pts = g.nodes().reshape(g.shape + (g.d + 1,))
    rad = np.sqrt(np.sum(pts**2, axis=-1))
    # radii where [a_min, a_max] covers the scale integrand to ~1e-4
    band = (rad > 0.35) & (rad < 2.8)
    spread = float(np.max(np.abs(m1.values[band].real - pair_same.C_phi))
                   / pair_same.C_phi)
    rows.append(make_row(f"ex.multiplier_constancy.{tag}",
                         "chi=1, psi=phi: m = C_phi across the analysis band",
                         spread, 0.0, tol["adm_spread"], mode="abs"))

    # paraproduct lemma and L1 bound (unit-normalized windows)
    nphi = lp_norm(pair.phi.field, 2)
    npsi = lp_norm(pair.psi.field, 2)
    wphi = type(pair.phi)(field=(1.0 / nphi) * pair.phi.field,
                          freq_profile=_scale_profile(pair.phi.freq_profile, 1.0 / nphi),
                          name="phi_unit")
    wpsi = type(pair.psi)(field=(1.0 / npsi) * pair.psi.field,
                          freq_profile=_scale_profile(pair.psi.freq_profile, 1.0 / npsi),
                          name="psi_unit")
    pairu = WaveletPair(plan=plan, scale_grid=sg, kernel=st.kernel, phi=wphi, psi=wpsi)
    fu = random_even_field(g, rng)
    gu = random_even_field(g, rng)
    pp = loc.paraproduct(pairu, fu, gu)
    one = Field(g, np.ones(g.shape, dtype=complex))
    lhs_l = inner_product(pp, one)
    rhs_l = pairu.C_phi_psi * inner_product(fu, gu)
    rows.append(make_row(f"ex.paraproduct_lemma.{tag}",
                         "int p(f,g) dmu = C_{phi,psi} <f, g>",
                         abs(lhs_l - rhs_l) / max(abs(rhs_l), 1e-300), 0.0,
                         tol["examples"], mode="abs"))
    rows.append(make_row(f"ex.paraproduct_l1.{tag}",
                         "||p(f,g)||_1 <= sqrt(C_phi C_psi) ||f||_2 ||g||_2",
                         lp_norm(pp, 1),
                         np.sqrt(abs(pairu.C_phi * pairu.C_psi))
                         * lp_norm(fu, 2) * lp_norm(gu, 2),
                         tol["slack"], mode="le"))
    rows.append(make_row(f"ex.paraproduct_zero.{tag}", "p(0, g) = 0",
                         float(np.max(np.abs(loc.paraproduct(
                             pairu, Field(g, np.zeros(g.shape, complex)), gu).values))),
                         0.0, 1e-14, mode="abs"))

    # paracommutator: weak form through the frequency-side kernel
    sym_sep = loc.symbol_separable(sg)
    Lsep = loc.assemble(pair, sym_sep)
    fpc = random_even_field(g, rng)
    gpc = random_even_field(g, rng)
    lhs_pc = inner_product(loc.apply_operator(Lsep, fpc), gpc)
    rhs_pc = _paracommutator_weak(pair, sym_sep, fpc, gpc, st)
    rows.append(make_row(f"ex.paracommutator_weak.{tag}",
                         "<L(chi zeta) f, g> = double frequency integral with kernel K",
                         abs(lhs_pc - rhs_pc) / max(abs(lhs_pc), 1e-300), 0.0,
                         tol["examples"], mode="abs"))
    # kernel reductions
    xi = np.array([0.4] * g.d + [0.9])
    kv = loc.paracommutator_kernel(pair_same, loc.symbol_separable(sg, 0.0, 1e6),
                                   xi, xi)
    rows.append(make_row(f"ex.paracommutator_diag.{tag}",
                         "K(xi, xi) with chi=1, psi=phi reduces to C_phi",
                         complex(kv).real, pair_same.C_phi, 5e-3, mode="rel"))
    return rows


def _scale_profile(profile, c):
    if profile is None:
        return None
    return lambda pts: c * profile(pts)


def _paracommutator_weak(pair: WaveletPair, sym, f: Field, g2: Field, st: Stack) -> complex:
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

def _config_windows(config: RunConfig, st: Stack):
    """(phi, psi) Windows from csv: paths in the config, or None for defaults.

    CSV windows carry no analytic frequency profile, so admissibility
    integrals go through the interpolated transform; a window whose scale
    integral is not constant in frequency fails the spread checks.
    """
    if config.window_phi == "default" and config.window_psi == "default":
        return None
    from pathlib import Path
    from .report import parse_field_csv
    from .wavelets import Window, default_windows
    d_phi, d_psi = default_windows(st.plan)

    def load(selector, fallback):
        if selector == "default":
            return fallback
        if not selector.startswith("csv:"):
            raise ValueError(
                f"window must be 'default' or 'csv:<path>', got {selector!r}")
        vals = parse_field_csv(st.grid, Path(selector[4:]).read_text())
        return Window(field=Field(st.grid, vals), freq_profile=None, name=selector)

    return load(config.window_phi, d_phi), load(config.window_psi, d_psi)


def run_verify(config: RunConfig) -> list[CheckRow]:
    """Run every check; row order is fixed by declaration order."""
    tol = tolerances(config)
    rows: list[CheckRow] = []
    alphas = config.alpha_list()
    rng = np.random.default_rng(config.seed)
    for alpha in alphas:
        rows += kernel_checks(alpha, config.d, rng, tol)
    for alpha in alphas:
        st = build_stack(alpha, config.d, config.n, config.m, config.a_min,
                         config.a_max, config.scales, config.theta_count,
                         config.cart_extent, config.radial_extent)
        rows += transform_checks(st, rng, tol)
        rows += translation_checks(st, rng, tol)
        rows += convolution_checks(st, rng, tol)
    st_main = build_stack(config.alpha, config.d, config.n, config.m, config.a_min,
                          config.a_max, config.scales, config.theta_count,
                          config.cart_extent, config.radial_extent)
    rows += wavelet_checks(st_main, rng, tol, windows=_config_windows(config, st_main))
    for alpha in alphas:
        st_op = build_stack(alpha, config.d, config.op_n, config.op_m, config.a_min,
                            config.a_max, config.op_scales, config.theta_count)
        probes = loc.probe_matrix(st_op.grid, samples=200, seed=config.seed + 1)
        pair_a = build_pair(st_op.plan, st_op.scale_grid, st_op.kernel)
        pair_b = _second_pair(st_op.plan, st_op.scale_grid, st_op.kernel)
        rows += operator_exact_checks(st_op, rng, tol, pair_a)
        rows += operator_bound_checks(st_op, tol, "pairA", pair_a, probes)
        rows += operator_bound_checks(st_op, tol, "pairB", pair_b, probes)
        if abs(alpha - config.alpha) < 1e-12:
            rows += example_checks(st_op, rng, tol)
    return rows
