"""Wavelet family, admissibility, transform pipelines, Parseval, inversion."""

import numpy as np
import pytest
from scipy.integrate import quad

from weinstein.grids import (Field, _matmul, _matmul_real_right, build_base_grid,
                             build_scale_grid, inner_product, lp_norm, reflect,
                             scale_inner_product, scale_lp_norm, ScaleField)
from weinstein.probes import gaussian, random_even_field
from weinstein.transform import build_plan, forward, inverse
from weinstein.translation import (ThetaRule, TranslationKernel, cart_fft, convolve,
                                   convolve_spectral, lattice_shift, translate)
from weinstein.wavelets import (SPECTRUM_FLOOR, Window, admissibility_constant, build_pair,
                                cwt, cwt_convolution_form, check_two_wavelet_parseval,
                                band_taper, default_windows, dilate, eval_freq_data,
                                family_member, invert_cwt, scaled_freq_data,
                                two_wavelet_constant, window_from_profile)


@pytest.fixture(scope="module")
def st():
    g = build_base_grid(0.5, 1, 48, 48)
    plan = build_plan(g)
    kern = TranslationKernel(g, ThetaRule(0.5))
    sg = build_scale_grid(g, 1 / 16, 16.0, 48)
    pair = build_pair(plan, sg, kern)
    return g, plan, kern, sg, pair


@pytest.fixture(scope="module")
def st2():
    # tiny d=2 stack: the lattice sums run over two Cartesian axes
    g = build_base_grid(0.5, 2, 10, 10)
    plan = build_plan(g)
    kern = TranslationKernel(g, ThetaRule(0.5, 32))
    sg = build_scale_grid(g, 1 / 16, 16.0, 24)
    pair = build_pair(plan, sg, kern)
    return g, plan, kern, sg, pair


@pytest.fixture(scope="module")
def st_odd():
    # odd n: a correlation's lattice origin -x_0 is not node 0
    g = build_base_grid(0.5, 1, 49, 48)
    plan = build_plan(g)
    kern = TranslationKernel(g, ThetaRule(0.5))
    sg = build_scale_grid(g, 1 / 16, 16.0, 48)
    return g, plan, kern, sg, build_pair(plan, sg, kern)


def xrel(W1, W2, sg):
    def n(W):
        return np.sqrt(np.sum(sg.combined_weights * np.abs(W.values) ** 2))
    return n(W1 - W2) / n(W1)


def test_admissibility_quadrature_oracle(st):
    # independent adaptive-quadrature oracle for the scale integrals
    g, plan, kern, sg, pair = st
    C_phi, spread = admissibility_constant(plan, sg, pair.phi)
    oracle, _ = quad(lambda s: (s**2 * np.exp(-s**2 / 2)) ** 2 / s, 0, np.inf)
    assert C_phi == pytest.approx(oracle, abs=1e-4)
    assert C_phi == pytest.approx(0.5, abs=1e-4)
    assert spread <= 1e-3
    C_psi, sp2 = admissibility_constant(plan, sg, pair.psi)
    oracle2, _ = quad(lambda s: (s**4 * np.exp(-s**2 / 2)) ** 2 / s, 0, np.inf)
    assert C_psi == pytest.approx(oracle2, rel=1e-4)
    assert sp2 <= 1e-3


def test_two_wavelet_constant(st):
    g, plan, kern, sg, pair = st
    C, spread = two_wavelet_constant(plan, sg, pair.phi, pair.psi)
    oracle, _ = quad(lambda s: s**6 * np.exp(-s**2) / s, 0, np.inf)
    assert abs(C - oracle) < 2e-4
    assert spread <= 1e-3
    # psi = phi reduces to the admissibility constant
    C2, _ = two_wavelet_constant(plan, sg, pair.phi, pair.phi)
    C_phi, _ = admissibility_constant(plan, sg, pair.phi)
    assert abs(C2 - C_phi) < 1e-14


def test_disjoint_supports_give_zero_cross_constant(st):
    g, plan, kern, sg, pair = st
    from weinstein.wavelets import radial_profile
    lo = Window(field=pair.phi.field,
                freq_profile=radial_profile(lambda s: np.where(s < 0.1, s**2, 0.0)))
    hi = Window(field=pair.psi.field,
                freq_profile=radial_profile(lambda s: np.where(s > 0.2, np.exp(-s**2), 0.0)))
    C, _ = two_wavelet_constant(plan, sg, lo, hi)
    assert abs(C) < 1e-12


def test_non_admissible_window_flagged_by_spread(st):
    # nonzero transform at 0 frequency: the truncated-range scale integral
    # is strongly frequency dependent
    g, plan, kern, sg, pair = st
    from weinstein.wavelets import radial_profile
    bad = Window(field=gaussian(g), freq_profile=radial_profile(
        lambda s: np.exp(-s**2 / 2)))
    C, spread = admissibility_constant(plan, sg, bad)
    assert spread > 0.1


def test_dilate_norm_scaling(st):
    g, plan, kern, sg, pair = st
    q = 2 * g.alpha + g.d + 2
    for a in (0.5, 1.0, 2.0):
        da = dilate(a, pair.phi.field)
        for p in (1, 2, np.inf):
            e = 0.0 if p == np.inf else 1.0 / p
            assert lp_norm(da, p) == pytest.approx(
                a ** (q * (e - 1)) * lp_norm(pair.phi.field, p), rel=5e-3)
    assert np.max(np.abs(dilate(1.0, pair.phi.field).values
                         - pair.phi.field.values)) < 1e-9
    with pytest.raises(ValueError):
        dilate(-1.0, pair.phi.field)


def test_dilate_transform_scaling(st):
    g, plan, kern, sg, pair = st
    from weinstein.wavelets import eval_freq_data
    for a in (0.5, 2.0):
        Fd = forward(plan, dilate(a, pair.phi.field))
        pred = eval_freq_data(pair.phi, plan, g.nodes() * a).reshape(g.shape)
        num = np.sqrt(np.sum(g.node_weights * np.abs(Fd.values - pred) ** 2))
        den = np.sqrt(np.sum(g.node_weights * np.abs(pred) ** 2))
        assert num / den < 5e-3


def test_family_member_norms(st):
    g, plan, kern, sg, pair = st
    rng = np.random.default_rng(0)
    pts = g.nodes()
    safe = pts[pts[:, -1] <= g.radial_extent / 2]
    q = 2 * g.alpha + g.d + 2
    for a in (0.5, 1.0, 2.0):
        x = safe[rng.integers(len(safe))]
        fam = family_member(kern, plan, pair.phi, a, x)
        assert lp_norm(fam, 2) <= lp_norm(pair.phi.field, 2) * (1 + 1e-6)
        for p in (1, np.inf):
            e = 0.0 if p == np.inf else 1.0 / p
            bound = a ** (q * (e - 0.5)) * lp_norm(pair.phi.field, p)
            assert lp_norm(fam, p) <= bound * (1 + 1e-6)
    fam0 = family_member(kern, plan, pair.phi, 1.0, np.zeros(g.d + 1))
    assert np.max(np.abs(fam0.values - pair.phi.field.values)) < 1e-10


def test_cwt_pipelines_agree(st):
    g, plan, kern, sg, pair = st
    rng = np.random.default_rng(1)
    for f in (gaussian(g), random_even_field(g, rng)):
        W1 = cwt(pair, f, "phi")
        W2 = cwt_convolution_form(pair, f, "phi")
        assert xrel(W1, W2, sg) < 2e-3


def test_cwt_matches_direct_inner_products(st, st2, st_odd):
    # the scale-space samples are literally <f, phi_{a,x}> with the
    # translated-dilated family materialized one member at a time (the
    # members are shifted by translate(), independently of the FFT)
    for g, plan, kern, sg, pair in (st, st2, st_odd):
        f = gaussian(g)
        W = cwt(pair, f, "phi")
        rng = np.random.default_rng(2)
        for _ in range(5):
            j = int(rng.integers(8, sg.scale_points - 8))
            flat = int(rng.integers(g.n_cart))
            ir = int(rng.integers(g.radial_points // 2))
            x = np.concatenate([g.cart_coordinates()[flat], [g.radial_nodes[ir]]])
            fam = family_member(kern, plan, pair.phi, float(sg.scales[j]), x)
            direct = inner_product(f, fam)
            assert abs(W.values[j, flat, ir] - direct) <= 1e-10 * max(abs(direct), 1.0)


def test_cwt_zero_and_linearity(st):
    g, plan, kern, sg, pair = st
    z = Field(g, np.zeros(g.shape))
    assert np.max(np.abs(cwt(pair, z, "phi").values)) == 0.0
    rng = np.random.default_rng(3)
    f, h = random_even_field(g, rng), random_even_field(g, rng)
    a, b = 0.7 - 1.1j, 0.4 + 0.2j
    lhs = cwt(pair, Field(g, a * f.values + b * h.values), "phi").values
    rhs = a * cwt(pair, f, "phi").values + b * cwt(pair, h, "phi").values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_cwt_sup_bound(st):
    g, plan, kern, sg, pair = st
    f = gaussian(g)
    W = cwt(pair, f, "phi")
    assert np.max(np.abs(W.values)) <= lp_norm(f, 2) * lp_norm(pair.phi.field, 2) * (1 + 1e-9)


def test_two_wavelet_parseval(st):
    g, plan, kern, sg, pair = st
    rng = np.random.default_rng(4)
    f = gaussian(g)
    h = random_even_field(g, rng)
    lhs, rhs = check_two_wavelet_parseval(pair, f, h)
    assert abs(lhs - rhs) <= 0.02 * abs(rhs)
    # parity-orthogonal pair: both sides vanish
    odd_vals = g.cart_coordinates()[:, 0:1] * gaussian(g).values.reshape(g.shape)
    odd = Field(g, odd_vals.reshape(g.shape))
    lhs2, rhs2 = check_two_wavelet_parseval(pair, odd, f)
    assert abs(rhs2) < 1e-12
    assert abs(lhs2) < 1e-6


def test_self_parseval_with_admissibility_constant(st):
    g, plan, kern, sg, pair = st
    f = gaussian(g)
    W = cwt(pair, f, "phi")
    lhs = np.sum(sg.combined_weights * np.abs(W.values) ** 2)
    assert lhs == pytest.approx(pair.C_phi * lp_norm(f, 2) ** 2, rel=0.02)


def test_inversion_roundtrip(st, st_odd):
    for g, plan, kern, sg, pair in (st, st_odd):
        f = gaussian(g)
        rec = invert_cwt(pair, cwt(pair, f, "phi"))
        assert lp_norm(rec - f, 2) / lp_norm(f, 2) < 0.02
        z = ScaleField(sg, np.zeros(sg.shape))
        assert np.max(np.abs(invert_cwt(pair, z).values)) == 0.0


# -- the space-first order: contract the translation tensor in space, then
# FFT the (n^d, m, m) result over the Cartesian axes

def convolve_space_first(kern, f, h):
    g = f.grid
    C = np.einsum("c,y,cy,yxr->cxr", g.cart_weight_flat, g.radial_weights,
                  h.values, kern.tensor, optimize=True)
    spec = np.einsum("cxr,cr->cx", cart_fft(g, C), cart_fft(g, f.values))
    return lattice_shift(g, cart_fft(g, spec, inverse=True), 0)


def cwt_space_first(pair, f, which):
    g, sg = pair.plan.grid, pair.scale_grid
    B = np.einsum("c,y,cy,xyr->cxr", g.cart_weight_flat, g.radial_weights,
                  f.values, pair.kernel.tensor, optimize=True)
    Wh = np.conj(cart_fft(g, pair.space_data(which).transpose(1, 2, 0)))
    spec = np.matmul(cart_fft(g, B), Wh)
    corr = lattice_shift(g, cart_fft(g, spec, inverse=True), g.cart_reflect_index()[0])
    return sg.scales[:, None, None] ** pair.gamma * corr.transpose(2, 0, 1)


def invert_cwt_space_first(pair, W):
    g, sg = pair.plan.grid, pair.scale_grid
    c = sg.scale_weights * sg.scales ** (pair.gamma - sg.measure_power)
    cW = c[:, None, None] * g.node_weights * W.values
    spec = np.matmul(cart_fft(g, cW.transpose(1, 2, 0)),
                     cart_fft(g, pair.space_data("psi").transpose(1, 0, 2)))
    S = lattice_shift(g, cart_fft(g, spec, inverse=True), 0)
    return np.einsum("cxr,xyr->cy", S, pair.kernel.tensor, optimize=True) / pair.C_phi_psi


def tiny_pair(alpha, d, n, m, scales):
    g = build_base_grid(alpha, d, n, m)
    plan = build_plan(g)
    return build_pair(plan, build_scale_grid(g, 1 / 16, 16.0, scales),
                      TranslationKernel(g, ThetaRule(alpha, 32)))


@pytest.mark.parametrize("alpha,d,n,m", [(0.5, 1, 12, 10), (1.5, 1, 11, 10), (0.0, 2, 6, 5),
                                         (0.5, 2, 5, 4)])
def test_spectrum_first_routes_match_space_first_order(alpha, d, n, m):
    # the lattice DFT commutes with the radial contraction; only the
    # summation order changes, so the routes agree to rounding
    pair = tiny_pair(alpha, d, n, m, 8)
    g = pair.plan.grid
    rng = np.random.default_rng(n)
    f, h = (Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)) for _ in "fh")

    def close(got, ref):
        return np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    assert close(convolve(pair.kernel, f, h).values, convolve_space_first(pair.kernel, f, h))
    for which in ("phi", "psi"):
        assert close(cwt(pair, f, which).values, cwt_space_first(pair, f, which))
    W = ScaleField(pair.scale_grid, rng.normal(size=pair.scale_grid.shape)
                   + 1j * rng.normal(size=pair.scale_grid.shape))
    assert close(invert_cwt(pair, W).values, invert_cwt_space_first(pair, W))


def test_lattice_spectrum_cache_one_read_only_entry_per_window():
    pair = tiny_pair(0.5, 1, 12, 10, 8)
    g = pair.plan.grid
    f = gaussian(g)
    W = cwt(pair, f, "phi")
    cwt(pair, f, "psi")
    invert_cwt(pair, W)
    cwt(pair, f, "phi")
    spectra = sorted(k for k in pair._data if k.endswith("_spectrum"))
    assert spectra == ["phi_spectrum", "psi_spectrum"]
    for which in ("phi", "psi"):
        spec = pair.lattice_spectrum(which)
        assert spec is pair._data[which + "_spectrum"]
        assert not spec.flags.writeable
        assert spec.shape == (g.n_cart, g.radial_points, pair.scale_grid.scale_points)


@pytest.mark.parametrize("d,n,m", [(1, 16, 12), (1, 17, 12), (2, 7, 6), (2, 8, 6)])
def test_lattice_spectrum_is_the_spectrum_of_the_samples_at_the_origin(d, n, m):
    # read off the frequency data, the spectrum equals the lattice DFT of the
    # samples in space moved to the lattice origin, with no phase at odd or
    # even n, for the default pair and a modulated window with no profile;
    # parts below the floor are exactly 0 (the unfloored data hold some)
    pair = tiny_pair(0.5, d, n, m, 6)
    g = pair.plan.grid
    x1 = g.nodes()[:, 0].reshape(g.shape)
    mod = Window(field=Field(g, pair.phi.field.values * np.exp(0.7j * x1)))
    for p in (pair, build_pair(pair.plan, pair.scale_grid, pair.kernel, mod, pair.psi)):
        for which in ("phi", "psi"):
            spec = p.lattice_spectrum(which)
            ref = cart_fft(g, lattice_shift(g, p.space_data(which).transpose(1, 2, 0), 0))
            assert np.max(np.abs(spec - ref)) <= 1e-14 * np.max(np.abs(ref))
            parts = np.abs(spec.view(np.float64))
            assert np.all(parts[parts > 0] >= SPECTRUM_FLOOR * parts.max())


def test_cwt_after_invert_matches_fresh_pair():
    # invert_cwt fills the psi spectrum first; cwt must read the same array
    used, fresh = tiny_pair(0.5, 1, 12, 10, 8), tiny_pair(0.5, 1, 12, 10, 8)
    g = used.plan.grid
    f = random_even_field(g, np.random.default_rng(9))
    invert_cwt(used, ScaleField(used.scale_grid, np.ones(used.scale_grid.shape)))
    ref = cwt(fresh, Field(fresh.plan.grid, f.values), "psi").values
    assert np.array_equal(cwt(used, f, "psi").values, ref)


def test_unknown_window_name_rejected():
    pair = tiny_pair(0.5, 1, 12, 10, 8)
    f = gaussian(pair.plan.grid)
    cwt(pair, f, "phi")
    keys = set(pair._data)
    for name in ("Phi", "phi_space", "chi"):
        for route in (cwt, cwt_convolution_form):
            with pytest.raises(ValueError, match="'phi' or 'psi'"):
                route(pair, f, name)
        for call in (pair.freq_data, pair.space_data, pair.lattice_spectrum):
            with pytest.raises(ValueError, match="'phi' or 'psi'"):
                call(name)
    assert set(pair._data) == keys


def test_inversion_refuses_degenerate_pair(st):
    g, plan, kern, sg, pair = st
    from weinstein.wavelets import WaveletPair, radial_profile
    lo = Window(field=pair.phi.field,
                freq_profile=radial_profile(lambda s: np.where(s < 0.1, s**2, 0.0)))
    hi = Window(field=pair.psi.field,
                freq_profile=radial_profile(lambda s: np.where(s > 0.2, np.exp(-s**2), 0.0)))
    bad = WaveletPair(plan=plan, scale_grid=sg, kernel=kern, phi=lo, psi=hi)
    W = cwt(pair, gaussian(g), "phi")
    with pytest.raises(ValueError):
        invert_cwt(bad, W)


def test_window_from_field_without_profile(st):
    # a window given only by samples goes through the interpolated route
    g, plan, kern, sg, pair = st
    w_field = Window(field=pair.phi.field, freq_profile=None)
    C, spread = admissibility_constant(plan, sg, w_field)
    assert C == pytest.approx(0.5, abs=5e-3)
    # at the lattice nodes the interpolation returns the grid transform,
    # also on an axis shorter than the 10-point Lagrange stencil (n = 8)
    g8 = build_base_grid(0.5, 1, 8, 8)
    plan8 = build_plan(g8)
    sg8 = build_scale_grid(g8, 1 / 16, 16.0, 12)
    pair8 = build_pair(plan8, sg8, TranslationKernel(g8, ThetaRule(0.5, 32)))
    for pr in (pair, pair8):
        gr, pl = pr.plan.grid, pr.plan
        w = Window(field=pr.phi.field, freq_profile=None)
        build_pair(pl, pr.scale_grid, pr.kernel, w, pr.psi)
        Fw = forward(pl, w.field).values
        at_nodes = eval_freq_data(w, pl, gr.nodes()).reshape(gr.shape)
        assert np.max(np.abs(at_nodes - Fw)) <= 1e-12 * np.max(np.abs(Fw))


def test_d2_wavelet_chain_smoke(st2):
    # dimension-generic machinery on a tiny d=2 grid
    from weinstein import localization as loc
    g, plan, kern, sg, pair = st2
    assert pair.C_phi == pytest.approx(0.5, abs=1e-4)
    assert pair.constancy_spread < 1e-3
    f = gaussian(g)
    h = gaussian(g, 0.8)
    cv = convolve(kern, f, h)
    assert lp_norm(cv - convolve_spectral(plan, f, h), 2) < 1e-3 * lp_norm(cv, 2)
    W1 = cwt(pair, f, "phi")
    W2 = cwt_convolution_form(pair, f, "phi")
    num = np.sqrt(np.sum(sg.combined_weights * np.abs(W1.values - W2.values) ** 2))
    den = np.sqrt(np.sum(sg.combined_weights * np.abs(W1.values) ** 2))
    assert num / den < 1e-2
    # weak/strong consistency of the assembled operator, even and odd n
    g_odd = build_base_grid(0.5, 2, 11, 10)
    plan_odd = build_plan(g_odd)
    sg_odd = build_scale_grid(g_odd, 1 / 16, 16.0, 24)
    pair_odd = build_pair(plan_odd, sg_odd, TranslationKernel(g_odd, ThetaRule(0.5, 32)))
    for pr in (pair, pair_odd):
        gr = pr.plan.grid
        f, h = gaussian(gr), gaussian(gr, 0.8)
        sym = loc.symbol_bump(pr.scale_grid)
        L = loc.assemble(pr, sym)
        weak = loc.weak_form(pr, sym, f, h)
        strong = inner_product(loc.apply_operator(L, f), h)
        assert abs(weak - strong) <= 1e-12 * abs(weak)


def _cart_eval_matrix_loop(grid, pts, order=10):
    # reference: one stencil per point, the Lagrange product over b != a
    n = grid.cart_points
    order = min(order, n)
    h = grid.cart_step
    x0 = grid.cart_axis[0]
    pts = np.asarray(pts, dtype=float).ravel()
    A = np.zeros((len(pts), n))
    for k, p in enumerate(pts):
        t = (p - x0) / h
        if t < -0.5 or t > n - 0.5:
            continue
        j0 = int(np.floor(t))
        lo = max(0, min(j0 - order // 2 + 1, n - order))
        idx = np.arange(lo, lo + order)
        w = np.ones(order)
        for a_ in range(order):
            for b_ in range(order):
                if a_ != b_:
                    w[a_] *= (t - idx[b_]) / (idx[a_] - idx[b_])
        A[k, idx] = w
    return A


def _stencil_points(g, rng):
    # inside (nodes, scaled nodes, random), on the edges of [-0.5, n - 0.5]
    # in lattice units, and outside the box
    n, h, x0 = g.cart_points, g.cart_step, g.cart_axis[0]
    edge = x0 + h * np.array([-0.5, n - 0.5, -0.5 - 1e-9, n - 0.5 + 1e-9,
                              -0.5 + 1e-9, n - 0.5 - 1e-9])
    scaled = np.multiply.outer(np.geomspace(1 / 16, 16.0, 20), g.cart_axis).ravel()
    return np.concatenate([g.cart_axis, scaled, edge, rng.uniform(-3, 3, 300) * g.cart_extent])


@pytest.mark.parametrize("n", [8, 11, 32])
def test_cart_eval_matrix_matches_pointwise_stencils(n):
    from weinstein.translation import _cart_eval_matrix
    g = build_base_grid(0.5, 1, n, 8)
    pts = _stencil_points(g, np.random.default_rng(n))
    A = _cart_eval_matrix(g, pts)
    assert np.array_equal(A, _cart_eval_matrix_loop(g, pts))
    t = (pts - g.cart_axis[0]) / g.cart_step
    outside = (t < -0.5) | (t > n - 0.5)
    assert outside.sum() > 100 and (~outside).sum() > 100
    assert not A[outside].any()
    # rows reproduce every polynomial of degree < stencil length
    order = min(10, n)
    s = g.cart_axis / g.cart_extent
    for deg in range(order):
        exact = (pts[~outside] / g.cart_extent) ** deg
        assert np.max(np.abs(A[~outside] @ s**deg - exact)) <= 1e-12


def test_interpolation_rejects_non_finite_points(st):
    # a NaN must not turn into a zero row: on either axis, the interpolated
    # window data refuses it
    from weinstein.translation import _cart_eval_matrix
    g, plan, kern, sg, pair = st
    w = Window(field=pair.phi.field, freq_profile=None)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            _cart_eval_matrix(g, np.array([0.0, bad]))
        for ax in range(g.d + 1):
            pts = g.nodes()[:3].copy()
            pts[1, ax] = bad
            with pytest.raises(ValueError, match="finite"):
                eval_freq_data(w, plan, pts)


@pytest.mark.parametrize("d, n, m", [(1, 32, 24), (1, 11, 12), (2, 10, 8)])
def test_interpolated_freq_data_matches_pointwise_route(d, n, m):
    # a window without a profile, at scaled points off the nodes: the BLAS
    # contraction agrees with per-point stencils and per-axis contractions
    from weinstein.translation import radial_interp_matrix
    g = build_base_grid(0.5, d, n, m)
    plan = build_plan(g)
    w1, _ = default_windows(plan)
    x1 = g.nodes()[:, 0].reshape(g.shape)
    w = Window(field=Field(g, w1.field.values * np.exp(0.7j * x1)), freq_profile=None)
    pts = np.stack([g.nodes() * a + 0.013 for a in (0.07, 0.9, 3.3, 11.0)])
    got = eval_freq_data(w, plan, pts)
    flat = pts.reshape(-1, d + 1)
    cur = forward(plan, w.field).values.reshape((n,) * d + (m,))
    cur = np.einsum("pj,j...->p...", _cart_eval_matrix_loop(g, flat[:, 0]), cur)
    for ax in range(1, d):
        cur = np.einsum("pj,pj...->p...", _cart_eval_matrix_loop(g, flat[:, ax]), cur)
    ref = np.einsum("pr,pr->p", radial_interp_matrix(g, flat[:, d]), cur).reshape(got.shape)
    assert got.shape == pts.shape[:-1]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("d, n, m", [(1, 32, 24), (2, 10, 8)])
def test_freq_data_gathered_rows_match_ungathered(d, n, m):
    # rows built once per distinct coordinate value and gathered give the
    # same values, bit for bit, as one row per point
    from weinstein.translation import _cart_eval_matrix, radial_interp_matrix
    g = build_base_grid(0.5, d, n, m)
    plan = build_plan(g)
    w1, _ = default_windows(plan)
    x1 = g.nodes()[:, 0].reshape(g.shape)
    w = Window(field=Field(g, w1.field.values * np.exp(0.7j * x1)), freq_profile=None)
    rng = np.random.default_rng(5)
    pts = np.concatenate([g.nodes() * a for a in (0.3, 2.0)]
                         + [np.abs(rng.normal(scale=4.0, size=(50, d + 1)))])
    got = eval_freq_data(w, plan, pts)
    Fw = np.ascontiguousarray(forward(plan, w.field).values)
    cur = (_cart_eval_matrix(g, pts[:, 0]) @ Fw.reshape(n, -1).view(np.float64)).view(np.complex128)
    cur = cur.reshape((len(pts),) + (n,) * (d - 1) + (m,))
    for ax in range(1, d):
        cur = np.einsum("pj,pj...->p...", _cart_eval_matrix(g, pts[:, ax]), cur)
    ref = np.einsum("pr,pr->p", radial_interp_matrix(g, pts[:, d]), cur)
    assert np.array_equal(got, ref)


def test_convolution_form_matches_per_scale_spectral_convolution(st2):
    # one transform of f_reflected shared by all scales gives, bit for bit,
    # a^gamma (f_reflected * conj(phi_a)) from convolve_spectral per scale
    from weinstein.grids import reflect
    g, plan, kern, sg, pair = st2
    f = random_even_field(g, np.random.default_rng(8))
    sdata = pair.space_data("phi")
    ref = np.stack([a**pair.gamma * convolve_spectral(plan, reflect(f), Field(g, np.conj(sdata[j]))).values
                    for j, a in enumerate(sg.scales)])
    assert np.array_equal(cwt_convolution_form(pair, f, "phi").values, ref)


def _modulated_sampled_pair(alpha, d, n, m, scales):
    # the default pair with phi modulated by e^{0.7 i x_1} and no profile
    pair = tiny_pair(alpha, d, n, m, scales)
    g = pair.plan.grid
    x1 = g.nodes()[:, 0].reshape(g.shape)
    mod = Window(field=Field(g, pair.phi.field.values * np.exp(0.7j * x1)), name="mod")
    return build_pair(pair.plan, pair.scale_grid, pair.kernel, mod, pair.psi)


@pytest.mark.parametrize("alpha, d, n, m", [(0.5, 1, 8, 8), (0.0, 1, 11, 12), (1.5, 1, 11, 12),
                                            (0.5, 1, 32, 20), (0.5, 2, 7, 6), (0.5, 2, 10, 8)])
def test_scaled_freq_data_matches_pointwise_route(alpha, d, n, m):
    # at the scaled nodes the separable product and the per-point route use
    # the same rows and differ only in summation order; n = 8 is shorter than
    # the 10-point stencil, and at a = 1/16 and 16 rows beyond the box are 0
    pair = _modulated_sampled_pair(alpha, d, n, m, 6)
    g, plan = pair.plan.grid, pair.plan
    scales = (1 / 16, 1.0, 16.0)
    got = scaled_freq_data(pair.phi, plan, scales)
    assert got.shape == (len(scales),) + g.shape
    for j, a in enumerate(scales):
        ref = eval_freq_data(pair.phi, plan, g.nodes() * a).reshape(g.shape)
        assert np.max(np.abs(got[j] - ref)) <= 2e-15 * np.max(np.abs(ref))
    for j, a in enumerate(pair.scale_grid.scales):
        ref = eval_freq_data(pair.phi, plan, g.nodes() * a).reshape(g.shape) * pair.taper
        fd = pair.freq_data("phi")[j]
        assert np.max(np.abs(fd - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_family_member_of_sampled_window_is_inverse_of_its_freq_data():
    pair = _modulated_sampled_pair(0.5, 1, 12, 10, 8)
    g, plan, sg = pair.plan.grid, pair.plan, pair.scale_grid
    x = np.concatenate([g.cart_coordinates()[3], [g.radial_nodes[2]]])
    for j in (0, 4, 7):
        a = float(sg.scales[j])
        ref = a**g.gamma * translate(pair.kernel, x,
                                     inverse(plan, Field(g, pair.freq_data("phi")[j])))
        assert np.array_equal(family_member(pair.kernel, plan, pair.phi, a, x).values,
                              ref.values)


def test_profile_freq_data_is_the_tapered_profile_bit_for_bit():
    pair = tiny_pair(0.5, 2, 7, 6, 6)
    g = pair.plan.grid
    for which, w in (("phi", pair.phi), ("psi", pair.psi)):
        for j, a in enumerate(pair.scale_grid.scales):
            ref = np.asarray(w.freq_profile(g.nodes() * float(a)),
                             dtype=np.complex128).reshape(g.shape) * band_taper(g)
            assert np.array_equal(pair.freq_data(which)[j], ref)


def test_sampled_freq_data_transforms_the_samples_once(monkeypatch):
    import weinstein.wavelets as wav
    pair = _modulated_sampled_pair(0.5, 1, 12, 10, 8)
    calls = []

    def counting_forward(plan, f):
        calls.append(f)
        return forward(plan, f)

    monkeypatch.setattr(wav, "forward", counting_forward)
    pair.freq_data("phi")
    assert len(calls) == 1 and calls[0] is pair.phi.field


def test_sampled_freq_data_peak_stays_near_the_output():
    # no (n^d m, n, m) gathered temporary: at d=2 16/16/8 that would be 16 MB
    # per scale against a 0.5 MB result
    import tracemalloc
    pair = _modulated_sampled_pair(0.5, 2, 16, 16, 8)
    tracemalloc.start()
    try:
        out = pair.freq_data("phi")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * out.nbytes, peak / out.nbytes


# -- real routes: the full-spectrum formulas, as written before real data had
# a route of their own, are the reference for both routes

def cwt_full_spectrum(pair, f, which):
    g = pair.plan.grid
    nc, m = g.shape
    Bc = _matmul_real_right(np.conj(cart_fft(g, g.node_weights * f.values)),
                            pair.kernel.tensor.reshape(m, m * m))
    spec = np.conj(np.matmul(Bc.reshape(nc, m, m), pair.lattice_spectrum(which)))
    corr = cart_fft(g, spec, inverse=True)
    return pair.scale_grid.scales[:, None, None] ** pair.gamma * corr.transpose(2, 0, 1)


def invert_cwt_full_spectrum(pair, W):
    g, sg = pair.plan.grid, pair.scale_grid
    nc, m = g.shape
    c = sg.scale_weights * sg.scales ** (pair.gamma - sg.measure_power)
    cW = c[:, None, None] * g.node_weights * W.values
    S = np.matmul(cart_fft(g, cW.transpose(1, 2, 0)),
                  pair.lattice_spectrum("psi").transpose(0, 2, 1))
    out = _matmul_real_right(S.reshape(nc, m * m), pair.kernel.tensor.reshape(m, m * m).T)
    return cart_fft(g, out, inverse=True) / pair.C_phi_psi


def convolve_full_spectrum(kern, f, h):
    # the outer products in (n^d, m^2) C order, contracted against K^T
    g = f.grid
    nc, m = g.shape
    H = cart_fft(g, g.node_weights * h.values)
    F = cart_fft(g, f.values)
    HF = (H[:, :, None] * F[:, None, :]).reshape(nc, m * m)
    spec = _matmul_real_right(HF, kern.tensor.reshape(m, m * m).T)
    return lattice_shift(g, cart_fft(g, spec, inverse=True), 0)


def convolve_transposed_layout(kern, f, h):
    # the outer products in (m^2, n^d) order, contracted by K from the left
    g = f.grid
    nc, m = g.shape
    H = cart_fft(g, g.node_weights * h.values)
    F = cart_fft(g, f.values)
    HF = (H.T[:, None, :] * F.T[None, :, :]).reshape(m * m, nc)
    spec = _matmul(kern.tensor.reshape(m, m * m), HF).T
    return lattice_shift(g, cart_fft(g, spec, inverse=True), 0)


def _modulated_window_pair(pair, which):
    # the pair with one window multiplied by e^{0.7 i x_1} and no profile
    g = pair.plan.grid
    x1 = g.nodes()[:, 0].reshape(g.shape)
    w = getattr(pair, which)
    mod = Window(field=Field(g, w.field.values * np.exp(0.7j * x1)), name="mod")
    phi, psi = (mod, pair.psi) if which == "phi" else (pair.phi, mod)
    return build_pair(pair.plan, pair.scale_grid, pair.kernel, phi, psi)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_real_routes_agree_with_full_spectrum_and_are_exactly_real(alpha, d, n, monkeypatch):
    from weinstein import translation
    pair = tiny_pair(alpha, d, n, 6, 6)
    g, sg = pair.plan.grid, pair.scale_grid
    rng = np.random.default_rng(n + 10 * d)
    f, h = (Field(g, rng.normal(size=g.shape)) for _ in "fh")
    assert pair.structures("phi") == pair.structures("psi") == ("real", "reflection-even")
    irfftn, calls = translation.sp_fft.irfftn, []

    def counted(*args, **kw):
        calls.append(1)
        return irfftn(*args, **kw)

    monkeypatch.setattr(translation.sp_fft, "irfftn", counted)

    def check(got, ref):
        # one inverse real FFT per route, and an imaginary part of exactly 0
        assert len(calls) == 1
        calls.clear()
        assert not np.any(got.imag)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    check(convolve(pair.kernel, f, h).values, convolve_full_spectrum(pair.kernel, f, h))
    for which in ("phi", "psi"):
        check(cwt(pair, f, which).values, cwt_full_spectrum(pair, f, which))
    W = ScaleField(sg, rng.normal(size=sg.shape))
    check(invert_cwt(pair, W).values, invert_cwt_full_spectrum(pair, W))
    # the cwt of real data is exactly real, so its inversion stays real too
    Wf = cwt(pair, f, "phi")
    calls.clear()
    check(invert_cwt(pair, Wf).values, invert_cwt_full_spectrum(pair, Wf))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_complex_data_keep_the_full_spectrum_route_bit_for_bit(alpha, d, n):
    pair = tiny_pair(alpha, d, n, 6, 6)
    g, sg = pair.plan.grid, pair.scale_grid
    rng = np.random.default_rng(n + 10 * d)
    f = Field(g, rng.normal(size=g.shape))
    fc = Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    W = ScaleField(sg, rng.normal(size=sg.shape))
    Wc = ScaleField(sg, rng.normal(size=sg.shape) + 1j * rng.normal(size=sg.shape))
    mod_phi, mod_psi = _modulated_window_pair(pair, "phi"), _modulated_window_pair(pair, "psi")
    assert mod_phi.structures("phi") == () and mod_psi.structures("psi") == ()
    for which in ("phi", "psi"):
        assert np.array_equal(cwt(pair, fc, which).values, cwt_full_spectrum(pair, fc, which))
    assert np.array_equal(cwt(mod_phi, f, "phi").values, cwt_full_spectrum(mod_phi, f, "phi"))
    assert np.array_equal(invert_cwt(pair, Wc).values, invert_cwt_full_spectrum(pair, Wc))
    assert np.array_equal(invert_cwt(mod_psi, W).values, invert_cwt_full_spectrum(mod_psi, W))
    # a complex field keeps the full spectrum of convolve; against the
    # transposed layout of its contraction only the summation order differs
    got = convolve(pair.kernel, fc, f).values
    assert np.array_equal(got, convolve_full_spectrum(pair.kernel, fc, f))
    ref = convolve_transposed_layout(pair.kernel, fc, f)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_window_structures_are_decided_once():
    from weinstein import localization as loc
    pair = tiny_pair(0.5, 1, 8, 6, 6)
    sym = loc.symbol_bump(pair.scale_grid)
    names = loc._structures(pair, sym)
    cached = {w: pair.structures(w) for w in ("phi", "psi")}
    pair.freq_data = None       # a second reflection of the windows would fail
    assert loc._structures(pair, sym) == names
    assert all(pair.structures(w) is cached[w] for w in ("phi", "psi"))


def test_conj_window_transform_is_the_per_call_formula_cached_read_only():
    pair = _modulated_window_pair(tiny_pair(0.5, 2, 7, 6, 6), "phi")
    g, plan = pair.plan.grid, pair.plan
    f = Field(g, np.random.default_rng(3).normal(size=g.shape))
    for which in ("phi", "psi"):
        fd = pair.freq_data(which)
        space = [inverse(plan, Field(g, fd_j)).values for fd_j in fd]
        sdata = pair.space_data(which)
        assert not sdata.flags.writeable and sdata is not pair.space_data(which)
        assert np.array_equal(sdata, np.stack(space))
        hat = np.stack([forward(plan, Field(g, np.conj(v))).values for v in space])
        assert np.array_equal(pair.conj_window_transform(which), hat)
        got = cwt_convolution_form(pair, f, which)
        cached = pair.conj_window_transform(which)
        assert cached is pair._data[which + "_conj_transform"] and not cached.flags.writeable
        fr_hat = forward(plan, reflect(f)).values
        ref = np.stack([a**pair.gamma * inverse(plan, Field(g, fr_hat * hat[j])).values
                        for j, a in enumerate(pair.scale_grid.scales)])
        assert np.array_equal(got.values, ref)
    assert not any(k.endswith("_space") for k in pair._data)
    for name in ("Phi", "phi_space"):
        for call in (pair.structures, pair.conj_window_transform):
            with pytest.raises(ValueError, match="'phi' or 'psi'"):
                call(name)
