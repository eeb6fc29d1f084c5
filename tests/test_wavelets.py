"""Wavelet family, admissibility, transform pipelines, Parseval, inversion."""

import numpy as np
import pytest
from scipy.integrate import quad

from weinstein.grids import (Field, build_base_grid, build_scale_grid, inner_product,
                             lp_norm, scale_inner_product, scale_lp_norm, ScaleField)
from weinstein.probes import gaussian, random_even_field
from weinstein.transform import build_plan, forward
from weinstein.translation import (ThetaRule, TranslationKernel, convolve, convolve_spectral,
                                   translate)
from weinstein.wavelets import (Window, admissibility_constant, build_pair, cwt,
                                cwt_convolution_form, check_two_wavelet_parseval,
                                default_windows, dilate, family_member, invert_cwt,
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
    sym = loc.symbol_bump(sg)
    L = loc.assemble(pair, sym)
    weak = loc.weak_form(pair, sym, f, h)
    strong = inner_product(loc.apply_operator(L, f), h)
    assert abs(weak - strong) <= 1e-12 * abs(weak)
