"""Localization operator: exact identities, norms, bounds, examples."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from weinstein import localization as loc
from weinstein.grids import (Field, _matmul, build_base_grid, build_scale_grid,
                             inner_product, lp_norm, scale_lp_norm, ScaleField)
from weinstein.probes import gaussian, random_even_field, random_field
from weinstein.transform import build_plan, inverse
from weinstein.translation import ThetaRule, TranslationKernel, translate
from weinstein.wavelets import (Window, WaveletPair, band_taper, build_pair, family_member,
                                scaled_window_data)


@pytest.fixture(scope="module")
def st():
    g = build_base_grid(0.5, 1, 24, 24)
    plan = build_plan(g)
    kern = TranslationKernel(g, ThetaRule(0.5))
    sg = build_scale_grid(g, 1 / 16, 16.0, 16)
    pair = build_pair(plan, sg, kern)
    return g, plan, kern, sg, pair


def test_symbol_builders(st):
    g, plan, kern, sg, pair = st
    for builder in (loc.symbol_indicator, loc.symbol_bump, loc.symbol_separable,
                    loc.symbol_scale_only):
        s = builder(sg)
        assert s.values.shape == sg.shape
        assert np.all(np.isfinite(s.values))
    sep = loc.symbol_separable(sg)
    prod = sep.chi[:, None, None] * sep.zeta[None]
    assert np.max(np.abs(prod - sep.values)) < 1e-14
    with pytest.raises(ValueError):
        loc.SymbolField(sg, np.full(sg.shape, np.nan))
    with pytest.raises(ValueError):
        loc.SymbolField(sg, np.ones(sg.shape), chi=np.ones(sg.scale_points),
                        zeta=2.0 * np.ones(g.shape))


def test_gaussian_symbols_keep_their_closed_forms(st):
    # the smooth classes share one builder; each equals, bit for bit, its
    # closed form: values, both factors and the declared class
    g, plan, kern, sg, pair = st
    la = np.log(sg.scales)
    pts = sg.base.nodes()

    def zeta(width):
        return np.exp(-np.sum(pts**2, axis=-1) / (2 * width**2)).reshape(sg.base.shape)

    chi_bump = np.exp(-(la**2) / (2 * 0.7**2))
    chi_sep = np.exp(-((la - 0.3) ** 2) / (2 * 0.5**2))
    chi_so = np.exp(-(la**2) / (2 * 0.6**2))
    cases = [
        (loc.symbol_bump(sg), "l1_bump", chi_bump, zeta(1.2),
         chi_bump[:, None, None] * zeta(1.2)[None]),
        (loc.symbol_separable(sg), "separable", chi_sep, zeta(1.0),
         chi_sep[:, None, None] * zeta(1.0)[None]),
        (loc.symbol_scale_only(sg), "scale_only", chi_so, np.ones(sg.base.shape),
         np.broadcast_to(chi_so[:, None, None], sg.shape).copy()),
    ]
    for sym, declared, chi, z, vals in cases:
        assert sym.declared_class == declared
        assert np.array_equal(sym.chi, chi) and np.array_equal(sym.zeta, z)
        assert np.array_equal(sym.values, vals.astype(np.complex128))


def test_zero_symbol_gives_zero_operator(st):
    g, plan, kern, sg, pair = st
    L = loc.assemble(pair, loc.SymbolField(sg, np.zeros(sg.shape)))
    assert np.max(np.abs(L.matrix)) == 0.0
    assert loc.measured_norm(L, 2) == 0.0


def test_weak_strong_consistency(st):
    g, plan, kern, sg, pair = st
    sym = loc.symbol_bump(sg)
    L = loc.assemble(pair, sym)
    rng = np.random.default_rng(0)
    for _ in range(3):
        f, h = random_field(g, rng), random_field(g, rng)
        weak = loc.weak_form(pair, sym, f, h)
        strong = inner_product(loc.apply_operator(L, f), h)
        assert abs(weak - strong) <= 1e-12 * abs(weak)


def test_apply_linearity(st):
    g, plan, kern, sg, pair = st
    L = loc.assemble(pair, loc.symbol_bump(sg))
    rng = np.random.default_rng(1)
    f, h = random_field(g, rng), random_field(g, rng)
    a, b = 1.1 - 0.3j, -0.2 + 0.9j
    lhs = loc.apply_operator(L, Field(g, a * f.values + b * h.values)).values
    rhs = a * loc.apply_operator(L, f).values + b * loc.apply_operator(L, h).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1e-300)


def test_adjoint_identities(st):
    g, plan, kern, sg, pair = st
    sym = loc.SymbolField(sg, loc.symbol_bump(sg).values * (1 + 0.5j))
    L = loc.assemble(pair, sym)
    Ladj = loc.adjoint(L)
    scale = np.max(np.abs(L.matrix))
    assert np.max(np.abs(Ladj.matrix - L.matrix.conj().T)) < 1e-12 * scale
    assert np.max(np.abs(loc.adjoint(Ladj).matrix - L.matrix)) < 1e-12 * scale
    rng = np.random.default_rng(2)
    f, h = random_field(g, rng), random_field(g, rng)
    lhs = inner_product(loc.apply_operator(L, f), h)
    rhs = inner_product(f, loc.apply_operator(Ladj, h))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_hermitian_for_real_symbol_same_window(st):
    g, plan, kern, sg, pair = st
    pair_same = WaveletPair(plan=plan, scale_grid=sg, kernel=kern,
                            phi=pair.phi, psi=pair.phi)
    L = loc.assemble(pair_same, loc.symbol_bump(sg))
    w = np.sqrt(g.node_weights.reshape(-1))
    H = w[:, None] * L.matrix * w[None, :]
    assert np.max(np.abs(H - H.conj().T)) < 1e-12 * np.max(np.abs(H))


def test_rank_one_single_cell(st):
    g, plan, kern, sg, pair = st
    j, ic, ir = sg.scale_points // 2, g.cart_flat_index([0.0]), 5
    sym = loc.symbol_single_cell(sg, j, ic, ir)
    L = loc.assemble(pair, sym)
    a = float(sg.scales[j])
    x = np.concatenate([g.cart_coordinates()[ic], [g.radial_nodes[ir]]])
    phi_ax = family_member(kern, plan, pair.phi, a, x)
    psi_ax = family_member(kern, plan, pair.psi, a, x)
    w = sg.scale_weights[j] * a ** (-sg.measure_power) * g.node_weights[ic, ir]
    pred = w * np.outer(psi_ax.values.reshape(-1), np.conj(phi_ax.values.reshape(-1)))
    assert np.max(np.abs(L.matrix - pred)) < 1e-10 * np.max(np.abs(pred))
    # closed-form norm and spectrum of a rank-one map
    assert loc.measured_norm(L, 2) == pytest.approx(
        w * lp_norm(phi_ax, 2) * lp_norm(psi_ax, 2), rel=1e-9)
    sv = loc.singular_value_profile(L)
    assert sv[1] <= 1e-12 * sv[0]
    # rank-one application closed form
    rng = np.random.default_rng(3)
    f = random_field(g, rng)
    lhs = loc.apply_operator(L, f).values
    rhs = w * inner_product(f, phi_ax) * psi_ax.values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1e-300)


def _family(pair, window):
    """(J, N, N) members a^gamma tau_x phi_a of ``window``, one row per node x.

    phi_a is built once per scale as in ``family_member``; every node's
    shift goes through ``translate`` (no lattice roll, FFT or tensor
    contraction).
    """
    g, plan = pair.plan.grid, pair.plan
    pts = [np.concatenate([c, [r]]) for c in g.cart_coordinates() for r in g.radial_nodes]
    fam = []
    for a in pair.scale_grid.scales:
        wa = inverse(plan, Field(g, scaled_window_data(window, plan, float(a), pair.taper)))
        fam.append([a**pair.gamma * translate(pair.kernel, x, wa).values.reshape(-1)
                    for x in pts])
    return np.array(fam)


def _small_pair(alpha, d, n, m, scales=6):
    g = build_base_grid(alpha, d, n, m)
    plan = build_plan(g)
    sg = build_scale_grid(g, 1 / 16, 16.0, scales)
    return build_pair(plan, sg, TranslationKernel(g, ThetaRule(alpha, 32)))


def _modulated(pair):
    """The pair with phi modulated by e^{0.7 i x_1} and no frequency profile."""
    g = pair.plan.grid
    x1 = g.nodes()[:, 0].reshape(g.shape)
    phi = Window(field=Field(g, pair.phi.field.values * np.exp(0.7j * x1)), freq_profile=None)
    return build_pair(pair.plan, pair.scale_grid, pair.kernel, phi, pair.psi)


def _one_sided(pair):
    """The pair with psi's frequency profile cut to lambda_1 > 0: an asymmetric live set."""
    g, plan = pair.plan.grid, pair.plan

    def profile(pts):
        pts = np.asarray(pts, dtype=float)
        s2 = np.sum(pts**2, axis=-1)
        return np.where(pts[..., 0] > 0, s2 * np.exp(-0.5 * s2), 0.0)

    values = (profile(g.nodes()).reshape(g.shape) * band_taper(g)).astype(complex)
    psi = Window(field=inverse(plan, Field(g, values)), freq_profile=profile)
    return build_pair(plan, pair.scale_grid, pair.kernel, pair.phi, psi)


@pytest.mark.parametrize("d,n,m,scales", [(1, 11, 8, 6), (1, 10, 8, 6), (2, 10, 4, 3)])
def test_assembly_matches_definition(d, n, m, scales):
    _assert_assembly_matches_definition(_small_pair(0.5, d, n, m, scales))


def _assert_assembly_matches_definition(pair):
    # R(y, z) = sum_j w_j a_j^{-q} sum_x w_x sigma psi_{a,x}(y) conj(phi_{a,x}(z)),
    # summed member by member; real and complex symbols, a complex window
    # without a frequency profile, a window with a one-sided lattice band,
    # both orientations
    pair_mod, pair_one = _modulated(pair), _one_sided(pair)
    g, sg = pair.plan.grid, pair.scale_grid
    x1 = g.nodes()[:, 0].reshape(g.shape)
    bump = loc.symbol_bump(sg)
    bump_mod = loc.SymbolField(sg, bump.values * np.exp(0.8j * x1)[None])
    fam = {"phi": _family(pair, pair.phi), "psi": _family(pair, pair.psi)}
    fam_mod = dict(fam, phi=_family(pair_mod, pair_mod.phi))
    fam_one = dict(fam, psi=_family(pair_one, pair_one.psi))
    w = g.node_weights.reshape(-1)
    for pr, fm, sym in ((pair, fam, bump), (pair, fam, bump_mod), (pair_mod, fam_mod, bump),
                        (pair_one, fam_one, bump)):
        for swapped in (False, True):
            syn, ana = ("phi", "psi") if swapped else ("psi", "phi")
            R = np.zeros((g.n_nodes, g.n_nodes), dtype=complex)
            for j, a in enumerate(sg.scales):
                cw = sg.scale_weights[j] * a ** (-sg.measure_power) * w * sym.values[j].reshape(-1)
                R += fm[syn][j].T @ (cw[:, None] * np.conj(fm[ana][j]))
            L = loc.LocalizationOperator(pair=pr, symbol=sym, swapped=swapped)
            assert np.max(np.abs(L.matrix - R)) < 1e-12 * np.max(np.abs(R))


def test_symbol_scaling_monotonicity(st):
    g, plan, kern, sg, pair = st
    sym = loc.symbol_bump(sg)
    L = loc.assemble(pair, sym)
    c = 3.7
    Lc = loc.assemble(pair, loc.SymbolField(sg, c * sym.values))
    assert np.max(np.abs(Lc.matrix - c * L.matrix)) < 1e-12 * c * np.max(np.abs(L.matrix))
    for p in (1, 2, np.inf):
        assert loc.measured_norm(Lc, p) == pytest.approx(
            c * loc.measured_norm(L, p), rel=1e-12)
    b1, _, _ = loc.theoretical_bound(pair, sym, 2)
    bc, _, _ = loc.theoretical_bound(pair, loc.SymbolField(sg, c * sym.values), 2)
    assert bc == pytest.approx(c * b1, rel=1e-12)


def test_identity_symbol_parseval(st):
    g, plan, kern, sg, pair = st
    pair_same = WaveletPair(plan=plan, scale_grid=sg, kernel=kern,
                            phi=pair.phi, psi=pair.phi)
    L = loc.assemble(pair_same, loc.symbol_indicator(sg))
    f = gaussian(g)
    val = inner_product(loc.apply_operator(L, f), f).real
    assert val == pytest.approx(pair_same.C_phi * lp_norm(f, 2) ** 2, rel=0.03)


def test_bound_dominance_all_classes(st):
    g, plan, kern, sg, pair = st
    probes = loc.probe_matrix(g, samples=40, seed=5)
    for builder in (loc.symbol_indicator, loc.symbol_bump, loc.symbol_separable,
                    loc.symbol_scale_only):
        sym = builder(sg)
        L = loc.assemble(pair, sym)
        for p in (1, 2, np.inf, 1.25, 1.5, 3.0):
            measured = loc.measured_norm(L, p, probes=probes)
            bound, tag, every = loc.theoretical_bound(pair, sym, p)
            assert measured <= bound * 1.05, (builder.__name__, p, measured, bound, tag)
            assert all(measured <= v * 1.05 for v in every.values())
            assert bound >= 0


@pytest.mark.parametrize("d, n, m", [(1, 32, 32), (2, 24, 20)])
def test_probe_matrix_columns_are_successive_random_fields(d, n, m):
    # the batched probes are the fields random_field draws one at a time
    # from the same stream, bit for bit (60 probes at d=2 exceed numpy's
    # 256 KiB threshold for reusing temporaries in place)
    g = build_base_grid(0.5, d, n, m)
    P = loc.probe_matrix(g, samples=60, seed=9)
    rng = np.random.default_rng(9)
    for j in range(60):
        assert np.array_equal(P[:, j], random_field(g, rng).values.reshape(-1))
    # and each is the documented Gaussian-class probe, drawn in this order
    rng = np.random.default_rng(9)
    sig = rng.uniform(0.7, 1.0)
    b, k = rng.uniform(-0.8, 0.8, size=d), rng.uniform(-1.0, 1.0, size=d)
    c = rng.normal(size=(d, 3)) * np.array([1.0, 0.5, 0.15])
    q = rng.uniform(-0.3, 0.3)
    u, r = g.nodes()[:, :d], g.nodes()[:, d]
    ref = (1.0 + q * r**2) * np.exp(-r**2 / (2 * sig**2))
    for ax in range(d):
        v = u[:, ax]
        ref = ref * (c[ax, 0] + 1.0 + c[ax, 1] * v + c[ax, 2] * v**2) * np.exp(
            1j * k[ax] * v - (v - b[ax]) ** 2 / (2 * sig**2))
    assert np.max(np.abs(P[:, 0] - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_probe_norms_share_one_image_and_match_measured_norm(st, monkeypatch):
    # one L (w probes) and one |probes| serve every p, bit for bit as
    # measured_norm computes them one p at a time
    g, plan, kern, sg, pair = st
    probes = loc.probe_matrix(g, samples=20, seed=5)
    L = loc.assemble(pair, loc.symbol_bump(sg))
    ps = (1.25, 1.5, 3.0)
    ref = {p: loc.measured_norm(L, p, probes=probes) for p in ps}
    products = []

    def counting_matmul(M, X):
        products.append(M)
        return _matmul(M, X)

    monkeypatch.setattr(loc, "_matmul", counting_matmul)
    assert loc._probe_norms(L, ps, probes) == ref
    assert len(products) == 1


def test_window_norms_computed_once_per_pair(st, monkeypatch):
    g, plan, kern, sg, pair = st
    pair = build_pair(plan, sg, kern, pair.phi, pair.psi)
    syms = [loc.symbol_bump(sg), loc.symbol_separable(sg)]
    ps = (1, 2, np.inf, 1.25, 1.5, 3.0)
    ref = [loc.theoretical_bound(pair, s, p) for s in syms for p in ps]
    calls = []

    def counting_lp_norm(f, p):
        calls.append(p)
        return lp_norm(f, p)

    monkeypatch.setattr(loc, "lp_norm", counting_lp_norm)
    assert [loc.theoretical_bound(pair, s, p) for s in syms for p in ps] == ref
    assert calls == []
    fresh = build_pair(plan, sg, kern, pair.phi, pair.psi)
    for s in syms:
        for p in ps:
            loc.theoretical_bound(fresh, s, p)
    # phi at 1, 2, inf and the conjugate exponents 5, 3, 1.5 of the Hoelder
    # bound; psi at 1, 2, inf, 1.25, 1.5, 3
    assert len(calls) == 12


def test_theoretical_bound_structure(st):
    g, plan, kern, sg, pair = st
    sym = loc.symbol_bump(sg)
    _, _, every = loc.theoretical_bound(pair, sym, 1)
    assert "p1" in every and "schur" in every and "interp" in every
    v, tag, every2 = loc.theoretical_bound(pair, sym, 2)
    assert "lr_r2" in every2  # endpoint r = 2 applies at p = 2
    from weinstein.grids import ScaleField
    s2 = scale_lp_norm(ScaleField(sg, sym.values), 2)
    expect = np.sqrt(abs(pair.C_phi * pair.C_psi)) ** 0.5 \
        * np.sqrt(lp_norm(pair.phi.field, 2) * lp_norm(pair.psi.field, 2)) * s2
    assert every2["lr_r2"] == pytest.approx(expect, rel=1e-12)
    # p = 3 lies outside [r, r'] for r = 2 but inside for r = 1.5 and r = 1
    _, _, every3 = loc.theoretical_bound(pair, sym, 3.0)
    assert "lr_r2" not in every3 and "lr_r1.5" in every3 and "lr_r1" in every3
    L = loc.assemble(pair, sym)
    with pytest.raises(ValueError):
        loc.measured_norm(L, 0.5)
    with pytest.raises(ValueError, match="probes"):      # p outside {1, 2, inf} needs them
        loc.measured_norm(L, 1.5)


def test_svd_profile_invariants(st):
    g, plan, kern, sg, pair = st
    L = loc.assemble(pair, loc.symbol_bump(sg))
    sv = loc.singular_value_profile(L)
    assert np.all(np.diff(sv) <= 1e-12)
    # one SVD per operator, shared read-only with the 2-norm
    assert loc.measured_norm(L, 2) == sv[0]
    assert loc.singular_value_profile(L) is sv
    with pytest.raises(ValueError):
        sv[0] = 0.0
    # the matrix is the assembly of (pair, symbol) and stays so
    with pytest.raises(ValueError):
        L.matrix[0, 0] = 1.0
    with pytest.raises(TypeError):
        loc.LocalizationOperator(pair=pair, symbol=L.symbol, matrix=L.matrix)
    sva = loc.singular_value_profile(loc.adjoint(L))
    assert np.max(np.abs(sv - sva)) < 1e-8 * sv[0]
    # localized symbol: normalized singular values decay below 1e-3 within 25%
    k = int(np.argmax(sv / sv[0] < 1e-3))
    assert 0 < k <= 0.25 * len(sv)


def test_multiplier_equivalence(st):
    g, plan, kern, sg, pair = st
    sym = loc.symbol_scale_only(sg)
    L = loc.assemble(pair, sym)
    rng = np.random.default_rng(6)
    f = random_even_field(g, rng)
    lhs = loc.apply_operator(L, f)
    m = loc.multiplier_symbol(pair, sym.chi)
    rhs = loc.apply_multiplier(pair, m, f)
    assert lp_norm(lhs - rhs, 2) / lp_norm(lhs, 2) < 0.03
    # zero scale factor gives the zero multiplier
    z = loc.multiplier_symbol(pair, np.zeros(sg.scale_points))
    assert np.max(np.abs(z.values)) == 0.0


def test_multiplier_constancy_reduction(st):
    g, plan, kern, sg, pair = st
    pair_same = WaveletPair(plan=plan, scale_grid=sg, kernel=kern,
                            phi=pair.phi, psi=pair.phi)
    m = loc.multiplier_symbol(pair_same, np.ones(sg.scale_points))
    rad = np.sqrt(np.sum(g.nodes() ** 2, axis=-1)).reshape(g.shape)
    band = (rad > 0.35) & (rad < 2.8)
    spread = np.max(np.abs(m.values[band].real - pair_same.C_phi)) / pair_same.C_phi
    assert spread < 1e-3


def test_paraproduct_lemma_and_l1(st):
    g, plan, kern, sg, pair = st
    from weinstein.wavelets import Window
    nphi = lp_norm(pair.phi.field, 2)
    npsi = lp_norm(pair.psi.field, 2)
    phiu = Window(field=(1 / nphi) * pair.phi.field,
                  freq_profile=lambda p, _f=pair.phi.freq_profile: _f(p) / nphi)
    psiu = Window(field=(1 / npsi) * pair.psi.field,
                  freq_profile=lambda p, _f=pair.psi.freq_profile: _f(p) / npsi)
    pu = WaveletPair(plan=plan, scale_grid=sg, kernel=kern, phi=phiu, psi=psiu)
    rng = np.random.default_rng(7)
    f, h = random_even_field(g, rng), random_even_field(g, rng)
    pp = loc.paraproduct(pu, f, h)
    one = Field(g, np.ones(g.shape, dtype=complex))
    lhs = inner_product(pp, one)
    rhs = pu.C_phi_psi * inner_product(f, h)
    assert abs(lhs - rhs) <= 0.03 * abs(rhs)
    assert lp_norm(pp, 1) <= np.sqrt(abs(pu.C_phi * pu.C_psi)) \
        * lp_norm(f, 2) * lp_norm(h, 2) * 1.05
    zero = Field(g, np.zeros(g.shape))
    assert np.max(np.abs(loc.paraproduct(pu, zero, h).values)) == 0.0


def test_paracommutator_kernel_and_weak_form(st):
    g, plan, kern, sg, pair = st
    # diagonal reduction: chi = 1, psi = phi gives the admissibility constant
    pair_same = WaveletPair(plan=plan, scale_grid=sg, kernel=kern,
                            phi=pair.phi, psi=pair.phi)
    sym1 = loc.SymbolField(sg, np.ones(sg.shape), chi=np.ones(sg.scale_points),
                           zeta=np.ones(g.shape))
    xi = np.array([0.3, 0.8])
    kv = loc.paracommutator_kernel(pair_same, sym1, xi, xi)
    assert complex(kv).real == pytest.approx(pair_same.C_phi, rel=5e-3)
    # zero scale factor kills the kernel
    sym0 = loc.SymbolField(sg, np.zeros(sg.shape), chi=np.zeros(sg.scale_points),
                           zeta=np.ones(g.shape))
    assert abs(loc.paracommutator_kernel(pair, sym0, xi, xi)) == 0.0
    # weak form through the frequency-side kernel
    from weinstein.verify import _paracommutator_weak
    sym = loc.symbol_separable(sg)
    L = loc.assemble(pair, sym)
    rng = np.random.default_rng(8)
    f, h = random_even_field(g, rng), random_even_field(g, rng)
    lhs = inner_product(loc.apply_operator(L, f), h)
    rhs = _paracommutator_weak(pair, sym, f, h)
    assert abs(lhs - rhs) <= 0.03 * abs(lhs)


# ---------------------------------------------------------------------------
# operator structure: real operators and x-independent symbols
# ---------------------------------------------------------------------------

def _force(monkeypatch, *structures):
    """Route every operator assembled from now on by ``structures``."""
    monkeypatch.setattr(loc, "_structures", lambda pair, symbol: structures)


def _reference_profile(L):
    """Dense complex SVD of the measure-symmetrized matrix, whatever the route."""
    return np.linalg.svd(loc._sym_matrix(L).astype(np.complex128), compute_uv=False)


@pytest.mark.parametrize("alpha,d,n,m", [(0.5, 1, 10, 8), (0.5, 1, 11, 8), (0.5, 2, 6, 5),
                                         (0.0, 1, 10, 8), (1.5, 1, 11, 8)])
def test_structure_routes_match_dense_reference(alpha, d, n, m):
    pair = _small_pair(alpha, d, n, m)
    sg = pair.scale_grid
    so = loc.symbol_scale_only(sg)
    x1 = pair.plan.grid.nodes()[:, 0].reshape(pair.plan.grid.shape)
    cases = [  # (pair, symbol, real operator, x-independent symbol)
        (pair, loc.symbol_bump(sg), True, False),
        (pair, loc.SymbolField(sg, loc.symbol_bump(sg).values * (1 - 0.6j)
                               * np.exp(0.8j * x1)), False, False),
        (pair, loc.symbol_indicator(sg), True, True),
        (pair, so, True, True),
        (pair, loc.SymbolField(sg, so.values * (1 - 0.6j)), False, True),
        (_modulated(pair), loc.symbol_indicator(sg), False, True),
        (_modulated(pair), loc.symbol_bump(sg), False, False),
        (_one_sided(pair), loc.symbol_indicator(sg), False, True),
        (_one_sided(pair), loc.symbol_bump(sg), False, False),
    ]
    for pr, sym, real, x_indep in cases:
        for swapped in (False, True):
            L = loc.LocalizationOperator(pair=pr, symbol=sym, swapped=swapped)
            assert ("real" in L.structures) is real
            assert ("x-independent" in L.structures) is x_indep
            assert real or x_indep or L.structures == ()
            assert L.matrix.dtype == (np.float64 if real else np.complex128)
            sv, ref = loc.singular_value_profile(L), _reference_profile(L)
            assert sv.shape == ref.shape and np.all(np.diff(sv) <= 0)
            assert np.max(np.abs(sv - ref)) <= 1e-13 * ref[0], (sym.declared_class, real)


@pytest.mark.parametrize("alpha,d,n,m", [(0.5, 1, 10, 8), (0.5, 1, 11, 8), (0.5, 2, 10, 4),
                                         (0.5, 2, 11, 4), (0.5, 2, 6, 5)])
def test_real_assembly_matches_complex_assembly(alpha, d, n, m, monkeypatch):
    # the real reflection-even route (real spectra, D centred on the origin,
    # R rolled back) and the plain real route against the complex assembly;
    # odd n is where an uncentred D would show
    pair = _small_pair(alpha, d, n, m)
    sym = loc.symbol_bump(pair.scale_grid)
    g = pair.plan.grid
    rng = np.random.default_rng(11)
    f = random_field(g, rng)
    probes = loc.probe_matrix(g, samples=7, seed=12)
    even = [loc.LocalizationOperator(pair=pair, symbol=sym, swapped=s) for s in (False, True)]
    assert all(L.structures == ("real", "reflection-even") for L in even)
    _force(monkeypatch, "real")
    real = [loc.LocalizationOperator(pair=pair, symbol=sym, swapped=s) for s in (False, True)]
    _force(monkeypatch)
    full = [loc.LocalizationOperator(pair=pair, symbol=sym, swapped=s) for s in (False, True)]
    for Le, Lr, Lc in zip(even, real, full):
        assert Le.matrix.dtype == Lr.matrix.dtype == np.float64
        assert Lc.matrix.dtype == np.complex128
        scale = np.max(np.abs(Lc.matrix))
        assert np.max(np.abs(Le.matrix - Lc.matrix)) <= 2e-15 * scale
        assert np.max(np.abs(Lr.matrix - Lc.matrix)) <= 2e-15 * scale
        # one real GEMM on the (re, im) view applies the real matrix to complex data
        a, b = loc.apply_operator(Lr, f).values, loc.apply_operator(Lc, f).values
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
        for p in (1, 2, np.inf):
            assert loc.measured_norm(Lr, p) == pytest.approx(loc.measured_norm(Lc, p), rel=1e-13)
        assert loc.measured_norm(Lr, 1.5, probes=probes) == pytest.approx(
            loc.measured_norm(Lc, 1.5, probes=probes), rel=1e-13)


def test_symbol_off_by_one_ulp_takes_dense_route(monkeypatch):
    pair = _small_pair(0.5, 1, 10, 8)
    so = loc.symbol_scale_only(pair.scale_grid)
    blocks = loc.singular_value_profile(loc.assemble(pair, so))
    vals = so.values.real.copy()
    vals[2, 3, 4] = np.nextafter(vals[2, 3, 4], np.inf)
    bent = loc.SymbolField(pair.scale_grid, vals)
    assert "x-independent" not in loc._structures(pair, bent)

    def no_blocks(L):
        raise AssertionError("block route taken for an x-dependent symbol")

    monkeypatch.setattr(loc, "_lattice_blocks", no_blocks)
    L = loc.assemble(pair, bent)
    sv, ref = loc.singular_value_profile(L), _reference_profile(L)
    assert np.max(np.abs(sv - ref)) <= 1e-13 * ref[0]
    assert np.max(np.abs(sv - blocks)) <= 1e-13 * ref[0]
    # the route is the assembled symbol's: it holds a read-only copy, so
    # writing into it raises, and making the caller's array constant in x
    # afterwards changes neither the symbol nor the route
    far = loc.SymbolField(pair.scale_grid, np.where(vals == vals[2, 3, 4], 3.0 * vals, vals))
    L = loc.assemble(pair, far)
    with pytest.raises(ValueError):
        far.values[...] = so.values
    vals[...] = so.values.real
    assert "x-independent" in loc._structures(pair, loc.SymbolField(pair.scale_grid, vals))
    assert "x-independent" not in loc._structures(pair, bent)
    assert "x-independent" not in L.structures
    sv, ref = loc.singular_value_profile(L), _reference_profile(L)
    assert np.max(np.abs(sv - ref)) <= 1e-13 * ref[0]


def _no_split(L):
    raise AssertionError("even/odd split taken for an operator that is not reflection-even")


def _no_dense(L):
    raise AssertionError("dense SVD taken for a reflection-even operator")


def _assert_profile(L):
    sv, ref = loc.singular_value_profile(L), _reference_profile(L)
    assert sv.shape == ref.shape and np.all(np.diff(sv) <= 0)
    assert np.max(np.abs(sv - ref)) <= 1e-14 * ref[0]


def test_symbol_off_evenness_by_one_ulp_takes_plain_real_route(monkeypatch):
    pair = _small_pair(0.5, 1, 10, 8)
    bump = loc.symbol_bump(pair.scale_grid)
    even = loc.assemble(pair, bump)
    assert even.structures == ("real", "reflection-even")
    vals = bump.values.real.copy()
    vals[2, 3, 4] = np.nextafter(vals[2, 3, 4], np.inf)   # node 3 mirrors to node 7
    bent = loc.SymbolField(pair.scale_grid, vals)
    assert loc._structures(pair, bent) == ("real",)
    monkeypatch.setattr(loc, "_reflection_blocks", _no_split)
    L = loc.assemble(pair, bent)
    assert L.structures == ("real",) and L.matrix.dtype == np.float64
    assert np.max(np.abs(L.matrix - even.matrix)) <= 1e-13 * np.max(np.abs(even.matrix))
    _assert_profile(L)


def test_window_off_evenness_in_one_entry_takes_plain_real_route(monkeypatch):
    pair = _small_pair(0.5, 1, 11, 8)
    sym = loc.symbol_bump(pair.scale_grid)
    even = loc.assemble(pair, sym)
    # an entry and its mirror get imaginary parts of +-1 ulp of their real
    # part: still conjugate-symmetric (a real window), no longer even
    fd = pair.freq_data("phi").copy()
    c = 2
    rc = pair.plan.grid.cart_reflect_index()[c]
    ulp = np.spacing(abs(fd[3, c, 5].real))
    fd[3, c, 5] += 1j * ulp
    fd[3, rc, 5] -= 1j * ulp
    bent = build_pair(pair.plan, pair.scale_grid, pair.kernel)
    bent._data["phi"] = fd
    assert loc._structures(bent, sym) == ("real",)
    monkeypatch.setattr(loc, "_reflection_blocks", _no_split)
    L = loc.assemble(bent, sym)
    assert L.structures == ("real",) and L.matrix.dtype == np.float64
    assert np.max(np.abs(L.matrix - even.matrix)) <= 1e-13 * np.max(np.abs(even.matrix))
    _assert_profile(L)


def test_off_origin_single_cell_is_real_but_not_even(monkeypatch):
    pair = _small_pair(0.5, 1, 11, 8)
    g, sg = pair.plan.grid, pair.scale_grid
    origin = g.cart_flat_index([0.0])
    assert loc.assemble(pair, loc.symbol_single_cell(sg, 3, origin, 2)).structures == (
        "real", "reflection-even")
    monkeypatch.setattr(loc, "_reflection_blocks", _no_split)
    L = loc.assemble(pair, loc.symbol_single_cell(sg, 3, origin + 2, 2))
    assert L.structures == ("real",)
    _assert_profile(L)


@pytest.mark.parametrize("n", [10, 11])
def test_complex_even_symbol_splits_its_svd(n, monkeypatch):
    # a complex symbol that is even keeps the complex assembly, bit for bit
    # the one of an operator the split does not see, and splits its SVD
    pair = _small_pair(0.5, 1, n, 8)
    sym = loc.SymbolField(pair.scale_grid, loc.symbol_bump(pair.scale_grid).values * (1 - 0.6j))
    L = loc.assemble(pair, sym)
    assert L.structures == ("reflection-even",) and L.matrix.dtype == np.complex128
    _force(monkeypatch)
    assert np.array_equal(loc.assemble(pair, sym).matrix, L.matrix)
    monkeypatch.setattr(loc, "_sym_matrix", _no_dense)
    sv = loc.singular_value_profile(L)
    monkeypatch.undo()
    ref = _reference_profile(L)
    assert np.max(np.abs(sv - ref)) <= 1e-14 * ref[0]


def test_benchmark_and_battery_routes(monkeypatch):
    # the benchmark's operators keep their routes at its tiny profile: two
    # real reflection-even kinds, two complex kinds on the dense route
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import Operators
    from weinstein.verify import _second_pair, _symbols
    bench = Operators("tiny", seed=1, work_dir=None)
    bench.setup()
    for case in bench.cases.values():
        for kind, expect in (("l1_bump", ("real", "reflection-even")),
                             ("separable", ("real", "reflection-even")),
                             ("l1_bump_modulated", ()), ("phi_modulated", ())):
            assert loc.assemble(*case[kind]).structures == expect, kind
    # every symbol of the battery is even, with both of its pairs
    pair = _small_pair(0.5, 1, 12, 8)
    g, sg = pair.plan.grid, pair.scale_grid
    pair_b = _second_pair(pair.plan, sg, pair.kernel)
    pair_same = WaveletPair(plan=pair.plan, scale_grid=sg, kernel=pair.kernel,
                            phi=pair.phi, psi=pair.phi)
    symbols = list(_symbols(sg).values()) + [
        loc.symbol_single_cell(sg, sg.scale_points // 2, g.cart_flat_index([0.0]), 2)]
    for pr in (pair, pair_b, pair_same):
        assert all(loc._structures(pr, s)[:2] == ("real", "reflection-even") for s in symbols)


def test_window_off_symmetry_in_one_entry_takes_complex_route():
    pair = _small_pair(0.5, 1, 10, 8)
    sym = loc.symbol_bump(pair.scale_grid)
    real = loc.assemble(pair, sym)
    # the cached window data are read-only; the edited copy is seeded into a
    # fresh pair before its first use, so its lattice spectrum is built from it
    fd = pair.freq_data("psi").copy()
    for data in (pair.freq_data("psi"), pair.space_data("psi")):
        with pytest.raises(ValueError):
            data[3, 2, 5] = 0.0
    fd[3, 2, 5] = np.nextafter(fd[3, 2, 5].real, np.inf) + 1j * fd[3, 2, 5].imag
    bent = build_pair(pair.plan, pair.scale_grid, pair.kernel)
    bent._data["psi"] = fd
    assert "real" in loc._structures(pair, sym) and "real" not in loc._structures(bent, sym)
    L = loc.assemble(bent, sym)
    assert L.matrix.dtype == np.complex128
    assert np.max(np.abs(L.matrix - real.matrix)) <= 1e-13 * np.max(np.abs(real.matrix))
    sv, ref = loc.singular_value_profile(L), _reference_profile(L)
    assert np.max(np.abs(sv - ref)) <= 1e-13 * ref[0]


def _oracle_structures(pair, symbol):
    """The three structure predicates, each written out on its own."""
    r = pair.plan.grid.cart_reflect_index()
    v = symbol.values
    fds = (pair.freq_data("phi"), pair.freq_data("psi"))
    real = not np.any(v.imag) and all(np.array_equal(fd[:, r], np.conj(fd)) for fd in fds)
    even = all(np.array_equal(a[:, r], a) for a in (v,) + fds)
    x_indep = bool(np.all(v == v[:, :1]))
    return tuple(name for name, on in (("real", real), ("reflection-even", even),
                                        ("x-independent", x_indep)) if on)


def _bent_pair(pair, name, fd):
    """A fresh pair whose ``name`` window has frequency data ``fd``."""
    bent = build_pair(pair.plan, pair.scale_grid, pair.kernel)
    bent._data[name] = fd
    return bent


@pytest.mark.parametrize("d,n,m", [(1, 10, 8), (1, 11, 8), (2, 6, 5)])
def test_structures_match_the_three_predicates(d, n, m):
    # every route case of this module, the one-ulp breaks included
    from weinstein.verify import _second_pair, _symbols
    pair = _small_pair(0.5, d, n, m)
    g, sg = pair.plan.grid, pair.scale_grid
    mod = _modulated(pair)
    so, bump = loc.symbol_scale_only(sg), loc.symbol_bump(sg)
    cell = (2, 3, 2)
    bent_so, bent_bump = so.values.real.copy(), bump.values.real.copy()
    for vals in (bent_so, bent_bump):
        vals[cell] = np.nextafter(vals[cell], np.inf)
    c, rc = 2, g.cart_reflect_index()[2]
    odd_phi = pair.freq_data("phi").copy()      # still conjugate-symmetric, not even
    ulp = np.spacing(abs(odd_phi[3, c, 2].real))
    odd_phi[3, c, 2] += 1j * ulp
    odd_phi[3, rc, 2] -= 1j * ulp
    asym_psi = pair.freq_data("psi").copy()     # neither
    asym_psi[3, c, 2] = np.nextafter(asym_psi[3, c, 2].real, np.inf) + 1j * asym_psi[3, c, 2].imag
    origin = g.cart_flat_index(np.zeros(d))
    pair_same = WaveletPair(plan=pair.plan, scale_grid=sg, kernel=pair.kernel,
                            phi=pair.phi, psi=pair.phi)
    cases = [(pr, s) for pr in (pair, _second_pair(pair.plan, sg, pair.kernel), pair_same)
             for s in _symbols(sg).values()]
    cases += [
        (pair, loc.SymbolField(sg, so.values * (1 - 0.6j))),
        (pair, loc.SymbolField(sg, bump.values * (1 - 0.6j))),
        (pair, loc.SymbolField(sg, bump.values * np.exp(0.8j * g.nodes()[:, 0].reshape(g.shape)))),
        (mod, loc.symbol_indicator(sg)), (mod, bump),
        (pair, loc.SymbolField(sg, bent_so)), (pair, loc.SymbolField(sg, bent_bump)),
        (_bent_pair(pair, "phi", odd_phi), bump), (_bent_pair(pair, "psi", asym_psi), bump),
        (pair, loc.symbol_single_cell(sg, 3, origin, 2)),
        (pair, loc.symbol_single_cell(sg, 3, origin + 2, 2)),
    ]
    seen = set()
    for pr, sym in cases:
        expect = _oracle_structures(pr, sym)
        assert loc._structures(pr, sym) == expect, (sym.declared_class, expect)
        seen.add(expect)
    assert seen == {(), ("real",), ("reflection-even",), ("x-independent",),
                    ("real", "reflection-even"), ("reflection-even", "x-independent"),
                    ("real", "reflection-even", "x-independent")}


def test_block_route_peak_stays_near_the_matrix():
    # the multiplier route gathers its m x m blocks from R and scales them in
    # place: no N x N measure-symmetrized copy of R next to the gathered one
    pair = _small_pair(0.5, 1, 32, 32, scales=20)
    so = loc.symbol_scale_only(pair.scale_grid)
    for sym in (so, loc.SymbolField(pair.scale_grid, so.values * (1 - 0.6j))):
        L = loc.assemble(pair, sym)
        assert "x-independent" in L.structures
        tracemalloc.start()
        try:
            L.singular_values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * L.matrix.nbytes, (L.matrix.dtype, peak / L.matrix.nbytes)


def _oracle_band(pair, which):
    """Flat lattice bins (j - n//2) mod n of the live frequency rows j and their mirrors."""
    g = pair.plan.grid
    n, d = g.cart_points, g.d
    fd = pair.freq_data(which)
    live = {tuple((j - n // 2) % n for j in node)
            for flat, node in enumerate(np.ndindex(*(n,) * d)) if np.any(fd[:, flat, :] != 0)}
    mirrors = {tuple(-b % n for b in bins) for bins in live}
    return live, sorted(np.ravel_multi_index(b, (n,) * d) for b in live | mirrors)


@pytest.mark.parametrize("d,n,m", [(1, 10, 8), (1, 11, 8), (2, 10, 4), (2, 9, 4)])
def test_lattice_band_is_the_live_rows_and_their_mirrors(d, n, m):
    pair = _small_pair(0.5, d, n, m, scales=3)
    one = _one_sided(pair)
    for pr, which in ((pair, "phi"), (pair, "psi"), (_modulated(pair), "phi"), (one, "psi")):
        band = loc._lattice_band(pr, which)
        live, expect = _oracle_band(pr, which)
        assert band.tolist() == expect, which
        assert len(band) < n**d        # the taper's zero rows are left out
        assert not band.flags.writeable and loc._lattice_band(pr, which) is band
    # lambda_1 > 0 only: the live set is not its own mirror, the band is,
    # and the dead row lambda_1 = 0 (bin 0 on the first axis) is left out
    live, _ = _oracle_band(one, "psi")
    assert live != {tuple(-b % n for b in bins) for bins in live}
    band = loc._lattice_band(one, "psi")
    assert not np.any(np.unravel_index(band, (n,) * d)[0] == 0)
    for swapped in (False, True):
        L = loc.LocalizationOperator(pair=one, symbol=loc.symbol_bump(one.scale_grid),
                                     swapped=swapped)
        syn, ana = L.band
        assert (syn is band) is not swapped and (ana is band) is swapped


def test_dense_band_route_peak_stays_near_the_matrix():
    # the band block is gathered with one np.ix_ from the measure-symmetrized
    # copy, transformed in place; the assembly's buffers hold the band columns
    pair = _small_pair(0.5, 1, 32, 32, scales=20)
    g = pair.plan.grid
    x1 = g.nodes()[:, 0].reshape(g.shape)
    sym = loc.SymbolField(pair.scale_grid,
                          loc.symbol_bump(pair.scale_grid).values * np.exp(0.8j * x1))
    loc.assemble(pair, loc.symbol_bump(pair.scale_grid))      # windows' data cached

    def peak(stage):
        tracemalloc.start()
        try:
            out = stage()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    L, assembly = peak(lambda: loc.assemble(pair, sym))
    _, svd = peak(lambda: L.singular_values)
    assert L.structures == () and [len(b) for b in L.band] == [25, 25]
    peaks = (assembly / L.matrix.nbytes, svd / L.matrix.nbytes)
    assert peaks[0] <= 2.25 and peaks[1] <= 1.7, peaks


@settings(max_examples=25, deadline=None)
@given(alpha=st_.sampled_from([-0.45, -0.2, 0.0, 0.5, 1.5]), d=st_.sampled_from([1, 2]),
       n=st_.integers(3, 8), m=st_.integers(2, 5), complex_symbol=st_.booleans(),
       seed=st_.integers(0, 2**16))
def test_x_independent_symbols_are_block_diagonal(alpha, d, n, m, complex_symbol, seed):
    # sigma(a, x_r) only: U M U^H vanishes off its diagonal m x m blocks, the
    # diagonal blocks are _lattice_blocks, and their singular values are the profile
    if d == 2:
        n = min(n, 5)
    pair = _small_pair(alpha, d, n, m, scales=3)
    sg, g = pair.scale_grid, pair.plan.grid
    rng = np.random.default_rng(seed)
    prof = rng.normal(size=(sg.scale_points, 1, m))
    if complex_symbol:
        prof = prof + 1j * rng.normal(size=prof.shape)
    sym = loc.SymbolField(sg, np.broadcast_to(prof, sg.shape))
    L = loc.assemble(pair, sym)
    M = loc._sym_matrix(L)
    nc = g.n_cart
    cart = tuple(range(d))
    UMU = np.fft.fftn(M.reshape((n,) * d + (m,) + (n,) * d + (m,)), axes=cart, norm="ortho")
    UMU = np.fft.ifftn(UMU, axes=tuple(range(d + 1, 2 * d + 1)), norm="ortho")
    UMU = UMU.reshape(nc, m, nc, m).transpose(0, 2, 1, 3)
    diag = UMU[np.arange(nc), np.arange(nc)]
    off = UMU.copy()
    off[np.arange(nc), np.arange(nc)] = 0.0
    scale = np.max(np.abs(M))
    assert np.max(np.abs(off)) <= 1e-13 * scale
    assert np.max(np.abs(diag - loc._lattice_blocks(L))) <= 1e-13 * scale
    sv, ref = loc.singular_value_profile(L), _reference_profile(L)
    assert np.max(np.abs(sv - ref)) <= 1e-13 * max(ref[0], 1e-300)


@settings(max_examples=25, deadline=None)
@given(alpha=st_.sampled_from([-0.45, -0.2, 0.0, 0.5, 1.5]), d=st_.sampled_from([1, 2]),
       n=st_.integers(3, 8), m=st_.integers(2, 5), complex_symbol=st_.booleans(),
       seed=st_.integers(0, 2**16))
def test_reflection_even_operators_split_into_even_and_odd(alpha, d, n, m, complex_symbol,
                                                           seed):
    # a random symbol made even bit for bit: in the symmetry-adapted basis of
    # the reflection P, M has no even/odd coupling, its even and odd blocks
    # are _reflection_blocks, and their singular values are the profile
    if d == 2:
        n = min(n, 5)
    pair = _small_pair(alpha, d, n, m, scales=3)
    sg, g = pair.scale_grid, pair.plan.grid
    r = g.cart_reflect_index()
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=sg.shape)
    if complex_symbol:
        vals = vals + 1j * rng.normal(size=sg.shape)
    sym = loc.SymbolField(sg, vals + vals[:, r])
    L = loc.assemble(pair, sym)
    assert "reflection-even" in L.structures and "x-independent" not in L.structures
    # orthonormal even and odd bases: pairs {c, Pc} of Cartesian nodes, then
    # the fixed points, each with every radial node
    nc, N = g.n_cart, g.n_nodes
    c = np.arange(nc)
    E = np.zeros((N, 0))
    O = np.zeros((N, 0))
    for cs, sign in ((c[c < r], 1.0), (c[c == r], None), (c[c < r], -1.0)):
        for ci in cs:
            B = np.zeros((nc, m, m))
            B[ci] = np.eye(m)
            if sign is not None:
                B[r[ci]] += sign * np.eye(m)
                B /= np.sqrt(2.0)
            if sign == -1.0:
                O = np.hstack([O, B.reshape(N, m)])
            else:
                E = np.hstack([E, B.reshape(N, m)])
    M = loc._sym_matrix(L)
    scale = np.max(np.abs(M))
    even, odd = loc._reflection_blocks(L)
    assert np.max(np.abs(E.T @ M @ O), initial=0.0) <= 1e-13 * scale
    assert np.max(np.abs(O.T @ M @ E), initial=0.0) <= 1e-13 * scale
    assert np.max(np.abs(E.T @ M @ E - even)) <= 1e-13 * scale
    assert np.max(np.abs(O.T @ M @ O - odd), initial=0.0) <= 1e-13 * scale
    sv, ref = loc.singular_value_profile(L), _reference_profile(L)
    assert np.max(np.abs(sv - ref)) <= 1e-13 * max(ref[0], 1e-300)
