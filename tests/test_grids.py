"""Grid, weight and norm tests."""

import numpy as np
import pytest

from weinstein.grids import (Field, build_base_grid, build_scale_grid,
                             field_from_function, inner_product, lp_norm, reflect,
                             scale_lp_norm, ScaleField, self_dual_extent)
from weinstein.special import radial_constant
from scipy.special import gamma


def make_grid(alpha=0.5, d=1, n=48, m=48):
    return build_base_grid(alpha, d, n, m)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_base_grid(0.5, 1, 1, 8)
    with pytest.raises(ValueError):
        build_base_grid(0.5, 1, 8, 8, cart_extent=-1.0)
    with pytest.raises(ValueError):
        build_base_grid(-0.6, 1, 8, 8)


def test_weights_positive_nodes_increasing():
    g = make_grid()
    assert np.all(g.radial_weights > 0)
    assert np.all(np.diff(g.radial_nodes) > 0)
    assert np.all(g.radial_nodes > 0)
    assert np.all(g.cart_weights > 0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_box_volume(alpha):
    # sum of weights = (2L)^d/(2pi)^(d/2) * R^(2a+2)/((2a+2) 2^a Gamma(a+1));
    # the radial factor is exact for these alphas (polynomial weight)
    g = make_grid(alpha=alpha)
    L, R = g.cart_extent, g.radial_extent
    vol = (2 * L) / np.sqrt(2 * np.pi) * R ** (2 * alpha + 2) / (
        (2 * alpha + 2) * 2**alpha * gamma(alpha + 1))
    assert np.sum(g.node_weights) == pytest.approx(vol, rel=1e-13)


@pytest.mark.parametrize("alpha,d", [(0.0, 1), (0.5, 1), (1.5, 1), (0.5, 2)])
def test_gaussian_integral_matches_radial_formula(alpha, d):
    # integral of exp(-|x|^2) dmu = a_alpha Gamma(alpha + d/2 + 1) / 2
    n = 48 if d == 1 else 16
    g = build_base_grid(alpha, d, n, 48)
    f = field_from_function(g, lambda p: np.exp(-np.sum(p**2, axis=-1)))
    val = np.sum(g.node_weights * f.values.real)
    exact = radial_constant(alpha, d) * gamma(alpha + d / 2 + 1) / 2
    assert val == pytest.approx(exact, rel=1e-6)


def test_quadrature_convergence_on_reference_gaussian():
    # error decreases under doubling (empirical order >= 2)
    exact = radial_constant(0.25, 1) * gamma(0.25 + 0.5 + 1) / 2
    errs = []
    for n in (12, 24, 48):
        g = build_base_grid(0.25, 1, n, n)
        f = field_from_function(g, lambda p: np.exp(-np.sum(p**2, axis=-1)))
        errs.append(abs(np.sum(g.node_weights * f.values.real) - exact))
    assert errs[1] < errs[0] / 4 or errs[1] < 1e-12
    assert errs[2] < errs[1] / 4 or errs[2] < 1e-12


def test_inner_product_properties():
    g = make_grid()
    rng = np.random.default_rng(3)
    f = Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    h = Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    assert inner_product(f, f).real >= 0
    assert abs(inner_product(f, f).imag) < 1e-15 * inner_product(f, f).real
    assert inner_product(f, h) == pytest.approx(np.conj(inner_product(h, f)))


def test_gaussian_self_product():
    # ||exp(-|x|^2/2)||_2^2 = 2^-(alpha + d/2 + 1)
    for alpha in (0.0, 0.5, 1.5):
        g = make_grid(alpha=alpha)
        f = field_from_function(g, lambda p: np.exp(-np.sum(p**2, axis=-1) / 2))
        assert inner_product(f, f).real == pytest.approx(
            2.0 ** -(alpha + 1.5), rel=1e-10)


def test_lp_norm_homogeneity_and_zero():
    g = make_grid()
    z = Field(g, np.zeros(g.shape))
    assert lp_norm(z, 1) == 0.0
    rng = np.random.default_rng(5)
    f = Field(g, rng.normal(size=g.shape) + 0j)
    for p in (1, 1.5, 2, np.inf):
        assert lp_norm(2.5 * f, p) == pytest.approx(2.5 * lp_norm(f, p), rel=1e-13)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_reflect_involution_and_isometry():
    # even and odd lattice sizes: node j holds (j - n//2) h in both cases
    for n in (48, 33):
        g = make_grid(n=n)
        rng = np.random.default_rng(7)
        f = Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        assert np.array_equal(reflect(reflect(f)).values, f.values)
        # weight-preserving permutation: norms agree to rounding (summation order)
        for p in (1, 2, np.inf):
            assert lp_norm(reflect(f), p) == pytest.approx(lp_norm(f, p), rel=1e-15)
        # even field is a fixed point
        e = field_from_function(g, lambda p: np.exp(-np.sum(p**2, axis=-1) / 2))
        assert np.max(np.abs(reflect(e).values - e.values)) < 1e-15
        # reflect of exp(i k x') samples equals exp(-i k x') samples, for a
        # frequency-lattice k (exactly periodic on the torus)
        k = g.cart_axis[g.cart_points // 2 + 3]
        w = field_from_function(g, lambda p: np.exp(1j * k * p[..., 0]))
        wr = field_from_function(g, lambda p: np.exp(-1j * k * p[..., 0]))
        assert np.max(np.abs(reflect(w).values - wr.values)) < 1e-12
        # the permutation sends each node to the node holding minus its value
        cart = g.cart_coordinates()[:, 0]
        period = 2 * g.cart_extent
        residue = (cart[g.cart_reflect_index()] + cart) % period
        assert np.max(np.minimum(residue, period - residue)) < 1e-12


def test_scale_grid_weights():
    g = make_grid(n=16, m=16)
    sg = build_scale_grid(g, 1.0, np.e, 2)
    assert np.sum(sg.scale_weights) == pytest.approx(1.0, abs=1e-14)
    sg2 = build_scale_grid(g, 1 / 16, 16.0, 48)
    assert np.sum(sg2.scale_weights) == pytest.approx(np.log(256.0), abs=1e-12)
    assert np.all(np.diff(sg2.scales) > 0)
    # combined weight formula
    q = 2 * g.alpha + g.d + 2
    w = sg2.combined_weights
    j, c, r = 5, 7, 3
    expect = g.node_weights[c, r] * sg2.scale_weights[j] * sg2.scales[j] ** (-q)
    assert w[j, c, r] == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError):
        build_scale_grid(g, 2.0, 1.0, 8)


def test_scale_rule_integrates_moment():
    # int_0^inf a^3 exp(-a^2) da = 1/2 via the log-trapezoid rule on [1e-3, 20]
    g = make_grid(n=8, m=8)
    sg = build_scale_grid(g, 1e-3, 20.0, 64)
    val = np.sum(sg.scale_weights * sg.scales**4 * np.exp(-sg.scales**2))
    assert val == pytest.approx(0.5, abs=1e-6)


def test_scale_field_norms():
    g = make_grid(n=8, m=8)
    sg = build_scale_grid(g, 0.5, 2.0, 4)
    vals = np.zeros(sg.shape)
    vals[2, 3, 4] = 1.0
    F = ScaleField(sg, vals)
    w = sg.combined_weights[2, 3, 4]
    for p in (1, 2):
        assert scale_lp_norm(F, p) == pytest.approx(w ** (1 / p), rel=1e-13)
    assert scale_lp_norm(2.0 * F, 1) == pytest.approx(2 * w, rel=1e-13)
    assert scale_lp_norm(ScaleField(sg, np.zeros(sg.shape)), 2) == 0.0


def test_self_dual_extent_value():
    assert self_dual_extent(64) == pytest.approx(np.sqrt(32 * np.pi), rel=1e-15)
