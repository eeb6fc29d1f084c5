"""Generalized translation and convolution tests."""

import numpy as np
import pytest
from scipy.special import gamma, iv

from weinstein.grids import Field, build_base_grid, inner_product, lp_norm
from weinstein.probes import gaussian, random_even_field, random_field
from weinstein.transform import build_plan, forward
from weinstein.translation import (ThetaRule, TranslationKernel,
                                   check_translate_fourier, convolve,
                                   convolve_spectral, lattice_shift, translate)


def stack(alpha=0.5, n=48, m=48):
    g = build_base_grid(alpha, 1, n, m)
    plan = build_plan(g)
    kern = TranslationKernel(g, ThetaRule(alpha))
    return g, plan, kern


def rel(f, ref):
    return lp_norm(f - ref, 2) / lp_norm(ref, 2)


def test_theta_rule_normalization():
    for alpha in (0.0, 0.5, 1.5, 2.3):
        rule = ThetaRule(alpha)
        assert abs(rule.raw_weight_sum - 1.0) < 1e-10
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(rule.weights > 0)


def test_translate_at_zero_is_identity():
    g, plan, kern = stack()
    f = gaussian(g)
    t = translate(kern, np.zeros(2), f)
    assert np.max(np.abs(t.values - f.values)) < 1e-13


def mod_bessel_ratio(alpha, z):
    """Gamma(a+1) (2/z)^a I_a(z), the (sin t)^{2a}-average of exp(-z cos t)."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = np.abs(z) > 1e-12
    out[nz] = gamma(alpha + 1) * (2.0 / z[nz]) ** alpha * iv(alpha, z[nz])
    return out


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_radial_translation_closed_form(alpha):
    # for the Gaussian the theta-average has the modified-Bessel closed form
    g, plan, kern = stack(alpha)
    f = gaussian(g)
    for ir in (5, 20, 40):
        rho = g.radial_nodes[ir]
        t = translate(kern, np.array([0.0, rho]), f)
        cart = np.exp(-g.cart_coordinates()[:, 0] ** 2 / 2)
        rad = np.exp(-(rho**2 + g.radial_nodes**2) / 2) \
            * mod_bessel_ratio(alpha, rho * g.radial_nodes)
        exact = np.outer(cart, rad)
        assert np.max(np.abs(t.values - exact)) < 1e-12


def test_translate_symmetry_on_even_field():
    g, plan, kern = stack()
    f = gaussian(g)
    rng = np.random.default_rng(0)
    pts = g.nodes()
    for _ in range(5):
        x = pts[rng.integers(len(pts))]
        y = pts[rng.integers(len(pts))]
        tx = translate(kern, x, f).values
        ty = translate(kern, y, f).values
        iy = (g.cart_flat_index(y[:1]), int(np.argmin(np.abs(g.radial_nodes - y[1]))))
        ix = (g.cart_flat_index(x[:1]), int(np.argmin(np.abs(g.radial_nodes - x[1]))))
        assert tx[iy] == pytest.approx(ty[ix], abs=1e-6)


def safe_nodes(g):
    # radial offsets stay below R/2 so translated probes remain on the grid;
    # Cartesian offsets are unrestricted (exact wraparound on the torus)
    pts = g.nodes()
    return pts[pts[:, -1] <= g.radial_extent / 2]


def test_translate_transform_identity():
    # F(tau_x f) = Lambda(x, .) F(f), node offsets and general probes
    g, plan, kern = stack()
    rng = np.random.default_rng(1)
    pts = g.nodes()
    safe = safe_nodes(g)
    for _ in range(4):
        f = random_field(g, rng)
        x = safe[rng.integers(len(safe))]
        lhs, rhs = check_translate_fourier(plan, kern, x, f)
        assert rel(lhs, rhs) < 1e-6
    # x = 0 reduces both sides to F(f)
    lhs0, rhs0 = check_translate_fourier(plan, kern, np.zeros(g.d + 1), gaussian(g))
    assert rel(lhs0, rhs0) < 1e-12


def test_lattice_shift_matches_translate():
    # shifting by node k is translate() to (x_k, 0), for even and odd n
    for d, n, m in ((1, 16, 8), (1, 15, 8), (2, 8, 6), (2, 7, 6)):
        g = build_base_grid(0.5, d, n, m)
        kern = TranslationKernel(g, ThetaRule(0.5, 16))
        rng = np.random.default_rng(n)
        f = Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
        cart = g.cart_coordinates()
        for k in (0, 1, g.n_cart // 2, g.n_cart - 1, int(rng.integers(g.n_cart))):
            want = translate(kern, np.append(cart[k], 0.0), f).values
            got = lattice_shift(g, f.values, k)
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_translate_mass_preservation():
    g, plan, kern = stack()
    f = gaussian(g)
    one = Field(g, np.ones(g.shape, dtype=complex))
    m0 = inner_product(f, one)
    x = safe_nodes(g)[700]
    m1 = inner_product(translate(kern, x, f), one)
    assert abs(m1 - m0) < 1e-10


def test_translate_contraction_and_positivity():
    g, plan, kern = stack()
    f = gaussian(g)
    x = safe_nodes(g)[777]
    t = translate(kern, x, f)
    for p in (1, 2, np.inf):
        assert lp_norm(t, p) <= lp_norm(f, p) * (1 + 1e-10)
    assert np.min(t.values.real) >= -1e-12


def test_translate_off_node_cartesian():
    # fractional Cartesian shift of a Gaussian against the closed form
    g, plan, kern = stack()
    f = gaussian(g)
    sh = 0.37 * g.cart_step
    t = translate(kern, np.array([sh, 0.0]), f)
    cart = np.exp(-((g.cart_coordinates()[:, 0] - sh) ** 2) / 2)
    exact = np.outer(cart, np.exp(-g.radial_nodes**2 / 2))
    assert np.max(np.abs(t.values - exact)) < 1e-5


def test_convolution_transform_identity_general():
    # F(f * g) = F(f) F(g) holds for all probes under the lattice convention
    g, plan, kern = stack()
    rng = np.random.default_rng(2)
    f, h = random_field(g, rng), random_field(g, rng)
    cv = convolve(kern, f, h)
    lhs = forward(plan, cv)
    rhs = Field(g, forward(plan, f).values * forward(plan, h).values)
    assert rel(lhs, rhs) < 2e-4


def test_convolution_commutative_and_spectral():
    # odd n too: the spectral route inverts through the x -> -x reflection
    for n in (48, 33):
        g, plan, kern = stack(n=n)
        rng = np.random.default_rng(3)
        f, h = random_even_field(g, rng), random_even_field(g, rng)
        cv = convolve(kern, f, h)
        assert rel(convolve(kern, h, f), cv) < 1e-12
        assert rel(cv, convolve_spectral(plan, f, h)) < 2e-4
        # ||f*g||_2 = ||F(f) F(g)||_2
        pr = Field(g, forward(plan, f).values * forward(plan, h).values)
        assert lp_norm(cv, 2) == pytest.approx(lp_norm(pr, 2), rel=2e-4)


def test_gaussian_convolution_closed_form():
    # G_{s1} * G_{s2} = (s1 s2 / s3)^(2a+d+2) G_{s3}, s3 = sqrt(s1^2+s2^2)
    g, plan, kern = stack()
    s1, s2 = 1.0, 0.8
    s3 = np.hypot(s1, s2)
    f = gaussian(g, s1)
    h = gaussian(g, s2)
    cv = convolve(kern, f, h)
    q = 2 * g.alpha + g.d + 2
    exact = (s1 * s2 / s3) ** q * gaussian(g, s3).values
    assert np.max(np.abs(cv.values - exact)) < 1e-8


def test_young_inequalities():
    g, plan, kern = stack()
    rng = np.random.default_rng(4)
    f, h = random_even_field(g, rng), random_even_field(g, rng)
    cv = convolve(kern, f, h)
    for (p, q, r) in ((1, 1, 1), (1, 2, 2), (2, 2, np.inf)):
        assert lp_norm(cv, r) <= lp_norm(f, p) * lp_norm(h, q) * 1.01


def test_associativity_on_gaussians():
    g, plan, kern = stack()
    a = gaussian(g, 1.0)
    b = gaussian(g, 0.9)
    c = gaussian(g, 0.8)
    lhs = convolve(kern, convolve(kern, a, b), c)
    rhs = convolve(kern, a, convolve(kern, b, c))
    assert rel(lhs, rhs) < 1e-9


def test_grid_mismatch_rejected():
    g1, plan, kern = stack(n=16, m=16)
    g2 = build_base_grid(0.5, 1, 16, 16)
    f = gaussian(g1)
    h = gaussian(g2)
    with pytest.raises(ValueError):
        convolve(kern, f, h)
