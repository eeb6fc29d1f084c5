"""Generalized translation and convolution tests."""

import numpy as np
import pytest
from scipy.special import gamma, iv

from weinstein.grids import Field, build_base_grid, inner_product, lp_norm
from weinstein.probes import gaussian, random_even_field, random_field
from weinstein.transform import build_plan, forward
from weinstein.translation import (ThetaRule, TranslationKernel,
                                   check_translate_fourier, circular_shift_matrix,
                                   convolve, convolve_spectral, lattice_shift,
                                   radial_interp_matrix, translate)


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


def tensor_loop(g, rule):
    # reference: one barycentric evaluation per theta node, summed in node order
    r = g.radial_nodes
    m = len(r)
    X, Y = np.meshgrid(r, r, indexing="ij")
    K = np.zeros((m, m, m))
    for th, w in zip(rule.nodes, rule.weights):
        s = np.sqrt(np.maximum(X**2 + Y**2 + 2.0 * X * Y * np.cos(th), 0.0))
        K += w * radial_interp_matrix(g, s.ravel()).reshape(m, m, m)
    return K


def radial_rows_loop(g, rule, rho):
    Y = g.radial_nodes[None, :]
    out = np.zeros((g.radial_points, g.radial_points))
    for th, w in zip(rule.nodes, rule.weights):
        s = np.sqrt(np.maximum(rho**2 + Y**2 + 2.0 * rho * Y * np.cos(th), 0.0))
        out += w * radial_interp_matrix(g, s.ravel())
    return out


def radial_interp_matrix_ref(g, pts):
    # reference: separate difference, weight and row arrays, one output matrix
    from weinstein.translation import _bary_cache
    r = g.radial_nodes
    bw = _bary_cache(g)
    pts = np.asarray(pts, dtype=float).ravel()
    A = np.zeros((len(pts), len(r)))
    inside = pts <= g.radial_extent + 1e-14
    diff = pts[inside][:, None] - r[None, :]
    exact = np.abs(diff) < 1e-14
    diff[exact] = 1.0
    C = bw[None, :] / diff
    rows = C / C.sum(axis=1, keepdims=True)
    rows[exact.any(axis=1)] = 0.0
    rows[exact] = 1.0
    A[inside] = rows
    return A


def test_radial_interp_matrix_matches_reference():
    g = build_base_grid(0.5, 1, 8, 20)
    R = g.radial_extent
    rng = np.random.default_rng(6)
    # node hits, hits within the 1e-14 tolerance, off-node points and the ends
    inside = np.concatenate([g.radial_nodes, g.radial_nodes[:4] + 5e-15,
                             rng.uniform(0.0, R, 50), [0.0, R]])
    for pts in (inside, np.concatenate([inside, [1.01 * R, 3.0 * R]]), [2.0 * R]):
        assert np.array_equal(radial_interp_matrix(g, pts), radial_interp_matrix_ref(g, pts))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
@pytest.mark.parametrize("m, count", [(24, 64), (17, 33)])
def test_tensor_matches_per_theta_loop(alpha, m, count):
    # the symmetric all-theta build is bit-identical to the per-node sum
    g = build_base_grid(alpha, 1, 8, m)
    rule = ThetaRule(alpha, count)
    K = TranslationKernel(g, rule).tensor
    assert np.array_equal(K, tensor_loop(g, rule))
    assert np.array_equal(K, K.transpose(1, 0, 2))


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_radial_rows_match_per_theta_loop(alpha):
    g = build_base_grid(alpha, 1, 8, 20)
    kern = TranslationKernel(g, ThetaRule(alpha))
    R = g.radial_extent
    for rho in (0.0, g.radial_nodes[7], 0.37 * R, 1.01 * R, 2.5 * R):
        rows = kern.radial_rows(rho)
        assert np.array_equal(rows, radial_rows_loop(g, kern.theta, rho))
    # rho = 0: every point is a hit on its own node, so the rows are diagonal
    assert np.array_equal(kern.radial_rows(0.0) != 0, np.eye(g.radial_points, dtype=bool))
    # beyond 2R every s exceeds R: zero extension gives zero rows
    assert not np.any(kern.radial_rows(2.5 * R))


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


def circular_shift_matrix_loop(g, shift, order=10):
    # reference: the Lagrange product as a double loop over the stencil, and
    # one += per offset into the (n, n) matrix
    n, h = g.cart_points, g.cart_step
    t = shift / h
    k0 = int(np.floor(t + 0.5))
    frac = t - k0
    P = np.zeros((n, n))
    j = np.arange(n)
    if abs(frac) < 1e-12:
        P[j, (j - k0) % n] = 1.0
        return P
    offs = np.arange(-(order // 2) + 1, order // 2 + 1)
    wgt = np.ones(order)
    for a in range(order):
        for b in range(order):
            if a != b:
                wgt[a] *= (frac - offs[b]) / (offs[a] - offs[b])
    for o, w in zip(offs, wgt):
        P[j, (j - k0 - o) % n] += w
    return P


def translate_loop(kern, x, f):
    # reference: the per-axis contraction written out, reference circulants
    g = f.grid
    n, m, d = g.cart_points, g.radial_points, g.d
    v = f.values.reshape((n,) * d + (m,))
    for ax in range(d):
        P = circular_shift_matrix_loop(g, x[ax])
        v = np.moveaxis(np.tensordot(P, v, axes=([1], [ax])), 0, ax)
    v = np.tensordot(v, kern.radial_rows(float(x[d])), axes=([d], [1]))
    return v.reshape(g.shape)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [4, 8, 11, 32])
def test_circular_shift_matches_double_loop(n, d):
    # n = 4 and 8 are below the stencil order: the circular stencil wraps onto
    # itself, at n = 4 with three offsets summed into one node
    g = build_base_grid(0.5, d, n, 6)
    h = g.cart_step
    rng = np.random.default_rng(n + d)
    lattice = h * np.array([0, 1, -1, 3, n // 2, -n - 2, 2 * n + 5])
    frac = np.concatenate([h * np.array([0.5, -0.5, 0.37, 1e-13, 1e-11, n + 0.25]),
                           rng.uniform(-2.0, 2.0, 12) * g.cart_extent])
    for shift in np.concatenate([lattice, frac]):
        assert np.array_equal(circular_shift_matrix(g, shift),
                              circular_shift_matrix_loop(g, shift)), shift
    kern = TranslationKernel(g, ThetaRule(0.5, 16))
    f = Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    for _ in range(3):
        x = np.append(rng.choice(np.concatenate([lattice, frac]), size=d), 0.7)
        assert np.array_equal(translate(kern, x, f).values, translate_loop(kern, x, f))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_translate_to_every_radial_node_matches_radial_rows_route(alpha):
    # an offset on node r_i reads kernel.tensor[i]; the reference evaluates
    # radial_rows(r_i) (translate_loop), and both agree bit for bit
    g = build_base_grid(alpha, 1, 8, 20)
    kern = TranslationKernel(g, ThetaRule(alpha))
    rng = np.random.default_rng(5)
    f = Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    for r_i in g.radial_nodes:
        x = np.array([3 * g.cart_step, r_i])
        assert np.array_equal(translate(kern, x, f).values, translate_loop(kern, x, f))


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


def test_kernel_on_another_grid_rejected():
    # the kernel's tensor belongs to its grid's alpha and radial nodes: an
    # alpha = 0 kernel on these alpha = 1/2 Gaussians gave a convolution 0.34
    # off the spectral route (8e-12 with the right kernel) without a sign, so
    # a kernel not built on the fields' grid, even an equal one, raises
    g, plan, kern = stack(0.5, n=32, m=32)
    f, h = gaussian(g, 1.0), gaussian(g, 0.9)
    assert rel(convolve(kern, f, h), convolve_spectral(plan, f, h)) < 1e-10
    twin = build_base_grid(0.5, 1, 32, 32)
    for other in (stack(0.0, n=32, m=32)[2], TranslationKernel(twin, ThetaRule(0.5))):
        with pytest.raises(ValueError, match="kernel's grid"):
            convolve(other, f, h)
        with pytest.raises(ValueError, match="kernel's grid"):
            translate(other, [0.3, g.radial_nodes[2]], f)


def test_grid_mismatch_rejected():
    g1, plan, kern = stack(n=16, m=16)
    g2 = build_base_grid(0.5, 1, 16, 16)
    f = gaussian(g1)
    h = gaussian(g2)
    with pytest.raises(ValueError):
        convolve(kern, f, h)
