"""Transform identities: fixed point, Plancherel, Parseval, Hausdorff-Young."""

import numpy as np
import pytest

from weinstein.grids import Field, build_base_grid, field_from_function, lp_norm, reflect
from weinstein.probes import gaussian, random_field
from weinstein.transform import (build_plan, check_hausdorff_young, check_parseval,
                                 check_plancherel, forward, inverse)


def stack(alpha=0.5, d=1, n=48, m=48):
    g = build_base_grid(alpha, d, n, m)
    return g, build_plan(g)


def rel(f, ref):
    return lp_norm(f - ref, 2) / lp_norm(ref, 2)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_gaussian_fixed_point(alpha):
    g, plan = stack(alpha)
    G = gaussian(g)
    assert rel(forward(plan, G), G) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.5])
def test_roundtrip(alpha):
    # odd n exercises the reflection x -> -x on a lattice without a -n/2 node
    for n in (48, 49):
        g, plan = stack(alpha, n=n)
        rng = np.random.default_rng(11)
        f = random_field(g, rng)
        assert rel(inverse(plan, forward(plan, f)), f) < 1e-6
        z = Field(g, np.zeros(g.shape))
        assert lp_norm(inverse(plan, z), 2) == 0.0


def test_linearity():
    g, plan = stack()
    rng = np.random.default_rng(2)
    f, h = random_field(g, rng), random_field(g, rng)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = forward(plan, Field(g, a * f.values + b * h.values))
    rhs = a * forward(plan, f).values + b * forward(plan, h).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_plancherel_random_probes():
    g, plan = stack()
    rng = np.random.default_rng(4)
    for _ in range(20):
        lhs, rhs = check_plancherel(plan, random_field(g, rng))
        assert lhs == pytest.approx(rhs, rel=1e-3)


def test_parseval():
    g, plan = stack()
    rng = np.random.default_rng(5)
    f, h = random_field(g, rng), random_field(g, rng)
    lhs, rhs = check_parseval(plan, f, h)
    assert abs(lhs - rhs) <= 1e-3 * lp_norm(f, 2) * lp_norm(h, 2)
    # f = g reduces to Plancherel
    lhs2, rhs2 = check_parseval(plan, f, f)
    assert lhs2.real == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-12)
    # parity-orthogonal pair: odd versus even in the Cartesian component
    odd = field_from_function(g, lambda p: p[..., 0] * np.exp(-np.sum(p**2, -1) / 2))
    lhs3, rhs3 = check_parseval(plan, odd, gaussian(g))
    assert abs(lhs3) < 1e-12
    assert abs(rhs3) < 1e-10


def test_hausdorff_young():
    g, plan = stack()
    rng = np.random.default_rng(6)
    f = random_field(g, rng)
    for p in (1.0, 1.5, 2.0):
        lhs, rhs = check_hausdorff_young(plan, f, p)
        assert lhs <= rhs * (1 + 1e-6)
    lhs, rhs = check_hausdorff_young(plan, f, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-3)
    with pytest.raises(ValueError):
        check_hausdorff_young(plan, f, 2.5)


def test_sup_bound_pointwise():
    g, plan = stack()
    rng = np.random.default_rng(7)
    f = random_field(g, rng)
    Ff = forward(plan, f)
    assert np.max(np.abs(Ff.values)) <= lp_norm(f, 1) * (1 + 1e-12)


def test_conjugation_reflection_identities():
    g, plan = stack()
    rng = np.random.default_rng(8)
    f = random_field(g, rng)
    fr = reflect(f)
    lhs = forward(plan, Field(g, np.conj(f.values)))
    rhs = np.conj(forward(plan, fr).values)
    assert np.max(np.abs(lhs.values - rhs)) < 1e-10
    lhs2 = forward(plan, f).values
    rhs2 = reflect(forward(plan, fr)).values
    assert np.max(np.abs(lhs2 - rhs2)) < 1e-10


def test_matrix_matches_factored_apply():
    g, plan = stack(n=10, m=8)
    M = plan.matrix()
    assert M.shape == (g.n_nodes, g.n_nodes)
    rng = np.random.default_rng(9)
    f = Field(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    dense = (M @ f.values.reshape(-1)).reshape(g.shape)
    assert np.max(np.abs(dense - forward(plan, f).values)) < 1e-12
    # row at zero frequency sums the source weights (kernel is 1 at lam = 0)
    from weinstein.special import weinstein_kernel
    row0 = weinstein_kernel(g.alpha, g.d, g.nodes(), np.zeros(g.d + 1)) \
        * g.node_weights.reshape(-1)
    assert row0.sum() == pytest.approx(g.node_weights.sum(), rel=1e-15)


def test_d2_transform_smoke():
    # d = 2 machinery on a tiny grid; tolerances fit the coarse box
    g, plan = stack(alpha=0.5, d=2, n=12, m=12)
    G = gaussian(g)
    assert rel(forward(plan, G), G) < 5e-3
    rng = np.random.default_rng(10)
    f = random_field(g, rng)
    assert rel(inverse(plan, forward(plan, f)), f) < 5e-3
    lhs, rhs = check_plancherel(plan, f)
    assert lhs == pytest.approx(rhs, rel=1e-3)
