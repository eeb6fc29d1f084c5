"""Canonical Gaussian-class probe fields for checks and norm estimation.

All probes are Gaussian envelopes times low-degree polynomials with mild
modulation, even in the radial coordinate.  Their spatial and frequency
content stays well inside the grid box and the band-limit taper, so
quadrature-based identities are exercised without truncation artifacts.
``radial_bump_probe`` is the one probe built to strain the radial rule.
"""

from __future__ import annotations

import numpy as np

from .grids import BaseGrid, Field, field_from_function, inner_product


def gaussian(grid: BaseGrid, width: float = 1.0) -> Field:
    """exp(-|x|^2 / (2 width^2)); width=1 is the transform's fixed point."""

    def fn(p):
        return np.exp(-np.sum(p**2, axis=-1) / (2.0 * width**2))

    return field_from_function(grid, fn)


def random_field(grid: BaseGrid, rng: np.random.Generator) -> Field:
    """Random Gaussian-class probe: polynomial x modulated, shifted Gaussian.

    Cartesian factor: (c0 + c1 u + c2 u^2) exp(i k u) exp(-(u-b)^2/(2s^2))
    per axis; radial factor: (1 + q r^2) exp(-r^2/(2s^2)).
    """
    return Field(grid, random_fields(grid, rng, 1).reshape(grid.shape))


def random_fields(grid: BaseGrid, rng: np.random.Generator, count: int) -> np.ndarray:
    """(n^d * m, count) values of ``count`` successive ``random_field`` probes.

    Each probe's parameters are drawn from ``rng`` in turn, in the order
    ``random_field`` draws them; all probes are then evaluated in one
    broadcast, Cartesian and radial factors on their own axes.
    """
    d = grid.d
    draws = []
    for _ in range(count):
        sig = rng.uniform(0.7, 1.0)
        b = rng.uniform(-0.8, 0.8, size=d)
        k = rng.uniform(-1.0, 1.0, size=d)
        c = rng.normal(size=(d, 3)) * np.array([1.0, 0.5, 0.15])
        q = rng.uniform(-0.3, 0.3)
        # 2 s^2 from the scalar power: it can differ in the last bit from s * s
        draws.append((2 * sig**2, b, k, c, q))
    two_s2, b, k, c, q = (np.array(x) for x in zip(*draws))    # leading axis: probe
    u = grid.cart_coordinates()
    # in-place products: numpy rounds a complex product written into its
    # right operand differently, and would do so here for large enough temporaries
    cart = np.ones((grid.n_cart, count), dtype=complex)
    for ax in range(d):
        v = u[:, ax:ax + 1]
        cart *= (c[:, ax, 0] + 1.0) + c[:, ax, 1] * v + c[:, ax, 2] * v**2
        cart *= np.exp(1j * k[:, ax] * v - (v - b[:, ax]) ** 2 / two_s2)
    r = grid.radial_nodes[:, None]
    out = cart[:, None, :] * (1.0 + q * r**2)
    out *= np.exp(-(r**2) / two_s2)
    return out.reshape(-1, count)


def random_even_field(grid: BaseGrid, rng: np.random.Generator) -> Field:
    """Random probe even in the Cartesian block (cosine modulation, centered)."""
    d = grid.d
    sig = rng.uniform(0.7, 1.0)
    k = rng.uniform(0.0, 1.0, size=d)
    c2 = rng.uniform(-0.2, 0.2, size=d)
    q = rng.uniform(-0.3, 0.3)

    def fn(p):
        u = p[..., :d]
        r = p[..., d]
        out = np.ones(p.shape[:-1], dtype=float)
        for ax in range(d):
            v = u[..., ax]
            out = out * (1.0 + c2[ax] * v**2) * np.cos(k[ax] * v)
            out = out * np.exp(-(v**2) / (2 * sig**2))
        return out * (1.0 + q * r**2) * np.exp(-(r**2) / (2 * sig**2))

    return field_from_function(grid, fn)


def mean_zero_probe(grid: BaseGrid, rng: np.random.Generator | None = None) -> Field:
    """Difference of two Gaussians with equal mu_alpha integral.

    The first has width 1, the second width 1.3, or with ``rng`` a width
    drawn uniformly from [1.2, 1.4].  Suppresses content at zero frequency;
    the convergence study's wavelet quantities run on it.
    """
    g1 = gaussian(grid, 1.0)
    g2 = gaussian(grid, 1.3 if rng is None else rng.uniform(1.2, 1.4))
    one = Field(grid, np.ones(grid.shape, dtype=complex))
    m1 = inner_product(g1, one)
    m2 = inner_product(g2, one)
    return Field(grid, g1.values - (m1.real / m2.real) * g2.values)


def radial_bump_probe(grid: BaseGrid, center: float = 3.0, width: float = 0.33) -> Field:
    """Gaussian-class probe with a displaced even radial bump.

    Strains the radial Gauss-Legendre rule so transform-level errors are
    measurable above rounding on coarse grids.
    """

    def fn(p):
        u = p[..., : grid.d]
        r = p[..., grid.d]
        cart = np.exp(-np.sum(u**2, axis=-1) / 2.0)
        bump = (np.exp(-((r - center) ** 2) / (2 * width**2))
                + np.exp(-((r + center) ** 2) / (2 * width**2)))
        return cart * bump

    return field_from_function(grid, fn)
