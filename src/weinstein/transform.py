"""The Weinstein transform and its norm identities.

F(f)(lam) = integral f(x) Lambda(x, lam) dmu_alpha(x), with
Lambda(x, lam) = exp(-i <x', lam'>) j_alpha(x_r lam_r).  The transform
factorizes over axes: a Fourier factor per Cartesian axis and a
Bessel-kernel factor on the radial axis.  The inverse is
F^{-1}(g)(lam) = F(g)(-lam) with -lam = (-lam', lam_r), realized as a
reflection of the input.

The frequency grid is the spatial grid (self-dual convention), so all
norm checks use one weight set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import BaseGrid, Field, lp_norm, reflect
from .special import normalized_bessel


@dataclass
class TransformPlan:
    """Precomputed transform factors for one grid.

    cart_factor[k, j] = exp(-i lam_k x_j) w_j   (per Cartesian axis)
    radial_factor[k, j] = j_alpha(lam_k r_j) w_j   (real, stored as float64)
    The full dense kernel-times-weight matrix is their Kronecker product;
    ``matrix()`` materializes it (small grids only).
    """

    grid: BaseGrid
    cart_factor: np.ndarray = field(init=False, repr=False)
    radial_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = self.grid
        x = g.cart_axis
        self.cart_factor = np.exp(-1j * np.outer(x, x)) * g.cart_weights[None, :]
        r = g.radial_nodes
        self.radial_factor = normalized_bessel(g.alpha, np.outer(r, r)) * g.radial_weights[None, :]

    def matrix(self) -> np.ndarray:
        """Dense (N, N) matrix of Lambda(x_j, lam_k) w_j entries (N = n^d m)."""
        M = self.cart_factor
        for _ in range(self.grid.d - 1):
            M = np.kron(M, self.cart_factor)
        return np.kron(M, self.radial_factor)


def build_plan(grid: BaseGrid) -> TransformPlan:
    return TransformPlan(grid)


def forward(plan: TransformPlan, f: Field) -> Field:
    """F(f) sampled on the (self-dual) frequency grid."""
    if f.grid is not plan.grid:
        raise ValueError("field not on the plan's grid")
    g = plan.grid
    return Field(g, g.apply_axes(f.values, [plan.cart_factor] * g.d, plan.radial_factor))


def inverse(plan: TransformPlan, F: Field) -> Field:
    """F^{-1}(g)(lam) = F(g)(-lam): forward transform of the reflected input."""
    if F.grid is not plan.grid:
        raise ValueError("field not on the plan's grid")
    return forward(plan, reflect(F))


def check_plancherel(plan: TransformPlan, f: Field) -> tuple[float, float]:
    """Both sides of ||F f||_2 = ||f||_2."""
    return lp_norm(forward(plan, f), 2), lp_norm(f, 2)


def check_parseval(plan: TransformPlan, f: Field, g: Field) -> tuple[complex, complex]:
    """Both sides of <f, g> = <F f, F g>."""
    from .grids import inner_product
    return inner_product(f, g), inner_product(forward(plan, f), forward(plan, g))


def check_hausdorff_young(plan: TransformPlan, f: Field, p: float) -> tuple[float, float]:
    """(||F f||_q, ||f||_p) with 1/p + 1/q = 1, for 1 <= p <= 2."""
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")
    q = np.inf if p == 1.0 else p / (p - 1.0)
    return lp_norm(forward(plan, f), q), lp_norm(f, p)
