"""Grids, fields and measure-weighted norms.

The computational domain is the box [-L, L)^d x (0, R].  The Cartesian
axes carry a uniform periodic lattice of n points (a torus): translations
between lattice points are then exact index shifts, and the lattice is
self-dual for the discrete Fourier factor when L = sqrt(pi * n / 2), which
it always is.  The radial axis carries a Gauss-Legendre rule on (0, R]
whose weights absorb the measure factor r^{2 alpha + 1} / (2^alpha
Gamma(alpha + 1)).

Fields store values as (n^d, m) arrays: flattened Cartesian index first,
radial index second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_legendre

from .special import check_alpha, check_dimension, measure_constant


def self_dual_extent(n: int) -> float:
    """Cartesian extent making the periodic lattice self-dual: L = sqrt(pi n / 2)."""
    return float(np.sqrt(0.5 * np.pi * n))


@dataclass
class BaseGrid:
    """Discretization of R^d x (0, inf) with quadrature weights for mu_alpha.

    Cartesian axes: n uniform nodes (j - n//2) h on a circle of length n h
    = 2L, so node differences are again nodes (mod the period).  Radial
    axis: m Gauss-Legendre nodes on (0, R].  The frequency grid is the
    grid itself (self-dual convention).
    """

    alpha: float
    d: int
    cart_points: int        # n per axis
    radial_extent: float    # R
    radial_points: int      # m

    cart_extent: float = field(init=False)  # L = self_dual_extent(n)
    cart_axis: np.ndarray = field(init=False, repr=False)
    cart_weights: np.ndarray = field(init=False, repr=False)
    radial_nodes: np.ndarray = field(init=False, repr=False)
    radial_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.alpha = check_alpha(self.alpha)
        self.d = check_dimension(self.d)
        if self.cart_points < 2 or self.radial_points < 2:
            raise ValueError("need at least 2 points per axis")
        if self.radial_extent <= 0:
            raise ValueError("radial extent must be positive")
        n, m = self.cart_points, self.radial_points
        L, R = self_dual_extent(n), float(self.radial_extent)
        self.cart_extent = L
        h = 2.0 * L / n
        self.cart_step = h
        self.cart_axis = (np.arange(n) - n // 2) * h
        # periodic trapezoid = uniform weights; (2 pi)^(-1/2) per axis makes
        # the Fourier factor unitary
        self.cart_weights = np.full(n, h / np.sqrt(2.0 * np.pi))
        gx, gw = roots_legendre(m)
        r = 0.5 * R * (gx + 1.0)
        c = measure_constant(self.alpha, self.d) * (2.0 * np.pi) ** (self.d / 2.0)
        self.radial_nodes = r
        self.radial_weights = 0.5 * R * gw * r ** (2.0 * self.alpha + 1.0) * c
        self._reflect_index = None
        self._sum_index = None

    # -- family normalization exponents ------------------------------------
    @property
    def measure_power(self) -> float:
        """Dilation exponent q = 2 alpha + d + 2: phi_a = a^{-q} phi(./a)."""
        return 2.0 * self.alpha + self.d + 2.0

    @property
    def gamma(self) -> float:
        """Family normalization exponent alpha + 1 + d/2: phi_{a,x} = a^gamma tau_x phi_a."""
        return self.alpha + 1.0 + self.d / 2.0

    # -- shapes and layout -------------------------------------------------
    @property
    def n_cart(self) -> int:
        """Total flattened Cartesian lattice size n^d."""
        return self.cart_points**self.d

    @property
    def n_nodes(self) -> int:
        return self.n_cart * self.radial_points

    @property
    def shape(self) -> tuple:
        """Field value shape: (n^d, m)."""
        return (self.n_cart, self.radial_points)

    def cart_coordinates(self) -> np.ndarray:
        """(n^d, d) array of Cartesian coordinates in C-order of the flat index."""
        axes = [self.cart_axis] * self.d
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def nodes(self) -> np.ndarray:
        """(n^d * m, d+1) array of all node coordinates (Cartesian block, radial)."""
        cart = self.cart_coordinates()
        nc, m = self.n_cart, self.radial_points
        out = np.empty((nc * m, self.d + 1))
        out[:, : self.d] = np.repeat(cart, m, axis=0)
        out[:, self.d] = np.tile(self.radial_nodes, nc)
        return out

    @property
    def cart_weight_flat(self) -> np.ndarray:
        """(n^d,) product Cartesian weights."""
        w = self.cart_weights
        out = w
        for _ in range(self.d - 1):
            out = np.multiply.outer(out, w).ravel()
        return out

    @property
    def node_weights(self) -> np.ndarray:
        """(n^d, m) quadrature weights realizing the mu_alpha integral."""
        return np.multiply.outer(self.cart_weight_flat, self.radial_weights)

    # -- lattice index arithmetic -------------------------------------------
    def _flat(self, cells: np.ndarray) -> np.ndarray:
        """Flat C-order index of integer lattice cells (d, ...), each axis mod n."""
        n = self.cart_points
        return np.ravel_multi_index(cells % n, (n,) * self.d)

    def cart_reflect_index(self) -> np.ndarray:
        """(n^d,) permutation sending the lattice point x to -x (per axis, mod period).

        Node j holds (j - n//2) h, so -x_j sits at index (2 (n//2) - j) mod n,
        for even and odd n alike.
        """
        if self._reflect_index is None:
            n, d = self.cart_points, self.d
            self._reflect_index = self._flat(2 * (n // 2) - np.indices((n,) * d).reshape(d, -1))
            self._reflect_index.flags.writeable = False
        return self._reflect_index

    def cart_sum_index(self) -> np.ndarray:
        """(n^d, n^d) symmetric table: [k, l] is the flat index of k + l (per axis, mod n)."""
        if self._sum_index is None:
            n, d = self.cart_points, self.d
            c = np.indices((n,) * d).reshape(d, -1)
            self._sum_index = self._flat(c[:, :, None] + c[:, None, :])
            self._sum_index.flags.writeable = False
        return self._sum_index

    def cart_bin_index(self) -> np.ndarray:
        """(n^d,) flat lattice DFT bin of each Cartesian frequency node: (j - n//2) mod n per axis.

        The grid is self-dual, so the Cartesian transform factor is the
        lattice DFT, and frequency node j of a window's data feeds this bin
        of the lattice spectrum of its samples in space.
        """
        n, d = self.cart_points, self.d
        return self._flat(np.indices((n,) * d).reshape(d, -1) - n // 2)

    def cart_negate_index(self) -> np.ndarray:
        """(n^d,) permutation sending the lattice DFT bin k to -k (per axis, mod n).

        The spectrum of conj(v) at bin k is conj of v's at -k.  At even n this
        is ``cart_reflect_index``; at odd n it is not.
        """
        n, d = self.cart_points, self.d
        return self._flat(-np.indices((n,) * d).reshape(d, -1))

    def cart_flat_index(self, point) -> int:
        """Flat Cartesian index of a lattice point; raises if off-lattice."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        t = point / self.cart_step + self.cart_points // 2
        k = np.rint(t).astype(int)
        if np.max(np.abs(t - k)) > 1e-9:
            raise ValueError(f"point {point} is not on the Cartesian lattice")
        return int(self._flat(k))

    # -- separable evaluation ------------------------------------------------
    def apply_axes(self, values: np.ndarray, cart, radial: np.ndarray) -> np.ndarray:
        """(n^d, m) values through cart[ax] (n, n) on each Cartesian axis, then radial (m, m).

        The separable form shared by the transform, translation and dilation.
        """
        n, m, d = self.cart_points, self.radial_points, self.d
        v = values.reshape((n,) * d + (m,))
        for ax, A in enumerate(cart):
            v = np.moveaxis(np.tensordot(A, v, axes=([1], [ax])), 0, ax)
        v = np.tensordot(v, radial, axes=([d], [1]))
        return v.reshape(self.shape)


def build_base_grid(alpha: float, d: int, n: int, m: int,
                    radial_extent: float | None = None) -> BaseGrid:
    """Build a grid on the self-dual box; R defaults to L = sqrt(pi n/2)."""
    R = self_dual_extent(n) if radial_extent is None else float(radial_extent)
    return BaseGrid(alpha=alpha, d=d, cart_points=n, radial_extent=R, radial_points=m)


@dataclass
class Field:
    """Complex-valued sampled function on a BaseGrid; values shaped (n^d, m)."""

    grid: BaseGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        self.values = v.astype(np.complex128, copy=False)

    def __add__(self, other):
        _same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        _same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c):
        return Field(self.grid, self.values * c)

    __rmul__ = __mul__


def _matmul(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for complex X of shape (K,) or (K, k) and M of shape (P, K).

    A real M takes one real GEMM on the (re, im) view of X.
    """
    if np.iscomplexobj(M):
        return M @ X
    X = np.ascontiguousarray(X, dtype=np.complex128)
    return (M @ X.view(np.float64).reshape(len(X), -1)).view(np.complex128).reshape(
        (len(M),) + X.shape[1:])


def _matmul_real_right(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X @ M for complex X of shape (N, K) and real M of shape (K, P).

    One real GEMM of the stacked (re, im) parts of X against M, written
    back into one complex (N, P) array.
    """
    N = len(X)
    R = np.concatenate([X.real, X.imag]) @ M
    out = np.empty((N, M.shape[1]), dtype=np.complex128)
    out.real = R[:N]
    out.imag = R[N:]
    return out


def is_real(values: np.ndarray) -> bool:
    """True when no value has a nonzero imaginary part: an exact test, with no tolerance."""
    return not np.any(values.imag)


def _same_grid(f, g):
    if f.grid is not g.grid:
        raise ValueError("fields live on different grids")


def field_from_function(grid: BaseGrid, fn) -> Field:
    """Sample fn(points(..., d+1)) -> complex on the grid nodes."""
    pts = grid.nodes()
    vals = np.asarray(fn(pts), dtype=np.complex128).reshape(grid.shape)
    return Field(grid, vals)


def inner_product(f: Field, g: Field) -> complex:
    """mu_alpha inner product <f, g> = integral f conj(g) dmu_alpha."""
    _same_grid(f, g)
    return complex(np.sum(f.grid.node_weights * f.values * np.conj(g.values)))


def lp_norm(f: Field, p: float) -> float:
    """Weighted L^p(mu_alpha) norm; p = inf gives the max of |values|."""
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    w = f.grid.node_weights
    return float(np.sum(w * np.abs(f.values) ** p) ** (1.0 / p))


def reflect(f: Field) -> Field:
    """Reflection x -> (-x', x_r): exact lattice permutation on the Cartesian block."""
    idx = f.grid.cart_reflect_index()
    return Field(f.grid, f.values[idx])


@dataclass
class ScaleGrid:
    """Discretization of the scale space X = (0, inf) x R^d x (0, inf).

    Scales are geometric on [a_min, a_max]; scale_weights are log-uniform
    trapezoid weights for the integral da/a.  The combined weight at
    (a_j, x_k) is  w_x * w_a * a^{-(2 alpha + d + 2)}, realizing
    dmu_alpha(x) da / a^{2 alpha + d + 3}.
    """

    base: BaseGrid
    a_min: float
    a_max: float
    scale_points: int

    scales: np.ndarray = field(init=False, repr=False)
    scale_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (0 < self.a_min < self.a_max):
            raise ValueError("need 0 < a_min < a_max")
        if self.scale_points < 2:
            raise ValueError("need at least 2 scales")
        la = np.linspace(np.log(self.a_min), np.log(self.a_max), self.scale_points)
        self.scales = np.exp(la)
        w = np.full(self.scale_points, la[1] - la[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        self.scale_weights = w

    @property
    def measure_power(self) -> float:
        """Exponent q with combined weight w_x w_a a^{-q} (``BaseGrid.measure_power``)."""
        return self.base.measure_power

    @property
    def combined_weights(self) -> np.ndarray:
        """(J, n^d, m) weights realizing the X-measure on scale-space fields."""
        aw = self.scale_weights * self.scales ** (-self.measure_power)
        return aw[:, None, None] * self.base.node_weights[None]

    @property
    def shape(self) -> tuple:
        return (self.scale_points,) + self.base.shape


def build_scale_grid(base: BaseGrid, a_min: float, a_max: float, count: int) -> ScaleGrid:
    return ScaleGrid(base=base, a_min=a_min, a_max=a_max, scale_points=count)


@dataclass
class ScaleField:
    """Complex function on a ScaleGrid; values shaped (J, n^d, m)."""

    grid: ScaleGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != scale grid shape {self.grid.shape}")
        self.values = v.astype(np.complex128, copy=False)

    def __sub__(self, other):
        if self.grid is not other.grid:
            raise ValueError("scale fields live on different grids")
        return ScaleField(self.grid, self.values - other.values)

    def __mul__(self, c):
        return ScaleField(self.grid, self.values * c)

    __rmul__ = __mul__


def scale_inner_product(F: ScaleField, G: ScaleField) -> complex:
    if F.grid is not G.grid:
        raise ValueError("scale fields live on different grids")
    return complex(np.sum(F.grid.combined_weights * F.values * np.conj(G.values)))


def scale_lp_norm(F: ScaleField, p: float) -> float:
    if p == np.inf:
        return float(np.max(np.abs(F.values)))
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float(np.sum(F.grid.combined_weights * np.abs(F.values) ** p) ** (1.0 / p))
