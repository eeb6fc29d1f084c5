"""Generalized translation and Weinstein convolution.

The translation acts as an ordinary shift on the Cartesian block and as
the Bessel-type average on the radial coordinate:

    (tau_x f)(y) = C_alpha * int_0^pi f(y' - x', s(x_r, y_r, theta))
                   (sin theta)^{2 alpha} d theta,
    s = sqrt(x_r^2 + y_r^2 + 2 x_r y_r cos theta).

With this orientation the transform identity F(tau_x f) = Lambda(x, .) F(f)
holds for every f (the Cartesian shift matches the e^{-i<x',lam'>} kernel);
the symmetry tau_x f(y) = tau_y f(x) then holds for windows even in the
Cartesian block, which covers every default test function.

Radial off-node values are obtained by global barycentric interpolation on
the Gauss-Legendre nodes (superalgebraic for smooth data); arguments
beyond R use zero extension.  Cartesian lattice shifts are exact index
rolls on the periodic lattice (``lattice_shift``: node k holds
(k - n//2) h on the torus of period 2L); fractional shifts use circular
Lagrange interpolation.  One Lagrange product (``_lagrange_weights``)
serves both Cartesian edge rules: the circular stencils of ``translate``
and the clipped rows (``_cart_eval_matrix``) that evaluate window data at
scaled points and dilate.  ``translate`` applies its per-axis matrices
through ``BaseGrid.apply_axes``, as the transform and the dilation do.

The convolution is evaluated in the translated-window form

    (f * g)(x) = integral (tau_y f)(x) g(y) dmu_alpha(y),

which the transform diagonalizes exactly: F(f * g) = F(f) F(g).  For
windows even in the Cartesian block this coincides with the reflected
form int tau_x f(-y) g(y) dmu(y).  Its Cartesian part is a cyclic lattice
convolution, summed with the FFT (exact on the torus).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy.special import roots_legendre

from .grids import BaseGrid, Field, _matmul, _same_grid
from .special import check_alpha, translation_constant
from .transform import TransformPlan, forward, inverse

#: stencil order of both Cartesian Lagrange edge rules (circular and clipped)
_LAGRANGE_ORDER = 10


@dataclass
class ThetaRule:
    """Gauss-Legendre rule for the normalized (sin theta)^{2 alpha} average.

    Weights include C_alpha and are renormalized to sum exactly to 1, so
    that tau_0 is the identity by construction.
    """

    alpha: float
    count: int = 64

    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    raw_weight_sum: float = field(init=False)

    def __post_init__(self):
        self.alpha = check_alpha(self.alpha)
        if self.count < 2:
            raise ValueError("need at least 2 theta nodes")
        gx, gw = roots_legendre(self.count)
        th = 0.5 * np.pi * (gx + 1.0)
        w = 0.5 * np.pi * gw * np.sin(th) ** (2.0 * self.alpha)
        w *= translation_constant(self.alpha)
        self.raw_weight_sum = float(w.sum())
        self.nodes = th
        self.weights = w / w.sum()


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    w = np.ones(len(nodes))
    for j in range(len(nodes)):
        w[j] = 1.0 / np.prod(nodes[j] - np.delete(nodes, j))
    return w / np.max(np.abs(w))


def _lagrange_weights(t: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(len(t), q) Lagrange weights of the points t on the stencil ``nodes`` (q,).

    The weight of node a is the product over b != a of the quotients
    (t - node_b) / (node_a - node_b), multiplied in increasing b; both
    Cartesian edge rules (circular and clipped) form their stencils here.
    """
    q = len(nodes)
    den = nodes[None, :] - nodes[:, None]                   # [b, a]: node_a - node_b
    den[np.diag_indices(q)] = 1
    f = (t[None, :] - nodes[:, None])[:, :, None] / den[:, None, :]     # [b, point, a]
    f[np.arange(q), :, np.arange(q)] = 1.0
    return np.multiply.reduce(f, axis=0)


def _cart_eval_matrix(grid: BaseGrid, pts: np.ndarray) -> np.ndarray:
    """(len(pts), n) Lagrange evaluation rows on one Cartesian axis.

    Clipped (non-circular) stencils with zero extension beyond the box:
    used for continuum-function evaluation such as F(phi)(a xi) and for
    dilation.  A point at lattice position t = (p - x_0) / h in
    [-0.5, n - 0.5] gets the order = min(_LAGRANGE_ORDER, n) nodes
    lo .. lo + order - 1 nearest to it (clipped to the axis); rows of
    points outside that range are zero.  Non-finite points raise
    ValueError.
    """
    n = grid.cart_points
    order = min(_LAGRANGE_ORDER, n)
    pts = np.asarray(pts, dtype=float).ravel()
    if not np.all(np.isfinite(pts)):
        raise ValueError("interpolation points must be finite")
    t = (pts - grid.cart_axis[0]) / grid.cart_step
    rows = np.flatnonzero((t >= -0.5) & (t <= n - 0.5))
    t = t[rows]
    lo = np.clip(np.floor(t).astype(np.int64) - order // 2 + 1, 0, n - order)
    stencil = np.arange(order)
    A = np.zeros((len(pts), n))
    # t - lo is exact (0 <= lo <= t unless lo = 0), so the stencil 0 .. order - 1
    # gives the quotients of the nodes lo .. lo + order - 1 bit for bit
    A[rows[:, None], lo[:, None] + stencil] = _lagrange_weights(t - lo, stencil)
    return A


def radial_interp_matrix(grid: BaseGrid, pts: np.ndarray) -> np.ndarray:
    """(len(pts), m) barycentric cardinal rows over the radial nodes.

    Points beyond R get zero rows (decaying-function convention);
    non-finite points raise ValueError.
    """
    r = grid.radial_nodes
    bw = _bary_cache(grid)
    pts = np.asarray(pts, dtype=float).ravel()
    if not np.all(np.isfinite(pts)):
        raise ValueError("interpolation points must be finite")
    inside = pts <= grid.radial_extent + 1e-14
    # one (points, m) buffer turns from differences into rows in place
    rows = pts[inside, None] - r[None, :]
    exact = (rows > -1e-14) & (rows < 1e-14)
    rows[exact] = 1.0
    np.divide(bw[None, :], rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    rows[exact.any(axis=1)] = 0.0
    rows[exact] = 1.0
    if inside.all():
        return rows
    A = np.zeros((len(pts), len(r)))
    A[inside] = rows
    return A


def _bary_cache(grid: BaseGrid) -> np.ndarray:
    # cached on the grid itself: grids are immutable after construction
    w = getattr(grid, "_bary_weights", None)
    if w is None:
        w = barycentric_weights(grid.radial_nodes)
        grid._bary_weights = w
    return w


_CHUNK_ELEMS = 1 << 16     # theta x pairs x m entries per interpolation block (512 kB)


@dataclass
class TranslationKernel:
    """Discrete realization of the radial (Bessel) translation.

    tensor[i, j, k]: weight of the radial sample r_k in (tau at radial
    offset r_i of f)(radial node r_j).  Cartesian shifts live outside this
    tensor as exact lattice index arithmetic.

    s(r_i, r_j, theta)^2 = r_i^2 + r_j^2 + 2 r_i r_j cos(theta) is
    symmetric in (i, j) bit for bit (doubling is exact), so only the pairs
    i <= j are evaluated, in blocks that take every theta node at once;
    the lower triangle is their mirror.  Each block is summed over theta
    in node order, as a running sum over the nodes would be.
    """

    grid: BaseGrid
    theta: ThetaRule

    tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if abs(self.theta.alpha - self.grid.alpha) > 1e-14:
            raise ValueError("theta rule and grid have different alpha")
        r = self.grid.radial_nodes
        m = len(r)
        iu, ju = np.triu_indices(m)
        step = max(1, _CHUNK_ELEMS // (len(self.theta.nodes) * m))
        K = np.empty((m, m, m))
        for lo in range(0, len(iu), step):
            i, j = iu[lo:lo + step], ju[lo:lo + step]
            K[i, j] = K[j, i] = self._theta_average(r[i], r[j])
        self.tensor = K

    def radial_rows(self, rho: float) -> np.ndarray:
        """(m, m) matrix of the radial translation at arbitrary offset rho >= 0."""
        return self._theta_average(rho, self.grid.radial_nodes)

    def _theta_average(self, x, y) -> np.ndarray:
        """(len(y), m): sum over theta of w_theta times the rows at s(x, y, theta)."""
        c = np.cos(self.theta.nodes)[:, None]
        s = np.sqrt(np.maximum(x**2 + y**2 + 2.0 * x * y * c, 0.0))
        A = radial_interp_matrix(self.grid, s).reshape(s.shape + (-1,))
        A *= self.theta.weights[:, None, None]
        return np.add.reduce(A, axis=0)


def circular_shift_matrix(grid: BaseGrid, shift: float) -> np.ndarray:
    """(n, n) one-axis evaluation matrix for f(y - shift) on the periodic lattice.

    Lattice shifts give an exact permutation; fractional shifts use
    circular Lagrange interpolation of order _LAGRANGE_ORDER.  Either way it
    is a circulant; offsets that wrap onto one node (n below the order) add
    up in increasing offset.
    """
    n = grid.cart_points
    t = shift / grid.cart_step
    k0 = int(np.floor(t + 0.5))
    frac = t - k0
    if abs(frac) < 1e-12:
        offs, wgt = np.zeros(1, dtype=int), np.ones(1)
    else:
        q = _LAGRANGE_ORDER
        offs = np.arange(-(q // 2) + 1, q // 2 + 1)
        wgt = _lagrange_weights(np.array([frac]), offs)[0]
    # col[s] = col[s + n]: weight of node j + s (mod n) in row j
    col = np.tile(np.bincount((-k0 - offs) % n, wgt, n), 2)
    j = np.arange(n)
    return col[n + j[None, :] - j[:, None]]


def translate(kernel: TranslationKernel, x, f: Field) -> Field:
    """tau_x f sampled on f's grid; x is any point in R^d x [0, inf).

    A radial offset equal to a radial node r_i takes the rows
    ``kernel.tensor[i]``; any other offset evaluates ``radial_rows``.
    """
    g = f.grid
    if g is not kernel.grid:
        raise ValueError("field not on the kernel's grid")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (g.d + 1,):
        raise ValueError(f"x must have {g.d + 1} coordinates")
    if x[g.d] < 0:
        raise ValueError("radial offset must be >= 0")
    cart = [circular_shift_matrix(g, s) for s in x[:g.d]]
    # rows [y_r, r]; radial_rows(r_i) would recompute tensor[i] bit for bit
    node = np.flatnonzero(kernel.grid.radial_nodes == x[g.d])
    rows = kernel.tensor[node[0]] if len(node) else kernel.radial_rows(float(x[g.d]))
    return Field(g, g.apply_axes(f.values, cart, rows))


def check_translate_fourier(plan: TransformPlan, kernel: TranslationKernel,
                            x, f: Field) -> tuple[Field, Field]:
    """lhs = F(tau_x f); rhs = Lambda(x, .) F(f) on the frequency grid."""
    from .special import weinstein_kernel
    lhs = forward(plan, translate(kernel, x, f))
    Ff = forward(plan, f)
    lam = f.grid.nodes()
    fac = weinstein_kernel(f.grid.alpha, f.grid.d, lam,
                           np.asarray(x, dtype=float)).reshape(f.grid.shape)
    return lhs, Field(f.grid, fac * Ff.values)


def lattice_shift(grid: BaseGrid, values: np.ndarray, k: int) -> np.ndarray:
    """Samples of y -> v(y - x_k) for the lattice node with flat Cartesian index k.

    Node j holds (j - n//2) h per axis on the torus of period 2L, so the
    shift is an exact roll by k - n//2 along each Cartesian axis.  The
    first axis of ``values`` is the flat Cartesian index; trailing axes
    are carried along.
    """
    n, d = grid.cart_points, grid.d
    steps = tuple(int(s) - n // 2 for s in np.unravel_index(k, (n,) * d))
    v = values.reshape((n,) * d + values.shape[1:])
    return np.roll(v, steps, axis=tuple(range(d))).reshape(values.shape)


def cart_fft(grid: BaseGrid, values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Discrete Fourier transform over the d Cartesian axes (first axis flat)."""
    n, d = grid.cart_points, grid.d
    v = values.reshape((n,) * d + values.shape[1:])
    fft = sp_fft.ifftn if inverse else sp_fft.fftn
    return fft(v, axes=tuple(range(d))).reshape(values.shape)


def convolve(kernel: TranslationKernel, f: Field, g: Field) -> Field:
    """Weinstein convolution by quadrature over translated windows.

    (f * g)(x) = sum_y w_y g(y) (tau_y f)(x): the Cartesian part is the
    cyclic lattice convolution over y_c, the radial part a contraction of
    the translation tensor.  The Cartesian weights are uniform, so the
    lattice DFT commutes with that contraction: the two (n^d, m) fields
    are transformed first, the tensor is contracted per frequency k,

        spec[k, x_r] = sum_{y_r, r} (w g)^[k, y_r] f^[k, r] K[y_r, x_r, r],

    in one real GEMM, and one inverse FFT and a shift through node 0 move
    the result to the lattice origin.
    """
    _same_grid(f, g)
    if f.grid is not kernel.grid:
        raise ValueError("field not on the kernel's grid")
    gr = f.grid
    nc, m = gr.shape
    G = cart_fft(gr, gr.node_weights * g.values)
    F = cart_fft(gr, f.values)
    # [(y_r, r), k] outer products; K mirrors its first two indices bit for
    # bit, so its (m, m^2) reshape is K[x_r, (y_r, r)]
    GF = (G.T[:, None, :] * F.T[None, :, :]).reshape(m * m, nc)
    spec = _matmul(kernel.tensor.reshape(m, m * m), GF).T
    return Field(gr, lattice_shift(gr, cart_fft(gr, spec, inverse=True), 0))


def convolve_spectral(plan: TransformPlan, f: Field, g: Field) -> Field:
    """f * g = F^{-1}(F(f) F(g)); must agree with the quadrature route."""
    _same_grid(f, g)
    Ff = forward(plan, f)
    Fg = forward(plan, g)
    return inverse(plan, Field(f.grid, Ff.values * Fg.values))
