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
Lagrange interpolation.

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
from scipy.special import roots_legendre

from .grids import BaseGrid, Field, _same_grid
from .special import check_alpha, translation_constant
from .transform import TransformPlan, forward, inverse

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


def radial_interp_matrix(grid: BaseGrid, pts: np.ndarray) -> np.ndarray:
    """(len(pts), m) barycentric cardinal rows over the radial nodes.

    Points beyond R get zero rows (decaying-function convention).
    """
    r = grid.radial_nodes
    bw = _bary_cache(grid)
    pts = np.asarray(pts, dtype=float).ravel()
    A = np.zeros((len(pts), len(r)))
    inside = pts <= grid.radial_extent + 1e-14
    p = pts[inside]
    diff = p[:, None] - r[None, :]
    exact = np.abs(diff) < 1e-14
    diff[exact] = 1.0
    C = bw[None, :] / diff
    rows = C / C.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    rows[hit] = 0.0
    rows[exact] = 1.0
    A[inside] = rows
    return A


def _bary_cache(grid: BaseGrid) -> np.ndarray:
    # cached on the grid itself: grids are immutable after construction
    w = getattr(grid, "_bary_weights", None)
    if w is None:
        w = barycentric_weights(grid.radial_nodes)
        grid._bary_weights = w
    return w


@dataclass
class TranslationKernel:
    """Discrete realization of the radial (Bessel) translation.

    tensor[i, j, k]: weight of the radial sample r_k in (tau at radial
    offset r_i of f)(radial node r_j).  Symmetric in (i, j).  Cartesian
    shifts live outside this tensor as exact lattice index arithmetic.
    """

    grid: BaseGrid
    theta: ThetaRule

    tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if abs(self.theta.alpha - self.grid.alpha) > 1e-14:
            raise ValueError("theta rule and grid have different alpha")
        r = self.grid.radial_nodes
        m = len(r)
        X, Y = np.meshgrid(r, r, indexing="ij")
        K = np.zeros((m, m, m))
        for th, w in zip(self.theta.nodes, self.theta.weights):
            s = np.sqrt(np.maximum(X**2 + Y**2 + 2.0 * X * Y * np.cos(th), 0.0))
            K += w * radial_interp_matrix(self.grid, s.ravel()).reshape(m, m, m)
        self.tensor = K

    def radial_rows(self, rho: float) -> np.ndarray:
        """(m, m) matrix of the radial translation at arbitrary offset rho >= 0."""
        r = self.grid.radial_nodes
        Y = r[None, :]
        out = np.zeros((len(r), len(r)))
        for th, w in zip(self.theta.nodes, self.theta.weights):
            s = np.sqrt(np.maximum(rho**2 + Y**2 + 2.0 * rho * Y * np.cos(th), 0.0))
            out += w * radial_interp_matrix(self.grid, s.ravel())
        return out


def circular_shift_matrix(grid: BaseGrid, shift: float) -> np.ndarray:
    """(n, n) one-axis evaluation matrix for f(y - shift) on the periodic lattice.

    Lattice shifts give an exact permutation; fractional shifts use
    circular Lagrange interpolation of order _LAGRANGE_ORDER.
    """
    n = grid.cart_points
    h = grid.cart_step
    t = shift / h
    k0 = int(np.floor(t + 0.5))
    frac = t - k0
    if abs(frac) < 1e-12:
        P = np.zeros((n, n))
        j = np.arange(n)
        P[j, (j - k0) % n] = 1.0
        return P
    # Lagrange stencil around the fractional offset
    q = _LAGRANGE_ORDER
    offs = np.arange(-(q // 2) + 1, q // 2 + 1)
    wgt = np.ones(q)
    for a in range(q):
        for b in range(q):
            if a != b:
                wgt[a] *= (frac - offs[b]) / (offs[a] - offs[b])
    P = np.zeros((n, n))
    j = np.arange(n)
    for o, w in zip(offs, wgt):
        P[j, (j - k0 - o) % n] += w
    return P


def translate(kernel: TranslationKernel, x, f: Field) -> Field:
    """tau_x f sampled on f's grid; x is any point in R^d x [0, inf)."""
    g = f.grid
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (g.d + 1,):
        raise ValueError(f"x must have {g.d + 1} coordinates")
    if x[g.d] < 0:
        raise ValueError("radial offset must be >= 0")
    n, m, d = g.cart_points, g.radial_points, g.d
    v = f.values.reshape((n,) * d + (m,))
    for ax in range(d):
        P = circular_shift_matrix(g, x[ax])
        v = np.moveaxis(np.tensordot(P, v, axes=([1], [ax])), 0, ax)
    rows = kernel.radial_rows(float(x[d]))  # [y_r, r]
    v = np.tensordot(v, rows, axes=([d], [1]))
    return Field(g, v.reshape(g.shape))


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
    fft = np.fft.ifftn if inverse else np.fft.fftn
    return fft(v, axes=tuple(range(d))).reshape(values.shape)


def convolve(kernel: TranslationKernel, f: Field, g: Field) -> Field:
    """Weinstein convolution by quadrature over translated windows.

    (f * g)(x) = sum_y w_y g(y) (tau_y f)(x): the radial part contracts the
    translation tensor once; the Cartesian part is the cyclic lattice
    convolution sum_{y_c} C(y_c) f(x_c - y_c), done with the FFT and moved
    to the lattice origin by a shift through node 0.
    """
    _same_grid(f, g)
    gr = f.grid
    # C[y_c, x_r, r] = w_c sum_{y_r} w_r g[y_c, y_r] K[y_r, x_r, r]
    C = np.einsum("c,y,cy,yxr->cxr", gr.cart_weight_flat, gr.radial_weights,
                  g.values, kernel.tensor, optimize=True)
    spec = np.einsum("cxr,cr->cx", cart_fft(gr, C), cart_fft(gr, f.values))
    return Field(gr, lattice_shift(gr, cart_fft(gr, spec, inverse=True), 0))


def convolve_spectral(plan: TransformPlan, f: Field, g: Field) -> Field:
    """f * g = F^{-1}(F(f) F(g)); must agree with the quadrature route."""
    _same_grid(f, g)
    Ff = forward(plan, f)
    Fg = forward(plan, g)
    return inverse(plan, Field(f.grid, Ff.values * Fg.values))
