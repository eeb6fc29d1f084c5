"""Dilations, wavelet families, admissibility, and the continuous wavelet transform.

A window phi is admissible when C_phi = int_0^inf |F(phi)(a xi)|^2 da/a is
a finite positive constant independent of xi; a pair (phi, psi) is a
two-wavelet when the cross integral C_{phi,psi} = int F(psi)(a xi)
conj(F(phi)(a xi)) da/a is constant in xi.  The wavelet family is

    phi_{a,x}(y) = a^{alpha + 1 + d/2} (tau_x phi_a)(y),
    phi_a(y) = a^{-(2 alpha + d + 2)} phi(y / a),

and the wavelet transform of f is W(f)(a, x) = <f, phi_{a,x}>.

Scaled window data on the grid is produced in the frequency domain,
F(phi_a)(xi) = F(phi)(a xi), multiplied by a fixed band-limiting taper
that removes content the lattice cannot represent at extreme scales.  The
taper is flat over the frequency range of every test function, so the
admissibility constants and all identities at those frequencies are
unaffected; it only conditions the discrete realization of the family.

Two independent evaluation pipelines are provided: ``cwt`` contracts the
quadrature translation tensor against f and correlates the result with
the window samples on the lattice (real-space route; the lattice sum uses
the FFT, exact on the torus), while ``cwt_convolution_form`` evaluates
a^{alpha+1+d/2} (f_reflected * conj(phi_a)) through Weinstein transform
products (spectral route).  Their agreement is a structural check on the
whole translation/dilation convention chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import (BaseGrid, Field, ScaleField, ScaleGrid, inner_product,
                    reflect, scale_inner_product)
from .translation import (TranslationKernel, cart_fft, convolve_spectral, lattice_shift,
                          radial_interp_matrix)
from .transform import TransformPlan, forward, inverse

#: taper is flat below FLAT * extent and zero above CUT * extent, per axis
TAPER_FLAT = 0.62
TAPER_CUT = 0.80

#: radial frequency magnitudes (relative units) sampled for constancy checks
XI_RADII = (0.35, 1.6)
XI_COUNT = 16
XI_DIRECTIONS = 8


@dataclass
class Window:
    """Analysis window: grid samples plus an optional frequency-domain profile.

    ``freq_profile`` maps points (..., d+1) in frequency space to complex
    amplitudes; when present it is used for scaled window data and
    admissibility integrals (exact dilation).  Without it, the window's
    grid transform is interpolated.
    """

    field: Field
    freq_profile: Callable | None = None
    name: str = "window"


def radial_profile(fn: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """Lift a profile of the frequency magnitude to a function of points."""

    def profile(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return fn(np.sqrt(np.sum(pts**2, axis=-1)))

    return profile


def band_taper(grid: BaseGrid) -> np.ndarray:
    """(n^d, m) band-limiting taper on the frequency grid, flat over test content."""

    def t(u, extent):
        s = np.clip((np.abs(u) / extent - TAPER_FLAT) / (TAPER_CUT - TAPER_FLAT), 0.0, 1.0)
        return 0.5 * (1.0 + np.cos(np.pi * s))

    cart = grid.cart_coordinates()
    out = np.ones(grid.n_cart)
    for ax in range(grid.d):
        out = out * t(cart[:, ax], grid.cart_extent)
    return np.multiply.outer(out, t(grid.radial_nodes, grid.radial_extent))


def window_from_profile(plan: TransformPlan, fn_of_radius: Callable,
                        name: str = "window") -> Window:
    """Window defined by a radial frequency profile, sampled via the inverse transform."""
    profile = radial_profile(fn_of_radius)
    g = plan.grid
    G = profile(g.nodes()).reshape(g.shape) * band_taper(g)
    f = inverse(plan, Field(g, G.astype(np.complex128)))
    return Window(field=f, freq_profile=profile, name=name)


def default_windows(plan: TransformPlan) -> tuple[Window, Window]:
    """The two default admissible windows: |xi|^2 and |xi|^4 Gaussian profiles.

    Their admissibility constants have closed forms: C = 1/2 for the
    quadratic profile, 3 for the quartic, and cross constant 1.
    """
    w1 = window_from_profile(plan, lambda s: s**2 * np.exp(-0.5 * s**2), name="g2")
    w2 = window_from_profile(plan, lambda s: s**4 * np.exp(-0.5 * s**2), name="g4")
    return w1, w2


# ---------------------------------------------------------------------------
# evaluation of frequency data at scaled points
# ---------------------------------------------------------------------------

def _cart_eval_matrix(grid: BaseGrid, pts: np.ndarray, order: int = 10) -> np.ndarray:
    """(len(pts), n) Lagrange evaluation rows on one Cartesian axis.

    Clipped (non-circular) stencils with zero extension beyond the box:
    used for continuum-function evaluation such as F(phi)(a xi).
    """
    n = grid.cart_points
    h = grid.cart_step
    x0 = grid.cart_axis[0]
    pts = np.asarray(pts, dtype=float).ravel()
    A = np.zeros((len(pts), n))
    for k, p in enumerate(pts):
        t = (p - x0) / h
        if t < -0.5 or t > n - 0.5:
            continue
        j0 = int(np.floor(t))
        lo = max(0, min(j0 - order // 2 + 1, n - order))
        idx = np.arange(lo, lo + order)
        w = np.ones(order)
        for a_ in range(order):
            for b_ in range(order):
                if a_ != b_:
                    w[a_] *= (t - idx[b_]) / (idx[a_] - idx[b_])
        A[k, idx] = w
    return A


def eval_freq_data(window: Window, plan: TransformPlan, pts: np.ndarray) -> np.ndarray:
    """F(window)(pts) for arbitrary points: profile if present, else interpolation."""
    if window.freq_profile is not None:
        return np.asarray(window.freq_profile(pts), dtype=np.complex128)
    g = plan.grid
    Fw = forward(plan, window.field).values
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, g.d + 1)
    Rr = radial_interp_matrix(g, flat[:, g.d])              # [pts, m]
    tmp = Fw.reshape((g.cart_points,) * g.d + (g.radial_points,))
    # contract Cartesian axes one by one with per-point rows
    cur = tmp
    for ax in range(g.d):
        A = _cart_eval_matrix(g, flat[:, ax])               # [pts, n]
        if ax == 0:
            cur = np.einsum("pj,j...->p...", A, cur)
        else:
            cur = np.einsum("pj,pj...->p...", A, cur)
    vals = np.einsum("pr,pr->p", Rr, cur)
    return vals.reshape(pts.shape[:-1])


def scaled_window_data(window: Window, plan: TransformPlan, a: float,
                       taper: np.ndarray) -> np.ndarray:
    """(n^d, m) tapered frequency data of phi_a: F(phi)(a xi) * T(xi)."""
    g = plan.grid
    pts = g.nodes() * a
    return (eval_freq_data(window, plan, pts).reshape(g.shape) * taper)


# ---------------------------------------------------------------------------
# dilation and family members (standalone operations)
# ---------------------------------------------------------------------------

def dilate(a: float, f: Field) -> Field:
    """phi_a(x) = a^{-(2 alpha + d + 2)} phi(x/a), sampled by interpolation.

    Real-space route (independent of the transform): separable Lagrange
    along Cartesian axes, barycentric along the radial axis, zero beyond
    the box.  Accurate for scales the lattice resolves.
    """
    if a <= 0:
        raise ValueError("dilation scale must be positive")
    g = f.grid
    n, m, d = g.cart_points, g.radial_points, g.d
    v = f.values.reshape((n,) * d + (m,))
    A = _cart_eval_matrix(g, g.cart_axis / a)
    for ax in range(d):
        v = np.moveaxis(np.tensordot(A, v, axes=([1], [ax])), 0, ax)
    Rr = radial_interp_matrix(g, g.radial_nodes / a)
    v = np.tensordot(v, Rr, axes=([d], [1]))
    q = 2.0 * g.alpha + g.d + 2.0
    return Field(g, v.reshape(g.shape) * a ** (-q))


def family_member(kernel: TranslationKernel, plan: TransformPlan, window: Window,
                  a: float, x, taper: np.ndarray | None = None) -> Field:
    """phi_{a,x} = a^{alpha+1+d/2} tau_x phi_a as a grid field."""
    from .translation import translate
    g = plan.grid
    T = band_taper(g) if taper is None else taper
    Wd = inverse(plan, Field(g, scaled_window_data(window, plan, a, T)))
    gam = g.alpha + 1.0 + g.d / 2.0
    return a**gam * translate(kernel, x, Wd)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def _xi_samples(grid: BaseGrid) -> np.ndarray:
    """Deterministic frequency sample set for constancy checks.

    Radii log-uniform in the scale-invariant band, combined with a fixed
    set of directions in the open upper half space (last coordinate > 0).
    """
    radii = np.exp(np.linspace(np.log(XI_RADII[0]), np.log(XI_RADII[1]), XI_COUNT))
    if grid.d == 1:
        ang = np.pi * (np.arange(XI_DIRECTIONS) + 0.5) / XI_DIRECTIONS
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    else:
        rng = np.random.default_rng(7)
        dirs = rng.normal(size=(XI_DIRECTIONS, grid.d + 1))
        dirs[:, -1] = np.abs(dirs[:, -1]) + 0.1
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs[np.arange(XI_COUNT) % XI_DIRECTIONS]


def admissibility_constant(plan: TransformPlan, scale_grid: ScaleGrid,
                           window: Window) -> tuple[float, float]:
    """(C, spread): C = mean over sampled xi of int |F(phi)(a xi)|^2 da/a.

    spread is max |C(xi) - C| / |C| over the sample set; it certifies the
    constancy the admissibility definition demands.
    """
    vals = _scale_integrals(plan, scale_grid, window, window)
    mean = float(np.real(vals.mean()))
    spread = float(np.max(np.abs(vals - vals.mean())) / max(abs(mean), 1e-300))
    return mean, spread


def two_wavelet_constant(plan: TransformPlan, scale_grid: ScaleGrid,
                         window_phi: Window, window_psi: Window) -> tuple[complex, float]:
    """(C, spread) for the cross constant int F(psi)(a xi) conj(F(phi)(a xi)) da/a."""
    vals = _scale_integrals(plan, scale_grid, window_phi, window_psi)
    mean = complex(vals.mean())
    spread = float(np.max(np.abs(vals - mean)) / max(abs(mean), 1e-300))
    return mean, spread


def _scale_integrals(plan, scale_grid, window_phi, window_psi) -> np.ndarray:
    xi = _xi_samples(plan.grid)
    a = scale_grid.scales
    pts = a[:, None, None] * xi[None, :, :]            # [J, S, d+1]
    Pphi = eval_freq_data(window_phi, plan, pts)
    if window_psi is window_phi:
        Ppsi = Pphi
    else:
        Ppsi = eval_freq_data(window_psi, plan, pts)
    return np.einsum("j,js->s", scale_grid.scale_weights, Ppsi * np.conj(Pphi))


# ---------------------------------------------------------------------------
# wavelet pair
# ---------------------------------------------------------------------------

@dataclass
class WaveletPair:
    """Two windows with cached admissibility data and per-scale window data."""

    plan: TransformPlan
    scale_grid: ScaleGrid
    kernel: TranslationKernel
    phi: Window
    psi: Window

    C_phi: float = field(init=False)
    C_psi: float = field(init=False)
    C_phi_psi: complex = field(init=False)
    constancy_spread: float = field(init=False)
    taper: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.scale_grid.base is not self.plan.grid:
            raise ValueError("scale grid not built on the plan's grid")
        self.taper = band_taper(self.plan.grid)
        self.C_phi, s1 = admissibility_constant(self.plan, self.scale_grid, self.phi)
        self.C_psi, s2 = admissibility_constant(self.plan, self.scale_grid, self.psi)
        self.C_phi_psi, s3 = two_wavelet_constant(self.plan, self.scale_grid,
                                                  self.phi, self.psi)
        self.constancy_spread = max(s1, s2, s3)
        self._data = {}

    @property
    def gamma(self) -> float:
        """Family normalization exponent alpha + 1 + d/2."""
        g = self.plan.grid
        return g.alpha + 1.0 + g.d / 2.0

    def freq_data(self, which: str) -> np.ndarray:
        """(J, n^d, m) stacked tapered frequency data F(phi)(a_j xi) T(xi)."""
        if which not in self._data:
            window = self.phi if which == "phi" else self.psi
            g = self.plan.grid
            out = np.empty(self.scale_grid.shape, dtype=np.complex128)
            for j, a in enumerate(self.scale_grid.scales):
                out[j] = scaled_window_data(window, self.plan, float(a), self.taper)
            self._data[which] = out
        return self._data[which]

    def space_data(self, which: str) -> np.ndarray:
        """(J, n^d, m) per-scale window fields phi_{a_j} on the grid (real space)."""
        key = which + "_space"
        if key not in self._data:
            fd = self.freq_data(which)
            g = self.plan.grid
            out = np.empty_like(fd)
            for j in range(self.scale_grid.scale_points):
                out[j] = inverse(self.plan, Field(g, fd[j])).values
            self._data[key] = out
        return self._data[key]


def build_pair(plan: TransformPlan, scale_grid: ScaleGrid, kernel: TranslationKernel,
               phi: Window | None = None, psi: Window | None = None) -> WaveletPair:
    if phi is None or psi is None:
        w1, w2 = default_windows(plan)
        phi = phi or w1
        psi = psi or w2
    return WaveletPair(plan=plan, scale_grid=scale_grid, kernel=kernel, phi=phi, psi=psi)


# ---------------------------------------------------------------------------
# wavelet transform: two pipelines
# ---------------------------------------------------------------------------

def cwt(pair: WaveletPair, f: Field, which: str = "phi") -> ScaleField:
    """W(f)(a, x) = <f, phi_{a,x}>: real-space quadrature route.

    Contracts the translation tensor against f once, then correlates the
    result with the window samples phi_a of every scale on the lattice:
    one batched spectral product B^ conj(phi_a^) over the scale axis, an
    inverse FFT, and a shift through the node -x_0 (a correlation's
    lattice origin).  This is the same discrete family realization the
    localization assembly uses, so operator weak forms match this
    transform exactly.
    """
    g = pair.plan.grid
    if f.grid is not g:
        raise ValueError("field not on the pair's grid")
    # B[y_c, x_r, r] = w_c sum_{y_r} w_r f[y_c, y_r] K[x_r, y_r, r]
    B = np.einsum("c,y,cy,xyr->cxr", g.cart_weight_flat, g.radial_weights,
                  f.values, pair.kernel.tensor, optimize=True)
    # spec[k, x_r, j] = sum_r B^[k, x_r, r] conj(phi_j^[k, r])
    Wh = np.conj(cart_fft(g, pair.space_data(which).transpose(1, 2, 0)))
    spec = np.matmul(cart_fft(g, B), Wh)
    corr = lattice_shift(g, cart_fft(g, spec, inverse=True), g.cart_reflect_index()[0])
    sg = pair.scale_grid
    out = sg.scales[:, None, None] ** pair.gamma * corr.transpose(2, 0, 1)
    return ScaleField(sg, out)


def cwt_convolution_form(pair: WaveletPair, f: Field, which: str = "phi") -> ScaleField:
    """W(f)(a, .) = a^{alpha+1+d/2} (f_reflected * conj(phi_a)): spectral route."""
    g = pair.plan.grid
    if f.grid is not g:
        raise ValueError("field not on the pair's grid")
    fr = reflect(f)
    sdata = pair.space_data(which)
    out = np.empty(pair.scale_grid.shape, dtype=np.complex128)
    gam = pair.gamma
    for j, a in enumerate(pair.scale_grid.scales):
        wa_field = Field(g, np.conj(sdata[j]))
        out[j] = a**gam * convolve_spectral(pair.plan, fr, wa_field).values
    return ScaleField(pair.scale_grid, out)


def check_two_wavelet_parseval(pair: WaveletPair, f: Field, g: Field) -> tuple[complex, complex]:
    """lhs = <W_phi f, W_psi g>_X ; rhs = C_{phi,psi} <f, g>."""
    Wf = cwt(pair, f, "phi")
    Wg = cwt(pair, g, "psi")
    lhs = scale_inner_product(Wf, Wg)
    rhs = pair.C_phi_psi * inner_product(f, g)
    return lhs, rhs


def invert_cwt(pair: WaveletPair, W: ScaleField) -> Field:
    """f(y) = (1/C_{phi,psi}) int_X W(a, x) psi_{a,x}(y) dmu(a, x).

    Synthesis by quadrature over all scale-space cells with the same
    family realization as ``cwt``.  The lattice convolutions of every
    scale are summed in the spectrum, sum_j c_j W_j^ psi_j^ (one batched
    product over the scale axis), followed by one inverse FFT, one shift
    through node 0 and one contraction of the translation tensor.
    Refuses near-degenerate pairs.
    """
    if W.grid is not pair.scale_grid:
        raise ValueError("scale field not on the pair's scale grid")
    floor = 1e-8 * max(np.sqrt(abs(pair.C_phi * pair.C_psi)), 1e-30)
    if abs(pair.C_phi_psi) < max(floor, 1e-12):
        raise ValueError("cross admissibility constant is numerically zero; "
                         "reconstruction refused")
    g = pair.plan.grid
    sg = pair.scale_grid
    c = sg.scale_weights * sg.scales ** (pair.gamma - sg.measure_power)
    cW = c[:, None, None] * g.node_weights * W.values
    # S^[k, x_r, r] = sum_j c_j (w W_j)^[k, x_r] psi_j^[k, r]
    spec = np.matmul(cart_fft(g, cW.transpose(1, 2, 0)),
                     cart_fft(g, pair.space_data("psi").transpose(1, 0, 2)))
    S = lattice_shift(g, cart_fft(g, spec, inverse=True), 0)
    out = np.einsum("cxr,xyr->cy", S, pair.kernel.tensor, optimize=True)
    return Field(g, out / pair.C_phi_psi)
