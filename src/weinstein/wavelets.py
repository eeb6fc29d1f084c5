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
A window with a frequency profile is evaluated exactly.  A window given
only by samples is interpolated from its grid transform: at the scaled
nodes a * (x', x_r) as one separable product per scale
(``scaled_freq_data``), at any other point set point by point
(``eval_freq_data``).

Two independent evaluation pipelines are provided: ``cwt`` contracts the
quadrature translation tensor against f and correlates the result with
the window on the lattice (real-space route; the lattice sums run in the
window's lattice spectrum, exact on the torus, which is derived from its
frequency data), while ``cwt_convolution_form`` evaluates
a^{alpha+1+d/2} (f_reflected * conj(phi_a)) through Weinstein transform
products of the window samples in space (spectral route).  Their
agreement is a structural check on the whole translation/dilation
convention chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import (BaseGrid, Field, ScaleField, ScaleGrid, _matmul, _matmul_real_right,
                    inner_product, reflect, scale_inner_product)
from .translation import (TranslationKernel, _cart_eval_matrix, cart_fft,
                          radial_interp_matrix, translate)
from .transform import TransformPlan, forward, inverse

#: taper is flat below FLAT * extent and zero above CUT * extent, per axis
TAPER_FLAT = 0.62
TAPER_CUT = 0.80

#: radial frequency magnitudes (relative units) sampled for constancy checks
XI_RADII = (0.35, 1.6)
XI_COUNT = 16
XI_DIRECTIONS = 8

#: a lattice spectrum's (re, im) parts below this fraction of the window's
#: largest are set to 0.  The frequency data's Gaussian tails underflow (to
#: 2e-320 for the default pair), and the operator assembly's GEMMs slow down
#: on the subnormal products of such parts (by a fifth for a complex
#: operator at 32/32/20); at 1e-100 no report value moves
SPECTRUM_FLOOR = 1e-100


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

def eval_freq_data(window: Window, plan: TransformPlan, pts: np.ndarray) -> np.ndarray:
    """F(window)(pts) for arbitrary points (..., d+1): profile if present, else interpolation.

    The route for point sets that are not the scaled nodes: the
    admissibility samples and ``localization.paracommutator_kernel``.  At
    the scaled nodes ``scaled_freq_data`` gives the same values.  Without a
    profile the window's grid transform is interpolated: Lagrange rows
    (``_cart_eval_matrix``) on each Cartesian axis, barycentric rows on the
    radial axis, each built once per distinct coordinate value and gathered.
    The first Cartesian axis is one real GEMM of the rows against the
    (re, im) pairs of the transform (``grids._matmul``); later axes and the
    radial axis contract per point.
    """
    if window.freq_profile is not None:
        return np.asarray(window.freq_profile(pts), dtype=np.complex128)
    g = plan.grid
    n, m = g.cart_points, g.radial_points
    Fw = forward(plan, window.field).values
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, g.d + 1)

    def rows(build, coord):
        # a row depends on its own point only
        distinct, at = np.unique(coord, return_inverse=True)
        return build(g, distinct)[at]

    Rr = rows(radial_interp_matrix, flat[:, g.d])           # [pts, m]
    A = rows(_cart_eval_matrix, flat[:, 0])                 # [pts, n]
    cur = _matmul(A, Fw.reshape(n, -1)).reshape((len(flat),) + (n,) * (g.d - 1) + (m,))
    for ax in range(1, g.d):
        cur = np.einsum("pj,pj...->p...", rows(_cart_eval_matrix, flat[:, ax]), cur)
    vals = np.einsum("pr,pr->p", Rr, cur)
    return vals.reshape(pts.shape[:-1])


def scaled_freq_data(window: Window, plan: TransformPlan, scales) -> np.ndarray:
    """(len(scales), n^d, m) untapered F(window)(a xi) at the scaled nodes a * nodes.

    The route for every grid-scaled evaluation.  A profile is evaluated at
    the scaled nodes.  A sampled window is transformed once; on the scaled
    nodes the interpolant is separable, so each scale is one product
    through ``BaseGrid.apply_axes`` of the same Lagrange rows (on every
    Cartesian axis) and barycentric rows (radial) that ``eval_freq_data``
    builds, each contracted per axis instead of per point.
    """
    g = plan.grid
    out = np.empty((len(scales),) + g.shape, dtype=np.complex128)
    if window.freq_profile is not None:
        nodes = g.nodes()
        for j, a in enumerate(scales):
            out[j] = window.freq_profile(nodes * a).reshape(g.shape)
        return out
    Fw = forward(plan, window.field).values
    for j, a in enumerate(scales):
        out[j] = g.apply_axes(Fw, [_cart_eval_matrix(g, a * g.cart_axis)] * g.d,
                              radial_interp_matrix(g, a * g.radial_nodes))
    return out


def scaled_window_data(window: Window, plan: TransformPlan, a: float,
                       taper: np.ndarray) -> np.ndarray:
    """(n^d, m) tapered frequency data of phi_a: F(phi)(a xi) * T(xi) (``scaled_freq_data``)."""
    return scaled_freq_data(window, plan, [a])[0] * taper


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
    v = g.apply_axes(f.values, [_cart_eval_matrix(g, g.cart_axis / a)] * g.d,
                     radial_interp_matrix(g, g.radial_nodes / a))
    return Field(g, v * a ** (-g.measure_power))


def family_member(kernel: TranslationKernel, plan: TransformPlan, window: Window,
                  a: float, x) -> Field:
    """phi_{a,x} = a^{alpha+1+d/2} tau_x phi_a as a grid field."""
    g = plan.grid
    Wd = inverse(plan, Field(g, scaled_window_data(window, plan, a, band_taper(g))))
    return a**g.gamma * translate(kernel, x, Wd)


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
    C, spread = two_wavelet_constant(plan, scale_grid, window, window)
    return C.real, spread


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
    """Two windows with cached admissibility data and per-scale window data.

    Each window, named ``"phi"`` or ``"psi"``, has per-scale arrays, each
    computed at its first use and cached read-only, so every later use of
    the pair reads them: its tapered frequency data (``freq_data``), the
    lattice spectrum derived from them (``lattice_spectrum``), which
    ``cwt``, ``invert_cwt`` and the operator assembly read, and its samples
    in space (``space_data``), which only the independent pipeline
    ``cwt_convolution_form`` reads.
    """

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
        """Family normalization exponent alpha + 1 + d/2 (``BaseGrid.gamma``)."""
        return self.plan.grid.gamma

    def freq_data(self, which: str) -> np.ndarray:
        """(J, n^d, m) stacked tapered frequency data F(phi)(a_j xi) T(xi).

        ``which`` names the window, "phi" or "psi"; any other name raises
        ValueError.  The scaled nodes come from ``scaled_freq_data``: a
        sampled window is transformed once and interpolated as one separable
        product per scale.
        """
        if which not in ("phi", "psi"):
            raise ValueError(f"window must be 'phi' or 'psi', got {which!r}")
        if which not in self._data:
            window = self.phi if which == "phi" else self.psi
            out = scaled_freq_data(window, self.plan, self.scale_grid.scales)
            out *= self.taper
            out.flags.writeable = False
            self._data[which] = out
        return self._data[which]

    def space_data(self, which: str) -> np.ndarray:
        """(J, n^d, m) per-scale window fields phi_{a_j} on the grid (real space).

        Only ``cwt_convolution_form``, the independent pipeline, reads them.
        """
        key = which + "_space"
        if key not in self._data:
            fd = self.freq_data(which)
            g = self.plan.grid
            out = np.empty_like(fd)
            for j in range(self.scale_grid.scale_points):
                out[j] = inverse(self.plan, Field(g, fd[j])).values
            out.flags.writeable = False
            self._data[key] = out
        return self._data[key]

    def lattice_spectrum(self, which: str) -> np.ndarray:
        """(n^d, m, J) lattice DFT of the window samples phi_{a_j} moved to the lattice origin.

        Index [k, r, j]: lattice frequency k, radial node r, scale j.  The
        grid is self-dual, so the Cartesian transform factor is sqrt(n)^-1
        times the lattice DFT in bin order (``cart_bin_index``), and the
        spectrum is read off the frequency data fd with no FFT:

            C[bin(i), r, j] = n^{d/2} (fd_j B^T)[i, r],  B = plan.radial_factor,

        one real GEMM per scale.  The samples sit at the lattice origin
        (node x = 0 at index 0), so no phase enters at odd or even n.  Parts
        below ``SPECTRUM_FLOOR`` of the largest are set to 0.
        """
        key = which + "_spectrum"
        if key not in self._data:
            fd = self.freq_data(which)
            g = self.plan.grid
            Bt = g.cart_points ** (g.d / 2) * self.plan.radial_factor.T
            bins = g.cart_bin_index()
            out = np.empty(g.shape + (self.scale_grid.scale_points,), dtype=np.complex128)
            for j in range(self.scale_grid.scale_points):
                out[bins, :, j] = _matmul_real_right(fd[j], Bt)
            v = out.view(np.float64)
            tiny = SPECTRUM_FLOOR * max(v.max(), -v.min())
            v[(v < tiny) & (v > -tiny)] = 0.0
            out.flags.writeable = False
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

    Contracts the translation tensor against f and correlates the result
    with the window samples phi_a of every scale on the lattice.  The
    Cartesian weights are uniform, so the lattice DFT commutes with the
    contraction, and the route runs in the lattice spectrum: the DFT of
    the weighted (n^d, m) field f, the tensor contracted per frequency in
    one real GEMM, one batched product B^ conj(phi_a^) over the scale axis
    against the pair's cached ``lattice_spectrum`` and one inverse FFT.
    The spectrum is that of the samples at the lattice origin, so the
    correlation comes out on the grid's nodes with no shift.  This is the
    same discrete family realization the localization assembly uses, so
    operator weak forms match this transform exactly.
    """
    g = pair.plan.grid
    if f.grid is not g:
        raise ValueError("field not on the pair's grid")
    nc, m = g.shape
    # conj(B^)[k, x_r, r] = sum_{y_r} conj((w f)^)[k, y_r] K[x_r, y_r, r]; K
    # mirrors its first two indices bit for bit, so its (m, m^2) reshape is
    # K[y_r, (x_r, r)].  Conjugating f's spectrum, not the window's, lets one
    # cached spectrum per window serve both this route and invert_cwt.
    Bc = _matmul_real_right(np.conj(cart_fft(g, g.node_weights * f.values)),
                            pair.kernel.tensor.reshape(m, m * m))
    # spec[k, x_r, j] = sum_r B^[k, x_r, r] conj(phi_j^[k, r])
    spec = np.matmul(Bc.reshape(nc, m, m), pair.lattice_spectrum(which))
    np.conjugate(spec, out=spec)
    corr = cart_fft(g, spec, inverse=True)
    sg = pair.scale_grid
    out = sg.scales[:, None, None] ** pair.gamma * corr.transpose(2, 0, 1)
    return ScaleField(sg, out)


def cwt_convolution_form(pair: WaveletPair, f: Field, which: str = "phi") -> ScaleField:
    """W(f)(a, .) = a^{alpha+1+d/2} (f_reflected * conj(phi_a)): spectral route."""
    g = pair.plan.grid
    if f.grid is not g:
        raise ValueError("field not on the pair's grid")
    # f_reflected * conj(phi_a) = F^{-1}(F(f_reflected) F(conj(phi_a))), the
    # transform of f_reflected shared by every scale
    fr_hat = forward(pair.plan, reflect(f)).values
    sdata = pair.space_data(which)
    out = np.empty(pair.scale_grid.shape, dtype=np.complex128)
    gam = pair.gamma
    for j, a in enumerate(pair.scale_grid.scales):
        wa_hat = forward(pair.plan, Field(g, np.conj(sdata[j]))).values
        out[j] = a**gam * inverse(pair.plan, Field(g, fr_hat * wa_hat)).values
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
    product over the scale axis against the pair's cached
    ``lattice_spectrum``), the translation tensor is contracted there per
    frequency in one real GEMM, and one inverse FFT of the (n^d, m) result
    finishes it; the spectrum is that of the samples at the lattice origin,
    so no shift follows.  Refuses near-degenerate pairs.
    """
    if W.grid is not pair.scale_grid:
        raise ValueError("scale field not on the pair's scale grid")
    floor = 1e-8 * max(np.sqrt(abs(pair.C_phi * pair.C_psi)), 1e-30)
    if abs(pair.C_phi_psi) < max(floor, 1e-12):
        raise ValueError("cross admissibility constant is numerically zero; "
                         "reconstruction refused")
    g = pair.plan.grid
    sg = pair.scale_grid
    nc, m = g.shape
    c = sg.scale_weights * sg.scales ** (pair.gamma - sg.measure_power)
    cW = c[:, None, None] * g.node_weights * W.values
    # S^[k, x_r, r] = sum_j c_j (w W_j)^[k, x_r] psi_j^[k, r]
    S = np.matmul(cart_fft(g, cW.transpose(1, 2, 0)),
                  pair.lattice_spectrum("psi").transpose(0, 2, 1))
    # out^[k, y_r] = sum_{x_r, r} S^[k, x_r, r] K[x_r, y_r, r]; K mirrors its
    # first two indices bit for bit, so its (m, m^2) reshape is K[y_r, (x_r, r)]
    out = _matmul_real_right(S.reshape(nc, m * m), pair.kernel.tensor.reshape(m, m * m).T)
    return Field(g, cart_fft(g, out, inverse=True) / pair.C_phi_psi)
