"""Two-wavelet localization operators: assembly, norms, bounds, examples.

The operator with symbol sigma on scale space is

    L(f)(y) = int_X sigma(a, x) W_phi(f)(a, x) psi_{a,x}(y) dmu(a, x),

realized as a dense matrix of kernel values

    R(y, z) = int_X sigma(a, x) conj(phi_{a,x}(z)) psi_{a,x}(y) dmu(a, x),

evaluated with exactly the same discrete family as the wavelet transform,
so the weak form <L f, g> = int sigma W_phi(f) conj(W_psi(g)) dmu holds as
a finite-sum identity, not an approximation.  Every term of R is a cyclic
shift on the Cartesian lattice, so R is assembled in the lattice spectrum,
where the sum over the Cartesian node x_c becomes one product per pair of
frequencies (see ``_assemble_matrix``).  The windows enter through the
pair's cached ``WaveletPair.lattice_spectrum``, the array ``cwt`` and
``invert_cwt`` read, derived from the frequency data.

Every pair has one more exact structure, its lattice band
(``_lattice_band``).  ``band_taper`` is exactly 0 beyond 0.8 of the
Cartesian extent, so a window's frequency data vanish on the outer
Cartesian frequency rows, and on the self-dual grid the Cartesian
transform factor is the lattice DFT: the lattice spectrum read off those
rows is exactly 0 outside the bins of the live rows, for every family
member.  The assembly skips the spectrum rows and columns outside the two
windows' bands, and the dense SVD takes only the band block of the
unitary lattice DFT of M, whose other entries vanish.

Three exact structures of the inputs pick cheaper routes.  One function,
``_structures``, decides them once per operator from the inputs, bit for
bit, never from a tolerance test on the matrix; the assembly and the SVD
read that one result:

* "real": a symbol with zero imaginary part and two windows whose
  frequency data are conjugate-symmetric under the lattice reflection
  x_c -> -x_c give a real kernel R.  It is assembled from half of the
  lattice spectrum and stored as a float64 matrix, decomposed by a real
  SVD and applied to complex data through one real GEMM;
* "reflection-even": a symbol and two windows' frequency data that equal
  themselves under x_c -> -x_c (the paper's radial windows and Gaussian
  symbols) give an operator that commutes with the reflection.  Its
  measure-symmetrized matrix splits into an even and an odd block,
  decomposed by two SVDs of about half the size.  If it is also real, its
  spectral factors are real once the symbol is centred on the lattice
  origin, so each row of the assembly is a real product;
* "x-independent": a symbol constant along x_c (a function of the scale
  and the radial node only, as ``indicator`` and ``scale_only``) gives a
  block-circulant R over the Cartesian lattice, the discrete form of the
  paper's multiplier example.  Its singular values are those of the n^d
  diagonal m x m blocks of its unitary lattice DFT.

An operator with none of them (a complex symbol or window that is not
even) takes the complex assembly and one dense SVD of its band block; a
real operator that is not even keeps one real SVD of M.

Measured operator norms on the weighted sequence spaces: p = 1 and
p = inf are the exact induced norms (weighted column and row sums); p = 2
is the top singular value of the similarity-transformed matrix, whose
singular values are computed once per operator; other p get a certified
lower bound from random Gaussian-class probes.

Norm bounds implemented (sigma in L^1(X) unless noted):
  p1        ||phi||_inf ||psi||_1 ||sigma||_1            (p = 1)
  pinf      ||phi||_1 ||psi||_inf ||sigma||_1            (p = inf)
  interp    ||phi||_1^{1/q} ||psi||_1^{1/p} ||phi||_inf^{1/p} ||psi||_inf^{1/q} ||sigma||_1
  holder    ||phi||_q ||psi||_p ||sigma||_1
  schur     max(||phi||_1 ||psi||_inf, ||phi||_inf ||psi||_1) ||sigma||_1
  lr(r)     K1^t K2^{1-t} ||sigma||_{L^r(X)},  p in [r, r'], r in {1, 1.5, 2},
            K1 = (||phi||_inf ||psi||_1)^{2/r-1} (sqrt(C_phi C_psi)||phi||_2 ||psi||_2)^{1/r'},
            K2 with the window roles swapped, t/r + (1-t)/r' = 1/p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import fft as sp_fft

from .grids import Field, ScaleField, ScaleGrid, _matmul, lp_norm, scale_lp_norm
from .probes import random_fields
from .transform import forward, inverse
from .translation import cart_fft, lattice_shift
from .wavelets import WaveletPair, cwt, eval_freq_data


@dataclass
class SymbolField:
    """Symbol sigma on a ScaleGrid with a declared class.

    For separable classes the factors are stored and the value array is
    their product.  The values are a read-only complex128 copy, so an
    assembled operator keeps the data its route was decided from.
    """

    grid: ScaleGrid
    values: np.ndarray
    declared_class: str = "l1_bump"
    chi: np.ndarray | None = None     # (J,) scale factor, separable classes
    zeta: np.ndarray | None = None    # (n^d, m) space factor

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"symbol shape {v.shape} != scale grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("symbol contains non-finite values")
        self.values = np.array(v, dtype=np.complex128)
        self.values.flags.writeable = False
        if self.chi is not None and self.zeta is not None:
            prod = self.chi[:, None, None] * self.zeta[None]
            if np.max(np.abs(prod - self.values)) > 1e-12 * max(1.0, np.max(np.abs(self.values))):
                raise ValueError("separable factors do not multiply to the stored values")


def symbol_indicator(scale_grid: ScaleGrid) -> SymbolField:
    """sigma = 1 on the truncated scale space (the approximate-identity symbol)."""
    return SymbolField(scale_grid, np.ones(scale_grid.shape), declared_class="indicator")


def _gaussian_symbol(scale_grid: ScaleGrid, declared_class: str, log_a_center: float,
                     log_a_width: float, space_width: float) -> SymbolField:
    """chi(a) zeta(x): log-normal chi, spatial Gaussian zeta (constant 1 at width inf)."""
    la = np.log(scale_grid.scales)
    chi = np.exp(-((la - log_a_center) ** 2) / (2 * log_a_width**2))
    pts = scale_grid.base.nodes()
    zeta = np.exp(-np.sum(pts**2, axis=-1) / (2 * space_width**2)).reshape(scale_grid.base.shape)
    vals = chi[:, None, None] * zeta[None]
    return SymbolField(scale_grid, vals, declared_class=declared_class, chi=chi, zeta=zeta)


def symbol_bump(scale_grid: ScaleGrid) -> SymbolField:
    """Gaussian bump in (log a, x): a genuinely integrable localized symbol."""
    return _gaussian_symbol(scale_grid, "l1_bump", 0.0, 0.7, 1.2)


def symbol_separable(scale_grid: ScaleGrid, log_a_center: float = 0.3,
                     log_a_width: float = 0.5, space_width: float = 1.0) -> SymbolField:
    """chi(a) zeta(x) with log-normal chi and a spatial Gaussian zeta."""
    return _gaussian_symbol(scale_grid, "separable", log_a_center, log_a_width, space_width)


def symbol_scale_only(scale_grid: ScaleGrid) -> SymbolField:
    """chi(a), constant in x: the multiplier case."""
    return _gaussian_symbol(scale_grid, "scale_only", 0.0, 0.6, np.inf)


def symbol_single_cell(scale_grid: ScaleGrid, j: int, flat_cart: int, rad: int) -> SymbolField:
    """Indicator of one (a, x) cell: the rank-one test case."""
    vals = np.zeros(scale_grid.shape)
    vals[j, flat_cart, rad] = 1.0
    return SymbolField(scale_grid, vals, declared_class="l1_bump")


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@dataclass
class LocalizationOperator:
    """Dense kernel-matrix realization of the localization operator.

    ``matrix[y, z]`` holds R(y, z); application integrates against
    mu_alpha in z: (L f)(y) = sum_z R(y, z) w_z f(z).  The matrix is the
    assembly of (pair, symbol): float64 for a real operator, complex
    otherwise, and read-only, so its singular values are computed once.
    ``structures`` names the exact input structures (``_structures``) that
    picked its routes, and ``band`` the lattice bins its assembly and dense
    SVD read (``_lattice_band``).
    """

    pair: WaveletPair
    symbol: SymbolField
    matrix: np.ndarray = field(init=False, repr=False)
    swapped: bool = False
    structures: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.symbol.grid is not self.pair.scale_grid:
            raise ValueError("symbol not on the pair's scale grid")
        self.structures = _structures(self.pair, self.symbol)
        self.matrix = _assemble_matrix(self.pair, self.symbol, self.swapped, self.structures)
        self.matrix.flags.writeable = False

    @property
    def grid(self):
        return self.pair.plan.grid

    @property
    def band(self) -> tuple[np.ndarray, np.ndarray]:
        """(synthesis, analysis) lattice bins of the family members (``_lattice_band``)."""
        return tuple(_lattice_band(self.pair, w) for w in _roles(self.swapped))

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Decreasing singular values of the measure-symmetrized matrix M (read-only).

        The route is read from ``structures``.  For an x-independent symbol
        R(y, z) depends on y_c - z_c only; the Cartesian weights are
        uniform, so M is block circulant as well, and the unitary DFT U over
        the Cartesian index makes U M U^H block diagonal: the profile is the
        sorted union of the singular values of its n^d diagonal m x m blocks
        (``_lattice_blocks``).  Else a reflection-even M commutes with the
        reflection P, and the profile is the sorted union of the singular
        values of its even and odd blocks (``_reflection_blocks``).  Else a
        real M takes one real SVD, and a complex M one SVD of the band block
        of U M U^H (``_band_block``), whose other entries vanish; the
        profile is padded with that many exact zeros.
        """
        if "x-independent" in self.structures:
            blocks = [_lattice_blocks(self)]
        elif "reflection-even" in self.structures:
            blocks = _reflection_blocks(self)
        elif "real" in self.structures:
            blocks = [_sym_matrix(self)]
        else:
            blocks = [_band_block(self)]
        sv = np.concatenate([np.linalg.svd(B, compute_uv=False).ravel() for B in blocks])
        sv = -np.sort(-np.concatenate([sv, np.zeros(len(self.matrix) - len(sv))]))
        sv.flags.writeable = False
        return sv


def _structures(pair: WaveletPair, symbol: SymbolField) -> tuple[str, ...]:
    """The exact input structures of L_{sigma, phi, psi}, in route order.

    With P the lattice reflection x_c -> -x_c, each test is exact, on the
    stored data:

    * "real": the symbol has zero imaginary part and both windows are real
      in space, i.e. their frequency data fd satisfy fd o P = conj(fd);
    * "reflection-even": the symbol values v and both fd satisfy
      v o P = v and fd o P = fd.  The transform and the translation commute
      with P, so then every term of R does;
    * "x-independent": the symbol values are constant along x_c.
    """
    r = pair.plan.grid.cart_reflect_index()
    v = symbol.values
    windows = [(fd, fd[:, r]) for fd in (pair.freq_data("phi"), pair.freq_data("psi"))]
    real = not np.any(v.imag) and all(np.array_equal(fr, fd.conj()) for fd, fr in windows)
    even = np.array_equal(v[:, r], v) and all(np.array_equal(fr, fd) for fd, fr in windows)
    taken = (real, even, bool(np.all(v == v[:, :1])))
    return tuple(name for name, on in zip(("real", "reflection-even", "x-independent"), taken)
                 if on)


def _roles(swapped: bool) -> tuple[str, str]:
    """(synthesis, analysis) windows of an operator: psi synthesizes unless swapped."""
    return ("phi", "psi") if swapped else ("psi", "phi")


def _lattice_band(pair: WaveletPair, which: str) -> np.ndarray:
    """Sorted flat lattice bins that hold the spectrum of every member of ``which`` (read-only).

    On the self-dual grid the Cartesian transform factor is the lattice DFT,
    so the samples of a family member a^gamma tau_x phi_a have lattice
    spectrum only in the bins (j - n//2) mod n (``cart_bin_index``) of the
    Cartesian frequency rows j where the window's frequency data are nonzero
    at some scale and radial node.  A bin is kept when it or its mirror -bin
    is live: the analysis window enters conjugated, which mirrors its bins,
    and the closure makes the band one set for both roles.  Cached on the
    pair, like its frequency data.
    """
    key = which + "_band"
    if key not in pair._data:
        g = pair.plan.grid
        live = np.any(pair.freq_data(which) != 0, axis=(0, 2))
        keep = np.zeros(g.n_cart, dtype=bool)
        keep[g.cart_bin_index()] = live | live[g.cart_reflect_index()]
        band = np.flatnonzero(keep)
        band.flags.writeable = False
        pair._data[key] = band
    return pair._data[key]


def _lattice_blocks(L: LocalizationOperator) -> np.ndarray:
    """(n^d, m, m) diagonal blocks of U M U^H, U the unitary DFT over the Cartesian index.

    Block k = n^{-d} sum_{y_c, z_c} e^{-2 pi i <k, y_c - z_c>/n} M[y_c, z_c]
    is the DFT over the lattice offset c = y_c - z_c of the mean of the
    m x m blocks M[z_c + c, z_c].  The blocks are gathered from R and scaled
    by sqrt(w) in place, (s_y R) s_z as in ``_sym_matrix``.
    """
    g = L.grid
    nc, m = g.shape
    s = np.sqrt(g.node_weights)
    c_plus_z = g.cart_sum_index()
    # [c, z_c, y_r, z_r]: flat index of z_c + c down the offsets c, nodes z_c across
    T = L.matrix.reshape(nc, m, nc, m)[c_plus_z, :, np.arange(nc), :]
    T *= s[c_plus_z][..., None]
    T *= s[None, :, None, :]
    return cart_fft(g, T.mean(axis=1))


def _reflection_blocks(L: LocalizationOperator) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of M = S R S, S = diag(sqrt(w)), for a reflection-even L.

    P sends the node (y_c, y_r) to (-y_c, y_r).  Its orthonormal even
    basis is (e_i + e_Pi)/sqrt 2 for one node i of each pair {i, Pi} and
    e_i for the fixed points; the odd basis is (e_i - e_Pi)/sqrt 2.  M
    commutes with P and w is P-invariant, so with t_i = sqrt(w_i) on pairs
    and sqrt(w_i / 2) on fixed points the blocks are

        even[i, j] = t_i (R[i, j] + R[i, Pj]) t_j,  i, j pairs then fixed points,
        odd[i, j]  = t_i (R[i, j] - R[i, Pj]) t_j,  i, j pairs,

    gathered from R directly; the blocks between them vanish.
    """
    g = L.grid
    nc, m = g.shape
    r = g.cart_reflect_index()
    c = np.arange(nc)
    pairs = c[c < r]
    reps = np.concatenate([pairs, c[c == r]])
    n_even, n_odd = len(reps) * m, len(pairs) * m
    t = np.sqrt(g.node_weights[reps]).reshape(-1)
    t[n_odd:] *= np.sqrt(0.5)
    # whole m x m blocks of R, rows and columns by Cartesian node
    rows = L.matrix.reshape(nc, m, nc, m)[reps]
    even = (rows[:, :, reps] + rows[:, :, r[reps]]).reshape(n_even, n_even)
    odd = (rows[:len(pairs), :, pairs] - rows[:len(pairs), :, r[pairs]]).reshape(n_odd, n_odd)
    even *= t[:, None] * t
    odd *= t[:n_odd, None] * t[:n_odd]
    return even, odd


def _band_block(L: LocalizationOperator) -> np.ndarray:
    """Band block of U M U^H, U the unitary DFT over the Cartesian index.

    R is the inverse lattice DFT of R^[k, y_r, l, z_r] (``_assemble_matrix``)
    in both Cartesian indices, and the Cartesian weights are uniform, so row
    k of U M U^H is a multiple of R^[k] and column l of R^[:, -l]: both
    vanish outside the bands of ``L.band``, which are closed under l -> -l.
    The DFTs run in place on the measure-symmetrized copy of R.
    """
    g = L.grid
    n, d = g.cart_points, g.d
    m = g.radial_points
    M = _sym_matrix(L).reshape((n,) * d + (m,) + (n,) * d + (m,))
    M = sp_fft.fftn(M, axes=tuple(range(d)), norm="ortho", overwrite_x=True)
    M = sp_fft.ifftn(M, axes=tuple(range(d + 1, 2 * d + 1)), norm="ortho", overwrite_x=True)
    rows, cols = ((b[:, None] * m + np.arange(m)).ravel() for b in L.band)
    return M.reshape(g.n_nodes, g.n_nodes)[np.ix_(rows, cols)]


def _assemble_matrix(pair: WaveletPair, symbol: SymbolField, swapped: bool,
                     structures: tuple[str, ...]) -> np.ndarray:
    """R(y,z) = sum_j w_j sum_x w_x sigma (tau_x psi_a)(y) conj(tau_x phi_a)(z).

    The family normalization a^{2 gamma} cancels the scale-measure factor
    a^{-(2 alpha + d + 2)} exactly, so scale j carries D_j = c_j w sigma_j
    with c_j = w_j a_j^{2 gamma - q}.  Let G_j[y_c, x_r, y_r] =
    sum_r K[x_r, y_r, r] phi_{a_j}[y_c, r] be the radially contracted window
    moved to the lattice origin: Gs from the synthesis window, Ga from the
    conjugated analysis window.  Their DFTs contract the pair's cached
    ``lattice_spectrum`` C, Gs^ from C_syn[k] and Ga^ from conj C_ana[-l]
    (``cart_negate_index``), so no window samples are transformed here.
    Every term is then a cyclic shift in x_c, so the DFT over (y_c, z_c)
    diagonalizes the sum over x_c:

        R^[k, y_r, l, z_r] = sum_{j, x_r} Gs^_j[k, x_r, y_r] D^_j[k + l, x_r] Ga^_j[l, x_r, z_r],

    with k + l taken mod n per Cartesian axis.  Each row k is one GEMM over
    (j, x_r) followed by an inverse DFT over l; a last inverse DFT over k
    gives R.  The cost is J n^{2d} m^3, not J (n^d m)^3.

    Gs^_j[k] vanishes for k outside the synthesis window's lattice band and
    Ga^_j[l] for l outside the analysis window's (``_lattice_band``), so
    only the band rows k are computed, each on the band columns l only (Ga^
    and the D^[k + l] gather hold just those); every other entry of R^ is
    exactly 0.

    If the operator is "real" (``_structures``: a real symbol, and both
    windows' frequency data conjugate-symmetric under the lattice
    reflection), R is real and R^[-k, -l] = conj R^[k, l].  Only the band
    rows k whose last Cartesian component is at most n//2 are then computed,
    and the last inverse DFT over k is a real one (``irfftn``) that returns
    a float64 matrix.  Otherwise every band row is computed and R is complex.

    If the real operator is also "reflection-even", the window data and
    D are even about the lattice origin once D is centred there as the
    windows are, so Gs^, D^ and Ga^ are real (the windows' spectra have
    zero imaginary part) and each row is a real product.  Centring D on
    the origin moves R by n//2 nodes along both Cartesian index sets; the
    last step rolls it back.  (Uncentred, D^
    is real only up to the phase e^{-2 pi i p (n//2)/n}, which is not
    +-1 at odd n.)
    """
    g = pair.plan.grid
    sg = pair.scale_grid
    K = pair.kernel.tensor
    n, d = g.cart_points, g.d
    nc, m = g.shape
    Jm = sg.scale_points * m
    synthesis, analysis = _roles(swapped)
    syn_band, ana_band = _lattice_band(pair, synthesis), _lattice_band(pair, analysis)
    real = "real" in structures
    centred = real and "reflection-even" in structures

    # [k, r, j] spectra of the windows at the lattice origin, real for a
    # real reflection-even operator
    syn_hat = pair.lattice_spectrum(synthesis)
    ana_hat = pair.lattice_spectrum(analysis)[g.cart_negate_index()[ana_band]]
    if centred:
        syn_hat, ana_hat = syn_hat.real.copy(), ana_hat.real
    else:
        ana_hat = np.conj(ana_hat)
    # Ga^[(j, x_r), l, z_r] for every scale and band column l, contiguous so
    # that each row's product with D^ reads it in order; Gs^ is contracted
    # per row k below
    Ga = np.ascontiguousarray(np.einsum("xzr,lrj->jxlz", K, ana_hat,
                                        optimize=True)).reshape(Jm, len(ana_band), m)
    c = sg.scale_weights * sg.scales ** (2.0 * pair.gamma - sg.measure_power)
    D = (c[:, None, None] * g.node_weights * symbol.values).transpose(1, 0, 2)
    # D^[(j, x_r), p], C-ordered so that a row's product with Ga reshapes as a
    # view; centred on the lattice origin as the windows are for the real route
    D = cart_fft(g, lattice_shift(g, D, 0)).real if centred else cart_fft(g, D)
    D = np.ascontiguousarray(D.reshape(nc, Jm).T)
    k_plus_l = g.cart_sum_index()[:, ana_band]
    # rows k in C order (the last Cartesian component is k mod n): the half
    # spectrum k_d <= n//2 of a real R, else all; of those, the band rows
    rows = np.flatnonzero(np.arange(nc) % n <= n // 2) if real else np.arange(nc)
    R = np.zeros((len(rows), m, nc, m), dtype=np.complex128)     # [k, y_r, z_c, z_r]
    DGa = np.empty_like(Ga)     # one buffer for every row's D^[k + l] Ga^ product
    for i in np.flatnonzero(np.isin(rows, syn_band)):
        k = rows[i]
        # Gs^[y_r, (j, x_r)] = sum_r K[x_r, y_r, r] syn^[k, r, j]
        Gs = (K @ syn_hat[k]).transpose(1, 2, 0).reshape(m, Jm)
        row = Gs @ np.multiply(D[:, k_plus_l[k], None], Ga, out=DGa).reshape(Jm, -1)
        R[i][:, ana_band] = row.reshape(m, len(ana_band), m)
        R[i] = sp_fft.ifftn(R[i].reshape((m,) + (n,) * d + (m,)), axes=tuple(range(1, d + 1)),
                            overwrite_x=True).reshape(m, nc, m)
    axes = tuple(range(d))
    if real:
        R = sp_fft.irfftn(R.reshape((n,) * (d - 1) + (n // 2 + 1, m, nc, m)),
                          s=(n,) * d, axes=axes, overwrite_x=True)
        if centred:
            R = np.roll(R.reshape((n,) * d + (m,) + (n,) * d + (m,)), (n // 2,) * (2 * d),
                        axis=axes + tuple(range(d + 1, 2 * d + 1)))
    else:
        R = sp_fft.ifftn(R.reshape((n,) * d + (m, nc, m)), axes=axes, overwrite_x=True)
    return R.reshape(nc * m, nc * m)


def assemble(pair: WaveletPair, symbol: SymbolField) -> LocalizationOperator:
    return LocalizationOperator(pair=pair, symbol=symbol)


def apply_operator(L: LocalizationOperator, f: Field) -> Field:
    if f.grid is not L.grid:
        raise ValueError("field not on the operator's grid")
    w = L.grid.node_weights.reshape(-1)
    out = _matmul(L.matrix, w * f.values.reshape(-1))
    return Field(L.grid, out.reshape(L.grid.shape))


def adjoint(L: LocalizationOperator) -> LocalizationOperator:
    """L* = L_{psi,phi}(conj sigma); matrix equals the mu-weighted conjugate transpose."""
    sym_conj = SymbolField(L.symbol.grid, np.conj(L.symbol.values),
                           declared_class=L.symbol.declared_class,
                           chi=None if L.symbol.chi is None else np.conj(L.symbol.chi),
                           zeta=L.symbol.zeta)
    return LocalizationOperator(pair=L.pair, symbol=sym_conj, swapped=not L.swapped)


def weak_form(L_or_pair, symbol: SymbolField, f: Field, g: Field) -> complex:
    """<L f, g> via the scale-space integral of sigma W_phi(f) conj(W_psi(g))."""
    pair = L_or_pair.pair if isinstance(L_or_pair, LocalizationOperator) else L_or_pair
    Wf = cwt(pair, f, "phi")
    Wg = cwt(pair, g, "psi")
    weighted = ScaleField(pair.scale_grid, symbol.values * Wf.values)
    return complex(np.sum(pair.scale_grid.combined_weights
                          * weighted.values * np.conj(Wg.values)))


# ---------------------------------------------------------------------------
# norms and bounds
# ---------------------------------------------------------------------------

def _sym_matrix(L: LocalizationOperator) -> np.ndarray:
    w = L.grid.node_weights.reshape(-1)
    s = np.sqrt(w)
    M = s[:, None] * L.matrix
    M *= s
    return M


def probe_matrix(grid, samples: int = 200, seed: int = 1234) -> np.ndarray:
    """(N, samples) stacked random Gaussian-class probe values for norm estimation."""
    return random_fields(grid, np.random.default_rng(seed), samples)


def measured_norm(L: LocalizationOperator, p: float,
                  probes: np.ndarray | None = None) -> float:
    """Operator norm on L^p(mu_alpha) of the discretized operator.

    Exact for p in {1, 2, inf}; otherwise a lower bound maximized over the
    random Gaussian-class probes in the columns of ``probes``
    (``probe_matrix``), which such a p requires.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    w = L.grid.node_weights.reshape(-1)
    if p == 1:
        return float(np.max(w @ np.abs(L.matrix)))
    if p == np.inf:
        return float(np.max(np.abs(L.matrix) @ w))
    if p == 2:
        return float(L.singular_values[0])
    if probes is None:
        raise ValueError(f"the {p}-norm is estimated from probes; pass probe_matrix columns")
    return _probe_norms(L, (p,), probes)[p]


def _probe_norms(L: LocalizationOperator, ps, probes: np.ndarray) -> dict:
    """{p: probe lower bound of the L^p operator norm} for each p in ``ps``.

    ``measured_norm`` at each p, from one image L (w probes) and one |probes|
    shared by every p.
    """
    w = L.grid.node_weights.reshape(-1)[:, None]
    out = np.abs(_matmul(L.matrix, w * probes))
    inp = np.abs(probes)
    norms = {}
    for p in ps:
        n_out = np.sum(w * out ** p, axis=0) ** (1.0 / p)
        n_in = np.sum(w * inp ** p, axis=0) ** (1.0 / p)
        ok = n_in > 1e-12
        norms[p] = float(np.max(n_out[ok] / n_in[ok]))
    return norms


def singular_value_profile(L: LocalizationOperator) -> np.ndarray:
    """Decreasing singular values of the measure-symmetrized matrix (read-only)."""
    return L.singular_values


#: the L^r classes of the symbol for which the lr(r) bound is evaluated
_LR_EXPONENTS = (1.0, 1.5, 2.0)


def _window_norm(pair: WaveletPair, which: str, p: float) -> float:
    """L^p norm of the window ``which``, cached on the pair like its frequency data."""
    norms = pair._data.setdefault("window_norms", {})
    if (which, p) not in norms:
        norms[which, p] = lp_norm((pair.phi if which == "phi" else pair.psi).field, p)
    return norms[which, p]


def theoretical_bound(pair: WaveletPair, symbol: SymbolField,
                      p: float) -> tuple[float, str, dict]:
    """Tightest applicable norm bound with its tag plus every applicable bound.

    ``interp``, ``holder`` and ``schur`` apply at every p >= 1.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    bounds = all_bounds(pair, symbol, p)
    tag = min(bounds, key=bounds.get)
    return bounds[tag], tag, bounds


def all_bounds(pair: WaveletPair, symbol: SymbolField, p: float) -> dict:
    phi1, phi2, phiI = (_window_norm(pair, "phi", r) for r in (1, 2, np.inf))
    psi1, psi2, psiI = (_window_norm(pair, "psi", r) for r in (1, 2, np.inf))
    sig1 = scale_lp_norm(ScaleField(symbol.grid, symbol.values), 1)
    q = np.inf if p == 1 else (1.0 if p == np.inf else p / (p - 1.0))
    out = {}
    if p == 1:
        out["p1"] = phiI * psi1 * sig1
    if p == np.inf:
        out["pinf"] = phi1 * psiI * sig1
    # interpolation bound, all p: exponents 1/p and 1/q with 1/inf = 0
    ip = 0.0 if p == np.inf else 1.0 / p
    iq = 0.0 if q == np.inf else 1.0 / q
    out["interp"] = phi1**iq * psi1**ip * phiI**ip * psiI**iq * sig1
    # Hoelder-duality bound, all p
    out["holder"] = _window_norm(pair, "phi", q) * _window_norm(pair, "psi", p) * sig1
    out["schur"] = max(phi1 * psiI, phiI * psi1) * sig1
    cc = np.sqrt(abs(pair.C_phi * pair.C_psi)) * phi2 * psi2
    for r in _LR_EXPONENTS:
        rp = np.inf if r == 1.0 else r / (r - 1.0)
        in_range = (r <= p <= rp) if rp != np.inf else (p >= r)
        if not in_range:
            continue
        sig_r = scale_lp_norm(ScaleField(symbol.grid, symbol.values), r)
        e1 = 2.0 / r - 1.0
        e2 = 0.0 if rp == np.inf else 1.0 / rp
        K1 = (phiI * psi1) ** e1 * cc**e2
        K2 = (phi1 * psiI) ** e1 * cc**e2
        if rp == np.inf:
            t = 0.0 if p == np.inf else r / p
        elif rp == r:
            t = 0.5
        else:
            pr = 0.0 if p == np.inf else 1.0 / p
            t = (pr - 1.0 / rp) / (1.0 / r - 1.0 / rp)
        out[f"lr_r{r:g}"] = K1**t * K2 ** (1.0 - t) * sig_r
    return out


# ---------------------------------------------------------------------------
# examples: paracommutator, paraproduct, multiplier
# ---------------------------------------------------------------------------

def paracommutator_kernel(pair: WaveletPair, symbol: SymbolField,
                          xi, eta) -> np.ndarray | complex:
    """K(xi, eta) = int_0^inf chi(a) conj(F(phi)(a xi)) F(psi)(a eta) da/a.

    Requires a separable symbol chi(a) zeta(x); only the scale factor
    enters the kernel.  ``xi`` and ``eta`` are single points (d+1,) or
    point lists (N, d+1); the result has shape (len(xi), len(eta)) for
    lists, scalar for single points.
    """
    if symbol.chi is None:
        raise ValueError("paracommutator kernel needs a separable symbol")
    sg = pair.scale_grid
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    scalar = xi.ndim == 1 and eta.ndim == 1
    xi2 = xi.reshape(-1, xi.shape[-1])
    eta2 = eta.reshape(-1, eta.shape[-1])
    a = sg.scales
    Pphi = eval_freq_data(pair.phi, pair.plan, a[:, None, None] * xi2[None])
    Ppsi = eval_freq_data(pair.psi, pair.plan, a[:, None, None] * eta2[None])
    w = sg.scale_weights * np.asarray(symbol.chi, dtype=np.complex128)
    vals = np.einsum("j,jx,je->xe", w, np.conj(Pphi), Ppsi)
    return complex(vals[0, 0]) if scalar else vals


def paraproduct(pair: WaveletPair, f: Field, g: Field) -> Field:
    """p(f, g)(x) = int_0^inf (Theta_a * f)(x) conj((Upsilon_a * g)(x)) da/a,

    with Theta = conj(phi(-.)), Upsilon = conj(psi(-.)).  Evaluated
    spectrally: F(Theta_a * f) = conj(F(phi)(a .)) F(f).
    """
    gr = pair.plan.grid
    if f.grid is not gr or g.grid is not gr:
        raise ValueError("fields not on the pair's grid")
    Ff = forward(pair.plan, f)
    Fg = forward(pair.plan, g)
    Pphi = pair.freq_data("phi")
    Ppsi = pair.freq_data("psi")
    sg = pair.scale_grid
    acc = np.zeros(gr.shape, dtype=np.complex128)
    for j in range(sg.scale_points):
        u = inverse(pair.plan, Field(gr, np.conj(Pphi[j]) * Ff.values))
        v = inverse(pair.plan, Field(gr, np.conj(Ppsi[j]) * Fg.values))
        acc += sg.scale_weights[j] * u.values * np.conj(v.values)
    return Field(gr, acc)


def multiplier_symbol(pair: WaveletPair, chi: np.ndarray) -> Field:
    """m(xi) = int chi(a) conj(F(phi)(a xi)) F(psi)(a xi) da/a on the frequency grid.

    Uses the pair's tapered per-scale data, so the multiplier matches the
    assembled scale-only localization operator on the represented band.
    """
    Pphi = pair.freq_data("phi")
    Ppsi = pair.freq_data("psi")
    chi = np.asarray(chi, dtype=np.complex128)
    vals = np.einsum("j,jcr->cr", pair.scale_grid.scale_weights * chi,
                     np.conj(Pphi) * Ppsi)
    return Field(pair.plan.grid, vals)


def apply_multiplier(pair: WaveletPair, m: Field, f: Field) -> Field:
    """T_m f = F^{-1}(m F(f))."""
    Ff = forward(pair.plan, f)
    return inverse(pair.plan, Field(pair.plan.grid, m.values * Ff.values))
