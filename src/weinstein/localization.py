"""Two-wavelet localization operators: assembly, norms, bounds, examples.

The operator with symbol sigma on scale space is

    L(f)(y) = int_X sigma(a, x) W_phi(f)(a, x) psi_{a,x}(y) dmu(a, x),

realized as a dense matrix of kernel values

    R(y, z) = int_X sigma(a, x) conj(phi_{a,x}(z)) psi_{a,x}(y) dmu(a, x),

evaluated with exactly the same discrete family as the wavelet transform,
so the weak form <L f, g> = int sigma W_phi(f) conj(W_psi(g)) dmu holds as
a finite-sum identity, not an approximation.

Measured operator norms on the weighted sequence spaces: p = 1 and
p = inf are the exact induced norms (weighted column and row sums); p = 2
is the top singular value of the similarity-transformed matrix; other p
get a certified lower bound from random Gaussian-class probes.

Norm bounds implemented (sigma in L^1(X) unless noted):
  p1        ||phi||_inf ||psi||_1 ||sigma||_1            (p = 1)
  pinf      ||phi||_1 ||psi||_inf ||sigma||_1            (p = inf)
  interp    ||phi||_1^{1/q} ||psi||_1^{1/p} ||phi||_inf^{1/p} ||psi||_inf^{1/q} ||sigma||_1
  holder    ||phi||_q ||psi||_p ||sigma||_1
  schur     max(||phi||_1 ||psi||_inf, ||phi||_inf ||psi||_1) ||sigma||_1
  lr(r)     K1^t K2^{1-t} ||sigma||_{L^r(X)},  p in [r, r'], r in [1, 2],
            K1 = (||phi||_inf ||psi||_1)^{2/r-1} (sqrt(C_phi C_psi)||phi||_2 ||psi||_2)^{1/r'},
            K2 with the window roles swapped, t/r + (1-t)/r' = 1/p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Field, ScaleField, ScaleGrid, lp_norm, scale_lp_norm
from .probes import random_field
from .transform import forward, inverse
from .translation import lattice_shift
from .wavelets import WaveletPair, cwt


@dataclass
class SymbolField:
    """Symbol sigma on a ScaleGrid with a declared class.

    For separable classes the factors are stored and the value array is
    their product; ``lr_exponent`` records the L^r class when relevant.
    """

    grid: ScaleGrid
    values: np.ndarray
    declared_class: str = "l1_bump"
    lr_exponent: float | None = None
    chi: np.ndarray | None = None     # (J,) scale factor, separable classes
    zeta: np.ndarray | None = None    # (n^d, m) space factor

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"symbol shape {v.shape} != scale grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("symbol contains non-finite values")
        self.values = v.astype(np.complex128, copy=False)
        if self.chi is not None and self.zeta is not None:
            prod = self.chi[:, None, None] * self.zeta[None]
            if np.max(np.abs(prod - self.values)) > 1e-12 * max(1.0, np.max(np.abs(self.values))):
                raise ValueError("separable factors do not multiply to the stored values")


def symbol_indicator(scale_grid: ScaleGrid) -> SymbolField:
    """sigma = 1 on the truncated scale space (the approximate-identity symbol)."""
    return SymbolField(scale_grid, np.ones(scale_grid.shape), declared_class="indicator")


def symbol_bump(scale_grid: ScaleGrid, log_a_width: float = 0.7,
                space_width: float = 1.2) -> SymbolField:
    """Gaussian bump in (log a, x): a genuinely integrable localized symbol."""
    la = np.log(scale_grid.scales)
    chi = np.exp(-(la**2) / (2 * log_a_width**2))
    pts = scale_grid.base.nodes()
    zeta = np.exp(-np.sum(pts**2, axis=-1) / (2 * space_width**2)).reshape(scale_grid.base.shape)
    vals = chi[:, None, None] * zeta[None]
    return SymbolField(scale_grid, vals, declared_class="l1_bump", chi=chi, zeta=zeta)


def symbol_separable(scale_grid: ScaleGrid, log_a_center: float = 0.3,
                     log_a_width: float = 0.5, space_width: float = 1.0) -> SymbolField:
    """chi(a) zeta(x) with log-normal chi and a spatial Gaussian zeta."""
    la = np.log(scale_grid.scales)
    chi = np.exp(-((la - log_a_center) ** 2) / (2 * log_a_width**2))
    pts = scale_grid.base.nodes()
    zeta = np.exp(-np.sum(pts**2, axis=-1) / (2 * space_width**2)).reshape(scale_grid.base.shape)
    vals = chi[:, None, None] * zeta[None]
    return SymbolField(scale_grid, vals, declared_class="separable", chi=chi, zeta=zeta)


def symbol_scale_only(scale_grid: ScaleGrid, log_a_width: float = 0.6) -> SymbolField:
    """chi(a), constant in x: the multiplier case."""
    la = np.log(scale_grid.scales)
    chi = np.exp(-(la**2) / (2 * log_a_width**2))
    vals = np.broadcast_to(chi[:, None, None], scale_grid.shape).copy()
    zeta = np.ones(scale_grid.base.shape)
    return SymbolField(scale_grid, vals, declared_class="scale_only", chi=chi, zeta=zeta)


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
    mu_alpha in z: (L f)(y) = sum_z R(y, z) w_z f(z).
    """

    pair: WaveletPair
    symbol: SymbolField
    matrix: np.ndarray = field(repr=False, default=None)
    swapped: bool = False

    def __post_init__(self):
        if self.matrix is None:
            self.matrix = _assemble_matrix(self.pair, self.symbol, self.swapped)

    @property
    def grid(self):
        return self.pair.plan.grid


def _assemble_matrix(pair: WaveletPair, symbol: SymbolField, swapped: bool) -> np.ndarray:
    """Accumulate R(y,z) = sum_j w_j sum_x w_x sigma (tau_x psi_a)(y) conj(tau_x phi_a)(z).

    The family normalization a^{2 gamma} cancels the scale-measure factor
    a^{-(2 alpha + d + 2)} exactly.  Per scale and Cartesian offset the
    update is a rank-m matrix product.
    """
    if symbol.grid is not pair.scale_grid:
        raise ValueError("symbol not on the pair's scale grid")
    g = pair.plan.grid
    sg = pair.scale_grid
    K = pair.kernel.tensor
    nc, m = g.shape
    NM = nc * m
    wflat = g.node_weights.reshape(-1)
    analysis, synthesis = ("psi", "phi") if swapped else ("phi", "psi")
    sdata_syn = pair.space_data(synthesis)
    sdata_ana = pair.space_data(analysis)
    gam = pair.gamma
    q = sg.measure_power
    R = np.zeros((NM, NM), dtype=np.complex128)
    for j, a in enumerate(sg.scales):
        cj = sg.scale_weights[j] * a ** (2.0 * gam - q)
        # G[y_c, x_r, y_r] = sum_r K[x_r, y_r, r] * wdata[y_c, r]
        Gs = np.einsum("xyr,cr->cxy", K, sdata_syn[j], optimize=True)
        Ga = np.einsum("xyr,cr->cxy", K, np.conj(sdata_ana[j]), optimize=True)
        sig = symbol.values[j].reshape(nc, m)
        for ic in range(nc):
            # window at y_c - x_c for x_c = node ic
            P = lattice_shift(g, Gs, ic).transpose(1, 0, 2).reshape(m, NM)  # [x_r, (y_c,y_r)]
            Q = lattice_shift(g, Ga, ic).transpose(1, 0, 2).reshape(m, NM)
            wX = cj * wflat.reshape(nc, m)[ic] * sig[ic]           # [x_r]
            R += (P * wX[:, None]).T @ Q
    return R


def assemble(pair: WaveletPair, symbol: SymbolField) -> LocalizationOperator:
    return LocalizationOperator(pair=pair, symbol=symbol)


def apply_operator(L: LocalizationOperator, f: Field) -> Field:
    if f.grid is not L.grid:
        raise ValueError("field not on the operator's grid")
    w = L.grid.node_weights.reshape(-1)
    out = L.matrix @ (w * f.values.reshape(-1))
    return Field(L.grid, out.reshape(L.grid.shape))


def adjoint(L: LocalizationOperator) -> LocalizationOperator:
    """L* = L_{psi,phi}(conj sigma); matrix equals the mu-weighted conjugate transpose."""
    sym_conj = SymbolField(L.symbol.grid, np.conj(L.symbol.values),
                           declared_class=L.symbol.declared_class,
                           lr_exponent=L.symbol.lr_exponent,
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
    return (s[:, None] * L.matrix) * s[None, :]


def probe_matrix(grid, samples: int = 200, seed: int = 1234) -> np.ndarray:
    """(N, samples) stacked random Gaussian-class probe values for norm estimation."""
    rng = np.random.default_rng(seed)
    return np.stack([random_field(grid, rng).values.reshape(-1)
                     for _ in range(samples)], axis=1)


def measured_norm(L: LocalizationOperator, p: float, samples: int = 200,
                  seed: int = 1234, probes: np.ndarray | None = None) -> float:
    """Operator norm on L^p(mu_alpha) of the discretized operator.

    Exact for p in {1, 2, inf}; otherwise a lower bound maximized over
    random Gaussian-class probes (``probes`` columns, or ``samples`` drawn
    from ``seed``).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    w = L.grid.node_weights.reshape(-1)
    A = np.abs(L.matrix)
    if p == 1:
        return float(np.max(w @ A))
    if p == np.inf:
        return float(np.max(A @ w))
    if p == 2:
        return float(np.linalg.svd(_sym_matrix(L), compute_uv=False)[0])
    if probes is None:
        probes = probe_matrix(L.grid, samples, seed)
    out = L.matrix @ (w[:, None] * probes)
    n_out = np.sum(w[:, None] * np.abs(out) ** p, axis=0) ** (1.0 / p)
    n_in = np.sum(w[:, None] * np.abs(probes) ** p, axis=0) ** (1.0 / p)
    ok = n_in > 1e-12
    return float(np.max(n_out[ok] / n_in[ok]))


def singular_value_profile(L: LocalizationOperator) -> np.ndarray:
    """Decreasing singular values of the measure-symmetrized matrix."""
    return np.linalg.svd(_sym_matrix(L), compute_uv=False)


def _window_norms(pair: WaveletPair) -> dict:
    out = {}
    for name, win in (("phi", pair.phi), ("psi", pair.psi)):
        out[name] = {p: lp_norm(win.field, p) for p in (1, 2, np.inf)}
    return out


def theoretical_bound(pair: WaveletPair, symbol: SymbolField, p: float,
                      r_values: tuple = (1.0, 1.5, 2.0)) -> tuple[float, str, dict]:
    """Tightest applicable norm bound with its tag plus every applicable bound.

    Raises if no bound applies to the (class, p) combination.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    bounds = all_bounds(pair, symbol, p, r_values)
    if not bounds:
        raise ValueError(f"no norm bound applies for p={p}")
    tag = min(bounds, key=bounds.get)
    return bounds[tag], tag, bounds


def all_bounds(pair: WaveletPair, symbol: SymbolField, p: float,
               r_values: tuple = (1.0, 1.5, 2.0)) -> dict:
    nw = _window_norms(pair)
    phi1, phi2, phiI = nw["phi"][1], nw["phi"][2], nw["phi"][np.inf]
    psi1, psi2, psiI = nw["psi"][1], nw["psi"][2], nw["psi"][np.inf]
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
    nphi_q = lp_norm(pair.phi.field, q)
    npsi_p = lp_norm(pair.psi.field, p)
    out["holder"] = nphi_q * npsi_p * sig1
    out["schur"] = max(phi1 * psiI, phiI * psi1) * sig1
    cc = np.sqrt(abs(pair.C_phi * pair.C_psi)) * phi2 * psi2
    for r in r_values:
        if not 1.0 <= r <= 2.0:
            continue
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
    from .wavelets import eval_freq_data
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
