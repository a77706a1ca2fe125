"""Quantitative experiments behind the multilinear eigenfunction estimates.

Contents:

* the k = 1 integration-by-parts identity relating int e1 e2 e3 e4 to gradient-pair
  integrals, on single-mode tuples.  It has one route, identity_residual_tuples:
  products of 1-D folded sums, each a fixed-order row sum, with no d-dim grid and no
  BLAS GEMM.  The exhaustive 1-D scan, the sampled d >= 2 tuples and the one-tuple
  functions of a QuadTuple (quad_L0, quad_L1_plus_weight, verify_identity_k1) all
  read its rows;
* an almost-orthogonality sweep (decay of the quadrilinear form in the separated
  eigenvalue): one dual projection of the trio, then a coefficient sum per trial field;
* bilinear space-time measurements ||u_N v_M|| / (M^{(d-1)/2} N^{-1/2}) over random
  wave-packet data localized in dyadic windows, with optional ladder words on the
  factors;
* modified-energy increment scans and long-time Sobolev growth runs.

Parity is handled exactly: a tuple whose degree sum is odd on any one axis
integrates to 0.0 bitwise, since the identity's tuple sums set such an axis to 0.0
outright.  The sweep likewise reads 0.0 on a shell whose total degree with the trio is
odd.

The bilinear measurements tensorize per axis, and each cell integrates on its own
Gauss rule, sized to the highest degrees of its windows.  The flow is pi-periodic up
to a phase, so in time each cell integrates exactly, for any T, on equispaced nodes
in [0, pi): at least B + 1 at a multiple of pi and 2B + 1 else, B its windows'
bandwidth, P rounded up to a length with no prime factor above 11.  The kernel bounds
v's support from the coefficients alone and tables values only there; on those nodes
both factors' time series are FFTs, one per node and factor, and every sum runs in a
fixed order: the kernel makes no BLAS call.

Every ladder letter here -- the identity's 1-D derivative table and the words on the
bilinear factors -- goes through the one kernel of operators (operators._letter_image);
lab holds no ladder coefficient of its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .hermite import (HermiteBasis, MultiIndex, SpectralField, _mirrored_values, _rule_columns,
                      _rule_nodes, galerkin_project, synthesize)
from .operators import IOperatorSpec, PWord, _letter_image, i_multiplier, sobolev_norm
from .solver import SolverConfig, energy, run_recorded

__all__ = [
    "identity_residual_tuples",
    "identity_residual_scan_1d",
    # one tuple at a time: single rows of identity_residual_tuples
    "QuadTuple",
    "quad_L0",
    "quad_L1_plus_weight",
    "verify_identity_k1",
    "ResonantTupleError",
    "ScalingFit",
    "fit_power_law",
    "random_shell_field",
    "almost_orthogonality_scan",
    "bilinear_strichartz_ratio",
    "derivative_bilinear_ratio",
    "bilinear_min_K",
    "energy_increment_scan",
    "norm_growth_experiment",
]


class ResonantTupleError(ValueError):
    """Raised when the k = 1 identity is requested on a resonant tuple
    (mu1^2 - mu2^2 - mu3^2 - mu4^2 = 0: the identity denominator vanishes)."""


@dataclass
class ScalingFit:
    """Least-squares power-law fit log y = slope * log x + intercept."""

    xs: np.ndarray
    ys: np.ndarray
    slope: float
    intercept: float
    residual: float
    dropped: int = 0


def fit_power_law(xs, ys) -> ScalingFit:
    """Fit a power law, dropping exact zeros (counted in `dropped`) before logs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys != 0.0
    dropped = int((~keep).sum())
    xs_k, ys_k = xs[keep], np.abs(ys[keep])
    if xs_k.size < 2:
        raise ValueError("need at least two nonzero samples for a power-law fit")
    A = np.vstack([np.log(xs_k), np.ones(xs_k.size)]).T
    sol, *_ = np.linalg.lstsq(A, np.log(ys_k), rcond=None)
    slope, intercept = float(sol[0]), float(sol[1])
    resid = np.log(ys_k) - A @ sol
    return ScalingFit(xs_k, ys_k, slope, intercept, float(np.sqrt(np.mean(resid ** 2))), dropped)


# ---------------------------------------------------------------------------
# Quadrilinear integrals and the k = 1 identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadTuple:
    """Four single-mode eigenfunctions h_m1 .. h_m4 of one basis (eigenvalues
    mu_i^2 = 2|m_i| + d).  Build it with QuadTuple.from_modes."""

    basis: HermiteBasis
    modes: tuple[MultiIndex, MultiIndex, MultiIndex, MultiIndex]

    @classmethod
    def from_modes(cls, basis: HermiteBasis, m1, m2, m3, m4) -> "QuadTuple":
        modes = tuple(MultiIndex(m) for m in (m1, m2, m3, m4))
        for m in modes:
            if len(m) != basis.d:
                raise ValueError(f"multi-index {tuple(m)} does not match dimension {basis.d}")
            if max(m) > basis.K:
                raise ValueError(f"mode {tuple(m)} exceeds the basis degree K = {basis.K}")
        return cls(basis, modes)


def random_shell_field(basis: HermiteBasis, mu_sq: int, rng) -> SpectralField:
    """Random real unit vector in the eigenspace 2|m| + d = mu_sq."""
    mask = basis.lambda_sq == int(mu_sq)
    n = int(mask.sum())
    if n == 0:
        raise ValueError(f"no modes with 2|m|+d = {mu_sq} at K = {basis.K}")
    coeffs = np.zeros(basis.shape, dtype=complex)
    z = rng.standard_normal(n)
    coeffs[mask] = z / np.linalg.norm(z)
    return SpectralField(basis, coeffs)


def _tuple_row(qt: QuadTuple) -> dict:
    """The tuple's row of identity_residual_tuples."""
    out = identity_residual_tuples(qt.basis.K, np.array(qt.modes)[None])
    return {key: value[0] for key, value in out.items()}


def quad_L0(qt: QuadTuple) -> float:
    """L0 = int e1 e2 e3 e4 dx, exact on the (2K + 2)-node rule (degree <= 4K)."""
    return float(_tuple_row(qt)["L0"])


def quad_L1_plus_weight(qt: QuadTuple) -> tuple[float, float]:
    """(L1, Lx) with

        L1 = int [grad e2 . grad e3 (e1 e4) + grad e2 . grad e4 (e1 e3)
                  + grad e3 . grad e4 (e1 e2)]
        Lx = int |x|^2 e1 e2 e3 e4.
    """
    row = _tuple_row(qt)
    return float(row["L1"]), float(row["Lx"])


def verify_identity_k1(qt: QuadTuple) -> float:
    """Relative residual |L0 - rhs| / |L0| of the k = 1 identity

        L0 = rhs = -2 (L1 + Lx) / (mu1^2 - mu2^2 - mu3^2 - mu4^2);

    raises ResonantTupleError when the denominator vanishes (integer-exact test)."""
    row = _tuple_row(qt)
    if row["resonant"]:
        raise ResonantTupleError(f"resonant tuple: mu^2 = {tuple(row['mu_sq'].tolist())} "
                                 "(denominator vanishes)")
    return float(row["residual"])


def _half_tables(K: int):
    """(A, D, Wh, X2) of HermiteBasis(1, K) on the negative half of its mirrored rule:
    the values and the derivatives of h_0 .. h_K, the weights and the squared nodes."""
    basis = HermiteBasis(1, K)
    V = basis.values[: K + 2]  # one extra degree for gradients
    half = basis.rule.size // 2
    # h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}: the negated GRAD image of the rows
    D = -_letter_image(V[:, :half], "GRAD", 0)[1][: K + 1]
    return V[: K + 1, :half], D, basis.rule.weights[:half], basis.rule.nodes[:half] ** 2


def identity_residual_scan_1d(K_max: int) -> dict:
    """Exhaustive k = 1 identity check over all 1-D tuples with degrees <= K_max:
    identity_residual_tuples on the (K_max + 1)^4 tuples in C order, each output
    shaped (K_max + 1,) * 4 and indexed by the tuple's degrees.  Returns per-tuple L0,
    Lx, rhs, residuals and the resonance mask (resonant tuples carry residual NaN)."""
    shape = (K_max + 1,) * 4
    out = identity_residual_tuples(K_max, np.indices(shape).reshape(4, -1).T[..., None])
    return {**{key: out[key].reshape(shape) for key in ("L0", "Lx", "rhs", "residual", "resonant")},
            "K_max": K_max}


_TUPLE_BLOCK = 1024  # tuples gathered at once by identity_residual_tuples


def identity_residual_tuples(K: int, modes: np.ndarray) -> dict:
    """k = 1 identity check on single-mode tuples, modes (T, 4, d) of degrees <= K.

    Modes factorize over the axes, so per axis a the 1-D folded sums of the half-grid
    tables give E_a = int e1 e2 e3 e4, X_a (weight x_a^2) and B_a (the three
    gradient pairs), and L0 = prod_a E_a, L1 and Lx = sum_a (B_a or X_a) prod_{b != a} E_b.
    Blocks of _TUPLE_BLOCK tuples, each reduced by its own fixed-order row sum: no value
    depends on the block size or on BLAS.  Returns mu_sq (T, 4) and per-tuple L0, L1,
    Lx, rhs, residual and resonant."""
    modes = np.asarray(modes)
    if modes.ndim != 3 or modes.shape[1] != 4 or not modes.shape[2] or modes.dtype.kind not in "iu":
        raise ValueError(f"modes must be an integer array of shape (T, 4, d), got {modes.dtype} "
                         f"of shape {modes.shape}")
    if modes.size and not 0 <= modes.min() <= modes.max() <= K:
        raise ValueError(f"mode degrees must lie in [0, K = {K}], got {modes.min()} .. {modes.max()}")
    A, D, Wh, X2 = _half_tables(K)
    T, _, d = modes.shape
    E, X, B = np.empty((3, d, T))
    for s in range(0, T, _TUPLE_BLOCK):
        for a in range(d):
            m = modes[s:s + _TUPLE_BLOCK, :, a].T
            (a0, a1, a2, a3), (d1, d2, d3) = A[m], D[m[1:]]
            even = m.sum(axis=0) % 2 == 0
            p = a0 * a1 * a2 * a3
            grads = d1 * d2 * a0 * a3 + d1 * d3 * a0 * a2 + d2 * d3 * a0 * a1
            for out, f, w in ((E, p, Wh), (X, p, Wh * X2), (B, grads, Wh)):
                out[a, s:s + _TUPLE_BLOCK] = np.where(even, 2.0 * (f * w).sum(axis=-1), 0.0)
    rest = [np.prod(np.delete(E, a, axis=0), axis=0) for a in range(d)]
    L0 = np.prod(E, axis=0) + 0.0  # + 0.0 turns a -0.0 into 0.0
    L1, Lx = (sum(F[a] * rest[a] for a in range(d)) + 0.0 for F in (B, X))
    mu_sq = 2 * modes.sum(axis=2) + d
    denom = mu_sq[:, 0] - mu_sq[:, 1] - mu_sq[:, 2] - mu_sq[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        rhs = np.where(denom == 0, np.nan, -2.0 * (L1 + Lx) / denom + 0.0)
    residual = np.abs(L0 - rhs) / (np.abs(L0) + 1e-30)  # NaN where rhs is
    return {"mu_sq": mu_sq, "L0": L0, "L1": L1, "Lx": Lx, "rhs": rhs,
            "residual": residual, "resonant": denom == 0}


# ---------------------------------------------------------------------------
# Almost-orthogonality sweep
# ---------------------------------------------------------------------------

def almost_orthogonality_scan(
    basis: HermiteBasis,
    lambda1_list,
    e2: SpectralField,
    e3: SpectralField,
    e4: SpectralField,
    trials: int,
    seed: int,
    C0: float = 4.0,
) -> dict:
    """Sweep the separated eigenvalue lambda_1 >= C0 (lambda_2 + lambda_3 + lambda_4)
    and record max |L0| over trial eigenfields e1 in that shell.  L0 = sum_m c_m b_m
    is linear in e1, with b = galerkin_project(e2 e3 e4) built once (exact on the rule);
    a shell of odd total degree with the trio reads exactly 0.0.  Returns the kept
    lambdas, the per-shell maxima, and the power-law fit of |L0| against lambda_1
    (None if < 2 usable points).
    """
    lam_rest = 0.0
    mus_rest = []
    for e in (e2, e3, e4):
        if e.basis is not basis or np.abs(e.coeffs.imag).max() != 0.0:
            raise ValueError("e2, e3, e4 must have real coefficients on the scan's basis")
        lsq = basis.lambda_sq[e.coeffs.real != 0]
        if lsq.size == 0:
            raise ValueError("e2, e3, e4 must be nonzero eigenfields")
        if lsq.max() != lsq.min():
            raise ValueError("e2, e3, e4 must each live on a single shell")
        mus_rest.append(int(lsq[0]))
        lam_rest += math.sqrt(float(lsq[0]))
    b = galerkin_project(synthesize(e2) * synthesize(e3) * synthesize(e4), basis).coeffs.real
    kept, maxima = [], []
    for lam1 in lambda1_list:
        lam1 = float(lam1)
        mu_sq = int(round(lam1 * lam1))
        if abs(lam1 * lam1 - mu_sq) > 1e-9:
            raise ValueError(f"lambda_1 = {lam1} is not an eigenvalue sqrt")
        if lam1 < C0 * lam_rest:
            continue
        best = 0.0
        for trial in range(max(trials, 1)):
            rng = np.random.default_rng(np.random.SeedSequence((seed, mu_sq, trial)))
            e1 = random_shell_field(basis, mu_sq, rng)
            best = max(best, abs(float(np.sum(e1.coeffs.real * b))))
        kept.append(lam1)
        maxima.append(best if (mu_sq + sum(mus_rest) - 4 * basis.d) % 4 == 0 else 0.0)
    fit = fit_power_law(kept, maxima) if np.count_nonzero(maxima) >= 2 else None
    return {
        "lambda1": np.array(kept),
        "max_abs_L0": np.array(maxima),
        "fit": fit,
        "empty": len(kept) == 0,
        "C0": C0,
    }


# ---------------------------------------------------------------------------
# Bilinear space-time measurements on wave-packet data
# ---------------------------------------------------------------------------

def _coherent_axis(alpha: complex) -> tuple[int, np.ndarray]:
    """Clipped coherent-state coefficient window on one axis: (start degree, coeffs).

    The clip B = min(5 sqrt(nbar) + 3, 0.45 nbar + 1) keeps the tensor product
    inside the dyadic window of its nominal frequency for every N >= 4 (the
    0.45 nbar branch caps the total degree sum; see the window containment note
    in derivative_bilinear_ratio).  B >= 1, so the window always holds a degree.
    """
    nbar = abs(alpha) ** 2
    B = min(5.0 * math.sqrt(nbar) + 3.0, 0.45 * nbar + 1.0)
    lo = max(0, int(math.ceil(nbar - B)))
    m = np.arange(lo, int(math.floor(nbar + B)) + 1)
    if nbar <= 1e-12:
        c = np.zeros(m.size, dtype=complex)
        c[0] = 1.0
        return lo, c
    logmag = -0.5 * nbar + m * math.log(abs(alpha)) - 0.5 * gammaln(m + 1.0)
    logmag -= logmag.max()
    c = np.exp(logmag) * np.exp(1j * m * np.angle(alpha))
    return lo, c / np.linalg.norm(c)


def _split_fractions(rng, d: int) -> np.ndarray:
    th = rng.uniform(0.15, 0.85, size=d)
    return th / th.sum()


def _draw_packet_pair(rng, d: int, N: int, M: int, T: float):
    """Random aimed wave-packet pair (u at frequency N, v at frequency M).

    v is a random packet in the Delta_M window; u is a packet whose classical
    orbit crosses v's position at a random hit time in (0.1 T, 0.9 T) — the
    extremal configuration family of the bilinear estimate.  Coherent centers
    alpha evolve as alpha e^{-2it}; per-axis position is sqrt(2) Re alpha.
    """
    th_v = _split_fractions(rng, d)
    v_axes, v_alpha = [], []
    for th in th_v:
        r2 = max(th * M * M - 1.0, 0.0)
        a = math.sqrt(r2 / 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        v_alpha.append(a)
        v_axes.append(_coherent_axis(a))
    t_hit = rng.uniform(0.1 * T, 0.9 * T)
    th_u = _split_fractions(rng, d)
    u_axes = []
    for j, th in enumerate(th_u):
        p = math.sqrt(2.0) * (v_alpha[j] * np.exp(-2j * t_hit)).real
        r2 = max(th * N * N - 1.0 - p * p, 0.0)
        xi = rng.choice(np.array([-1.0, 1.0])) * math.sqrt(r2)
        a0 = ((p + 1j * xi) / math.sqrt(2.0)) * np.exp(2j * t_hit)
        u_axes.append(_coherent_axis(a0))
    return u_axes, v_axes


def _fft_length(n: int) -> int:
    """Smallest m >= n with no prime factor above 11, a fast length for np.fft (a large
    prime factor sends it to Bluestein's algorithm)."""
    while pow(2310, n.bit_length(), n):  # n | (2 3 5 7 11)^e, e >= every exponent of n
        n += 1
    return n


def _time_rule(T: float, B: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_k = pi k / P on [0, pi) and weights (T + 2 Re sum_{n=1..B} I_n e^{2int_k}) / P,
    I_n = (1 - e^{-2inT}) / (2in), that integrate every e^{2int}, |n| <= B, exactly over
    [0, T]: P = _fft_length(2B + 1), or _fft_length(B + 1) when T is the float k pi and
    every I_n is 0 (equal weights are exact for every |n| <= P - 1)."""
    periodic = round(T / math.pi) * math.pi == T
    P = _fft_length(B + 1 if periodic else 2 * B + 1)
    n = np.arange(1, 1 if periodic else B + 1)
    I_n = np.r_[0.0, (1.0 - np.exp(-2j * n * T)) / (2j * n)]
    return math.pi * np.arange(P) / P, (T + 2.0 * P * np.fft.ifft(I_n, P).real) / P


_SERIES_BLOCK = 2 ** 18  # bytes of the buffer in which a bilinear cell takes its FFTs


def _v_candidates(Vv: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Nodes where v may reach 1e-11 of its peak: |gv(x, t)| <= sum_m |c_m| |h_m(x)| at
    every t, and max |gv| >= max_x |gv(x, 0)| (half the floor covers roundoff).  Both
    sums run over the window's rows in order, with no BLAS call."""
    gv0, env = np.zeros(Vv.shape[1], dtype=complex), np.zeros(Vv.shape[1])
    for c, row in zip(cv, Vv):
        gv0 += c * row
        env += abs(c) * np.abs(row)
    return np.flatnonzero(env > 0.5e-11 * np.abs(gv0).max())


def bilinear_min_K(N: int, d: int = 2) -> int:
    """Smallest 1-D basis degree that holds every frequency-N packet draw in dimension d.
    An axis takes at most the share 0.85 / (0.85 + 0.15 (d - 1)) of N^2 (_split_fractions):
    0.85 at d = 2, all of it at d = 1."""
    nbar_hi = 0.85 / (0.85 + 0.15 * (d - 1)) * N * N / 2.0
    return int(math.ceil(nbar_hi + 5.0 * math.sqrt(nbar_hi) + 4.0))


def derivative_bilinear_ratio(
    basis: HermiteBasis,
    d: int,
    word_a: PWord,
    word_b: PWord,
    N: int,
    M: int,
    T: float,
    trials: int,
    seed: int,
) -> dict:
    """Space-time bilinear measurement || (P_a u_N) (P_b v_M) ||_{L^2([0,T] x R^d)}
    over random aimed wave-packet pairs, normalized by

        N^{|word_a|} M^{|word_b|} M^{(d-1)/2} N^{-1/2}.

    `basis` is a 1-D axis basis (packets tensorize, so all grid work is 1-D); only its
    degree is read, checked to hold every draw after its word, and no value depends on it.
    Returns per-trial raw norms and ratios plus their max, the cell's rule sizes
    Q (space) and P (time), and its seconds in nodes, sweep and kernel.

    The trials are drawn first.  Per axis the integrand |gu|^2 |gv|^2 is a polynomial
    of degree <= 2 top_u + 2 top_v times e^{-2x^2}, with top_u, top_v the highest
    degrees of the cell's u and v windows, so the cell's own w = 2 rule of
    Q = top_u + top_v + 1 nodes integrates it exactly.  Its weights and values are
    built only on the nodes v can reach (_v_candidates), by one sweep (_rule_columns).
    In time it is a trigonometric polynomial in e^{2it} of bandwidth
    sum_axes (w_u - 1) + (w_v - 1), w the window widths, and the largest over the
    trials, B, sizes the exact time rule.  Mode m0 + j evolves as
    e^{-i(2(m0 + j) + 1)t}, and only |gu| and |gv| enter, so each window's common
    factor e^{-i(2 m0 + 1)t} drops out.  On t_k = pi k / P, each factor's series
    sum_j c_j h_{m0+j}(x) e^{-2ijt_k} is then a length-P DFT over j: one FFT per node and
    factor, taken for blocks of nodes in one buffer of _SERIES_BLOCK bytes.  The rows
    W |gu|^2 |gv|^2 of the nodes are added in node order, so no value depends on the
    block size or on BLAS.
    """
    if basis.d != 1:
        raise ValueError("pass a 1-D axis basis; tensor packets factorize per axis")
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2 or 3")
    if N < M:
        raise ValueError("expect N >= M (u carries the high frequency)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    need = bilinear_min_K(max(N, M), d) + max(word_a.order, word_b.order)
    if basis.K < need:
        raise ValueError(f"basis.K = {basis.K} too small; need >= {need} for N = {N}")
    for word in (word_a, word_b):
        for _, ax in word.letters:
            if ax > d:
                raise ValueError(f"word axis {ax} exceeds dimension {d}")
    pairs = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, N, M, trial)))
        u_axes, v_axes = _draw_packet_pair(rng, d, N, M, T)
        for word, axes in ((word_a, u_axes), (word_b, v_axes)):
            for letter, ax in word.letters:  # each axis's letters in word order
                m0, c = axes[ax - 1]
                axes[ax - 1] = _letter_image(c, letter, 0, m0)
        pairs.append((u_axes, v_axes))
    top_u = max(m0 + c.size - 1 for u_axes, _ in pairs for m0, c in u_axes)
    top_v = max(m0 + c.size - 1 for _, v_axes in pairs for m0, c in v_axes)
    Q = top_u + top_v + 1
    t_nodes = time.perf_counter()
    half, rule_nodes = _rule_nodes(Q)
    Vv = _mirrored_values(top_v, rule_nodes / math.sqrt(2.0))  # the w = 2 rule's nodes
    cands = [[_v_candidates(Vv[m0:m0 + c.size], c) for m0, c in v_axes] for _, v_axes in pairs]
    S = np.unique(np.concatenate([cand for axes in cands for cand in axes]))
    del Vv  # freed before the table on S, which may be as large at M = N
    t_sweep = time.perf_counter()
    W, V = _rule_columns(half, rule_nodes, S, max(top_u, top_v))
    t_kernel = time.perf_counter()
    B = max(sum(c.size - 1 for _, c in u_axes + v_axes) for u_axes, v_axes in pairs)
    tg, tw = _time_rule(T, B)
    # a block of nodes: u's and v's zero-padded series (P >= B + 1 >= either window), and
    # their products with row 0 for the running sum
    series = np.empty((max(1, _SERIES_BLOCK // (32 * tg.size)), 2, tg.size), dtype=complex)
    rows = np.empty((len(series) + 1, tg.size))
    raws = np.empty(trials)
    for trial, ((u_axes, v_axes), cand_axes) in enumerate(zip(pairs, cands)):
        prof = np.ones_like(tg)
        for (m0u, cu), (m0v, cv), cand in zip(u_axes, v_axes, cand_axes):
            cols = np.searchsorted(S, cand)  # columns of V; gu gv = 0 off them
            rows[0] = 0.0
            for s in range(0, cols.size, len(series)):
                blk = cols[s:s + len(series)]
                buf, n = series[:blk.size], blk.size + 1
                for f, (m0, c) in enumerate(((m0u, cu), (m0v, cv))):
                    np.multiply(V[m0:m0 + c.size, blk].T, c, out=buf[:, f, :c.size])
                    buf[:, f, c.size:] = 0.0
                g = np.fft.fft(buf, axis=-1, out=buf).view(float)
                np.square(g, out=g)
                g_sq = np.add(g[..., 0::2], g[..., 1::2], out=g[..., 0::2])  # |gu|^2, |gv|^2
                np.multiply(g_sq[:, 0], g_sq[:, 1], out=rows[1:n])
                rows[1:n] *= W[blk, None]
                rows[0] = rows[:n].sum(axis=0)  # node by node, in order, whatever the block
            prof = prof * rows[0]
        raws[trial] = math.sqrt(float(np.sum(tw * prof)))
    normalization = (float(N) ** word_a.order * float(M) ** word_b.order
                     * float(M) ** ((d - 1) / 2.0) * float(N) ** -0.5)
    ratios = raws / normalization
    return {"raws": raws, "ratios": ratios, "ratio_max": float(ratios.max()),
            "raw_max": float(raws.max()), "normalization": normalization, "Q": Q, "P": tg.size,
            "seconds": {"nodes": t_sweep - t_nodes, "sweep": t_kernel - t_sweep,
                        "kernel": time.perf_counter() - t_kernel}}


def bilinear_strichartz_ratio(
    basis: HermiteBasis, d: int, N: int, M: int, T: float, trials: int, seed: int
) -> dict:
    """Plain bilinear measurement: identical code path to derivative_bilinear_ratio
    with empty words (bit-identical results by construction)."""
    return derivative_bilinear_ratio(
        basis, d, PWord.identity(), PWord.identity(), N, M, T, trials, seed
    )


# ---------------------------------------------------------------------------
# Modified-energy increments and Sobolev growth
# ---------------------------------------------------------------------------

def energy_increment_scan(u0: SpectralField, s: float, N_list, cfg: SolverConfig) -> dict:
    """sup_t |E(I_N u(t)) - E(I_N u(0))| for each N, on one shared trajectory.

    All N-functionals are evaluated at the record times of a single evolution,
    so the comparison across N is free of trajectory-to-trajectory noise.  The
    same sup for the unmodified energy (I = Id), which the exact flow conserves, is
    returned as energy_drift_floor: the splitting and roundoff drift that an
    increment has to stand above.
    """
    N_list = [int(N) for N in N_list]
    basis = u0.basis
    lam = np.sqrt(basis.lambda_sq.astype(float))
    mults = {N: i_multiplier(IOperatorSpec(N=N, s=s), lam) for N in N_list}
    mults[None] = 1.0  # I = Id, the floor
    base_e = {}
    sup_inc = {N: 0.0 for N in mults}
    times = []

    def on_record(t, u_t):
        times.append(t)
        for N, mult in mults.items():
            e_val = energy(SpectralField(basis, u_t.coeffs * mult), cfg.coupling)
            if N not in base_e:
                base_e[N] = e_val
            else:
                sup_inc[N] = max(sup_inc[N], abs(e_val - base_e[N]))

    diagnostics = run_recorded(u0, cfg, on_record)
    floor = sup_inc.pop(None)
    ys = [sup_inc[N] for N in N_list]
    fit = fit_power_law(N_list, ys) if np.count_nonzero(ys) >= 2 else None
    return {
        "N_list": N_list,
        "increments": sup_inc,
        "energy_drift_floor": floor,
        "fit": fit,
        "diagnostics": diagnostics,
        "n_records": len(times),
    }


def norm_growth_experiment(u0: SpectralField, s: float, cfg: SolverConfig) -> dict:
    """Long-time H^s growth run: records ||u(t)||_{H^s}, its running max, and the
    power-law exponent of the running max over the second half of the run.
    A linear control (coupling = 0) of the same datum is fitted identically."""
    results = {}
    for tag, coupling in (("nonlinear", cfg.coupling), ("linear", 0.0)):
        cfg_run = replace(cfg, coupling=coupling)
        times, norms = [], []

        def on_record(t, u_t):
            times.append(t)
            norms.append(sobolev_norm(u_t, s))

        diagnostics = run_recorded(u0, cfg_run, on_record)
        times_a = np.array(times)
        norms_a = np.array(norms)
        running = np.maximum.accumulate(norms_a)
        tail = times_a >= 0.5 * cfg.T
        if tail.sum() < 2:
            tail = times_a > 0.0
        if tail.sum() >= 2:
            fit = fit_power_law(times_a[tail], running[tail])
            exponent = fit.slope
        else:
            fit, exponent = None, float("nan")
        results[tag] = {
            "times": times_a,
            "hs_norms": norms_a,
            "running_max": running,
            "exponent": exponent,
            "fit": fit,
            "diagnostics": diagnostics,
        }
    return results
