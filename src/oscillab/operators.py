"""Coefficient-space operator calculus: ladder words, spectral projectors, multipliers.

All operators act on SpectralField coefficient tensors.  Ladder letters (GRAD = d/dx_j,
X = multiplication by x_j) couple neighbouring degrees only:

    GRAD:  c'_n = sqrt((n_j+1)/2) c_{n+e_j} - sqrt(n_j/2) c_{n-e_j}
    X:     c'_n = sqrt((n_j+1)/2) c_{n+e_j} + sqrt(n_j/2) c_{n-e_j}

Words are applied on arrays padded by the word order, then truncated back to the basis,
reporting the l2 mass of the truncated tail (spillage).  One kernel, _apply_letter,
applies a letter by writing into caller-owned buffers; _letter_image wraps it for a
coefficient window that starts at any degree, and is how lab applies its letters.
Verified algebra (and the sign conventions tested in the suite), with H = -Laplace + |x|^2:

    [H, GRAD_j] = -2 X_j,   [H, X_j] = -2 GRAD_j,   GRAD_j X_j - X_j GRAD_j = Id.

Bernstein ratios run on the window's coefficient box.  A mode of the Delta_N window has
2|m| + d < 2 N^2, so every m_j <= K_N = min(K, window_degree(N, d)), the box of a trial
field.  A letter moves one degree by one, so the image of a word of order r lies in that
box padded by r, and the padded array holds all of it: its norm is ||P u|| itself, the
quantity the full-basis computation recovered as hypot(kept, spill).
Each image entry is the same products summed in the same order as on the full basis;
only the summation order of the norm differs, at roundoff.  bernstein_ratios evaluates
many words on one set of trials: each order has its own box, so a norm is taken over
the same array whatever words share the call, and words that share a letter prefix
share its image, so each prefix is applied once per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import HermiteBasis, SpectralField, eigenvalue_box

__all__ = [
    "PWord",
    "IOperatorSpec",
    "apply_P",
    "apply_H",
    "commutator_H_P",
    "project_pi_mu",
    "littlewood_paley",
    "sobolev_norm",
    "i_multiplier",
    "apply_I",
    "apply_I_inverse",
    "window_degree",
    "window_size",
    "bernstein_draws",
    "bernstein_ratio",
    "bernstein_ratios",
]

MAX_WORD_ORDER = 8

_LETTERS = ("GRAD", "X")


@dataclass(frozen=True)
class PWord:
    """A word in the ladder letters, applied left to right; axes are 1-based."""

    letters: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        letters = tuple((str(l), int(ax)) for (l, ax) in self.letters)
        object.__setattr__(self, "letters", letters)
        for letter, axis in letters:
            if letter not in _LETTERS:
                raise ValueError(f"unknown letter {letter!r}; expected GRAD or X")
            if axis < 1:
                raise ValueError(f"axis must be >= 1, got {axis}")
        if len(letters) > MAX_WORD_ORDER:
            raise ValueError(f"word order {len(letters)} exceeds {MAX_WORD_ORDER}")

    @property
    def order(self) -> int:
        return len(self.letters)

    @classmethod
    def identity(cls) -> "PWord":
        return cls(())

    @classmethod
    def grad(cls, axis: int = 1) -> "PWord":
        return cls((("GRAD", axis),))

    @classmethod
    def x(cls, axis: int = 1) -> "PWord":
        return cls((("X", axis),))

    def then(self, other: "PWord") -> "PWord":
        return PWord(self.letters + other.letters)


def _along(axis: int, ndim: int, index: slice) -> tuple:
    """Index tuple applying `index` along `axis` and taking every other axis whole."""
    return (slice(None),) * axis + (index,) + (slice(None),) * (ndim - axis - 1)


def _apply_letter(src: np.ndarray, out: np.ndarray, tmp: np.ndarray,
                  letter: str, axis: int, n0: int = 0) -> None:
    """One ladder letter along `axis` (0-based): writes the image of `src` into `out`.

    Index i along `axis` holds degree n0 + i.  `out` and `tmp` are caller-owned buffers
    of src's shape; `src` is only read.  Entry n is formed as the zero-initialised sum
    (0 + up_n src[n+1]) -/+ down_n src[n-1], in that order, whatever the array's extent
    beyond the support.  Degrees n0 - 1 and n0 + len are read as zero.
    """
    ndim = src.ndim
    n = np.arange(n0, n0 + src.shape[axis], dtype=float)
    shape = [1] * ndim
    shape[axis] = n.size - 1
    up = np.sqrt((n[:-1] + 1.0) / 2.0).reshape(shape)
    down = np.sqrt(n[1:] / 2.0).reshape(shape)
    lo, hi = _along(axis, ndim, slice(None, -1)), _along(axis, ndim, slice(1, None))
    np.multiply(up, src[hi], out=tmp[lo])
    np.add(tmp[lo], 0.0, out=out[lo])  # 0 + p: a -0.0 product reads +0.0, as in a zeroed sum
    out[_along(axis, ndim, slice(-1, None))] = 0.0
    np.multiply(down, src[lo], out=tmp[hi])
    (np.subtract if letter == "GRAD" else np.add)(out[hi], tmp[hi], out=out[hi])


def _letter_image(c: np.ndarray, letter: str, axis: int, n0: int = 0) -> tuple[int, np.ndarray]:
    """The whole image of one letter on a window whose index 0 along `axis` has degree
    n0: returns (start degree, image).  The window grows by one degree above, and by one
    below when n0 > 0, so the image holds every degree the letter reaches."""
    below = 1 if n0 > 0 else 0
    shape = list(c.shape)
    shape[axis] += 1 + below
    src = np.zeros(shape, dtype=c.dtype)
    src[_along(axis, c.ndim, slice(below, below + c.shape[axis]))] = c
    out = np.empty_like(src)
    _apply_letter(src, out, np.empty_like(src), letter, axis, n0 - below)
    return n0 - below, out


def _apply_word(work: np.ndarray, word: PWord, out: np.ndarray,
                tmp: np.ndarray) -> np.ndarray:
    """Apply the word's letters in turn; returns whichever of `work` and `out` holds
    the image.  All three arrays share one shape; `work` and `out` are overwritten."""
    for letter, axis in word.letters:
        if axis > work.ndim:
            raise ValueError(f"letter axis {axis} exceeds dimension {work.ndim}")
        _apply_letter(work, out, tmp, letter, axis - 1)
        work, out = out, work
    return work


def _pad(coeffs: np.ndarray, extra: int) -> np.ndarray:
    return np.pad(coeffs, [(0, extra)] * coeffs.ndim)


def _truncate_with_spill(work: np.ndarray, K: int) -> tuple[np.ndarray, float]:
    inner = work[(slice(0, K + 1),) * work.ndim]
    total = float(np.vdot(work, work).real)
    kept = float(np.vdot(inner, inner).real)
    return inner.copy(), math.sqrt(max(total - kept, 0.0))


def apply_P(u: SpectralField, word: PWord) -> tuple[SpectralField, float]:
    """Apply a ladder word; returns (truncated field, l2 spillage beyond the basis)."""
    if word.order == 0:
        return u.copy(), 0.0
    work = _pad(u.coeffs, word.order)
    image = _apply_word(work, word, np.empty_like(work), np.empty_like(work))
    inner, spill = _truncate_with_spill(image, u.basis.K)
    return SpectralField(u.basis, inner), spill


def apply_H(u: SpectralField) -> SpectralField:
    """H u with H = -Laplace + |x|^2: diagonal, coefficient m scaled by 2|m| + d."""
    return SpectralField(u.basis, u.coeffs * u.basis.lambda_sq)


def commutator_H_P(u: SpectralField, word: PWord) -> tuple[SpectralField, float]:
    """[H, P] u = H(Pu) - P(Hu), evaluated on padded arrays before truncation."""
    d, K = u.basis.d, u.basis.K
    work = _pad(u.coeffs, max(word.order, 1))
    lam = eigenvalue_box(d, work.shape[0])
    hu = lam * work
    out, tmp = np.empty_like(work), np.empty_like(work)
    h_of_pu = lam * _apply_word(work, word, out, tmp)
    p_of_hu = _apply_word(hu, word, out, tmp)
    inner, spill = _truncate_with_spill(h_of_pu - p_of_hu, K)
    return SpectralField(u.basis, inner), spill


def project_pi_mu(u: SpectralField, mu_sq: int) -> SpectralField:
    """Orthogonal projection onto the eigenspace {2|m| + d = mu_sq} (integer-exact)."""
    mask = u.basis.lambda_sq == int(mu_sq)
    return SpectralField(u.basis, np.where(mask, u.coeffs, 0.0))


# ---------------------------------------------------------------------------
# Littlewood-Paley blocks
# ---------------------------------------------------------------------------

def _ramp(t: np.ndarray) -> np.ndarray:
    """The mollifier ramp e^{-1/t} for t > 0, identically 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _eta(x) -> np.ndarray:
    """Smooth dyadic cutoff: 1 on [0, 1], 0 on [2, inf)."""
    x = np.asarray(x, dtype=float)
    f_hi = _ramp(2.0 - x)
    f_lo = _ramp(x - 1.0)
    with np.errstate(invalid="ignore"):
        out = np.where(x <= 1.0, 1.0, np.where(x >= 2.0, 0.0, f_hi / (f_hi + f_lo)))
    return out


def _psi(x) -> np.ndarray:
    """Dyadic bump psi(x) = eta(x) - eta(4x)."""
    return _eta(x) - _eta(4.0 * np.asarray(x, dtype=float))


def _check_dyadic(N: int) -> int:
    N = int(N)
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a dyadic integer >= 1, got {N}")
    return N


def littlewood_paley(u: SpectralField, N: int) -> SpectralField:
    """Dyadic block Delta_N u = psi(H / N^2) u; supported where N^2/4 < 2|m|+d < 2 N^2."""
    N = _check_dyadic(N)
    mult = _psi(u.basis.lambda_sq / float(N * N))
    return SpectralField(u.basis, u.coeffs * mult)


def sobolev_norm(u: SpectralField, s: float) -> float:
    """Hermite-Sobolev norm: sqrt(sum (2|m|+d)^s |c_m|^2)."""
    lam = u.basis.lambda_sq.astype(float)
    return float(math.sqrt(np.sum(lam ** s * np.abs(u.coeffs) ** 2)))


# ---------------------------------------------------------------------------
# The I-operator (smooth spectral multiplier interpolating 1 -> (lambda/N)^{s-1})
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IOperatorSpec:
    """Multiplier m(lambda) = 1 for lambda <= N, (lambda/N)^{s-1} for lambda >= 2N,
    bridged by a monotone C^1 cubic Hermite arc in log-log coordinates."""

    N: int
    s: float

    def __post_init__(self):
        _check_dyadic(self.N)
        if not self.s > 1.0:
            raise ValueError(f"s must be > 1, got {self.s}")


def i_multiplier(spec: IOperatorSpec, lam: np.ndarray) -> np.ndarray:
    """Evaluate the I-operator symbol at lambda (array of sqrt eigenvalues)."""
    lam = np.asarray(lam, dtype=float)
    N = float(spec.N)
    t = np.log2(np.maximum(lam, 1e-300) / N)
    t = np.clip(t, 0.0, 1.0)
    # cubic Hermite p(t) = 2 t^2 - t^3: p(0)=0, p'(0)=0, p(1)=1, p'(1)=1 (log-log slopes)
    bridge = np.exp((spec.s - 1.0) * math.log(2.0) * (2.0 * t * t - t ** 3))
    power = (lam / N) ** (spec.s - 1.0)
    return np.where(lam <= N, 1.0, np.where(lam >= 2.0 * N, power, bridge))


def apply_I(u: SpectralField, spec: IOperatorSpec) -> SpectralField:
    lam = np.sqrt(u.basis.lambda_sq.astype(float))
    return SpectralField(u.basis, u.coeffs * i_multiplier(spec, lam))


def apply_I_inverse(u: SpectralField, spec: IOperatorSpec) -> SpectralField:
    lam = np.sqrt(u.basis.lambda_sq.astype(float))
    return SpectralField(u.basis, u.coeffs / i_multiplier(spec, lam))


# ---------------------------------------------------------------------------
# Bernstein-type operator bound on dyadic windows
# ---------------------------------------------------------------------------

def window_degree(N: int, d: int) -> int:
    """The largest m_j in the Delta_N window (2|m| + d < 2 N^2); negative when it is empty."""
    return (2 * N * N - d - 1) // 2


def window_size(N: int, d: int) -> int:
    """The number of modes in the Delta_N window: those of total degree up to
    window_degree(N, d), less those with 2|m| + d <= N^2 / 4."""
    def up_to(n):  # the modes of total degree <= n
        return math.comb(n + d, d) if n >= 0 else 0
    return up_to(window_degree(N, d)) - up_to((N * N - 4 * d) // 8)


def bernstein_draws(basis: HermiteBasis, N: int, trials: int, seed: int):
    """The trial fields of bernstein_ratio, which do not depend on the word.

    Returns (the Delta_N window as a mask on its coefficient box, [(coefficients on the
    window, their norm) per trial]), all read-only.  The first two trials are the
    extreme window modes (top and bottom eigenvalue), the rest random complex Gaussian
    fields on the window.
    """
    N = _check_dyadic(N)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = min(basis.K, window_degree(N, basis.d)) + 1
    lsq = eigenvalue_box(basis.d, n)
    window = (4 * lsq > N * N) & (lsq < 2 * N * N)
    n_window = int(window.sum())
    if n_window == 0:
        raise ValueError(f"Delta_{N} window contains no modes at K = {basis.K}")
    lam = lsq[window]  # lexicographic, the order of the full basis
    fields = []
    for trial in range(trials):
        if trial == 0 or (trial == 1 and n_window > 1):
            c = np.zeros(n_window)
            c[np.argmax(lam) if trial == 0 else np.argmin(lam)] = 1.0
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, N, trial)))
            z = rng.standard_normal(n_window) + 1j * rng.standard_normal(n_window)
            c = z / np.linalg.norm(z)
        c.flags.writeable = False
        fields.append((c, float(np.linalg.norm(c))))
    window.flags.writeable = False
    return window, fields


def bernstein_ratios(basis: HermiteBasis, words, N: int, trials: int, seed: int,
                     draws=None) -> list[float]:
    """bernstein_ratio of each word in `words`, in order, on one set of trial fields.

    The trials are `draws`, by default bernstein_draws(basis, N, trials, seed).  Words
    of one order share one coefficient box, the window's box padded by that order (see
    the module docstring), so every image norm is taken over the array a one-word call
    uses.  Within a trial a word's image is its last letter applied to its prefix's
    image, and each letter prefix is applied once: the words run in sorted order, and a
    word recomputes only the letters after the prefix it shares with the word before.
    """
    words = list(words)
    window, fields = draws if draws is not None else bernstein_draws(basis, N, trials, seed)
    n, d = window.shape[0], window.ndim
    for word in words:
        for _, axis in word.letters:
            if axis > d:
                raise ValueError(f"letter axis {axis} of word {word.letters} exceeds "
                                 f"dimension {d}")
    ratios = [1.0 if word.order == 0 else 0.0 for word in words]
    for r in sorted({word.order for word in words} - {0}):
        ids = sorted((i for i, w in enumerate(words) if w.order == r),
                     key=lambda i: words[i].letters)
        images = [np.zeros((n + r,) * d, dtype=complex) for _ in range(r + 1)]
        tmp = np.empty_like(images[0])
        scale = float(N) ** r
        per_trial = {i: [] for i in ids}
        for c, u_norm in fields:
            images[0][(slice(0, n),) * d][window] = c
            done = ()  # the letters whose images images[1:] hold
            for i in ids:
                letters = words[i].letters
                k = 0
                while k < len(done) and done[k] == letters[k]:
                    k += 1
                for j in range(k, r):
                    letter, axis = letters[j]
                    _apply_letter(images[j], images[j + 1], tmp, letter, axis - 1)
                done = letters
                per_trial[i].append(
                    math.sqrt(np.vdot(images[r], images[r]).real) / (scale * u_norm))
        for i in ids:
            ratios[i] = max(per_trial[i])
    return ratios


def bernstein_ratio(basis: HermiteBasis, word: PWord, N: int, trials: int, seed: int,
                    draws=None) -> float:
    """max over trial fields u supported in the Delta_N window of ||P u|| / (N^ord ||u||).

    The trials are `draws`, by default bernstein_draws(basis, N, trials, seed); the words
    of one N may share one set, and bernstein_ratios evaluates many words at once.
    """
    return bernstein_ratios(basis, [word], N, trials, seed, draws)[0]
