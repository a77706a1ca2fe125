"""Hermite-function spectral core for the harmonic oscillator H = -Laplace + |x|^2.

Conventions used throughout the package:

* h_k denotes the L^2-orthonormal Hermite functions,
  h_0(x) = pi^{-1/4} e^{-x^2/2},  h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}.
  Tensor products h_m = prod_j h_{m_j} are eigenfunctions of H with eigenvalue 2|m| + d.
* A quadrature rule carries *envelope-compensated* weights: the stored weight at node y_i
  is W_i = 1 / sum_{k<Q} h_k(y_i)^2, which is O(1) at every node.  The rule contract is

      sum_i W_i f(y_i)  ~=  integral f(y) dy    for f = polynomial * e^{-w y^2},

  exact when the polynomial degree is <= 2Q - 1 (w = 1) resp. <= 2Q - 1 after the
  substitution y = sqrt(2) x (w = 2).  Compensated weights avoid the underflow of the
  classical Gauss-Hermite weights for large rules.
* A basis of max degree K ships a w = 2 rule with Q = 2K + 2 nodes: products of up to
  four degree-K basis functions (the cubic nonlinearity tested against a basis function,
  and the quadrilinear integrals of the estimates lab) are integrated exactly.
* Transforms between coefficients and grid values run on *real planes*: a complex
  tensor of shape (n,)*d is held as a float array of shape (2,) + (n,)*d, real part
  first, and the real tables are applied to both planes at once by one contraction
  primitive, _contract_planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dsterf

__all__ = [
    "MultiIndex",
    "QuadratureRule",
    "HermiteBasis",
    "SpectralField",
    "hermite_values_1d",
    "gauss_hermite_rule",
    "eigenvalue",
    "synthesize",
    "galerkin_project",
    "HARD_CAP_K_EVAL",
]

#: Resource guard: largest degree for which value tables may be materialized.
HARD_CAP_K_EVAL = 4400
#: Value-table degrees above K: one per letter of a ladder word applied to a field.
HEADROOM = 8

_LOG2E = 1.0 / math.log(2.0)
_RENORM_EVERY = 8
_RENORM_THRESHOLD = 2.0 ** 500
_RENORM_SHIFT = 512  # power of two removed per renormalization


class MultiIndex(tuple):
    """Multi-index m = (m_1, ..., m_d) labelling a tensor Hermite mode."""

    def __new__(cls, indices):
        idx = tuple(int(i) for i in indices)
        if not idx:
            raise ValueError("multi-index must have at least one component")
        if any(i < 0 for i in idx):
            raise ValueError(f"multi-index components must be >= 0, got {idx}")
        return super().__new__(cls, idx)

    @property
    def degree(self) -> int:
        return sum(self)


def eigenvalue(m, d: int) -> int:
    """Eigenvalue of H on the mode h_m in dimension d: 2|m| + d."""
    m = MultiIndex(m)
    if len(m) != d:
        raise ValueError(f"multi-index {tuple(m)} does not match dimension {d}")
    return 2 * m.degree + d


def eigenvalue_box(d: int, n: int) -> np.ndarray:
    """Eigenvalues 2|m| + d over the index box m_j < n, shape (n,)*d (integer-exact)."""
    grids = np.meshgrid(*[np.arange(n)] * d, indexing="ij")
    return (2 * sum(grids) + d).astype(np.int64)


def _hermite_rows(K_eval: int, x: np.ndarray, start: int = 0):
    """Yield the rows h_start(x), ..., h_{K_eval}(x) of the renormalized recurrence.

    Runs the three-term recurrence on the envelope-free polynomials, in preallocated
    buffers, with a per-node power-of-two exponent (changed only when a renormalization
    fires) and rebuilds each row with ldexp into a fresh array.  Plain evaluation dies
    for large rules: e^{-x^2/2} underflows in the classically forbidden region and the
    recurrence can then never climb back to the O(1) oscillatory values.  The scheme is
    exact (power-of-two scaling only) and keeps every representable value.  Every
    operation is odd or even in x, so mirrored nodes give rows that are exactly (-1)^k
    times each other, and a node's rows depend on that node alone.  Rows below `start`
    are run through the recurrence but never rebuilt.
    """
    # envelope e^{-x^2/2} pi^{-1/4} = 2^kappa * ebar with ebar in [1, 2)
    a = (-0.5 * x * x - 0.25 * math.log(math.pi)) * _LOG2E
    kappa = np.floor(a)
    ebar = np.exp2(a - kappa)
    # int32 exponents put ldexp on its fast loop; the clip only touches |x| > 3e4,
    # where every h_k underflows to 0.0 either way
    expo = np.maximum(kappa, -2.0 ** 30).astype(np.int32)
    p_prev, p_cur, buf = np.zeros_like(x), np.ones_like(x), np.empty_like(x)
    if start <= 0:
        yield np.ldexp(ebar, expo)
    for k in range(K_eval):
        # p_prev <- x sqrt(2/(k+1)) p_cur - sqrt(k/(k+1)) p_prev, then the two swap roles
        np.multiply(x, math.sqrt(2.0 / (k + 1)), out=buf)
        buf *= p_cur
        p_prev *= math.sqrt(k / (k + 1.0))
        np.subtract(buf, p_prev, out=p_prev)
        p_prev, p_cur = p_cur, p_prev
        # fmax passes over the NaN of an overflowed |x| as the per-node test does
        if k % _RENORM_EVERY == 0 and np.fmax.reduce(
                np.abs(p_cur, out=buf), initial=0.0) > _RENORM_THRESHOLD:
            big = buf > _RENORM_THRESHOLD
            p_prev[big] *= 2.0 ** -_RENORM_SHIFT
            p_cur[big] *= 2.0 ** -_RENORM_SHIFT
            expo[big] += _RENORM_SHIFT
        if k >= start - 1:
            yield np.ldexp(np.multiply(p_cur, ebar, out=buf), expo)


def _sweep(Q: int, half: np.ndarray, x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """One recurrence pass over the abscissae `half` and `x` together: writes h_k(x),
    k < len(table), into `table`; returns the compensated weights 1 / sum_{k<Q} h_k^2
    at `half`, bit for bit as separate passes give them."""
    n = half.size
    sumsq = np.zeros(n)
    for k, row in enumerate(_hermite_rows(max(Q, len(table)) - 1, np.concatenate([half, x]))):
        if k < Q:
            sumsq += np.square(row[:n], out=row[:n])
        if k < len(table):
            table[k] = row[n:]
    return 1.0 / sumsq


def hermite_values_1d(K_eval: int, nodes) -> np.ndarray:
    """Table of orthonormal Hermite function values, rows k = 0..K_eval, evaluated
    at exactly the given nodes (see _hermite_rows for the scheme)."""
    if K_eval < 0:
        raise ValueError("K_eval must be >= 0")
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1:
        raise ValueError("nodes must be a 1-D array")
    out = np.empty((K_eval + 1, x.size))
    _sweep(0, x[:0], x, out)
    return out


def _mirrored_values(K_eval: int, nodes: np.ndarray) -> np.ndarray:
    """hermite_values_1d on a rule's nodes, evaluated on the nonnegative half only.

    The rule's nodes mirror exactly and h_k(-x) = (-1)^k h_k(x) holds bitwise for
    the recurrence, so the mirrored half equals full evaluation bit for bit.  Rows are
    written straight into the table: no half table is held beside it.
    """
    Q = nodes.size
    lo = Q // 2  # index of the first nonnegative node
    out = np.empty((K_eval + 1, Q))
    _sweep(0, nodes[:0], nodes[lo:], out[:, lo:])
    sign = (-1.0) ** np.arange(K_eval + 1)
    np.multiply(out[:, lo + Q % 2:][:, ::-1], sign[:, None], out=out[:, :lo])
    return out


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss rule with envelope-compensated weights.

    `weight_exponent` is w in the contract  sum_i weights_i f(nodes_i) ~ int f,
    f = polynomial * e^{-w y^2}.
    """

    nodes: np.ndarray
    weights: np.ndarray
    weight_exponent: int

    def __post_init__(self):
        if self.weight_exponent not in (1, 2):
            raise ValueError("weight_exponent must be 1 or 2")
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-D arrays")

    @property
    def size(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray) -> complex | float:
        """Apply the rule along every axis of a tensor of node values."""
        out = values
        for _ in range(values.ndim):
            out = np.tensordot(out, self.weights, axes=(0, 0))
        return out


def _rule_nodes(Q: int) -> tuple[np.ndarray, np.ndarray]:
    """(half, nodes): the nonnegative nodes of the Q-node w = 1 Gauss rule, ascending
    with odd Q's exact 0.0 first, and all Q nodes, the negative half its mirror image.

    The w = 1 nodes are the roots of h_Q, i.e. the eigenvalues of the Jacobi matrix
    T (zero diagonal, off-diagonal sqrt(k/2)).  T^2 couples only indices of equal
    parity, and its even-index block, a ceil(Q/2)-size tridiagonal matrix, has the
    squares of the nonnegative roots as eigenvalues (Golub & Welsch, Math. Comp. 23,
    1969).  Those nodes get one Newton step on h_Q, using h_Q' = sqrt(2Q) h_{Q-1} -
    x h_Q.  Odd Q keeps an exact 0.0 node, and nodes are exactly antisymmetric.
    """
    odd = Q % 2
    # T^2 at even indices i: diagonal b_i^2 + b_{i+1}^2, off-diagonal b_{i+1} b_{i+2},
    # with b_k^2 = k/2 for 0 < k < Q and b_0 = b_Q = 0
    b_sq = np.arange(Q + 1) / 2.0
    b_sq[Q] = 0.0
    i = np.arange(0, Q, 2)
    diag = b_sq[i] + b_sq[i + 1]
    off = np.sqrt(b_sq[i[:-1] + 1] * b_sq[i[:-1] + 2])
    # the dsterf wrapper wants a nonempty off-diagonal; a 1 x 1 block is its eigenvalue
    lam, info = dsterf(diag, off) if off.size else (diag, 0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsterf failed for Q = {Q} (info = {info})")
    pos = np.sqrt(lam[odd:])  # ascending; odd Q drops the root 0
    h_prev, h_top = _hermite_rows(Q, pos, start=Q - 1)
    pos = pos - h_top / (math.sqrt(2.0 * Q) * h_prev - pos * h_top)
    half = np.concatenate([np.zeros(odd), pos])
    return half, np.concatenate([-pos[::-1], half])


def gauss_hermite_rule(Q: int, w: int = 2) -> QuadratureRule:
    """Q-node Gauss rule for integrands polynomial * e^{-w y^2}, w in {1, 2}: the nodes
    of _rule_nodes and their compensated weights 1 / sum_{k<Q} h_k^2 (see
    QuadratureRule), by one _sweep on the nonnegative half and mirrored, so weights are
    exactly symmetric.  The w = 2 rule is the substitution y -> y / sqrt(2) of the
    w = 1 rule; _rule_columns gives its weights and values on some nodes alone."""
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if w not in (1, 2):
        raise ValueError("w must be 1 or 2")
    half, nodes = _rule_nodes(Q)
    w_half = _sweep(Q, half, half[:0], np.empty((0, 0)))
    weights = np.concatenate([w_half[Q % 2:][::-1], w_half])
    scale = math.sqrt(2.0) if w == 2 else 1.0  # x / 1.0 is x, bit for bit
    return QuadratureRule(nodes / scale, weights / scale, w)


def _rule_columns(half: np.ndarray, nodes: np.ndarray, cols: np.ndarray,
                  K_eval: int) -> tuple[np.ndarray, np.ndarray]:
    """(weights, values) of the w = 2 rule gauss_hermite_rule(Q, 2) at its columns
    `cols`, bit for bit, from (half, nodes) = _rule_nodes(Q) alone: one _sweep over
    the columns' w = 2 nodes and their distinct mirrors half[|2 i - (Q - 1)| // 2]."""
    mirror, inv = np.unique(np.abs(2 * cols - (nodes.size - 1)) // 2, return_inverse=True)
    table = np.empty((K_eval + 1, cols.size))
    w_half = _sweep(nodes.size, half[mirror], nodes[cols] / math.sqrt(2.0), table)
    return w_half[inv] / math.sqrt(2.0), table


@dataclass
class HermiteBasis:
    """Truncated tensor Hermite basis: all modes with max_j m_j <= K in dimension d.

    Value tables go up to K_eval = K + HEADROOM so that ladder images of degree-K
    fields (one extra degree per applied letter) can still be synthesized on the grid.
    Tables and rules are built lazily; coefficient-space work never touches them.
    """

    d: int
    K: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.K < 0:
            raise ValueError("K must be >= 0")
        if self.K_eval > HARD_CAP_K_EVAL:
            raise ValueError(
                f"K_eval = {self.K_eval} exceeds the hard cap {HARD_CAP_K_EVAL}"
            )

    @property
    def K_eval(self) -> int:
        return self.K + HEADROOM

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.K + 1,) * self.d

    @cached_property
    def rule(self) -> QuadratureRule:
        return gauss_hermite_rule(2 * self.K + 2, w=2)

    @cached_property
    def values(self) -> np.ndarray:
        """(K_eval+1, Q) table of 1-D Hermite function values on the rule nodes."""
        return _mirrored_values(self.K_eval, self.rule.nodes)

    @cached_property
    def companion_rule(self) -> QuadratureRule:
        """The w = 1 parent rule (nodes sqrt(2) x_i): exact for *bilinear* products."""
        return gauss_hermite_rule(2 * self.K + 2, w=1)

    @cached_property
    def companion_values(self) -> np.ndarray:
        return _mirrored_values(self.K_eval, self.companion_rule.nodes)

    @cached_property
    def lambda_sq(self) -> np.ndarray:
        """Tensor of eigenvalues 2|m| + d over the coefficient shape (integer-exact)."""
        return eigenvalue_box(self.d, self.K + 1)

    @cached_property
    def _synthesis_matrix(self) -> np.ndarray:
        """(Q, K+1) contiguous synthesis table: row i is h_m(x_i), m = 0..K."""
        return np.ascontiguousarray(self.values[: self.K + 1].T)

    @cached_property
    def _dual_matrix(self) -> np.ndarray:
        """(K+1, Q) raw dual functionals: row m is W_i h_m(x_i).

        Contracting grid values against these rows is the exact Galerkin projection
        for integrands of the quartic class (three basis-size factors against h_m).
        """
        return self.values[: self.K + 1] * self.rule.weights


@dataclass(eq=False)
class SpectralField:
    """A field u = sum_m coeffs[m] h_m over a HermiteBasis (dense coefficient tensor)."""

    basis: HermiteBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != self.basis.shape:
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match basis {self.basis.shape}"
            )

    @classmethod
    def zero(cls, basis: HermiteBasis) -> "SpectralField":
        return cls(basis, np.zeros(basis.shape, dtype=complex))

    @classmethod
    def from_mode(cls, basis: HermiteBasis, m, amplitude: complex = 1.0) -> "SpectralField":
        m = MultiIndex(m)
        if len(m) != basis.d:
            raise ValueError("multi-index dimension mismatch")
        if max(m) > basis.K:
            raise ValueError("mode degree exceeds basis K")
        u = cls.zero(basis)
        u.coeffs[m] = amplitude
        return u

    def copy(self) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs.copy())

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if other.basis is not self.basis:
            raise ValueError("fields live on different bases")
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if other.basis is not self.basis:
            raise ValueError("fields live on different bases")
        return SpectralField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs * scalar)

    __rmul__ = __mul__


def _pass_buffers(d: int, k: int, m: int) -> list[np.ndarray]:
    """Output buffers of the d passes of _contract_planes: two (k,)*d planes to (m,)*d."""
    return [np.empty((2,) + (m,) * (j + 1) + (k,) * (d - j - 1)) for j in range(d)]


def _contract_planes(x: np.ndarray, table: np.ndarray, outs: list[np.ndarray]) -> np.ndarray:
    """Apply the real (m, k) `table` along every spatial axis of the planes x.

    Plane layout: x has shape (2,) + (k,)*d, the real and imaginary parts of one
    complex tensor, so each pass is a real GEMM (no complex upcast of the table).
    Pass j writes into outs[j] (see _pass_buffers): axes 1..d-1 are contracted by
    left-multiplying, table @ x.reshape(lead, k, -1), and the last axis by
    right-multiplying, x.reshape(-1, k) @ table.T.  Nothing is allocated; returns
    outs[-1], of shape (2,) + (m,)*d.
    """
    m, k = table.shape
    lead = x.shape[0]
    for out in outs[:-1]:
        np.matmul(table, x.reshape(lead, k, -1), out=out.reshape(lead, m, -1))
        x = out
        lead *= m
    np.matmul(x.reshape(-1, k), table.T, out=outs[-1].reshape(-1, m))
    return outs[-1]


def _transform(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """_contract_planes on the planes of a (real or complex); a fresh complex result."""
    x = np.empty((2,) + a.shape)
    x[0] = a.real
    x[1] = a.imag
    m, k = table.shape
    y = _contract_planes(x, table, _pass_buffers(a.ndim, k, m))
    out = np.empty(y.shape[1:], dtype=complex)
    out.real = y[0]
    out.imag = y[1]
    return out


def synthesize(u: SpectralField) -> np.ndarray:
    """Evaluate the field on the tensor quadrature grid of its basis. Shape (Q,)*d."""
    return _transform(u.coeffs, u.basis._synthesis_matrix)


def galerkin_project(values: np.ndarray, basis: HermiteBasis) -> SpectralField:
    """Raw dual projection of grid values: coefficients int f h_m dx by the rule.

    Exact for f in the quartic class (e.g. the cubic nonlinearity of degree-K fields).
    """
    values = np.asarray(values)
    if values.shape != (basis.rule.size,) * basis.d:
        raise ValueError("value tensor does not match the basis grid")
    return SpectralField(basis, _transform(values, basis._dual_matrix))
