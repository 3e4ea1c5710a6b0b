"""Sparse random embeddings and oblivious subspace embeddings.

A `SparseEmbedding` S (s x n) has exactly `gamma` nonzeros per column, at
uniformly-without-replacement row positions, each +/- 1/sqrt(gamma).  Columns
are generated independently from a counter-based generator keyed by
(seed, column index), so the structure is reproducible bit-for-bit and safe
to regenerate in any order (or in parallel).

The column law is NumPy's: column j is what
`Generator(Philox(key=(seed, j)))` draws with one `integers(k, s)` per
Fisher-Yates step and then `integers(0, 2, size=gamma)` for the signs.
Philox4x64-10 is counter-based (Salmon et al., SC 2011) and NumPy bounds a
32-bit draw u to [k, s) as k + ((u*(s-k)) >> 32), rejecting u when the
product's low word falls below 2^32 mod (s-k) (Lemire 2019, ACM TOMACS 29).
So `make_sparse_embedding` evaluates Philox for all columns at once in uint64
arrays and resolves the swaps over the gamma touched positions.  Only a
column with a rejected draw, rare at s << 2^32, is redrawn through its own
generator, as is every column when gamma == s (the last step then consumes
no draw) or s > 2^32 (NumPy switches to 64-bit draws).

An `OseSketch` is the same construction sized for the subspace-embedding
property: with phi = min(n, ceil(c_phi*(d + ln(1/delta))/epsilon^2)) rows it
preserves the norms of vectors in any fixed d-dimensional subspace to a
(1+epsilon) factor with probability 1-delta.  When phi reaches n the sketch
degenerates to the identity and is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .config import DEFAULT, Tunables, ose_rows
from .core import MatrixHandle
from .errors import DimensionMismatch, DomainError

_SEED_MASK = (1 << 64) - 1
_LO32 = (1 << 32) - 1
_LO32_U64 = np.uint64(_LO32)
_U64_32 = np.uint64(32)
# Philox4x64-10 multipliers and key increments (Random123, as in NumPy).
_PHILOX_ROUNDS = 10
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1_U64 = np.uint64(0xBB67AE8584CAA73B)
# Columns per block draw, bounding its uint64 temporaries to a few MB.
_BLOCK_COLS = 1 << 14


def _column_rng(seed: int, col: int) -> np.random.Generator:
    key = np.array([seed & _SEED_MASK, col], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_without_replacement(rng: np.random.Generator, s: int, gamma: int) -> np.ndarray:
    """First `gamma` entries of a Fisher-Yates shuffle of range(s), lazily.

    Only the touched positions of the virtual array are tracked, so cost is
    O(gamma) regardless of s.
    """
    state: dict = {}
    out = np.empty(gamma, dtype=np.int64)
    for k in range(gamma):
        j = int(rng.integers(k, s))
        out[k] = state.get(j, j)
        state[j] = state.get(k, k)
    return out


@dataclass(eq=False)
class SparseEmbedding:
    """Sparse sign embedding S (s x n), gamma nonzeros of +/-1/sqrt(gamma) per column."""

    s: int
    n: int
    gamma: int
    seed: int
    rows: np.ndarray = field(repr=False)  # (n, gamma) row indices per column
    signs: np.ndarray = field(repr=False)  # (n, gamma) in {-1, +1}
    _csc: Optional[sp.csc_matrix] = field(default=None, repr=False, compare=False)

    @property
    def shape(self):
        return (self.s, self.n)

    @property
    def params(self):
        """(seed, s, n, gamma) — enough to regenerate the structure exactly."""
        return (self.seed, self.s, self.n, self.gamma)

    def matrix(self) -> sp.csc_matrix:
        """Materialize S as scipy CSC (cached), its columns as drawn.

        S @ B for dense B then runs scipy's csc_matvecs, which reads each row
        of B once and scatters it to the gamma rows of its column, where CSR
        would gather every row of B gamma times.  For each output row the
        terms are summed in the same (column) order as through CSR, so the
        product is byte-identical to the CSR one.
        """
        if self._csc is None:
            data = (self.signs / math.sqrt(self.gamma)).ravel()
            indptr = np.arange(0, self.n * self.gamma + 1, self.gamma)
            self._csc = sp.csc_matrix(
                (data, self.rows.ravel(), indptr), shape=(self.s, self.n)
            )
        return self._csc

    def toarray(self) -> np.ndarray:
        return self.matrix().toarray()


def make_sparse_embedding(s: int, n: int, gamma: int, seed: int) -> SparseEmbedding:
    """Draw a sparse sign embedding with independent columns.

    Each column: `gamma` distinct row indices by partial Fisher-Yates over
    [0, s), signs from the same per-column stream.  The draw is vectorised
    over columns (`_block_columns`); it is bit-identical to drawing each
    column through `_column_rng`, which redraws the columns the block
    evaluation cannot reproduce.
    """
    if not (1 <= gamma <= s <= n):
        raise DomainError(
            f"need 1 <= gamma <= s <= n, got gamma={gamma}, s={s}, n={n}"
        )
    rows = np.empty((n, gamma), dtype=np.int64)
    signs = np.empty((n, gamma), dtype=np.float64)
    for start in range(0, n, _BLOCK_COLS):
        stop = min(n, start + _BLOCK_COLS)
        rows[start:stop], signs[start:stop] = _draw_columns(
            seed, np.arange(start, stop), s, gamma
        )
    return SparseEmbedding(s=s, n=n, gamma=gamma, seed=seed, rows=rows, signs=signs)


def _draw_columns(seed: int, cols: np.ndarray, s: int, gamma: int):
    """(rows, signs) of the given columns: block draw, scalar redraw where needed."""
    rows, signs, redo = _block_columns(seed, cols, s, gamma)
    for i in np.flatnonzero(redo):
        rng = _column_rng(seed, int(cols[i]))
        rows[i] = _sample_without_replacement(rng, s, gamma)
        signs[i] = 2.0 * rng.integers(0, 2, size=gamma) - 1.0
    return rows, signs


def _philox4x64(ctr: np.ndarray, key0: int, key1: np.ndarray) -> list:
    """The four output words of Philox4x64-10 at counters (ctr, 0, 0, 0).

    key0 is shared by every counter, key1 is an array broadcasting against
    ctr.  The 64x64 -> 128-bit products are split into 32-bit halves, since
    uint64 arrays keep only the low word.
    """
    c0 = ctr
    c1 = c2 = c3 = np.zeros_like(ctr)
    k1 = key1
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((key0 + r * _PHILOX_W0) & _SEED_MASK)
        if r:
            k1 = k1 + _PHILOX_W1_U64
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return [c0, c1, c2, c3]


def _mulhilo(m: int, a: np.ndarray):
    """High and low words of the 128-bit product m*a, elementwise."""
    m_lo, m_hi = np.uint64(m & _LO32), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32_U64, a >> _U64_32
    lo_lo, lo_hi, hi_lo = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    carry = ((lo_lo >> _U64_32) + (lo_hi & _LO32_U64) + (hi_lo & _LO32_U64)) >> _U64_32
    hi = a_hi * m_hi + (lo_hi >> _U64_32) + (hi_lo >> _U64_32) + carry
    return hi, a * np.uint64(m)


def _block_columns(seed: int, cols: np.ndarray, s: int, gamma: int):
    """(rows, signs, redo) of the column law, evaluated for all `cols` at once.

    NumPy's Philox emits four 64-bit words per counter, starting at counter
    1, and hands them out as 32-bit halves, low half first.  Fisher-Yates
    step k takes one half u to k + ((u*(s-k)) >> 32), a sign takes u >> 31.
    `redo` marks the columns this cannot reproduce: those where a step's
    draw is rejected, and all of them when gamma == s or s > 2^32.
    """
    nc = len(cols)
    rows = np.empty((nc, gamma), dtype=np.int64)
    signs = np.empty((nc, gamma), dtype=np.float64)
    if not gamma < s <= 1 << 32:
        return rows, signs, np.ones(nc, dtype=bool)
    ctr = np.arange(1, (gamma + 3) // 4 + 1, dtype=np.uint64)
    words = np.stack(
        _philox4x64(ctr[None, :], seed & _SEED_MASK,
                    np.asarray(cols, dtype=np.uint64)[:, None]),
        axis=-1,
    )  # (nc, counters, 4)
    halves = np.stack([words & _LO32_U64, words >> _U64_32], axis=-1).reshape(nc, -1)
    bound = np.array([s - k for k in range(gamma)], dtype=np.uint64)
    prod = halves[:, :gamma] * bound
    threshold = np.array([(1 << 32) % (s - k) for k in range(gamma)], dtype=np.uint64)
    redo = ((prod & _LO32_U64) < threshold).any(axis=1)
    pick = (prod >> _U64_32).astype(np.int64) + np.arange(gamma)
    # Partial Fisher-Yates over the touched positions only: step k reads the
    # value at pick[:, k] and writes there the value at position k, where
    # each read sees the latest earlier write to that position.
    moved = np.empty((nc, gamma), dtype=np.int64)
    for k in range(gamma):
        at_pick = pick[:, k].copy()
        at_k = np.full(nc, k, dtype=np.int64)
        for t in range(k):
            at_pick = np.where(pick[:, t] == pick[:, k], moved[:, t], at_pick)
            at_k = np.where(pick[:, t] == k, moved[:, t], at_k)
        rows[:, k] = at_pick
        moved[:, k] = at_k
    signs[:] = 2.0 * (halves[:, gamma:2 * gamma] >> np.uint64(31)) - 1.0
    return rows, signs, redo


def _as_array_or_sparse(a: Union[MatrixHandle, np.ndarray]):
    if isinstance(a, MatrixHandle):
        return a.raw()
    if sp.issparse(a):
        return a
    return np.asarray(a, dtype=np.float64)


def sketch_apply_right(a: Union[MatrixHandle, np.ndarray], s_emb: SparseEmbedding) -> MatrixHandle:
    """A S^T for A (m x n): an m x s dense result in one pass over A.

    Dense A is sketched as (S A^T)^T with S in CSC, which reads each row of
    A^T once rather than gamma times: O(gamma * nnz(A)) flops.  scipy first
    copies a general A^T into C order; a dense handle flagged "spd" is taken
    at its word, A^T = A, and sketched as (S A)^T, which reads A in place.
    """
    mat = _as_array_or_sparse(a)
    if mat.shape[1] != s_emb.n:
        raise DimensionMismatch(
            f"A has {mat.shape[1]} columns but the embedding sketches {s_emb.n}"
        )
    s_mat = s_emb.matrix()
    if sp.issparse(mat):
        out = np.asarray((mat @ s_mat.T).todense())
    else:
        # (S @ A^T)^T keeps the sparse operand on the left, which scipy
        # executes without densifying S.
        if not (isinstance(a, MatrixHandle) and a.sym == "spd"):
            mat = mat.T
        out = np.ascontiguousarray((s_mat @ mat).T)
    return MatrixHandle(out)


def sketch_apply_left(s_emb: SparseEmbedding, b: Union[MatrixHandle, np.ndarray]) -> MatrixHandle:
    """S B for B (n x k): an s x k dense result in one pass over B."""
    mat = _as_array_or_sparse(b)
    if mat.ndim != 2 or mat.shape[0] != s_emb.n:
        raise DimensionMismatch(
            f"B has shape {mat.shape} but the embedding sketches {s_emb.n} rows"
        )
    s_mat = s_emb.matrix()
    out = s_mat @ mat
    if sp.issparse(out):
        out = np.asarray(out.todense())
    return MatrixHandle(np.ascontiguousarray(out))


@dataclass
class OseSketch:
    """Subspace embedding Phi (phi x n); embedding=None means identity (phi == n)."""

    phi: int
    n: int
    epsilon: float
    embedding: Optional[SparseEmbedding]

    @property
    def is_identity(self) -> bool:
        return self.embedding is None

    def apply(self, b: Union[MatrixHandle, np.ndarray]) -> np.ndarray:
        """Phi B as a dense array (B passes through unchanged for identity)."""
        mat = _as_array_or_sparse(b)
        if mat.shape[0] != self.n:
            raise DimensionMismatch(
                f"operand has {mat.shape[0]} rows, sketch expects {self.n}"
            )
        if self.embedding is None:
            return mat.toarray() if sp.issparse(mat) else np.asarray(mat)
        out = self.embedding.matrix() @ mat
        if sp.issparse(out):
            out = np.asarray(out.todense())
        return np.asarray(out)


def make_ose(
    n: int,
    d: int,
    delta: float,
    epsilon: float,
    seed: int,
    tun: Tunables = DEFAULT,
) -> OseSketch:
    """Size and draw a subspace embedding for d-dimensional subspaces of R^n.

    Rows: phi = min(n, ceil(c_phi*(d + ln(1/delta))/epsilon^2)); nonzeros per
    column: max(2, ceil(ln(d/delta))).  phi == n returns the exact identity
    sketch.
    """
    if d > n:
        raise DomainError(f"subspace dimension d={d} exceeds ambient n={n}")
    if not (0.0 < epsilon <= 0.5):
        raise DomainError(f"epsilon must be in (0, 1/2], got {epsilon}")
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta must be in (0, 1/2), got {delta}")
    phi = ose_rows(n, d, delta, epsilon, tun)
    if phi >= n:
        return OseSketch(phi=n, n=n, epsilon=epsilon, embedding=None)
    gamma = max(2, math.ceil(math.log(d / delta)))
    gamma = min(gamma, phi)
    emb = make_sparse_embedding(phi, n, gamma, seed)
    return OseSketch(phi=phi, n=n, epsilon=epsilon, embedding=emb)
