"""Sparse random embeddings and oblivious subspace embeddings.

A `SparseEmbedding` S (s x n) has exactly `gamma` nonzeros per column, at
uniformly-without-replacement row positions, each +/- 1/sqrt(gamma).  Columns
are generated independently from a counter-based generator keyed by
(seed, column index), so the structure is reproducible bit-for-bit and safe
to regenerate in any order (or in parallel).

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
    _csr: Optional[sp.csr_matrix] = field(default=None, repr=False, compare=False)

    @property
    def shape(self):
        return (self.s, self.n)

    @property
    def params(self):
        """(seed, s, n, gamma) — enough to regenerate the structure exactly."""
        return (self.seed, self.s, self.n, self.gamma)

    def matrix(self) -> sp.csr_matrix:
        """Materialize S as scipy CSR (cached)."""
        if self._csr is None:
            data = (self.signs / math.sqrt(self.gamma)).ravel()
            indptr = np.arange(0, self.n * self.gamma + 1, self.gamma)
            csc = sp.csc_matrix(
                (data, self.rows.ravel(), indptr), shape=(self.s, self.n)
            )
            self._csr = csc.tocsr()
        return self._csr

    def toarray(self) -> np.ndarray:
        return self.matrix().toarray()


def make_sparse_embedding(s: int, n: int, gamma: int, seed: int) -> SparseEmbedding:
    """Draw a sparse sign embedding with independent columns.

    Each column: `gamma` distinct row indices by partial Fisher-Yates over
    [0, s), signs from the same per-column stream.
    """
    if not (1 <= gamma <= s <= n):
        raise DomainError(
            f"need 1 <= gamma <= s <= n, got gamma={gamma}, s={s}, n={n}"
        )
    rows = np.empty((n, gamma), dtype=np.int64)
    signs = np.empty((n, gamma), dtype=np.float64)
    for col in range(n):
        rng = _column_rng(seed, col)
        rows[col] = _sample_without_replacement(rng, s, gamma)
        signs[col] = 2.0 * rng.integers(0, 2, size=gamma) - 1.0
    return SparseEmbedding(s=s, n=n, gamma=gamma, seed=seed, rows=rows, signs=signs)


def _as_array_or_sparse(a: Union[MatrixHandle, np.ndarray]):
    if isinstance(a, MatrixHandle):
        return a.raw()
    if sp.issparse(a):
        return a
    return np.asarray(a, dtype=np.float64)


def sketch_apply_right(a: Union[MatrixHandle, np.ndarray], s_emb: SparseEmbedding) -> MatrixHandle:
    """A S^T for A (m x n): an m x s dense result in O(gamma * nnz(A)) time."""
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
        out = np.ascontiguousarray((s_mat @ mat.T).T)
    return MatrixHandle(out)


def sketch_apply_left(s_emb: SparseEmbedding, b: Union[MatrixHandle, np.ndarray]) -> MatrixHandle:
    """S B for B (n x k): an s x k dense result in O(gamma * nnz(B)) time."""
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
