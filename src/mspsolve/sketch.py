"""Sparse random embeddings and oblivious subspace embeddings.

A `SparseEmbedding` S (s x n) has exactly `gamma` nonzeros per column, at
uniformly-without-replacement row positions, each +/- 1/sqrt(gamma).  One
`default_rng(seed)` stream draws the whole embedding: the columns' gamma-subsets
by Floyd's algorithm (Bentley & Floyd 1987, CACM 30(9)), one vectorised step
per row slot, then all signs.  The same seed gives the same embedding.

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

from .config import ose_rows
from .core import MatrixHandle
from .errors import DimensionMismatch, DomainError

_SEED_MASK = (1 << 64) - 1
# Rows of a general dense A per sketch product in sketch_apply_right.  At
# 4000 x 512 and s = 178 (1 BLAS thread), blocks of 32-128 rows ran the
# sketch in about 0.015 s against 0.03-0.05 s for the one-shot product.
_ROW_BLOCK = 64


@dataclass(eq=False)
class SparseEmbedding:
    """Sparse sign embedding S (s x n), gamma nonzeros of +/-1/sqrt(gamma) per column."""

    s: int
    n: int
    gamma: int
    seed: int
    csc: sp.csc_matrix = field(repr=False)

    @property
    def shape(self):
        return (self.s, self.n)

    def matrix(self) -> sp.csc_matrix:
        """S as scipy CSC, its columns as drawn.

        S @ B for dense B then runs scipy's csc_matvecs, which reads each row
        of B once and scatters it to the gamma rows of its column, where CSR
        would gather every row of B gamma times.  For each output row the
        terms are summed in the same (column) order as through CSR, so the
        product is byte-identical to the CSR one.
        """
        return self.csc

    def toarray(self) -> np.ndarray:
        return self.matrix().toarray()


def make_sparse_embedding(s: int, n: int, gamma: int, seed: int) -> SparseEmbedding:
    """Draw a sparse sign embedding with independent columns.

    Each column: `gamma` distinct row indices, a uniform subset of [0, s) by
    Floyd's algorithm, and independent signs, all from one stream.
    """
    if not (1 <= gamma <= s <= n):
        raise DomainError(
            f"need 1 <= gamma <= s <= n, got gamma={gamma}, s={s}, n={n}"
        )
    rng = np.random.default_rng(seed & _SEED_MASK)
    rows = np.empty((n, gamma), dtype=np.int64)
    for k in range(gamma):  # Floyd: step k samples from [0, s-gamma+k]
        j = s - gamma + k
        t = rng.integers(0, j + 1, size=n)
        rows[:, k] = np.where((rows[:, :k] == t[:, None]).any(axis=1), j, t)
    signs = 2.0 * rng.integers(0, 2, size=(n, gamma)) - 1.0
    data = (signs / math.sqrt(gamma)).ravel()
    indptr = np.arange(0, n * gamma + 1, gamma)
    csc = sp.csc_matrix((data, rows.ravel(), indptr), shape=(s, n))
    return SparseEmbedding(s=s, n=n, gamma=gamma, seed=seed, csc=csc)


def _as_array_or_sparse(a: Union[MatrixHandle, np.ndarray]):
    if isinstance(a, MatrixHandle):
        return a.raw()
    if sp.issparse(a):
        return a
    return np.asarray(a, dtype=np.float64)


def sketch_apply_right(a: Union[MatrixHandle, np.ndarray], s_emb: SparseEmbedding) -> MatrixHandle:
    """A S^T for A (m x n): an m x s dense result in one pass over A.

    Dense A is sketched as (S A^T)^T with S in CSC, which reads each row of
    A^T once rather than gamma times: O(gamma * nnz(A)) flops.  A dense
    handle flagged "spd" is taken at its word, A^T = A, and sketched as
    (S A)^T, which reads A in place.  A general dense A is sketched in
    blocks of _ROW_BLOCK rows, since scipy copies each block's transpose
    into C order: the copy stays cache-sized, not the size of A.  Every
    output row is its own sum in the same order, so the result is
    byte-identical to the one-shot product.
    """
    mat = _as_array_or_sparse(a)
    if mat.shape[1] != s_emb.n:
        raise DimensionMismatch(
            f"A has {mat.shape[1]} columns but the embedding sketches {s_emb.n}"
        )
    s_mat = s_emb.matrix()
    if sp.issparse(mat):
        out = np.asarray((mat @ s_mat.T).todense())
    elif isinstance(a, MatrixHandle) and a.sym == "spd":
        # (S @ A)^T keeps the sparse operand on the left, which scipy
        # executes without densifying S.
        out = np.ascontiguousarray((s_mat @ mat).T)
    else:
        out = np.empty((mat.shape[0], s_emb.s))
        for i in range(0, mat.shape[0], _ROW_BLOCK):
            out[i:i + _ROW_BLOCK] = (s_mat @ mat[i:i + _ROW_BLOCK].T).T
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
    phi = ose_rows(n, d, delta, epsilon)
    if phi >= n:
        return OseSketch(phi=n, n=n, epsilon=epsilon, embedding=None)
    gamma = max(2, math.ceil(math.log(d) - math.log(delta)))
    gamma = min(gamma, phi)
    emb = make_sparse_embedding(phi, n, gamma, seed)
    return OseSketch(phi=phi, n=n, epsilon=epsilon, embedding=emb)
