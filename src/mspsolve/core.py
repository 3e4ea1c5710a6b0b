"""Matrix/vector substrate: dense and CSR matrices, spectra, direct factors.

Everything downstream (sketching, preconditioners, solvers) talks to matrices
through the small contract defined here: `MatrixHandle` for storage with a
uniform matvec, `as_vector` for boundary validation, plus a spectrum record,
a power-method norm estimate and a cached direct factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional, Union

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dsymv

from .errors import DimensionMismatch, DomainError, SingularMatrixError

Array = np.ndarray
Operator = Callable[[Array], Array]

_SYMMETRY_SAMPLES = 100
_SYMMETRY_RTOL = 1e-12


def as_vector(x, n: Optional[int] = None) -> Array:
    """Validate and return a 1-D float64 vector with finite entries.

    Raises DimensionMismatch on wrong shape/length and DomainError on NaN/Inf.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"expected length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector contains NaN or Inf")
    return v


class MatrixHandle:
    """Dense (row-major) or CSR real matrix with a uniform matvec contract.

    Parameters
    ----------
    data : array_like or scipy sparse matrix
        Dense 2-D array or any scipy sparse matrix (converted to CSR).
    sym : {"general", "spd"}
        Declared symmetry.  "spd" additionally asserts rows == cols and
        numerical symmetry, verified by sampling rather than a full scan.

    A dense handle may alias the caller's array: np.ascontiguousarray does
    not copy a C-ordered float64 input.  The handle caches what it derives
    from the entries (dense_factor_solve's factor, solve_krr's d_lambda
    read), so that array must not be changed in place after a solve on it.
    """

    def __init__(self, data, sym: Literal["general", "spd"] = "general"):
        if sp.issparse(data):
            mat = sp.csr_matrix(data).astype(np.float64)
            mat.sort_indices()
            self.kind = "csr"
            self._validate_csr(mat)
        else:
            mat = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
            if mat.ndim != 2:
                raise DimensionMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise DomainError("matrix contains NaN or Inf")
            self.kind = "dense"
        self._data = mat
        if sym not in ("general", "spd"):
            raise DomainError(f"unknown symmetry flag {sym!r}")
        self.sym = sym
        if sym == "spd":
            self._check_symmetry()
        self._factor = None  # cached by dense_factor, single-writer
        self._krr_memo = None  # cached by apps.solve_krr, single-writer

    @staticmethod
    def _validate_csr(mat) -> None:
        indptr, indices = mat.indptr, mat.indices
        if np.any(np.diff(indptr) < 0):
            raise DomainError("CSR row pointers must be nondecreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= mat.shape[1]):
            raise DomainError("CSR column indices out of range")
        if indptr[-1] != mat.data.size:
            raise DomainError("CSR nnz does not match last row pointer")
        if not np.all(np.isfinite(mat.data)):
            raise DomainError("matrix contains NaN or Inf")

    def _check_symmetry(self) -> None:
        if self.rows != self.cols:
            raise DomainError("symmetric-PSD flag requires a square matrix")
        n = self.rows
        if n == 0:
            return  # an empty matrix is symmetric
        rng = np.random.default_rng(0xC0FFEE)
        idx_i = rng.integers(0, n, size=_SYMMETRY_SAMPLES)
        idx_j = rng.integers(0, n, size=_SYMMETRY_SAMPLES)
        scale = 0.0
        worst = 0.0
        for i, j in zip(idx_i, idx_j):
            a_ij = float(self._data[int(i), int(j)])
            a_ji = float(self._data[int(j), int(i)])
            scale = max(scale, abs(a_ij), abs(a_ji))
            worst = max(worst, abs(a_ij - a_ji))
        if worst > _SYMMETRY_RTOL * max(scale, 1e-300):
            raise DomainError(
                f"matrix declared symmetric-PSD is asymmetric (sampled "
                f"|A_ij - A_ji| = {worst:.3e} at scale {scale:.3e})"
            )

    # -- shape ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self):
        return self._data.shape

    @property
    def nnz(self) -> int:
        if self.kind == "csr":
            return int(self._data.nnz)
        return int(self._data.size)

    # -- products -------------------------------------------------------------

    def matvec(self, x) -> Array:
        """Product A x.

        A dense "spd" handle reads only the lower triangle of A, through BLAS
        dsymv, as LAPACK's symmetric routines and dense_factor_solve's
        cho_factor(lower=True) do: half the bytes a GEMV streams.
        """
        x = as_vector(x, self.cols)
        if self.kind == "dense" and self.sym == "spd" and x.size:
            # _data is C-ordered, so _data.T is an F-ordered view that goes to
            # BLAS without a copy; its upper triangle is A's lower one.  The
            # binding rejects a length-0 x, hence the size test.
            return dsymv(1.0, self._data.T, x, lower=0)
        return np.asarray(self._data @ x)

    def rmatvec(self, x) -> Array:
        """Transpose product A^T x.

        A dense "spd" handle runs matvec, since A^T = A, so it too reads only
        the lower triangle of A, through dsymv.
        """
        if self.kind == "dense" and self.sym == "spd":
            return self.matvec(x)
        x = as_vector(x, self.rows)
        return np.asarray(self._data.T @ x)

    def matmat(self, b: Array) -> Array:
        b = np.asarray(b, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != self.cols:
            raise DimensionMismatch(
                f"matmat: {self.shape} @ {b.shape} is not conformal"
            )
        out = self._data @ b
        return np.asarray(out)

    def __matmul__(self, other):
        if isinstance(other, MatrixHandle):
            other = other._data
        if np.ndim(other) == 1:
            return self.matvec(other)
        return self.matmat(np.asarray(other))

    # -- views / conversions ----------------------------------------------------

    def to_dense(self) -> Array:
        if self.kind == "csr":
            return self._data.toarray()
        return self._data

    @property
    def T(self) -> "MatrixHandle":
        if self.sym == "spd":
            return self
        if self.kind == "csr":
            return MatrixHandle(self._data.T.tocsr(), sym="general")
        return MatrixHandle(self._data.T.copy(), sym="general")

    def raw(self):
        """Underlying ndarray or scipy CSR matrix (read-only by convention)."""
        return self._data

    def __repr__(self):
        return f"MatrixHandle({self.rows}x{self.cols}, {self.kind}, {self.sym})"


@dataclass(frozen=True)
class SpectrumSummary:
    """Eigen- or singular values sorted non-increasing."""

    values: Array
    kind: Literal["eigenvalues", "singular-values"]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size == 0:
            raise DomainError("spectrum must be a nonempty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise DomainError("spectrum contains NaN or Inf")
        if np.any(np.diff(vals) > 1e-12 * max(abs(vals[0]), 1.0)):
            raise DomainError("spectrum must be sorted non-increasing")
        if self.kind not in ("eigenvalues", "singular-values"):
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size


def matvec(a: Union[MatrixHandle, Array], x) -> Array:
    """Matrix-vector product with dimension checking; O(nnz) for CSR."""
    if isinstance(a, MatrixHandle):
        return a.matvec(x)
    a = np.asarray(a, dtype=np.float64)
    x = as_vector(x, a.shape[1])
    return a @ x


def power_method_norm(a_apply: Operator, n: int, iters: int = 30, seed: int = 0) -> float:
    """Estimate the spectral norm of a square operator by power iteration.

    Returns ||Av||/||v|| after `iters` normalized products from a seeded random
    start; for symmetric operators this is a high-probability (1 +/- 0.1)
    estimate of the top eigenvalue magnitude. The zero operator returns 0.
    """
    if n <= 0:
        raise DomainError("operator dimension must be positive")
    if iters < 1:
        raise DomainError("need at least one power iteration")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(iters):
        w = np.asarray(a_apply(v))
        nw = float(np.linalg.norm(w))
        if nw == 0.0 or not math.isfinite(nw):
            return 0.0
        estimate = nw
        v = w / nw
    return estimate


def _check_pivots(pivots: Array, scale: float, what: str) -> None:
    if scale == 0.0 or np.min(np.abs(pivots)) < 1e-14 * scale:
        raise SingularMatrixError(
            f"{what}: pivot below 1e-14 * max|A| — matrix is numerically singular"
        )


def dense_factor(a: MatrixHandle) -> tuple:
    """The direct factorization of square A, cached on the handle:
    ("cho", cho_factor pair) for an "spd" handle, ("lu", lu_factor pair)
    otherwise."""
    if a.rows != a.cols:
        raise DimensionMismatch("direct solve needs a square matrix")
    if a._factor is None:
        # One n x n copy, Fortran-ordered so LAPACK factors it in place.
        dense = np.array(a.to_dense(), dtype=np.float64, order="F", copy=True)
        scale = float(max(dense.max(), -dense.min())) if dense.size else 0.0
        if a.sym == "spd":
            try:
                cho = scipy.linalg.cho_factor(dense, lower=True, overwrite_a=True, check_finite=False)
            except scipy.linalg.LinAlgError as exc:
                raise SingularMatrixError(f"Cholesky failed: {exc}") from exc
            # Cholesky pivots are the squared diagonal of L.
            _check_pivots(np.diag(cho[0]) ** 2, scale, "Cholesky")
            a._factor = ("cho", cho)
        else:
            lu, piv = scipy.linalg.lu_factor(dense, overwrite_a=True, check_finite=False)
            _check_pivots(np.diag(lu), scale, "LU")
            a._factor = ("lu", (lu, piv))
    return a._factor


def dense_factor_solve(a: MatrixHandle, b):
    """Solve A X = B by a cached direct factorization of A.

    Cholesky when the handle is flagged symmetric-PSD, pivoted LU otherwise.
    The factor is cached on the handle so repeated right-hand sides reuse it.
    B may be a vector, a 2-D array, or a MatrixHandle; the result matches.
    """
    kind, factor = dense_factor(a)

    wrap = None
    if isinstance(b, MatrixHandle):
        rhs = b.to_dense()
        wrap = "handle"
    else:
        rhs = np.asarray(b, dtype=np.float64)
    if rhs.shape[0] != a.rows:
        raise DimensionMismatch(
            f"right-hand side has leading dimension {rhs.shape[0]}, expected {a.rows}"
        )
    if kind == "cho":
        out = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    else:
        out = scipy.linalg.lu_solve(factor, rhs, check_finite=False)
    if wrap == "handle":
        return MatrixHandle(out)
    return out


def operator_of(a: Union[MatrixHandle, Array, Operator]) -> Operator:
    """Normalize a matrix-ish object to a plain matvec callable."""
    if isinstance(a, MatrixHandle):
        return a.matvec
    if callable(a) and not isinstance(a, np.ndarray):
        return a
    arr = np.asarray(a, dtype=np.float64)

    def apply(x, _arr=arr):
        return _arr @ x

    return apply
