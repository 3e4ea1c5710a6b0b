"""Coarse Nystrom preconditioner M = A_nys + lambda_tilde*I from a sparse sketch.

Given PSD A sketched by a sparse embedding S, the approximation is
A_nys = C W_j^{-1} C^T with C = A S^T and W = S A S^T (W_j jittered).  With
L the Cholesky factor of W_j and Y = L^{-1} C^T (s x n), A_nys = Y^T Y, so
Woodbury gives

    M^{-1} = (1/lt) * (I - Y^T G^{-1} Y),   G = Y Y^T + lt*I,   lt = lambda + lambda0,

which never forms the rank-s approximation explicitly.  Frangella, Tropp &
Udell (SIMAX 2023) apply their Nystrom preconditioner from the same Y.
G >= lt*I, so its Cholesky factorization cannot fail once W has factored.
The normal-equations path applies the same M^{-1} through the equivalent
formula (1/lt) * (I - C (C^T C + lt*W_j)^{-1} C^T) (apply_minv_via_formula).

lambda0 compensates for the spectral tail that rank l cannot capture: its
target value is (2/l) * sum_{i>l} lambda_i(A).  The build reads the
eigenvalues mu of its own approximation, those of Y Y^T (nystrom_core).
A_nys <= A gives mu_i <= lambda_i(A), so mu_max stands in for ||A|| and, for
a matrix, tr(A) - sum_{i<=l} mu_i bounds the tail sum from above.  An
operator-only A has no exact trace; its tail is estimated stochastically
from a separate l-row sketch.

W is symmetrized and carries a small diagonal jitter chosen once at build
time; the jittered W is then used consistently in every formula above, so the
inversion identity remains exact for the (jittered) preconditioner actually
applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg

from .config import JITTER_INITIAL, JITTER_MAX, LAMBDA0_PROBES
from .core import MatrixHandle, as_vector
from .errors import DomainError, InconsistentEstimate, SketchRankCollapse
# make_ose is unused here, but tracers rebind it by this name.
from .sketch import make_ose  # noqa: F401
from .sketch import make_sparse_embedding, sketch_apply_left, sketch_apply_right

# Seed offsets: the sparse embedding draws from default_rng(seed), so sibling
# randomness gets distinct additive offsets.
_SEED_PROBE = 2
_SEED_EST = 5

# Shape of the PSD path's sparse embedding: s = min(n, _PSD_OVERSAMPLE*l)
# rows, min(s, _PSD_NNZ) nonzeros per column.  Level 2 factors G exactly, so
# S only has to find A's top range, as a randomized range finder does
# (Halko, Martinsson & Tropp 2011); a poorer sketch costs level-1 steps, not
# accuracy.  The general path's S must stay a subspace embedding and keeps
# config.sketch_rows.
_PSD_OVERSAMPLE = 2
_PSD_NNZ = 4


@dataclass(eq=False)
class NystromPreconditioner:
    """C = A S^T, W = S A S^T and the prefactored inner system.

    `jitter` is the absolute diagonal shift applied to W everywhere it is
    used.  `mu` holds the eigenvalues (ascending) of B's Nystrom
    approximation, B = A or A^T A.  On the PSD path `Y` is L^{-1} C^T and
    `inner` the Cholesky factor of G = Y Y^T + lt*I, the level-2 matrix.  The
    normal-equations path builds the same object for A^T A
    (general.GeneralMspState), where `Y` and `inner` are None.
    """

    C: MatrixHandle
    W: MatrixHandle
    lambda_tilde: float
    lambda0: float
    lam: float
    jitter: float
    inner: Optional[tuple]
    l: int
    gamma: int
    seed: int
    mu: np.ndarray
    Y: Optional[np.ndarray] = field(default=None, repr=False)
    kappa_hat: Optional[float] = None
    build_passes: int = 0  # passes over A the build made
    # products with A the build made one vector (or probe) at a time, which
    # a solve that builds counts in its matvecs
    build_matvecs: int = 0
    _w_j: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.C.rows

    @property
    def s(self) -> int:
        return self.C.cols

    @property
    def pm_norm(self) -> float:
        """Estimate of ||B||: mu_max, a lower bound that reads close in the design regime."""
        return float(self.mu[-1])

    def w_jittered(self) -> np.ndarray:
        if self._w_j is None:
            w = np.array(self.W.to_dense(), copy=True)
            w[np.diag_indices_from(w)] += self.jitter
            self._w_j = w
        return self._w_j

    def diagnostics(self) -> dict:
        """JSON-ready fragment describing the built preconditioner."""
        return {
            "s": self.s,
            "gamma": self.gamma,
            "l": self.l,
            "lambda0": self.lambda0,
            "lambda_tilde": self.lambda_tilde,
            "jitter": self.jitter,
            "kappa_hat": self.kappa_hat,
            "build_passes": self.build_passes,
        }


def _apply_to_columns(a, cols: np.ndarray) -> np.ndarray:
    """A @ cols for A given as handle/array/callable."""
    if isinstance(a, MatrixHandle):
        return a.matmat(cols)
    if callable(a) and not isinstance(a, np.ndarray):
        out = np.empty_like(cols)
        for j in range(cols.shape[1]):
            out[:, j] = a(cols[:, j])
        return out
    return np.asarray(a, dtype=np.float64) @ cols


def cho_apply(factor: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """rhs -> x solving L L^T x = rhs for a (c, lower) pair from cho_factor.

    Binds LAPACK potrs once for the factor and keeps cho_solve's checks (a
    square factor, an rhs of matching length, ValueError on info != 0).  x
    is byte-identical to cho_solve(factor, rhs, check_finite=False), without
    that wrapper's per-call lookups (about a quarter of its time at s ~ 180).
    PSD level 2 and the least-squares solver apply a factor once per Lanczos
    step through it; the general path's level 3 applies explicit inverses
    instead (general.build_general).
    """
    c, lower = factor
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("The factored matrix c is not square.")
    (potrs,) = scipy.linalg.get_lapack_funcs(("potrs",), (c,))

    def apply(rhs):
        rhs = np.asarray(rhs)
        if rhs.shape[0] != c.shape[1]:
            raise ValueError(f"incompatible dimensions ({c.shape} and {rhs.shape})")
        x, info = potrs(c, rhs, lower=lower, overwrite_b=False)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return x

    return apply


def jittered_cholesky(w: np.ndarray, what: str):
    """Lower Cholesky factor of W + jitter*I at the first jitter that works.

    The jitter climbs from JITTER_INITIAL to JITTER_MAX times tr(W)/s, x10 per
    rung.  Returns (factor, w_j, jitter).  Raises SketchRankCollapse naming
    `what` when no rung works.
    Only the message of a failed attempt is kept: holding the exception
    would keep its traceback's frames, and their arrays, alive in a
    reference cycle.
    """
    s = w.shape[0]
    trace_w = float(np.trace(w))
    rel = JITTER_INITIAL
    reason = ""
    while rel <= JITTER_MAX * (1 + 1e-9):
        jitter = rel * trace_w / s
        w_j = w.copy()
        w_j[np.diag_indices_from(w_j)] += jitter
        try:
            factor = scipy.linalg.cho_factor(w_j, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            reason = str(exc)
        else:
            return factor, w_j, jitter
        rel *= 10.0
    raise SketchRankCollapse(
        f"{what} ({s}x{s}) failed Cholesky at every jitter level up to "
        f"{JITTER_MAX:.1e}*tr(W)/s: {reason}"
    )


def nystrom_core(c: np.ndarray, w_factor) -> tuple:
    """(Y, Y Y^T, mu) for B_nys = C W_j^{-1} C^T = Y^T Y, Y = L^{-1} C^T.

    L is the Cholesky factor of W_j.  mu are the eigenvalues (ascending,
    clipped at 0) of the s x s matrix Y Y^T, which are those of B_nys.  Y is
    formed first: L^{-1} (C^T C) L^{-T} holds the same eigenvalues in exact
    arithmetic but cancels where the tail is small.
    C W_j^{-1} C^T <= C W^+ C^T <= B for any jitter >= 0, so
    mu_i <= lambda_i(B).  Y Y^T (syrk) is exactly symmetric.
    """
    y = scipy.linalg.solve_triangular(w_factor[0], c.T, lower=w_factor[1], check_finite=False)
    yyt = y @ y.T
    return y, yyt, np.maximum(scipy.linalg.eigvalsh(yyt, check_finite=False), 0.0)


def lambda0_from_probes(probe, n: int, w_factor, l: int, probes: int, seed: int,
                        trace: Optional[float] = None) -> float:
    """(2/l) * (Hutchinson estimate of tr(B - B_nys)) from Rademacher probes.

    The probes are the rows of one (probes x n) draw Z, the same stream as
    drawing them one at a time.  probe(Z) returns (z_p^T B z_p for every row
    z_p, C_l^T Z^T) for the l-row sketch block C_l, so B is applied to all
    probes in one block product.  Each probe contributes
    z^T B z - ||L^{-1} C_l^T z||^2, L the Cholesky factor of the (jittered)
    W_l.  tr(B) anchors the floor 1e-12*tr(B), which keeps lambda0
    nonnegative, and the sanity check: a tail estimate below -0.1*tr(B)
    means the factor is broken.  `trace` is the exact tr(B) when known, else
    the probes' mean of z^T B z.
    """
    if probes < 1:
        raise DomainError(f"need at least one probe, got {probes}")
    rng = np.random.default_rng([seed & ((1 << 63) - 1), _SEED_PROBE])
    z = 2.0 * rng.integers(0, 2, size=(probes, n)) - 1.0
    trace_terms, ctz = probe(z)
    lz = scipy.linalg.solve_triangular(
        w_factor[0], ctz, lower=w_factor[1], check_finite=False
    )
    tail_terms = trace_terms - np.einsum("ij,ij->j", lz, lz)
    trace_hat = float(np.mean(trace_terms)) if trace is None else trace
    est = float(np.mean(tail_terms))
    if est < -0.1 * trace_hat:
        raise InconsistentEstimate(
            f"tail-trace estimate {est:.6e} is negative beyond tolerance "
            f"(trace {trace_hat:.6e}); W factor is inconsistent"
        )
    return (2.0 / l) * max(est, 1e-12 * trace_hat)


def estimate_lambda0(
    a,
    c: Union[MatrixHandle, np.ndarray],
    w_factor,
    l: int,
    probes: int,
    seed: int,
) -> float:
    """Estimate lambda0 = (2/l) * sum_{i>l} lambda_i(A) stochastically.

    The tail sum equals tr(A - A_nys) when the sketch captures the top-l
    range, so it is estimated by Hutchinson probing (lambda0_from_probes)
    with Z -> (z^T A z per probe, C^T Z^T), the trace anchored by the probes'
    mean.  A Z^T is one block product; an operator-only A is applied to the
    probes one at a time.
    """
    c_mat = c.to_dense() if isinstance(c, MatrixHandle) else np.asarray(c)

    def probe(z):
        az = _apply_to_columns(a, z.T)
        return np.einsum("ij,ji->i", z, az), c_mat.T @ z.T

    return lambda0_from_probes(probe, c_mat.shape[0], w_factor, l, probes, seed)


def tail_probe_factor(a, l: int, n: int, gamma: int, seed: int):
    """l-row sketch pieces (C_l, chol factor of jittered W_l) for lambda0.

    The tail sum being estimated is sum_{i>l}, so the probe sketch must have
    exactly l rows: the main embedding's s = 2l rows can reach s = n on
    small problems, where its Nystrom approximation is exact and the
    estimate collapses to the floor even though the rank-l tail is large.
    """
    emb = make_sparse_embedding(l, n, min(gamma, l), seed + _SEED_EST)
    if isinstance(a, MatrixHandle):
        c_l_handle = sketch_apply_right(a, emb)
    else:
        c_l_handle = MatrixHandle(_apply_to_columns(a, emb.matrix().T.toarray()))
    w_raw = sketch_apply_left(emb, c_l_handle).to_dense()
    w_l = 0.5 * (w_raw + w_raw.T)
    chol = jittered_cholesky(w_l, "probe W")[0]
    return c_l_handle.to_dense(), chol


def psd_sketch_shape(l: int, n: int) -> tuple:
    """(s, gamma): rows and nonzeros per column of the PSD sketch for rank l.

    s = min(n, _PSD_OVERSAMPLE*l) and gamma = min(s, _PSD_NNZ).
    """
    s = min(n, _PSD_OVERSAMPLE * l)
    return s, min(s, _PSD_NNZ)


def psd_sketch(a, l: int, delta: float, seed: int, n: int):
    """(C = A S^T, W = S C symmetrized, gamma) for PSD A (n x n).

    S is the sparse embedding of psd_sketch_shape(l, n), drawn from `seed`;
    delta does not size it.  A handle is read once; an operator-only A is
    applied once per column of S^T.  Raises DomainError unless delta is in
    (0, 1/2) and log n < l < n.
    """
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta must be in (0, 1/2), got {delta}")
    if not (math.log(n) < l < n):
        raise DomainError(f"rank parameter must satisfy log n < l < n, got l={l}, n={n}")
    s, gamma = psd_sketch_shape(l, n)
    emb = make_sparse_embedding(s, n, gamma, seed)
    if isinstance(a, MatrixHandle):
        c_handle = sketch_apply_right(a, emb)
    else:
        c_handle = MatrixHandle(_apply_to_columns(a, emb.matrix().T.toarray()))
    w_raw = sketch_apply_left(emb, c_handle).to_dense()
    return c_handle, 0.5 * (w_raw + w_raw.T), gamma


def build_nystrom_psd(
    a,
    l: int,
    lam: float,
    delta: float,
    seed: int,
    *,
    n: Optional[int] = None,
) -> NystromPreconditioner:
    """Build the two-level Nystrom preconditioner for PSD A.

    Sketches C = A S^T and W = S C (psd_sketch), picks the smallest jitter
    that makes W pass Cholesky, forms Y = L^{-1} C^T, Y Y^T and its
    eigenvalues mu (nystrom_core) and factors G = Y Y^T + lt*I in place.
    pm_norm = mu_max.  For a matrix, lambda0 = (2/l) * max(tr(A) -
    sum_{i<=l} mu_i, 1e-12*tr(A)) with the exact trace, an upper bound of the
    tail term.  An operator-only A has no exact trace: its lambda0 is
    estimated from a separate l-row sketch and LAMBDA0_PROBES probes.

    A handle's A is streamed once (S A).  An operator-only A is applied once
    per column of S^T, of S_l^T and of the probe block; the count is kept as
    `build_passes`.

    Raises SketchRankCollapse if W cannot be factored even at the largest
    jitter — re-seeding is the caller's remedy.
    """
    if isinstance(a, MatrixHandle):
        n = a.rows
    elif not callable(a):
        a = MatrixHandle(a, sym="spd")
        n = a.rows
    elif n is None:
        raise DomainError("operator-only A needs an explicit dimension n")
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    matrix = isinstance(a, MatrixHandle)
    c_handle, w, gamma = psd_sketch(a, l, delta, seed, n)

    if matrix:
        # The diagonal gives tr(A) exactly, without densifying a CSR A.
        trace = float(a.raw().diagonal().sum())
        build_passes = 1
    else:
        c_l, w_l_chol = tail_probe_factor(a, l, n, gamma, seed)
        lambda0 = estimate_lambda0(a, c_l, w_l_chol, l, LAMBDA0_PROBES, seed)
        build_passes = c_handle.cols + l + LAMBDA0_PROBES
        if lam + lambda0 <= 0.0:
            raise DomainError(
                "lambda + lambda0 must be positive; the operator appears to be zero"
            )
    w_factor, w_j, jitter = jittered_cholesky(w, "W")
    y, g, mu = nystrom_core(c_handle.to_dense(), w_factor)
    if matrix:  # mu[-l:] is all of mu when l exceeds its length
        lambda0 = (2.0 / l) * max(trace - float(np.sum(mu[-l:])), 1e-12 * trace)
    g[np.diag_indices_from(g)] += lam + lambda0
    # G is exactly symmetric, so its transpose is the Fortran-ordered array
    # LAPACK factors in place, without a copy.
    inner = scipy.linalg.cho_factor(g.T, lower=True, overwrite_a=True, check_finite=False)
    pre = NystromPreconditioner(
        C=c_handle,
        W=MatrixHandle(w, sym="spd"),
        lambda_tilde=lam + lambda0,
        lambda0=lambda0,
        lam=lam,
        jitter=jitter,
        inner=inner,
        l=l,
        gamma=gamma,
        seed=seed,
        mu=mu,
        Y=y,
        build_passes=build_passes,
        build_matvecs=0 if matrix else build_passes,
    )
    pre._w_j = w_j
    return pre


def apply_minv_via_formula(
    pre,
    r: np.ndarray,
    inner_solve: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """M^{-1} r = (r - C y_hat) / lt through the inversion formula, y_hat = inner_solve(C^T r).

    `pre` is a NystromPreconditioner (of A, or of A^T A on the
    normal-equations path); y_hat approximates the solution y of
    (C^T C + lt*W_j) y = C^T r.  The general path's level 2
    (general.inner_lanczos) stops on a relative residual of EPS_FLOOR in
    that system, not on an energy-norm error.
    """
    r = as_vector(r, pre.n)
    c = pre.C.to_dense()
    y = inner_solve(c.T @ r)
    return (r - c @ y) / pre.lambda_tilde
