"""Coarse Nystrom preconditioner M = A_nys + lambda_tilde*I from a sparse sketch.

Given PSD A sketched by a sparse embedding S, the preconditioner is defined by
C = A S^T and W = S A S^T through the regularized inversion formula

    M^{-1} = (1/lt) * (I - C (C^T C + lt*W)^{-1} C^T),      lt = lambda + lambda0,

which never forms the rank-s approximation C W^{-1} C^T explicitly.  lambda0
compensates for the spectral tail that rank l cannot capture: the target value
(2/l) * sum_{i>l} lambda_i(A) is estimated stochastically since the spectrum
is unavailable.

W is symmetrized and carries a small diagonal jitter chosen once at build
time; the jittered W is then used consistently in every formula above, so the
inversion identity remains exact for the (jittered) preconditioner actually
applied.  The PSD build prefactors the s x s Gram matrix C^T C + lt*W_j of
the formula, so applying M^{-1} takes one direct solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tunables, sketch_nnz_per_column, sketch_rows
from .core import MatrixHandle, as_vector
from .errors import (
    DomainError,
    InconsistentEstimate,
    SizeGuardError,
    SketchRankCollapse,
)
# make_ose is unused here, but tracers rebind it by this name.
from .sketch import make_ose  # noqa: F401
from .sketch import make_sparse_embedding, sketch_apply_left, sketch_apply_right

# Seed offsets: the sparse embedding draws from default_rng(seed), so sibling
# randomness gets distinct additive offsets.  _SEED_OSE seeds the general
# path's subspace embedding Phi.
_SEED_OSE = 1
_SEED_PROBE = 2
_SEED_EST = 5

# Row factor of the PSD path's sparse embedding, a third of the general
# path's Tunables.sketch_row_factor.  There S must stay a subspace embedding;
# here it only feeds a Nystrom approximation whose level-2 system the build
# factors exactly.  s = 281 (~4.4*l) at l = 64, delta = 0.01, where the
# general factor gives 842.
_PSD_ROW_FACTOR = 0.5


@dataclass(eq=False)
class NystromPreconditioner:
    """C = A S^T, W = S A S^T and the prefactored inner system.

    `jitter` is the absolute diagonal shift applied to W everywhere it is
    used.  `inner` holds the Cholesky factor of M2 = C^T C + lt*W_j, the
    matrix of the level-2 system M2 y = C^T r.  The normal-equations path
    builds the same object for A^T A (general.GeneralMspState), where `inner`
    is None.
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
    kappa_hat: Optional[float] = None
    pm_norm: Optional[float] = None  # cached ||B|| estimate, B = A or A^T A
    build_passes: int = 0  # passes over A the build made
    _w_j: Optional[np.ndarray] = field(default=None, repr=False)
    _exact_factor: Optional[tuple] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.C.rows

    @property
    def s(self) -> int:
        return self.C.cols

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
    that wrapper's per-call lookups: about a quarter of its time at s ~ 180,
    where the level-3 loops make tens of thousands of calls per solve.
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


def jittered_cholesky(w: np.ndarray, tun: Tunables, what: str, then=None):
    """Lower Cholesky factor of W + jitter*I at the first jitter that works.

    The jitter climbs from jitter_initial to jitter_max times tr(W)/s, x10 per
    rung.  `then(w_j, jitter)` factors whatever must share the rung; its
    LinAlgError also moves to the next rung.  Returns (factor, w_j, jitter,
    then's result); factor is None when `then` is given, whose callers need
    W_j only, so it is freed before `then` allocates.  Raises
    SketchRankCollapse naming `what` when no rung works.  Only the message of
    a failed attempt is kept: holding the exception would keep its
    traceback's frames, and their arrays, alive in a reference cycle.
    """
    s = w.shape[0]
    trace_w = float(np.trace(w))
    rel = tun.jitter_initial
    reason = ""
    while rel <= tun.jitter_max * (1 + 1e-9):
        jitter = rel * trace_w / s
        w_j = w.copy()
        w_j[np.diag_indices_from(w_j)] += jitter
        try:
            factor = scipy.linalg.cho_factor(w_j, lower=True, check_finite=False)
            extra = None
            if then is not None:
                factor = None
                extra = then(w_j, jitter)
        except scipy.linalg.LinAlgError as exc:
            reason = str(exc)
        else:
            return factor, w_j, jitter, extra
        rel *= 10.0
    raise SketchRankCollapse(
        f"{what} ({s}x{s}) failed Cholesky at every jitter level up to "
        f"{tun.jitter_max:.1e}*tr(W)/s: {reason}"
    )


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


def tail_probe_factor(a, l: int, n: int, gamma: int, seed: int, tun: Tunables):
    """l-row sketch pieces (C_l, chol factor of jittered W_l) for lambda0.

    The tail sum being estimated is sum_{i>l}, so the probe sketch must have
    exactly l rows: the main embedding's s = O(l log l) rows can reach s >= n
    on small problems, where its Nystrom approximation is exact and the
    estimate collapses to the floor even though the rank-l tail is large.
    """
    emb = make_sparse_embedding(l, n, min(gamma, l), seed + _SEED_EST)
    if isinstance(a, MatrixHandle):
        c_l_handle = sketch_apply_right(a, emb)
    else:
        c_l_handle = MatrixHandle(_apply_to_columns(a, emb.matrix().T.toarray()))
    w_raw = sketch_apply_left(emb, c_l_handle).to_dense()
    w_l = 0.5 * (w_raw + w_raw.T)
    chol = jittered_cholesky(w_l, tun, "probe W")[0]
    return c_l_handle.to_dense(), chol


def psd_sketch(a, l: int, delta: float, seed: int, n: int, tun: Tunables):
    """(C = A S^T, W = S C symmetrized, gamma) for PSD A (n x n).

    S is the sparse embedding with s = min(n, ceil(0.5*l*ln(max(l/delta, e))))
    rows (_PSD_ROW_FACTOR) and gamma nonzeros per column, drawn from `seed`.
    A handle is read once; an operator-only A is applied once per column of
    S^T.  Raises DomainError unless delta is in (0, 1/2) and log n < l < n.
    """
    if not (0.0 < delta < 0.5):
        raise DomainError(f"delta must be in (0, 1/2), got {delta}")
    if not (math.log(n) < l < n):
        raise DomainError(f"rank parameter must satisfy log n < l < n, got l={l}, n={n}")
    s = sketch_rows(l, n, delta, _PSD_ROW_FACTOR)
    gamma = min(sketch_nnz_per_column(l, delta, tun), s)
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
    probes: Optional[int] = None,
    exact_tail_sum: Optional[float] = None,
    tun: Tunables = DEFAULT,
) -> NystromPreconditioner:
    """Build the two-level Nystrom preconditioner for PSD A.

    Sketches C = A S^T and W = S C (psd_sketch), estimates lambda0 from a
    separate l-row probe sketch (or uses (2/l)*exact_tail_sum when the exact
    tail is supplied, e.g. in oracle-mode tests), picks the smallest jitter
    that makes W pass Cholesky, and prefactors the level-2 matrix
    M2 = C^T C + lt*W_j.

    Every product with A is one block product, so the build streams a
    handle's A three times (S A, S_l A and the probe block; once with
    exact_tail_sum).  An operator-only A is applied once per column; the
    count is kept as `build_passes`.

    Raises SketchRankCollapse if W cannot be factored even at the largest
    jitter — re-seeding is the caller's remedy.
    """
    if isinstance(a, MatrixHandle):
        n = a.rows
    elif not callable(a) or isinstance(a, np.ndarray):
        a = MatrixHandle(np.asarray(a, dtype=np.float64), sym="spd")
        n = a.rows
    elif n is None:
        raise DomainError("operator-only A needs an explicit dimension n")
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
    c_handle, w, gamma = psd_sketch(a, l, delta, seed, n, tun)
    c = c_handle.to_dense()

    def passes(cols):
        return 1 if isinstance(a, MatrixHandle) else cols

    build_passes = passes(c_handle.cols)

    if exact_tail_sum is not None:
        lambda0 = (2.0 / l) * max(float(exact_tail_sum), 0.0)
    else:
        probes = probes if probes is not None else tun.lambda0_probes
        c_l, w_l_chol = tail_probe_factor(a, l, n, gamma, seed, tun)
        lambda0 = estimate_lambda0(a, c_l, w_l_chol, l, probes, seed)
        build_passes += passes(l) + passes(probes)
    lambda_tilde = lam + lambda0
    if lambda_tilde <= 0.0:
        raise DomainError(
            "lambda + lambda0 must be positive; the matrix appears to be zero"
        )

    m2 = g_diag = None

    def factor_m2(w_j, jitter):
        # c.T @ c (syrk) and W_j are exactly symmetric, so M2's transpose is
        # the Fortran-ordered array LAPACK factors in place, without a copy.
        # potrf writes only M2's upper triangle and diagonal, so a later rung
        # restores the upper triangle from the lower one, whose off-diagonal
        # G + lt*W does not depend on the jitter, and resets the diagonal:
        # G = C^T C is formed once per build.
        nonlocal m2, g_diag
        if m2 is None:
            m2 = c.T @ c
            g_diag = m2.diagonal().copy()
            m2 += lambda_tilde * w_j
        else:
            for i in range(m2.shape[0] - 1):
                m2[i, i + 1:] = m2[i + 1:, i]
            np.fill_diagonal(m2, g_diag + lambda_tilde * w_j.diagonal())
        return scipy.linalg.cho_factor(m2.T, lower=True, overwrite_a=True, check_finite=False)

    _, w_j, jitter, inner = jittered_cholesky(w, tun, "W", then=factor_m2)
    pre = NystromPreconditioner(
        C=c_handle,
        W=MatrixHandle(w, sym="spd"),
        lambda_tilde=lambda_tilde,
        lambda0=lambda0,
        lam=lam,
        jitter=jitter,
        inner=inner,
        l=l,
        gamma=gamma,
        seed=seed,
        build_passes=build_passes,
    )
    pre._w_j = w_j
    return pre


def apply_minv_via_formula(
    pre,
    r: np.ndarray,
    inner_solve: Callable[[np.ndarray, float], np.ndarray],
    eps1: float,
) -> np.ndarray:
    """M^{-1} r through the inversion formula with an inexact inner solve.

    `pre` is a NystromPreconditioner (of A, or of A^T A on the
    normal-equations path).  inner_solve(rhs, eps1) must
    return y_hat approximating the solution of (C^T C + lt*W_j) y = rhs with
    relative energy-norm error <= eps1; then w_hat = (r - C y_hat) / lt.
    """
    r = as_vector(r, pre.n)
    c = pre.C.to_dense()
    rhs = c.T @ r
    y = inner_solve(rhs, eps1)
    return (r - c @ y) / pre.lambda_tilde


def exact_minv_reference(pre: NystromPreconditioner, r: np.ndarray) -> np.ndarray:
    """M^{-1} r with a dense direct solve of the inner system (test oracle).

    Guard: s <= 2000 so the dense Gram factorization stays cheap.
    """
    if pre.s > 2000:
        raise SizeGuardError(f"exact reference limited to s <= 2000, got s={pre.s}")
    r = as_vector(r, pre.n)
    if pre._exact_factor is None:
        c = pre.C.to_dense()
        g = c.T @ c + pre.lambda_tilde * pre.w_jittered()
        pre._exact_factor = scipy.linalg.cho_factor(g, lower=True, check_finite=False)
    c = pre.C.to_dense()
    y = scipy.linalg.cho_solve(pre._exact_factor, c.T @ r, check_finite=False)
    return (r - c @ y) / pre.lambda_tilde
