"""Three-level solver for (A^T A + lam*I) x = c with general rectangular A.

This is the PSD path (psd.py) applied to B = A^T A.  Its Nystrom
preconditioner of B is defined by the blocks C = A^T A_tilde (n x s) and
W = A_tilde^T A_tilde, with A_tilde = A S^T (m x s); GeneralMspState is that
NystromPreconditioner plus A and level 3's two inverses.
||A^T A|| is read off the same Nystrom eigenvalues, lambda0 comes from the
same Hutchinson estimator, and level 1 is the same driver
(psd.solve_level1), at two products with A per apply of B.  The build
forms C and W once, so levels 2 and 3 make no product with A.  Only level 2
differs from the PSD path, where it is one direct solve:

  level 1  Lanczos on A^T A + lam*I, preconditioned by M via the inversion
           formula (SolveM1);
  level 2  Lanczos on C^T C + lt*W_j with C stored, preconditioned by
           M2 = W_j^2 + lt*W_j applied through SolveM2;
  level 3  SolveM2 = two Lanczos solves, W_j u = r and (W_j + lt*I) v = r,
           each preconditioned by the exact inverse of its own matrix,
           combined as z = (u - v)/lt.  The build inverts W_j from the
           factor it already takes for the Nystrom core and W_j + lt*I from
           one more Cholesky factor, so a level-3 step applies its
           preconditioner with one s x s GEMV and a run stops within two.
           The paper preconditions level 3 with a second, doubly sketched
           Gram so that W is never factored; W is factored here anyway.

Every inner run targets relative residual EPS_FLOOR, the float floor, within
s steps (inner_lanczos), where the paper sizes each tolerance from cond(M).

The jitter chosen for W is used consistently in all of the above, so every
inversion identity holds exactly for the operators actually applied.
Setting lam = 0 solves a general square system A x = b through the normal
equations c = A^T b; lambda0 > 0 keeps everything invertible even then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .config import EPS_FLOOR, LAMBDA0_PROBES, sketch_nnz_per_column, sketch_rows
from .core import MatrixHandle, as_vector
# power_method_norm is unused here, but tracers rebind it by this name.
from .core import power_method_norm  # noqa: F401
from .errors import DomainError
from .lanczos import preconditioned_lanczos
from .nystrom import (_SEED_EST, NystromPreconditioner, apply_minv_via_formula,
                      jittered_cholesky, lambda0_from_probes, nystrom_core)
from .psd import PsdSolveConfig, _tally, clamp_rank, solve_level1
from .report import SolveReport
# make_ose is unused here, but tracers rebind it by this name.
from .sketch import make_ose  # noqa: F401
from .sketch import make_sparse_embedding, sketch_apply_right


class GeneralSolveConfig(PsdSolveConfig):
    """Knobs for one normal-equations solve (see PsdSolveConfig)."""


@dataclass(eq=False, kw_only=True)
class GeneralMspState(NystromPreconditioner):
    """The Nystrom preconditioner of A^T A plus what levels 2 and 3 need.

    C = A^T A_tilde and W = A_tilde^T A_tilde with A_tilde = A S^T.  `Y` and
    `inner` are None: level 2 is preconditioned by M2 = W_j^2 + lt*W_j
    through level 3, which solves W_j u = r and (W_j + lt*I) v = r.
    m3a_inv = W_j^{-1} and m3b_inv = (W_j + lt*I)^{-1}, exactly symmetric
    and formed from Cholesky factors, are their preconditioners.
    """

    a: MatrixHandle
    a_tilde: MatrixHandle
    m3a_inv: np.ndarray
    m3b_inv: np.ndarray


def _frobenius_sq(a: MatrixHandle) -> float:
    raw = a.raw()
    if sp.issparse(raw):
        return float(np.sum(raw.data**2))
    return float(np.sum(raw**2))


def _cho_inverse(factor: tuple) -> np.ndarray:
    """(L L^T)^{-1} from a lower cho_factor pair by LAPACK potri, exactly symmetric."""
    c, lower = factor
    (potri,) = scipy.linalg.get_lapack_funcs(("potri",), (c,))
    inv, info = potri(c, lower=lower)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"potri failed with info {info}")
    low = np.tril(inv)
    return low + np.tril(low, -1).T


def build_general(a, cfg: GeneralSolveConfig) -> GeneralMspState:
    """Sketch A, form C and W, estimate lambda0 and ||A^T A||, invert level 3's matrices.

    A_tilde = A S^T, C = A^T A_tilde and W = A_tilde^T A_tilde are block
    products made once here.  C costs 2*m*n*s flops; with it stored, a
    level-2 step costs 2*n*s + s^2 flops and no product with A.  Level 3
    preconditions W_j and W_j + lt*I with their own inverses: W_j's from the
    factor the jitter ladder returns, W_j + lt*I's from one more Cholesky
    factorization, which cannot fail once W_j has factored (about s^3 flops
    each).  A level-3 step costs two s x s GEMVs, one with the matrix and
    one with its inverse.

    lambda0 targets (2/l) * sum_{i>l} sigma_i^2(A) = (2/l) * tr(A^T A - Nys_l),
    probed through a dedicated l-row sketch A_l = A S_l^T with the PSD
    path's estimator.  The probes Z give (||A z||^2, A_l^T (A z)) per probe z
    from one block product A Z^T: both quadratic forms share the same z, so
    the per-probe variance scales with the tail energy itself rather than
    with ||A^T A||_F^2, which would drown the tail whenever the spectrum has
    large outliers.  The exact ||A||_F^2 = tr(A^T A) anchors the floor and
    the sanity check.  ||A^T A|| is taken as mu_max, the top eigenvalue of
    C W_j^{-1} C^T (nystrom_core), read off W's factor.

    The build streams A five times (`build_passes`): A S^T, A^T A_tilde,
    ||A||_F^2, A S_l^T and the probe block.
    """
    if not isinstance(a, MatrixHandle):
        a = MatrixHandle(a)
    n = a.cols
    l_eff, _ = clamp_rank(cfg.l, n)

    s = sketch_rows(l_eff, n, cfg.delta)
    gamma = min(sketch_nnz_per_column(l_eff, cfg.delta), s)
    emb = make_sparse_embedding(s, n, gamma, cfg.seed)
    a_tilde = sketch_apply_right(a, emb)  # m x s dense
    at = a_tilde.to_dense()
    c_block = a.raw().T @ at
    w = at.T @ at
    w = 0.5 * (w + w.T)
    frob_sq = _frobenius_sq(a)
    if frob_sq == 0.0:
        raise DomainError("matrix is identically zero")

    # Tail-energy probe from a separate l-row sketch.  The main embedding has
    # s = O(l log l) rows and can reach s >= n on small problems, where its
    # Nystrom approximation is exact and the rank-s tail is ~0 even though
    # the rank-l tail (the quantity lambda0 must cover) is not.
    emb_l = make_sparse_embedding(l_eff, n, min(gamma, l_eff), cfg.seed + _SEED_EST)
    at_l = sketch_apply_right(a, emb_l).to_dense()
    w_l = at_l.T @ at_l
    w_l = 0.5 * (w_l + w_l.T)
    l_chol = jittered_cholesky(w_l, "probe Gram")[0]

    def probe(z):
        az = a.matmat(z.T)
        return np.einsum("ij,ij->j", az, az), at_l.T @ az

    lambda0 = lambda0_from_probes(probe, n, l_chol, l_eff, LAMBDA0_PROBES, cfg.seed,
                                  trace=frob_sq)
    lambda_tilde = cfg.lam + lambda0

    w_factor, w_j, jitter = jittered_cholesky(w, "sketched Gram")
    w_shift = w_j.copy()
    w_shift[np.diag_indices_from(w_shift)] += lambda_tilde
    # W_j + lt*I is exactly symmetric, so its transpose is the Fortran-ordered
    # array LAPACK factors in place.
    w_shift_factor = scipy.linalg.cho_factor(w_shift.T, lower=True, overwrite_a=True,
                                             check_finite=False)
    state = GeneralMspState(
        C=MatrixHandle(c_block),
        W=MatrixHandle(w, sym="spd"),
        lambda_tilde=lambda_tilde,
        lambda0=lambda0,
        lam=cfg.lam,
        jitter=jitter,
        inner=None,
        l=l_eff,
        gamma=gamma,
        seed=cfg.seed,
        mu=nystrom_core(c_block, w_factor)[2],
        build_passes=5,
        build_matvecs=LAMBDA0_PROBES,
        a=a,
        a_tilde=a_tilde,
        m3a_inv=_cho_inverse(w_factor),
        m3b_inv=_cho_inverse(w_shift_factor),
    )
    state._w_j = w_j
    return state


def inner_lanczos(op, rhs, solve_m, counters, level) -> np.ndarray:
    """One inner-level Krylov run to relative residual EPS_FLOOR, tallied under `level`.

    It takes at most s = rhs.shape[0] steps, the size of its system, and its
    stop reason is counted in counters["stop_reasons"][level].  An rhs whose
    square rhs . rhs is 0 (zero, or underflowing, so that Lanczos could not
    normalize it) returns zeros and counts no run.
    """
    if float(rhs @ rhs) == 0.0:
        return np.zeros(rhs.shape[0])
    y, ws = preconditioned_lanczos(op, rhs, solve_m, t_max=rhs.shape[0],
                                   residual_target=EPS_FLOOR)
    _tally(counters, level, ws.iterations, ws.status == "budget-exhausted")
    if counters is not None:
        stops = counters.setdefault("stop_reasons", {}).setdefault(level, {})
        stops[ws.stop_reason] = stops.get(ws.stop_reason, 0) + 1
    return y


def solve_m2(
    state: GeneralMspState,
    r: np.ndarray,
    counters: Optional[dict] = None,
) -> np.ndarray:
    """Apply M2^{-1} = (W_j^2 + lt*W_j)^{-1} = (W_j^{-1} - (W_j+lt*I)^{-1})/lt.

    Each of the two resolvents is a level-3 Lanczos solve preconditioned by
    its own matrix's inverse, m3a_inv or m3b_inv: one GEMV per step.
    """
    r = as_vector(r, state.s)
    lt, w_j = state.lambda_tilde, state.w_jittered()
    m3a_inv, m3b_inv = state.m3a_inv, state.m3b_inv
    u = inner_lanczos(lambda y: w_j @ y, r, lambda y: m3a_inv @ y, counters, "level3a")
    v = inner_lanczos(lambda y: w_j @ y + lt * y, r, lambda y: m3b_inv @ y, counters,
                      "level3b")
    return (u - v) / lt


def solve_m1_general(
    state: GeneralMspState,
    r: np.ndarray,
    counters: Optional[dict] = None,
) -> np.ndarray:
    """Approximate M^{-1} r through the inversion formula on the stored C.

    Level-2 system: (C^T C + lt*W_j) y = C^T r, Lanczos on the operator
    y -> C^T(C y) + lt*(W_j y), two dense GEMVs, preconditioned by SolveM2;
    then w = (r - C y) / lt.  No product with A is made.
    """
    c, w_j, lt = state.C.to_dense(), state.w_jittered(), state.lambda_tilde

    def g_op(y):
        return c.T @ (c @ y) + lt * (w_j @ y)

    def level2(rhs):
        return inner_lanczos(g_op, rhs, lambda rr: solve_m2(state, rr, counters), counters,
                             "level2")

    return apply_minv_via_formula(state, r, level2)


def solve_normal(
    a,
    c: np.ndarray,
    cfg: GeneralSolveConfig,
    *,
    state: Optional[GeneralMspState] = None,
    trace: Optional[Callable[[dict], None]] = None,
) -> SolveReport:
    """Solve (A^T A + lam*I) x = c to relative energy-norm error eps.

    Pass a prebuilt `state` to amortize the sketch factorizations over many
    right-hand sides (ridge_blackbox_solve does).  For a square general
    system A x = b, call with c = A^T b and lam = 0.

    Level 1 is psd.solve_level1 on B = A^T A; level 2 is solve_m1_general.
    The report's `matvecs` counts the vector products with A or A^T that
    this call made: two per level-1 step and true residual, and one per
    lambda0 probe when this call builds the state.  It does not count the
    block products A_tilde = A S^T and C = A^T A_tilde.
    """
    if not isinstance(a, MatrixHandle):
        a = MatrixHandle(a)
    c = as_vector(c, a.cols)
    counters: dict = {"level2_total": 0, "level2_runs": 0, "level3a_total": 0, "level3b_total": 0}

    def path_diagnostics(state):
        stops = counters.get("stop_reasons", {})
        out = {"inner_stop_reasons": {level: stops[level] for level in sorted(stops)}}
        if counters.get("level2_exhausted"):
            out["inner_budget_exhausted"] = counters["level2_exhausted"]
        return out

    return solve_level1(
        "msp-general", lambda x: a.rmatvec(a.matvec(x)), c, cfg, state,
        lambda: build_general(a, cfg), lambda pre, r: solve_m1_general(pre, r, counters),
        counters, path_diagnostics, products=2, trace=trace,
    )
