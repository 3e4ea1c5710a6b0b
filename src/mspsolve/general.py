"""Three-level solver for (A^T A + lam*I) x = c with general rectangular A.

This is the PSD path (psd.py) applied to B = A^T A.  Its Nystrom
preconditioner of B is defined by the blocks C = A^T A_tilde (n x s) and
W = A_tilde^T A_tilde, with A_tilde = A S^T (m x s); GeneralMspState is that
NystromPreconditioner plus A and the level-3 factors.  lambda0 comes from
the same Hutchinson estimator, and level 1 is the same driver
(psd.solve_level1), at two products with A per apply of B.  The build forms
C and W once, so levels 2 and 3 make no product with A.  Only level 2
differs from the PSD path, where it is one direct solve:

  level 1  Lanczos on A^T A + lam*I, preconditioned by M via the inversion
           formula (SolveM1);
  level 2  Lanczos on C^T C + lt*W_j with C stored, preconditioned by
           M2 = W_j^2 + lt*W_j applied through SolveM2;
  level 3  SolveM2 = two Lanczos solves, W_j u = r and (W_j + lt*I) v = r,
           each preconditioned by a prefactored sketch Gram (A_hat^T A_hat
           with the matching shifts), combined as z = (u - v)/lt.

The jitter chosen for W is used consistently in all of the above, so every
inversion identity holds exactly for the operators actually applied.
Setting lam = 0 solves a general square system A x = b through the normal
equations c = A^T b; lambda0 > 0 keeps everything invertible even then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .config import DEFAULT, Tunables, sketch_nnz_per_column, sketch_rows
from .core import MatrixHandle, as_vector
# power_method_norm is unused here, but tracers rebind it by this name.
from .core import power_method_norm  # noqa: F401
from .errors import DomainError
from .lanczos import preconditioned_lanczos
from .nystrom import (_SEED_EST, _SEED_OSE, NystromPreconditioner, apply_minv_via_formula,
                      cho_apply, jittered_cholesky, lambda0_from_probes)
from .psd import PsdSolveConfig, _tally, clamp_rank, solve_level1, solve_psd
from .report import SolveReport
from .sketch import make_ose, make_sparse_embedding, sketch_apply_right


class GeneralSolveConfig(PsdSolveConfig):
    """Knobs for one normal-equations solve (see PsdSolveConfig)."""


@dataclass(eq=False, kw_only=True)
class GeneralMspState(NystromPreconditioner):
    """The Nystrom preconditioner of A^T A plus what levels 2 and 3 need.

    C = A^T A_tilde and W = A_tilde^T A_tilde with A_tilde = A S^T.  `inner`
    is None: level 2 is preconditioned by M2 = W_j^2 + lt*W_j through level 3,
    whose prefactored sketch Grams are m3a_factor and m3b_factor, both formed
    from A_hat = Phi A_tilde with the phi_rows-row subspace embedding Phi.
    """

    a: MatrixHandle
    phi_rows: int
    a_tilde: MatrixHandle
    a_hat: MatrixHandle
    m3a_factor: tuple
    m3b_factor: tuple

    @property
    def w_j(self) -> np.ndarray:
        """The jittered W (read-only alias of w_jittered())."""
        return self.w_jittered()


def _frobenius_sq(a: MatrixHandle) -> float:
    raw = a.raw()
    if sp.issparse(raw):
        return float(np.sum(raw.data**2))
    return float(np.sum(raw**2))


def build_general(a, cfg: GeneralSolveConfig, *, tun: Tunables = DEFAULT) -> GeneralMspState:
    """Sketch A, form C and W, estimate lambda0, prefactor level 3.

    A_tilde = A S^T, C = A^T A_tilde and W = A_tilde^T A_tilde are block
    products made once here.  C costs 2*m*n*s flops; with it stored, a
    level-2 step costs 2*n*s + s^2 flops and no product with A.

    lambda0 targets (2/l) * sum_{i>l} sigma_i^2(A) = (2/l) * tr(A^T A - Nys_l),
    probed through a dedicated l-row sketch A_l = A S_l^T with the PSD
    path's estimator.  The probes Z give (||A z||^2, A_l^T (A z)) per probe z
    from one block product A Z^T: both quadratic forms share the same z, so
    the per-probe variance scales with the tail energy itself rather than
    with ||A^T A||_F^2, which would drown the tail whenever the spectrum has
    large outliers.  The exact ||A||_F^2 = tr(A^T A) anchors the floor and
    the sanity check.

    The build streams A five times (`build_passes`): A S^T, A^T A_tilde,
    ||A||_F^2, A S_l^T and the probe block.
    """
    if not isinstance(a, MatrixHandle):
        a = MatrixHandle(np.asarray(a, dtype=np.float64))
    m, n = a.rows, a.cols
    l_eff, _ = clamp_rank(cfg.l, n)

    s = sketch_rows(l_eff, n, cfg.delta, tun.sketch_row_factor)
    gamma = min(sketch_nnz_per_column(l_eff, cfg.delta, tun), s)
    emb = make_sparse_embedding(s, n, gamma, cfg.seed)
    a_tilde = sketch_apply_right(a, emb)  # m x s dense
    at = a_tilde.to_dense()
    c_block = a.raw().T @ at
    w = at.T @ at
    w = 0.5 * (w + w.T)
    frob_sq = _frobenius_sq(a)
    if frob_sq == 0.0:
        raise DomainError("matrix is identically zero")

    phi = make_ose(m, s, cfg.delta, tun.ose_epsilon, cfg.seed + _SEED_OSE, tun=tun)
    a_hat = phi.apply(at)
    gram_hat = a_hat.T @ a_hat
    gram_hat = 0.5 * (gram_hat + gram_hat.T)

    # Tail-energy probe from a separate l-row sketch.  The main embedding has
    # s = O(l log l) rows and can reach s >= n on small problems, where its
    # Nystrom approximation is exact and the rank-s tail is ~0 even though
    # the rank-l tail (the quantity lambda0 must cover) is not.
    emb_l = make_sparse_embedding(l_eff, n, min(gamma, l_eff), cfg.seed + _SEED_EST)
    at_l = sketch_apply_right(a, emb_l).to_dense()
    w_l = at_l.T @ at_l
    w_l = 0.5 * (w_l + w_l.T)
    l_chol = jittered_cholesky(w_l, tun, "probe Gram")[0]

    def probe(z):
        az = a.matmat(z.T)
        return np.einsum("ij,ij->j", az, az), at_l.T @ az

    lambda0 = lambda0_from_probes(probe, n, l_chol, l_eff, tun.lambda0_probes, cfg.seed,
                                  trace=frob_sq)
    lambda_tilde = cfg.lam + lambda0

    def factor_m3(w_j, jitter):
        m3a = gram_hat.copy()
        m3a[np.diag_indices_from(m3a)] += jitter
        m3a_factor = scipy.linalg.cho_factor(m3a, lower=True, check_finite=False)
        m3b = m3a.copy()
        m3b[np.diag_indices_from(m3b)] += lambda_tilde
        m3b_factor = scipy.linalg.cho_factor(m3b, lower=True, check_finite=False)
        return m3a_factor, m3b_factor

    _, w_j, jitter, (m3a_factor, m3b_factor) = jittered_cholesky(
        w, tun, "sketched Gram", then=factor_m3
    )
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
        build_passes=5,
        a=a,
        phi_rows=phi.phi,
        a_tilde=a_tilde,
        a_hat=MatrixHandle(np.asarray(a_hat)),
        m3a_factor=m3a_factor,
        m3b_factor=m3b_factor,
    )
    state._w_j = w_j
    return state


def inner_lanczos(op, rhs, solve_m, t_max, tol, counters, level, tun) -> np.ndarray:
    """One inner-level Krylov run to relative residual tol, tallied under `level`.

    A zero rhs returns zeros and counts no run.
    """
    if float(np.linalg.norm(rhs)) == 0.0:
        return np.zeros(rhs.shape[0])
    y, ws = preconditioned_lanczos(op, rhs, solve_m, t_max=t_max, residual_target=tol,
                                   check_every=tun.check_every, tun=tun)
    _tally(counters, level, ws.iterations, ws.status == "budget-exhausted")
    return y


def gram_inner(pre, m2_solve, t_max, counters, tun) -> Callable:
    """Level 2 for apply_minv_via_formula: (rhs, tol) -> y, Lanczos on the Gram system.

    The operator y -> C^T(C y) + lt*(W_j y) is two dense GEMVs on the stored
    C and W_j; m2_solve preconditions it.
    """
    c = pre.C.to_dense()
    w_j = pre.w_jittered()
    lt = pre.lambda_tilde

    def g_op(y):
        return c.T @ (c @ y) + lt * (w_j @ y)

    def inner(rhs, tol):
        return inner_lanczos(g_op, rhs, m2_solve, t_max, tol, counters, "level2", tun)

    return inner


def solve_m2(
    state: GeneralMspState,
    r: np.ndarray,
    budgets: dict,
    counters: Optional[dict] = None,
    tun: Tunables = DEFAULT,
) -> np.ndarray:
    """Apply M2^{-1} = (W_j^2 + lt*W_j)^{-1} = (W_j^{-1} - (W_j+lt*I)^{-1})/lt.

    Each of the two resolvents is a level-3 Lanczos solve preconditioned by
    the corresponding prefactored sketch Gram factor.
    """
    r = as_vector(r, state.s)
    lt = state.lambda_tilde
    w_j = state.w_j
    t3, eps2 = budgets["t3"], budgets["eps2"]

    def w_op(y):
        return w_j @ y

    def w_shift_op(y):
        return w_j @ y + lt * y

    u = inner_lanczos(w_op, r, cho_apply(state.m3a_factor), t3, eps2, counters, "level3a", tun)
    v = inner_lanczos(w_shift_op, r, cho_apply(state.m3b_factor), t3, eps2, counters, "level3b",
                      tun)
    return (u - v) / lt


def solve_m1_general(
    state: GeneralMspState,
    r: np.ndarray,
    budgets: dict,
    counters: Optional[dict] = None,
    tun: Tunables = DEFAULT,
) -> np.ndarray:
    """Approximate M^{-1} r through the inversion formula on the stored C.

    Level-2 system: (C^T C + lt*W_j) y = C^T r, Lanczos on the operator
    y -> C^T(C y) + lt*(W_j y) (gram_inner) preconditioned by SolveM2;
    then w = (r - C y) / lt.  No product with A is made.
    """
    def m2_solve(rr):
        return solve_m2(state, rr, budgets, counters, tun)

    inner = gram_inner(state, m2_solve, budgets["t2"], counters, tun)
    return apply_minv_via_formula(state, r, inner, budgets["eps1"])


def solve_normal(
    a,
    c: np.ndarray,
    cfg: GeneralSolveConfig,
    *,
    state: Optional[GeneralMspState] = None,
    tun: Tunables = DEFAULT,
    trace: Optional[Callable[[dict], None]] = None,
) -> SolveReport:
    """Solve (A^T A + lam*I) x = c to relative energy-norm error eps.

    Pass a prebuilt `state` to amortize the sketch factorizations over many
    right-hand sides (ridge_blackbox_solve does).  For a square general
    system A x = b, call with c = A^T b and lam = 0.

    Level 1 is psd.solve_level1 on B = A^T A; level 2 is solve_m1_general.
    The report's `matvecs` counts the vector products with A or A^T that
    this call made: two per level-1 step and residual check, two per
    power-method step when the ||A^T A|| estimate is not yet cached on the
    state, and one per lambda0 probe when this call builds the state.  It
    does not count the block products A_tilde = A S^T and C = A^T A_tilde.
    """
    if not isinstance(a, MatrixHandle):
        a = MatrixHandle(np.asarray(a, dtype=np.float64))
    c = as_vector(c, a.cols)
    counters: dict = {"level2_total": 0, "level2_runs": 0, "level3a_total": 0, "level3b_total": 0}

    def gram_op(x):
        return a.rmatvec(a.matvec(x))

    def level2_for(state, kappa_mat):
        # Inner targets cascade from kappa_mat: eps0 for SolveM1, eps1 for
        # level 2 (budget t2), eps2 for level 3 (budget t3).
        eps0 = max(tun.eps_floor, cfg.eps / (kappa_mat * a.cols))
        eps1 = max(tun.eps_floor, eps0 / kappa_mat**1.5)
        eps2 = max(tun.eps_floor, eps0 / (4.0 * kappa_mat * cfg.l))
        budgets = {
            "t2": int(math.ceil(tun.inner_budget_factor
                                * math.log(max(kappa_mat / eps1, math.e)))),
            "t3": int(math.ceil(tun.inner_budget_factor
                                * math.log(max(9.0 * cfg.l / eps2, math.e)))),
            "eps1": eps1, "eps2": eps2, "eps0": eps0,
        }

        def solve_m(r):
            return solve_m1_general(state, r, budgets, counters, tun)

        return solve_m, budgets

    def path_diagnostics(state):
        exhausted = counters.get("level2_exhausted", 0)
        return {"inner_budget_exhausted": exhausted} if exhausted else {}

    return solve_level1(
        "msp-general", gram_op, c, cfg, state, lambda: build_general(a, cfg, tun=tun),
        level2_for, counters, path_diagnostics, products=2, trace=trace, tun=tun,
    )


def solve_normal_given_gram(
    g,
    c: np.ndarray,
    cfg: GeneralSolveConfig,
    *,
    tun: Tunables = DEFAULT,
) -> SolveReport:
    """Variant for callers holding A^T A itself: routes to the PSD solver.

    The Gram matrix is symmetric PSD, so the two-level path applies verbatim
    and achieves the same guarantee without access to A.
    """
    report = solve_psd(g, c, cfg, tun=tun)
    report.method = "msp-general-gram"
    return report
