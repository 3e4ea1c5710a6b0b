"""Two-level solver for (A + lam*I) x = b with symmetric PSD A.

Level 1 is preconditioned Lanczos on the original system, with the Nystrom
preconditioner applied through the inversion formula.  The Gram system that
the formula needs, (C^T C + lt*W_j) y = C^T r, is level 2.  The build
prefactors the sketch Gram matrix M2 = (Phi C)^T (Phi C) + lt*W_j.  When the
subspace embedding Phi is the identity, M2 is the level-2 matrix itself, so
level 2 is one direct s x s solve through that factor.  Otherwise level 2 is
Lanczos preconditioned by M2, one direct s x s solve per inner iteration.

Iteration budgets and inner tolerances are derived at run time: a short
warmup run supplies Ritz values, whose spread (inflated x2) estimates the
preconditioned condition number; that drives t_max, the inner tolerance
cascade, and the residual target that certifies the energy-norm error
contract.  Trivially easy systems simply converge during the warmup.
`two_phase_lanczos` runs that scheme, and the plain-Lanczos baseline runs on
it too.  `solve_level1` is level 1 around it for any PSD B with a Nystrom
preconditioner: `solve_psd` runs it on B = A with the level 2 above, and the
normal-equations solver (general.py) on B = A^T A with its own level 2.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, Tunables
from .core import MatrixHandle, as_vector, operator_of, power_method_norm
from .errors import DomainError
from .lanczos import preconditioned_lanczos, ritz_values
from .nystrom import NystromPreconditioner, apply_minv_via_formula, build_nystrom_psd, cho_apply
from .report import SolveReport


@dataclass
class PsdSolveConfig:
    """Knobs for one PSD solve; eps is the target relative energy-norm error.

    t_max_override replaces the Ritz-derived iteration budget of the main
    level-1 run.  Like that budget, it is raised to Tunables.warmup_iters
    when smaller and capped at 2n.
    """

    l: int
    lam: float = 0.0
    eps: float = 1e-8
    delta: float = 0.01
    seed: int = 0
    t_max_override: Optional[int] = None

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise DomainError(f"eps must be in (0,1), got {self.eps}")
        if not (0.0 < self.delta < 0.5):
            raise DomainError(f"delta must be in (0, 1/2), got {self.delta}")
        if self.lam < 0.0:
            raise DomainError(f"lambda must be nonnegative, got {self.lam}")
        if self.l < 1:
            raise DomainError(f"rank parameter must be positive, got {self.l}")


def clamp_rank(l: int, n: int) -> tuple:
    """Clamp l into [ceil(log2 n)+1, n-1]; returns (l_eff, clamped?)."""
    lo = int(math.ceil(math.log2(max(n, 2)))) + 1
    hi = max(n - 1, 1)
    lo = min(lo, hi)
    l_eff = min(max(l, lo), hi)
    return l_eff, (l_eff != l)


def _ritz_kappa(ws, tun: Tunables) -> Optional[float]:
    """Preconditioned condition estimate from a run's tridiagonal block."""
    if ws.tridiag is None or ws.tridiag.t < 1:
        return None
    theta = ritz_values(ws.tridiag)
    tmax = float(theta[-1])
    if tmax <= 0.0:
        return None
    tmin = max(float(theta[0]), 1e-14 * tmax)
    return tun.ritz_inflation * tmax / tmin


def solve_m1_psd(
    pre: NystromPreconditioner,
    r: np.ndarray,
    inner_budget: int,
    eps1: float = 1e-12,
    counters: Optional[dict] = None,
    tun: Tunables = DEFAULT,
) -> np.ndarray:
    """Approximate M^{-1} r: solve the level-2 Gram system, then the formula.

    When Phi is the identity, the prefactored M2 is the Gram matrix
    C^T C + lt*W_j, so level 2 is one direct solve through it, counted as one
    run of one step.  Otherwise level 2 is Lanczos on the Gram system: its
    operator is two dense GEMVs (C and W are stored here) and its
    preconditioner is the exact prefactored M2, so the only inner error is
    the level-2 truncation, driven below eps1.
    """
    c = pre.C.to_dense()
    w_j = pre.w_jittered()
    lt = pre.lambda_tilde

    def g_op(y):
        return c.T @ (c @ y) + lt * (w_j @ y)

    m2_solve = cho_apply(pre.inner)

    def inner(rhs, tol):
        if float(np.linalg.norm(rhs)) == 0.0:
            return np.zeros(pre.s)
        if pre.phi_rows == pre.n:
            y, iterations = m2_solve(rhs), 1
        else:
            y, ws = preconditioned_lanczos(
                g_op,
                rhs,
                m2_solve,
                t_max=inner_budget,
                residual_target=tol,
                check_every=tun.check_every,
                tun=tun,
            )
            iterations = ws.iterations
        if counters is not None:
            counters["level2_total"] = counters.get("level2_total", 0) + iterations
            counters["level2_runs"] = counters.get("level2_runs", 0) + 1
        return y

    return apply_minv_via_formula(pre, r, inner, eps1)


def two_phase_lanczos(
    b_op,
    b: np.ndarray,
    solve_m_for: Callable[[float], tuple],
    kappa0: float,
    warmup_target: float,
    main_target: Callable[[np.ndarray], tuple],
    eps: float,
    *,
    t_max_override: Optional[int] = None,
    trace: Optional[Callable[[dict], None]] = None,
    tun: Tunables = DEFAULT,
) -> tuple:
    """Warmup, Ritz estimate, budgeted main run: the scheme every solver shares.

    A short warmup with per-iteration checks runs with the SolveM that
    solve_m_for(kappa0) returns; easy systems converge right there.
    Otherwise its Ritz values give kappa (inflated, kappa0 if they give none),
    which sizes t_max and the main run's SolveM, and main_target(theta) gives
    the main run's residual target.  solve_m_for(kappa) returns the SolveM
    callable and its budget diagnostics; main_target returns the target and
    its diagnostics.

    Returns (x, warmup workspace, main workspace or None if the warmup ended
    the solve, kappa, diagnostics of the main run's budgets).  kappa is the
    value the main run was sized with, or the raw Ritz estimate (possibly
    None) when there was no main run.
    """
    solve_m, _ = solve_m_for(kappa0)
    x, warm = preconditioned_lanczos(
        b_op, b, solve_m,
        t_max=tun.warmup_iters, residual_target=warmup_target, check_every=1, tun=tun,
    )
    kappa = _ritz_kappa(warm, tun)
    if warm.status in ("converged", "breakdown"):
        return x, warm, None, kappa, {}

    if kappa is None:
        kappa = kappa0
    residual_target, target_diag = main_target(ritz_values(warm.tridiag))
    t_max = t_max_override or int(
        math.ceil(tun.t_factor * math.sqrt(kappa) * math.log(max(kappa / eps, math.e)))
    )
    t_max = min(max(t_max, tun.warmup_iters), 2 * b.shape[0])
    solve_m, budget_diag = solve_m_for(kappa)
    x, main = preconditioned_lanczos(
        b_op, b, solve_m,
        t_max=t_max, residual_target=residual_target, check_every=tun.check_every,
        trace=trace, tun=tun,
    )
    return x, warm, main, kappa, {"t_max": t_max, **budget_diag, **target_diag}


def solve_level1(
    method: str,
    op,
    b: np.ndarray,
    cfg: PsdSolveConfig,
    pre: Optional[NystromPreconditioner],
    build: Callable[[], NystromPreconditioner],
    level2_for: Callable,
    counters: dict,
    path_diagnostics: Callable[[NystromPreconditioner], dict],
    *,
    products: int,
    trace: Optional[Callable[[dict], None]],
    tun: Tunables,
) -> SolveReport:
    """Level 1 of both msp paths: Lanczos on B + lam*I preconditioned by `pre`.

    op applies B, the PSD matrix `pre` approximates: A on the PSD path, A^T A
    on the normal-equations path, at `products` products with A per apply.
    `pre` is build() unless given, and ||B|| comes from the power method
    unless cached on `pre`.  They give the inner targets eps0, eps1 and the
    level-2 budget; level2_for(pre, eps0, eps1, budget, kappa_mat) returns
    the SolveM for them and its budget diagnostics.  The SolveM adds its
    inner iteration counts to `counters`, whose keys (all zero on entry)
    join level1 and warmup in the report's iterations; path_diagnostics(pre)
    adds the path's own diagnostics.  matvecs counts the products with A
    this call made: level 1's, the power method's when it ran, and one per
    lambda0 probe when this call built `pre`.
    """
    t_start = time.perf_counter()
    n = b.shape[0]
    lam = cfg.lam
    iteration_keys = tuple(counters)

    def b_op(x):
        bx = op(x)
        return bx + lam * x if lam != 0.0 else bx

    def report(iterations, **fields):
        return SolveReport(
            method=method, iterations={**iterations, **{k: counters[k] for k in iteration_keys}},
            wall_ms=(time.perf_counter() - t_start) * 1e3, config_echo=vars(cfg).copy(), **fields,
        )

    if float(np.linalg.norm(b)) == 0.0:
        return report({"level1": 0, "warmup": 0}, x=np.zeros(n), status="converged", matvecs=0,
                      residual_history=[], kappa_m_estimate=None, stop_reason="zero-rhs")

    built = pre is None
    if built:
        pre = build()
    power_ran = pre.pm_norm is None
    if power_ran:
        pre.pm_norm = power_method_norm(op, n, iters=tun.power_iters, seed=cfg.seed + 3)
    pm, lt = pre.pm_norm, pre.lambda_tilde
    kappa_mat = (pm + lt) / lt  # upper estimate of cond(M): B_nys <= B

    def solve_m_for(kappa):
        eps0 = max(tun.eps_floor, cfg.eps / (kappa * n))
        eps1 = max(tun.eps_floor, eps0 / kappa_mat**1.5)
        budget = int(math.ceil(tun.inner_budget_factor * math.log(max(kappa_mat / eps1, math.e))))
        return level2_for(pre, eps0, eps1, budget, kappa_mat)

    def main_target(theta):
        # lam_min(B + lam) ~ theta_min*lt/ritz_inflation from the warmup's
        # smallest Ritz value of M^{-1}(B + lam) (M >= lt*I; the inflation
        # covers its overestimate).  Against 1.5*||B|| + lam >= lam_max, a
        # relative residual of eps/sqrt(kappa_b) certifies energy error eps.
        theta_min = max(float(theta[0]), 1e-14 * max(float(theta[-1]), 1e-300))
        kappa_b = max((1.5 * pm + lam) / max(theta_min * lt / tun.ritz_inflation, 1e-300), 1.0)
        target = max(cfg.eps / math.sqrt(kappa_b), 1e-15)
        return target, {"kappa_b_estimate": kappa_b, "residual_target": target}

    x, warm, main, kappa_m, budget_diag = two_phase_lanczos(
        b_op, b, solve_m_for, kappa_mat, cfg.eps / math.sqrt(max(kappa_mat**2, 4.0)),
        main_target, cfg.eps, t_max_override=cfg.t_max_override, trace=trace, tun=tun,
    )
    last = main or warm
    pre.kappa_hat = kappa_m
    applies = warm.n_matvec + (main.n_matvec if main else 0)
    return report(
        {"level1": last.iterations, "warmup": warm.iterations},
        x=x, status=last.status, stop_reason=last.stop_reason,
        matvecs=products * (applies + (tun.power_iters if power_ran else 0))
        + (tun.lambda0_probes if built else 0),
        residual_history=[[i, r] for i, r in last.checkpoints],
        kappa_m_estimate=kappa_m,
        diagnostics={
            "l_effective": pre.l,
            "l_clamped": pre.l != cfg.l,
            "kappa_mat_estimate": kappa_mat,
            "warmup_status": warm.status,
            "warmup_history": [[i, r] for i, r in warm.checkpoints],
            "preconditioner": pre.diagnostics(),
            **budget_diag,
            **path_diagnostics(pre),
        },
        workspace=last,
        preconditioner=pre,
    )


def solve_psd(
    a,
    b: np.ndarray,
    cfg: PsdSolveConfig,
    *,
    tun: Tunables = DEFAULT,
    trace: Optional[Callable[[dict], None]] = None,
    pre: Optional[NystromPreconditioner] = None,
) -> SolveReport:
    """Solve (A + lam*I) x = b for PSD A to relative energy-norm error eps.

    Accepts A as a MatrixHandle, dense/sparse array, or a matvec callable.
    Returns a SolveReport; non-convergence within budget is reported via
    status "budget-exhausted", never as an exception.  Pass a previously
    built `pre` (from an earlier report on the same A, lam, l, seed) to skip
    the preconditioner build, and the ||A|| estimate cached on it, when
    solving several right-hand sides.
    """
    b = as_vector(b)
    n = b.shape[0]
    if isinstance(a, np.ndarray):
        a = MatrixHandle(a, sym="spd")
    counters: dict = {"level2_total": 0, "level2_runs": 0}

    def build():
        l_eff = clamp_rank(cfg.l, n)[0]
        return build_nystrom_psd(
            a, l_eff, cfg.lam, cfg.delta, cfg.seed, n=n, probes=tun.lambda0_probes, tun=tun,
        )

    def level2_for(pre, eps0, eps1, inner_budget, kappa_mat):
        def solve_m(r):
            return solve_m1_psd(pre, r, inner_budget, eps1, counters, tun)

        return solve_m, {"eps0": eps0, "eps1": eps1, "inner_budget": inner_budget}

    def path_diagnostics(pre):
        return {
            "level2_solver": "cholesky" if pre.phi_rows == pre.n else "lanczos",
            "matvec_note": "matvecs counts the A applications this call made: level 1, "
            "the power method when it ran, the lambda0 probes when it built the "
            "preconditioner",
        }

    return solve_level1(
        "msp-psd", operator_of(a), b, cfg, pre, build, level2_for, counters, path_diagnostics,
        products=1, trace=trace, tun=tun,
    )
