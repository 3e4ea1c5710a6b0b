"""Two-level solver for (A + lam*I) x = b with symmetric PSD A.

Level 1 is preconditioned Lanczos on the original system, with the Nystrom
preconditioner applied through the inversion formula.  The Gram system that
the formula needs, (C^T C + lt*W_j) y = C^T r, is itself solved by Lanczos
(level 2) preconditioned by the prefactored sketch Gram matrix
M2 = (Phi C)^T (Phi C) + lt*W_j — a direct s x s solve per inner iteration.

Iteration budgets and inner tolerances are derived at run time: a short
warmup run supplies Ritz values, whose spread (inflated x2) estimates the
preconditioned condition number; that drives t_max, the inner tolerance
cascade, and the residual target that certifies the energy-norm error
contract.  Trivially easy systems simply converge during the warmup.
`two_phase_lanczos` runs that scheme; the normal-equations solver and the
plain-Lanczos baseline run on it too, each with its own SolveM.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tunables
from .core import MatrixHandle, as_vector, operator_of, power_method_norm
from .errors import DomainError
from .lanczos import preconditioned_lanczos, ritz_values
from .nystrom import NystromPreconditioner, apply_minv_via_formula, build_nystrom_psd
from .report import SolveReport


@dataclass
class PsdSolveConfig:
    """Knobs for one PSD solve; eps is the target relative energy-norm error."""

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
    """Approximate M^{-1} r: level-2 Lanczos on the Gram system, then the formula.

    The level-2 operator is two dense GEMVs (C and W are stored here); its
    preconditioner is the exact prefactored M2, so the only inner error is the
    level-2 truncation, driven below eps1.
    """
    c = pre.C.to_dense()
    w_j = pre.w_jittered()
    lt = pre.lambda_tilde

    def g_op(y):
        return c.T @ (c @ y) + lt * (w_j @ y)

    def m2_solve(rhs):
        return scipy.linalg.cho_solve(pre.inner, rhs, check_finite=False)

    def inner(rhs, tol):
        if float(np.linalg.norm(rhs)) == 0.0:
            return np.zeros(pre.s)
        y, ws = preconditioned_lanczos(
            g_op,
            rhs,
            m2_solve,
            t_max=inner_budget,
            residual_target=tol,
            check_every=tun.check_every,
            tun=tun,
        )
        if counters is not None:
            counters["level2_total"] = counters.get("level2_total", 0) + ws.iterations
            counters["level2_runs"] = counters.get("level2_runs", 0) + 1
        return y

    return apply_minv_via_formula(pre, r, inner, eps1)


def energy_certificate(eps: float, lt: float, lam_max_b: float, tun: Tunables):
    """Main-run residual target that certifies relative energy error eps.

    lam_min(B) is estimated from the warmup's smallest Ritz value of M^{-1}B
    as theta_min*lt/ritz_inflation (M >= lt*I; the inflation covers the Ritz
    value's overestimate).  With lam_max_b an upper estimate of lam_max(B), a
    relative residual of eps/sqrt(kappa_b) bounds the relative energy-norm
    error by eps.  Returns theta -> (residual target, diagnostics).
    """

    def target(theta):
        theta_min = max(float(theta[0]), 1e-14 * max(float(theta[-1]), 1e-300))
        lam_min_b = theta_min * lt / tun.ritz_inflation
        kappa_b = max(lam_max_b / max(lam_min_b, 1e-300), 1.0)
        residual_target = max(eps / math.sqrt(kappa_b), 1e-15)
        return residual_target, {"kappa_b_estimate": kappa_b, "residual_target": residual_target}

    return target


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
    the preconditioner build when solving several right-hand sides.
    """
    t_start = time.perf_counter()
    b = as_vector(b)
    n = b.shape[0]
    if isinstance(a, np.ndarray):
        a = MatrixHandle(a, sym="spd")
    a_op = operator_of(a)
    lam = cfg.lam

    def b_op(x):
        ax = a_op(x)
        return ax + lam * x if lam != 0.0 else ax

    if float(np.linalg.norm(b)) == 0.0:
        return SolveReport(
            x=np.zeros(n), status="converged", method="msp-psd",
            iterations={"level1": 0, "warmup": 0, "level2_total": 0},
            matvecs=0, residual_history=[], kappa_m_estimate=None,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            config_echo=vars(cfg).copy(), stop_reason="zero-rhs",
        )

    l_eff, l_clamped = clamp_rank(cfg.l, n)
    if pre is None:
        pre = build_nystrom_psd(
            a, l_eff, lam, cfg.delta, cfg.seed, n=n, probes=tun.lambda0_probes, tun=tun,
        )
    lt = pre.lambda_tilde

    pm_a = power_method_norm(a_op, n, iters=tun.power_iters, seed=cfg.seed + 3)
    kappa_mat = (pm_a + lt) / lt  # upper estimate of cond(M): A_nys <= A
    counters: dict = {"level2_total": 0, "level2_runs": 0}

    def solve_m_for(kappa):
        eps0 = max(tun.eps_floor, cfg.eps / (kappa * n))
        eps1 = max(tun.eps_floor, eps0 / kappa_mat**1.5)
        inner_budget = int(
            math.ceil(tun.inner_budget_factor * math.log(max(kappa_mat / eps1, math.e)))
        )

        def solve_m(r):
            return solve_m1_psd(pre, r, inner_budget, eps1, counters, tun)

        return solve_m, {"eps0": eps0, "eps1": eps1, "inner_budget": inner_budget}

    x, warm, main, kappa_m, budget_diag = two_phase_lanczos(
        b_op, b, solve_m_for, kappa_mat,
        cfg.eps / math.sqrt(max(kappa_mat**2, 4.0)),
        energy_certificate(cfg.eps, lt, 1.5 * pm_a + lam, tun),
        cfg.eps, t_max_override=cfg.t_max_override, trace=trace, tun=tun,
    )
    last = main or warm
    pre.kappa_hat = kappa_m
    diagnostics = {
        "l_effective": l_eff,
        "l_clamped": l_clamped,
        "kappa_mat_estimate": kappa_mat,
        "warmup_status": warm.status,
        "warmup_history": [[i, r] for i, r in warm.checkpoints],
        "preconditioner": pre.diagnostics(),
        "matvec_note": "matvecs counts every A application including setup probes",
        **budget_diag,
    }
    return SolveReport(
        x=x,
        status=last.status,
        method="msp-psd",
        iterations={
            "level1": last.iterations,
            "warmup": warm.iterations,
            "level2_total": counters["level2_total"],
            "level2_runs": counters["level2_runs"],
        },
        matvecs=tun.lambda0_probes + tun.power_iters + warm.n_matvec
        + (main.n_matvec if main else 0),
        residual_history=[[i, r] for i, r in last.checkpoints],
        kappa_m_estimate=kappa_m,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
        config_echo=vars(cfg).copy(),
        stop_reason=last.stop_reason,
        diagnostics=diagnostics,
        workspace=last,
        preconditioner=pre,
    )
