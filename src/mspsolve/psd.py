"""Two-level solver for (A + lam*I) x = b with symmetric PSD A.

Level 1 is preconditioned Lanczos on the original system, with the Nystrom
preconditioner applied through the inversion formula.  The Gram system that
the formula needs, (C^T C + lt*W_j) y = C^T r, is level 2.  The build
prefactors the sketch Gram matrix M2 = (Phi C)^T (Phi C) + lt*W_j.  When the
subspace embedding Phi is the identity, M2 is the level-2 matrix itself, so
level 2 is one direct s x s solve through that factor.  Otherwise level 2 is
Lanczos preconditioned by M2, one direct s x s solve per inner iteration.

Iteration budgets and inner tolerances are derived at run time.  Level 1
is one Lanczos run; at step Tunables.warmup_iters its own T supplies Ritz
values, whose spread (inflated x2) estimates the preconditioned condition
number.  That sets t_max and the residual target that certifies the
energy-norm error contract, and the run continues from its own state.
Trivially easy systems simply converge before that step.
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

    t_max_override replaces the Ritz-derived cap on the level-1 run's total
    steps.  Like that cap, it is raised to Tunables.warmup_iters when smaller
    and capped at 2n.
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


def _ritz_kappa(tri, tun: Tunables) -> Optional[float]:
    """Preconditioned condition estimate from a run's tridiagonal block."""
    if tri is None:
        return None
    theta = ritz_values(tri)
    tmax = float(theta[-1])
    if tmax <= 0.0:
        return None
    tmin = max(float(theta[0]), 1e-14 * tmax)
    return tun.ritz_inflation * tmax / tmin


def _tally(counters: Optional[dict], level: str, steps: int, exhausted: bool = False) -> None:
    """Count one run: its steps in level_total, 1 in level_runs (and level_exhausted)."""
    if counters is not None:
        counters[level + "_total"] = counters.get(level + "_total", 0) + steps
        counters[level + "_runs"] = counters.get(level + "_runs", 0) + 1
        if exhausted:
            counters[level + "_exhausted"] = counters.get(level + "_exhausted", 0) + 1


def inner_lanczos(lanczos, op, rhs, solve_m, t_max, tol, counters, level, tun) -> np.ndarray:
    """One inner-level Krylov run to relative residual tol, tallied under `level`.

    `lanczos` is the caller's module-level preconditioned_lanczos, looked up
    at call time, so each level's runs go through its own module's name.  A
    zero rhs returns zeros and counts no run.
    """
    if float(np.linalg.norm(rhs)) == 0.0:
        return np.zeros(rhs.shape[0])
    y, ws = lanczos(op, rhs, solve_m, t_max=t_max, residual_target=tol,
                    check_every=tun.check_every, tun=tun)
    _tally(counters, level, ws.iterations, ws.status == "budget-exhausted")
    return y


def gram_inner(lanczos, pre, m2_solve, t_max, counters, tun) -> Callable:
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
        return inner_lanczos(lanczos, g_op, rhs, m2_solve, t_max, tol, counters, "level2", tun)

    return inner


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
    run of one step.  Otherwise level 2 is Lanczos on the Gram system
    (gram_inner) preconditioned by the exact prefactored M2, so the only
    inner error is the level-2 truncation, driven below eps1.
    """
    m2_solve = cho_apply(pre.inner)
    if pre.phi_rows != pre.n:
        inner = gram_inner(preconditioned_lanczos, pre, m2_solve, inner_budget, counters, tun)
    else:
        def inner(rhs, tol):
            _tally(counters, "level2", 1)
            return m2_solve(rhs)

    return apply_minv_via_formula(pre, r, inner, eps1)


def two_phase_lanczos(
    b_op,
    b: np.ndarray,
    solve_m,
    kappa0: float,
    warmup_target: Optional[float],
    main_target: Callable[[np.ndarray, float], tuple],
    eps: float,
    *,
    t_max_override: Optional[int] = None,
    trace: Optional[Callable[[dict], None]] = None,
    tun: Tunables = DEFAULT,
) -> tuple:
    """One Lanczos run, budgeted from its own Ritz values: the scheme every solver shares.

    Up to step Tunables.warmup_iters the run aims at warmup_target (at none
    when it is None, so only a clean break ends it early); easy systems
    converge right there.  At that step its own T gives the Ritz
    values theta and kappa (inflated, kappa0 if they give none), which size
    t_max, the cap on the run's total steps, and main_target(theta, kappa)
    gives the residual target the run then continues to (and its
    diagnostics).  t_max_override replaces the Ritz-derived t_max; either is
    raised to warmup_iters when smaller and capped at 2n.

    Returns (x, workspace, kappa, diagnostics of the budget).  kappa is the
    value t_max was sized with, or the raw Ritz estimate of the final T
    (possibly None) when the run ended before the Ritz read.
    """
    read: dict = {}

    def retarget(tri):
        theta = ritz_values(tri)
        kappa = _ritz_kappa(tri, tun) or kappa0
        target, target_diag = main_target(theta, kappa)
        t_max = t_max_override or int(
            math.ceil(tun.t_factor * math.sqrt(kappa) * math.log(max(kappa / eps, math.e)))
        )
        t_max = min(max(t_max, tun.warmup_iters), 2 * b.shape[0])
        read.update(kappa=kappa, diag={"t_max": t_max, **target_diag})
        return t_max, target

    x, ws = preconditioned_lanczos(
        b_op, b, solve_m, t_max=tun.warmup_iters, residual_target=warmup_target,
        check_every=tun.check_every, trace=trace, tun=tun,
        retarget=(tun.warmup_iters, retarget),
    )
    if not read:
        return x, ws, _ritz_kappa(ws.tridiag, tun), {}
    return x, ws, read["kappa"], read["diag"]


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
    unless cached on `pre`.  They give kappa_mat, an upper estimate of
    cond(M), and from it the inner targets eps0, eps1 and the level-2
    budget; level2_for(pre, eps0, eps1, budget, kappa_mat) returns the SolveM
    for them and its budget diagnostics.  The SolveM adds its inner iteration
    counts to `counters`, whose keys (all zero on entry) join level1 (every
    level-1 step) and warmup (the steps up to the Ritz read) in the report's
    iterations; path_diagnostics(pre) adds the path's own diagnostics.
    matvecs counts the products with A this call made: level 1's steps and
    residual checks, the power method's when it ran, and one per lambda0
    probe when this call built `pre`.
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

    eps0 = max(tun.eps_floor, cfg.eps / (kappa_mat * n))
    eps1 = max(tun.eps_floor, eps0 / kappa_mat**1.5)
    budget = int(math.ceil(tun.inner_budget_factor * math.log(max(kappa_mat / eps1, math.e))))
    solve_m, budget_diag = level2_for(pre, eps0, eps1, budget, kappa_mat)

    def main_target(theta, kappa):
        # lam_min(B + lam) ~ theta_min*lt/ritz_inflation from the smallest
        # Ritz value of M^{-1}(B + lam) at the Ritz read (M >= lt*I; the
        # inflation covers its overestimate).  Against 1.5*||B|| + lam >=
        # lam_max, a relative residual of eps/sqrt(kappa_b) certifies energy
        # error eps.
        theta_min = max(float(theta[0]), 1e-14 * max(float(theta[-1]), 1e-300))
        kappa_b = max((1.5 * pm + lam) / max(theta_min * lt / tun.ritz_inflation, 1e-300), 1.0)
        target = max(cfg.eps / math.sqrt(kappa_b), 1e-15)
        return target, {"kappa_b_estimate": kappa_b, "residual_target": target}

    x, ws, kappa_m, read_diag = two_phase_lanczos(
        b_op, b, solve_m, kappa_mat, cfg.eps / math.sqrt(max(kappa_mat**2, 4.0)),
        main_target, cfg.eps, t_max_override=cfg.t_max_override, trace=trace, tun=tun,
    )
    pre.kappa_hat = kappa_m
    return report(
        {"level1": ws.iterations, "warmup": min(ws.iterations, tun.warmup_iters)},
        x=x, status=ws.status, stop_reason=ws.stop_reason,
        matvecs=products * (ws.n_matvec + (tun.power_iters if power_ran else 0))
        + (tun.lambda0_probes if built else 0),
        residual_history=[[i, r] for i, r in ws.checkpoints],
        kappa_m_estimate=kappa_m,
        diagnostics={
            "l_effective": pre.l,
            "l_clamped": pre.l != cfg.l,
            "kappa_mat_estimate": kappa_mat,
            "preconditioner": pre.diagnostics(),
            **budget_diag,
            **read_diag,
            **path_diagnostics(pre),
        },
        workspace=ws,
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
