"""Two-level solver for (A + lam*I) x = b with symmetric PSD A.

Level 1 is preconditioned Lanczos on the original system, with the Nystrom
preconditioner M = Y^T Y + lt*I applied through Woodbury:
M^{-1} r = (r - Y^T G^{-1} Y r) / lt.  The s x s system with
G = Y Y^T + lt*I is level 2; the build prefactors G, so level 2 is one exact
direct solve through the factor.

Level 1 is one Lanczos run that stops once the estimate of its relative
energy-norm error that its own LDL^T and Ritz values give meets eps (before
step WARMUP_ITERS, only where its Krylov space closed); at step
WARMUP_ITERS its Ritz spread (inflated x2) also sets its budget.
`two_phase_lanczos` runs that scheme, and the plain-Lanczos baseline runs on
it too.  `solve_level1` is level 1 around it for any PSD B with a Nystrom
preconditioner, and each path hands it its level-2 function
level2(pre, r) -> M^{-1} r: `solve_psd` runs it on B = A with the direct
level 2 above (solve_m1_psd), and the normal-equations solver (general.py)
on B = A^T A with its iterative one (solve_m1_general).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import RITZ_INFLATION, T_FACTOR, WARMUP_ITERS
from .core import MatrixHandle, as_vector, operator_of
# power_method_norm is unused here, but tracers rebind it by this name.
from .core import power_method_norm  # noqa: F401
from .errors import DomainError
from .lanczos import preconditioned_lanczos, ritz_values
from .nystrom import NystromPreconditioner, build_nystrom_psd, cho_apply
from .report import SolveReport


@dataclass
class PsdSolveConfig:
    """Knobs for one PSD solve; eps is the target relative energy-norm error."""

    l: int
    lam: float = 0.0
    eps: float = 1e-8
    delta: float = 0.01
    seed: int = 0

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


def _ritz_kappa(tri) -> Optional[float]:
    """Preconditioned condition estimate from a run's tridiagonal block."""
    if tri is None:
        return None
    theta = ritz_values(tri)
    tmax = float(theta[-1])
    if tmax <= 0.0:
        return None
    tmin = max(float(theta[0]), 1e-14 * tmax)
    return RITZ_INFLATION * tmax / tmin


def _tally(counters: Optional[dict], level: str, steps: int, exhausted: bool = False) -> None:
    """Count one run: its steps in level_total, 1 in level_runs (and level_exhausted)."""
    if counters is not None:
        counters[level + "_total"] = counters.get(level + "_total", 0) + steps
        counters[level + "_runs"] = counters.get(level + "_runs", 0) + 1
        if exhausted:
            counters[level + "_exhausted"] = counters.get(level + "_exhausted", 0) + 1


def solve_m1_psd(
    pre: NystromPreconditioner,
    r: np.ndarray,
    counters: Optional[dict] = None,
) -> np.ndarray:
    """M^{-1} r = (r - Y^T G^{-1} Y r) / lt: one direct solve with the prefactored G.

    Level 2 is exact and counts as one run of one step.
    """
    r = as_vector(r, pre.n)
    _tally(counters, "level2", 1)
    return (r - pre.Y.T @ cho_apply(pre.inner)(pre.Y @ r)) / pre.lambda_tilde


def two_phase_lanczos(
    b_op,
    b: np.ndarray,
    solve_m,
    kappa0: float,
    eps: float,
    *,
    trace: Optional[Callable[[dict], None]] = None,
) -> tuple:
    """One Lanczos run to energy error eps, capped by its own Ritz values; every solver runs it.

    The run stops once its estimate of the relative energy-norm error is
    <= eps (preconditioned_lanczos's error_target; before step WARMUP_ITERS
    only where its Krylov space closed).  At step WARMUP_ITERS its T gives
    kappa (inflated Ritz ratio, kappa0 if none), which sizes t_max, the cap
    on its total steps, within [WARMUP_ITERS, 2n].

    The run solves for 2^-e b, e the binary exponent of max|b|, and scales
    x (and the workspace's z') back by 2^e.  Both scalings are exact, every
    step is the same up to those powers of two, and b . b can neither
    underflow nor overflow at any scale of b.  b must be nonzero.

    Returns (x, workspace, kappa, diagnostics of the budget).  kappa is the
    value t_max was sized with, or the raw Ritz estimate of the final T
    (possibly None) when the run ended before the Ritz read.
    """
    read: dict = {}

    def retarget(tri):
        kappa = _ritz_kappa(tri) or kappa0
        t_max = int(math.ceil(T_FACTOR * math.sqrt(kappa) * math.log(max(kappa / eps, math.e))))
        t_max = min(max(t_max, WARMUP_ITERS), 2 * b.shape[0])
        read.update(kappa=kappa, diag={"t_max": t_max})
        return t_max

    e = math.frexp(float(np.max(np.abs(b))))[1]
    x, ws = preconditioned_lanczos(
        b_op, np.ldexp(b, -e), solve_m, t_max=WARMUP_ITERS, error_target=eps, trace=trace,
        retarget=(WARMUP_ITERS, retarget),
    )
    x = np.ldexp(x, e)
    ws.z_prime = math.ldexp(ws.z_prime, e)
    if not read:
        return x, ws, _ritz_kappa(ws.tridiag), {}
    return x, ws, read["kappa"], read["diag"]


def solve_level1(
    method: str,
    op,
    b: np.ndarray,
    cfg: PsdSolveConfig,
    pre: Optional[NystromPreconditioner],
    build: Callable[[], NystromPreconditioner],
    level2: Callable[[NystromPreconditioner, np.ndarray], np.ndarray],
    counters: dict,
    path_diagnostics: Callable[[NystromPreconditioner], dict],
    *,
    products: int,
    trace: Optional[Callable[[dict], None]],
) -> SolveReport:
    """Level 1 of both msp paths: Lanczos on B + lam*I preconditioned by `pre`.

    op applies B, the PSD matrix `pre` approximates: A on the PSD path, A^T A
    on the normal-equations path, at `products` products with A per apply.
    `pre` is build() unless given; its ||B|| estimate pm_norm, the top
    eigenvalue of B's Nystrom approximation, gives kappa_mat = cond(M),
    level 1's fallback condition estimate.  level2(pre, r) returns M^{-1} r
    (the SolveM) and adds its inner iteration counts to `counters`, whose
    keys (all zero on entry) join level1 (every level-1 step) and warmup
    (the steps up to the Ritz read) in the report's iterations;
    path_diagnostics(pre) adds the path's own diagnostics.
    matvecs counts the products with A this call made: level 1's steps and
    its one true residual, and pre.build_matvecs when this call built `pre`.
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

    if not b.any():
        return report({"level1": 0, "warmup": 0}, x=np.zeros(n), status="converged", matvecs=0,
                      residual_history=[], kappa_m_estimate=None, stop_reason="zero-rhs")

    built = pre is None
    if built:
        pre = build()
    # cond(M): M = B_nys + lt*I tops out at mu_max + lt
    kappa_mat = (pre.pm_norm + pre.lambda_tilde) / pre.lambda_tilde
    x, ws, kappa_m, read_diag = two_phase_lanczos(b_op, b, lambda r: level2(pre, r), kappa_mat,
                                                  cfg.eps, trace=trace)
    pre.kappa_hat = kappa_m
    return report(
        {"level1": ws.iterations, "warmup": min(ws.iterations, WARMUP_ITERS)},
        x=x, status=ws.status, stop_reason=ws.stop_reason,
        matvecs=products * ws.n_matvec + (pre.build_matvecs if built else 0),
        residual_history=[[i, r] for i, r in ws.checkpoints],
        kappa_m_estimate=kappa_m,
        diagnostics={
            "l_effective": pre.l,
            "l_clamped": pre.l != cfg.l,
            "kappa_mat_estimate": kappa_mat,
            "preconditioner": pre.diagnostics(),
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
    b = as_vector(b)
    n = b.shape[0]
    if not isinstance(a, MatrixHandle) and not callable(a):
        a = MatrixHandle(a, sym="spd")
    counters: dict = {"level2_total": 0, "level2_runs": 0}

    def build():
        l_eff = clamp_rank(cfg.l, n)[0]
        return build_nystrom_psd(a, l_eff, cfg.lam, cfg.delta, cfg.seed, n=n)

    def path_diagnostics(pre):
        return {
            "level2_solver": "cholesky",
            "matvec_note": "matvecs counts the A applications this call made: level 1, "
            "and, when it built the preconditioner of an operator-only A, the build's "
            "applications to the columns of S^T, of the l-row probe sketch and of the "
            "lambda0 probes (preconditioner.build_passes; a matrix build streams A once "
            "and adds none)",
        }

    return solve_level1(
        "msp-psd", operator_of(a), b, cfg, pre, build,
        lambda pre, r: solve_m1_psd(pre, r, counters), counters, path_diagnostics,
        products=1, trace=trace,
    )
