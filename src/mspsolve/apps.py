"""Applications on top of the solvers: kernel ridge regression, tall least
squares by sketch-and-precondition, the ridge black-box contract, and a
Hutchinson trace estimator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.spatial.distance

from .config import DEFAULT, Tunables, ose_rows
from .core import MatrixHandle, as_vector, dense_factor_solve, operator_of
from .errors import DomainError
from .general import GeneralMspState, GeneralSolveConfig, build_general, solve_normal
from .psd import PsdSolveConfig, clamp_rank, solve_psd
from .report import SolveReport
from .sketch import make_ose


@dataclass
class KernelSpec:
    """Kernel family plus the point cloud it acts on."""

    kind: str  # rbf | linear | polynomial
    points: np.ndarray
    bandwidth: float = 1.0
    degree: int = 2
    coef0: float = 1.0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise DomainError("points must be an n x d array")
        if self.kind not in ("rbf", "linear", "polynomial"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.bandwidth <= 0.0:
            raise DomainError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.kind == "polynomial" and (self.degree < 1 or self.coef0 < 0):
            raise DomainError("polynomial kernel needs degree >= 1 and coef0 >= 0")


def kernel_matrix(spec: KernelSpec) -> MatrixHandle:
    """Materialize the dense kernel Gram matrix (desk scale, n <~ 8000).

    A 1e-10-relative diagonal jitter keeps borderline-PSD kernels factorable.
    """
    x = spec.points
    if spec.kind == "rbf":
        sq = scipy.spatial.distance.squareform(
            scipy.spatial.distance.pdist(x, metric="sqeuclidean"), checks=False
        )
        k = np.exp(-sq / (2.0 * spec.bandwidth**2))
    elif spec.kind == "linear":
        k = x @ x.T
    else:
        k = (x @ x.T + spec.coef0) ** spec.degree
    k = 0.5 * (k + k.T)
    n = k.shape[0]
    k[np.diag_indices(n)] += 1e-10 * (np.trace(k) / n)
    return MatrixHandle(k, sym="spd")


def hutchinson_trace(
    op_apply, probes: int, seed: int, n: Optional[int] = None
) -> Tuple[float, float]:
    """Stochastic trace estimate: mean and standard error over Rademacher probes."""
    if probes < 2:
        raise DomainError(f"need at least 2 probes for a standard error, got {probes}")
    if isinstance(op_apply, MatrixHandle):
        n = op_apply.rows
    elif isinstance(op_apply, np.ndarray):
        n = op_apply.shape[0]
    elif n is None:
        raise DomainError("callable operator needs an explicit dimension n")
    op = operator_of(op_apply)
    rng = np.random.default_rng(seed)
    vals = np.empty(probes)
    for p in range(probes):
        z = 2.0 * rng.integers(0, 2, size=n) - 1.0
        vals[p] = float(z @ op(z))
    est = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(probes))
    return est, stderr


def _estimate_effective_dim(
    k: MatrixHandle,
    lam: float,
    delta: float,
    seed: int,
    tun: Tunables,
    q: int = 10,
    l_boot: int = 64,
) -> Tuple[float, int]:
    """d_lambda = tr(K(K+lam*I)^{-1}) by Hutchinson with coarse bootstrap solves.

    Uses the identity z^T K (K+lam)^{-1} z = z^T z - lam * z^T (K+lam)^{-1} z,
    so each probe costs one coarse solve.  A diverging bootstrap doubles its
    rank parameter, at most twice.  Returns (estimate, retries_used).
    """
    n = k.rows
    rng = np.random.default_rng([seed & ((1 << 63) - 1), 11])
    retries = 0
    while True:
        l_eff, _ = clamp_rank(min(l_boot, max(n // 2, 1)), n)
        cfg = PsdSolveConfig(l=l_eff, lam=lam, eps=0.25, delta=delta, seed=seed + 17)
        vals = []
        diverged = False
        pre = None
        for p in range(q):
            z = 2.0 * rng.integers(0, 2, size=n) - 1.0
            rep = solve_psd(k, z, cfg, tun=tun, pre=pre)
            pre = rep.preconditioner  # build once, reuse across probes
            if rep.status != "converged":
                diverged = True
                break
            vals.append(float(z @ z) - lam * float(z @ rep.x))
        if not diverged:
            return max(float(np.mean(vals)), 0.0), retries
        if retries >= 2:
            return float(n), retries  # forces the dense fallback upstream
        retries += 1
        l_boot *= 2


def solve_krr(
    k,
    y: np.ndarray,
    lam: float,
    eps: float,
    delta: float = 0.01,
    seed: int = 0,
    *,
    d_lambda_exact: Optional[float] = None,
    tun: Tunables = DEFAULT,
) -> SolveReport:
    """Kernel ridge regression solve (K + lam*I) alpha = y.

    Estimates the effective dimension, sets the sketch rank l ~ 2*d_lambda,
    and runs the PSD solver; a dense direct solve takes over when the
    effective dimension is too large for sketching to pay (d_hat > n/4).
    `d_lambda_exact` bypasses the estimate (oracle mode for tests).
    """
    t_start = time.perf_counter()
    if lam <= 0.0:
        raise DomainError(f"ridge parameter must be positive, got {lam}")
    if not isinstance(k, MatrixHandle):
        k = MatrixHandle(np.asarray(k, dtype=np.float64), sym="spd")
    y = as_vector(y, k.rows)
    n = k.rows

    if d_lambda_exact is not None:
        d_hat, retries = float(d_lambda_exact), 0
    else:
        d_hat, retries = _estimate_effective_dim(k, lam, delta, seed, tun)

    if d_hat > n / 4.0:
        reg = MatrixHandle(k.to_dense() + lam * np.eye(n), sym="spd")
        x = dense_factor_solve(reg, y)
        return SolveReport(
            x=x, status="converged", method="krr-dense-fallback",
            iterations={"level1": 0, "warmup": 0, "level2_total": 0},
            matvecs=0, residual_history=[], kappa_m_estimate=None,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            config_echo={"lam": lam, "eps": eps, "delta": delta, "seed": seed},
            stop_reason="dense-fallback",
            diagnostics={"d_lambda_estimate": d_hat, "bootstrap_retries": retries},
        )

    lo = int(math.ceil(math.log2(max(n, 2)))) + 1
    l = int(min(max(math.ceil(2.0 * d_hat), lo), max(n // 2, lo)))
    cfg = PsdSolveConfig(l=l, lam=lam, eps=eps, delta=delta, seed=seed)
    report = solve_psd(k, y, cfg, tun=tun)
    report.method = "krr"
    report.wall_ms = (time.perf_counter() - t_start) * 1e3
    report.diagnostics["d_lambda_estimate"] = d_hat
    report.diagnostics["bootstrap_retries"] = retries
    report.diagnostics["l_choice"] = l
    return report


@dataclass(eq=False)
class RidgeBlackBox:
    """Reusable solver state for fixed (A, lam): repeated ridge solves."""

    a: MatrixHandle
    lam: float
    l: int = 32
    delta: float = 0.01
    seed: int = 0
    tun: Tunables = DEFAULT
    state: GeneralMspState = field(init=False)

    def __post_init__(self):
        if not isinstance(self.a, MatrixHandle):
            self.a = MatrixHandle(np.asarray(self.a, dtype=np.float64))
        cfg = GeneralSolveConfig(
            l=self.l, lam=self.lam, eps=0.5, delta=self.delta, seed=self.seed
        )
        self.state = build_general(self.a, cfg, tun=self.tun)


def ridge_blackbox_solve(bb: RidgeBlackBox, y: np.ndarray, eps: float) -> np.ndarray:
    """x with ||x - (A^T A + lam*I)^{-1} y|| small in the regularized norm.

    The contract's two norms coincide (||y||_{M^{-1}} = ||M^{-1}y||_M), so
    delegating to the normal-equations solver at target eps satisfies it.
    """
    y = as_vector(y, bb.a.cols)
    if float(np.linalg.norm(y)) == 0.0:
        return np.zeros(bb.a.cols)
    cfg = GeneralSolveConfig(
        l=bb.l, lam=bb.lam, eps=eps, delta=bb.delta, seed=bb.seed
    )
    report = solve_normal(bb.a, y, cfg, state=bb.state, tun=bb.tun)
    return report.x


def solve_least_squares(
    a,
    b: np.ndarray,
    eps: float,
    delta: float = 0.01,
    seed: int = 0,
    l: Optional[int] = None,
    *,
    tun: Tunables = DEFAULT,
) -> SolveReport:
    """min_x ||A x - b|| for tall A by sketch-and-precondition refinement.

    A row sketch A_bar = Psi A (constant-distortion subspace embedding for
    range(A)) is built once; each outer step solves (A_bar^T A_bar) z = g,
    g the true gradient A^T(b - A x), to constant accuracy through the
    three-level machinery, then takes the exact line-search step along z.
    Stops when ||A^T(b - A x)|| <= eps * ||A^T b||.
    """
    t_start = time.perf_counter()
    if not isinstance(a, MatrixHandle):
        a = MatrixHandle(np.asarray(a, dtype=np.float64))
    m, n = a.rows, a.cols
    if m < n:
        raise DomainError(f"least squares path expects tall A, got {m}x{n}")
    b = as_vector(b, m)
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must be in (0,1), got {eps}")

    l_eff = l if l is not None else max(int(math.ceil(math.log2(max(n, 2)))) + 1, n // 8)
    l_eff, _ = clamp_rank(l_eff, n)
    g0 = a.rmatvec(b)
    g0_norm = float(np.linalg.norm(g0))
    if g0_norm == 0.0:
        # b is orthogonal to range(A): x = 0 is the minimizer.
        return SolveReport(
            x=np.zeros(n), status="converged", method="sketch-ls",
            iterations={"outer": 0, "level1_total": 0},
            matvecs=1, residual_history=[], kappa_m_estimate=None,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            config_echo={"eps": eps, "delta": delta, "seed": seed, "l": l_eff},
            stop_reason="zero-gradient",
        )

    psi = make_ose(m, n, delta, tun.ose_epsilon, seed + 7, tun=tun)
    a_bar = MatrixHandle(psi.apply(a.raw()))
    inner_cfg = GeneralSolveConfig(
        l=l_eff, lam=0.0, eps=0.25, delta=delta, seed=seed
    )
    state = build_general(a_bar, inner_cfg, tun=tun)

    budget = 8 * int(math.ceil(math.log2(1.0 / eps)))
    x = np.zeros(n)
    grad_history = []
    level1_total = 0
    matvecs = 1
    status, stop_reason = "budget-exhausted", "outer-budget"
    outer = 0
    for outer in range(budget):
        r = b - a.matvec(x)
        g = a.rmatvec(r)
        matvecs += 2
        g_rel = float(np.linalg.norm(g)) / g0_norm
        grad_history.append([outer, g_rel])
        if g_rel <= eps:
            status, stop_reason = "converged", "gradient-target"
            break
        inner = solve_normal(a_bar, g, inner_cfg, state=state, tun=tun)
        level1_total += inner.iterations["level1"]
        z = inner.x
        az = a.matvec(z)
        matvecs += 1
        denom = float(az @ az)
        if denom == 0.0:
            status, stop_reason = "breakdown", "null-step"
            break
        # Exact line search along z: keeps the objective monotone even when
        # the sketch distortion would make a unit step overshoot.
        alpha = float(az @ r) / denom
        x = x + alpha * z
    else:
        outer = budget

    return SolveReport(
        x=x, status=status, method="sketch-ls",
        iterations={"outer": outer, "level1_total": level1_total},
        matvecs=matvecs,
        residual_history=grad_history,
        kappa_m_estimate=None,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
        config_echo={"eps": eps, "delta": delta, "seed": seed, "l": l_eff},
        stop_reason=stop_reason,
        diagnostics={
            "sketch_rows": psi.phi,
            "sketch_identity": psi.is_identity,
            "preconditioner": state.diagnostics(),
        },
        preconditioner=state,
    )
