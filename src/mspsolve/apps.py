"""Applications on top of the solvers: kernel ridge regression (rank read off
one Nystrom sketch of K), tall least squares by one Lanczos run preconditioned
by the sketched Gram (Psi A)^T (Psi A), the ridge black-box contract, and a
Hutchinson trace estimator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.spatial.distance

from . import nystrom
from .config import DEFAULT, Tunables
from .core import MatrixHandle, as_vector, dense_factor_solve, operator_of
from .errors import DomainError
from .general import GeneralMspState, GeneralSolveConfig, build_general, solve_normal
from .lanczos import preconditioned_lanczos
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
    l_boot: int = 64,
) -> Tuple[float, int]:
    """d_lambda = tr(K(K+lam*I)^{-1}) read off one Nystrom sketch of K.

    Only the sketch is formed (nystrom.psd_sketch): no lambda0 probes and no
    level-2 factor.  The eigenvalues mu of K_nys = C W_j^{-1} C^T are those
    of B B^T, B = L^{-1} C^T with L the Cholesky factor of W_j (the first
    rung of the jitter ladder that factors), and the estimate is
    sum mu/(mu+lam).  The sketch has resolved d_lambda when s = n or
    mu_min <= lam; otherwise l_boot doubles, at most twice, and n is returned,
    which forces the dense fallback upstream.  Returns (estimate, retries).
    """
    n = k.rows
    retries = 0
    while True:
        l_eff, _ = clamp_rank(min(l_boot, max(n // 2, 1)), n)
        c, w, _ = nystrom.psd_sketch(k, l_eff, delta, seed + 17, n, tun)
        chol = nystrom.jittered_cholesky(w, tun, "W")[0][0]
        b = scipy.linalg.solve_triangular(chol, c.to_dense().T, lower=True, check_finite=False)
        mu = np.maximum(scipy.linalg.eigvalsh(b @ b.T, check_finite=False), 0.0)
        if c.cols == n or mu[0] <= lam:
            return float(np.sum(mu / (mu + lam))), retries
        if retries >= 2:
            return float(n), retries
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
    tun: Tunables = DEFAULT,
) -> SolveReport:
    """Kernel ridge regression solve (K + lam*I) alpha = y.

    Reads d_lambda off one Nystrom sketch of K, sets the sketch rank
    l ~ 2*d_lambda and runs the PSD solver once; a dense direct solve takes
    over when sketching cannot pay (d_hat > n/4) or the sketch is unresolved.
    """
    t_start = time.perf_counter()
    if lam <= 0.0:
        raise DomainError(f"ridge parameter must be positive, got {lam}")
    if not isinstance(k, MatrixHandle):
        k = MatrixHandle(np.asarray(k, dtype=np.float64), sym="spd")
    y = as_vector(y, k.rows)
    n = k.rows

    d_hat, retries = _estimate_effective_dim(k, lam, delta, seed, tun)

    if d_hat > n / 4.0:
        reg = np.array(k.to_dense())
        reg[np.diag_indices(n)] += lam
        x = dense_factor_solve(MatrixHandle(reg, sym="spd"), y)
        return SolveReport(
            x=x, status="converged", method="krr-dense-fallback",
            iterations={"level1": 0, "warmup": 0, "level2_total": 0},
            matvecs=0, residual_history=[], kappa_m_estimate=None,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            config_echo={"lam": lam, "eps": eps, "delta": delta, "seed": seed},
            stop_reason="dense-fallback",
            diagnostics={"d_lambda_estimate": d_hat, "bootstrap_retries": retries},
        )

    l = clamp_rank(min(math.ceil(2.0 * d_hat), n // 2), n)[0]
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
    *,
    tun: Tunables = DEFAULT,
) -> SolveReport:
    """min_x ||A x - b|| for tall A by sketch-and-precondition.

    A row sketch A_bar = Psi A (a constant-distortion subspace embedding for
    range(A)) makes M = A_bar^T A_bar within a constant factor of A^T A
    (Rokhlin & Tygert 2008; Avron, Maymounkov & Toledo 2010, Blendenpik).
    M is factored once through the jitter ladder, which also covers a
    rank-deficient A, and one preconditioned Lanczos run on
    A^T A x = A^T b, one product with A and one with A^T per step, stops
    when its true residual ||A^T(b - A x)|| <= eps * ||A^T b||.  That stop
    is reported as "gradient-target"; the run's other stop reasons pass
    through, so a clean Krylov break (an invariant subspace, exact in exact
    arithmetic) is reported as converged without a gradient check.  iterations["outer"] counts the run's steps, budget
    8*ceil(log2(1/eps)).
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

    config_echo = {"eps": eps, "delta": delta, "seed": seed}
    g0 = a.rmatvec(b)
    if float(np.linalg.norm(g0)) == 0.0:
        # b is orthogonal to range(A): x = 0 is the minimizer.
        return SolveReport(
            x=np.zeros(n), status="converged", method="sketch-ls",
            iterations={"outer": 0}, matvecs=1, residual_history=[],
            kappa_m_estimate=None,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            config_echo=config_echo, stop_reason="zero-gradient",
        )

    psi = make_ose(m, n, delta, tun.ose_epsilon, seed + 7, tun=tun)
    a_bar = psi.apply(a.raw())
    factor, _, jitter, _ = nystrom.jittered_cholesky(a_bar.T @ a_bar, tun, "sketched Gram")
    del a_bar
    x, ws = preconditioned_lanczos(
        lambda v: a.rmatvec(a.matvec(v)), g0, nystrom.cho_apply(factor),
        t_max=8 * int(math.ceil(math.log2(1.0 / eps))), residual_target=eps, tun=tun,
    )
    return SolveReport(
        x=x, status=ws.status, method="sketch-ls",
        iterations={"outer": ws.iterations},
        matvecs=1 + 2 * ws.n_matvec,
        residual_history=[[i, r] for i, r in ws.checkpoints],
        kappa_m_estimate=None,
        wall_ms=(time.perf_counter() - t_start) * 1e3,
        config_echo=config_echo,
        stop_reason=(
            "gradient-target" if ws.stop_reason == "residual-target" else ws.stop_reason
        ),
        diagnostics={
            "sketch_rows": psi.phi,
            "sketch_identity": psi.is_identity,
            "jitter": jitter,
        },
        workspace=ws,
    )
