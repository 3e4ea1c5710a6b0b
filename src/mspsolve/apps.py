"""Applications on top of the solvers: kernel ridge regression (preconditioned
by the Nystrom build its effective dimension is read off), tall least squares
by one Lanczos run preconditioned by the sketched Gram (Psi A)^T (Psi A), and
the ridge black-box contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
import scipy.linalg
import scipy.spatial.distance

from . import nystrom
from .config import OSE_EPSILON
from .core import MatrixHandle, as_vector, dense_factor
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
        # C order: kernel_matrix's x @ x.T must be one syrk.
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise DomainError("points must be an n x d array")
        if not np.all(np.isfinite(self.points)):
            raise DomainError("points contain NaN or Inf")
        if self.kind not in ("rbf", "linear", "polynomial"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if not self.bandwidth > 0.0:
            raise DomainError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.kind == "polynomial" and not (
            float(self.degree).is_integer() and self.degree >= 1 and self.coef0 >= 0
        ):
            raise DomainError("polynomial kernel needs an integer degree >= 1 and coef0 >= 0")
        if self.kind != "rbf" and self._log_trace_bound() >= math.log(np.finfo(np.float64).max):
            raise DomainError(f"{self.kind} kernel entries overflow float64")

    def _log_trace_bound(self) -> float:
        """log(n * (max_i ||x_i||^2 + coef0)^degree), in O(n d) without overflow.

        |x_i . x_j| <= max_i ||x_i||^2 (Cauchy-Schwarz), so that power is
        the largest entry of a linear or polynomial K, its diagonal at the
        longest point, and n times it bounds tr(K).
        """
        degree, coef0 = (self.degree, self.coef0) if self.kind == "polynomial" else (1, 0.0)
        x = self.points
        scale = float(np.max(np.abs(x), initial=0.0))
        log_sq = -math.inf
        if scale > 0.0:
            u = x / scale
            log_sq = 2.0 * math.log(scale) + math.log(float(np.max(np.einsum("ij,ij->i", u, u))))
        if coef0 > 0.0:
            log_sq = float(np.logaddexp(log_sq, math.log(coef0)))
        return math.log(max(x.shape[0], 1)) + degree * log_sq


def kernel_matrix(spec: KernelSpec) -> MatrixHandle:
    """Materialize the dense kernel Gram matrix (desk scale, n <~ 8000).

    K is built in the one n x n array squareform or x @ x.T returns (peak
    1.5*n^2 doubles for rbf, n^2 otherwise), symmetric to the bit: squareform
    mirrors each entry, and x @ x.T on C-ordered points is one BLAS syrk.
    A 1e-10-relative diagonal jitter keeps borderline-PSD kernels factorable.
    """
    x = spec.points
    if spec.kind == "rbf":
        k = scipy.spatial.distance.squareform(
            scipy.spatial.distance.pdist(x, metric="sqeuclidean"), checks=False
        )
        np.divide(k, -(2.0 * spec.bandwidth**2), out=k)  # a/(-c) == (-a)/c exactly
        np.exp(k, out=k)
    else:
        k = x @ x.T
        if spec.kind == "polynomial":
            k += spec.coef0
            k **= spec.degree
    n = k.shape[0]
    k[np.diag_indices(n)] += 1e-10 * (np.trace(k) / n)
    return MatrixHandle(k, sym="spd")


def _estimate_effective_dim(
    k: MatrixHandle,
    lam: float,
    delta: float,
    seed: int,
    l_boot: int = 64,
) -> Tuple[float, int, nystrom.NystromPreconditioner]:
    """d_lambda = tr(K(K+lam*I)^{-1}) read off one Nystrom build of K.

    The estimate is sum mu/(mu+lam) over the eigenvalues mu of
    K_nys = C W_j^{-1} C^T that the build reads (nystrom.build_nystrom_psd at
    rank l_boot).  The build has resolved d_lambda when s = n or
    mu_min <= lam; otherwise l_boot doubles, at most twice, and n is
    returned, which forces the dense fallback upstream.
    Returns (estimate, retries, the last build).
    """
    n = k.rows
    retries = 0
    while True:
        l_eff, _ = clamp_rank(min(l_boot, max(n // 2, 1)), n)
        pre = nystrom.build_nystrom_psd(k, l_eff, lam, delta, seed + 17)
        mu = pre.mu
        if pre.s == n or mu[0] <= lam:
            return float(np.sum(mu / (mu + lam))), retries, pre
        if retries >= 2:
            return float(n), retries, pre
        retries += 1
        l_boot *= 2


def solve_krr(
    k,
    y: np.ndarray,
    lam: float,
    eps: float,
    delta: float = 0.01,
    seed: int = 0,
) -> SolveReport:
    """Kernel ridge regression solve (K + lam*I) alpha = y.

    Reads d_lambda off one Nystrom build of K and runs the PSD solver once,
    preconditioned by that same build (rank l_boot, lambda0 and ||K|| from
    its own eigenvalues); a dense direct solve takes over when sketching
    cannot pay (d_hat > n/4) or the build is unresolved.

    The read is kept on the handle K, one entry per handle: the build (C
    and Y, 2*n*s doubles, about 3.1 MB at n = 1500, s = 128) or, on the
    dense fallback, the n x n Cholesky factor of K + lam*I alone.  A later
    call on the same handle with the same (lam, seed), at any eps and
    delta (which does not size the PSD sketch), reuses it and says so in
    diagnostics["d_lambda_read"] ("reused", else "built"); an array K gets a
    new handle, so a new read, every call.
    """
    t_start = time.perf_counter()
    if lam <= 0.0:
        raise DomainError(f"ridge parameter must be positive, got {lam}")
    # Checks eps and delta before the read; l is the read's.
    cfg = PsdSolveConfig(l=1, lam=lam, eps=eps, delta=delta, seed=seed)
    if not isinstance(k, MatrixHandle):
        k = MatrixHandle(k, sym="spd")
    y = as_vector(y, k.rows)
    n = k.rows

    key = (lam, seed)  # delta does not size the PSD sketch
    read = "reused"
    if k._krr_memo is None or k._krr_memo[0] != key:
        k._krr_memo = None  # the old entry goes before the new read is made
        read = "built"
        d_hat, retries, held = _estimate_effective_dim(k, lam, delta, seed)
        if d_hat > n / 4.0:
            del held  # its C and Y can be as large as K here
            reg = np.array(k.to_dense())
            reg[np.diag_indices(n)] += lam
            held = dense_factor(MatrixHandle(reg, sym="spd"))[1]
        k._krr_memo = (key, d_hat, retries, held)
    _, d_hat, retries, held = k._krr_memo
    read_diag = {"d_lambda_estimate": d_hat, "bootstrap_retries": retries,
                 "d_lambda_read": read}

    if isinstance(held, tuple):  # the Cholesky factor of K + lam*I
        return SolveReport(
            x=scipy.linalg.cho_solve(held, y, check_finite=False),
            status="converged", method="krr-dense-fallback",
            iterations={"level1": 0, "warmup": 0, "level2_total": 0},
            matvecs=0, residual_history=[], kappa_m_estimate=None,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            config_echo={"lam": lam, "eps": eps, "delta": delta, "seed": seed},
            stop_reason="dense-fallback",
            diagnostics=read_diag,
        )

    cfg.l = held.l
    report = solve_psd(k, y, cfg, pre=held)
    report.method = "krr"
    report.wall_ms = (time.perf_counter() - t_start) * 1e3
    report.diagnostics.update(read_diag)
    report.diagnostics["l_choice"] = held.l
    return report


@dataclass(eq=False)
class RidgeBlackBox:
    """Reusable solver state for fixed (A, lam): repeated ridge solves."""

    a: MatrixHandle
    lam: float
    l: int = 32
    delta: float = 0.01
    seed: int = 0
    state: GeneralMspState = field(init=False)

    def __post_init__(self):
        if not isinstance(self.a, MatrixHandle):
            self.a = MatrixHandle(self.a)
        cfg = GeneralSolveConfig(
            l=self.l, lam=self.lam, eps=0.5, delta=self.delta, seed=self.seed
        )
        self.state = build_general(self.a, cfg)


def ridge_blackbox_solve(bb: RidgeBlackBox, y: np.ndarray, eps: float) -> np.ndarray:
    """x with ||x - (A^T A + lam*I)^{-1} y|| small in the regularized norm.

    The contract's two norms coincide (||y||_{M^{-1}} = ||M^{-1}y||_M), so
    delegating to the normal-equations solver at target eps satisfies it.
    """
    y = as_vector(y, bb.a.cols)
    cfg = GeneralSolveConfig(
        l=bb.l, lam=bb.lam, eps=eps, delta=bb.delta, seed=bb.seed
    )
    report = solve_normal(bb.a, y, cfg, state=bb.state)
    return report.x


def solve_least_squares(
    a,
    b: np.ndarray,
    eps: float,
    delta: float = 0.01,
    seed: int = 0,
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
        a = MatrixHandle(a)
    m, n = a.rows, a.cols
    if m < n:
        raise DomainError(f"least squares path expects tall A, got {m}x{n}")
    b = as_vector(b, m)
    if not (0.0 < eps < 1.0):
        raise DomainError(f"eps must be in (0,1), got {eps}")

    config_echo = {"eps": eps, "delta": delta, "seed": seed}
    # The run solves for 2^-e b, e the binary exponent of max|b|, and x is
    # scaled back by 2^e: exact, and no square of a tiny or huge b under- or
    # overflows (psd.two_phase_lanczos does the same).
    e = math.frexp(float(np.max(np.abs(b))))[1]
    g0 = a.rmatvec(np.ldexp(b, -e))
    if not g0.any():
        # b is orthogonal to range(A): x = 0 is the minimizer.
        return SolveReport(
            x=np.zeros(n), status="converged", method="sketch-ls",
            iterations={"outer": 0}, matvecs=1, residual_history=[],
            kappa_m_estimate=None,
            wall_ms=(time.perf_counter() - t_start) * 1e3,
            config_echo=config_echo, stop_reason="zero-gradient",
        )

    psi = make_ose(m, n, delta, OSE_EPSILON, seed + 7)
    a_bar = psi.apply(a.raw())
    factor, _, jitter = nystrom.jittered_cholesky(a_bar.T @ a_bar, "sketched Gram")
    del a_bar
    x, ws = preconditioned_lanczos(
        lambda v: a.rmatvec(a.matvec(v)), g0, nystrom.cho_apply(factor),
        t_max=8 * int(math.ceil(math.log2(1.0 / eps))), residual_target=eps,
    )
    x = np.ldexp(x, e)
    ws.z_prime = math.ldexp(ws.z_prime, e)
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
