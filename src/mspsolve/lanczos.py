"""Left-preconditioned Lanczos with inexact M-solves.

The iteration (`preconditioned_lanczos`) runs the recurrence on the original
system, applying the preconditioner only through a SolveM callable that may
itself be an iterative (inexact) solver.

Notation mirrors the recurrence: q_over are the M^{-1}-side basis vectors
(written q-bar in comments), q_under the unpreconditioned companions; the
tridiagonal T collects alpha'_i on the diagonal and beta'_{i+1} off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.linalg

from .config import BREAKDOWN_RTOL, CHECK_EVERY, RITZ_INFLATION, WARMUP_ITERS
from .core import as_vector, operator_of
from .errors import BreakdownError, DomainError


@dataclass(eq=False)
class TridiagonalMatrix:
    """Symmetric tridiagonal: alphas on the diagonal, betas off-diagonal."""

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        self.betas = np.asarray(self.betas, dtype=np.float64)
        if self.alphas.ndim != 1 or self.alphas.size < 1:
            raise DomainError("tridiagonal needs at least one diagonal entry")
        if self.betas.shape != (self.alphas.size - 1,):
            raise DomainError(
                f"off-diagonal length {self.betas.size} does not match "
                f"dimension {self.alphas.size}"
            )

    @property
    def t(self) -> int:
        return self.alphas.size

    def head(self, i: int) -> "TridiagonalMatrix":
        """Leading i-by-i principal submatrix."""
        if not (1 <= i <= self.t):
            raise DomainError(f"head index {i} out of range [1, {self.t}]")
        return TridiagonalMatrix(self.alphas[:i], self.betas[: i - 1])

    def to_dense(self) -> np.ndarray:
        t = self.t
        m = np.zeros((t, t))
        m[np.diag_indices(t)] = self.alphas
        for k in range(t - 1):
            m[k, k + 1] = m[k + 1, k] = self.betas[k]
        return m


def tridiag_solve_e1(tri: TridiagonalMatrix, scale: float) -> np.ndarray:
    """scale * T^{-1} e1 by LDL^T without pivoting.

    A pivot below 1e-14 * max|alpha| switches to a dense eigendecomposition;
    if T is singular even there, raises BreakdownError.
    """
    a = tri.alphas
    b = tri.betas
    t = tri.t
    amax = float(np.max(np.abs(a))) if t else 0.0
    thresh = 1e-14 * amax

    d = np.empty(t)
    lower = np.empty(max(t - 1, 0))
    d[0] = a[0]
    ok = abs(d[0]) > thresh
    if ok:
        for i in range(t - 1):
            lower[i] = b[i] / d[i]
            d[i + 1] = a[i + 1] - b[i] * lower[i]
            if abs(d[i + 1]) <= thresh:
                ok = False
                break
    if ok:
        # Ly = e1 ; Dz = y ; L^T x = z, all specialised to the e1 right side.
        y = np.empty(t)
        y[0] = 1.0
        for i in range(t - 1):
            y[i + 1] = -lower[i] * y[i]
        z = y / d
        x = np.empty(t)
        x[t - 1] = z[t - 1]
        for i in range(t - 2, -1, -1):
            x[i] = z[i] - lower[i] * x[i + 1]
        return scale * x

    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(a, b)
    except scipy.linalg.LinAlgError as exc:
        raise BreakdownError(f"tridiagonal eigendecomposition failed: {exc}") from exc
    vmax = float(np.max(np.abs(vals)))
    if vmax == 0.0 or np.min(np.abs(vals)) <= 1e-14 * vmax:
        raise BreakdownError("tridiagonal system is singular")
    return scale * (vecs @ (vecs[0, :] / vals))


def ritz_values(tri: TridiagonalMatrix) -> np.ndarray:
    """Eigenvalues of the tridiagonal block (ascending) — free spectrum probes."""
    if tri.t == 1:
        return np.array([tri.alphas[0]])
    return scipy.linalg.eigvalsh_tridiagonal(tri.alphas, tri.betas)


@dataclass(eq=False)
class LanczosWorkspace:
    """Everything the iteration accumulated, enough to rebuild any iterate.

    `basis` is the list of q-bar columns the loop built; `q_over` stacks it
    on read.  `iterate(i)` reforms x_i = z' * Q_bar[:, :i] T_i^{-1} e1 after
    the fact, which is how per-iteration error curves are extracted in tests
    without re-running the solver.
    """

    basis: List[np.ndarray]
    n: int
    z_prime: float
    tridiag: Optional[TridiagonalMatrix]
    status: str
    stop_reason: str
    iterations: int
    n_matvec: int
    checkpoints: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def q_over(self) -> np.ndarray:
        return np.column_stack(self.basis) if self.basis else np.zeros((self.n, 0))

    def iterate(self, i: int) -> np.ndarray:
        if self.tridiag is None or not (1 <= i <= self.tridiag.t):
            raise DomainError(f"no iterate {i} available")
        y = tridiag_solve_e1(self.tridiag.head(i), self.z_prime)
        return np.column_stack(self.basis[:i]) @ y


def vector_norm(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float64 vector: np.linalg.norm's own arithmetic.

    Ravel, one BLAS dot, one sqrt, so the result is bit-identical to
    np.linalg.norm without its per-call overhead, which the inner loops pay
    tens of thousands of times per solve.  A strided dot sums in another
    order, hence the ravel.  Neither rescales: v . v can over- or underflow.
    """
    v = v.ravel("K")
    return math.sqrt(float(v @ v))


def preconditioned_lanczos(
    a_apply,
    b: np.ndarray,
    solve_m,
    t_max: int,
    residual_target: Optional[float] = None,
    check_every: int = CHECK_EVERY,
    error_target: Optional[float] = None,
    trace: Optional[Callable[[dict], None]] = None,
    retarget: Optional[Tuple[int, Callable[[TridiagonalMatrix], int]]] = None,
) -> Tuple[np.ndarray, LanczosWorkspace]:
    """Run the left-preconditioned Lanczos iteration for A x = b.

    solve_m(r) supplies (approximate) M^{-1} r.  Each step extends the
    LDL^T of T_i by one pivot d_i and y_i = (L^{-1} e1)_i, and the iterate
    x_i = z' Qbar_i T_i^{-1} e1 by the coupled (D-Lanczos) update
    p_i = qbar_i - l_{i-1} p_{i-1}, x_i = x_{i-1} + z' (y_i/d_i) p_i with
    l_{i-1} = beta_{i-1}/d_{i-1} (Saad, Iterative Methods for Sparse Linear
    Systems, 6.7.1).  A run takes at most one target; with neither, all of
    t_max runs.

    error_target: ||x_i||_A^2 = z'^2 sum_j y_j^2/d_j (Gauss quadrature;
    Strakos & Tichy 2002, ETNA 13) and ||r_i||_{M^{-1}} = z' |y_i/d_i|
    beta_{i+1} come free, and ||x - x_i||_A^2 <= ||r_i||_{M^{-1}}^2 /
    lambda_min(M^{-1}A).  The run stops on the first step where that
    estimate, lambda_min read as theta_min(T_i)/RITZ_INFLATION, is
    <= error_target^2 ||x_i||_A^2; before step WARMUP_ITERS, whose Ritz
    values may miss a small eigenvalue b barely touches, only if also
    beta_{i+1} <= sqrt(BREAKDOWN_RTOL) ||(alpha_i, beta_i)|| (the Krylov
    space closed to rounding).  There and at t_max it computes the true
    residual r of x_i (one product with A, one M^{-1} apply).  If
    r^T M^{-1} r / (RITZ_INFLATION theta_max), an estimate of the error's
    lower bound r^T M^{-1} r / lambda_max, exceeds the target, the
    recurrence ran past the float floor: "accuracy-floor".

    residual_target: ||b - A x_i|| = z' |y_i/d_i| ||w_i|| comes free; on
    the step it meets the target, and every check_every steps, the run
    computes the true residual (one product with A) and stops once that is
    <= residual_target * ||b||, or after three checks in a row that improve
    it by under 1%: "accuracy-floor" if the estimate meets the target (the
    float floor, Greenbaum 1997), else "stagnation".

    retarget = (k, f) hands T_k to f on step k, which returns the run's new
    t_max.  Returns the last iterate and the workspace.  Statuses:
    "converged" ("error-target", "residual-target", or "clean-break":
    w_i^T M^{-1} w_i <= BREAKDOWN_RTOL ||w_i|| ||M^{-1} w_i||);
    "budget-exhausted" ("t-max", "accuracy-floor", "stagnation");
    "breakdown", impossible for PSD A and M ("negative-curvature", returning
    x_i; "zero-pivot", |d_i| <= BREAKDOWN_RTOL ||u_i|| ||qbar_i||, returning
    x_{i-1}).
    """
    a_op = operator_of(a_apply)
    b = as_vector(b)
    n = b.shape[0]
    if t_max < 1:
        raise DomainError(f"iteration budget must be >= 1, got {t_max}")
    if check_every < 1:
        raise DomainError(f"check_every must be >= 1, got {check_every}")
    if residual_target is not None and error_target is not None:
        raise DomainError("a run stops on a residual or on an error target, not both")
    b_norm = vector_norm(b)
    if b_norm == 0.0:
        raise DomainError("right-hand side is zero")

    n_matvec = 0
    x = np.zeros(n)

    w_bar0 = as_vector(solve_m(b), n)
    ip0 = float(b @ w_bar0)
    tol0 = BREAKDOWN_RTOL * b_norm * vector_norm(w_bar0)
    if ip0 <= tol0:
        ws = LanczosWorkspace(
            basis=[], n=n, z_prime=0.0, tridiag=None, status="breakdown",
            stop_reason="degenerate-start", iterations=0, n_matvec=n_matvec,
        )
        return x, ws

    z_prime = math.sqrt(ip0)
    q_bar = w_bar0 / z_prime
    q_under = b / z_prime
    q_under_prev = np.zeros(n)
    beta = 0.0
    pivot, y_last = 1.0, 1.0  # d_i and y_i of the LDL^T of T_i; d_0 = 1 makes l_0 = 0
    p = np.zeros(n)  # search direction p_i

    q_over_cols: List[np.ndarray] = []
    alphas: List[float] = []
    betas: List[float] = []
    checkpoints: List[Tuple[int, float]] = []
    flat_checks = 0  # consecutive checkpoints with < 1% residual improvement
    energy = 0.0  # ||x_i||_A^2 / z'^2 = sum_j y_j^2/d_j

    status, stop_reason = "budget-exhausted", "t-max"

    i = 0
    while i < t_max:
        i += 1
        q_over_cols.append(q_bar)
        u = a_op(q_bar)
        n_matvec += 1
        if i > 1:
            u = u - beta * q_under_prev
        alpha = float(u @ q_bar)
        alphas.append(alpha)
        lower = beta / pivot
        pivot = alpha - beta * lower
        if abs(pivot) <= BREAKDOWN_RTOL * (vector_norm(u) * vector_norm(q_bar)):
            status, stop_reason = "breakdown", "zero-pivot"
            if trace:
                trace({"i": i, "alpha": alpha, "beta": None, "resid": None})
            break
        if i > 1:
            y_last = -lower * y_last
        p = q_bar - lower * p
        x += (z_prime * y_last / pivot) * p
        w = u - alpha * q_under
        w_bar = solve_m(w)
        ip = float(w @ w_bar)
        w_norm = vector_norm(w)
        tol_i = BREAKDOWN_RTOL * w_norm * vector_norm(w_bar)

        if ip < -tol_i:
            status, stop_reason = "breakdown", "negative-curvature"
            if trace:
                trace({"i": i, "alpha": alpha, "beta": None, "resid": None})
            break

        beta_next = math.sqrt(ip) if ip > 0.0 else 0.0
        betas.append(beta_next)
        if trace:
            trace({"i": i, "alpha": alpha, "beta": beta_next, "resid": None})

        if ip <= tol_i:
            status, stop_reason = "converged", "clean-break"
            break

        if retarget is not None and i == retarget[0]:
            t_max = retarget[1](TridiagonalMatrix(np.array(alphas), np.array(betas[: i - 1])))

        if error_target is not None:
            energy += y_last * y_last / pivot
            bound = RITZ_INFLATION * (y_last / pivot * beta_next) ** 2
            goal = error_target * error_target * energy
            closed = beta_next <= math.sqrt(BREAKDOWN_RTOL) * math.hypot(alpha, beta)
            # min(alphas) >= theta_min, so this skips most Ritz solves
            if (i >= WARMUP_ITERS or closed) and bound <= goal * min(alphas):
                ritz = ritz_values(TridiagonalMatrix(np.array(alphas), np.array(betas[: i - 1])))
                if bound <= goal * ritz[0]:
                    status, stop_reason = "converged", "error-target"
                    break

        met = residual_target is not None and (
            z_prime * abs(y_last / pivot) * w_norm / b_norm <= residual_target
        )
        if residual_target is not None and (met or i % check_every == 0 or i >= t_max):
            relres = vector_norm(b - a_op(x)) / b_norm
            n_matvec += 1
            if checkpoints and relres > 0.99 * checkpoints[-1][1]:
                flat_checks += 1
            else:
                flat_checks = 0
            checkpoints.append((i, relres))
            if trace:
                trace({"i": i, "alpha": alpha, "beta": beta_next, "resid": relres})
            if relres <= residual_target:
                status, stop_reason = "converged", "residual-target"
                break
            if flat_checks >= 3:
                status, stop_reason = "budget-exhausted", "accuracy-floor" if met else "stagnation"
                break

        if i >= t_max:
            break
        beta = beta_next
        q_under_prev = q_under
        q_bar = w_bar / beta_next
        q_under = w / beta_next

    if error_target is not None and stop_reason in ("error-target", "t-max"):
        r = b - a_op(x)
        n_matvec += 1
        checkpoints.append((i, vector_norm(r) / b_norm))
        if trace:
            trace({"i": i, "alpha": alphas[-1], "beta": betas[-1], "resid": checkpoints[-1][1]})
        # ip0 = z'^2, so goal * ip0 = error_target^2 ||x_i||_A^2
        if status == "converged" and float(r @ solve_m(r)) > RITZ_INFLATION * ritz[-1] * goal * ip0:
            status, stop_reason = "budget-exhausted", "accuracy-floor"

    t = len(alphas)
    ws = LanczosWorkspace(
        basis=q_over_cols,
        n=n,
        z_prime=z_prime,
        tridiag=TridiagonalMatrix(np.array(alphas), np.array(betas[: t - 1])),
        status=status,
        stop_reason=stop_reason,
        iterations=t,
        n_matvec=n_matvec,
        checkpoints=checkpoints,
    )
    return x, ws
