"""Left-preconditioned Lanczos with inexact M-solves, plus its symmetric twin.

The production iteration (`preconditioned_lanczos`) runs the recurrence on the
original system, applying the preconditioner only through a SolveM callable
that may itself be an iterative (inexact) solver.  The mathematically
equivalent two-sided form (`symmetric_lanczos_reference`) runs plain Lanczos
on M^{-1/2} A M^{-1/2} with explicit dense roots; it exists purely as a test
oracle and is size-guarded.

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

from .config import DEFAULT, Tunables
from .core import as_vector, operator_of
from .errors import BreakdownError, DomainError, SizeGuardError

Operator = Callable[[np.ndarray], np.ndarray]


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


@dataclass(eq=False)
class SolveMContract:
    """r -> approximate M^{-1} r with declared relative M-norm error eps0."""

    apply: Operator
    eps0: float

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.apply(r)


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


def preconditioned_lanczos(
    a_apply,
    b: np.ndarray,
    solve_m,
    t_max: int,
    residual_target: Optional[float] = None,
    check_every: int = 10,
    trace: Optional[Callable[[dict], None]] = None,
    tun: Tunables = DEFAULT,
    retarget: Optional[Tuple[int, Callable[[TridiagonalMatrix], Tuple[int, float]]]] = None,
) -> Tuple[np.ndarray, LanczosWorkspace]:
    """Run the left-preconditioned Lanczos iteration for A x = b.

    solve_m(r) supplies (approximate) M^{-1} r.  Each step extends the
    LDL^T of T_i by one pivot d_i and y_i = (L^{-1} e1)_i, and the iterate
    x_i = z' Qbar_i T_i^{-1} e1 by the coupled (D-Lanczos) update
    p_i = qbar_i - l_{i-1} p_{i-1}, x_i = x_{i-1} + z' (y_i/d_i) p_i with
    l_{i-1} = beta_{i-1}/d_{i-1} (Saad, Iterative Methods for Sparse Linear
    Systems, 6.7.1).  Without residual_target the full t_max budget runs.
    With it, A Qbar_i = Q_i T_i + w_i e_i^T makes
    ||b - A x_i|| = z' |y_i/d_i| ||w_i|| free; on the step that estimate
    meets the target, and at every multiple of check_every (the longest gap
    between checks), the true residual of x_i is computed, one product with
    A, and the loop exits once that is <= residual_target * ||b||.
    retarget = (k, f) hands T_k to f on step k, which returns the run's new
    (t_max, residual_target).  Returns the last iterate and the workspace
    (basis, tridiagonal, status, counters).

    Statuses: "converged" (true residual target met, or the Krylov space
    closed cleanly), "budget-exhausted" (t_max reached first, or, after any
    retarget step, three checks in a row improved the true residual by under
    1%: stop_reason "accuracy-floor" if the estimate meets the target there,
    the recurrence-to-true residual gap being the float floor (Greenbaum
    1997), else "stagnation"), "breakdown" (an inner product that must be
    nonnegative came out negative beyond tolerance, returning x_i; or
    "zero-pivot", |d_i| <= breakdown_rtol*||u_i||*||qbar_i|| with T_i
    numerically singular, returning x_{i-1}).  Neither can happen for PSD A
    and M.
    """
    a_op = operator_of(a_apply)
    b = as_vector(b)
    n = b.shape[0]
    if t_max < 1:
        raise DomainError(f"iteration budget must be >= 1, got {t_max}")
    if check_every < 1:
        raise DomainError(f"check_every must be >= 1, got {check_every}")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise DomainError("right-hand side is zero")

    n_matvec = 0
    x = np.zeros(n)

    w_bar0 = as_vector(solve_m(b), n)
    ip0 = float(b @ w_bar0)
    tol0 = tun.breakdown_rtol * b_norm * float(np.linalg.norm(w_bar0))
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

    status = "budget-exhausted"
    stop_reason = "t-max"

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
        if abs(pivot) <= tun.breakdown_rtol * float(np.linalg.norm(u) * np.linalg.norm(q_bar)):
            status = "breakdown"
            stop_reason = "zero-pivot"
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
        w_norm = float(np.linalg.norm(w))
        tol_i = tun.breakdown_rtol * w_norm * float(np.linalg.norm(w_bar))

        if ip < -tol_i:
            status = "breakdown"
            stop_reason = "negative-curvature"
            if trace:
                trace({"i": i, "alpha": alpha, "beta": None, "resid": None})
            break

        beta_next = math.sqrt(ip) if ip > 0.0 else 0.0
        betas.append(beta_next)
        if trace:
            trace({"i": i, "alpha": alpha, "beta": beta_next, "resid": None})

        if beta_next <= tol_i or ip <= 0.0:
            status = "converged"
            stop_reason = "clean-break"
            break

        if retarget is not None and i == retarget[0]:
            tri = TridiagonalMatrix(np.array(alphas), np.array(betas[: i - 1]))
            t_max, residual_target = retarget[1](tri)
            retarget = None

        met = residual_target is not None and (
            z_prime * abs(y_last / pivot) * w_norm / b_norm <= residual_target
        )
        if residual_target is not None and (met or i % check_every == 0 or i >= t_max):
            relres = float(np.linalg.norm(b - a_op(x))) / b_norm
            n_matvec += 1
            if checkpoints and relres > 0.99 * checkpoints[-1][1]:
                flat_checks += 1
            else:
                flat_checks = 0
            checkpoints.append((i, relres))
            if trace:
                trace({"i": i, "alpha": alpha, "beta": beta_next, "resid": relres})
            if relres <= residual_target:
                status = "converged"
                stop_reason = "residual-target"
                break
            if flat_checks >= 3 and retarget is None:
                status = "budget-exhausted"
                stop_reason = "accuracy-floor" if met else "stagnation"
                break

        if i >= t_max:
            break
        beta = beta_next
        q_under_prev = q_under
        q_bar = w_bar / beta_next
        q_under = w / beta_next

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


def symmetric_lanczos_reference(
    a_apply,
    b: np.ndarray,
    m_half_ops: Tuple[Operator, Operator],
    t: int,
    tun: Tunables = DEFAULT,
) -> np.ndarray:
    """Plain Lanczos on M^{-1/2} A M^{-1/2}, mapped back through M^{-1/2}.

    m_half_ops = (apply_sqrt, apply_inv_sqrt) with dense explicit roots; only
    the inverse root is consumed by the recurrence.  Test oracle only:
    guarded to n <= 500.
    """
    a_op = operator_of(a_apply)
    b = as_vector(b)
    n = b.shape[0]
    if n > 500:
        raise SizeGuardError(f"symmetric reference limited to n <= 500, got {n}")
    if t < 1:
        raise DomainError(f"need t >= 1, got {t}")
    m_inv_half = m_half_ops[1] if isinstance(m_half_ops, (tuple, list)) else m_half_ops

    def b_op(x):
        return m_inv_half(a_op(m_inv_half(x)))

    b_tilde = m_inv_half(b)
    z = float(np.linalg.norm(b_tilde))
    if z == 0.0:
        raise DomainError("right-hand side is zero after preconditioning")
    q = b_tilde / z
    q_prev = np.zeros(n)
    beta = 0.0
    qs: List[np.ndarray] = []
    alphas: List[float] = []
    betas: List[float] = []
    for i in range(t):
        qs.append(q)
        u = b_op(q) - beta * q_prev
        alpha = float(u @ q)
        alphas.append(alpha)
        w = u - alpha * q
        beta_next = float(np.linalg.norm(w))
        if beta_next <= tun.breakdown_rtol * max(abs(alpha), 1.0):
            break
        betas.append(beta_next)
        q_prev = q
        q = w / beta_next
        beta = beta_next

    k = len(alphas)
    tri = TridiagonalMatrix(np.array(alphas), np.array(betas[: k - 1]))
    y = tridiag_solve_e1(tri, z)
    return m_inv_half(np.column_stack(qs) @ y)
