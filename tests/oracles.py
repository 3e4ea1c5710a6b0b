"""Independent reference implementations backing the test suite.

Everything here is written the slow, obvious way -- scalar loops, explicit
materialization, textbook recurrences, dense factorizations -- so that
agreement with the library is evidence rather than tautology.  This module
does not import anything from mspsolve.
"""

import numpy as np
import scipy.linalg


def matvec_triple_loop(a, x):
    """y = A x with scalar loops, no vectorization."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    m, n = a.shape
    y = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += a[i, j] * x[j]
        y[i] = acc
    return y


def effective_dim_direct(eigenvalues, lam):
    """sum_i lambda_i / (lambda_i + lam) as a plain Python sum."""
    return float(sum(float(v) / (float(v) + lam) for v in eigenvalues))


def gauss_solve(a, b):
    """Gaussian elimination with partial pivoting, pure loops."""
    a = np.array(a, dtype=np.float64, copy=True)
    x = np.array(b, dtype=np.float64, copy=True)
    n = a.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise np.linalg.LinAlgError("singular matrix in oracle solve")
        if p != k:
            a[[k, p]] = a[[p, k]]
            x[[k, p]] = x[[p, k]]
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            a[i, k:] -= f * a[k, k:]
            x[i] -= f * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def plain_lanczos_textbook(a, b, tol=1e-10, t_max=None):
    """Unpreconditioned Lanczos for SPD A x = b, the textbook way.

    Full Q is stored and x_t = Q_t T_t^{-1} (||b|| e_1) is formed with a dense
    solve each iteration; returns the first iterate whose true residual drops
    below tol * ||b||, else the last one.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    if t_max is None:
        t_max = n
    beta0 = np.linalg.norm(b)
    q_cols = [b / beta0]
    alphas, betas = [], []
    q_prev = np.zeros(n)
    for t in range(1, t_max + 1):
        q = q_cols[-1]
        v = a @ q
        if betas:
            v = v - betas[-1] * q_prev
        alpha = float(q @ v)
        v = v - alpha * q
        alphas.append(alpha)
        tri = np.diag(alphas)
        if betas:
            tri += np.diag(betas, 1) + np.diag(betas, -1)
        y = np.linalg.solve(tri, beta0 * np.eye(t)[:, 0])
        x = np.column_stack(q_cols) @ y
        if np.linalg.norm(a @ x - b) <= tol * beta0:
            return x, t
        beta = float(np.linalg.norm(v))
        if beta == 0.0:
            return x, t
        betas.append(beta)
        q_prev = q
        q_cols.append(v / beta)
    return x, t_max


def dense_minv_apply(c, w_j, lt, r):
    """M^{-1} r for M = C W_j^{-1} C^T + lt*I formed explicitly."""
    c = np.asarray(c, dtype=np.float64)
    m = c @ np.linalg.solve(w_j, c.T) + lt * np.eye(c.shape[0])
    return np.linalg.solve(m, np.asarray(r, dtype=np.float64))


def exact_minv_reference(pre, r):
    """M^{-1} r for a built Nystrom preconditioner `pre`, inner system solved densely.

    M^{-1} r = (r - C (C^T C + lt*W_j)^{-1} C^T r) / lt, with the s x s
    system factored by Cholesky on every call.  Guarded to s <= 2000.
    """
    if pre.s > 2000:
        raise ValueError(f"exact reference limited to s <= 2000, got s={pre.s}")
    c = pre.C.to_dense()
    g = c.T @ c + pre.lambda_tilde * pre.w_jittered()
    r = np.asarray(r, dtype=np.float64)
    y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(g, lower=True), c.T @ r)
    return (r - c @ y) / pre.lambda_tilde


def symmetric_lanczos_reference(a, b, m_half_ops, t):
    """Plain Lanczos on M^{-1/2} A M^{-1/2}, mapped back through M^{-1/2}.

    The two-sided form that left-preconditioned Lanczos is equivalent to.
    `a` is an array or a product callable; m_half_ops = (apply_sqrt,
    apply_inv_sqrt) with dense explicit roots, of which only the inverse root
    enters the recurrence.  Runs t steps, fewer if the Krylov space closes,
    and solves T y = ||b~|| e_1 densely.  Guarded to n <= 500.
    """
    a_op = a if callable(a) else np.asarray(a, dtype=np.float64).__matmul__
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if n > 500:
        raise ValueError(f"symmetric reference limited to n <= 500, got {n}")
    m_inv_half = m_half_ops[1]
    b_tilde = m_inv_half(b)
    z = float(np.linalg.norm(b_tilde))
    q = b_tilde / z
    q_prev = np.zeros(n)
    beta = 0.0
    qs, alphas, betas = [], [], []
    for _ in range(t):
        qs.append(q)
        u = m_inv_half(a_op(m_inv_half(q))) - beta * q_prev
        alpha = float(u @ q)
        alphas.append(alpha)
        w = u - alpha * q
        beta_next = float(np.linalg.norm(w))
        if beta_next <= 1e-14 * max(abs(alpha), 1.0):
            break
        betas.append(beta_next)
        q_prev, q, beta = q, w / beta_next, beta_next
    y = tridiag_e1_dense(alphas, betas[: len(alphas) - 1], z)
    return m_inv_half(np.column_stack(qs) @ y)


def nystrom_dense(c, w_j):
    """The rank-s approximation C W_j^{-1} C^T as an explicit array."""
    c = np.asarray(c, dtype=np.float64)
    return c @ np.linalg.solve(w_j, c.T)


def psd_sqrt_pair(a):
    """(A^{1/2}, A^{-1/2}) via a dense eigendecomposition."""
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=np.float64))
    vals = np.maximum(vals, 0.0)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    inv_root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    return root, inv_root


def pencil_eig_range(top, bottom):
    """(min, max) generalized eigenvalues of the SPD pencil (top, bottom)."""
    vals = scipy.linalg.eigh(
        np.asarray(top, dtype=np.float64),
        np.asarray(bottom, dtype=np.float64),
        eigvals_only=True,
    )
    return float(vals[0]), float(vals[-1])


def tridiag_e1_dense(alpha, beta, scale):
    """scale * T^{-1} e_1 through an explicit dense tridiagonal solve."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    t = np.diag(alpha)
    if len(beta):
        t += np.diag(beta, 1) + np.diag(beta, -1)
    e1 = np.zeros(len(alpha))
    e1[0] = scale
    return np.linalg.solve(t, e1)


def least_squares_qr(a, b):
    """argmin ||Ax - b|| by explicit thin QR."""
    q, r = np.linalg.qr(np.asarray(a, dtype=np.float64))
    return scipy.linalg.solve_triangular(r, q.T @ np.asarray(b, dtype=np.float64))
