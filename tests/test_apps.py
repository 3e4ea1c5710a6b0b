import numpy as np
import pytest

import mspsolve.apps
import mspsolve.psd
from mspsolve.apps import (
    KernelSpec,
    RidgeBlackBox,
    hutchinson_trace,
    kernel_matrix,
    ridge_blackbox_solve,
    solve_krr,
    solve_least_squares,
)
from mspsolve.core import MatrixHandle
from mspsolve.errors import DomainError

import oracles


def cluster_points(n, d, seed, spread=4.0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(10, d))
    idx = rng.integers(0, 10, size=n)
    return centers[idx] + 0.3 * rng.standard_normal((n, d))


def lambda_for_effective_dim(eigs, target):
    """Bisect the monotone map lam -> sum_i mu_i/(mu_i+lam) to hit `target`."""
    lo, hi = 1e-12 * np.max(eigs), np.sum(eigs)
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if oracles.effective_dim_direct(eigs, mid) > target:
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


# -- kernels ---------------------------------------------------------------------


def test_kernel_spec_validation():
    pts = np.zeros((5, 2))
    with pytest.raises(DomainError):
        KernelSpec(kind="sigmoid", points=pts)
    with pytest.raises(DomainError):
        KernelSpec(kind="rbf", points=np.zeros(5))
    with pytest.raises(DomainError):
        KernelSpec(kind="rbf", points=pts, bandwidth=0.0)
    with pytest.raises(DomainError):
        KernelSpec(kind="polynomial", points=pts, degree=0)


def test_rbf_kernel_entries():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 3))
    k = kernel_matrix(KernelSpec(kind="rbf", points=x, bandwidth=1.3)).to_dense()
    # off-diagonal entries match the scalar formula; the diagonal carries the
    # tiny stabilizing jitter on top of exactly 1.
    for i in range(6):
        for j in range(6):
            want = np.exp(-np.sum((x[i] - x[j]) ** 2) / (2 * 1.3**2))
            if i == j:
                assert abs(k[i, j] - want) <= 1e-9
            else:
                assert abs(k[i, j] - want) <= 1e-12
    assert np.array_equal(k, k.T)


def test_polynomial_kernel_entries():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 2))
    k = kernel_matrix(
        KernelSpec(kind="polynomial", points=x, degree=2, coef0=1.0)
    ).to_dense()
    for i in range(5):
        for j in range(5):
            want = (float(x[i] @ x[j]) + 1.0) ** 2
            tol = 1e-9 * abs(want) + (1e-9 if i == j else 1e-12)
            assert abs(k[i, j] - want) <= tol


# -- hutchinson trace ---------------------------------------------------------------


def test_trace_of_identity_is_exact():
    est, stderr = hutchinson_trace(np.eye(30), probes=16, seed=0)
    assert est == 30.0
    assert stderr == 0.0


def test_trace_estimate_within_three_stderr():
    a = np.diag(np.arange(1.0, 11.0))
    hits = 0
    for seed in range(20):
        est, stderr = hutchinson_trace(a, probes=1000, seed=seed)
        if abs(est - 55.0) <= 3.0 * stderr:
            hits += 1
    assert hits >= 19


def test_trace_validation():
    with pytest.raises(DomainError):
        hutchinson_trace(np.eye(4), probes=1, seed=0)
    with pytest.raises(DomainError):
        hutchinson_trace(lambda z: z, probes=4, seed=0)  # no dimension
    est, _ = hutchinson_trace(lambda z: 2.0 * z, probes=4, seed=0, n=8)
    assert est == 16.0


# -- kernel ridge regression -----------------------------------------------------------


def test_krr_rejects_nonpositive_lambda():
    k = kernel_matrix(KernelSpec(kind="rbf", points=np.zeros((4, 1))))
    with pytest.raises(DomainError):
        solve_krr(k, np.ones(4), lam=0.0, eps=1e-6)


def test_krr_at_moderate_effective_dim():
    # lam is pinned (via dense eigenvalues) so that d_lambda ~ 30; the solve
    # must stay cheap in level-1 iterations and match the dense solution.
    n = 600
    pts = cluster_points(n, 3, seed=2)
    k = kernel_matrix(KernelSpec(kind="rbf", points=pts, bandwidth=1.5))
    k_dense = k.to_dense()
    eigs = np.linalg.eigvalsh(k_dense)[::-1]
    lam = lambda_for_effective_dim(eigs, 30.0)
    assert 25.0 <= oracles.effective_dim_direct(eigs, lam) <= 35.0
    rng = np.random.default_rng(3)
    y = rng.standard_normal(n)
    rep = solve_krr(k, y, lam=lam, eps=1e-7, seed=4)
    assert rep.converged
    assert rep.method == "krr"
    assert rep.iterations["level1"] <= 60
    x_star = np.linalg.solve(k_dense + lam * np.eye(n), y)
    d = rep.x - x_star
    reg = k_dense + lam * np.eye(n)
    err = np.sqrt(float(d @ (reg @ d))) / np.sqrt(float(x_star @ (reg @ x_star)))
    assert err <= 1e-6


def test_krr_huge_lambda_is_immediate():
    n = 300
    pts = cluster_points(n, 3, seed=5)
    k = kernel_matrix(KernelSpec(kind="rbf", points=pts, bandwidth=1.0))
    lam = float(np.linalg.norm(k.to_dense(), 2))
    rng = np.random.default_rng(6)
    y = rng.standard_normal(n)
    rep = solve_krr(k, y, lam=lam, eps=1e-8, seed=7)
    assert rep.converged
    assert rep.iterations["level1"] <= 10


def test_krr_dense_fallback_when_effective_dim_is_large():
    # Tiny bandwidth makes K close to the identity and tiny lam then keeps
    # d_lambda near n, where sketching cannot pay off.
    n = 40
    rng = np.random.default_rng(8)
    x = rng.standard_normal((n, 2))
    k = kernel_matrix(KernelSpec(kind="rbf", points=x, bandwidth=0.05))
    k_dense = k.to_dense()
    lam = 1e-10 * float(np.trace(k_dense)) / n
    y = rng.standard_normal(n)
    rep = solve_krr(k, y, lam=lam, eps=1e-8, seed=9)
    assert rep.method == "krr-dense-fallback"
    assert rep.stop_reason == "dense-fallback"
    x_star = np.linalg.solve(k_dense + lam * np.eye(n), y)
    assert np.linalg.norm(rep.x - x_star) <= 1e-8 * np.linalg.norm(x_star)


def test_krr_effective_dim_read_matches_exact():
    # The Nystrom sketch at l_boot resolves every eigenvalue above lam here,
    # so its d_lambda read is close to the exact sum over K's spectrum.
    n = 600
    pts = cluster_points(n, 3, seed=2)
    k = kernel_matrix(KernelSpec(kind="rbf", points=pts, bandwidth=1.5))
    eigs = np.linalg.eigvalsh(k.to_dense())[::-1]
    lam = lambda_for_effective_dim(eigs, 30.0)
    exact = oracles.effective_dim_direct(eigs, lam)
    y = np.random.default_rng(3).standard_normal(n)
    rep = solve_krr(k, y, lam=lam, eps=1e-6, seed=4)
    assert rep.diagnostics["bootstrap_retries"] == 0
    assert abs(rep.diagnostics["d_lambda_estimate"] - exact) <= 0.02 * exact


def test_krr_runs_one_psd_solve(monkeypatch):
    calls = []
    original = mspsolve.apps.solve_psd

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mspsolve.apps, "solve_psd", spy)
    n = 300
    k = kernel_matrix(KernelSpec(kind="rbf", points=cluster_points(n, 3, seed=5)))
    y = np.random.default_rng(6).standard_normal(n)
    rep = solve_krr(k, y, lam=1.0, eps=1e-6, seed=1)
    assert rep.method == "krr"
    assert len(calls) == 1


def test_krr_unresolved_sketch_retries_then_falls_back():
    # K is close to the identity, so every Nystrom eigenvalue stays far above
    # lam: the l_boot = 64 sketch (s = 281 < n) cannot resolve d_lambda and
    # the read doubles l_boot until s = n, where d_hat ~ n.
    n = 400
    rng = np.random.default_rng(12)
    x = rng.standard_normal((n, 2))
    k = kernel_matrix(KernelSpec(kind="rbf", points=x, bandwidth=0.05))
    k_dense = k.to_dense()
    lam = 1e-10
    y = rng.standard_normal(n)
    rep = solve_krr(k, y, lam=lam, eps=1e-8, seed=9)
    assert rep.diagnostics["bootstrap_retries"] >= 1
    assert rep.method == "krr-dense-fallback"
    x_star = np.linalg.solve(k_dense + lam * np.eye(n), y)
    assert np.linalg.norm(rep.x - x_star) <= 1e-8 * np.linalg.norm(x_star)


def test_krr_rejects_delta_outside_open_half_interval():
    k = kernel_matrix(KernelSpec(kind="rbf", points=cluster_points(100, 2, seed=1)))
    with pytest.raises(DomainError):
        solve_krr(k, np.ones(100), lam=1e-2, eps=1e-6, delta=0.7)


# -- ridge black box ---------------------------------------------------------------------


def test_blackbox_zero_rhs():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((40, 30))
    bb = RidgeBlackBox(a, lam=0.5, l=8, seed=11)
    assert np.array_equal(ridge_blackbox_solve(bb, np.zeros(30), 1e-6), np.zeros(30))


@pytest.mark.parametrize("eps", [1e-4, 1e-8])
def test_blackbox_contract_in_regularized_norm(eps):
    m, n, lam = 128, 96, 0.4
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sig = np.concatenate([100.0 * rng.uniform(1, 2, 6), rng.uniform(1, 2, n - 6)])
    a = (u * sig) @ v.T
    bb = RidgeBlackBox(a, lam=lam, l=16, seed=13)
    y = rng.standard_normal(n)
    x = ridge_blackbox_solve(bb, y, eps)
    reg = a.T @ a + lam * np.eye(n)
    x_star = np.linalg.solve(reg, y)
    d = x - x_star
    err = np.sqrt(float(d @ (reg @ d))) / np.sqrt(float(x_star @ (reg @ x_star)))
    assert err <= eps


def test_blackbox_orthogonal_matrix_at_zero_lambda():
    # A^T A = I, lam = 0: the ridge solution is y itself.
    rng = np.random.default_rng(14)
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
    bb = RidgeBlackBox(q, lam=0.0, l=10, seed=15)
    y = rng.standard_normal(64)
    x = ridge_blackbox_solve(bb, y, 1e-8)
    assert np.linalg.norm(x - y) <= 1e-6 * np.linalg.norm(y)


# -- least squares ------------------------------------------------------------------------


def test_least_squares_matches_qr():
    m, n = 384, 48
    rng = np.random.default_rng(16)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sig = np.concatenate([100.0 * rng.uniform(1, 2, 4), rng.uniform(1, 2, n - 4)])
    a = (u * sig) @ v.T
    b = rng.standard_normal(m)
    rep = solve_least_squares(a, b, eps=1e-8, seed=17)
    assert rep.converged
    assert rep.stop_reason == "gradient-target"
    assert rep.iterations["outer"] <= 8 * int(np.ceil(np.log2(1e8)))
    x_star = oracles.least_squares_qr(a, b)
    d = rep.x - x_star
    num = np.linalg.norm(a @ d)
    assert num <= 1e-6 * np.linalg.norm(a @ x_star)


def test_least_squares_consistent_system_recovers_solution():
    m, n = 256, 32
    rng = np.random.default_rng(18)
    a = rng.standard_normal((m, n))
    x_true = rng.standard_normal(n)
    rep = solve_least_squares(a, a @ x_true, eps=1e-10, seed=19)
    assert rep.converged
    assert np.linalg.norm(rep.x - x_true) <= 1e-6 * np.linalg.norm(x_true)


def test_least_squares_rhs_orthogonal_to_range():
    # Bottom rows of A are identically zero, so a bottom-supported b has
    # A^T b = 0 exactly: x = 0 is returned without iterating.
    m, n = 96, 24
    rng = np.random.default_rng(20)
    a = np.zeros((m, n))
    a[:48] = rng.standard_normal((48, n))
    b = np.zeros(m)
    b[48:] = rng.standard_normal(48)
    rep = solve_least_squares(a, b, eps=1e-8, seed=21)
    assert rep.converged
    assert rep.stop_reason == "zero-gradient"
    assert np.array_equal(rep.x, np.zeros(n))
    resid = b - a @ rep.x
    assert float(resid @ resid) == float(b @ b)


def test_least_squares_zero_gradient_builds_nothing(monkeypatch):
    def no_sketch(*args, **kwargs):
        raise AssertionError("make_ose called for a zero gradient")

    monkeypatch.setattr(mspsolve.apps, "make_ose", no_sketch)
    a = np.zeros((40, 10))
    a[:20] = np.random.default_rng(22).standard_normal((20, 10))
    b = np.zeros(40)
    b[20:] = 1.0
    rep = solve_least_squares(a, b, eps=1e-8, seed=23)
    assert rep.stop_reason == "zero-gradient"


def test_least_squares_counts_each_level1_iteration_once(monkeypatch):
    # The solve is one Lanczos run; each of its steps, and each true-residual
    # check, applies A^T A once (two passes over A), plus one pass for A^T b.
    rng = np.random.default_rng(7)
    a = rng.standard_normal((400, 32))
    b = rng.standard_normal(400)
    runs = []
    original = mspsolve.apps.preconditioned_lanczos

    def counting(*args, **kwargs):
        x, ws = original(*args, **kwargs)
        runs.append(ws)
        return x, ws

    monkeypatch.setattr(mspsolve.apps, "preconditioned_lanczos", counting)
    rep = solve_least_squares(a, b, eps=1e-6)
    assert rep.converged
    assert len(runs) == 1
    ws = runs[0]
    assert rep.iterations == {"outer": ws.iterations}
    assert rep.matvecs == 1 + 2 * ws.n_matvec


def _ls_gap(a, b, x):
    """(||Ax - b||^2 - min ||Ax - b||^2) / ||b||^2; lstsq covers rank-deficient A."""
    x_star = np.linalg.lstsq(a, b, rcond=None)[0]
    return (np.linalg.norm(a @ x - b) ** 2
            - np.linalg.norm(a @ x_star - b) ** 2) / np.linalg.norm(b) ** 2


def test_least_squares_ill_conditioned_through_a_real_sketch():
    # kappa(A) = 1e6 and m large enough that Psi has fewer rows than A.
    m, n, eps = 3000, 64, 1e-8
    rng = np.random.default_rng(30)
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (u * (np.geomspace(1.0, 1e-6, n) * np.sqrt(m))) @ v.T
    b = rng.standard_normal(m)
    rep = solve_least_squares(a, b, eps=eps, seed=31)
    assert not rep.diagnostics["sketch_identity"]
    assert rep.diagnostics["sketch_rows"] < m
    assert rep.converged and rep.stop_reason == "gradient-target"
    assert _ls_gap(a, b, rep.x) <= eps


def test_least_squares_rank_deficient_duplicated_columns():
    # A = [B, B]: A^T A is singular, the minimizer is not unique, and the
    # sketched Gram needs the jitter ladder to factor.
    m, k, eps = 600, 20, 1e-8
    rng = np.random.default_rng(32)
    half = rng.standard_normal((m, k))
    a = np.hstack([half, half])
    b = rng.standard_normal(m)
    rep = solve_least_squares(a, b, eps=eps, seed=33)
    assert rep.converged
    assert np.linalg.norm(a.T @ (b - a @ rep.x)) <= eps * np.linalg.norm(a.T @ b)
    assert _ls_gap(a, b, rep.x) <= eps


def test_least_squares_validation():
    rng = np.random.default_rng(22)
    with pytest.raises(DomainError):
        solve_least_squares(rng.standard_normal((10, 20)), np.ones(10), eps=1e-6)
    with pytest.raises(DomainError):
        solve_least_squares(rng.standard_normal((20, 10)), np.ones(20), eps=1.0)
