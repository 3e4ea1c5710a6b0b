import numpy as np
import pytest
import scipy.sparse as sp

import mspsolve.apps
import mspsolve.core
import mspsolve.nystrom
import mspsolve.psd
from mspsolve import PsdSolveConfig, solve_psd
from mspsolve.apps import (
    KernelSpec,
    RidgeBlackBox,
    kernel_matrix,
    ridge_blackbox_solve,
    solve_krr,
    solve_least_squares,
)
from mspsolve.core import MatrixHandle
from mspsolve.errors import DomainError
from mspsolve.bench import solve_plain_lanczos
from mspsolve.general import GeneralSolveConfig, build_general, solve_normal
from mspsolve.instances import InstanceSpec, gen_instance

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


def test_krr_at_a_tight_eps_converges_within_eps():
    # At eps 1e-10 the solve ends where its energy error meets eps, not at
    # its budget.
    n = 1500
    k, _, _ = gen_instance(InstanceSpec("rbf-kernel", n=n, bandwidth=1.0, seed=1))
    y = np.random.default_rng(0).standard_normal(n)
    rep = solve_krr(k, y, lam=1e-2, eps=1e-10)
    assert rep.method == "krr"
    assert rep.converged
    reg = k.to_dense() + 1e-2 * np.eye(n)
    x_star = np.linalg.solve(reg, y)
    e = rep.x - x_star
    assert np.sqrt(e @ reg @ e) <= 1e-10 * np.sqrt(x_star @ y)


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
    # lam: the l_boot = 64 sketch (s = 128 < n) cannot resolve d_lambda and
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


def _forbidden(*args, **kwargs):
    raise AssertionError("solve_krr must not call this")


def _krr_instance(path):
    # "dense": K near the identity with tiny lam keeps d_lambda near n, so
    # solve_krr takes the dense fallback; "msp": a clustered rbf kernel.
    n = 300
    if path == "dense":
        x = np.random.default_rng(8).standard_normal((n, 2))
        return kernel_matrix(KernelSpec(kind="rbf", points=x, bandwidth=0.05)), 1e-10
    return kernel_matrix(KernelSpec(kind="rbf", points=cluster_points(n, 3, seed=5))), 1.0


@pytest.mark.parametrize("path", ["dense", "msp"])
def test_krr_rejects_eps_outside_unit_interval_before_the_read(monkeypatch, path):
    k, lam = _krr_instance(path)
    y = np.random.default_rng(6).standard_normal(k.rows)
    method = "krr-dense-fallback" if path == "dense" else "krr"
    assert solve_krr(k, y, lam=lam, eps=1e-6, seed=1).method == method
    monkeypatch.setattr(mspsolve.apps, "_estimate_effective_dim", _forbidden)
    # k now holds the read of (lam, delta, seed = 1), so a call on k would
    # not read even if eps were checked after the read; a new handle on the
    # same entries has no read to reuse.
    unread = MatrixHandle(k.to_dense(), sym="spd")
    for eps in (5.0, 0.0, -1.0):
        with pytest.raises(DomainError, match=r"eps must be in \(0,1\)"):
            solve_krr(unread, y, lam=lam, eps=eps, seed=1)


@pytest.mark.parametrize("path", ["dense", "msp"])
def test_krr_second_call_on_a_handle_reuses_its_read(monkeypatch, path):
    k, lam = _krr_instance(path)
    rng = np.random.default_rng(6)
    y1, y2 = rng.standard_normal(k.rows), rng.standard_normal(k.rows)
    want = solve_krr(MatrixHandle(k.to_dense(), sym="spd"), y2, lam=lam, eps=1e-6, seed=1)
    assert solve_krr(k, y1, lam=lam, eps=1e-6, seed=1).diagnostics["d_lambda_read"] == "built"
    monkeypatch.setattr(mspsolve.apps, "_estimate_effective_dim", _forbidden)
    monkeypatch.setattr(mspsolve.nystrom, "build_nystrom_psd", _forbidden)
    rep = solve_krr(k, y2, lam=lam, eps=1e-6, seed=1)
    assert rep.diagnostics["d_lambda_read"] == "reused"
    assert want.diagnostics["d_lambda_read"] == "built"
    assert rep.method == want.method
    assert np.array_equal(rep.x, want.x)
    assert rep.matvecs == want.matvecs
    assert rep.diagnostics["d_lambda_estimate"] == want.diagnostics["d_lambda_estimate"]


def test_krr_changed_lambda_or_seed_reads_again(monkeypatch):
    builds = []
    original = mspsolve.nystrom.build_nystrom_psd

    def spy(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(mspsolve.nystrom, "build_nystrom_psd", spy)
    k, lam = _krr_instance("msp")
    y = np.random.default_rng(6).standard_normal(k.rows)
    base = {"lam": lam, "delta": 0.01, "seed": 1}
    # The handle keeps one entry, so going back to the first key reads again.
    for change in ({}, {"lam": 2.0 * lam}, {"seed": 2}, {}):
        before = len(builds)
        rep = solve_krr(k, y, eps=1e-6, **{**base, **change})
        assert rep.method == "krr"
        assert rep.diagnostics["d_lambda_read"] == "built"
        assert len(builds) == before + 1
    rep = solve_krr(k, y, eps=1e-3, **base)  # eps is not part of the key
    assert rep.diagnostics["d_lambda_read"] == "reused"
    assert len(builds) == 4


@pytest.mark.parametrize("path", ["dense", "msp"])
def test_krr_changed_delta_reuses_the_read(monkeypatch, path):
    # delta does not size the PSD sketch, so it is not part of the key.
    k, lam = _krr_instance(path)
    y = np.random.default_rng(6).standard_normal(k.rows)
    want = solve_krr(MatrixHandle(k.to_dense(), sym="spd"), y, lam=lam, eps=1e-6, delta=0.02,
                     seed=1)
    assert solve_krr(k, y, lam=lam, eps=1e-6, seed=1).diagnostics["d_lambda_read"] == "built"
    monkeypatch.setattr(mspsolve.apps, "_estimate_effective_dim", _forbidden)
    rep = solve_krr(k, y, lam=lam, eps=1e-6, delta=0.02, seed=1)
    assert rep.diagnostics["d_lambda_read"] == "reused"
    assert rep.config_echo["delta"] == 0.02
    assert np.array_equal(rep.x, want.x)


def test_krr_second_dense_fallback_call_does_not_factor_again(monkeypatch):
    factorizations = []
    original = mspsolve.core.scipy.linalg.cho_factor

    def spy(a, *args, **kwargs):
        factorizations.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(mspsolve.core.scipy.linalg, "cho_factor", spy)
    k, lam = _krr_instance("dense")
    rng = np.random.default_rng(6)
    first = solve_krr(k, rng.standard_normal(k.rows), lam=lam, eps=1e-6, seed=1)
    assert first.method == "krr-dense-fallback"
    assert factorizations.count(k.shape) >= 1
    factorizations.clear()
    rep = solve_krr(k, rng.standard_normal(k.rows), lam=lam, eps=1e-6, seed=1)
    assert rep.method == "krr-dense-fallback"
    assert rep.diagnostics["d_lambda_read"] == "reused"
    assert factorizations == []


def test_krr_ndarray_kernel_is_read_on_every_call():
    k, lam = _krr_instance("msp")
    dense = k.to_dense()
    y = np.random.default_rng(6).standard_normal(k.rows)
    reps = [solve_krr(dense, y, lam=lam, eps=1e-6, seed=1) for _ in range(2)]
    for rep in reps:
        assert rep.method == "krr"
        assert rep.converged
        assert rep.diagnostics["d_lambda_read"] == "built"
    assert np.array_equal(reps[0].x, reps[1].x)


def test_krr_takes_norm_and_lambda0_from_the_read(monkeypatch):
    # The d_lambda read's Nystrom eigenvalues give ||K|| and the tail bound,
    # so the final build runs no probes and level 1 no power method.
    monkeypatch.setattr(mspsolve.psd, "power_method_norm", _forbidden)
    monkeypatch.setattr(mspsolve.nystrom, "tail_probe_factor", _forbidden)
    monkeypatch.setattr(mspsolve.nystrom, "estimate_lambda0", _forbidden)
    n = 300
    k = kernel_matrix(KernelSpec(kind="rbf", points=cluster_points(n, 3, seed=5)))
    y = np.random.default_rng(6).standard_normal(n)
    rep = solve_krr(k, y, lam=1.0, eps=1e-6, seed=1)
    assert rep.method == "krr"
    assert rep.converged
    assert rep.matvecs == rep.iterations["level1"] + len(rep.residual_history)
    assert rep.diagnostics["preconditioner"]["build_passes"] == 1


def test_krr_lambda0_bounds_the_tail_and_norm_is_the_top_eigenvalue():
    # mu_i <= lambda_i(K), so tr(K) - sum_{i<=l} mu_i bounds the tail from
    # above; the rank-64 read resolves the top of this spectrum closely.
    k, y, _ = gen_instance(InstanceSpec("rbf-kernel", n=600, bandwidth=1.0, seed=1))
    eigs = np.linalg.eigvalsh(k.to_dense())[::-1]
    rep = solve_krr(k, y, lam=1e-2, eps=1e-6, seed=0)
    pre = rep.preconditioner
    want = (2.0 / pre.l) * float(np.sum(eigs[pre.l:]))
    assert want <= pre.lambda0 <= 2.0 * want
    assert 0.99 * eigs[0] <= pre.pm_norm <= (1.0 + 1e-12) * eigs[0]


@pytest.mark.parametrize("ratio", [1e2, 1e4])
def test_psd_build_lambda0_bounds_the_tail_and_norm_is_at_most_the_top_eigenvalue(ratio):
    # A matrix build reads its own Nystrom eigenvalues mu <= lambda(A): the
    # tail bound holds at any ratio, mu_max falls below ||A|| (0.98 at 1e2).
    a, _, _ = gen_instance(InstanceSpec("k-large-psd", n=600, k=16, ratio=ratio, seed=1))
    eigs = np.linalg.eigvalsh(a.to_dense())[::-1]
    pre = mspsolve.nystrom.build_nystrom_psd(a, 32, 1e-3, 0.01, 0)
    assert pre.s < 600
    assert pre.lambda0 >= (2.0 / pre.l) * float(np.sum(eigs[pre.l:]))
    assert 0.9 * eigs[0] <= pre.pm_norm <= (1.0 + 1e-12) * eigs[0]


@pytest.mark.parametrize("ratio", [1e2, 1e4])
def test_general_build_norm_is_the_top_eigenvalue_of_the_gram(ratio):
    a, _, _ = gen_instance(InstanceSpec("k-large-general", n=256, m=800, k=8, ratio=ratio,
                                        seed=1))
    top = np.linalg.norm(a.to_dense(), 2) ** 2
    state = build_general(a, GeneralSolveConfig(l=16, lam=1.0, seed=0))
    assert 0.99 * top <= state.pm_norm <= (1.0 + 1e-12) * top


def test_krr_rejects_delta_outside_open_half_interval():
    k = kernel_matrix(KernelSpec(kind="rbf", points=cluster_points(100, 2, seed=1)))
    with pytest.raises(DomainError):
        solve_krr(k, np.ones(100), lam=1e-2, eps=1e-6, delta=0.7)
    # A reused read is no way around the check.
    solve_krr(k, np.ones(100), lam=1e-2, eps=1e-6)
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


# -- raw scipy.sparse input ----------------------------------------------------------------


def _sparse_twins(m, n, seed):
    """A CSR matrix with a flat spectrum after adding I, and its dense twin."""
    rng = np.random.default_rng(seed)
    a = sp.random(m, n, density=0.05, random_state=rng, format="csr")
    if m == n:
        a = (a @ a.T + sp.identity(n)).tocsr()
    else:
        a = (a + sp.eye(m, n)).tocsr()
    return a, a.toarray()


def _solve_with(name, a, rhs):
    if name == "msp-psd":
        return solve_psd(a, rhs, PsdSolveConfig(l=12, eps=1e-12, seed=3))
    if name == "plain-lanczos":
        return solve_plain_lanczos(a, rhs, eps=1e-12)
    if name == "krr":
        return solve_krr(a, rhs, lam=0.5, eps=1e-12, seed=3)
    if name == "msp-general":
        return solve_normal(a, rhs, GeneralSolveConfig(l=12, lam=0.5, eps=1e-12, seed=3))
    if name == "least-squares":
        return solve_least_squares(a, rhs, eps=1e-12, seed=3)
    bb = RidgeBlackBox(a, lam=0.5, l=12, seed=3)
    return ridge_blackbox_solve(bb, rhs, 1e-12)


@pytest.mark.parametrize("name", ["msp-psd", "plain-lanczos", "krr", "msp-general",
                                  "least-squares", "ridge-blackbox"])
def test_raw_sparse_matrix_solves_like_its_dense_twin(name):
    square = name in ("msp-psd", "plain-lanczos", "krr")
    m, n = (200, 200) if square else (300, 120)
    a, dense = _sparse_twins(m, n, seed=9)
    rng = np.random.default_rng(10)
    rhs = rng.standard_normal(m if name == "least-squares" else n)
    got, want = _solve_with(name, a, rhs), _solve_with(name, dense, rhs)
    if name != "ridge-blackbox":  # ridge_blackbox_solve returns x alone
        assert got.converged and want.converged
        got, want = got.x, want.x
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
