import numpy as np
import pytest
import scipy.sparse as sp

import mspsolve.general
from mspsolve.bench import run_compare
from mspsolve.config import DEFAULT
from mspsolve.core import MatrixHandle
from mspsolve.errors import DomainError
from mspsolve.general import (
    GeneralSolveConfig,
    build_general,
    solve_m1_general,
    solve_m2,
    solve_normal,
    solve_normal_given_gram,
)
from mspsolve.instances import InstanceSpec

import oracles

BIG_BUDGETS = {"t2": 400, "t3": 400, "eps1": 1e-13, "eps2": 1e-13, "eps0": 1e-13}


def svd_matrix(m, n, sigmas, seed):
    """A = U diag(sigmas) V^T with random orthonormal factors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, len(sigmas))))
    v, _ = np.linalg.qr(rng.standard_normal((n, len(sigmas))))
    return (u * sigmas) @ v.T


def flat_tail_sigmas(n, n_big, ratio, seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([ratio * rng.uniform(1, 2, n_big), rng.uniform(1, 2, n - n_big)])


# -- easy exact cases ---------------------------------------------------------------


def test_identity_matrix_solves_in_two_iterations():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(64)
    rep = solve_normal(np.eye(64), c, GeneralSolveConfig(l=8, lam=0.0, eps=1e-10))
    assert rep.converged
    assert rep.iterations["level1"] <= 2
    assert np.linalg.norm(rep.x - c) <= 1e-8 * np.linalg.norm(c)


def test_orthogonal_matrix_converges_trivially():
    # A^T A = I regardless of the sketch, so the solve is immediate and the
    # solution of A x = b is just A^T b.
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((128, 128)))
    b = rng.standard_normal(128)
    rep = solve_normal(q, q.T @ b, GeneralSolveConfig(l=16, lam=0.0, eps=1e-10, seed=2))
    assert rep.converged
    assert rep.iterations["level1"] <= 3
    assert np.linalg.norm(q @ rep.x - b) <= 1e-8 * np.linalg.norm(b)


def test_zero_rhs_short_circuits():
    rep = solve_normal(np.eye(32), np.zeros(32), GeneralSolveConfig(l=6))
    assert rep.converged
    assert rep.stop_reason == "zero-rhs"
    assert np.array_equal(rep.x, np.zeros(32))
    # the same iteration keys as a real solve
    real = solve_normal(np.eye(32), np.ones(32), GeneralSolveConfig(l=6))
    assert set(rep.iterations) == set(real.iterations)


def test_zero_rhs_builds_nothing(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("build_general called for a zero right-hand side")

    monkeypatch.setattr(mspsolve.general, "build_general", no_build)
    rep = solve_normal(np.eye(32), np.zeros(32), GeneralSolveConfig(l=6))
    assert rep.stop_reason == "zero-rhs"


def test_zero_matrix_rejected():
    with pytest.raises(DomainError):
        build_general(np.zeros((40, 30)), GeneralSolveConfig(l=6))


@pytest.mark.parametrize("override, t_max", [(2, DEFAULT.warmup_iters), (13, 13)])
def test_t_max_override_caps_the_main_run(override, t_max):
    # A decaying spectrum with no flat tail at a tight eps needs far more than
    # t_max iterations.  Overrides below the warmup length are raised to it.
    n = 128
    a = svd_matrix(200, n, np.geomspace(1e3, 1.0, n), seed=12)
    c = a.T @ np.random.default_rng(13).standard_normal(200)
    rep = solve_normal(
        a, c, GeneralSolveConfig(l=8, lam=0.0, eps=1e-10, seed=13, t_max_override=override)
    )
    assert rep.status == "budget-exhausted"
    assert rep.iterations["level1"] == t_max
    assert rep.diagnostics["t_max"] == t_max
    assert np.all(np.isfinite(rep.x))


def test_float_floor_is_named_accuracy_floor():
    # The kappa_b certificate asks for a residual below what float64 reaches
    # here: the recurrence's estimate meets it, the true residual stalls.
    spec = InstanceSpec("k-large-general", n=128, m=500, k=4, seed=7)
    table = run_compare(spec, ["msp-general"], {"eps": 1e-8, "lam": 0.2}, warmup_runs=0)
    row = table.rows[0]
    assert row["status"] == "budget-exhausted"
    assert row["stop_reason"] == "accuracy-floor"
    assert row["residual"] <= 1e-10


# -- the main contract ---------------------------------------------------------------


def test_square_outlier_spectrum_meets_residual_target():
    # 12 singular values at ~1e3 over a flat tail; solving the normal
    # equations with c = A^T b to eps = 1e-8 must leave a matching true
    # residual on the original square system.
    n, l, eps = 384, 48, 1e-8
    sig = flat_tail_sigmas(n, 12, 1e3, seed=3)
    a = svd_matrix(n, n, sig, seed=4)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(n)
    rep = solve_normal(a, a.T @ b, GeneralSolveConfig(l=l, lam=0.0, eps=eps, seed=6))
    assert rep.converged
    assert np.linalg.norm(a @ rep.x - b) <= eps * np.linalg.norm(b)


def test_rectangular_ridge_matches_dense_solution():
    m, n, lam = 160, 96, 0.5
    sig = flat_tail_sigmas(n, 8, 100.0, seed=7)
    a = svd_matrix(m, n, sig, seed=8)
    rng = np.random.default_rng(9)
    c = rng.standard_normal(n)
    rep = solve_normal(a, c, GeneralSolveConfig(l=16, lam=lam, eps=1e-8, seed=10))
    assert rep.converged
    g = a.T @ a + lam * np.eye(n)
    x_star = np.linalg.solve(g, c)
    d = rep.x - x_star
    err = np.sqrt(float(d @ (g @ d))) / np.sqrt(float(x_star @ (g @ x_star)))
    assert err <= 1e-8


def test_large_shift_converges_within_ten_iterations():
    n = 128
    sig = flat_tail_sigmas(n, 8, 100.0, seed=11)
    a = svd_matrix(n, n, sig, seed=12)
    lam = float(np.max(sig)) ** 2
    rng = np.random.default_rng(13)
    c = rng.standard_normal(n)
    rep = solve_normal(a, c, GeneralSolveConfig(l=16, lam=lam, eps=1e-8, seed=14))
    assert rep.converged
    assert rep.iterations["level1"] <= 10
    x_star = np.linalg.solve(a.T @ a + lam * np.eye(n), c)
    assert np.linalg.norm(rep.x - x_star) <= 1e-6 * np.linalg.norm(x_star)


def test_state_reuse_across_right_hand_sides():
    n = 96
    a = svd_matrix(n, n, flat_tail_sigmas(n, 6, 100.0, seed=15), seed=16)
    cfg = GeneralSolveConfig(l=12, lam=0.1, eps=1e-8, seed=17)
    state = build_general(a, cfg)
    rng = np.random.default_rng(18)
    g = a.T @ a + 0.1 * np.eye(n)
    for _ in range(3):
        c = rng.standard_normal(n)
        rep = solve_normal(a, c, cfg, state=state)
        assert rep.converged
        x_star = np.linalg.solve(g, c)
        assert np.linalg.norm(rep.x - x_star) <= 1e-6 * np.linalg.norm(x_star)
        assert rep.preconditioner is state
        # the state reports this solve's estimate, as the PSD preconditioner does
        assert rep.diagnostics["preconditioner"]["kappa_hat"] == rep.kappa_m_estimate


# -- lambda0 and lambda_tilde ----------------------------------------------------------


def test_huge_lambda_dominates_tail_compensation():
    n = 96
    a = svd_matrix(n, n, flat_tail_sigmas(n, 6, 10.0, seed=19), seed=20)
    lam = 1e6 * np.linalg.norm(a, 2) ** 2
    state = build_general(a, GeneralSolveConfig(l=12, lam=lam, seed=21))
    assert state.lambda_tilde >= lam
    assert state.lambda0 <= 0.01 * lam


# -- inner applications vs dense oracles -----------------------------------------------


def test_solve_m1_matches_dense_preconditioner_inverse():
    m, n = 160, 128
    a = svd_matrix(m, n, flat_tail_sigmas(n, 8, 100.0, seed=22), seed=23)
    state = build_general(a, GeneralSolveConfig(l=10, lam=0.3, seed=24))
    c_block = a.T @ state.a_tilde.to_dense()
    rng = np.random.default_rng(25)
    r = rng.standard_normal(n)
    got = solve_m1_general(state, r, BIG_BUDGETS)
    want = oracles.dense_minv_apply(c_block, state.w_j, state.lambda_tilde, r)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


class CountingHandle(MatrixHandle):
    """MatrixHandle that counts its vector products with A and A^T."""

    calls = 0

    def matvec(self, x):
        self.calls += 1
        return super().matvec(x)

    def rmatvec(self, x):
        self.calls += 1
        return super().rmatvec(x)


@pytest.mark.parametrize("sparse", [False, True])
def test_stored_c_is_a_transpose_times_a_tilde(sparse):
    if sparse:
        dense = sp.random(150, 90, density=0.2, random_state=47, format="csr").toarray()
    else:
        dense = svd_matrix(150, 90, flat_tail_sigmas(90, 6, 30.0, seed=48), seed=49)
    a = MatrixHandle(sp.csr_matrix(dense) if sparse else dense)
    assert a.kind == ("csr" if sparse else "dense")
    state = build_general(a, GeneralSolveConfig(l=10, lam=0.3, seed=50))
    want = dense.T @ state.a_tilde.to_dense()
    got = state.C.to_dense()
    assert got.shape == (90, state.s)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_solve_m1_makes_no_product_with_a():
    m, n = 160, 128
    dense = svd_matrix(m, n, flat_tail_sigmas(n, 8, 100.0, seed=22), seed=23)
    a = CountingHandle(dense)
    state = build_general(a, GeneralSolveConfig(l=10, lam=0.3, seed=24))
    a.calls = 0
    r = np.random.default_rng(25).standard_normal(n)
    got = solve_m1_general(state, r, BIG_BUDGETS)
    assert a.calls == 0
    want = oracles.dense_minv_apply(dense.T @ state.a_tilde.to_dense(), state.w_j,
                                    state.lambda_tilde, r)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_matvecs_counts_only_the_products_with_a_that_run():
    # On a reused state the build and the power method do not run again, so
    # the products counted on the handle are level 1's alone: at most one
    # operator apply and one residual check, two products each, per step.
    # matvecs counts exactly those.
    n = 96
    a = CountingHandle(svd_matrix(120, n, flat_tail_sigmas(n, 6, 100.0, seed=51), seed=52))
    cfg = GeneralSolveConfig(l=12, lam=0.1, eps=1e-8, seed=53)
    state = build_general(a, cfg)
    rng = np.random.default_rng(54)
    solve_normal(a, rng.standard_normal(n), cfg, state=state)
    a.calls = 0
    rep = solve_normal(a, rng.standard_normal(n), cfg, state=state)
    assert rep.converged
    assert 0 < a.calls <= 4 * (rep.iterations["level1"] + rep.iterations["warmup"])
    assert a.calls == rep.matvecs


def test_solve_m1_zero_residual_gives_zero():
    a = svd_matrix(60, 48, flat_tail_sigmas(48, 4, 10.0, seed=26), seed=27)
    state = build_general(a, GeneralSolveConfig(l=8, lam=0.1, seed=28))
    assert np.array_equal(
        solve_m1_general(state, np.zeros(48), BIG_BUDGETS), np.zeros(48)
    )


def test_solve_m2_matches_dense_resolvent_difference():
    a = svd_matrix(80, 64, flat_tail_sigmas(64, 4, 10.0, seed=29), seed=30)
    state = build_general(a, GeneralSolveConfig(l=8, lam=0.2, seed=31))
    rng = np.random.default_rng(32)
    r = rng.standard_normal(state.s)
    got = solve_m2(state, r, BIG_BUDGETS)
    lt = state.lambda_tilde
    want = np.linalg.solve(state.w_j @ state.w_j + lt * state.w_j, r)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
    assert np.array_equal(solve_m2(state, np.zeros(state.s), BIG_BUDGETS),
                          np.zeros(state.s))


def test_solve_m2_huge_shift_limit():
    # For lt >> ||W|| the resolvent difference collapses to W_j^{-1} r / lt.
    a = svd_matrix(80, 64, flat_tail_sigmas(64, 4, 10.0, seed=33), seed=34)
    lam = 1e8 * np.linalg.norm(a.T @ a, 2)
    state = build_general(a, GeneralSolveConfig(l=8, lam=lam, seed=35))
    rng = np.random.default_rng(36)
    r = rng.standard_normal(state.s)
    got = solve_m2(state, r, BIG_BUDGETS)
    lt = state.lambda_tilde
    want = np.linalg.solve(state.w_j @ state.w_j + lt * state.w_j, r)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    approx = np.linalg.solve(state.w_j, r) / lt
    assert np.linalg.norm(got - approx) <= 0.5 * np.linalg.norm(approx)


def test_level3_factor_matches_dense_inverse():
    import scipy.linalg

    m, n = 300, 200
    a = svd_matrix(m, n, flat_tail_sigmas(n, 8, 100.0, seed=37), seed=38)
    state = build_general(a, GeneralSolveConfig(l=12, lam=0.1, seed=39))
    a_hat = state.a_hat.to_dense()
    gram = a_hat.T @ a_hat
    gram = 0.5 * (gram + gram.T)
    gram[np.diag_indices_from(gram)] += state.jitter
    rng = np.random.default_rng(40)
    r = rng.standard_normal(state.s)
    got = scipy.linalg.cho_solve(state.m3a_factor, r)
    want = np.linalg.solve(gram, r)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


# -- gram-matrix entry point -----------------------------------------------------------


def test_gram_entry_point_routes_to_psd_path():
    n = 96
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.concatenate([1e3 * rng.uniform(1, 2, 6), rng.uniform(1, 2, n - 6)])
    g = (q * vals) @ q.T
    g = 0.5 * (g + g.T)
    c = rng.standard_normal(n)
    rep = solve_normal_given_gram(g, c, GeneralSolveConfig(l=12, lam=0.2, eps=1e-8, seed=42))
    assert rep.method == "msp-general-gram"
    assert rep.converged
    x_star = np.linalg.solve(g + 0.2 * np.eye(n), c)
    assert np.linalg.norm(rep.x - x_star) <= 1e-6 * np.linalg.norm(x_star)


# -- configuration ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(DomainError):
        GeneralSolveConfig(l=8, eps=2.0)
    with pytest.raises(DomainError):
        GeneralSolveConfig(l=8, delta=0.5)
    with pytest.raises(DomainError):
        GeneralSolveConfig(l=8, lam=-1e-9)
    with pytest.raises(DomainError):
        GeneralSolveConfig(l=-3)


def test_report_counters_present():
    a = svd_matrix(64, 48, flat_tail_sigmas(48, 4, 10.0, seed=43), seed=44)
    rng = np.random.default_rng(45)
    rep = solve_normal(a, rng.standard_normal(48), GeneralSolveConfig(l=8, lam=0.1, seed=46))
    assert rep.converged
    for key in ("level1", "warmup", "level2_total", "level3a_total", "level3b_total"):
        assert key in rep.iterations
    assert rep.matvecs > 0
    d = rep.to_dict()
    assert d["schema"] == 1
    assert d["method"] == "msp-general"
