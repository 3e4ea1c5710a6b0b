import json

import numpy as np
import pytest
import scipy.sparse as sp

import mspsolve.psd
from mspsolve.config import DEFAULT
from mspsolve.core import MatrixHandle
from mspsolve.errors import DomainError
from mspsolve.nystrom import build_nystrom_psd
from mspsolve.psd import PsdSolveConfig, clamp_rank, solve_m1_psd, solve_psd

import oracles


def flat_tail_psd(n, n_big, ratio, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.concatenate([ratio * rng.uniform(1, 2, n_big), rng.uniform(1, 2, n - n_big)])
    a = (q * vals) @ q.T
    return 0.5 * (a + a.T)


def a_norm_rel_err(a, lam, x, x_star):
    d = x - x_star
    b_mat = a + lam * np.eye(a.shape[0])
    num = np.sqrt(float(d @ (b_mat @ d)))
    den = np.sqrt(float(x_star @ (b_mat @ x_star)))
    return num / den


# -- frozen easy cases --------------------------------------------------------------


def test_identity_converges_within_two_iterations():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(64)
    rep = solve_psd(np.eye(64), b, PsdSolveConfig(l=8, lam=0.0, eps=1e-12))
    assert rep.converged
    assert rep.iterations["level1"] <= 2
    assert np.linalg.norm(rep.x - b) <= 1e-12 * np.linalg.norm(b)


def test_zero_rhs_short_circuits():
    rep = solve_psd(np.eye(32), np.zeros(32), PsdSolveConfig(l=6))
    assert rep.converged
    assert rep.stop_reason == "zero-rhs"
    assert np.array_equal(rep.x, np.zeros(32))
    assert rep.matvecs == 0
    # the same iteration keys as a real solve
    real = solve_psd(np.eye(32), np.ones(32), PsdSolveConfig(l=6))
    assert set(rep.iterations) == set(real.iterations)


def test_huge_shift_converges_immediately():
    # lam far above ||A|| makes the system a scaled identity to the solver.
    a = flat_tail_psd(96, 8, 1e3, seed=1)
    lam = 1e8 * np.linalg.norm(a, 2)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(96)
    rep = solve_psd(a, b, PsdSolveConfig(l=12, lam=lam, eps=1e-8, seed=3))
    assert rep.converged
    assert rep.iterations["level1"] <= 3
    x_star = np.linalg.solve(a + lam * np.eye(96), b)
    assert a_norm_rel_err(a, lam, rep.x, x_star) <= 1e-8


# -- the main contract ---------------------------------------------------------------


def test_outlier_spectrum_hits_energy_norm_target_and_budget():
    # 16 outliers at 1e4 over a flat tail: the solve must reach the 1e-8
    # energy-norm contract within 4*sqrt(n/l)*ln(n/eps) level-1 iterations.
    n, l, eps = 512, 64, 1e-8
    a = flat_tail_psd(n, 16, 1e4, seed=4)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(n)
    rep = solve_psd(a, b, PsdSolveConfig(l=l, lam=0.0, eps=eps, seed=6))
    assert rep.converged
    x_star = np.linalg.solve(a, b)
    assert a_norm_rel_err(a, 0.0, rep.x, x_star) <= eps
    budget = 4.0 * np.sqrt(n / l) * np.log(n / eps)
    assert rep.iterations["warmup"] + rep.iterations["level1"] <= budget


@pytest.mark.parametrize("n,eps", [(96, 1e-4), (160, 1e-6), (224, 1e-8)])
def test_energy_norm_contract_across_sizes(n, eps):
    a = flat_tail_psd(n, 6, 1e3, seed=n)
    lam = 0.1
    rng = np.random.default_rng(n + 1)
    b = rng.standard_normal(n)
    rep = solve_psd(a, b, PsdSolveConfig(l=16, lam=lam, eps=eps, seed=n + 2))
    assert rep.converged
    x_star = np.linalg.solve(a + lam * np.eye(n), b)
    assert a_norm_rel_err(a, lam, rep.x, x_star) <= eps


def test_sparse_and_callable_inputs_agree():
    n = 128
    vals = np.concatenate([1e3 * np.ones(8), np.linspace(1.0, 2.0, n - 8)])
    rng = np.random.default_rng(7)
    b = rng.standard_normal(n)
    cfg = PsdSolveConfig(l=16, lam=0.5, eps=1e-8, seed=8)
    rep_sparse = solve_psd(MatrixHandle(sp.diags(vals).tocsr(), sym="spd"), b, cfg)
    rep_callable = solve_psd(lambda v: vals * v, b, cfg)
    x_star = b / (vals + 0.5)
    for rep in (rep_sparse, rep_callable):
        assert rep.converged
        assert np.linalg.norm(rep.x - x_star) <= 1e-7 * np.linalg.norm(x_star)
    # identical sketches and budgets either way
    assert np.array_equal(rep_sparse.x, rep_callable.x)


def test_preconditioner_reuse_across_right_hand_sides():
    n = 128
    a = flat_tail_psd(n, 8, 1e3, seed=9)
    rng = np.random.default_rng(10)
    cfg = PsdSolveConfig(l=16, lam=0.2, eps=1e-8, seed=11)
    rep1 = solve_psd(a, rng.standard_normal(n), cfg)
    assert rep1.converged
    assert rep1.diagnostics["preconditioner"]["kappa_hat"] == rep1.kappa_m_estimate
    b2 = rng.standard_normal(n)
    rep2 = solve_psd(a, b2, cfg, pre=rep1.preconditioner)
    assert rep2.converged
    # the reused preconditioner reports this solve's estimate, not the last one
    assert rep2.diagnostics["preconditioner"]["kappa_hat"] == rep2.kappa_m_estimate
    assert rep2.kappa_m_estimate != rep1.kappa_m_estimate
    x_star = np.linalg.solve(a + 0.2 * np.eye(n), b2)
    assert a_norm_rel_err(a, 0.2, rep2.x, x_star) <= 1e-8
    assert rep2.preconditioner is rep1.preconditioner


def test_one_level1_run_per_solve(monkeypatch):
    # The Ritz read happens inside the run, so a solve that goes past it is
    # still one Lanczos run (level 2 is direct here: Phi is the identity).
    n = 256
    a = flat_tail_psd(n, 8, 1e4, seed=30)
    rng = np.random.default_rng(31)
    cfg = PsdSolveConfig(l=16, lam=0.0, eps=1e-8, seed=32)
    pre = solve_psd(a, rng.standard_normal(n), cfg).preconditioner
    runs = []
    original = mspsolve.psd.preconditioned_lanczos

    def counting(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mspsolve.psd, "preconditioned_lanczos", counting)
    rep = solve_psd(a, rng.standard_normal(n), cfg, pre=pre)
    assert rep.converged
    assert rep.diagnostics["level2_solver"] == "cholesky"
    assert rep.iterations["level1"] > DEFAULT.warmup_iters == rep.iterations["warmup"]
    assert len(runs) == 1
    # On a reused preconditioner every product with A is a level-1 step or
    # one residual check.
    assert rep.matvecs == rep.iterations["level1"] + len(rep.residual_history)


def test_budget_exhaustion_is_reported_not_raised():
    # A decaying spectrum with no flat tail is outside the preconditioner's
    # speedup class; with a tiny iteration cap the solve must end honestly.
    n = 128
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.geomspace(1e6, 1.0, n)
    a = (q * vals) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(n)
    rep = solve_psd(
        a, b, PsdSolveConfig(l=8, lam=0.0, eps=1e-10, seed=13, t_max_override=2)
    )
    assert rep.status == "budget-exhausted"
    assert np.all(np.isfinite(rep.x))
    assert rep.iterations["level1"] >= 1


# -- the inner M^{-1} application ------------------------------------------------------


def test_solve_m1_zero_residual_gives_zero():
    a = flat_tail_psd(64, 4, 100.0, seed=14)
    rep = solve_psd(a, np.ones(64), PsdSolveConfig(l=8, lam=0.1, seed=15))
    out = solve_m1_psd(rep.preconditioner, np.zeros(64), inner_budget=10)
    assert np.array_equal(out, np.zeros(64))


def test_solve_m1_matches_dense_inverse_with_generous_budget():
    n = 128
    a = flat_tail_psd(n, 8, 1e3, seed=16)
    rep = solve_psd(a, np.ones(n), PsdSolveConfig(l=10, lam=0.3, seed=17))
    pre = rep.preconditioner
    rng = np.random.default_rng(18)
    r = rng.standard_normal(n)
    got = solve_m1_psd(pre, r, inner_budget=400, eps1=1e-13)
    want = oracles.dense_minv_apply(
        pre.C.to_dense(), pre.w_jittered(), pre.lambda_tilde, r
    )
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_solve_m1_identity_ose_is_one_direct_solve(monkeypatch):
    n = 128
    a = flat_tail_psd(n, 8, 1e3, seed=16)
    pre = build_nystrom_psd(a, 10, 0.3, 0.01, 17)
    assert pre.phi_rows == n

    def no_lanczos(*args, **kwargs):
        raise AssertionError("level 2 ran Lanczos with Phi = I")

    monkeypatch.setattr(mspsolve.psd, "preconditioned_lanczos", no_lanczos)
    r = np.random.default_rng(18).standard_normal(n)
    counters = {}
    got = solve_m1_psd(pre, r, inner_budget=400, eps1=1e-13, counters=counters)
    want = oracles.dense_minv_apply(
        pre.C.to_dense(), pre.w_jittered(), pre.lambda_tilde, r
    )
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert counters["level2_total"] == counters["level2_runs"] == 1


def test_level2_runs_lanczos_when_ose_is_a_real_sketch():
    # At n = 3000 the clamped l = 13 gives s = 140 and a 2314-row OSE.
    n = 3000
    rng = np.random.default_rng(30)
    vals = np.concatenate([1e3 * rng.uniform(1, 2, 8), rng.uniform(1, 2, n - 8)])
    b = rng.standard_normal(n)
    a = MatrixHandle(sp.diags(vals).tocsr(), sym="spd")
    rep = solve_psd(a, b, PsdSolveConfig(l=12, lam=0.1, seed=31))
    assert rep.preconditioner.phi_rows < n
    assert rep.diagnostics["level2_solver"] == "lanczos"
    assert rep.iterations["level2_total"] > rep.iterations["level2_runs"]
    assert rep.converged
    x_star = b / (vals + 0.1)
    d = rep.x - x_star
    assert np.sqrt(d @ ((vals + 0.1) * d)) <= 1e-8 * np.sqrt(x_star @ b)


def test_reused_preconditioner_caches_the_norm_estimate(monkeypatch):
    n = 128
    a = flat_tail_psd(n, 8, 1e3, seed=9)
    b = np.random.default_rng(10).standard_normal(n)
    cfg = PsdSolveConfig(l=16, lam=0.2, eps=1e-8, seed=11)
    fresh = solve_psd(a, b, cfg)
    assert fresh.diagnostics["level2_solver"] == "cholesky"
    calls = []
    original = mspsolve.psd.power_method_norm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mspsolve.psd, "power_method_norm", counting)
    again = solve_psd(a, b, cfg, pre=fresh.preconditioner)
    assert calls == []
    assert again.x.tobytes() == fresh.x.tobytes()
    # neither the lambda0 probes nor the power method ran again
    assert again.matvecs == fresh.matvecs - DEFAULT.power_iters - DEFAULT.lambda0_probes
    assert again.iterations == fresh.iterations


def test_inner_iteration_counters_accumulate():
    a = flat_tail_psd(96, 6, 1e3, seed=19)
    rep = solve_psd(a, np.ones(96), PsdSolveConfig(l=12, lam=0.1, seed=20))
    assert rep.iterations["level2_runs"] >= rep.iterations["level1"]
    assert rep.iterations["level2_total"] >= rep.iterations["level2_runs"]


# -- configuration and reporting -------------------------------------------------------


def test_config_validation():
    with pytest.raises(DomainError):
        PsdSolveConfig(l=8, eps=0.0)
    with pytest.raises(DomainError):
        PsdSolveConfig(l=8, eps=1.0)
    with pytest.raises(DomainError):
        PsdSolveConfig(l=8, delta=0.7)
    with pytest.raises(DomainError):
        PsdSolveConfig(l=8, lam=-0.1)
    with pytest.raises(DomainError):
        PsdSolveConfig(l=0)


def test_clamp_rank_window():
    assert clamp_rank(1, 1024) == (11, True)
    assert clamp_rank(2000, 100) == (99, True)
    assert clamp_rank(50, 100) == (50, False)


def test_report_serializes_to_versioned_json():
    a = flat_tail_psd(64, 4, 100.0, seed=21)
    rng = np.random.default_rng(22)
    rep = solve_psd(a, rng.standard_normal(64), PsdSolveConfig(l=8, lam=0.1, seed=23))
    d = rep.to_dict()
    assert d["schema"] == 1
    assert d["method"] == "msp-psd"
    assert d["status"] == "converged"
    assert "x" not in d
    assert json.loads(rep.to_json()) == json.loads(json.dumps(d))
    with_x = rep.to_dict(include_solution=True)
    assert len(with_x["x"]) == 64


def test_trace_callback_sees_main_run():
    # Decaying spectrum so the warmup cannot converge and the traced main
    # run actually happens.
    n = 96
    rng = np.random.default_rng(24)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.geomspace(1e4, 1.0, n)) @ q.T
    a = 0.5 * (a + a.T)
    calls = []
    solve_psd(
        a,
        rng.standard_normal(n),
        PsdSolveConfig(l=10, lam=0.0, eps=1e-8, seed=25),
        trace=calls.append,
    )
    assert len(calls) >= 1
    assert all({"i", "alpha", "beta", "resid"} == set(c) for c in calls)
