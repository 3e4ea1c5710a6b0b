import json

import numpy as np
import pytest
import scipy.sparse as sp

import mspsolve.core
import mspsolve.general
import mspsolve.psd
from mspsolve.apps import solve_least_squares
from mspsolve.bench import solve_plain_lanczos
from mspsolve.config import LAMBDA0_PROBES, OSE_EPSILON, WARMUP_ITERS, ose_rows
from mspsolve.core import MatrixHandle
from mspsolve.errors import DomainError
from mspsolve.general import GeneralSolveConfig, solve_normal
from mspsolve.instances import InstanceSpec, gen_instance
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


def test_high_contrast_outliers_converge_within_eps():
    # 16 outliers at ratio 1e6: the true residual stalls above what a
    # residual certificate of eps asks for, while the energy error meets eps.
    a, b, _ = gen_instance(InstanceSpec("k-large-psd", n=2048, k=16, ratio=1e6, seed=1))
    rep = solve_psd(a, b, PsdSolveConfig(l=32, eps=1e-8, seed=0))
    assert rep.converged
    assert rep.stop_reason == "error-target"
    dense = a.to_dense()
    assert a_norm_rel_err(dense, 0.0, rep.x, np.linalg.solve(dense, b)) <= 1e-8


def test_small_eigenvalue_b_barely_touches_is_not_missed():
    # Most of x's energy sits on lambda = 1e-10, which the first steps'
    # Ritz values do not see; at the stop the error must still meet eps.
    vals = np.r_[np.ones(63), 1e-10]
    b = np.r_[np.ones(63), 1e-4]
    rep = solve_psd(np.diag(vals), b, PsdSolveConfig(l=8, eps=1e-3, seed=0))
    assert rep.converged
    assert a_norm_rel_err(np.diag(vals), 0.0, rep.x, b / vals) <= 1e-3


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
    # identical sketches either way; lambda0 differs (the matrix's trace
    # bound against the operator's probes), so x agrees only to tolerance
    assert (rep_sparse.preconditioner.C.to_dense().tobytes()
            == rep_callable.preconditioner.C.to_dense().tobytes())


def test_matvecs_counts_every_application_of_an_operator_only_a():
    # A building call applies an operator-only A to the s + l sketch columns
    # and the lambda0 probes one vector at a time; matvecs counts them all.
    n = 128
    a = flat_tail_psd(n, 8, 1e3, seed=9)
    calls = []

    def op(v):
        calls.append(1)
        return a @ v

    b = np.random.default_rng(10).standard_normal(n)
    rep = solve_psd(op, b, PsdSolveConfig(l=16, lam=0.2, seed=11))
    pre = rep.preconditioner
    assert rep.converged
    assert pre.build_passes == pre.s + pre.l + LAMBDA0_PROBES
    assert len(calls) == rep.matvecs
    assert rep.matvecs == pre.build_passes + rep.iterations["level1"] + len(rep.residual_history)


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
    assert rep.iterations["level1"] > WARMUP_ITERS == rep.iterations["warmup"]
    assert len(runs) == 1
    # On a reused preconditioner every product with A is a level-1 step or
    # one residual check.
    assert rep.matvecs == rep.iterations["level1"] + len(rep.residual_history)


def test_budget_exhaustion_is_reported_not_raised(monkeypatch):
    # A decaying spectrum with no flat tail is outside the preconditioner's
    # speedup class; with a tiny iteration cap the solve must end honestly.
    n = 128
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.geomspace(1e6, 1.0, n)
    a = (q * vals) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(n)
    # A vanishing T_FACTOR caps the run at WARMUP_ITERS steps.
    monkeypatch.setattr(mspsolve.psd, "T_FACTOR", 1e-9)
    rep = solve_psd(a, b, PsdSolveConfig(l=8, lam=0.0, eps=1e-10, seed=13))
    assert rep.status == "budget-exhausted"
    assert rep.iterations["level1"] == rep.diagnostics["t_max"] == WARMUP_ITERS
    assert np.all(np.isfinite(rep.x))


# -- the inner M^{-1} application ------------------------------------------------------


def test_solve_m1_zero_residual_gives_zero():
    a = flat_tail_psd(64, 4, 100.0, seed=14)
    rep = solve_psd(a, np.ones(64), PsdSolveConfig(l=8, lam=0.1, seed=15))
    out = solve_m1_psd(rep.preconditioner, np.zeros(64))
    assert np.array_equal(out, np.zeros(64))


def test_solve_m1_matches_dense_inverse_with_generous_budget():
    n = 128
    a = flat_tail_psd(n, 8, 1e3, seed=16)
    rep = solve_psd(a, np.ones(n), PsdSolveConfig(l=10, lam=0.3, seed=17))
    pre = rep.preconditioner
    rng = np.random.default_rng(18)
    r = rng.standard_normal(n)
    got = solve_m1_psd(pre, r)
    want = oracles.dense_minv_apply(
        pre.C.to_dense(), pre.w_jittered(), pre.lambda_tilde, r
    )
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_solve_m1_identity_ose_is_one_direct_solve(monkeypatch):
    n = 128
    a = flat_tail_psd(n, 8, 1e3, seed=16)
    pre = build_nystrom_psd(a, 10, 0.3, 0.01, 17)

    def no_lanczos(*args, **kwargs):
        raise AssertionError("level 2 ran Lanczos")

    monkeypatch.setattr(mspsolve.psd, "preconditioned_lanczos", no_lanczos)
    r = np.random.default_rng(18).standard_normal(n)
    counters = {}
    got = solve_m1_psd(pre, r, counters=counters)
    want = oracles.dense_minv_apply(
        pre.C.to_dense(), pre.w_jittered(), pre.lambda_tilde, r
    )
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert counters["level2_total"] == counters["level2_runs"] == 1


def test_solve_m1_solves_the_dense_preconditioner_on_an_rbf_kernel():
    # An rbf kernel's W is nearly singular; the level-2 matrix
    # G = Y Y^T + lt*I does not square its conditioning, so one apply meets
    # M = C W_j^{-1} C^T + lt*I formed densely to a small residual.
    k, _, _ = gen_instance(InstanceSpec("rbf-kernel", n=400, bandwidth=1.0, seed=0))
    pre = build_nystrom_psd(k, 60, 1e-2, 0.01, 0)
    m = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
    m[np.diag_indices_from(m)] += pre.lambda_tilde
    r = np.random.default_rng(0).standard_normal(400)
    z = solve_m1_psd(pre, r)
    assert np.linalg.norm(m @ z - r) <= 1e-10 * np.linalg.norm(r)


def test_level2_is_one_direct_solve_when_phi_would_sketch(monkeypatch):
    # At n = 3000 the clamped l = 13 gives s = 140, where a subspace embedding
    # sized for the s columns of C would have 2314 < n rows.  Level 2 is still
    # one direct solve per apply, and level 1 the only Lanczos run.
    n = 3000
    rng = np.random.default_rng(30)
    vals = np.concatenate([1e3 * rng.uniform(1, 2, 8), rng.uniform(1, 2, n - 8)])
    b = rng.standard_normal(n)
    a = MatrixHandle(sp.diags(vals).tocsr(), sym="spd")
    runs = []
    original = mspsolve.psd.preconditioned_lanczos

    def counting(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mspsolve.psd, "preconditioned_lanczos", counting)
    rep = solve_psd(a, b, PsdSolveConfig(l=12, lam=0.1, seed=31))
    s = rep.preconditioner.s
    assert ose_rows(n, s, 0.01, OSE_EPSILON) < n
    assert rep.diagnostics["level2_solver"] == "cholesky"
    assert rep.iterations["level2_total"] == rep.iterations["level2_runs"] > 0
    assert len(runs) == 1
    assert rep.converged
    x_star = b / (vals + 0.1)
    d = rep.x - x_star
    assert np.sqrt(d @ ((vals + 0.1) * d)) <= 1e-8 * np.sqrt(x_star @ b)


def test_reused_preconditioner_caches_the_norm_estimate(monkeypatch):
    n = 128
    a = flat_tail_psd(n, 8, 1e3, seed=9)
    b = np.random.default_rng(10).standard_normal(n)
    cfg = PsdSolveConfig(l=16, lam=0.2, eps=1e-8, seed=11)
    calls = []
    original = mspsolve.psd.power_method_norm

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(mspsolve.psd, "power_method_norm", counting)
    fresh = solve_psd(a, b, cfg)
    assert fresh.diagnostics["level2_solver"] == "cholesky"
    again = solve_psd(a, b, cfg, pre=fresh.preconditioner)
    assert calls == []
    assert again.x.tobytes() == fresh.x.tobytes()
    # the build read ||A|| and lambda0 off its own sketch: a matrix build
    # draws no probes, so a reuse saves no product with A
    assert again.matvecs == fresh.matvecs
    assert again.iterations == fresh.iterations


@pytest.mark.parametrize("path", ["matrix", "callable", "normal"])
def test_no_solver_calls_the_power_method(monkeypatch, path):
    def forbidden(*args, **kwargs):
        raise AssertionError("the solver ran the power method")

    for module in (mspsolve.core, mspsolve.psd, mspsolve.general):
        monkeypatch.setattr(module, "power_method_norm", forbidden)
    n = 128
    a = flat_tail_psd(n, 8, 1e3, seed=9)
    b = np.random.default_rng(10).standard_normal(n)
    if path == "normal":
        rep = solve_normal(a, b, GeneralSolveConfig(l=16, lam=0.2, eps=1e-6, seed=11))
    else:
        op = a if path == "matrix" else (lambda v: a @ v)
        rep = solve_psd(op, b, PsdSolveConfig(l=16, lam=0.2, eps=1e-6, seed=11))
    assert rep.converged


def test_converged_is_truthful_on_a_slowly_decaying_spectrum():
    # lambda_i = i^(-1/2) lies far outside the design regime: mu_max reads
    # ~0.6 of ||A|| here, and the smallest Ritz value stands in for
    # lam_min in the error estimate.  Every `converged` must still meet eps.
    n = 1000
    vals = np.arange(1, n + 1) ** -0.5
    for seed in range(2):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * vals) @ q.T
        a = 0.5 * (a + a.T)
        b = rng.standard_normal(n)
        for lam in (0.0, 1e-3):
            x_star = q @ ((q.T @ b) / (vals + lam))
            for eps in (1e-6, 1e-8):
                rep = solve_psd(a, b, PsdSolveConfig(l=20, lam=lam, eps=eps, seed=seed))
                if rep.converged:
                    assert a_norm_rel_err(a, lam, rep.x, x_star) <= eps


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


# -- right-hand sides of extreme scale -------------------------------------------------


EPS_EXTREME = 1e-8


def _extreme_scale_case(name):
    """(solve(b), dense system matrix B, b -> c with B x = c, len(b)) for one solver.

    The PSD solvers run on a 64x64 SPD A, the others on a 128x64 A; every
    eigenvalue of A, and every singular value of the tall A, lies in [1, 2].
    """
    rng = np.random.default_rng(64)
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
    spd = (q * rng.uniform(1, 2, 64)) @ q.T
    spd = 0.5 * (spd + spd.T)
    u, _ = np.linalg.qr(rng.standard_normal((128, 64)))
    tall = (u * rng.uniform(1, 2, 64)) @ q.T
    eps = EPS_EXTREME
    return {
        "psd": (lambda b: solve_psd(spd, b, PsdSolveConfig(l=8, eps=eps)), spd, lambda b: b, 64),
        "normal": (lambda b: solve_normal(tall, b, GeneralSolveConfig(l=8, eps=eps)),
                   tall.T @ tall, lambda b: b, 64),
        "least-squares": (lambda b: solve_least_squares(tall, b, eps=eps), tall.T @ tall,
                          lambda b: tall.T @ b, 128),
        "plain-lanczos": (lambda b: solve_plain_lanczos(spd, b, eps=eps), spd, lambda b: b, 64),
    }[name]


@pytest.mark.parametrize("scale", [1e-170, 1e155, 1e170])
@pytest.mark.parametrize("name", ["psd", "normal", "least-squares", "plain-lanczos"])
def test_rhs_of_extreme_scale_converges_and_scales_exactly(name, scale):
    # b . b underflows to 0 at 1e-170 and overflows at 1e155; the solvers run
    # on b scaled by a power of two, so neither matters.
    solve, system, rhs_of, m = _extreme_scale_case(name)
    unit = np.random.default_rng(3).standard_normal(m)
    rep = solve(scale * unit)
    assert rep.status == "converged"
    # The dense reference solves the unit-scale system, and x / scale is
    # compared to it in the energy norm of B, whose square overflows at scale.
    x_star = np.linalg.solve(system, rhs_of(unit))
    x_unit = rep.x / scale
    d = x_unit - x_star
    assert np.sqrt(d @ system @ d) <= EPS_EXTREME * np.sqrt(x_star @ system @ x_star)
    # The workspace is scaled back with x: it rebuilds the iterate it returned.
    ws = rep.workspace
    gap = ws.iterate(ws.iterations) / scale - x_unit
    assert np.max(np.abs(gap)) <= 1e-10 * np.max(np.abs(x_unit))
    # Scaling b by a power of two scales every step, so x, exactly.
    assert np.array_equal(solve(np.ldexp(scale * unit, 100)).x, np.ldexp(rep.x, 100))
