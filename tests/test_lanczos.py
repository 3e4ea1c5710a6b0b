import warnings

import numpy as np
import pytest

from mspsolve.errors import BreakdownError, DomainError, SizeGuardError
from mspsolve.lanczos import (
    LanczosWorkspace,
    SolveMContract,
    TridiagonalMatrix,
    preconditioned_lanczos,
    ritz_values,
    symmetric_lanczos_reference,
    tridiag_solve_e1,
)
from mspsolve.nystrom import build_nystrom_psd, exact_minv_reference

import oracles


def rotated_spd(n, cond, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.geomspace(cond, 1.0, n)
    return (q * vals) @ q.T


def identity_m(r):
    return r


# -- tridiagonal solves -----------------------------------------------------------


def test_tridiag_single_entry():
    x = tridiag_solve_e1(TridiagonalMatrix([2.0], []), 4.0)
    assert np.allclose(x, [2.0], rtol=0, atol=1e-15)


def test_tridiag_two_by_two_known_value():
    tri = TridiagonalMatrix([2.0, 2.0], [1.0])
    x = tridiag_solve_e1(tri, 1.0)
    assert np.allclose(x, [2.0 / 3.0, -1.0 / 3.0], rtol=1e-14)
    assert np.allclose(x, oracles.tridiag_e1_dense([2.0, 2.0], [1.0], 1.0), rtol=1e-14)


def test_tridiag_zero_pivot_falls_back():
    # Leading pivot is exactly zero, so plain LDL^T cannot proceed; the dense
    # eigendecomposition path must still produce the right answer.
    x = tridiag_solve_e1(TridiagonalMatrix([0.0, 1.0], [1.0]), 1.0)
    assert np.allclose(x, oracles.tridiag_e1_dense([0.0, 1.0], [1.0], 1.0), atol=1e-10)


def test_tridiag_singular_raises():
    with pytest.raises(BreakdownError):
        tridiag_solve_e1(TridiagonalMatrix([1.0, 1.0], [1.0]), 1.0)
    with pytest.raises(BreakdownError):
        tridiag_solve_e1(TridiagonalMatrix([0.0], []), 1.0)


def test_tridiag_validation():
    with pytest.raises(DomainError):
        TridiagonalMatrix([], [])
    with pytest.raises(DomainError):
        TridiagonalMatrix([1.0, 2.0], [])
    tri = TridiagonalMatrix([1.0, 2.0, 3.0], [0.1, 0.2])
    with pytest.raises(DomainError):
        tri.head(0)
    assert tri.head(2).t == 2


def test_ritz_values_two_by_two():
    assert np.allclose(ritz_values(TridiagonalMatrix([2.0, 2.0], [1.0])), [1.0, 3.0])


# -- basic convergence ------------------------------------------------------------


def test_identity_system_one_iteration():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(40)
    x, ws = preconditioned_lanczos(
        np.eye(40), b, identity_m, t_max=10, residual_target=1e-12, check_every=1
    )
    assert ws.status == "converged"
    assert ws.iterations == 1
    assert np.linalg.norm(x - b) <= 1e-12 * np.linalg.norm(b)


def test_exact_preconditioner_converges_immediately():
    vals = np.arange(1.0, 101.0)
    a = np.diag(vals)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(100)
    x, ws = preconditioned_lanczos(
        a, b, lambda r: r / vals, t_max=50, residual_target=1e-10, check_every=1
    )
    assert ws.status == "converged"
    assert ws.iterations <= 2
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_rhs_in_eigenvector_direction():
    vals = np.arange(1.0, 11.0)
    b = np.zeros(10)
    b[3] = 2.5
    x, ws = preconditioned_lanczos(
        np.diag(vals), b, identity_m, t_max=10, residual_target=1e-12, check_every=1
    )
    assert ws.iterations == 1
    assert np.allclose(x, b / 4.0, rtol=1e-12)


def test_matches_textbook_lanczos_iterates():
    # With M = I the recurrence is plain Lanczos; at the oracle's stopping
    # iteration the two implementations must produce the same iterate.
    a = rotated_spd(50, 100.0, seed=3)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(50)
    x_oracle, t_oracle = oracles.plain_lanczos_textbook(a, b, tol=1e-10)
    x, ws = preconditioned_lanczos(a, b, identity_m, t_max=t_oracle)
    assert ws.iterations == t_oracle
    assert np.linalg.norm(x - x_oracle) <= 1e-10 * np.linalg.norm(x_oracle)


def test_deterministic_repeat():
    a = rotated_spd(60, 50.0, seed=5)
    rng = np.random.default_rng(6)
    b = rng.standard_normal(60)
    x1, ws1 = preconditioned_lanczos(
        a, b, identity_m, t_max=100, residual_target=1e-8, check_every=2
    )
    x2, ws2 = preconditioned_lanczos(
        a, b, identity_m, t_max=100, residual_target=1e-8, check_every=2
    )
    assert np.array_equal(x1, x2)
    assert ws1.iterations == ws2.iterations
    assert ws1.checkpoints == ws2.checkpoints


def test_solve_m_contract_object_accepted():
    rng = np.random.default_rng(7)
    b = rng.standard_normal(20)
    contract = SolveMContract(apply=lambda r: r, eps0=0.0)
    x, ws = preconditioned_lanczos(np.eye(20), b, contract, t_max=5)
    assert np.linalg.norm(x - b) <= 1e-12 * np.linalg.norm(b)


# -- iteration-count scaling -------------------------------------------------------


def iterations_to_target(a_vals, b, solve_m, target=1e-6):
    x, ws = preconditioned_lanczos(
        np.diag(a_vals), b, solve_m, t_max=400, residual_target=target, check_every=1
    )
    assert ws.status == "converged"
    return ws.iterations


def test_iterations_scale_with_sqrt_condition_number():
    # Doubling sqrt(kappa) should at most double the iteration count
    # (plus small slack) for a filled geometric spectrum.
    n = 150
    rng = np.random.default_rng(8)
    b = rng.standard_normal(n)
    counts = {}
    for kappa in (4.0, 16.0, 64.0):
        vals = np.geomspace(kappa, 1.0, n)
        counts[kappa] = iterations_to_target(vals, b, identity_m)
    assert counts[16.0] <= 2 * counts[4.0] + 5
    assert counts[64.0] <= 2 * counts[16.0] + 5


def test_inexact_solve_barely_moves_iteration_count():
    # M within a factor 2 of A, so perturbations of relative M-norm size
    # eps0 <= eps/(kappa_M * n) must leave the count essentially unchanged.
    n = 50
    rng = np.random.default_rng(9)
    avals = np.geomspace(1e4, 1.0, n)
    f = rng.uniform(1.0, 2.0, n)
    mvals = avals / f
    b = rng.standard_normal(n)

    def solver_with_noise(eps0, seed):
        noise_rng = np.random.default_rng(seed)

        def solve(r):
            w = r / mvals
            if eps0 == 0.0:
                return w
            u = noise_rng.standard_normal(n)
            d = u / np.sqrt(mvals)
            w_m = np.sqrt(float(w @ (mvals * w)))
            d_m = np.sqrt(float(d @ (mvals * d)))
            return w + eps0 * w_m * d / d_m

        return solve

    base = iterations_to_target(avals, b, solver_with_noise(0.0, 0))
    for eps0 in (1e-12, 1e-10, 1e-8):
        for seed in range(3):
            got = iterations_to_target(avals, b, solver_with_noise(eps0, seed))
            assert abs(got - base) <= max(1, round(0.1 * base))


def test_stop_step_does_not_depend_on_check_cadence():
    # The recurrence's residual estimate triggers a true check on the step
    # the target is met, so a sparser cadence must not overshoot it.
    vals = np.geomspace(1e2, 1.0, 200)
    b = np.random.default_rng(0).standard_normal(200)
    steps = []
    for check_every in (1, 10):
        _, ws = preconditioned_lanczos(
            np.diag(vals), b, identity_m, t_max=400, residual_target=1e-8,
            check_every=check_every,
        )
        assert ws.status == "converged"
        steps.append(ws.iterations)
    assert steps[0] == steps[1]


def test_certificate_describes_returned_iterate():
    # The run updates x every step, so the checked residual and the
    # reconstructed iterate must both describe the x it returns.
    vals = np.geomspace(1e3, 1.0, 200)
    b = np.random.default_rng(14).standard_normal(200)
    x, ws = preconditioned_lanczos(
        lambda v: vals * v, b, identity_m, t_max=400, residual_target=1e-9, check_every=10
    )
    assert ws.stop_reason == "residual-target"
    relres = float(np.linalg.norm(b - vals * x)) / float(np.linalg.norm(b))
    assert relres == ws.checkpoints[-1][1]
    assert np.linalg.norm(ws.iterate(ws.iterations) - x) <= 1e-12 * np.linalg.norm(x)


def test_checkpoint_residuals_do_not_blow_up():
    n = 120
    vals = np.geomspace(1e3, 1.0, n)
    rng = np.random.default_rng(10)
    b = rng.standard_normal(n)
    x, ws = preconditioned_lanczos(
        np.diag(vals), b, identity_m, t_max=400, residual_target=1e-8, check_every=5
    )
    assert ws.status == "converged"
    resids = [r for _, r in ws.checkpoints]
    assert len(resids) >= 2
    for prev, nxt in zip(resids, resids[1:]):
        assert nxt <= 10.0 * prev


def test_basis_stays_m_orthonormal_early():
    # Diagnostic invariant: before convergence the q-bar columns are
    # M-orthonormal to well below 1e-6.
    n = 80
    rng = np.random.default_rng(11)
    avals = np.geomspace(100.0, 1.0, n)
    mvals = np.ones(n)
    b = rng.standard_normal(n)
    x, ws = preconditioned_lanczos(np.diag(avals), b, lambda r: r / mvals, t_max=12)
    q = ws.q_over
    gram = q.T @ (mvals[:, None] * q)
    assert np.max(np.abs(gram - np.eye(q.shape[1]))) < 1e-6


# -- agreement with the whitened two-sided form -------------------------------------


@pytest.mark.parametrize("n", [80, 140, 200])
def test_agrees_with_symmetric_reference(n):
    # Few large outliers over a flat tail — the spectrum class the
    # preconditioner is built for, so both forms converge quickly.
    rng = np.random.default_rng(n + 1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.concatenate([1e4 * rng.uniform(1, 2, 8), rng.uniform(1, 2, n - 8)])
    a = (q * vals) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(n)
    pre = build_nystrom_psd(a, l=16, lam=0.0, delta=0.01, seed=n + 2)
    m_dense = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
    m_dense[np.diag_indices_from(m_dense)] += pre.lambda_tilde
    root, inv_root = oracles.psd_sqrt_pair(m_dense)

    x, ws = preconditioned_lanczos(
        a,
        b,
        lambda r: exact_minv_reference(pre, r),
        t_max=200,
        residual_target=1e-10,
        check_every=1,
    )
    assert ws.status == "converged"
    x_ref = symmetric_lanczos_reference(
        a, b, (lambda v: root @ v, lambda v: inv_root @ v), ws.iterations
    )
    diff = x - x_ref
    a_norm = np.sqrt(float(x @ (a @ x)))
    assert np.sqrt(float(diff @ (a @ diff))) <= 1e-8 * a_norm


def test_symmetric_reference_size_guard():
    with pytest.raises(SizeGuardError):
        symmetric_lanczos_reference(
            np.eye(501), np.ones(501), (identity_m, identity_m), 1
        )


# -- degenerate inputs and breakdown ------------------------------------------------


def test_zero_rhs_rejected():
    with pytest.raises(DomainError):
        preconditioned_lanczos(np.eye(4), np.zeros(4), identity_m, t_max=3)


def test_bad_budgets_rejected():
    b = np.ones(4)
    with pytest.raises(DomainError):
        preconditioned_lanczos(np.eye(4), b, identity_m, t_max=0)
    with pytest.raises(DomainError):
        preconditioned_lanczos(
            np.eye(4), b, identity_m, t_max=3, residual_target=1e-6, check_every=0
        )


def test_negative_preconditioner_breaks_down_at_start():
    b = np.ones(6)
    x, ws = preconditioned_lanczos(np.eye(6), b, lambda r: -r, t_max=5)
    assert ws.status == "breakdown"
    assert ws.stop_reason == "degenerate-start"
    assert ws.iterations == 0
    assert np.array_equal(x, np.zeros(6))


def test_zero_pivot_breaks_down_with_previous_iterate():
    # alpha_1 = 0 makes T_1 singular (possible only for indefinite A); the run
    # stops there and returns x_0 = 0 without dividing by the pivot.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, ws = preconditioned_lanczos(
            np.diag([1.0, -1.0]), np.ones(2), identity_m, t_max=10,
            residual_target=1e-12, check_every=1,
        )
    assert ws.status == "breakdown"
    assert ws.stop_reason == "zero-pivot"
    assert ws.iterations == 1
    assert np.array_equal(x, np.zeros(2))


def test_workspace_reconstructs_iterates():
    a = rotated_spd(30, 20.0, seed=12)
    rng = np.random.default_rng(13)
    b = rng.standard_normal(30)
    x, ws = preconditioned_lanczos(a, b, identity_m, t_max=8)
    assert ws.iterations == 8
    assert np.allclose(ws.iterate(8), x, rtol=0, atol=1e-12 * np.linalg.norm(x))
    assert not np.allclose(ws.iterate(3), x)
    with pytest.raises(DomainError):
        ws.iterate(0)
    with pytest.raises(DomainError):
        ws.iterate(9)
