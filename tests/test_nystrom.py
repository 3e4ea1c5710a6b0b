import gc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from mspsolve.apps import solve_krr
from mspsolve.config import DEFAULT
from mspsolve.core import MatrixHandle
from mspsolve.errors import (
    DomainError,
    InconsistentEstimate,
    SizeGuardError,
    SketchRankCollapse,
)
from mspsolve.instances import InstanceSpec, gen_instance
from mspsolve.nystrom import (
    NystromPreconditioner,
    apply_minv_via_formula,
    build_nystrom_psd,
    cho_apply,
    estimate_lambda0,
    exact_minv_reference,
    tail_probe_factor,
)
from mspsolve.sketch import make_sparse_embedding

import oracles


def random_psd(n, seed, cond=1e3):
    """Rotated log-spaced spectrum: well understood, full rank."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.logspace(np.log10(cond), 0.0, n)
    return (q * vals) @ q.T, np.sort(vals)[::-1]


def manual_pre(a_dense, s, lt, seed, l=20):
    """Assemble preconditioner pieces by hand with an explicit s-row sketch."""
    n = a_dense.shape[0]
    emb = make_sparse_embedding(s, n, 4, seed)
    c = a_dense @ emb.matrix().T.toarray()
    w = emb.matrix().toarray() @ c
    w = 0.5 * (w + w.T)
    jitter = 1e-12 * np.trace(w) / s
    w_j = w + jitter * np.eye(s)
    inner = scipy.linalg.cho_factor(c.T @ c + lt * w_j, lower=True)
    pre = NystromPreconditioner(
        C=MatrixHandle(c),
        W=MatrixHandle(w, sym="spd"),
        lambda_tilde=lt,
        lambda0=lt,
        lam=0.0,
        jitter=jitter,
        inner=inner,
        l=l,
        gamma=4,
        seed=seed,
        phi_rows=0,
    )
    pre._w_j = w_j
    return pre, c, w_j


# -- build: spectral structure --------------------------------------------------


def test_identity_preconditioner_two_point_spectrum():
    # On A = I the sketch approximation is an orthogonal-projection-like term,
    # so M has (numerically) exactly two distinct eigenvalues: lt and 1 + lt.
    pre = build_nystrom_psd(np.eye(512), l=8, lam=0.5, delta=0.01, seed=3)
    assert pre.s < 512
    m = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
    m[np.diag_indices_from(m)] += pre.lambda_tilde
    eigs = np.linalg.eigvalsh(m)
    lt = pre.lambda_tilde
    dist = np.minimum(np.abs(eigs - lt), np.abs(eigs - (1.0 + lt)))
    assert dist.max() <= 1e-6 * lt


def test_few_large_outliers_condition_number_bound():
    # 16 eigenvalues at 1e6 over a flat unit tail: the preconditioned system
    # must land within the 20*(n/l) guarantee, checked against a dense solve
    # of the generalized eigenproblem.
    n, l = 512, 64
    vals = np.ones(n)
    vals[:16] = 1e6
    a = np.diag(vals)
    pre = build_nystrom_psd(a, l=l, lam=0.0, delta=0.01, seed=7)
    m = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
    m[np.diag_indices_from(m)] += pre.lambda_tilde
    lo, hi = oracles.pencil_eig_range(a + pre.lambda_tilde * np.eye(n), m)
    assert lo > 0
    assert hi / lo <= 20.0 * n / l


def test_low_rank_matrix_is_captured_exactly():
    # rank(A) = 20 <= l: the sketch spans the whole range, so the rank-s
    # approximation reproduces A and the tail estimate sits at its floor.
    n, r = 100, 20
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    vals = np.logspace(6, 0, r)
    a = (q * vals) @ q.T
    a = 0.5 * (a + a.T)
    pre = build_nystrom_psd(a, l=r, lam=1.0, delta=0.01, seed=2)
    a_nys = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
    gap = np.linalg.norm(a - a_nys, 2)
    assert gap <= 1e-8 * np.linalg.norm(a, 2)
    assert 0.0 <= pre.lambda0 <= 1e-8 * np.trace(a)
    assert pre.jitter > 0.0


# -- lambda0 estimation ----------------------------------------------------------


def test_identity_tail_estimate_near_n_minus_l():
    # For A = I_256 with l = 64 the tail sum is exactly 192; the stochastic
    # estimate should land within +-30% for nearly every seed.
    n, l = 256, 64
    eye = MatrixHandle(np.eye(n), sym="spd")
    hits = 0
    for seed in range(10):
        c_l, w_chol = tail_probe_factor(eye, l, n, 4, seed, DEFAULT)
        lam0 = estimate_lambda0(eye, c_l, w_chol, l, 20, seed)
        tail = (l / 2.0) * lam0
        if abs(tail - (n - l)) <= 0.3 * (n - l):
            hits += 1
    assert hits >= 9


def test_estimate_requires_probes():
    c = np.eye(4)[:, :2]
    w_chol = scipy.linalg.cho_factor(np.eye(2), lower=True)
    with pytest.raises(DomainError):
        estimate_lambda0(np.eye(4), c, w_chol, 2, 0, 0)


def test_estimate_detects_broken_factor():
    # A factor wildly inconsistent with C makes every probe term strongly
    # negative, which must be reported rather than floored away.
    n = 64
    rng = np.random.default_rng(9)
    c = 10.0 * rng.standard_normal((n, 8))
    w_chol = scipy.linalg.cho_factor(1e-6 * np.eye(8), lower=True)
    with pytest.raises(InconsistentEstimate):
        estimate_lambda0(np.eye(n), c, w_chol, 8, 10, 0)


# -- inversion formula vs dense oracle -------------------------------------------


def test_formula_matches_dense_inverse():
    n, s, lt = 200, 40, 0.7
    a, _ = random_psd(n, seed=4)
    pre, c, w_j = manual_pre(a, s, lt, seed=11)
    g = c.T @ c + lt * w_j

    def inner_exact(rhs, _tol):
        return np.linalg.solve(g, rhs)

    rng = np.random.default_rng(12)
    r = rng.standard_normal(n)
    want = oracles.dense_minv_apply(c, w_j, lt, r)
    got = apply_minv_via_formula(pre, r, inner_exact, 1e-14)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    ref = exact_minv_reference(pre, r)
    assert np.linalg.norm(ref - want) <= 1e-10 * np.linalg.norm(want)


def test_formula_zero_rhs_gives_zero():
    a, _ = random_psd(50, seed=1)
    pre, c, w_j = manual_pre(a, 10, 0.3, seed=5)
    assert np.array_equal(
        apply_minv_via_formula(pre, np.zeros(50), lambda rhs, t: rhs * 0.0, 1e-12),
        np.zeros(50),
    )
    assert np.linalg.norm(exact_minv_reference(pre, np.zeros(50))) == 0.0


@pytest.mark.parametrize("n", [60, 140, 300])
def test_formula_and_reference_agree_after_build(n):
    a, _ = random_psd(n, seed=n)
    pre = build_nystrom_psd(a, l=16, lam=0.2, delta=0.01, seed=n + 1)
    g = pre.C.to_dense().T @ pre.C.to_dense() + pre.lambda_tilde * pre.w_jittered()
    rng = np.random.default_rng(n + 2)
    r = rng.standard_normal(n)
    got = apply_minv_via_formula(pre, r, lambda rhs, _t: np.linalg.solve(g, rhs), 1e-14)
    ref = exact_minv_reference(pre, r)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


# -- order relations against A ----------------------------------------------------


def test_whitened_matrix_within_stated_band():
    # With the exact tail sum supplied, the whitened matrix
    # (A + lt I)^{1/2} M^{-1} (A + lt I)^{1/2} should stay inside [0.9, 2.4]
    # in at least 90% of trials.
    n, l = 192, 24
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        vals = np.concatenate(
            [1e3 * rng.uniform(1.0, 2.0, 8), rng.uniform(0.5, 1.5, n - 8)]
        )
        a = (q * vals) @ q.T
        a = 0.5 * (a + a.T)
        tail = float(np.sort(vals)[::-1][l:].sum())
        pre = build_nystrom_psd(
            a, l=l, lam=1e-3, delta=0.01, seed=seed, exact_tail_sum=tail
        )
        m = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
        m[np.diag_indices_from(m)] += pre.lambda_tilde
        lo, hi = oracles.pencil_eig_range(a + pre.lambda_tilde * np.eye(n), m)
        if lo >= 0.9 and hi <= 2.4:
            hits += 1
    assert hits >= 9


def test_nystrom_term_never_exceeds_a():
    # z^T (A - A_nys) z >= 0 up to roundoff for every direction z.
    n = 150
    a, _ = random_psd(n, seed=21)
    pre = build_nystrom_psd(a, l=16, lam=0.1, delta=0.01, seed=22)
    a_nys = oracles.nystrom_dense(pre.C.to_dense(), pre.w_jittered())
    rng = np.random.default_rng(23)
    for _ in range(100):
        z = rng.standard_normal(n)
        zaz = z @ (a @ z)
        assert z @ ((a - a_nys) @ z) >= -1e-8 * zaz


# -- domain and failure handling --------------------------------------------------


def test_build_rejects_out_of_range_rank():
    a = np.eye(100)
    with pytest.raises(DomainError):
        build_nystrom_psd(a, l=4, lam=0.0, delta=0.01, seed=0)  # l < log n
    with pytest.raises(DomainError):
        build_nystrom_psd(a, l=100, lam=0.0, delta=0.01, seed=0)
    with pytest.raises(DomainError):
        build_nystrom_psd(a, l=8, lam=-1.0, delta=0.01, seed=0)


def test_operator_input_needs_dimension():
    with pytest.raises(DomainError):
        build_nystrom_psd(lambda v: v, l=8, lam=0.0, delta=0.01, seed=0)


def test_zero_matrix_reports_rank_collapse():
    # W is identically zero, the jitter ladder scales with tr(W) = 0, so no
    # level can repair the factorization.
    with pytest.raises(SketchRankCollapse):
        build_nystrom_psd(np.zeros((64, 64)), l=8, lam=1.0, delta=0.01, seed=0)


def test_failed_jitter_rungs_leave_no_exception_alive():
    # A kept LinAlgError's traceback holds the ladder's frame, and with it
    # every s x s array there, in a reference cycle only the cyclic collector
    # frees.  This instance climbs the ladder.
    k, y, _ = gen_instance(InstanceSpec("rbf-kernel", n=200, bandwidth=1.0, seed=1))
    gc.collect()
    gc.disable()
    try:
        rep = solve_krr(k, y, 1e-2, 1e-6)
        alive = [o for o in gc.get_objects() if isinstance(o, np.linalg.LinAlgError)]
    finally:
        gc.enable()
    pre = rep.preconditioner
    first_rung = DEFAULT.jitter_initial * np.trace(pre.W.to_dense()) / pre.s
    assert pre.jitter > 1.5 * first_rung
    assert alive == []


def test_exact_reference_size_guard():
    pre = NystromPreconditioner(
        C=MatrixHandle(sp.csr_matrix((4, 2001))),
        W=MatrixHandle(sp.csr_matrix((2001, 2001))),
        lambda_tilde=1.0,
        lambda0=1.0,
        lam=0.0,
        jitter=0.0,
        inner=(),
        l=8,
        gamma=2,
        seed=0,
        phi_rows=0,
    )
    with pytest.raises(SizeGuardError):
        exact_minv_reference(pre, np.zeros(4))


def test_diagnostics_fragment_is_json_ready():
    import json

    pre = build_nystrom_psd(np.eye(128), l=8, lam=1.0, delta=0.01, seed=0)
    d = pre.diagnostics()
    assert set(d) == {
        "s",
        "gamma",
        "l",
        "phi_rows",
        "lambda0",
        "lambda_tilde",
        "jitter",
        "kappa_hat",
    }
    json.dumps(d)


def test_cho_apply_is_byte_equal_to_cho_solve():
    rng = np.random.default_rng(50)
    g = rng.standard_normal((50, 50))
    factor = scipy.linalg.cho_factor(g @ g.T + 50 * np.eye(50), lower=True)
    apply = cho_apply(factor)
    for _ in range(3):
        r = rng.standard_normal(50)
        want = scipy.linalg.cho_solve(factor, r, check_finite=False)
        assert apply(r).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        apply(np.ones(49))
    with pytest.raises(ValueError):
        cho_apply((np.ones((3, 4)), True))
