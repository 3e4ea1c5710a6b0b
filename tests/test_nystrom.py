import gc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mspsolve.config import (GAMMA_MAX, JITTER_INITIAL, LAMBDA0_PROBES, sketch_nnz_per_column,
                             sketch_rows)
from mspsolve.core import MatrixHandle
from mspsolve.errors import DomainError, InconsistentEstimate, SketchRankCollapse
from mspsolve.general import GeneralSolveConfig, build_general
from mspsolve.instances import InstanceSpec, gen_instance
from mspsolve.nystrom import (
    NystromPreconditioner,
    apply_minv_via_formula,
    build_nystrom_psd,
    _SEED_EST,
    _SEED_PROBE,
    cho_apply,
    estimate_lambda0,
    jittered_cholesky,
    psd_sketch_shape,
    tail_probe_factor,
)
from mspsolve.psd import clamp_rank
from mspsolve.sketch import make_sparse_embedding, sketch_apply_right

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
    pre = NystromPreconditioner(
        C=MatrixHandle(c),
        W=MatrixHandle(w, sym="spd"),
        lambda_tilde=lt,
        lambda0=lt,
        lam=0.0,
        jitter=jitter,
        inner=None,
        l=l,
        gamma=4,
        seed=seed,
        mu=np.linalg.eigvalsh(a_dense),
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
        c_l, w_chol = tail_probe_factor(eye, l, n, 4, seed)
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


def per_probe_lambda0(probe, n, w_factor, l, probes, seed, trace=None):
    """The lambda0 estimator with one product per probe, as a reference."""
    rng = np.random.default_rng([seed & ((1 << 63) - 1), _SEED_PROBE])
    trace_terms, tail_terms = [], []
    for _ in range(probes):
        z = 2.0 * rng.integers(0, 2, size=n) - 1.0
        zbz, ctz = probe(z)
        lz = scipy.linalg.solve_triangular(w_factor[0], ctz, lower=w_factor[1])
        trace_terms.append(zbz)
        tail_terms.append(zbz - lz @ lz)
    trace_hat = np.mean(trace_terms) if trace is None else trace
    return (2.0 / l) * max(np.mean(tail_terms), 1e-12 * trace_hat)


def test_block_lambda0_matches_per_probe_loop_on_a_handle():
    n, l, seed = 300, 20, 3
    a, _ = random_psd(n, seed=5)
    c_l, w_chol = tail_probe_factor(MatrixHandle(a, sym="spd"), l, n, 4, seed)
    got = estimate_lambda0(MatrixHandle(a, sym="spd"), c_l, w_chol, l, 20, seed)
    want = per_probe_lambda0(lambda z: (z @ (a @ z), c_l.T @ z), n, w_chol, l, 20, seed)
    assert got > 1e-6 * np.trace(a)
    assert got == pytest.approx(want, rel=1e-12)


def test_block_lambda0_matches_per_probe_loop_on_an_operator():
    n, l, seed = 300, 20, 3
    a, _ = random_psd(n, seed=6)
    calls = []

    def op(v):
        calls.append(v.shape)
        return a @ v

    pre = build_nystrom_psd(op, l, 0.1, 0.01, seed, n=n)
    assert set(calls) == {(n,)}
    assert len(calls) == pre.s + l + LAMBDA0_PROBES
    assert pre.diagnostics()["build_passes"] == len(calls)
    c_l, w_chol = tail_probe_factor(op, l, n, pre.gamma, seed)
    want = per_probe_lambda0(lambda z: (z @ (a @ z), c_l.T @ z), n, w_chol, l,
                             LAMBDA0_PROBES, seed)
    assert pre.lambda0 == pytest.approx(want, rel=1e-12)


def test_block_lambda0_matches_per_probe_loop_on_the_general_path():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((400, 120)) * np.logspace(1, -1, 120)
    cfg = GeneralSolveConfig(l=12, lam=0.5, seed=4)
    state = build_general(a, cfg)
    emb_l = make_sparse_embedding(state.l, 120, min(state.gamma, state.l), cfg.seed + _SEED_EST)
    at_l = sketch_apply_right(MatrixHandle(a), emb_l).to_dense()
    w_l = at_l.T @ at_l
    w_chol = jittered_cholesky(0.5 * (w_l + w_l.T), "W_l")[0]

    def probe(z):
        az = a @ z
        return az @ az, at_l.T @ az

    want = per_probe_lambda0(probe, 120, w_chol, state.l, LAMBDA0_PROBES, cfg.seed,
                             trace=np.sum(a**2))
    assert state.lambda0 == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [1, 7, 300])
def test_block_probe_draw_is_the_sequential_stream(n):
    block = np.random.default_rng([11, _SEED_PROBE]).integers(0, 2, size=(20, n))
    rng = np.random.default_rng([11, _SEED_PROBE])
    rows = [rng.integers(0, 2, size=n) for _ in range(20)]
    assert np.array_equal(block, np.array(rows))


@pytest.mark.parametrize("path", ["psd", "general"])
def test_build_applies_a_to_the_probes_in_one_block(monkeypatch, path):
    rng = np.random.default_rng(8)
    if path == "psd":
        a, _ = random_psd(300, seed=9)
        handle = MatrixHandle(a, sym="spd")
    else:
        handle = MatrixHandle(rng.standard_normal((400, 120)))
    calls = {"matvec": 0, "matmat": 0}
    for name in calls:
        def counting(self, x, _name=name, _original=getattr(MatrixHandle, name)):
            calls[_name] += 1
            return _original(self, x)

        monkeypatch.setattr(MatrixHandle, name, counting)
    if path == "psd":
        # S A only, read off the raw array: a matrix build draws no probes
        # and reads lambda0 and ||A|| off the sketch's own eigenvalues
        pre = build_nystrom_psd(handle, 20, 0.1, 0.01, 3)
        passes, blocks = 1, 0
    else:
        pre = build_general(handle, GeneralSolveConfig(l=12, lam=0.5, seed=4))
        passes = 5  # A S^T, A^T A_tilde, ||A||_F^2, A S_l^T, the probe block
        blocks = 1
    assert calls == {"matvec": 0, "matmat": blocks}
    assert pre.diagnostics()["build_passes"] == passes


# -- inversion formula vs dense oracle -------------------------------------------


def test_formula_matches_dense_inverse():
    n, s, lt = 200, 40, 0.7
    a, _ = random_psd(n, seed=4)
    pre, c, w_j = manual_pre(a, s, lt, seed=11)
    g = c.T @ c + lt * w_j

    def inner_exact(rhs):
        return np.linalg.solve(g, rhs)

    rng = np.random.default_rng(12)
    r = rng.standard_normal(n)
    want = oracles.dense_minv_apply(c, w_j, lt, r)
    got = apply_minv_via_formula(pre, r, inner_exact)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    ref = oracles.exact_minv_reference(pre, r)
    assert np.linalg.norm(ref - want) <= 1e-10 * np.linalg.norm(want)


def test_formula_zero_rhs_gives_zero():
    a, _ = random_psd(50, seed=1)
    pre, c, w_j = manual_pre(a, 10, 0.3, seed=5)
    assert np.array_equal(
        apply_minv_via_formula(pre, np.zeros(50), lambda rhs: rhs * 0.0),
        np.zeros(50),
    )
    assert np.linalg.norm(oracles.exact_minv_reference(pre, np.zeros(50))) == 0.0


@pytest.mark.parametrize("n", [60, 140, 300])
def test_formula_and_reference_agree_after_build(n):
    a, _ = random_psd(n, seed=n)
    pre = build_nystrom_psd(a, l=16, lam=0.2, delta=0.01, seed=n + 1)
    g = pre.C.to_dense().T @ pre.C.to_dense() + pre.lambda_tilde * pre.w_jittered()
    rng = np.random.default_rng(n + 2)
    r = rng.standard_normal(n)
    got = apply_minv_via_formula(pre, r, lambda rhs: np.linalg.solve(g, rhs))
    ref = oracles.exact_minv_reference(pre, r)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


# -- order relations against A ----------------------------------------------------


def test_whitened_matrix_within_stated_band():
    # With lambda0 read off the build's own Nystrom eigenvalues, an upper
    # bound of the (2/l) * tail sum, the whitened matrix (A + lt I)^{1/2}
    # M^{-1} (A + lt I)^{1/2} should stay inside [0.9, 2.4] in at least 90%
    # of trials.
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
        pre = build_nystrom_psd(a, l=l, lam=1e-3, delta=0.01, seed=seed)
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


@pytest.mark.parametrize("delta", [0.0, 0.5, 0.7, float("nan")])
def test_build_rejects_delta_outside_open_half_interval(delta):
    with pytest.raises(DomainError):
        build_nystrom_psd(np.eye(100), l=8, lam=0.0, delta=delta, seed=0)


def test_subnormal_delta_sizes_the_sketch_without_overflow():
    # l/delta overflows at delta = 5e-324; ln(l) - ln(delta) does not.
    assert sketch_nnz_per_column(64, 5e-324) == GAMMA_MAX
    assert sketch_rows(64, 1000, 5e-324) == 1000
    # delta does not size the PSD sketch, so the build takes its usual shape.
    pre = build_nystrom_psd(random_psd(120, 3)[0], l=16, lam=0.1, delta=5e-324, seed=0)
    assert (pre.s, pre.gamma) == (32, 4)


def test_delta_does_not_change_the_psd_build():
    a = random_psd(150, 4)[0]
    one = build_nystrom_psd(a, l=16, lam=0.1, delta=0.01, seed=5)
    two = build_nystrom_psd(a, l=16, lam=0.1, delta=0.2, seed=5)
    assert np.array_equal(one.C.to_dense(), two.C.to_dense())
    assert np.array_equal(one.W.to_dense(), two.W.to_dense())
    assert np.array_equal(one.mu, two.mu)


def test_operator_input_needs_dimension():
    with pytest.raises(DomainError):
        build_nystrom_psd(lambda v: v, l=8, lam=0.0, delta=0.01, seed=0)


def test_zero_matrix_reports_rank_collapse():
    # W is identically zero, the jitter ladder scales with tr(W) = 0, so no
    # level can repair the factorization.
    with pytest.raises(SketchRankCollapse):
        build_nystrom_psd(np.zeros((64, 64)), l=8, lam=1.0, delta=0.01, seed=0)


def _fails_first_rungs(s, seed):
    """Symmetric s x s W with one eigenvalue at -1e-10*tr(W)/s: the ladder's
    rungs below 1e-10*tr(W)/s fail, the next ones factor."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((s, s)))
    vals = rng.uniform(1.0, 2.0, s)
    vals[0] = -1e-10 * np.sum(vals[1:]) / s
    w = (q * vals) @ q.T
    return 0.5 * (w + w.T)


def test_failed_jitter_rungs_leave_no_exception_alive():
    # A kept LinAlgError's traceback holds the ladder's frame, and with it
    # every s x s array there, in a reference cycle only the cyclic collector
    # frees.  W itself fails the ladder's first rungs here.
    w = _fails_first_rungs(120, seed=1)
    gc.collect()
    gc.disable()
    try:
        _, _, jitter = jittered_cholesky(w, "W")
        alive = [o for o in gc.get_objects() if isinstance(o, np.linalg.LinAlgError)]
    finally:
        gc.enable()
    first_rung = JITTER_INITIAL * np.trace(w) / 120
    assert jitter > 1.5 * first_rung
    assert alive == []


def test_psd_build_factors_g_as_formed():
    # The level-2 matrix is G = Y Y^T + lt*I, factored in place from the
    # Y the build keeps.
    k, _, _ = gen_instance(InstanceSpec("rbf-kernel", n=200, bandwidth=1.0, seed=1))
    pre = build_nystrom_psd(k, 60, 1e-2, 0.01, 0)
    g = pre.Y @ pre.Y.T
    g[np.diag_indices_from(g)] += pre.lambda_tilde
    want = scipy.linalg.cho_factor(g.T, lower=True, check_finite=False)[0]
    assert pre.inner[0].tobytes() == want.tobytes()


def test_psd_and_general_sketch_sizes():
    # The PSD sketch feeds a Nystrom approximation that level 2 inverts
    # exactly, so it is a range finder of 2l rows and 4 nonzeros per column;
    # the general path's S must stay a subspace embedding.
    pre = build_nystrom_psd(np.eye(1024), l=32, lam=1.0, delta=0.01, seed=0)
    assert (pre.s, pre.gamma) == (64, 4)
    a = np.random.default_rng(3).standard_normal((600, 512))
    cfg = GeneralSolveConfig(l=16, lam=1.0, eps=1e-6, delta=0.01, seed=0)
    assert build_general(a, cfg).s == 178  # ceil(1.5 * 16 * ln 1600)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 10**7), frac=st.floats(0.0, 1.0))
def test_psd_sketch_rows_lie_between_rank_and_dimension(n, frac):
    lo, hi = clamp_rank(1, n)[0], clamp_rank(n, n)[0]
    l = lo + int(frac * (hi - lo))
    s, gamma = psd_sketch_shape(l, n)
    assert l <= s <= n
    assert gamma <= s


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
        mu=np.ones(1),
    )
    with pytest.raises(ValueError):
        oracles.exact_minv_reference(pre, np.zeros(4))


def test_diagnostics_fragment_is_json_ready():
    import json

    pre = build_nystrom_psd(np.eye(128), l=8, lam=1.0, delta=0.01, seed=0)
    d = pre.diagnostics()
    assert set(d) == {
        "s",
        "gamma",
        "l",
        "lambda0",
        "lambda_tilde",
        "jitter",
        "kappa_hat",
        "build_passes",
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
