import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mspsolve import (
    DimensionMismatch,
    DomainError,
    MatrixHandle,
    make_ose,
    make_sparse_embedding,
    sketch_apply_left,
    sketch_apply_right,
)
from mspsolve import sketch
from mspsolve.config import OSE_EPSILON, ose_rows


# -- construction -------------------------------------------------------------


def test_every_column_has_gamma_nonzeros():
    emb = make_sparse_embedding(4, 10, 2, seed=0)
    dense = emb.toarray()
    for col in range(10):
        nz = dense[:, col][dense[:, col] != 0.0]
        assert len(nz) == 2
        assert np.allclose(np.abs(nz), 1.0 / math.sqrt(2.0))


def test_gamma_equals_s_saturates():
    emb = make_sparse_embedding(3, 6, 3, seed=1)
    dense = emb.toarray()
    assert np.all(dense != 0.0)
    assert np.allclose(np.abs(dense), 1.0 / math.sqrt(3.0))


def test_same_seed_reproduces_structure():
    a = make_sparse_embedding(8, 20, 3, seed=42).toarray()
    b = make_sparse_embedding(8, 20, 3, seed=42).toarray()
    assert np.array_equal(a, b)


def test_gamma_larger_than_s_rejected():
    with pytest.raises(DomainError):
        make_sparse_embedding(2, 5, 3, seed=0)


def test_rows_are_uniform_subsets():
    # s = 6, gamma = 3: each of the C(6, 3) = 20 row subsets has
    # probability 1/20, so 3000 of 60000 columns (sd ~53; 10 % is ~5.6 sd).
    # Each row holds 30000 nonzeros, half of them positive (sd ~87; 5 % of
    # 15000 is ~8.7 sd).
    emb = make_sparse_embedding(6, 60_000, 3, seed=5)
    dense = emb.toarray()
    codes = ((dense != 0.0) * (1 << np.arange(6))[:, None]).sum(axis=0)
    counts = np.bincount(codes, minlength=64)
    subsets = [sum(1 << r for r in c) for c in itertools.combinations(range(6), 3)]
    assert counts.sum() == counts[subsets].sum() == 60_000
    assert np.all(np.abs(counts[subsets] - 3000) <= 300)
    positive = (dense > 0.0).sum(axis=1)
    nonzero = (dense != 0.0).sum(axis=1)
    assert np.all(np.abs(positive / nonzero - 0.5) <= 0.025)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    s=st.integers(2, 12),
    gamma=st.integers(1, 6),
)
def test_column_norms_exactly_one(seed, s, gamma):
    gamma = min(gamma, s)
    n = s + 3
    dense = make_sparse_embedding(s, n, gamma, seed).toarray()
    norms = np.linalg.norm(dense, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # distinct rows per column: count again after dropping zeros
    assert (np.count_nonzero(dense, axis=0) == gamma).all()


def test_mean_gram_close_to_identity():
    """E[S^T S] = I: average over 200 seeds at s = n = 32."""
    acc = np.zeros((32, 32))
    for seed in range(200):
        d = make_sparse_embedding(32, 32, 4, seed).toarray()
        acc += d.T @ d
    acc /= 200.0
    assert np.max(np.abs(acc - np.eye(32))) < 0.15


# -- application --------------------------------------------------------------


def test_apply_right_identity_gives_s_transpose():
    emb = make_sparse_embedding(4, 9, 2, seed=3)
    out = sketch_apply_right(np.eye(9), emb)
    assert np.allclose(out.to_dense(), emb.toarray().T, atol=1e-15)


def test_apply_right_matches_materialization():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 8))
    emb = make_sparse_embedding(3, 8, 2, seed=11)
    got = sketch_apply_right(MatrixHandle(a), emb).to_dense()
    want = a @ emb.toarray().T
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_apply_right_unit_impulse():
    emb = make_sparse_embedding(5, 7, 2, seed=4)
    a = np.zeros((3, 7))
    a[1, 6] = 1.0
    out = sketch_apply_right(a, emb).to_dense()
    assert np.allclose(out[1], emb.toarray()[:, 6], atol=1e-15)
    assert np.allclose(out[0], 0.0)
    assert np.allclose(out[2], 0.0)


def test_apply_right_sparse_operand():
    rng = np.random.default_rng(17)
    dense = rng.standard_normal((9, 11))
    dense[rng.random((9, 11)) < 0.7] = 0.0
    emb = make_sparse_embedding(4, 11, 2, seed=5)
    got = sketch_apply_right(MatrixHandle(sp.csr_matrix(dense)), emb).to_dense()
    want = dense @ emb.toarray().T
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_apply_right_symmetric_reads_a_in_place():
    rng = np.random.default_rng(21)
    g = rng.standard_normal((2000, 2000))
    a = 0.5 * (g + g.T)
    del g
    emb = make_sparse_embedding(100, 2000, 4, seed=8)
    want = np.ascontiguousarray((emb.matrix() @ a.T).T)
    handle = MatrixHandle(a, sym="spd")
    tracemalloc.start()
    try:
        got = sketch_apply_right(handle, emb).to_dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < a.nbytes / 4


@pytest.mark.parametrize("wrap", [np.asarray, MatrixHandle])
def test_apply_right_general_sketches_row_blocks_without_copying_a(wrap):
    # A general A^T is F-ordered, and scipy copies an F-ordered dense operand
    # into C order; sketching row blocks bounds that copy.  3037 rows leave a
    # ragged last block.
    rng = np.random.default_rng(23)
    a = rng.standard_normal((3037, 512))
    emb = make_sparse_embedding(178, 512, 5, seed=6)
    want = np.ascontiguousarray((emb.matrix() @ a.T).T)
    operand = wrap(a)
    tracemalloc.start()
    try:
        got = sketch_apply_right(operand, emb).to_dense()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < a.nbytes


@pytest.mark.parametrize("s", [64, 300])
@pytest.mark.parametrize("kind", ["spd", "general", "csr"])
def test_csc_embedding_products_equal_csr_products(kind, s):
    # The CSC embedding reads each row of A once; its products must be the
    # CSR embedding's, byte for byte.
    n = 900
    rng = np.random.default_rng(31)
    if kind == "spd":
        g = rng.standard_normal((n, n))
        a = MatrixHandle(0.5 * (g + g.T), sym="spd")
    elif kind == "general":
        a = MatrixHandle(rng.standard_normal((700, n)))
    else:
        a = MatrixHandle(sp.random(700, n, density=0.05, random_state=32, format="csr"))
    emb = make_sparse_embedding(s, n, 8, seed=9)
    assert emb.matrix().format == "csc"
    s_csr = emb.matrix().tocsr()
    raw = a.raw()
    if kind == "csr":
        want_right = np.asarray((raw @ s_csr.T).todense())
        b = raw.T.tocsr()
        want_left = np.asarray((s_csr @ b).todense())
    else:
        want_right = np.ascontiguousarray((s_csr @ raw.T).T)
        b = raw.T
        want_left = s_csr @ b
    assert np.array_equal(sketch_apply_right(a, emb).to_dense(), want_right)
    assert np.array_equal(sketch_apply_left(emb, b).to_dense(), want_left)
    ose = sketch.OseSketch(phi=s, n=n, epsilon=0.5, embedding=emb)
    assert np.array_equal(ose.apply(b), want_left)


def test_apply_left_identity_materializes():
    emb = make_sparse_embedding(4, 6, 2, seed=6)
    out = sketch_apply_left(emb, np.eye(6))
    assert np.allclose(out.to_dense(), emb.toarray(), atol=1e-15)


def test_apply_left_zero():
    emb = make_sparse_embedding(4, 6, 2, seed=6)
    out = sketch_apply_left(emb, np.zeros((6, 3)))
    assert np.all(out.to_dense() == 0.0)


def test_apply_left_matches_materialization():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((10, 4))
    emb = make_sparse_embedding(5, 10, 3, seed=12)
    got = sketch_apply_left(emb, b).to_dense()
    want = emb.toarray() @ b
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_apply_dimension_mismatch():
    emb = make_sparse_embedding(3, 8, 2, seed=0)
    with pytest.raises(DimensionMismatch):
        sketch_apply_right(np.eye(5), emb)
    with pytest.raises(DimensionMismatch):
        sketch_apply_left(emb, np.eye(5))


# -- OSE ----------------------------------------------------------------------


def test_ose_identity_when_d_equals_n():
    phi = make_ose(32, 32, 0.1, 0.5, seed=0)
    assert phi.is_identity
    x = np.random.default_rng(0).standard_normal((32, 4))
    assert np.array_equal(phi.apply(x), x)


def test_ose_row_count_scales_with_epsilon():
    rows_half = ose_rows(100000, 50, 0.1, 0.5)
    rows_quarter = ose_rows(100000, 50, 0.1, 0.25)
    assert rows_quarter == pytest.approx(4 * rows_half, rel=0.01)


def test_ose_parameter_domain():
    with pytest.raises(DomainError):
        make_ose(10, 20, 0.1, 0.5, seed=0)  # d > n
    with pytest.raises(DomainError):
        make_ose(20, 10, 0.1, 0.9, seed=0)  # epsilon too large
    with pytest.raises(DomainError):
        make_ose(20, 10, 0.7, 0.5, seed=0)  # delta too large


def test_ose_subnormal_delta_does_not_overflow():
    # 1/delta overflows at delta = 5e-324; -ln(delta) ~ 744.4 does not.
    assert ose_rows(10**6, 50, 5e-324, 0.5) == 12712
    assert make_ose(2000, 50, 5e-324, 0.5, seed=0).is_identity


def test_ose_subspace_embedding_2000x50():
    """Singular values of Phi @ U inside [1/(1+eps), 1+eps], >= 9/10 seeds."""
    eps = 0.5
    hits = 0
    rng = np.random.default_rng(2024)
    u = np.linalg.qr(rng.standard_normal((2000, 50)))[0]
    for seed in range(10):
        phi = make_ose(2000, 50, 0.1, eps, seed=seed)
        sv = np.linalg.svd(phi.apply(u), compute_uv=False)
        if sv[-1] >= 1.0 / (1.0 + eps) and sv[0] <= 1.0 + eps:
            hits += 1
    assert hits >= 9


def test_ose_subspace_embedding_default_sizing_rate():
    """sigma(Phi U) within 1 +/- eps for n=1024, d=20 in >= 90% of 50 seeds."""
    eps = OSE_EPSILON
    rng = np.random.default_rng(77)
    u = np.linalg.qr(rng.standard_normal((1024, 20)))[0]
    hits = 0
    for seed in range(50):
        phi = make_ose(1024, 20, 0.01, eps, seed=seed)
        sv = np.linalg.svd(phi.apply(u), compute_uv=False)
        if sv[-1] >= 1.0 / (1.0 + eps) and sv[0] <= 1.0 + eps:
            hits += 1
    assert hits >= 45
