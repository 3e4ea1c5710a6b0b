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
    SingularMatrixError,
    SpectrumSummary,
    as_vector,
    dense_factor_solve,
    matvec,
    power_method_norm,
)

import oracles


# -- matvec -------------------------------------------------------------------


def test_every_exported_name_resolves():
    import mspsolve

    missing = [name for name in mspsolve.__all__ if not hasattr(mspsolve, name)]
    assert missing == []


def test_matvec_identity():
    assert np.array_equal(matvec(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_matvec_zero():
    assert np.array_equal(matvec(np.zeros((2, 2)), [7.0, -3.0]), [0.0, 0.0])


def test_matvec_matches_triple_loop():
    # Integer-valued entries keep every product and partial sum exactly
    # representable, so the comparison is bitwise regardless of summation order.
    rng = np.random.default_rng(5)
    a = rng.integers(-8, 9, size=(5, 5)).astype(np.float64)
    x = rng.integers(-8, 9, size=5).astype(np.float64)
    got = matvec(MatrixHandle(a), x)
    want = oracles.matvec_triple_loop(a, x)
    assert np.array_equal(got, want)


def test_matvec_matches_triple_loop_float():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((5, 5))
    x = rng.standard_normal(5)
    got = matvec(MatrixHandle(a), x)
    want = oracles.matvec_triple_loop(a, x)
    assert np.allclose(got, want, rtol=1e-14)


def test_matvec_csr_matches_dense():
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((7, 4))
    dense[rng.random((7, 4)) < 0.6] = 0.0
    h = MatrixHandle(sp.csr_matrix(dense))
    x = rng.standard_normal(4)
    assert np.allclose(h.matvec(x), oracles.matvec_triple_loop(dense, x), rtol=1e-13)


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matvec(np.eye(3), [1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    sparse=st.booleans(),
)
def test_adjoint_consistency(seed, m, n, sparse):
    """y^T (A x) == (A^T y)^T x to 1e-12 relative, dense and CSR."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    h = MatrixHandle(sp.csr_matrix(a) if sparse else a)
    x = rng.standard_normal(n)
    y = rng.standard_normal(m)
    left = float(y @ h.matvec(x))
    right = float(h.rmatvec(y) @ x)
    scale = max(abs(left), abs(right), 1e-30)
    assert abs(left - right) <= 1e-12 * max(scale, np.linalg.norm(x) * np.linalg.norm(y))


def test_handle_rejects_nan():
    with pytest.raises(DomainError):
        MatrixHandle(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_handle_spd_flag_rejects_asymmetric():
    a = np.triu(np.ones((30, 30)))
    with pytest.raises(DomainError):
        MatrixHandle(a, sym="spd")


def test_handle_spd_flag_requires_square():
    with pytest.raises(DomainError):
        MatrixHandle(np.ones((3, 2)), sym="spd")


def test_empty_spd_handle_is_symmetric():
    for sym in ("general", "spd"):
        h = MatrixHandle(np.zeros((0, 0)), sym=sym)
        assert h.matvec(np.zeros(0)).shape == (0,)
        assert h.rmatvec([]).shape == (0,)


def _symmetric(n, seed):
    g = np.random.default_rng(seed).standard_normal((n, n))
    return g + g.T


@pytest.mark.parametrize("n", [1, 2, 257])
def test_spd_dense_matvec_matches_product(n):
    rng = np.random.default_rng(n)
    a = _symmetric(n, n)
    h = MatrixHandle(a, sym="spd")
    ints = rng.integers(-5, 6, size=n)
    strided = rng.standard_normal(3 * n)[::3]
    for x in (list(rng.standard_normal(n)), ints, strided):
        want = a @ np.asarray(x, dtype=np.float64)
        got = h.matvec(x)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        assert np.array_equal(h.rmatvec(x), got)


def test_spd_dense_matvec_reads_lower_triangle():
    # A positive A and x make the upper triangle carry about half of A x, so
    # a product that read it would be off by ~5e-15 relative.
    n = 60
    rng = np.random.default_rng(3)
    g = rng.random((n, n))
    a = g @ g.T
    a[np.triu_indices(n, 1)] *= 1.0 + 1e-14  # passes the sampled symmetry check
    h = MatrixHandle(a, sym="spd")
    x = rng.random(n)
    lower = np.tril(a) + np.tril(a, -1).T
    want = lower @ x
    assert np.linalg.norm(h.matvec(x) - want) <= 1e-15 * np.linalg.norm(want)


def test_spd_dense_matvec_copies_no_matrix():
    # dsymv gets the F-ordered view of A; handing it the C-ordered array
    # would make the binding copy all 8 MB of A on every product.
    n = 1000
    h = MatrixHandle(_symmetric(n, 4), sym="spd")
    x = np.random.default_rng(4).standard_normal(n)
    tracemalloc.start()
    try:
        h.matvec(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_csr_validation_rejects_bad_indices():
    data = np.array([1.0])
    indices = np.array([5])  # out of range for 2 columns
    indptr = np.array([0, 1, 1])
    bad = sp.csr_matrix((data, indices, indptr), shape=(2, 2))
    with pytest.raises(DomainError):
        MatrixHandle(bad)


def test_as_vector_rejects_nonfinite():
    with pytest.raises(DomainError):
        as_vector([1.0, np.inf])
    with pytest.raises(DimensionMismatch):
        as_vector(np.ones((2, 2)))


# -- effective dimension ------------------------------------------------------


def test_tail_indices_below_gamma_lambda():
    """Indices past (1 + 1/gamma) * d_lambda carry eigenvalues <= gamma*lambda."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vals = np.sort(rng.exponential(2.0, size=80))[::-1]
        for lam in (0.05, 0.5, 2.0):
            d = oracles.effective_dim_direct(vals, lam)
            for gamma in (0.5, 1.0, 2.0):
                j0 = int(np.ceil((1.0 + 1.0 / gamma) * d))
                assert all(
                    vals[j] <= gamma * lam + 1e-12
                    for j in range(j0, len(vals))
                )


# -- power method -------------------------------------------------------------


def test_power_method_dominant_eigenvalue():
    a = np.diag([5.0, 1.0, 1.0])
    est = power_method_norm(lambda x: a @ x, 3, iters=30, seed=0)
    assert 4.5 <= est <= 5.0


def test_power_method_identity():
    est = power_method_norm(lambda x: x, 8, iters=10, seed=1)
    assert 0.9 <= est <= 1.0


def test_power_method_zero_operator():
    assert power_method_norm(lambda x: np.zeros_like(x), 5) == 0.0


def test_power_method_deterministic():
    a = np.diag([3.0, 2.0, 1.0])
    runs = {power_method_norm(lambda x: a @ x, 3, iters=15, seed=42) for _ in range(3)}
    assert len(runs) == 1


# -- dense factor solve -------------------------------------------------------


def test_factor_solve_diagonal():
    h = MatrixHandle(np.diag([2.0, 4.0]), sym="spd")
    assert np.allclose(dense_factor_solve(h, [2.0, 4.0]), [1.0, 1.0], rtol=1e-15)


def test_factor_solve_residual():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((10, 10))
    a = g @ g.T + 10.0 * np.eye(10)
    b = rng.standard_normal(10)
    h = MatrixHandle(a, sym="spd")
    x = dense_factor_solve(h, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_factor_solve_singular():
    h = MatrixHandle(np.ones((2, 2)))
    with pytest.raises(SingularMatrixError):
        dense_factor_solve(h, [1.0, 1.0])


def test_factor_solve_matches_elimination_oracle():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((120, 120))
    a = g @ g.T + 120.0 * np.eye(120)
    b = rng.standard_normal(120)
    x = dense_factor_solve(MatrixHandle(a, sym="spd"), b)
    want = oracles.gauss_solve(a, b)
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)


def test_factor_solve_cache_reused_across_rhs():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((6, 6))
    h = MatrixHandle(g @ g.T + 6.0 * np.eye(6), sym="spd")
    b1, b2 = rng.standard_normal(6), rng.standard_normal(6)
    x1 = dense_factor_solve(h, b1)
    assert h._factor is not None
    factor_obj = h._factor
    x2 = dense_factor_solve(h, b2)
    assert h._factor is factor_obj  # same cached factor object
    assert np.allclose(h.to_dense() @ x2, b2, rtol=0, atol=1e-10 * np.linalg.norm(b2))
    assert np.allclose(h.to_dense() @ x1, b1, rtol=0, atol=1e-10 * np.linalg.norm(b1))


def test_factor_solve_matrix_rhs_roundtrip():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((5, 5))
    h = MatrixHandle(g @ g.T + 5.0 * np.eye(5), sym="spd")
    rhs = MatrixHandle(rng.standard_normal((5, 3)))
    out = dense_factor_solve(h, rhs)
    assert isinstance(out, MatrixHandle)
    assert np.allclose(h.to_dense() @ out.to_dense(), rhs.to_dense(), atol=1e-10)


@pytest.mark.parametrize("sym", ["spd", "general"])
def test_factor_solve_holds_one_copy_of_a(sym):
    # The factorization works in place on one copy of A: no |A| temporary
    # for the pivot scale and no second copy made for LAPACK.
    n = 1500
    rng = np.random.default_rng(5)
    g = rng.standard_normal((n, n))
    a = g @ g.T + n * np.eye(n)
    del g
    b = rng.standard_normal(n)
    h = MatrixHandle(a, sym=sym)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x = dense_factor_solve(h, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * a.nbytes
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


# -- spectrum summary ---------------------------------------------------------


def test_spectrum_requires_descending_order():
    with pytest.raises(DomainError):
        SpectrumSummary(np.array([1.0, 2.0]), "eigenvalues")


def test_spectrum_rejects_nan_and_empty():
    with pytest.raises(DomainError):
        SpectrumSummary(np.array([np.nan]), "eigenvalues")
    with pytest.raises(DomainError):
        SpectrumSummary(np.array([]), "eigenvalues")
