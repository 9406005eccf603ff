"""Unit and property tests for the CSC container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import CSC

from .helpers import from_scipy, permute_reference, random_sparse, to_scipy


class TestConstructors:
    def test_empty(self):
        A = CSC.empty(3, 4)
        A.check()
        assert A.shape == (3, 4)
        assert A.nnz == 0
        assert np.all(A.to_dense() == 0)

    def test_identity(self):
        I = CSC.identity(5)
        I.check()
        assert np.allclose(I.to_dense(), np.eye(5))

    def test_identity_scaled(self):
        I = CSC.identity(3, scale=2.5)
        assert np.allclose(I.to_dense(), 2.5 * np.eye(3))

    def test_from_coo_basic(self):
        A = CSC.from_coo([0, 1, 2], [2, 0, 1], [1.0, 2.0, 3.0], (3, 3))
        A.check()
        d = np.zeros((3, 3))
        d[0, 2], d[1, 0], d[2, 1] = 1.0, 2.0, 3.0
        assert np.allclose(A.to_dense(), d)

    def test_from_coo_sums_duplicates(self):
        A = CSC.from_coo([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], (2, 2))
        assert A.get(0, 0) == 3.0
        assert A.nnz == 2

    def test_from_coo_last_wins(self):
        A = CSC.from_coo([0, 0], [0, 0], [1.0, 2.0], (2, 2), sum_duplicates=False)
        assert A.get(0, 0) == 2.0

    def test_from_coo_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CSC.from_coo([5], [0], [1.0], (3, 3))
        with pytest.raises(ValueError):
            CSC.from_coo([0], [-1], [1.0], (3, 3))

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((6, 4))
        d[np.abs(d) < 0.7] = 0.0
        A = CSC.from_dense(d)
        A.check()
        assert np.allclose(A.to_dense(), d)

    def test_from_dense_keeps_nan_and_drops_at_tol(self):
        assert CSC.from_dense(np.array([[np.nan]])).nnz == 1
        d = np.array([[np.nan, 0.5, 0.0], [-0.5, 2.0, np.inf], [0.0, -1e-3, np.nan]])
        A = CSC.from_dense(d, drop_tol=0.5)
        assert sorted(zip(*np.nonzero(A.to_dense() != 0.0))) == [
            (0, 0), (1, 1), (1, 2), (2, 2)]
        assert np.isnan(A.get(0, 0)) and A.get(1, 2) == np.inf
        assert CSC.from_dense(d).nnz == 7


class TestQueries:
    def test_col_views(self):
        A = CSC.from_coo([0, 2, 1], [0, 0, 1], [1.0, 2.0, 3.0], (3, 2))
        rows, vals = A.col(0)
        assert list(rows) == [0, 2]
        assert list(vals) == [1.0, 2.0]
        assert A.col_nnz(1) == 1

    def test_get_missing_is_zero(self):
        A = CSC.identity(3)
        assert A.get(0, 1) == 0.0
        assert A.get(1, 1) == 1.0

    def test_diagonal(self):
        A = CSC.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(A.diagonal(), [1.0, 4.0])


class TestTransforms:
    def test_transpose_matches_numpy(self):
        rng = np.random.default_rng(1)
        A = random_sparse(8, 5, 0.3, rng)
        At = A.transpose()
        At.check()
        assert np.allclose(At.to_dense(), A.to_dense().T)

    def test_permute_rows_cols(self):
        rng = np.random.default_rng(2)
        A = random_sparse(6, 6, 0.4, rng)
        p = rng.permutation(6)
        q = rng.permutation(6)
        B = A.permute(p, q)
        B.check()
        assert np.allclose(B.to_dense(), A.to_dense()[p][:, q])

    def test_permute_rows_only(self):
        rng = np.random.default_rng(3)
        A = random_sparse(5, 7, 0.5, rng)
        p = rng.permutation(5)
        assert np.allclose(A.permute(row_perm=p).to_dense(), A.to_dense()[p])

    def test_permute_cols_only(self):
        rng = np.random.default_rng(4)
        A = random_sparse(5, 7, 0.5, rng)
        q = rng.permutation(7)
        assert np.allclose(A.permute(col_perm=q).to_dense(), A.to_dense()[:, q])

    def test_submatrix_contiguous(self):
        rng = np.random.default_rng(5)
        A = random_sparse(10, 10, 0.3, rng)
        B = A.submatrix(2, 7, 3, 9)
        B.check()
        assert np.allclose(B.to_dense(), A.to_dense()[2:7, 3:9])

    def test_submatrix_empty_range(self):
        A = CSC.identity(4)
        B = A.submatrix(2, 2, 1, 3)
        assert B.shape == (0, 2)
        assert B.nnz == 0

    def test_submatrix_bounds_checked(self):
        A = CSC.identity(4)
        with pytest.raises(ValueError):
            A.submatrix(0, 5, 0, 4)

    def test_extract_general(self):
        rng = np.random.default_rng(6)
        A = random_sparse(9, 9, 0.4, rng)
        rows = np.array([8, 1, 3])
        cols = np.array([0, 7, 7, 2])
        B = A.extract(rows, cols)
        assert np.allclose(B.to_dense(), A.to_dense()[np.ix_(rows, cols)])

    def test_drop_zeros(self):
        A = CSC.from_coo([0, 1], [0, 1], [0.0, 2.0], (2, 2))
        B = A.drop_zeros()
        assert B.nnz == 1
        assert B.get(1, 1) == 2.0


class TestNumerics:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(7)
        A = random_sparse(8, 6, 0.4, rng)
        x = rng.standard_normal(6)
        assert np.allclose(A.matvec(x), A.to_dense() @ x)

    def test_rmatvec_matches_dense(self):
        rng = np.random.default_rng(8)
        A = random_sparse(8, 6, 0.4, rng)
        y = rng.standard_normal(8)
        assert np.allclose(A.rmatvec(y), A.to_dense().T @ y)

    def test_matvec_shape_check(self):
        A = CSC.identity(3)
        with pytest.raises(ValueError):
            A.matvec(np.zeros(4))

    def test_add(self):
        rng = np.random.default_rng(9)
        A = random_sparse(5, 5, 0.4, rng)
        B = random_sparse(5, 5, 0.4, rng)
        assert np.allclose(A.add(B).to_dense(), A.to_dense() + B.to_dense())

    def test_norms(self):
        A = CSC.from_dense(np.array([[1.0, -2.0], [0.0, 3.0]]))
        assert A.fro_norm() == pytest.approx(np.sqrt(14.0))
        assert A.max_abs() == 3.0
        assert A.one_norm() == 5.0


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    seed=st.integers(0, 10_000),
    density=st.floats(0.05, 0.9),
)
def test_property_coo_roundtrip_matches_scipy(n, m, seed, density):
    """from_coo agrees with scipy's duplicate-summing semantics."""
    rng = np.random.default_rng(seed)
    A = random_sparse(n, m, density, rng)
    A.check()
    S = to_scipy(A)
    assert np.allclose(A.to_dense(), S.toarray())
    back = from_scipy(S)
    assert np.allclose(back.to_dense(), A.to_dense())


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 10_000))
def test_property_double_transpose_identity(n, seed):
    rng = np.random.default_rng(seed)
    A = random_sparse(n, n, 0.4, rng)
    Att = A.transpose().transpose()
    Att.check()
    assert np.allclose(Att.to_dense(), A.to_dense())


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10_000))
def test_property_permute_then_inverse_is_identity(n, seed):
    rng = np.random.default_rng(seed)
    from repro.ordering import invert

    A = random_sparse(n, n, 0.5, rng)
    p = rng.permutation(n)
    q = rng.permutation(n)
    B = A.permute(p, q).permute(invert(p), invert(q))
    assert np.allclose(B.to_dense(), A.to_dense())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    m=st.integers(1, 10),
    seed=st.integers(0, 10_000),
    which=st.sampled_from(["rows", "cols", "both"]),
    shuffled=st.booleans(),
)
def test_property_permute_matches_column_loop(n, m, seed, which, shuffled):
    """``permute``'s vectorized column gather stores exactly the arrays
    of the per-column copy loop, including the within-column order of
    an unsorted column-only permute."""
    rng = np.random.default_rng(seed)
    A = random_sparse(n, m, 0.4, rng)
    if shuffled:
        order = np.concatenate([lo + rng.permutation(hi - lo)
                                for lo, hi in zip(A.indptr[:-1], A.indptr[1:])])
        A = CSC(n, m, A.indptr, A.indices[order], A.data[order])
    p = rng.permutation(n) if which != "cols" else None
    q = rng.permutation(m) if which != "rows" else None
    got, want = A.permute(p, q), permute_reference(A, p, q)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
