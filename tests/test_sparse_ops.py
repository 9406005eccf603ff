"""Tests for the shared sparse kernels (triangular solves, matmat)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StructureError
from repro.sparse import CSC, matmat
from repro.sparse.ops import lower_solve, upper_solve

from .helpers import random_sparse


def _random_unit_lower(n, rng, density=0.3):
    d = rng.standard_normal((n, n))
    mask = rng.random((n, n)) < density
    d = np.where(mask, d, 0.0)
    d = np.tril(d, -1)
    np.fill_diagonal(d, 1.0)
    return CSC.from_dense(d), d


def _random_upper(n, rng, density=0.3):
    d = rng.standard_normal((n, n))
    mask = rng.random((n, n)) < density
    d = np.where(mask, d, 0.0)
    d = np.triu(d, 1)
    np.fill_diagonal(d, rng.standard_normal(n) + 3.0)
    return CSC.from_dense(d), d


class TestTriangularSolves:
    def test_lower_solve_unit(self):
        rng = np.random.default_rng(0)
        L, d = _random_unit_lower(12, rng)
        b = rng.standard_normal(12)
        assert np.allclose(lower_solve(L, b), np.linalg.solve(d, b))

    def test_lower_solve_nonunit(self):
        rng = np.random.default_rng(1)
        L, d = _random_unit_lower(10, rng)
        dd = d.copy()
        np.fill_diagonal(dd, 2.0)
        L2 = CSC.from_dense(dd)
        b = rng.standard_normal(10)
        assert np.allclose(lower_solve(L2, b, unit_diag=False), np.linalg.solve(dd, b))

    def test_upper_solve(self):
        rng = np.random.default_rng(2)
        U, d = _random_upper(12, rng)
        b = rng.standard_normal(12)
        assert np.allclose(upper_solve(U, b), np.linalg.solve(d, b))

    def test_upper_solve_zero_diag_raises(self):
        U = CSC.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ZeroDivisionError):
            upper_solve(U, np.ones(2))

    def test_non_square_factor_raises_structure_error(self):
        L = CSC.from_dense(np.tril(np.ones((5, 3))))
        with pytest.raises(StructureError, match="5x3"):
            lower_solve(L, np.ones(3))
        U = CSC.from_dense(np.triu(np.ones((3, 5))))
        with pytest.raises(StructureError, match="3x5"):
            upper_solve(U, np.ones(5))


class TestMatmat:
    def test_matches_dense(self):
        rng = np.random.default_rng(4)
        A = random_sparse(7, 5, 0.4, rng)
        B = random_sparse(5, 6, 0.4, rng)
        C = matmat(A, B)
        C.check()
        assert np.allclose(C.to_dense(), A.to_dense() @ B.to_dense())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmat(CSC.identity(3), CSC.identity(4))

    def test_empty_result(self):
        A = CSC.empty(3, 4)
        B = CSC.empty(4, 2)
        C = matmat(A, B)
        assert C.nnz == 0
        assert C.shape == (3, 2)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10), k=st.integers(1, 10), m=st.integers(1, 10), seed=st.integers(0, 9999))
def test_property_matmat_associates_with_dense(n, k, m, seed):
    rng = np.random.default_rng(seed)
    A = random_sparse(n, k, 0.4, rng)
    B = random_sparse(k, m, 0.4, rng)
    assert np.allclose(matmat(A, B).to_dense(), A.to_dense() @ B.to_dense(), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 9999))
def test_property_triangular_solve_residual(n, seed):
    rng = np.random.default_rng(seed)
    L, d = _random_unit_lower(n, rng, density=0.5)
    b = rng.standard_normal(n)
    x = lower_solve(L, b)
    assert np.allclose(d @ x, b, atol=1e-9)
