"""Tests for the Gilbert–Peierls LU kernel."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.errors import SingularMatrixError
from repro.parallel import CostLedger
from repro.solvers.gp import gp_factor
from repro.solvers.triangular import lu_solve_factors
from repro.sparse import CSC, factorization_residual

from .helpers import dense_residual, random_sparse, random_spd_like, to_scipy


def _check_factor(A, res, tol=1e-10):
    res.L.check()
    res.U.check()
    # L unit lower triangular, U upper triangular.
    for j in range(res.L.n_cols):
        rows, vals = res.L.col(j)
        assert rows[0] == j and vals[0] == 1.0
    for j in range(res.U.n_cols):
        rows, _ = res.U.col(j)
        assert rows[-1] == j or rows.size == 0 or rows[-1] <= j
        assert np.all(rows <= j)
    assert dense_residual(A, res.L, res.U, row_perm=res.row_perm) < tol


class TestGPBasic:
    def test_identity(self):
        res = gp_factor(CSC.identity(4))
        assert np.allclose(res.L.to_dense(), np.eye(4))
        assert np.allclose(res.U.to_dense(), np.eye(4))

    def test_dense_small(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        A = CSC.from_dense(d)
        res = gp_factor(A)
        _check_factor(A, res)

    def test_requires_pivoting(self):
        """Zero diagonal forces row exchanges."""
        d = np.array([[0.0, 2.0], [3.0, 1.0]])
        A = CSC.from_dense(d)
        res = gp_factor(A, pivot_tol=1.0)
        _check_factor(A, res)
        assert not np.array_equal(res.row_perm, [0, 1])

    def test_strict_partial_pivoting_bounds_L(self):
        rng = np.random.default_rng(1)
        A = random_sparse(40, 40, 0.15, rng, ensure_diag=True)
        res = gp_factor(A, pivot_tol=1.0)
        assert res.L.max_abs() <= 1.0 + 1e-12

    def test_diag_preference_keeps_diagonal(self):
        """With MWCM-style large diagonal and small tol, no pivoting."""
        rng = np.random.default_rng(2)
        A = random_spd_like(30, 0.1, rng)
        res = gp_factor(A, pivot_tol=0.001)
        assert np.array_equal(res.row_perm, np.arange(30))

    def test_singular_raises(self):
        d = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularMatrixError):
            gp_factor(CSC.from_dense(d))

    def test_structurally_singular_raises(self):
        A = CSC.from_coo([0, 1], [0, 0], [1.0, 1.0], (2, 2))  # empty column 1
        with pytest.raises(SingularMatrixError):
            gp_factor(A)

    def test_static_perturbation_recovers(self):
        d = np.array([[1.0, 1.0], [0.0, 0.0]])
        A = CSC.from_dense(d)
        res = gp_factor(A, static_perturb=1e-8)
        assert res.U.get(1, 1) != 0.0

    def test_empty_matrix(self):
        res = gp_factor(CSC.empty(0, 0))
        assert res.L.shape == (0, 0)

    def test_ledger_counts_work(self):
        rng = np.random.default_rng(3)
        A = random_spd_like(25, 0.15, rng)
        led = CostLedger()
        res = gp_factor(A, ledger=led)
        assert led.columns == 25
        assert led.sparse_flops > 0
        assert led.dfs_steps >= A.nnz
        assert res.ledger is led

    def test_flops_scale_with_fill(self):
        """A tridiagonal system costs far fewer flops than a dense one."""
        n = 30
        tri = CSC.from_dense(np.eye(n) * 4 + np.eye(n, k=1) + np.eye(n, k=-1))
        rng = np.random.default_rng(4)
        dense = CSC.from_dense(rng.standard_normal((n, n)) + 10 * np.eye(n))
        f_tri = gp_factor(tri).ledger.sparse_flops
        f_dense = gp_factor(dense).ledger.sparse_flops
        assert f_dense > 10 * f_tri


class TestGPSolve:
    def test_solve_matches_scipy(self):
        rng = np.random.default_rng(5)
        A = random_spd_like(50, 0.1, rng)
        b = rng.standard_normal(50)
        res = gp_factor(A)
        x = lu_solve_factors(res.L, res.U, b[res.row_perm])
        x_ref = spla.spsolve(to_scipy(A).tocsc(), b)
        assert np.allclose(x, x_ref, atol=1e-8)

    def test_solve_with_pivoting(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal((20, 20))
        d[np.abs(d) < 0.5] = 0.0
        d += np.diag(np.where(rng.random(20) < 0.5, 0.0, 1.0))  # some zero diagonals
        A = CSC.from_dense(d + 0.0)
        try:
            res = gp_factor(A, pivot_tol=1.0)
        except SingularMatrixError:
            pytest.skip("random matrix was singular")
        b = rng.standard_normal(20)
        x = lu_solve_factors(res.L, res.U, b[res.row_perm])
        assert np.allclose(A.to_dense() @ x, b, atol=1e-6)


class TestGPPattern:
    def test_no_fill_for_triangular_input(self):
        """Factoring an already lower-triangular matrix produces L = A/diag."""
        rng = np.random.default_rng(7)
        d = np.tril(rng.standard_normal((15, 15)))
        np.fill_diagonal(d, 5.0)
        A = CSC.from_dense(d)
        res = gp_factor(A, pivot_tol=0.001)
        assert res.U.nnz == 15  # diagonal only
        assert res.L.nnz == A.nnz

    def test_fill_in_occurs_where_expected(self):
        """Arrow matrix ordered hub-first fills completely."""
        n = 10
        d = np.eye(n)
        d[0, :] = 1.0
        d[:, 0] = 1.0
        res = gp_factor(CSC.from_dense(d), pivot_tol=0.001)
        assert res.L.nnz == n * (n + 1) // 2  # dense L
        n2 = n
        dd = np.eye(n2)
        dd[-1, :] = 1.0
        dd[:, -1] = 1.0
        res2 = gp_factor(CSC.from_dense(dd), pivot_tol=0.001)
        assert res2.L.nnz == 2 * n2 - 1  # no fill hub-last


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 25), seed=st.integers(0, 99999), density=st.floats(0.05, 0.5))
def test_property_gp_residual_small(n, seed, density):
    rng = np.random.default_rng(seed)
    A = random_spd_like(n, density, rng)
    res = gp_factor(A)
    assert dense_residual(A, res.L, res.U, row_perm=res.row_perm) < 1e-10


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 99999))
def test_property_gp_pivot_order_is_permutation(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd_like(n, 0.3, rng)
    res = gp_factor(A, pivot_tol=1.0)
    assert sorted(res.row_perm.tolist()) == list(range(n))
