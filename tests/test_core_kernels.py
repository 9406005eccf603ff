"""Unit tests for Basker's numeric block kernels."""

import numpy as np
import pytest

from repro.core.numeric import (
    lower_offdiag_solve,
    sparse_product,
    subtract_products,
    upper_offdiag_solve,
)
from repro.graph.dfs import ReachGraph
from repro.parallel import CostLedger
from repro.solvers.gp import gp_factor
from repro.sparse import CSC

from .helpers import random_sparse, random_spd_like


def _factors(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd_like(n, 0.25, rng)
    lu = gp_factor(A, pivot_tol=0.001)
    return lu.L, lu.U, rng


class TestLowerOffdiagSolve:
    def test_matches_dense_solve(self):
        L, U, rng = _factors(10, 0)
        A_ki = random_sparse(7, 10, 0.3, rng)
        led = CostLedger()
        X = lower_offdiag_solve(A_ki, U, led)
        X.check()
        ref = A_ki.to_dense() @ np.linalg.inv(U.to_dense())
        assert np.allclose(X.to_dense(), ref, atol=1e-10)
        assert led.sparse_flops > 0
        assert led.columns == 10

    def test_empty_block(self):
        _, U, _ = _factors(6, 1)
        X = lower_offdiag_solve(CSC.empty(4, 6), U, CostLedger())
        assert X.nnz == 0
        assert X.shape == (4, 6)

    def test_sparsity_preserved_for_diagonal_U(self):
        """With a diagonal U the result has exactly A's pattern."""
        rng = np.random.default_rng(2)
        U = CSC.identity(8, scale=2.0)
        A_ki = random_sparse(5, 8, 0.3, rng)
        X = lower_offdiag_solve(A_ki, U, CostLedger())
        assert X.nnz == A_ki.nnz
        assert np.allclose(X.to_dense(), A_ki.to_dense() / 2.0)


class TestUpperOffdiagSolve:
    def test_matches_dense_solve(self):
        L, U, rng = _factors(10, 3)
        A_ij = random_sparse(10, 6, 0.3, rng)
        led = CostLedger()
        X = upper_offdiag_solve(L, A_ij, ReachGraph.from_csc(L), led)
        X.check()
        ref = np.linalg.inv(L.to_dense()) @ A_ij.to_dense()
        assert np.allclose(X.to_dense(), ref, atol=1e-10)
        assert led.dfs_steps > 0

    def test_pattern_is_reach_not_dense(self):
        """An identity L gives back exactly A's pattern (no fill)."""
        rng = np.random.default_rng(4)
        L = CSC.identity(9)
        A_ij = random_sparse(9, 4, 0.25, rng)
        X = upper_offdiag_solve(L, A_ij, ReachGraph.from_csc(L), CostLedger())
        assert X.nnz == A_ij.nnz

    def test_empty_columns_skipped(self):
        L, _, _ = _factors(6, 5)
        X = upper_offdiag_solve(L, CSC.empty(6, 3), ReachGraph.from_csc(L), CostLedger())
        assert X.nnz == 0


class TestBlockReduce:
    """``A − Σ L_s U_s`` as the reduction computes it: one product per
    contributor, then the combine."""

    def test_matches_dense_expression(self):
        rng = np.random.default_rng(6)
        A = random_sparse(8, 5, 0.4, rng)
        L1 = random_sparse(8, 6, 0.3, rng)
        U1 = random_sparse(6, 5, 0.3, rng)
        L2 = random_sparse(8, 4, 0.3, rng)
        U2 = random_sparse(4, 5, 0.3, rng)
        led = CostLedger()
        R = subtract_products(
            A, [sparse_product(L1, U1, led), sparse_product(L2, U2, led)], led
        )
        R.check()
        ref = A.to_dense() - L1.to_dense() @ U1.to_dense() - L2.to_dense() @ U2.to_dense()
        assert np.allclose(R.to_dense(), ref, atol=1e-12)
        assert led.sparse_flops > 0

    def test_no_contribs_copies_A(self):
        rng = np.random.default_rng(7)
        A = random_sparse(6, 6, 0.4, rng)
        R = subtract_products(A, [], CostLedger())
        assert np.allclose(R.to_dense(), A.to_dense())

    def test_cancellation_keeps_explicit_zero(self):
        """Numerical cancellation stays as a stored entry (pattern union)."""
        A = CSC.from_coo([0], [0], [1.0], (2, 2))
        L = CSC.from_coo([0], [0], [1.0], (2, 1))
        U = CSC.from_coo([0], [0], [1.0], (1, 2))
        led = CostLedger()
        R = subtract_products(A, [sparse_product(L, U, led)], led)
        assert R.nnz == 1
        assert R.get(0, 0) == 0.0
