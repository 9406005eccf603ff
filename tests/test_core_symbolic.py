"""Focused tests for Basker's symbolic phase (Algorithms 2 and 3)."""

import itertools

import numpy as np
import pytest

from repro import DirectSolver
from repro.core import Basker, analyze
from repro.core.symbolic import DEFAULT_ND_THRESHOLD
from repro.errors import StructureError
from repro.matrices import btf_composite, grid2d, thick_ladder
from repro.ordering import is_permutation
from repro.sparse import CSC

from .helpers import random_spd_like


def _composite(rng):
    return btf_composite(
        (1 + rng.poisson(2.0, size=30)).tolist(),
        big_block=thick_ladder(50, 5, rng=rng),
        coupling_per_block=1.0,
        rng=rng,
    )


class TestAnalyze:
    def test_permutations_valid(self):
        rng = np.random.default_rng(0)
        A = _composite(rng)
        sym = analyze(A, n_threads=4, nd_threshold=60)
        assert is_permutation(sym.row_perm_pre)
        assert is_permutation(sym.col_perm)

    def test_block_classification(self):
        rng = np.random.default_rng(1)
        A = _composite(rng)
        sym = analyze(A, n_threads=4, nd_threshold=60)
        # One big irreducible block -> exactly one ND plan.
        assert len(sym.nd_plans) == 1
        assert sym.nd_plans[0].size >= 60
        assert sym.fine_plan is not None
        # Every coarse block accounted for exactly once.
        nd_ids = {p.block_id for p in sym.nd_plans}
        fine_ids = set(sym.fine_plan.block_ids)
        assert nd_ids | fine_ids == set(range(sym.n_blocks))
        assert not (nd_ids & fine_ids)

    def test_serial_run_has_no_nd(self):
        rng = np.random.default_rng(2)
        A = _composite(rng)
        sym = analyze(A, n_threads=1)
        assert sym.nd_plans == []

    def test_fine_plan_thread_balance(self):
        """Alg. 2 line 5: LPT partition balances estimated operations."""
        rng = np.random.default_rng(3)
        A = _composite(rng)
        sym = analyze(A, n_threads=4, nd_threshold=60)
        plan = sym.fine_plan
        loads = np.zeros(4)
        for ops, th in zip(plan.est_ops, plan.thread_of):
            loads[th] += ops
        biggest_block = max(plan.est_ops)
        # Classic LPT bound: max load <= mean + largest item.
        assert loads.max() <= loads.mean() + biggest_block + 1e-9

    def test_nd_plan_thread_maps(self):
        rng = np.random.default_rng(4)
        A = _composite(rng)
        sym = analyze(A, n_threads=4, nd_threshold=60)
        plan = sym.nd_plans[0]
        part = plan.partition
        leaves = part.leaves()
        assert sorted(plan.owner_thread[l] for l in leaves) == [0, 1, 2, 3]
        # A separator is owned by a thread of its own subtree.
        for t in range(part.n_nodes):
            if not part.nodes[t].is_leaf:
                assert plan.owner_thread[t] in plan.subtree_threads[t]
        # Root subtree spans all threads.
        assert sorted(plan.subtree_threads[part.root]) == [0, 1, 2, 3]

    def test_nd_leaves_multiple_of_threads(self):
        rng = np.random.default_rng(5)
        A = grid2d(16, rng=rng)
        sym = analyze(A, n_threads=2, nd_threshold=60, nd_leaves=8)
        plan = sym.nd_plans[0]
        leaves = plan.partition.leaves()
        assert len(leaves) == 8
        threads = sorted({plan.owner_thread[l] for l in leaves})
        assert threads == [0, 1]

    def test_invalid_nd_leaves(self):
        rng = np.random.default_rng(6)
        A = grid2d(10, rng=rng)
        with pytest.raises(ValueError):
            analyze(A, n_threads=4, nd_leaves=2)   # fewer than threads
        with pytest.raises(ValueError):
            analyze(A, n_threads=4, nd_leaves=12)  # not a power of two

    def test_describe_mentions_structure(self):
        rng = np.random.default_rng(7)
        A = _composite(rng)
        sym = analyze(A, n_threads=4, nd_threshold=60)
        text = sym.describe()
        assert "coarse BTF blocks" in text
        assert "ND block" in text


class TestEstimates:
    def test_estimates_upper_bound_actual_many_seeds(self):
        """The lest/uest upper-bound contract across several matrices."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            A = grid2d(12 + 2 * seed, rng=rng)
            bk = Basker(n_threads=4, nd_threshold=40)
            num = bk.factor(A)
            for nd in num.nd_numeric.values():
                plan = nd.plan
                for key, est in plan.est_lower_nnz.items():
                    assert est >= nd.offdiag_nnz(key), (seed, key)
                for key, est in plan.est_upper_nnz.items():
                    assert est >= nd.offdiag_nnz(key), (seed, key)

    def test_separator_estimates_cover_diagonal(self):
        rng = np.random.default_rng(10)
        A = grid2d(14, rng=rng)
        bk = Basker(n_threads=4, nd_threshold=40)
        num = bk.factor(A)
        for nd in num.nd_numeric.values():
            plan = nd.plan
            part = plan.partition
            for t in range(part.n_nodes):
                if part.nodes[t].is_leaf or part.nodes[t].size == 0:
                    continue
                L = nd.L_blocks.get((t, t))
                U = nd.U_blocks.get((t, t))
                if L is None:
                    continue
                actual = L.nnz + U.nnz - L.n_cols
                assert plan.est_diag_nnz[t] >= actual

    def test_total_estimate_reported(self):
        rng = np.random.default_rng(11)
        A = grid2d(12, rng=rng)
        sym = analyze(A, n_threads=4, nd_threshold=40)
        assert sym.nd_plans[0].total_estimated_nnz() > 0


def test_basker_symbolic_errors_are_typed():
    """Basker's symbolic phase raises StructureError, as KLU's does."""
    rect = CSC.empty(3, 4)
    A = grid2d(6, rng=np.random.default_rng(0))
    with pytest.raises(StructureError):
        Basker(n_threads=2).analyze(rect)
    with pytest.raises(StructureError):
        Basker(n_threads=4, nd_leaves=2).analyze(A)
    with pytest.raises(StructureError):
        analyze(A, n_threads=3)
    with pytest.raises(StructureError):
        DirectSolver("basker").symbolic_factorization(rect)
    with pytest.raises(StructureError):
        DirectSolver("basker", n_threads=4, nd_leaves=12).symbolic_factorization(A)
