"""Edge-case and failure-injection tests across the package."""

import numpy as np
import pytest

from repro.core import Basker
from repro.core.numeric import TaskBuilder
from repro.errors import SingularMatrixError, StructureError, TaskGraphError
from repro.graph.etree import postorder, symmetric_pattern
from repro.graph.matching import mwcm_row_permutation
from repro.graph.scc import scc_of_matrix
from repro.matrices import btf_composite
from repro.ordering import btf, nested_dissection
from repro.ordering.amd import amd_order
from repro.ordering.perm import compose
from repro.ordering.rcm import rcm_order
from repro.parallel import CostLedger, SANDY_BRIDGE
from repro.solvers import KLU, SupernodalLU, gp_factor
from repro.sparse import CSC, solve_residual
from repro.sparse.blocking import detect_dense_tail

from .helpers import random_spd_like


class TestTinyMatrices:
    def test_1x1_everything(self):
        A = CSC.from_coo([0], [0], [3.0], (1, 1))
        b = np.array([6.0])
        for solver in (KLU(), Basker(n_threads=1), SupernodalLU()):
            num = solver.factor(A)
            x = solver.solve(num, b)
            assert x[0] == pytest.approx(2.0)

    def test_2x2_anti_diagonal(self):
        """Requires the matching/pivoting machinery even at n=2."""
        A = CSC.from_coo([1, 0], [0, 1], [2.0, 4.0], (2, 2))
        b = np.array([4.0, 2.0])
        for solver in (KLU(), Basker(n_threads=1)):
            num = solver.factor(A)
            x = solver.solve(num, b)
            assert np.allclose(A.to_dense() @ x, b)

    def test_diagonal_matrix_fast_path(self):
        d = np.array([2.0, -3.0, 0.5, 7.0])
        A = CSC.from_dense(np.diag(d))
        for solver in (KLU(), Basker(n_threads=2)):
            num = solver.factor(A)
            b = np.ones(4)
            assert np.allclose(solver.solve(num, b), 1.0 / d)

    def test_basker_many_threads_tiny_matrix(self):
        """More threads than meaningful work must still be valid."""
        rng = np.random.default_rng(0)
        A = random_spd_like(6, 0.5, rng)
        bk = Basker(n_threads=8, nd_threshold=2)
        num = bk.factor(A)
        b = rng.standard_normal(6)
        assert solve_residual(A, bk.solve(num, b), b) < 1e-10


class TestSingularInputs:
    def test_zero_matrix_raises(self):
        A = CSC.empty(3, 3)
        for solver in (KLU(), Basker(n_threads=1)):
            with pytest.raises(SingularMatrixError):
                solver.factor(A)

    def test_zero_column(self):
        A = CSC.from_coo([0, 1], [0, 0], [1.0, 1.0], (2, 2))
        with pytest.raises(SingularMatrixError):
            KLU().factor(A)

    def test_numerically_singular(self):
        # Rank-1 2x2.
        A = CSC.from_dense(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrixError):
            KLU().factor(A)

    def test_static_perturbation_rescues_basker(self):
        A = CSC.from_dense(np.array([[1.0, 2.0], [2.0, 4.0]]))
        bk = Basker(n_threads=1, static_perturb=1e-10)
        num = bk.factor(A)  # must not raise
        assert num.factor_nnz >= 3


class TestDegenerateStructures:
    def test_fully_decoupled_matrix(self):
        """n independent 1x1 blocks: pure fine-BTF, all threads."""
        rng = np.random.default_rng(1)
        d = rng.uniform(1, 2, 50)
        A = CSC.from_dense(np.diag(d))
        bk = Basker(n_threads=8)
        num = bk.factor(A)
        assert num.symbolic.n_blocks == 50
        assert len(num.nd_numeric) == 0
        sched = num.schedule(SANDY_BRIDGE)
        assert sched.makespan > 0

    def test_single_dense_block(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal((30, 30)) + 30 * np.eye(30)
        A = CSC.from_dense(d)
        res = btf(A)
        assert res.n_blocks == 1
        bk = Basker(n_threads=4, nd_threshold=10)
        num = bk.factor(A)
        b = rng.standard_normal(30)
        assert solve_residual(A, bk.solve(num, b), b) < 1e-11

    def test_nd_on_tiny_block(self):
        """ND with more leaves than vertices yields empty nodes."""
        rng = np.random.default_rng(3)
        A = random_spd_like(5, 0.6, rng)
        nd = nested_dissection(A, nleaves=8)
        assert sum(nd.nodes[t].size for t in range(nd.n_nodes)) == 5
        nd.check_separator_property(A)

    def test_extreme_value_range(self):
        """Entries spanning 1e-12 .. 1e12 still factor and solve."""
        rng = np.random.default_rng(4)
        A = random_spd_like(20, 0.3, rng)
        A = CSC(A.n_rows, A.n_cols, A.indptr, A.indices,
                A.data * (10.0 ** rng.integers(-12, 13, A.nnz).astype(float)))
        # Rebuild diagonal dominance at the new scales.
        d = A.to_dense()
        np.fill_diagonal(d, np.abs(d).sum(axis=1) + 1.0)
        A = CSC.from_dense(d)
        klu = KLU()
        num = klu.factor(A)
        b = rng.standard_normal(20)
        assert solve_residual(A, klu.solve(num, b), b) < 1e-9


class TestLedgerArithmetic:
    def test_repr_hides_zero_fields(self):
        led = CostLedger(sparse_flops=10.0)
        assert "sparse_flops" in repr(led)
        assert "dense" not in repr(led)

    def test_scaled_zero(self):
        led = CostLedger(1, 2, 3, 4, 5).scaled(0.0)
        assert led.is_empty()



_RECT = CSC.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))


@pytest.mark.parametrize("fn, args", [
    (btf, (_RECT,)),
    (amd_order, (_RECT,)),
    (nested_dissection, (_RECT, 2)),
    (nested_dissection, (CSC.from_dense(np.eye(4)), 3)),
    (rcm_order, (_RECT,)),
    (compose, (np.arange(3), np.arange(2))),
    (mwcm_row_permutation, (_RECT,)),
    (scc_of_matrix, (_RECT,)),
    (symmetric_pattern, (_RECT,)),
    (postorder, (np.array([1, 0]),)),
    (detect_dense_tail, (_RECT,)),
], ids=["btf", "amd_order", "nd_square", "nd_power_of_two", "rcm_order",
        "compose", "mwcm_row_permutation", "scc_of_matrix",
        "symmetric_pattern", "postorder_cycle", "detect_dense_tail"])
def test_ordering_and_graph_preconditions_raise_structure_error(fn, args):
    """Square, size, power-of-two and acyclic-parent preconditions of the
    ordering and graph kernels raise the typed StructureError (still a
    ValueError), as KLU and Basker do."""
    with pytest.raises(StructureError):
        fn(*args)


class TestTaskBuilderErrors:
    """A malformed DAG raises the typed TaskGraphError (still a
    ValueError)."""

    def test_duplicate_task_key(self):
        tb = TaskBuilder()
        tb.add(("LU", 0), CostLedger(), [], thread=0)
        with pytest.raises(TaskGraphError, match="duplicate task key"):
            tb.add(("LU", 0), CostLedger(), [], thread=0)

    def test_alias_shadowing_a_task(self):
        tb = TaskBuilder()
        tb.add(("LU", 0), CostLedger(), [], thread=0)
        tb.add(("LU", 1), CostLedger(), [], thread=1)
        with pytest.raises(TaskGraphError, match="shadow"):
            tb.add_alias(("LU", 1), ("LU", 0))
