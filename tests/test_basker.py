"""Integration tests for the Basker solver (analyze / factor / solve)."""

import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.core import Basker
from repro.parallel import SANDY_BRIDGE, XEON_PHI
from repro.solvers.klu import KLU
from repro.sparse import CSC, factorization_residual, solve_residual

from .helpers import random_sparse, random_spd_like, to_scipy


def grid2d(m, rng, skew=0.1):
    """Unsymmetric 5-point grid operator (the paper's mesh-like input)."""
    idx = lambda i, j: i * m + j
    rows, cols, vals = [], [], []
    for i, j in itertools.product(range(m), range(m)):
        rows.append(idx(i, j)); cols.append(idx(i, j)); vals.append(4.0 + rng.random())
        for di, dj in ((1, 0), (0, 1)):
            if i + di < m and j + dj < m:
                rows += [idx(i, j), idx(i + di, j + dj)]
                cols += [idx(i + di, j + dj), idx(i, j)]
                vals += [-1.0 - skew * rng.random(), -1.0 - skew * rng.random()]
    return CSC.from_coo(rows, cols, vals, (m * m, m * m))


def circuitish(rng, nsub=8, sub_size=5, core_m=12):
    """BTF-rich matrix: independent subcircuits + a big grid core."""
    core = grid2d(core_m, rng)
    n_core = core.n_rows
    n = n_core + nsub * sub_size
    rows, cols, vals = [], [], []
    col_of = np.repeat(np.arange(n_core), np.diff(core.indptr))
    rows += core.indices.tolist(); cols += col_of.tolist(); vals += core.data.tolist()
    for s in range(nsub):
        off = n_core + s * sub_size
        d = rng.standard_normal((sub_size, sub_size))
        d += np.eye(sub_size) * (np.abs(d).sum() + 1)
        for i in range(sub_size):
            for j in range(sub_size):
                rows.append(off + i); cols.append(off + j); vals.append(d[i, j])
        # One-way coupling from the core into the subcircuit block row
        # above it (keeps the BTF blocks separate).
        rows.append(int(rng.integers(n_core)))
        cols.append(off + int(rng.integers(sub_size)))
        vals.append(0.3)
    return CSC.from_coo(rows, cols, vals, (n, n))


class TestBaskerCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_solve_grid_all_thread_counts(self, p):
        rng = np.random.default_rng(p)
        A = grid2d(14, rng)
        bk = Basker(n_threads=p, nd_threshold=40)
        num = bk.factor(A)
        b = rng.standard_normal(A.n_rows)
        x = bk.solve(num, b)
        assert solve_residual(A, x, b) < 1e-12
        assert np.allclose(x, spla.spsolve(to_scipy(A), b), atol=1e-8)

    def test_solve_btf_rich(self):
        rng = np.random.default_rng(0)
        A = circuitish(rng)
        bk = Basker(n_threads=4, nd_threshold=40)
        num = bk.factor(A)
        assert num.symbolic.n_blocks > 1
        assert len(num.nd_numeric) == 1 and len(num.fine_lu) >= 8
        b = rng.standard_normal(A.n_rows)
        assert solve_residual(A, bk.solve(num, b), b) < 1e-11

    def test_block_factorization_residual(self):
        """The assembled ND block factors satisfy P D = L U exactly."""
        rng = np.random.default_rng(1)
        A = grid2d(12, rng)
        bk = Basker(n_threads=4, nd_threshold=40)
        num = bk.factor(A)
        # Whole-matrix check through the permuted M.
        for b_id, nd in num.nd_numeric.items():
            lo = nd.plan.offset
            hi = lo + nd.plan.size
            D = num.M.submatrix(lo, hi, lo, hi)
            # M already includes pivoting: D == L @ U.
            r = factorization_residual(D, nd.L, nd.U)
            assert r < 1e-12

    def test_pivoting_on_indefinite_matrix(self):
        """Zero-ish diagonals inside the ND block force pivoting."""
        rng = np.random.default_rng(2)
        A = grid2d(10, rng)
        # Kill some diagonal dominance.
        d = A.to_dense()
        idx = rng.choice(A.n_rows, size=10, replace=False)
        d[idx, idx] = 0.0
        A2 = CSC.from_dense(d)
        bk = Basker(n_threads=4, nd_threshold=30, pivot_tol=1.0)
        num = bk.factor(A2)
        b = rng.standard_normal(A2.n_rows)
        assert solve_residual(A2, bk.solve(num, b), b) < 1e-9

    def test_serial_mode_equals_klu_flops_roughly(self):
        """p=1 Basker is algorithmically KLU (BTF + AMD + GP)."""
        rng = np.random.default_rng(3)
        A = circuitish(rng)
        bk_num = Basker(n_threads=1).factor(A)
        klu_num = KLU().factor(A)
        ratio = bk_num.ledger.sparse_flops / max(klu_num.ledger.sparse_flops, 1)
        assert 0.8 < ratio < 1.25

    def test_refactor_reuses_symbolic(self):
        rng = np.random.default_rng(4)
        A = circuitish(rng)
        bk = Basker(n_threads=4, nd_threshold=40)
        num = bk.factor(A)
        A2 = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(),
                 A.data * rng.uniform(0.5, 2.0, A.nnz))
        num2 = bk.refactor(A2, num)
        assert num2.symbolic is num.symbolic
        b = rng.standard_normal(A.n_rows)
        assert solve_residual(A2, bk.solve(num2, b), b) < 1e-10

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Basker(n_threads=3)

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            Basker(n_threads=2).analyze(CSC.empty(3, 4))

    def test_wrong_rhs(self):
        rng = np.random.default_rng(5)
        A = grid2d(6, rng)
        bk = Basker(n_threads=2, nd_threshold=10)
        num = bk.factor(A)
        with pytest.raises(ValueError):
            bk.solve(num, np.zeros(7))


class TestBaskerScheduling:
    def test_makespan_decreases_with_threads(self):
        rng = np.random.default_rng(6)
        A = grid2d(24, rng)
        t1 = Basker(n_threads=1).factor(A).factor_seconds(SANDY_BRIDGE)
        t4 = Basker(n_threads=4, nd_threshold=40).factor(A).factor_seconds(SANDY_BRIDGE)
        t8 = Basker(n_threads=8, nd_threshold=40).factor(A).factor_seconds(SANDY_BRIDGE)
        assert t4 < t1
        assert t8 < t1
        assert t8 < t4 * 1.15  # monotone-ish

    def test_sync_overhead_larger_in_barrier_mode(self):
        rng = np.random.default_rng(7)
        A = grid2d(20, rng)
        num = Basker(n_threads=8, nd_threshold=40).factor(A)
        s_p2p = num.schedule(SANDY_BRIDGE, sync_mode="p2p")
        s_bar = num.schedule(SANDY_BRIDGE, sync_mode="barrier")
        assert s_bar.sync_seconds > s_p2p.sync_seconds
        assert s_bar.makespan >= s_p2p.makespan

    def test_undersized_thread_count_rejected(self):
        rng = np.random.default_rng(8)
        A = grid2d(10, rng)
        num = Basker(n_threads=4, nd_threshold=20).factor(A)
        with pytest.raises(ValueError):
            num.schedule(SANDY_BRIDGE, n_threads=2)

    def test_phi_slower_serially(self):
        rng = np.random.default_rng(9)
        A = grid2d(14, rng)
        num = Basker(n_threads=1).factor(A)
        assert num.factor_seconds(XEON_PHI) > 5 * num.factor_seconds(SANDY_BRIDGE)

    def test_tasks_have_static_pinning(self):
        rng = np.random.default_rng(10)
        A = grid2d(14, rng)
        num = Basker(n_threads=4, nd_threshold=40).factor(A)
        assert all(t.thread is not None for t in num.tasks)
        used = {t.thread for t in num.tasks}
        assert used == set(range(4))


class TestBaskerMemory:
    def test_factor_nnz_close_to_klu_on_low_fill(self):
        """Table I claim: Basker |L+U| ~ KLU |L+U| on circuit matrices."""
        rng = np.random.default_rng(11)
        A = circuitish(rng)
        bk_nnz = Basker(n_threads=4, nd_threshold=40).factor(A).factor_nnz
        klu_nnz = KLU().factor(A).factor_nnz
        assert bk_nnz < 2.0 * klu_nnz

    def test_symbolic_estimates_are_upper_bounds(self):
        """Algorithm 3's lest/uest estimates must not underestimate
        (they size the allocations in the real code)."""
        rng = np.random.default_rng(12)
        A = grid2d(16, rng)
        bk = Basker(n_threads=4, nd_threshold=40)
        num = bk.factor(A)
        for b_id, nd in num.nd_numeric.items():
            plan = nd.plan
            for t in plan.partition.leaves():
                Ld = nd.L_blocks.get((t, t))
                Ud = nd.U_blocks.get((t, t))
                if Ld is None:
                    continue
                actual = Ld.nnz + Ud.nnz - Ld.n_cols
                assert plan.est_diag_nnz[t] >= actual
            for key, est in plan.est_lower_nnz.items():
                assert est >= nd.offdiag_nnz(key)
            for key, est in plan.est_upper_nnz.items():
                assert est >= nd.offdiag_nnz(key)


@settings(max_examples=10, deadline=None)
@given(
    m=st.integers(6, 12),
    p=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 999),
)
def test_property_basker_solves_grids(m, p, seed):
    rng = np.random.default_rng(seed)
    A = grid2d(m, rng)
    bk = Basker(n_threads=p, nd_threshold=25)
    num = bk.factor(A)
    b = rng.standard_normal(A.n_rows)
    assert solve_residual(A, bk.solve(num, b), b) < 1e-10


class TestPipelineMode:
    def test_identical_numerics(self):
        rng = np.random.default_rng(20)
        A = grid2d(16, rng)
        b = rng.standard_normal(A.n_rows)
        num_block = Basker(n_threads=4, nd_threshold=40).factor(A)
        num_pipe = Basker(n_threads=4, nd_threshold=40, pipeline_columns=8).factor(A)
        x1 = Basker(n_threads=4, nd_threshold=40).solve(num_block, b)
        x2 = Basker(n_threads=4, nd_threshold=40).solve(num_pipe, b)
        assert np.allclose(x1, x2)
        assert num_block.factor_nnz == num_pipe.factor_nnz

    def test_more_tasks_with_pipelining(self):
        rng = np.random.default_rng(21)
        A = grid2d(20, rng)
        n_block = len(Basker(n_threads=4, nd_threshold=40).factor(A).tasks)
        n_pipe = len(
            Basker(n_threads=4, nd_threshold=40, pipeline_columns=4).factor(A).tasks
        )
        assert n_pipe > n_block

    def test_sync_events_preserved(self):
        """Total per-column sync count is granularity-independent."""
        rng = np.random.default_rng(22)
        A = grid2d(16, rng)
        s_block = sum(
            t.p2p_syncs for t in Basker(n_threads=4, nd_threshold=40).factor(A).tasks
        )
        s_pipe = sum(
            t.p2p_syncs
            for t in Basker(n_threads=4, nd_threshold=40, pipeline_columns=4).factor(A).tasks
        )
        assert s_block == s_pipe

    def test_pipeline_schedule_valid(self):
        rng = np.random.default_rng(23)
        A = grid2d(18, rng)
        num = Basker(n_threads=8, nd_threshold=40, pipeline_columns=6).factor(A)
        sched = num.schedule(SANDY_BRIDGE)
        assert sched.makespan > 0
        assert 0 < sched.parallel_efficiency <= 1.0

    def test_pipeline_never_slower_much(self):
        rng = np.random.default_rng(24)
        A = grid2d(22, rng)
        t_block = Basker(n_threads=8, nd_threshold=40).factor(A).factor_seconds(SANDY_BRIDGE)
        t_pipe = Basker(n_threads=8, nd_threshold=40, pipeline_columns=8).factor(A).factor_seconds(SANDY_BRIDGE)
        assert t_pipe < t_block * 1.1


class TestFineBlockTrace:
    """Fine-BTF blocks are factored inside ``numeric.gp.fine`` spans, the
    way KLU's blocks are inside ``numeric.gp.block``."""

    @pytest.mark.parametrize("name", ["Power0*+", "circuit_4"])
    def test_every_span_timed_and_conserved(self, name):
        import time

        from repro.matrices import get_matrix
        from repro.obs.tracer import Tracer, check_ledger_tree, tracing

        A = get_matrix(name)
        with tracing(Tracer(wall_clock=time.perf_counter)) as tr:
            Basker(n_threads=16).factor(A)
        assert [sp.name for sp in tr.spans if sp.wall_seconds is None] == []
        assert check_ledger_tree(tr) == []
        fine = {sp.sid for sp in tr.spans if sp.name == "numeric.gp.fine"}
        assert fine
        if name == "Power0*+":  # some fine blocks have a dense panel
            assert any(sp.name == "numeric.gp.panel" and sp.parent_sid in fine
                       for sp in tr.spans)

    def test_second_factor_reuses_the_fine_dense_plans(self, monkeypatch):
        """Like KLU's blocks, fine blocks keep their dense-tail plans on the
        symbolic: factoring again detects none and changes nothing."""
        import dataclasses

        import repro.solvers.gp as gp_mod
        from repro.matrices import get_matrix

        A = get_matrix("Power0*+")
        basker = Basker(n_threads=16)
        sym = basker.analyze(A)
        first = basker.factor(A, sym)
        calls = []
        detect = gp_mod.detect_dense_tail
        monkeypatch.setattr(gp_mod, "detect_dense_tail",
                            lambda M: calls.append(M.n_cols) or detect(M))
        again = basker.factor(A, sym)
        assert calls == []
        assert sorted(again.fine_lu) == sorted(first.fine_lu)
        for k, lu in first.fine_lu.items():
            for a, b in ((again.fine_lu[k].L, lu.L), (again.fine_lu[k].U, lu.U)):
                for name in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))
            assert dataclasses.asdict(again.fine_lu[k].ledger) == dataclasses.asdict(lu.ledger)
        assert np.array_equal(again.row_perm, first.row_perm)
        assert dataclasses.asdict(again.ledger) == dataclasses.asdict(first.ledger)
