"""Tests for the parallel triangular solve and the iterative substrate."""

import itertools

import numpy as np
import pytest

from repro.core.parsolve import parallel_lower_solve, parallel_upper_solve
from repro.iterative import ILU0Preconditioner, gmres, ilu0
from repro.matrices import get_matrix
from repro.parallel import SANDY_BRIDGE
from repro.solvers import KLU, gp_factor
from repro.sparse import CSC, solve_residual
from repro.sparse.ops import lower_solve, upper_solve
from repro.sparse.schedule import triangular_schedule

from .helpers import parallel_solve_reference, random_spd_like


def _factors(n, seed, density=0.1):
    rng = np.random.default_rng(seed)
    A = random_spd_like(n, density, rng)
    lu = gp_factor(A)
    return A, lu, rng


def _levels(T, kind):
    """Rows of each level of the compiled solve schedule, in order."""
    sched = triangular_schedule(T, kind)
    return [sched.order[lo:hi] for lo, hi, _ in sched.levels]


class TestLevelSchedule:
    """The level sets the parallel solve replays, read from the compiled
    schedule."""

    def test_levels_partition_rows(self):
        _, lu, _ = _factors(40, 0)
        levels = _levels(lu.L, "lower")
        allrows = np.concatenate(levels)
        assert sorted(allrows.tolist()) == list(range(40))

    def test_level_zero_rows_have_no_deps(self):
        _, lu, _ = _factors(30, 1)
        levels = _levels(lu.L, "lower")
        Lt = lu.L.transpose()
        for i in levels[0]:
            deps, _ = Lt.col(int(i))
            assert np.all(deps >= i)  # only the diagonal

    def test_diagonal_matrix_single_level(self):
        levels = _levels(CSC.identity(7), "lower")
        assert len(levels) == 1
        assert max(lv.size for lv in levels) == 7

    def test_dense_lower_chain(self):
        d = np.tril(np.ones((5, 5)))
        levels = _levels(CSC.from_dense(d), "lower")
        assert len(levels) == 5  # fully sequential

    def test_upper_levels_reversed(self):
        d = np.triu(np.ones((4, 4)))
        levels = _levels(CSC.from_dense(d), "upper")
        # Row 3 first (level 0), then 2, 1, 0.
        assert [int(lv[0]) for lv in levels] == [3, 2, 1, 0]


class TestParallelTriangularSolve:
    def test_matches_serial_lower(self):
        _, lu, rng = _factors(60, 2)
        b = rng.standard_normal(60)
        x_ref = lower_solve(lu.L, b)
        x, sched = parallel_lower_solve(lu.L, b, n_threads=4, machine=SANDY_BRIDGE)
        assert np.allclose(x, x_ref)
        assert sched is not None and sched.makespan > 0

    def test_matches_serial_upper(self):
        _, lu, rng = _factors(60, 3)
        b = rng.standard_normal(60)
        x_ref = upper_solve(lu.U, b)
        x, sched = parallel_upper_solve(lu.U, b, n_threads=4, machine=SANDY_BRIDGE)
        assert np.allclose(x, x_ref)

    def test_no_machine_means_no_schedule(self):
        _, lu, rng = _factors(20, 4)
        x, sched = parallel_lower_solve(lu.L, rng.standard_normal(20))
        assert sched is None

    def test_speedup_on_wide_levels(self):
        """A forest-like L (many independent rows) parallelizes well."""
        rng = np.random.default_rng(5)
        n = 400
        # Block-diagonal of many small lower triangles: wide levels.
        rows, cols, vals = [], [], []
        for b in range(100):
            off = 4 * b
            for i in range(4):
                for j in range(i + 1):
                    rows.append(off + i)
                    cols.append(off + j)
                    vals.append(1.0 if i == j else rng.random())
        L = CSC.from_coo(rows, cols, vals, (n, n))
        b_vec = rng.standard_normal(n)
        _, s1 = parallel_lower_solve(L, b_vec, n_threads=1, machine=SANDY_BRIDGE)
        _, s8 = parallel_lower_solve(L, b_vec, n_threads=8, machine=SANDY_BRIDGE)
        assert s1.makespan / s8.makespan > 3.0

    def test_reused_levels(self):
        _, lu, rng = _factors(30, 6)
        sched = triangular_schedule(lu.L, "lower")
        b = rng.standard_normal(30)
        x1, _ = parallel_lower_solve(lu.L, b)
        assert triangular_schedule(lu.L, "lower") is sched  # levels reused
        assert np.allclose(x1, lower_solve(lu.L, b))

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            parallel_lower_solve(CSC.identity(3), np.zeros(4))


@pytest.mark.parametrize("name", ["Power0*+", "Xyce0*", "circuit_4", "memplus"])
@pytest.mark.parametrize("kind", ["lower", "upper"])
def test_simulated_schedule_matches_per_row_oracle(name, kind):
    """The chunk DAG rebuilt on the compiled levels is the per-row
    scheduler's, task for task, with the same makespan."""
    A = get_matrix(name)
    lu = gp_factor(A)
    T = lu.L if kind == "lower" else lu.U
    b = np.random.default_rng(14).standard_normal(A.n_rows)
    for p in (1, 4, 16):
        if kind == "lower":
            x, sched = parallel_lower_solve(T, b, n_threads=p, machine=SANDY_BRIDGE)
        else:
            x, sched = parallel_upper_solve(T, b, n_threads=p, machine=SANDY_BRIDGE)
        x_ref, ref = parallel_solve_reference(T, b, kind == "lower", kind == "lower",
                                              p, SANDY_BRIDGE)
        assert np.allclose(x, x_ref, rtol=1e-10, atol=1e-12)
        assert len(sched.tasks) == len(ref.tasks)
        for t, r in zip(sched.tasks, ref.tasks):
            assert vars(t.ledger) == vars(r.ledger)
            assert (t.tid, list(t.deps), t.thread, t.label, t.p2p_syncs) == (
                r.tid, list(r.deps), r.thread, r.label, r.p2p_syncs)
            assert (list(t.reads), list(t.writes)) == (list(r.reads), list(r.writes))
        assert sched.makespan == ref.makespan


class TestILU0:
    def test_exact_when_no_fill_needed(self):
        """On a tridiagonal matrix ILU(0) equals the exact LU."""
        n = 20
        rng = np.random.default_rng(7)
        d = np.eye(n) * 4 + np.eye(n, k=1) * -1 + np.eye(n, k=-1) * -1
        A = CSC.from_dense(d)
        L, U = ilu0(A)
        from repro.sparse import matmat

        prod = matmat(L, U)
        assert np.allclose(prod.to_dense(), d, atol=1e-12)

    def test_pattern_restricted(self):
        rng = np.random.default_rng(8)
        A = random_spd_like(40, 0.08, rng)
        L, U = ilu0(A)
        pat = set(zip(A.indices.tolist(),
                      np.repeat(np.arange(A.n_cols), np.diff(A.indptr)).tolist()))
        col_of = np.repeat(np.arange(L.n_cols), np.diff(L.indptr))
        for i, j in zip(L.indices.tolist(), col_of.tolist()):
            assert i == j or (i, j) in pat
        col_of = np.repeat(np.arange(U.n_cols), np.diff(U.indptr))
        for i, j in zip(U.indices.tolist(), col_of.tolist()):
            assert (i, j) in pat or i == j

    def test_zero_diagonal_raises(self):
        from repro.errors import SingularMatrixError

        A = CSC.from_coo([1, 0], [0, 1], [1.0, 1.0], (2, 2))
        with pytest.raises(SingularMatrixError):
            ilu0(A)

    def test_preconditioner_applies(self):
        rng = np.random.default_rng(9)
        A = random_spd_like(30, 0.1, rng)
        M = ILU0Preconditioner(A)
        v = rng.standard_normal(30)
        y = M.apply(v)
        assert y.shape == (30,)
        assert np.all(np.isfinite(y))


class TestGMRES:
    def test_converges_on_easy_spd_like(self):
        rng = np.random.default_rng(10)
        A = random_spd_like(50, 0.1, rng)
        b = rng.standard_normal(50)
        res = gmres(A, b, tol=1e-10, restart=25, maxiter=200)
        assert res.converged
        assert solve_residual(A, res.x, b) < 1e-8

    def test_preconditioning_reduces_iterations(self):
        rng = np.random.default_rng(11)
        A = random_spd_like(80, 0.05, rng)
        # Make it less trivially conditioned.
        A = CSC(A.n_rows, A.n_cols, A.indptr, A.indices,
                A.data * (1 + 5 * rng.random(A.nnz)))
        b = rng.standard_normal(80)
        plain = gmres(A, b, tol=1e-10, restart=40, maxiter=400)
        M = ILU0Preconditioner(A)
        prec = gmres(A, b, M=M.apply, tol=1e-10, restart=40, maxiter=400)
        assert prec.converged
        assert prec.iterations <= plain.iterations

    def test_zero_rhs(self):
        A = CSC.identity(5)
        res = gmres(A, np.zeros(5))
        assert res.converged and np.allclose(res.x, 0.0)

    def test_maxiter_cap(self):
        rng = np.random.default_rng(12)
        A = random_spd_like(40, 0.2, rng)
        b = rng.standard_normal(40)
        res = gmres(A, b, tol=1e-16, maxiter=3, restart=3)
        assert res.iterations <= 3

    def test_matches_direct_solution(self):
        rng = np.random.default_rng(13)
        A = random_spd_like(40, 0.1, rng)
        b = rng.standard_normal(40)
        klu = KLU()
        x_direct = klu.solve(klu.factor(A), b)
        res = gmres(A, b, tol=1e-12, restart=40, maxiter=400)
        assert np.allclose(res.x, x_direct, atol=1e-6)
