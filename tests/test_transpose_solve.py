"""Transpose and supernodal solves through the compiled BTF solve plan.

``A.T x = b`` replays the transposed system of the same
:class:`repro.sparse.schedule.BTFSolveSchedule` that the forward solve
uses, for KLU, Basker and the supernodal solvers; the supernodal
factors solve as a one-block BTF with no coupling.  The oracles are the
per-block, per-column loops in ``tests/helpers.py``.
"""

import copy

import numpy as np
import pytest

import repro.sparse.schedule as schedule_mod
from repro.core import Basker
from repro.errors import ZeroPivotError
from repro.matrices import get_matrix
from repro.solvers import KLU, SupernodalLU
from repro.solvers.extras import solve_transpose
from repro.solvers.supernodal import slu_mt
from repro.solvers.triangular import btf_factors, lu_solve_factors
from repro.sparse import CSC
from repro.sparse.verify import relative_error

from .helpers import btf_solve_transpose_reference

SOLVERS = {
    "klu": lambda: KLU(),
    "basker-fine": lambda: Basker(n_threads=1),
    "basker-nd4": lambda: Basker(n_threads=4),
    "basker-nd16": lambda: Basker(n_threads=16),
    "pmkl": lambda: SupernodalLU(),
    "slu-mt": lambda: slu_mt(),
}
MATRICES = ["circuit_4", "Xyce0*", "memplus"]


def _rescaled(A: CSC, seed: int) -> CSC:
    rng = np.random.default_rng(seed)
    return CSC(A.n_rows, A.n_cols, A.indptr, A.indices,
               A.data * rng.uniform(0.9, 1.1, A.nnz))


@pytest.mark.parametrize("matrix", MATRICES)
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_transpose_matches_block_loop(name, matrix):
    A = get_matrix(matrix)
    s = SOLVERS[name]()
    num = s.factor(A)
    if name.startswith("basker-nd"):
        assert num.nd_numeric  # the ND path is exercised
    b = np.random.default_rng(0).standard_normal(A.n_rows)
    x = solve_transpose(num, b)
    assert relative_error(x, btf_solve_transpose_reference(num, b)) <= 1e-12
    assert np.abs(A.to_dense().T @ x - b).max() < 1e-8


@pytest.mark.parametrize("name", ["pmkl", "slu-mt"])
@pytest.mark.parametrize("k", [None, 1, 8, 0])
def test_supernodal_solve_matches_lu_solve_factors(name, k):
    A = get_matrix("Xyce0*")
    s = SOLVERS[name]()
    num = s.factor(A)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(A.n_rows if k is None else (A.n_rows, k))
    x = s.solve(num, b)
    ref = np.empty_like(b)
    ref[num.col_perm] = lu_solve_factors(num.L, num.U, b[num.row_perm])
    assert x.shape == b.shape
    assert relative_error(x, ref) <= 1e-12
    assert num.solve_plan is not None
    assert btf_factors(num)[2] is None  # one block, no coupling


@pytest.mark.parametrize("name", ["klu", "basker-nd4", "pmkl"])
@pytest.mark.parametrize("transpose", [False, True])
def test_zero_u_diagonal_names_the_column_of_a(name, transpose):
    A = get_matrix("circuit_4")
    s = SOLVERS[name]()
    num = s.factor(A)
    splits, blocks, _ = btf_factors(num)
    blk = max(range(len(blocks)), key=lambda k: splits[k + 1] - splits[k])
    U = blocks[blk][1]
    U.data[U.indptr[1] - 1] = 0.0  # local column 0's diagonal, stored last
    b = np.ones(A.n_rows)
    with pytest.raises(ZeroPivotError) as exc_info:
        solve_transpose(num, b) if transpose else s.solve(num, b)
    assert exc_info.value.column == num.col_perm[splits[blk]]


@pytest.fixture
def count_compiles(monkeypatch):
    """Counts of ``compile_triangular_schedule`` calls, by kind."""
    counts = {"lower": 0, "upper": 0}
    real = schedule_mod.compile_triangular_schedule

    def counting(M, kind):
        counts[kind] += 1
        return real(M, kind)

    monkeypatch.setattr(schedule_mod, "compile_triangular_schedule", counting)
    return counts


@pytest.mark.parametrize("name", ["klu", "basker-nd4", "pmkl"])
def test_transposed_schedule_compiles_once_over_refactor_sequence(name, count_compiles):
    A = get_matrix("circuit_4")
    s = SOLVERS[name]()
    num = s.factor(A)
    b = np.random.default_rng(1).standard_normal(A.n_rows)
    solve_transpose(num, b)
    plan = num.solve_plan
    t_schedule = plan.t_schedule
    assert t_schedule is not None and count_compiles == {"lower": 1, "upper": 1}
    for step in range(3):
        A = _rescaled(A, step)
        num = s.refactor_fast(A, num)
        x = solve_transpose(num, b)
        s.solve(num, b)
        assert num.solve_plan is plan and plan.t_schedule is t_schedule
        assert relative_error(x, btf_solve_transpose_reference(num, b)) <= 1e-12
    assert count_compiles == {"lower": 1, "upper": 1}
    # Eviction drops both directions; the next transpose recompiles.
    assert num.invalidate_caches() == 1
    assert num.solve_plan is None
    solve_transpose(num, b)
    assert num.solve_plan.t_schedule is not t_schedule
    assert count_compiles == {"lower": 2, "upper": 2}


def test_forward_solves_leave_the_transpose_uncompiled():
    A = get_matrix("circuit_4")
    s = KLU()
    num = s.factor(A)
    s.solve(num, np.ones(A.n_rows))
    assert num.solve_plan.t_schedule is None and num.solve_plan.t_order is None


def test_plan_audits_cover_the_transposed_system():
    """``analyze {shapes,all} --plans`` audits the transposed system of
    the KLU and Basker solve plans, and corrupted copies trip it: E4 for
    a shared scatter target, S1 for a broken value order."""
    from repro.analysis import audit_schedule_buffers
    from repro.cli import _solver_plans

    plans = {solver: solve for solver, solve, _ in _solver_plans(get_matrix("circuit_4"))}
    assert set(plans) == {"klu", "basker"}
    for plan in plans.values():
        assert plan.t_schedule is not None
        assert audit_schedule_buffers(plan.t_schedule) == []
        assert audit_schedule_buffers(plan) == []
        bad = copy.deepcopy(plan)
        tgt = next(grp[4] for _, _, groups in bad.t_schedule.levels for grp in groups
                   if grp[4].size >= 2)
        tgt[1] = tgt[0]  # one group, one target twice
        finds = audit_schedule_buffers(bad.t_schedule)
        assert finds and all(f.code == "E4" for f in finds)
        bad = copy.deepcopy(plan)
        bad.t_order[1] = bad.t_order[0]  # a value read twice, one never
        assert any(f.code == "S1" and "t_order" in f.message
                   for f in audit_schedule_buffers(bad))
