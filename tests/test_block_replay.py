"""A triangular schedule replays on level-ordered rows: each level's
unknowns are one slice and each group of updates one scatter, for one
right-hand side or a block alike.  The layout must not change a bit of
the answer against the levels' own order of operations, and a block's
columns must each come out as their one-column solve."""

import copy

import numpy as np
import pytest

from repro.analysis import audit_schedule_buffers
from repro.core import Basker
from repro.interface import DirectSolver
from repro.matrices import get_matrix
from repro.solvers import KLU, SupernodalLU
from repro.solvers.extras import solve_transpose
from repro.solvers.gp import gp_factor
from repro.solvers.triangular import btf_solve, btf_solve_plan
from repro.sparse import CSC
from repro.sparse.schedule import _btf_system, compile_triangular_schedule

from .helpers import level_replay, random_spd_like


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _btf_systems(name):
    """The forward and transposed BTF systems of KLU and Basker on
    ``name``: each schedule with its values and its matrix."""
    A = get_matrix(name)
    for solver, opts in (("klu", {}), ("basker", {"n_threads": 4})):
        ds = DirectSolver(solver, **opts)
        ds.symbolic_factorization(A)
        ds.numeric_factorization(A)
        num = ds._numeric
        solve_transpose(num, np.zeros(A.n_rows))
        plan = btf_solve_plan(num)
        t_data = plan.values(num.store, None if num.M is None else num.M.data)
        T = _btf_system(*plan.key[:3])[0]
        yield plan.schedule, t_data, CSC(T.n_rows, T.n_cols, T.indptr, T.indices, t_data)
        Tt = CSC(T.n_rows, T.n_cols, T.indptr, T.indices, t_data).transpose()
        yield plan.t_schedule, t_data[plan.t_order], Tt


@pytest.mark.parametrize("name", ["Power0*+", "hvdc2+", "circuit_4"])
def test_btf_block_replay_is_bit_identical_to_the_levels(name):
    rng = np.random.default_rng(11)
    for sched, data, T in _btf_systems(name):
        assert same_bits(T.data, data)
        for shape in ((sched.n,), (sched.n, 1), (sched.n, 3), (sched.n, 8)):
            b = rng.standard_normal(shape)
            assert same_bits(sched.replay(data, b), level_replay(T, sched.kind, b))


@pytest.mark.parametrize("seed", range(4))
def test_factor_block_replay_is_bit_identical_to_the_levels(seed):
    rng = np.random.default_rng(seed)
    lu = gp_factor(random_spd_like(80, 0.08, rng))
    b = rng.standard_normal((80, 5))
    for M, kind, unit in ((lu.L, "lower", True), (lu.U, "upper", False)):
        sched = compile_triangular_schedule(M, kind)
        got = sched.replay(M.data, b, unit_diag=unit)
        assert same_bits(got, level_replay(M, kind, b, unit_diag=unit))
        assert same_bits(sched.replay(M.data, b[:, 0], unit_diag=unit),
                         level_replay(M, kind, b[:, 0], unit_diag=unit))
        # Any memory layout of b gives the same bits.
        assert same_bits(sched.replay(M.data, np.asfortranarray(b), unit_diag=unit), got)
        wide = np.repeat(b, 2, axis=1)[:, ::2]
        assert same_bits(sched.replay(M.data, wide, unit_diag=unit), got)


def test_narrow_level_subtracts_one_column_at_a_time():
    """Columns 0 and 1 share a narrow level and both update row 3: the
    schedule applies them in two rounds, never as one sum.  With both
    updates a quarter ulp of 1.0, each rounds away on its own, while
    their sum would take one ulp off."""
    tiny = 2.0 ** -54
    L = CSC(4, 4, np.array([0, 2, 4, 5, 6]), np.array([0, 3, 1, 3, 2, 3]),
            np.array([1.0, tiny, 1.0, tiny, 1.0, 1.0]))
    sched = compile_triangular_schedule(L, "lower")
    lo, hi, groups = sched.levels[0]
    assert hi - lo == 3 and len(groups) == 2
    for b in (np.ones(4), np.ones((4, 2))):
        x = sched.replay(L.data, b, unit_diag=True)
        assert np.all(x[3] == 1.0)
        assert same_bits(x, level_replay(L, "lower", b, unit_diag=True))


@pytest.mark.parametrize("name", ["Power0*+", "hvdc2+", "circuit_4", "Xyce0*"])
def test_block_columns_match_one_column_solves(name):
    """Column j of every (n, k) solve is the one-column solve of
    b[:, j], bit for bit, forward and transposed, for right-hand sides
    that hold exact zeros."""
    A = get_matrix(name)
    n = A.n_rows
    rng = np.random.default_rng(5)
    B = rng.standard_normal((n, 4))
    B[rng.random((n, 4)) < 0.5] = 0.0
    B[:, 1] = 0.0
    B[n // 2, 1] = 1.0  # a unit vector
    for solver in (KLU(), Basker(n_threads=4), SupernodalLU()):
        num = solver.factor(A)
        for transpose in (False, True):
            X = btf_solve(num, B, transpose=transpose)
            for j in range(B.shape[1]):
                assert same_bits(X[:, j], btf_solve(num, B[:, j], transpose=transpose))


def test_audit_covers_every_update_group():
    (sched, data, _), *_ = _btf_systems("circuit_4")
    assert audit_schedule_buffers(sched) == []
    groups = [(s, g) for s, (_, _, gs) in enumerate(sched.levels)
              for g, grp in enumerate(gs) if grp[4].size >= 2]
    s, g = groups[0]

    def corrupt(field, edit):
        bad = copy.deepcopy(sched)
        lo, hi, gs = bad.levels[s]
        edit(lo, hi, gs[g][field])
        return {f.code for f in audit_schedule_buffers(bad)}

    def dup(lo, hi, tgt):
        tgt[1] = tgt[0]

    def into_own_level(lo, hi, tgt):
        tgt[0] = lo

    def from_later_level(lo, hi, src):
        src[0] = hi

    assert corrupt(4, dup) == {"E4"}
    assert corrupt(4, into_own_level) == {"E4"}
    assert corrupt(2, from_later_level) == {"S1"}
