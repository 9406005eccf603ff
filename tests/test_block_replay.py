"""Block right-hand sides replay a triangular schedule on level-ordered
rows (``_BlockPlan``): each level's unknowns are one slice and each
group of updates one whole-row scatter.  The layout must not change a
bit of the answer against the levels' own order of operations."""

import copy

import numpy as np
import pytest

from repro.analysis import audit_schedule_buffers
from repro.interface import DirectSolver
from repro.matrices import get_matrix
from repro.solvers.extras import solve_transpose
from repro.solvers.gp import gp_factor
from repro.solvers.triangular import btf_solve_plan
from repro.sparse import CSC
from repro.sparse.schedule import compile_triangular_schedule

from .helpers import random_spd_like


def level_replay(sched, data, b, unit_diag=False):
    """The levels' order of operations on unknowns in place: a narrow
    level divides and scatters one column at a time, a vector level
    sums each row's updates before it subtracts them."""
    x = np.array(b, dtype=np.float64, order="C")
    vals = data[sched.val_gather] if data.size else data
    for lv in sched.levels:
        if lv.scalar_cols is not None:
            for j, dj, lo, hi, rows in lv.scalar_cols:
                if not unit_diag:
                    x[j] /= data[dj]
                x[rows] -= np.multiply.outer(data[lo:hi], x[j])
            continue
        if not unit_diag:
            x[lv.cols] /= vals[lv.diag][:, None]
        if lv.seg_starts.size:
            prods = vals[lv.ents][:, None] * x[lv.ent_col]
            if lv.seg_starts.size < prods.shape[0]:
                prods = np.add.reduceat(prods, lv.seg_starts, axis=0)
            x[lv.seg_tgt] -= prods
    return x


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _btf_systems(name):
    """The forward and transposed BTF systems of KLU and Basker on
    ``name``, each with its values."""
    A = get_matrix(name)
    for solver, opts in (("klu", {}), ("basker", {"n_threads": 4})):
        ds = DirectSolver(solver, **opts)
        ds.symbolic_factorization(A)
        ds.numeric_factorization(A)
        num = ds._numeric
        solve_transpose(num, np.zeros(A.n_rows))
        plan = btf_solve_plan(num)
        t_data = plan.values(num.store, None if num.M is None else num.M.data)
        yield plan.schedule, t_data
        yield plan.t_schedule, t_data[plan.t_order]


@pytest.mark.parametrize("name", ["Power0*+", "hvdc2+", "circuit_4"])
def test_btf_block_replay_is_bit_identical_to_the_levels(name):
    rng = np.random.default_rng(11)
    for sched, data in _btf_systems(name):
        for k in (1, 3, 8):
            b = rng.standard_normal((sched.n, k))
            assert same_bits(sched.replay(data, b), level_replay(sched, data, b))


@pytest.mark.parametrize("seed", range(4))
def test_factor_block_replay_is_bit_identical_to_the_levels(seed):
    rng = np.random.default_rng(seed)
    lu = gp_factor(random_spd_like(80, 0.08, rng))
    b = rng.standard_normal((80, 5))
    for M, kind, unit in ((lu.L, "lower", True), (lu.U, "upper", False)):
        sched = compile_triangular_schedule(M, kind)
        got = sched.replay(M.data, b, unit_diag=unit)
        assert same_bits(got, level_replay(sched, M.data, b, unit_diag=unit))
        # Any memory layout of b gives the same bits.
        assert same_bits(sched.replay(M.data, np.asfortranarray(b), unit_diag=unit), got)
        wide = np.repeat(b, 2, axis=1)[:, ::2]
        assert same_bits(sched.replay(M.data, wide, unit_diag=unit), got)


def test_narrow_level_subtracts_one_column_at_a_time():
    """Columns 0 and 1 share a narrow level and both update row 3: the
    plan applies them in two rounds, never as one sum.  With both
    updates a quarter ulp of 1.0, each rounds away on its own, while
    their sum would take one ulp off."""
    tiny = 2.0 ** -54
    L = CSC(4, 4, np.array([0, 2, 4, 5, 6]), np.array([0, 3, 1, 3, 2, 3]),
            np.array([1.0, tiny, 1.0, tiny, 1.0, 1.0]))
    sched = compile_triangular_schedule(L, "lower")
    assert sched.levels[0].scalar_cols is not None
    b = np.ones((4, 2))
    x = sched.replay(L.data, b, unit_diag=True)
    assert np.all(x[3] == 1.0)
    assert len(sched.block_plan.levels[0][2]) == 2
    assert same_bits(x, level_replay(sched, L.data, b, unit_diag=True))


def test_block_plan_is_built_by_the_first_block_solve_only():
    rng = np.random.default_rng(3)
    lu = gp_factor(random_spd_like(30, 0.2, rng))
    sched = compile_triangular_schedule(lu.U, "upper")
    sched.replay(lu.U.data, rng.standard_normal(30))
    assert sched.block_plan is None  # one right-hand side never builds it
    sched.replay(lu.U.data, rng.standard_normal((30, 2)))
    plan = sched.block_plan
    assert plan is not None
    sched.replay(lu.U.data, rng.standard_normal((30, 4)))
    assert sched.block_plan is plan


def test_audit_covers_the_block_plan():
    (sched, data), *_ = _btf_systems("circuit_4")
    sched.replay(data, np.ones((sched.n, 2)))
    assert audit_schedule_buffers(sched) == []
    groups = [(s, g) for s, (_, _, gs) in enumerate(sched.block_plan.levels)
              for g, grp in enumerate(gs) if grp[4].size >= 2]
    s, g = groups[0]

    def corrupt(field, edit):
        bad = copy.deepcopy(sched)
        lo, hi, gs = bad.block_plan.levels[s]
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
