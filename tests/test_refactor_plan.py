"""The shared values-only refactor plan behind every ``refactor_fast``.

KLU, Basker and the supernodal solver replay a fixed-pattern sequence
through one :class:`repro.sparse.schedule.RefactorPlan`.  These tests
hold the plan to the loops it replaced: Basker's per-block
``gp_refactor`` loop (kept as ``basker_refactor_reference``) and the
supernodal solver's direct whole-matrix schedule, bit for bit.
"""

import collections
import copy
import dataclasses

import numpy as np
import pytest

from repro import DirectSolver
from repro.core import Basker
from repro.matrices import get_matrix
from repro.obs.tracer import Tracer, tracing
from repro.parallel.ledger import CostLedger
from repro.solvers import KLU, SupernodalLU
from repro.solvers.gp import GPResult, gp_factor, gp_refactor, gp_refactor_reference
from repro.solvers.klu import KLUNumeric
from repro.solvers.triangular import btf_factors
from repro.sparse import CSC
from repro.sparse.schedule import (
    BlockedRefactorSchedule,
    FactorPattern,
    compile_refactor_schedule,
    permutation_gather,
    refactor_plan,
)
from repro.xyce import matrix_sequence, xyce1_analog

from .helpers import basker_refactor_reference, random_spd_like


def _outages(name: str, count: int, seed: int) -> list:
    """The grid, then ``count`` same-pattern copies with one branch
    (an off-diagonal entry and its transpose) zeroed each."""
    A = get_matrix(name)
    col = np.repeat(np.arange(A.n_cols), np.diff(A.indptr))
    off = np.flatnonzero(A.indices != col)
    where = {(int(A.indices[e]), int(col[e])): int(e) for e in off}
    rng = np.random.default_rng(seed)
    seq = [A]
    for _ in range(count):
        e = int(off[rng.integers(off.size)])
        data = A.data.copy()
        data[e] = 0.0
        partner = where.get((int(col[e]), int(A.indices[e])))
        if partner is not None:
            data[partner] = 0.0
        seq.append(CSC(A.n_rows, A.n_cols, A.indptr, A.indices, data))
    return seq


def _rescaled(A: CSC, count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [A] + [CSC(A.n_rows, A.n_cols, A.indptr, A.indices,
                      A.data * rng.uniform(0.8, 1.25, A.nnz)) for _ in range(count)]


SEQUENCES = {
    "xyce1_analog": lambda: matrix_sequence(xyce1_analog(), 5),
    "Power0*+": lambda: _outages("Power0*+", 4, 1),
    "hvdc2+": lambda: _outages("hvdc2+", 4, 2),
    "random": lambda: _rescaled(random_spd_like(80, 0.05, np.random.default_rng(3)), 4, 4),
}


def _ledger(led) -> dict:
    return dataclasses.asdict(led)


def _assert_same_factors(got, want, k):
    """Equal values and patterns of two ``L`` (or ``U``) factors."""
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), (k, attr)


def _assert_same_basker(fast, ref):
    assert sorted(fast.fine_lu) == sorted(ref.fine_lu)
    assert sorted(fast.nd_numeric) == sorted(ref.nd_numeric)
    for k, lu in ref.fine_lu.items():
        got = fast.fine_lu[k]
        _assert_same_factors(got.L, lu.L, k)
        _assert_same_factors(got.U, lu.U, k)
        assert np.array_equal(got.row_perm, lu.row_perm), k
        assert _ledger(got.ledger) == _ledger(lu.ledger), k
    for k, nd in ref.nd_numeric.items():
        got = fast.nd_numeric[k]
        _assert_same_factors(got.L, nd.L, k)
        _assert_same_factors(got.U, nd.U, k)
        assert np.array_equal(got.piv, nd.piv), k
        assert _ledger(got.ledger) == _ledger(nd.ledger), k
        assert _ledger(got.overhead) == _ledger(nd.overhead), k
    assert _ledger(fast.ledger) == _ledger(ref.ledger)
    assert _ledger(fast.overhead_ledger) == _ledger(ref.overhead_ledger)
    assert np.array_equal(fast.M.data, ref.M.data)
    assert np.array_equal(fast.row_perm, ref.row_perm)
    assert fast.tasks == []


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_basker_refactor_fast_matches_per_block_reference(name):
    seq = SEQUENCES[name]()
    basker = Basker(n_threads=4)
    num = basker.factor(seq[0])
    if name == "xyce1_analog":
        # Both kinds of coarse block go through the one replay.
        assert num.fine_lu and num.nd_numeric
    with tracing(Tracer()) as tr:
        for A in seq[1:]:
            ref = basker_refactor_reference(A, num)
            num = basker.refactor_fast(A, num)
            _assert_same_basker(num, ref)
    # Every step was a replay, not a fresh factorization.
    assert tr.metrics.counter("basker.refactor.fallback") == 0


@pytest.mark.parametrize("name", ["circuit_4", "Xyce0*", "Power0*+", "memplus"])
def test_supernodal_refactor_fast_matches_direct_schedule(name):
    A0, A1 = _rescaled(get_matrix(name), 1, 5)
    slu = SupernodalLU()
    num = slu.factor(A0)
    assert num.perturbed_pivots == 0
    fast = slu.refactor_fast(A1, num)
    n = A1.n_rows
    m_indptr, m_indices, m_gather = permutation_gather(A1, num.row_perm, num.col_perm)
    M0 = CSC(n, n, m_indptr, m_indices, np.zeros(m_indices.size))
    sched = compile_refactor_schedule(num.L, num.U, M0, np.arange(n, dtype=np.int64))
    led = CostLedger()
    led.mem_words += A1.nnz
    Lx, Ux = sched.run(A1.data[m_gather], led)
    assert np.array_equal(fast.L.data, Lx)
    assert np.array_equal(fast.U.data, Ux)
    assert _ledger(fast.ledger) == _ledger(led)
    assert fast.tasks == []


# ----------------------------------------------------------------------
# One flop-counting rule: a replay books what a fresh factorization of
# the same pattern with the same pivots books, zero sources or not.
# ----------------------------------------------------------------------


def test_replay_counts_a_cancelled_source_like_a_fresh_factor():
    """Column 2's update through ``L(:, 1)`` has a source that cancels
    to exactly 0.0 (``0.5 - 0.5 * 1.0``); every path still counts it."""
    A = CSC.from_dense(np.array([[2.0, 0.0, 1.0], [1.0, 2.0, 0.5], [0.0, 1.0, 3.0]]))
    fresh = gp_factor(A)
    assert np.array_equal(fresh.row_perm, np.arange(3))
    assert fresh.U.get(1, 2) == 0.0
    want = fresh.ledger.sparse_flops
    assert want == 4.0  # two divisions, two updates
    for refactor in (gp_refactor, gp_refactor_reference):
        prior = GPResult(fresh.L, fresh.U, fresh.row_perm, CostLedger())
        assert refactor(A, prior).ledger.sparse_flops == want
    ident = np.arange(3, dtype=np.int64)
    plan = refactor_plan(None, "test", A, ident, ident, np.array([0, 3]))
    store, led = plan.replay(plan.permute(A.data).data,
                             FactorPattern([(fresh.L, fresh.U)]))
    assert np.array_equal(store.Ux, fresh.U.data)
    assert led.sparse_flops == want
    assert [lg.sparse_flops for lg in store.ledgers] == [want]


def _block_ledgers(num) -> list:
    """Per-block ledgers of a KLU numeric, or of an all-fine Basker one."""
    if isinstance(num, KLUNumeric):
        return num.block_ledgers
    assert not num.nd_numeric
    return [num.fine_lu[k].ledger for k in range(num.symbolic.n_blocks)]


@pytest.mark.parametrize("solver", [KLU, lambda: Basker(n_threads=4)], ids=["klu", "basker"])
def test_outage_replay_books_the_fresh_factorization_flops(solver):
    """Every outage step zeroes one branch.  The replay, ``gp_refactor``
    of each block and a fresh factorization with the same symbolic (and
    so the same pivots) book the same ``sparse_flops`` per block."""
    seq = _outages("Power0*+", 4, 1)
    s = solver()
    num = s.factor(seq[0])
    splits, blocks, _ = btf_factors(num)
    for A in seq[1:]:
        fast = s.refactor_fast(A, num)
        fresh = s.factor(A, num.symbolic)
        assert np.array_equal(fresh.row_perm, num.row_perm)
        for k, (got, want) in enumerate(zip(_block_ledgers(fast), _block_ledgers(fresh))):
            assert got.sparse_flops == want.sparse_flops, k
            lo, hi = int(splits[k]), int(splits[k + 1])
            prior = GPResult(*blocks[k], np.arange(hi - lo, dtype=np.int64), CostLedger())
            led = gp_refactor(fast.M.submatrix(lo, hi, lo, hi), prior).ledger
            assert led.sparse_flops == want.sparse_flops, k


@pytest.mark.parametrize("solver,prefix", [
    (KLU, "klu"), (lambda: Basker(n_threads=4), "basker"), (SupernodalLU, "supernodal"),
])
def test_sequence_compiles_once(solver, prefix):
    seq = matrix_sequence(xyce1_analog(), 6)
    s = solver()
    num = s.factor(seq[0])
    with tracing(Tracer()) as tr:
        for A in seq[1:]:
            num = s.refactor_fast(A, num)
    steps = len(seq) - 1
    m = tr.metrics
    for family in ("gather", "schedule"):
        assert m.counter(f"{prefix}.refactor.{family}.miss") == 1
        assert m.counter(f"{prefix}.refactor.{family}.hit") == steps - 1
        assert m.counter(f"{prefix}.refactor.{family}.invalidate") == 0
    # One replay per step: no per-block schedule lookups remain.
    assert m.counter("schedule.refactor.miss") == 0
    assert m.counter("schedule.refactor.hit") == 0


def test_basker_degenerate_pivot_falls_back_to_full_refactor():
    """A reused pivot that dies ends in ``refactor`` with fresh pivoting,
    whose result carries the task DAG the replay path omits."""
    rng = np.random.default_rng(22)
    A = CSC.from_dense(rng.standard_normal((6, 6)) + 8 * np.eye(6))
    col = np.repeat(np.arange(6), np.diff(A.indptr))
    A2 = CSC(6, 6, A.indptr, A.indices,
             np.where((A.indices == 0) & (col == 0), 0.0, A.data))
    basker = Basker(n_threads=1)
    num = basker.factor(A)
    with tracing(Tracer()) as tr:
        fast = basker.refactor_fast(A2, num)
    assert tr.metrics.counter("basker.refactor.fallback") == 1
    assert fast.tasks
    assert not np.array_equal(fast.row_perm, num.row_perm)
    b = np.arange(1.0, 7.0)
    assert np.abs(A2.to_dense() @ basker.solve(fast, b) - b).max() < 1e-10


def _two_blocks_with_a_dying_pivot():
    """An 11x11 matrix of two diagonal blocks (6x6 and 5x5, each
    ``standard_normal + 8 I``) and a same-pattern copy storing 0.0 at
    (0, 0)."""
    rng = np.random.default_rng(22)
    d = np.zeros((11, 11))
    d[:6, :6] = rng.standard_normal((6, 6)) + 8 * np.eye(6)
    d[6:, 6:] = rng.standard_normal((5, 5)) + 8 * np.eye(5)
    A = CSC.from_dense(d)
    col = np.repeat(np.arange(11), np.diff(A.indptr))
    return A, CSC(11, 11, A.indptr, A.indices,
                  np.where((A.indices == 0) & (col == 0), 0.0, A.data))


@pytest.mark.parametrize("solver,prefix", [
    (KLU, "klu"), (lambda: Basker(n_threads=1), "basker"), (SupernodalLU, "supernodal"),
], ids=["klu", "basker", "supernodal"])
def test_a_fallback_step_returns_what_refactor_returns(solver, prefix):
    """Every solver falls back the same way: a reused pivot that dies
    makes ``refactor_fast`` return exactly the result of ``refactor``,
    counted once as ``<prefix>.refactor.fallback``."""
    A, A2 = _two_blocks_with_a_dying_pivot()
    s = solver()
    num = s.factor(A)
    with tracing(Tracer()) as tr:
        fast = s.refactor_fast(A2, num)
    assert tr.metrics.counter(f"{prefix}.refactor.fallback") == 1
    full = s.refactor(A2, num)
    _, fast_blocks, fast_M = btf_factors(fast)
    _, full_blocks, full_M = btf_factors(full)
    assert len(fast_blocks) == len(full_blocks)
    for got, want in zip(fast_blocks, full_blocks):
        for g, w in zip(got, want):
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(g, attr), getattr(w, attr)), attr
    assert np.array_equal(fast.row_perm, full.row_perm)
    if full_M is not None:
        assert np.array_equal(fast_M.data, full_M.data)
    assert _ledger(fast.ledger) == _ledger(full.ledger)


@pytest.mark.parametrize("solver,prefix", [
    (KLU, "klu"), (lambda: Basker(n_threads=4), "basker"), (SupernodalLU, "supernodal"),
])
def test_invalidate_caches_drops_refactor_plan(solver, prefix):
    A0, A1, A2 = _rescaled(get_matrix("circuit_4"), 2, 6)
    s = solver()
    num = s.refactor_fast(A1, s.factor(A0))
    assert num.refactor_plan is not None
    num.invalidate_caches()
    assert num.refactor_plan is None
    with tracing(Tracer()) as tr:
        again = s.refactor_fast(A2, num)
    assert tr.metrics.counter(f"{prefix}.refactor.gather.miss") == 1
    assert again.refactor_plan is not None


# ----------------------------------------------------------------------
# One factor store: the replay writes it, the solve reads it, and the
# per-block factors are views of it.
# ----------------------------------------------------------------------


def _klu_refactor_reference(A: CSC, numeric) -> list:
    """Per-block ``gp_refactor`` of ``A`` on the blocks of a KLU numeric
    with identity pivot orders: the GP results a replay's views equal."""
    splits = numeric.symbolic.block_splits
    M = A.permute(numeric.row_perm, numeric.col_perm)
    out = []
    for k, lu in enumerate(numeric.block_lu):
        lo, hi = int(splits[k]), int(splits[k + 1])
        fixed = GPResult(lu.L, lu.U, np.arange(hi - lo, dtype=np.int64), CostLedger())
        out.append(gp_refactor(M.submatrix(lo, hi, lo, hi), fixed, ledger=CostLedger()))
    return out


def _block_views(num) -> list:
    """Every block's ``(L, U)`` as the numeric's named views give them."""
    if isinstance(num, KLUNumeric):
        return [(lu.L, lu.U) for lu in num.block_lu]
    views = [(f.L, f.U) for f in (*num.fine_lu.values(), *num.nd_numeric.values())]
    return views + [num.block_factors(k) for k in (*num.fine_lu, *num.nd_numeric)]


@pytest.mark.parametrize("solver", ["klu", "basker"])
def test_store_views_share_its_memory_and_equal_the_per_block_factors(solver):
    """Fresh and replayed numerics: every block's factors are views of
    the store, a write through one changes the next solve, and the views
    a replay builds on first access equal the per-block refactorization
    in values, patterns, identity pivot orders and ledgers."""
    seq = matrix_sequence(xyce1_analog(), 2)
    s = KLU() if solver == "klu" else Basker(n_threads=4)
    fresh = s.factor(seq[0])
    replayed = s.refactor_fast(seq[1], fresh)
    b = np.random.default_rng(0).standard_normal(seq[0].n_rows)
    splits = fresh.symbolic.block_splits
    k = int(np.argmax(np.diff(splits)))
    for num in (fresh, replayed):
        views = _block_views(num)
        assert len(views) >= splits.size - 1
        for L, U in views:
            assert np.shares_memory(L.data, num.store.Lx)
            assert np.shares_memory(U.data, num.store.Ux)
        U = num.block_lu[k].U if solver == "klu" else num.block_factors(k)[1]
        x0 = s.solve(num, b)
        old = U.data[-1]  # the block's last U diagonal
        U.data[-1] = 2.0 * old
        assert not np.array_equal(s.solve(num, b), x0)
        U.data[-1] = old
        assert np.array_equal(s.solve(num, b), x0)
    if solver == "basker":
        assert replayed.fine_lu and replayed.nd_numeric
        _assert_same_basker(replayed, basker_refactor_reference(seq[1], fresh))
        return
    ref = _klu_refactor_reference(seq[1], fresh)
    assert len(replayed.block_lu) == len(ref) == splits.size - 1
    for j, (got, want) in enumerate(zip(replayed.block_lu, ref)):
        _assert_same_factors(got.L, want.L, j)
        _assert_same_factors(got.U, want.U, j)
        assert np.array_equal(got.row_perm, np.arange(got.L.n_cols)), j
        assert _ledger(got.ledger) == _ledger(want.ledger), j
    assert [_ledger(led) for led in replayed.block_ledgers] == [_ledger(lu.ledger) for lu in ref]


@pytest.mark.parametrize("solver", ["klu", "basker"])
def test_warm_op_python_work_does_not_grow_with_the_block_count(solver, monkeypatch):
    """A warm op (values-only refactorization plus a solve) builds no
    per-block objects: on xyce1_analog's 125 blocks it constructs
    exactly as many ``CSC``, ``GPResult`` and ``CostLedger`` objects as
    on a 2-block matrix, a small constant."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CSC, "__init__", counting("CSC", CSC.__init__))
    monkeypatch.setattr(GPResult, "__init__", counting("GPResult", GPResult.__init__))
    monkeypatch.setattr(CostLedger, "__init__", counting("CostLedger", CostLedger.__init__))
    two_blocks = _two_blocks_with_a_dying_pivot()[0]
    per_op = []
    for seq, n_blocks in ((matrix_sequence(xyce1_analog(), 3), 125),
                          (_rescaled(two_blocks, 2, 8), 2)):
        ds = DirectSolver(solver, n_threads=4) if solver == "basker" else DirectSolver(solver)
        b = np.ones(seq[0].n_rows)
        ds.numeric_factorization(seq[0])
        assert ds._numeric.symbolic.n_blocks == n_blocks
        ds.numeric_factorization(seq[1])  # the first replay and solve compile
        ds.solve(b)
        counts.clear()
        with tracing(Tracer()) as tr:
            ds.numeric_factorization(seq[2])
            ds.solve(b)
        assert tr.metrics.counter(f"{solver}.refactor.schedule.hit") == 1
        assert tr.metrics.counter("schedule.tri.hit") == 1
        per_op.append(dict(counts))
    assert per_op[0] == per_op[1]
    assert sum(per_op[0].values()) <= 4


def test_replay_matches_its_pattern_by_identity_then_by_value():
    """A replay passes the prior pattern object on unchanged; an equal
    but distinct pattern object still hits the compiled schedule and is
    adopted, and the replay lays its store out by it."""
    A0, A1 = _rescaled(get_matrix("circuit_4"), 1, 9)
    klu = KLU()
    num = klu.factor(A0)
    fast = klu.refactor_fast(A1, num)
    assert fast.store.pattern is num.store.pattern
    plan = fast.refactor_plan
    twin = FactorPattern(num.store.blocks())
    assert twin is not num.store.pattern and twin.same(num.store.pattern)
    with tracing(Tracer()) as tr:
        store, led = plan.replay(fast.M.data, twin)
    assert tr.metrics.counter("klu.refactor.schedule.hit") == 1
    assert plan.pattern is twin and store.pattern is twin
    assert np.array_equal(store.Lx, fast.store.Lx)
    assert np.array_equal(store.Ux, fast.store.Ux)
    assert _ledger(led) == _ledger(plan.ledger)


def test_plan_audits_cover_the_replayed_refactor_plan():
    """``analyze {shapes,all} --plans`` audits the blocked schedule KLU
    and Basker replay, and a corrupted copy trips the audit with E4."""
    from repro.analysis import audit_schedule_buffers
    from repro.cli import _solver_plans

    plans = {solver: refactor for solver, _, refactor in _solver_plans(get_matrix("circuit_4"))}
    assert set(plans) == {"klu", "basker"}
    for plan in plans.values():
        assert isinstance(plan, BlockedRefactorSchedule)
        assert audit_schedule_buffers(plan.schedule) == []
        assert audit_schedule_buffers(plan) == []
        bad = copy.deepcopy(plan)
        stage = next(st for st in bad.schedule.stages if st.seg_tgt.size >= 2)
        stage.seg_tgt[1] = stage.seg_tgt[0]
        finds = audit_schedule_buffers(bad.schedule)
        assert finds and all(f.code == "E4" for f in finds)
        assert audit_schedule_buffers(bad) != []
