"""Vectorized elimination schedules vs the reference loop oracles.

The level-scheduled kernels in :mod:`repro.sparse.schedule` must be
*replays* of the per-column reference loops: values within roundoff
(summation order differs), ledger counts identical, errors equivalent.
These properties are what let the fast path replace the loops in the
solvers without perturbing any cost-model experiment.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.wallclock import _klu_refactor_reference, check_regression
from repro.core import Basker
from repro.errors import SingularMatrixError
from repro.interface import DirectSolver
from repro.matrices import get_matrix
from repro.obs import Tracer, tracing
from repro.parallel.ledger import CostLedger
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.solvers import KLU, SupernodalLU
from repro.solvers.gp import (
    GPResult,
    ensure_refactor_schedule,
    gp_factor,
    gp_refactor,
    gp_refactor_reference,
)
from repro.sparse import (
    CSC,
    lower_solve,
    lower_solve_reference,
    upper_solve,
    upper_solve_reference,
)
from repro.sparse.schedule import (
    BlockedRefactorSchedule,
    compile_triangular_schedule,
    triangular_schedule,
)
from repro.sparse.verify import factorization_residual

from .helpers import random_spd_like

LEDGER_FIELDS = ("sparse_flops", "dense_flops", "dfs_steps", "mem_words", "columns")


def assert_ledgers_equal(a: CostLedger, b: CostLedger, context: str = "") -> None:
    for f in LEDGER_FIELDS:
        assert getattr(a, f) == getattr(b, f), (
            f"{context} ledger field {f}: {getattr(a, f)} != {getattr(b, f)}"
        )


def perturbed_values(A: CSC, rng: np.random.Generator) -> CSC:
    """Same pattern, jittered values (keeps diagonal dominance)."""
    data = A.data * (1.0 + 0.01 * rng.standard_normal(A.nnz))
    return CSC(A.n_rows, A.n_cols, A.indptr, A.indices, data)


# ----------------------------------------------------------------------
# gp_refactor vs gp_refactor_reference
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(5, 60), st.floats(0.02, 0.4), st.integers(0, 10_000))
def test_gp_refactor_matches_reference(n, density, seed):
    rng = np.random.default_rng(seed)
    A = random_spd_like(n, density, rng)
    prior = gp_factor(A)
    B = perturbed_values(A, rng)

    led_ref = CostLedger()
    ref = gp_refactor_reference(B, prior, ledger=led_ref)
    led_vec = CostLedger()
    vec = gp_refactor(B, prior, ledger=led_vec)

    assert np.allclose(vec.L.data, ref.L.data, rtol=0, atol=1e-12)
    assert np.allclose(vec.U.data, ref.U.data, rtol=0, atol=1e-12)
    assert np.array_equal(vec.row_perm, ref.row_perm)
    assert_ledgers_equal(led_vec, led_ref, "gp_refactor")


@settings(max_examples=10, deadline=None)
@given(st.integers(5, 40), st.integers(0, 10_000))
def test_gp_refactor_residual(n, seed):
    rng = np.random.default_rng(seed)
    A = random_spd_like(n, 0.2, rng)
    prior = gp_factor(A)
    B = perturbed_values(A, rng)
    lu = gp_refactor(B, prior)
    assert factorization_residual(B, lu.L, lu.U, lu.row_perm) < 1e-10


def test_gp_refactor_schedule_cached_and_propagated():
    rng = np.random.default_rng(7)
    A = random_spd_like(30, 0.2, rng)
    prior = gp_factor(A)
    with tracing(Tracer()) as tr:
        r1 = gp_refactor(perturbed_values(A, rng), prior)
        assert r1.schedule is not None
        assert prior.schedule is r1.schedule  # cached on the prior too
        # The chain keeps reusing the same compiled object...
        r2 = gp_refactor(perturbed_values(A, rng), r1)
        assert r2.schedule is r1.schedule
        # ...because the pattern arrays are shared, so revalidation is O(1).
        assert r2.L.indptr is r1.L.indptr
        assert ensure_refactor_schedule(r2, A) is r1.schedule
    # Cache metrics see one compile, then reuse on every later call.
    assert tr.metrics.counter("schedule.refactor.miss") == 1
    assert tr.metrics.counter("schedule.refactor.hit") == 2
    assert tr.metrics.counter("schedule.refactor.invalidate") == 0


def test_gp_refactor_schedule_invalidated_on_pattern_change():
    n = 30
    rng = np.random.default_rng(11)
    A = random_spd_like(n, 0.2, rng)
    prior = gp_factor(A)
    tr = Tracer()
    with tracing(tr):
        sched_a = ensure_refactor_schedule(prior, A)
        # Same pattern in different array objects: revalidates by
        # equality, no recompile.
        A_eq = CSC(n, n, A.indptr.copy(), A.indices.copy(), A.data.copy())
        assert ensure_refactor_schedule(prior, A_eq) is sched_a
    assert tr.metrics.counter("schedule.refactor.miss") == 1
    assert tr.metrics.counter("schedule.refactor.hit") == 1
    # Dropping an off-diagonal entry changes the input pattern (still a
    # subset of the factor pattern): the cache must recompile, not
    # replay the stale scatter.
    col_of = np.repeat(np.arange(n), np.diff(A.indptr))
    keep = np.ones(A.nnz, dtype=bool)
    keep[np.flatnonzero(A.indices != col_of)[0]] = False
    indptr2 = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(col_of[keep], minlength=n), out=indptr2[1:])
    A_sub = CSC(n, n, indptr2, A.indices[keep], A.data[keep])
    with tracing(Tracer()) as tr2:
        sched_b = ensure_refactor_schedule(prior, A_sub)
    assert sched_b is not sched_a
    assert prior.schedule is sched_b
    # The stale schedule registers as an invalidation, not a plain miss.
    assert tr2.metrics.counter("schedule.refactor.invalidate") == 1
    assert tr2.metrics.counter("schedule.refactor.hit") == 0
    # And the recompiled replay still matches the reference loop.
    led_v, led_r = CostLedger(), CostLedger()
    vec = gp_refactor(A_sub, prior, ledger=led_v)
    ref = gp_refactor_reference(A_sub, prior, ledger=led_r)
    assert np.allclose(vec.L.data, ref.L.data, rtol=0, atol=1e-12)
    assert np.allclose(vec.U.data, ref.U.data, rtol=0, atol=1e-12)
    assert_ledgers_equal(led_v, led_r, "after pattern change")


def test_gp_refactor_singular_pivot_raises_like_reference():
    rng = np.random.default_rng(3)
    A = random_spd_like(12, 0.3, rng)
    prior = gp_factor(A)
    # Zeroing every entry of one column drives its reused pivot to 0.
    B = CSC(A.n_rows, A.n_cols, A.indptr, A.indices, A.data.copy())
    j = 5
    B.data[B.indptr[j]:B.indptr[j + 1]] = 0.0
    with pytest.raises(SingularMatrixError):
        gp_refactor_reference(B, prior)
    with pytest.raises(SingularMatrixError):
        gp_refactor(B, prior)


def _chains(lengths):
    """Independent lower bidiagonal chains (diagonal 4, subdiagonal 1),
    one after the other: chain column ``k`` sits in replay stage ``k``
    and each pivot is its diagonal entry, untouched by updates."""
    dense = np.zeros((sum(lengths), sum(lengths)))
    start = 0
    for m in lengths:
        for k in range(start, start + m):
            dense[k, k] = 4.0
            if k + 1 < start + m:
                dense[k + 1, k] = 1.0
        start += m
    return CSC.from_dense(dense)


def _singular_message(column):
    return (f"refactor: reused pivot at column {column} is unusable "
            f"({np.float64(0.0)!r}); refactor with fresh pivoting")


def _with_zeros(A, entries):
    B = CSC(A.n_rows, A.n_cols, A.indptr, A.indices, A.data.copy())
    for i, j in entries:
        lo, hi = B.indptr[j], B.indptr[j + 1]
        B.data[lo + int(np.flatnonzero(B.indices[lo:hi] == i)[0])] = 0.0
    return B


@pytest.mark.parametrize("zeros, column", [
    # Stages 1 and 3 of one chain: the earlier stage's column.
    ([(1, 1), (3, 3)], 1),
    # Stage 3 of the long chain (column 3) and stage 1 of the short one
    # (column 6): schedule order, not column order, decides.
    ([(3, 3), (6, 6)], 6),
    # Two zeros in one stage: the first column of that stage.
    ([(7, 7), (2, 2)], 2),
])
def test_first_zero_pivot_in_schedule_order_is_reported(zeros, column):
    """Pivots are checked once, after the sweep; with zero pivots in
    several stages the error names the first in schedule order, with
    the message of a check made stage by stage."""
    A = _chains([5, 3])
    prior = gp_factor(A)
    assert np.array_equal(prior.row_perm, np.arange(A.n_rows))
    with pytest.raises(SingularMatrixError) as exc:
        gp_refactor(_with_zeros(A, zeros), prior)
    assert exc.value.column == column
    assert str(exc.value) == _singular_message(column)


def test_failing_replay_raises_no_floating_point_warning():
    """The sweep runs past a zero pivot: dividing by it (``1/0``, ``0/0``)
    and multiplying its infinite multipliers (``inf * 0``) warn nothing,
    even with warnings raised as errors; the error is the singular
    pivot's."""
    n = 6
    dense = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    A = CSC.from_dense(dense)
    prior = gp_factor(A)
    assert np.array_equal(prior.row_perm, np.arange(n))
    # Column 2's pivot falls to 0, L[3, 2] = 1/0 and U[2, 3] = 0, so the
    # update of column 3 computes inf * 0.
    B = _with_zeros(A, [(1, 2), (2, 2), (2, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as exc:
            gp_refactor(B, prior)
    assert exc.value.column == 2
    assert str(exc.value) == _singular_message(2)


@pytest.mark.parametrize("frac, slot, column", [(0.3, 8969, 800), (0.7, 9143, 861)])
def test_pivot_zero_fault_zeroes_the_same_workspace_slot(frac, slot, column):
    """The workspace hook runs before the sweep and is handed every
    pivot slot in stage order, so a seeded ``pivot_zero`` fault zeroes
    the same slot, and the replay names the same column, as with one
    pivot check per stage (the pinned values)."""
    A = get_matrix("circuit_4")
    klu = KLU()
    num = klu.refactor_fast(A, klu.factor(A))
    plan = num.refactor_plan
    plan_faults = FaultPlan([FaultSpec("schedule.replay.workspace", "pivot_zero",
                                       frac=frac)])
    with pytest.raises(SingularMatrixError) as exc:
        with plan_faults:
            plan.replay(plan.permute(A.data).data, num.store.pattern)
    assert [e.index for e in plan_faults.events] == [slot]
    assert exc.value.column == column


# ----------------------------------------------------------------------
# Triangular solves vs reference loops
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 60), st.floats(0.05, 0.5), st.integers(0, 10_000))
def test_triangular_solves_match_reference(n, density, seed):
    rng = np.random.default_rng(seed)
    A = random_spd_like(n, density, rng)
    lu = gp_factor(A)
    b = rng.standard_normal(n)
    for M, ref, kwargs in (
        (lu.L, lower_solve_reference, {"unit_diag": True}),
        (lu.U, upper_solve_reference, {}),
    ):
        fast = lower_solve(M, b, **kwargs) if ref is lower_solve_reference else upper_solve(M, b)
        want = ref(M, b, **kwargs)
        assert np.allclose(fast, want, rtol=0, atol=1e-12)


def test_unit_lower_solve_of_an_empty_pattern():
    """A pattern with no entries has one wide level and no values to
    gather: with a unit diagonal the solve returns the right-hand side."""
    E = CSC.empty(6, 6)
    b = np.arange(6.0)
    assert np.array_equal(lower_solve(E, b, unit_diag=True), b)
    assert np.array_equal(lower_solve(E, np.outer(b, [1.0, 2.0]), unit_diag=True),
                          np.outer(b, [1.0, 2.0]))


def test_triangular_schedule_cached_on_matrix():
    rng = np.random.default_rng(5)
    lu = gp_factor(random_spd_like(25, 0.2, rng))
    with tracing(Tracer()) as tr:
        s1 = triangular_schedule(lu.L, "lower")
        s2 = triangular_schedule(lu.L, "lower")
        assert s1 is s2
        # A different matrix object compiles its own schedule.
        L2 = CSC(lu.L.n_rows, lu.L.n_cols, lu.L.indptr.copy(),
                 lu.L.indices.copy(), lu.L.data.copy())
        assert triangular_schedule(L2, "lower") is not s1
    assert tr.metrics.counter("schedule.tri.miss") == 2
    assert tr.metrics.counter("schedule.tri.hit") == 1
    # Compilation surfaces the level structure through the registry.
    assert tr.metrics.gauges["schedule.tri.lower.n_levels"] >= 1
    assert tr.metrics.stats["schedule.tri.level_width"]["count"] >= 1


def test_triangular_solve_error_parity():
    # Zero diagonal in U: same exception type and message.
    U = CSC(2, 2, np.array([0, 1, 2]), np.array([0, 1]), np.array([1.0, 0.0]))
    with pytest.raises(ZeroDivisionError) as e_ref:
        upper_solve_reference(U, np.ones(2))
    with pytest.raises(ZeroDivisionError) as e_vec:
        upper_solve(U, np.ones(2))
    assert str(e_vec.value) == str(e_ref.value)
    # Dimension mismatch: same ValueError.
    L = CSC.identity(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        lower_solve(L, np.ones(4))
    # Non-unit solve with an empty column.
    L0 = CSC(2, 2, np.array([0, 1, 1]), np.array([0]), np.array([2.0]))
    with pytest.raises(ZeroDivisionError) as e_ref:
        lower_solve_reference(L0, np.ones(2), unit_diag=False)
    with pytest.raises(ZeroDivisionError) as e_vec:
        lower_solve(L0, np.ones(2), unit_diag=False)
    assert str(e_vec.value) == str(e_ref.value)


def test_compile_triangular_rejects_wrong_kind():
    rng = np.random.default_rng(9)
    lu = gp_factor(random_spd_like(10, 0.3, rng))
    # Compiling an upper factor as "lower" still solves wrongly-ordered
    # systems consistently with the reference (which also doesn't
    # validate), so just check the compiled level count is sane.
    s = compile_triangular_schedule(lu.L, "lower")
    assert 1 <= len(s.levels) <= lu.L.n_cols


# ----------------------------------------------------------------------
# KLU: flattened sequence replay vs the reference sequence oracle
# ----------------------------------------------------------------------


def test_klu_refactor_fast_matches_reference_sequence():
    from repro.xyce import matrix_sequence, xyce1_analog

    seq = list(matrix_sequence(xyce1_analog(), n_matrices=4))
    klu = KLU()
    num_ref = klu.factor(seq[0])
    num_vec = klu.factor(seq[0])
    for A in seq[1:]:
        num_ref = _klu_refactor_reference(klu, A, num_ref)
        num_vec = klu.refactor_fast(A, num_vec)
        for lr, lv in zip(num_ref.block_lu, num_vec.block_lu):
            assert np.allclose(lv.L.data, lr.L.data, rtol=0, atol=1e-10)
            assert np.allclose(lv.U.data, lr.U.data, rtol=0, atol=1e-10)
        for br, bv in zip(num_ref.block_ledgers, num_vec.block_ledgers):
            assert_ledgers_equal(bv, br, "klu block")
        assert_ledgers_equal(num_vec.ledger, num_ref.ledger, "klu total")
    # The flattened all-blocks schedule compiled once and was reused.
    assert num_vec.refactor_plan is not None
    assert num_vec.refactor_plan.schedule is not None
    n = seq[-1].n_rows
    b = np.arange(n, dtype=float) % 5 + 1.0
    assert np.allclose(klu.solve(num_vec, b), klu.solve(num_ref, b),
                       rtol=0, atol=1e-8)


def test_blocked_refactor_schedule_direct():
    """Two independent diagonal blocks replayed in one schedule give
    the same values and grouped costs as per-block gp_refactor."""
    rng = np.random.default_rng(21)
    blocks = [random_spd_like(8, 0.3, rng), random_spd_like(5, 0.5, rng)]
    lus = [gp_factor(Ab) for Ab in blocks]
    # Permute each block's rows into pivot order: identity pivots then.
    perms = [lu.row_perm for lu in lus]
    pblocks = [Ab.permute(p) for Ab, p in zip(blocks, perms)]
    splits = np.array([0, 8, 13])
    pats = [(lu.L.indptr, lu.L.indices, lu.U.indptr, lu.U.indices) for lu in lus]
    offset = 0
    gathers = []
    for Pb in pblocks:
        gathers.append((Pb.indptr, Pb.indices,
                        np.arange(offset, offset + Pb.nnz)))
        offset += Pb.nnz
    replay = BlockedRefactorSchedule(splits, pats, gathers)
    m_data = np.concatenate([Pb.data for Pb in pblocks])
    Lx, Ux = replay.run(m_data)
    ledgers = replay.schedule.ledgers
    for k, (lu, Pb) in enumerate(zip(lus, pblocks)):
        led = CostLedger()
        prior = GPResult(lu.L, lu.U, np.arange(Pb.n_cols, dtype=np.int64),
                         CostLedger())
        fixed = gp_refactor(Pb, prior, ledger=led)
        assert np.allclose(Lx[replay.l_ptr[k]:replay.l_ptr[k + 1]],
                           fixed.L.data, rtol=0, atol=1e-12)
        assert np.allclose(Ux[replay.u_ptr[k]:replay.u_ptr[k + 1]],
                           fixed.U.data, rtol=0, atol=1e-12)
        assert ledgers[k].sparse_flops == led.sparse_flops
        assert ledgers[k].columns == led.columns
        assert ledgers[k].mem_words == led.mem_words


# ----------------------------------------------------------------------
# Solver fast paths: Basker, supernodal, DirectSolver wiring
# ----------------------------------------------------------------------


def _sequence(n, density, steps, seed):
    rng = np.random.default_rng(seed)
    A = random_spd_like(n, density, rng)
    return [A] + [perturbed_values(A, rng) for _ in range(steps)]


def test_basker_refactor_fast_residuals():
    seq = _sequence(80, 0.08, 3, seed=13)
    basker = Basker(n_threads=4)
    num = basker.factor(seq[0])
    for A in seq[1:]:
        num = basker.refactor_fast(A, num)
        x = basker.solve(num, np.ones(A.n_rows))
        r = np.abs(A.to_dense() @ x - 1.0).max()
        assert r < 1e-8


def test_supernodal_refactor_fast_residuals():
    seq = _sequence(60, 0.1, 3, seed=17)
    slu = SupernodalLU()
    num = slu.factor(seq[0])
    for A in seq[1:]:
        num = slu.refactor_fast(A, num)
        x = slu.solve(num, np.ones(A.n_rows))
        r = np.abs(A.to_dense() @ x - 1.0).max()
        assert r < 1e-8


@pytest.mark.parametrize("name", ["klu", "basker", "pardiso"])
def test_direct_solver_uses_fast_path(name):
    seq = _sequence(60, 0.1, 2, seed=19)
    solver = DirectSolver(name)
    solver.symbolic_factorization(seq[0])
    solver.numeric_factorization(seq[0])
    first_led = solver._numeric.ledger
    solver.numeric_factorization(seq[1])
    led = solver._numeric.ledger
    # Values-only replay: no reach DFS (klu/basker) and no dense panel
    # factorization (supernodal) on the repeat call.
    assert led.dfs_steps == 0 and led.dense_flops == 0
    assert first_led.dfs_steps > 0 or first_led.dense_flops > 0
    x = solver.solve(np.ones(seq[1].n_rows))
    assert np.abs(seq[1].to_dense() @ x - 1.0).max() < 1e-8


def test_direct_solver_pattern_change_falls_back():
    rng = np.random.default_rng(23)
    A = random_spd_like(40, 0.15, rng)
    B = random_spd_like(40, 0.25, rng)  # different pattern
    solver = DirectSolver("klu")
    solver.numeric_factorization(A)
    solver.numeric_factorization(B)  # must re-analyze, not replay
    x = solver.solve(np.ones(40))
    assert np.abs(B.to_dense() @ x - 1.0).max() < 1e-8


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------


def test_check_regression_flags_drops_and_floors():
    baseline = {
        "cases": {
            "refactor/x": {"speedup": 4.0},
            "solve/x": {"speedup": 3.5},
            "xyce_refactor_sequence": {"speedup": 8.0},
        },
        "floors": {"xyce_refactor_sequence": 5.0, "solve/": 3.0},
    }
    good = {
        "cases": {
            "refactor/x": {"speedup": 3.9},
            "solve/x": {"speedup": 3.4},
            "xyce_refactor_sequence": {"speedup": 7.5},
        },
    }
    assert check_regression(good, baseline, tolerance=0.25) == []
    slow = {
        "cases": {
            # >25% below baseline 4.0 -> relative failure.
            "refactor/x": {"speedup": 2.0},
            # Within 25% of baseline 3.5 but below the 3.0 floor.
            "solve/x": {"speedup": 2.8},
            # Relative failure *and* below the 5.0 floor.
            "xyce_refactor_sequence": {"speedup": 4.0},
        },
    }
    failures = check_regression(slow, baseline, tolerance=0.25)
    assert len(failures) == 4
    assert sum("refactor/x" in f for f in failures) == 1
    assert sum("solve/x" in f for f in failures) == 1
    assert sum("xyce_refactor_sequence" in f for f in failures) == 2
    # New cases with no baseline entry and no floor are not gated.
    assert check_regression({"cases": {"new/case": {"speedup": 0.5}}},
                            baseline) == []
