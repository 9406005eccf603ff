"""The compiled BTF solve against the per-block loop it replaced.

KLU and Basker solve through one level-scheduled triangular replay per
factor pattern (:class:`repro.sparse.schedule.BTFSolveSchedule`), for
one right-hand side or a block of them.  The oracle is the old loop,
kept in ``tests/helpers.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DirectSolver
from repro.core import Basker
from repro.errors import StructureError, ZeroPivotError
from repro.matrices import btf_composite, thick_ladder
from repro.obs.tracer import Tracer, tracing
from repro.parallel.ledger import CostLedger
from repro.serve import PatternCache
from repro.solvers import KLU, SupernodalLU
from repro.solvers.gp import gp_factor
from repro.solvers.triangular import lu_solve_factors
from repro.sparse import CSC
from repro.sparse.verify import relative_error

from .helpers import btf_solve_reference, random_spd_like

SOLVERS = {
    "klu": lambda: KLU(),
    "basker": lambda: Basker(n_threads=4, nd_threshold=50),
    "pardiso": lambda: SupernodalLU(),
}


def _circuit(seed: int, n_small: int, big: int) -> CSC:
    """BTF-structured matrix: small blocks plus, with ``big``, one large
    irreducible block (Basker factors it on the ND path)."""
    rng = np.random.default_rng(seed)
    sizes = [int(s) for s in rng.integers(1, 5, size=n_small)]
    big_block = thick_ladder(big, 5, rng=rng) if big else None
    return btf_composite(sizes, big_block=big_block, rng=rng)


def _rhs(rng, n: int, k):
    return rng.standard_normal(n) if k is None else rng.standard_normal((n, k))


@pytest.mark.parametrize("name", sorted(SOLVERS))
@settings(deadline=None, max_examples=12,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**31 - 1),
       n_small=st.integers(1, 14),
       big=st.sampled_from([0, 14]),
       k=st.sampled_from([None, 0, 1, 8]))
def test_solve_matches_block_loop(name, seed, n_small, big, k):
    A = _circuit(seed, n_small, big)
    s = SOLVERS[name]()
    num = s.factor(A)
    b = _rhs(np.random.default_rng(seed), A.n_rows, k)
    x = s.solve(num, b)
    assert x.shape == b.shape
    assert relative_error(x, btf_solve_reference(num, b)) <= 1e-12


def test_basker_plan_covers_fine_and_nd_blocks():
    A = _circuit(3, 12, 14)
    bk = Basker(n_threads=4, nd_threshold=50)
    num = bk.factor(A)
    assert num.fine_lu and num.nd_numeric
    B = np.random.default_rng(0).standard_normal((A.n_rows, 8))
    assert relative_error(bk.solve(num, B), btf_solve_reference(num, B)) <= 1e-12


@pytest.mark.parametrize("name", ["klu", "basker"])
def test_one_compile_serves_refactor_sequence(name):
    rng = np.random.default_rng(5)
    A = _circuit(5, 20, 14)
    ds = DirectSolver(name, n_threads=4) if name == "basker" else DirectSolver(name)
    B = rng.standard_normal((A.n_rows, 3))
    steps = 4
    solved = []
    with tracing(Tracer()) as tr:
        ds.numeric_factorization(A)
        ds.solve(B)
        plan = ds._numeric.solve_plan
        for _ in range(steps):
            A = CSC(A.n_rows, A.n_cols, A.indptr, A.indices,
                    A.data * rng.uniform(0.9, 1.1, A.nnz))
            ds.numeric_factorization(A)  # values-only refactor_fast
            solved.append((ds._numeric, ds.solve(B)))
    for num, X in solved:
        assert relative_error(X, btf_solve_reference(num, B)) <= 1e-12
    m = tr.metrics
    assert m.counter("schedule.tri.miss") == 1
    assert m.counter("schedule.tri.invalidate") == 0
    assert m.counter("schedule.tri.hit") == steps
    assert ds._numeric.solve_plan is plan


def _dying_pivot_pair():
    """A 6x6 matrix and a same-pattern copy whose reused (0, 0) pivot is 0."""
    rng = np.random.default_rng(22)
    A = CSC.from_dense(rng.standard_normal((6, 6)) + 8 * np.eye(6))
    col = np.repeat(np.arange(6), np.diff(A.indptr))
    data = np.where((A.indices == 0) & (col == 0), 0.0, A.data)
    return A, CSC(6, 6, A.indptr, A.indices, data)


def test_pivot_fallback_recompiles_plan():
    A, A2 = _dying_pivot_pair()
    klu = KLU()
    b = np.arange(1.0, 7.0)
    with tracing(Tracer()) as tr:
        num = klu.factor(A)
        klu.solve(num, b)
        fast = klu.refactor_fast(A2, num)  # falls back to a re-pivoting refactor
        assert not np.array_equal(fast.row_perm, num.row_perm)
        x = klu.solve(fast, b)
    assert fast.solve_plan is not num.solve_plan
    assert tr.metrics.counter("schedule.tri.miss") == 2
    assert relative_error(x, btf_solve_reference(fast, b)) <= 1e-12
    assert np.abs(A2.to_dense() @ x - b).max() < 1e-10


def test_carried_plan_recompiles_when_row_perm_changes():
    A, A2 = _dying_pivot_pair()
    klu = KLU()
    num = klu.factor(A)
    klu.solve(num, np.ones(6))
    fast = klu.refactor_fast(A2, num)
    assert not np.array_equal(fast.row_perm, num.row_perm)  # re-pivoted
    fast.solve_plan = num.solve_plan  # force the stale plan onto it
    with tracing(Tracer()) as tr:
        x = klu.solve(fast, np.ones(6))
    assert tr.metrics.counter("schedule.tri.invalidate") == 1
    assert fast.solve_plan is not num.solve_plan
    assert np.abs(A2.to_dense() @ x - 1.0).max() < 1e-10


@pytest.mark.parametrize("name", ["klu", "basker"])
@pytest.mark.parametrize("k", [None, 3])
def test_zero_u_diagonal_raises_zero_pivot(name, k):
    A = _circuit(9, 10, 0)
    s = SOLVERS[name]()
    num = s.factor(A)
    splits = num.symbolic.block_splits
    blk = int(np.flatnonzero(np.diff(splits) > 1)[0])
    U = num.block_lu[blk].U if name == "klu" else num.block_factors(blk)[1]
    U.data[U.indptr[1] - 1] = 0.0  # column 0's diagonal, stored last
    with pytest.raises(ZeroPivotError) as exc_info:
        s.solve(num, _rhs(np.random.default_rng(0), A.n_rows, k))
    assert 0 <= exc_info.value.column < A.n_rows


@pytest.mark.parametrize("name", ["klu", "basker", "pardiso"])
def test_solve_rejects_bad_rhs_shapes(name):
    A = _circuit(2, 6, 0)
    s = SOLVERS[name]()
    num = s.factor(A)
    for bad in (np.zeros(A.n_rows + 1), np.zeros((A.n_rows + 1, 2)),
                np.zeros((A.n_rows, 2, 2))):
        with pytest.raises(StructureError):
            s.solve(num, bad)


def test_lu_solve_factors_ledger_scales_with_rhs_width():
    rng = np.random.default_rng(4)
    res = gp_factor(random_spd_like(30, 0.2, rng))
    B = rng.standard_normal((30, 3))
    one, three = CostLedger(), CostLedger()
    lu_solve_factors(res.L, res.U, B[:, 0], ledger=one)
    Z = lu_solve_factors(res.L, res.U, B, ledger=three)
    assert one.sparse_flops > 0 and one.columns == 60
    assert vars(three) == vars(one.scaled(3.0))
    assert np.allclose(Z[:, 0], lu_solve_factors(res.L, res.U, B[:, 0]))


@pytest.mark.parametrize("name", ["klu", "basker"])
def test_invalidate_caches_releases_plan(name):
    A = _circuit(7, 12, 0)
    s = SOLVERS[name]()
    num = s.factor(A)
    num = s.refactor_fast(A, num)
    s.solve(num, np.ones(A.n_rows))
    assert num.refactor_plan is not None and num.solve_plan is not None
    with tracing(Tracer()) as tr:
        assert num.invalidate_caches() == 1
        assert num.invalidate_caches() == 0
    assert num.refactor_plan is None and num.solve_plan is None
    assert tr.metrics.counter("schedule.tri.evictions") == 1
    # The factors stay usable: the next solve recompiles.
    x = s.solve(num, np.ones(A.n_rows))
    assert np.abs(A.to_dense() @ x - 1.0).max() < 1e-9


def test_pattern_cache_eviction_releases_basker_caches():
    A = _circuit(8, 12, 14)
    ds = DirectSolver("basker", n_threads=4)
    ds.numeric_factorization(A)
    ds.numeric_factorization(A)  # refactor_fast builds its gathers
    ds.solve(np.ones(A.n_rows))
    num = ds._numeric
    assert num.refactor_plan is not None and num.solve_plan is not None
    cache = PatternCache(capacity=1, eviction_window=1)
    lease, _ = cache.borrow("basker", lambda: (ds, CostLedger(sparse_flops=1.0)))
    cache.release(lease)
    other, _ = cache.borrow("other", lambda: (object(), CostLedger(sparse_flops=1.0)))
    cache.release(other)
    assert cache.evictions == 1
    assert num.refactor_plan is None and num.solve_plan is None


@pytest.mark.parametrize("name", ["klu", "basker", "pardiso"])
def test_transpose_and_refined_reject_rhs_block(name):
    A = _circuit(1, 6, 0)
    ds = DirectSolver(name, n_threads=4) if name == "basker" else DirectSolver(name)
    ds.numeric_factorization(A)
    B = np.ones((A.n_rows, 2))
    with pytest.raises(StructureError, match=r"one right-hand side of shape \(n,\)"):
        ds.solve_transpose(B)
    with pytest.raises(StructureError, match=r"one right-hand side of shape \(n,\)"):
        ds.solve_refined(A, B)
    # The 1-D forms still work.
    b = np.ones(A.n_rows)
    assert np.abs(A.to_dense().T @ ds.solve_transpose(b) - b).max() < 1e-9
    x, _hist = ds.solve_refined(A, b)
    assert np.abs(A.to_dense() @ x - b).max() < 1e-9


def test_plan_audits_clean_and_catch_corruption():
    import copy

    from repro.analysis import audit_schedule_buffers

    A = _circuit(4, 12, 14)
    for s in (KLU(), Basker(n_threads=4, nd_threshold=50)):
        num = s.factor(A)
        s.solve(num, np.ones(A.n_rows))
        plan = num.solve_plan
        assert audit_schedule_buffers(plan) == []
        assert audit_schedule_buffers(plan.schedule) == []
        bad = copy.deepcopy(plan)
        bad.gather[0] = bad.src_size
        assert any(f.code == "S1" for f in audit_schedule_buffers(bad))
