"""Algorithm 4's block kernels and ``CSC.submatrix`` against their loops.

The vectorized kernels must do the same floating-point operations in
the same order as the per-element loops they replaced (kept in
``tests/helpers`` as ``*_reference``): same patterns, bitwise-equal
values (signed zeros included) and equal ledgers.  On top of the unit
properties, a whole ``Basker.factor`` with the oracles patched in must
reproduce the factors, pivots, task DAG and modeled makespan.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Basker
from repro.core import numeric as nd_numeric
from repro.errors import StructureError, ZeroPivotError
from repro.graph.dfs import ReachGraph, ReachWorkspace
from repro.matrices import get_matrix
from repro.parallel.ledger import CostLedger
from repro.parallel.machine import SANDY_BRIDGE
from repro.sparse import CSC, matmat
from repro.sparse import ops

from .helpers import (
    lower_offdiag_solve_reference,
    matmat_reference,
    sparse_product_reference,
    submatrix_reference,
    subtract_products_reference,
    upper_offdiag_solve_reference,
)

# Small integers make exact cancellation (a stored 0.0) common; -0.0 and
# 0.0 exercise the zero-source skips and the signs of zero.
VALUES = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0])
# Expansion caps: production, and small enough to split every product.
CAPS = (ops._EXPAND_CAP, 5, 1)

dims = st.integers(0, 9)
seeds = st.integers(0, 2**32 - 1)
densities = st.sampled_from([0.0, 0.15, 0.4, 0.8])


def _random(m, n, density, rng, values=VALUES) -> CSC:
    """Random ``m x n`` block, including empty columns and explicit zeros."""
    c, r = np.nonzero(rng.random((n, m)) < density)
    return CSC(m, n, _indptr(c, n), r, rng.choice(values, size=r.size))


def _indptr(cols, n):
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    return indptr


def _unit_lower(n, density, rng) -> CSC:
    d = np.tril(rng.choice(VALUES, size=(n, n)) * (rng.random((n, n)) < density), -1)
    np.fill_diagonal(d, 1.0)
    return CSC.from_dense(d)


def _upper(n, density, rng) -> CSC:
    """Upper triangular with a nonzero diagonal and explicit zeros above it."""
    B = _random(n, n, density, rng)
    col = np.repeat(np.arange(n), np.diff(B.indptr))
    keep = B.indices < col
    r = np.concatenate([B.indices[keep], np.arange(n)])
    c = np.concatenate([col[keep], np.arange(n)])
    v = np.concatenate([B.data[keep], rng.choice([-2.0, -1.0, 0.5, 1.0, 4.0], size=n)])
    order = np.lexsort((r, c))
    return CSC(n, n, _indptr(c, n), r[order], v[order])


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64) if a.dtype == np.float64 else a


def assert_same_csc(X: CSC, R: CSC) -> None:
    assert X.shape == R.shape
    for name in ("indptr", "indices", "data"):
        x, r = getattr(X, name), getattr(R, name)
        assert x.dtype == r.dtype, name
        assert np.array_equal(_bits(x), _bits(r)), name
    X.check()


def assert_same_ledger(a: CostLedger, b: CostLedger) -> None:
    assert dataclasses.astuple(a) == dataclasses.astuple(b)


# ----------------------------------------------------------------------
# Kernel parity
# ----------------------------------------------------------------------


class TestProductParity:
    @settings(max_examples=60, deadline=None)
    @given(m=dims, k=dims, n=dims, dl=densities, du=densities, seed=seeds)
    def test_sparse_product_matches_loop(self, m, k, n, dl, du, seed):
        rng = np.random.default_rng(seed)
        L, U = _random(m, k, dl, rng), _random(k, n, du, rng)
        ref_led = CostLedger()
        R = sparse_product_reference(L, U, ref_led)
        for cap in CAPS:
            with mock.patch.object(ops, "_EXPAND_CAP", cap):
                led = CostLedger()
                assert_same_csc(nd_numeric.sparse_product(L, U, led), R)
                assert_same_ledger(led, ref_led)

    @settings(max_examples=60, deadline=None)
    @given(m=dims, k=dims, n=dims, da=densities, db=densities, seed=seeds)
    def test_matmat_matches_loop(self, m, k, n, da, db, seed):
        rng = np.random.default_rng(seed)
        A, B = _random(m, k, da, rng), _random(k, n, db, rng)
        R = matmat_reference(A, B)
        for cap in CAPS:
            with mock.patch.object(ops, "_EXPAND_CAP", cap):
                assert_same_csc(matmat(A, B), R)

    @settings(max_examples=60, deadline=None)
    @given(m=dims, n=dims, n_prods=st.integers(0, 3), d=densities, seed=seeds)
    def test_subtract_products_matches_loop(self, m, n, n_prods, d, seed):
        rng = np.random.default_rng(seed)
        A = _random(m, n, d, rng)
        prods = [_random(m, n, float(rng.choice([0.0, 0.3, 0.7])), rng)
                 for _ in range(n_prods)]
        ref_led = CostLedger()
        R = subtract_products_reference(A, prods, ref_led)
        led = CostLedger()
        assert_same_csc(nd_numeric.subtract_products(A, prods, led), R)
        assert_same_ledger(led, ref_led)

    def test_reduction_cancels_to_stored_zero(self):
        """``A − L U`` cancelling exactly keeps the entry, as 0.0."""
        A = CSC.from_coo([0, 1], [0, 0], [2.0, 1.0], (2, 1))
        L = CSC.from_coo([0, 1], [0, 0], [1.0, 0.5], (2, 1))
        U = CSC.from_coo([0], [0], [2.0], (1, 1))
        led, ref_led = CostLedger(), CostLedger()
        P = nd_numeric.sparse_product(L, U, led)
        R = nd_numeric.subtract_products(A, [P], led)
        Pr = sparse_product_reference(L, U, ref_led)
        assert_same_csc(R, subtract_products_reference(A, [Pr], ref_led))
        assert R.nnz == 2 and R.get(0, 0) == 0.0
        assert_same_ledger(led, ref_led)

    def test_product_crossing_the_cap(self):
        """A product with more terms than one pass may expand."""
        rng = np.random.default_rng(16)
        L = _random(220, 220, 0.3, rng, values=rng.standard_normal(64))
        U = _random(220, 8, 0.7, rng, values=np.append(rng.standard_normal(63), 0.0))
        nz = U.indices[U.data != 0.0]
        assert np.diff(L.indptr)[nz].sum() > ops._EXPAND_CAP
        ref_led = CostLedger()
        R = sparse_product_reference(L, U, ref_led)
        led = CostLedger()
        assert_same_csc(nd_numeric.sparse_product(L, U, led), R)
        assert_same_ledger(led, ref_led)
        assert_same_csc(matmat(L, U), matmat_reference(L, U))


class TestOffdiagSolveParity:
    @settings(max_examples=60, deadline=None)
    @given(m=dims, n=st.integers(1, 9), da=densities, du=densities, seed=seeds)
    def test_lower_offdiag_solve_matches_loop(self, m, n, da, du, seed):
        rng = np.random.default_rng(seed)
        A, U = _random(m, n, da, rng), _upper(n, du, rng)
        ref_led = CostLedger()
        R = lower_offdiag_solve_reference(A, U, ref_led)
        led = CostLedger()
        assert_same_csc(nd_numeric.lower_offdiag_solve(A, U, led), R)
        assert_same_ledger(led, ref_led)

    @settings(max_examples=60, deadline=None)
    @given(n_i=st.integers(1, 9), n=dims, dl=densities, da=densities, seed=seeds)
    def test_upper_offdiag_solve_matches_loop(self, n_i, n, dl, da, seed):
        rng = np.random.default_rng(seed)
        L, A = _unit_lower(n_i, dl, rng), _random(n_i, n, da, rng)
        ref_led = CostLedger()
        R = upper_offdiag_solve_reference(L, A, ReachWorkspace(n_i), ref_led)
        graph = ReachGraph.from_csc(L)
        for _ in range(2):  # the graph is reusable across calls
            led = CostLedger()
            assert_same_csc(nd_numeric.upper_offdiag_solve(L, A, graph, led), R)
            assert_same_ledger(led, ref_led)

    def test_empty_blocks(self):
        U, L = _upper(4, 0.5, np.random.default_rng(1)), CSC.identity(4)
        for A in (CSC.empty(0, 4), CSC.empty(3, 4)):
            led = CostLedger()
            assert_same_csc(nd_numeric.lower_offdiag_solve(A, U, led),
                            lower_offdiag_solve_reference(A, U, CostLedger()))
            assert led.is_empty()
        led = CostLedger()
        X = nd_numeric.upper_offdiag_solve(L, CSC.empty(4, 0), ReachGraph.from_csc(L), led)
        assert X.shape == (4, 0) and led.is_empty()


class TestSubmatrixParity:
    @settings(max_examples=80, deadline=None)
    @given(m=dims, n=dims, d=densities, seed=seeds, cuts=st.lists(st.integers(0, 9), min_size=4, max_size=4))
    def test_submatrix_matches_loop(self, m, n, d, seed, cuts):
        A = _random(m, n, d, np.random.default_rng(seed))
        r0, r1 = sorted(min(x, m) for x in cuts[:2])
        c0, c1 = sorted(min(x, n) for x in cuts[2:])
        for rng_ in ((r0, r1, c0, c1), (0, m, 0, n), (r0, r0, c0, c1), (r0, r1, c1, c1)):
            assert_same_csc(A.submatrix(*rng_), submatrix_reference(A, *rng_))

    @pytest.mark.parametrize("bounds", [(-1, 2, 0, 2), (0, 5, 0, 2), (2, 1, 0, 2),
                                        (0, 2, 0, 5), (0, 2, 3, 2)])
    def test_out_of_range_raises(self, bounds):
        A = CSC.identity(4)
        with pytest.raises(StructureError):
            A.submatrix(*bounds)


class TestPatternRule:
    """Flops follow from the patterns: an exactly zero source skips its
    arithmetic, never its count (as in ``gp_factor`` and the replay)."""

    def test_sparse_product_counts_a_stored_zero(self):
        L = CSC.from_dense(np.array([[1.0], [2.0], [3.0]]))
        U = CSC(1, 2, np.array([0, 1, 2]), np.array([0, 0]), np.array([0.0, 2.0]))
        led, ref_led = CostLedger(), CostLedger()
        P = nd_numeric.sparse_product(L, U, led)
        assert led.sparse_flops == 6  # |L(:, 0)| for both stored U entries
        assert np.array_equal(P.indptr, [0, 0, 3])  # the zero adds no entries
        assert_same_csc(P, sparse_product_reference(L, U, ref_led))
        assert_same_ledger(led, ref_led)

    def test_upper_offdiag_solve_counts_a_zero_source(self):
        L = CSC.from_dense(np.array([[1.0, 0.0, 0.0], [2.0, 1.0, 0.0], [1.0, 1.0, 1.0]]))
        A = CSC(3, 1, np.array([0, 2]), np.array([0, 1]), np.array([0.0, 3.0]))
        led, ref_led = CostLedger(), CostLedger()
        X = nd_numeric.upper_offdiag_solve(L, A, ReachGraph.from_csc(L), led)
        assert led.sparse_flops == 3  # x_0 == 0.0 still counts |L(:, 0)| - 1
        assert np.array_equal(X.data, [0.0, 3.0, -3.0])
        assert_same_csc(X, upper_offdiag_solve_reference(L, A, ReachWorkspace(3), ref_led))
        assert_same_ledger(led, ref_led)


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------


class TestKernelErrors:
    def test_product_wider_L_raises(self):
        with pytest.raises(StructureError):
            nd_numeric.sparse_product(CSC.from_dense(np.ones((2, 3))),
                                      CSC.identity(2), CostLedger())

    def test_product_taller_U_raises(self):
        with pytest.raises(StructureError):
            nd_numeric.sparse_product(CSC.identity(2),
                                      CSC.from_dense(np.ones((3, 2))), CostLedger())

    def test_combine_taller_product_raises(self):
        with pytest.raises(StructureError):
            nd_numeric.subtract_products(CSC.identity(2),
                                         [CSC.from_dense(np.ones((3, 2)))], CostLedger())

    def test_combine_wider_product_raises(self):
        with pytest.raises(StructureError):
            nd_numeric.subtract_products(CSC.identity(2),
                                         [CSC.from_dense(np.ones((2, 3)))], CostLedger())

    def test_lower_solve_zero_diagonal_raises_typed(self):
        U = CSC.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ZeroPivotError) as exc:
            nd_numeric.lower_offdiag_solve(CSC.from_dense(np.ones((2, 2))), U, CostLedger())
        assert exc.value.column == 1
        assert isinstance(exc.value, ZeroDivisionError)

    def test_lower_solve_dimension_mismatch_raises(self):
        with pytest.raises(StructureError):
            nd_numeric.lower_offdiag_solve(CSC.identity(3), CSC.identity(2), CostLedger())

    def test_upper_solve_dimension_mismatch_raises(self):
        L = CSC.identity(3)
        with pytest.raises(StructureError):
            nd_numeric.upper_offdiag_solve(L, CSC.identity(2), ReachGraph.from_csc(L),
                                           CostLedger())


# ----------------------------------------------------------------------
# Whole factorizations with the oracles patched in
# ----------------------------------------------------------------------


def _upper_offdiag_solve_oracle(L_ii, A_ij, graph, ledger):
    return upper_offdiag_solve_reference(L_ii, A_ij, ReachWorkspace(L_ii.n_cols), ledger)


ORACLES = {
    "lower_offdiag_solve": lower_offdiag_solve_reference,
    "upper_offdiag_solve": _upper_offdiag_solve_oracle,
    "sparse_product": sparse_product_reference,
    "subtract_products": subtract_products_reference,
}


def _snapshot(num, n_threads):
    blocks = {}
    for k, lu in num.fine_lu.items():
        blocks[k] = (lu.L, lu.U, lu.row_perm, lu.ledger)
    for k, nd in num.nd_numeric.items():
        blocks[k] = (nd.L, nd.U, nd.piv, nd.ledger)
    tasks = [(t.tid, dataclasses.astuple(t.ledger), tuple(t.deps), t.thread, t.label,
              tuple(t.reads), tuple(t.writes), t.p2p_syncs, t.working_set, t.barriers)
             for t in num.tasks]
    makespan = num.schedule(SANDY_BRIDGE, max(n_threads, 16)).makespan
    return blocks, num.row_perm, tasks, makespan


def _assert_same_factorization(A, **opts):
    solver = Basker(**opts)
    sym = solver.analyze(A)
    num = solver.factor(A, sym)
    assert num.nd_numeric, "no fine-ND block: Algorithm 4 not exercised"
    new = _snapshot(num, solver.n_threads)
    with mock.patch.multiple(nd_numeric, **ORACLES), \
            mock.patch.object(CSC, "submatrix", submatrix_reference):
        ref = _snapshot(solver.factor(A, sym), solver.n_threads)
    (blocks, piv, tasks, makespan), (rblocks, rpiv, rtasks, rmakespan) = new, ref
    assert blocks.keys() == rblocks.keys()
    for k in blocks:
        L, U, p, led = blocks[k]
        rL, rU, rp, rled = rblocks[k]
        assert_same_csc(L, rL)
        assert_same_csc(U, rU)
        assert np.array_equal(p, rp)
        assert_same_ledger(led, rled)
    assert np.array_equal(piv, rpiv)
    assert tasks == rtasks
    assert makespan == rmakespan


ND_MEMBERS = ["circuit_4", "Xyce0*", "memplus", "scircuit", "onetone1"]


class TestBaskerFactorParity:
    @pytest.mark.parametrize("n_threads", [4, 16])
    @pytest.mark.parametrize("name", ND_MEMBERS)
    def test_factor_matches_oracles(self, name, n_threads):
        _assert_same_factorization(get_matrix(name), n_threads=n_threads)

    def test_pipelined_tasks_match_oracles(self):
        _assert_same_factorization(get_matrix("memplus"), n_threads=16, pipeline_columns=8)

    def test_supernodal_separators_match_oracles(self):
        with mock.patch.object(nd_numeric, "dense_lu_factor",
                               wraps=nd_numeric.dense_lu_factor) as dense:
            _assert_same_factorization(get_matrix("scircuit"), n_threads=16,
                                       supernodal_separators=True)
        assert dense.called  # a separator took the dense kernel
