"""Tests for AMD, BTF and nested dissection."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings, strategies as st

from repro.core import Basker, symbolic
from repro.matrices.suite import get_matrix, suite_names
from repro.ordering import amd_order, btf, invert, is_permutation, nested_dissection
from repro.ordering.nd import nd_order
from repro.sparse import CSC

from .helpers import from_scipy, random_sparse, to_scipy


def _fill_of_order(A: CSC, perm) -> int:
    """nnz of the dense-symbolic Cholesky factor of A+A' under perm."""
    d = (A.to_dense() != 0) | (A.to_dense().T != 0)
    d = d[np.ix_(perm, perm)]
    n = d.shape[0]
    np.fill_diagonal(d, True)
    for k in range(n):
        below = np.flatnonzero(d[k + 1 :, k]) + k + 1
        d[np.ix_(below, below)] = True
    return int(np.tril(d).sum())


class TestAMD:
    def test_is_permutation(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            A = random_sparse(25, 25, 0.15, rng, ensure_diag=True)
            p = amd_order(A)
            assert is_permutation(p)

    def test_reduces_fill_on_arrow_matrix(self):
        """The classic AMD win: arrow pointing the wrong way."""
        n = 30
        d = np.eye(n)
        d[0, :] = 1.0
        d[:, 0] = 1.0
        A = CSC.from_dense(d)
        p = amd_order(A)
        natural_fill = _fill_of_order(A, np.arange(n))
        amd_fill = _fill_of_order(A, p)
        assert amd_fill < natural_fill
        # Optimal puts the hub last: zero fill, nnz(L) = 2n - 1.
        assert amd_fill == 2 * n - 1

    def test_grid_fill_no_worse_than_natural(self):
        # 2-D 5-point grid, 6x6.
        import itertools

        m = 6
        idx = lambda i, j: i * m + j
        rows, cols = [], []
        for i, j in itertools.product(range(m), range(m)):
            rows.append(idx(i, j)); cols.append(idx(i, j))
            if i + 1 < m:
                rows += [idx(i, j), idx(i + 1, j)]
                cols += [idx(i + 1, j), idx(i, j)]
            if j + 1 < m:
                rows += [idx(i, j), idx(i, j + 1)]
                cols += [idx(i, j + 1), idx(i, j)]
        A = CSC.from_coo(rows, cols, np.ones(len(rows)), (m * m, m * m))
        p = amd_order(A)
        assert _fill_of_order(A, p) <= _fill_of_order(A, np.arange(m * m))

    def test_handles_trivial_sizes(self):
        assert amd_order(CSC.empty(0, 0)).size == 0
        assert amd_order(CSC.identity(1)).tolist() == [0]
        assert is_permutation(amd_order(CSC.identity(4)))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            amd_order(CSC.empty(3, 4))


class TestBTF:
    def test_block_upper_triangular(self):
        rng = np.random.default_rng(0)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            A = random_sparse(30, 30, 0.06, rng, ensure_diag=True)
            res = btf(A)
            assert is_permutation(res.row_perm)
            assert is_permutation(res.col_perm)
            B = A.permute(res.row_perm, res.col_perm)
            splits = res.block_splits
            block_of = np.zeros(30, dtype=int)
            for k in range(res.n_blocks):
                block_of[splits[k] : splits[k + 1]] = k
            for j in range(30):
                rows, _ = B.col(j)
                for i in rows:
                    assert block_of[int(i)] <= block_of[j]

    def test_nonzero_diagonal_after_btf(self):
        rng = np.random.default_rng(5)
        A = random_sparse(20, 20, 0.15, rng, ensure_diag=True)
        res = btf(A)
        B = A.permute(res.row_perm, res.col_perm)
        for j in range(20):
            assert B.get(j, j) != 0.0

    def test_diagonal_matrix_fully_decouples(self):
        A = CSC.identity(7)
        res = btf(A)
        assert res.n_blocks == 7
        assert res.btf_percent(small_cutoff=1) == 100.0

    def test_full_cycle_single_block(self):
        n = 6
        rows = [(i + 1) % n for i in range(n)] + list(range(n))
        cols = list(range(n)) + list(range(n))
        A = CSC.from_coo(rows, cols, np.ones(2 * n), (n, n))
        res = btf(A)
        assert res.n_blocks == 1
        assert res.largest_block == n

    def test_block_count_matches_scipy(self):
        for seed in range(8):
            rng = np.random.default_rng(seed + 40)
            A = random_sparse(25, 25, 0.1, rng, ensure_diag=True)
            res = btf(A)
            n_ref, _ = csgraph.connected_components(to_scipy(A), connection="strong")
            assert res.n_blocks == n_ref

    def test_two_independent_cycles(self):
        # Strongly connected blocks {0,1} and {2,3} (full 2x2 diagonal
        # blocks), coupled only upward through entry (0, 2).
        rows = [0, 1, 0, 1, 2, 3, 2, 3, 0]
        cols = [0, 1, 1, 0, 2, 3, 3, 2, 2]
        A = CSC.from_coo(rows, cols, np.ones(9), (4, 4))
        res = btf(A)
        assert res.n_blocks == 2
        assert sorted(res.block_sizes().tolist()) == [2, 2]


class TestND:
    def _grid(self, m):
        import itertools

        idx = lambda i, j: i * m + j
        rows, cols = [], []
        for i, j in itertools.product(range(m), range(m)):
            rows.append(idx(i, j)); cols.append(idx(i, j))
            if i + 1 < m:
                rows += [idx(i, j), idx(i + 1, j)]
                cols += [idx(i + 1, j), idx(i, j)]
            if j + 1 < m:
                rows += [idx(i, j), idx(i, j + 1)]
                cols += [idx(i, j + 1), idx(i, j)]
        return CSC.from_coo(rows, cols, np.ones(len(rows)), (m * m, m * m))

    def test_tree_shape(self):
        A = self._grid(8)
        nd = nested_dissection(A, nleaves=4)
        assert nd.n_nodes == 7
        assert len(nd.leaves()) == 4
        assert nd.nodes[nd.root].height == 2
        assert is_permutation(nd.perm)

    def test_separator_property_holds(self):
        A = self._grid(10)
        nd = nested_dissection(A, nleaves=4)
        nd.check_separator_property(A)  # raises on violation

    def test_separator_property_on_random(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            A = random_sparse(60, 60, 0.05, rng, ensure_diag=True)
            nd = nested_dissection(A, nleaves=4)
            nd.check_separator_property(A)

    def test_balanced_leaves_on_grid(self):
        A = self._grid(12)
        nd = nested_dissection(A, nleaves=4)
        sizes = [nd.nodes[l].size for l in nd.leaves()]
        assert min(sizes) > 0.25 * max(sizes)

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            nested_dissection(CSC.identity(10), nleaves=3)

    def test_single_leaf_identity_layout(self):
        A = self._grid(4)
        nd = nested_dissection(A, nleaves=1)
        assert nd.n_nodes == 1
        assert nd.nodes[0].size == 16

    def test_ancestors_path(self):
        A = self._grid(8)
        nd = nested_dissection(A, nleaves=4)
        # layout: 0,1 leaves; 2 sep; 3,4 leaves; 5 sep; 6 root
        assert nd.ancestors(0) == [2, 6]
        assert nd.ancestors(3) == [5, 6]
        assert nd.ancestors(6) == []

    def test_disconnected_graph(self):
        # Two disjoint cliques: separator can be empty.
        d = np.zeros((8, 8))
        d[:4, :4] = 1.0
        d[4:, 4:] = 1.0
        A = CSC.from_dense(d)
        nd = nested_dissection(A, nleaves=2)
        nd.check_separator_property(A)
        assert nd.nodes[nd.root].size <= 1  # little or no separator needed

    def test_nd_order_is_permutation(self):
        A = self._grid(9)
        p = nd_order(A, leaf_size=8)
        assert is_permutation(p)


# Every suite member whose BTF has a block big enough for Basker's ND
# (the other four are all small blocks).
ND_MEMBERS = [name for name in suite_names(1) + suite_names(2)
              if name not in ("RS_b39c30+", "RS_b678c2+", "Power0*+", "hvdc2+")]


@pytest.mark.parametrize("n_threads", [4, 16])
@pytest.mark.parametrize("name", ND_MEMBERS)
def test_separator_property_on_basker_partitions(name, n_threads):
    """The partitions Basker's analysis really factors: every ND call
    inside ``Basker.analyze`` is checked on the matrix it was given."""
    calls = []

    def spy(D1, nleaves):
        calls.append((D1, nested_dissection(D1, nleaves)))
        return calls[-1][1]

    with mock.patch.object(symbolic, "nested_dissection", spy):
        Basker(n_threads=n_threads).analyze(get_matrix(name))
    assert calls
    for D1, part in calls:
        part.check_separator_property(D1)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 9999))
def test_property_btf_permutations_valid(n, seed):
    rng = np.random.default_rng(seed)
    A = random_sparse(n, n, 0.2, rng, ensure_diag=True)
    res = btf(A)
    assert is_permutation(res.row_perm)
    assert is_permutation(res.col_perm)
    assert int(res.block_splits[-1]) == n
    assert np.all(res.block_sizes() > 0)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(8, 50), seed=st.integers(0, 9999), leaves=st.sampled_from([2, 4]))
def test_property_nd_separator_invariant(n, seed, leaves):
    rng = np.random.default_rng(seed)
    A = random_sparse(n, n, 0.08, rng, ensure_diag=True)
    nd = nested_dissection(A, nleaves=leaves)
    assert is_permutation(nd.perm)
    nd.check_separator_property(A)
