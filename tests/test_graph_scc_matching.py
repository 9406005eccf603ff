"""Tests for SCC and bipartite matching kernels, with networkx/scipy oracles."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings, strategies as st

from repro.graph import (
    max_cardinality_matching,
    mwcm,
    mwcm_row_permutation,
    scc_of_matrix,
    tarjan_scc,
)
from repro.sparse import CSC

from .helpers import random_sparse, to_scipy


class TestTarjanSCC:
    def test_single_cycle(self):
        # 0 -> 1 -> 2 -> 0
        A = CSC.from_coo([1, 2, 0], [0, 1, 2], [1.0] * 3, (3, 3))
        n, comp = tarjan_scc(3, A.indptr, A.indices)
        assert n == 1
        assert len(set(comp.tolist())) == 1

    def test_chain_has_n_components(self):
        # 0 -> 1 -> 2 (DAG)
        A = CSC.from_coo([1, 2], [0, 1], [1.0, 1.0], (3, 3))
        n, comp = tarjan_scc(3, A.indptr, A.indices)
        assert n == 3

    def test_matches_scipy_component_count(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = random_sparse(20, 20, 0.08, rng)
            n_ours, _ = tarjan_scc(20, A.indptr, A.indices)
            n_ref, _ = csgraph.connected_components(to_scipy(A).T, connection="strong")
            assert n_ours == n_ref

    def test_block_upper_triangular_after_permute(self):
        rng = np.random.default_rng(3)
        A = random_sparse(30, 30, 0.06, rng, ensure_diag=True)
        n_comp, comp, order = scc_of_matrix(A)
        B = A.permute(order, order)
        # For every entry, component(row) <= component(col).
        comp_sorted = comp[order]
        for j in range(30):
            rows, _ = B.col(j)
            for i in rows:
                assert comp_sorted[int(i)] <= comp_sorted[j], "entry below block diagonal"

    def test_deep_chain_no_recursion_limit(self):
        n = 5000
        rows = np.arange(1, n)
        cols = np.arange(0, n - 1)
        A = CSC.from_coo(rows, cols, np.ones(n - 1), (n, n))
        n_comp, _ = tarjan_scc(n, A.indptr, A.indices)
        assert n_comp == n

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 30), density=st.sampled_from([0.02, 0.08, 0.2]),
           seed=st.integers(0, 2**32 - 1))
    def test_cross_edges_point_to_smaller_ids(self, n, density, seed):
        # For every edge u -> v between components, comp[v] < comp[u].
        A = random_sparse(n, n, density, np.random.default_rng(seed)) if n else CSC.identity(0)
        n_comp, comp = tarjan_scc(n, A.indptr, A.indices)
        u = np.repeat(np.arange(n), np.diff(A.indptr))
        v = A.indices
        cross = comp[u] != comp[v]
        assert np.all(comp[v][cross] < comp[u][cross])
        assert sorted(set(comp.tolist())) == list(range(n_comp))


class TestMatching:
    def test_perfect_matching_identity(self):
        A = CSC.identity(5)
        size, match_col, match_row = max_cardinality_matching(A)
        assert size == 5
        assert np.array_equal(match_col, np.arange(5))

    def test_matches_networkx_cardinality(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            A = random_sparse(12, 12, 0.15, rng)
            size, _, _ = max_cardinality_matching(A)
            G = nx.Graph()
            G.add_nodes_from(("c", j) for j in range(12))
            G.add_nodes_from(("r", i) for i in range(12))
            for j in range(12):
                rows, _ = A.col(j)
                for i in rows:
                    G.add_edge(("c", j), ("r", int(i)))
            ref = nx.algorithms.matching.max_weight_matching(G, maxcardinality=True)
            assert size == len(ref)

    def test_threshold_excludes_small_entries(self):
        A = CSC.from_coo([0, 1], [0, 1], [1.0, 0.01], (2, 2))
        size, _, _ = max_cardinality_matching(A, threshold=0.5)
        assert size == 1

    def test_augmenting_path_needed(self):
        # Greedy would match col0->row0, leaving col1 (only row0) unmatched
        # unless augmentation reroutes col0 to row1.
        A = CSC.from_coo([0, 1, 0], [0, 0, 1], [1.0, 1.0, 1.0], (2, 2))
        size, match_col, _ = max_cardinality_matching(A)
        assert size == 2
        assert match_col[0] == 1 and match_col[1] == 0

    def test_mwcm_maximizes_bottleneck(self):
        # Two perfect matchings: diag (values 1, 1) or anti-diag (5, 5).
        A = CSC.from_coo([0, 1, 1, 0], [0, 1, 0, 1], [1.0, 1.0, 5.0, 5.0], (2, 2))
        match_col, bottleneck = mwcm(A)
        assert bottleneck == 5.0
        assert match_col[0] == 1 and match_col[1] == 0

    def test_mwcm_prefers_bottleneck_over_product(self):
        """The diagonal (10, 0.1) has the larger product, 1.0 against
        0.81; the bottleneck objective picks the anti-diagonal 0.9/0.9."""
        A = CSC.from_coo([0, 1, 1, 0], [0, 1, 0, 1], [10.0, 0.1, 0.9, 0.9], (2, 2))
        match_col, bottleneck = mwcm(A)
        assert match_col.tolist() == [1, 0]
        assert bottleneck == pytest.approx(0.9)

    def test_mwcm_keeps_full_cardinality(self):
        rng = np.random.default_rng(7)
        A = random_sparse(15, 15, 0.3, rng, ensure_diag=True)
        full, _, _ = max_cardinality_matching(A)
        match_col, _ = mwcm(A)
        assert int((match_col >= 0).sum()) == full

    def test_row_permutation_gives_nonzero_diagonal(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            A = random_sparse(14, 14, 0.25, rng, ensure_diag=True)
            p = mwcm_row_permutation(A)
            B = A.permute(row_perm=p)
            for j in range(14):
                assert B.get(j, j) != 0.0

    def test_row_permutation_valid_even_if_singular(self):
        # Column 1 empty: structurally singular.
        A = CSC.from_coo([0, 2], [0, 2], [1.0, 1.0], (3, 3))
        p = mwcm_row_permutation(A)
        assert sorted(p.tolist()) == [0, 1, 2]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 15), seed=st.integers(0, 9999), density=st.floats(0.1, 0.5))
def test_property_mwcm_bottleneck_is_min_matched_value(n, seed, density):
    rng = np.random.default_rng(seed)
    A = random_sparse(n, n, density, rng, ensure_diag=True)
    match_col, bottleneck = mwcm(A)
    matched_vals = [abs(A.get(int(match_col[j]), j)) for j in range(n) if match_col[j] >= 0]
    assert matched_vals, "full diagonal guaranteed a nonempty matching"
    assert min(matched_vals) == pytest.approx(bottleneck)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 9999))
def test_property_scc_partition_is_valid(n, seed):
    rng = np.random.default_rng(seed)
    A = random_sparse(n, n, 0.15, rng)
    n_comp, comp, order = scc_of_matrix(A)
    assert comp.min() >= 0 and comp.max() == n_comp - 1
    assert sorted(order.tolist()) == list(range(n))
