"""Nested dissection and the bottleneck matching against their loops.

The analysis kernels walk their graphs over Python lists.  They must
return exactly what the numpy-scalar loops they replaced returned (kept
in ``tests/helpers`` as ``*_reference``): the same ND permutation,
splits and node tree, the same ``(size, match_col, match_row)`` at every
threshold, and the same bottleneck matching.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import max_cardinality_matching, mwcm, mwcm_row_permutation
from repro.ordering import nested_dissection
from repro.sparse import CSC

from .helpers import (
    max_cardinality_matching_reference,
    mwcm_reference,
    mwcm_row_permutation_reference,
    nested_dissection_reference,
)

# Explicit zeros (both signs), NaN, +-inf and repeated magnitudes: every
# case where the two comparisons of the matching (``>=`` and ``<``) can
# disagree, and every tie the binary search can meet.
VALUES = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, math.nan, math.inf, -math.inf]


@st.composite
def matrices(draw, square=True, max_n=40):
    """Random patterns: empty, singular (empty columns or rows),
    disconnected (block-diagonal pieces) or a connected band with
    random long-range taps."""
    n = draw(st.integers(0, max_n))
    m = n if square else draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "pieces", "band"]))
    mask = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.05, 0.15, 0.4]))
    if kind == "pieces" and n and m:
        lab_r = rng.integers(0, 4, size=m)
        lab_c = rng.integers(0, 4, size=n)
        mask &= lab_r[:, None] == lab_c[None, :]
    elif kind == "band" and n and m:
        i, j = np.indices((m, n))
        mask |= np.abs(i - j) <= 1
    if draw(st.booleans()) and n > 1:
        mask[:, rng.integers(0, n)] = False  # a structurally empty column
    c, r = np.nonzero(mask.T)
    v = rng.choice(VALUES, size=r.size) if draw(st.booleans()) else rng.choice([1.0, -3.0], size=r.size)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(c, minlength=n), out=indptr[1:])
    return CSC(m, n, indptr, r.astype(np.int64), v.astype(np.float64))


def _node_tree(part):
    return [(t.id, t.height, t.is_leaf, t.children, t.parent, t.vertices.dtype, t.vertices.tolist())
            for t in part.nodes]


def _same_float(a: float, b: float) -> bool:
    return type(a) is type(b) and (a == b or (math.isnan(a) and math.isnan(b)))


class TestNestedDissectionParity:
    @settings(max_examples=150, deadline=None)
    @given(A=matrices(max_n=80), nleaves=st.sampled_from([1, 2, 4, 8, 16]))
    def test_partition_matches_loop(self, A, nleaves):
        got = nested_dissection(A, nleaves)
        want = nested_dissection_reference(A, nleaves)
        assert got.perm.dtype == want.perm.dtype == np.int64
        assert np.array_equal(got.perm, want.perm)
        assert np.array_equal(got.splits, want.splits)
        assert _node_tree(got) == _node_tree(want)


class TestMatchingParity:
    @settings(max_examples=200, deadline=None)
    @given(A=matrices(square=False), t=st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf, math.nan]))
    def test_cardinality_matching_matches_loop(self, A, t):
        got = max_cardinality_matching(A, threshold=t)
        want = max_cardinality_matching_reference(A, threshold=t)
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)

    @settings(max_examples=200, deadline=None)
    @given(A=matrices(square=False))
    def test_bottleneck_matching_matches_loop(self, A):
        (got, got_t), (want, want_t) = mwcm(A), mwcm_reference(A)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert _same_float(got_t, want_t)

    @settings(max_examples=100, deadline=None)
    @given(A=matrices())
    def test_row_permutation_matches_loop(self, A):
        got, want = mwcm_row_permutation(A), mwcm_row_permutation_reference(A)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_nan_rule_greedy_pass_skips_augmenting_pass_uses():
    """A NaN magnitude fails ``|a| >= t`` and ``|a| < t`` alike.  The
    greedy pass keeps ``|a| >= t``, so it skips a NaN entry; the
    augmenting pass drops ``|a| < t``, so it may match one, at any
    threshold."""
    # Column 0 holds NaN at row 0: the greedy pass takes row 1 instead.
    # (``CSC.from_dense`` would drop the NaN: ``|nan| > 0`` is False.)
    A = CSC(2, 2, np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
            np.array([math.nan, 1.0, 1.0, 1.0]))
    size, match_col, match_row = max_cardinality_matching(A)
    assert size == 2
    assert match_col.tolist() == [1, 0]
    assert match_row.tolist() == [1, 0]
    # A lone NaN is left unmatched by the greedy pass and matched by the
    # augmenting pass, even above every threshold.
    N = CSC(1, 1, np.array([0, 1]), np.array([0]), np.array([math.nan]))
    for t in (0.0, 1.0, math.inf):
        size, match_col, _ = max_cardinality_matching(N, threshold=t)
        assert size == 1 and match_col.tolist() == [0]
    # The bottleneck search never tries NaN as a threshold, so the NaN
    # entry stays off the diagonal with a bottleneck of 1.
    match_col, bottleneck = mwcm(A)
    assert match_col.tolist() == [1, 0] and bottleneck == 1.0
    assert mwcm_row_permutation(A).tolist() == [1, 0]
