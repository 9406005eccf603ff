"""The BTF + per-block AMD front end shared by KLU and Basker.

``KLU.analyze`` and Basker's symbolic phase both call
:func:`repro.solvers.klu.btf_permuted` and
:func:`repro.solvers.klu.amd_blocks`.  On every Table I matrix their
permutations, block splits, symbolic ledgers and Basker's plans must be
exactly those of the per-solver loops they replaced (the oracles in
``tests/helpers.py``).  The oracles call the same ordering kernels, so
the analyses are also pinned to sha256 digests recorded with the
numpy-scalar kernels (``tests/fixtures/analysis_digests.json``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import Basker
from repro.matrices.suite import get_matrix, suite_names
from repro.solvers.klu import KLU

from .helpers import basker_analyze_reference, klu_analyze_reference


def _assert_front_end_equal(got, want):
    assert np.array_equal(got.row_perm_pre, want.row_perm_pre)
    assert np.array_equal(got.col_perm, want.col_perm)
    assert np.array_equal(got.block_splits, want.block_splits)
    assert got.ledger == want.ledger


def _assert_plans_equal(got, want):
    if want.fine_plan is None:
        assert got.fine_plan is None
    else:
        g, w = got.fine_plan, want.fine_plan
        assert g.block_ids == w.block_ids
        assert g.est_nnz == w.est_nnz
        assert g.est_ops == w.est_ops
        assert g.thread_of == w.thread_of
    assert len(got.nd_plans) == len(want.nd_plans)
    for g, w in zip(got.nd_plans, want.nd_plans):
        assert (g.block_id, g.offset, g.size) == (w.block_id, w.offset, w.size)
        assert np.array_equal(g.partition.perm, w.partition.perm)
        assert g.owner_thread == w.owner_thread
        assert g.est_diag_nnz == w.est_diag_nnz
        assert g.est_lower_nnz == w.est_lower_nnz
        assert g.est_upper_nnz == w.est_upper_nnz


@pytest.mark.parametrize("name", suite_names())
def test_front_end_matches_per_solver_loops(name):
    A = get_matrix(name)
    _assert_front_end_equal(KLU().analyze(A), klu_analyze_reference(A))
    for p in (4, 16):
        got = Basker(n_threads=p).analyze(A)
        want = basker_analyze_reference(A, p)
        _assert_front_end_equal(got, want)
        _assert_plans_equal(got, want)


DIGESTS = json.loads((Path(__file__).parent / "fixtures" / "analysis_digests.json").read_text())


def _digest(sym) -> str:
    """sha256 of ``row_perm_pre``, ``col_perm`` and ``block_splits``, then
    each ND partition's ``perm`` and ``splits``, each array prefixed by
    its length."""
    h = hashlib.sha256()
    arrays = [sym.row_perm_pre, sym.col_perm, sym.block_splits]
    for plan in getattr(sym, "nd_plans", ()):
        arrays += [plan.partition.perm, plan.partition.splits]
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<i8")
        h.update(a.size.to_bytes(8, "little"))
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", suite_names())
def test_analysis_matches_pinned_digest(name):
    A = get_matrix(name)
    got = {"klu": _digest(KLU().analyze(A))}
    for p in (4, 16):
        got[f"basker{p}"] = _digest(Basker(n_threads=p).analyze(A))
    assert got == DIGESTS[name]
