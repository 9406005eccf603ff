"""Tests for the supernodal LU (PMKL stand-in) and the SLU-MT variant."""

import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.parallel import SANDY_BRIDGE, XEON_PHI
from repro.solvers import KLU, SolverFailure, SupernodalLU, slu_mt
from repro.sparse import CSC, solve_residual

from .helpers import random_sparse, random_spd_like, to_scipy


def grid2d(m, rng):
    idx = lambda i, j: i * m + j
    rows, cols, vals = [], [], []
    for i, j in itertools.product(range(m), range(m)):
        rows.append(idx(i, j)); cols.append(idx(i, j)); vals.append(4.0 + rng.random())
        for di, dj in ((1, 0), (0, 1)):
            if i + di < m and j + dj < m:
                rows += [idx(i, j), idx(i + di, j + dj)]
                cols += [idx(i + di, j + dj), idx(i, j)]
                vals += [-1.0 - 0.1 * rng.random(), -1.0 - 0.1 * rng.random()]
    return CSC.from_coo(rows, cols, vals, (m * m, m * m))


class TestSupernodalCorrectness:
    def test_solve_matches_scipy_on_grid(self):
        rng = np.random.default_rng(0)
        A = grid2d(15, rng)
        sn = SupernodalLU()
        num = sn.factor(A)
        b = rng.standard_normal(A.n_rows)
        assert np.allclose(sn.solve(num, b), spla.spsolve(to_scipy(A), b), atol=1e-8)

    def test_solve_random_diag_dominant(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            A = random_spd_like(60, 0.08, rng)
            sn = SupernodalLU()
            num = sn.factor(A)
            b = rng.standard_normal(60)
            assert solve_residual(A, num and sn.solve(num, b), b) < 1e-10

    def test_unsymmetric_pattern_handled(self):
        rng = np.random.default_rng(5)
        A = random_sparse(50, 50, 0.08, rng, ensure_diag=True, diag_boost=8.0)
        sn = SupernodalLU()
        num = sn.factor(A)
        b = rng.standard_normal(50)
        assert solve_residual(A, sn.solve(num, b), b) < 1e-9

    def test_static_perturbation_counts(self):
        """A zero diagonal entry triggers perturbation, not failure."""
        rng = np.random.default_rng(6)
        d = rng.standard_normal((12, 12)) * 0.01
        np.fill_diagonal(d, 5.0)
        d[3, 3] = 0.0
        # Keep the MWCM from repairing it: make row/col 3 otherwise tiny.
        A = CSC.from_dense(d)
        sn = SupernodalLU()
        num = sn.factor(A)
        # Either matching fixed the diagonal or a perturbation occurred;
        # in both cases the factorization completed.
        assert num.L.n_rows == 12

    def test_analyze_factor_refactor(self):
        rng = np.random.default_rng(7)
        A = grid2d(10, rng)
        sn = SupernodalLU()
        sym = sn.analyze(A)
        num = sn.factor(A, symbolic=sym)
        A2 = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(), A.data * 1.7)
        num2 = sn.refactor(A2, num)
        assert num2.symbolic is sym
        b = rng.standard_normal(A.n_rows)
        assert solve_residual(A2, sn.solve(num2, b), b) < 1e-10

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            SupernodalLU().analyze(CSC.empty(3, 4))


class TestSupernodalStructure:
    def test_supernodes_partition_columns(self):
        rng = np.random.default_rng(8)
        A = grid2d(12, rng)
        sym = SupernodalLU().analyze(A)
        assert sym.sn_starts[0] == 0 and sym.sn_starts[-1] == A.n_rows
        assert np.all(np.diff(sym.sn_starts) > 0)
        for s in range(sym.n_supernodes):
            lo, hi = sym.sn_starts[s], sym.sn_starts[s + 1]
            assert np.all(sym.sn_of[lo:hi] == s)

    def test_supernode_rows_contain_columns(self):
        rng = np.random.default_rng(9)
        A = grid2d(10, rng)
        sym = SupernodalLU().analyze(A)
        for s in range(sym.n_supernodes):
            lo, hi = int(sym.sn_starts[s]), int(sym.sn_starts[s + 1])
            rows = sym.sn_rows[s]
            assert np.array_equal(rows[: hi - lo], np.arange(lo, hi))

    def test_amalgamation_reduces_supernode_count(self):
        rng = np.random.default_rng(10)
        A = grid2d(14, rng)
        tight = SupernodalLU(relax=0).analyze(A)
        loose = SupernodalLU(relax=6).analyze(A)
        assert loose.n_supernodes <= tight.n_supernodes

    def test_more_fill_than_klu_on_low_fill_matrix(self):
        """Table I shape: supernodal pattern (A+A' Cholesky) is denser
        than Gilbert-Peierls factors on circuit-like matrices."""
        rng = np.random.default_rng(11)
        A = random_sparse(80, 80, 0.04, rng, ensure_diag=True, diag_boost=10.0)
        sn_nnz = SupernodalLU().factor(A).factor_nnz
        klu_nnz = KLU().factor(A).factor_nnz
        assert sn_nnz > klu_nnz


class TestSupernodalPerformanceModel:
    def test_work_is_dense_flops(self):
        rng = np.random.default_rng(12)
        A = grid2d(12, rng)
        num = SupernodalLU().factor(A)
        assert num.ledger.dense_flops > 0
        assert num.ledger.dense_flops > 10 * num.ledger.sparse_flops

    def test_scales_with_threads_on_mesh(self):
        rng = np.random.default_rng(13)
        A = grid2d(35, rng)
        num = SupernodalLU().factor(A)
        t1 = num.factor_seconds(SANDY_BRIDGE, 1)
        t8 = num.factor_seconds(SANDY_BRIDGE, 8)
        assert t1 / t8 > 2.5

    def test_beats_klu_on_mesh_serial(self):
        """The dense-kernel advantage on its ideal inputs."""
        rng = np.random.default_rng(14)
        A = grid2d(30, rng)
        t_sn = SupernodalLU().factor(A).factor_seconds(SANDY_BRIDGE, 1)
        t_klu = KLU().factor(A).factor_seconds(SANDY_BRIDGE)
        assert t_sn < t_klu

    def test_loses_to_klu_on_btf_rich_serial(self):
        """The supernodal inefficiency on low fill-in circuit matrices
        (PMKL serial speedup < 1, paper V-D)."""
        rng = np.random.default_rng(15)
        # Many independent small blocks: BTF gold, supernodal poison.
        nblk, bs = 40, 5
        n = nblk * bs
        rows, cols, vals = [], [], []
        for k in range(nblk):
            off = k * bs
            d = rng.standard_normal((bs, bs)) + np.eye(bs) * 10
            for i in range(bs):
                for j in range(bs):
                    rows.append(off + i); cols.append(off + j); vals.append(d[i, j])
            if k:
                rows.append(off - 1); cols.append(off); vals.append(0.5)
        A = CSC.from_coo(rows, cols, vals, (n, n))
        t_sn = SupernodalLU().factor(A).factor_seconds(SANDY_BRIDGE, 1)
        t_klu = KLU().factor(A).factor_seconds(SANDY_BRIDGE)
        assert t_klu < t_sn


class TestSLUMT:
    def test_solves_correctly(self):
        rng = np.random.default_rng(16)
        A = grid2d(10, rng)
        s = slu_mt(fill_cap=None)
        num = s.factor(A)
        b = rng.standard_normal(A.n_rows)
        assert solve_residual(A, s.solve(num, b), b) < 1e-9

    def test_slower_than_pmkl(self):
        rng = np.random.default_rng(17)
        A = grid2d(16, rng)
        t_slu = slu_mt(fill_cap=None).factor(A).factor_seconds(SANDY_BRIDGE, 8)
        t_pmkl = SupernodalLU().factor(A).factor_seconds(SANDY_BRIDGE, 8)
        assert t_slu > t_pmkl

    def test_fill_cap_failure(self):
        rng = np.random.default_rng(18)
        A = random_sparse(60, 60, 0.2, rng, ensure_diag=True, diag_boost=5.0)
        with pytest.raises(SolverFailure):
            slu_mt(fill_cap=1.0).analyze(A)


@settings(max_examples=10, deadline=None)
@given(m=st.integers(5, 10), seed=st.integers(0, 999))
def test_property_supernodal_solves_grids(m, seed):
    rng = np.random.default_rng(seed)
    A = grid2d(m, rng)
    sn = SupernodalLU()
    num = sn.factor(A)
    b = rng.standard_normal(A.n_rows)
    assert solve_residual(A, sn.solve(num, b), b) < 1e-9
