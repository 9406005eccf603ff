"""Tests for matrix statistics and factor serialization."""

import numpy as np
import pytest

from repro.matrices import add_semi_dense_columns, grid2d, ladder_circuit, reduced_system
from repro.solvers import KLU
from repro.solvers.triangular import btf_factors
from repro.sparse import CSC, solve_residual
from repro.sparse.serialize import load_csc, load_factors, save_csc, save_factors
from repro.sparse.stats import degree_stats, matrix_stats, structural_symmetry
from repro.sparse.ops import lower_solve, upper_solve

from .helpers import random_sparse


class TestStats:
    def test_symmetric_matrix_scores_one(self):
        rng = np.random.default_rng(0)
        A = grid2d(8, rng=rng)
        assert structural_symmetry(A) == pytest.approx(1.0)

    def test_triangular_matrix_scores_zero(self):
        d = np.triu(np.ones((6, 6)), 1) + np.eye(6)
        A = CSC.from_dense(d)
        assert structural_symmetry(A) == 0.0

    def test_diagonal_matrix(self):
        assert structural_symmetry(CSC.identity(5)) == 1.0

    def test_semi_dense_detection(self):
        rng = np.random.default_rng(1)
        base = ladder_circuit(200, rng=rng)
        A = add_semi_dense_columns(base, n_cols=4, touch_frac=0.5, rng=rng)
        d = degree_stats(A)
        assert d["semi_dense_cols"] >= 4

    def test_full_bundle(self):
        rng = np.random.default_rng(2)
        A = reduced_system(20, rng=rng)
        s = matrix_stats(A, with_btf=True, with_fill=True)
        assert s.btf_percent == pytest.approx(100.0)
        assert s.fill_density is not None and s.fill_density < 4.0
        text = s.describe()
        assert "BTF" in text and "fill density" in text

    def test_rejects_rectangular_symmetry(self):
        with pytest.raises(ValueError):
            structural_symmetry(CSC.empty(2, 3))


class TestSerializeCSC:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        A = random_sparse(20, 15, 0.3, rng)
        p = tmp_path / "a.npz"
        save_csc(A, p)
        B = load_csc(p)
        assert B.same_pattern(A)
        assert np.array_equal(B.data, A.data)

    def test_version_guard(self, tmp_path):
        p = tmp_path / "bad.npz"
        np.savez(p, version=np.int64(99), shape=np.array([1, 1]),
                 indptr=np.array([0, 0]), indices=np.array([], dtype=np.int64),
                 data=np.array([]))
        with pytest.raises(ValueError):
            load_csc(p)


class TestSerializeFactors:
    def test_klu_factor_roundtrip_and_solve(self, tmp_path):
        rng = np.random.default_rng(4)
        A = reduced_system(12, rng=rng)
        klu = KLU()
        num = klu.factor(A)
        splits, blocks, M = btf_factors(num)
        rp, cp = num.row_perm, num.col_perm
        p = tmp_path / "factors.npz"
        save_factors(p, blocks, rp, cp, splits)

        blocks2, rp2, cp2, splits2 = load_factors(p)
        assert len(blocks2) == len(blocks)
        assert np.array_equal(rp2, rp) and np.array_equal(cp2, cp)
        # Solve with the reloaded factors (block back-substitution via
        # the original M for the off-diagonal part).
        b = rng.standard_normal(A.n_rows)
        c = b[rp2].copy()
        n = A.n_rows
        z = np.zeros(n)
        for k in range(len(blocks2) - 1, -1, -1):
            lo, hi = int(splits2[k]), int(splits2[k + 1])
            L, U = blocks2[k]
            z[lo:hi] = upper_solve(U, lower_solve(L, c[lo:hi]))
            for j in range(lo, hi):
                rows, vals = num.M.col(j)
                cut = int(np.searchsorted(rows, lo))
                if cut:
                    c[rows[:cut]] -= vals[:cut] * z[j]
        x = np.empty(n)
        x[cp2] = z
        assert solve_residual(A, x, b) < 1e-10

    def test_factor_version_guard(self, tmp_path):
        p = tmp_path / "bad.npz"
        np.savez(p, version=np.int64(7), n_blocks=np.int64(0),
                 row_perm=np.array([0]), col_perm=np.array([0]),
                 block_splits=np.array([0, 1]))
        with pytest.raises(ValueError):
            load_factors(p)
