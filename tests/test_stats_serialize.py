"""Tests for matrix statistics and matrix serialization."""

import numpy as np
import pytest

from repro.matrices import add_semi_dense_columns, grid2d, ladder_circuit, reduced_system
from repro.sparse import CSC
from repro.sparse.serialize import load_csc, save_csc
from repro.sparse.stats import degree_stats, matrix_stats, structural_symmetry

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
