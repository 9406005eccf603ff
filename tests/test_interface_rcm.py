"""Tests for the unified DirectSolver interface and RCM ordering."""

import numpy as np
import pytest

from repro.errors import SingularMatrixError
from repro.interface import DirectSolver, available_solvers
from repro.matrices import btf_composite, grid2d, thick_ladder
from repro.ordering import is_permutation
from repro.ordering.rcm import bandwidth, rcm_order
from repro.parallel import SANDY_BRIDGE
from repro.sparse import CSC, solve_residual

from .helpers import random_sparse


def _matrix(seed=0):
    rng = np.random.default_rng(seed)
    return btf_composite([3] * 8, big_block=thick_ladder(30, 5, rng=rng), rng=rng)


class TestDirectSolver:
    def test_registry(self):
        assert set(available_solvers()) == {"basker", "klu", "pardiso", "superlu_mt"}

    @pytest.mark.parametrize("name", ["basker", "klu", "pardiso"])
    def test_four_phase_lifecycle(self, name):
        A = _matrix()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.n_rows)
        s = DirectSolver(name, n_threads=4)
        s.symbolic_factorization(A)
        s.numeric_factorization(A)
        x = s.solve(b)
        assert solve_residual(A, x, b) < 1e-10
        assert s.factor_nnz > 0
        assert s.factor_seconds(SANDY_BRIDGE) > 0

    def test_numeric_without_symbolic_autoruns(self):
        A = _matrix(2)
        s = DirectSolver("klu").numeric_factorization(A)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.n_rows)
        assert solve_residual(A, s.solve(b), b) < 1e-10

    def test_refactor_path_reuses_symbolic(self):
        A = _matrix(3)
        s = DirectSolver("basker", n_threads=2)
        s.symbolic_factorization(A)
        s.numeric_factorization(A)
        sym1 = s._symbolic
        A2 = CSC(A.n_rows, A.n_cols, A.indptr.copy(), A.indices.copy(), A.data * 2.0)
        s.numeric_factorization(A2)
        assert s._symbolic is sym1
        rng = np.random.default_rng(3)
        b = rng.standard_normal(A.n_rows)
        assert solve_residual(A2, s.solve(b), b) < 1e-10

    @pytest.mark.parametrize("name, module", [
        ("klu", "repro.solvers.klu"), ("basker", "repro.core.basker"),
    ], ids=["klu", "basker"])
    def test_singular_same_pattern_matrix_is_factored_once(self, monkeypatch,
                                                           name, module):
        """refactor_fast's own fallback is the only fresh factorization:
        a singular same-pattern matrix raises after one gp_factor."""
        import importlib

        rng = np.random.default_rng(22)
        A = CSC.from_dense(rng.standard_normal((6, 6)) + 8 * np.eye(6))
        col = np.repeat(np.arange(6), np.diff(A.indptr))
        A2 = CSC(6, 6, A.indptr, A.indices, np.where(col == 0, 0.0, A.data))
        s = DirectSolver(name)
        s.numeric_factorization(A)
        mod = importlib.import_module(module)
        real, calls = mod.gp_factor, []

        def spy(*args, **kwargs):
            calls.append(args[0].n_cols)
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, "gp_factor", spy)
        with pytest.raises(SingularMatrixError):
            s.numeric_factorization(A2)
        assert calls == [6]

    def test_transpose_and_refined_solves(self):
        A = _matrix(4)
        rng = np.random.default_rng(4)
        b = rng.standard_normal(A.n_rows)
        s = DirectSolver("klu").numeric_factorization(A)
        xt = s.solve_transpose(b)
        assert np.max(np.abs(A.to_dense().T @ xt - b)) < 1e-8
        xr, _hist = s.solve_refined(A, b)
        assert solve_residual(A, xr, b) < 1e-13

    def test_multi_rhs(self):
        A = _matrix(5)
        rng = np.random.default_rng(5)
        B = rng.standard_normal((A.n_rows, 3))
        s = DirectSolver("pardiso").numeric_factorization(A)
        X = s.solve(B)
        assert X.shape == B.shape

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            DirectSolver("umfpack")

    def test_unknown_option_is_rejected(self):
        with pytest.raises(ValueError, match="accepted: .*pivot_tol"):
            DirectSolver("klu", scale="max", pivot_tolerance=1.0)
        # Every solver takes an option that another registry entry reads.
        for name in available_solvers():
            DirectSolver(name, n_threads=4, pivot_tol=0.1)

    @pytest.mark.parametrize("name", ["basker", "klu", "pardiso", "superlu_mt"])
    def test_changed_pattern_is_analyzed_anew(self, name):
        """A matrix whose pattern differs from the analyzed one is
        analyzed again, by the factor and the resilient solve alike."""
        rng = np.random.default_rng(0)
        d = np.triu(rng.standard_normal((6, 6))) + 5 * np.eye(6)
        A = CSC.from_dense(d)
        d[5, 0] = 1.0
        A2 = CSC.from_dense(d)
        b = rng.standard_normal(6)
        s = DirectSolver(name, n_threads=2)
        s.symbolic_factorization(A)
        s.numeric_factorization(A)
        s.numeric_factorization(A2)
        assert solve_residual(A2, s.solve(b), b) < 1e-12
        s = DirectSolver(name, n_threads=2)
        s.numeric_factorization(A)
        x, report = s.solve_resilient(A2, b)
        assert solve_residual(A2, x, b) < 1e-12
        assert len(report.attempts) == 1  # the first rung held

    def test_solve_before_factor_raises(self):
        s = DirectSolver("klu")
        with pytest.raises(RuntimeError):
            s.solve(np.zeros(3))

    def test_repr_states(self):
        s = DirectSolver("klu")
        assert "empty" in repr(s)
        A = _matrix(6)
        s.symbolic_factorization(A)
        assert "symbolic" in repr(s)
        s.numeric_factorization(A)
        assert "numeric" in repr(s)


class TestRCM:
    def test_is_permutation(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            A = random_sparse(30, 30, 0.1, rng, ensure_diag=True)
            assert is_permutation(rcm_order(A))

    def test_reduces_bandwidth_on_shuffled_band(self):
        rng = np.random.default_rng(10)
        n = 60
        band = np.eye(n) * 4 + np.eye(n, k=1) + np.eye(n, k=-1) + np.eye(n, k=2) + np.eye(n, k=-2)
        shuffle = rng.permutation(n)
        A = CSC.from_dense(band[np.ix_(shuffle, shuffle)])
        assert bandwidth(A) > 10
        p = rcm_order(A)
        B = A.permute(p, p)
        assert bandwidth(B) <= 4

    def test_grid_bandwidth_near_sqrt_n(self):
        rng = np.random.default_rng(11)
        A = grid2d(12, rng=rng)
        p = rcm_order(A)
        B = A.permute(p, p)
        assert bandwidth(B) <= 3 * 12  # O(sqrt(n)) profile

    def test_disconnected_components(self):
        d = np.zeros((6, 6))
        d[:3, :3] = np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1)
        d[3:, 3:] = np.eye(3) + np.eye(3, k=1) + np.eye(3, k=-1)
        A = CSC.from_dense(d)
        assert is_permutation(rcm_order(A))

    def test_empty(self):
        assert rcm_order(CSC.empty(0, 0)).size == 0
