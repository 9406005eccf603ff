"""Tests for transpose solve, block right-hand sides, refinement and diagnostics."""

import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core import Basker
from repro.solvers import KLU, SupernodalLU
from repro.solvers.dense import dense_lu_factor
from repro.errors import StructureError
from repro.solvers.extras import condest, refine_solve, rgrowth, solve_transpose
from repro.sparse import CSC, solve_residual

from .helpers import dense_residual, random_sparse, random_spd_like, to_scipy


def grid2d(m, rng):
    idx = lambda i, j: i * m + j
    rows, cols, vals = [], [], []
    for i, j in itertools.product(range(m), range(m)):
        rows.append(idx(i, j)); cols.append(idx(i, j)); vals.append(4.0 + rng.random())
        for di, dj in ((1, 0), (0, 1)):
            if i + di < m and j + dj < m:
                rows += [idx(i, j), idx(i + di, j + dj)]
                cols += [idx(i + di, j + dj), idx(i, j)]
                vals += [-1.0 - 0.3 * rng.random(), -1.0 - 0.1 * rng.random()]
    return CSC.from_coo(rows, cols, vals, (m * m, m * m))


def circuitish(rng):
    from repro.matrices import btf_composite, thick_ladder

    return btf_composite([3] * 10, big_block=thick_ladder(40, 5, rng=rng), rng=rng)


@pytest.fixture(params=["klu", "basker", "pmkl"])
def solver_numeric(request):
    rng = np.random.default_rng(42)
    A = circuitish(rng)
    if request.param == "klu":
        s = KLU()
    elif request.param == "basker":
        s = Basker(n_threads=4, nd_threshold=50)
    else:
        s = SupernodalLU()
    return s, s.factor(A), A


class TestTransposeSolve:
    def test_matches_scipy(self, solver_numeric):
        s, num, A = solver_numeric
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.n_rows)
        x = solve_transpose(num, b)
        x_ref = spla.spsolve(to_scipy(A).T.tocsc(), b)
        assert np.allclose(x, x_ref, atol=1e-8)

    def test_residual(self, solver_numeric):
        s, num, A = solver_numeric
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.n_rows)
        x = solve_transpose(num, b)
        assert np.max(np.abs(A.to_dense().T @ x - b)) < 1e-9

    def test_wrong_length(self, solver_numeric):
        s, num, A = solver_numeric
        with pytest.raises(ValueError):
            solve_transpose(num, np.zeros(A.n_rows + 1))


class TestSolveMulti:
    """Every solver's ``solve`` takes a block of right-hand sides."""

    def test_block_rhs(self, solver_numeric):
        s, num, A = solver_numeric
        rng = np.random.default_rng(2)
        B = rng.standard_normal((A.n_rows, 4))
        X = s.solve(num, B)
        for j in range(4):
            assert solve_residual(A, X[:, j], B[:, j]) < 1e-10

    def test_vector_passthrough(self, solver_numeric):
        s, num, A = solver_numeric
        rng = np.random.default_rng(3)
        b = rng.standard_normal(A.n_rows)
        assert np.allclose(s.solve(num, b[:, None])[:, 0], s.solve(num, b))

    def test_bad_ndim(self, solver_numeric):
        s, num, A = solver_numeric
        with pytest.raises(StructureError):
            s.solve(num, np.zeros((2, 2, 2)))


class TestRefinement:
    def test_residual_never_worse(self, solver_numeric):
        s, num, A = solver_numeric
        rng = np.random.default_rng(4)
        b = rng.standard_normal(A.n_rows)
        x, hist = refine_solve(s, num, A, b, max_steps=3)
        assert hist[-1] <= hist[0] * (1 + 1e-9)
        assert solve_residual(A, x, b) < 1e-12

    def test_stops_at_tolerance(self, solver_numeric):
        s, num, A = solver_numeric
        rng = np.random.default_rng(5)
        b = rng.standard_normal(A.n_rows)
        _, hist = refine_solve(s, num, A, b, max_steps=10, tol=1e-10)
        assert len(hist) <= 4  # direct solve already meets the tol


class TestDiagnostics:
    def test_rgrowth_near_one_for_dominant(self):
        rng = np.random.default_rng(6)
        A = random_spd_like(40, 0.1, rng)
        klu = KLU()
        num = klu.factor(A)
        g = rgrowth(A, num)
        assert 0.05 < g <= 2.0

    def test_rgrowth_small_for_nasty_matrix(self):
        """Element growth shows up as a small reciprocal growth."""
        n = 30
        d = np.eye(n) * 1e-6 + np.triu(np.ones((n, n)), 1)
        d[:, -1] = 1.0
        A = CSC.from_dense(d + np.tril(np.ones((n, n)) * 0.5, -1))
        klu = KLU(pivot_tol=0.001)
        num = klu.factor(A)
        assert rgrowth(A, num) < 0.7

    @pytest.mark.parametrize("scale", [None, "max", "sum"])
    def test_rgrowth_measures_the_equilibrated_matrix(self, scale):
        """Growth is measured against the matrix that was factored: a
        tiny but exactly factored first row is no growth, whether or not
        the caller equilibrated the rows (R A, by max or 1-norm) first."""
        from repro.interface import DirectSolver

        d = np.diag([1e-14, 1.0, 2.0, 3.0])
        d[1, 0] = 5e-15
        d[3, 2] = 0.1
        if scale is not None:
            r = np.abs(d).max(axis=1) if scale == "max" else np.abs(d).sum(axis=1)
            d = d / r[:, None]
        A = CSC.from_dense(d)
        x = np.arange(1.0, 5.0)
        b = A.matvec(x)
        ds = DirectSolver("klu")
        ds.numeric_factorization(A)
        rep = ds.health_report(A, ds.solve(b), b)
        assert rep.backward_error < 1e-15
        assert rep.rgrowth == pytest.approx(1.0)
        assert rep.ok, rep.to_dict()

    def test_condest_tracks_true_condition(self):
        rng = np.random.default_rng(7)
        A = grid2d(8, rng)
        klu = KLU()
        num = klu.factor(A)
        est = condest(klu, num, A)
        d = A.to_dense()
        true_cond = np.linalg.norm(d, 1) * np.linalg.norm(np.linalg.inv(d), 1)
        assert est <= true_cond * 1.01
        assert est >= 0.1 * true_cond  # 1-norm estimators are sharp in practice

    def test_condest_large_for_ill_conditioned(self):
        eps = 1e-10
        A = CSC.from_dense(np.array([[1.0, 1.0], [1.0, 1.0 + eps]]))
        klu = KLU()
        num = klu.factor(A)
        assert condest(klu, num, A) > 1e8


class TestDenseLU:
    def test_matches_gp_result_contract(self):
        rng = np.random.default_rng(8)
        A = random_sparse(15, 15, 0.5, rng, ensure_diag=True, diag_boost=3.0)
        res = dense_lu_factor(A)
        assert dense_residual(A, res.L, res.U, row_perm=res.row_perm) < 1e-12
        # L unit lower, U upper.
        assert np.allclose(np.diag(res.L.to_dense()), 1.0)
        assert np.allclose(np.tril(res.U.to_dense(), -1), 0.0)

    def test_pivots_by_magnitude(self):
        A = CSC.from_dense(np.array([[1e-12, 1.0], [1.0, 1.0]]))
        res = dense_lu_factor(A)
        assert res.row_perm.tolist() == [1, 0]
        assert res.L.max_abs() <= 1.0 + 1e-12

    def test_singular_raises(self):
        from repro.errors import SingularMatrixError

        A = CSC.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrixError):
            dense_lu_factor(A)

    def test_dense_flops_cubic(self):
        rng = np.random.default_rng(9)
        A = random_spd_like(20, 0.8, rng)
        res = dense_lu_factor(A)
        assert res.ledger.dense_flops == pytest.approx(2 * 20**3 / 3)

    def test_empty(self):
        res = dense_lu_factor(CSC.empty(0, 0))
        assert res.L.shape == (0, 0)


class TestSupernodalSeparators:
    def test_same_answer_as_default(self):
        rng = np.random.default_rng(10)
        A = grid2d(16, rng)
        b = rng.standard_normal(A.n_rows)
        x0 = None
        for sup in (False, True):
            bk = Basker(n_threads=4, nd_threshold=50, supernodal_separators=sup)
            num = bk.factor(A)
            x = bk.solve(num, b)
            assert solve_residual(A, x, b) < 1e-12
            if x0 is None:
                x0 = x
        assert np.allclose(x, x0, atol=1e-9)

    def test_moves_work_to_dense_flops(self):
        rng = np.random.default_rng(11)
        from repro.matrices import grid3d

        A = grid3d(8, rng=rng)
        plain = Basker(n_threads=4, nd_threshold=50).factor(A)
        dense = Basker(n_threads=4, nd_threshold=50, supernodal_separators=True).factor(A)
        assert dense.ledger.dense_flops > plain.ledger.dense_flops
        assert dense.ledger.sparse_flops < plain.ledger.sparse_flops
