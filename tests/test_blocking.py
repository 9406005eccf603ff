"""Parity tests for the structure-aware dense-blocked ``gp_factor``.

The blocked kernel must be an exact reorganization of the reference
Gilbert–Peierls loop (``gp_factor_reference``): identical patterns and
row permutation, bit-identical :class:`CostLedger`, values equal up to
summation order — for *any* switch column and either pivoting mode
(threshold pivoting, or static perturbation of unusable pivots), which
is why these tests are free to force arbitrary switch points.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SingularMatrixError
from repro.graph.dfs import ReachGraph, ReachWorkspace, topo_reach
from repro.obs import Tracer, check_ledger_tree, tracing
from repro.parallel import CostLedger
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.solvers import KLU
from repro.solvers.gp import GP_DEFAULT_PIVOT_TOL, gp_factor, gp_factor_reference
from repro.sparse import CSC, factorization_residual
from repro.sparse.blocking import (
    DENSE_TAIL_MIN_COLS,
    DensePlan,
    detect_dense_tail,
    predicted_tail_density,
)

from .helpers import random_sparse, random_spd_like


def forced_plan(A: CSC, switch: int) -> DensePlan:
    """A plan that switches to the dense tail at an arbitrary column."""
    n = A.n_cols
    return DensePlan(
        n=n, switch=switch, density=0.0, threshold=0.0, min_cols=0,
        indptr=A.indptr, indices=A.indices,
    )


def assert_same_factors(blocked, reference, tol=1e-9):
    """Identical patterns, permutation and ledger; values up to
    summation order."""
    assert np.array_equal(blocked.row_perm, reference.row_perm)
    for Fb, Fr in ((blocked.L, reference.L), (blocked.U, reference.U)):
        assert np.array_equal(Fb.indptr, Fr.indptr)
        assert np.array_equal(Fb.indices, Fr.indices)
        scale = max(np.abs(Fr.data).max(), 1.0) if Fr.data.size else 1.0
        assert np.allclose(Fb.data, Fr.data, rtol=tol, atol=tol * scale)
    # Ledgers are operation counts: bit-identical, all fields.
    assert blocked.ledger.__dict__ == reference.ledger.__dict__


def assert_parity(A: CSC, blocked, reference, tol=1e-9):
    """The full contract between the two kernels on a nonsingular input."""
    assert_same_factors(blocked, reference, tol)
    assert factorization_residual(A, blocked.L, blocked.U, blocked.row_perm) < 1e-10


def assert_bit_identical(blocked, reference):
    assert np.array_equal(blocked.row_perm, reference.row_perm)
    for Fb, Fr in ((blocked.L, reference.L), (blocked.U, reference.U)):
        assert np.array_equal(Fb.indptr, Fr.indptr)
        assert np.array_equal(Fb.indices, Fr.indices)
        assert Fb.data.tobytes() == Fr.data.tobytes()
    assert blocked.ledger.__dict__ == reference.ledger.__dict__


def empty_columns(A: CSC, rng: np.random.Generator) -> CSC:
    """``A`` with ⌈n/6⌉ random columns emptied: structurally singular.
    When ``A`` has a full diagonal of random values its other columns
    keep full rank, so the input is not singular by cancellation, where
    the two kernels' summation orders may disagree about an exact 0.0
    pivot."""
    n = A.n_cols
    dead = rng.choice(n, size=-(-n // 6), replace=False)
    col = np.repeat(np.arange(n), np.diff(A.indptr))
    keep = ~np.isin(col, dead)
    return CSC.from_coo(A.indices[keep], col[keep], A.data[keep], (n, n))


PERTURB = 1e-8


class TestBlockedParity:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(5, 60),
        density=st.floats(0.05, 0.4),
        seed=st.integers(0, 10_000),
        switch_frac=st.floats(0.0, 1.0),
    )
    def test_random_matrices_any_switch(self, n, density, seed, switch_frac):
        rng = np.random.default_rng(seed)
        A = random_spd_like(n, density, rng)
        switch = int(round(switch_frac * n))
        ref = gp_factor_reference(A)
        blk = gp_factor(A, dense_plan=forced_plan(A, switch))
        assert_parity(A, blk, ref)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(5, 40),
        seed=st.integers(0, 10_000),
        switch_frac=st.floats(0.0, 1.0),
    )
    def test_pivoting_matrices_any_switch(self, n, seed, switch_frac):
        """No diagonal dominance: real row exchanges inside the panel."""
        rng = np.random.default_rng(seed)
        A = random_sparse(n, n, 0.3, rng, ensure_diag=True)
        switch = int(round(switch_frac * n))
        try:
            ref = gp_factor_reference(A, pivot_tol=1.0)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                gp_factor(A, pivot_tol=1.0, dense_plan=forced_plan(A, switch))
            return
        blk = gp_factor(A, pivot_tol=1.0, dense_plan=forced_plan(A, switch))
        assert_parity(A, blk, ref)

    def test_cancellation_keeps_ledger_parity(self):
        """U entries that cancel to exactly 0.0 in the dense tail but to
        ~1e-16 in the reference loop: the flop counts still agree."""
        rng = np.random.default_rng(1377)
        A = random_sparse(33, 33, 0.3, rng, ensure_diag=True)
        ref = gp_factor_reference(A, pivot_tol=1.0)
        blk = gp_factor(A, pivot_tol=1.0, dense_plan=forced_plan(A, 0))
        assert np.count_nonzero(blk.U.data == 0.0) > np.count_nonzero(ref.U.data == 0.0)
        assert_parity(A, blk, ref)

    def test_switch_extremes(self):
        rng = np.random.default_rng(3)
        A = random_spd_like(30, 0.2, rng)
        ref = gp_factor_reference(A)
        for switch in (0, 1, 29, 30):
            blk = gp_factor(A, dense_plan=forced_plan(A, switch))
            assert_parity(A, blk, ref)

    def test_detected_plan_parity(self):
        """The auto-detected plan (the production path) agrees too."""
        rng = np.random.default_rng(4)
        A = random_spd_like(80, 0.3, rng)
        ref = gp_factor_reference(A)
        blk = gp_factor(A)
        assert blk.dense_plan is not None
        assert_parity(A, blk, ref)

    def test_suite_block_parity(self):
        """Largest BTF block of a suite matrix, via KLU's extraction."""
        from repro.matrices import get_matrix

        A = get_matrix("Xyce0*")
        num = KLU().factor(A)
        splits = num.symbolic.block_splits
        k = int(np.argmax(np.diff(splits)))
        lo, hi = int(splits[k]), int(splits[k + 1])
        blk_mat = num.M.submatrix(lo, hi, lo, hi)
        ref = gp_factor_reference(blk_mat)
        blk = gp_factor(blk_mat)
        assert blk.dense_plan is not None and blk.dense_plan.has_tail
        assert_parity(blk_mat, blk, ref)

    def test_singular_same_failure(self):
        """Singularity surfaces identically whichever side of the
        switch the failing column lands on."""
        d = np.eye(8)
        d[5, 5] = 0.0
        d[0, 5] = 0.0
        A = CSC.from_dense(d)
        with pytest.raises(SingularMatrixError):
            gp_factor_reference(A)
        for switch in (0, 3, 6, 8):
            with pytest.raises(SingularMatrixError):
                gp_factor(A, dense_plan=forced_plan(A, switch))

    def test_ledger_accumulates_into_caller(self):
        rng = np.random.default_rng(5)
        A = random_spd_like(25, 0.2, rng)
        led = CostLedger()
        led.sparse_flops = 7.0
        gp_factor(A, ledger=led, dense_plan=forced_plan(A, 10))
        ref_led = CostLedger()
        gp_factor_reference(A, ledger=ref_led)
        assert led.sparse_flops == 7.0 + ref_led.sparse_flops


class TestStaticPerturbation:
    """``static_perturb > 0`` runs the blocked kernel with the
    reference's perturbation rule in both phases."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(5, 60),
        density=st.floats(0.05, 0.4),
        seed=st.integers(0, 10_000),
        switch_frac=st.floats(0.0, 1.0),
        pivot_tol=st.sampled_from([GP_DEFAULT_PIVOT_TOL, 1.0]),
    )
    def test_structurally_singular_any_switch(self, n, density, seed, switch_frac, pivot_tol):
        # No residual bound: perturbed factors are not faithful to A.
        rng = np.random.default_rng(seed)
        A = empty_columns(random_sparse(n, n, density, rng, ensure_diag=True), rng)
        switch = int(round(switch_frac * n))
        ref = gp_factor_reference(A, pivot_tol=pivot_tol, static_perturb=PERTURB)
        blk = gp_factor(A, pivot_tol=pivot_tol, static_perturb=PERTURB,
                        dense_plan=forced_plan(A, switch))
        assert_same_factors(blk, ref)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 60),
        density=st.floats(0.02, 0.4),
        seed=st.integers(0, 10_000),
        full_diag=st.booleans(),
        pivot_tol=st.sampled_from([0.0, GP_DEFAULT_PIVOT_TOL, 1.0]),
    )
    def test_scalar_head_is_bit_identical(self, n, density, seed, full_diag, pivot_tol):
        """Without a tail the perturbed kernel is the reference recipe,
        on any input, singular by cancellation or not."""
        rng = np.random.default_rng(seed)
        A = random_sparse(n, n, density, rng, ensure_diag=full_diag)
        ref = gp_factor_reference(A, pivot_tol=pivot_tol, static_perturb=PERTURB)
        blk = gp_factor(A, pivot_tol=pivot_tol, static_perturb=PERTURB,
                        dense_plan=forced_plan(A, n))
        assert_bit_identical(blk, ref)

    # Column 2 reaches only the pivotal rows 0 and 1, and row 2 is free:
    # row 2 becomes column 2's pivot from outside its reach.
    DIAG_FREE = np.array([
        [4.0, 1.0, 1.0, 0.0, 0.0],
        [1.0, 4.0, 2.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 4.0, 1.0],
        [0.0, 0.0, 0.0, 1.0, 4.0],
    ])
    # Column 0 pivots on row 2, so column 2 (reach {2, 1}, both
    # pivotal) takes the smallest free row, 0.
    DIAG_TAKEN = np.array([
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 4.0, 2.0, 0.0],
        [5.0, 0.0, 3.0, 0.0],
        [0.0, 0.0, 0.0, 2.0],
    ])

    @pytest.mark.parametrize("dense, perm", [
        (DIAG_FREE, [0, 1, 2, 3, 4]),
        (DIAG_TAKEN, [2, 1, 0, 3]),
    ])
    @pytest.mark.parametrize("switch", [0, 1, 2, 3])
    def test_no_unpivoted_row_in_reach(self, dense, perm, switch):
        A = CSC.from_dense(dense)
        with pytest.raises(SingularMatrixError):
            gp_factor(A, pivot_tol=1.0, dense_plan=forced_plan(A, switch))
        ref = gp_factor_reference(A, pivot_tol=1.0, static_perturb=PERTURB)
        blk = gp_factor(A, pivot_tol=1.0, static_perturb=PERTURB,
                        dense_plan=forced_plan(A, switch))
        assert_same_factors(blk, ref)
        assert blk.row_perm.tolist() == perm
        assert blk.U.to_dense()[2, 2] == PERTURB
        assert blk.L.to_dense()[:, 2].tolist() == [0.0, 0.0, 1.0] + [0.0] * (A.n_cols - 3)

    @pytest.mark.parametrize("switch", [0, 1, 2, 4])
    def test_all_candidates_exactly_zero(self, switch):
        """Column 2 stores explicit zeros in the free rows 2 and 3: the
        first of them in reach order takes the perturbed pivot."""
        dense = np.array([
            [4.0, 1.0, 1.0, 0.0],
            [1.0, 4.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 3.0],
        ])
        B = CSC.from_dense(dense)
        rows = np.concatenate([B.indices, [2, 3]])
        cols = np.concatenate([np.repeat(np.arange(4), np.diff(B.indptr)), [2, 2]])
        vals = np.concatenate([B.data, [0.0, 0.0]])
        A = CSC.from_coo(rows, cols, vals, (4, 4))
        assert A.nnz == B.nnz + 2
        ref = gp_factor_reference(A, static_perturb=PERTURB)
        blk = gp_factor(A, static_perturb=PERTURB, dense_plan=forced_plan(A, switch))
        assert_same_factors(blk, ref)
        assert blk.U.to_dense()[2, 2] == PERTURB
        with pytest.raises(SingularMatrixError):
            gp_factor(A, dense_plan=forced_plan(A, switch))


class TestDetection:
    def test_dense_matrix_switches_at_zero(self):
        n = 2 * DENSE_TAIL_MIN_COLS
        A = CSC.from_dense(np.random.default_rng(0).standard_normal((n, n)))
        plan = detect_dense_tail(A)
        assert plan.switch == 0 and plan.has_tail
        assert plan.density == pytest.approx(1.0)

    def test_identity_has_no_tail(self):
        plan = detect_dense_tail(CSC.identity(100))
        assert not plan.has_tail and plan.switch == 100

    def test_small_matrix_stays_scalar(self):
        n = DENSE_TAIL_MIN_COLS - 1
        A = CSC.from_dense(np.ones((n, n)))
        assert not detect_dense_tail(A).has_tail

    def test_max_words_caps_tail(self):
        n = 3 * DENSE_TAIL_MIN_COLS
        A = CSC.from_dense(np.random.default_rng(1).standard_normal((n, n)))
        plan = detect_dense_tail(A, max_words=n * DENSE_TAIL_MIN_COLS)
        assert plan.tail_cols == DENSE_TAIL_MIN_COLS

    def test_density_curve_matches_definition(self):
        counts = np.array([4, 3, 2, 1], dtype=np.int64)
        dens = predicted_tail_density(counts)
        for k in range(4):
            m = 4 - k
            assert dens[k] == pytest.approx((2 * counts[k:].sum() - m) / m**2)

    def test_matches_revalidates_pattern(self):
        rng = np.random.default_rng(6)
        A = random_spd_like(40, 0.2, rng)
        plan = detect_dense_tail(A)
        assert plan.matches(A)
        B = CSC(A.n_rows, A.n_cols, A.indptr, A.indices, A.data * 2.0)
        assert plan.matches(B)  # values don't matter
        C = CSC.identity(40)
        assert not plan.matches(C)

    def test_klu_caches_plans_across_factors(self):
        from repro.matrices import get_matrix

        A = get_matrix("Xyce0*")
        klu = KLU()
        num = klu.factor(A)
        plans = num.symbolic.dense_plans
        assert plans is not None and any(p is not None for p in plans)
        klu.factor(A, symbolic=num.symbolic)
        assert num.symbolic.dense_plans is plans


class TestPanelObservability:
    def test_panel_span_and_ledger_conservation(self):
        rng = np.random.default_rng(7)
        A = random_spd_like(60, 0.3, rng)
        tracer = Tracer()
        with tracing(tracer):
            with tracer.span("numeric.gp") as sp:
                res = gp_factor(A, dense_plan=forced_plan(A, 20))
                sp.attach(res.ledger)
        names = [s.name for s in tracer.spans]
        assert "numeric.gp.panel" in names
        assert check_ledger_tree(tracer) == []

    def test_perturbed_factor_runs_the_panel(self):
        """Static perturbation keeps the detected dense tail and its
        traced panel, whose ledger still conserves."""
        rng = np.random.default_rng(9)
        A = empty_columns(random_sparse(48, 48, 0.5, rng, ensure_diag=True), rng)
        tracer = Tracer()
        with tracing(tracer):
            with tracer.span("numeric.gp") as sp:
                res = gp_factor(A, static_perturb=PERTURB)
                sp.attach(res.ledger)
        assert res.dense_plan is not None and res.dense_plan.has_tail
        assert "numeric.gp.panel" in [s.name for s in tracer.spans]
        assert check_ledger_tree(tracer) == []
        assert_same_factors(res, gp_factor_reference(A, static_perturb=PERTURB))

    def test_panel_fault_site_fires_and_is_isolated(self):
        rng = np.random.default_rng(8)
        A = random_spd_like(50, 0.3, rng)
        clean = gp_factor(A, dense_plan=forced_plan(A, 20))
        data_before = A.data.copy()
        spec = FaultSpec(site="gp.panel", kind="perturb", occurrence=0)
        with FaultPlan([spec]) as plan:
            faulted = gp_factor(A, dense_plan=forced_plan(A, 20))
            assert len(plan.events) == 1 and not plan.unfired()
        # Copy semantics: the input matrix is untouched.
        assert np.array_equal(A.data, data_before)
        assert not np.array_equal(clean.U.data, faulted.U.data)
        # Scalar-only factorizations never reach the site.
        with FaultPlan([spec]) as plan:
            gp_factor(A, dense_plan=forced_plan(A, A.n_cols))
            assert plan.unfired()

    def test_resilient_solve_recovers_from_panel_fault(self):
        from repro.interface import DirectSolver
        from repro.matrices import get_matrix

        A = get_matrix("Xyce0*")
        x_true = np.ones(A.n_rows)
        b = A.matvec(x_true)
        spec = FaultSpec(site="gp.panel", kind="nan", occurrence=0)
        with FaultPlan([spec]) as plan:
            ds = DirectSolver("klu")
            x, report = ds.solve_resilient(A, b, tol=1e-10)
            assert len(plan.events) == 1
        assert report.succeeded is not None
        assert np.all(np.isfinite(x))


class TestReachGraph:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 10_000))
    def test_bit_parity_with_topo_reach(self, n, seed):
        rng = np.random.default_rng(seed)
        L = random_sparse(n, n, 0.3, rng, ensure_diag=True).sort_indices()
        # Unit lower-triangular pattern, like a real L factor.
        keep = L.indices >= np.repeat(np.arange(n), np.diff(L.indptr))
        col_of = np.repeat(np.arange(n), np.diff(L.indptr))[keep]
        Lt = CSC.from_coo(L.indices[keep], col_of, L.data[keep], (n, n))
        pinv = rng.permutation(n).astype(np.int64)
        g = ReachGraph.from_csc(Lt)
        ws = ReachWorkspace(n)
        pinv_l = pinv.tolist()
        for k in range(n):
            brows = rng.integers(0, n, size=rng.integers(1, n + 1))
            ws.next_stamp()
            top_ref, steps_ref = topo_reach(Lt.indptr, Lt.indices, brows, pinv, ws)
            g.next_stamp()
            top, steps = g.reach(brows.tolist(), pinv_l)
            assert (top, steps) == (top_ref, steps_ref)
            assert g.xi[top:n] == list(ws.xi[top_ref:n])
