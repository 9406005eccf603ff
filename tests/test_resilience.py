"""Tests for repro.resilience: health, faults, recovery ladder, chaos."""

import numpy as np
import pytest

from repro.core import Basker
from repro.errors import (
    FaultInjectionError,
    NumericalHealthError,
    RecoveryExhaustedError,
    RefinementDivergedError,
    ReproError,
    SingularMatrixError,
    StructureError,
    ZeroPivotError,
)
from repro.interface import DirectSolver
from repro.matrices import get_matrix
from repro.matrices.suite import suite_names
from repro.obs import Tracer, check_ledger_tree, tracing
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.chaos import FAILURE_CLASSES, run_chaos
from repro.resilience.faults import FAULT_KINDS, KNOWN_SITES
from repro.resilience.health import factor_health
from repro.resilience.recovery import RECOVERY_LADDER, run_ladder
from repro.solvers import KLU
from repro.solvers.extras import condest, refine_solve
from repro.sparse import CSC
from repro.sparse.verify import componentwise_backward_error, validate_rhs

from .helpers import random_spd_like


def _small(rng, n=60):
    return random_spd_like(n, 0.08, rng)


# ----------------------------------------------------------------------
# The chaos sweep: every suite matrix x every fault kind.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", suite_names(1))
def test_chaos_sweep_suite(name):
    """Every injected fault ends in a verified recovered solve or a
    typed ReproError — never a bare exception or a silent NaN."""
    out = run_chaos(names=[name], steps=1, warm=True)
    # One cell per fault kind, plus the cold gp.panel cells for the two
    # value-fault kinds (the dense-panel path of the blocked factor).
    assert len(out["cases"]) == len(FAULT_KINDS) + 2
    for case in out["cases"]:
        assert case["classification"] not in FAILURE_CLASSES, case
        assert case["classification"] in ("recovered", "typed_error")
        if case["classification"] == "recovered":
            for step in case["steps"]:
                assert step["outcome"] == "recovered"
    assert not out["failures"]


def test_chaos_faults_fire():
    out = run_chaos(names=["circuit_4"], steps=2, warm=True)
    assert all(c["events"] >= 1 for c in out["cases"])
    assert all(c["unfired"] == 0 for c in out["cases"])


# ----------------------------------------------------------------------
# Fault plans: determinism, validation, nesting.
# ----------------------------------------------------------------------


def test_fault_plan_deterministic_random():
    a = FaultPlan.random(seed=7, n_faults=4)
    b = FaultPlan.random(seed=7, n_faults=4)
    assert [s.__dict__ for s in a.specs] == [s.__dict__ for s in b.specs]
    c = FaultPlan.random(seed=8, n_faults=4)
    assert [s.__dict__ for s in a.specs] != [s.__dict__ for s in c.specs]


def test_fault_plan_fires_same_site_each_run():
    rng = np.random.default_rng(3)
    A = _small(rng)
    b = A.matvec(np.ones(A.n_rows))
    events = []
    for _ in range(2):
        klu = KLU()
        num = klu.factor(A)
        spec = FaultSpec(site="klu.refactor.values", kind="perturb")
        with FaultPlan([spec]) as plan:
            klu.refactor_fast(A, num)
            events.append([(e.site, e.index) for e in plan.events])
    assert events[0] == events[1] and events[0]


def test_fault_spec_validation():
    with pytest.raises(FaultInjectionError):
        FaultSpec(site="no.such.site", kind="perturb").validate()
    with pytest.raises(FaultInjectionError):
        FaultSpec(site="gp.factor.values", kind="pivot_zero").validate()
    with pytest.raises(FaultInjectionError):
        FaultSpec(site="gp.factor.values", kind="perturb", occurrence=-1).validate()
    for site, (_hook, kinds, _desc) in KNOWN_SITES.items():
        for kind in kinds:
            FaultSpec(site=site, kind=kind).validate()


def test_fault_plan_no_nesting():
    with FaultPlan([FaultSpec(site="gp.factor.values", kind="nan")]):
        with pytest.raises(FaultInjectionError):
            FaultPlan([]).__enter__()


def test_faults_do_not_mutate_input():
    rng = np.random.default_rng(5)
    A = _small(rng)
    data0 = A.data.copy()
    klu = KLU()
    num = klu.factor(A)
    with FaultPlan([FaultSpec(site="klu.refactor.values", kind="nan")]):
        klu.refactor_fast(A, num)
    np.testing.assert_array_equal(A.data, data0)


# ----------------------------------------------------------------------
# Health monitoring.
# ----------------------------------------------------------------------


def test_condest_vs_dense_cond():
    rng = np.random.default_rng(11)
    for _ in range(3):
        A = _small(rng, n=40)
        klu = KLU()
        num = klu.factor(A)
        est = condest(klu, num, A)
        dense = np.linalg.cond(A.to_dense(), 1)
        # Hager's estimator is a lower bound on the true 1-norm
        # condition number and is rarely off by more than ~10x.
        assert est <= dense * (1 + 1e-8)
        assert est >= dense / 100.0


def test_factor_health_clean_matrix():
    rng = np.random.default_rng(13)
    A = _small(rng)
    b = A.matvec(np.ones(A.n_rows))
    klu = KLU()
    num = klu.factor(A)
    x = klu.solve(num, b)
    rep = factor_health(klu, num, A, x=x, b=b)
    assert rep.ok
    assert rep.nonfinite_factors == 0 and rep.nonfinite_input == 0
    assert rep.min_pivot > 0 and rep.condest >= 1.0
    assert rep.backward_error is not None and rep.backward_error <= 1e-10
    d = rep.to_dict()
    assert d["ok"] and d["issues"] == []
    rep.raise_if_sick()  # no-op when healthy


def test_factor_health_flags_nan():
    rng = np.random.default_rng(17)
    A = _small(rng)
    klu = KLU()
    num = klu.factor(A)
    num.block_lu[-1].U.data[-1] = np.nan  # corrupt one stored factor entry
    rep = factor_health(klu, num, A)
    assert not rep.ok
    assert rep.nonfinite_factors > 0
    with pytest.raises(NumericalHealthError):
        rep.raise_if_sick()


def test_componentwise_backward_error():
    rng = np.random.default_rng(19)
    A = _small(rng)
    x = np.ones(A.n_rows)
    b = A.matvec(x)
    assert componentwise_backward_error(A, x, b) <= 1e-15
    assert componentwise_backward_error(A, x * 1.5, b) > 1e-3
    xbad = x.copy()
    xbad[0] = np.nan
    assert componentwise_backward_error(A, xbad, b) == np.inf


# ----------------------------------------------------------------------
# RHS validation (typed StructureError instead of numpy broadcasting).
# ----------------------------------------------------------------------


def test_validate_rhs_rejects_bad_inputs():
    with pytest.raises(StructureError):
        validate_rhs(np.ones(3), 4)
    with pytest.raises(StructureError):
        validate_rhs(np.array([1.0, np.nan]), 2)
    with pytest.raises(StructureError):
        validate_rhs(np.array([1 + 2j, 0j]), 2)
    with pytest.raises(StructureError):
        validate_rhs(np.ones((2, 2, 2)), 2)
    out = validate_rhs([1, 2, 3], 3)
    assert out.dtype == np.float64


def test_direct_solver_validates_rhs():
    rng = np.random.default_rng(23)
    A = _small(rng)
    ds = DirectSolver("klu")
    ds.numeric_factorization(A)
    with pytest.raises(StructureError):
        ds.solve(np.ones(A.n_rows + 1))
    with pytest.raises(ValueError):  # StructureError is a ValueError
        ds.solve(np.full(A.n_rows, np.nan))
    with pytest.raises(StructureError):
        ds.solve_transpose(np.ones(A.n_rows - 1))


def test_zero_pivot_error_is_zero_division():
    # Back-compat: triangular solves historically raised
    # ZeroDivisionError; the typed error must still satisfy both.
    assert issubclass(ZeroPivotError, ZeroDivisionError)
    assert issubclass(ZeroPivotError, SingularMatrixError)
    assert issubclass(ZeroPivotError, ReproError)
    assert issubclass(StructureError, ValueError)


# ----------------------------------------------------------------------
# Refinement history and divergence.
# ----------------------------------------------------------------------


def test_solve_refined_returns_history():
    rng = np.random.default_rng(29)
    A = _small(rng)
    b = A.matvec(np.ones(A.n_rows))
    ds = DirectSolver("klu")
    ds.numeric_factorization(A)
    x, hist = ds.solve_refined(A, b)
    assert hist and hist[-1] <= hist[0] * (1 + 1e-9)
    assert np.max(np.abs(x - 1.0)) < 1e-8


def test_refinement_diverges_on_wrong_factors():
    rng = np.random.default_rng(31)
    A = _small(rng)
    b = A.matvec(np.ones(A.n_rows))
    klu = KLU()
    num = klu.factor(A)
    # Refine against a *different* matrix: corrections push the iterate
    # away and the residual grows.
    A2 = CSC(A.n_rows, A.n_cols, A.indptr, A.indices, -3.0 * A.data)
    with pytest.raises(RefinementDivergedError) as exc_info:
        for _ in range(8):  # divergence may need a few outer retries
            refine_solve(klu, num, A2, b, max_steps=8)
    assert exc_info.value.history


# ----------------------------------------------------------------------
# The recovery ladder.
# ----------------------------------------------------------------------


def test_ladder_order_and_replay_first():
    assert RECOVERY_LADDER == (
        "replay", "refactor", "repivot", "perturb_refine", "dense_fallback"
    )
    rng = np.random.default_rng(37)
    A = _small(rng)
    b = A.matvec(np.ones(A.n_rows))
    klu = KLU()
    num = klu.factor(A)
    x, _num2, report = run_ladder(klu, A, b, prior=num)
    assert report.succeeded == "replay"
    assert [a.rung for a in report.attempts] == ["replay"]
    assert report.backward_error <= 1e-10


def test_ladder_escalates_past_faulted_replay():
    rng = np.random.default_rng(41)
    A = _small(rng)
    b = A.matvec(np.ones(A.n_rows))
    klu = KLU()
    num = klu.factor(A)
    with FaultPlan([FaultSpec(site="klu.refactor.values", kind="nan")]):
        x, _num2, report = run_ladder(klu, A, b, prior=num)
    rungs = [a.rung for a in report.attempts]
    assert rungs[0] == "replay" and not report.attempts[0].ok
    assert report.succeeded in RECOVERY_LADDER[1:]
    assert componentwise_backward_error(A, x, b) <= 1e-10


def test_ladder_exhaustion_carries_attempts():
    # A matrix of all NaN cannot be solved by any rung.
    n = 6
    A = CSC.from_coo(
        np.arange(n), np.arange(n), np.full(n, np.nan), (n, n)
    )
    b = np.ones(n)
    klu = KLU()
    with pytest.raises(RecoveryExhaustedError) as exc_info:
        run_ladder(klu, A, b)
    attempts = exc_info.value.attempts
    assert [a.rung for a in attempts] == list(RECOVERY_LADDER[1:])
    assert all(not a.ok for a in attempts)


def test_ladder_spans_metrics_and_ledger_conservation():
    rng = np.random.default_rng(43)
    A = _small(rng)
    b = A.matvec(np.ones(A.n_rows))
    klu = KLU()
    tracer = Tracer()
    with tracing(tracer):
        with tracer.span("solve") as root:
            sym = klu.analyze(A)
            num = klu.factor(A, symbolic=sym)
            pipeline = sym.ledger.copy()
            pipeline.add(num.ledger)
            with FaultPlan([FaultSpec(site="klu.refactor.values", kind="perturb")]):
                x, _n, report = run_ladder(klu, A, b, symbolic=sym, prior=num)
            pipeline.add(report.ledger)
            root.attach(pipeline)
    names = {s.name for s in tracer.spans}
    assert "resilience.rung.replay" in names
    assert "resilience.rung.refactor" in names
    snap = tracer.metrics.snapshot()
    assert snap["counters"]["resilience.attempts"] >= 2
    assert snap["counters"]["resilience.rung.replay.attempts"] == 1
    assert snap["counters"]["resilience.rung.refactor.success"] == 1
    assert snap["counters"]["resilience.faults.injected"] == 1
    assert check_ledger_tree(tracer) == []


@pytest.mark.parametrize("solver", ["klu", "basker"])
def test_replay_fallback_conserves_ledgers(solver):
    """A pivot zeroed in the replay workspace sends ``refactor_fast`` to
    its fallback refactor inside the replay rung: the failed replay's
    span books nothing, so every span still sums its children."""
    A = get_matrix("circuit_4")
    b = A.matvec(np.ones(A.n_rows))
    impl = KLU() if solver == "klu" else Basker(n_threads=1)
    tracer = Tracer()
    with tracing(tracer):
        with tracer.span("solve") as root:
            sym = impl.analyze(A)
            num = impl.factor(A, symbolic=sym)
            pipeline = sym.ledger.copy()
            pipeline.add(num.ledger)
            with FaultPlan([FaultSpec(site="schedule.replay.workspace",
                                      kind="pivot_zero")]):
                x, _n, report = run_ladder(impl, A, b, symbolic=sym, prior=num)
            pipeline.add(report.ledger)
            root.attach(pipeline)
    assert tracer.metrics.counter(f"{solver}.refactor.fallback") == 1
    assert report.succeeded == "replay"
    assert check_ledger_tree(tracer) == []


def test_solve_resilient_roundtrip():
    A = get_matrix("circuit_4")
    x_true = np.ones(A.n_rows)
    b = A.matvec(x_true)
    ds = DirectSolver("klu")
    x, report = ds.solve_resilient(A, b)
    assert report.ok and report.succeeded == "refactor"  # no prior yet
    x2, report2 = ds.solve_resilient(A, b)
    assert report2.succeeded == "replay"  # warm path reused
    assert np.max(np.abs(x2 - x_true)) < 1e-8


def _tridiagonal(n=30):
    """One irreducible, diagonally dominant block: BTF finds one block."""
    i = np.arange(n)
    rows = np.concatenate([i, i[1:], i[:-1]])
    cols = np.concatenate([i, i[:-1], i[1:]])
    vals = np.concatenate([np.full(n, 4.0), np.full(2 * (n - 1), -1.0)])
    return CSC.from_coo(rows, cols, vals, (n, n))


@pytest.mark.parametrize("solver", ["klu", "basker"])
@pytest.mark.parametrize("poisoned, rung", [
    ((0, 1), "perturb_refine"),
    ((0, 1, 2), "dense_fallback"),
], ids=["perturb_refine", "dense_fallback"])
def test_ladder_reaches_the_last_rungs(monkeypatch, solver, poisoned, rung):
    # Each poisoned fresh factorization fails one rung: refactor, then
    # repivot, then perturb_refine.
    import repro.resilience.recovery as recovery

    handed_back = []

    def spy(*args, **kwargs):
        out = run_ladder(*args, **kwargs)
        handed_back.append(out[1])
        return out

    monkeypatch.setattr(recovery, "run_ladder", spy)
    A = _tridiagonal()
    b = A.matvec(np.ones(A.n_rows))
    ds = DirectSolver(solver)
    specs = [FaultSpec(site="gp.factor.values", kind="nan", occurrence=k)
             for k in poisoned]
    with FaultPlan(specs):
        x, report = ds.solve_resilient(A, b)
    rungs = [a.rung for a in report.attempts]
    assert rungs == ["refactor", "repivot", "perturb_refine",
                     "dense_fallback"][:len(poisoned) + 1]
    assert report.succeeded == rung
    assert report.backward_error <= 1e-10
    assert componentwise_backward_error(A, x, b) <= 1e-10
    # Neither rung hands back a factorization for later replays.
    assert handed_back == [None]


# ----------------------------------------------------------------------
# Transient recovery: step rejection and dt cut.
# ----------------------------------------------------------------------


def test_transient_recovery_clean_run_unchanged():
    from repro.xyce.circuits import rc_ladder
    from repro.xyce.transient import run_transient

    circ = rc_ladder(4)
    base = run_transient(circ, t_end=5e-4, dt=1e-4, record_matrices=False)
    rec = run_transient(circ, t_end=5e-4, dt=1e-4, record_matrices=False,
                        recovery=True)
    assert rec.rejected_steps == 0 and rec.recovery_events == []
    np.testing.assert_allclose(rec.states, base.states, rtol=1e-12, atol=1e-14)


def test_transient_recovers_from_injected_fault():
    from repro.xyce.circuits import rc_ladder
    from repro.xyce.transient import run_transient

    circ = rc_ladder(4)
    # Poison the very first factorization; the ladder must absorb it.
    with FaultPlan([FaultSpec(site="gp.factor.values", kind="nan")]):
        rec = run_transient(circ, t_end=5e-4, dt=1e-4, record_matrices=False,
                            recovery=True)
    assert rec.converged
    assert rec.recovery_events, "the ladder should have been consulted"
    assert all(ev.get("ok", True) or ev.get("attempts") for ev in rec.recovery_events)
    assert np.all(np.isfinite(rec.states))
