"""Tests for repro.analysis.effects.

Five layers:

* analyzer semantics on synthetic sources (each finding class fires on
  its minimal trigger and stays quiet on the sanctioned idiom),
* the seeded-violation fixtures and the whole-tree gate (the annotated
  tree must be clean while every fixture trips exactly its class),
* the deleted E3 and E4 loop rules' cases, each tripping the check that
  covers its invariant (lint R6, the hazard checker),
* differential soundness — run real kernels under snapshotting and
  require the dynamically observed mutations to be a subset of the
  static summaries,
* the plan auditor's E4 (write disjointness) audits and the hazard
  regression on the declared task DAGs.
"""

import copy
import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest

from repro.analysis import (
    audit_schedule_buffers,
    check_effects_paths,
    check_effects_source,
    check_effects_tree,
    check_hazards,
    collect_effect_summaries,
    lint_source,
    summary_for,
)
from repro.matrices.suite import get_matrix
from repro.parallel import CostLedger
from repro.solvers.gp import ensure_refactor_schedule, gp_factor
from repro.solvers.klu import KLU
from repro.solvers.supernodal import SupernodalLU
from repro.sparse.schedule import compile_triangular_schedule

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "effects"


def codes(findings):
    return sorted({f.code for f in findings})


# ---------------------------------------------------------------------------
# Analyzer semantics on synthetic sources
# ---------------------------------------------------------------------------

class TestEmissionChecks:
    def test_e1_missing_write_family(self):
        src = (
            "# effects: blocks x=x y=y\n"
            "def emit(tasks, led, x, y, lo):\n"
            "    x[lo] = 0.0\n"
            "    y[lo] = 0.0\n"
            "    tasks.append(SimTask(tid=0, ledger=led, writes=[('x', lo)]))\n"
        )
        finds = check_effects_source(src)
        assert codes(finds) == ["E1"]
        assert "y" in finds[0].message

    def test_e1_clean_when_covered(self):
        src = (
            "# effects: blocks x=x\n"
            "def emit(tasks, led, x, lo):\n"
            "    x[lo] = 0.0\n"
            "    tasks.append(SimTask(tid=0, ledger=led, writes=[('x', lo)]))\n"
        )
        assert check_effects_source(src) == []

    def test_e1_reads_covered_by_writes(self):
        src = (
            "# effects: blocks x=x\n"
            "def emit(tasks, led, x, lo):\n"
            "    x[lo] = x[lo] * 2.0\n"
            "    tasks.append(SimTask(tid=0, ledger=led, writes=[('x', lo)]))\n"
        )
        assert check_effects_source(src) == []

    def test_e4_clean_when_keys_vary(self):
        src = (
            "# effects: blocks x=x\n"
            "def emit(tasks, led, x, n):\n"
            "    for ci in range(n):\n"
            "        x[ci] = 0.0\n"
            "        tasks.append(SimTask(tid=ci, ledger=led,\n"
            "                             writes=[('x', ci)]))\n"
        )
        assert check_effects_source(src) == []


class TestPurityChecks:
    def test_e2_direct_mutation(self):
        src = (
            "from repro.contracts import effects\n"
            "@effects(pure=True)\n"
            "def f(x):\n"
            "    x[0] = 1.0\n"
            "    return x\n"
        )
        assert codes(check_effects_source(src)) == ["E2"]

    def test_e2_interprocedural(self):
        src = (
            "from repro.contracts import effects\n"
            "def helper(v):\n"
            "    v[:] = 0.0\n"
            "@effects(pure=True)\n"
            "def f(x):\n"
            "    helper(x)\n"
        )
        assert codes(check_effects_source(src)) == ["E2"]

    def test_e2_conditional_alias(self):
        # The ``led = ledger if ledger is not None else CostLedger()``
        # idiom must not hide the mutation (regression for the IfExp
        # alias fix).
        src = (
            "from repro.contracts import effects\n"
            "@effects(pure=True)\n"
            "def f(ledger):\n"
            "    led = ledger if ledger is not None else dict()\n"
            "    led['flops'] = 1\n"
            "    return led\n"
        )
        assert codes(check_effects_source(src)) == ["E2"]

    def test_e2_boolop_alias(self):
        src = (
            "from repro.contracts import effects\n"
            "@effects(pure=True)\n"
            "def f(ledger):\n"
            "    led = ledger or dict()\n"
            "    led['flops'] = 1\n"
            "    return led\n"
        )
        assert codes(check_effects_source(src)) == ["E2"]

    def test_declared_mutates_is_allowed(self):
        src = (
            "from repro.contracts import effects\n"
            "@effects(mutates=('out',))\n"
            "def f(x, out):\n"
            "    out[:] = x * 2.0\n"
            "    return out\n"
        )
        assert check_effects_source(src) == []

    def test_e2_undeclared_extra_mutation(self):
        src = (
            "from repro.contracts import effects\n"
            "@effects(mutates=('out',))\n"
            "def f(x, out):\n"
            "    out[:] = x\n"
            "    x[0] = 0.0\n"
        )
        finds = check_effects_source(src)
        assert codes(finds) == ["E2"]
        assert "'x'" in finds[0].message

    def test_copy_breaks_alias(self):
        src = (
            "from repro.contracts import effects\n"
            "@effects(pure=True)\n"
            "def f(x):\n"
            "    y = x.copy()\n"
            "    y[0] = 1.0\n"
            "    return y\n"
        )
        assert check_effects_source(src) == []


class TestProcessSafety:
    def test_e3_global_ok_pin(self):
        # lint R6's pin shares the ``# effects:`` tag; the effect
        # checker accepts it without an E0.
        src = (
            "_CACHE = {}  # effects: global-ok\n"
            "def f(k, v):\n"
            "    _CACHE[k] = v\n"
        )
        assert check_effects_source(src) == []


class TestNumpyInPlace:
    def test_e5_out_aliases_input(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    np.dot(a, b, out=a)\n"
        )
        assert codes(check_effects_source(src)) == ["E5"]

    def test_e5_distinct_out_ok(self):
        src = (
            "import numpy as np\n"
            "def f(a, b, out):\n"
            "    np.dot(a, b, out=out)\n"
        )
        assert check_effects_source(src) == []

    def test_e5_broadcast_augassign(self):
        src = (
            "import numpy as np\n"
            "def f(a):\n"
            "    v = np.broadcast_to(a, (3, 4))\n"
            "    v += 1.0\n"
        )
        assert codes(check_effects_source(src)) == ["E5"]

    def test_cumsum_out_self_is_sanctioned(self):
        src = (
            "import numpy as np\n"
            "def f(a):\n"
            "    np.cumsum(a, out=a)\n"
            "    return a\n"
        )
        assert check_effects_source(src) == []


class TestPins:
    def test_e0_malformed_pin(self):
        src = "# effects: frobnicate x=y\ndef f():\n    return 1\n"
        finds = check_effects_source(src)
        assert codes(finds) == ["E0"]
        assert "frobnicate" in finds[0].message


# ---------------------------------------------------------------------------
# Fixtures + the tree gate
# ---------------------------------------------------------------------------

FIXTURE_EXPECT = [
    ("e1_missing_decl.py", "E1"),
    ("e2_pure_mutation.py", "E2"),
    ("e5_numpy_inplace.py", "E5"),
]


class TestFixtures:
    @pytest.mark.parametrize("fixture,code", FIXTURE_EXPECT)
    def test_fixture_trips_exactly_its_class(self, fixture, code):
        finds = check_effects_paths([str(FIXTURES / fixture)])
        assert finds, f"{fixture} produced no findings"
        assert codes(finds) == [code]

    def test_clean_fixture(self):
        assert check_effects_paths([str(FIXTURES / "clean_kernel.py")]) == []

    def test_tree_is_clean(self):
        finds = check_effects_tree()
        assert finds == [], "\n".join(
            f"{f.path}:{f.line} {f.code} {f.message}" for f in finds
        )


def _load_fixture(name):
    spec = importlib.util.spec_from_file_location(
        "fixture_" + name[:-3], FIXTURES / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDeletedRuleCovers:
    """The cases of the deleted static rules trip the checks that cover
    the same invariants."""

    def test_e4_fixture_tasks_race(self):
        tasks = []
        _load_fixture("e4_same_level_writes.py").emit_levels(
            tasks, CostLedger(), np.zeros(12), levels=2, chunks=3)
        rep = check_hazards(tasks)
        assert not rep.ok
        assert {h.kind for h in rep.hazards} == {"race"}

    def test_clean_fixture_tasks_do_not_race(self):
        tasks = []
        _load_fixture("clean_kernel.py").emit_level(
            tasks, CostLedger(), np.zeros(12), lv=1, chunks=3)
        assert len(tasks) == 3 and check_hazards(tasks).ok

    def test_e3_source_trips_lint_r6(self):
        # E3a's case: a kernel function writing module state.
        source = (
            "_CACHE = {}\n"
            "\n"
            "\n"
            "def remember(key, value):\n"
            "    _CACHE[key] = value\n"
            "    return _CACHE[key]\n"
        )
        assert check_effects_source(source, "core/x.py") == []
        found = lint_source(source, "core/x.py")
        assert [(f.line, f.rule) for f in found] == [(1, "R6")]
        assert "'_CACHE'" in found[0].message


# ---------------------------------------------------------------------------
# Differential soundness: dynamic mutations ⊆ static summaries
# ---------------------------------------------------------------------------

def _csc_snapshot(A):
    return (A.indptr.copy(), A.indices.copy(), A.data.copy())


def _csc_changed(A, snap):
    ip, ix, dx = snap
    return not (
        np.array_equal(A.indptr, ip)
        and np.array_equal(A.indices, ix)
        and np.array_equal(A.data, dx)
    )


class TestDifferentialSoundness:
    def test_gp_factor_mutates_only_the_ledger(self):
        A = get_matrix("Power0*+")
        led = CostLedger()
        led_before = dataclasses.asdict(led)
        snap = _csc_snapshot(A)
        gp_factor(A, ledger=led)

        observed = set()
        if _csc_changed(A, snap):
            observed.add("A")
        if dataclasses.asdict(led) != led_before:
            observed.add("ledger")
        assert "ledger" in observed  # the run really was instrumented

        summary = summary_for(
            collect_effect_summaries(), "solvers/gp.py", "gp_factor"
        )
        assert observed <= set(summary.mutates)

    def test_klu_refactor_fast_mutates_only_numeric(self):
        A = get_matrix("Power0*+")
        klu = KLU()
        numeric = klu.factor(A)
        A2 = A.copy()
        rng = np.random.default_rng(7)
        A2.data *= 1.0 + 0.01 * rng.standard_normal(A2.data.size)

        snap = _csc_snapshot(A2)
        self_before = dict(vars(klu))
        plan_before = numeric.refactor_plan
        klu.refactor_fast(A2, numeric)

        observed = set()
        if _csc_changed(A2, snap):
            observed.add("A")
        if dict(vars(klu)) != self_before:
            observed.add("self")
        if numeric.refactor_plan is not plan_before:
            observed.add("numeric")
        assert "numeric" in observed  # the refactor plan was installed

        summary = summary_for(
            collect_effect_summaries(), "solvers/klu.py", "refactor_fast"
        )
        assert observed <= set(summary.mutates)


# ---------------------------------------------------------------------------
# Plan audits: write disjointness (E4)
# ---------------------------------------------------------------------------

class TestPlanAudits:
    @pytest.fixture(scope="class")
    def factored(self):
        A = get_matrix("Power0*+")
        return A, gp_factor(A)

    def test_triangular_schedules_clean(self, factored):
        A, res = factored
        for M, kind in ((res.L, "lower"), (res.U, "upper")):
            sched = compile_triangular_schedule(M, kind)
            assert audit_schedule_buffers(sched, label=kind) == []

    def test_refactor_schedule_clean(self, factored):
        A, res = factored
        sched = ensure_refactor_schedule(res, A)
        assert audit_schedule_buffers(sched, label="refactor") == []

    def test_corrupted_refactor_schedule_is_flagged(self, factored):
        A, res = factored
        sched = copy.deepcopy(ensure_refactor_schedule(res, A))
        stage = next(s for s in sched.stages if len(s.seg_tgt) >= 2)
        stage.seg_tgt[1] = stage.seg_tgt[0]  # two segments, one target
        finds = audit_schedule_buffers(sched, label="corrupt")
        assert finds and all(f.code == "E4" for f in finds)

    def test_corrupted_triangular_schedule_is_flagged(self, factored):
        A, res = factored
        sched = copy.deepcopy(compile_triangular_schedule(res.L, "lower"))
        tgt = next(grp[4] for _, _, groups in sched.levels for grp in groups
                   if grp[4].size >= 2)
        tgt[1] = tgt[0]  # one group, one target twice
        finds = audit_schedule_buffers(sched, label="corrupt")
        assert finds and all(f.code == "E4" for f in finds)

    def test_column_in_two_levels_is_flagged(self, factored):
        A, res = factored
        sched = copy.deepcopy(compile_triangular_schedule(res.L, "lower"))
        # level 1 re-finalizes a level-0 column and drops one of its own
        sched.order[sched.levels[1][0]] = sched.order[0]
        finds = audit_schedule_buffers(sched, label="corrupt")
        assert finds and all(f.code == "E4" for f in finds)
        messages = " ".join(f.message for f in finds)
        assert "more than once" in messages and "by no level" in messages

    def test_update_into_an_earlier_level_is_flagged(self, factored):
        A, res = factored
        sched = copy.deepcopy(compile_triangular_schedule(res.L, "lower"))
        tgt = next(grp[4] for _, _, groups in sched.levels[1:] for grp in groups)
        tgt[0] = 0  # scatter back into level 0
        finds = audit_schedule_buffers(sched, label="corrupt")
        assert [f.code for f in finds] == ["E4"]
        assert "no later than its producer" in finds[0].message


# ---------------------------------------------------------------------------
# Hazard regression on the newly declared task DAGs
# ---------------------------------------------------------------------------

class TestDeclaredDagsAreRaceFree:
    @pytest.mark.parametrize("name", ["Power0*+", "memplus"])
    def test_supernodal_dag(self, name):
        num = SupernodalLU().factor(get_matrix(name))
        assert any(t.writes for t in num.tasks)
        rep = check_hazards(num.tasks)
        assert rep.ok, rep.hazards[:3]

    def test_supernodal_declarations_are_load_bearing(self):
        num = SupernodalLU().factor(get_matrix("Power0*+"))
        tasks = [copy.copy(t) for t in num.tasks]
        victim = next(t for t in tasks if t.deps and t.writes)
        victim.deps = []
        assert not check_hazards(tasks).ok

    def test_parallel_solve_dag(self):
        from repro.core.parsolve import parallel_lower_solve
        from repro.parallel.machine import SANDY_BRIDGE

        A = get_matrix("Power0*+")
        res = gp_factor(A)
        b = np.ones(res.L.n_rows)
        x, sched = parallel_lower_solve(
            res.L, b, n_threads=4, machine=SANDY_BRIDGE
        )
        assert sched.tasks and any(t.writes for t in sched.tasks)
        rep = check_hazards(sched.tasks)
        assert rep.ok, rep.hazards[:3]
