"""Command-line interface: ``python -m repro <command>``.

Small utilities a downstream user reaches for first:

* ``info <matrix.mtx>`` — structural report: size, BTF decomposition,
  fill estimates, structural symmetry.
* ``spy <matrix.mtx>`` — ASCII density plot of the pattern (optionally
  after the BTF or Basker ordering).
* ``solve <matrix.mtx>`` — factor + solve against a random RHS with a
  chosen solver, print residual, |L+U| and modelled times.
* ``suite`` — list the built-in Table I / Table II suite; ``--emit``
  writes a suite matrix to a MatrixMarket file.
* ``analyze hazards|conservation|lint|domains|effects|shapes|all`` —
  the verification layer: happens-before race detection on the emitted
  task DAG, ledger/schedule conservation checks, the repo's AST lint,
  the index-domain checker that tracks permutation spaces through the
  solver, the interprocedural effect checker that verifies declared
  task read/write sets and purity, and the symbolic
  shape/bounds/dtype checker over the vectorized kernels; ``all`` runs
  every checker in one pass with a unified report (``--plans`` adds the
  audit of the compiled gather/scatter plans, for same-level write
  disjointness, level order and buffer bounds, as one more section).
  Every subcommand prints the same report (its own section of it),
  accepts ``--format json`` for machine consumption and exits nonzero
  on any finding.
* ``bench`` — wall-clock microbenchmarks (factor/refactor/solve/reach
  plus the Xyce refactorization sequence), written to the untracked
  ``BENCH_wallclock.json``; ``--check`` gates speedup ratios against
  the committed baseline.
* ``serve`` — deterministic multi-tenant soak of the fault-tolerant
  solve service (bounded admission, token-bucket rate limits, modeled
  deadlines, seeded retries, shared pattern cache with leases,
  per-pattern circuit breakers, degradation tiers), writing the
  untracked ``SERVE_report.json``; ``--check-golden`` gates
  byte-identity against the committed golden report.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import Basker
from .matrices import TABLE1, TABLE2, get_matrix
from .ordering import btf
from .parallel import SANDY_BRIDGE, XEON_PHI
from .solvers import KLU, SupernodalLU
from .sparse import CSC, read_matrix_market, solve_residual, write_matrix_market

__all__ = ["main"]


def _load(path: str) -> CSC:
    if path in {s.name for s in TABLE1 + TABLE2}:
        return get_matrix(path)
    return read_matrix_market(path)


def _cmd_info(args) -> int:
    from .sparse import matrix_stats

    A = _load(args.matrix)
    print(f"matrix: {args.matrix}")
    stats = matrix_stats(A, with_btf=True, with_fill=args.fill)
    for line in stats.describe().splitlines():
        print("  " + line)
    return 0


def _cmd_spy(args) -> int:
    A = _load(args.matrix)
    if args.order == "btf":
        res = btf(A)
        A = A.permute(res.row_perm, res.col_perm)
    elif args.order == "basker":
        sym = Basker(n_threads=args.threads).analyze(A)
        A = A.permute(sym.row_perm_pre, sym.col_perm)
    size = args.size
    n = A.n_rows
    grid = np.zeros((size, size), dtype=np.int64)
    col_of = np.repeat(np.arange(A.n_cols), np.diff(A.indptr))
    ri = (A.indices * size) // max(n, 1)
    ci = (col_of * size) // max(A.n_cols, 1)
    np.add.at(grid, (np.minimum(ri, size - 1), np.minimum(ci, size - 1)), 1)
    shades = " .:+*#@"
    mx = grid.max() or 1
    for r in range(size):
        line = "".join(
            shades[min(len(shades) - 1, int(np.ceil(len(shades) * grid[r, c] / mx)) - (0 if grid[r, c] else 1))]
            if grid[r, c] else " "
            for c in range(size)
        )
        print("|" + line + "|")
    return 0


def _cmd_solve(args) -> int:
    A = _load(args.matrix)
    rng = np.random.default_rng(args.seed)
    b = rng.standard_normal(A.n_rows)
    if args.solver == "klu":
        solver = KLU()
        num = solver.factor(A)
        t_sb = num.factor_seconds(SANDY_BRIDGE)
        t_phi = num.factor_seconds(XEON_PHI)
    elif args.solver == "pmkl":
        solver = SupernodalLU()
        num = solver.factor(A)
        t_sb = num.factor_seconds(SANDY_BRIDGE, args.threads)
        t_phi = num.factor_seconds(XEON_PHI, args.threads)
    else:
        solver = Basker(n_threads=args.threads)
        num = solver.factor(A)
        t_sb = num.factor_seconds(SANDY_BRIDGE)
        t_phi = num.factor_seconds(XEON_PHI)
    x = solver.solve(num, b)
    print(f"solver: {args.solver} (threads={args.threads})")
    print(f"  |L+U| = {num.factor_nnz} (fill {num.factor_nnz / A.nnz:.2f})")
    print(f"  scaled residual = {solve_residual(A, x, b):.3e}")
    print(f"  modelled factor time: SandyBridge {t_sb:.3e} s, XeonPhi {t_phi:.3e} s")
    return 0


def _cmd_suite(args) -> int:
    for spec in TABLE1 + TABLE2:
        marker = "high-fill" if spec.high_fill else "low-fill"
        print(f"{spec.name:16s} {spec.kind:10s} {marker:10s} "
              f"paper: n={spec.paper.n:.1e} fill={spec.paper.fill_density:.1f} "
              f"btf%={spec.paper.btf_pct:.0f}")
    if args.emit:
        A = get_matrix(args.emit)
        out = args.output or (args.emit.replace("*", "").replace("+", "") + ".mtx")
        write_matrix_market(A, out, comment=f"repro suite analog of {args.emit}")
        print(f"wrote {out} (n={A.n_rows}, nnz={A.nnz})")
    return 0


def _analysis_matrices(args):
    from .matrices.suite import suite_names

    names = args.matrix or (suite_names(1) + suite_names(2))
    for name in names:
        yield name, _load(name)


def _solver_plans(A: CSC):
    """``(solver, solve plan, refactor plan)`` for KLU and Basker on
    ``A``: the compiled BTF solve, with its transposed system, and the
    blocked refactor schedule that ``refactor_fast`` replays, compiled by
    one factor, one solve, one transpose solve and one values-only
    refactorization each."""
    from .solvers.extras import solve_transpose

    for label, solver in (("klu", KLU()), ("basker", Basker(n_threads=4))):
        num = solver.factor(A)
        solver.solve(num, np.zeros(A.n_rows))
        solve_transpose(num, np.zeros(A.n_rows))
        solver.refactor_fast(A, num)
        yield label, num.solve_plan, num.refactor_plan.schedule


def _plan_findings(args):
    """``--plans``: finding dicts of the one plan auditor over every
    compiled plan of the selected matrices — the triangular and refactor
    schedules of one ``gp_factor``, and the KLU and Basker BTF solve
    plans (both directions) and blocked refactor plans."""
    import dataclasses

    from .analysis import audit_schedule_buffers
    from .solvers.gp import ensure_refactor_schedule, gp_factor
    from .sparse.schedule import compile_triangular_schedule

    findings = []
    for name, A in _analysis_matrices(args):
        res = gp_factor(A)
        plans = [(compile_triangular_schedule(res.L, "lower"), "L"),
                 (compile_triangular_schedule(res.U, "upper"), "U"),
                 (ensure_refactor_schedule(res, A), "refactor")]
        for solver, solve, refactor in _solver_plans(A):
            plans += [(solve, f"{solver}-solve"), (refactor, f"{solver}-refactor")]
        for plan, lab in plans:
            findings.extend(audit_schedule_buffers(plan, label=f"{name}:{lab}"))
    return [dataclasses.asdict(f) for f in findings]


def _tree_findings(checker: str, args):
    """Finding dicts of one file-tree checker (lint/domains/effects/shapes)."""
    import dataclasses

    from . import analysis

    if checker == "lint":
        findings = analysis.lint_tree()
    elif args.path:
        findings = getattr(analysis, f"check_{checker}_paths")(args.path)
    else:
        findings = getattr(analysis, f"check_{checker}_tree")()
    return [dataclasses.asdict(f) for f in findings]


def _dag_findings(args, checkers):
    """Race-check (``hazards``) and ledger/schedule-check
    (``conservation``) Basker's task DAG for every selected (matrix,
    thread count).  Yields ``(config, docs)`` per configuration, with
    ``docs`` mapping each requested checker to its finding dicts."""
    from .analysis import check_conservation, check_hazards, check_schedule

    for name, A in _analysis_matrices(args):
        for p in args.threads:
            num = Basker(n_threads=p, pipeline_columns=args.pipeline).factor(A)
            config = {"matrix": name, "threads": p, "tasks": len(num.tasks)}
            docs = {}
            if "hazards" in checkers:
                rep = check_hazards(num.tasks)
                config["pairs_checked"] = rep.n_pairs_checked
                docs["hazards"] = [
                    {"matrix": name, "threads": p, "kind": h.kind,
                     "message": h.message}
                    for h in rep.hazards
                ]
            if "conservation" in checkers:
                rep1 = check_conservation(num.tasks, num.ledger, num.overhead_ledger)
                rep2 = check_schedule(num.tasks, num.schedule(SANDY_BRIDGE))
                docs["conservation"] = [
                    {"matrix": name, "threads": p, "kind": "conservation",
                     "message": str(f)}
                    for f in list(rep1.findings) + list(rep2.findings)
                ]
            yield config, docs


_FILE_CHECKERS = ("lint", "domains", "effects", "shapes")
_DAG_CHECKERS = ("hazards", "conservation")


def _cmd_analyze(args) -> int:
    """``analyze <checker>``: one report, one exit code.  ``all`` has a
    section per checker, any other checker just its own.  File-tree
    checkers run over the whole tree; hazards and conservation share one
    factorization per (matrix, threads) pair; ``--plans`` adds the plan
    audit as one more section."""
    import json

    wanted = _FILE_CHECKERS + _DAG_CHECKERS if args.checker == "all" \
        else (args.checker,)
    groups = {c: _tree_findings(c, args) for c in _FILE_CHECKERS if c in wanted}
    dag = [c for c in _DAG_CHECKERS if c in wanted]
    groups.update((c, []) for c in dag)
    configs = []
    if dag:
        for config, docs in _dag_findings(args, dag):
            for c in dag:
                groups[c].extend(docs[c])
            configs.append(config)
    if args.plans:
        groups["plans"] = _plan_findings(args)
    ok = not any(groups.values())
    if args.format == "json":
        print(json.dumps({
            "checker": args.checker,
            "ok": ok,
            "checkers": {c: {"ok": not docs, "findings": docs}
                         for c, docs in groups.items()},
            "configs": configs,
        }, indent=2))
    else:
        for checker, docs in groups.items():
            print(f"{checker}: {len(docs)} finding(s)")
            for d in docs:
                code = d.get("code") or d.get("rule") or d.get("kind")
                loc = (f"{d['path']}:{d['line']}" if "path" in d
                       else f"{d['matrix']} p={d['threads']}")
                print(f"    {loc} {code} {d['message']}")
        print(f"analyze {args.checker}: {'OK' if ok else 'FAILED'} "
              f"({len(configs)} simulated configuration(s))")
    return 0 if ok else 1


def _cmd_trace(args) -> int:
    import json
    import time

    from .obs import (
        Tracer,
        check_ledger_tree,
        span_tree,
        to_jsonl,
        to_perfetto,
        top_spans,
        tracing,
        validate_perfetto,
    )

    A = _load(args.matrix)
    machine = XEON_PHI if args.machine == "xeonphi" else SANDY_BRIDGE
    rng = np.random.default_rng(args.seed)
    b = rng.standard_normal(A.n_rows)

    tracer = Tracer(wall_clock=time.perf_counter if args.wall else None)
    pipeline = None
    schedule = None
    sched_tasks = None
    sched_labels = None
    with tracing(tracer):
        with tracer.span("solve") as root:
            root.set(matrix=args.matrix, solver=args.solver, n=A.n_rows, nnz=A.nnz)
            if args.solver == "klu":
                solver = KLU()
            else:
                solver = Basker(n_threads=args.threads)
            sym = solver.analyze(A)
            num = solver.factor(A, symbolic=sym)
            num_factor = num  # keeps the task DAG; refactors drop it
            pipeline = sym.ledger.copy()
            pipeline.add(num.ledger)
            A_cur = A
            for k in range(args.refactor):
                A_cur = CSC(A.n_rows, A.n_cols, A.indptr, A.indices,
                            A.data * (1.0 + 0.01 * (k + 1)))
                num = solver.refactor_fast(A_cur, num)
                pipeline.add(num.ledger)
            if args.fault:
                # Inject one deterministic fault and trace the recovery
                # ladder; rung spans land under this root with their
                # ledgers attached, so conservation still checks out.
                from .resilience.chaos import _site_for
                from .resilience.faults import FaultPlan, FaultSpec, fault_matrix
                from .resilience.recovery import run_ladder

                site = _site_for(args.fault, args.solver, warm=True)
                with FaultPlan([FaultSpec(site=site, kind=args.fault)],
                               label=f"trace:{args.fault}"):
                    A_cur = CSC(A.n_rows, A.n_cols, A.indptr, A.indices,
                                A.data * 1.05)
                    A_cur = fault_matrix("sequence.matrix", A_cur)
                    prior = num if np.array_equal(A_cur.indices, A.indices) else None
                    x, num, report = run_ladder(
                        solver, A_cur, b, symbolic=sym, prior=prior,
                        label=args.matrix,
                    )
                pipeline.add(report.ledger)
                root.set(fault=args.fault, fault_site=site,
                         recovered_by=report.succeeded)
            else:
                x = solver.solve(num, b)
            root.attach(pipeline)
            if args.solver == "basker":
                schedule = num_factor.schedule(machine)
                sched_tasks = num_factor.tasks
                sched_labels = num_factor.task_labels
    residual = solve_residual(A_cur, x, b)

    ledger_problems = check_ledger_tree(tracer)
    doc = to_perfetto(tracer, machine, schedule=schedule,
                      schedule_tasks=sched_tasks, schedule_labels=sched_labels)
    perfetto_problems = validate_perfetto(doc)
    jsonl = to_jsonl(tracer, machine)
    tree = span_tree(tracer, machine)

    base = args.output
    if base is None:
        safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in args.matrix)
        base = f"TRACE_{safe}_{args.solver}"
    perfetto_path = f"{base}.perfetto.json"
    jsonl_path = f"{base}.jsonl"
    with open(perfetto_path, "w") as fh:
        json.dump(doc, fh)
    with open(jsonl_path, "w") as fh:
        fh.write(jsonl)

    ok = not ledger_problems and not perfetto_problems
    snap = tracer.metrics.snapshot()
    top = top_spans(tracer, machine, args.top) if args.top else None
    if args.format == "json":
        print(json.dumps({
            "matrix": args.matrix,
            "solver": args.solver,
            "threads": args.threads,
            "machine": machine.name,
            "ok": ok,
            "ledger_problems": ledger_problems,
            "perfetto_problems": perfetto_problems,
            "n_spans": len(tracer.spans),
            "span_names": sorted({s.name for s in tracer.spans}),
            "tree": tree.splitlines(),
            "top": top,
            "metrics": snap,
            "residual": residual,
            "outputs": {"perfetto": perfetto_path, "jsonl": jsonl_path},
        }, indent=2))
    else:
        print(f"trace: {args.matrix} via {args.solver} "
              f"(threads={args.threads}, machine={machine.name})")
        print(tree)
        if top is not None:
            from .bench.report import format_table

            print(format_table(
                ["span", "count", "modeled_s", "% of root"],
                [[r["name"], r["count"], r["modeled_s"],
                  f"{r['pct_of_root']:.1f}"] for r in top],
                title=f"top {len(top)} span name(s) by total modeled time",
            ))
        if snap["counters"]:
            print("counters:")
            for k, v in snap["counters"].items():
                print(f"  {k} = {v:g}")
        if snap["gauges"]:
            print("gauges:")
            for k, v in snap["gauges"].items():
                print(f"  {k} = {v:g}")
        print(f"scaled residual = {residual:.3e}")
        for prob in ledger_problems:
            print(f"LEDGER: {prob}")
        for prob in perfetto_problems:
            print(f"PERFETTO: {prob}")
        print(f"wrote {perfetto_path}")
        print(f"wrote {jsonl_path}")
        print(f"ledger consistency: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_chaos(args) -> int:
    import json

    from .resilience.chaos import run_chaos
    from .resilience.faults import FAULT_KINDS

    kinds = args.kind or list(FAULT_KINDS)
    doc = run_chaos(
        names=args.matrix or None,
        kinds=kinds,
        solver=args.solver,
        steps=args.steps,
        tol=args.tol,
        warm=not args.cold,
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
    failures = doc["failures"]
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for case in doc["cases"]:
            rungs = [s.get("rung") for s in case["steps"] if s.get("rung")]
            print(f"{case['matrix']:16s} {case['kind']:13s} "
                  f"{case['classification']:15s} events={case['events']} "
                  f"rungs={rungs}")
        print(f"chaos: {len(doc['cases'])} case(s), "
              f"summary={doc['summary']}, {len(failures)} failure(s)")
        for f in failures:
            print(f"FAILURE: {f['matrix']} x {f['kind']}: {f['classification']}")
    if args.output:
        print(f"wrote {args.output}", file=sys.stderr)
    return 1 if failures else 0


def _fmt_q(snapshot, key) -> str:
    if snapshot is None:
        return "-"
    v = snapshot.get(key)
    return "-" if v is None else f"{v:.3e}"


def _cmd_profile(args) -> int:
    """``repro profile``: continuous-profiling run over a same-pattern
    solve sequence (the Xyce transient traffic shape, or jittered
    sequences of suite matrices), producing PROFILE.json + dashboard."""
    import json
    import time

    from .bench.report import format_table
    from .obs import run_profile
    from .obs.calibrate import fit_machine_model
    from .parallel.ledger import CostLedger

    machine = XEON_PHI if args.machine == "xeonphi" else SANDY_BRIDGE
    wall = None if args.no_wall else time.perf_counter
    if args.calibrate and wall is None:
        print("profile: --calibrate needs wall capture; drop --no-wall",
              file=sys.stderr)
        return 2

    runs = {}
    if args.matrix:
        # Suite mode: each matrix becomes its own same-pattern sequence
        # (deterministic value jitter), profiled independently so the
        # drift detectors never see a pattern switch as an anomaly.
        for name in args.matrix:
            A = _load(name)
            rng = np.random.default_rng(args.seed)
            seq = [
                CSC(A.n_rows, A.n_cols, A.indptr, A.indices,
                    A.data * (1.0 + 0.01 * rng.standard_normal(A.nnz)))
                for _ in range(args.steps)
            ]
            runs[name] = run_profile(
                matrices=seq, solver=args.solver, machine=machine,
                wall_clock=wall, fault_seed=args.fault,
            )
    else:
        runs["xyce1_analog"] = run_profile(
            steps=args.steps, solver=args.solver, machine=machine,
            wall_clock=wall, fault_seed=args.fault,
        )

    anomalies = [
        {"run": label, **event}
        for label in sorted(runs)
        for event in runs[label]["anomalies"]
    ]

    calibration = None
    if args.calibrate:
        samples = [
            (name, CostLedger(**led), wall_s)
            for label in sorted(runs)
            for name, led, wall_s in runs[label]["samples"]
        ]
        calibration = fit_machine_model(samples, base=machine).to_dict()

    doc = {
        "schema": "repro.profile.v1",
        "machine": machine.name,
        "solver": args.solver,
        "steps": args.steps,
        "fault_seed": args.fault,
        "runs": runs,
        "anomalies": anomalies,
        "calibration": calibration,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    faulted = args.fault is not None
    ok = bool(anomalies) if faulted else not anomalies

    if args.format == "json":
        print(json.dumps({**doc, "ok": ok}, indent=2, sort_keys=True))
    else:
        for label in sorted(runs):
            prof = runs[label]
            rows = []
            for phase in sorted(prof["phases"]):
                m = prof["phases"][phase]["modeled"]
                w = prof["phases"][phase]["wall"]
                rows.append([
                    phase, m["count"],
                    _fmt_q(m, "p50"), _fmt_q(m, "p95"), _fmt_q(m, "p99"),
                    _fmt_q(m, "max"),
                    _fmt_q(w, "p50"), _fmt_q(w, "p95"), _fmt_q(w, "p99"),
                ])
            print(format_table(
                ["phase", "count", "model p50", "model p95", "model p99",
                 "model max", "wall p50", "wall p95", "wall p99"],
                rows,
                title=f"{label}: {prof['steps']} step(s), n={prof['n']}, "
                      f"solver={prof['solver']}, machine={prof['machine']}",
            ))
            print()
        if anomalies:
            print(f"{len(anomalies)} anomaly event(s):")
            for e in anomalies:
                detail = {k: v for k, v in e.items()
                          if k not in ("run", "event", "step")}
                print(f"  [{e['run']}] step {e['step']} {e['event']} {detail}")
        else:
            print("no anomaly events")
        if calibration is not None:
            rows = [
                [kind, r["count"], f"{r['wall_s']:.3e}",
                 f"{r['modeled_default_s']:.3e}", f"{r['modeled_fitted_s']:.3e}",
                 "-" if r["ratio_fitted"] is None else f"{r['ratio_fitted']:.2f}",
                 "FLAG" if r["flagged"] else ""]
                for kind, r in sorted(calibration["residuals"].items())
            ]
            print()
            print(format_table(
                ["span kind", "count", "wall_s", "model default",
                 "model fitted", "fit ratio", ""],
                rows,
                title=f"calibration: {calibration['n_samples']} sample(s), "
                      f"r2={calibration['r2']:.3f}, "
                      f"fitted {', '.join(calibration['fitted'])}",
            ))
        print(f"wrote {args.output}")
        verdict = ("expected >=1 anomaly on the faulted run"
                   if faulted else "expected 0 anomalies on the clean run")
        print(f"profile: {'OK' if ok else 'FAIL'} ({verdict}; "
              f"got {len(anomalies)})")
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    """``repro serve``: deterministic multi-tenant soak of the solve
    service — admission control, deadlines, retries, cache eviction,
    circuit breaking, degradation tiers — writing the report (untracked
    SERVE_report.json by default) and gating on the report's invariants
    (and optionally a golden copy)."""
    import json

    from .bench.report import format_table
    from .serve.sim import default_tenants, run_soak, report_to_json

    specs = default_tenants(args.requests)
    if args.tenants < len(specs):
        specs = specs[: args.tenants]
    report = run_soak(specs=specs, seed=args.seed, n_faults=args.faults)
    text = report_to_json(report)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.write_golden:
        with open(args.write_golden, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote golden {args.write_golden}", file=sys.stderr)

    golden_ok = True
    if args.check_golden:
        with open(args.check_golden, "r", encoding="utf-8") as fh:
            golden_ok = fh.read() == text
    ok = bool(report["ok"]) and golden_ok

    if args.format == "json":
        print(json.dumps({**report, "golden_ok": golden_ok, "ok": ok},
                         indent=2, sort_keys=True))
    else:
        rows = [
            [name, acct["accepted"], acct["rejected"],
             _fmt_q(acct["latency"], "p50"), _fmt_q(acct["latency"], "p95"),
             _fmt_q(acct["latency"], "p99"),
             f"{acct['modeled_seconds']:.3e}"]
            for name, acct in sorted(report["per_tenant"].items())
        ]
        print(format_table(
            ["tenant", "accepted", "rejected", "lat p50", "lat p95",
             "lat p99", "modeled_s"],
            rows,
            title=f"serve soak: {report['n_requests']} request(s), "
                  f"seed={report['seed']}, "
                  f"{len(report['tenants'])} tenant(s)"))
        print(f"rejects: " + (", ".join(
            f"{k}={v}" for k, v in report["reject_reasons"].items()) or "none"))
        print(f"shed={report['shed_total']:g} retries={report['retries']:g} "
              f"breaker trips/resets/reopens="
              f"{report['breaker_totals']['trips']}/"
              f"{report['breaker_totals']['resets']}/"
              f"{report['breaker_totals']['reopens']}")
        inv = report["invariants"]
        print(f"invariants: untyped={len(inv['untyped_escapes'])} "
              f"unverified={len(inv['unverified_answers'])} "
              f"queue_bound={'OK' if inv['queue_bound_respected'] else 'FAIL'}")
        if args.check_golden:
            print(f"golden vs {args.check_golden}: "
                  f"{'OK' if golden_ok else 'MISMATCH'}")
        if args.output:
            print(f"wrote {args.output}")
        print(f"serve: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    from .bench.wallclock import (
        SPEEDUP_FLOORS,
        check_regression,
        load_json,
        run_wallclock,
        save_json,
    )

    doc = run_wallclock(
        matrices=args.matrix or None,
        xyce_matrices=args.xyce,
        repeats=args.repeats,
        quick=args.quick,
        seed=args.seed,
    )
    for key in sorted(doc["cases"]):
        case = doc["cases"][key]
        if "speedup" in case:
            print(f"{key:28s} ref {case['reference_s']:.4f}s  "
                  f"vec {case['vectorized_s']:.4f}s  "
                  f"speedup {case['speedup']:.2f}x")
        else:
            print(f"{key:28s} {case['seconds']:.4f}s")
    s = doc["summary"]
    print(f"xyce sequence speedup: {s['xyce_refactor_speedup']:.2f}x   "
          f"min refactor: {s['min_refactor_speedup']:.2f}x   "
          f"min solve: {s['min_solve_speedup']:.2f}x   "
          f"min factor_blocked: {s['min_factor_blocked_speedup']:.2f}x")
    save_json(doc, args.output)
    print(f"wrote {args.output}")
    if args.baseline_out:
        baseline = dict(doc)
        baseline["floors"] = dict(SPEEDUP_FLOORS)
        save_json(baseline, args.baseline_out)
        print(f"wrote baseline {args.baseline_out}")
    if args.check:
        baseline = load_json(args.baseline)
        failures = check_regression(doc, baseline, tolerance=args.tolerance)
        for f in failures:
            print(f"REGRESSION: {f}")
        print(f"bench check vs {args.baseline}: "
              f"{'FAIL' if failures else 'OK'} ({len(failures)} failure(s))")
        return 1 if failures else 0
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="structural report for a matrix")
    p.add_argument("matrix", help="MatrixMarket path or a built-in suite name")
    p.add_argument("--fill", action="store_true", help="also factor with KLU for fill density")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("spy", help="ASCII pattern plot")
    p.add_argument("matrix")
    p.add_argument("--order", choices=["natural", "btf", "basker"], default="natural")
    p.add_argument("--size", type=int, default=48)
    p.add_argument("--threads", type=int, default=4)
    p.set_defaults(fn=_cmd_spy)

    p = sub.add_parser("solve", help="factor + solve with a chosen solver")
    p.add_argument("matrix")
    p.add_argument("--solver", choices=["basker", "klu", "pmkl"], default="basker")
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("suite", help="list/emit the built-in matrix suite")
    p.add_argument("--emit", help="suite matrix name to write as MatrixMarket")
    p.add_argument("--output", help="output path for --emit")
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("analyze",
                       help="race/conservation/lint/domains/effects/shapes "
                            "verification")
    p.add_argument("checker",
                   choices=["hazards", "conservation", "lint", "domains",
                            "effects", "shapes", "all"])
    p.add_argument("--matrix", action="append",
                   help="suite name or .mtx path (repeatable; default: whole suite)")
    p.add_argument("--threads", type=int, nargs="+", default=[1, 4, 16],
                   help="thread counts to analyze at (default: 1 4 16)")
    p.add_argument("--pipeline", type=int, default=None,
                   help="pipeline_columns chunk size (default: whole-block tasks)")
    p.add_argument("--format", choices=["human", "json"], default="human",
                   help="output format (default: human)")
    p.add_argument("--path", action="append",
                   help="domains/effects/shapes only: check these file(s) "
                        "against the package contracts instead of the whole "
                        "tree (repeatable)")
    p.add_argument("--plans", action="store_true",
                   help="also audit the compiled triangular/refactor "
                        "schedules and the KLU/Basker BTF solve plans, as a "
                        "'plans' section (E4 write disjointness and level "
                        "order, S1 bounds, S2 segments, S3 sizes)")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("trace", help="traced solve: span tree + Perfetto/JSONL export")
    p.add_argument("matrix")
    p.add_argument("--solver", choices=["klu", "basker"], default="klu")
    p.add_argument("--threads", type=int, default=4,
                   help="basker thread count (default 4)")
    p.add_argument("--refactor", type=int, default=1,
                   help="values-only refactorization replays to trace (default 1)")
    p.add_argument("--machine", choices=["sandybridge", "xeonphi"],
                   default="sandybridge")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wall", action="store_true",
                   help="also record wall-clock per span (harness boundary only)")
    p.add_argument("--fault",
                   choices=["perturb", "nan", "pivot_zero", "drop_update",
                            "pattern_drift"],
                   help="inject one deterministic fault and trace the "
                        "recovery ladder instead of the plain solve")
    p.add_argument("--top", type=int, default=None, metavar="N",
                   help="also print the top N span names by total modeled "
                        "time (count, total, %% of root)")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--output",
                   help="output base path (default: TRACE_<matrix>_<solver>)")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("profile",
                       help="continuous profiling: per-phase percentile "
                            "histograms, flight recorder + drift anomalies, "
                            "MachineModel calibration")
    p.add_argument("--steps", type=int, default=25,
                   help="same-pattern sequence length (default 25)")
    p.add_argument("--matrix", action="append",
                   help="suite name or .mtx path (repeatable); default: the "
                        "Xyce transient Jacobian sequence")
    p.add_argument("--solver", choices=["klu", "basker"], default="klu")
    p.add_argument("--machine", choices=["sandybridge", "xeonphi"],
                   default="sandybridge")
    p.add_argument("--calibrate", action="store_true",
                   help="fit MachineModel cost coefficients from the "
                        "collected (ledger, wall) span pairs")
    p.add_argument("--fault", type=int, default=None, metavar="SEED",
                   help="arm a seeded FaultPlan on the replay path (chaos "
                        "mode: the run FAILS unless >=1 anomaly fires)")
    p.add_argument("--no-wall", action="store_true",
                   help="skip wall-clock capture (fully bit-deterministic "
                        "output; incompatible with --calibrate)")
    p.add_argument("--seed", type=int, default=0,
                   help="value-jitter seed for --matrix sequences (default 0)")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--output", default="PROFILE.json",
                   help="profile artifact path (default: PROFILE.json)")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("chaos", help="fault-injection sweep over the matrix suite")
    p.add_argument("--matrix", action="append",
                   help="suite name or .mtx path (repeatable; default: Table I suite)")
    p.add_argument("--kind", action="append",
                   choices=["perturb", "nan", "pivot_zero", "drop_update",
                            "pattern_drift"],
                   help="fault kind(s) to inject (repeatable; default: all)")
    p.add_argument("--solver", choices=["klu", "basker"], default="klu")
    p.add_argument("--steps", type=int, default=2,
                   help="same-pattern sequence steps per case (default 2)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="componentwise backward-error acceptance (default 1e-10)")
    p.add_argument("--cold", action="store_true",
                   help="cold-start every (matrix, kind) cell instead of "
                        "sharing one warm factorization per matrix")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.add_argument("--output", help="also write the findings JSON to this path")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("serve",
                       help="deterministic multi-tenant soak of the solve "
                            "service (admission, deadlines, retries, "
                            "breakers, degradation tiers)")
    p.add_argument("--requests", type=int, default=200,
                   help="total request budget across tenants (default 200)")
    p.add_argument("--tenants", type=int, default=4,
                   help="number of tenant profiles to run (default 4: "
                        "transient, sweep, chaos, latency)")
    p.add_argument("--seed", type=int, default=42,
                   help="soak seed: traffic, faults, retries (default 42)")
    p.add_argument("--faults", type=int, default=4,
                   help="injected kernel faults via a seeded FaultPlan "
                        "(default 4; 0 disables)")
    p.add_argument("--output", default="SERVE_report.json",
                   help="report path (default: SERVE_report.json, untracked)")
    p.add_argument("--check-golden", metavar="FILE",
                   help="fail unless the report is byte-identical to FILE")
    p.add_argument("--write-golden", metavar="FILE",
                   help="also write the report as a new golden copy")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("bench", help="wall-clock microbenchmarks + regression gate")
    p.add_argument("--quick", action="store_true",
                   help="small matrix set and short Xyce sequence (CI mode)")
    p.add_argument("--matrix", action="append",
                   help="suite matrix to bench (repeatable; default: built-in set)")
    p.add_argument("--xyce", type=int, default=50,
                   help="length of the Xyce refactorization sequence (default 50)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repetitions, best-of (default 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="BENCH_wallclock.json",
                   help="result JSON path (default: BENCH_wallclock.json, untracked)")
    p.add_argument("--baseline", default="benchmarks/results/BENCH_wallclock_baseline.json",
                   help="baseline JSON for --check")
    p.add_argument("--baseline-out",
                   help="also write the result (plus speedup floors) as a new baseline")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero if speedups regress >tolerance vs the baseline")
    p.add_argument("--tolerance", type=float, default=0.25,
                   help="allowed relative speedup drop for --check (default 0.25)")
    p.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
