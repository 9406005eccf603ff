"""End-to-end benchmark of the DirectSolver pipeline: KLU and Basker.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 12 --trace 0

Workloads (``workloads.py``): ``cold``, ``transient``, ``contingency``.
A run sets the workload up ``SETUP_REPEATS`` times from the seed, then
runs a fixed number of op cycles sized so that they take about
``--seconds`` at the reference speed (at least ``MIN_CYCLES``).  KLU and
Basker alternate on the same inputs.  Every answer is checked outside
the timed interval: its componentwise backward error must be at most
``MAX_BACKWARD_ERROR``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced phases of about a second each, wraps the layers'
public functions during the traced ones (``layers.py``) and prints the
per-layer metrics; the spans are written to ``perfbench/.runs/``.

Every time is scaled to the reference machine speed by ``SpeedGauge``;
the raw wall times are in the report line.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when an op fails, or
when an exact count (factor nnz, flops, calls, modeled speed-up)
differs between the set-ups of this run or from an earlier run of the
same seed on the same code (recorded under ``perfbench/.runs/``).  It
is 2 when the program's sources are missing.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one client, single-threaded BLAS: pinned before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"

SETUP_REPEATS = 3
MIN_CYCLES = 2
MAX_BACKWARD_ERROR = 1e-10
PHASE_SECONDS = 1.0  # traced runs: length of each untraced/traced phase
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Per-layer metrics of a traced run, reported per solver as means per
# op: (name, unit, solver or None for both).
PER_LAYER = [
    ("interface.self_ms", "ms", None),
    ("ordering.btf.self_ms", "ms", None),
    ("ordering.btf.calls", "count", None),
    ("ordering.amd.self_ms", "ms", None),
    ("ordering.amd.calls", "count", None),
    ("ordering.nd.self_ms", "ms", "basker"),
    ("ordering.nd.calls", "count", "basker"),
    ("graph.matching.self_ms", "ms", None),
    ("graph.scc.self_ms", "ms", None),
    ("graph.etree.self_ms", "ms", None),
    ("symbolic.self_ms", "ms", None),
    ("factor.self_ms", "ms", None),
    ("gp.factor.self_ms", "ms", None),
    ("gp.factor.calls", "count", None),
    ("gp.factor.flops", "flop", None),
    ("gp.factor.modeled_ms", "ms", None),
    ("blocking.self_ms", "ms", None),
    ("blocking.dense_col_frac", "frac", None),
    ("core.numeric.self_ms", "ms", "basker"),
    ("core.numeric.flops", "flop", "basker"),
    ("refactor.self_ms", "ms", None),
    ("refactor.flops", "flop", None),
    ("refactor.modeled_ms", "ms", None),
    ("refactor.fallback_frac", "frac", None),
    ("schedule.compile_ms", "ms", None),
    ("schedule.compiles", "count", None),
    ("schedule.reuse_ratio", "frac", None),
    ("solve.self_ms", "ms", None),
    ("solve.rhs_cols", "count", None),
    ("solve.flops_computed", "flop", None),
    ("triangular.self_ms", "ms", None),
    ("triangular.calls", "count", None),
    ("modeled.unpriced_wall_frac", "frac", None),
]
WALL_MS = ("self_ms", "compile_ms")  # per-layer metrics that are wall times


class SpeedGauge:
    """In-process gauge of the machine's current speed.

    On a shared 2-vCPU virtual machine the CPU speed was seen to drift by
    up to 3x over minutes, and that drift, not the program, would
    dominate run-to-run spread.  So every reported time is scaled by
    ``REF_PROBE_S / probe``, where ``probe`` is the time of a fixed mix
    of work that never touches the program, sampled at most every
    ``PROBE_EVERY_S`` between ops.  The mix resembles the solvers' own:
    an interpreter loop, many numpy calls on tiny arrays, a sparse
    column sweep, and passes over arrays the size of L2.  Timed next to
    real ops for 15 minutes in which their time varied 2x, op time over
    this probe's time had a log standard deviation of 0.06 to 0.08,
    against 0.18 to 0.20 for the raw op time.
    """

    REF_PROBE_S = 0.0052  # the probe's time at the reference speed
    PROBE_EVERY_S = 0.25

    def __init__(self) -> None:
        r = np.random.default_rng(12345)
        self._vals = r.standard_normal(1 << 16)
        self._idx = r.integers(0, 1 << 16, size=1 << 16)
        # Preallocated outputs: the probe must not depend on the state in
        # which the program leaves the allocator for large arrays.
        self._buf = np.empty(1 << 16)
        self._out = np.empty(1 << 16)
        self._tiny = r.standard_normal(64)
        self._tiny_idx = r.integers(0, 64, size=8)
        # A fixed lower-triangular CSC pattern for the sweep.
        n = 300
        cols = [np.unique(np.concatenate(([j], r.integers(j, n, 4)))) for j in range(n)]
        self._ptr = np.concatenate(([0], np.cumsum([c.size for c in cols])))
        self._rows = np.concatenate(cols)
        self._data = r.uniform(0.5, 1.0, self._rows.size)
        self.samples = []
        self._last = -1.0

    def _probe(self) -> float:
        vals, idx, buf, out = self._vals, self._idx, self._buf, self._out
        tiny, tidx = self._tiny, self._tiny_idx
        ptr, rows, data = self._ptr, self._rows, self._data
        t = time.perf_counter()
        d, acc = {}, 0
        for i in range(10000):
            d[i & 1023] = d.get(i & 1023, 0) + i
            acc += i % 7
        x = np.zeros(64)
        for _ in range(1500):
            x[tidx] -= tiny[tidx] * 0.5
        y = np.ones(ptr.size - 1)
        for j in range(ptr.size - 1):
            lo, hi = ptr[j], ptr[j + 1]
            k = int(np.searchsorted(rows[lo:hi], j))
            y[j] /= data[lo + k]
            y[rows[lo + k + 1:hi]] -= data[lo + k + 1:hi] * y[j]
        for _ in range(10):
            np.take(vals, idx, out=buf)
            np.cumsum(buf, out=out)
        return time.perf_counter() - t

    def sample(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= self.PROBE_EVERY_S:
            self.samples.append(self._probe())
            self._last = time.perf_counter()

    def scale(self, last: int = 3) -> float:
        """Factor from wall time to reference time, from the ``last``
        samples (all of them when ``last`` is 0)."""
        return self.REF_PROBE_S / statistics.median(self.samples[-last:])


def tail(samples) -> tuple:
    """``(percentile, value)``: the highest of ``TAIL_LADDER`` with at
    least ten samples beyond it; the median below 20 samples."""
    n = len(samples)
    pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10), 50.0)
    return pct, float(np.percentile(samples, pct))


def source_digest() -> str:
    """Hash of the program and benchmark sources: recorded exact counts
    are compared only between runs of the same code."""
    h = hashlib.sha256()
    for base in (SRC / "repro", BENCH):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_record(path: Path, record: dict) -> list:
    """Compare this run's exact counts with an earlier run of the same
    seed and code, then merge them into the record file."""
    problems = []
    if path.exists():
        old = json.loads(path.read_text())
        if old["exact"] != record["exact"]:
            problems.append(f"exact counts differ from {path.name}: "
                            f"{old['exact']} != {record['exact']}")
        for field in ("op_nnz", "op_calls"):
            for solver, ops in record[field].items():
                prev = old[field].get(solver, {})
                for op, val in ops.items():
                    if op in prev and prev[op] != val:
                        problems.append(f"{field} of {solver} op {op} differs "
                                        f"from {path.name}: {prev[op]} != {val}")
                ops.update({k: v for k, v in prev.items() if k not in ops})
    RUNS.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return problems


class Loop:
    """The timed closed loop and what it observed."""

    def __init__(self, wl, check, solvers, gauge, tracer) -> None:
        self.wl, self.check, self.solvers = wl, check, solvers
        self.gauge, self.tracer = gauge, tracer
        # Per op that returned a checked answer: (traced, wall seconds,
        # the gauge's scale at the op).
        self.ops = {}
        self.op_nnz = {s: {} for s in solvers}
        self.worst = {s: 0.0 for s in solvers}
        self.solver_of_op, self.label_of_op = {}, {}
        self.attempted = self.failed = 0

    def run(self, n_cycles: int) -> None:
        traced, phase_start = False, time.perf_counter()
        for cycle in range(n_cycles):
            if self.tracer is not None:
                if time.perf_counter() - phase_start >= PHASE_SECONDS:
                    traced, phase_start = not traced, time.perf_counter()
                if cycle == n_cycles - 1 and not self.ref_seconds(True):
                    traced = True  # a traced run needs traced ops
            if traced:
                self.tracer.install()
            try:
                for i in range(cycle * self.wl.cycle_len, (cycle + 1) * self.wl.cycle_len):
                    self._ops(i, traced)
            finally:
                if traced:
                    self.tracer.uninstall()

    def _ops(self, i: int, traced: bool) -> None:
        inp = self.wl.prepare(i)
        self.gauge.sample()
        scale = self.gauge.scale()
        for k, s in enumerate(self.solvers):
            op = len(self.solvers) * i + k
            self.solver_of_op[op] = s
            self.label_of_op[op] = f"{s}/{self.wl.label(i)}"
            if traced:
                self.tracer.op = op
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                ds, x = self.wl.run(s, inp)
            except Exception as exc:  # an op that raises is a failed op
                self.failed += 1
                print(f"op {op} ({s}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            err = self.check(inp, x)
            self.worst[s] = max(self.worst[s], err)
            if not err <= MAX_BACKWARD_ERROR:
                self.failed += 1
                print(f"op {op} ({s}) backward error {err:.3e}", file=sys.stderr)
                continue
            self.ops[op] = (traced, dt, scale)
            self.op_nnz[s][str(op)] = ds.factor_nnz

    def ref_seconds(self, traced: bool, group: str = "", raw: bool = False) -> list:
        """Op times scaled to the reference speed (wall times when
        ``raw``), of the ops whose ``solver/label`` starts with ``group``."""
        return [dt if raw else dt * scale for op, (t, dt, scale) in self.ops.items()
                if t == traced and self.label_of_op[op].startswith(group)]

    def traced_wall(self) -> dict:
        return {op: dt for op, (t, dt, _) in self.ops.items() if t}


def end_to_end(loop, setup_s: float, exact: dict, report: dict) -> dict:
    metrics = {"setup_s": (setup_s, "s")}
    for s in loop.solvers:
        ref = loop.ref_seconds(False, f"{s}/")
        pct, val = tail(ref)
        report["tail"][s] = {"pct": pct, "n": len(ref)}
        metrics[f"{s}.op_ms_p50"] = (1e3 * statistics.median(ref), "ms")
        metrics[f"{s}.op_ms_tail"] = (1e3 * val, "ms")
        metrics[f"{s}.ops_per_s"] = (len(ref) / sum(ref), "1/s")
        metrics[f"{s}.factor_nnz"] = (exact["factor_nnz"][s], "count")
    metrics["basker.modeled_speedup"] = (exact["modeled_speedup"], "x")
    metrics["ok_frac"] = ((loop.attempted - loop.failed) / loop.attempted, "frac")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(loop, exact: dict, report: dict) -> dict:
    tracer, traced_wall = loop.tracer, loop.traced_wall()
    table = tracer.layer_table(loop.solver_of_op, traced_wall)
    report["layers"] = table
    report["layers_by_input"] = tracer.layer_table(loop.label_of_op, traced_wall)
    # Layer times are folded from raw spans, then scaled like the ops.
    run_scale = loop.gauge.scale(0)
    metrics = {}
    for s in loop.solvers:
        flat = table[s]["metrics"]
        for name, unit, only in PER_LAYER:
            if only in (None, s):
                val = flat[name] * run_scale if name.endswith(WALL_MS) else flat[name]
                metrics[f"{s}.{name}"] = (val, unit)
        # Traced over untraced mean op time per input, so inputs that
        # cost different amounts (cold's mix) do not weigh in.
        ratios = [statistics.fmean(loop.ref_seconds(True, g))
                  / statistics.fmean(loop.ref_seconds(False, g))
                  for g in sorted(set(loop.label_of_op.values()))
                  if g.startswith(f"{s}/") and loop.ref_seconds(True, g)
                  and loop.ref_seconds(False, g)]
        metrics[f"{s}.trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "frac")
    par = exact["parallel"]
    metrics["basker.parallel.makespan_modeled_ms"] = (par["makespan_modeled_ms"], "ms")
    metrics["basker.parallel.utilization"] = (par["utilization"], "frac")
    metrics["basker.parallel.tasks"] = (par["tasks"], "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold", "transient", "contingency"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from layers import LayerTracer, installed_wrappers
    import_s = time.perf_counter() - _T0

    gauge = SpeedGauge()
    for _ in range(3):
        gauge.sample(force=True)
    make = workloads.WORKLOADS[args.workload]
    setups, digests = [], []
    for _ in range(SETUP_REPEATS):
        wl = None  # release the previous set-up before building the next
        t = time.perf_counter()
        wl = make(args.seed)
        setups.append(time.perf_counter() - t)
        digests.append(wl.digest())
        gauge.sample(force=True)
    setup_scale = gauge.scale(0)
    problems = []
    if len(set(digests)) != 1:
        problems.append(f"set-ups of one seed generated different inputs: {digests}")

    loop = Loop(wl, workloads.check, list(workloads.SOLVERS), gauge,
                LayerTracer() if args.trace else None)
    # A fixed op count per workload and --seconds, so the tail percentile
    # and the input mix follow neither the machine's nor the program's
    # speed.
    n_cycles = max(MIN_CYCLES, math.ceil(args.seconds / wl.nominal_cycle_s))
    t_loop = time.perf_counter()
    loop.run(n_cycles)
    loop_s = time.perf_counter() - t_loop

    exact = workloads.exact_counts(wl.distinct_inputs)
    record = {"exact": exact, "op_nnz": loop.op_nnz,
              "op_calls": {s: {} for s in loop.solvers}}
    if args.trace:
        left = installed_wrappers()
        if left:
            problems.append(f"wrappers left installed: {left}")
        for op, calls in loop.tracer.calls_by_op().items():
            record["op_calls"][loop.solver_of_op[op]][str(op)] = calls
    rec_path = RUNS / f"{args.workload}-seed{args.seed}-{source_digest()}.json"
    problems += compare_record(rec_path, record)

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(),
    }
    report = {
        "meta": meta,
        "setup": {"import_s": import_s, "setup_runs_s": setups, "scale": setup_scale},
        "cycles": n_cycles,
        "loop_s": loop_s,
        "probe_ms": [1e3 * p for p in gauge.samples],
        "raw_op_ms": {s: [1e3 * v for v in loop.ref_seconds(False, f"{s}/", raw=True)]
                      for s in loop.solvers},
        "op_ms": {s: [1e3 * v for v in loop.ref_seconds(False, f"{s}/")] for s in loop.solvers},
        "worst_backward_error": loop.worst,
        "exact": exact,
        "tail": {},
    }
    missing = [f"{s}/{'traced' if t else 'untraced'}" for s in loop.solvers
               for t in (False, True)[:1 + args.trace] if not loop.ref_seconds(t, f"{s}/")]
    if missing:
        problems.append(f"no checked ops to measure: {missing}")
        metrics = {}
    elif args.trace:
        metrics = per_layer(loop, exact, report)
        RUNS.mkdir(exist_ok=True)
        np.savez_compressed(
            RUNS / f"spans-{args.workload}-seed{args.seed}.npz",
            **{k: np.asarray(v) for k, v in loop.tracer.spans().items()},
            op_label=np.asarray([loop.label_of_op[o] for o in loop.tracer.op_of]))
    else:
        setup_s = (import_s + statistics.median(setups)) * setup_scale
        metrics = end_to_end(loop, setup_s, exact, report)

    report["problems"] = problems
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (val, unit) in metrics.items():
        print(f"{name:40s} {val:14.6g} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    correct = loop.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
