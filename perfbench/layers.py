"""Per-layer wall-time tracing for the traced benchmark run.

The program's own tracer prices work in modeled time only, so this
module measures wall time from the benchmark's side: it wraps the
public functions of each layer, records one span per call (target,
start, end, parent span, op id) in memory, and folds the spans into
per-layer self times when the run ends.  A span's self time is its
duration minus the durations of its child spans.

The package binds functions by name (``from ..ordering.amd import
amd_order``), so replacing the defining module's attribute is not
enough: :meth:`LayerTracer.install` replaces the target on every loaded
``repro.*`` module and class that holds it, and
:meth:`LayerTracer.uninstall` restores each one.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from repro.parallel.machine import SANDY_BRIDGE

# target ("module:qualname") -> layer.  Several targets may feed one
# layer; nested calls within one layer are counted once by self time.
TARGETS: Dict[str, str] = {
    "repro.interface:DirectSolver.symbolic_factorization": "interface",
    "repro.interface:DirectSolver.numeric_factorization": "interface",
    "repro.interface:DirectSolver.solve": "interface",
    "repro.ordering.btf:btf": "ordering.btf",
    "repro.ordering.amd:amd_order": "ordering.amd",
    "repro.ordering.nd:nested_dissection": "ordering.nd",
    "repro.graph.matching:mwcm_row_permutation": "graph.matching",
    "repro.graph.scc:scc_of_matrix": "graph.scc",
    "repro.graph.etree:etree": "graph.etree",
    "repro.graph.etree:symbolic_cholesky_counts": "graph.etree",
    "repro.solvers.klu:KLU.analyze": "symbolic",
    "repro.core.symbolic:analyze": "symbolic",
    # The numeric-factorization drivers (permutation, block extraction,
    # pivot folding, task building); without this layer their time
    # would land in interface self time.
    "repro.solvers.klu:KLU.factor": "factor",
    "repro.core.basker:Basker.factor": "factor",
    "repro.solvers.gp:gp_factor": "gp.factor",
    "repro.sparse.blocking:detect_dense_tail": "blocking",
    "repro.core.numeric:factor_nd_block": "core.numeric",
    "repro.solvers.klu:KLU.refactor_fast": "refactor",
    "repro.core.basker:Basker.refactor_fast": "refactor",
    "repro.solvers.gp:gp_refactor": "refactor",
    "repro.sparse.schedule:compile_refactor_schedule": "schedule",
    "repro.sparse.schedule:compile_triangular_schedule": "schedule",
    "repro.solvers.klu:KLU.solve": "solve",
    "repro.core.basker:Basker.solve": "solve",
    "repro.solvers.triangular:lu_solve_factors": "triangular",
}
LAYERS = sorted(set(TARGETS.values()))

# Schedule lookups are counted, not timed (their time stays with the
# caller): reuse_ratio = 1 - compiles / lookups.
LOOKUPS = (
    "repro.sparse.schedule:triangular_schedule",
    "repro.solvers.gp:ensure_refactor_schedule",
    "repro.sparse.schedule:BlockedRefactorSchedule.run",
)

# Layers whose calls return a CostLedger, so the modeled clock sees
# them.  Every other layer reports ``modeled_ms: None``.
PRICED = ("symbolic", "factor", "gp.factor", "core.numeric", "refactor")

REFACTOR_FAST = ("repro.solvers.klu:KLU.refactor_fast",
                 "repro.core.basker:Basker.refactor_fast")
_SOLVE = ("repro.solvers.klu:KLU.solve", "repro.core.basker:Basker.solve")
_MARK = "__perfbench_original__"


def resolve(target: str):
    """The function object a ``module:qualname`` target names."""
    mod_name, qual = target.split(":")
    obj = sys.modules[mod_name]
    for part in qual.split("."):
        obj = vars(obj)[part]
    return obj


def _repro_namespaces():
    """``(name, namespace)`` of every loaded repro module and of each
    class defined in one."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        yield name, mod
        for val in list(vars(mod).values()):
            if isinstance(val, type) and val.__module__ == name:
                yield f"{name}.{val.__name__}", val


def installed_wrappers() -> List[str]:
    """Dotted names of wrappers still bound anywhere in ``repro``."""
    return [f"{name}.{attr}" for name, ns in _repro_namespaces()
            for attr, val in list(vars(ns).items()) if hasattr(val, _MARK)]


def _cols(b) -> int:
    return 1 if np.ndim(b) == 1 else int(np.shape(b)[1])


def _above_block_nnz(indptr, indices, splits) -> int:
    """Entries of a block upper triangular pattern above its diagonal
    blocks: the off-diagonal updates of one BTF back-substitution."""
    col_blk = np.repeat(np.arange(splits.size - 1), np.diff(splits))
    row_blk = np.searchsorted(splits, indices, side="right") - 1
    return int((row_blk < np.repeat(col_blk, np.diff(indptr))).sum())


class LayerTracer:
    """Span recorder plus the wrappers that feed it.

    The benchmark loop sets ``op`` before each traced op; spans and
    counters are attributed to it.
    """

    def __init__(self) -> None:
        self.key: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.op_of: List[int] = []
        self._stack: List[int] = []
        self.op = -1
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        # Ledgers (by span) and solve patterns kept by reference and
        # folded at the end, so the wrappers add little work inside the
        # caller's span.
        self.ledgers: Dict[int, object] = {}
        self.solves: List[tuple] = []
        self.fell_back: set = set()
        self._sites: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _wrap(self, fn, key: str):
        post = self._post(key)
        keys, starts, ends, parents, ops = (
            self.key, self.start, self.end, self.parent, self.op_of)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if post is not None:
                post(i, args, out)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _count(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.op, "schedule.lookups")] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _post(self, key: str):
        counts, ledgers = self.counts, self.ledgers
        layer = TARGETS[key]
        if key.endswith(":gp_factor"):
            def post(i, args, out):
                ledgers[i] = out.ledger
                # A fresh factorization under refactor_fast is a fallback.
                for j in reversed(self._stack):
                    if self.key[j] in REFACTOR_FAST:
                        self.fell_back.add(j)
                        break
            return post
        if layer in PRICED:  # every priced call returns an object with a ledger
            def post(i, args, out):
                ledgers[i] = out.ledger
            return post
        if key.endswith(":detect_dense_tail"):
            def post(i, args, out):
                counts[(self.op, "blocking.dense_cols")] += out.tail_cols
                counts[(self.op, "blocking.cols")] += out.n
            return post
        if key.endswith("DirectSolver.solve"):
            def post(i, args, out):
                counts[(self.op, "solve.rhs_cols")] += _cols(args[1])
            return post
        if key in _SOLVE:
            def post(i, args, out):
                numeric = args[1]
                self.solves.append((self.op, numeric.M.indptr, numeric.M.indices,
                                    numeric.symbolic.block_splits, _cols(args[2])))
            return post
        if key.endswith(":lu_solve_factors"):
            def post(i, args, out):
                L, U, b = args[0], args[1], args[2]
                counts[(self.op, "solve.flops_computed")] += (
                    (L.nnz + U.nnz) * _cols(b))
            return post
        return None

    def install(self) -> None:
        """Bind a wrapper at every site that holds a target."""
        if self._sites:
            raise RuntimeError("layer wrappers are already installed")
        target_of = {id(resolve(t)): t for t in (*TARGETS, *LOOKUPS)}
        made: Dict[int, object] = {}
        sites = []
        for _, ns in _repro_namespaces():
            for attr, fn in list(vars(ns).items()):
                target = target_of.get(id(fn))
                if target is None:
                    continue
                if id(fn) not in made:
                    make = self._count if target in LOOKUPS else self._wrap
                    made[id(fn)] = make(fn, target)
                sites.append((ns, attr, fn))
        for ns, attr, fn in sites:
            setattr(ns, attr, made[id(fn)])
        self._sites = sites

    def uninstall(self) -> None:
        for ns, attr, fn in self._sites:
            setattr(ns, attr, fn)
        self._sites = []

    # -- aggregation ----------------------------------------------------
    def calls_by_op(self) -> Dict[int, Dict[str, int]]:
        """Calls recorded per op and target."""
        out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for k, op in zip(self.key, self.op_of):
            out[op][k] += 1
        return {op: dict(c) for op, c in out.items()}

    def self_seconds(self) -> np.ndarray:
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return dur - child

    def priced_self(self) -> Dict[int, Tuple[float, float]]:
        """Per priced span: (modeled seconds, flops) of its ledger minus
        the ledgers of the nearest priced calls nested in it, since a
        ledger includes the work of the priced calls it made.  Modeled
        seconds price the ledger on one SANDY_BRIDGE core."""
        out = {i: (SANDY_BRIDGE.seconds(led), led.total_flops)
               for i, led in self.ledgers.items()}
        for i, (sec, flops) in list(out.items()):
            j = self.parent[i]
            while j >= 0 and j not in out:
                j = self.parent[j]
            if j >= 0:
                out[j] = (out[j][0] - sec, out[j][1] - flops)
        return out

    def layer_table(self, group_of_op: Dict[int, str],
                    op_wall: Dict[int, float]) -> Dict[str, dict]:
        """Per group of ops (``group_of_op``): per-layer self time,
        calls and modeled time, and the derived counters, as means per
        traced op.  ``op_wall`` holds the wall seconds of every traced
        op that returned a checked answer; spans of other ops are left
        out."""
        groups = sorted({group_of_op[op] for op in op_wall})
        tot = {g: {layer: {"self_s": 0.0, "calls": 0,
                           "modeled_s": 0.0 if layer in PRICED else None}
                   for layer in LAYERS} for g in groups}
        c: Dict[Tuple[str, str], float] = defaultdict(float)
        selfs = self.self_seconds()
        for i, (k, op) in enumerate(zip(self.key, self.op_of)):
            if op not in op_wall:
                continue
            g = group_of_op[op]
            row = tot[g][TARGETS[k]]
            row["self_s"] += selfs[i]
            row["calls"] += 1
            if k in REFACTOR_FAST:
                c[(g, "refactor_fast")] += 1
                c[(g, "fell_back")] += i in self.fell_back
        for (op, name), val in self.counts.items():
            if op in op_wall:
                c[(group_of_op[op], name)] += val
        for i, (modeled_s, flops) in self.priced_self().items():
            op = self.op_of[i]
            if op in op_wall:
                g, layer = group_of_op[op], TARGETS[self.key[i]]
                c[(g, f"{layer}.flops")] += flops
                tot[g][layer]["modeled_s"] += modeled_s
        # The stored arrays stay referenced, so their ids are unique.
        above: Dict[Tuple[int, int, int], int] = {}
        for op, indptr, indices, splits, cols in self.solves:
            if op in op_wall:
                key = (id(indptr), id(indices), id(splits))
                if key not in above:
                    above[key] = _above_block_nnz(indptr, indices, splits)
                c[(group_of_op[op], "solve.flops_computed")] += above[key] * cols

        out: Dict[str, dict] = {}
        for g, rows in tot.items():
            walls = [w for op, w in op_wall.items() if group_of_op[op] == g]
            n, wall = len(walls), sum(walls)
            m: Dict[str, object] = {}
            for layer, r in rows.items():
                m[f"{layer}.self_ms"] = 1e3 * r["self_s"] / n
                m[f"{layer}.calls"] = r["calls"] / n
                m[f"{layer}.modeled_ms"] = (None if r["modeled_s"] is None
                                            else 1e3 * r["modeled_s"] / n)
                m[f"{layer}.wall_share"] = r["self_s"] / wall
            lookups = c[(g, "schedule.lookups")]
            unpriced = sum(r["self_s"] for r in rows.values() if r["modeled_s"] is None)
            m.update({
                "gp.factor.flops": c[(g, "gp.factor.flops")] / n,
                "core.numeric.flops": c[(g, "core.numeric.flops")] / n,
                "refactor.flops": c[(g, "refactor.flops")] / n,
                "refactor.fallback_frac": (c[(g, "fell_back")] / c[(g, "refactor_fast")]
                                           if c[(g, "refactor_fast")] else 0.0),
                "blocking.dense_col_frac": (
                    c[(g, "blocking.dense_cols")] / c[(g, "blocking.cols")]
                    if c[(g, "blocking.cols")] else 0.0),
                "schedule.compile_ms": m["schedule.self_ms"],
                "schedule.compiles": m["schedule.calls"],
                "schedule.reuse_ratio": (1.0 - rows["schedule"]["calls"] / lookups
                                         if lookups else 0.0),
                "solve.rhs_cols": c[(g, "solve.rhs_cols")] / n,
                "solve.flops_computed": c[(g, "solve.flops_computed")] / n,
                "modeled.unpriced_wall_frac": unpriced / wall,
            })
            out[g] = {"ops": n, "op_ms": 1e3 * wall / n, "metrics": m}
        return out

    def spans(self) -> dict:
        """Columnar dump of every recorded span."""
        return {"target": self.key, "start_s": self.start, "end_s": self.end,
                "parent": self.parent, "op": self.op_of}
