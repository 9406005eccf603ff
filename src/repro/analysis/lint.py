"""Custom AST lint enforcing the repo's cost-model discipline.

The reproduction's central contract is that *all* cost flows through
:class:`~repro.parallel.ledger.CostLedger` — never wall clocks — and
that counted work is never silently dropped.  Six rules:

* **R1** — no wall-clock calls (``time.time``, ``time.perf_counter``,
  ``time.monotonic``, ``time.process_time``, ``time.thread_time``)
  inside the kernel packages ``core/``, ``solvers/``, ``sparse/``.
  Importing those names from ``time`` there is equally flagged.
* **R2** — a kernel function that increments ledger counters
  (``x.sparse_flops += ...`` etc.) must receive the ledger through a
  parameter named ``ledger``, or the ledger object must escape the
  function (be returned, passed to a call, or attached to a result).
  A ledger that is created, incremented and never observed is work
  silently dropped from the performance model.
* **R3** — no bare ``except:`` anywhere in the package.
* **R4** — no mutable default arguments (``[]``, ``{}``, ``set()``,
  ``list()``, ``dict()``) anywhere in the package.
* **R5** — no nondeterminism in the kernel packages (``core/``,
  ``solvers/``, ``sparse/``, ``ordering/``, ``graph/``): no
  module-level RNG use through ``np.random.<fn>`` (``default_rng``,
  ``seed``, ``rand``, ...), no ``from numpy.random import <fn>``, no
  ``import random``, and no time-derived seeds
  (``default_rng(time.time())``).  Kernels that need randomness must
  take a ``numpy.random.Generator`` parameter — type annotations
  referencing ``np.random.Generator`` are explicitly allowed.
* **R6** — no mutable module-level state (``dict``/``list``/``set``
  literals or bare constructor calls, including class-level caches) in
  the kernel packages plus ``parallel/``.  Callers may drive one
  :class:`~repro.serve.service.SolverService` from several threads, and
  every one of them runs the same kernel modules, so a module cache
  is state those threads share without a lock.  A definition that is
  genuinely intended (a registry populated at import time, say) carries
  a trailing ``# effects: global-ok`` pin.

Findings are reported as ``path:line CODE message``; the CLI exits
nonzero when any are found, which is what CI gates on.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from .frontend import (FUNCTIONS, MUTABLE_CONSTRUCTORS, Module, in_packages,
                       load_file, load_source, name_bindings, package_modules,
                       param_names, parsed, walk_own)

__all__ = [
    "LintFinding", "lint_source", "lint_paths", "lint_tree",
    "KERNEL_DIRS", "DETERMINISTIC_DIRS", "R6_DIRS",
]

KERNEL_DIRS = ("core", "solvers", "sparse")
# R5 (determinism) additionally covers the ordering/graph kernels whose
# output must be reproducible run to run.
DETERMINISTIC_DIRS = KERNEL_DIRS + ("ordering", "graph")
# R6 (no mutable module state) additionally covers parallel/ — the
# scheduler machinery runs on every thread that runs the kernels.
R6_DIRS = DETERMINISTIC_DIRS + ("parallel",)
_WALL_CLOCKS = {"time", "perf_counter", "monotonic", "process_time", "thread_time", "clock"}
_COUNTERS = {"sparse_flops", "dense_flops", "dfs_steps", "mem_words", "columns"}
_MUTABLE_CALLS = {"list", "dict", "set"}
# numpy.random module-level entry points banned in deterministic kernels.
# ``Generator`` is deliberately absent: ``rng: np.random.Generator``
# annotations are the sanctioned way for kernels to consume randomness.
_RNG_NAMES = {
    "default_rng", "seed", "rand", "randn", "randint", "random",
    "random_sample", "ranf", "sample", "choice", "permutation", "shuffle",
    "standard_normal", "uniform", "normal", "RandomState", "get_state",
    "set_state",
}
_RNG_FACTORIES = {"default_rng", "RandomState", "seed"}


@dataclass
class LintFinding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line} {self.rule} {self.message}"


def _check_wall_clocks(tree: ast.AST, path: str, out: List[LintFinding]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "time" and node.attr in _WALL_CLOCKS:
                out.append(LintFinding(
                    path, node.lineno, "R1",
                    f"wall-clock call time.{node.attr} in a kernel module — "
                    "cost must flow through CostLedger",
                ))
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCKS:
                    out.append(LintFinding(
                        path, node.lineno, "R1",
                        f"importing {alias.name} from time in a kernel module — "
                        "cost must flow through CostLedger",
                    ))


# A function's own body: nested functions are linted on their own.
_OWN_BODY_STOP = FUNCTIONS + (ast.Lambda,)


def _check_ledger_flow(tree: ast.AST, path: str, out: List[LintFinding]) -> None:
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = set(param_names(fn))
        # Names whose counters this function increments, with first line.
        incremented: dict = {}
        counter_attr_ids = set()  # id() of Name nodes that are counter receivers
        for node in walk_own(fn.body, _OWN_BODY_STOP):
            target = None
            if isinstance(node, ast.AugAssign):
                target = node.target
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and target.attr in _COUNTERS
                and isinstance(target.value, ast.Name)
            ):
                name = target.value.id
                incremented.setdefault(name, node.lineno)
                counter_attr_ids.add(id(target.value))
        if not incremented:
            continue
        # A counted ledger is fine if it is a parameter, or if the name
        # escapes: any use other than as a counter receiver (passed to
        # a call, returned, stored on a result, re-read, ...).
        for name, lineno in incremented.items():
            if name in params or name == "self":
                continue
            escapes = False
            for node in walk_own(fn.body, _OWN_BODY_STOP):
                if (
                    isinstance(node, ast.Name)
                    and node.id == name
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in counter_attr_ids
                ):
                    escapes = True
                    break
            if not escapes:
                out.append(LintFinding(
                    path, lineno, "R2",
                    f"function '{fn.name}' counts cost into '{name}' which "
                    "is neither a 'ledger' parameter nor escapes the "
                    "function — that work is dropped from the model",
                ))


def _check_bare_except(tree: ast.AST, path: str, out: List[LintFinding]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            out.append(LintFinding(
                path, node.lineno, "R3",
                "bare 'except:' — catch a concrete exception type",
            ))


def _check_mutable_defaults(tree: ast.AST, path: str, out: List[LintFinding]) -> None:
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        for default in list(fn.args.defaults) + [
            d for d in fn.args.kw_defaults if d is not None
        ]:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
                and not default.args
                and not default.keywords
            )
            if bad:
                out.append(LintFinding(
                    path, default.lineno, "R4",
                    f"mutable default argument in '{name}' — use None "
                    "and create inside the function",
                ))


def _mentions_time(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in {"time", "datetime"}:
            return True
    return False


def _check_nondeterminism(tree: ast.AST, path: str, out: List[LintFinding]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _RNG_NAMES:
            v = node.value
            if (
                isinstance(v, ast.Attribute)
                and v.attr == "random"
                and isinstance(v.value, ast.Name)
                and v.value.id in {"np", "numpy"}
            ):
                out.append(LintFinding(
                    path, node.lineno, "R5",
                    f"module-level RNG np.random.{node.attr} in a deterministic "
                    "kernel — take a numpy.random.Generator parameter instead",
                ))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy.random":
                for alias in node.names:
                    if alias.name in _RNG_NAMES:
                        out.append(LintFinding(
                            path, node.lineno, "R5",
                            f"importing {alias.name} from numpy.random in a "
                            "deterministic kernel — take a Generator parameter "
                            "instead",
                        ))
            elif node.module == "random":
                out.append(LintFinding(
                    path, node.lineno, "R5",
                    "importing from the stdlib random module in a deterministic "
                    "kernel — take a numpy.random.Generator parameter instead",
                ))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in {"random", "numpy.random"}:
                    out.append(LintFinding(
                        path, node.lineno, "R5",
                        f"import {alias.name} in a deterministic kernel — take "
                        "a numpy.random.Generator parameter instead",
                    ))
        elif isinstance(node, ast.Call):
            fn = node.func
            name = None
            if isinstance(fn, ast.Attribute):
                name = fn.attr
            elif isinstance(fn, ast.Name):
                name = fn.id
            if name in _RNG_FACTORIES and any(
                _mentions_time(a) for a in list(node.args) + [k.value for k in node.keywords]
            ):
                out.append(LintFinding(
                    path, node.lineno, "R5",
                    f"time-derived seed passed to {name} — seeds must be "
                    "deterministic (explicit constants or caller-provided)",
                ))


_GLOBAL_OK_RE = re.compile(r"global-ok\b")


def _r6_is_mutable(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in MUTABLE_CONSTRUCTORS
    )


def _check_module_state(
    tree: ast.AST, ok_lines: Set[int], path: str, out: List[LintFinding]
) -> None:
    scopes = [("module", tree.body)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            scopes.append((f"class '{node.name}'", node.body))
    for where, body in scopes:
        for stmt, name in name_bindings(body):
            if not _r6_is_mutable(stmt.value) or stmt.lineno in ok_lines \
                    or (name.startswith("__") and name.endswith("__")):
                continue
            out.append(LintFinding(
                path, stmt.lineno, "R6",
                f"mutable {where}-level state '{name}' in a kernel "
                "package — shared by every thread that runs it; pass it "
                "explicitly or pin the line '# effects: global-ok'",
            ))


def _lint_module(module: Module, out: List[LintFinding]) -> None:
    tree, relpath = module.tree, module.path
    if in_packages(relpath, KERNEL_DIRS):
        _check_wall_clocks(tree, relpath, out)
        _check_ledger_flow(tree, relpath, out)
    if in_packages(relpath, DETERMINISTIC_DIRS):
        _check_nondeterminism(tree, relpath, out)
    if in_packages(relpath, R6_DIRS):
        ok_lines = {line for line, pin in module.pins("effects")
                    if _GLOBAL_OK_RE.match(pin)}
        _check_module_state(tree, ok_lines, relpath, out)
    _check_bare_except(tree, relpath, out)
    _check_mutable_defaults(tree, relpath, out)


def _lint_modules(modules: Sequence[Module]) -> List[LintFinding]:
    out: List[LintFinding] = []
    for module in parsed(modules, "R0", out, LintFinding):
        _lint_module(module, out)
    out.sort(key=lambda f: (f.path, f.line, f.rule))
    return out


def lint_source(source: str, relpath: str = "<string>") -> List[LintFinding]:
    """Lint one module's source.  ``relpath`` (relative to the package
    root, e.g. ``core/numeric.py``) decides whether the kernel-only
    rules R1/R2 apply."""
    return _lint_modules([load_source(source, relpath)])


def lint_paths(paths: Sequence[str], root: str) -> List[LintFinding]:
    """Lint explicit files, reported relative to ``root``."""
    return _lint_modules([load_file(p, os.path.relpath(p, root)) for p in paths])


def lint_tree(root: Optional[str] = None) -> List[LintFinding]:
    """Lint every ``.py`` file under ``root`` (default: the installed
    ``repro`` package directory)."""
    return _lint_modules(package_modules(root))
