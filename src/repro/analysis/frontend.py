"""One front end for the static analyzers: lint, domains, effects, shapes.

:func:`load_source` parses and comment-tokenizes a module once per
process, memoized by path and source text, so one ``repro analyze all``
reads each package module once however many checkers walk it.  The
module also owns what the checkers share: the source/paths/tree driver
inputs, ``# <tag>:`` comment pins (real COMMENT tokens only, so a marker
in a docstring is prose), decorator lookup with literal-keyword
validation, a name registry, finding dedup/sort/filtering and the AST
walk helpers.  Each checker keeps its own rules, its syntax-error code
(lint R0, domains D5, effects E0, shapes S5) and its finding fields.
"""

from __future__ import annotations

import ast
import functools
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

__all__ = [
    "PACKAGE_ROOT", "FUNCTIONS", "SCOPES", "NOT_LITERAL", "Finding",
    "Module", "Registry", "load_source", "load_file", "package_modules",
    "path_modules", "source_modules", "parsed", "finalize", "decorators",
    "literal_keywords", "in_packages", "call_name", "param_names",
    "walk_own", "name_bindings", "MUTABLE_CONSTRUCTORS",
]

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# Nodes that open a scope of their own: walks of one function's body
# yield them but do not enter them.
SCOPES = FUNCTIONS + (ast.Lambda, ast.ClassDef)

# The value :func:`literal_keywords` reports for a non-literal keyword.
NOT_LITERAL = object()
# Constructors whose module-level call creates shared mutable state
# (lint R6).
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "OrderedDict", "deque",
    "Counter", "bytearray",
})


@dataclass(frozen=True)
class Finding:
    """One diagnostic: ``path:line CODE message``."""

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return "%s:%d %s %s" % (self.path, self.line, self.code, self.message)


@dataclass(frozen=True)
class Module:
    """One loaded module, reported under ``path``.

    ``tree`` is None when the source does not parse; ``error`` then holds
    the ``(line, message)`` of the syntax error.  ``comments`` holds the
    ``(line, text)`` of every real COMMENT token.
    """

    path: str
    tree: Optional[ast.Module]
    error: Optional[Tuple[int, str]]
    comments: Tuple[Tuple[int, str], ...]

    def pins(self, tag: str) -> List[Tuple[int, str]]:
        """``(line, payload)`` of every ``# <tag>: payload`` comment."""
        pattern = re.compile(r"#\s*%s:\s*(.+?)\s*$" % re.escape(tag))
        found = ((line, pattern.search(text)) for line, text in self.comments)
        return [(line, m.group(1)) for line, m in found if m is not None]


@functools.lru_cache(maxsize=512)
def load_source(source: str, path: str = "<string>") -> Module:
    """Parse and comment-tokenize *source*, reported under *path*.

    Memoized by ``(source, path)``: every checker that loads the same
    text under the same path gets the same :class:`Module` (and the same
    AST, which the checkers only read).  The cache holds several times
    the package's module count, so a long-lived process that checks
    many snippets stays bounded.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return Module(path, None, (exc.lineno or 0, exc.msg), ())
    comments: List[Tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = []
    return Module(path, tree, None, tuple(comments))


def load_file(path: str, report_as: Optional[str] = None) -> Module:
    """Load the file at *path*, reported under *report_as* (default:
    *path* as given)."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_source(fh.read(), report_as or path)


def package_modules(root: Optional[str] = None) -> List[Module]:
    """Every ``.py`` module under *root* (default: the installed ``repro``
    package), reported under its root-relative ``/``-separated path."""
    root = root or PACKAGE_ROOT
    out: List[Module] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                full = os.path.join(dirpath, fname)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                out.append(load_file(full, rel))
    return out


def path_modules(paths: Sequence[str],
                 root: Optional[str] = None) -> List[Module]:
    """The package's modules followed by the files at *paths*, each
    reported under its path as given — the ``--path`` form, where the
    package supplies contracts and summaries for checking the files."""
    return package_modules(root) + [load_file(p) for p in paths]


def source_modules(
    source: str,
    path: str = "<string>",
    extra_sources: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[Module]:
    """*source* (reported under *path*) followed by every ``(text,
    path)`` companion in *extra_sources*."""
    return [load_source(source, path)] + [
        load_source(text, p) for text, p in extra_sources or ()]


def parsed(modules: Iterable[Module], code: str, findings: list,
           finding: Callable = Finding) -> List[Module]:
    """The modules that parse.  Each one that does not adds a
    ``syntax error`` finding with the checker's *code*."""
    out = []
    for m in modules:
        if m.tree is None:
            line, msg = m.error
            findings.append(finding(m.path, line, code, "syntax error: %s" % msg))
        else:
            out.append(m)
    return out


def finalize(
    findings: Iterable[Finding],
    report_for: Optional[Set[str]] = None,
    ignore: Optional[Dict[str, Set[int]]] = None,
) -> List[Finding]:
    """Deduplicate and sort by ``(path, line, code, message)``.

    Findings outside *report_for* (a set of paths; None keeps every
    path) are dropped, and so are those on a line that *ignore* lists
    for their path.
    """
    ignore = ignore or {}
    keep = {
        f for f in findings
        if (report_for is None or f.path in report_for)
        and f.line not in ignore.get(f.path, ())
    }
    return sorted(keep, key=lambda f: (f.path, f.line, f.code, f.message))


class Registry:
    """Entries collected across a set of modules, keyed by simple name.

    Call sites are matched by the callee's simple name (``f(...)`` or
    ``obj.f(...)``).  When several entries share a name, the registry
    answers only if they all agree under *key* (``factor`` on both
    ``KLU`` and ``Basker``, say); otherwise the name is ambiguous and
    resolves to None.  *key* is evaluated at lookup time, so entries
    may still change while they are registered.
    """

    def __init__(self, key: Callable) -> None:
        self.key = key
        self.by_name: Dict[str, list] = {}

    def add(self, name: str, entry) -> None:
        self.by_name.setdefault(name, []).append(entry)

    def resolve(self, name: Optional[str]):
        group = self.by_name.get(name) if name is not None else None
        if not group:
            return None
        first = self.key(group[0])
        if any(self.key(other) != first for other in group[1:]):
            return None
        return group[0]


def decorators(fn: ast.AST, name: str) -> List[ast.Call]:
    """The ``@name(...)`` / ``@module.name(...)`` calls decorating *fn*."""
    return [
        dec for dec in fn.decorator_list
        if isinstance(dec, ast.Call) and call_name(dec) == name
    ]


def literal_keywords(
    dec: ast.Call,
) -> Iterator[Tuple[Optional[str], object, ast.keyword]]:
    """``(name, value, keyword)`` for each keyword of a decorator call.

    *value* is the keyword's Python literal, or :data:`NOT_LITERAL` when
    it is not one; *name* is None for a ``**`` expansion.
    """
    for kw in dec.keywords:
        try:
            value = ast.literal_eval(kw.value)
        except (ValueError, TypeError, SyntaxError):
            value = NOT_LITERAL
        yield kw.arg, value, kw


def in_packages(path: str, dirs: Sequence[str]) -> bool:
    """Whether *path* lies under a directory named in *dirs*."""
    parts = path.replace(os.sep, "/").split("/")
    return any(p in parts[:-1] for p in dirs)


def call_name(node: ast.Call) -> Optional[str]:
    """The simple callee name of ``f(...)`` or ``obj.f(...)``."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def param_names(fn: ast.AST) -> Tuple[str, ...]:
    """Every parameter name of a function, ``*args``/``**kw`` last."""
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    if a.vararg:
        names.append(a.vararg.arg)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return tuple(names)


def name_bindings(body: Sequence[ast.stmt]) -> Iterator[Tuple[ast.stmt, str]]:
    """``(statement, name)`` for each plain-name target of the
    assignments (with a value) in a statement list."""
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        for t in targets:
            if isinstance(t, ast.Name):
                yield stmt, t.id


def walk_own(node, stop: Tuple[type, ...] = SCOPES) -> Iterator[ast.AST]:
    """Walk *node* (an AST node, or a statement list) without entering
    nested scopes: a nested node of a *stop* type is yielded but its
    subtree is not.  *node* itself is always entered."""
    stack = list(node) if isinstance(node, list) else [node]
    while stack:
        cur = stack.pop()
        yield cur
        if cur is not node and isinstance(cur, stop):
            continue
        stack.extend(ast.iter_child_nodes(cur))
