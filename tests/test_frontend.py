"""Tests for repro.analysis.frontend, the static analyzers' shared front end.

* every seeded fixture gives exactly its ``(line, code, message)``
  findings through the shared ``--path`` driver, reported under the path
  as given (none for the fixtures of the deleted E4 loop and static S1
  rules, whose covering checks are tested next to them);
* one ``repro analyze all`` parses and comment-tokenizes each package
  module exactly once;
* the shared pieces: comment pins, decorator keywords, the name registry
  and finding finalization.
"""

import ast
import collections
import io
import pathlib
import tokenize

import pytest

from repro.analysis import (
    check_domains_paths,
    check_effects_paths,
    check_shapes_paths,
)
from repro.analysis.frontend import (
    NOT_LITERAL,
    PACKAGE_ROOT,
    Finding,
    Registry,
    decorators,
    finalize,
    literal_keywords,
    load_source,
)
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

CHECKERS = {
    "domains": check_domains_paths,
    "effects": check_effects_paths,
    "shapes": check_shapes_paths,
}

FIXTURE_FINDINGS = {
    "domains/bad_compose.py": [
        (13, "D3", "compose(perm[global->btf], perm[nd->global]): outer space "
                   "'btf' does not chain with inner space 'nd'"),
    ],
    "domains/bad_double_apply.py": [
        (13, "D2", "double application of permutation: vec[btf] indexed with "
                   "perm[global->btf] (the array is already in the "
                   "permutation's output space)"),
    ],
    "domains/bad_local_on_global.py": [
        (10, "D4", "vec[global] subscripted with index[local:block] (index "
                   "values live in a different space)"),
    ],
    "domains/clean_roundtrip.py": [],
    "effects/clean_kernel.py": [],
    "effects/e1_missing_decl.py": [
        (15, "E1", "store 'y' (families {y}) is written in the region of the "
                   "task emitted at line 17 but the declared writes {x} do "
                   "not cover it"),
    ],
    "effects/e2_pure_mutation.py": [
        (17, "E2", "normalize() is declared pure but mutates parameter 'x' "
                   "(line 18)"),
    ],
    "effects/e4_same_level_writes.py": [],
    "effects/e5_numpy_inplace.py": [
        (12, "E5", "out=A aliases an input operand of dot() — non-elementwise "
                   "kernels read operands after writing out"),
    ],
    "shapes/clean_kernel.py": [],
    "shapes/s1_gather_oob.py": [],
    "shapes/s2_reduceat_unsorted.py": [
        (12, "S2", "reduceat segment starts are provably unsorted"),
    ],
    "shapes/s3_shape_mismatch.py": [
        (12, "S3", "elementwise op: mixes declared dimensions 'n' and 'm'"),
        (16, "S3", "elementwise op: shapes (3,) and (4,) are provably "
                   "different"),
    ],
    "shapes/s4_int32_narrowing.py": [
        (11, "S4", "narrowing cast to i4 breaks the package-wide int64 index "
                   "discipline"),
        (12, "S4", "i4 index array created in kernel code (the tree is "
                   "int64-only)"),
    ],
    "shapes/s5_contract_mismatch.py": [
        (10, "S5", "grows_by_one(): returned axis-0 length is 1 + n, "
                   "contract declares n"),
    ],
}


def test_every_fixture_is_pinned():
    on_disk = {
        "%s/%s" % (p.parent.name, p.name)
        for checker in CHECKERS for p in (FIXTURES / checker).glob("*.py")
    }
    assert on_disk == set(FIXTURE_FINDINGS)
    assert sum(len(v) for v in FIXTURE_FINDINGS.values()) == 12


@pytest.mark.parametrize("fixture", sorted(FIXTURE_FINDINGS))
def test_fixture_findings(fixture):
    path = str(FIXTURES / fixture)
    found = CHECKERS[fixture.split("/")[0]]([path])
    assert [(f.line, f.code, f.message) for f in found] == FIXTURE_FINDINGS[fixture]
    assert all(f.path == path for f in found)


def _package_sources():
    return [p.read_text(encoding="utf-8")
            for p in sorted(pathlib.Path(PACKAGE_ROOT).rglob("*.py"))
            if "__pycache__" not in p.parts]


def test_analyze_all_parses_each_module_once(monkeypatch, capsys):
    sources = _package_sources()
    parses, tokenized = collections.Counter(), collections.Counter()
    real_parse, real_tokens = ast.parse, tokenize.generate_tokens

    def counting_parse(source, *args, **kwargs):
        parses[source] += 1
        return real_parse(source, *args, **kwargs)

    def counting_tokens(readline, *args, **kwargs):
        owner = getattr(readline, "__self__", None)
        if isinstance(owner, io.StringIO):
            tokenized[owner.getvalue()] += 1
        return real_tokens(readline, *args, **kwargs)

    load_source.cache_clear()
    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
    assert main(["analyze", "all", "--matrix", "Power0*+", "--threads", "1"]) == 0
    capsys.readouterr()
    assert [parses[s] for s in sources] == [1] * len(sources)
    assert [tokenized[s] for s in sources] == [1] * len(sources)


def test_pins_read_real_comments_only():
    module = load_source(
        'x = 1  # shapes: ignore\n'
        's = "# shapes: not a pin"\n'
        '"""# effects: global-ok"""\n'
        'y = 2  #effects:  global-ok  \n',
        "pins.py")
    assert module.pins("shapes") == [(1, "ignore")]
    assert module.pins("effects") == [(4, "global-ok")]
    assert load_source('x = (\n', "bad.py").error[0] == 1


def test_literal_keywords():
    fn = ast.parse(
        "@pkg.effects(pure=True, mutates=('a',), other=f(x), **kw)\n"
        "@shapes(x='f8[n]')\n"
        "def f(x): pass\n").body[0]
    (dec,) = decorators(fn, "effects")
    assert [(name, value) for name, value, _kw in literal_keywords(dec)] == [
        ("pure", True), ("mutates", ("a",)), ("other", NOT_LITERAL),
        (None, NOT_LITERAL)]
    assert len(decorators(fn, "shapes")) == 1 and decorators(fn, "domains") == []


def test_registry_resolves_only_agreeing_names():
    registry = Registry(key=lambda entry: entry[0])
    registry.add("factor", ("sig", "KLU"))
    registry.add("factor", ("sig", "Basker"))
    registry.add("solve", ("a", 1))
    registry.add("solve", ("b", 2))
    assert registry.resolve("factor") == ("sig", "KLU")
    assert registry.resolve("solve") is None
    assert registry.resolve("missing") is None and registry.resolve(None) is None


def test_finalize_dedups_filters_and_sorts():
    a = Finding("b.py", 3, "S1", "x")
    b = Finding("a.py", 9, "S2", "y")
    c = Finding("a.py", 2, "S3", "z")
    assert finalize([a, b, a, c]) == [c, b, a]
    assert finalize([a, b, c], report_for={"a.py"}) == [c, b]
    assert finalize([a, b, c], ignore={"a.py": {2}}) == [b, a]
