"""Tests for repro.analysis.domains: the index-domain checker.

Four layers:

* the domain-expression grammar (``parse_domain``),
* intraprocedural propagation through ``invert``/``compose``/fancy
  indexing/slicing, and the ``# domain:`` comment pins,
* interprocedural call-site checking against ``@domains`` contracts,
  including space-variable unification,
* the seeded-violation fixtures and the CLI gate (clean tree exits 0,
  each fixture exits 1 with the expected code).
"""

import json
import pathlib

import pytest

from repro.analysis import (
    Domain,
    check_domains_paths,
    check_domains_source,
    check_domains_tree,
    parse_domain,
)
from repro.analysis.domains import DomainSyntaxError
from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "domains"

HEADER = (
    "from repro.contracts import domains\n"
    "from repro.ordering.perm import invert, compose\n"
)


def codes(body):
    return [f.code for f in check_domains_source(HEADER + body)]


# ---------------------------------------------------------------------------
# parse_domain


def test_parse_perm():
    d = parse_domain("perm[global->btf]")
    assert d == Domain("perm", "global", "btf")
    assert str(d) == "perm[global->btf]"


def test_parse_scalar_kinds():
    assert parse_domain("vec[nd]") == Domain("vec", "nd")
    assert parse_domain("index[local:block]") == Domain("index", "local:block")
    assert parse_domain("matrix[global]") == Domain("matrix", "global")


def test_parse_any_is_unknown():
    assert parse_domain("any") is None


def test_parse_whitespace_tolerant():
    assert parse_domain("  perm[ global -> btf ]  ") == Domain("perm", "global", "btf")


@pytest.mark.parametrize("bad", [
    "perm[global]",          # perm needs an arrow
    "vec[a->b]",             # non-perm must not have an arrow
    "tensor[global]",        # unknown kind
    "perm[->btf]",           # empty inner space
    "vec[]",                 # empty space
    "global",                # no kind at all
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(DomainSyntaxError):
        parse_domain(bad)


# ---------------------------------------------------------------------------
# intraprocedural propagation


def test_invert_flips_spaces():
    body = '''
@domains(p="perm[global->btf]", x="vec[btf]", returns="vec[global]")
def back(p, x):
    return x[invert(p)]
'''
    assert codes(body) == []


def test_return_contract_mismatch_is_d1():
    body = '''
@domains(p="perm[global->btf]", x="vec[btf]", returns="vec[btf]")
def back(p, x):
    return x[invert(p)]
'''
    assert codes(body) == ["D1"]


def test_double_apply_is_d2():
    body = '''
@domains(p="perm[global->btf]", x="vec[global]")
def twice(p, x):
    y = x[p]
    return y[p]
'''
    assert codes(body) == ["D2"]


def test_compose_mismatch_is_d3():
    body = '''
@domains(p="perm[global->btf]", q="perm[nd->global]")
def chain(p, q):
    return compose(p, q)
'''
    assert codes(body) == ["D3"]


def test_compose_good_chain_and_result_space():
    body = '''
@domains(p="perm[global->btf]", q="perm[btf->nd]", returns="perm[global->nd]")
def chain(p, q):
    return compose(p, q)
'''
    assert codes(body) == []


def test_fancy_index_composition_is_checked():
    # p[q] is compose(p, q); a broken chain is D3 even without compose().
    body = '''
@domains(p="perm[global->btf]", q="perm[nd->global]")
def chain(p, q):
    return p[q]
'''
    assert codes(body) == ["D3"]


def test_index_space_mismatch_is_d4():
    body = '''
@domains(x="vec[global]", rows="index[local:block]")
def gather(x, rows):
    return x[rows]
'''
    assert codes(body) == ["D4"]


def test_slice_produces_block_local_view():
    body = '''
@domains(x="vec[global]", rows="index[global]")
def gather(x, rows):
    y = x[0:4]
    return y[rows]
'''
    assert codes(body) == ["D4"]


def test_trailing_comment_pins_domain():
    # .copy() would propagate vec[global]; the comment overrides it.
    body = '''
@domains(x="vec[global]", p="perm[global->btf]")
def f(x, p):
    y = x.copy()  # domain: vec[btf]
    return y[p]
'''
    assert codes(body) == ["D2"]


def test_standalone_comment_names_a_local():
    body = '''
@domains(p="perm[global->btf]")
def f(p, z):
    # domain: z = vec[btf]
    return z[p]
'''
    assert codes(body) == ["D2"]


def test_unknown_propagates_silently():
    # z has no declared domain: indexing it with anything is fine.
    body = '''
@domains(p="perm[global->btf]")
def f(p, z):
    y = z[p]
    return y[p]
'''
    assert codes(body) == []


def test_malformed_decorator_is_d5():
    body = '''
@domains(p="perm[global]")
def f(p):
    return p
'''
    assert codes(body) == ["D5"]


def test_unknown_parameter_name_is_d5():
    body = '''
@domains(nosuch="vec[global]")
def f(x):
    return x
'''
    assert codes(body) == ["D5"]


# ---------------------------------------------------------------------------
# interprocedural checking


def test_call_site_argument_mismatch_is_d1():
    body = '''
@domains(b="vec[btf]")
def consume(b):
    return b

@domains(x="vec[global]")
def produce(x):
    return consume(x)
'''
    assert codes(body) == ["D1"]


def test_space_variable_unification_conflict_is_d1():
    body = '''
@domains(A="matrix[S]", b="vec[S]")
def solve(A, b):
    return b

@domains(A="matrix[btf]", x="vec[global]")
def driver(A, x):
    return solve(A, x)
'''
    assert codes(body) == ["D1"]


def test_space_variable_substitutes_into_return():
    body = '''
@domains(A="matrix[S]", returns="perm[S->S]")
def order(A):
    ...

@domains(A="matrix[btf]", x="vec[global]")
def driver(A, x):
    p = order(A)
    return x[p]
'''
    # p is perm[btf->btf]; indexing a global vec with it is D4.
    assert codes(body) == ["D4"]


def test_binding_through_package_contracts(tmp_path):
    # amd_order's perm[S->S] return picks up local:block from submatrix.
    src = HEADER + '''
from repro.ordering.amd import amd_order

@domains(A="matrix[btf]", x="vec[global]")
def f(A, x):
    blk = A.submatrix(0, 4, 0, 4)
    p = amd_order(blk)
    return x[p]
'''
    target = tmp_path / "snippet.py"
    target.write_text(src)
    found = check_domains_paths([str(target)])
    assert [f.code for f in found] == ["D4"]
    assert "local:block" in found[0].message


# ---------------------------------------------------------------------------
# fixtures + the tree gate


def test_annotated_tree_is_clean():
    assert check_domains_tree() == []


@pytest.mark.parametrize("fixture, code", [
    ("bad_local_on_global.py", "D4"),
    ("bad_double_apply.py", "D2"),
    ("bad_compose.py", "D3"),
])
def test_seeded_fixture_is_flagged(fixture, code):
    found = check_domains_paths([str(FIXTURES / fixture)])
    assert [f.code for f in found] == [code]


def test_clean_fixture_has_no_findings():
    assert check_domains_paths([str(FIXTURES / "clean_roundtrip.py")]) == []


# ---------------------------------------------------------------------------
# CLI


def test_cli_domains_clean_tree_exits_zero(capsys):
    assert main(["analyze", "domains"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_domains_fixture_exits_nonzero(capsys):
    rc = main(["analyze", "domains", "--path",
               str(FIXTURES / "bad_double_apply.py")])
    assert rc == 1
    assert "D2" in capsys.readouterr().out


def test_cli_domains_json(capsys):
    rc = main(["analyze", "domains", "--format", "json", "--path",
               str(FIXTURES / "bad_compose.py")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["checker"] == "domains"
    assert payload["ok"] is False
    assert [f["code"] for f in payload["checkers"]["domains"]["findings"]] == ["D3"]


def test_cli_domains_json_clean(capsys):
    rc = main(["analyze", "domains", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["ok"] is True
    assert payload["checkers"] == {"domains": {"ok": True, "findings": []}}
