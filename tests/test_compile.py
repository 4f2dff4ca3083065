"""The compiled evaluator agrees with the tree-walking reference.

enumerate_models decides formulas with closures from compile_expr;
eval_expr stays the reference.  Both must return the same value, or
raise a ModelError with the same message, wherever they are asked, and
the search must yield the models the whole-table, eval_expr search of
tests/oracles.py yields, in the same order.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import load_case
from oracles import carriers_and_domain, reference_models
from normlog.models import (
    ModelError,
    compile_expr,
    enumerate_models,
    eval_expr,
    rules_to_formulas,
)
from normlog.parser import parse_expr
from normlog.randgen import random_annotated_module
from normlog.syntax import uncurry
from normlog.transform import Variant, transform_module
from normlog.typecheck import elaborate, typecheck_module

def _outcome(evaluate):
    try:
        v = evaluate()
    except ModelError as e:
        return "error", str(e)
    return type(v), v


def _agree(e, tables, carriers, ints):
    compiled = compile_expr(e, tables, carriers, ints)
    assert _outcome(compiled) == _outcome(lambda: eval_expr(e, tables, carriers, ints))


# ---------------------------------------------------------------------------
# hand-picked expressions: every node kind and every error, reached or not

_CARRIERS = {"S": ("s0", "s1")}
_TABLES = {
    "p": {("s0",): True, ("s1",): False},
    "r": {("s0", "s0"): True, ("s0", "s1"): False, ("s1", "s0"): True},
    "c": {(): "s1"},
    "n": {(): 7},
    "f": {("s0",): "s1", ("s1",): "s0"},
}

_EXPRESSIONS = [
    "p c",
    "not p c",
    "p (f c) && p c",
    "p c || p (f c)",
    "p c --> p (f c)",
    "f c == c",
    "n < 9 && n <= 7 && n > 3 && n >= 8",
    "if p c then n else 3",
    "forall y: S. p y",
    "exists y: S. p y && p (f y)",
    "forall y: S. exists y: S. p y",
    "exists y: S. forall z: S. r y z",
    "forall k: Integer. k < 5",
    "exists b: Boolean. b",
    # errors, each raised where its node is reached
    "r c c",
    "r (f c) c",
    "nosuch c",
    "missing",
    "p",
    "forall y: S. y c",
    "forall y: Nope. p y",
    "forall y: S -> S. true",
    "n < 1.5",
    '"text" == c',
    "(\\y: S -> p y) c",
    # and not raised where it is not
    "false && r c c",
    "true || nosuch c",
    "p c --> missing",
    "if p (f c) then true else nosuch c",
    "exists y: S. p y || r y c",
    "forall y: S. p y --> r y y",
    "p c && (forall k: Integer. k < 5)",
    "p c && (forall y: Nope. p y)",
]


@pytest.mark.parametrize("text", _EXPRESSIONS)
@pytest.mark.parametrize("ints", [(), (3, 9)])
def test_compiled_expression_matches_eval_expr(text, ints):
    _agree(parse_expr(text), _TABLES, _CARRIERS, ints)


def test_compiled_closure_reads_the_tables_at_call_time():
    tables = {"p": {("s0",): True}}
    f = compile_expr(parse_expr("p c"), tables, _CARRIERS, ())
    with pytest.raises(ModelError, match="no interpretation for symbol 'c'"):
        f()
    tables["c"] = {(): "s0"}
    assert f() is True
    tables["p"] = {("s0",): False}
    assert f() is False


# ---------------------------------------------------------------------------
# every formula of random modules, over random tables


def _formula_set(seed, variant):
    sample = random_annotated_module(random.Random(seed))
    m = elaborate(sample.module)
    typecheck_module(m)
    fs = rules_to_formulas(transform_module(m, variant).module)
    return fs, sample.sizes, sample.ints


def _random_tables(fs, sizes, ints, rng):
    carriers, domain = carriers_and_domain(fs, sizes, ints)
    tables = {}
    for d in fs.decls:
        args, cod = uncurry(d.type)
        tables[d.name] = {
            cell: rng.choice(domain(cod)) for cell in product(*map(domain, args))
        }
    return carriers, tables


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    variant=st.sampled_from(list(Variant)),
    table_seed=st.integers(0, 10_000),
    damage=st.sampled_from(["none", "none", "table", "cell", "ints"]),
)
def test_compiled_formulas_match_eval_expr_on_random_modules(seed, variant, table_seed, damage):
    fs, sizes, ints = _formula_set(seed, variant)
    rng = random.Random(table_seed)
    carriers, tables = _random_tables(fs, sizes, ints, rng)
    # Damaged interpretations make both evaluators fail, and they must
    # fail alike: a symbol without a table, a table missing a cell, or
    # no integers to quantify over.
    if damage == "table":
        del tables[rng.choice(sorted(tables))]
    elif damage == "cell":
        table = tables[rng.choice(sorted(n for n, t in tables.items() if t))]
        del table[rng.choice(sorted(table, key=repr))]
    elif damage == "ints":
        ints = ()
    for _, e in fs.formulas:
        _agree(e, tables, carriers, ints)


# ---------------------------------------------------------------------------
# the search yields the reference's models in the reference's order


def _same_models(fs, sizes, ints):
    got = [json.dumps(m.to_json()) for m in enumerate_models(fs, sizes, ints)]
    want = [json.dumps(m.to_json()) for m in reference_models(fs, sizes, ints)]
    assert got == want


@pytest.mark.parametrize("variant", list(Variant))
def test_speed_limit_models_match_the_reference(variant):
    m = transform_module(load_case("speedlimit_repaired.l4"), variant).module
    _same_models(rules_to_formulas(m), {"Vehicle": 1, "Day": 1, "Road": 1}, (90, 130, 320))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), variant=st.sampled_from(list(Variant)))
def test_random_module_models_match_the_reference(seed, variant):
    fs, sizes, ints = _formula_set(seed, variant)
    _same_models(fs, sizes, ints)
