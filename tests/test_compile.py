"""The compiled evaluator agrees with the tree-walking reference.

enumerate_models decides formulas with three-valued closures from
FormulaCompiler; eval_expr in tests/oracles.py is the reference.  On
tables whose cells are all set both must return the same value, or
raise a ModelError with the same message, wherever they are asked; on
partial tables a safe closure never raises and never returns a value
that some completion of the tables contradicts.  The search must yield
the models the whole-table, eval_expr search of tests/oracles.py
yields, in the same order.
"""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import load_case
from oracles import carriers_and_domain, eval_expr, reference_models
from normlog.models import (
    FormulaCompiler,
    ModelError,
    Symbol,
    enumerate_models,
    rules_to_formulas,
)
from normlog.parser import parse_expr
from normlog.randgen import random_annotated_module
from normlog.syntax import And, ClassT, Exists, Forall, Not, uncurry
from normlog.transform import Variant, transform_module
from normlog.typecheck import elaborate, typecheck_module

def _outcome(evaluate):
    try:
        v = evaluate()
    except ModelError as e:
        return "error", str(e)
    return type(v), v


def _symbols(tables):
    """Symbols whose cells and values are those their tables hold."""
    return {
        name: Symbol(table, frozenset(table), frozenset(table.values()))
        for name, table in tables.items()
    }


def _compile(e, tables, carriers, ints):
    return FormulaCompiler(_symbols(tables), carriers, ints).compile(e).fn


def _agree(e, tables, carriers, ints):
    compiled = _compile(e, tables, carriers, ints)
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
    "forall y: S. (exists y: S. p y) && p y",
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
    # Each symbol's table is bound when compiling and read in place at
    # every call; a name without a table stays unknown.
    tables = {"p": {("s0",): True, ("s1",): True}, "c": {(): "s0"}}
    symbols = _symbols(tables)
    compiler = FormulaCompiler(symbols, _CARRIERS, ())
    f = compiler.compile(parse_expr("p c")).fn
    assert f() is True
    tables["p"][("s0",)] = False
    assert f() is False
    del tables["p"][("s0",)]
    assert f() is None
    tables["c"][()] = "s1"
    assert f() is True
    g = compiler.compile(parse_expr("p d")).fn
    tables["d"] = {(): "s0"}
    with pytest.raises(ModelError, match="no interpretation for symbol 'd'"):
        g()


_S = ClassT("S")


def test_shared_subterms_compile_once():
    compiler = FormulaCompiler(_symbols(_TABLES), _CARRIERS, ())
    shared = parse_expr("p y && not p (f y)")
    compiler.compile(Forall("y", _S, shared))
    size = len(compiler._memo)
    compiler.compile(Exists("y", _S, shared))
    # only the new binder is compiled: same variable, type and depth
    assert len(compiler._memo) == size + 1


def test_a_shared_subterm_under_other_binders_reads_their_cells():
    # `p y` under a binder at depth 0 and under another at depth 1
    p_y = parse_expr("p y")
    one = Forall("y", _S, p_y)
    two = Exists("x", _S, Exists("y", _S, And(Not(p_y), parse_expr("p x"))))
    compiler = FormulaCompiler(_symbols(_TABLES), _CARRIERS, ())
    for e in (one, two, one):
        assert compiler.compile(e).fn() == eval_expr(e, _TABLES, _CARRIERS, ())


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


def _complete(partial, shapes, rng):
    return {
        name: {cell: partial[name].get(cell, rng.choice(cod)) for cell in cells}
        for name, (cells, cod) in shapes.items()
    }


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    variant=st.sampled_from(list(Variant)),
    table_seed=st.integers(0, 10_000),
    unset=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)
def test_three_valued_closures_never_contradict_a_completion(seed, variant, table_seed, unset):
    fs, sizes, ints = _formula_set(seed, variant)
    rng = random.Random(table_seed)
    carriers, domain = carriers_and_domain(fs, sizes, ints)
    shapes = {}
    for d in fs.decls:
        args, cod = uncurry(d.type)
        shapes[d.name] = (list(product(*map(domain, args))), domain(cod))
    full = _complete({name: {} for name in shapes}, shapes, rng)
    partial = {
        name: {cell: v for cell, v in table.items() if rng.random() >= unset}
        for name, table in full.items()
    }
    symbols = {
        name: Symbol(partial[name], frozenset(cells), frozenset(cod))
        for name, (cells, cod) in shapes.items()
    }
    compiler = FormulaCompiler(symbols, carriers, ints)
    completions = [full] + [_complete(partial, shapes, rng) for _ in range(20)]
    for _, e in fs.formulas:
        compiled = compiler.compile(e)
        if unset == 0.0:
            assert _outcome(compiled.fn) == _outcome(
                lambda: eval_expr(e, partial, carriers, ints)
            )
        if not compiled.safe:
            continue
        r = compiled.fn()
        assert r in (None, False, True)
        if r is None:
            continue
        for tables in completions:
            assert bool(eval_expr(e, tables, carriers, ints)) is r


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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    variant=st.sampled_from(list(Variant)),
    table_seed=st.integers(0, 10_000),
)
def test_a_formula_is_not_false_before_its_false_from_rank(seed, variant, table_seed):
    # Rank the symbols in declaration order; with the cells of ranks up
    # to k partly set and none above k, a formula whose false_from
    # exceeds k must not evaluate to False.
    fs, sizes, ints = _formula_set(seed, variant)
    rng = random.Random(table_seed)
    carriers, domain = carriers_and_domain(fs, sizes, ints)
    shapes = {}
    for d in fs.decls:
        args, cod = uncurry(d.type)
        shapes[d.name] = (list(product(*map(domain, args))), domain(cod))
    full = _complete({name: {} for name in shapes}, shapes, rng)
    k = rng.randrange(len(shapes))
    partial = {}
    for rank, (name, table) in enumerate(full.items()):
        keep = 1.0 if rank < k else 0.5 if rank == k else 0.0
        partial[name] = {c: v for c, v in table.items() if rng.random() < keep}
    symbols = {
        name: Symbol(partial[name], frozenset(cells), frozenset(cod), rank)
        for rank, (name, (cells, cod)) in enumerate(shapes.items())
    }
    compiler = FormulaCompiler(symbols, carriers, ints)
    for _, e in fs.formulas:
        compiled = compiler.compile(e)
        if compiled.safe and compiled.false_from > k:
            assert compiled.fn() is not False


# Two ranked symbols over two elements and a constant, and formulas
# whose connectives make the may-be-true and may-be-false ranks differ.
_RANKED = ["p", "q", "c"]
_RANKED_FORMULAS = [
    "forall x: S. not (q x --> p x)",
    "exists x: S. p x && not q x",
    "forall x: S. p x || q x",
    "if p c then q c else not p (c)",
    "if q c then p c else p c",
    "not (if p c then true else q c)",
    "(exists x: S. q x) --> (forall x: S. p x)",
    "p c == q c",
]


def _ranked_tables():
    """Every partial interpretation of p, q and c in which the symbols
    ranked below some k are complete and those above it have no cells."""
    cells = {"p": [("s0",), ("s1",)], "q": [("s0",), ("s1",)], "c": [()]}
    cod = {"p": (False, True), "q": (False, True), "c": ("s0", "s1")}
    options = {n: [None, *cod[n]] for n in _RANKED}

    def tables_of(name, allow_unset):
        values = options[name] if allow_unset else list(cod[name])
        for combo in product(values, repeat=len(cells[name])):
            yield {cell: v for cell, v in zip(cells[name], combo) if v is not None}

    for k, name in enumerate(_RANKED):
        for low in product(*(list(tables_of(n, False)) for n in _RANKED[:k])):
            for mid in tables_of(name, True):
                tables = dict(zip(_RANKED[:k], low))
                tables[name] = mid
                tables.update({n: {} for n in _RANKED[k + 1 :]})
                yield k, tables, cells, cod


@pytest.mark.parametrize("text", _RANKED_FORMULAS)
def test_hand_picked_formulas_over_every_partial_table(text):
    e = parse_expr(text)
    for k, tables, cells, cod in _ranked_tables():
        symbols = {
            n: Symbol(tables[n], frozenset(cells[n]), frozenset(cod[n]), rank)
            for rank, n in enumerate(_RANKED)
        }
        compiled = FormulaCompiler(symbols, _CARRIERS, ()).compile(e)
        assert compiled.safe
        r = compiled.fn()
        if compiled.false_from > k:
            assert r is not False, (k, tables)
        if r is None:
            continue
        for combo in product(
            *(product(cod[n], repeat=len(cells[n])) for n in _RANKED)
        ):
            full = {n: dict(zip(cells[n], vs)) for n, vs in zip(_RANKED, combo)}
            if all(full[n][c] == v for n in _RANKED for c, v in tables[n].items()):
                assert eval_expr(e, full, _CARRIERS, ()) == r, (k, tables, full)
