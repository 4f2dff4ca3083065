"""The compiled evaluator agrees with the tree-walking reference.

enumerate_models asks each formula compiled by FormulaCompiler whether
it is definitely false (`is_false`); the transfer asks whether it is
definitely true (`is_true`), and `value` gives the three-valued value.
eval_expr in tests/oracles.py is the reference.  On tables whose cells
are all set `value` must return what it returns, `is_false` and
`is_true` whether that is False and True, or each raise a ModelError
with the same message, wherever they are asked; on partial tables a
safe closure never raises and never answers what some completion of
the tables contradicts.  The search must yield the models the
whole-table, eval_expr search of tests/oracles.py yields, in the same
order.
"""

import itertools
import json
import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import CASES, load_case
from oracles import carriers_and_domain, declared_key, eval_expr, reference_models, reference_stages, renamed
from normlog.correspond import build_correspondence, concluded
from normlog.models import (
    FormulaCompiler,
    FormulaSet,
    ModelError,
    ModelProblem,
    Symbol,
    assertion_problem,
    enumerate_models,
    rules_to_formulas,
)
from normlog.parser import parse_expr
from normlog.randgen import random_annotated_module
from normlog.syntax import (
    And,
    BoolT,
    ClassT,
    Exists,
    Forall,
    FunDecl,
    FunT,
    IntT,
    Not,
    free_vars,
    print_expr,
    uncurry,
)
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
    return FormulaCompiler(_symbols(tables), carriers, ints).compile(e)


def _agree(e, tables, carriers, ints):
    # Each closure from a compiler of its own, so that none is built
    # from the others.
    want = _outcome(lambda: eval_expr(e, tables, carriers, ints))
    assert _outcome(_compile(e, tables, carriers, ints).value) == want
    for closure, expect in (("is_false", False), ("is_true", True)):
        got = _outcome(getattr(_compile(e, tables, carriers, ints), closure))
        assert got == (want if want[0] == "error" else (bool, want[1] is expect)), closure


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
    # chains of one connective, whatever their bracketing, evaluate their
    # operands left to right up to the first deciding one
    "p (f c) && p (f c) && r c c && nosuch c",
    "p (f c) && (p (f c) && nosuch c) && r c c",
    "p c || p c || (p c || r c c) || p (f c)",
    "p (f c) || r c c || p c || nosuch c",
    "p c && missing && r c c && p (f c) && nosuch c",
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
    f = compiler.compile(parse_expr("p c")).value
    assert f() is True
    tables["p"][("s0",)] = False
    assert f() is False
    del tables["p"][("s0",)]
    assert f() is None
    tables["c"][()] = "s1"
    assert f() is True
    g = compiler.compile(parse_expr("p d")).is_false
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
        want = eval_expr(e, _TABLES, _CARRIERS, ())
        compiled = compiler.compile(e)
        assert (compiled.value(), compiled.is_false(), compiled.is_true()) == (want, not want, want)


def test_negation_hands_over_the_other_direction():
    # `not` makes no closure of its own, so it adds no frame to a call.
    compiler = FormulaCompiler(_symbols(_TABLES), _CARRIERS, ())
    inner = parse_expr("p c && (forall y: S. p y)")
    e, ne, nne = compiler.compile(inner), compiler.compile(Not(inner)), compiler.compile(Not(Not(inner)))
    assert ne.is_false is e.is_true and ne.is_true is e.is_false
    assert nne.is_false is e.is_false and nne.is_true is e.is_true


def test_closures_are_built_only_in_the_directions_asked():
    compiler = FormulaCompiler(_symbols(_TABLES), _CARRIERS, ())
    compiled = compiler.compile(parse_expr("forall y: S. p y --> r y y || not p (f y)"))
    assert compiled.is_false() is False
    # which of (value, is_false, is_true) each node has built
    built = {
        print_expr(e): tuple(fn is not None for fn in node.built)
        for e, node in compiler._memo.values()
    }
    assert built == {
        "forall y: S. p y --> r y y || not p (f y)": (False, True, False),
        "p y --> r y y || not p (f y)": (False, True, False),
        "p y": (False, False, True),
        "r y y || not p (f y)": (False, True, False),
        "r y y": (False, True, False),
        "not p (f y)": (False, True, False),
        "p (f y)": (False, False, True),
        "f y": (True, False, False),
    }


# ---------------------------------------------------------------------------
# every formula of random modules, over random tables


def _formula_set(seed, variant):
    sample = random_annotated_module(random.Random(seed))
    m = elaborate(sample.module)
    typecheck_module(m)
    fs = rules_to_formulas(transform_module(m, variant).module)
    return fs, sample.sizes, sample.ints


def _concluded(m, variant):
    """The predicates that `correspond` searches last on the `variant`
    route of the elaborated module `m`."""
    precond, deriv = concluded(build_correspondence(m))
    return precond if variant is Variant.PRECOND else deriv


def _concluded_in_sample(seed, variant):
    """`_concluded` of the module `_formula_set(seed, variant)` builds."""
    return _concluded(random_annotated_module(random.Random(seed)).module, variant)


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


def _partial_tables(seed, variant, table_seed, unset):
    """The formulas of a random module, a compiler over tables with
    about `unset` of their cells left out, and completions of them."""
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
    completions = [full] + [_complete(partial, shapes, rng) for _ in range(20)]
    return fs.formulas, FormulaCompiler(symbols, carriers, ints), (partial, carriers, ints), completions


_PARTIAL_TABLES = dict(
    seed=st.integers(0, 10_000),
    variant=st.sampled_from(list(Variant)),
    table_seed=st.integers(0, 10_000),
    unset=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(**_PARTIAL_TABLES)
def test_three_valued_closures_never_contradict_a_completion(seed, variant, table_seed, unset):
    formulas, compiler, (partial, carriers, ints), completions = _partial_tables(
        seed, variant, table_seed, unset
    )
    for _, e in formulas:
        compiled = compiler.compile(e)
        if unset == 0.0:
            assert _outcome(compiled.value) == _outcome(
                lambda: eval_expr(e, partial, carriers, ints)
            )
        if not compiled.safe:
            continue
        r = compiled.value()
        assert r in (None, False, True)
        if r is None:
            continue
        for tables in completions:
            assert bool(eval_expr(e, tables, carriers, ints)) is r


@settings(derandomize=True, max_examples=60, deadline=None)
@given(**_PARTIAL_TABLES)
def test_directional_closures_never_contradict_a_completion(seed, variant, table_seed, unset):
    # `is_false()` True means False under every completion, `is_true()`
    # True means True under every one; on complete tables they are
    # `eval_expr(...) is False` and `is True`, errors included.
    formulas, compiler, (partial, carriers, ints), completions = _partial_tables(
        seed, variant, table_seed, unset
    )
    for _, e in formulas:
        compiled = compiler.compile(e)
        if unset == 0.0:
            want = _outcome(lambda: eval_expr(e, partial, carriers, ints))
            for closure, expect in ((compiled.is_false, False), (compiled.is_true, True)):
                got = _outcome(closure)
                assert got == (want if want[0] == "error" else (bool, want[1] is expect))
        if not compiled.safe:
            continue
        false, true = compiled.is_false(), compiled.is_true()
        assert type(false) is bool and type(true) is bool and not (false and true)
        # They decide exactly what the three-valued closure decides.
        assert (false, true) == (compiled.value() is False, compiled.value() is True)
        for tables in completions:
            if false or true:
                assert bool(eval_expr(e, tables, carriers, ints)) is true


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


@pytest.mark.parametrize("variant", list(Variant))
def test_models_searched_concluded_last_are_the_reference_models(variant):
    # The same models, in another order: sorted by the declared key
    # they are the reference's list.  Whole-table search takes seconds
    # on a module of two things with an integer argument, so on those
    # the declared-order search, itself checked against the reference
    # above, stands in for it.
    referenced = reordered = seed = 0
    while referenced < 300:
        fs, sizes, ints = _formula_set(seed, variant)
        problem = ModelProblem(fs, sizes, ints, _concluded_in_sample(seed, variant))
        if sizes["Thing"] == 2 and ints:
            want = enumerate_models(fs, sizes, ints)
        else:
            want = reference_models(fs, sizes, ints)
            referenced += 1
        want = [json.dumps(m.to_json()) for m in want]
        found = [(declared_key(problem)(m), json.dumps(m.to_json())) for m in problem.models()]
        assert [m for _, m in sorted(found)] == want, seed
        reordered += [m for _, m in found] != want
        seed += 1
    assert reordered > 30


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
            assert compiled.is_false() is False
            assert compiled.value() is not False


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    variant=st.sampled_from(list(Variant)),
    table_seed=st.integers(0, 10_000),
)
def test_a_formula_is_not_false_before_its_false_from_search_position(seed, variant, table_seed):
    # As above, with the symbols ranked by search position when the
    # concluded predicates are searched last.
    fs, sizes, ints = _formula_set(seed, variant)
    rng = random.Random(table_seed)
    carriers, domain = carriers_and_domain(fs, sizes, ints)
    shapes = {}
    for d in fs.decls:
        args, cod = uncurry(d.type)
        shapes[d.name] = (list(product(*map(domain, args))), domain(cod))
    last = _concluded_in_sample(seed, variant)
    assert set(last) <= set(shapes)
    searched = [n for n in shapes if n not in last] + [n for n in shapes if n in last]
    shapes = {n: shapes[n] for n in searched}
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
            assert compiled.is_false() is False
            assert compiled.value() is not False


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
    "p c && q c && (p (c) && not q c) && p c",
    "p c || (q c || not p c) || q (c) || not q c",
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
        # a compiler per closure, so that none is built from the others
        compiled, for_false, for_true = (
            FormulaCompiler(symbols, _CARRIERS, ()).compile(e) for _ in range(3)
        )
        assert compiled.safe
        r, false, true = compiled.value(), for_false.is_false(), for_true.is_true()
        assert (false, true) == (r is False, r is True), (k, tables)
        if compiled.false_from > k:
            assert r is not False and not false, (k, tables)
        if r is None:
            continue
        for combo in product(
            *(product(cod[n], repeat=len(cells[n])) for n in _RANKED)
        ):
            full = {n: dict(zip(cells[n], vs)) for n, vs in zip(_RANKED, combo)}
            if all(full[n][c] == v for n in _RANKED for c, v in tables[n].items()):
                assert eval_expr(e, full, _CARRIERS, ()) == r, (k, tables, full)


# ---------------------------------------------------------------------------
# staging: the symbols a formula reads, recorded by the compile walk


def _assert_staged_as_by_free_vars(problem):
    # Each formula's stage and watch set, read from the mask its compiled
    # node carries, against the free symbols among its free names; then
    # the whole staging against the one built from free_vars.
    ranks = {name: k for k, (name, _, _) in enumerate(problem._free)}
    staging = problem._stages
    for name, expr in problem._fs.formulas:
        want = {ranks[n] for n in free_vars(expr) if n in ranks}
        refs = problem.compiler.compile(expr).node.refs
        watched = {k for k in ranks.values() if refs >> k & 1}
        assert (refs.bit_length() - 1, watched) == (max(want, default=-1), want), name
        assert refs >> len(ranks) == 0, name
    assert staging == reference_stages(problem)


# speedlimit_original.l4's rule order is cyclic, so it never reaches a
# search.
_SEARCHED_CASES = sorted(p.name for p in CASES.glob("*.l4") if p.name != "speedlimit_original.l4")


def _assert_case_staged_as_by_free_vars(case, variant, concluded_last):
    # the problems check_assertion searches: each case has an assertion
    m = load_case(case)
    last = _concluded(m, variant) if concluded_last else ()
    m = transform_module(m, variant).module
    assert m.assertions
    for a in m.assertions:
        fs, (name, _, goal) = assertion_problem(m, a.name)
        probe = replace(fs, formulas=fs.formulas + ((name, Not(goal)),))
        sizes = {s: 2 for s in fs.sorts}
        _assert_staged_as_by_free_vars(ModelProblem(probe, sizes, (90, 130, 320), last))


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("case", _SEARCHED_CASES)
def test_cases_are_staged_as_by_free_vars(case, variant):
    _assert_case_staged_as_by_free_vars(case, variant, concluded_last=False)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("case", _SEARCHED_CASES)
def test_cases_searched_concluded_last_are_staged_as_by_free_vars(case, variant):
    # ranks are search positions
    _assert_case_staged_as_by_free_vars(case, variant, concluded_last=True)


@pytest.mark.parametrize("variant", list(Variant))
def test_random_modules_are_staged_as_by_free_vars(variant):
    for seed in range(300):
        fs, sizes, ints = _formula_set(seed, variant)
        _assert_staged_as_by_free_vars(ModelProblem(fs, sizes, ints))


@pytest.mark.parametrize("variant", list(Variant))
def test_random_modules_searched_concluded_last_are_staged_as_by_free_vars(variant):
    for seed in range(300):
        fs, sizes, ints = _formula_set(seed, variant)
        _assert_staged_as_by_free_vars(ModelProblem(fs, sizes, ints, _concluded_in_sample(seed, variant)))


def _search_order(problem):
    return [name for name, _, _ in problem._free]


@pytest.mark.parametrize("variant", list(Variant))
def test_concluded_predicates_are_searched_last_in_declared_order(variant):
    m = load_case("speedlimit_repaired.l4")
    fs = rules_to_formulas(transform_module(m, variant).module)
    sizes = {"Vehicle": 1, "Day": 1, "Road": 1}
    declared = ModelProblem(fs, sizes, (90, 130, 320))
    reordered = ModelProblem(fs, sizes, (90, 130, 320), _concluded(m, variant))
    concluded_name = "maxSp" if variant is Variant.PRECOND else "maxSp+"
    assert _search_order(declared)[0] == concluded_name
    assert _search_order(reordered) == [n for n in _search_order(declared) if n != concluded_name] + [concluded_name]
    assert [reordered.symbols[n].rank for n in _search_order(reordered)] == list(range(5))
    # tables are listed in declared order all the same
    assert list(next(reordered.models()).tables) == list(next(declared.models()).tables)


# Formulas that fail to compile, binders that shadow a symbol, and
# symbols read in one operand only, over p, q : S -> Boolean, c : S and
# b : Boolean, ranked in that order; T has no carrier.
_HAND_MADE_FORMULAS = [
    "p c && nothing",  # unknown symbol
    "forall x: S. p x --> nothing (q x) c",  # unknown symbol applied
    "forall x: S. x (q c) && p x",  # bound variable applied
    "forall p: S. nothing p (q c)",  # p is bound above the failing node
    "(\\x: S -> p x) c || b",  # lambda applied
    "(\\x: S -> q x) == (\\y: S -> p c)",  # lambda values
    "p == q",  # symbols of arity one used without arguments
    "b && (q == b)",
    "forall y: T. q y && p c",  # binder without a carrier
    "exists q: S. forall y: T. p q && q",  # ... under a binder shadowing q
    "forall x: S. b --> p x",
    "if b then p c else q c",
    "c == c",
]


@pytest.mark.parametrize("text", _HAND_MADE_FORMULAS)
def test_hand_made_formulas_are_staged_by_their_free_names(text):
    decls = (
        FunDecl("p", FunT(ClassT("S"), BoolT()), loc=None),
        FunDecl("q", FunT(ClassT("S"), BoolT()), loc=None),
        FunDecl("c", ClassT("S"), loc=None),
        FunDecl("b", BoolT(), loc=None),
    )
    # a formula before it, so that two are staged
    formulas = (("first", parse_expr("exists x: S. q x")), ("f", parse_expr(text)))
    fs = FormulaSet(("S",), (), (), decls, formulas)
    _assert_staged_as_by_free_vars(ModelProblem(fs, {"S": 2}))


# ---------------------------------------------------------------------------
# symmetry pruning: the same first model, and the lex leaders of the
# reference's models


def _with_each_formula_negated(fs):
    yield fs
    for i, (name, f) in enumerate(fs.formulas):
        yield replace(fs, formulas=fs.formulas[:i] + ((name, Not(f)),) + fs.formulas[i + 1 :])


def _json(models):
    return [json.dumps(m.to_json()) for m in models]


@pytest.mark.parametrize("variant", list(Variant))
def test_pruning_symmetry_keeps_the_first_model_of_the_declared_order(variant):
    searched = 0
    for seed in range(100):
        base, sizes, ints = _formula_set(seed, variant)
        for things in (2, 3):
            sizes = {**sizes, "Thing": things}
            for fs in _with_each_formula_negated(base):
                problem = ModelProblem(fs, sizes, ints, prune_symmetry=True)
                got = _json(itertools.islice(problem.models(), 1))
                assert got == _json(itertools.islice(enumerate_models(fs, sizes, ints), 1)), seed
                # the lex-leader checks are in the search
                assert problem._search[1] != problem._stages[2]
                searched += 1
    assert searched > 1000


def _renamings(carriers, sorts):
    """Every renaming of the elements of `sorts`: one permutation each."""
    per_sort = [[dict(zip(carriers[s], p)) for p in itertools.permutations(carriers[s])] for s in sorts]
    return [dict(zip(sorts, choice)) for choice in product(*per_sort)]


def _transpositions(carriers, sorts):
    """The adjacent transpositions of each of `sorts`, as renamings."""
    out = []
    for s in sorts:
        es = carriers[s]
        for i in range(len(es) - 1):
            swap = {e: e for e in es}
            swap[es[i]], swap[es[i + 1]] = es[i + 1], es[i]
            out.append({s: swap})
    return out


def _assert_lex_leaders(fs, problem, every):
    # The pruned search yields exactly the models of `every` that no
    # adjacent transposition makes smaller in declared order, and each
    # model of `every` is a renaming of one of them.
    key = declared_key(problem)
    free_sorts = [s for s in fs.sorts if s not in fs.fixed_map()]
    swaps = _transpositions(problem.carriers, free_sorts)
    leaders = [m for m in every if all(key(m) <= key(renamed(m, fs, r)) for r in swaps)]
    got = list(problem.models())
    assert _json(got) == _json(leaders)
    kept = {key(m) for m in got}
    renamings = _renamings(problem.carriers, free_sorts)
    for m in every:
        assert any(key(renamed(m, fs, r)) in kept for r in renamings)
    return got


@pytest.mark.parametrize("variant", list(Variant))
def test_pruned_models_are_the_reference_models_no_transposition_makes_smaller(variant):
    # Whole-table search takes seconds on modules with an integer
    # argument or of three things, so on those the declared-order
    # search, checked against the reference above, stands in for it.
    pruned = referenced = 0
    for seed in range(40):
        fs, sizes, ints = _formula_set(seed, variant)
        for things in (2, 3):
            sizes = {**sizes, "Thing": things}
            if things == 2 and not ints:
                every = reference_models(fs, sizes, ints)
                referenced += 1
            else:
                every = list(enumerate_models(fs, sizes, ints))
            got = _assert_lex_leaders(fs, ModelProblem(fs, sizes, ints, prune_symmetry=True), every)
            pruned += len(got) < len(every)
    assert referenced > 20 and pruned > 40


def _symmetric_problem(formula):
    decls = (
        FunDecl("c", ClassT("S"), loc=None),
        FunDecl("d", ClassT("S"), loc=None),
        FunDecl("f", FunT(ClassT("S"), ClassT("S")), loc=None),
        FunDecl("p", FunT(ClassT("S"), BoolT()), loc=None),
        FunDecl("q", FunT(IntT(), BoolT()), loc=None),
    )
    return FormulaSet(("S",), (), (), decls, (("formula", parse_expr(formula)),)), {"S": 2}, (1, 2)


@pytest.mark.parametrize(
    "formula, safe, prunes",
    [
        ("p c || c == d", True, True),
        # symbols that return elements: their values are renamed too
        ("p (f c) --> f d == c", True, True),
        # elements compared by < can be told apart
        ("p c || c < d", True, False),
        ("p c || not (f d >= c)", True, False),
        # 3 is not among the integers: the formula may raise
        ("p c || false && q 3", False, False),
    ],
)
def test_symmetry_is_pruned_only_where_nothing_tells_elements_apart(formula, safe, prunes):
    fs, sizes, ints = _symmetric_problem(formula)
    every = list(enumerate_models(fs, sizes, ints))
    problem = ModelProblem(fs, sizes, ints, prune_symmetry=True)
    assert problem.safe is safe
    if prunes:
        assert len(_assert_lex_leaders(fs, problem, every)) < len(every)
    else:
        assert _json(problem.models()) == _json(every)
