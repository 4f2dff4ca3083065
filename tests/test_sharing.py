"""The compile passes after the transform visit each distinct node once.

The precondition transform shares subterms between rules, so the
translated formulas form a DAG.  `rewrite_fields`, `guard_quantifiers`,
`emit_smtlib` and `free_vars` memoize by node identity and `_tokenize`
reads a script with one regular expression; the tree-walking versions
in tests/oracles.py are the reference.  Formula sets and token lists
must be exactly the reference's.  An SMT-LIB script names its shared
subterms with `define-fun`: expanding the definitions must give the
reference's script byte for byte, and the script is never longer.
"""

import random
import re

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import oracles
from conftest import CASES, load_case, subject_to_chain
from normlog import models, syntax
from normlog.models import (
    FormulaSet,
    assertion_problem,
    guard_quantifiers,
    rewrite_fields,
    rules_to_formulas,
)
from normlog.parser import parse_expr, parse_module
from normlog.randgen import random_annotated_module
from normlog.smtlib import SmtError, _tokenize, emit_smtlib, read_script
from normlog.syntax import (
    And,
    App,
    BoolLit,
    BoolT,
    ClassT,
    Exists,
    FloatLit,
    Forall,
    FunDecl,
    IfThenElse,
    IntLit,
    Not,
    Or,
    StringLit,
    Var,
    fold,
    free_vars,
    fun_type,
)
from normlog.transform import CycleError, Variant, transform_module
from normlog.typecheck import Env, LTypeError, elaborate, typecheck_module

MODES = [(v, simp) for v in Variant for simp in (False, True)]


def _tree_translate(formulas, env):
    """Every formula translated by the reference, needed or not."""
    return [oracles.tree_guard_quantifiers(oracles.tree_rewrite_fields(e), env) for e in formulas]


def _with_tree_walkers(run, translate=_tree_translate):
    """run() with `translate_formulas` replaced by `translate`, by
    default the reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "translate_formulas", translate)
        return run()


def _same_as_reference(m):
    for variant, simp in MODES:
        try:
            res = transform_module(m, variant, simplify_preconds=simp)
        except CycleError:
            continue
        fs = rules_to_formulas(res.module)
        assert fs == _with_tree_walkers(lambda: rules_to_formulas(res.module))
        problems = [(fs, None)] + [assertion_problem(res.module, a.name) for a in res.module.assertions]
        for fs, goal in problems:
            text = emit_smtlib(fs, goal)
            want = oracles.tree_emit_smtlib(fs, goal)
            assert oracles.expand_definitions(text) == want
            assert len(text) <= len(want)
            assert _tokenize(text) == oracles.char_tokenize(text)
            read_script(text)


@pytest.mark.parametrize("case", sorted(p.name for p in CASES.glob("*.l4")))
def test_cases_match_the_tree_walkers(case):
    _same_as_reference(load_case(case))


def test_random_modules_match_the_tree_walkers():
    for seed in range(60):
        m = elaborate(random_annotated_module(random.Random(seed)).module)
        typecheck_module(m)
        _same_as_reference(m)


# A module with nothing to translate, and one trigger added to it per
# test.  The pass must find the trigger: a formula it leaves
# untranslated differs from the reference's.
_PLAIN = """
class Vehicle {speed: Integer}
class Car extends Vehicle
decl owns : Vehicle -> Vehicle -> Boolean
decl fast : Vehicle -> Boolean

rule <r>
  for v: Vehicle
  if owns v v && speed v > 100
  then fast v

assert <a> {SMT: {valid}}
  forall v: Vehicle. fast v --> owns v v
"""

_TRIGGERS = {
    "attribute": ("speed v > 100", "v.speed > 100"),
    "precondition-binder": ("owns v v &&", "(exists c: Car. owns v c) &&"),
    "goal-binder": ("forall v: Vehicle. fast", "forall v: Car. fast"),
    "rule-parameter": ("for v: Vehicle", "for v: Car"),
    "declared-argument": ("decl fast", "decl towed : Car -> Boolean\ndecl fast"),
}


def _problems(m):
    return rules_to_formulas(m), assertion_problem(m, "a")


@pytest.mark.parametrize("trigger", list(_TRIGGERS))
def test_each_trigger_is_translated_as_by_the_tree_walkers(trigger):
    plain, changed = _TRIGGERS[trigger]
    assert _PLAIN.count(plain) == 1
    m = elaborate(parse_module(_PLAIN.replace(plain, changed)))
    typecheck_module(m)
    got = _problems(m)
    assert got == _with_tree_walkers(lambda: _problems(m))
    # and left untranslated, the trigger shows
    assert got != _with_tree_walkers(lambda: _problems(m), lambda formulas, env: formulas)


def _trigger_module(trigger):
    plain, changed = _TRIGGERS[trigger]
    m = elaborate(parse_module(_PLAIN.replace(plain, changed)))
    typecheck_module(m)
    return m


@pytest.mark.parametrize("variant", list(Variant))
def test_translation_is_decided_as_by_walking_every_formula(variant):
    # rules_to_formulas reads only the outer binders of the inversion
    # formulas; the decision must be the walk over all of them.
    modules = [load_case(p.name) for p in sorted(CASES.glob("*.l4"))]
    modules += [_trigger_module(t) for t in _TRIGGERS]
    for seed in range(100):
        m = elaborate(random_annotated_module(random.Random(seed)).module)
        typecheck_module(m)
        modules.append(m)
    decided = []
    for m in modules:
        try:
            m = transform_module(m, variant).module
        except CycleError:
            continue
        env = Env.from_module(m)
        formulas, needed = models._module_formulas(m, env, include_inversions=True)
        assert needed == models._needs_translation([f for _, f in formulas], env)
        assert rules_to_formulas(m).translated is needed
        decided.append(needed)
    assert decided.count(True) >= len(_TRIGGERS) and False in decided


def test_an_unknown_binder_class_is_rejected_as_by_the_tree_walkers():
    m = elaborate(parse_module(_PLAIN.replace("owns v v &&", "(exists c: Nope. owns v c) &&")))
    for run in (lambda: rules_to_formulas(m), lambda: _with_tree_walkers(lambda: rules_to_formulas(m))):
        with pytest.raises(LTypeError, match="^unknown class 'Nope'$"):
            run()


def test_a_plain_module_gets_its_own_formulas_back():
    m = elaborate(parse_module(_PLAIN))
    typecheck_module(m)
    bodies = [e for _, e in rules_to_formulas(m).formulas]
    assert models.translate_formulas(bodies, Env.from_module(m)) is bodies
    fs, (_, _, goal) = assertion_problem(m, "a")
    rule = next(r for r in m.rules if r.name == "r")
    implies = dict(fs.formulas)["rule r"].body
    assert implies.left is rule.precond and implies.right is rule.postcond
    assert goal is m.assertions[0].formula


@pytest.mark.parametrize("n", [100, 300, 1000])
def test_the_precondition_script_of_a_chain_is_at_most_twice_the_derivability_one(n):
    m = elaborate(parse_module(subject_to_chain(n)))
    size = {v: len(emit_smtlib(rules_to_formulas(transform_module(m, v).module))) for v in Variant}
    assert size[Variant.PRECOND] <= 2 * size[Variant.DERIV]


def _formula_set(formulas):
    decls = (FunDecl("p", fun_type(ClassT("A"), BoolT())), FunDecl("q", fun_type(ClassT("A"), BoolT())))
    return FormulaSet(("A", "B"), (), (), decls, tuple(formulas))


def test_a_subterm_bound_with_one_sort_is_defined_once():
    shared = parse_expr("p x && q x && not (p x && q x)")
    body = Or(shared, Or(shared, shared))
    text = emit_smtlib(_formula_set([("f", Forall("x", ClassT("A"), body)), ("g", shared)]))
    # Bound in f, free (a constant) in g: written in full.
    assert "define-fun" not in text
    text = emit_smtlib(_formula_set([("f", Forall("x", ClassT("A"), body)), ("g", Forall("x", ClassT("A"), shared))]))
    assert "(define-fun share!0 ((x A)) Bool (and (p x) (q x) (not (and (p x) (q x)))))" in text
    assert "(assert (forall ((x A)) (or (share!0 x) (share!0 x) (share!0 x))))" in text
    assert oracles.expand_definitions(text) == oracles.tree_emit_smtlib(
        _formula_set([("f", Forall("x", ClassT("A"), body)), ("g", Forall("x", ClassT("A"), shared))])
    )
    assert emit_smtlib(_formula_set([("f", Forall("x", ClassT("A"), body))])) != text
    # The same node under a binder of another sort is written in full.
    text = emit_smtlib(_formula_set([("f", Forall("x", ClassT("A"), body)), ("g", Forall("x", ClassT("B"), shared))]))
    assert "define-fun" not in text
    read_script(text)


def _random_dag(rng):
    """Formulas over one pool of nodes, each node built on earlier ones,
    mostly recent ones, so that the formulas share subterms by
    identity.  The variables x and y are bound with the sorts A and B
    at random, a binder of one name directly over another included, and
    may be left free."""
    pool = [App(Var(p), Var(v)) for p in "pq" for v in "xyc"]
    for _ in range(rng.randint(4, 30)):
        a = pool[-rng.randint(1, min(len(pool), 8))]
        b = pool[-rng.randint(1, min(len(pool), 8))] if rng.random() < 0.5 else rng.choice(pool)
        roll = rng.random()
        if roll < 0.35:
            pool.append(And(a, b))
        elif roll < 0.7:
            pool.append(Or(a, b))
        elif roll < 0.8:
            pool.append(Not(a))
        else:
            quantifier = Forall if roll < 0.9 else Exists
            v = a.var if type(a) is quantifier and rng.random() < 0.5 else rng.choice("xy")
            pool.append(quantifier(v, ClassT(rng.choice("AB")), a))
    return [
        (f"f{i}", Forall(rng.choice("xy"), ClassT(rng.choice("AB")), rng.choice(pool[6:])))
        for i in range(rng.randint(2, 5))
    ]


def test_random_dags_define_subterms_with_the_sorts_of_their_binders():
    # The expansion checks each argument's binder sort against the
    # parameter's; the modules of the sweeps above seldom name a
    # subterm with a variable that is bound with two sorts.
    named = with_params = 0
    for seed in range(1000):
        fs = _formula_set(_random_dag(random.Random(seed)))
        text = emit_smtlib(fs)
        want = oracles.tree_emit_smtlib(fs)
        assert oracles.expand_definitions(text) == want
        assert len(text) <= len(want)
        named += text.count("(define-fun ")
        with_params += text.count("(define-fun ") - text.count(" () Bool ")
    assert named > 250 and with_params > 50


@pytest.mark.parametrize(
    "use, message",
    [
        ("(forall ((x B)) (share!0 x))", "share!0 takes x of sort A, passed x of sort B"),
        ("(forall ((x A)) (forall ((x B)) (share!0 x)))", "share!0 takes x of sort A, passed x of sort B"),
        ("(share!0 c)", "share!0 takes x of sort A, passed c of sort None"),
    ],
)
def test_the_expansion_checks_the_sorts_of_the_arguments(use, message):
    # The reader does not check the sorts of terms, so only the
    # expansion catches a parameter given the sort of another binder.
    script = (
        "(set-logic ALL)\n(declare-sort A 0)\n(declare-sort B 0)\n"
        "(declare-fun p (A) Bool)\n(declare-const c A)\n"
        f"(define-fun share!0 ((x A)) Bool (p x))\n(assert {use})\n"
    )
    read_script(script)
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
        oracles.expand_definitions(script)


def test_a_definition_may_use_an_earlier_one():
    inner = parse_expr("p x && q x && p x && q x && p x && q x")
    outer = Or(inner, Or(Not(inner), Not(inner)))
    formulas = [(f"f{i}", Forall("x", ClassT("A"), outer)) for i in range(3)]
    text = emit_smtlib(_formula_set(formulas))
    assert "(define-fun share!0 ((x A)) Bool (and (p x) (q x) (p x) (q x) (p x) (q x)))" in text
    assert "(define-fun share!1 ((x A)) Bool (or (share!0 x) (not (share!0 x)) (not (share!0 x))))" in text
    assert text.count("(assert (forall ((x A)) (share!1 x)))") == 3
    assert read_script(text).definitions == {"share!0": 1, "share!1": 1}
    assert oracles.expand_definitions(text) == oracles.tree_emit_smtlib(_formula_set(formulas))


def test_a_subterm_is_named_only_where_that_is_shorter():
    # The inner chain has three parents: its definition line and three
    # references would take 67 + 3 * 12 characters, against 3 * 33 for
    # writing it in full, so only the outer disjunction is named.
    inner = parse_expr("p x && q x && p x && q x")
    outer = Or(inner, Or(Not(inner), Not(inner)))
    text = emit_smtlib(_formula_set([(f"f{i}", Forall("x", ClassT("A"), outer)) for i in range(3)]))
    assert "(define-fun share!0 ((x A)) Bool (or (and (p x) (q x) (p x) (q x)) (not" in text
    assert "share!1" not in text


def _under_b_and_y(bodies):
    """The formulas `forall b: S. forall y: S. body` of the four `bodies`,
    over the predicates p, q and r on S and a declared Boolean constant
    `b`."""
    decls = tuple(FunDecl(n, fun_type(ClassT("S"), BoolT())) for n in "pqr") + (FunDecl("b", BoolT()),)
    formulas = [(f"f{i}", Forall("b", ClassT("S"), Forall("y", ClassT("S"), body))) for i, body in enumerate(bodies)]
    fs = FormulaSet(("S",), (), (), decls, tuple(formulas))
    text = emit_smtlib(fs)
    assert oracles.expand_definitions(text) == oracles.tree_emit_smtlib(fs)
    read_script(text)
    return text


_COND = parse_expr("p b && q y && p y && q b && p b && q y")
_COND_TEXT = "(and (p b) (q y) (p y) (q b) (p b) (q y))"


def test_an_if_whose_then_branch_is_a_variable_is_written_in_full():
    # The bound `b` shadows the Boolean constant `b`, so this `if` has
    # sort S.  Naming it would be shorter, but deciding by the name of
    # the variable would define it with a body of sort S as Bool.
    shared = IfThenElse(_COND, Var("b"), Var("y"))
    text = _under_b_and_y([App(Var("r"), shared) for _ in range(4)])
    full = f"(ite {_COND_TEXT} b y)"
    line = f"(define-fun share!0 ((b S) (y S)) Bool {full})"
    assert len(line) + 4 * len("(share!0 b y)") < 4 * len(full)
    assert "define-fun" not in text
    assert text.count(f"(assert (forall ((b S) (y S)) (r {full})))") == 4


def test_an_if_whose_then_branch_is_a_bool_term_is_named():
    text = _under_b_and_y([IfThenElse(_COND, parse_expr("p b"), parse_expr("q y"))] * 4)
    assert f"(define-fun share!0 ((b S) (y S)) Bool (ite {_COND_TEXT} (p b) (q y)))" in text
    assert text.count("(assert (forall ((b S) (y S)) (share!0 b y)))") == 4


# Attribute access and subclass quantifiers at every child position.
_EXPRS = [
    "p x.a && (forall c: Car. q c)",
    "(forall c: Car. q c) || p x.a",
    "p x.a --> (exists d: Workday. q d)",
    "x.a == y.b",
    "x.a < y.b",
    "not (forall c: SportsCar. q c.speed)",
    "if x.flag then (forall c: Car. q c) else (exists h: Highway. r h.len)",
    "if (forall c: Car. q c) then p else q",
    "if p then q else (forall c: Car. q c.speed)",
    "f x.a (forall c: Car. q c)",
    "(\\v : Vehicle -> forall c: Car. q v.speed) x",
    "forall v: Vehicle. p v && q v",
]


def _text(render):
    try:
        return render()
    except SmtError as e:  # a lambda has no SMT-LIB term
        return f"error: {e}"


def test_hand_written_dags_match_the_tree_walkers():
    env = Env.from_module(load_case("speedlimit_repaired.l4"))
    parts = [parse_expr(t) for t in _EXPRS]
    # Every part appears in several formulas, as object-shared subterms.
    formulas = parts + [And(a, Or(b, a)) for a, b in zip(parts, parts[1:] + parts[:1])]
    fields_memo, guard_memo = {}, {}
    written = []
    for i, e in enumerate(formulas):
        got = guard_quantifiers(rewrite_fields(e, fields_memo), env, guard_memo)
        want = oracles.tree_guard_quantifiers(oracles.tree_rewrite_fields(e), env)
        assert got == want
        fs = _formula_set([(f"f{i}", got)])
        text = _text(lambda: oracles.expand_definitions(emit_smtlib(fs)))
        assert text == _text(lambda: oracles.tree_emit_smtlib(fs))
        if not text.startswith("error: "):
            written.append((f"f{i}", got))
    # Written together, the shared parts may be defined once.
    fs = _formula_set(written)
    assert oracles.expand_definitions(emit_smtlib(fs)) == oracles.tree_emit_smtlib(fs)
    # A formula with nothing to rewrite comes back as the same object.
    plain = parts[-1]
    assert rewrite_fields(plain) is plain and guard_quantifiers(plain, env) is plain


def _distinct(roots) -> set:
    return {id(x) for e in roots for x in oracles.iter_subexprs(e)}


def test_translation_keeps_the_sharing_of_the_transform():
    m = elaborate(parse_module(subject_to_chain(30)))
    out = transform_module(m, Variant.PRECOND).module
    rules = [r for r in out.rules if not r.is_bodyless()]
    bodies = [x for r in rules for x in (r.precond, r.postcond)]
    tree_size = sum(1 for e in bodies for _ in oracles.iter_subexprs(e))
    assert len(_distinct(bodies)) * 5 < tree_size  # the transform shares
    fs = rules_to_formulas(out, include_inversions=False)
    # Each rule adds an implication and one binder per parameter.
    wrappers = sum(1 + len(r.params) for r in rules)
    assert len(_distinct(e for _, e in fs.formulas)) <= len(_distinct(bodies)) + wrappers


def test_free_vars_visits_each_distinct_node_once(monkeypatch):
    m = elaborate(parse_module(subject_to_chain(30)))
    fs = rules_to_formulas(transform_module(m, Variant.PRECOND).module)
    memos = []

    def spy(e, combine, memo, kids):
        memos.append(memo)
        return fold(e, combine, memo, kids)

    monkeypatch.setattr(syntax, "fold", spy)
    leaves = (Var, BoolLit, IntLit, FloatLit, StringLit)
    for _, e in fs.formulas:
        assert free_vars(e) == oracles.tree_free_vars(e)
        # every node but the leaves and the unary atoms on a variable
        inner = {
            id(x)
            for x in oracles.iter_subexprs(e)
            if not isinstance(x, leaves)
            and not (isinstance(x, App) and isinstance(x.fn, Var) and isinstance(x.arg, Var))
        }
        assert set(memos.pop()) == inner


@pytest.mark.parametrize("variant", list(Variant))
def test_free_vars_match_the_tree_walk_on_random_modules(variant):
    for seed in range(60):
        m = elaborate(random_annotated_module(random.Random(seed)).module)
        typecheck_module(m)
        fs = rules_to_formulas(transform_module(m, variant).module)
        for _, e in fs.formulas:
            assert free_vars(e) == oracles.tree_free_vars(e)


# Characters that matter to the tokenizer, and a few that do not.
_SCRIPT_CHARS = st.sampled_from(list('()|";\n \tab01.-'))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(_SCRIPT_CHARS, max_size=40).map("".join))
@example('(a "b""c" |d e|) ; f "g\n"h""i" "" """"')
@example('"a""')
@example('"a"" |b')
@example('|a "b')
def test_tokenize_matches_the_character_loop(text):
    try:
        want = oracles.char_tokenize(text)
    except SmtError as e:
        with pytest.raises(SmtError, match=f"^{e}$"):
            _tokenize(text)
    else:
        assert _tokenize(text) == want
