"""The compile passes after the transform visit each distinct node once.

The precondition transform shares subterms between rules, so the
translated formulas form a DAG.  `rewrite_fields`, `guard_quantifiers`,
`expr_to_sexp` and `free_vars` memoize by node identity and `_tokenize`
reads a script with one regular expression; the tree-walking versions
in tests/oracles.py are the reference.  Formula sets, SMT-LIB text and
token lists must be exactly the reference's.
"""

import random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import oracles
from conftest import CASES, load_case, subject_to_chain
from normlog import models, smtlib
from normlog.models import guard_quantifiers, rewrite_fields, rules_to_formulas
from normlog.parser import parse_expr, parse_module
from normlog.randgen import random_annotated_module
from normlog.smtlib import SmtError, _tokenize, emit_smtlib, expr_to_sexp
from normlog.syntax import (
    And,
    App,
    BoolLit,
    FloatLit,
    IntLit,
    Or,
    StringLit,
    Var,
    free_vars,
    iter_subexprs,
)
from normlog.transform import CycleError, Variant, transform_module
from normlog.typecheck import Env, elaborate, typecheck_module

MODES = [(v, simp) for v in Variant for simp in (False, True)]


def _with_tree_walkers(run):
    """run() with the module's walkers replaced by the references."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "rewrite_fields", oracles.tree_rewrite_fields)
        mp.setattr(models, "guard_quantifiers", oracles.tree_guard_quantifiers)
        mp.setattr(smtlib, "expr_to_sexp", oracles.tree_expr_to_sexp)
        return run()


def _same_as_reference(m):
    for variant, simp in MODES:
        try:
            res = transform_module(m, variant, simplify_preconds=simp)
        except CycleError:
            continue
        fs = rules_to_formulas(res.module)
        text = emit_smtlib(fs)
        want_fs = _with_tree_walkers(lambda: rules_to_formulas(res.module))
        assert fs == want_fs
        assert text == _with_tree_walkers(lambda: emit_smtlib(want_fs))
        assert _tokenize(text) == oracles.char_tokenize(text)


@pytest.mark.parametrize("case", sorted(p.name for p in CASES.glob("*.l4")))
def test_cases_match_the_tree_walkers(case):
    _same_as_reference(load_case(case))


def test_random_modules_match_the_tree_walkers():
    for seed in range(60):
        m = elaborate(random_annotated_module(random.Random(seed)).module)
        typecheck_module(m)
        _same_as_reference(m)


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
    fields_memo, guard_memo, text_memo = {}, {}, {}
    for e in formulas:
        got = guard_quantifiers(rewrite_fields(e, fields_memo), env, guard_memo)
        want = oracles.tree_guard_quantifiers(oracles.tree_rewrite_fields(e), env)
        assert got == want
        assert _text(lambda: expr_to_sexp(got, text_memo)) == _text(
            lambda: oracles.tree_expr_to_sexp(want)
        )
    # A formula with nothing to rewrite comes back as the same object.
    plain = parts[-1]
    assert rewrite_fields(plain) is plain and guard_quantifiers(plain, env) is plain


def _distinct(roots) -> set:
    return {id(x) for e in roots for x in iter_subexprs(e)}


def test_translation_keeps_the_sharing_of_the_transform():
    m = elaborate(parse_module(subject_to_chain(30)))
    out = transform_module(m, Variant.PRECOND).module
    rules = [r for r in out.rules if not r.is_bodyless()]
    bodies = [x for r in rules for x in (r.precond, r.postcond)]
    tree_size = sum(1 for e in bodies for _ in iter_subexprs(e))
    assert len(_distinct(bodies)) * 5 < tree_size  # the transform shares
    fs = rules_to_formulas(out, include_inversions=False)
    # Each rule adds an implication and one binder per parameter.
    wrappers = sum(1 + len(r.params) for r in rules)
    assert len(_distinct(e for _, e in fs.formulas)) <= len(_distinct(bodies)) + wrappers


def test_free_vars_visits_each_distinct_node_once():
    m = elaborate(parse_module(subject_to_chain(30)))
    fs = rules_to_formulas(transform_module(m, Variant.PRECOND).module)
    memo = {}
    for _, e in fs.formulas:
        assert free_vars(e, memo) == oracles.tree_free_vars(e)
    # every node but the leaves and the unary atoms on a variable
    leaves = (Var, BoolLit, IntLit, FloatLit, StringLit)
    inner = {
        id(x)
        for _, e in fs.formulas
        for x in iter_subexprs(e)
        if not isinstance(x, leaves)
        and not (isinstance(x, App) and isinstance(x.fn, Var) and isinstance(x.arg, Var))
    }
    assert set(memo) == inner


@pytest.mark.parametrize("variant", list(Variant))
def test_free_vars_match_the_tree_walk_on_random_modules(variant):
    for seed in range(60):
        m = elaborate(random_annotated_module(random.Random(seed)).module)
        typecheck_module(m)
        fs = rules_to_formulas(transform_module(m, variant).module)
        memo = {}
        for _, e in fs.formulas:
            assert free_vars(e, memo) == oracles.tree_free_vars(e)


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
