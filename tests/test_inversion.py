"""Closure of predicates under their defining rules, and the syntactic
monotonicity screen that justifies it."""

import random

from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import load_case
from oracles import negated_heads
from normlog.inversion import (
    check_syntactic_monotonicity,
    inversion_formula,
    inversion_targets,
    normalize_rule,
    rules_concluding,
)
from normlog.parser import parse_module
from normlog.syntax import And, BoolLit, Implies, IntT, Not, Or, Var, apply
from normlog.typecheck import Env, elaborate, typecheck_module


def _module(text):
    m = elaborate(parse_module(text))
    typecheck_module(m)
    return m


def test_inversion_targets_are_user_boolean_predicates():
    m = load_case("speedlimit_plain.l4")
    assert inversion_targets(m) == ["maxSp"]


def test_characteristic_predicates_are_not_targets():
    # isCar and friends are contingent, not closed under any rules
    m = load_case("speedlimit_plain.l4")
    assert all(not t.startswith("is") for t in inversion_targets(m))


def test_inversion_formula_for_the_speed_limit():
    m = load_case("speedlimit_plain.l4")
    env = Env.from_module(m)
    got = str(inversion_formula(list(m.rules), "maxSp", env))
    assert got == (
        "forall v: Vehicle. forall d: Day. forall r: Road. forall x4: Integer. "
        "maxSp v d r x4 --> "
        "isCar v && isWorkday d && x4 == 90 || isCar v && isHighway r && x4 == 130"
    )


def test_inversion_with_no_rules_is_a_closed_world_negation():
    m = _module("class Thing\ndecl p : Thing -> Integer -> Boolean")
    got = str(inversion_formula([], "p", Env.from_module(m)))
    assert got == "forall x1: Thing. forall x2: Integer. not p x1 x2"


def test_bodyless_rules_do_not_count_as_concluders():
    m = _module(
        """
class Thing
decl p : Thing -> Boolean
rule <a>
  for x : Thing
  if isThing x
  then p x
rule <b> {derived: {apply: {restrictSubjectTo a a}}}
"""
    )
    assert [r.name for r in rules_concluding(list(m.rules), "p")] == ["a"]


def test_normalize_rule_canonical_case():
    m = load_case("speedlimit_plain.l4")
    env = Env.from_module(m)
    n = normalize_rule(m.user_rules()[0], env)
    assert n.pred == "maxSp"
    assert [p[0] for p in n.params] == ["v", "d", "r", "x4"]
    assert n.params[3][1] == IntT()
    assert str(n.precond) == "isCar v && isWorkday d && x4 == 90"


def test_normalize_rule_duplicate_argument():
    m = _module(
        """
class Thing
decl r : Thing -> Thing -> Boolean
rule <dup>
  for x : Thing
  if isThing x
  then r x x
"""
    )
    n = normalize_rule(m.rule_map()["dup"], Env.from_module(m))
    assert [p[0] for p in n.params] == ["x", "x2"]
    assert str(n.precond) == "isThing x && x2 == x"


def test_normalize_rule_unused_parameters_become_existential():
    m = _module(
        """
class Thing
decl p : Thing -> Integer -> Boolean
decl c : Thing

rule <lit>
  for x : Thing, unused : Integer
  if isThing x
  then p c 5
"""
    )
    n = normalize_rule(m.rule_map()["lit"], Env.from_module(m))
    assert [p[0] for p in n.params] == ["x1", "x2"]
    assert (
        str(n.precond)
        == "exists x: Thing. exists unused: Integer. isThing x && x1 == c && x2 == 5"
    )


# ---------------------------------------------------------------------------
# monotonicity screening


def test_monotonicity_flags_odd_parity_and_neutral_positions():
    m = _module(
        """
class Thing
decl p : Thing -> Boolean
decl n : Thing -> Integer

rule <ite>
  for x : Thing
  if (if p x then 1 else 2) == n x
  then p x

rule <anteced>
  for x : Thing
  if p x --> isThing x
  then p x

rule <fine>
  for x : Thing
  if not (not (p x)) && isThing x
  then p x
"""
    )
    rep = check_syntactic_monotonicity(list(m.rules), "p")
    assert not rep.ok
    assert ("ite", "'p' occurs in a position of mixed polarity") in rep.offenders
    assert ("anteced", "'p' occurs under 1 negation(s)") in rep.offenders
    assert all(name != "fine" for name, _ in rep.offenders)

    # An if-condition and the arguments of an occurrence have no
    # polarity; occurrences are reported in pre-order.
    m = _module(
        """
class Thing
decl p : Boolean -> Boolean
decl q : Thing -> Boolean

rule <nested>
  for b : Boolean, x : Thing
  if (if p b then q x else not q x) && not p (p b)
  then p b
"""
    )
    mixed = ("nested", "'p' occurs in a position of mixed polarity")
    negated = ("nested", "'p' occurs under 1 negation(s)")
    assert check_syntactic_monotonicity(list(m.rules), "p").offenders == (mixed, negated, mixed)


def test_monotonicity_only_inspects_rules_concluding_the_predicate():
    m = _module(
        """
class Thing
decl p : Thing -> Boolean
decl q : Thing -> Boolean

rule <a>
  for x : Thing
  if not (p x)
  then q x

rule <b>
  for x : Thing
  if isThing x
  then p x
"""
    )
    assert check_syntactic_monotonicity(list(m.rules), "p").ok
    assert check_syntactic_monotonicity(list(m.rules), "q").ok


_atoms = [
    apply("p", Var("x")),
    apply("q", Var("x")),
    apply("isThing", Var("x")),
]


def _preconds():
    leaves = st.one_of(st.sampled_from(_atoms), st.builds(BoolLit, st.booleans()))

    def extend(inner):
        return st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_preconds())
def test_monotonicity_agrees_with_nnf_oracle(precond):
    """For pure connective formulas, odd negation parity is the same
    thing as occurring negated in negation normal form."""
    from normlog.syntax import ClassT, Rule

    rule = Rule("r", (("x", ClassT("Thing")),), precond, apply("p", Var("x")))
    rep = check_syntactic_monotonicity([rule], "p")
    assert rep.ok == ("p" not in negated_heads(precond))
