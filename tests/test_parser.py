"""Surface syntax: tokens, declarations, rules, annotations, errors."""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from normlog.parser import MAX_NESTING, LParseError, parse_expr, parse_module, parse_type
from normlog.randgen import random_annotated_module
from normlog.syntax import (
    BOOL,
    INT,
    TRUE,
    ClassT,
    Derived,
    FunT,
    IntLit,
    Remap,
    Restrict,
    RestrictSubjectTo,
    Source,
    Var,
    apply,
    print_module,
)


def test_parse_type_forms():
    assert parse_type("Boolean") == BOOL
    assert parse_type("Vehicle -> Integer -> Boolean") == FunT(
        ClassT("Vehicle"), FunT(INT, BOOL)
    )
    assert parse_type("(Integer -> Integer) -> Boolean") == FunT(FunT(INT, INT), BOOL)


def test_identifiers_may_end_in_plus_or_contain_quotes():
    e = parse_expr("maxSp+ r v && isCar'Orig v")
    assert e.left == apply("maxSp+", Var("r"), Var("v"))
    assert e.right == apply("isCar'Orig", Var("v"))
    assert str(e) == "maxSp+ r v && isCar'Orig v"


def test_negative_integer_literal():
    assert parse_expr("-42") == IntLit(-42)


def test_comments_are_skipped():
    m = parse_module("# nothing here\nclass Car  # trailing\n")
    assert [c.name for c in m.classes] == ["Car"]


def test_class_with_attributes():
    m = parse_module("class Car extends Vehicle { weight : Integer, fast : Boolean }")
    (c,) = m.classes
    assert c.parent == "Vehicle"
    assert c.attrs == (("weight", INT), ("fast", BOOL))


def test_decl_split_between_functions_and_globals():
    m = parse_module(
        "class Car\ndecl maxSp : Car -> Boolean\ndecl instCar : Car\ndecl limit : Integer"
    )
    assert [d.name for d in m.decls] == ["maxSp"]
    assert [d.name for d in m.globals] == ["instCar", "limit"]


def test_rule_sections():
    m = parse_module(
        """
class Car
decl p : Car -> Boolean

rule <r1>
  for v : Car, n : Integer
  if p v && n > 3
  then p v
"""
    )
    (r,) = m.rules
    assert r.name == "r1"
    assert r.params == (("v", ClassT("Car")), ("n", INT))
    assert str(r.precond) == "p v && n > 3"
    assert str(r.postcond) == "p v"
    assert r.annotation is None


def test_rule_without_if_defaults_to_true():
    m = parse_module("decl p : Boolean\nrule <r> then p")
    assert m.rules[0].precond == TRUE


def test_restrict_annotation():
    m = parse_module(
        """
decl p : Boolean
rule <a> then p
rule <b> then p
rule <c> {restrict: {subjectTo: a, b, despite: c}} then p
"""
    )
    assert m.rules[2].annotation == Restrict(subject_to=("a", "b"), despite=("c",))


def test_source_annotation():
    m = parse_module("decl p : Boolean\nrule <a> {source} then p")
    assert m.rules[0].annotation == Source()


def test_derived_restrict_subject_to():
    m = parse_module(
        """
decl p : Boolean
rule <a> {derived: {apply: {restrictSubjectTo a'Orig b c}}}
"""
    )
    (r,) = m.rules
    assert r.annotation == Derived(RestrictSubjectTo("a'Orig", ("b", "c")))
    assert r.is_bodyless()


def test_derived_remap():
    m = parse_module(
        """
class Car
decl p : Car -> Boolean
rule <a> {derived: {apply: {remap b [v : Car] [w := v]}}}
"""
    )
    ann = m.rules[0].annotation
    assert isinstance(ann, Derived)
    assert isinstance(ann.apply, Remap)
    assert ann.apply.target == "b"
    assert ann.apply.new_params == (("v", ClassT("Car")),)
    assert ann.apply.subst == (("w", Var("v")),)


def test_fact_desugars_to_unconditional_rule():
    m = parse_module("decl wealthy : Boolean\nfact <f1> wealthy")
    (r,) = m.rules
    assert r.precond == TRUE
    assert str(r.postcond) == "wealthy"
    assert not r.is_bodyless()


def test_assertion_modes_and_rule_adjustments():
    m = parse_module(
        """
decl p : Boolean
rule <a> then p
assert <s1> {SMT: {satisfiable}} p
assert <s2> {SMT: {valid}, rules: {del: a}} p
assert <s3> p
"""
    )
    s1, s2, s3 = m.assertions
    assert s1.mode == "satisfiable"
    assert s2.mode == "valid" and s2.del_rules == ("a",)
    assert s3.mode == "valid"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("rule <r> if p", "expected 'then'"),
        ("rule <r> {shiny} then p", "unknown annotation"),
        ("rule <r> {restrict: {onTopOf: a}} then p", "unknown restrict key"),
        ("rule <r> {restrict: {subjectTo: a, subjectTo: b}} then p", "duplicate"),
        ("assert <s> {SMT: {plausible}} p", "unknown assertion mode"),
        ("frobnicate", "top-level"),
        ("rule <r> {derived: {apply: {twist a}}} then p", "unknown transformer"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(LParseError) as exc:
        parse_module(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_position():
    with pytest.raises(LParseError) as exc:
        parse_module("class Car\nclass extends")
    assert str(exc.value).startswith("2:")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_module_print_parse_round_trip(seed):
    sample = random_annotated_module(random.Random(seed))
    assert parse_module(print_module(sample.module)) == sample.module


def test_nesting_is_limited_before_the_interpreter_stack_is():
    inner = "(" * (MAX_NESTING - 1) + "p" + ")" * (MAX_NESTING - 1)
    assert parse_expr(inner) == Var("p")
    for deep in ("(" + inner + ")", "not " * 3000 + "p"):
        with pytest.raises(LParseError, match=f"nested more than {MAX_NESTING} levels deep"):
            parse_expr(deep)
    for deep in ("(" * 3000 + "Boolean" + ")" * 3000, "Boolean -> " * 3000 + "Boolean"):
        with pytest.raises(LParseError, match=f"nested more than {MAX_NESTING} levels deep"):
            parse_type(deep)
