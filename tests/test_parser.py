"""Surface syntax: tokens, declarations, rules, annotations, errors."""

import importlib
import random
import re
import sys

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import oracles
from conftest import CASES, ROOT
from normlog.parser import MAX_NESTING, LParseError, parse_expr, parse_module, parse_type, tokenize
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


# ---------------------------------------------------------------------------
# the lexer against the character loop


def _tokens(toks):
    return [(t.kind, t.text, t.loc, t.value) for t in toks]


def _lexes_like_the_character_loop(text):
    try:
        want = oracles.l4_char_tokenize(text)
    except LParseError as e:
        with pytest.raises(LParseError) as exc:
            tokenize(text)
        assert (str(exc.value), exc.value.loc) == (str(e), e.loc)
    else:
        assert _tokens(tokenize(text)) == _tokens(want)


# Characters that start, end or continue a token, the four whitespace
# characters, and characters that are whitespace or digits elsewhere:
# vertical tab, form feed, non-ASCII letters, digits and numerics, and a
# no-break space.
_LEX_CHARS = st.sampled_from(list("#\"\\'+-.><=&|:,0123456789\n\t\r \x0b\x0cé²½٣\xa0abxT_"))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(_LEX_CHARS, max_size=40).map("".join))
@example('p "ab\ncd\n  q')
@example("f -1.5 2.x 3. ٣.٣ -٣ 1.٣")
@example("x'Orig+ y'+z")
@example("a-->b->c -1 -->-1 ->->")
@example("p x # a comment at the end")
@example('"a\\"b\\\\" "c\\\nd" x')
def test_tokenize_matches_the_character_loop(text):
    _lexes_like_the_character_loop(text)


@pytest.mark.parametrize("case", sorted(p.name for p in CASES.glob("*.l4")))
def test_tokenize_matches_the_character_loop_on_cases(case):
    _lexes_like_the_character_loop((CASES / case).read_text(encoding="utf-8"))


@pytest.fixture
def bench_workloads(monkeypatch):
    """The benchmark's workload module, imported from bench/.  Its
    `gen` and `oracles` shadow the test modules of those names only
    while the test runs: each name is first set, so that tearing down
    restores or removes it, then deleted."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    for name in ("workloads", "gen", "oracles"):
        monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.delitem(sys.modules, name)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tokenize_matches_the_character_loop_on_compile_sources(bench_workloads, seed):
    rng = random.Random(seed)
    for groups, length, fan_in in bench_workloads.COMPILE_SPECS:
        _lexes_like_the_character_loop(bench_workloads.gen.compile_module(rng, groups, length, fan_in))


def test_pattern_classes_are_the_str_predicates():
    # The lexer's pattern finds identifiers with `\w` and numerals with
    # `\d`; the character loop asked `str.isalnum` and `str.isdecimal`.
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\w", chars)) == "".join(c for c in chars if c.isalnum() or c == "_")
    assert "".join(re.findall(r"\d", chars)) == "".join(c for c in chars if c.isdecimal())


def test_locations_count_characters_and_lines():
    toks = tokenize('é\t"a\nb" # c\r\n\n  x²½ ٣')
    assert _tokens(toks) == [
        ("ident", "é", (1, 1), None),
        ("string", '"a\nb"', (1, 3), "a\nb"),
        ("ident", "x²½", (4, 3), None),
        ("int", "٣", (4, 7), 3),
        ("eof", "", (4, 8), None),
    ]
    for text, message in [
        ("p\n  ²", "2:3: unexpected character '²'"),
        ("p\xa0q", "1:2: unexpected character '\\xa0'"),
        ('p "q\n', '1:3: unterminated string literal'),
    ]:
        with pytest.raises(LParseError, match=f"^{re.escape(message)}$"):
            tokenize(text)


def test_error_quotes_a_string_token_as_written():
    with pytest.raises(LParseError, match=r"""^1:3: expected a top-level item, found '"a\\\\"b"'$"""):
        parse_module('  "a\\"b" rule')
