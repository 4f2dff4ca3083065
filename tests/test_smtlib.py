"""SMT-LIB emission and the structural script reader."""

import random
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import load_case, subject_to_chain
from normlog import smtlib
from normlog.models import FormulaSet, rules_to_formulas
from normlog.parser import parse_expr, parse_module
from normlog.randgen import random_annotated_module
from normlog.smtlib import SmtError, emit_smtlib, read_script, smt_symbol
from normlog.syntax import And, App, ClassT, FloatLit, Forall, Lambda, Var
from normlog.transform import Variant, transform_module
from normlog.typecheck import elaborate, typecheck_module


def test_smt_symbol_quoting():
    assert smt_symbol("maxSp") == "maxSp"
    assert smt_symbol("maxSp+") == "maxSp+"  # '+' is a legal symbol character
    assert smt_symbol("maxSpCarHighway'Orig") == "|maxSpCarHighway'Orig|"
    assert smt_symbol("incl'Car'Vehicle") == "|incl'Car'Vehicle|"
    # Simple symbols are ASCII, letters and digits included.
    assert smt_symbol("p\u00e9") == "|p\u00e9|"
    assert smt_symbol("\u00b2p") == "|\u00b2p|"


def test_non_ascii_declaration_is_quoted_and_read_back():
    m = elaborate(
        parse_module(
            "class Thing\ndecl p\u00e9 : Thing -> Boolean\ndecl q : Thing -> Boolean\n"
            "rule <r> for x: Thing if p\u00e9 x then q x\n"
        )
    )
    typecheck_module(m)
    script = emit_smtlib(rules_to_formulas(transform_module(m, Variant.PRECOND).module))
    assert "(declare-fun |p\u00e9| (Thing) Bool)" in script
    commands = [x for x in script.splitlines() if not x.startswith(";")]
    assert all("p\u00e9" not in x.replace("|p\u00e9|", "") for x in commands)
    info = read_script(script)
    assert info.symbols["p\u00e9"] == 1 and info.has_check_sat


@pytest.mark.parametrize("word", sorted(smtlib._RESERVED))
def test_reserved_words_are_quoted(word):
    assert smt_symbol(word) == f"|{word}|"


def test_reserved_word_declaration_is_quoted_and_read_back():
    m = elaborate(
        parse_module(
            "class Thing\ndecl let : Thing -> Boolean\ndecl q : Thing -> Boolean\n"
            "rule <r> for par: Thing if let par then q par\n"
        )
    )
    typecheck_module(m)
    script = emit_smtlib(rules_to_formulas(transform_module(m, Variant.PRECOND).module))
    assert "(declare-fun |let| (Thing) Bool)" in script
    assert "(|let| |par|)" in script
    info = read_script(script)
    assert info.symbols["let"] == 1 and info.has_check_sat


@pytest.mark.parametrize(
    "script, message",
    [
        ("(declare-sort Thing 0)(declare-fun let (Thing) Bool)", "reserved word 'let' used as a symbol"),
        ("(declare-sort STRING 0)", "reserved word 'STRING' used as a symbol"),
        ("(declare-const |_| Bool)(assert (and true _))", "reserved word '_' used as a symbol"),
        ("(declare-const |as| Bool)(assert as)", "reserved word 'as' used as a symbol"),
        ("(declare-fun |par| (Int) Bool)(assert (par 1))", "reserved word 'par' used as a symbol"),
        ("(declare-fun p (Int) Bool)(assert (or let (q 1)))", "reserved word 'let' used as a symbol"),
        ("(declare-fun p (Int) Bool)(assert (or (q 1) let))", "unknown symbol 'q'"),
        ("(push 1)", "unsupported command 'push'"),
    ],
)
def test_reader_rejects_unquoted_reserved_words(script, message):
    with pytest.raises(SmtError, match=f"^{re.escape(message)}$"):
        read_script(script)


def term(e):
    """The s-expression `emit_smtlib` asserts for `e`, the one formula
    of a set with no sorts or symbols: the expression's SMT-LIB term."""
    text = emit_smtlib(FormulaSet((), (), (), (), (("f", e),)))
    (line,) = (x for x in text.splitlines() if x.startswith("(assert "))
    return line[len("(assert ") : -1]


def test_expr_to_sexp_flattens_chains():
    assert term(parse_expr("a && b && c")) == "(and a b c)"
    assert term(parse_expr("a || b || c")) == "(or a b c)"
    assert term(parse_expr("a --> b --> c")) == "(=> a b c)"
    assert term(parse_expr("a && (b || c)")) == "(and a (or b c))"


def test_expr_to_sexp_merges_consecutive_binders():
    e = parse_expr("forall v: Vehicle. forall d: Day. p v d")
    assert term(e) == "(forall ((v Vehicle) (d Day)) (p v d))"
    e2 = parse_expr("forall v: Vehicle. exists d: Day. p v d")
    assert term(e2) == "(forall ((v Vehicle)) (exists ((d Day)) (p v d)))"


def test_expr_to_sexp_misc_forms():
    assert term(parse_expr("-7 < 4")) == "(< (- 7) 4)"
    assert term(parse_expr("if a then 1 else 2")) == "(ite a 1 2)"
    assert term(parse_expr("not a")) == "(not a)"
    assert term(parse_expr("x == y")) == "(= x y)"
    assert term(parse_expr('"hi"')) == '"hi"'


@pytest.mark.parametrize(
    "text, message",
    [
        ("forall y: S -> S. (\\z: S -> p z) y", "type 'S -> S' has no SMT-LIB sort"),
        ("(\\y: S -> p y) c && (forall y: S -> S. true)", "cannot emit application of a non-symbol"),
        ("p (\\y: S -> y) && (forall y: S -> S. true)", "cannot emit Lambda nodes to SMT-LIB"),
        ("if (\\y: S -> p y) c then true else x.f", "cannot emit application of a non-symbol"),
    ],
)
def test_expr_to_sexp_reports_the_first_fault_in_pre_order(text, message):
    with pytest.raises(SmtError, match=f"^{re.escape(message)}$"):
        term(parse_expr(text))


@pytest.mark.parametrize(
    "first",
    [App(Var("a|b"), Var("x")), Forall("a|b", ClassT("S"), Var("x"))],
    ids=["atom", "binder"],
)
def test_a_symbol_that_cannot_be_written_is_reported_in_pre_order(first):
    # No .l4 identifier holds `|`, so only a built expression has one.
    e = And(first, Lambda("y", ClassT("S"), Var("y")))
    with pytest.raises(SmtError, match=r"^symbol 'a\|b' cannot be represented in SMT-LIB$"):
        term(e)


def test_emit_layout_for_the_plain_module():
    fs = rules_to_formulas(load_case("speedlimit_plain.l4"))
    text = emit_smtlib(fs)
    lines = text.splitlines()
    assert lines[0] == "(set-logic ALL)"
    assert "(declare-sort Vehicle 0)" in lines
    assert "(declare-fun maxSp (Vehicle Day Road Int) Bool)" in lines
    assert "; isVehicle holds on all of Vehicle" in lines
    assert "(assert (forall ((x Vehicle)) (isVehicle x)))" in lines
    assert "; rule maxSpCarWorkday" in lines
    assert lines[-2:] == ["(check-sat)", "(get-model)"]


def test_emit_validity_goal_is_negated():
    m = load_case("speedlimit_plain.l4")
    fs = rules_to_formulas(m)
    a = m.assertions[0]
    text = emit_smtlib(fs, goal=(a.name, a.mode, a.formula))
    assert "; goal maxSpFunctional (validity: negated, sat = countermodel)" in text
    negated = [ln for ln in text.splitlines() if ln.startswith("(assert (not (forall")]
    assert len(negated) == 1
    assert text.splitlines()[-2:] == ["(check-sat)", "(get-model)"]


def test_emit_satisfiable_goal_is_not_negated():
    m = load_case("selfref.l4")
    fs = rules_to_formulas(m)
    a = m.assertions[0]
    text = emit_smtlib(fs, goal=(a.name, a.mode, a.formula))
    assert "(assert (or P (not P)))" in text


def test_emit_fixed_carrier_block():
    res = transform_module(load_case("speedlimit_repaired.l4"), Variant.DERIV)
    text = emit_smtlib(rules_to_formulas(res.module))
    assert "; carrier of Rulename_maxSp" in text
    assert "(assert (distinct maxSpCarWorkday maxSpCarHighway maxSpSportsCar))" in text
    assert (
        "(assert (forall ((x Rulename_maxSp)) "
        "(or (= x maxSpCarWorkday) (= x maxSpCarHighway) (= x maxSpSportsCar))))"
    ) in text


def test_reader_accepts_own_output():
    for case, variant in [
        ("speedlimit_plain.l4", Variant.PRECOND),
        ("speedlimit_repaired.l4", Variant.PRECOND),
        ("speedlimit_repaired.l4", Variant.DERIV),
    ]:
        res = transform_module(load_case(case), variant)
        fs = rules_to_formulas(res.module)
        info = read_script(emit_smtlib(fs))
        assert info.has_check_sat
        assert info.assert_count == len(fs.formulas) + 2 * len(fs.fixed) + len(
            fs.char_true
        )


def test_reader_tracks_sorts_and_symbols():
    info = read_script(
        """
(set-logic ALL)
(declare-sort S 0)
(declare-fun p (S) Bool)
(declare-const c S)
(assert (p c))
(check-sat)
"""
    )
    assert info.sorts == ("S",)
    assert info.symbols == {"p": 1, "c": 0}
    assert info.definitions == {}
    assert info.assert_count == 1
    assert info.has_check_sat and not info.has_get_model


@pytest.mark.parametrize(
    "script, fragment",
    [
        ("(assert (p x))", "unknown"),
        ("(declare-sort S 0)(declare-fun p (S) Bool)(assert p)", "arity"),
        ("(declare-sort S 0)(declare-fun p (S) Bool)(assert (p a b))", "arity"),
        ("(declare-fun p (T) Bool)", "unknown sort"),
        ("(assert (forall ((x S)) true))", "unknown sort"),
        ("(assert (and true", "unbalanced"),
    ],
)
def test_reader_rejects_malformed_scripts(script, fragment):
    with pytest.raises(SmtError, match=fragment):
        read_script(script)


def test_reader_scopes_binders():
    good = "(declare-sort S 0)(assert (forall ((x S)) (= x x)))(check-sat)"
    assert read_script(good).assert_count == 1
    bad = "(declare-sort S 0)(assert (= x x))"
    with pytest.raises(SmtError):
        read_script(bad)


def test_reader_unbinds_after_the_body():
    head = "(declare-sort S 0)(declare-fun p (S) Bool)"
    good = "(assert (and (forall ((x S)) (forall ((x S)) (p x))) (exists ((y S)) (p y))))"
    assert read_script(head + good).assert_count == 1
    for leaked in ("(assert (and (forall ((x S)) (forall ((x S)) (p x))) (p x)))",
                   "(assert (and (forall ((x S) (y S)) (p y)) (p y)))"):
        with pytest.raises(SmtError, match="^unknown symbol '[xy]'$"):
            read_script(head + leaked)


@pytest.mark.parametrize(
    "term, message",
    [
        ("(and (q x) (p))", "unknown symbol 'q'"),
        ("(and (p x) (p))", "unknown symbol 'x'"),
        ("(and (forall ((x T)) (q x)) (q x))", "unknown sort 'T'"),
        ("(and (forall ((x S)) (p)) (q x))", "symbol 'p' declared with arity 1, applied to 0"),
        ("(or p (q))", "symbol 'p' of arity 1 used without arguments"),
        ("(or (forall (x) true) p)", "ill-formed binder in forall"),
        ("(or ((p) x) q)", "ill-formed application [['p'], 'x']"),
        ("(or () q)", "ill-formed term []"),
    ],
)
def test_reader_reports_the_first_fault_in_term_order(term, message):
    script = f"(declare-sort S 0)(declare-fun p (S) Bool)(assert {term})"
    with pytest.raises(SmtError, match=f"^{re.escape(message)}$"):
        read_script(script)


_DEFINE_HEAD = "(declare-sort S 0)(declare-fun p (S) Bool)(declare-const c S)"


# Pieces of scripts: parentheses, quoted and unquoted symbols, reserved
# words, command names, numerals, strings and comments, complete or cut.
_PIECES = st.sampled_from(
    [
        "x", "p", "c", "S", "Bool", "Int", "true", "not", "and", "=", "|p|", "|a b|", "|let|",
        "let", "_", "as", "par", "NUMERAL", "push", "forall", "exists", "assert", "declare-sort",
        "declare-fun", "declare-const", "define-fun", "check-sat", "set-logic", "0", "12",
        "3.5", "007", "1.", '"s"', '"a""b"', "; c\n", "|", '"', "(", ")",
    ]
)
_SEXPS = st.recursive(
    _PIECES, lambda inner: st.lists(inner, max_size=5).map(lambda xs: "(" + " ".join(xs) + ")"),
    max_leaves=30,
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.sampled_from(["", _DEFINE_HEAD]), st.lists(_SEXPS, max_size=8).map(" ".join))
def test_reader_raises_only_smt_errors(head, text):
    try:
        read_script(head + text)
    except SmtError:
        pass


def test_reader_reads_the_script_of_a_long_subject_to_chain():
    # Each subjectTo link nests the precondition two levels deeper.  The
    # script defines each shared precondition once (68 KB here, where
    # writing each in full took 4.5 MB); the reader checks terms with a
    # stack of its own, not recursion.
    m = elaborate(parse_module(subject_to_chain(500)))
    typecheck_module(m)
    fs = rules_to_formulas(transform_module(m, Variant.PRECOND).module)
    text = emit_smtlib(fs)
    assert len(text) < 100_000
    info = read_script(text)
    assert info.assert_count == len(fs.formulas) + 1  # the isS axiom besides
    assert info.symbols == {"p": 1, "q": 1, "isS": 1}
    assert len(info.definitions) > 200 and set(info.definitions.values()) == {1}


def test_reader_accepts_definitions():
    script = _DEFINE_HEAD + (
        "(define-fun d ((x S) (y S)) Bool (and (p x) (p y)))"
        "(define-fun e () Bool (forall ((x S)) (d x c)))"
        "(assert (and e (d c c) (exists ((x S)) (d x x))))"
    )
    info = read_script(script)
    assert info.symbols == {"p": 1, "c": 0}
    assert info.definitions == {"d": 2, "e": 0}
    assert info.assert_count == 1


@pytest.mark.parametrize(
    "commands, message",
    [
        ("(define-fun d ((x S)) Bool (p x))(assert (d c c))", "symbol 'd' defined with arity 1, applied to 2"),
        ("(define-fun d ((x S)) Bool (p x))(assert d)", "symbol 'd' of arity 1 used without arguments"),
        ("(assert (d c))(define-fun d ((x S)) Bool (p x))", "unknown symbol 'd'"),
        ("(define-fun d ((x S)) Bool (d x))", "unknown symbol 'd'"),
        ("(define-fun p ((x S)) Bool true)", "symbol 'p' is already declared"),
        ("(define-fun d () Bool true)(define-fun d () Bool false)", "symbol 'd' is already defined"),
        ("(define-fun d () Bool true)(declare-const d Bool)", "symbol 'd' is already defined"),
        ("(define-fun and () Bool true)", "symbol 'and' is builtin"),
        ("(define-fun d ((x T)) Bool true)", "unknown sort 'T'"),
        ("(define-fun d ((x S)) T true)", "unknown sort 'T'"),
        ("(define-fun d ((x S)) Bool (p y))", "unknown symbol 'y'"),
        ("(define-fun d ((x S)) Bool (p x))(assert (p x))", "unknown symbol 'x'"),
        ("(define-fun d (x) Bool true)", "ill-formed parameter in define-fun"),
        ("(define-fun d ((x S)) Bool)", "ill-formed define-fun"),
    ],
)
def test_reader_rejects_malformed_definitions(commands, message):
    with pytest.raises(SmtError, match=f"^{re.escape(message)}$"):
        read_script(_DEFINE_HEAD + commands)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([Variant.PRECOND, Variant.DERIV]))
def test_random_modules_emit_readable_scripts(seed, variant):
    sample = random_annotated_module(random.Random(seed))
    m = elaborate(sample.module)
    typecheck_module(m)
    res = transform_module(m, variant)
    fs = rules_to_formulas(res.module)
    info = read_script(emit_smtlib(fs))
    assert info.has_check_sat


@pytest.mark.parametrize(
    "token, value",
    [("0", 0), ("42", 42), ("3.25", 3.25), ("0.5", 0.5)],
)
def test_reader_reads_smtlib_numerals(token, value):
    info = read_script(f"(declare-const p Bool)\n(assert (and p (< {token} 1)))\n")
    assert info.assert_count == 1
    [atom] = smtlib._parse_sexps([token])
    assert atom == value and type(atom) is type(value)


@pytest.mark.parametrize("token", ["inf", "nan", "Infinity", "-1", "007", "1e5", "1.", "1_0"])
def test_reader_takes_other_tokens_as_symbols(token):
    # Only SMT-LIB numerals and decimals are numbers; Python's int() and
    # float() accept these, and an undeclared one used to pass.
    assert smtlib._parse_sexps([token]) == [token]
    with pytest.raises(SmtError, match=f"unknown symbol '{token}'"):
        read_script(f"(declare-const p Bool)\n(assert (and p {token}))\n")


def test_reader_accepts_declared_float_like_symbols():
    m = elaborate(
        parse_module(
            "class S\ndecl inf : S -> Boolean\ndecl nan : S -> Boolean\n\n"
            "rule <r>\n  for x: S\n  if inf x\n  then nan x\n"
        )
    )
    typecheck_module(m)
    info = read_script(emit_smtlib(rules_to_formulas(m)))
    assert info.symbols["inf"] == 1 and info.symbols["nan"] == 1


@pytest.mark.parametrize(
    "script, message",
    [
        ("(assert |abc", "unterminated |symbol|"),
        ('(assert "abc', "unterminated string literal"),
        ('(assert "a""', "unterminated string literal"),
        ('(assert "a" |b', "unterminated |symbol|"),
        ('(assert |b "a', "unterminated |symbol|"),
    ],
)
def test_reader_reports_unterminated_tokens(script, message):
    with pytest.raises(SmtError, match=f"^{re.escape(message)}$"):
        read_script(script)


@pytest.mark.parametrize(
    "value, text",
    [
        (1.5, "1.5"),
        (100.0, "100.0"),
        (-0.25, "(- 0.25)"),
        (1e16, "10000000000000000.0"),
        (1.2345678901234567e19, "12345678901234567000.0"),
        (1.5e-7, "0.00000015"),
    ],
)
def test_floats_emit_as_smtlib_decimals(value, text):
    assert term(FloatLit(value)) == text
    if value >= 0:
        assert smtlib._parse_sexps([text]) == [value]


def test_emitted_large_float_reads_back():
    m = elaborate(
        parse_module(
            "class S\ndecl f : S -> Float\ndecl q : S -> Boolean\n\n"
            "rule <r>\n  for x: S\n  if f x > 12345678901234567890.5\n  then q x\n"
        )
    )
    typecheck_module(m)
    text = emit_smtlib(rules_to_formulas(m))
    assert "(> (f x) 12345678901234567000.0)" in text
    assert read_script(text).assert_count == 3  # isS axiom, rule, inversion


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_floats_are_not_emitted(value):
    with pytest.raises(SmtError, match="no SMT-LIB decimal"):
        term(FloatLit(value))
