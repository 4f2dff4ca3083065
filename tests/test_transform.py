"""The defeasibility pipeline: despite elimination, subjectTo splitting,
rule ordering, both restriction semantics, predicate lifting, and the
precondition simplifier."""

import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import load_case
from oracles import digraph_has_cycle, equivalent, is_topological
from normlog.parser import parse_module
from normlog.randgen import random_annotated_module
from normlog.syntax import (
    FALSE,
    TRUE,
    And,
    BoolLit,
    ClassT,
    Cmp,
    Derived,
    Eq,
    Implies,
    IntLit,
    Not,
    Or,
    Restrict,
    RestrictSubjectTo,
    Source,
    Var,
    apply,
    print_expr,
)
from normlog.transform import (
    CycleError,
    TransformError,
    Variant,
    despite_elim,
    final_rule_name,
    lift_predicates,
    order_edges,
    rule_order,
    rulename_class,
    simplify,
    subject_to_elim,
    transform_module,
)
from normlog.typecheck import elaborate, typecheck_module


def _module(text):
    m = elaborate(parse_module(text))
    typecheck_module(m)
    return m


def _user_rule(m_or_result, name):
    module = getattr(m_or_result, "module", m_or_result)
    return module.rule_map()[name]


# ---------------------------------------------------------------------------
# despite elimination


def test_despite_becomes_prepended_subject_to():
    m = _module(
        """
decl p : Boolean
rule <a> then p
rule <b> {restrict: {subjectTo: a}} then p
rule <c> {restrict: {despite: b}} then p
"""
    )
    out = {r.name: r for r in despite_elim(m.user_rules())}
    # b already deferred to a; c's despite pushes c in FRONT of that list
    assert out["b"].annotation == Restrict(subject_to=("c", "a"))
    assert out["c"].annotation is None
    assert out["a"].annotation is None


def test_despite_on_rule_without_annotation():
    m = _module(
        """
decl p : Boolean
rule <a> then p
rule <b> {restrict: {despite: a}} then p
"""
    )
    out = {r.name: r for r in despite_elim(m.user_rules())}
    assert out["a"].annotation == Restrict(subject_to=("b",))


def test_despite_elim_is_a_single_left_to_right_pass():
    # Both c and d defer a to themselves; order of despite processing
    # is module order, so d ends up in front of c.
    m = _module(
        """
decl p : Boolean
rule <a> then p
rule <c> {restrict: {despite: a}} then p
rule <d> {restrict: {despite: a}} then p
"""
    )
    out = {r.name: r for r in despite_elim(m.user_rules())}
    assert out["a"].annotation == Restrict(subject_to=("d", "c"))


def test_speedlimit_despite_order():
    m = load_case("speedlimit_repaired.l4")
    out = {r.name: r for r in despite_elim(m.user_rules())}
    assert out["maxSpCarHighway"].annotation == Restrict(
        subject_to=("maxSpSportsCar", "maxSpCarWorkday")
    )


# ---------------------------------------------------------------------------
# subjectTo elimination


def test_subject_to_elim_splits_rules():
    m = load_case("speedlimit_repaired.l4")
    out = subject_to_elim(despite_elim(m.user_rules()))
    names = [r.name for r in out]
    assert names == [
        "maxSpCarWorkday",
        "maxSpCarHighway'Orig",
        "maxSpCarHighway",
        "maxSpSportsCar'Orig",
        "maxSpSportsCar",
    ]
    orig = next(r for r in out if r.name == "maxSpCarHighway'Orig")
    derived = next(r for r in out if r.name == "maxSpCarHighway")
    assert orig.annotation == Source()
    assert str(orig.precond) == "isCar v && isHighway r"
    assert derived.is_bodyless()
    assert derived.annotation == Derived(
        RestrictSubjectTo("maxSpCarHighway'Orig", ("maxSpSportsCar", "maxSpCarWorkday"))
    )


def test_unannotated_rules_pass_through_unchanged():
    m = load_case("speedlimit_plain.l4")
    assert subject_to_elim(despite_elim(m.user_rules())) == m.user_rules()


def test_final_rule_name():
    m = load_case("speedlimit_repaired.l4")
    out = subject_to_elim(despite_elim(m.user_rules()))
    finals = [final_rule_name(r) for r in out]
    assert finals == [
        "maxSpCarWorkday",
        "maxSpCarHighway",
        "maxSpCarHighway",
        "maxSpSportsCar",
        "maxSpSportsCar",
    ]


# ---------------------------------------------------------------------------
# rule ordering


def test_order_edges_point_at_the_derived_rule():
    m = load_case("speedlimit_repaired.l4")
    out = subject_to_elim(despite_elim(m.user_rules()))
    assert set(order_edges(out)) == {
        ("maxSpCarHighway'Orig", "maxSpCarHighway"),
        ("maxSpSportsCar", "maxSpCarHighway"),
        ("maxSpCarWorkday", "maxSpCarHighway"),
        ("maxSpSportsCar'Orig", "maxSpSportsCar"),
        ("maxSpCarWorkday", "maxSpSportsCar"),
    }


def test_rule_order_sequence_is_topological_and_deterministic():
    m = load_case("speedlimit_repaired.l4")
    out = subject_to_elim(despite_elim(m.user_rules()))
    order = rule_order(out)
    assert is_topological(order.sequence, order.edges)
    assert order.sequence == (
        "maxSpCarHighway'Orig",
        "maxSpCarWorkday",
        "maxSpSportsCar'Orig",
        "maxSpSportsCar",
        "maxSpCarHighway",
    )


def test_cycle_error_lists_the_cycle():
    m = _module(
        """
decl p : Boolean
rule <a> {restrict: {subjectTo: b}} then p
rule <b> {restrict: {subjectTo: a}} then p
"""
    )
    with pytest.raises(CycleError) as exc:
        transform_module(m, Variant.PRECOND)
    assert str(exc.value) == "cyclic rule ordering: a < b < a"
    assert exc.value.cycle == ("a", "b")


def test_cyclic_speedlimit_fixture_is_rejected():
    m = load_case("speedlimit_original.l4")
    with pytest.raises(CycleError) as exc:
        transform_module(m, Variant.PRECOND)
    assert (
        str(exc.value)
        == "cyclic rule ordering: maxSpCarHighway < maxSpCarWorkday < maxSpSportsCar < maxSpCarHighway"
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_rule_order_agrees_with_independent_cycle_check(seed):
    sample = random_annotated_module(random.Random(seed))
    rules = subject_to_elim(despite_elim(sample.module.user_rules()))
    edges = order_edges(rules)
    nodes = [r.name for r in rules]
    cyclic = digraph_has_cycle(nodes, edges)
    try:
        order = rule_order(rules)
    except CycleError:
        assert cyclic
    else:
        assert not cyclic
        assert is_topological(order.sequence, edges)
        assert sorted(order.sequence) == sorted(nodes)


# ---------------------------------------------------------------------------
# precondition-restriction semantics


def test_precond_variant_nests_resolved_overriders():
    res = transform_module(load_case("speedlimit_repaired.l4"), Variant.PRECOND)
    pre = {r.name: str(r.precond) for r in res.module.user_rules()}
    assert pre["maxSpCarWorkday"] == "isCar v && isWorkday d"
    assert pre["maxSpSportsCar"] == (
        "isSportsCar v && isHighway r && not (isCar v && isWorkday d)"
    )
    # The sports-car restriction is negated in its RESOLVED form, so the
    # workday exception appears again inside it.
    assert pre["maxSpCarHighway"] == (
        "isCar v && isHighway r"
        " && not (isSportsCar v && isHighway r && not (isCar v && isWorkday d))"
        " && not (isCar v && isWorkday d)"
    )


def test_precond_variant_drops_source_rules_and_keeps_order():
    res = transform_module(load_case("speedlimit_repaired.l4"), Variant.PRECOND)
    assert [r.name for r in res.module.user_rules()] == [
        "maxSpCarWorkday",
        "maxSpCarHighway",
        "maxSpSportsCar",
    ]
    assert all(r.annotation is None for r in res.module.user_rules())


def test_simplified_preconds():
    res = transform_module(
        load_case("speedlimit_repaired.l4"), Variant.PRECOND, simplify_preconds=True
    )
    pre = {r.name: str(r.precond) for r in res.module.user_rules()}
    assert pre["maxSpCarHighway"] == (
        "isCar v && isHighway r && not isSportsCar v && not isWorkday d"
    )
    assert pre["maxSpSportsCar"] == "isSportsCar v && isHighway r && not isWorkday d"


def test_simplified_precond_is_equivalent_to_raw():
    raw = transform_module(load_case("speedlimit_repaired.l4"), Variant.PRECOND)
    cooked = transform_module(
        load_case("speedlimit_repaired.l4"), Variant.PRECOND, simplify_preconds=True
    )
    implications = [
        ("isSportsCar v", "isCar v"),
        ("isCar v", "isVehicle v"),
        ("isWorkday d", "isDay d"),
        ("isHighway r", "isRoad r"),
    ]
    for r1, r2 in zip(raw.module.user_rules(), cooked.module.user_rules()):
        ok, val = equivalent(r1.precond, r2.precond, implications)
        assert ok, (r1.name, val)


def test_interface_mismatch_is_rejected():
    m = _module(
        """
class Thing
decl p : Thing -> Boolean
decl w : Boolean
rule <a> {restrict: {subjectTo: b}}
  for x : Thing
  if isThing x
  then p x
rule <b>
  if w
  then w
"""
    )
    with pytest.raises(TransformError) as exc:
        transform_module(m, Variant.PRECOND)
    assert "different parameter interfaces" in str(exc.value)


def test_overrider_parameters_are_renamed_positionally():
    m = _module(
        """
class Thing
decl p : Thing -> Boolean
decl q : Thing -> Boolean
rule <a>
  for y : Thing
  if isThing y
  then q y
rule <b> {restrict: {subjectTo: a}}
  for x : Thing
  if p x
  then p x
"""
    )
    res = transform_module(m, Variant.PRECOND)
    assert str(_user_rule(res, "b").precond) == "p x && not isThing x"


# ---------------------------------------------------------------------------
# predicate lifting and the derivability semantics


def test_lift_creates_rulename_sort_and_constants():
    res = transform_module(load_case("speedlimit_repaired.l4"), Variant.DERIV)
    m = res.module
    cls = next(c for c in m.classes if c.name == "Rulename_maxSp")
    assert cls.rulename_for == "maxSp+"
    lifted = next(d for d in m.decls if d.name == "maxSp+")
    assert str(lifted.type) == "Rulename_maxSp -> Vehicle -> Day -> Road -> Integer -> Boolean"
    assert {g.name for g in m.globals if str(g.type) == "Rulename_maxSp"} == {
        "maxSpCarWorkday",
        "maxSpCarHighway",
        "maxSpSportsCar",
    }
    assert rulename_class("maxSp") == "Rulename_maxSp"


def test_deriv_variant_negates_overrider_conclusions():
    res = transform_module(load_case("speedlimit_repaired.l4"), Variant.DERIV)
    pre = {r.name: str(r.precond) for r in res.module.user_rules()}
    post = {r.name: str(r.postcond) for r in res.module.user_rules()}
    assert post["maxSpCarWorkday"] == "maxSp+ maxSpCarWorkday v d r 90"
    assert pre["maxSpCarHighway"] == (
        "isCar v && isHighway r"
        " && not maxSp+ maxSpSportsCar v d r 320"
        " && not maxSp+ maxSpCarWorkday v d r 90"
    )
    assert pre["maxSpSportsCar"] == (
        "isSportsCar v && isHighway r && not maxSp+ maxSpCarWorkday v d r 90"
    )


def test_lift_rewrites_precondition_occurrences_with_fresh_parameter():
    m = _module(
        """
class Thing
decl p : Thing -> Boolean
decl q : Thing -> Boolean

rule <r1>
  for x : Thing
  if q x
  then p x

rule <r2> {restrict: {subjectTo: r1}}
  for x : Thing
  if isThing x
  then q x
"""
    )
    lifted = lift_predicates(m)
    r1 = lifted.rule_map()["r1"]
    assert r1.params == (("x", ClassT("Thing")), ("rn", ClassT("Rulename_q")))
    assert str(r1.precond) == "q+ rn x"
    assert str(r1.postcond) == "p+ r1 x"

    res = transform_module(m, Variant.DERIV)
    assert str(_user_rule(res, "r2").precond) == "isThing x && not p+ r1 x"

    # Occurrences are named in pre-order: an atom before the atoms in its
    # arguments, in rules and in assertions alike.
    m = _module(
        """
class Thing
decl p : Thing -> Boolean
decl g : Boolean -> Boolean
rule <r1> for x : Thing if isThing x then p x
rule <r2> for b : Boolean if b then g b
rule <r3> for x : Thing if g (p x) && p x then p x
assert <a> {SMT: {valid}} forall x: Thing. g (p x) --> p x
"""
    )
    lifted = lift_predicates(m)
    r3 = lifted.rule_map()["r3"]
    assert [n for n, _ in r3.params] == ["x", "rn", "rn1", "rn2"]
    assert str(r3.precond) == "g+ rn (p+ rn1 x) && p+ rn2 x"
    assert str(lifted.assertions[0].formula) == (
        "forall x: Thing. (exists rn: Rulename_g. g+ rn (exists rn1: Rulename_p. p+ rn1 x))"
        " --> (exists rn2: Rulename_p. p+ rn2 x)"
    )


def test_lift_collisions_are_rejected():
    base = """
class Thing
decl p : Thing -> Boolean
rule <r1> {restrict: {subjectTo: r2}}
  for x : Thing
  if isThing x
  then p x
rule <r2>
  for x : Thing
  if isThing x
  then p x
"""
    with pytest.raises(TransformError, match="already exists"):
        transform_module(_module(base + "\nclass Rulename_p"), Variant.DERIV)
    with pytest.raises(TransformError, match="already declared"):
        transform_module(
            _module(base + "\ndecl p+ : Thing -> Boolean"), Variant.DERIV
        )


def test_lifting_characteristic_predicates_is_rejected():
    m = _module(
        """
class Thing
class Special extends Thing
rule <r1> {restrict: {subjectTo: r2}}
  for x : Thing
  if isThing x
  then isSpecial x
rule <r2>
  for x : Thing
  if isThing x
  then isSpecial x
"""
    )
    with pytest.raises(TransformError, match="characteristic predicate"):
        transform_module(m, Variant.DERIV)


def test_transformed_modules_typecheck():
    for variant in (Variant.PRECOND, Variant.DERIV):
        res = transform_module(load_case("speedlimit_repaired.l4"), variant)
        typecheck_module(res.module)


def test_lift_rewrites_assertions_existentially():
    res = transform_module(load_case("speedlimit_repaired.l4"), Variant.DERIV)
    (a,) = res.module.assertions
    text = str(a.formula)
    assert "(exists rn: Rulename_maxSp. maxSp+ rn v d r s1)" in text
    assert "(exists rn1: Rulename_maxSp. maxSp+ rn1 v d r s2)" in text
    assert "maxSp v" not in text


def test_trace_records_the_pipeline():
    res = transform_module(load_case("speedlimit_repaired.l4"), Variant.PRECOND)
    assert res.trace[0] == "despite-elim: maxSpCarHighway subjectTo maxSpSportsCar, maxSpCarWorkday"
    assert "subjectTo-elim: split off maxSpCarHighway'Orig" in res.trace
    assert res.trace[-1] == "resolve: maxSpCarHighway"


# ---------------------------------------------------------------------------
# the simplifier


_INCL = {"isC": frozenset({"isB", "isA"}), "isB": frozenset({"isA"}), "isA": frozenset()}
_IMPL = [("isC x", "isB x"), ("isB x", "isA x")]
_ATOMS = [
    Var("p"),
    Var("q"),
    apply("isA", Var("x")),
    apply("isB", Var("x")),
    apply("isC", Var("x")),
]


def _bool_exprs():
    leaves = st.one_of(st.sampled_from(_ATOMS), st.builds(BoolLit, st.booleans()))

    def extend(inner):
        return st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
        )

    return st.recursive(leaves, extend, max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(_bool_exprs())
def test_simplify_preserves_truth_tables(e):
    s = simplify(e, _INCL)
    ok, val = equivalent(e, s, _IMPL)
    assert ok, (print_expr(e), print_expr(s), val)


@settings(max_examples=200, deadline=None)
@given(_bool_exprs())
def test_simplify_is_idempotent(e):
    s = simplify(e, _INCL)
    assert simplify(s, _INCL) == s


def test_simplify_examples():
    p, q = Var("p"), Var("q")
    assert simplify(And(p, p)) == p
    assert simplify(And(p, Not(p))) == BoolLit(False)
    assert simplify(Or(p, BoolLit(True))) == BoolLit(True)
    assert simplify(Implies(p, p)) == BoolLit(True)
    # sibling context: q is known true inside the right conjunct
    assert simplify(And(q, Or(q, p))) == q
    # inclusion knowledge: isC forces isB
    e = And(apply("isC", Var("x")), apply("isB", Var("x")))
    assert simplify(e, _INCL) == apply("isC", Var("x"))
    contradictory = And(apply("isC", Var("x")), Not(apply("isA", Var("x"))))
    assert simplify(contradictory, _INCL) == BoolLit(False)


def test_simplify_returns_the_shared_literals():
    p = Var("p")
    assert simplify(And(p, Not(p))) is FALSE and simplify(Or(p, Not(p))) is TRUE
    assert simplify(Implies(p, p)) is TRUE and simplify(Not(BoolLit(True))) is FALSE
    assert simplify(Eq(IntLit(1), IntLit(2))) is FALSE
    assert simplify(Cmp("<", IntLit(1), IntLit(2))) is TRUE
