"""AST helpers, the pretty printer, and module well-formedness checks."""

import pickle
from dataclasses import replace

import hypothesis.strategies as st
from hypothesis import given

from normlog.parser import parse_expr, parse_module
from normlog.syntax import (
    BOOL,
    FALSE,
    INT,
    TRUE,
    And,
    App,
    BoolLit,
    ClassT,
    Cmp,
    Eq,
    Exists,
    FieldAccess,
    Forall,
    FunT,
    IfThenElse,
    Implies,
    IntLit,
    Lambda,
    Not,
    Or,
    StringLit,
    TupleT,
    Var,
    apply,
    atom_parts,
    check_well_formed,
    conj,
    conjuncts,
    disj,
    free_vars,
    fresh_name,
    fun_type,
    print_expr,
    substitute,
    uncurry,
)


def test_conj_left_nested():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert conj([a, b, c]) == And(And(a, b), c)
    assert conj([a]) == a
    assert conj([]) == TRUE


def test_disj():
    a, b = Var("a"), Var("b")
    assert disj([a, b]) == Or(a, b)
    assert disj([]) == FALSE


def test_conjuncts_flattens_nesting():
    a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
    e = And(And(a, And(b, c)), d)
    assert conjuncts(e) == [a, b, c, d]
    assert conjuncts(a) == [a]


def test_apply_builds_curried_applications():
    e = apply("maxSp", Var("v"), Var("d"))
    assert e == App(App(Var("maxSp"), Var("v")), Var("d"))
    assert apply("p") == Var("p")


def test_atom_parts():
    assert atom_parts(Var("p")) == ("p", ())
    assert atom_parts(apply("p", Var("x"), IntLit(3))) == ("p", (Var("x"), IntLit(3)))
    assert atom_parts(And(Var("a"), Var("b"))) is None
    assert atom_parts(App(IntLit(1), Var("x"))) is None


def test_fun_type_and_uncurry():
    t = fun_type(ClassT("Car"), INT, BOOL)
    assert t == FunT(ClassT("Car"), FunT(INT, BOOL))
    assert uncurry(t) == ((ClassT("Car"), INT), BOOL)
    assert uncurry(BOOL) == ((), BOOL)


def test_free_vars_respects_binders():
    e = Forall("x", ClassT("Car"), And(apply("p", Var("x")), Var("y")))
    assert free_vars(e) == {"p", "y"}
    lam = Lambda("y", BOOL, App(Var("y"), Var("z")))
    assert free_vars(lam) == {"z"}


def test_substitute_straightforward():
    e = And(Var("x"), apply("p", Var("x")))
    got = substitute(e, {"x": IntLit(5)})
    assert got == And(IntLit(5), apply("p", IntLit(5)))


def test_substitute_leaves_bound_occurrences():
    e = Forall("x", INT, Eq(Var("x"), Var("y")))
    got = substitute(e, {"x": IntLit(1)})
    assert got == e


def test_substitute_avoids_capture():
    # Replacing y by x under a binder on x must rename the binder.
    e = Forall("x", INT, Eq(Var("x"), Var("y")))
    got = substitute(e, {"y": Var("x")})
    assert isinstance(got, Forall)
    assert got.var != "x"
    assert got.body == Eq(Var(got.var), Var("x"))


def test_fresh_name():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1", "x2"}) == "x3"


def test_loc_is_ignored_by_equality():
    from normlog.syntax import Loc

    assert Var("a", loc=Loc(1, 1)) == Var("a", loc=Loc(9, 9)) == Var("a")


# ---------------------------------------------------------------------------
# printer round-trips

_names = st.sampled_from(["a", "b", "c", "p", "q", "x", "y"])


def _exprs():
    leaves = st.one_of(
        st.builds(Var, _names),
        st.builds(BoolLit, st.booleans()),
        st.builds(IntLit, st.integers(-99, 99)),
        st.builds(StringLit, st.sampled_from(["hi", "lo", ""])),
    )

    def extend(inner):
        return st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
            st.builds(Eq, inner, inner),
            st.builds(
                lambda op, lhs, rhs: Cmp(op, lhs, rhs),
                st.sampled_from(["<", "<=", ">", ">="]),
                inner,
                inner,
            ),
            st.builds(lambda f, a: App(f, a), inner, inner),
            st.builds(IfThenElse, inner, inner, inner),
            st.builds(lambda v, b: Forall(v, ClassT("Car"), b), _names, inner),
            st.builds(lambda v, b: Exists(v, INT, b), _names, inner),
            st.builds(lambda v, b: Lambda(v, BOOL, b), _names, inner),
            st.builds(
                lambda v, b: Lambda(v, FunT(ClassT("Car"), BOOL), b), _names, inner
            ),
            st.builds(
                lambda o, f: FieldAccess(o, f), inner, st.sampled_from(["speed", "age"])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=14)


@given(_exprs())
def test_parse_inverts_print(e):
    assert parse_expr(print_expr(e)) == e


def test_print_precedence_samples():
    e = Implies(And(Var("a"), Or(Not(Var("b")), Var("c"))), Eq(IntLit(-3), IntLit(4)))
    assert print_expr(e) == "a && (not b || c) --> -3 == 4"
    assert print_expr(And(And(Var("a"), Var("b")), Var("c"))) == "a && b && c"
    assert print_expr(And(Var("a"), And(Var("b"), Var("c")))) == "a && (b && c)"


def test_tuple_type_str():
    assert str(TupleT((INT, BOOL))) == "(Integer, Boolean)"
    assert str(FunT(FunT(INT, INT), BOOL)) == "(Integer -> Integer) -> Boolean"


# ---------------------------------------------------------------------------
# module validation


def _errors(text):
    return [d.message for d in check_well_formed(parse_module(text)) if d.severity == "error"]


def test_well_formed_clean_module():
    text = """
class Vehicle
class Car extends Vehicle
decl maxSp : Vehicle -> Integer -> Boolean

rule <r1>
  for v : Car
  if isCar v
  then maxSp v 90
"""
    assert _errors(text) == []


def test_duplicate_class_reported():
    assert any(
        "duplicate class 'Car'" in m
        for m in _errors("class Car\nclass Car extends Car")
    )


def test_unknown_parent_reported():
    assert any("unknown class" in m for m in _errors("class Car extends Vehicle"))


def test_cyclic_hierarchy_reported():
    text = "class A extends B\nclass B extends A"
    assert any("cyclic class hierarchy" in m for m in _errors(text))


def test_reserved_class_name_reported():
    assert any("reserved" in m for m in _errors("class Integer"))


def test_free_variable_in_rule_reported():
    text = """
class Car
decl p : Car -> Boolean

rule <r1>
  for v : Car
  if p w
  then p v
"""
    assert any("w" in m for m in _errors(text))


def test_unknown_rule_in_annotation_reported():
    text = """
class Car
decl p : Car -> Boolean

rule <r1> {restrict: {subjectTo: nosuch}}
  for v : Car
  if p v
  then p v
"""
    assert any("nosuch" in m for m in _errors(text))


def test_nodes_cache_their_structural_hash():
    a = And(App(Var("p"), Var("x")), Not(Var("q")))
    b = And(App(Var("p"), Var("x")), Not(Var("q")))
    text = repr(a)
    assert a is not b and hash(a) == hash(b) and a == b
    # The cache is no field: equality with an unhashed twin, repr,
    # replace and pickling ignore it.
    assert a._hash is not None and b == And(App(Var("p"), Var("x")), Not(Var("q")))
    assert repr(a) == text and "_hash" not in text
    c = replace(a, right=Var("r"))
    assert c._hash is None
    assert hash(c) == hash(And(App(Var("p"), Var("x")), Var("r"))) and c != a
    copy = pickle.loads(pickle.dumps(a))
    assert copy._hash is None and copy == a and hash(copy) == hash(a)


def test_cached_hash_is_the_dataclass_hash():
    # Sets and dicts of nodes iterate in the same order as with the
    # plain dataclass hash: the hash of the tuple of compared fields.
    e = Cmp("<", IntLit(1), Var("y"))
    assert hash(e) == hash(("<", IntLit(1), Var("y")))
    assert hash(Var("y")) == hash(("y",))
