"""Subtyping, expression typing, and module elaboration."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from normlog.parser import parse_expr, parse_module
from normlog.syntax import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    ClassDecl,
    ClassT,
    FunT,
    TupleT,
)
from normlog.typecheck import (
    Env,
    LTypeError,
    ancestors,
    elaborate,
    inclusion_map,
    inclusion_rule_name,
    is_subtype,
    sort_of,
    type_of,
    typecheck_module,
)

_HIER = {
    "Vehicle": ClassDecl("Vehicle"),
    "Car": ClassDecl("Car", "Vehicle"),
    "SportsCar": ClassDecl("SportsCar", "Car"),
    "Day": ClassDecl("Day"),
    "Workday": ClassDecl("Workday", "Day"),
}


def test_ancestors_and_sort():
    assert ancestors("SportsCar", _HIER) == ["Car", "Vehicle"]
    assert ancestors("Vehicle", _HIER) == []
    assert sort_of("SportsCar", _HIER) == "Vehicle"
    assert sort_of("Day", _HIER) == "Day"


def test_class_subtyping_follows_parent_chain():
    assert is_subtype(ClassT("SportsCar"), ClassT("Vehicle"), _HIER)
    assert is_subtype(ClassT("Car"), ClassT("Car"), _HIER)
    assert not is_subtype(ClassT("Vehicle"), ClassT("Car"), _HIER)
    assert not is_subtype(ClassT("Workday"), ClassT("Vehicle"), _HIER)
    assert is_subtype(ClassT("Car"), ClassT("Class"), _HIER)


def test_builtin_subtyping_is_identity():
    assert is_subtype(INT, INT, _HIER)
    assert not is_subtype(INT, FLOAT, _HIER)
    assert not is_subtype(BOOL, ClassT("Class"), _HIER)


def test_function_subtyping_variance():
    # contravariant domain, covariant codomain
    f_car = FunT(ClassT("Car"), ClassT("Car"))
    f_vehicle = FunT(ClassT("Vehicle"), ClassT("Vehicle"))
    assert is_subtype(FunT(ClassT("Vehicle"), ClassT("Car")), f_car, _HIER)
    assert not is_subtype(f_car, f_vehicle, _HIER)
    assert is_subtype(
        FunT(ClassT("Vehicle"), ClassT("SportsCar")),
        FunT(ClassT("SportsCar"), ClassT("Vehicle")),
        _HIER,
    )


def test_tuple_subtyping_componentwise():
    assert is_subtype(
        TupleT((ClassT("Car"), INT)), TupleT((ClassT("Vehicle"), INT)), _HIER
    )
    assert not is_subtype(TupleT((INT,)), TupleT((INT, INT)), _HIER)


_types = st.sampled_from(
    [
        INT,
        BOOL,
        ClassT("Vehicle"),
        ClassT("Car"),
        ClassT("SportsCar"),
        ClassT("Day"),
        ClassT("Workday"),
        FunT(ClassT("Car"), BOOL),
        FunT(ClassT("Vehicle"), BOOL),
        TupleT((ClassT("Car"), INT)),
    ]
)


@given(_types, _types, _types)
def test_subtyping_is_a_partial_order(a, b, c):
    assert is_subtype(a, a, _HIER)
    if is_subtype(a, b, _HIER) and is_subtype(b, a, _HIER):
        assert a == b
    if is_subtype(a, b, _HIER) and is_subtype(b, c, _HIER):
        assert is_subtype(a, c, _HIER)


# ---------------------------------------------------------------------------
# expression typing


def _env():
    m = parse_module(
        """
class Vehicle
class Car extends Vehicle { weight : Integer }
decl maxSp : Vehicle -> Integer -> Boolean
decl instCar : Car
"""
    )
    return Env.from_module(elaborate(m))


def test_type_of_application_accepts_subtype_argument():
    env = _env()
    assert type_of(env, parse_expr("maxSp instCar 90")) == BOOL
    assert type_of(env, parse_expr("maxSp instCar")) == FunT(INT, BOOL)


def test_type_of_rejects_wrong_argument():
    env = _env()
    with pytest.raises(LTypeError):
        type_of(env, parse_expr("maxSp 90 instCar"))


def test_type_of_connectives_require_booleans():
    env = _env()
    with pytest.raises(LTypeError):
        type_of(env, parse_expr("1 && true"))
    assert type_of(env, parse_expr("true --> false")) == BOOL


def test_type_of_comparison_and_equality():
    env = _env()
    assert type_of(env, parse_expr("3 < 4")) == BOOL
    assert type_of(env, parse_expr('"a" == "b"')) == BOOL
    with pytest.raises(LTypeError):
        type_of(env, parse_expr("3 < true"))
    with pytest.raises(LTypeError):
        type_of(env, parse_expr("instCar == 3"))


def test_type_of_quantifier_and_lambda():
    env = _env()
    assert type_of(env, parse_expr("forall v: Car. maxSp v 90")) == BOOL
    assert type_of(env, parse_expr("\\v : Car -> weight v")) == FunT(ClassT("Car"), INT)


def test_type_of_field_access():
    env = _env()
    assert type_of(env, parse_expr("instCar.weight")) == INT
    with pytest.raises(LTypeError):
        type_of(env, parse_expr("instCar.speed"))


def test_type_of_ite_joins_branches():
    env = _env()
    assert type_of(env, parse_expr("if true then 1 else 2")) == INT
    with pytest.raises(LTypeError):
        type_of(env, parse_expr("if 1 then 2 else 3"))


def test_type_of_unknown_name():
    with pytest.raises(LTypeError):
        type_of(_env(), parse_expr("mystery"))


# ---------------------------------------------------------------------------
# elaboration


def test_elaborate_adds_characteristic_predicates_and_inclusions():
    m = parse_module(
        """
class Vehicle
class Car extends Vehicle { weight : Integer }
class SportsCar extends Car
decl maxSp : Vehicle -> Integer -> Boolean
"""
    )
    em = elaborate(m)
    sysdecls = {d.name: d for d in em.decls if d.system}
    assert sysdecls["isCar"].type == FunT(ClassT("Vehicle"), BOOL)
    assert sysdecls["isSportsCar"].type == FunT(ClassT("Vehicle"), BOOL)
    assert sysdecls["weight"].type == FunT(ClassT("Car"), INT)

    incl = em.rule_map()[inclusion_rule_name("Car", "Vehicle")]
    assert incl.system
    assert incl.params == (("x", ClassT("Vehicle")),)
    assert str(incl.precond) == "isCar x"
    assert str(incl.postcond) == "isVehicle x"
    assert inclusion_rule_name("SportsCar", "Car") in em.rule_map()


def test_elaborate_is_idempotent():
    m = elaborate(parse_module("class Vehicle\nclass Car extends Vehicle"))
    assert elaborate(m) == m


def test_elaborate_adopts_identical_user_declaration():
    m = parse_module(
        """
class Vehicle
class Car extends Vehicle
decl isCar : Vehicle -> Boolean
"""
    )
    em = elaborate(m)
    assert sum(d.name == "isCar" for d in em.decls) == 1
    assert next(d for d in em.decls if d.name == "isCar").system


def test_elaborate_rejects_conflicting_user_declaration():
    m = parse_module(
        """
class Vehicle
class Car extends Vehicle
decl isCar : Vehicle -> Integer
"""
    )
    with pytest.raises(LTypeError):
        elaborate(m)


def test_inclusion_map_reaches_all_ancestors():
    incl = inclusion_map(_HIER)
    assert incl["isSportsCar"] == frozenset({"isCar", "isVehicle"})
    assert incl["isVehicle"] == frozenset()


def test_typecheck_module_flags_ill_typed_rule():
    m = parse_module(
        """
class Vehicle
decl maxSp : Vehicle -> Integer -> Boolean

rule <bad>
  for v : Vehicle
  if maxSp v
  then maxSp v 90
"""
    )
    with pytest.raises(LTypeError) as exc:
        typecheck_module(elaborate(m))
    assert "bad" in str(exc.value)


def test_typecheck_module_accepts_cases_fixture():
    from conftest import load_case

    load_case("speedlimit_repaired.l4")
