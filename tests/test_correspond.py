"""Transfer of finite models between the two restriction semantics."""

import random
from dataclasses import replace

from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import load_case
from normlog.correspond import (
    _Reader,
    _check_against,
    build_correspondence,
    check_model_correspondence,
    to_deriv,
    to_precond,
)
from normlog.models import enumerate_models
from normlog.parser import parse_module
from normlog.randgen import random_annotated_module
from normlog.syntax import ClassT, IntT
from normlog.typecheck import elaborate, typecheck_module

_SIZES = {"Vehicle": 1, "Day": 1, "Road": 1}
_INTS = (90, 130, 320)


def test_pair_structure_for_the_speed_limit():
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    assert pair.lifted == {
        "maxSp": (
            "Rulename_maxSp",
            "maxSp+",
            (ClassT("Vehicle"), ClassT("Day"), ClassT("Road"), IntT()),
        )
    }
    assert pair.constants == {
        "Rulename_maxSp": ("maxSpCarWorkday", "maxSpCarHighway", "maxSpSportsCar")
    }
    assert sorted(pair.normalized) == [
        "maxSpCarHighway",
        "maxSpCarWorkday",
        "maxSpSportsCar",
    ]


def test_speed_limit_correspondence_holds():
    rep = check_model_correspondence(
        load_case("speedlimit_repaired.l4"), _SIZES, _INTS
    )
    assert rep.ok
    assert rep.checked_precond == 12
    assert rep.checked_deriv == 12
    assert rep.to_json() == {
        "checked_precond": 12,
        "checked_deriv": 12,
        "ok": True,
        "violations": [],
    }


def test_mapping_deriv_then_precond_restores_the_base_table():
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    for mp in enumerate_models(pair.fs_precond, _SIZES, _INTS):
        md = to_deriv(pair, mp)
        assert set(md.tables) >= {"maxSp+"}
        assert "maxSp" not in md.tables
        back = to_precond(pair, md)
        assert back.tables["maxSp"] == mp.tables["maxSp"]


def test_derived_table_is_keyed_by_rule_name_constants():
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    mp = next(iter(enumerate_models(pair.fs_precond, _SIZES, _INTS)))
    md = to_deriv(pair, mp)
    rule_names = {k[0] for k in md.tables["maxSp+"]}
    assert rule_names == {"maxSpCarWorkday", "maxSpCarHighway", "maxSpSportsCar"}


def test_tampered_formula_set_produces_violations():
    """Dropping the closure of the lifted predicate admits derivability
    models that no longer transfer: something is derived by a rule
    whose precondition never held."""
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    weakened = replace(
        pair.fs_deriv,
        formulas=tuple(
            f for f in pair.fs_deriv.formulas if not f[0].startswith("inversion")
        ),
    )
    violations = []
    reader = _Reader()  # compiles the formulas once for all the models
    for md in enumerate_models(weakened, _SIZES, _INTS):
        mp = to_precond(pair, md)
        _check_against(pair.fs_precond, mp, "deriv->precond", violations, cap=5, reader=reader)
    assert violations
    assert len(violations) <= 5
    assert all(v.direction == "deriv->precond" for v in violations)
    assert any(v.formula == "inversion maxSp" for v in violations)


def test_correspondence_with_predicate_dependencies():
    # r1's precondition mentions the lifted predicate q, so its deriv
    # form gains a fresh universally quantified rule-name parameter.
    m = elaborate(
        parse_module(
            """
class Thing
class Special extends Thing
decl p : Thing -> Boolean
decl q : Thing -> Boolean

rule <r1> {restrict: {subjectTo: r2}}
  for x : Thing
  if q x
  then p x

rule <r2>
  for x : Thing
  if isSpecial x
  then q x
"""
        )
    )
    typecheck_module(m)
    rep = check_model_correspondence(m, {"Thing": 2})
    assert rep.ok
    assert rep.checked_precond == 4 and rep.checked_deriv == 4


def test_unannotated_modules_correspond_as_well():
    # Lifting does not depend on defeasibility annotations.
    rep = check_model_correspondence(
        load_case("speedlimit_plain.l4"), _SIZES, _INTS
    )
    assert rep.ok
    assert rep.checked_precond == 8 and rep.checked_deriv == 8


def test_module_without_rules_builds_an_empty_pair():
    m = elaborate(parse_module("class Thing\ndecl p : Thing -> Boolean"))
    typecheck_module(m)
    pair = build_correspondence(m)
    assert pair.lifted == {}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_random_modules_correspond(seed):
    sample = random_annotated_module(random.Random(seed))
    m = elaborate(sample.module)
    typecheck_module(m)
    rep = check_model_correspondence(m, sample.sizes, sample.ints)
    assert rep.ok, rep.to_json()


def test_speed_limits_correspond_over_two_days():
    # Vehicle=1, Day=2, Road=1: Car and SportsCar membership 2 x 2 ways,
    # Workday 2 x 2 and Highway 2 ways, maxSp then fixed: 24 models on
    # each side.  The deriv side's lifted table has 18 cells.
    rep = check_model_correspondence(
        load_case("speedlimit_repaired.l4"), {"Vehicle": 1, "Day": 2, "Road": 1}, _INTS
    )
    assert (rep.checked_precond, rep.checked_deriv, rep.violations) == (24, 24, ())


def _two_things_with_integers(seed, n):
    rng = random.Random(seed)
    while n:
        sample = random_annotated_module(rng)
        if sample.sizes["Thing"] == 2 and sample.ints:
            n -= 1
            yield sample


def test_modules_of_two_things_with_integer_arguments_correspond():
    # The larger randgen family: two things and an integer argument,
    # so the lifted tables have 2 x 2 x 2 to 3 x 2 x 2 cells.
    checked = 0
    for sample in _two_things_with_integers(17, 30):
        m = elaborate(sample.module)
        typecheck_module(m)
        rep = check_model_correspondence(m, sample.sizes, sample.ints)
        assert rep.ok, rep.to_json()
        assert rep.checked_precond == rep.checked_deriv > 0
        checked += 1
    assert checked == 30
