"""Finite-carrier model enumeration and assertion checking."""

from dataclasses import replace

import pytest

from conftest import load_case
from normlog.models import (
    FormulaSet,
    ModelError,
    ResourceCapError,
    adjusted_rules,
    check_assertion,
    enumerate_models,
    guard_quantifiers,
    rewrite_fields,
    rules_to_formulas,
)
from normlog.parser import parse_expr, parse_module, parse_type
from normlog.syntax import FunDecl, free_vars
from oracles import eval_expr, reference_models
from normlog.typecheck import Env, elaborate, typecheck_module


def _module(text):
    m = elaborate(parse_module(text))
    typecheck_module(m)
    return m


# ---------------------------------------------------------------------------
# formula preparation


def test_guard_quantifiers_relativizes_subclass_binders():
    m = load_case("speedlimit_plain.l4")
    env = Env.from_module(m)
    e = parse_expr("forall c: Car. exists d: Workday. maxSp c d")
    assert str(guard_quantifiers(e, env)) == (
        "forall c: Vehicle. isCar c --> (exists d: Day. isWorkday d && maxSp c d)"
    )


def test_guard_quantifiers_leaves_sort_binders_alone():
    m = load_case("speedlimit_plain.l4")
    env = Env.from_module(m)
    e = parse_expr("forall v: Vehicle. isCar v")
    assert guard_quantifiers(e, env) == e


def test_rewrite_fields_turns_attribute_access_into_application():
    e = parse_expr("x.speed && p x.age")
    assert str(rewrite_fields(e)) == "speed x && p (age x)"


def test_rules_to_formulas_layout():
    fs = rules_to_formulas(load_case("speedlimit_plain.l4"))
    assert fs.sorts == ("Vehicle", "Day", "Road")
    assert fs.fixed == ()
    assert fs.char_true == ("isVehicle", "isDay", "isRoad")
    assert [n for n, _ in fs.formulas] == [
        "rule maxSpCarWorkday",
        "rule maxSpCarHighway",
        "rule incl'Car'Vehicle",
        "rule incl'Workday'Day",
        "rule incl'Highway'Road",
        "inversion maxSp",
    ]
    # every emitted formula is closed
    decl_names = {d.name for d in fs.decls}
    for name, f in fs.formulas:
        assert free_vars(f) <= decl_names, name


def test_rules_to_formulas_fixes_rulename_carriers():
    from normlog.transform import Variant, transform_module

    res = transform_module(load_case("speedlimit_repaired.l4"), Variant.DERIV)
    fs = rules_to_formulas(res.module)
    assert ("Rulename_maxSp", ("maxSpCarWorkday", "maxSpCarHighway", "maxSpSportsCar")) in fs.fixed
    assert "Rulename_maxSp" in fs.sorts


# ---------------------------------------------------------------------------
# evaluation and enumeration


def _interp_tables():
    carriers = {"S": ("s0", "s1")}
    tables = {
        "p": {("s0",): True, ("s1",): False},
        "isS": {("s0",): True, ("s1",): True},
    }
    return carriers, tables


def test_eval_expr_basics():
    carriers, tables = _interp_tables()
    env = {"x": "s0"}
    assert eval_expr(parse_expr("p x"), tables, carriers, (), env) is True
    assert eval_expr(parse_expr("not p x"), tables, carriers, (), env) is False
    assert eval_expr(parse_expr("forall y: S. p y"), tables, carriers, (), {}) is False
    assert eval_expr(parse_expr("exists y: S. p y"), tables, carriers, (), {}) is True
    assert eval_expr(parse_expr("3 < 4 && 2 == 2"), tables, carriers, (), {}) is True
    assert (
        eval_expr(parse_expr("forall n: Integer. n < 5"), tables, carriers, (3, 9), {})
        is False
    )


def test_enumerate_models_counts_free_predicate():
    m = _module("class S\ndecl p : S -> Boolean")
    fs = rules_to_formulas(m, include_inversions=False)
    models = list(enumerate_models(fs, {"S": 2}, ()))
    assert len(models) == 4


def test_closed_world_inversion_pins_unconcluded_predicates():
    m = _module("class S\ndecl p : S -> Boolean")
    models = list(enumerate_models(rules_to_formulas(m), {"S": 2}, ()))
    assert len(models) == 1
    assert set(models[0].tables["p"].values()) == {False}


def test_characteristic_predicates_of_sorts_are_pinned_true():
    m = _module("class S\ndecl p : S -> Boolean")
    (model,) = enumerate_models(rules_to_formulas(m), {"S": 2}, ())
    assert model.tables["isS"] == {("s0",): True, ("s1",): True}


def test_rule_constrains_models():
    m = _module(
        """
class S
decl p : S -> Boolean
rule <all>
  for x : S
  if isS x
  then p x
"""
    )
    (model,) = enumerate_models(rules_to_formulas(m), {"S": 2}, ())
    assert set(model.tables["p"].values()) == {True}


def test_subclass_membership_is_contingent():
    m = _module("class S\nclass Sub extends S")
    models = list(enumerate_models(rules_to_formulas(m), {"S": 2}, ()))
    # isSub is free: any subset of the carrier may be the subclass
    assert len(models) == 4


def test_node_budget_is_enforced():
    m = _module("class S\ndecl p : S -> Boolean\ndecl q : S -> Boolean")
    fs = rules_to_formulas(m, include_inversions=False)
    with pytest.raises(ResourceCapError):
        list(enumerate_models(fs, {"S": 2}, (), node_budget=3))


def test_an_error_is_raised_where_the_whole_table_search_raises_it():
    # F is false for every table of p, so pruning by cell would skip the
    # rest of the search; but G, staged at h before F's stage at r, may
    # raise (7 is not among the integers) and must be evaluated first.
    decls = [("p", "S -> Boolean"), ("h", "Integer -> Boolean"), ("r", "S -> Boolean")]
    fs = FormulaSet(
        sorts=("S",),
        fixed=(),
        char_true=(),
        decls=tuple(FunDecl(n, parse_type(t)) for n, t in decls),
        formulas=(
            ("F", parse_expr("forall x: S. p x && not p x && (r x || true)")),
            ("G", parse_expr("h 7")),
        ),
    )
    for search in (enumerate_models, reference_models):
        with pytest.raises(ModelError, match="^partial application of 'h'$"):
            list(search(fs, {"S": 1}, (1, 2)))
    # Without G nothing is left to raise, and nothing satisfies F.
    assert list(enumerate_models(replace(fs, formulas=fs.formulas[:1]), {"S": 1}, (1, 2))) == []


def test_budget_counts_cell_assignments_and_pruning_is_by_cell():
    # "forall x. p x" is false as soon as one cell of p is: p takes
    # 2 + 2 + 2 assignments to become all true, then q's three cells
    # take their first value.  A whole-table search tries 8 tables of p.
    m = _module("class S\ndecl p : S -> Boolean\ndecl q : S -> Boolean")
    fs = rules_to_formulas(m, include_inversions=False)
    fs = replace(fs, formulas=(("all p", parse_expr("forall x: S. p x")),))
    model = next(enumerate_models(fs, {"S": 3}, (), node_budget=9))
    assert set(model.tables["p"].values()) == {True}
    assert set(model.tables["q"].values()) == {False}
    with pytest.raises(ResourceCapError, match="^model search exceeded 8 cell assignments$"):
        next(enumerate_models(fs, {"S": 3}, (), node_budget=8))


def test_interpretation_to_json_shape():
    m = _module("class S\ndecl p : S -> Boolean")
    (model,) = enumerate_models(rules_to_formulas(m), {"S": 1}, ())
    js = model.to_json()
    assert js["sorts"] == {"S": ["s0"]}
    assert ["s0", False] in js["tables"]["p"]


# ---------------------------------------------------------------------------
# assertion checking


_STATUS_MODULE = """
class S
decl p : S -> Boolean
rule <all>
  for x : S
  if isS x
  then p x
assert <every> {SMT: {valid}} forall x: S. p x
assert <none> {SMT: {valid}} forall x: S. not p x
assert <some> {SMT: {satisfiable}} exists x: S. p x
assert <gone> {SMT: {satisfiable}, rules: {del: all}} forall x: S. not p x
"""


def test_check_assertion_statuses():
    m = _module(_STATUS_MODULE)
    assert check_assertion(m, "every", {"S": 2}).status == "valid"
    out = check_assertion(m, "none", {"S": 2})
    assert out.status == "counter_model"
    assert not out.holds
    assert out.model is not None and set(out.model.tables["p"].values()) == {True}
    assert check_assertion(m, "some", {"S": 2}).status == "satisfiable"


def test_assertion_rule_deletion_is_honoured():
    m = _module(_STATUS_MODULE)
    # with <all> deleted, the closed-world inversion forces p empty
    out = check_assertion(m, "gone", {"S": 2})
    assert out.status == "satisfiable"
    adj = adjusted_rules(m, m.assertions[3])
    assert adj.rule_map().keys() == {r.name for r in m.rules} - {"all"}


def test_check_assertion_unknown_names():
    m = _module(_STATUS_MODULE)
    with pytest.raises(ModelError, match="no assertion named"):
        check_assertion(m, "nosuch", {"S": 1})


def test_adjusted_rules_validates_names():
    m = _module(
        _STATUS_MODULE.replace("rules: {del: all}", "rules: {del: phantom}")
    )
    with pytest.raises(ModelError, match="phantom"):
        check_assertion(m, "gone", {"S": 1})


def test_unsatisfiable_rule_set_reported():
    m = load_case("selfref.l4")
    out = check_assertion(m, "anything", {})
    assert out.status == "unsatisfiable"
    assert not out.holds


# the speed-limit scenario at its natural sizes


def test_repaired_speed_limit_is_functional():
    from normlog.transform import Variant, transform_module

    m = transform_module(load_case("speedlimit_repaired.l4"), Variant.PRECOND).module
    out = check_assertion(
        m, "maxSpFunctional", {"Vehicle": 1, "Day": 1, "Road": 1}, ints=(90, 130, 320)
    )
    assert out.status == "valid"


def test_repaired_speed_limit_needs_the_inversion():
    from normlog.transform import Variant, transform_module

    m = transform_module(load_case("speedlimit_repaired.l4"), Variant.PRECOND).module
    out = check_assertion(
        m,
        "maxSpFunctional",
        {"Vehicle": 1, "Day": 1, "Road": 1},
        ints=(90, 130, 320),
        include_inversions=False,
    )
    assert out.status == "counter_model"


def test_unrestricted_rules_would_clash():
    # Without the defeasibility transform the annotations are inert and
    # the three rules read as plain implications, which cannot be
    # functional: a sports car on a highway gets both 130 and 320.
    m = load_case("speedlimit_repaired.l4")
    out = check_assertion(
        m, "maxSpFunctional", {"Vehicle": 1, "Day": 1, "Road": 1}, ints=(90, 130, 320)
    )
    assert out.status == "counter_model"


def test_plain_speed_limit_is_not_functional():
    m = load_case("speedlimit_plain.l4")
    out = check_assertion(
        m, "maxSpFunctional", {"Vehicle": 1, "Day": 1, "Road": 1}, ints=(90, 130, 320)
    )
    assert out.status == "counter_model"
    table = out.model.tables["maxSp"]
    speeds = {k[-1] for k, v in table.items() if v}
    assert speeds == {90, 130}
