"""Transfer of finite models between the two restriction semantics."""

import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import CASES, load_case
from normlog import cli, correspond, models
from normlog.correspond import (
    build_correspondence,
    check_model_correspondence,
    concluded,
    final_preconditions,
    to_deriv,
    to_precond,
)
from normlog.models import (
    DEFAULT_NODE_BUDGET,
    CorrespondenceError,
    Interpretation,
    ModelProblem,
    enumerate_models,
)
from normlog.parser import parse_module
from normlog.randgen import random_annotated_module
from normlog.syntax import ROOT_CLASS, IntLit, NormlogError, children
from normlog.typecheck import elaborate, typecheck_module
from oracles import eval_expr

_SIZES = {"Vehicle": 1, "Day": 1, "Road": 1}
_INTS = (90, 130, 320)


def test_pair_structure_for_the_speed_limit():
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    assert pair.lifted == {"maxSp": ("Rulename_maxSp", "maxSp+")}
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


def _precond_models_and_images(pair):
    """Each precondition-route model with its derivability-route image,
    transferred while the search is suspended at the model."""
    problem = ModelProblem(pair.fs_precond, _SIZES, _INTS)
    preconds = final_preconditions(pair, problem.compiler)
    for mp in problem.models():
        yield mp, to_deriv(pair, mp, preconds)


def test_mapping_deriv_then_precond_restores_the_base_table():
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    for mp, md in _precond_models_and_images(pair):
        assert set(md.tables) >= {"maxSp+"}
        assert "maxSp" not in md.tables
        back = to_precond(pair, md)
        assert back.tables["maxSp"] == mp.tables["maxSp"]


def test_derived_table_is_keyed_by_rule_name_constants():
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    _, md = next(_precond_models_and_images(pair))
    rule_names = {k[0] for k in md.tables["maxSp+"]}
    assert rule_names == {"maxSpCarWorkday", "maxSpCarHighway", "maxSpSportsCar"}


def _false_by_reference(fs, interp):
    return [
        name
        for name, f in fs.formulas
        if not eval_expr(f, interp.tables, interp.carriers, interp.ints)
    ]


def _without_inversions(fs):
    return replace(fs, formulas=tuple(f for f in fs.formulas if not f[0].startswith("inversion")))


def test_tampered_formula_set_produces_violations():
    """Dropping the closure of the lifted predicate admits derivability
    models that no longer transfer: something is derived by a rule
    whose precondition never held."""
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    weakened = _without_inversions(pair.fs_deriv)
    precond = ModelProblem(pair.fs_precond, _SIZES, _INTS)  # compiled once for all images
    violated = []
    for md in enumerate_models(weakened, _SIZES, _INTS):
        mp = to_precond(pair, md)
        false = precond.false_formulas(mp)
        assert false == _false_by_reference(pair.fs_precond, mp)
        violated += false
    assert "inversion maxSp" in violated


def test_tampered_pair_reports_capped_violations(monkeypatch):
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    weakened = _without_inversions(pair.fs_deriv)
    monkeypatch.setattr(correspond, "build_correspondence", lambda m: replace(pair, fs_deriv=weakened))
    rep = check_model_correspondence(None, _SIZES, _INTS, violation_cap=5)
    assert (rep.checked_precond, rep.checked_deriv) == (12, 4928)
    assert len(rep.violations) == 5
    assert {(v.direction, v.formula) for v in rep.violations} == {
        ("deriv->precond", "inversion maxSp")
    }


def test_each_formula_compiles_once_per_query(monkeypatch):
    # One problem per route serves its search, the transfer out of its
    # models and the check of the other route's images.
    calls = []
    compile_ = models.FormulaCompiler.compile

    def counting(self, e, params=()):
        calls.append((self, e))
        return compile_(self, e, params)

    monkeypatch.setattr(models.FormulaCompiler, "compile", counting)
    m = load_case("speedlimit_repaired.l4")
    rep = check_model_correspondence(m, _SIZES, _INTS)
    assert rep.ok and rep.checked_precond == rep.checked_deriv == 12

    pair = build_correspondence(m)
    by_compiler = {}
    for compiler, e in calls:
        by_compiler.setdefault(compiler, []).append(e)
    assert len(by_compiler) == 2
    precond, deriv = by_compiler.values()
    preconds = [pair.normalized[rn].precond for rn in pair.constants["Rulename_maxSp"]]
    assert Counter(precond) == Counter([f for _, f in pair.fs_precond.formulas] + preconds)
    assert Counter(deriv) == Counter(f for _, f in pair.fs_deriv.formulas)


def _image_and_problem():
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    deriv = ModelProblem(pair.fs_deriv, _SIZES, _INTS)
    _, md = next(_precond_models_and_images(pair))
    return deriv, md


def _with_table(interp, name, table):
    return Interpretation(interp.carriers, interp.ints, {**interp.tables, name: table})


def test_a_fitting_image_is_checked():
    deriv, md = _image_and_problem()
    assert deriv.false_formulas(md) == []


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda t: dict(list(t.items())[1:]), "cells of 'maxSp+' differ"),
        (lambda t: {**t, ("maxSpNone", "vehicle0", "day0", "road0", 90): False}, "cells of 'maxSp+' differ"),
        (lambda t: {k: 7 if i == 0 else v for i, (k, v) in enumerate(t.items())}, "outside its range"),
    ],
    ids=["missing-cell", "extra-cell", "out-of-range"],
)
def test_an_image_that_does_not_fit_is_rejected(tamper, message):
    deriv, md = _image_and_problem()
    bad = _with_table(md, "maxSp+", tamper(md.tables["maxSp+"]))
    with pytest.raises(CorrespondenceError, match=re.escape(message)):
        deriv.false_formulas(bad)


def test_an_image_over_other_carriers_or_symbols_is_rejected():
    deriv, md = _image_and_problem()
    wider = Interpretation({**md.carriers, "Day": ("day0", "day1")}, md.ints, md.tables)
    fewer = Interpretation(md.carriers, md.ints, {k: v for k, v in md.tables.items() if k != "maxSp+"})
    other_ints = Interpretation(md.carriers, (90, 130), md.tables)
    for bad, message in ((wider, "carriers"), (fewer, "symbols"), (other_ints, "integer values")):
        with pytest.raises(CorrespondenceError, match=message):
            deriv.false_formulas(bad)
    pinned = next(n for n, t in md.tables.items() if t == {(): n})
    with pytest.raises(CorrespondenceError, match=f"table of '{pinned}'"):
        deriv.false_formulas(_with_table(md, pinned, {(): "maxSpNone"}))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_checks_agree_with_the_reference_evaluator(seed):
    # Every image the transfer builds, and a corrupted copy of it, is
    # judged by the compiled check exactly as by the tree walker.
    sample = random_annotated_module(random.Random(seed))
    m = elaborate(sample.module)
    typecheck_module(m)
    pair = build_correspondence(m)
    precond = ModelProblem(pair.fs_precond, sample.sizes, sample.ints)
    deriv = ModelProblem(pair.fs_deriv, sample.sizes, sample.ints)
    preconds = final_preconditions(pair, precond.compiler)
    rng = random.Random(seed)
    checks = [(deriv, pair.fs_deriv, to_deriv(pair, mp, preconds)) for mp in precond.models()]
    checks += [(precond, pair.fs_precond, to_precond(pair, md)) for md in deriv.models()]
    assert checks
    for problem, fs, image in checks:
        for interp in (image, _flipped(image, problem, rng)):
            assert problem.false_formulas(interp) == _false_by_reference(fs, interp)


def _flipped(interp, problem, rng):
    """`interp` with one Boolean cell of a free symbol negated."""
    free = [
        (name, cell)
        for name, table in interp.tables.items()
        if problem.symbols[name].rank >= 0
        for cell, v in table.items()
        if isinstance(v, bool)
    ]
    if not free:
        return interp
    name, cell = rng.choice(free)
    return _with_table(interp, name, {**interp.tables[name], cell: not interp.tables[name][cell]})


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


def test_subclass_typed_arguments_are_transferred_over_the_sort():
    # Both searches range `p`'s Car argument over the Vehicle carrier,
    # and the transfer takes its cells from the tables it maps.
    m = elaborate(
        parse_module(
            """
class Vehicle
class Car extends Vehicle
class Fast extends Vehicle
decl p : Car -> Boolean

rule <r1>
  for v: Car
  if isFast v
  then p v
"""
        )
    )
    typecheck_module(m)
    rep = check_model_correspondence(m, {"Vehicle": 2})
    assert (rep.checked_precond, rep.checked_deriv, rep.violations) == (36, 36, ())


def _fast(classes, r1, r2):
    """Two rules concluding `fast v`, the second subject to the first,
    so that the transfer compiles both final preconditions."""
    return (
        f"{classes}\ndecl fast : Vehicle -> Boolean\n\n"
        f"rule <r1>\n  for v: Vehicle\n  if {r1}\n  then fast v\n\n"
        "rule <r2> {restrict: {subjectTo: r1}}\n"
        f"  for v: Vehicle\n  if {r2}\n  then fast v\n"
    )


_ATTRIBUTE = _fast("class Vehicle {speed: Integer}\nclass Day", "v.speed > 100", "v.speed > 50")
_SUBCLASS_BINDER = _fast(
    "class Vehicle\nclass Car extends Vehicle\nclass Day\ndecl owns : Vehicle -> Vehicle -> Boolean",
    "exists c: Car. owns v c",
    "isCar v",
)


@pytest.mark.parametrize(
    "text, counts",
    # Speeds 40, 60 and 120 per vehicle; Car membership per vehicle
    # (`owns` is closed and concluded by no rule, so false).
    [(_ATTRIBUTE, (3, 9)), (_SUBCLASS_BINDER, (2, 4))],
    ids=["attribute", "subclass-binder"],
)
def test_final_preconditions_are_translated(tmp_path, capsys, text, counts):
    path = tmp_path / "fast.l4"
    path.write_text(text)
    for vehicles, n in zip((1, 2), counts):
        rc = cli.main(["correspond", str(path), "--sizes", f"Vehicle={vehicles},Day=1", "--ints", "40,60,120"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert out == (
            f"checked {n} precondition-route and {n} derivability-route models\n"
            "correspondence holds on every model\n"
        )


@pytest.mark.parametrize("case, walked", [("speedlimit_repaired.l4", False), ("attributes.l4", True)])
def test_final_preconditions_are_walked_only_if_the_rules_were_translated(monkeypatch, case, walked):
    calls = []
    real = correspond.translate_formulas
    monkeypatch.setattr(correspond, "translate_formulas", lambda fs, env: calls.append(fs) or real(fs, env))
    pair = build_correspondence(load_case(case))
    assert pair.fs_precond.translated is walked
    assert bool(calls) is walked


def test_final_preconditions_compile_safe():
    # Their parameters take the concluded predicate's argument sorts, so
    # applications to them fit the tables as in the rule formulas.
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    problem = ModelProblem(pair.fs_precond, _SIZES, _INTS)
    preconds = final_preconditions(pair, problem.compiler)
    assert len(preconds) == 3
    assert all(c.safe for c in preconds.values())


@pytest.mark.parametrize(
    "case, sizes, counts",
    [
        ("attributes.l4", {"Vehicle": 2, "Day": 1}, 72),
        ("attributes.l4", {"Vehicle": 1, "Day": 2}, 48),
        ("speedlimit_plain.l4", {"Vehicle": 2, "Day": 1, "Road": 1}, 16),
        ("speedlimit_repaired.l4", {"Vehicle": 2, "Day": 1, "Road": 1}, 36),
        ("speedlimit_repaired.l4", {"Vehicle": 1, "Day": 2, "Road": 1}, 24),
        ("speedlimit_repaired.l4", {"Vehicle": 1, "Day": 1, "Road": 2}, 24),
    ],
)
def test_correspondence_counts_every_model_of_two_elements(case, sizes, counts):
    # `check` prunes models symmetric under a renaming of elements;
    # `correspond` enumerates them all.
    m = load_case(case)
    ints = _int_literals(m)
    rep = check_model_correspondence(m, sizes, ints)
    pair = build_correspondence(m)
    every = [sum(1 for _ in enumerate_models(fs, sizes, ints)) for fs in (pair.fs_precond, pair.fs_deriv)]
    assert (rep.checked_precond, rep.checked_deriv) == (counts, counts) == tuple(every)


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


def _layout(interp):
    """The order of an interpretation's carriers and of each table's cells."""
    return list(interp.carriers.items()), {n: list(t) for n, t in interp.tables.items()}


def test_images_list_carriers_and_cells_in_search_order():
    # `correspond --json` prints violation models as the images list
    # them, so each image follows the order of the other route's models.
    cases = [(load_case("speedlimit_repaired.l4"), _SIZES, _INTS)]
    for sample in _two_things_with_integers(5, 10):
        m = elaborate(sample.module)
        typecheck_module(m)
        cases.append((m, sample.sizes, sample.ints))
    for m, sizes, ints in cases:
        pair = build_correspondence(m)
        precond = ModelProblem(pair.fs_precond, sizes, ints)
        deriv = ModelProblem(pair.fs_deriv, sizes, ints)
        p_layout = _layout(next(precond.models()))
        d_layout = _layout(next(deriv.models()))
        preconds = final_preconditions(pair, precond.compiler)
        images = [(to_deriv(pair, mp, preconds), d_layout) for mp in precond.models()]
        images += [(to_precond(pair, md), p_layout) for md in deriv.models()]
        assert len(images) > 2
        for image, layout in images:
            assert _layout(image) == layout


# ---------------------------------------------------------------------------
# the search order: concluded predicates last, the same reports


def _declared_report(pair, sizes, ints, node_budget=DEFAULT_NODE_BUDGET, violation_cap=20):
    """The report of searches of both routes in declared order."""
    precond = ModelProblem(pair.fs_precond, sizes, ints)
    deriv = ModelProblem(pair.fs_deriv, sizes, ints)
    return correspond._check_pair(pair, precond, deriv, node_budget, violation_cap)


def _concluded_last_report(pair, sizes, ints, node_budget=DEFAULT_NODE_BUDGET, violation_cap=20):
    """The report of searches with concluded predicates last, kept
    whatever it holds."""
    last_p, last_d = concluded(pair)
    precond = ModelProblem(pair.fs_precond, sizes, ints, last_p)
    deriv = ModelProblem(pair.fs_deriv, sizes, ints, last_d)
    return correspond._check_pair(pair, precond, deriv, node_budget, violation_cap)


def _outcome(report):
    try:
        return report().to_json()
    except NormlogError as e:
        return type(e).__name__, str(e)


def _assert_reports_as_in_declared_order(m, sizes, ints, **caps):
    try:
        pair = build_correspondence(m)
    except NormlogError:
        with pytest.raises(NormlogError):
            check_model_correspondence(m, sizes, ints, **caps)
        return
    got = _outcome(lambda: check_model_correspondence(m, sizes, ints, **caps))
    assert got == _outcome(lambda: _declared_report(pair, sizes, ints, **caps))


def _int_literals(m):
    stack = [e for r in m.rules for e in (r.precond, r.postcond)] + [a.formula for a in m.assertions]
    values = set()
    while stack:
        e = stack.pop()
        if type(e) is IntLit:
            values.add(e.value)
        stack.extend(children(e))
    return tuple(sorted(values))


@pytest.mark.parametrize("case", sorted(p.name for p in CASES.glob("*.l4")))
def test_case_reports_are_those_of_the_declared_order(case):
    # at `scripts/output_digest.py`'s sizes and integers
    m = load_case(case)
    sizes = {c.name: 1 for c in m.classes if c.parent == ROOT_CLASS}
    _assert_reports_as_in_declared_order(m, sizes, _int_literals(m))


def test_random_module_reports_are_those_of_the_declared_order():
    for seed in range(300):
        sample = random_annotated_module(random.Random(seed))
        _assert_reports_as_in_declared_order(sample.module, sample.sizes, sample.ints)


def _weakened_pair():
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    return replace(pair, fs_deriv=_without_inversions(pair.fs_deriv))


def test_a_report_with_violations_is_that_of_the_declared_order(monkeypatch):
    # 4928 derivability-route models, 20 of them reported: which ones
    # depends on the order of the models, and searched concluded last
    # they are others.
    pair = _weakened_pair()
    monkeypatch.setattr(correspond, "build_correspondence", lambda m: pair)
    rep = check_model_correspondence(None, _SIZES, _INTS)
    assert (rep.checked_precond, rep.checked_deriv, len(rep.violations)) == (12, 4928, 20)
    assert rep == _declared_report(pair, _SIZES, _INTS)
    assert rep.violations != _concluded_last_report(pair, _SIZES, _INTS).violations


def test_a_formula_that_may_raise_keeps_the_declared_order(monkeypatch):
    # Without 320 among the integers `maxSp ... 320` may fall outside
    # the table, and which model raises first decides the error.
    pair = build_correspondence(load_case("speedlimit_repaired.l4"))
    searched = []
    real = correspond.enumerate_models

    def recording(problem, **kwargs):
        searched.append([name for name, _, _ in problem._free])
        return real(problem, **kwargs)

    monkeypatch.setattr(correspond, "enumerate_models", recording)
    for ints, safe in (((90, 130), False), (_INTS, True)):
        last_p, last_d = concluded(pair)
        assert ModelProblem(pair.fs_precond, _SIZES, ints, last_p).safe is safe
        assert ModelProblem(pair.fs_deriv, _SIZES, ints, last_d).safe is safe
        searched.clear()
        outcome = _outcome(lambda: check_model_correspondence(load_case("speedlimit_repaired.l4"), _SIZES, ints))
        assert searched and all((order[-1] in ("maxSp", "maxSp+")) is safe for order in searched)
        assert outcome == _outcome(lambda: _declared_report(pair, _SIZES, ints))
        if not safe:
            assert outcome == ("ModelError", "partial application of 'maxSp'")


def test_a_search_over_budget_falls_back_to_the_declared_order():
    # The budget caps each search.  Searched concluded last, the
    # derivability route of the repaired speed limit takes 256 cell
    # assignments (`maxSp+`'s cells are ruled out once per class
    # combination), 96 in declared order; the precondition route 96
    # either way.  The check exceeds the budget only where the
    # declared-order searches exceed it.
    m = load_case("speedlimit_repaired.l4")
    pair = build_correspondence(m)
    with pytest.raises(models.ResourceCapError, match="exceeded 255 cell"):
        _concluded_last_report(pair, _SIZES, _INTS, node_budget=255)
    assert _concluded_last_report(pair, _SIZES, _INTS, node_budget=256).ok
    with pytest.raises(models.ResourceCapError, match="exceeded 95 cell"):
        check_model_correspondence(m, _SIZES, _INTS, node_budget=95)
    for budget in (96, 255, 256):
        assert check_model_correspondence(m, _SIZES, _INTS, node_budget=budget).ok
    for budget in range(0, 300, 7):
        _assert_reports_as_in_declared_order(m, _SIZES, _INTS, node_budget=budget)


def _dropping_a_derivability_model(monkeypatch):
    """A mutant search that skips the first model of the derivability
    route (the one with rule-name carriers)."""
    real = correspond.enumerate_models

    def dropping(problem, **kwargs):
        found = real(problem, **kwargs)
        if problem._fs.fixed:
            next(found)
        return found

    monkeypatch.setattr(correspond, "enumerate_models", dropping)


def test_unequal_model_counts_fail_the_report(monkeypatch):
    _dropping_a_derivability_model(monkeypatch)
    rep = check_model_correspondence(load_case("speedlimit_repaired.l4"), _SIZES, _INTS)
    assert (rep.checked_precond, rep.checked_deriv, rep.violations) == (12, 11, ())
    assert not rep.ok and not rep.counts_agree
    assert rep.to_json()["ok"] is False


def test_unequal_model_counts_exit_1(monkeypatch, capsys):
    _dropping_a_derivability_model(monkeypatch)
    argv = ["correspond", str(CASES / "speedlimit_repaired.l4"), "--sizes", "Vehicle=1,Day=1,Road=1"]
    argv += ["--ints", "90,130,320"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == (
        "checked 12 precondition-route and 11 derivability-route models\n"
        "the two routes have different numbers of models\n",
        "",
    )
    assert cli.main(argv + ["--json"]) == 1
    out, _ = capsys.readouterr()
    assert '"ok": false' in out and '"checked_deriv": 11' in out
