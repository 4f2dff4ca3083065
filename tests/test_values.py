"""The pipeline assigns no field of a value it is handed.

One rule holds for every value class of the package: it is a plain
dataclass (`tests/test_dataclasses.py`), and no field of it is assigned
after construction.  Nothing stops a pass from assigning a field in
place, so these tests hold the rule instead: the whole pipeline, run on
`cases/` and on seeded random modules and configurations, leaves every
value it is handed exactly as it was, pickle for pickle, and so does
each stage with what the one before hands it.  A pickle holds every
field, `loc` included, and no cached hash.
"""

import contextlib
import pickle
import random

import pytest

from conftest import CASES
from normlog import asp, correspond
from normlog.asp import (
    Atom,
    DefRule,
    GroundRule,
    LegalModel,
    Literal,
    TVar,
    _ground_program,
    answer_sets,
    emit_asp,
    ground,
    legal_models,
    parse_config,
    verify_lemma4,
)
from normlog.correspond import check_model_correspondence
from normlog.inversion import NormalizedRule
from normlog.models import (
    Interpretation,
    ModelProblem,
    assertion_problem,
    check_assertion,
    rules_to_formulas,
)
from normlog.parser import parse_module
from normlog.randgen import random_annotated_module, random_config
from normlog.smtlib import emit_smtlib, read_script
from normlog.syntax import (
    ROOT_CLASS,
    TRUE,
    And,
    App,
    Loc,
    Rule,
    Var,
    print_module,
    uncurry,
)
from normlog.transform import CycleError, RuleOrder, Variant, transform_module
from normlog.typecheck import elaborate, typecheck_module


class _Kept:
    """Values with their pickles as they were when kept.  A pickle
    holds every field, `loc` included, and no cached hash, so it changes
    exactly when a field is assigned somewhere below the value."""

    def __init__(self):
        self.values = []

    def __call__(self, value):
        self.values.append((value, pickle.dumps(value)))
        return value

    def changed(self) -> list:
        return [v for v, data in self.values if pickle.dumps(v) != data]


@contextlib.contextmanager
def _handed_over(keep: _Kept):
    """Keep, as well, the values that one stage hands another inside a
    call: the normalized rules `build_correspondence` hands the model
    transfer, the images `false_formulas` loads and checks, and the
    candidates `axiom_violations` reads."""
    build, false_formulas, violations = (
        correspond.build_correspondence,
        ModelProblem.false_formulas,
        asp.axiom_violations,
    )

    def build_keeping(m):
        pair = build(m)
        keep(tuple(pair.normalized.values()))
        return pair

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correspond, "build_correspondence", build_keeping)
        patch.setattr(ModelProblem, "false_formulas", lambda p, i: false_formulas(p, keep(i)))
        patch.setattr(asp, "axiom_violations", lambda cfg, lm: violations(cfg, keep(lm)))
        yield


def _kinds(keep: _Kept) -> set:
    """The classes of the values kept, and of the items of kept tuples."""
    out = set()
    for v, _ in keep.values:
        out.update(map(type, v) if type(v) is tuple else [type(v)])
    return out


_HANDED_OVER = {RuleOrder, NormalizedRule, Interpretation, LegalModel}


def _config_parts(cfg):
    # A Config keeps derived tables (rule_map, excluders, ...) in its
    # __dict__ once asked; its fields are what must not change.
    return (cfg.rules, cfg.facts, cfg.modifiers, cfg.inconsistent)


def _run_l4(text: str, sizes: dict, ints, keep: _Kept) -> int:
    """Parse to correspondence on one module; the count of stages run."""
    ran = 0
    m = keep(parse_module(text))
    m = keep(elaborate(m))
    typecheck_module(m)
    for variant in Variant:
        for simp in (False, True):
            try:
                result = transform_module(m, variant, simplify_preconds=simp)
            except CycleError:
                continue
            t = keep(result.module)
            keep(result.order)
            read_script(emit_smtlib(keep(rules_to_formulas(t))))
            ran += 1
            for a in t.assertions:
                fs, goal = keep(assertion_problem(t, a.name, True))
                read_script(emit_smtlib(fs, goal))
                check_assertion(t, a.name, sizes, ints)
                ran += 1
    try:
        check_model_correspondence(m, sizes, ints)
        ran += 1
    except CycleError:
        pass
    return ran


def _run_cfg(cfg, keep: _Kept) -> None:
    keep(_config_parts(cfg))
    if not cfg.is_ground():
        cfg = ground(cfg)
        keep(_config_parts(cfg))
    program = keep(emit_asp(cfg))
    keep(_ground_program(program))
    answer_sets(program)
    legal_models(cfg)
    verify_lemma4(cfg)


def _case_sizes(m) -> dict:
    return {c.name: 1 for c in m.classes if c.parent == ROOT_CLASS}


def _random_assertion(m, rng: random.Random) -> str:
    atoms = ["isSpecial x"]
    for d in m.decls:
        atoms.append(f"{d.name} x 1" if len(uncurry(d.type)[0]) == 2 else f"{d.name} x")
    a, b = rng.choice(atoms), rng.choice(atoms)
    mode, body = rng.choice([("valid", f"forall x: Thing. {a} --> not ({b})"),
                             ("satisfiable", f"exists x: Thing. {a} && {b}")])
    return f"\nassert <a> {{SMT: {{{mode}}}}}\n  {body}\n"


_SCHEMATIC = """
rule 1: must_buy(X, Y) <- wealthy(Y), not poor(Y).
rule 2: may_spend(Y) <- wealthy(Y).
fact: wealthy(bob).
modifier: subject_to(2, 1).
inconsistent: {must_buy(rolls, bob), may_spend(bob)}.
"""


def test_pipeline_leaves_the_case_values_unchanged():
    keep, ran = _Kept(), 0
    with _handed_over(keep):
        for path in sorted(CASES.glob("*.l4")):
            text = path.read_text()
            m = parse_module(text)
            ran += _run_l4(text, _case_sizes(m), (90, 130, 320), keep)
        for path in sorted(CASES.glob("*.cfg")):
            _run_cfg(parse_config(path.read_text()), keep)
        _run_cfg(parse_config(_SCHEMATIC), keep)
    assert ran > 20 and len(keep.values) > 60
    assert _HANDED_OVER <= _kinds(keep)
    assert keep.changed() == []


@pytest.mark.parametrize("seed", [0, 1])
def test_pipeline_leaves_random_values_unchanged(seed):
    rng = random.Random(seed)
    keep, ran = _Kept(), 0
    with _handed_over(keep):
        for _ in range(25):
            sample = random_annotated_module(rng)
            text = print_module(sample.module) + _random_assertion(sample.module, rng)
            ran += _run_l4(text, sample.sizes, sample.ints, keep)
            _run_cfg(random_config(rng), keep)
    assert ran >= 25 * 9
    assert _HANDED_OVER <= _kinds(keep)
    assert keep.changed() == []


def test_the_guard_sees_a_field_assigned_in_place():
    keep = _Kept()
    e = keep(And(App(Var("p"), Var("x")), Var("q"), Loc(1, 1)))
    a = keep(Atom("p", (Atom("f", ("a",)),)))
    g = keep(GroundRule(a, (), (Atom("q"),)))
    lit = keep(Literal(Atom("r", (TVar("X"),))))
    r = keep(Rule("r", precond=App(Var("p"), Var("x"))))
    d = keep(DefRule(1, Atom("p"), (lit,)))
    hash(e), hash(a), hash(g), hash(lit), hash(r), hash(d)  # a cached hash is no change
    assert keep.changed() == []
    e.left.arg.loc = Loc(2, 2)  # a location only: no == or hash sees it
    a.args[0].args = ("b",)
    r.precond = TRUE
    d.body = ()
    assert keep.changed() == [e, a, g, r, d]
