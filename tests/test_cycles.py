"""The front end, the SMT-LIB round trip and answer set grounding leave
no reference cycles behind, so reference counting frees all they make:
with the cyclic collector off, a pass over cases/ leaves it nothing."""

import gc

from conftest import CASES
from normlog.asp import answer_sets, emit_asp, parse_config
from normlog.models import assertion_problem, rules_to_formulas
from normlog.parser import parse_module
from normlog.smtlib import emit_smtlib, read_script
from normlog.transform import CycleError, Variant, transform_module
from normlog.typecheck import elaborate, typecheck_module


def _pass_over_the_cases():
    """Parse, typecheck, `transform --simplify` under both variants,
    `emit_smtlib` and `read_script` of every formula set and goal of
    each module; and `answer_sets` of each configuration.  Returns how
    many scripts and answer set lists it made."""
    made = 0
    for path in sorted(CASES.glob("*.l4")):
        m = elaborate(parse_module(path.read_text()))
        typecheck_module(m)
        for variant in Variant:
            try:
                module = transform_module(m, variant, simplify_preconds=True).module
            except CycleError:
                continue
            goals = [assertion_problem(module, a.name) for a in module.assertions]
            for fs, goal in [(rules_to_formulas(module), None), *goals]:
                read_script(emit_smtlib(fs, goal))
                made += 1
    for path in sorted(CASES.glob("*.cfg")):
        answer_sets(emit_asp(parse_config(path.read_text())))
        made += 1
    return made


def test_a_pass_over_the_cases_leaves_no_cyclic_garbage():
    assert _pass_over_the_cases() > 20
    gc.collect()
    gc.disable()
    try:
        _pass_over_the_cases()
        assert gc.collect() == 0
    finally:
        gc.enable()
