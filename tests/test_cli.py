"""End-to-end runs of the command line tool.

Everything here goes through a real subprocess: exit codes, stdout
text, and the promise that output is deterministic byte-for-byte.
"""

import json
import subprocess
import sys

import pytest

from conftest import CASES, ROOT, run_cli, subject_to_chain
from normlog.parser import MAX_NESTING
from test_asp import nested_atom

REPAIRED = "cases/speedlimit_repaired.l4"
SIZES = "Vehicle=1,Day=1,Road=1"
INTS = "90,130,320"


def jout(*args):
    rc, out, err = run_cli(*args)
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["schema"] == "normlog/1"
    return payload


# ---------------------------------------------------------------------------
# parse


def test_parse_prints_the_module():
    rc, out, err = run_cli("parse", "cases/selfref.l4")
    assert rc == 0 and err == ""
    assert out == (
        "decl P : Boolean\n"
        "\n"
        "rule <selfNeg>\n"
        "  if not P\n"
        "  then P\n"
        "\n"
        "assert <anything> {SMT: {satisfiable}}\n"
        "  P || not P\n"
    )


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "normlog", "parse", "cases/selfref.l4"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli("parse", "cases/selfref.l4")[1]


def test_parse_json_wraps_the_text():
    payload = jout("parse", "cases/selfref.l4", "--json")
    assert payload["command"] == "parse"
    assert payload["module"].startswith("decl P : Boolean")


def test_parse_rejects_missing_file():
    rc, out, err = run_cli("parse", "cases/nope.l4")
    assert rc == 2
    assert "No such file" in err


def test_parse_rejects_bad_module(tmp_path):
    bad = tmp_path / "bad.l4"
    bad.write_text("rule <r> if p then\n")
    rc, out, err = run_cli("parse", str(bad))
    assert rc == 2 and err.startswith("error:")


def test_non_utf8_module_is_bad_input(tmp_path):
    bad = tmp_path / "latin1.l4"
    bad.write_bytes("class S\n# caf\u00e9\ndecl p : S -> Boolean\n".encode("latin-1"))
    rc, out, err = run_cli("parse", str(bad))
    assert (rc, out) == (2, "")
    assert err == f"error: {bad}: not valid UTF-8: invalid continuation byte at byte 13\n"


def test_non_utf8_configuration_is_bad_input(tmp_path):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes("fact a.\n# \u00e9\n".encode("latin-1"))
    rc, out, err = run_cli("legal-models", str(bad))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {bad}: not valid UTF-8:")


_NESTED = """class S
decl p : S -> Boolean
decl q : S -> Boolean
rule <r> for x: S if {pre} then q x
assert <a> forall x: S. {guard} --> q x
"""


def _nested_module(tmp_path, pre, guard="p x"):
    path = tmp_path / "nested.l4"
    path.write_text(_NESTED.format(pre=pre, guard=guard))
    return str(path)


def test_deep_parentheses_are_bad_input(tmp_path):
    path = _nested_module(tmp_path, "(" * 3000 + "p x" + ")" * 3000)
    rc, out, err = run_cli("transform", path)
    assert (rc, out) == (2, "")
    # The precondition, level one, starts at column 22; the error points
    # at the first token nested past the limit.
    assert err == f"error: 4:{22 + MAX_NESTING}: nested more than {MAX_NESTING} levels deep\n"


def test_deep_negation_is_bad_input(tmp_path):
    path = _nested_module(tmp_path, "not " * 3000 + "p x")
    rc, out, err = run_cli("check", path, "--assert", "a", "--sizes", "S=2")
    assert (rc, out) == (2, "")
    assert err.endswith(f"nested more than {MAX_NESTING} levels deep\n")


def test_negation_just_under_the_nesting_limit_is_checked(tmp_path):
    # The precondition is one level, each `not` one more.  The formulas
    # built from the rule, and the closures compiled from them, nest as
    # deeply as the chain.
    n = MAX_NESTING - 1
    guard = "p x" if n % 2 == 0 else "not p x"
    path = _nested_module(tmp_path, "not " * n + "p x", guard)
    rc, out, err = run_cli("check", path, "--assert", "a", "--sizes", "S=2")
    assert (rc, out, err) == (0, "assertion a (valid): valid\n", "")
    path = _nested_module(tmp_path, "not " * (n + 1) + "p x", guard)
    rc, out, err = run_cli("check", path, "--assert", "a", "--sizes", "S=2")
    assert rc == 2


CFG_COMMANDS = ("legal-models", "answer-sets", "verify-lemma4")


def test_deep_configuration_term_is_bad_input(tmp_path):
    path = tmp_path / "deep.cfg"
    path.write_text(f"fact: {nested_atom(3000)}.\n")
    for command in CFG_COMMANDS:
        rc, out, err = run_cli(command, path)
        assert (rc, out) == (2, ""), command
        assert err == f"error: 1:{8 + 2 * MAX_NESTING}: nested more than {MAX_NESTING} levels deep\n"


def test_deep_configuration_rule_is_bad_input(tmp_path):
    # 400 levels used to parse and then overflow while grounding.
    path = tmp_path / "deep.cfg"
    atom = nested_atom(400)
    path.write_text(f"fact: {atom}.\nrule 1: q <- {atom}.\n")
    rc, out, err = run_cli("verify-lemma4", path)
    assert (rc, out) == (2, "")
    assert err.endswith(f"nested more than {MAX_NESTING} levels deep\n")


def test_configuration_just_under_the_nesting_limit_is_decided(tmp_path):
    path = tmp_path / "deep.cfg"
    atom = nested_atom(MAX_NESTING)
    path.write_text(f"fact: {atom}.\nrule 1: q <- {atom}.\n")
    rc, out, err = run_cli("legal-models", path)
    assert (rc, err) == (0, "")
    assert out == f"1 legal model(s)\nmodel 1: is_legal {{{atom}, q}} legally_valid {{(1, q)}}\n"
    rc, out, err = run_cli("answer-sets", path, "--project")
    assert (rc, err) == (0, "")
    assert out == f"1 answer set(s)\nanswer set 1: is_legal {{{atom}, q}} legally_valid {{(1, q)}}\n"
    rc, out, err = run_cli("verify-lemma4", path)
    assert (rc, out, err) == (
        0,
        "answer sets: 1\nlegal models: 1\nevery answer set projects to a legal model\n",
        "",
    )


# The recursive tree walkers still overflow on trees the parser's
# nesting limit does not count; that is an internal error (exit 4),
# never a verdict (exit 1).


def test_long_conjunction_is_an_internal_error(tmp_path):
    path = _nested_module(tmp_path, " && ".join(["p x"] * 500))
    for command in ("parse", "transform"):
        rc, out, err = run_cli(command, path)
        assert (rc, out) == (4, ""), command
        assert err.startswith("internal error: RecursionError: ") and err.count("\n") == 1


def test_long_subject_to_chain_is_an_internal_error(tmp_path):
    rules = [
        f"rule <r{i}>{f' {{restrict: {{subjectTo: r{i - 1}}}}}' if i else ''}\n"
        f"  for x: S\n  if p x\n  then q x\n"
        for i in range(500)
    ]
    path = tmp_path / "chain.l4"
    path.write_text(
        "class S\ndecl p : S -> Boolean\ndecl q : S -> Boolean\n\n"
        + "\n".join(rules)
        + "\nassert <a> {SMT: {valid}}\n  forall x: S. p x --> q x\n"
    )
    rc, out, err = run_cli("transform", path)
    assert (rc, out) == (4, "")
    assert err.startswith("internal error: RecursionError: ") and err.count("\n") == 1
    # The search compiles and stages each shared precondition once, so
    # `check` gets through the same chain.
    rc, out, err = run_cli("check", path, "--assert", "a", "--sizes", "S=1")
    assert (rc, out, err) == (0, "assertion a (valid): valid\n", "")


def test_subject_to_chain_below_the_limit_compiles(tmp_path):
    # The translation and the SMT-LIB emitter visit each shared
    # precondition once and spend one frame per level of what is new.
    path = tmp_path / "chain.l4"
    path.write_text(subject_to_chain(450))
    for args in (("emit-smt",), ("check", "--assert", "a", "--sizes", "S=1")):
        rc, out, err = run_cli(args[0], path, *args[1:])
        assert (rc, err) == (0, ""), args


# ---------------------------------------------------------------------------
# transform


def test_transform_compiles_away_annotations():
    rc, out, err = run_cli("transform", REPAIRED)
    assert rc == 0
    assert "restrict" not in out
    # the highway rule now carries the negated preconditions of both
    # rules that beat it
    assert "not (isSportsCar v && isHighway r" in out
    assert "not (isCar v && isWorkday d)" in out


def test_transform_json_reports_order_and_trace():
    payload = jout("transform", REPAIRED, "--json")
    assert payload["order"]["sequence"] == [
        "maxSpCarHighway'Orig",
        "maxSpCarWorkday",
        "maxSpSportsCar'Orig",
        "maxSpSportsCar",
        "maxSpCarHighway",
    ]
    assert payload["trace"] == [
        "despite-elim: maxSpCarHighway subjectTo maxSpSportsCar, maxSpCarWorkday",
        "despite-elim: maxSpSportsCar subjectTo maxSpCarWorkday",
        "subjectTo-elim: split off maxSpCarHighway'Orig",
        "subjectTo-elim: split off maxSpSportsCar'Orig",
        "resolve: maxSpSportsCar",
        "resolve: maxSpCarHighway",
    ]


def test_transform_reports_cycles_as_usage_errors():
    rc, out, err = run_cli("transform", "cases/speedlimit_original.l4")
    assert rc == 2
    assert err == (
        "error: cyclic rule ordering: maxSpCarHighway < maxSpCarWorkday "
        "< maxSpSportsCar < maxSpCarHighway\n"
    )


def test_transform_deriv_variant_runs():
    rc, out, err = run_cli("transform", REPAIRED, "--variant", "deriv")
    assert rc == 0
    assert "Rulename_maxSp" in out and "maxSp+" in out


# ---------------------------------------------------------------------------
# invert


def test_invert_prints_formula():
    rc, out, err = run_cli("invert", REPAIRED)
    assert rc == 0
    assert out == (
        "inversion maxSp: forall v: Vehicle. forall d: Day. forall r: Road. "
        "forall x4: Integer. maxSp v d r x4 --> "
        "isCar v && isWorkday d && x4 == 90 || "
        "isCar v && isHighway r && x4 == 130 || "
        "isSportsCar v && isHighway r && x4 == 320\n"
    )


def test_invert_warns_about_nonmonotone_rules():
    rc, out, err = run_cli("invert", "cases/selfref.l4")
    assert rc == 0
    assert out == (
        "inversion P: P --> not P\n"
        "  warning: non-monotone use in rule selfNeg: 'P' occurs under 1 negation(s)\n"
    )


def test_invert_json():
    payload = jout("invert", "cases/selfref.l4", "--json")
    (entry,) = payload["inversions"]
    assert entry["predicate"] == "P"
    assert entry["monotone"] is False
    assert entry["offenders"] == [["selfNeg", "'P' occurs under 1 negation(s)"]]


def test_invert_single_predicate():
    rc, out, err = run_cli("invert", REPAIRED, "--predicate", "maxSp")
    assert rc == 0
    assert out.startswith("inversion maxSp:")


# ---------------------------------------------------------------------------
# emit-smt


def test_emit_smt_script_shape():
    rc, out, err = run_cli("emit-smt", REPAIRED, "--assert", "maxSpFunctional")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "(set-logic ALL)"
    assert lines[-2:] == ["(check-sat)", "(get-model)"]
    assert "; goal maxSpFunctional (validity: negated, sat = countermodel)" in lines
    assert (
        "(assert (not (forall ((v Vehicle) (d Day) (r Road) (s1 Int) (s2 Int)) "
        "(=> (and (maxSp v d r s1) (maxSp v d r s2)) (= s1 s2)))))" in lines
    )


def test_emit_smt_without_goal_still_closes():
    rc, out, err = run_cli("emit-smt", REPAIRED)
    assert rc == 0
    assert out.splitlines()[-2:] == ["(check-sat)", "(get-model)"]


def test_emit_smt_unknown_assertion():
    rc, out, err = run_cli("emit-smt", REPAIRED, "--assert", "nope")
    assert rc == 2
    assert err == "error: no assertion named 'nope'\n"


def test_emit_smt_output_file(tmp_path):
    dest = tmp_path / "out.smt2"
    rc, out, err = run_cli("emit-smt", REPAIRED, "-o", str(dest))
    assert rc == 0 and out == ""
    direct = run_cli("emit-smt", REPAIRED)[1]
    assert dest.read_text() == direct


# ---------------------------------------------------------------------------
# check


def test_check_valid_assertion():
    rc, out, err = run_cli(
        "check", REPAIRED, "--assert", "maxSpFunctional", "--sizes", SIZES, "--ints", INTS
    )
    assert rc == 0
    assert out == "assertion maxSpFunctional (valid): valid\n"


def test_check_finds_countermodel_without_inversions():
    rc, out, err = run_cli(
        "check",
        REPAIRED,
        "--assert",
        "maxSpFunctional",
        "--sizes",
        SIZES,
        "--ints",
        INTS,
        "--no-inversions",
    )
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "assertion maxSpFunctional (valid): counter_model"
    assert "sort Vehicle = {vehicle0}" in lines
    assert "integers = {90, 130, 320}" in lines


def test_check_json_payload():
    payload = jout(
        "check",
        REPAIRED,
        "--assert",
        "maxSpFunctional",
        "--sizes",
        SIZES,
        "--ints",
        INTS,
        "--json",
    )
    assert payload["command"] == "check"
    assert payload["status"] == "valid"


def test_check_requires_the_assert_flag():
    rc, out, err = run_cli("check", REPAIRED)
    assert rc == 2
    assert "required: --assert" in err


def test_check_unknown_assertion_name():
    rc, out, err = run_cli("check", "cases/selfref.l4", "--assert", "nope")
    assert rc == 2
    assert err == "error: no assertion named 'nope'\n"


def test_check_budget_exhaustion_is_exit_3():
    rc, out, err = run_cli(
        "check",
        REPAIRED,
        "--assert",
        "maxSpFunctional",
        "--sizes",
        SIZES,
        "--ints",
        INTS,
        "--budget",
        "1",
    )
    assert rc == 3
    assert err == "resource cap: model search exceeded 1 cell assignments\n"


def test_check_integer_outside_the_pool_is_bad_input():
    # 320 is not among the integers, so the sports car rule applies
    # maxSp outside its table: an error where the whole-table search
    # raised it, not a pruned branch.
    rc, out, err = run_cli(
        "check", REPAIRED, "--assert", "maxSpFunctional", "--sizes", SIZES, "--ints", "90,130"
    )
    assert (rc, out, err) == (2, "", "error: partial application of 'maxSp'\n")


def test_check_rejects_a_negative_budget():
    rc, out, err = run_cli(
        "check", REPAIRED, "--assert", "maxSpFunctional", "--sizes", SIZES, "--ints", INTS,
        "--budget", "-1",
    )
    assert (rc, out) == (2, "")
    assert err.endswith("error: argument --budget: must be non-negative, got -1\n")


# ---------------------------------------------------------------------------
# correspond


def test_correspond_annotated_module():
    rc, out, err = run_cli(
        "correspond", REPAIRED, "--sizes", SIZES, "--ints", INTS
    )
    assert rc == 0
    assert out == (
        "checked 12 precondition-route and 12 derivability-route models\n"
        "correspondence holds on every model\n"
    )


def test_correspond_json():
    payload = jout(
        "correspond", REPAIRED, "--sizes", SIZES, "--ints", INTS, "--json"
    )
    assert payload["ok"] is True
    assert payload["checked_precond"] == 12
    assert payload["checked_deriv"] == 12


# ---------------------------------------------------------------------------
# configuration subcommands


def test_emit_asp_matches_library_golden():
    from test_asp import BOB_PROGRAM

    rc, out, err = run_cli("emit-asp", "cases/bob.cfg")
    assert rc == 0
    assert out == BOB_PROGRAM


def test_emit_asp_output_file(tmp_path):
    from test_asp import BOB_PROGRAM

    dest = tmp_path / "bob.lp"
    rc, out, err = run_cli("emit-asp", "cases/bob.cfg", "-o", str(dest))
    assert rc == 0 and out == ""
    assert dest.read_text() == BOB_PROGRAM


def test_legal_models_listing():
    rc, out, err = run_cli("legal-models", "cases/bob.cfg")
    assert rc == 0
    assert out == (
        "2 legal model(s)\n"
        "model 1: is_legal {may_spend_up_to_one_mill(bob), must_buy(merc,bob), "
        "wealthy(bob)} legally_valid {(2, must_buy(merc,bob)), "
        "(3, may_spend_up_to_one_mill(bob))}\n"
        "model 2: is_legal {may_spend_up_to_one_mill(bob), must_buy(rolls,bob), "
        "wealthy(bob)} legally_valid {(1, must_buy(rolls,bob)), "
        "(3, may_spend_up_to_one_mill(bob))}\n"
    )


def test_legal_models_minimal_only():
    rc, out, err = run_cli("legal-models", "cases/nonminimal.cfg", "--minimal-only")
    assert rc == 0
    assert out == "1 legal model(s)\nmodel 1: is_legal {a} legally_valid {(3, a)}\n"


def test_legal_models_json():
    payload = jout("legal-models", "cases/bob.cfg", "--json")
    assert payload["count"] == 2
    assert payload["models"][0]["legally_valid"] == [
        [2, "must_buy(merc,bob)"],
        [3, "may_spend_up_to_one_mill(bob)"],
    ]


def test_legal_models_cap_is_exit_3():
    rc, out, err = run_cli("legal-models", "cases/bob.cfg", "--cap-bits", "3")
    assert rc == 3
    assert err == "resource cap: legal model search needs 2^4 candidates, cap is 2^3\n"


def test_legal_models_rejects_negative_cap_bits():
    rc, out, err = run_cli("legal-models", "cases/bob.cfg", "--cap-bits", "-1")
    assert (rc, out) == (2, "")
    assert err.endswith("error: argument --cap-bits: must be non-negative, got -1\n")


def test_answer_sets_projected():
    rc, out, err = run_cli("answer-sets", "cases/bob.cfg", "--project")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "2 answer set(s)"
    assert lines[1].startswith("answer set 1: is_legal {may_spend_up_to_one_mill(bob)")


def test_answer_sets_raw_listing():
    rc, out, err = run_cli("answer-sets", "cases/chain.cfg")
    assert rc == 0
    assert out == "0 answer set(s)\n"


def test_answer_sets_json():
    payload = jout("answer-sets", "cases/bob.cfg", "--project", "--json")
    assert payload["count"] == 2
    assert [p["legally_valid"] for p in payload["projections"]] == [
        [[2, "must_buy(merc,bob)"], [3, "may_spend_up_to_one_mill(bob)"]],
        [[1, "must_buy(rolls,bob)"], [3, "may_spend_up_to_one_mill(bob)"]],
    ]


def test_verify_lemma4_bob():
    rc, out, err = run_cli("verify-lemma4", "cases/bob.cfg")
    assert rc == 0
    assert out == (
        "answer sets: 2\nlegal models: 2\nevery answer set projects to a legal model\n"
    )


def test_verify_lemma4_reports_the_gap():
    rc, out, err = run_cli("verify-lemma4", "cases/convgap.cfg")
    assert rc == 0
    assert out == (
        "answer sets: 1\n"
        "legal models: 2\n"
        "every answer set projects to a legal model\n"
        "uncovered legal model (expected for self-supporting sets): "
        "is_legal {a} legally_valid {(1, a)}\n"
    )


def test_verify_lemma4_no_converse():
    rc, out, err = run_cli("verify-lemma4", "cases/convgap.cfg", "--no-converse")
    assert rc == 0
    assert out == "answer sets: 1\nevery answer set projects to a legal model\n"


def test_verify_lemma4_json():
    payload = jout("verify-lemma4", "cases/nonminimal.cfg", "--json")
    assert payload["sound"] is True
    assert payload["uncovered"] == [
        {"is_legal": ["a", "c"], "legally_valid": [[1, "c"], [3, "a"]]}
    ]


def test_ground_prints_a_reparseable_config(tmp_path):
    src = tmp_path / "sched.cfg"
    src.write_text(
        "rule 1: p(X) <- q(X).\nfact: q(a).\nfact: q(b).\nmodifier: despite(1, 1).\n"
    )
    rc, out, err = run_cli("ground", str(src))
    assert rc == 0
    assert out == (
        "rule 1000: p(a) <- q(a).\n"
        "rule 1001: p(b) <- q(b).\n"
        "fact: q(a).\n"
        "fact: q(b).\n"
        "modifier: despite(1000,1000).\n"
        "modifier: despite(1000,1001).\n"
        "modifier: despite(1001,1000).\n"
        "modifier: despite(1001,1001).\n"
    )
    from normlog.asp import parse_config

    assert parse_config(out).is_ground()


def test_ground_with_explicit_constants(tmp_path):
    src = tmp_path / "sched.cfg"
    src.write_text("rule 1: p(X).\n")
    rc, out, err = run_cli("ground", str(src), "--constants", "u,v")
    assert rc == 0
    assert out == "rule 1000: p(u).\nrule 1001: p(v).\n"


def test_config_errors_are_exit_2():
    rc, out, err = run_cli("emit-asp", "cases/selfref.l4")
    assert rc == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "args",
    [
        ("parse", REPAIRED),
        ("transform", REPAIRED, "--variant", "deriv", "--json"),
        ("invert", REPAIRED),
        ("emit-smt", REPAIRED, "--assert", "maxSpFunctional"),
        ("legal-models", "cases/bob.cfg", "--json"),
        ("answer-sets", "cases/bob.cfg", "--project"),
    ],
)
def test_output_is_byte_identical_across_runs(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    assert first[0] == 0
