"""End-to-end runs of the command line tool.

Everything here goes through a real subprocess: exit codes, stdout
text, and the promise that output is deterministic byte-for-byte.
"""

import json
import random
import os
import subprocess
import sys

import pytest

from conftest import CASES, ROOT, run_cli, subject_to_chain
from normlog import cli
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


def _main_out(capsys, *args):
    rc = cli.main([str(a) for a in args])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    return out


@pytest.mark.parametrize("case", sorted(p.name for p in CASES.glob("*.l4")))
def test_module_json_is_written_as_json_dumps_writes_it(capsys, case):
    path = CASES / case
    commands = [("parse", path)] + [
        ("transform", path, "--variant", v, *simp) for v in ("precond", "deriv") for simp in ((), ("--simplify",))
    ]
    if case == "speedlimit_original.l4":  # its rule order is cyclic
        commands = commands[:1]
    for args in commands:
        out = _main_out(capsys, *args, "--json")
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        assert payload["module"] == _main_out(capsys, *args)


def test_module_json_escapes_text_outside_ascii(capsys, tmp_path):
    path = tmp_path / "m.l4"
    path.write_text("decl pé : Boolean\ndecl 𝒜² : Boolean\nrule <r>\n  if 𝒜²\n  then pé\n", encoding="utf-8")
    for command in ("parse", "transform"):
        out = _main_out(capsys, command, path, "--json")
        assert out.isascii() and "\\u00e9" in out and "\\ud835\\udc9c\\u00b2" in out
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        assert payload["module"] == _main_out(capsys, command, path)


def test_parse_rejects_missing_file():
    rc, out, err = run_cli("parse", "cases/nope.l4")
    assert rc == 2
    assert "No such file" in err


def test_parse_rejects_bad_module(tmp_path):
    bad = tmp_path / "bad.l4"
    bad.write_text("rule <r> if p then\n")
    rc, out, err = run_cli("parse", str(bad))
    assert rc == 2 and err.startswith("error:")
    # Every .l4 command checks names before it compiles anything.
    bad.write_text(
        "class S\ndecl p : S -> Boolean\ndecl q : S -> Boolean\n"
        "rule <r> for x: S if p x then q x\nrule <r> for x: S if q x then p x\n"
    )
    for args in (("transform",), ("check", "--assert", "a"), ("correspond", "--sizes", "S=1")):
        rc, out, err = run_cli(args[0], str(bad), *args[1:])
        assert (rc, out, err) == (2, "", "error: 5:1: duplicate rule name 'r'\n"), args


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


_DIGIT_RULE = "class S\ndecl P : S -> Boolean\nrule <r> for x: S if P x && 3 > {} then P x\n"


def test_superscript_digit_in_a_module_is_bad_input(tmp_path):
    # '\u00b2' is a digit to str.isdigit but not to int().
    bad = tmp_path / "sup.l4"
    bad.write_text(_DIGIT_RULE.format("\u00b2"), encoding="utf-8")
    rc, out, err = run_cli("parse", str(bad))
    assert (rc, out) == (2, "")
    assert err == "error: 3:33: unexpected character '\u00b2'\n"


def test_decimal_digits_of_other_scripts_stay_integers(tmp_path):
    good = tmp_path / "arabic.l4"
    good.write_text(_DIGIT_RULE.format("\u0663"), encoding="utf-8")
    rc, out, err = run_cli("parse", str(good))
    assert rc == 0, err
    assert "if P x && 3 > 3\n" in out


def test_superscript_digit_in_a_configuration_is_bad_input(tmp_path):
    bad = tmp_path / "sup.cfg"
    bad.write_text("rule \u00b2: a.\n", encoding="utf-8")
    rc, out, err = run_cli("legal-models", str(bad))
    assert (rc, out) == (2, "")
    assert err == "error: 1:6: unexpected character '\u00b2'\n"


def test_decimal_digits_of_other_scripts_number_rules(tmp_path):
    good = tmp_path / "arabic.cfg"
    good.write_text("rule \u0663: a.\n", encoding="utf-8")
    rc, out, err = run_cli("legal-models", str(good))
    assert rc == 0, err
    assert out == "1 legal model(s)\nmodel 1: is_legal {a} legally_valid {(3, a)}\n"


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


# Trees the parser's nesting limit does not count: a pass that recursed
# per level would overflow on them, an internal error (exit 4), never a
# verdict (exit 1).  The passes walk flat chains in loops or on their own
# stacks; `simplify` still recurses through the two levels per link of a
# subjectTo chain, and the search's closures through one.


def test_long_conjunction_passes_every_subcommand(tmp_path):
    path = _nested_module(tmp_path, " && ".join(["p x"] * 500))
    for args in (("parse",), ("transform",), ("transform", "--variant", "deriv")):
        rc, out, err = run_cli(*args, path)
        assert (rc, err) == (0, "") and out.count("p x && ") == 499, args
    # Each conjunct is simplified assuming its siblings; `Expr.__hash__`
    # hashes the chain from its own stack.
    rc, out, err = run_cli("transform", "--simplify", path)
    assert (rc, err) == (0, "") and "  if p x\n  then q x\n" in out
    rc, out, err = run_cli("emit-smt", path)
    assert (rc, err) == (0, "") and "(and" + " (p x)" * 500 + ")" in out
    rc, out, err = run_cli("emit-smt", "--simplify", path)
    assert (rc, err) == (0, "") and "(assert (forall ((x S)) (=> (p x) (q x))))\n" in out
    # The compiled && chain is one closure that loops over its operands,
    # and the monotonicity check keeps its own stack.
    for n in (500, 1000):
        path = _nested_module(tmp_path, " && ".join(["p x"] * n))
        for variant in ("precond", "deriv"):
            rc, out, err = run_cli("check", path, "--variant", variant, "--assert", "a", "--sizes", "S=1")
            assert (rc, out, err) == (0, "assertion a (valid): valid\n", ""), (n, variant)
        rc, out, err = run_cli("invert", path)
        assert (rc, err) == (0, "") and out.count("p x && ") == n - 1
    # The deriv lift names each occurrence of a lifted atom in pre-order.
    path = _nested_module(tmp_path, " && ".join(["q x"] * 500))
    rc, out, err = run_cli("transform", "--variant", "deriv", path)
    assert (rc, err) == (0, "")
    assert "for x: S, rn: Rulename_q, rn1: Rulename_q, rn2:" in out
    assert "  if q+ rn x && q+ rn1 x && " in out and " && q+ rn499 x\n" in out


def test_long_subject_to_chain_compiles_and_simplify_overflows(tmp_path):
    path = tmp_path / "chain.l4"
    path.write_text(subject_to_chain(500))
    # The printer folds over each shared precondition once.
    rc, out, err = run_cli("transform", path)
    assert (rc, err) == (0, "") and out.count("rule <r") == 500
    # `simplify` still recurses per level and overflows.
    rc, out, err = run_cli("emit-smt", "--simplify", path)
    assert (rc, out) == (4, "")
    assert err.startswith("internal error: RecursionError: ") and err.count("\n") == 1
    # The search compiles and stages each shared precondition once.  It
    # asks each rule whether its link's precondition is definitely true,
    # one closure frame per link, since `not` hands over the other
    # direction of its operand.  So `check` gets through the same chain,
    # with the inversions (where `p` is forced false and each link stops
    # at its first operand) and without them.
    for flags in ((), ("--no-inversions",)):
        rc, out, err = run_cli("check", path, *flags, "--assert", "a", "--sizes", "S=1")
        assert (rc, out, err) == (0, "assertion a (valid): valid\n", ""), flags


def test_correspond_gets_through_a_subject_to_chain(tmp_path):
    # The search asks each formula only whether it is definitely false,
    # so --> asks nothing of its conclusion while its premise is
    # unknown; computing the conclusion's value there, at every cell,
    # took seconds on this chain.
    path = tmp_path / "chain.l4"
    path.write_text(subject_to_chain(300))
    rc, out, err = run_cli("correspond", path, "--sizes", "S=1")
    assert (rc, out, err) == (
        0,
        "checked 1 precondition-route and 1 derivability-route models\n"
        "correspondence holds on every model\n",
        "",
    )


def test_transform_writes_a_long_chain_in_linear_memory(tmp_path):
    # The 2000-link chain prints 26 MB: the text of each rule's
    # precondition holds the one before it.  The printer keeps ropes of
    # the shared preconditions and writes the module block by block;
    # --json escapes it block by block.
    # The child reads its peak from VmHWM: on Linux its ru_maxrss also
    # counts the memory of the test process it was started from.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status")
    path = tmp_path / "chain.l4"
    path.write_text(subject_to_chain(2000))
    for flags in ([], ["--json"]):
        script = (
            "import os, re, sys\n"
            "from normlog import cli\n"
            "sys.stdout = open(os.devnull, 'w')\n"
            f"rc = cli.main(['transform', {str(path)!r}, *{flags!r}])\n"
            "peak = re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read()).group(1)\n"
            "sys.stderr.write(f'{rc} {peak}')\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT)
        rc, peak_kb = proc.stderr.split()
        assert rc == "0" and int(peak_kb) < 80 * 1024, flags


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


def test_check_budget_counts_the_cells_of_the_pruned_search():
    # Pruning symmetric models leaves 19,102 of the 57,392 cell
    # assignments of the search that checks every model.
    args = ["check", REPAIRED, "--assert", "maxSpFunctional", "--sizes", "Vehicle=2,Day=2,Road=1", "--ints", INTS]
    rc, out, err = run_cli(*args, "--budget", "19102")
    assert (rc, out, err) == (0, "assertion maxSpFunctional (valid): valid\n", "")
    rc, out, err = run_cli(*args, "--budget", "19101")
    assert (rc, out, err) == (3, "", "resource cap: model search exceeded 19101 cell assignments\n")


def test_check_integer_outside_the_pool_is_bad_input():
    # 320 is not among the integers, so the sports car rule applies
    # maxSp outside its table: an error where the whole-table search
    # raised it, not a pruned branch.
    rc, out, err = run_cli(
        "check", REPAIRED, "--assert", "maxSpFunctional", "--sizes", SIZES, "--ints", "90,130"
    )
    assert (rc, out, err) == (2, "", "error: partial application of 'maxSp'\n")


@pytest.mark.parametrize("command", [["check", "--assert", "maxSpFunctional"], ["correspond"]])
@pytest.mark.parametrize(
    "sizes, message",
    [
        (SIZES + ",Foo=2", "'Foo=2': 'Foo' is not a sort of the module"),
        ("Vehicle=1,Vehicel=3,Day=1,Road=1", "'Vehicel=3': 'Vehicel' is not a sort of the module"),
        ("Vehicle=1,Car=2,Day=1,Road=1", "'Car=2': 'Car' is a subclass of sort 'Vehicle'"),
        ("Vehicle=1,Day=1,Road=1,SportsCar=1", "'SportsCar=1': 'SportsCar' is a subclass of sort 'Vehicle'"),
        ("Vehicle=1,Day=1,Road=1,Vehicle=2", "'Vehicle=2': 'Vehicle' is already given"),
    ],
)
def test_sizes_name_each_sort_at_most_once(command, sizes, message):
    # An entry that names no sort, or a sort again, was once ignored.
    rc, out, err = run_cli(command[0], REPAIRED, *command[1:], "--sizes", sizes, "--ints", INTS)
    assert (rc, out, err) == (2, "", f"error: --sizes entry {message}\n")


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
    assert err == "resource cap: legal model search exceeded 2^3 nodes with 1 of 4 rules decided\n"


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


# ---------------------------------------------------------------------------
# robustness: every input gets an exit code of the contract

_L4_COMMANDS = [
    ["parse"],
    ["parse", "--json"],
    ["transform", "--variant", "deriv", "--simplify"],
    ["invert"],
    ["emit-smt", "--assert", "maxSpFunctional"],
    ["check", "--assert", "maxSpFunctional", "--sizes", SIZES, "--ints", INTS, "--budget", "2000"],
    ["correspond", "--sizes", SIZES, "--ints", INTS, "--budget", "2000"],
]
_CFG_COMMANDS = [
    ["emit-asp"],
    ["legal-models", "--cap-bits", "8"],
    ["answer-sets", "--cap-bits", "8"],
    ["verify-lemma4", "--cap-bits", "8"],
    ["ground"],
]
_SPLICES = ["-->", "forall ", "<-"]


def _mutant(text, rng):
    """`text` after one to three random edits: a character deleted,
    inserted or swapped with the next, or a piece of syntax spliced in."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text))
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:i] + text[i + 1 :]
        elif edit == 1:
            text = text[:i] + rng.choice(text) + text[i:]
        elif edit == 2:
            text = text[:i] + text[i + 1 : i + 2] + text[i] + text[i + 2 :]
        else:
            text = text[:i] + rng.choice(_SPLICES) + text[i:]
    return text


def test_mutated_inputs_exit_with_a_contract_code(tmp_path, capsys):
    # Mutated cases and random bytes through every subcommand that reads
    # a file.  The exit code is 0 holds, 1 property failed, 2 bad input
    # or 3 cap hit; never 4, an internal error.
    rng = random.Random(12)
    path = tmp_path / "mutant"
    codes = set()
    for case in sorted(CASES.iterdir()):
        commands = _L4_COMMANDS if case.suffix == ".l4" else _CFG_COMMANDS
        text = case.read_text(encoding="utf-8")
        inputs = [_mutant(text, rng).encode() for _ in range(12)]
        inputs.append(rng.randbytes(len(text)))
        for data in inputs:
            path.write_bytes(data)
            for command in commands:
                rc = cli.main([command[0], str(path), *command[1:]])
                _, err = capsys.readouterr()
                assert rc in (0, 1, 2, 3), (case.name, data, command, err)
                codes.add(rc)
    assert codes >= {0, 1, 2}
