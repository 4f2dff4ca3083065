"""Smoke runs of the scripts in scripts/, on a few samples."""

import subprocess
import sys

from conftest import ROOT


def _script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_correspondence_sweep_runs():
    rc, out, err = _script("correspondence_sweep.py", "--n", "5", "--seed", "3")
    assert (rc, err) == (0, "")
    assert "modules:          5 " in out
    assert "violations:       0\n" in out


def test_encoding_sweep_runs():
    rc, out, err = _script("encoding_sweep.py", "--n", "20", "--seed", "3")
    assert (rc, err) == (0, "")
    assert "configurations:  20\n" in out
    assert "unsound:         0\n" in out


def test_minimality_probe_runs():
    rc, out, err = _script("minimality_probe.py", "--random", "5")
    assert (rc, err) == (0, "")
    assert "nonminimal.cfg               legal=2   minimal=1   stable=1   covered=1/2\n" in out
    assert "random configurations:        5\n" in out


def test_speed_limit_walkthrough_runs():
    rc, out, err = _script("speed_limit_walkthrough.py")
    assert (rc, err) == (0, "")
    assert "rejected: cyclic rule ordering" in out
    assert "restricted rules + closure: valid\n" in out
    assert "unrestricted rules: counter_model\n" in out


def test_output_digest_runs():
    rc, out, err = _script("output_digest.py", "--n", "2", "--seed", "3")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    # per budget (four) and file: check of each assertion under both
    # variants and correspond, each plain and with --json (the original
    # speed limit has no assertion); the same once per sort of the file
    # (two, none, three, three and three), with that sort at two
    # elements; per file, the front end: parse, invert and four
    # transforms, each plain and with --json, and emit-smt four times
    # plus four per assertion; the same per random module, with one
    # assertion; then eight lines per configuration
    checks, frontend = 14 + 6 + 2 + 6 + 6, (12 + 16) + (12 + 8) + (12 + 4) + (12 + 8) + (12 + 8)
    two = 2 * 14 + 3 * 2 + 3 * 6 + 3 * 6
    assert len(lines) == 4 * checks + two + frontend + 2 * (6 + 20) + (7 + 2) * 8
    empty = "da39a3ee5e6b4b0d3255bfef95601890afd80709"
    # cases/attributes.l4 comes first: 14 lines per budget, 14 per sort,
    # then 28
    assert lines[12].startswith("0 ") and lines[12].endswith(
        f" {empty}  normlog correspond cases/attributes.l4 --sizes Vehicle=1,Day=1 --budget 5000000 --ints 80,100"
    )
    assert lines[68].endswith(
        f" {empty}  normlog correspond cases/attributes.l4 --sizes Vehicle=2,Day=1 --budget 5000000 --ints 80,100"
    )
    assert lines[112].startswith("1 ") and lines[112].endswith(
        f" {empty}  normlog check cases/selfref.l4 --assert anything --variant precond --sizes  --budget 5000000"
    )
    shown = [line.split("  normlog ")[1] for line in lines]
    assert (
        "check cases/speedlimit_repaired.l4 --assert maxSpFunctional --variant deriv"
        " --sizes Vehicle=1,Day=2,Road=1 --budget 5000000 --ints 90,130,320" in shown
    )
    assert "correspond randgen:3:1 --sizes Thing=2 --budget 5000000 --ints 1,2 --json" in shown
    assert "emit-smt randgen:3:1 --variant deriv --simplify --assert a" in shown
    assert "verify-lemma4 cases/bob.cfg --json" in shown and shown[-1] == "ground randcfg:3:1"
    assert {s.split()[0] for s in shown} == {
        "check", "correspond", "parse", "invert", "transform", "emit-smt",
        "emit-asp", "legal-models", "answer-sets", "verify-lemma4", "ground",
    }
    for line in lines:
        rc, stdout, stderr = line.split("  normlog ")[0].split(" ")
        assert rc in "0123" and len(stdout) == len(stderr) == 40
    # the cap of 10 cell assignments is hit on the speed limits
    assert any(line.startswith("3 ") and "--budget 10 " in line for line in lines)
    rc, again, err = _script("output_digest.py", "--n", "2", "--seed", "3")
    assert again == out


def test_bytecodes_counts_a_round_split_at_compile():
    rc, out, err = _script("bytecodes.py", "--workload", "l4_check", "--seed", "1")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "workload:  l4_check (seed 1, 104 queries)"
    counts = {}
    for line in lines[1:]:
        label, number = line.split(":")
        counts[label] = int(number.replace(",", ""))
    assert list(counts) == ["compile", "rest", "total", "traversal"]
    assert counts["compile"] > 0 and counts["rest"] > 0
    assert counts["total"] == counts["compile"] + counts["rest"]
    # An `l4_check` round compiles and searches formulas built at set-up:
    # it neither folds nor hashes a node.
    assert counts["traversal"] == 0
