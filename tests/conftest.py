import os
import subprocess
import sys
from pathlib import Path

from normlog.parser import parse_module
from normlog.syntax import check_well_formed
from normlog.typecheck import elaborate, typecheck_module

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "cases"

# Child processes (`python -m normlog.cli`) run this checkout's package,
# installed or not.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
)


def load_case(name):
    """Parse, validate, elaborate and typecheck a module from cases/."""
    m = parse_module((CASES / name).read_text())
    problems = [d for d in check_well_formed(m) if d.severity == "error"]
    assert not problems, problems
    m = elaborate(m)
    typecheck_module(m)
    return m


def run_cli(*args):
    """Run the installed command line in a subprocess.

    Working directory is the repository root so that cases/... paths in
    tests match what a user would type.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "normlog.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    return proc.returncode, proc.stdout, proc.stderr


def subject_to_chain(n):
    """A module of n one-line rules over one sort, each subjectTo the
    one before, and one validity assertion."""
    rules = [
        f"rule <r{i}>{f' {{restrict: {{subjectTo: r{i - 1}}}}}' if i else ''}\n"
        f"  for x: S\n  if p x\n  then q x\n"
        for i in range(n)
    ]
    return (
        "class S\ndecl p : S -> Boolean\ndecl q : S -> Boolean\n\n"
        + "\n".join(rules)
        + "\nassert <a> {SMT: {valid}}\n  forall x: S. p x --> q x\n"
    )
