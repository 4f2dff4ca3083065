#!/usr/bin/env python3
"""Digest the output of the `normlog` commands, one line per command
line, so that two versions of the program can be compared with `diff`.

Each line holds the exit code, the sha1 of stdout and the sha1 of
stderr, then the command line.  The command lines are:

* on every `cases/*.l4`, at carrier size 1 for every sort and the
  integer literals of the module as `--ints`: `check` of each assertion
  under both variants, and `correspond`, each plain and with `--json`,
  at the default budget and at the small ones of CASE_BUDGETS (they put
  the cap hits, exit 3, where the count of cell assignments puts them);
  then `check` and `correspond` again at the default budget with one
  sort at two elements and the others at one, for each sort in turn,
  so that exhaustive searches over more than one element are covered;
  then the front end: `parse`, `invert` and `transform` under both
  variants with and without `--simplify`, each plain and with
  `--json`, and `emit-smt` under both variants with and without
  `--simplify`, without `--assert` and with each assertion;
* on `--n` seeded `randgen` modules, each given one random assertion:
  the same commands at the module's sizes and integers, at `--budget`;
* on every `cases/*.cfg` and on `--n` seeded `randgen` configurations:
  `emit-asp`, `legal-models`, `answer-sets`, `verify-lemma4` and
  `ground`, the three that have `--json` also with it.

The commands run in this process through `normlog.cli.main`.  Compare
two checkouts by running the script from each and diffing the output:

    python3 scripts/output_digest.py --n 1000 > a.txt
"""

import argparse
import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from normlog import cli
from normlog.models import DEFAULT_NODE_BUDGET
from normlog.parser import parse_module
from normlog.randgen import random_annotated_module, random_config
from normlog.syntax import ROOT_CLASS, IntLit, IntT, children, print_module, uncurry

CASE_BUDGETS = (DEFAULT_NODE_BUDGET, 10, 100, 1000)
VARIANTS = ("precond", "deriv")
SIMPLIFY = ([], ["--simplify"])
CFG_JSON = ("legal-models", "answer-sets", "verify-lemma4")


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def run(argv: list[str], label: str) -> str:
    """One digest line: `argv` runs with `label` shown for its file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    shown = " ".join(label if a == argv[1] else a for a in argv)
    return f"{rc} {_digest(out.getvalue())} {_digest(err.getvalue())}  normlog {shown}"


def commands(path: str, assertions: list[str], sizes: str, ints: str, budget: int) -> list[list[str]]:
    common = ["--sizes", sizes, "--budget", str(budget)] + (["--ints", ints] if ints else [])
    lines = []
    for name in assertions:
        for variant in VARIANTS:
            lines.append(["check", path, "--assert", name, "--variant", variant, *common])
    lines.append(["correspond", path, *common])
    return [argv + flag for argv in lines for flag in ([], ["--json"])]


def frontend_commands(path: str, assertions: list[str]) -> list[list[str]]:
    lines = [["parse", path], ["invert", path]]
    lines += [["transform", path, "--variant", v, *simp] for v in VARIANTS for simp in SIMPLIFY]
    out = [argv + flag for argv in lines for flag in ([], ["--json"])]
    goals = [[]] + [["--assert", name] for name in assertions]
    out += [["emit-smt", path, "--variant", v, *simp, *goal] for v in VARIANTS for simp in SIMPLIFY for goal in goals]
    return out


def cfg_commands(path: str) -> list[list[str]]:
    out = []
    for command in ("emit-asp", "legal-models", "answer-sets", "verify-lemma4", "ground"):
        flags = ([], ["--json"]) if command in CFG_JSON else ([],)
        out += [[command, path, *flag] for flag in flags]
    return out


def _int_literals(m) -> str:
    stack = [r.precond for r in m.rules] + [r.postcond for r in m.rules]
    stack += [a.formula for a in m.assertions]
    values = set()
    while stack:
        e = stack.pop()
        if type(e) is IntLit:
            values.add(e.value)
        stack.extend(children(e))
    return ",".join(map(str, sorted(values)))


def case_lines() -> list[str]:
    out = []
    for path in sorted((ROOT / "cases").glob("*.l4")):
        label = f"cases/{path.name}"
        m = parse_module(path.read_text(encoding="utf-8"))
        sorts = [c.name for c in m.classes if c.parent == ROOT_CLASS]
        sizes = ",".join(f"{s}=1" for s in sorts)
        ints = _int_literals(m)
        names = [a.name for a in m.assertions]
        for budget in CASE_BUDGETS:
            for argv in commands(str(path), names, sizes, ints, budget):
                out.append(run(argv, label))
        for two in sorts:
            sizes = ",".join(f"{s}={2 if s == two else 1}" for s in sorts)
            for argv in commands(str(path), names, sizes, ints, DEFAULT_NODE_BUDGET):
                out.append(run(argv, label))
        for argv in frontend_commands(str(path), names):
            out.append(run(argv, label))
    return out


def _assertion(m, rng: random.Random) -> str:
    """One random assertion over the module's predicates, as text."""
    atoms = ["isSpecial x"]
    if any(c.name == "Extra" for c in m.classes):
        atoms.append("isExtra x")
    for d in m.decls:
        args, _ = uncurry(d.type)
        atoms += [f"{d.name} x {i}" for i in (1, 2)] if IntT() in args else [f"{d.name} x"]
    a, b = rng.choice(atoms), rng.choice(atoms)
    formula = rng.choice(
        [
            f"forall x: Thing. {a} --> {b}",
            f"forall x: Thing. {a} --> not ({b})",
            f"exists x: Thing. {a} && {b}",
            f"exists x: Thing. not ({a}) || {b}",
        ]
    )
    mode = rng.choice(["valid", "satisfiable"])
    return f"\nassert <a> {{SMT: {{{mode}}}}}\n  {formula}\n"


def randgen_lines(n: int, seed: int, budget: int) -> list[str]:
    rng = random.Random(seed)
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "module.l4"
        for i in range(n):
            sample = random_annotated_module(rng)
            path.write_text(print_module(sample.module) + _assertion(sample.module, rng), encoding="utf-8")
            sizes = ",".join(f"{s}={k}" for s, k in sample.sizes.items())
            ints = ",".join(map(str, sample.ints))
            label = f"randgen:{seed}:{i}"
            for argv in commands(str(path), ["a"], sizes, ints, budget) + frontend_commands(str(path), ["a"]):
                out.append(run(argv, label))
    return out


def _config_text(cfg) -> str:
    """A configuration as `.cfg` source, the way `normlog ground` prints it."""
    lines = [str(r) for r in cfg.rules] + [f"fact: {a}." for a in cfg.facts]
    lines += [f"modifier: {m}." for m in cfg.modifiers]
    lines += ["inconsistent: {" + ", ".join(map(str, k)) + "}." for k in cfg.inconsistent]
    return "\n".join(lines) + "\n"


def cfg_lines(n: int, seed: int) -> list[str]:
    out = []
    for path in sorted((ROOT / "cases").glob("*.cfg")):
        for argv in cfg_commands(str(path)):
            out.append(run(argv, f"cases/{path.name}"))
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.cfg"
        for i in range(n):
            path.write_text(_config_text(random_config(rng)), encoding="utf-8")
            for argv in cfg_commands(str(path)):
                out.append(run(argv, f"randcfg:{seed}:{i}"))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, default=100, help="randgen modules")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="budget of the randgen commands")
    args = ap.parse_args()
    lines = case_lines() + randgen_lines(args.n, args.seed, args.budget) + cfg_lines(args.n, args.seed)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
