"""Command line interface.

Subcommands mirror the library surface: parse/transform/invert for the
rule language, emit-smt/check/correspond for the classical backend,
emit-asp/legal-models/answer-sets/verify-lemma4/ground for defeasible
configurations.

Exit codes: 0 success (including "the check passed"), 1 a checked
property failed (countermodel found, correspondence violated, encoding
unsound), 2 bad input or usage (parse or type errors, cyclic rule
orderings, malformed configurations), 3 a resource cap was hit, which
says nothing about the property itself, 4 an internal error (an
unexpected exception, such as running out of recursion depth).

Output is plain deterministic text (or JSON with --json); no color is
ever emitted, so NO_COLOR holds trivially.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence

from .syntax import NormlogError, RuleModule, check_well_formed, module_pieces, print_expr
from .parser import LParseError, parse_module
from .typecheck import Env, elaborate, is_sort, sort_of, typecheck_module
from .transform import Variant, transform_module
from .inversion import (
    check_syntactic_monotonicity,
    inversion_formula,
    inversion_targets,
)
from .models import (
    DEFAULT_NODE_BUDGET,
    Interpretation,
    ModelError,
    ResourceCapError,
    assertion_problem,
    check_assertion,
    rules_to_formulas,
)
from .smtlib import emit_smtlib
from .correspond import check_model_correspondence
from . import asp

SCHEMA = "normlog/1"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise NormlogError(f"{path}: not valid UTF-8: {e.reason} at byte {e.start}") from None


def _write_or_print(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        print(text, end="")


def _emit_json(payload: dict, module: Optional[Iterable[str]] = None) -> None:
    """Print the payload as `json.dumps(..., indent=2)` does.  Given the
    pieces of a module's text, add them as a last key "module", escaped
    and written one piece at a time, so that neither the whole text nor
    its JSON string is ever held."""
    text = json.dumps({"schema": SCHEMA, **payload}, indent=2)
    if module is None:
        print(text)
        return
    write = sys.stdout.write
    write(text[: -len("\n}")] + ',\n  "module": "')
    for piece in module:
        write(encode_basestring_ascii(piece)[1:-1])
    write('"\n}\n')


def _parse_sizes(text: Optional[str], m: RuleModule) -> dict[str, int]:
    """The carrier sizes given by --sizes: each entry names a sort of the
    module `m`, at most once."""
    out: dict[str, int] = {}
    if not text:
        return out
    classes = Env.from_module(m).classes
    for part in text.split(","):
        if "=" not in part:
            raise ModelError(f"bad --sizes entry '{part}', expected Name=N")
        name, _, num = part.partition("=")
        try:
            size = int(num)
        except ValueError:
            raise ModelError(f"bad carrier size '{num}' for '{name}'") from None
        key = name.strip()
        if key in out:
            raise ModelError(f"--sizes entry '{part}': '{key}' is already given")
        if key not in classes:
            raise ModelError(f"--sizes entry '{part}': '{key}' is not a sort of the module")
        if not is_sort(key, classes):
            sort = sort_of(key, classes)
            raise ModelError(f"--sizes entry '{part}': '{key}' is a subclass of sort '{sort}'")
        out[key] = size
    return out


def _non_negative(text: str) -> int:
    """A --budget or --cap-bits value: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _parse_ints(text: Optional[str]) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ModelError(f"bad --ints list '{text}'") from None


def _load_module(path: str):
    m = parse_module(_read(path))
    diags = check_well_formed(m)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise LParseError(errors[0].loc, errors[0].message)
    m = elaborate(m)
    typecheck_module(m)
    return m


def _render_model(interp: Interpretation) -> list[str]:
    lines = []
    for s, es in interp.carriers.items():
        lines.append(f"sort {s} = {{{', '.join(es)}}}")
    if interp.ints:
        lines.append(f"integers = {{{', '.join(map(str, interp.ints))}}}")
    for name, table in interp.tables.items():
        for args, v in table.items():
            call = name if not args else f"{name}({', '.join(map(str, args))})"
            lines.append(f"  {call} = {v}")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def cmd_parse(args) -> int:
    m = _load_module(args.file)
    if args.json:
        _emit_json({"command": "parse"}, module_pieces(m))
    else:
        for piece in module_pieces(m):
            sys.stdout.write(piece)
    return 0


def cmd_transform(args) -> int:
    m = _load_module(args.file)
    variant = Variant(args.variant)
    res = transform_module(m, variant, simplify_preconds=args.simplify)
    if args.json:
        _emit_json(
            {
                "command": "transform",
                "variant": variant.value,
                "order": {
                    "edges": [list(e) for e in res.order.edges],
                    "sequence": list(res.order.sequence),
                },
                "trace": list(res.trace),
            },
            module_pieces(res.module),
        )
    else:
        for piece in module_pieces(res.module):
            sys.stdout.write(piece)
    return 0


def cmd_invert(args) -> int:
    m = _load_module(args.file)
    env = Env.from_module(m)
    targets = [args.pred] if args.pred else inversion_targets(m)
    rules = [r for r in m.rules if not r.is_bodyless()]
    payload = []
    for p in targets:
        f = inversion_formula(rules, p, env)
        mono = check_syntactic_monotonicity(rules, p)
        payload.append(
            {
                "predicate": p,
                "formula": print_expr(f),
                "monotone": mono.ok,
                "offenders": [list(o) for o in mono.offenders],
            }
        )
    if args.json:
        _emit_json({"command": "invert", "inversions": payload})
    else:
        for entry in payload:
            print(f"inversion {entry['predicate']}: {entry['formula']}")
            if not entry["monotone"]:
                for rule, why in entry["offenders"]:
                    print(f"  warning: non-monotone use in rule {rule}: {why}")
    return 0


def cmd_emit_smt(args) -> int:
    m = _load_module(args.file)
    res = transform_module(m, Variant(args.variant), simplify_preconds=args.simplify)
    inversions = not args.no_inversions
    if args.assertion:
        fs, goal = assertion_problem(res.module, args.assertion, inversions)
    else:
        fs, goal = rules_to_formulas(res.module, inversions), None
    _write_or_print(emit_smtlib(fs, goal), args.output)
    return 0


def cmd_check(args) -> int:
    m = _load_module(args.file)
    res = transform_module(m, Variant(args.variant), simplify_preconds=args.simplify)
    outcome = check_assertion(
        res.module,
        args.assertion,
        _parse_sizes(args.sizes, m),
        _parse_ints(args.ints),
        include_inversions=not args.no_inversions,
        node_budget=args.budget,
    )
    if args.json:
        _emit_json({"command": "check", **outcome.to_json()})
    else:
        print(f"assertion {outcome.assertion} ({outcome.mode}): {outcome.status}")
        if outcome.model is not None:
            for line in _render_model(outcome.model):
                print(line)
    return 0 if outcome.holds else 1


def cmd_correspond(args) -> int:
    m = _load_module(args.file)
    report = check_model_correspondence(
        m,
        _parse_sizes(args.sizes, m),
        _parse_ints(args.ints),
        node_budget=args.budget,
    )
    if args.json:
        _emit_json({"command": "correspond", **report.to_json()})
    else:
        print(
            f"checked {report.checked_precond} precondition-route and "
            f"{report.checked_deriv} derivability-route models"
        )
        if report.ok:
            print("correspondence holds on every model")
        else:
            if not report.counts_agree:
                print("the two routes have different numbers of models")
            for v in report.violations:
                print(f"violation ({v.direction}): {v.formula}")
    return 0 if report.ok else 1


def cmd_emit_asp(args) -> int:
    cfg = asp.parse_config(_read(args.file))
    _write_or_print(asp.emit_asp(cfg).to_text(), args.output)
    return 0


def _model_line(m: asp.LegalModel) -> str:
    legal = ", ".join(sorted(str(a) for a in m.is_legal))
    valid = ", ".join(
        f"({i}, {a})" for i, a in sorted(m.legally_valid, key=lambda p: (p[0], str(p[1])))
    )
    return f"is_legal {{{legal}}} legally_valid {{{valid}}}"


def cmd_legal_models(args) -> int:
    cfg = asp.parse_config(_read(args.file))
    models = asp.legal_models(cfg, cap_bits=args.cap_bits)
    if args.minimal_only:
        models = asp.minimal_only(models)
    if args.json:
        _emit_json(
            {
                "command": "legal-models",
                "count": len(models),
                "models": [m.to_json() for m in models],
            }
        )
    else:
        print(f"{len(models)} legal model(s)")
        for i, m in enumerate(models, 1):
            print(f"model {i}: {_model_line(m)}")
    return 0


def cmd_answer_sets(args) -> int:
    cfg = asp.parse_config(_read(args.file))
    sets = asp.answer_sets(asp.emit_asp(cfg), guess_cap_bits=args.cap_bits)
    if args.project:
        models = [asp.project_answer_set(s) for s in sets]
        if args.json:
            _emit_json(
                {
                    "command": "answer-sets",
                    "count": len(models),
                    "projections": [m.to_json() for m in models],
                }
            )
        else:
            print(f"{len(sets)} answer set(s)")
            for i, m in enumerate(models, 1):
                print(f"answer set {i}: {_model_line(m)}")
    else:
        if args.json:
            _emit_json(
                {
                    "command": "answer-sets",
                    "count": len(sets),
                    "sets": [sorted(map(str, s)) for s in sets],
                }
            )
        else:
            print(f"{len(sets)} answer set(s)")
            for i, s in enumerate(sets, 1):
                print(f"answer set {i}: {{{', '.join(sorted(map(str, s)))}}}")
    return 0


def cmd_verify_lemma4(args) -> int:
    cfg = asp.parse_config(_read(args.file))
    report = asp.verify_lemma4(cfg, check_converse=not args.no_converse, cap_bits=args.cap_bits)
    if args.json:
        _emit_json({"command": "verify-lemma4", **report.to_json()})
    else:
        print(f"answer sets: {report.answer_sets}")
        if report.legal_models is not None:
            print(f"legal models: {report.legal_models}")
        if report.sound:
            print("every answer set projects to a legal model")
        else:
            for m, v in report.unsound:
                print(f"UNSOUND projection {m}:")
                for line in v:
                    print(f"  {line}")
        for m in report.uncovered:
            print(f"uncovered legal model (expected for self-supporting sets): {_model_line(m)}")
    return 0 if report.sound else 1


def cmd_ground(args) -> int:
    cfg = asp.parse_config(_read(args.file))
    consts = args.constants.split(",") if args.constants else None
    g = asp.ground(cfg, consts)
    for r in g.rules:
        print(r)
    for a in g.facts:
        print(f"fact: {a}.")
    for m in g.modifiers:
        print(f"modifier: {m}.")
    for k in g.inconsistent:
        print(f"inconsistent: {{{', '.join(str(a) for a in k)}}}.")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="normlog",
        description="compile, invert and check rule modules with defeasibility "
        "modifiers, and explore defeasible configurations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_module_opts(p):
        p.add_argument("file", help="rule module (.l4)")
        p.add_argument(
            "--variant",
            choices=[v.value for v in Variant],
            default=Variant.PRECOND.value,
            help="restriction semantics (default: precond)",
        )
        p.add_argument(
            "--simplify",
            action="store_true",
            help="simplify preconditions of the transformed rules",
        )

    p = sub.add_parser("parse", help="parse, elaborate and typecheck a module")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("transform", help="compile away defeasibility annotations")
    add_module_opts(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("invert", help="print inversion formulas and monotonicity warnings")
    p.add_argument("file")
    p.add_argument("--predicate", dest="pred", help="invert only this predicate")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("emit-smt", help="emit an SMT-LIB script")
    add_module_opts(p)
    p.add_argument("--assert", dest="assertion", help="include this assertion as the goal")
    p.add_argument("--no-inversions", action="store_true")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.set_defaults(fn=cmd_emit_smt)

    p = sub.add_parser("check", help="check an assertion over finite carriers")
    add_module_opts(p)
    p.add_argument("--assert", dest="assertion", required=True)
    p.add_argument("--sizes", help="carrier sizes, e.g. Vehicle=1,Day=1,Road=1")
    p.add_argument("--ints", help="integer values, e.g. 90,130,320")
    p.add_argument("--no-inversions", action="store_true")
    p.add_argument("--budget", type=_non_negative, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "correspond",
        help="check the model correspondence between the two restriction semantics",
    )
    p.add_argument("file")
    p.add_argument("--sizes")
    p.add_argument("--ints")
    p.add_argument("--budget", type=_non_negative, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_correspond)

    p = sub.add_parser("emit-asp", help="emit the answer set encoding of a configuration")
    p.add_argument("file", help="defeasible configuration (.cfg)")
    p.add_argument("-o", "--output", help="write to this file instead of stdout")
    p.set_defaults(fn=cmd_emit_asp)

    p = sub.add_parser("legal-models", help="enumerate legal models of a configuration")
    p.add_argument("file")
    p.add_argument("--minimal-only", action="store_true")
    p.add_argument("--cap-bits", type=_non_negative, default=asp.DEFAULT_CAP_BITS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_legal_models)

    p = sub.add_parser("answer-sets", help="stable models of the answer set encoding")
    p.add_argument("file")
    p.add_argument("--project", action="store_true", help="project to is_legal/legally_valid")
    p.add_argument("--cap-bits", type=_non_negative, default=asp.DEFAULT_CAP_BITS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_answer_sets)

    p = sub.add_parser(
        "verify-lemma4",
        help="check that answer sets project to legal models (and report the gap)",
    )
    p.add_argument("file")
    p.add_argument("--no-converse", action="store_true", help="skip the legal model sweep")
    p.add_argument("--cap-bits", type=_non_negative, default=asp.DEFAULT_CAP_BITS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify_lemma4)

    p = sub.add_parser("ground", help="instantiate a schematic configuration")
    p.add_argument("file")
    p.add_argument("--constants", help="comma-separated constants (default: all in the file)")
    p.set_defaults(fn=cmd_ground)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3
    except NormlogError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # A fault or a limit of the implementation (such as Python's
        # recursion limit on a deep tree), never a verdict on the input.
        detail = str(e).splitlines()[:1]
        print(": ".join(["internal error", type(e).__name__, *detail]), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
