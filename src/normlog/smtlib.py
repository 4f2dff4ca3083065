"""SMT-LIB 2.6 emission, plus a small reader used to sanity-check that
emitted scripts are well-formed and self-contained.

The emitter writes one deterministic script per formula set: sort
declarations, symbol declarations, carrier axioms for rule-name sorts
(distinctness and exhaustiveness), the always-true axioms for sort
characteristic predicates, one assert per formula, and optionally a
goal.  A validity goal is asserted negated, so `sat` answers from a
solver mean "countermodel found" and `unsat` means "valid".

The emitter renders each distinct expression node once per script, so
preconditions shared between rules cost their size once, not once per
occurrence.

The reader is not a solver and does not try to be one.  It splits the
text into tokens with one regular expression, parses s-expressions,
tracks declarations and binders, and checks every applied symbol is
known with a consistent arity.  Numerals and decimals follow the
SMT-LIB grammar (`0`, `[1-9][0-9]*`, optionally `.[0-9]+`); every
other token, `inf` or `nan` included, is a symbol and must be
declared.  That is enough to catch emitter regressions without an
external dependency.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional, Union

from .syntax import (
    VALID,
    And,
    App,
    BoolLit,
    BoolT,
    ClassT,
    Cmp,
    Eq,
    Exists,
    Expr,
    FloatLit,
    FloatT,
    Forall,
    IfThenElse,
    Implies,
    IntLit,
    IntT,
    Not,
    NormlogError,
    Or,
    StringLit,
    StrT,
    Var,
    atom_parts,
    spine,
    uncurry,
)
from .models import FormulaSet


class SmtError(NormlogError):
    pass


_SIMPLE_EXTRA = set("~!@$%^&*_-+=<>.?/")


def smt_symbol(name: str) -> str:
    """Quote a symbol with |...| when it is not a simple symbol (our
    generated names with apostrophes need this)."""
    ok = name and not name[0].isdigit() and all(
        c.isalnum() or c in _SIMPLE_EXTRA for c in name
    )
    if ok:
        return name
    if "|" in name or "\\" in name:
        raise SmtError(f"symbol '{name}' cannot be represented in SMT-LIB")
    return f"|{name}|"


def smt_sort(t) -> str:
    if isinstance(t, BoolT):
        return "Bool"
    if isinstance(t, IntT):
        return "Int"
    if isinstance(t, FloatT):
        return "Real"
    if isinstance(t, StrT):
        return "String"
    if isinstance(t, ClassT):
        return smt_symbol(t.name)
    raise SmtError(f"type '{t}' has no SMT-LIB sort")


def _implies_spine(e: Expr) -> list[Expr]:
    out = []
    while isinstance(e, Implies):
        out.append(e.left)
        e = e.right
    out.append(e)
    return out


def smt_decimal(v: float) -> str:
    """An SMT-LIB decimal with the digits of the float's shortest repr,
    never in exponent notation, which SMT-LIB does not have."""
    if not math.isfinite(v):
        raise SmtError(f"float {v!r} has no SMT-LIB decimal")
    body = format(Decimal(repr(abs(v))), "f")
    if "." not in body:
        body += ".0"
    return body if v >= 0 else f"(- {body})"


_CONNECTIVES = {And: "and", Or: "or", Implies: "=>"}


def expr_to_sexp(e: Expr, memo: Optional[dict[int, str]] = None) -> str:
    """The SMT-LIB term of an expression.

    Each distinct node is rendered once: `memo` maps `id(node)` to its
    text, so a subterm shared by several formulas is rendered once and
    its text reused.  A memo is only valid while the nodes it has seen
    are alive; `emit_smtlib` uses one per script."""
    if memo is None:
        memo = {}
    s = memo.get(id(e))
    if s is not None:
        return s
    if isinstance(e, Var):
        s = smt_symbol(e.name)
    elif isinstance(e, BoolLit):
        s = "true" if e.value else "false"
    elif isinstance(e, IntLit):
        s = str(e.value) if e.value >= 0 else f"(- {-e.value})"
    elif isinstance(e, FloatLit):
        s = smt_decimal(e.value)
    elif isinstance(e, StringLit):
        s = '"' + e.value.replace('"', '""') + '"'
    elif isinstance(e, Not):
        s = f"(not {expr_to_sexp(e.arg, memo)})"
    elif isinstance(e, (And, Or, Implies)):
        operands = _implies_spine(e) if isinstance(e, Implies) else spine(e, type(e))
        parts = []
        for x in operands:
            parts.append(expr_to_sexp(x, memo))
        s = f"({_CONNECTIVES[type(e)]} " + " ".join(parts) + ")"
    elif isinstance(e, Eq):
        s = f"(= {expr_to_sexp(e.left, memo)} {expr_to_sexp(e.right, memo)})"
    elif isinstance(e, Cmp):
        s = f"({e.op} {expr_to_sexp(e.left, memo)} {expr_to_sexp(e.right, memo)})"
    elif isinstance(e, App):
        head_args = atom_parts(e)
        if head_args is None:
            raise SmtError("cannot emit application of a non-symbol")
        head, args = head_args
        parts = []
        for a in args:
            parts.append(expr_to_sexp(a, memo))
        s = f"({smt_symbol(head)} " + " ".join(parts) + ")"
    elif isinstance(e, (Forall, Exists)):
        kind = "forall" if isinstance(e, Forall) else "exists"
        binders = []
        body = e
        while isinstance(body, type(e)):
            binders.append(f"({smt_symbol(body.var)} {smt_sort(body.var_type)})")
            body = body.body
        s = f"({kind} (" + " ".join(binders) + f") {expr_to_sexp(body, memo)})"
    elif isinstance(e, IfThenElse):
        s = (
            f"(ite {expr_to_sexp(e.cond, memo)} {expr_to_sexp(e.then, memo)} "
            f"{expr_to_sexp(e.other, memo)})"
        )
    else:
        raise SmtError(f"cannot emit {type(e).__name__} nodes to SMT-LIB")
    memo[id(e)] = s
    return s


def emit_smtlib(
    fs: FormulaSet, goal: Optional[tuple[str, str, Expr]] = None
) -> str:
    """Render a formula set as one SMT-LIB script.  `goal` is
    (assertion name, mode, formula); a validity goal is negated."""
    lines: list[str] = ["(set-logic ALL)"]

    if fs.sorts:
        lines.append("; sorts")
        for s in fs.sorts:
            lines.append(f"(declare-sort {smt_symbol(s)} 0)")

    lines.append("; symbols")
    char_sorts: dict[str, str] = {}
    for d in fs.decls:
        args, cod = uncurry(d.type)
        if d.name in fs.char_true and args:
            char_sorts[d.name] = smt_sort(args[0])
        if args:
            doms = " ".join(smt_sort(a) for a in args)
            lines.append(f"(declare-fun {smt_symbol(d.name)} ({doms}) {smt_sort(cod)})")
        else:
            lines.append(f"(declare-const {smt_symbol(d.name)} {smt_sort(cod)})")

    for sort, consts in fs.fixed:
        lines.append(f"; carrier of {sort}")
        names = [smt_symbol(c) for c in consts]
        if len(names) > 1:
            lines.append("(assert (distinct " + " ".join(names) + "))")
        eqs = [f"(= x {n})" for n in names]
        body = eqs[0] if len(eqs) == 1 else "(or " + " ".join(eqs) + ")"
        lines.append(f"(assert (forall ((x {smt_symbol(sort)})) {body}))")

    for p in fs.char_true:
        sort = char_sorts.get(p)
        if sort is None:
            continue
        lines.append(f"; {p} holds on all of {sort}")
        lines.append(f"(assert (forall ((x {sort})) ({smt_symbol(p)} x)))")

    memo: dict[int, str] = {}
    for name, expr in fs.formulas:
        lines.append(f"; {name}")
        lines.append(f"(assert {expr_to_sexp(expr, memo)})")

    if goal is not None:
        gname, mode, gexpr = goal
        if mode == VALID:
            lines.append(f"; goal {gname} (validity: negated, sat = countermodel)")
            lines.append(f"(assert (not {expr_to_sexp(gexpr, memo)}))")
        else:
            lines.append(f"; goal {gname} (satisfiability)")
            lines.append(f"(assert {expr_to_sexp(gexpr, memo)})")

    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reader / structural validation


Sexp = Union[str, int, float, tuple, list]


# One alternative per token kind, tried in order: a comment (the empty
# group, dropped), a parenthesis, a |quoted symbol|, a "string" with ""
# escapes, a simple symbol or numeral.  A lone | or " is what remains
# of an unterminated symbol or string.
_TOKEN = re.compile(r';[^\n]*|([()]|\|[^|]*\||"(?:[^"]|"")*"|[^\s();|"]+|[|"])')


def _tokenize(text: str) -> list[str]:
    toks = list(filter(None, _TOKEN.findall(text)))
    bad = [toks.index(t) for t in ("|", '"') if t in toks]
    if bad:
        if toks[min(bad)] == "|":
            raise SmtError("unterminated |symbol|")
        raise SmtError("unterminated string literal")
    if '""' in text:
        toks = [
            '"' + t[1:-1].replace('""', '"') + '"' if t[0] == '"' else t for t in toks
        ]
    return toks


def _parse_sexps(toks: list[str]) -> list[Sexp]:
    out: list[Sexp] = []
    stack: list[list] = []
    for t in toks:
        if t == "(":
            stack.append([])
        elif t == ")":
            if not stack:
                raise SmtError("unbalanced ')'")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                out.append(done)
        else:
            atom = _atom(t)
            if stack:
                stack[-1].append(atom)
            else:
                out.append(atom)
    if stack:
        raise SmtError("unbalanced '('")
    return out


# SMT-LIB numerals and decimals; every other token is a symbol.
_NUMBER = re.compile(r"(?:0|[1-9][0-9]*)(\.[0-9]+)?")


def _atom(t: str) -> Sexp:
    if t[0] == '"':
        return ("string", t[1:-1])
    if t[0] == "|":
        return t[1:-1]
    if t[0] in "0123456789":
        m = _NUMBER.fullmatch(t)
        if m is not None:
            return float(t) if m.group(1) else int(t)
    return t


_BUILTIN_SORTS = {"Bool", "Int", "Real", "String"}
_BUILTIN_OPS = {"and", "or", "not", "=>", "=", "distinct", "ite", "<", "<=", ">", ">=", "+", "-", "*"}


@dataclass(frozen=True)
class ScriptInfo:
    sorts: tuple[str, ...]
    symbols: dict[str, int]  # name -> arity
    assert_count: int
    has_check_sat: bool
    has_get_model: bool


def read_script(text: str) -> ScriptInfo:
    """Parse an SMT-LIB script and check that every sort and symbol is
    declared before use and applied at its declared arity."""
    forms = _parse_sexps(_tokenize(text))
    sorts: list[str] = []
    symbols: dict[str, int] = {}
    assert_count = 0
    has_check_sat = False
    has_get_model = False

    def check_sort(s: Sexp) -> None:
        if not isinstance(s, str) or (s not in _BUILTIN_SORTS and s not in sorts):
            raise SmtError(f"unknown sort {s!r}")

    def check_term(term: Sexp) -> None:
        """Check `term` depth first, left to right, with an explicit
        stack of iterators over argument lists.  A binder counts its
        names in `bound` while its body's frame is on the stack."""
        bound: dict[str, int] = {}
        stack = [iter((term,))]
        scopes: list[list[str]] = [[]]
        while stack:
            for e in stack[-1]:
                kind = type(e)
                if kind is str:
                    if e in bound or e == "true" or e == "false":
                        continue
                    if e not in symbols:
                        raise SmtError(f"unknown symbol '{e}'")
                    if symbols[e] != 0:
                        raise SmtError(f"symbol '{e}' of arity {symbols[e]} used without arguments")
                    continue
                if kind is not list or not e:
                    if kind is int or kind is float or kind is tuple:  # tuple: a string literal
                        continue
                    raise SmtError(f"ill-formed term {e!r}")
                head = e[0]
                if head == "forall" or head == "exists":
                    if len(e) != 3 or not isinstance(e[1], list):
                        raise SmtError(f"ill-formed {head}")
                    names = []
                    for b in e[1]:
                        if not (isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)):
                            raise SmtError(f"ill-formed binder in {head}")
                        check_sort(b[1])
                        names.append(b[0])
                    for name in names:
                        bound[name] = bound.get(name, 0) + 1
                    stack.append(iter((e[2],)))
                    scopes.append(names)
                    break
                if not isinstance(head, str):
                    raise SmtError(f"ill-formed application {e!r}")
                if head not in _BUILTIN_OPS:
                    if head not in symbols:
                        raise SmtError(f"unknown symbol '{head}'")
                    if symbols[head] != len(e) - 1:
                        raise SmtError(
                            f"symbol '{head}' declared with arity {symbols[head]}, applied to {len(e) - 1}"
                        )
                args = iter(e)
                next(args)
                stack.append(args)
                scopes.append([])
                break
            else:
                stack.pop()
                for name in scopes.pop():
                    bound[name] -= 1
                    if not bound[name]:
                        del bound[name]

    for form in forms:
        if not isinstance(form, list) or not form or not isinstance(form[0], str):
            raise SmtError(f"ill-formed command {form!r}")
        cmd = form[0]
        if cmd == "set-logic":
            continue
        if cmd == "declare-sort":
            if len(form) != 3 or not isinstance(form[1], str) or form[2] != 0:
                raise SmtError("ill-formed declare-sort")
            sorts.append(form[1])
        elif cmd == "declare-fun":
            if len(form) != 4 or not isinstance(form[1], str) or not isinstance(form[2], list):
                raise SmtError("ill-formed declare-fun")
            for a in form[2]:
                check_sort(a)
            check_sort(form[3])
            symbols[form[1]] = len(form[2])
        elif cmd == "declare-const":
            if len(form) != 3 or not isinstance(form[1], str):
                raise SmtError("ill-formed declare-const")
            check_sort(form[2])
            symbols[form[1]] = 0
        elif cmd == "assert":
            if len(form) != 2:
                raise SmtError("ill-formed assert")
            check_term(form[1])
            assert_count += 1
        elif cmd == "check-sat":
            has_check_sat = True
        elif cmd == "get-model":
            has_get_model = True
        else:
            raise SmtError(f"unsupported command '{cmd}'")

    return ScriptInfo(tuple(sorts), symbols, assert_count, has_check_sat, has_get_model)
