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
from typing import Optional, Sequence, Union

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
    children,
    fold,
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


_SORTS = {BoolT: "Bool", IntT: "Int", FloatT: "Real", StrT: "String"}


def smt_sort(t) -> str:
    if isinstance(t, ClassT):
        return smt_symbol(t.name)
    if type(t) in _SORTS:
        return _SORTS[type(t)]
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
_QUANTIFIERS = {Forall: "forall", Exists: "exists"}
_PLAIN = (Not, Eq, Cmp, IfThenElse)  # written with their children


def _binders(e: Expr) -> tuple[list[str], Expr]:
    """The sorted variables of a run of quantifiers of `e`'s kind, and
    the body under them."""
    binders = []
    body = e
    while type(body) is type(e):
        binders.append(f"({smt_symbol(body.var)} {smt_sort(body.var_type)})")
        body = body.body
    return binders, body


def _operands(e: Expr) -> Sequence[Expr]:
    """The subterms `e` is written with: a chain of one connective is one
    term, an atom lists its arguments and a run of one quantifier binds
    all its variables.  A node that cannot be written raises here or has
    no operands, so the first fault in pre-order is the one reported."""
    kind = type(e)
    if kind is App:
        parts = atom_parts(e)
        if parts is None:
            raise SmtError("cannot emit application of a non-symbol")
        return parts[1]
    if kind in _CONNECTIVES:
        return _implies_spine(e) if kind is Implies else spine(e, kind)
    if kind in _QUANTIFIERS:
        return (_binders(e)[1],)
    return children(e) if kind in _PLAIN else ()


def _sexp_node(e: Expr, parts: list[str]) -> str:
    kind = type(e)
    if kind is Var:
        return smt_symbol(e.name)
    if kind is App:
        while type(e) is App:
            e = e.fn
        return f"({smt_symbol(e.name)} " + " ".join(parts) + ")"
    if kind in _CONNECTIVES:
        return f"({_CONNECTIVES[kind]} " + " ".join(parts) + ")"
    if kind in _QUANTIFIERS:
        return f"({_QUANTIFIERS[kind]} (" + " ".join(_binders(e)[0]) + f") {parts[0]})"
    if kind is Not:
        return f"(not {parts[0]})"
    if kind is BoolLit:
        return "true" if e.value else "false"
    if kind is IntLit:
        return str(e.value) if e.value >= 0 else f"(- {-e.value})"
    if kind is FloatLit:
        return smt_decimal(e.value)
    if kind is StringLit:
        return '"' + e.value.replace('"', '""') + '"'
    if kind is Eq:
        return f"(= {parts[0]} {parts[1]})"
    if kind is Cmp:
        return f"({e.op} {parts[0]} {parts[1]})"
    if kind is IfThenElse:
        return f"(ite {parts[0]} {parts[1]} {parts[2]})"
    raise SmtError(f"cannot emit {kind.__name__} nodes to SMT-LIB")


def expr_to_sexp(e: Expr, memo: Optional[dict] = None) -> str:
    """The SMT-LIB term of an expression: a `fold` over the operands
    each node is written with.  Each distinct node is rendered once, and
    `memo` may be shared by calls over formulas with common subterms; it
    is only valid while the nodes it has seen are alive, and
    `emit_smtlib` uses one per script."""
    return fold(e, _sexp_node, {} if memo is None else memo, _operands)


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
