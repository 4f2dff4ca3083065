"""SMT-LIB 2.6 emission, plus a small reader used to sanity-check that
emitted scripts are well-formed and self-contained.

The emitter writes one deterministic script per formula set: sort
declarations, symbol declarations, carrier axioms for rule-name sorts
(distinctness and exhaustiveness), the always-true axioms for sort
characteristic predicates, one assert per formula, and optionally a
goal.  A validity goal is asserted negated, so `sat` answers from a
solver mean "countermodel found" and `unsat` means "valid".

The emitter renders each distinct expression node once per script.
A Bool-valued subterm written from two or more places (by node
identity) is named once, as `(define-fun share!k ((x S) ...) Bool
body)`, when that line plus a reference at each place is shorter than
its text at each place; each place then writes `share!k` or
`(share!k x ...)`.  The parameters are the subterm's free bound
variables, sorted by name.  Definitions come before the first assert,
in the order their rendering finishes, and a body may use earlier
ones.  A subterm whose places bind one of its variables with different
sorts is written in full.  An `if` is Bool-valued when its then-branch
is, and a variable or literal there never counts as Bool: a bound
variable may shadow a declared Boolean constant.  Expanding the definitions gives back the
script with every occurrence written in full, and no script is longer
than that.

The reader is not a solver and does not try to be one.  It splits the
text into tokens with one regular expression, parses s-expressions,
tracks declarations, definitions and binders, and checks every applied
symbol is known with a consistent arity.  Numerals and decimals follow
the SMT-LIB grammar (`0`, `[1-9][0-9]*`, optionally `.[0-9]+`); every
other token, `inf` or `nan` included, is a symbol and must be
declared.  That is enough to catch emitter regressions without an
external dependency.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
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


# A script writes few names many times: the 99 scripts of one
# `l4_compile` round make 45767 calls on 146 names, and emitting them
# takes 16% less CPU time with the cache.
@lru_cache(maxsize=1 << 12)
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


def smt_decimal(v: float) -> str:
    """An SMT-LIB decimal with the digits of the float's shortest repr,
    never in exponent notation, which SMT-LIB does not have."""
    if not math.isfinite(v):
        raise SmtError(f"float {v!r} has no SMT-LIB decimal")
    body = format(Decimal(repr(abs(v))), "f")
    if "." not in body:
        body += ".0"
    return body if v >= 0 else f"(- {body})"


_CONNECTIVES = {And: "and", Or: "or"}
_QUANTIFIERS = {Forall: "forall", Exists: "exists"}
_Form = tuple[str, Sequence[Expr], Optional[bool], Optional[dict]]


def _form(e: Expr, bool_symbols: set[str]) -> _Form:
    """How `e` is written, `(head operand ...)` or a leaf's head alone:
    the head, the operands, whether it may be named as a Bool term (None
    for an `if`: as its then-branch) and a quantifier run's binder sorts.
    A chain of one connective is one term, an atom lists its arguments
    and a run of one quantifier binds all its variables.  Raises on a
    node that cannot be written; the fold asks in pre-order."""
    kind = type(e)
    if kind is App:
        parts = atom_parts(e)
        if parts is None:
            raise SmtError("cannot emit application of a non-symbol")
        return smt_symbol(parts[0]), parts[1], parts[0] in bool_symbols, None
    if kind is Var:
        return smt_symbol(e.name), (), False, None
    if kind in _CONNECTIVES:
        return _CONNECTIVES[kind], spine(e, kind), True, None
    if kind is Implies:
        ops = []
        while type(e) is Implies:
            ops.append(e.left)
            e = e.right
        ops.append(e)
        return "=>", ops, True, None
    if kind in _QUANTIFIERS:
        binders: dict[str, str] = {}  # the innermost binder of a name wins
        words = []
        while type(e) is kind:
            sort = binders[e.var] = smt_sort(e.var_type)
            words.append(f"({smt_symbol(e.var)} {sort})")
            e = e.body
        return f"{_QUANTIFIERS[kind]} ({' '.join(words)})", (e,), True, binders
    if kind is Not or kind is Eq:
        return "not" if kind is Not else "=", children(e), True, None
    if kind is Cmp:
        return e.op, children(e), True, None
    if kind is IfThenElse:
        return "ite", children(e), None, None
    if kind is BoolLit:
        return "true" if e.value else "false", (), False, None
    if kind is IntLit:
        return str(e.value) if e.value >= 0 else f"(- {-e.value})", (), False, None
    if kind is FloatLit:
        return smt_decimal(e.value), (), False, None
    if kind is StringLit:
        return '"' + e.value.replace('"', '""') + '"', (), False, None
    raise SmtError(f"cannot emit {kind.__name__} nodes to SMT-LIB")


# A shared subterm is defined as `share!k`: `!` is in no .l4 identifier,
# and SMT-LIB reserves only names that start with `@` or `.`.
_SHARE_PREFIX = "share!"


class _Term:
    """A distinct node of a script's formula DAG as the emitter writes
    it: its head and operand terms, its free names, whether it may be
    named, the places it is written from, the binder sorts `_scope`
    tracks for it and its text, a reference once named."""

    __slots__ = ("head", "kids", "free", "bool", "places", "scope", "text", "binders")

    def __init__(self, head: str, kids: list, free: frozenset, bool_: bool, binders=None) -> None:
        self.head = head
        self.kids = kids
        self.free = free
        self.bool = bool_
        self.places = 0
        self.scope: Optional[dict] = None
        self.text = head
        self.binders: Optional[dict] = binders  # a quantifier's, name -> sort


def _terms(roots: list[Expr], bool_symbols: set[str]) -> tuple[list[_Term], list[_Term]]:
    """The terms of `roots` and, in post-order, their distinct inner
    terms: one memoized `fold` over the operands each node is written
    with, counting the places each term is written from.  Each node's
    form is taken once, when the fold asks for its operands, and kept
    on a stack until the node is combined."""
    order: list[_Term] = []
    leaves: dict[int, _Term] = {}
    forms: list[_Form] = []

    def operands(e: Expr) -> Sequence[Expr]:
        form = _form(e, bool_symbols)
        forms.append(form)
        return form[1]

    def combine(e: Expr, kids: list) -> _Term:
        head, _, bool_, binders = forms.pop()
        if not kids:
            hit = leaves.get(id(e))
            if hit is None:
                free = frozenset((e.name,)) if type(e) is Var else frozenset()
                hit = leaves[id(e)] = _Term(head, kids, free, bool_)
            return hit
        free = kids[0].free
        for k in kids:
            k.places += 1
            if k.free is not free and not k.free <= free:
                free = free | k.free
        if binders is not None:
            free = free - binders.keys()
        t = _Term(head, kids, free, kids[1].bool if bool_ is None else bool_, binders)
        order.append(t)
        return t

    memo: dict = {}
    tops = [fold(e, combine, memo, operands) for e in roots]
    for t in tops:
        t.places += 1
    return tops, order


def _scope(tops: list[_Term], order: list[_Term]) -> dict[str, Optional[str]]:
    """The sort of each bound name, where all its binders agree and no
    formula has it free; None for the other bound names, which get a
    sort per term instead: `scope` maps each of them that is free in the
    term to its binder's sort, "" where no binder binds it and None
    where two places disagree.  Parents come before children in reverse
    post-order, so a term's scope is complete when it is passed down."""
    sorts: dict[str, Optional[str]] = {}
    for t in order:
        if t.binders is not None:
            for v, sort in t.binders.items():
                sorts[v] = sort if sorts.get(v, sort) == sort else None
    free_at_top = set().union(*(t.free for t in tops))
    tracked = {v for v, sort in sorts.items() if sort is None or v in free_at_top}
    if not tracked:
        return sorts

    def merge(t: _Term, want: dict) -> None:
        have = t.scope
        if have is None:
            t.scope = want
        elif have != want:
            t.scope = {v: sort if want[v] == sort else None for v, sort in have.items()}

    for v in tracked:
        sorts[v] = None
    for t in tops:
        if t.kids:
            merge(t, dict.fromkeys(t.free & tracked, ""))
    for t in reversed(order):
        scope = t.scope
        if t.binders is not None:
            scope = {**scope, **{v: sort for v, sort in t.binders.items() if v in tracked}}
        for k in t.kids:
            if k.kids:
                merge(k, {v: scope[v] for v in k.free & tracked})
    return sorts


def _params(t: _Term, sorts: dict[str, Optional[str]]) -> Optional[list[tuple[str, str]]]:
    """The bound names free in `t`, sorted, with their sorts; None when
    two places of `t` bind one of them with different sorts or leave it
    free."""
    out = []
    for v in sorted(t.free):
        sort = sorts.get(v, "")
        if sort is None:
            sort = t.scope[v]
            if sort is None:
                return None
        if sort:
            out.append((v, sort))
    return out


def _render(order: list[_Term], sorts: dict) -> list[str]:
    """Write each inner term in post-order, and name a shared Bool-valued
    one when its definition and references are shorter than its text at
    each place.  Returns the definitions, in the order they finish."""
    defs: list[str] = []
    for t in order:
        text = f"({t.head} " + " ".join([k.text for k in t.kids]) + ")"
        t.text = text
        n = t.places
        if n < 2 or not t.bool:
            continue
        params = _params(t, sorts)
        if params is None:
            continue
        name = f"{_SHARE_PREFIX}{len(defs)}"
        ref = "(" + " ".join([name, *(smt_symbol(v) for v, _ in params)]) + ")" if params else name
        sig = " ".join(f"({smt_symbol(v)} {sort})" for v, sort in params)
        line = f"(define-fun {name} ({sig}) Bool {text})"
        if len(line) + n * len(ref) < n * len(text):
            defs.append(line)
            t.text = ref
    return defs


def emit_smtlib(
    fs: FormulaSet, goal: Optional[tuple[str, str, Expr]] = None
) -> str:
    """Render a formula set as one SMT-LIB script.  `goal` is
    (assertion name, mode, formula); a validity goal is negated.  Each
    shared Bool-valued subterm that is shorter written once is a
    `define-fun` before the first assert (see `_render`)."""
    lines: list[str] = ["(set-logic ALL)"]

    if fs.sorts:
        lines.append("; sorts")
        for s in fs.sorts:
            lines.append(f"(declare-sort {smt_symbol(s)} 0)")

    lines.append("; symbols")
    char_sorts: dict[str, str] = {}
    bool_symbols: set[str] = set()
    for d in fs.decls:
        args, cod = uncurry(d.type)
        if d.name in fs.char_true and args:
            char_sorts[d.name] = smt_sort(args[0])
        if type(cod) is BoolT:
            bool_symbols.add(d.name)
        if args:
            doms = " ".join(smt_sort(a) for a in args)
            lines.append(f"(declare-fun {smt_symbol(d.name)} ({doms}) {smt_sort(cod)})")
        else:
            lines.append(f"(declare-const {smt_symbol(d.name)} {smt_sort(cod)})")
    declared = len(lines)

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

    roots = [expr for _, expr in fs.formulas]
    if goal is not None:
        roots.append(goal[2])
    tops, order = _terms(roots, bool_symbols)
    lines[declared:declared] = _render(order, _scope(tops, order))
    texts = [t.text for t in tops]

    for (name, _), text in zip(fs.formulas, texts):
        lines.append(f"; {name}")
        lines.append(f"(assert {text})")

    if goal is not None:
        gname, mode, _ = goal
        if mode == VALID:
            lines.append(f"; goal {gname} (validity: negated, sat = countermodel)")
            lines.append(f"(assert (not {texts[-1]}))")
        else:
            lines.append(f"; goal {gname} (satisfiability)")
            lines.append(f"(assert {texts[-1]})")

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


@dataclass(unsafe_hash=True)
class ScriptInfo:
    """What `read_script` found in a script: sorts, symbols, definitions and commands."""

    sorts: tuple[str, ...]
    symbols: dict[str, int]  # declared name -> arity
    definitions: dict[str, int]  # defined name -> arity
    assert_count: int
    has_check_sat: bool
    has_get_model: bool


def read_script(text: str) -> ScriptInfo:
    """Parse an SMT-LIB script and check that every sort and symbol is
    declared or defined before use and applied at its arity.  A
    `define-fun` has known sorts and a body that uses its parameters and
    earlier names only, and it takes a name not declared, defined or
    builtin before."""
    forms = _parse_sexps(_tokenize(text))
    sorts: list[str] = []
    symbols: dict[str, int] = {}
    definitions: dict[str, int] = {}
    arity: dict[str, int] = {}  # declared and defined
    assert_count = 0
    has_check_sat = False
    has_get_model = False

    def check_sort(s: Sexp) -> None:
        if not isinstance(s, str) or (s not in _BUILTIN_SORTS and s not in sorts):
            raise SmtError(f"unknown sort {s!r}")

    def not_defined(name: str) -> None:
        if name in definitions:
            raise SmtError(f"symbol '{name}' is already defined")

    def check_term(term: Sexp, params: Sequence[str] = ()) -> None:
        """Check `term` depth first, left to right, with an explicit
        stack of iterators over argument lists, `params` bound.  A
        binder counts its names in `bound` while its body's frame is on
        the stack."""
        bound: dict[str, int] = {}
        for name in params:
            bound[name] = bound.get(name, 0) + 1
        stack = [iter((term,))]
        scopes: list[list[str]] = [[]]
        while stack:
            for e in stack[-1]:
                kind = type(e)
                if kind is str:
                    if e in bound or e == "true" or e == "false":
                        continue
                    if e not in arity:
                        raise SmtError(f"unknown symbol '{e}'")
                    if arity[e] != 0:
                        raise SmtError(f"symbol '{e}' of arity {arity[e]} used without arguments")
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
                    if head not in arity:
                        raise SmtError(f"unknown symbol '{head}'")
                    if arity[head] != len(e) - 1:
                        how = "defined" if head in definitions else "declared"
                        raise SmtError(
                            f"symbol '{head}' {how} with arity {arity[head]}, applied to {len(e) - 1}"
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
            not_defined(form[1])
            for a in form[2]:
                check_sort(a)
            check_sort(form[3])
            symbols[form[1]] = arity[form[1]] = len(form[2])
        elif cmd == "declare-const":
            if len(form) != 3 or not isinstance(form[1], str):
                raise SmtError("ill-formed declare-const")
            not_defined(form[1])
            check_sort(form[2])
            symbols[form[1]] = arity[form[1]] = 0
        elif cmd == "define-fun":
            if len(form) != 5 or not isinstance(form[1], str) or not isinstance(form[2], list):
                raise SmtError("ill-formed define-fun")
            name = form[1]
            not_defined(name)
            if name in symbols:
                raise SmtError(f"symbol '{name}' is already declared")
            if name in _BUILTIN_OPS or name == "true" or name == "false":
                raise SmtError(f"symbol '{name}' is builtin")
            params = []
            for b in form[2]:
                if not (isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)):
                    raise SmtError("ill-formed parameter in define-fun")
                check_sort(b[1])
                params.append(b[0])
            check_sort(form[3])
            check_term(form[4], params)
            definitions[name] = arity[name] = len(params)
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

    return ScriptInfo(tuple(sorts), symbols, definitions, assert_count, has_check_sat, has_get_model)
