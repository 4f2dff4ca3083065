"""Abstract syntax for the rule language.

The language is a small typed fragment: a class hierarchy rooted at the
implicit class ``Class``, curried function declarations, quantified
boolean expressions, and named rules of the shape

    rule <name> {annotation}
      for x1: T1, ..., xk: Tk
      if  Pre
      then Post

Rules may carry one annotation.  ``{restrict: {subjectTo: ..., despite:
...}}`` marks a rule as defeasible, ``{source}`` marks the preserved
original of a rewritten rule, and ``{derived: {apply: ...}}`` defines a
rule as the result of a rule transformer applied to other rules.

Every node carries an optional source location used for diagnostics.
Locations never participate in equality or hashing, so structural
comparison of two parses of the same text succeeds even when the texts
have different layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterator, Optional, Union

ROOT_CLASS = "Class"

BUILTIN_TYPE_NAMES = ("Boolean", "Integer", "Float", "String")


class NormlogError(Exception):
    """Base class for user-facing errors raised by this package."""


@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _loc_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LType:
    """Base class of all object-language types."""


@dataclass(frozen=True)
class BoolT(LType):
    def __str__(self) -> str:
        return "Boolean"


@dataclass(frozen=True)
class IntT(LType):
    def __str__(self) -> str:
        return "Integer"


@dataclass(frozen=True)
class FloatT(LType):
    def __str__(self) -> str:
        return "Float"


@dataclass(frozen=True)
class StrT(LType):
    def __str__(self) -> str:
        return "String"


@dataclass(frozen=True)
class ClassT(LType):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FunT(LType):
    dom: LType
    cod: LType

    def __str__(self) -> str:
        dom = str(self.dom)
        if isinstance(self.dom, FunT):
            dom = f"({dom})"
        return f"{dom} -> {self.cod}"


@dataclass(frozen=True)
class TupleT(LType):
    items: tuple[LType, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.items) + ")"


BOOL = BoolT()
INT = IntT()
FLOAT = FloatT()
STRING = StrT()


def fun_type(*types: LType) -> LType:
    """Curried function type from argument types plus result type."""
    if not types:
        raise ValueError("fun_type needs at least a result type")
    result = types[-1]
    for t in reversed(types[:-1]):
        result = FunT(t, result)
    return result


def uncurry(t: LType) -> tuple[tuple[LType, ...], LType]:
    """Split a curried function type into (argument types, result type)."""
    args: list[LType] = []
    while isinstance(t, FunT):
        args.append(t.dom)
        t = t.cod
    return tuple(args), t


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class of all expressions.

    Nodes hash structurally, like any frozen dataclass, but each node
    computes its hash once and keeps it in `_hash`, which is not a
    field: `==`, `repr` and `dataclasses.replace` ignore it, and a
    pickled node leaves it behind, since string hashes differ between
    processes."""

    _hash = None

    def __str__(self) -> str:
        return print_expr(self)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class Var(Expr):
    name: str
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class FloatLit(Expr):
    value: float
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class StringLit(Expr):
    value: str
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Implies(Expr):
    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Eq(Expr):
    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Cmp(Expr):
    """Numeric comparison; op is one of < <= > >=."""

    op: str
    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class App(Expr):
    fn: Expr
    arg: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Lambda(Expr):
    var: str
    var_type: LType
    body: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class IfThenElse(Expr):
    cond: Expr
    then: Expr
    other: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Forall(Expr):
    var: str
    var_type: LType
    body: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Exists(Expr):
    var: str
    var_type: LType
    body: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class FieldAccess(Expr):
    obj: Expr
    fieldname: str
    loc: Optional[Loc] = _loc_field()


def _hash_once(cls: type) -> None:
    """Replace a node class's field hash by one computed on first use.
    The value is the dataclass's own, the hash of the tuple of compared
    fields, so sets and dicts of nodes behave exactly as before."""
    names = [f.name for f in fields(cls) if f.compare]
    get = attrgetter(*names)
    single = len(names) == 1

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((get(self),) if single else get(self))
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__


for _cls in Expr.__subclasses__():
    _hash_once(_cls)


TRUE = BoolLit(True)


def apply(fn: Union[str, Expr], *args: Expr) -> Expr:
    """Left-nested application ``fn a1 ... an``."""
    e: Expr = Var(fn) if isinstance(fn, str) else fn
    for a in args:
        e = App(e, a)
    return e


def conj(exprs: list[Expr]) -> Expr:
    """Left-nested conjunction; the empty conjunction is ``true``."""
    if not exprs:
        return TRUE
    e = exprs[0]
    for x in exprs[1:]:
        e = And(e, x)
    return e


def atom_parts(e: Expr) -> Optional[tuple[str, tuple[Expr, ...]]]:
    """Decompose an atom ``P e1 ... en`` into (P, args).

    Returns None when the expression is not an application chain headed
    by a plain name (a bare ``Var`` counts as a zero-argument atom).
    """
    args: list[Expr] = []
    while isinstance(e, App):
        args.append(e.arg)
        e = e.fn
    if isinstance(e, Var):
        return e.name, tuple(reversed(args))
    return None


def conjuncts(e: Expr) -> list[Expr]:
    """Flatten a left-nested conjunction into its conjunct list."""
    if isinstance(e, And):
        return conjuncts(e.left) + conjuncts(e.right)
    return [e]


def free_vars(e: Expr, memo: Optional[dict] = None) -> frozenset[str]:
    """Names of free variables, treating every unbound name as a variable.

    Declared function symbols are names too, so callers that only want
    genuine rule variables must subtract the declared vocabulary.

    Each distinct node is visited once: `memo` maps `id(node)` to
    `(node, names)`, keeping the node alive so that its id is not
    reused, and may be shared by calls over formulas with common
    subterms.  The recursion spends one frame per tree level."""
    return _free_names(e, {} if memo is None else memo)


_NO_NAMES: frozenset[str] = frozenset()


def _free_names(e: Expr, memo: dict) -> frozenset[str]:
    kind = type(e)
    if kind is Var:
        return frozenset((e.name,))
    if kind is App:
        # a unary atom on a variable, the commonest node, skips the memo
        fn, arg = e.fn, e.arg
        if type(fn) is Var and type(arg) is Var:
            return frozenset((fn.name, arg.name))
    elif kind in (BoolLit, IntLit, FloatLit, StringLit):
        return _NO_NAMES
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if kind is App:
        out = _free_names(e.fn, memo) | _free_names(e.arg, memo)
    elif kind in (And, Or, Implies, Eq, Cmp):
        out = _free_names(e.left, memo) | _free_names(e.right, memo)
    elif kind is Not:
        out = _free_names(e.arg, memo)
    elif kind in (Forall, Exists, Lambda):
        out = _free_names(e.body, memo) - {e.var}
    elif kind is IfThenElse:
        out = (
            _free_names(e.cond, memo)
            | _free_names(e.then, memo)
            | _free_names(e.other, memo)
        )
    elif kind is FieldAccess:
        out = _free_names(e.obj, memo)
    else:
        raise TypeError(f"unknown expression node {kind.__name__}")
    memo[id(e)] = (e, out)
    return out


def substitute(e: Expr, subst: dict[str, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution of variables."""
    if not subst:
        return e
    if isinstance(e, Var):
        return subst.get(e.name, e)
    if isinstance(e, (BoolLit, IntLit, FloatLit, StringLit)):
        return e
    if isinstance(e, Not):
        return Not(substitute(e.arg, subst))
    if isinstance(e, And):
        return And(substitute(e.left, subst), substitute(e.right, subst))
    if isinstance(e, Or):
        return Or(substitute(e.left, subst), substitute(e.right, subst))
    if isinstance(e, Implies):
        return Implies(substitute(e.left, subst), substitute(e.right, subst))
    if isinstance(e, Eq):
        return Eq(substitute(e.left, subst), substitute(e.right, subst))
    if isinstance(e, Cmp):
        return Cmp(e.op, substitute(e.left, subst), substitute(e.right, subst))
    if isinstance(e, App):
        return App(substitute(e.fn, subst), substitute(e.arg, subst))
    if isinstance(e, IfThenElse):
        return IfThenElse(
            substitute(e.cond, subst), substitute(e.then, subst), substitute(e.other, subst)
        )
    if isinstance(e, FieldAccess):
        return FieldAccess(substitute(e.obj, subst), e.fieldname)
    if isinstance(e, (Lambda, Forall, Exists)):
        inner = {k: v for k, v in subst.items() if k != e.var}
        if not inner:
            return e
        # Rename the binder when a substituted expression would capture it.
        captured = any(e.var in free_vars(v) for v in inner.values())
        var = e.var
        body = e.body
        if captured:
            taken = free_vars(body) | {n for v in inner.values() for n in free_vars(v)}
            var = fresh_name(e.var, taken)
            body = substitute(body, {e.var: Var(var)})
        body = substitute(body, inner)
        return type(e)(var, e.var_type, body)
    raise TypeError(f"unknown expression node {type(e).__name__}")


def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    i = 1
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Annotations and rule transformers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestrictSubjectTo:
    """Transformer: restrict rule `target` by the named overriding rules."""

    target: str
    overriders: tuple[str, ...]

    def __str__(self) -> str:
        return "restrictSubjectTo " + " ".join([self.target, *self.overriders])


@dataclass(frozen=True)
class Remap:
    """Transformer: change a rule's parameter interface.

    ``new_params`` is the replacement parameter list and ``subst`` maps
    each old parameter name to an expression over the new parameters.
    """

    target: str
    new_params: tuple[tuple[str, LType], ...]
    subst: tuple[tuple[str, Expr], ...]

    def __str__(self) -> str:
        params = ", ".join(f"{n}: {t}" for n, t in self.new_params)
        pairs = ", ".join(f"{n} := {print_expr(e)}" for n, e in self.subst)
        return f"remap {self.target} [{params}] [{pairs}]"


TransformExpr = Union[RestrictSubjectTo, Remap]


@dataclass(frozen=True)
class Restrict:
    subject_to: tuple[str, ...] = ()
    despite: tuple[str, ...] = ()


@dataclass(frozen=True)
class Source:
    """Marks the preserved original of a rewritten defeasible rule."""


@dataclass(frozen=True)
class Derived:
    apply: TransformExpr


RuleAnnotation = Union[Restrict, Source, Derived]


# ---------------------------------------------------------------------------
# Declarations, rules, assertions, modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassDecl:
    name: str
    parent: str = ROOT_CLASS
    attrs: tuple[tuple[str, LType], ...] = ()
    # set on generated rule-name classes: the lifted predicate they index
    rulename_for: Optional[str] = None
    system: bool = False
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class FunDecl:
    name: str
    type: LType
    system: bool = False
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class Rule:
    name: str
    params: tuple[tuple[str, LType], ...] = ()
    precond: Expr = TRUE
    postcond: Expr = TRUE
    annotation: Optional[RuleAnnotation] = None
    system: bool = False
    loc: Optional[Loc] = _loc_field()

    def is_bodyless(self) -> bool:
        """Derived rules are written without for/if/then sections."""
        return (
            isinstance(self.annotation, Derived)
            and not self.params
            and self.precond == TRUE
            and self.postcond == TRUE
        )

    def __str__(self) -> str:
        return print_rule(self)


VALID = "valid"
SATISFIABLE = "satisfiable"


@dataclass(frozen=True)
class Assertion:
    name: str
    formula: Expr
    mode: str = VALID
    add_rules: tuple[str, ...] = ()
    del_rules: tuple[str, ...] = ()
    loc: Optional[Loc] = _loc_field()


@dataclass(frozen=True)
class RuleModule:
    classes: tuple[ClassDecl, ...] = ()
    decls: tuple[FunDecl, ...] = ()
    globals: tuple[FunDecl, ...] = ()
    rules: tuple[Rule, ...] = ()
    assertions: tuple[Assertion, ...] = ()

    def all_decls(self) -> tuple[FunDecl, ...]:
        return self.decls + self.globals

    def rule_map(self) -> dict[str, Rule]:
        return {r.name: r for r in self.rules}

    def user_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if not r.system)

    def __str__(self) -> str:
        return print_module(self)


def split_decls(decls: list[FunDecl]) -> tuple[list[FunDecl], list[FunDecl]]:
    """Separate function declarations from global instance constants.

    A declaration with a function type is a proper symbol declaration;
    anything else (class-, Boolean-, Integer-typed, ...) is a global
    constant such as ``decl instCar : Car``.
    """
    funs = [d for d in decls if isinstance(d.type, FunT)]
    consts = [d for d in decls if not isinstance(d.type, FunT)]
    return funs, consts


def char_pred_name(class_name: str) -> str:
    return "is" + class_name


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

# Precedence levels, loosest first.  Application binds tightest, then
# `not`, then comparisons, then && and || and finally -->.
_LVL_LOW = 0
_LVL_IMPLIES = 1
_LVL_OR = 2
_LVL_AND = 3
_LVL_CMP = 4
_LVL_NOT = 5
_LVL_APP = 6
_LVL_ATOM = 7


def print_expr(e: Expr) -> str:
    return _pe(e, _LVL_LOW)


def _parens(s: str, need: bool) -> str:
    return f"({s})" if need else s


def _pe(e: Expr, ctx: int) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, FloatLit):
        return repr(e.value)
    if isinstance(e, StringLit):
        return '"' + e.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(e, Not):
        return _parens("not " + _pe(e.arg, _LVL_NOT), ctx > _LVL_NOT)
    if isinstance(e, And):
        s = _pe(e.left, _LVL_AND) + " && " + _pe(e.right, _LVL_AND + 1)
        return _parens(s, ctx > _LVL_AND)
    if isinstance(e, Or):
        s = _pe(e.left, _LVL_OR) + " || " + _pe(e.right, _LVL_OR + 1)
        return _parens(s, ctx > _LVL_OR)
    if isinstance(e, Implies):
        s = _pe(e.left, _LVL_IMPLIES + 1) + " --> " + _pe(e.right, _LVL_IMPLIES)
        return _parens(s, ctx > _LVL_IMPLIES)
    if isinstance(e, Eq):
        s = _pe(e.left, _LVL_CMP + 1) + " == " + _pe(e.right, _LVL_CMP + 1)
        return _parens(s, ctx > _LVL_CMP)
    if isinstance(e, Cmp):
        s = _pe(e.left, _LVL_CMP + 1) + f" {e.op} " + _pe(e.right, _LVL_CMP + 1)
        return _parens(s, ctx > _LVL_CMP)
    if isinstance(e, App):
        s = _pe(e.fn, _LVL_APP) + " " + _pe(e.arg, _LVL_ATOM)
        return _parens(s, ctx > _LVL_APP)
    if isinstance(e, Lambda):
        ann = str(e.var_type)
        if isinstance(e.var_type, FunT):
            ann = f"({ann})"
        s = f"\\{e.var} : {ann} -> " + _pe(e.body, _LVL_LOW)
        return _parens(s, ctx > _LVL_LOW)
    if isinstance(e, IfThenElse):
        s = (
            "if "
            + _pe(e.cond, _LVL_LOW)
            + " then "
            + _pe(e.then, _LVL_LOW)
            + " else "
            + _pe(e.other, _LVL_LOW)
        )
        return _parens(s, ctx > _LVL_LOW)
    if isinstance(e, Forall):
        s = f"forall {e.var}: {e.var_type}. " + _pe(e.body, _LVL_LOW)
        return _parens(s, ctx > _LVL_LOW)
    if isinstance(e, Exists):
        s = f"exists {e.var}: {e.var_type}. " + _pe(e.body, _LVL_LOW)
        return _parens(s, ctx > _LVL_LOW)
    if isinstance(e, FieldAccess):
        obj = _pe(e.obj, _LVL_ATOM)
        if not isinstance(e.obj, (Var, FieldAccess)):
            obj = f"({obj})"
        return obj + "." + e.fieldname
    raise TypeError(f"unknown expression node {type(e).__name__}")


def print_annotation(a: RuleAnnotation) -> str:
    if isinstance(a, Source):
        return "{source}"
    if isinstance(a, Derived):
        return "{derived: {apply: {" + str(a.apply) + "}}}"
    if isinstance(a, Restrict):
        parts = []
        if a.subject_to:
            parts.append("subjectTo: " + ", ".join(a.subject_to))
        if a.despite:
            parts.append("despite: " + ", ".join(a.despite))
        return "{restrict: {" + ", ".join(parts) + "}}"
    raise TypeError(f"unknown annotation {type(a).__name__}")


def print_rule(r: Rule) -> str:
    lines = [f"rule <{r.name}>"]
    if r.annotation is not None:
        lines.append("  " + print_annotation(r.annotation))
    if not r.is_bodyless():
        if r.params:
            lines.append("  for " + ", ".join(f"{n}: {t}" for n, t in r.params))
        if r.precond != TRUE:
            lines.append("  if " + print_expr(r.precond))
        lines.append("  then " + print_expr(r.postcond))
    return "\n".join(lines)


def print_class(c: ClassDecl) -> str:
    s = f"class {c.name}"
    if c.parent != ROOT_CLASS:
        s += f" extends {c.parent}"
    if c.attrs:
        body = "\n".join(f"  {n}: {t}" for n, t in c.attrs)
        s += " {\n" + body + "\n}"
    return s


def print_assertion(a: Assertion) -> str:
    ann_parts = [f"SMT: {{{a.mode}}}"]
    if a.add_rules or a.del_rules:
        rp = []
        if a.add_rules:
            rp.append("add: " + ", ".join(a.add_rules))
        if a.del_rules:
            rp.append("del: " + ", ".join(a.del_rules))
        ann_parts.append("rules: {" + ", ".join(rp) + "}")
    return f"assert <{a.name}> {{{', '.join(ann_parts)}}}\n  " + print_expr(a.formula)


def print_module(m: RuleModule, include_system: bool = False) -> str:
    """Canonical concrete syntax for a module.

    System-generated declarations and rules are omitted by default:
    elaboration regenerates them, so the printed text stays close to
    what a user would write.
    """
    blocks: list[str] = []
    for c in m.classes:
        if c.system and not include_system:
            continue
        blocks.append(print_class(c))
    for d in m.decls:
        if d.system and not include_system:
            continue
        blocks.append(f"decl {d.name} : {d.type}")
    for d in m.globals:
        if d.system and not include_system:
            continue
        blocks.append(f"decl {d.name} : {d.type}")
    for r in m.rules:
        if r.system and not include_system:
            continue
        blocks.append(print_rule(r))
    for a in m.assertions:
        blocks.append(print_assertion(a))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    loc: Optional[Loc]
    message: str

    def __str__(self) -> str:
        where = f"{self.loc}: " if self.loc else ""
        return f"{where}{self.severity}: {self.message}"


def _sort_key(d: Diagnostic):
    if d.loc is None:
        return (1, 0, 0)
    return (0, d.loc.line, d.loc.col)


def check_well_formed(m: RuleModule) -> list[Diagnostic]:
    """Name-level validation of a module.

    Covers duplicate definitions, unresolved class and rule references,
    class hierarchy problems, and free variables in rule bodies and
    assertion formulas.  Typing problems are out of scope here; see the
    typecheck module.  Diagnostics come back ordered by source position.
    """
    out: list[Diagnostic] = []

    def err(loc: Optional[Loc], msg: str) -> None:
        out.append(Diagnostic("error", loc, msg))

    class_names = {}
    for c in m.classes:
        if c.name in class_names:
            err(c.loc, f"duplicate class '{c.name}'")
        class_names[c.name] = c
        if c.name in BUILTIN_TYPE_NAMES or c.name == ROOT_CLASS:
            err(c.loc, f"class name '{c.name}' is reserved")
        seen_attrs = set()
        for n, _t in c.attrs:
            if n in seen_attrs:
                err(c.loc, f"duplicate attribute '{n}' in class '{c.name}'")
            seen_attrs.add(n)

    for c in m.classes:
        if c.parent in BUILTIN_TYPE_NAMES:
            err(c.loc, f"class '{c.name}' extends builtin type '{c.parent}'")
        elif c.parent != ROOT_CLASS and c.parent not in class_names:
            err(c.loc, f"class '{c.name}' extends unknown class '{c.parent}'")

    # Cycle detection over the parent chain.
    for c in m.classes:
        seen = {c.name}
        cur = c
        while cur.parent != ROOT_CLASS and cur.parent in class_names:
            if cur.parent in seen:
                err(c.loc, f"cyclic class hierarchy through '{c.name}'")
                break
            seen.add(cur.parent)
            cur = class_names[cur.parent]

    def check_type(t: LType, loc: Optional[Loc]) -> None:
        if isinstance(t, ClassT):
            if t.name not in class_names and t.name != ROOT_CLASS:
                err(loc, f"unknown type '{t.name}'")
        elif isinstance(t, FunT):
            check_type(t.dom, loc)
            check_type(t.cod, loc)
        elif isinstance(t, TupleT):
            for it in t.items:
                check_type(it, loc)

    decl_names = set()
    for d in m.all_decls():
        if d.name in decl_names:
            err(d.loc, f"duplicate declaration '{d.name}'")
        decl_names.add(d.name)
        check_type(d.type, d.loc)

    # Characteristic predicates are generated during elaboration, so
    # references to them resolve even before they are declared.
    implicit = {char_pred_name(c.name) for c in m.classes}
    vocabulary = decl_names | implicit

    rule_names = set()
    for r in m.rules:
        if r.name in rule_names:
            err(r.loc, f"duplicate rule name '{r.name}'")
        rule_names.add(r.name)

    def check_body(owner: str, expr: Expr, params: set[str], loc: Optional[Loc]) -> None:
        for v in sorted(free_vars(expr)):
            if v not in params and v not in vocabulary:
                err(loc, f"unknown name '{v}' in '{owner}'")

    for r in m.rules:
        param_names = set()
        for n, t in r.params:
            if n in param_names:
                err(r.loc, f"duplicate parameter '{n}' in rule '{r.name}'")
            param_names.add(n)
            check_type(t, r.loc)
        if not r.is_bodyless():
            check_body(r.name, r.precond, param_names, r.loc)
            check_body(r.name, r.postcond, param_names, r.loc)
        ann = r.annotation
        if isinstance(ann, Restrict):
            for ref in ann.subject_to + ann.despite:
                if ref not in {x.name for x in m.rules}:
                    err(r.loc, f"rule '{r.name}' refers to unknown rule '{ref}'")
                elif ref == r.name:
                    err(r.loc, f"rule '{r.name}' refers to itself in its annotation")
        elif isinstance(ann, Derived):
            refs = [ann.apply.target]
            if isinstance(ann.apply, RestrictSubjectTo):
                refs += list(ann.apply.overriders)
            for ref in refs:
                if ref not in {x.name for x in m.rules}:
                    err(r.loc, f"rule '{r.name}' refers to unknown rule '{ref}'")

    assertion_names = set()
    for a in m.assertions:
        if a.name in assertion_names:
            err(a.loc, f"duplicate assertion name '{a.name}'")
        assertion_names.add(a.name)
        if a.mode not in (VALID, SATISFIABLE):
            err(a.loc, f"assertion '{a.name}' has unknown mode '{a.mode}'")
        check_body(a.name, a.formula, set(), a.loc)
        for ref in a.add_rules + a.del_rules:
            if ref not in rule_names:
                err(a.loc, f"assertion '{a.name}' adjusts unknown rule '{ref}'")

    out.sort(key=_sort_key)
    return out


def iter_subexprs(e: Expr) -> Iterator[Expr]:
    """Depth-first iteration over an expression and its subterms."""
    yield e
    if isinstance(e, Not):
        yield from iter_subexprs(e.arg)
    elif isinstance(e, (And, Or, Implies, Eq, Cmp)):
        yield from iter_subexprs(e.left)
        yield from iter_subexprs(e.right)
    elif isinstance(e, App):
        yield from iter_subexprs(e.fn)
        yield from iter_subexprs(e.arg)
    elif isinstance(e, (Lambda, Forall, Exists)):
        yield from iter_subexprs(e.body)
    elif isinstance(e, IfThenElse):
        yield from iter_subexprs(e.cond)
        yield from iter_subexprs(e.then)
        yield from iter_subexprs(e.other)
    elif isinstance(e, FieldAccess):
        yield from iter_subexprs(e.obj)
