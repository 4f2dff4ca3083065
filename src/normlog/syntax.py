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

from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter, ge, gt, le, lt
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

ROOT_CLASS = "Class"

BUILTIN_TYPE_NAMES = ("Boolean", "Integer", "Float", "String")


class NormlogError(Exception):
    """Base class for user-facing errors raised by this package."""


class Loc(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def _loc_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(unsafe_hash=True)
class LType:
    """Base class of all object-language types."""


@dataclass(unsafe_hash=True)
class BoolT(LType):
    """The type Boolean."""

    def __str__(self) -> str:
        return "Boolean"


@dataclass(unsafe_hash=True)
class IntT(LType):
    """The type Integer."""

    def __str__(self) -> str:
        return "Integer"


@dataclass(unsafe_hash=True)
class FloatT(LType):
    """The type Float."""

    def __str__(self) -> str:
        return "Float"


@dataclass(unsafe_hash=True)
class StrT(LType):
    """The type String."""

    def __str__(self) -> str:
        return "String"


@dataclass(unsafe_hash=True)
class ClassT(LType):
    """A class type, by the name of its class."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(unsafe_hash=True)
class FunT(LType):
    """The function type `dom -> cod`; a function of several arguments is curried."""

    dom: LType
    cod: LType

    def __str__(self) -> str:
        dom = str(self.dom)
        if isinstance(self.dom, FunT):
            dom = f"({dom})"
        return f"{dom} -> {self.cod}"


@dataclass(unsafe_hash=True)
class TupleT(LType):
    """The type of tuples of its item types."""

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


@dataclass
class Expr:
    """Base class of all expressions.

    Nodes are values, under the one rule for every value class of the
    package: a plain dataclass, no field of which is assigned after
    construction.  A pass that changes a node builds a new one
    (`rebuild`, `dataclasses.replace`).  Nothing enforces the rule at
    run time, since a frozen dataclass makes every import generate its
    guards and every construction pay for them; the tests check it
    instead, by pickling a pipeline's inputs before and after it runs.
    Nodes compare and hash structurally, by the tuple of their compared
    fields, and each node computes its hash once, on
    first use, and keeps it in `_hash`.  `_hash` is not a field: `==`,
    `repr` and `dataclasses.replace` ignore it, and a pickled node
    leaves it behind, since string hashes differ between processes."""

    _hash = None

    def __str__(self) -> str:
        return print_expr(self)

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass
class Var(Expr):
    """A variable, a declared symbol or a constant, by name."""

    name: str
    loc: Optional[Loc] = _loc_field()


@dataclass
class BoolLit(Expr):
    """`true` or `false`."""

    value: bool
    loc: Optional[Loc] = _loc_field()


@dataclass
class IntLit(Expr):
    """An integer literal."""

    value: int
    loc: Optional[Loc] = _loc_field()


@dataclass
class FloatLit(Expr):
    """A decimal literal."""

    value: float
    loc: Optional[Loc] = _loc_field()


@dataclass
class StringLit(Expr):
    """A string literal."""

    value: str
    loc: Optional[Loc] = _loc_field()


@dataclass
class Not(Expr):
    """Negation: `not arg`."""

    arg: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class And(Expr):
    """Conjunction: `left && right`."""

    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class Or(Expr):
    """Disjunction: `left || right`."""

    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class Implies(Expr):
    """Implication: `left --> right`."""

    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class Eq(Expr):
    """Equality: `left == right`."""

    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class Cmp(Expr):
    """Numeric comparison; op is one of < <= > >=."""

    op: str
    left: Expr
    right: Expr
    loc: Optional[Loc] = _loc_field()


# The Python function of each comparison operator.
CMP_OPS = {"<": lt, "<=": le, ">": gt, ">=": ge}


@dataclass
class App(Expr):
    """Application of `fn` to one argument; several arguments are curried."""

    fn: Expr
    arg: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class Lambda(Expr):
    """A function of one argument: `\\var : var_type -> body`."""

    var: str
    var_type: LType
    body: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class IfThenElse(Expr):
    """A conditional: `if cond then then else other`."""

    cond: Expr
    then: Expr
    other: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class Forall(Expr):
    """Universal quantification: `forall var: var_type. body`."""

    var: str
    var_type: LType
    body: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class Exists(Expr):
    """Existential quantification: `exists var: var_type. body`."""

    var: str
    var_type: LType
    body: Expr
    loc: Optional[Loc] = _loc_field()


@dataclass
class FieldAccess(Expr):
    """An attribute of an object: `obj.fieldname`."""

    obj: Expr
    fieldname: str
    loc: Optional[Loc] = _loc_field()


def _key(cls: type) -> Callable[[Expr], tuple]:
    names = [f.name for f in fields(cls) if f.compare]
    get = attrgetter(*names)
    return (lambda e: (get(e),)) if len(names) == 1 else get


# The tuple of each node class's compared fields.
_KEY = {cls: _key(cls) for cls in Expr.__subclasses__()}


def _hash_once(self: Expr) -> int:
    """The structural hash of a node, computed on first use and kept in
    `_hash`.  The value is the one a frozen dataclass has, the hash of
    the tuple of compared fields, so sets and dicts of nodes iterate in
    the same order as with that hash.  The unhashed nodes below are
    hashed first, bottom-up from a stack, so the depth of a node does
    not bound its hash."""
    h = self._hash
    if h is None:
        stack = [self]
        while stack:
            x = stack[-1]
            for k in _CHILDREN[type(x)](x):
                if k._hash is None:
                    stack.append(k)
                    break
            else:
                x._hash = hash(_KEY[type(x)](x))
                stack.pop()
        h = self._hash
    return h


for _cls in _KEY:
    _cls.__hash__ = _hash_once


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

_BINDERS = (Lambda, Forall, Exists)

# The Expr-typed fields of each node class, in field order: its children.
_CHILD_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.type in ("Expr", Expr))
    for cls in Expr.__subclasses__()
}


def _getter(names: tuple[str, ...]) -> Callable[[Expr], tuple[Expr, ...]]:
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda e: (get(e),)
    return attrgetter(*names) if names else lambda e: ()


_CHILDREN = {cls: _getter(names) for cls, names in _CHILD_FIELDS.items()}


def children(e: Expr) -> tuple[Expr, ...]:
    """The subexpressions of `e`, in field order."""
    return _CHILDREN[type(e)](e)


def rebuild(e: Expr, kids: Sequence[Expr]) -> Expr:
    """`e` with its children replaced by `kids`, given in `children`
    order; every other field, `loc` included, is kept.  Returns `e`
    itself when each kid is the child it replaces."""
    if kids:
        for new, old in zip(kids, _CHILDREN[type(e)](e)):
            if new is not old:
                return replace(e, **dict(zip(_CHILD_FIELDS[type(e)], kids)))
    return e


def fold(
    e: Expr,
    combine: Callable[[Expr, list], object],
    memo: dict,
    kids: Callable[[Expr], Sequence[Expr]] = children,
) -> object:
    """The value of `e` bottom-up: `combine(node, values)` gets the
    values of the node's `kids` (its children unless the caller says
    otherwise), left to right, and nodes are combined in post-order.
    `kids(node)` runs once per visit of a node not in `memo`, just
    before the node's kids are folded and the node is combined: `kids`
    sees nodes in pre-order, and a value it pushes on a stack is on top
    when `combine` gets that node.

    Each distinct node with kids is combined once: `memo` maps
    `id(node)` to `(node, value)`, keeping the node alive so that its
    id is not reused, and may be shared by calls over expressions with
    common subterms.  A node without kids is combined where it occurs
    and not memoized.  The walk is one loop over a stack of (node, its
    kids still to fold, the values of those folded) in place of frames,
    so the depth of the expression does not bound it."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    get = memo.get
    stack = []
    node, rest, values = e, iter(kids(e)), []
    while True:
        for k in rest:
            hit = get(id(k))
            if hit is not None:
                values.append(hit[1])
                continue
            below = kids(k)
            if below:
                stack.append((node, rest, values))
                node, rest, values = k, iter(below), []
                break
            values.append(combine(k, []))
        else:
            out = combine(node, values)
            if values:
                memo[id(node)] = (node, out)
            if not stack:
                return out
            node, rest, values = stack.pop()
            values.append(out)


TRUE = BoolLit(True)
FALSE = BoolLit(False)


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


def spine(e: Expr, kind: type) -> list[Expr]:
    """The operands of a chain of `kind` (And or Or), left to right,
    however the chain is bracketed."""
    out: list[Expr] = []
    stack = [e]
    while stack:
        x = stack.pop()
        if type(x) is kind:
            stack.append(x.right)
            stack.append(x.left)
        else:
            out.append(x)
    return out


def free_vars(e: Expr) -> frozenset[str]:
    """Names of free variables, treating every unbound name as a variable.

    Declared function symbols are names too, so callers that only want
    genuine rule variables must subtract the declared vocabulary.

    A memoized `fold`.  A unary atom on a variable, the commonest node,
    is a leaf of the fold and stays out of the memo."""
    return fold(e, _free_names, {}, _names_below)


def _names_below(e: Expr) -> tuple[Expr, ...]:
    """`children`, except that a unary atom on a variable has none."""
    if type(e) is App and type(e.fn) is Var and type(e.arg) is Var:
        return ()
    return _CHILDREN[type(e)](e)


def _free_names(e: Expr, names: list[frozenset[str]]) -> frozenset[str]:
    kind = type(e)
    if kind is Var:
        return frozenset((e.name,))
    if not names:
        return frozenset((e.fn.name, e.arg.name)) if kind is App else frozenset()
    if kind in _BINDERS:
        return names[0] - {e.var}
    out = names[0]
    for more in names[1:]:
        out = out | more
    return out


def substitute(e: Expr, subst: dict[str, Expr]) -> Expr:
    """Simultaneous capture-avoiding substitution of variables.

    A `fold` that stops at binders: each distinct node is visited once
    and a node nothing changes in is returned itself."""
    if not subst:
        return e

    def combine(x: Expr, kids: list[Expr]) -> Expr:
        kind = type(x)
        if kind is Var:
            return subst.get(x.name, x)
        if kind in _BINDERS:
            return _substitute_binder(x, subst)
        return rebuild(x, kids)

    return fold(e, combine, {}, lambda x: () if type(x) in _BINDERS else _CHILDREN[type(x)](x))


def _substitute_binder(e: Expr, subst: dict[str, Expr]) -> Expr:
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
    return rebuild(e, (body,)) if var == e.var else replace(e, var=var, body=body)


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


@dataclass(unsafe_hash=True)
class RestrictSubjectTo:
    """Transformer: restrict rule `target` by the named overriding rules."""

    target: str
    overriders: tuple[str, ...]

    def __str__(self) -> str:
        return "restrictSubjectTo " + " ".join([self.target, *self.overriders])


@dataclass(unsafe_hash=True)
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


@dataclass(unsafe_hash=True)
class Restrict:
    """Annotation: a defeasible rule and the rules that restrict it."""

    subject_to: tuple[str, ...] = ()
    despite: tuple[str, ...] = ()


@dataclass(unsafe_hash=True)
class Source:
    """Marks the preserved original of a rewritten defeasible rule."""


@dataclass(unsafe_hash=True)
class Derived:
    """Annotation: a rule defined as a rule transformer applied to other rules."""

    apply: TransformExpr


RuleAnnotation = Union[Restrict, Source, Derived]


# ---------------------------------------------------------------------------
# Declarations, rules, assertions, modules
# ---------------------------------------------------------------------------


@dataclass(unsafe_hash=True)
class ClassDecl:
    """A class declaration: its name, parent class and attributes."""

    name: str
    parent: str = ROOT_CLASS
    attrs: tuple[tuple[str, LType], ...] = ()
    # set on generated rule-name classes: the lifted predicate they index
    rulename_for: Optional[str] = None
    system: bool = False
    loc: Optional[Loc] = _loc_field()


@dataclass(unsafe_hash=True)
class FunDecl:
    """A declared function symbol or global constant, with its type."""

    name: str
    type: LType
    system: bool = False
    loc: Optional[Loc] = _loc_field()


@dataclass(unsafe_hash=True)
class Rule:
    """A named rule: parameters, precondition, postcondition and annotation."""

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


@dataclass(unsafe_hash=True)
class Assertion:
    """A named formula to check as valid or satisfiable, with rules added or deleted."""

    name: str
    formula: Expr
    mode: str = VALID
    add_rules: tuple[str, ...] = ()
    del_rules: tuple[str, ...] = ()
    loc: Optional[Loc] = _loc_field()


@dataclass(unsafe_hash=True)
class RuleModule:
    """A module: its classes, declarations, global constants, rules and assertions."""

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


# The text of a subterm longer than this is kept as a rope: a tuple of
# parts, each a str or a rope.  A shared node's rope is referred to, not
# copied, so the printer's memo stays linear in the distinct nodes
# however long the text of a chain of them gets.
_ROPE_FROM = 256

# Characters of joined ropes that a `_Joiner` keeps for reuse.  In a
# `subjectTo` chain each rule's text holds the one before it, which is
# then joined once rather than once per later rule: without the cache
# `transform` of the 2000-link chain takes 4.1 s instead of 0.56 s (on
# a 2-vCPU VM).
_KEEP = 1 << 20


class _Rope(tuple):
    __slots__ = ()


def _cat(*parts: Union[str, _Rope]) -> Union[str, _Rope]:
    """Short text joined now, longer text as a rope."""
    size = 0
    for p in parts:
        if type(p) is _Rope:
            return _Rope(parts)
        size += len(p)
    return _Rope(parts) if size > _ROPE_FROM else "".join(parts)


class _Joiner:
    """Joins ropes into text.  Each rope is joined from its parts, walked
    from an explicit stack, and the most recently joined ones are kept
    up to `_KEEP` characters, so that a rope shared by the next lines is
    joined once without keeping the text of every rope."""

    def __init__(self) -> None:
        self.kept: OrderedDict[int, tuple[_Rope, str]] = OrderedDict()
        self.size = 0

    def __call__(self, text: Union[str, _Rope]) -> str:
        if type(text) is str:
            return text
        kept = self.kept
        stack = [(text, iter(text), [])]
        while True:
            rope, parts, buf = stack[-1]
            for p in parts:
                if type(p) is str:
                    buf.append(p)
                    continue
                hit = kept.get(id(p))
                if hit is None:
                    stack.append((p, iter(p), []))
                    break
                kept.move_to_end(id(p))
                buf.append(hit[1])
            else:
                stack.pop()
                joined = "".join(buf)
                if not stack:
                    return joined
                stack[-1][2].append(joined)
                kept[id(rope)] = (rope, joined)  # the rope is kept alive with its id
                self.size += len(joined)
                while self.size > _KEEP:
                    self.size -= len(kept.popitem(last=False)[1][1])


def _expr_text(e: Expr, memo: dict) -> Union[str, _Rope]:
    """The concrete syntax of `e`, as a str or a rope: a `fold` over
    (text, precedence level) pairs.  `memo` may be shared by calls over
    expressions with common subterms, whose text is then built once."""
    return fold(e, _print_node, memo)[0]


def print_expr(e: Expr) -> str:
    """Concrete syntax of an expression (see `_expr_text`)."""
    return _Joiner()(_expr_text(e, {}))


def _at(kid: tuple, ctx: int) -> Union[str, _Rope]:
    """A subterm's text in a context of precedence `ctx`."""
    text, level = kid
    return text if level >= ctx else _cat("(", text, ")")


# Binary operators: (infix text, own level, context of the left operand,
# context of the right operand).
_INFIX = {
    And: (" && ", _LVL_AND, _LVL_AND, _LVL_AND + 1),
    Or: (" || ", _LVL_OR, _LVL_OR, _LVL_OR + 1),
    Implies: (" --> ", _LVL_IMPLIES, _LVL_IMPLIES + 1, _LVL_IMPLIES),
    Eq: (" == ", _LVL_CMP, _LVL_CMP + 1, _LVL_CMP + 1),
}


def _print_node(e: Expr, kids: list[tuple]) -> tuple:
    kind = type(e)
    if kind is Var:
        return e.name, _LVL_ATOM
    if kind is App:
        return _cat(_at(kids[0], _LVL_APP), " ", _at(kids[1], _LVL_ATOM)), _LVL_APP
    infix = _INFIX.get(kind)
    if infix is not None:
        op, level, left, right = infix
        return _cat(_at(kids[0], left), op, _at(kids[1], right)), level
    if kind is Not:
        return _cat("not ", _at(kids[0], _LVL_NOT)), _LVL_NOT
    if kind is Cmp:
        return _cat(_at(kids[0], _LVL_CMP + 1), f" {e.op} ", _at(kids[1], _LVL_CMP + 1)), _LVL_CMP
    if kind is BoolLit:
        return ("true" if e.value else "false"), _LVL_ATOM
    if kind is IntLit:
        return str(e.value), _LVL_ATOM
    if kind is FloatLit:
        return repr(e.value), _LVL_ATOM
    if kind is StringLit:
        return '"' + e.value.replace("\\", "\\\\").replace('"', '\\"') + '"', _LVL_ATOM
    if kind is Forall or kind is Exists:
        quantifier = "forall" if kind is Forall else "exists"
        return _cat(f"{quantifier} {e.var}: {e.var_type}. ", kids[0][0]), _LVL_LOW
    if kind is Lambda:
        ann = str(e.var_type)
        if isinstance(e.var_type, FunT):
            ann = f"({ann})"
        return _cat(f"\\{e.var} : {ann} -> ", kids[0][0]), _LVL_LOW
    if kind is IfThenElse:
        cond, then, other = (text for text, _ in kids)
        return _cat("if ", cond, " then ", then, " else ", other), _LVL_LOW
    if kind is FieldAccess:
        obj = _at(kids[0], _LVL_ATOM)
        if type(e.obj) is not Var and type(e.obj) is not FieldAccess:
            obj = _cat("(", obj, ")")
        return _cat(obj, "." + e.fieldname), _LVL_ATOM
    raise TypeError(f"unknown expression node {kind.__name__}")


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


def _rule_text(r: Rule, memo: dict) -> _Rope:
    parts: list = [f"rule <{r.name}>"]
    if r.annotation is not None:
        parts.append("\n  " + print_annotation(r.annotation))
    if not r.is_bodyless():
        if r.params:
            parts.append("\n  for " + ", ".join(f"{n}: {t}" for n, t in r.params))
        if r.precond != TRUE:
            parts += ["\n  if ", _expr_text(r.precond, memo)]
        parts += ["\n  then ", _expr_text(r.postcond, memo)]
    return _Rope(parts)


def print_rule(r: Rule) -> str:
    return _Joiner()(_rule_text(r, {}))


def print_class(c: ClassDecl) -> str:
    s = f"class {c.name}"
    if c.parent != ROOT_CLASS:
        s += f" extends {c.parent}"
    if c.attrs:
        body = "\n".join(f"  {n}: {t}" for n, t in c.attrs)
        s += " {\n" + body + "\n}"
    return s


def _assertion_text(a: Assertion, memo: dict) -> _Rope:
    ann_parts = [f"SMT: {{{a.mode}}}"]
    if a.add_rules or a.del_rules:
        rp = []
        if a.add_rules:
            rp.append("add: " + ", ".join(a.add_rules))
        if a.del_rules:
            rp.append("del: " + ", ".join(a.del_rules))
        ann_parts.append("rules: {" + ", ".join(rp) + "}")
    return _Rope((f"assert <{a.name}> {{{', '.join(ann_parts)}}}\n  ", _expr_text(a.formula, memo)))


def print_module(m: RuleModule, include_system: bool = False) -> str:
    """Canonical concrete syntax for a module.

    System-generated declarations and rules are omitted by default:
    elaboration regenerates them, so the printed text stays close to
    what a user would write.  The text of a subterm shared between
    rules is built once, and the module's text is joined once from the
    pieces of `module_pieces`.
    """
    return "".join(module_pieces(m, include_system))


def module_pieces(m: RuleModule, include_system: bool = False) -> Iterator[str]:
    """The text of `print_module` in pieces, one per block or separator,
    each joined when it is reached, so that a caller writing them out
    never holds the text of the whole module."""
    memo: dict = {}
    join = _Joiner()
    blocks: list[Union[str, _Rope]] = []
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
        blocks.append(_rule_text(r, memo))
    for a in m.assertions:
        blocks.append(_assertion_text(a, memo))
    for i, b in enumerate(blocks):
        if i:
            yield "\n\n"
        yield join(b)
    if blocks:
        yield "\n"


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


@dataclass(unsafe_hash=True)
class Diagnostic:
    """An error or warning about a module, with its location if known."""

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
                if ref not in rule_names:
                    err(r.loc, f"rule '{r.name}' refers to unknown rule '{ref}'")
                elif ref == r.name:
                    err(r.loc, f"rule '{r.name}' refers to itself in its annotation")
        elif isinstance(ann, Derived):
            refs = [ann.apply.target]
            if isinstance(ann.apply, RestrictSubjectTo):
                refs += list(ann.apply.overriders)
            for ref in refs:
                if ref not in rule_names:
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
