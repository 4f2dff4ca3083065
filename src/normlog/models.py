"""Finite-model enumeration for rule sets and assertions.

Rules, globals and inversion formulas are first made closed Boolean
formulas over the declared symbols; a backtracking enumerator then
searches all interpretations over user-given carrier sizes and an
explicit list of integer values.  The translation of a module's
formulas makes attribute access an application of the accessor, and a
quantifier over a subclass a quantifier over its sort guarded by the
characteristic predicate, so the enumerator only ever deals with sort
carriers.  Most modules have neither: one read-only walk over the
distinct nodes of all the formulas looks for the first, and only if it
finds one are the formulas rebuilt, by a fold that visits each distinct
node once and keeps the sharing the precondition transform left between
rules.

The enumerator assigns one cell of one free symbol at a time: symbols
in search order, each symbol's cells in order, values in codomain
order, so models come out in the order of whole tables.  The search
order is the declaration order, except for symbols a problem names to
search last (`ModelProblem`).  `check_assertion` searches in declared
order, because the first model found is the countermodel it reports;
the correspondence check searches the predicates that rules conclude
last, so that the class predicates their rules read constrain them
first (correspond.py).

Every formula is compiled once per search (`FormulaCompiler`) into a
closure that reads unset cells as unknown and says whether the formula
is definitely false, false under every completion of the tables; each
subterm is asked only the direction its parent acts on.  The same walk
records the free symbols each node reads, which give a formula its
watch set and stage.  After each cell every formula mentioning its
symbol that can already be false is asked, and the search backtracks
as soon as one is false; a formula is also staged at the last symbol it
mentions, where its cells are all set.  A formula that may raise a
ModelError takes part only at its stage, so errors are raised where a
whole-table search raises them.  The budget counts the cell
assignments of the search that runs, so it depends on the search order.

Deliberate limitations, reported as errors rather than silently
approximated: Float and String symbols, tuple types, lambdas applied to
arguments, and quantification over the root class.  Integer handling is
exact but only over the finite value list passed in, which is the whole
point of a desk-scale checker: small counterexamples first.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Collection, Iterator, NamedTuple, Optional, Sequence

from .syntax import (
    CMP_OPS,
    ROOT_CLASS,
    TRUE,
    VALID,
    And,
    App,
    Assertion,
    BoolLit,
    BoolT,
    ClassT,
    Cmp,
    Eq,
    Exists,
    Expr,
    FieldAccess,
    FloatLit,
    Forall,
    FunDecl,
    FunT,
    IfThenElse,
    Implies,
    IntLit,
    IntT,
    LType,
    Not,
    NormlogError,
    Or,
    Rule,
    RuleModule,
    StringLit,
    TupleT,
    Var,
    atom_parts,
    char_pred_name,
    children,
    fold,
    free_vars,
    rebuild,
    spine,
    uncurry,
)
from .typecheck import Env, is_sort, sort_of
from .inversion import inversion_formula, inversion_targets


class ModelError(NormlogError):
    pass


class ResourceCapError(NormlogError):
    """The search gave up before exhausting the space.  Distinct from
    'no models': nothing can be concluded from hitting the cap."""


DEFAULT_NODE_BUDGET = 5_000_000


# ---------------------------------------------------------------------------
# translation to closed formulas


@dataclass(unsafe_hash=True)
class FormulaSet:
    """A self-contained finite-model problem: sorts, their fixed
    carriers where applicable, symbol declarations (types normalized so
    only sorts appear), and named closed formulas.  `translated` says
    whether the module's formulas needed translating
    (`translate_formulas`); it takes no part in comparisons."""

    sorts: tuple[str, ...]
    fixed: tuple[tuple[str, tuple[str, ...]], ...]
    char_true: tuple[str, ...]
    decls: tuple[FunDecl, ...]
    formulas: tuple[tuple[str, Expr], ...]
    translated: bool = field(default=False, compare=False)

    def fixed_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.fixed)


def _field_to_app(e: Expr, kids: list[Expr]) -> Expr:
    e = rebuild(e, kids)
    if type(e) is FieldAccess:
        return App(Var(e.fieldname), e.obj)
    return e


def rewrite_fields(e: Expr, memo: Optional[dict] = None) -> Expr:
    """Attribute access as application of the generated accessor.

    A memoized `fold`: visits each distinct node once and returns
    unchanged nodes themselves; `memo` may be shared between calls."""
    return fold(e, _field_to_app, {} if memo is None else memo)


def _guard(env: Env) -> Callable[[Expr, list[Expr]], Expr]:
    def guard(e: Expr, kids: list[Expr]) -> Expr:
        e = rebuild(e, kids)
        kind = type(e)
        if kind is not Forall and kind is not Exists:
            return e
        t = e.var_type
        if not isinstance(t, ClassT) or t.name == ROOT_CLASS or is_sort(t.name, env.classes):
            return e
        sort = sort_of(t.name, env.classes)
        test = App(Var(char_pred_name(t.name)), Var(e.var))
        if kind is Forall:
            return Forall(e.var, ClassT(sort), Implies(test, e.body))
        return Exists(e.var, ClassT(sort), And(test, e.body))

    return guard


def guard_quantifiers(e: Expr, env: Env, memo: Optional[dict] = None) -> Expr:
    """Quantification over a proper subclass becomes quantification
    over its sort, guarded by the characteristic predicate.

    A memoized `fold`: visits each distinct node once and returns
    unchanged nodes themselves; `memo` may be shared between calls."""
    return fold(e, _guard(env), {} if memo is None else memo)


def _needs_translation(formulas: Sequence[Expr], env: Env) -> bool:
    """Whether some formula reads an attribute or binds a class that is
    neither the root nor a sort: a proper subclass, or an unknown class
    that `sort_of` rejects.  One read-only walk over the distinct nodes
    of all the formulas, stopping at the first such node."""
    seen: set[int] = set()
    stack = list(formulas)
    while stack:
        e = stack.pop()
        kind = type(e)
        if kind is FieldAccess:
            return True
        if kind is Forall or kind is Exists:
            t = e.var_type
            if isinstance(t, ClassT) and t.name != ROOT_CLASS and not is_sort(t.name, env.classes):
                return True
        for k in children(e):
            # a variable, the commonest leaf, is neither
            if type(k) is not Var and id(k) not in seen:
                seen.add(id(k))
                stack.append(k)
    return False


def translate_formulas(formulas: list[Expr], env: Env) -> list[Expr]:
    """`guard_quantifiers(rewrite_fields(e), env)` of each formula, in
    one memoized `fold` with one memo for them all.  When no formula
    needs it (`_needs_translation`), `formulas` itself is returned."""
    if not _needs_translation(formulas, env):
        return formulas
    guard = _guard(env)

    def combine(x: Expr, kids: list[Expr]) -> Expr:
        return _field_to_app(x, kids) if type(x) is FieldAccess else guard(x, kids)

    memo: dict = {}
    return [fold(e, combine, memo) for e in formulas]


def normalize_type(t: LType, env: Env) -> LType:
    if isinstance(t, ClassT):
        if t.name == ROOT_CLASS:
            return t
        return ClassT(sort_of(t.name, env.classes))
    if isinstance(t, FunT):
        return FunT(normalize_type(t.dom, env), normalize_type(t.cod, env))
    if isinstance(t, TupleT):
        return TupleT(tuple(normalize_type(x, env) for x in t.items))
    return t


def closed_rule_formula(r: Rule) -> Expr:
    body: Expr = r.postcond if r.precond == TRUE else Implies(r.precond, r.postcond)
    for n, t in reversed(r.params):
        body = Forall(n, t, body)
    return body


def rules_to_formulas(m: RuleModule, include_inversions: bool = True) -> FormulaSet:
    """The formula set of a fully transformed module: one formula per
    rule, a membership constraint per subclass-typed global, and the
    inversion formulas of all user predicates (unless disabled)."""
    env = Env.from_module(m)
    sorts = tuple(c.name for c in m.classes if c.parent == ROOT_CLASS)

    fixed: list[tuple[str, tuple[str, ...]]] = []
    for c in m.classes:
        if c.rulename_for is None:
            continue
        consts = tuple(g.name for g in m.globals if g.type == ClassT(c.name))
        if not consts:
            raise ModelError(f"rule-name class '{c.name}' has no constants")
        fixed.append((c.name, consts))

    char_true = tuple(
        char_pred_name(s) for s in sorts if char_pred_name(s) in env.decls
    )
    decls = tuple(
        FunDecl(d.name, normalize_type(d.type, env), system=d.system, loc=None)
        for d in m.all_decls()
    )

    formulas: list[tuple[str, Expr]] = [
        (f"rule {r.name}", closed_rule_formula(r)) for r in m.rules if not r.is_bodyless()
    ]
    for g in m.globals:
        if isinstance(g.type, ClassT) and g.type.name != ROOT_CLASS:
            if not is_sort(g.type.name, env.classes):
                formulas.append(
                    (
                        f"global {g.name}",
                        App(Var(char_pred_name(g.type.name)), Var(g.name)),
                    )
                )
    if include_inversions:
        body_rules = [r for r in m.rules if not r.is_bodyless()]
        for p in inversion_targets(m):
            formulas.append((f"inversion {p}", inversion_formula(body_rules, p, env)))

    # Translated together: the transformed preconditions share subterms
    # across rules, and each distinct node is visited once.
    raw = [f for _, f in formulas]
    bodies = translate_formulas(raw, env)
    formulas = list(zip([n for n, _ in formulas], bodies))

    return FormulaSet(sorts, tuple(fixed), char_true, decls, tuple(formulas), bodies is not raw)


# ---------------------------------------------------------------------------
# interpretations


@dataclass(unsafe_hash=True)
class Interpretation:
    """A finite model: the carriers, the integers and one table per symbol."""

    carriers: dict[str, tuple[str, ...]]
    ints: tuple[int, ...]
    tables: dict[str, dict[tuple, object]]

    def to_json(self) -> dict:
        return {
            "sorts": {s: list(es) for s, es in self.carriers.items()},
            "ints": list(self.ints),
            "tables": {
                name: [[*k, v] for k, v in table.items()]
                for name, table in self.tables.items()
            },
        }


# ---------------------------------------------------------------------------
# compilation to directional closures


BOOLS = frozenset((False, True))

_MISSING = object()

# An application whose argument values span more tuples than this is
# not checked against the table's cells at compile time; it keeps its
# check at run time.
_MAX_CHECKED_KEYS = 4096

NEVER = math.inf

_LEAVES = (Var, BoolLit, IntLit, StringLit, FloatLit)

# What a parent asks of a compiled node: its three-valued value, or
# whether it is False (True) under every completion of the tables.
_VALUE, _IS_FALSE, _IS_TRUE = 0, 1, 2


class Symbol(NamedTuple):
    """What compiled closures know of one symbol.  `table` maps each
    cell assigned so far to its value and is read in place at every
    call; `cells` holds every cell it may hold and `values` every value
    it may take (None when not known).  `rank` is the symbol's place in
    the order the search assigns tables, -1 for a complete table."""

    table: dict
    cells: frozenset
    values: Optional[frozenset]
    rank: int = -1

    @property
    def bit(self) -> int:
        """The symbol's bit in a `_Node.refs` mask, 0 for a complete table."""
        return 1 << self.rank if self.rank >= 0 else 0


class _Node:
    """A compiled node.  `closure(want)` returns its closure of no
    arguments for `want`, made by `build(node, want)` from `parts` on
    the first request and kept in `built`, a list made on the first
    request of any closure: for _VALUE the node's three-valued
    value, for _IS_FALSE (_IS_TRUE) whether it is False (True) under
    every completion of the tables.  Also: the values it may return
    (None if not known), whether it is safe, its binder cell if it is a
    bound variable, and the ranks from which it may be True and False
    (a term: any definite value) while the symbols ranked above have no
    cells set.  `refs` has bit k set if it reads the symbol ranked k; a
    node that fails to compile reads its expression's free symbols."""

    __slots__ = ("build", "parts", "values", "safe", "cell", "true_from", "false_from", "refs", "built")

    def __init__(self, build, parts, values, safe, cell, true_from, false_from, refs) -> None:
        self.build = build
        self.parts = parts
        self.values: Optional[frozenset] = values
        self.safe: bool = safe
        self.cell: Optional[list] = cell
        self.true_from: float = true_from
        self.false_from: float = false_from
        self.refs: int = refs
        self.built: Optional[list] = None

    @property
    def definite_from(self) -> float:
        return min(self.true_from, self.false_from)

    def closure(self, want: int) -> Callable[[], object]:
        built = self.built
        if built is None:
            built = self.built = [None, None, None]
        fn = built[want]
        if fn is None:
            fn = built[want] = self.build(self, want)
        return fn


class Compiled(NamedTuple):
    """A compiled formula or term.  `is_false()` says whether it is
    False under every completion of the tables as they stand, and
    `is_true()` whether it is True under every one; `value()` gives its
    three-valued value.  Each closure is built when first looked up.
    `safe` says that none of them raises, whichever of its cells are
    set; `params` are the cells of the variables passed to
    `FormulaCompiler.compile`, which the caller fills.  `false_from` is
    a rank k such that `is_false()` is not True while the symbols ranked
    above k have no cells set, or NEVER."""

    node: _Node
    params: tuple[list, ...]

    @property
    def safe(self) -> bool:
        return self.node.safe

    @property
    def false_from(self) -> float:
        return self.node.false_from

    @property
    def is_false(self) -> Callable[[], bool]:
        return self.node.closure(_IS_FALSE)

    @property
    def is_true(self) -> Callable[[], bool]:
        return self.node.closure(_IS_TRUE)

    @property
    def value(self) -> Callable[[], object]:
        return self.node.closure(_VALUE)


def _union(a: Optional[frozenset], b: Optional[frozenset]) -> Optional[frozenset]:
    return None if a is None or b is None else a | b


def _orderable(a: Optional[frozenset], b: Optional[frozenset]) -> bool:
    """Whether `<` between any value of `a` and any of `b` cannot raise."""
    if a is None or b is None:
        return False
    both = a | b
    return all(isinstance(v, int) for v in both) or all(isinstance(v, str) for v in both)


class FormulaCompiler:
    """Compiles expressions over one vocabulary of symbols into closures
    of no arguments, for the fixed `carriers` and `ints`.

    A node is compiled into the closures its parents ask for, each built
    on first request (`Compiled`, `_Node.closure`).  The search only
    acts on False, so a formula is asked whether it is definitely False
    (`is_false`), which is True only if every completion of the tables
    makes it False; `is_true` is the dual.  A connective asks its
    operands the directions that decide it: && is false once an operand
    is false, left to right, and true when all are true; || is the dual;
    `a --> b` is false when `a` is true and `b` false, and true when `a`
    is false or `b` true; `not` hands over the other direction of its
    operand and adds no closure; a quantifier stops at the first
    instance that decides it.  A value is read, three-valued (None while
    a cell it reads is unset, Kleene's strong connectives), only by `=`,
    comparisons, the condition of `if` and application arguments.

    When every cell it reads is set a closure agrees with the
    tree-walking reference evaluator (tests/oracles.py), raises the same
    ModelError and reaches the same operands as its two-valued
    short-circuiting: every check is made when its node is reached, so a
    branch never reached raises nothing.

    Checks that cannot fail are left out, which is what makes a node
    `safe`: a symbol, arity and argument values that fit the symbol's
    cells, a quantifier domain, a supported node.  An application whose
    key may fall outside the cells keeps its check; an unset cell then
    reads as None and any other missing key raises.

    One compiler serves one search.  A node is memoized by the identity
    of its expression and the binders above it (variables and types,
    numbered as contexts), and a binder's cell is keyed by its variable
    and depth, so a subterm shared between rules compiles once.  Each
    node records the ranked symbols it reads (`_Node.refs`) when built.
    Compiling spends one frame per tree level, and building a closure
    two.  A call of `is_false` or `is_true` spends one frame per level
    of the tree, none per `not`, and one per chain of && or || of any
    length."""

    def __init__(
        self,
        symbols: dict[str, Symbol],
        carriers: dict[str, tuple[str, ...]],
        ints: Sequence[int],
    ) -> None:
        self.symbols = symbols
        self.carriers = carriers
        self.ints = tuple(ints)
        self._memo: dict[tuple[int, int], tuple[Expr, _Node]] = {}
        self._cells: dict[tuple[str, int], list] = {}
        self._leaves: dict[tuple, _Node] = {}
        self._fits: dict[tuple, bool] = {}
        # (outer context, variable, type) -> see _binder; context 0 has
        # no binders, and _depth gives each context's count
        self._binders: dict[tuple, object] = {}
        self._depth: list[int] = [0]

    def compile(self, e: Expr, params: Sequence[str] = ()) -> Compiled:
        """Compile `e`, whose free variables among `params` are bound to
        cells returned in `params` order; all other names are symbols."""
        scope: dict[str, _Node] = {}
        context = 0
        for name in params:
            context, scope[name], _ = self._binder(context, name, None)
        node = self._comp(e, scope, context)
        return Compiled(node, tuple(scope[name].cell for name in params))

    def _binder(self, outer: int, var: str, t: Optional[LType]):
        """For a binder of `var` of type `t` in context `outer`: the
        context inside it, the node of its variable and its domain; or
        the message of the ModelError for a type without a domain.  A
        parameter has no type, and its values are not known."""
        key = (outer, var, t)
        hit = self._binders.get(key)
        if hit is None:
            try:
                domain = () if t is None else self._domain(t)
            except ModelError as err:
                hit = self._binders[key] = str(err)
                return hit
            depth = self._depth[outer]
            cell = self._cells.get((var, depth))
            if cell is None:
                cell = self._cells[(var, depth)] = [None]
            values = None if t is None else frozenset(domain)
            node = _Node(_variable, None, values, True, cell, -1, -1, 0)
            self._depth.append(depth + 1)
            hit = self._binders[key] = (len(self._depth) - 1, node, domain)
        return hit

    def _domain(self, t: LType) -> tuple:
        if isinstance(t, ClassT):
            if t.name in self.carriers:
                return self.carriers[t.name]
            raise ModelError(f"cannot quantify over '{t.name}' (no carrier)")
        if isinstance(t, BoolT):
            return (False, True)
        if isinstance(t, IntT):
            if not self.ints:
                raise ModelError("integer quantifier but no integer values were given")
            return self.ints
        raise ModelError(f"cannot quantify over type '{t}'")

    def _leaf(self, e: Expr) -> _Node:
        if isinstance(e, Var):
            sym = self.symbols.get(e.name)
            if sym is None:
                return _fail(f"no interpretation for symbol '{e.name}'")
            if () not in sym.cells:
                return _fail(f"symbol '{e.name}' used without arguments", sym.bit)
            return _Node(_constant_symbol, sym.table.get, sym.values, True, None, sym.rank, sym.rank, sym.bit)
        if isinstance(e, (BoolLit, IntLit)):
            value = e.value
            true_from = NEVER if value is False else -1
            false_from = NEVER if value is True else -1
            return _Node(_literal, value, frozenset((value,)), True, None, true_from, false_from, 0)
        return _fail(f"{type(e).__name__} values are not supported by the enumerator")

    def _comp(self, e: Expr, scope: dict[str, _Node], context: int) -> _Node:
        kind = type(e)
        if kind in _LEAVES:
            if kind is Var and e.name in scope:
                return scope[e.name]
            leaf_key = (kind, e.name if kind is Var else e.value)
            leaf = self._leaves.get(leaf_key)
            if leaf is None:
                leaf = self._leaves[leaf_key] = self._leaf(e)
            return leaf

        memo_key = (id(e), context)
        hit = self._memo.get(memo_key)
        if hit is not None:
            return hit[1]
        comp = self._comp
        if kind is Not:
            arg = comp(e.arg, scope, context)
            out = _Node(_negation, arg, BOOLS, arg.safe, None, arg.false_from, arg.true_from, arg.refs)
        elif kind is And or kind is Or:
            left, right = e.left, e.right
            # A chain of any length, however bracketed, is one node:
            # && and || evaluate operands left to right under any
            # bracketing.
            if type(left) is kind or type(right) is kind:
                operands = [comp(x, scope, context) for x in spine(e, kind)]
            else:
                operands = [comp(left, scope, context), comp(right, scope, context)]
            out = _junction(kind is And, operands)
        elif kind is Implies:
            ln, rn = comp(e.left, scope, context), comp(e.right, scope, context)
            out = _Node(
                _implication,
                (ln, rn),
                _union(BOOLS, _union(ln.values, rn.values)),
                ln.safe and rn.safe,
                None,
                min(ln.false_from, rn.true_from),
                max(ln.true_from, rn.false_from),
                ln.refs | rn.refs,
            )
        elif kind is Eq or kind is Cmp:
            ln, rn = comp(e.left, scope, context), comp(e.right, scope, context)
            safe = ln.safe and rn.safe and (kind is Eq or _orderable(ln.values, rn.values))
            op = operator.eq if kind is Eq else CMP_OPS[e.op]
            definite_from = max(ln.definite_from, rn.definite_from)
            refs = ln.refs | rn.refs
            out = _Node(_comparison, (op, ln, rn), BOOLS, safe, None, definite_from, definite_from, refs)
        elif kind is App:
            parts = atom_parts(e)
            if parts is None:
                out = _fail("cannot evaluate application of a non-symbol")
            elif parts[0] in scope:
                out = _fail(f"cannot apply bound variable '{parts[0]}'")
            elif parts[0] not in self.symbols:
                out = _fail(f"no interpretation for symbol '{parts[0]}'")
            else:
                args = []
                for a in parts[1]:
                    args.append(comp(a, scope, context))
                out = _application(parts[0], self.symbols[parts[0]], args, self._fits)
        elif kind is Forall or kind is Exists:
            binder = self._binder(context, e.var, e.var_type)
            if isinstance(binder, str):
                out = _fail(binder)
            else:
                inner, var, values = binder
                body = comp(e.body, {**scope, e.var: var}, inner)
                out = _Node(
                    _quantifier,
                    (kind is Forall, values, var.cell, body),
                    BOOLS,
                    body.safe,
                    None,
                    body.true_from,
                    body.false_from,
                    body.refs,
                )
        elif kind is IfThenElse:
            out = _conditional(
                comp(e.cond, scope, context),
                comp(e.then, scope, context),
                comp(e.other, scope, context),
            )
        else:
            out = _fail(f"cannot evaluate {kind.__name__} nodes")
        if out.build is _raise:
            # it stands for every free symbol it names, so that a formula
            # that may raise keeps the stage free_vars gives it
            for n in free_vars(e).difference(scope):
                out.refs |= self.symbols[n].bit if n in self.symbols else 0
        self._memo[memo_key] = (e, out)
        return out


# Closure builders: `build(node, want)` of each node kind.


def _kleene(node: _Node) -> Callable[[], object]:
    """The value of a Boolean connective, read from its two directions."""
    false, true = node.closure(_IS_FALSE), node.closure(_IS_TRUE)
    return lambda: False if false() else True if true() else None


def _decided(fn: Callable[[], object], want: int) -> Callable[[], object]:
    """The closure for `want` of a node whose value closure is `fn`."""
    if want == _VALUE:
        return fn
    expect = want == _IS_TRUE
    return lambda: fn() is expect


def _raise(node: _Node, want: int) -> Callable[[], object]:
    message = node.parts

    def fail():
        raise ModelError(message)

    return fail


def _fail(message: str, refs: int = 0) -> _Node:
    return _Node(_raise, message, None, False, None, -1, -1, refs)


def _literal(node: _Node, want: int) -> Callable[[], object]:
    value = node.parts if want == _VALUE else node.parts is (want == _IS_TRUE)
    return lambda: value


def _constant_symbol(node: _Node, want: int) -> Callable[[], object]:
    get = node.parts
    if want == _VALUE:
        return lambda: get(())
    expect = want == _IS_TRUE
    return lambda: get(()) is expect


def _variable(node: _Node, want: int) -> Callable[[], object]:
    cell = node.cell
    if want == _VALUE:
        return lambda: cell[0]
    expect = want == _IS_TRUE
    return lambda: cell[0] is expect


def _negation(node: _Node, want: int) -> Callable[[], object]:
    if want == _VALUE:
        return _kleene(node)
    return node.parts.closure(_IS_TRUE if want == _IS_FALSE else _IS_FALSE)


def _junction(conjunction: bool, operands: list[_Node]) -> _Node:
    """The node of a chain of && (`conjunction`) or || over compiled
    `operands`, left to right."""
    values: Optional[frozenset] = BOOLS
    refs = 0
    for x in operands:
        values = _union(values, x.values)
        refs |= x.refs
    # && is true once all operands may be, false once one may be
    true_at, false_at = (max, min) if conjunction else (min, max)
    return _Node(
        _junction_closure,
        (conjunction, operands),
        values,
        all(x.safe for x in operands),
        None,
        true_at(x.true_from for x in operands),
        false_at(x.false_from for x in operands),
        refs,
    )


def _junction_closure(node: _Node, want: int) -> Callable[[], object]:
    conjunction, operands = node.parts
    if want == _VALUE:
        return _kleene(node)
    fns = [x.closure(want) for x in operands]
    if (want == _IS_FALSE) == conjunction:
        # && is false, || true, as soon as one operand is
        if len(fns) == 2:
            a, b = fns
            return lambda: a() or b()

        def some():
            for f in fns:
                if f():
                    return True
            return False

        return some
    if len(fns) == 2:
        a, b = fns
        return lambda: a() and b()

    def every():
        for f in fns:
            if not f():
                return False
        return True

    return every


def _implication(node: _Node, want: int) -> Callable[[], object]:
    left, right = node.parts
    if want == _VALUE:
        return _kleene(node)
    if want == _IS_FALSE:
        a, b = left.closure(_IS_TRUE), right.closure(_IS_FALSE)
        return lambda: a() and b()
    a, b = left.closure(_IS_FALSE), right.closure(_IS_TRUE)
    return lambda: a() or b()


def _comparison(node: _Node, want: int) -> Callable[[], object]:
    """= or a comparison: both operands are read as values."""
    op, ln, rn = node.parts
    left, right = ln.closure(_VALUE), rn.closure(_VALUE)
    if want == _VALUE:

        def fn():
            l = left()
            r = right()
            return None if l is None or r is None else op(l, r)

        return fn
    expect = want == _IS_TRUE

    def decided():
        l = left()
        r = right()
        return l is not None and r is not None and op(l, r) is expect

    return decided


def _conditional(cn: _Node, tn: _Node, on: _Node) -> _Node:
    def branches(then_from: float, other_from: float) -> float:
        return min(
            max(cn.true_from, then_from),
            max(cn.false_from, other_from),
            max(then_from, other_from),
        )

    return _Node(
        _conditional_closure,
        (cn, tn, on),
        _union(tn.values, on.values),
        cn.safe and tn.safe and on.safe,
        None,
        branches(tn.true_from, on.true_from),
        branches(tn.false_from, on.false_from),
        cn.refs | tn.refs | on.refs,
    )


def _conditional_closure(node: _Node, want: int) -> Callable[[], object]:
    """`if`: the condition is read as a value, and the branches are
    asked what the `if` is asked.  While the condition is unknown the
    value is what both branches agree on."""
    cn, tn, on = node.parts
    cond, then, other = cn.closure(_VALUE), tn.closure(want), on.closure(want)
    if want == _VALUE:

        def ite():
            c = cond()
            if c is None:
                t = then()
                return t if t is not None and t == other() else None
            return then() if c else other()

        return ite

    def decided():
        c = cond()
        if c is None:
            return then() and other()
        return then() if c else other()

    return decided


def _application(head: str, sym: Symbol, args: list[_Node], fits: dict) -> _Node:
    """The node of `head` applied to compiled `args`: unchecked when
    every key the arguments can form is a cell of `sym`, else checked.
    `fits` memoizes that test by symbol and argument values."""
    values = []
    definite_from = sym.rank
    refs = sym.bit
    for a in args:
        values.append(a.values if a.safe else None)
        definite_from = max(definite_from, a.definite_from)
        refs |= a.refs
    key = (head, *values)
    safe = fits.get(key)
    if safe is None:
        safe = fits[key] = None not in values and _fits(sym.cells, values)
    return _Node(_application_closure, (head, sym, args), sym.values, safe, None, definite_from, definite_from, refs)


def _application_closure(node: _Node, want: int) -> Callable[[], object]:
    head, sym, args = node.parts
    get = sym.table.get
    fns = tuple(a.closure(_VALUE) for a in args)
    if not node.safe:
        partial = f"partial application of '{head}'"
        table, cellset = sym.table, sym.cells

        def checked():
            k = tuple([a() for a in fns])
            v = table.get(k, _MISSING)
            if v is _MISSING:
                if k in cellset or None in k:
                    return None
                raise ModelError(partial)
            return v

        return _decided(checked, want)
    # An unset argument makes a key with None, which no table holds.  A
    # key of bound variables' cells, or of one argument, is read here.
    cells = [a.cell for a in args]
    expect = want == _IS_TRUE
    if len(args) == 1:
        (c,) = cells
        (a,) = fns
        if c is None:
            if want == _VALUE:
                return lambda: get((a(),))
            return lambda: get((a(),)) is expect
        if want == _VALUE:
            return lambda: get((c[0],))
        return lambda: get((c[0],)) is expect
    if len(args) == 2 and None not in cells:
        c0, c1 = cells
        if want == _VALUE:
            return lambda: get((c0[0], c1[0]))
        return lambda: get((c0[0], c1[0])) is expect
    if None not in cells:
        return _decided(lambda: get(tuple(map(_first, cells))), want)
    return _decided(lambda: get(tuple([a() for a in fns])), want)


_first = operator.itemgetter(0)


def _fits(cells: frozenset, values: list[frozenset]) -> bool:
    """Whether every key formed from `values` is one of `cells`."""
    if math.prod(map(len, values)) > _MAX_CHECKED_KEYS:
        return False
    return all(k in cells for k in itertools.product(*values))


def _quantifier(node: _Node, want: int) -> Callable[[], object]:
    forall, values, cell, body = node.parts
    if want == _VALUE:
        return _kleene(node)
    fn = body.closure(want)
    if (want == _IS_FALSE) == forall:
        # forall is false, exists true, at the first instance that is

        def some():
            for v in values:
                cell[0] = v
                if fn():
                    return True
            return False

        return some

    def every():
        for v in values:
            cell[0] = v
            if not fn():
                return False
        return True

    return every


# ---------------------------------------------------------------------------
# enumeration


class CorrespondenceError(NormlogError):
    """An interpretation does not fit the problem it is checked against,
    or the two compiled forms of a module do not line up."""


class ModelProblem:
    """One formula set compiled for fixed carriers and integer values.

    It owns the carriers, a table per symbol (pinned tables filled, free
    ones filled by the search or by `false_formulas`) and the formulas,
    compiled against those tables once, by the first search or check,
    and staged for the search by the symbols the compile walk records.
    Only one thing uses the tables at a time: a search, while it runs or
    is suspended at a model, or a check; `compiler` compiles more
    against the same tables.  Sorts take their size from `sizes` (or
    their fixed carrier); Integer ranges over `ints` exactly.  Bad sizes
    raise at construction.

    The search assigns the free symbols in declared order, except those
    named in `last`, which it assigns after all the others, each group
    in declared order; a symbol's rank is its place in that order.  A
    model lists its tables in declared order whatever the search order;
    only the order in which the models come out follows the search."""

    def __init__(
        self, fs: FormulaSet, sizes: dict[str, int], ints: Sequence[int] = (), last: Collection[str] = ()
    ) -> None:
        fixed = fs.fixed_map()
        carriers: dict[str, tuple[str, ...]] = {}
        for s in fs.sorts:
            if s in fixed:
                carriers[s] = fixed[s]
                continue
            if s not in sizes:
                raise ModelError(f"no carrier size given for sort '{s}'")
            n = sizes[s]
            if n < 1:
                raise ModelError(f"carrier size for sort '{s}' must be at least 1")
            carriers[s] = tuple(f"{s.lower()}{i}" for i in range(n))

        int_values = tuple(dict.fromkeys(ints))

        def domain(t: LType) -> tuple:
            if isinstance(t, ClassT):
                if t.name in carriers:
                    return carriers[t.name]
                raise ModelError(f"type '{t.name}' has no carrier")
            if isinstance(t, BoolT):
                return (False, True)
            if isinstance(t, IntT):
                if not int_values:
                    raise ModelError(f"Integer symbol but no integer values were given")
                return int_values
            raise ModelError(f"the enumerator does not support type '{t}'")

        symbols: dict[str, Symbol] = {}
        pinned: list[str] = []
        free: list[tuple[str, tuple[tuple, ...], tuple]] = []
        for d in fs.decls:
            args, cod = uncurry(d.type)
            if d.name in fs.char_true:
                table = {(v,): True for v in domain(args[0])}
            elif (
                not args
                and isinstance(cod, ClassT)
                and cod.name in fixed
                and d.name in fixed[cod.name]
            ):
                table = {(): d.name}
            else:
                arg_domains = [domain(a) for a in args]
                cells = tuple(itertools.product(*arg_domains))
                values = domain(cod)
                symbols[d.name] = Symbol({}, frozenset(cells), frozenset(values))
                free.append((d.name, cells, values))
                continue
            pinned.append(d.name)
            symbols[d.name] = Symbol(table, frozenset(table), frozenset(table.values()))
        self._names = pinned + [name for name, _, _ in free]
        # the free symbols in search order
        free = [f for f in free if f[0] not in last] + [f for f in free if f[0] in last]
        for rank, (name, _, _) in enumerate(free):
            symbols[name] = symbols[name]._replace(rank=rank)

        self.carriers = carriers
        self.ints = int_values
        self.symbols = symbols
        self.compiler = FormulaCompiler(symbols, carriers, int_values)
        self._fs = fs
        self._free = free

    @cached_property
    def _compiled(self) -> list[Compiled]:
        """The formulas compiled, in formula order, on first use."""
        return [self.compiler.compile(expr) for _, expr in self._fs.formulas]

    @property
    def safe(self) -> bool:
        """Whether no formula may raise a ModelError, whichever of its
        cells are set, so that the search order decides no error."""
        return all(c.safe for c in self._compiled)

    @cached_property
    def _stages(self) -> tuple[list, list, list]:
        """The formulas compiled and staged, on first use: each
        formula's name and `is_false` closure in formula order, the
        closures of the formulas that mention no free symbol, and the
        search's list of (table, cell, values, closures evaluated once
        it is set).  Stage and watch set come from the compiled node's
        `refs`: its highest bit, and the ranks whose bit is set."""
        # A formula is staged at the last free symbol it mentions: it is
        # evaluated once that symbol's last cell is set, in formula order.
        # A safe formula is also evaluated after each cell of every free
        # symbol it mentions, and prunes as soon as it is false; it is left
        # out where it cannot be false yet (`false_from`).  A formula that
        # may raise is evaluated at its stage only, and no formula after it
        # in stage order prunes before that stage is complete, so an error
        # is raised at the same assignment as by a search of whole tables.
        staged = [(c.node.refs.bit_length() - 1, c.node.refs, c) for c in self._compiled]
        # Built in formula order, each formula's closure finds those of
        # the subterms it shares with earlier formulas built.
        is_false = [c.is_false for _, _, c in staged]
        prune_after: list[int] = [0] * len(staged)
        last_unsafe = -2
        for i in sorted(range(len(staged)), key=lambda i: staged[i][0]):
            prune_after[i] = last_unsafe
            if not staged[i][2].safe:
                last_unsafe = staged[i][0]

        flat: list[tuple[dict, tuple, tuple, list]] = []
        for k, (name, cells, values) in enumerate(self._free):
            early = [
                (stage, fn)
                for (stage, refs, c), after, fn in zip(staged, prune_after, is_false)
                if c.safe and after < k and c.false_from <= k and refs >> k & 1
            ]
            complete = [
                fn
                for (stage, _, c), fn in zip(staged, is_false)
                if stage == k and (not c.safe or c.false_from <= k)
            ] + [fn for stage, fn in early if stage != k]
            early_fns = [fn for _, fn in early]
            table = self.symbols[name].table
            for i, cell in enumerate(cells):
                flat.append((table, cell, values, complete if i == len(cells) - 1 else early_fns))

        formulas = [(name, fn) for (name, _), fn in zip(self._fs.formulas, is_false)]
        initial = [fn for (stage, _, _), fn in zip(staged, is_false) if stage == -1]
        return formulas, initial, flat

    def _model(self) -> Interpretation:
        return Interpretation(
            carriers=dict(self.carriers),
            ints=self.ints,
            tables={n: dict(self.symbols[n].table) for n in self._names},
        )

    def models(self, node_budget: int = DEFAULT_NODE_BUDGET) -> Iterator[Interpretation]:
        """All models, in a deterministic order.  While suspended at a
        model the tables hold it.  Raises ResourceCapError when the
        number of cell assignments exceeds the budget."""
        _, initial, flat = self._stages
        for name, _, _ in self._free:
            self.symbols[name].table.clear()
        for fn in initial:
            if fn():
                return
        if not flat:
            yield self._model()
            return

        # Depth-first over the cells in search order, values in codomain
        # order, so the models come out in the order itertools.product
        # gives whole tables in search order.  Cells are inserted in order
        # and deleted on backtracking, so every table keeps its cells in
        # order.
        budget = node_budget
        last = len(flat) - 1
        tried = [0] * len(flat)
        d = 0
        while True:
            table, cell, values, checks = flat[d]
            i = tried[d]
            if i == len(values):
                del table[cell]
                tried[d] = 0
                if d == 0:
                    return
                d -= 1
                continue
            tried[d] = i + 1
            budget -= 1
            if budget < 0:
                raise ResourceCapError(f"model search exceeded {node_budget} cell assignments")
            table[cell] = values[i]
            for check in checks:
                if check():
                    break
            else:
                if d == last:
                    yield self._model()
                else:
                    d += 1

    def false_formulas(self, interp: Interpretation) -> list[str]:
        """Load the complete interpretation `interp` into the tables and
        return the names of the formulas it makes false, in formula
        order.  Raises CorrespondenceError, before loading, if `interp`
        does not fit the problem: other carriers or integer values,
        other symbols, other cells of a free symbol, another pinned
        table, or a value outside a symbol's range."""
        misfit = self._misfit(interp)
        if misfit is not None:
            raise CorrespondenceError(misfit)
        formulas, _, _ = self._stages
        for name, _, _ in self._free:
            table = self.symbols[name].table
            table.clear()
            table.update(interp.tables[name])
        return [name for name, fn in formulas if fn()]

    def _misfit(self, interp: Interpretation) -> Optional[str]:
        if interp.carriers != self.carriers:
            return f"carriers {interp.carriers} differ from the problem's {self.carriers}"
        if interp.ints != self.ints:
            return f"integer values {interp.ints} differ from the problem's {self.ints}"
        if interp.tables.keys() != self.symbols.keys():
            return f"symbols {sorted(interp.tables)} differ from the problem's {sorted(self.symbols)}"
        for name, sym in self.symbols.items():
            table = interp.tables[name]
            if sym.rank < 0:
                if table != sym.table:
                    return f"table of '{name}' differs from the problem's fixed table"
            elif table.keys() != sym.cells:
                return f"cells of '{name}' differ from the problem's"
            elif not sym.values.issuperset(table.values()):
                return f"table of '{name}' holds a value outside its range"
        return None


def enumerate_models(
    fs: FormulaSet | ModelProblem,
    sizes: Optional[dict[str, int]] = None,
    ints: Sequence[int] = (),
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[Interpretation]:
    """All interpretations of the formula set over `sizes` and `ints`,
    or of a problem already compiled (see `ModelProblem.models`).  The
    correspondence check runs its searches through here as well, so a
    wrapper of this one function (as in bench/tracing.py) sees every
    search."""
    problem = fs if isinstance(fs, ModelProblem) else ModelProblem(fs, sizes or {}, ints)
    yield from problem.models(node_budget)


# ---------------------------------------------------------------------------
# assertion checking


@dataclass(unsafe_hash=True)
class CheckOutcome:
    """The verdict on one assertion, with the model that decides it if any."""

    assertion: str
    mode: str
    status: str  # valid | counter_model | satisfiable | unsatisfiable
    model: Optional[Interpretation]

    @property
    def holds(self) -> bool:
        return self.status in ("valid", "satisfiable")

    def to_json(self) -> dict:
        out = {"assertion": self.assertion, "mode": self.mode, "status": self.status}
        if self.model is not None:
            out["model"] = self.model.to_json()
        return out


def adjusted_rules(m: RuleModule, a: Assertion) -> RuleModule:
    """The rule set an assertion is checked against: the module's rules
    minus the assertion's del list (its add list re-includes names that
    would otherwise be deleted)."""
    names = {r.name for r in m.rules}
    for n in a.add_rules + a.del_rules:
        if n not in names:
            raise ModelError(f"assertion '{a.name}' adjusts unknown rule '{n}'")
    dropped = set(a.del_rules) - set(a.add_rules)
    return replace(m, rules=tuple(r for r in m.rules if r.name not in dropped))


def assertion_problem(
    m: RuleModule, name: str, include_inversions: bool = True
) -> tuple[FormulaSet, tuple[str, str, Expr]]:
    """The formulas of the rules an assertion is checked against (see
    `adjusted_rules`) and its goal: (name, mode, translated formula)."""
    byname = {a.name: a for a in m.assertions}
    if name not in byname:
        raise ModelError(f"no assertion named '{name}'")
    a = byname[name]
    adjusted = adjusted_rules(m, a)
    fs = rules_to_formulas(adjusted, include_inversions)
    [goal] = translate_formulas([a.formula], Env.from_module(adjusted))
    return fs, (name, a.mode, goal)


def check_assertion(
    m: RuleModule,
    name: str,
    sizes: dict[str, int],
    ints: Sequence[int] = (),
    include_inversions: bool = True,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> CheckOutcome:
    """Decide an assertion over finite carriers.

    Validity is checked by searching for a model of the rules plus the
    negated assertion (a countermodel); satisfiability by searching for
    a model of the rules plus the assertion itself.  Either way the
    first model found is returned."""
    fs, (_, mode, goal) = assertion_problem(m, name, include_inversions)
    if mode == VALID:
        probe = fs.formulas + ((f"assertion {name} (negated)", Not(goal)),)
    else:
        probe = fs.formulas + ((f"assertion {name}", goal),)
    probe_fs = replace(fs, formulas=probe)

    found = next(enumerate_models(probe_fs, sizes, ints, node_budget), None)
    if mode == VALID:
        status = "counter_model" if found is not None else "valid"
    else:
        status = "satisfiable" if found is not None else "unsatisfiable"
    return CheckOutcome(name, mode, status, found)
