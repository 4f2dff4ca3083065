"""Finite-model enumeration for rule sets and assertions.

Rules, globals and inversion formulas are first translated into closed
Boolean formulas over the declared symbols; a backtracking enumerator
then searches all interpretations over user-given carrier sizes and an
explicit list of integer values.  Quantifiers over a subclass become
quantifiers over its sort guarded by the characteristic predicate, so
the enumerator only ever deals with sort carriers.  The precondition
transform shares subterms between rules; the translation visits each
distinct node once and keeps that sharing in the formulas it returns.

The enumerator assigns one cell of one free symbol at a time: symbols
in declaration order, each symbol's cells in order, values in codomain
order, so models come out in the order of whole tables.  Every formula
is compiled once per search into three-valued closures
(`FormulaCompiler`), which read unset cells as unknown.  After each
cell every formula mentioning its symbol that can already be false is
evaluated, and the search backtracks as soon as one is false; a
formula is also staged at the last symbol it mentions, where it is
evaluated in full.  A formula that may raise a ModelError takes part
only at its stage, so errors are raised where a whole-table search
raises them.  The budget counts cell assignments.

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
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .syntax import (
    BOOL,
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
    FloatT,
    Forall,
    FunDecl,
    FunT,
    IfThenElse,
    Implies,
    IntLit,
    IntT,
    Lambda,
    LType,
    Not,
    NormlogError,
    Or,
    Rule,
    RuleModule,
    StringLit,
    StrT,
    TupleT,
    Var,
    atom_parts,
    char_pred_name,
    free_vars,
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


@dataclass(frozen=True)
class FormulaSet:
    """A self-contained finite-model problem: sorts, their fixed
    carriers where applicable, symbol declarations (types normalized so
    only sorts appear), and named closed formulas."""

    sorts: tuple[str, ...]
    fixed: tuple[tuple[str, tuple[str, ...]], ...]
    char_true: tuple[str, ...]
    decls: tuple[FunDecl, ...]
    formulas: tuple[tuple[str, Expr], ...]

    def fixed_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.fixed)


def _rebuild(e: Expr, post: Callable[[Expr], Expr], memo: dict) -> Expr:
    """Rebuild `e` bottom-up, applying `post` to each inner node once
    its children are rebuilt; leaves are returned as they are.

    Each distinct node is visited once: `memo` maps `id(node)` to
    `(node, result)`, keeping the node alive so that its id is not
    reused, and may be shared by calls over formulas with common
    subterms.  A node none of whose children changed is passed to
    `post` itself, so the sharing of the input survives into the
    output.  The recursion spends one frame per tree level."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Not):
        arg = _rebuild(e.arg, post, memo)
        out = e if arg is e.arg else replace(e, arg=arg)
    elif isinstance(e, (And, Or, Implies, Eq, Cmp)):
        left = _rebuild(e.left, post, memo)
        right = _rebuild(e.right, post, memo)
        out = e if left is e.left and right is e.right else replace(e, left=left, right=right)
    elif isinstance(e, App):
        fn = _rebuild(e.fn, post, memo)
        arg = _rebuild(e.arg, post, memo)
        out = e if fn is e.fn and arg is e.arg else replace(e, fn=fn, arg=arg)
    elif isinstance(e, (Lambda, Forall, Exists)):
        body = _rebuild(e.body, post, memo)
        out = e if body is e.body else replace(e, body=body)
    elif isinstance(e, IfThenElse):
        cond = _rebuild(e.cond, post, memo)
        then = _rebuild(e.then, post, memo)
        other = _rebuild(e.other, post, memo)
        if cond is e.cond and then is e.then and other is e.other:
            out = e
        else:
            out = replace(e, cond=cond, then=then, other=other)
    elif isinstance(e, FieldAccess):
        obj = _rebuild(e.obj, post, memo)
        out = e if obj is e.obj else replace(e, obj=obj)
    else:
        return e
    out = post(out)
    memo[id(e)] = (e, out)
    return out


def _field_to_app(e: Expr) -> Expr:
    if isinstance(e, FieldAccess):
        return App(Var(e.fieldname), e.obj)
    return e


def rewrite_fields(e: Expr, memo: Optional[dict] = None) -> Expr:
    """Attribute access as application of the generated accessor.

    Visits each distinct node once and returns unchanged nodes
    themselves; `memo` may be shared between calls (see `_rebuild`)."""
    return _rebuild(e, _field_to_app, {} if memo is None else memo)


def guard_quantifiers(e: Expr, env: Env, memo: Optional[dict] = None) -> Expr:
    """Quantification over a proper subclass becomes quantification
    over its sort, guarded by the characteristic predicate.

    Visits each distinct node once and returns unchanged nodes
    themselves; `memo` may be shared between calls (see `_rebuild`)."""

    def guard(e: Expr) -> Expr:
        if not isinstance(e, (Forall, Exists)):
            return e
        t = e.var_type
        if not isinstance(t, ClassT) or t.name == ROOT_CLASS or is_sort(t.name, env.classes):
            return e
        sort = sort_of(t.name, env.classes)
        test = App(Var(char_pred_name(t.name)), Var(e.var))
        if isinstance(e, Forall):
            return Forall(e.var, ClassT(sort), Implies(test, e.body))
        return Exists(e.var, ClassT(sort), And(test, e.body))

    return _rebuild(e, guard, {} if memo is None else memo)


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

    # One memo per pass for the whole module: the transformed
    # preconditions share subterms across rules, and each distinct
    # node is then rewritten once.
    fields_memo: dict = {}
    guard_memo: dict = {}

    def translate(f: Expr) -> Expr:
        return guard_quantifiers(rewrite_fields(f, fields_memo), env, guard_memo)

    formulas: list[tuple[str, Expr]] = []
    for r in m.rules:
        if r.is_bodyless():
            continue
        formulas.append((f"rule {r.name}", translate(closed_rule_formula(r))))
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
            f = inversion_formula(body_rules, p, env)
            formulas.append((f"inversion {p}", translate(f)))

    return FormulaSet(sorts, tuple(fixed), char_true, decls, tuple(formulas))


# ---------------------------------------------------------------------------
# interpretations


@dataclass(frozen=True)
class Interpretation:
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
# compilation to three-valued closures


BOOLS = frozenset((False, True))

_MISSING = object()

_CMP_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

# An application whose argument values span more tuples than this is
# not checked against the table's cells at compile time; it keeps its
# check at run time.
_MAX_CHECKED_KEYS = 4096

NEVER = math.inf

_LEAVES = (Var, BoolLit, IntLit, StringLit, FloatLit)
_BINARY = (And, Or, Implies, Eq, Cmp)


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


class Compiled(NamedTuple):
    """A compiled formula or term.  `fn()` evaluates it against the
    tables as they stand; `safe` says that it never raises, whichever
    of its cells are set; `params` are the cells of the variables
    passed to `FormulaCompiler.compile`, which the caller fills.
    `false_from` is a rank k such that `fn()` cannot return False while
    the symbols ranked above k have no cells set, or NEVER."""

    fn: Callable[[], object]
    safe: bool
    params: tuple[list, ...]
    false_from: float


class _Node(NamedTuple):
    """A compiled node: its closure, the values it may return (None if
    not known), whether it is safe, its binder cell if it is a bound
    variable, and the ranks from which it may return True and False (a
    term: any definite value) while the symbols ranked above have no
    cells set."""

    fn: Callable[[], object]
    values: Optional[frozenset]
    safe: bool
    cell: Optional[list]
    true_from: float
    false_from: float

    @property
    def definite_from(self) -> float:
        return min(self.true_from, self.false_from)


def _bound(cell: list, values: Optional[frozenset]) -> _Node:
    return _Node(lambda: cell[0], values, True, cell, -1, -1)


def _fail(message: str) -> _Node:
    def fail():
        raise ModelError(message)

    return _Node(fail, None, False, None, -1, -1)


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

    A closure is three-valued: it returns None while a cell it reads is
    unset, and a definite value only if every completion of the tables
    gives that value (Kleene's strong connectives; a quantifier is
    definite once one instance decides it or all are definite).  When
    every cell it reads is set it returns what the tree-walking
    reference evaluator (tests/oracles.py) returns and raises the same
    ModelError, under the same short-circuiting: every check is made
    when its node is reached, so a branch never reached raises nothing.

    Checks that cannot fail are left out, which is what makes a closure
    `safe`: a symbol, arity and argument values that fit the symbol's
    cells, a quantifier domain, a supported node.  An application whose
    key may fall outside the cells keeps its check; an unset cell then
    reads as None and any other missing key raises.

    One compiler serves one search.  A closure is memoized by the
    identity of its node and the binders above it (variables and types,
    numbered as contexts), and a binder's cell is keyed by its variable
    and depth, so a subterm shared between rules compiles once.  The
    compilation spends one frame per tree level, and so does a call of
    its closure."""

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
        cells = tuple(scope[name].cell for name in params)
        return Compiled(node.fn, node.safe, cells, node.false_from)

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
            node = _bound(cell, None if t is None else frozenset(domain))
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
                return _fail(f"symbol '{e.name}' used without arguments")
            get = sym.table.get
            return _Node(lambda: get(()), sym.values, True, None, sym.rank, sym.rank)
        if isinstance(e, (BoolLit, IntLit)):
            value = e.value
            true_from = NEVER if value is False else -1
            false_from = NEVER if value is True else -1
            return _Node(lambda: value, frozenset((value,)), True, None, true_from, false_from)
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
            out = _negation(comp(e.arg, scope, context))
        elif kind in _BINARY:
            out = _binary(e, comp(e.left, scope, context), comp(e.right, scope, context))
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
                out = _quantifier(kind is Forall, values, var.cell, body)
        elif kind is IfThenElse:
            out = _conditional(
                comp(e.cond, scope, context),
                comp(e.then, scope, context),
                comp(e.other, scope, context),
            )
        else:
            out = _fail(f"cannot evaluate {kind.__name__} nodes")
        self._memo[memo_key] = (e, out)
        return out


def _negation(arg: _Node) -> _Node:
    a = arg.fn

    def not_():
        v = a()
        return None if v is None else not v

    return _Node(not_, BOOLS, arg.safe, None, arg.false_from, arg.true_from)


def _binary(e: Expr, ln: _Node, rn: _Node) -> _Node:
    """And, Or, Implies, Eq or Cmp over compiled operands."""
    left, right = ln.fn, rn.fn
    safe = ln.safe and rn.safe
    vals = _union(BOOLS, _union(ln.values, rn.values))
    kind = type(e)
    if kind is And:

        def fn():
            l = left()
            if l is None:
                r = right()
                return None if r is None or r else r
            return right() if l else l

        true_from = max(ln.true_from, rn.true_from)
        false_from = min(ln.false_from, rn.false_from)
    elif kind is Or:

        def fn():
            l = left()
            if l is None:
                r = right()
                return r if r else None
            return l if l else right()

        true_from = min(ln.true_from, rn.true_from)
        false_from = max(ln.false_from, rn.false_from)
    elif kind is Implies:

        def fn():
            l = left()
            if l is None:
                r = right()
                return r if r else None
            return right() if l else True

        true_from = min(ln.false_from, rn.true_from)
        false_from = max(ln.true_from, rn.false_from)
    else:
        op = operator.eq if kind is Eq else _CMP_OPS[e.op]
        if kind is Cmp:
            safe = safe and _orderable(ln.values, rn.values)

        def fn():
            l = left()
            r = right()
            return None if l is None or r is None else op(l, r)

        vals = BOOLS
        true_from = false_from = max(ln.definite_from, rn.definite_from)
    return _Node(fn, vals, safe, None, true_from, false_from)


def _conditional(cn: _Node, tn: _Node, on: _Node) -> _Node:
    cond, then, other = cn.fn, tn.fn, on.fn

    def ite():
        c = cond()
        if c is None:
            t = then()
            return t if t is not None and t == other() else None
        return then() if c else other()

    def branches(then_from: float, other_from: float) -> float:
        return min(
            max(cn.true_from, then_from),
            max(cn.false_from, other_from),
            max(then_from, other_from),
        )

    return _Node(
        ite,
        _union(tn.values, on.values),
        cn.safe and tn.safe and on.safe,
        None,
        branches(tn.true_from, on.true_from),
        branches(tn.false_from, on.false_from),
    )


def _application(head: str, sym: Symbol, args: list[_Node], fits: dict) -> _Node:
    """The node of `head` applied to compiled `args`: unchecked when
    every key the arguments can form is a cell of `sym`, else checked.
    `fits` memoizes that test by symbol and argument values."""
    get = sym.table.get
    fns = []
    cells = []
    values = []
    definite_from = sym.rank
    for a in args:
        fns.append(a.fn)
        cells.append(a.cell)
        values.append(a.values if a.safe else None)
        definite_from = max(definite_from, a.definite_from)
    fns = tuple(fns)
    key = (head, *values)
    safe = fits.get(key)
    if safe is None:
        safe = fits[key] = None not in values and _fits(sym.cells, values)
    if not safe:
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

        return _Node(checked, sym.values, False, None, definite_from, definite_from)
    # An unset argument makes a key with None, which no table holds.
    if len(args) == 1:
        (c,) = cells
        (a,) = fns
        fn = (lambda: get((c[0],))) if c is not None else (lambda: get((a(),)))
    elif len(args) == 2 and None not in cells:
        c0, c1 = cells
        fn = lambda: get((c0[0], c1[0]))
    elif None not in cells:
        fn = lambda: get(tuple(map(_first, cells)))
    else:
        fn = lambda: get(tuple([a() for a in fns]))
    return _Node(fn, sym.values, True, None, definite_from, definite_from)


_first = operator.itemgetter(0)


def _fits(cells: frozenset, values: list[frozenset]) -> bool:
    """Whether every key formed from `values` is one of `cells`."""
    if math.prod(map(len, values)) > _MAX_CHECKED_KEYS:
        return False
    return all(k in cells for k in itertools.product(*values))


def _quantifier(forall: bool, values: tuple, cell: list, body_node: _Node) -> _Node:
    body = body_node.fn
    if forall:

        def fn():
            unknown = False
            for v in values:
                cell[0] = v
                r = body()
                if not r:
                    if r is None:
                        unknown = True
                    else:
                        return False
            return None if unknown else True

    else:

        def fn():
            unknown = False
            for v in values:
                cell[0] = v
                r = body()
                if r:
                    return True
                if r is None:
                    unknown = True
            return None if unknown else False

    return _Node(fn, BOOLS, body_node.safe, None, body_node.true_from, body_node.false_from)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_models(
    fs: FormulaSet,
    sizes: dict[str, int],
    ints: Sequence[int] = (),
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[Interpretation]:
    """All interpretations of the formula set, in a deterministic
    order.  Sorts take their size from `sizes` (or their fixed carrier);
    Integer ranges over `ints` exactly.  Raises ResourceCapError when
    the number of cell assignments exceeds the budget."""
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
            symbols[d.name] = Symbol({}, frozenset(cells), frozenset(values), len(free))
            free.append((d.name, cells, values))
            continue
        pinned.append(d.name)
        symbols[d.name] = Symbol(table, frozenset(table), frozenset(table.values()))

    # A formula is staged at the last free symbol it mentions: it is
    # evaluated once that symbol's last cell is set, in formula order.
    # A safe formula is also evaluated after each cell of every free
    # symbol it mentions, and prunes as soon as it is false; it is left
    # out where it cannot be false yet (`false_from`).  A formula that
    # may raise is evaluated at its stage only, and no formula after it
    # in stage order prunes before that stage is complete, so an error
    # is raised at the same assignment as by a search of whole tables.
    compiler = FormulaCompiler(symbols, carriers, int_values)
    index = {name: k for k, (name, _, _) in enumerate(free)}
    names_memo: dict = {}
    staged: list[tuple[int, set[int], Compiled]] = []
    for _, expr in fs.formulas:
        refs = {index[n] for n in free_vars(expr, names_memo) if n in index}
        staged.append((max(refs, default=-1), refs, compiler.compile(expr)))
    prune_after: list[int] = [0] * len(staged)
    last_unsafe = -2
    for i in sorted(range(len(staged)), key=lambda i: staged[i][0]):
        prune_after[i] = last_unsafe
        if not staged[i][2].safe:
            last_unsafe = staged[i][0]

    flat: list[tuple[dict, tuple, tuple, list]] = []
    for k, (name, cells, values) in enumerate(free):
        early = [
            (stage, c.fn)
            for (stage, refs, c), after in zip(staged, prune_after)
            if c.safe and k in refs and after < k and c.false_from <= k
        ]
        complete = [
            c.fn for stage, _, c in staged if stage == k and (not c.safe or c.false_from <= k)
        ] + [fn for stage, fn in early if stage != k]
        early_fns = [fn for _, fn in early]
        table = symbols[name].table
        for i, cell in enumerate(cells):
            flat.append((table, cell, values, complete if i == len(cells) - 1 else early_fns))

    names = pinned + [name for name, _, _ in free]

    def model() -> Interpretation:
        return Interpretation(
            carriers=dict(carriers),
            ints=int_values,
            tables={n: dict(symbols[n].table) for n in names},
        )

    for stage, _, c in staged:
        if stage == -1 and not c.fn():
            return
    if not flat:
        yield model()
        return

    # Depth-first over the cells in order, values in codomain order, so
    # the models come out in the order itertools.product gives whole
    # tables.  Cells are inserted in order and deleted on backtracking,
    # so every table keeps its cells in order.
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
            r = check()
            if not r and r is not None:
                break
        else:
            if d == last:
                yield model()
            else:
                d += 1


# ---------------------------------------------------------------------------
# assertion checking


@dataclass(frozen=True)
class CheckOutcome:
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
    byname = {a.name: a for a in m.assertions}
    if name not in byname:
        raise ModelError(f"no assertion named '{name}'")
    a = byname[name]
    adjusted = adjusted_rules(m, a)
    fs = rules_to_formulas(adjusted, include_inversions)
    env = Env.from_module(adjusted)
    goal = guard_quantifiers(rewrite_fields(a.formula), env)

    if a.mode == VALID:
        probe = fs.formulas + ((f"assertion {name} (negated)", Not(goal)),)
    else:
        probe = fs.formulas + ((f"assertion {name}", goal),)
    probe_fs = replace(fs, formulas=probe)

    found: Optional[Interpretation] = None
    for model in enumerate_models(probe_fs, sizes, ints, node_budget):
        found = model
        break

    if a.mode == VALID:
        status = "counter_model" if found is not None else "valid"
    else:
        status = "satisfiable" if found is not None else "unsatisfiable"
    return CheckOutcome(name, a.mode, status, found)
