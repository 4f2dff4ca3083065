"""Compilation of formulas to closures for the finite-model search.

Every formula of a search is compiled once (`FormulaCompiler`) into a
closure of no arguments that reads unset cells as unknown and says
whether the formula is definitely false, false under every completion
of the tables; each subterm is asked only the direction its parent acts
on.  The walk that builds a node builds the closure its parent asks for
as it leaves it, and records the free symbols the node reads, which give
a formula its watch set and stage in the search (models.py).

&&, ||, forall and exists compile to one node kind, a gate (`_gate`):
the && or || of its operands, asked left to right up to the first that
decides it, perhaps once per entry of a value list with binder cells set
to that entry.  A quantifier is a gate over its one body, asked at every
value of its domain.

Some equations are decided while compiling.  A pinned constant symbol
(a rule name) is a literal.  A `forall v` over the integers, the
Booleans or a fixed carrier whose body, perhaps under more `forall`s, is
`h --> d1 || ... || dn`, with every di a && chain holding `v == c` for a
constant c of v's domain, and which is safe, is unrolled: a gate, the
&& of one instance per value c, `h --> ` the di pinned to c without that
equation (`not h` if there is none), asked with v's cell set to c.
Inner binders that every di pins too are unrolled with it.  This is the
shape of an inversion formula of a predicate whose rules conclude
constants (the Clark completion's equations), and each instance reads
only the preconditions of its own value.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Collection, NamedTuple, Optional, Sequence

from .syntax import (
    CMP_OPS,
    TRUE,
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
    Forall,
    IfThenElse,
    Implies,
    IntLit,
    IntT,
    LType,
    Not,
    NormlogError,
    Or,
    StringLit,
    Var,
    atom_parts,
    free_vars,
    spine,
)


class ModelError(NormlogError):
    """A formula cannot be evaluated over the given carriers and values,
    or a problem cannot be set up over them."""


BOOLS = frozenset((False, True))

_MISSING = object()

# An application whose argument values span more tuples than this is
# not checked against the table's cells at compile time; it keeps its
# check at run time.
_MAX_CHECKED_KEYS = 4096

NEVER = math.inf

_LEAVES = frozenset((Var, BoolLit, IntLit, StringLit, FloatLit))

# What a parent asks of a compiled node: its three-valued value, or
# whether it is False (True) under every completion of the tables.
# Each names the `_Node` slot that keeps the closure, and the
# `Compiled` property that returns it.
_VALUE, _IS_FALSE, _IS_TRUE = "value", "is_false", "is_true"
# What `not` and the premise of `-->` ask of their operand when they are
# asked `want`; a value is read from the two directions of the node
# itself, so it asks nothing of its operands while compiling.
_OTHER = {_IS_FALSE: _IS_TRUE, _IS_TRUE: _IS_FALSE, _VALUE: None, None: None}
_SAME = {_IS_FALSE: _IS_FALSE, _IS_TRUE: _IS_TRUE, _VALUE: None, None: None}


class Symbol(NamedTuple):
    """What compiled closures know of one symbol.  `table` maps each
    cell assigned so far to its value and is read in place at every
    call; `cells` holds every cell it may hold and `values` every value
    it may take (None when not known).  `rank` is the symbol's place in
    the order the search assigns tables, -1 for a complete table.
    `pinned` says that the table is complete and fixed for the life of
    the compiler, so a constant's value is read when compiling."""

    table: dict
    cells: frozenset
    values: Optional[frozenset]
    rank: int = -1
    pinned: bool = False

    @property
    def bit(self) -> int:
        """The symbol's bit in a `_Node.refs` mask, 0 for a complete table."""
        return 1 << self.rank if self.rank >= 0 else 0


class _Node:
    """A compiled node: a leaf, `not`, `-->`, `=` or a comparison, `if`,
    an application, or a gate (&&, ||, a quantifier or an unrolled
    one).  `closure(want)` returns its closure of no arguments for
    `want`, made by `build(node, want)` from `parts` on the first
    request and kept in the slot `want` names, None until then: `value`
    holds its three-valued value, `is_false` (`is_true`) whether it is
    False (True) under every completion of the tables.
    A bound variable's `parts` say whether its domain may hold a
    constant, so that a `forall` binding it may be unrolled.
    Also: the values it may return (None if not known), whether it is
    safe, its binder cell if it is a bound variable, and the ranks from
    which it may be True and False (a term: any definite value) while
    the symbols ranked above have no cells set.  `refs` has bit k set if
    it reads the symbol ranked k; a node that fails to compile reads its
    expression's free symbols."""

    __slots__ = (
        "build", "parts", "values", "safe", "cell", "true_from", "false_from", "refs",
        _VALUE, _IS_FALSE, _IS_TRUE,
    )

    def __init__(self, build, parts, values, safe, cell, true_from, false_from, refs) -> None:
        self.build = build
        self.parts = parts
        self.values: Optional[frozenset] = values
        self.safe: bool = safe
        self.cell: Optional[list] = cell
        self.true_from: float = true_from
        self.false_from: float = false_from
        self.refs: int = refs
        self.value = self.is_false = self.is_true = None

    def closure(self, want: str) -> Callable[[], object]:
        fn = getattr(self, want)
        if fn is None:
            fn = self.build(self, want)
            setattr(self, want, fn)
        return fn


class Compiled(NamedTuple):
    """A compiled formula or term.  `is_false()` says whether it is
    False under every completion of the tables as they stand, and
    `is_true()` whether it is True under every one; `value()` gives its
    three-valued value.  The closure `FormulaCompiler.compile` was asked
    for is built with the node, the others when first looked up.
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


def _with_bools(nodes: Sequence[_Node]) -> Optional[frozenset]:
    """BOOLS joined with the values of `nodes`; no new set is made for
    the nodes whose values are BOOLS itself."""
    values: Optional[frozenset] = BOOLS
    for x in nodes:
        if x.values is not BOOLS:
            values = _union(values, x.values)
    return values


def _orderable(a: Optional[frozenset], b: Optional[frozenset]) -> bool:
    """Whether `<` between any value of `a` and any of `b` cannot raise."""
    if a is None or b is None:
        return False
    both = a | b
    return all(isinstance(v, int) for v in both) or all(isinstance(v, str) for v in both)


class FormulaCompiler:
    """Compiles expressions over one vocabulary of symbols into closures
    of no arguments, for the fixed `carriers` and `ints`.

    A node is compiled into the closures its parents ask for (`Compiled`,
    `_Node.closure`).  The search only acts on False, so a formula is
    asked whether it is definitely False (`is_false`), which is True
    only if every completion of the tables makes it False; `is_true` is
    the dual.  A connective asks its operands the directions that decide
    it.  &&, ||, forall and exists are gates (`_gate`): && is false once
    an operand is false, left to right, and true when all are true; ||
    is the dual; a quantifier is the && (forall) or || (exists) of its
    body at each value of its domain, set in its binder's cell, and
    stops at the first that decides it.  `a --> b` is false when `a` is
    true and `b` false, and true when `a` is false or `b` true; `not`
    hands over the other direction of its operand and adds no closure.
    A value is read, three-valued (None while a cell it reads is unset,
    Kleene's strong connectives), only by `=`, comparisons, the
    condition of `if` and application arguments other than bound
    variables, whose cells are read directly.

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
    and depth, so a subterm shared between rules compiles once; a leaf
    naming the symbol or literal of one compiled before, and a node of
    the same kind over the same operand nodes, a comparison aside, is
    that node (`_shared`).  Each node records the ranked symbols it
    reads (`_Node.refs`) when built, and `compared` lists the values
    each ordering comparison compiled may read (None if not known).

    A pinned constant symbol compiles as a literal, and an application
    reads bound variables' cells and literal arguments directly.  A node
    whose values exclude False (True) is never False (True): its
    `false_from` (`true_from`) is NEVER, so a formula over a predicate
    that is True everywhere, as a sort's characteristic predicate is,
    is neither staged nor watched.  A `forall` is unrolled (`_unrolled`)
    only if its domain is fixed (integers, Booleans, or a carrier of
    pinned constants), every disjunct of its body pins its variable to a
    constant of that domain, and the body is safe; otherwise it compiles
    as a quantifier.  It is a gate over one instance per value, each
    asked with the variable's cell set to its value.  The instances are
    built from the nodes of the body's head and conjuncts, in the
    contexts the body's walk gives them, so no expression is rebuilt;
    `safe` and `refs` are those of the body, and the three-valued result
    is the quantifier's at every partial assignment.  Its `false_from`
    is the least of its instances', which is tighter when an instance
    leaves out a disjunct.

    The compile walk builds each node's closure for the direction its
    parent asks as it leaves the node, so `compile(e, want=...)` returns
    with every closure that one needs, and spends one frame per tree
    level.  A closure looked up later is built then, two frames per
    level of what is not built yet.  A call of `is_false` or `is_true`
    spends one frame per level of the tree, none per `not`, and one per
    chain of && or || of any length."""

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
        self._fits: dict[tuple, bool] = {}
        self._shared: dict[tuple, _Node] = {}
        # (outer context, variable, type) -> see _binder; context 0 has
        # no binders, and _depth gives each context's count
        self._binders: dict[tuple, object] = {}
        self._depth: list[int] = [0]
        self.compared: list[Optional[frozenset]] = []

    def compile(
        self, e: Expr, params: Sequence[tuple[str, LType]] = (), want: Optional[str] = None
    ) -> Compiled:
        """Compile `e`, whose free variables among `params`, (name, type)
        pairs, are bound to cells returned in `params` order, to be
        filled with values of their types; all other names are symbols.
        The closure `want` names ("is_false", "is_true" or "value") is
        built by the same walk; any other when first looked up."""
        scope: dict[str, _Node] = {}
        context = 0
        for name, t in params:
            binder = self._binder(context, name, t)
            if isinstance(binder, str):
                raise ModelError(binder)
            context, scope[name], _ = binder
        node = self._comp(e, scope, context, want)
        return Compiled(node, tuple(scope[name].cell for name, _ in params))

    def _binder(self, outer: int, var: str, t: LType):
        """For a binder of `var` of type `t` in context `outer`: the
        context inside it, the node of its variable and its domain; or
        the message of the ModelError for a type without a domain."""
        key = (outer, var, t)
        hit = self._binders.get(key)
        if hit is None:
            try:
                domain = self._domain(t)
            except ModelError as err:
                hit = self._binders[key] = str(err)
                return hit
            depth = self._depth[outer]
            cell = self._cells.get((var, depth))
            if cell is None:
                cell = self._cells[(var, depth)] = [None]
            pinnable = not isinstance(t, ClassT) or self._pinnable(domain)
            node = _Node(_variable, pinnable, frozenset(domain), True, cell, -1, -1, 0)
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
            if sym.pinned:
                return _literal_node(sym.table[()])
            true_from, false_from = _definite_ranks(sym.values, sym.rank, sym.rank)
            return _Node(_constant_symbol, sym.table.get, sym.values, True, None, true_from, false_from, sym.bit)
        if isinstance(e, (BoolLit, IntLit)):
            return _literal_node(e.value)
        return _fail(f"{type(e).__name__} values are not supported by the enumerator")


    def _comp(self, e: Expr, scope: dict[str, _Node], context: int, want: Optional[str]) -> _Node:
        """The node of `e`, with its closure for `want` built unless
        `want` is None; its operands are compiled for what that closure
        asks of them."""
        kind = type(e)
        if kind in _LEAVES:
            if kind is Var and e.name in scope:
                node = scope[e.name]
            else:
                leaf_key = (kind, e.name if kind is Var else e.value)
                node = self._shared.get(leaf_key)
                if node is None:
                    node = self._shared[leaf_key] = self._leaf(e)
            if want is not None:
                node.closure(want)
            return node

        memo_key = (id(e), context)
        hit = self._memo.get(memo_key)
        if hit is not None:
            if want is not None:
                hit[1].closure(want)
            return hit[1]
        # A node of the same kind over the same operand nodes as one
        # compiled before is that node (`_shared`), but for comparisons,
        # each of which is recorded in `compared`.
        shared = self._shared
        if kind is App:
            fn = e.fn
            if type(fn) is Var:
                head, args = fn.name, (e.arg,)
            else:
                head, args = atom_parts(e) or (None, ())
            if head is None:
                out = self._failing(e, scope, "cannot evaluate application of a non-symbol")
            elif head in scope:
                out = self._failing(e, scope, f"cannot apply bound variable '{head}'")
            elif head not in self.symbols:
                out = self._failing(e, scope, f"no interpretation for symbol '{head}'")
            else:
                # A bound variable is read from its cell, other
                # arguments as values.
                ask = None if want is None else _VALUE
                nodes = []
                for a in args:
                    if type(a) is Var and a.name in scope:
                        nodes.append(scope[a.name])
                    else:
                        nodes.append(self._comp(a, scope, context, ask))
                key = (head, *nodes)
                out = shared.get(key) or shared.setdefault(
                    key, _application(head, self.symbols[head], nodes, self._fits)
                )
        elif kind is Not:
            arg = self._comp(e.arg, scope, context, _OTHER[want])
            key = (kind, arg)
            out = shared.get(key) or shared.setdefault(key, _negation_node(arg))
        elif kind is And or kind is Or:
            left, right, ask = e.left, e.right, _SAME[want]
            # A chain of any length, however bracketed, is one node:
            # && and || evaluate operands left to right under any
            # bracketing.
            if type(left) is kind or type(right) is kind:
                operands = [self._comp(x, scope, context, ask) for x in spine(e, kind)]
            else:
                operands = [self._comp(left, scope, context, ask), self._comp(right, scope, context, ask)]
            key = (kind, *operands)
            out = shared.get(key) or shared.setdefault(key, _gate(kind is And, operands))
        elif kind is Implies:
            ln = self._comp(e.left, scope, context, _OTHER[want])
            rn = self._comp(e.right, scope, context, _SAME[want])
            key = (kind, ln, rn)
            out = shared.get(key) or shared.setdefault(key, _implication_node(ln, rn))
        elif kind is Eq or kind is Cmp:
            ask = None if want is None else _VALUE
            ln, rn = self._comp(e.left, scope, context, ask), self._comp(e.right, scope, context, ask)
            safe = ln.safe and rn.safe and (kind is Eq or _orderable(ln.values, rn.values))
            if kind is Eq:
                op = operator.eq
            else:
                op = CMP_OPS[e.op]
                self.compared.append(_union(ln.values, rn.values))
            definite_from = max(min(ln.true_from, ln.false_from), min(rn.true_from, rn.false_from))
            refs = ln.refs | rn.refs
            out = _Node(_comparison, (op, ln, rn), BOOLS, safe, None, definite_from, definite_from, refs)
        elif kind is Forall or kind is Exists:
            binder = self._binder(context, e.var, e.var_type)
            if isinstance(binder, str):
                out = self._failing(e, scope, binder)
            else:
                inner, var, values = binder
                inner_scope = {**scope, e.var: var}
                out = None
                if kind is Forall and var.parts:
                    out = self._unrolled(e, var, values, inner_scope, inner, want)
                if out is None:
                    body = self._comp(e.body, inner_scope, inner, _SAME[want])
                    key = (kind, var, body)
                    out = shared.get(key) or shared.setdefault(
                        key, _gate(kind is Forall, [body], (var.cell,), values)
                    )
        elif kind is IfThenElse:
            out = _conditional(
                self._comp(e.cond, scope, context, None if want is None else _VALUE),
                self._comp(e.then, scope, context, want),
                self._comp(e.other, scope, context, want),
            )
        else:
            out = self._failing(e, scope, f"cannot evaluate {kind.__name__} nodes")
        if want is not None and getattr(out, want) is None:
            setattr(out, want, out.build(out, want))
        self._memo[memo_key] = (e, out)
        return out

    def _pinnable(self, carrier: tuple) -> bool:
        """Whether some element of `carrier` names a pinned constant
        symbol whose value it is, as the elements of a fixed carrier do."""
        for x in carrier:
            sym = self.symbols.get(x)
            if sym is not None and sym.pinned and sym.table.get(()) == x:
                return True
        return False

    def _unrolled(
        self, e: Forall, var: _Node, values: tuple, scope: dict[str, _Node], context: int, want: Optional[str]
    ) -> Optional[_Node]:
        """The node of `e`, `forall v. (forall ...) h --> d1 || ... || dn`,
        with `v` and each inner binder whose variable every di also pins
        (`_pin`) unrolled: the binders left are quantifiers, outermost
        first, over the && of one instance per tuple of the pinned
        variables' values, in the order of their nested loops.  Instance
        t sets the pinned variables' cells to t and is `h --> ` the || of
        the di pinned to t, their equations dropped, or `not h` if none
        is.  None if some di does not pin `v`, or if the body is not safe:
        its safe and refs are those of h and the conjuncts of the di
        together, since its connectives and binders add none (a binder
        without a domain adds a failing node) and an equation `v == c` is
        safe and reads no symbol."""
        binders = []
        body = e.body
        while type(body) is Forall:
            binders.append(body)
            body = body.body
        if type(body) is not Implies:
            return None
        right = body.right
        disjuncts = [
            spine(d, And) if type(d) is And else [d] for d in (spine(right, Or) if type(right) is Or else [right])
        ]
        pins: list[list] = [[] for _ in disjuncts]
        if not self._pin(e.var, var, scope, binders, disjuncts, pins):
            return None
        pinned = [(var, values)]
        kept = []
        for i, b in enumerate(binders):
            binder = self._binder(context, b.var, b.var_type)
            if isinstance(binder, str):
                return None
            context, bvar, bvalues = binder
            scope = {**scope, b.var: bvar}
            if bvar.parts and self._pin(b.var, bvar, scope, binders[i + 1 :], disjuncts, pins):
                pinned.append((bvar, bvalues))
            else:
                kept.append((bvar, bvalues))

        groups: dict[tuple, list] = {}
        for conjuncts, pin in zip(disjuncts, pins):
            key = tuple(pin)
            group = groups.get(key)
            if group is None:
                groups[key] = [conjuncts]
            else:
                group.append(conjuncts)
        ask = _SAME[want]
        shared = self._shared
        head = self._comp(body.left, scope, context, _OTHER[ask])
        for key, group in groups.items():
            groups[key] = self._instance(scope, context, head, group, ask)
        combos = list(itertools.product(*[vs for _, vs in pinned]))
        if len(groups) < len(combos):
            # the instance of the values no disjunct is pinned to
            key = (Not, head)
            negated = shared.get(key) or shared.setdefault(key, _negation_node(head))
            instances = [groups.get(combo, negated) for combo in combos]
        else:
            instances = [groups[combo] for combo in combos]
        cells = tuple([v.cell for v, _ in pinned])
        out = _gate(True, instances, cells, pinned[0][1] if len(cells) == 1 else combos)
        for bvar, bvalues in reversed(kept):
            if ask is not None:
                out.closure(ask)
            key = (Forall, bvar, out)
            out = shared.get(key) or shared.setdefault(key, _gate(True, [out], (bvar.cell,), bvalues))
        return out if out.safe else None

    def _pin(
        self,
        name: str,
        var: _Node,
        scope: dict[str, _Node],
        inner: list,
        disjuncts: list[list[Expr]],
        pins: list[list],
    ) -> bool:
        """Whether every list of `disjuncts` holds `name == c` (or `c ==
        name`) with c an integer or Boolean literal or a pinned constant
        symbol, not bound in `scope` or by one of the binders `inner`,
        whose value is one of `var`'s, and no binder of `inner` binds
        `name`.  If so the last such equation is dropped from each list
        (rule conclusions put their equations last) and the value of its
        c appended to that list's `pins`."""
        bound = {b.var for b in inner} if inner else ()
        if name in bound:
            return False
        # a domain holds integers, Booleans or elements, of one type
        domain = var.values
        kind = type(next(iter(domain)))
        found = []
        for conjuncts in disjuncts:
            i = len(conjuncts)
            while i:
                i -= 1
                c = conjuncts[i]
                if type(c) is not Eq:
                    continue
                left, right = c.left, c.right
                if type(left) is Var and left.name == name:
                    value = self._constant_of(right, scope, bound)
                elif type(right) is Var and right.name == name:
                    value = self._constant_of(left, scope, bound)
                else:
                    continue
                if value is not _MISSING:
                    break
            else:
                return False
            if type(value) is not kind or value not in domain:
                return False
            found.append((i, value))
        for conjuncts, pin, (i, value) in zip(disjuncts, pins, found):
            del conjuncts[i]
            pin.append(value)
        return True

    def _constant_of(self, e: Expr, scope: dict[str, _Node], bound: Collection[str]):
        """The value of `e` if it is an integer or Boolean literal or a
        pinned constant symbol not bound in `scope` or `bound`, else
        _MISSING."""
        kind = type(e)
        if kind is IntLit or kind is BoolLit:
            return e.value
        if kind is Var and e.name not in scope and e.name not in bound:
            sym = self.symbols.get(e.name)
            if sym is not None and sym.pinned and () in sym.table:
                return sym.table[()]
        return _MISSING

    def _instance(
        self, scope: dict[str, _Node], context: int, head: _Node, disjuncts: list[list[Expr]], want: Optional[str]
    ) -> _Node:
        """The node of `head --> d1 || ... || dk`, each di the && of one
        list of `disjuncts` (true if it is empty), compiled in `context`
        with its closure for `want` built unless `want` is None."""
        shared = self._shared
        options = []
        for conjuncts in disjuncts:
            operands = [self._comp(c, scope, context, want) for c in conjuncts]
            if len(operands) == 1:
                options.append(operands[0])
            elif not operands:
                options.append(self._comp(TRUE, scope, context, want))
            else:
                key = (And, *operands)
                options.append(shared.get(key) or shared.setdefault(key, _gate(True, operands)))
        if len(options) == 1:
            rn = options[0]
        else:
            key = (Or, *options)
            rn = shared.get(key) or shared.setdefault(key, _gate(False, options))
        key = (Implies, head, rn)
        out = shared.get(key) or shared.setdefault(key, _implication_node(head, rn))
        if want is not None:
            out.closure(want)
        return out

    def _failing(self, e: Expr, scope: dict[str, _Node], message: str) -> _Node:
        """The node of `e` that raises `message`.  It stands for every
        free symbol `e` names, so that a formula that may raise keeps
        the stage free_vars gives it."""
        refs = 0
        for n in free_vars(e).difference(scope):
            refs |= self.symbols[n].bit if n in self.symbols else 0
        return _fail(message, refs)


# Closure builders: `build(node, want)` of each node kind.


def _definite_ranks(values: Optional[frozenset], true_from: float, false_from: float) -> tuple[float, float]:
    """`true_from` and `false_from` of a node whose values are `values`:
    NEVER for True (False) if they are Booleans without it."""
    if values is not None and values is not BOOLS and all([type(v) is bool for v in values]):
        if True not in values:
            true_from = NEVER
        if False not in values:
            false_from = NEVER
    return true_from, false_from


def _kleene(node: _Node) -> Callable[[], object]:
    """The value of a Boolean connective, read from its two directions."""
    false, true = node.closure(_IS_FALSE), node.closure(_IS_TRUE)
    return lambda: False if false() else True if true() else None


def _decided(fn: Callable[[], object], want: str) -> Callable[[], object]:
    """The closure for `want` of a node whose value closure is `fn`."""
    if want == _VALUE:
        return fn
    expect = want == _IS_TRUE
    return lambda: fn() is expect


def _raise(node: _Node, want: str) -> Callable[[], object]:
    message = node.parts

    def fail():
        raise ModelError(message)

    return fail


def _fail(message: str, refs: int = 0) -> _Node:
    return _Node(_raise, message, None, False, None, -1, -1, refs)


def _literal_node(value) -> _Node:
    true_from = NEVER if value is False else -1
    false_from = NEVER if value is True else -1
    return _Node(_literal, value, frozenset((value,)), True, None, true_from, false_from, 0)


def _literal(node: _Node, want: str) -> Callable[[], object]:
    value = node.parts if want == _VALUE else node.parts is (want == _IS_TRUE)
    return lambda: value


def _constant_symbol(node: _Node, want: str) -> Callable[[], object]:
    get = node.parts
    if want == _VALUE:
        return lambda: get(())
    expect = want == _IS_TRUE
    return lambda: get(()) is expect


def _variable(node: _Node, want: str) -> Callable[[], object]:
    cell = node.cell
    if want == _VALUE:
        return lambda: cell[0]
    expect = want == _IS_TRUE
    return lambda: cell[0] is expect


def _negation_node(arg: _Node) -> _Node:
    return _Node(_negation, arg, BOOLS, arg.safe, None, arg.false_from, arg.true_from, arg.refs)


def _negation(node: _Node, want: str) -> Callable[[], object]:
    if want == _VALUE:
        return _kleene(node)
    return node.parts.closure(_OTHER[want])


def _gate(conjunction: bool, operands: list[_Node], cells: tuple = (), entries: Sequence = ()) -> _Node:
    """A gate: the && (`conjunction`) or || of `operands`, asked left to
    right.  With binder `cells` it is asked once per entry of `entries`,
    in order, with the cells set to that entry (a value for one cell, a
    tuple of values for several): a single operand is asked at every
    entry, as a quantifier's body is, and otherwise the operand at the
    entry's place, as an unrolled quantifier's instances are."""
    # && is true once all operands may be, false once one may be
    x = operands[0]
    safe, true_from, false_from, refs = x.safe, x.true_from, x.false_from, x.refs
    for x in operands[1:]:
        safe = safe and x.safe
        if (x.true_from > true_from) is conjunction:
            true_from = x.true_from
        if (x.false_from < false_from) is conjunction:
            false_from = x.false_from
        refs |= x.refs
    values = BOOLS if cells else _with_bools(operands)
    return _Node(_gate_closure, (conjunction, operands, cells, entries), values, safe, None, true_from, false_from, refs)


def _gate_closure(node: _Node, want: str) -> Callable[[], object]:
    conjunction, operands, cells, entries = node.parts
    if want == _VALUE:
        return _kleene(node)
    # && is false, || true, as soon as one operand is
    stop = (want == _IS_FALSE) == conjunction
    if len(operands) == 1 and len(cells) == 1:
        # a quantifier: its body at every entry
        fn = operands[0].closure(want)
        cell = cells[0]
        if stop:

            def some_entry():
                for v in entries:
                    cell[0] = v
                    if fn():
                        return True
                return False

            return some_entry

        def every_entry():
            for v in entries:
                cell[0] = v
                if not fn():
                    return False
            return True

        return every_entry
    fns = [x.closure(want) for x in operands]
    if not cells:
        if len(fns) == 2:
            a, b = fns
            if stop:
                return lambda: a() or b()
            return lambda: a() and b()
        if stop:

            def some():
                for f in fns:
                    if f():
                        return True
                return False

            return some

        def every():
            for f in fns:
                if not f():
                    return False
            return True

        return every
    # one operand per entry
    if len(cells) == 1:
        cell = cells[0]
        pairs = tuple(zip(entries, fns))

        def one():
            for v, fn in pairs:
                cell[0] = v
                if fn() is stop:
                    return stop
            return not stop

        return one
    pairs = tuple(zip([tuple(zip(cells, entry)) for entry in entries], fns))

    def each():
        for assignment, fn in pairs:
            for c, v in assignment:
                c[0] = v
            if fn() is stop:
                return stop
        return not stop

    return each


def _implication_node(ln: _Node, rn: _Node) -> _Node:
    return _Node(
        _implication,
        (ln, rn),
        _with_bools((ln, rn)),
        ln.safe and rn.safe,
        None,
        min(ln.false_from, rn.true_from),
        max(ln.true_from, rn.false_from),
        ln.refs | rn.refs,
    )


def _implication(node: _Node, want: str) -> Callable[[], object]:
    left, right = node.parts
    if want == _VALUE:
        return _kleene(node)
    a, b = left.closure(_OTHER[want]), right.closure(want)
    if want == _IS_FALSE:
        return lambda: a() and b()
    return lambda: a() or b()


def _comparison(node: _Node, want: str) -> Callable[[], object]:
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


def _conditional_closure(node: _Node, want: str) -> Callable[[], object]:
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
        # the rank from which the argument has a definite value
        a_from = a.true_from if a.true_from < a.false_from else a.false_from
        if a_from > definite_from:
            definite_from = a_from
        refs |= a.refs
    key = (head, *values)
    safe = fits.get(key)
    if safe is None:
        safe = fits[key] = None not in values and _fits(sym.cells, values)
    if sym.values is BOOLS:
        true_from = false_from = definite_from
    else:
        true_from, false_from = _definite_ranks(sym.values, definite_from, definite_from)
    return _Node(_application_closure, (head, sym, args), sym.values, safe, None, true_from, false_from, refs)


def _application_closure(node: _Node, want: str) -> Callable[[], object]:
    head, sym, args = node.parts
    get = sym.table.get
    if not node.safe:
        fns = [a.closure(_VALUE) for a in args]
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
    # key of bound variables' cells and literals, or of one argument, is
    # read here, a literal from a one-element tuple of its own; only the
    # other arguments need their value closures.
    cells = [a.cell for a in args]
    if None in cells:
        cells = [(a.parts,) if a.build is _literal else c for a, c in zip(args, cells)]
    expect = want == _IS_TRUE
    if len(args) == 1:
        (c,) = cells
        if c is None:
            a = args[0].closure(_VALUE)
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
    fns = [a.closure(_VALUE) for a in args]
    return _decided(lambda: get(tuple([a() for a in fns])), want)


_first = operator.itemgetter(0)


def _fits(cells: frozenset, values: list[frozenset]) -> bool:
    """Whether every key formed from `values` is one of `cells`."""
    if math.prod(map(len, values)) > _MAX_CHECKED_KEYS:
        return False
    return all(k in cells for k in itertools.product(*values))
