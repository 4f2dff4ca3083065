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
order, because the first model found is the countermodel it reports,
and prunes every partial model that a renaming of a sort's elements
makes smaller in that order (symmetry.py): the first model is the least
of all, so no renaming prunes it.  The correspondence check enumerates
every model, and searches the predicates that rules conclude last, so
that the class predicates their rules read constrain them first
(correspond.py).

Every formula is compiled once per search (`FormulaCompiler`,
closures.py) into a closure that reads unset cells as unknown and says
whether the formula is definitely false, false under every completion
of the tables.  One walk per formula builds the closures its subterms
are asked for and records, as bits, the free symbols each node reads;
staging reads each formula's watch set and stage from those bits, in
formula order, and files it under each symbol it watches.  After each
cell every formula mentioning its symbol that can already be false is
asked, and the search backtracks as soon as one is false; a formula is
also staged at the last symbol it mentions, where its cells are all
set.  A formula that may raise a ModelError takes part only at its
stage, so errors are raised where a whole-table search raises them.
The budget counts the cell assignments of the search that runs, so it
depends on the search order and on the pruning.

Deliberate limitations, reported as errors rather than silently
approximated: Float and String symbols, tuple types, lambdas applied to
arguments, and quantification over the root class.  Integer handling is
exact but only over the finite value list passed in, which is the whole
point of a desk-scale checker: small counterexamples first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Collection, Iterator, Optional, Sequence

from .syntax import (
    ROOT_CLASS,
    TRUE,
    VALID,
    And,
    App,
    Assertion,
    BoolT,
    ClassT,
    Exists,
    Expr,
    FieldAccess,
    Forall,
    FunDecl,
    FunT,
    Implies,
    IntT,
    LType,
    Not,
    NormlogError,
    Rule,
    RuleModule,
    TupleT,
    Var,
    char_pred_name,
    children,
    fold,
    rebuild,
    uncurry,
)
from .closures import BOOLS, NEVER, Compiled, FormulaCompiler, ModelError, Symbol
from .typecheck import Env, is_sort, sort_of
from .inversion import inversion_formula, inversion_targets
from .symmetry import LexLeader, lex_leader_checks


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


def _binds_subclass(t: LType, env: Env) -> bool:
    """Whether a binder of type `t` needs translating: a class that is
    neither the root nor a sort, so a proper subclass or an unknown
    class that `sort_of` rejects."""
    return isinstance(t, ClassT) and t.name != ROOT_CLASS and not is_sort(t.name, env.classes)


def _needs_translation(formulas: Sequence[Expr], env: Env) -> bool:
    """Whether some formula reads an attribute or binds a class that
    `_binds_subclass`.  One read-only walk over the distinct nodes of
    all the formulas, stopping at the first such node."""
    seen: set[int] = set()
    stack = list(formulas)
    while stack:
        e = stack.pop()
        kind = type(e)
        if kind is FieldAccess:
            return True
        if (kind is Forall or kind is Exists) and _binds_subclass(e.var_type, env):
            return True
        for k in children(e):
            # a variable, the commonest leaf, is neither; nor is a unary
            # atom on one, the commonest node
            kind = type(k)
            if kind is Var or kind is App and type(k.fn) is Var and type(k.arg) is Var:
                continue
            if id(k) not in seen:
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


def _module_formulas(m: RuleModule, env: Env, include_inversions: bool) -> tuple[list[tuple[str, Expr]], bool]:
    """The named formulas of `m`, untranslated, and whether they need
    translating (`_needs_translation`).  An inversion formula restates
    the preconditions and conclusion arguments of the rules it closes
    over, under binders over their parameter types or the predicate's
    declared argument types: the rules are walked instead of it, and
    only the outer binders are read."""
    rules = [r for r in m.rules if not r.is_bodyless()]
    formulas: list[tuple[str, Expr]] = [(f"rule {r.name}", closed_rule_formula(r)) for r in rules]
    for g in m.globals:
        if isinstance(g.type, ClassT) and g.type.name != ROOT_CLASS:
            if not is_sort(g.type.name, env.classes):
                formulas.append(
                    (
                        f"global {g.name}",
                        App(Var(char_pred_name(g.type.name)), Var(g.name)),
                    )
                )
    needed = _needs_translation([f for _, f in formulas], env)
    if include_inversions:
        for p in inversion_targets(m):
            f = inversion_formula(rules, p, env)
            formulas.append((f"inversion {p}", f))
            while type(f) is Forall and not needed:
                needed = _binds_subclass(f.var_type, env)
                f = f.body
    return formulas, needed


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

    formulas, needed = _module_formulas(m, env, include_inversions)
    raw = [f for _, f in formulas]
    # Translated together: the transformed preconditions share subterms
    # across rules, and each distinct node is visited once.
    bodies = translate_formulas(raw, env) if needed else raw
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
    only the order in which the models come out follows the search.

    With `prune_symmetry` the search yields only the models that no
    adjacent transposition of a sort's elements makes smaller in search
    order (symmetry.py), and skips the rest of the space as soon as its
    cells decide that; the first model is the same.  It applies to the
    sorts whose carrier is not fixed and whose elements no ordering
    comparison may read, and only if the problem is `safe`."""

    def __init__(
        self,
        fs: FormulaSet,
        sizes: dict[str, int],
        ints: Sequence[int] = (),
        last: Collection[str] = (),
        prune_symmetry: bool = False,
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
        value_sets: dict[str, frozenset] = {}
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
                # a predicate's values are BOOLS itself, which the
                # connectives over it join without making a set
                value_sets[d.name] = BOOLS if isinstance(cod, BoolT) else frozenset(values)
                # made below with its rank; the dict keeps declared order
                symbols[d.name] = None
                free.append((d.name, cells, values))
                continue
            pinned.append(d.name)
            symbols[d.name] = Symbol(table, frozenset(table), frozenset(table.values()), -1, True)
        self._names = pinned + [name for name, _, _ in free]
        # the free symbols in search order
        free = [f for f in free if f[0] not in last] + [f for f in free if f[0] in last]
        for rank, (name, cells, _) in enumerate(free):
            symbols[name] = Symbol({}, frozenset(cells), value_sets[name], rank)

        self.carriers = carriers
        self.ints = int_values
        self.symbols = symbols
        self.compiler = FormulaCompiler(symbols, carriers, int_values)
        self._fs = fs
        self._free = free
        self._prune_symmetry = prune_symmetry

    @cached_property
    def _compiled(self) -> list[Compiled]:
        """The formulas compiled, in formula order, on first use."""
        return [self.compiler.compile(expr, want="is_false") for _, expr in self._fs.formulas]

    @property
    def safe(self) -> bool:
        """Whether no formula may raise a ModelError, whichever of its
        cells are set, so that the search order decides no error."""
        return all(c.safe for c in self._compiled)

    @cached_property
    def _asked(self) -> list[tuple[str, Callable[[], bool]]]:
        """The name and `is_false` closure of each formula that
        `false_formulas` asks, in formula order: all but the safe ones
        that are never False, so that one that may raise still does."""
        nodes = [c.node for c in self._compiled]
        return [
            (name, node.is_false)
            for (name, _), node in zip(self._fs.formulas, nodes)
            if not node.safe or node.false_from != NEVER
        ]

    @cached_property
    def _stages(self) -> tuple[list, list]:
        """The formulas compiled and staged, on first use: the closures
        of the formulas that mention no free symbol, and the search's
        list of (table, cell, values, closures evaluated once it is
        set).  Stage and watch set come from the compiled node's `refs`:
        its highest bit, and the ranks whose bit is set."""
        # A formula is staged at the last free symbol it mentions: it is
        # evaluated once that symbol's last cell is set, in formula order.
        # A safe formula is also evaluated after each cell of every free
        # symbol it mentions, and prunes as soon as it is false; it is left
        # out where it cannot be false yet (`false_from`).  A formula that
        # may raise is evaluated at its stage only, and no formula after it
        # in stage order prunes before that stage is complete, so an error
        # is raised at the same assignment as by a search of whole tables.
        nodes = [c.node for c in self._compiled]
        stages = [node.refs.bit_length() - 1 for node in nodes]
        prune_after: list[int] = [0] * len(nodes)
        last_unsafe = -2
        for i in sorted(range(len(nodes)), key=stages.__getitem__):
            prune_after[i] = last_unsafe
            if not nodes[i].safe:
                last_unsafe = stages[i]

        # Each free symbol's formulas, (stage, closure) of those it
        # watches and the closures of those staged at it, are gathered
        # from the bits of each formula's `refs`, in formula order.
        watched: list[list] = [[] for _ in self._free]
        staged: list[list] = [[] for _ in self._free]
        initial = []
        for node, stage, after in zip(nodes, stages, prune_after):
            fn = node.is_false
            if stage < 0:
                initial.append(fn)
                continue
            if not node.safe or node.false_from <= stage:
                staged[stage].append(fn)
            if node.safe:
                bits = node.refs
                while bits:
                    low = bits & -bits
                    bits ^= low
                    k = low.bit_length() - 1
                    if after < k and node.false_from <= k:
                        watched[k].append((stage, fn))

        flat: list[tuple[dict, tuple, tuple, list]] = []
        for k, (name, cells, values) in enumerate(self._free):
            early_fns = [fn for _, fn in watched[k]]
            complete = staged[k] + [fn for stage, fn in watched[k] if stage != k]
            table = self.symbols[name].table
            for i, cell in enumerate(cells):
                flat.append((table, cell, values, complete if i == len(cells) - 1 else early_fns))

        return initial, flat

    @cached_property
    def _search(self) -> tuple[list, list, Optional[LexLeader]]:
        """The closures of the formulas that mention no free symbol, the
        search's list of `_stages`, and when symmetry is pruned its
        lex-leader checks, each put first after the cell it is due at as
        the search first reaches that cell (`_reach`)."""
        initial, flat = self._stages
        fixed = self._fs.fixed_map()
        swappable = {s: es for s, es in self.carriers.items() if len(es) > 1 and s not in fixed}
        if not (self._prune_symmetry and swappable and self.safe):
            return initial, flat, None
        lex = lex_leader_checks(
            self._free,
            {name: self.symbols[name].table for name, _, _ in self._free},
            {d.name: d.type for d in self._fs.decls},
            swappable,
            self.compiler.compared,
        )
        return initial, list(flat), lex

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
        initial, flat, lex = self._search
        for name, _, _ in self._free:
            self.symbols[name].table.clear()
        for fn in initial:
            if fn():
                return
        if not flat:
            yield self._model()
            return
        # the next position whose lex-leader check is still to be built
        reach = -1 if lex is None else lex.next
        if reach == 0:
            reach = _reach(flat, lex, 0)

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
                    if d == reach:
                        reach = _reach(flat, lex, d)

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
        asked = self._asked
        for name, _, _ in self._free:
            table = self.symbols[name].table
            table.clear()
            table.update(interp.tables[name])
        return [name for name, fn in asked if fn()]

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


def _reach(flat: list, lex: LexLeader, d: int) -> int:
    """Put the lex-leader check due at search position d, which the
    search reaches for the first time, first among its checks; return
    the next position to do so at."""
    check = lex.reach(d)
    if check is not None:
        table, cell, values, fns = flat[d]
        flat[d] = (table, cell, values, [check, *fns])
    return lex.next


def enumerate_models(
    fs: FormulaSet | ModelProblem,
    sizes: Optional[dict[str, int]] = None,
    ints: Sequence[int] = (),
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[Interpretation]:
    """All interpretations of the formula set over `sizes` and `ints`,
    or of a problem already compiled (see `ModelProblem.models`).
    `check_assertion` and the correspondence check run their searches
    through here, so a wrapper of this one function (as in
    bench/tracing.py) sees every search."""
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
    first model in declared order is returned; the search prunes
    symmetric models, which leaves that model and fewer cells to try."""
    fs, (_, mode, goal) = assertion_problem(m, name, include_inversions)
    if mode == VALID:
        probe = fs.formulas + ((f"assertion {name} (negated)", Not(goal)),)
    else:
        probe = fs.formulas + ((f"assertion {name}", goal),)

    problem = ModelProblem(replace(fs, formulas=probe), sizes, ints, prune_symmetry=True)
    found = next(enumerate_models(problem, node_budget=node_budget), None)
    if mode == VALID:
        status = "counter_model" if found is not None else "valid"
    else:
        status = "satisfiable" if found is not None else "unsatisfiable"
    return CheckOutcome(name, mode, status, found)
