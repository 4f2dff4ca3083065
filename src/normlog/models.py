"""Finite-model enumeration for rule sets and assertions.

Rules, globals and inversion formulas are first translated into closed
Boolean formulas over the declared symbols; a backtracking enumerator
then searches all interpretations over user-given carrier sizes and an
explicit list of integer values.  Quantifiers over a subclass become
quantifiers over its sort guarded by the characteristic predicate, so
the enumerator only ever deals with sort carriers.  The precondition
transform shares subterms between rules; the translation visits each
distinct node once and keeps that sharing in the formulas it returns.

The enumerator assigns one free symbol a whole table at a time, in
declaration order, and tests each formula as soon as the last symbol
it mentions has a table.  Its budget counts these whole-table
assignments.  At the start of each search every formula is compiled
once into nested closures (`compile_expr`), so testing a candidate
table walks no syntax tree; `eval_expr`, the tree-walking evaluator,
is kept as the reference the compiler is tested against and for
evaluating formulas outside the search.

Deliberate limitations, reported as errors rather than silently
approximated: Float and String symbols, tuple types, lambdas applied to
arguments, and quantification over the root class.  Integer handling is
exact but only over the finite value list passed in, which is the whole
point of a desk-scale checker: small counterexamples first.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

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
# interpretations and evaluation


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


def eval_expr(
    e: Expr,
    tables: dict[str, dict[tuple, object]],
    carriers: dict[str, tuple[str, ...]],
    ints: Sequence[int],
    binding: Optional[dict[str, object]] = None,
):
    """Evaluate a closed (or binding-closed) formula/term to a Python
    value: bool, int, or a carrier element name."""
    b = binding or {}

    def domain(t: LType):
        if isinstance(t, ClassT):
            if t.name in carriers:
                return carriers[t.name]
            raise ModelError(f"cannot quantify over '{t.name}' (no carrier)")
        if isinstance(t, BoolT):
            return (False, True)
        if isinstance(t, IntT):
            if not ints:
                raise ModelError("integer quantifier but no integer values were given")
            return tuple(ints)
        raise ModelError(f"cannot quantify over type '{t}'")

    def ev(e: Expr, b: dict[str, object]):
        if isinstance(e, Var):
            if e.name in b:
                return b[e.name]
            t = tables.get(e.name)
            if t is None:
                raise ModelError(f"no interpretation for symbol '{e.name}'")
            if () not in t:
                raise ModelError(f"symbol '{e.name}' used without arguments")
            return t[()]
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, StringLit) or isinstance(e, FloatLit):
            raise ModelError(f"{type(e).__name__} values are not supported by the enumerator")
        if isinstance(e, Not):
            return not ev(e.arg, b)
        if isinstance(e, And):
            return ev(e.left, b) and ev(e.right, b)
        if isinstance(e, Or):
            return ev(e.left, b) or ev(e.right, b)
        if isinstance(e, Implies):
            return (not ev(e.left, b)) or ev(e.right, b)
        if isinstance(e, Eq):
            return ev(e.left, b) == ev(e.right, b)
        if isinstance(e, Cmp):
            l, r = ev(e.left, b), ev(e.right, b)
            return {"<": l < r, "<=": l <= r, ">": l > r, ">=": l >= r}[e.op]
        if isinstance(e, App):
            parts = atom_parts(e)
            if parts is None:
                raise ModelError("cannot evaluate application of a non-symbol")
            head, args = parts
            if head in b:
                raise ModelError(f"cannot apply bound variable '{head}'")
            table = tables.get(head)
            if table is None:
                raise ModelError(f"no interpretation for symbol '{head}'")
            key = tuple(ev(a, b) for a in args)
            if key not in table:
                raise ModelError(f"partial application of '{head}'")
            return table[key]
        if isinstance(e, Forall):
            return all(ev(e.body, {**b, e.var: v}) for v in domain(e.var_type))
        if isinstance(e, Exists):
            return any(ev(e.body, {**b, e.var: v}) for v in domain(e.var_type))
        if isinstance(e, IfThenElse):
            return ev(e.then, b) if ev(e.cond, b) else ev(e.other, b)
        raise ModelError(f"cannot evaluate {type(e).__name__} nodes")

    return ev(e, b)


# ---------------------------------------------------------------------------
# compilation to closures


_MISSING = object()

_CMP_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _fail(message: str) -> Callable[[], object]:
    def fail():
        raise ModelError(message)

    return fail


def compile_expr(
    e: Expr,
    tables: dict[str, dict[tuple, object]],
    carriers: dict[str, tuple[str, ...]],
    ints: Sequence[int],
) -> Callable[[], object]:
    """Compile a closed formula or term into a closure of no arguments.

    The tree is walked once, here; calling the closure evaluates the
    expression against `tables` as they stand at the call, while
    `carriers` and `ints` are fixed now.  The closure returns what
    `eval_expr(e, tables, carriers, ints)` would and raises the same
    ModelError, under the same short-circuiting: every check is made
    when its node is reached, so a branch never reached raises nothing.
    Quantified variables live in one cell per binder."""

    def domain(t: LType) -> tuple:
        if isinstance(t, ClassT):
            if t.name in carriers:
                return carriers[t.name]
            raise ModelError(f"cannot quantify over '{t.name}' (no carrier)")
        if isinstance(t, BoolT):
            return (False, True)
        if isinstance(t, IntT):
            if not ints:
                raise ModelError("integer quantifier but no integer values were given")
            return tuple(ints)
        raise ModelError(f"cannot quantify over type '{t}'")

    def symbol(name: str) -> Callable[[], object]:
        missing = f"no interpretation for symbol '{name}'"
        nullary = f"symbol '{name}' used without arguments"

        def const():
            t = tables.get(name)
            if t is None:
                raise ModelError(missing)
            v = t.get((), _MISSING)
            if v is _MISSING:
                raise ModelError(nullary)
            return v

        return const

    def application(head: str, args: list[Callable[[], object]]) -> Callable[[], object]:
        missing = f"no interpretation for symbol '{head}'"
        partial = f"partial application of '{head}'"

        def app():
            t = tables.get(head)
            if t is None:
                raise ModelError(missing)
            v = t.get(tuple([a() for a in args]), _MISSING)
            if v is _MISSING:
                raise ModelError(partial)
            return v

        return app

    def comp(e: Expr, scope: dict[str, list]) -> Callable[[], object]:
        if isinstance(e, Var):
            bound = scope.get(e.name)
            if bound is None:
                return symbol(e.name)
            return lambda: bound[0]
        if isinstance(e, (BoolLit, IntLit)):
            value = e.value
            return lambda: value
        if isinstance(e, (StringLit, FloatLit)):
            return _fail(f"{type(e).__name__} values are not supported by the enumerator")
        if isinstance(e, Not):
            arg = comp(e.arg, scope)
            return lambda: not arg()
        if isinstance(e, (And, Or, Implies, Eq, Cmp)):
            left, right = comp(e.left, scope), comp(e.right, scope)
            if isinstance(e, And):
                return lambda: left() and right()
            if isinstance(e, Or):
                return lambda: left() or right()
            if isinstance(e, Implies):
                return lambda: (not left()) or right()
            if isinstance(e, Eq):
                return lambda: left() == right()
            op = _CMP_OPS[e.op]
            return lambda: op(left(), right())
        if isinstance(e, App):
            parts = atom_parts(e)
            if parts is None:
                return _fail("cannot evaluate application of a non-symbol")
            head, args = parts
            if head in scope:
                return _fail(f"cannot apply bound variable '{head}'")
            return application(head, [comp(a, scope) for a in args])
        if isinstance(e, (Forall, Exists)):
            try:
                values = domain(e.var_type)
            except ModelError as err:
                return _fail(str(err))
            cell: list = [None]
            body = comp(e.body, {**scope, e.var: cell})
            if isinstance(e, Forall):

                def forall():
                    for v in values:
                        cell[0] = v
                        if not body():
                            return False
                    return True

                return forall

            def exists():
                for v in values:
                    cell[0] = v
                    if body():
                        return True
                return False

            return exists
        if isinstance(e, IfThenElse):
            cond, then, other = comp(e.cond, scope), comp(e.then, scope), comp(e.other, scope)
            return lambda: then() if cond() else other()
        return _fail(f"cannot evaluate {type(e).__name__} nodes")

    return comp(e, {})


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
    the number of attempted table assignments exceeds the budget."""
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

    pinned: dict[str, dict[tuple, object]] = {}
    free: list[tuple[str, tuple[tuple, ...], tuple]] = []
    for d in fs.decls:
        args, cod = uncurry(d.type)
        if d.name in fs.char_true:
            dom = domain(args[0])
            pinned[d.name] = {(v,): True for v in dom}
            continue
        if (
            not args
            and isinstance(cod, ClassT)
            and cod.name in fixed
            and d.name in fixed[cod.name]
        ):
            pinned[d.name] = {(): d.name}
            continue
        arg_domains = [domain(a) for a in args]
        cells = tuple(itertools.product(*arg_domains))
        free.append((d.name, cells, domain(cod)))

    tables: dict[str, dict[tuple, object]] = dict(pinned)
    stage: dict[int, list[Callable[[], object]]] = {}
    index = {name: i for i, (name, _, _) in enumerate(free)}
    for _, expr in fs.formulas:
        refs = [index[n] for n in free_vars(expr) if n in index]
        compiled = compile_expr(expr, tables, carriers, int_values)
        stage.setdefault(max(refs) if refs else -1, []).append(compiled)
    budget = [node_budget]

    def holds_at(k: int) -> bool:
        for formula in stage.get(k, ()):
            if not formula():
                return False
        return True

    def rec(k: int) -> Iterator[Interpretation]:
        if k == len(free):
            yield Interpretation(
                carriers=dict(carriers),
                ints=int_values,
                tables={n: dict(t) for n, t in tables.items()},
            )
            return
        name, cells, cod = free[k]
        for combo in itertools.product(cod, repeat=len(cells)):
            budget[0] -= 1
            if budget[0] < 0:
                raise ResourceCapError(
                    f"model search exceeded {node_budget} table assignments"
                )
            tables[name] = dict(zip(cells, combo))
            if holds_at(k):
                yield from rec(k + 1)
        del tables[name]

    if not holds_at(-1):
        return
    yield from rec(0)


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
