"""Compilation of defeasibility modifiers into plain rules.

A rule may carry a ``{restrict: {subjectTo: ..., despite: ...}}``
annotation naming the rules that override it (subjectTo) and the rules
it overrides (despite).  Both reduce, in stages, to ordinary rules:

1. ``despite_elim`` re-expresses every despite entry as a subjectTo
   entry on the other rule, so only subjectTo remains.
2. ``subject_to_elim`` splits each subjectTo-annotated rule ``r`` into
   a frozen copy ``r'Orig`` marked ``{source}`` and a definition of
   ``r`` as ``{derived: {apply: {restrictSubjectTo r'Orig o1 ...}}}``.
3. Derived rules are then resolved in dependency order, either by
   strengthening the precondition with the negated preconditions of the
   overriding rules, or (after lifting predicates over rule-name index
   sorts) with their negated conclusions.  Source copies are dropped
   from the final rule set.

The two resolution strategies are the ``precond`` and ``deriv``
variants below.  They are not equivalent in general, which is exactly
why both exist; see the correspondence checker for the relation between
their model classes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

from .syntax import (
    CMP_OPS,
    FALSE,
    ROOT_CLASS,
    TRUE,
    And,
    Assertion,
    BoolLit,
    ClassDecl,
    ClassT,
    Cmp,
    Derived,
    Eq,
    Exists,
    Expr,
    Forall,
    FunDecl,
    IfThenElse,
    Implies,
    IntLit,
    Lambda,
    LType,
    Not,
    NormlogError,
    Or,
    Remap,
    Restrict,
    RestrictSubjectTo,
    Rule,
    RuleModule,
    Source,
    Var,
    apply,
    atom_parts,
    char_pred_name,
    children,
    free_vars,
    fresh_name,
    fun_type,
    rebuild,
    spine,
    substitute,
    uncurry,
)
from .typecheck import Env, LTypeError, inclusion_map, is_subtype, type_of

SOURCE_SUFFIX = "'Orig"
LIFT_SUFFIX = "+"
RULENAME_CLASS_PREFIX = "Rulename_"


class TransformError(NormlogError):
    pass


class CycleError(TransformError):
    """The rule ordering constraints are unsatisfiable."""

    def __init__(self, cycle: Sequence[str]):
        self.cycle = tuple(cycle)
        pretty = " < ".join(self.cycle + (self.cycle[0],))
        super().__init__(f"cyclic rule ordering: {pretty}")


# ---------------------------------------------------------------------------
# stage 1: despite elimination


def despite_elim(rules: Sequence[Rule]) -> tuple[Rule, ...]:
    """Turn every ``despite`` entry into a ``subjectTo`` entry on the
    named rule, prepended to whatever that rule already lists.  One
    left-to-right pass suffices because the rewrite never creates new
    despite entries."""
    by_name = {r.name: r for r in rules}
    state: dict[str, tuple[list[str], list[str]]] = {}
    for r in rules:
        if isinstance(r.annotation, Restrict):
            state[r.name] = (list(r.annotation.subject_to), list(r.annotation.despite))

    for r in rules:
        if r.name not in state:
            continue
        _, despite = state[r.name]
        for target in despite:
            if target not in by_name:
                raise TransformError(f"rule '{r.name}': despite names unknown rule '{target}'")
            if target not in state:
                t = by_name[target]
                if t.annotation is not None:
                    raise TransformError(
                        f"rule '{r.name}': despite target '{target}' has a "
                        f"non-restrict annotation and cannot gain a subjectTo entry"
                    )
                state[target] = ([], [])
            state[target][0].insert(0, r.name)
        state[r.name] = (state[r.name][0], [])

    out = []
    for r in rules:
        if r.name not in state:
            out.append(r)
            continue
        subject_to, despite = state[r.name]
        assert not despite
        ann = Restrict(tuple(subject_to), ()) if subject_to else None
        out.append(replace(r, annotation=ann))
    return tuple(out)


# ---------------------------------------------------------------------------
# stage 2: subjectTo elimination


def subject_to_elim(rules: Sequence[Rule]) -> tuple[Rule, ...]:
    """Split every subjectTo-annotated rule into a {source} copy and a
    {derived} definition referring to it."""
    names = {r.name for r in rules}
    out: list[Rule] = []
    for r in rules:
        ann = r.annotation
        if not isinstance(ann, Restrict) or not ann.subject_to:
            out.append(r)
            continue
        if ann.despite:
            raise TransformError(
                f"rule '{r.name}' still has despite entries; run despite elimination first"
            )
        for t in ann.subject_to:
            if t not in names:
                raise TransformError(f"rule '{r.name}': subjectTo names unknown rule '{t}'")
        orig = r.name + SOURCE_SUFFIX
        if orig in names:
            raise TransformError(f"cannot split rule '{r.name}': name '{orig}' already taken")
        names.add(orig)
        out.append(replace(r, name=orig, annotation=Source()))
        out.append(
            Rule(
                name=r.name,
                params=(),
                precond=TRUE,
                postcond=TRUE,
                annotation=Derived(RestrictSubjectTo(orig, ann.subject_to)),
            )
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# stage 3: rule ordering


@dataclass(unsafe_hash=True)
class RuleOrder:
    """Precedence constraints between rules, with a witnessing total
    order.  An edge (a, b) reads: a must be resolved before b."""

    edges: tuple[tuple[str, str], ...]
    sequence: tuple[str, ...]


def order_edges(rules: Sequence[Rule]) -> tuple[tuple[str, str], ...]:
    names = {r.name for r in rules}
    edges: list[tuple[str, str]] = []
    seen = set()

    def add(a: str, b: str) -> None:
        if a not in names:
            raise TransformError(f"rule '{b}' refers to unknown rule '{a}'")
        if a == b:
            raise CycleError([a])
        if (a, b) not in seen:
            seen.add((a, b))
            edges.append((a, b))

    for r in rules:
        if isinstance(r.annotation, Derived):
            t = r.annotation.apply
            if isinstance(t, RestrictSubjectTo):
                add(t.target, r.name)
                for o in t.overriders:
                    add(o, r.name)
            elif isinstance(t, Remap):
                add(t.target, r.name)
    return tuple(edges)


def rule_order(rules: Sequence[Rule]) -> RuleOrder:
    """Topologically sort the rules by their precedence constraints,
    breaking ties lexicographically.  Raises CycleError (listing one
    offending cycle) when no total order exists."""
    import heapq

    edges = order_edges(rules)
    names = [r.name for r in rules]
    succ: dict[str, list[str]] = {n: [] for n in names}
    indeg = {n: 0 for n in names}
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1

    heap = sorted(n for n in names if indeg[n] == 0)
    heapq.heapify(heap)
    sequence = []
    while heap:
        n = heapq.heappop(heap)
        sequence.append(n)
        for b in succ[n]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, b)

    if len(sequence) < len(names):
        remaining = {n for n in names if n not in set(sequence)}
        raise CycleError(_find_cycle(remaining, succ))
    return RuleOrder(edges, tuple(sequence))


def _find_cycle(remaining: set[str], succ: dict[str, list[str]]) -> list[str]:
    start = min(remaining)
    path = [start]
    on_path = {start}
    while True:
        nxt = min(b for b in succ[path[-1]] if b in remaining)
        if nxt in on_path:
            return path[path.index(nxt):]
        path.append(nxt)
        on_path.add(nxt)


# ---------------------------------------------------------------------------
# restriction semantics


def _rename_positional(e: Expr, from_params, to_params) -> Expr:
    subst = {}
    for (fn, _), (tn, _) in zip(from_params, to_params):
        if fn != tn:
            subst[fn] = Var(tn)
    return substitute(e, subst) if subst else e


def _check_interface(rule: Rule, other: Rule, rule_params, other_params) -> None:
    ok = len(rule_params) == len(other_params) and all(
        a[1] == b[1] for a, b in zip(rule_params, other_params)
    )
    if not ok:
        raise TransformError(
            f"rules '{rule.name}' and '{other.name}' have different parameter "
            f"interfaces; bring them into agreement with a remap first"
        )


def restrict_subject_to_precond(rule: Rule, overriders: Sequence[Rule]) -> Rule:
    """Strengthen the rule's precondition with the negated precondition
    of each overriding rule, left to right.  All rules involved must
    share one parameter interface."""
    pre = rule.precond
    for o in overriders:
        _check_interface(rule, o, rule.params, o.params)
        pre = And(pre, Not(_rename_positional(o.precond, o.params, rule.params)))
    return replace(rule, precond=pre, annotation=None)


def _is_rulename_type(t: LType, env: Env) -> bool:
    return (
        isinstance(t, ClassT)
        and t.name in env.classes
        and env.classes[t.name].rulename_for is not None
    )


def restrict_subject_to_deriv(rule: Rule, overriders: Sequence[Rule], env: Env) -> Rule:
    """Strengthen the rule's precondition with the negated conclusion of
    each overriding rule.  Meant for lifted rules: parameters of
    rule-name type are bookkeeping and excluded from the interface
    check."""
    own = [(n, t) for n, t in rule.params if not _is_rulename_type(t, env)]
    pre = rule.precond
    for o in overriders:
        o_own = [(n, t) for n, t in o.params if not _is_rulename_type(t, env)]
        _check_interface(rule, o, own, o_own)
        pre = And(pre, Not(_rename_positional(o.postcond, o_own, own)))
    return replace(rule, precond=pre, annotation=None)


def remap(rule: Rule, new_params, subst: dict[str, Expr], env: Env) -> Rule:
    """Re-express a rule over a new parameter list, substituting the old
    parameters.  Every old parameter must be covered, and each
    replacement must typecheck against the parameter it replaces."""
    vars = dict(new_params)
    old = dict(rule.params)
    for n in old:
        if n not in subst:
            raise TransformError(f"remap of '{rule.name}' leaves parameter '{n}' unmapped")
    for n, e in subst.items():
        if n not in old:
            raise TransformError(f"remap of '{rule.name}' maps unknown parameter '{n}'")
        t = type_of(env, e, vars)
        if not is_subtype(t, old[n], env.classes):
            raise LTypeError(
                f"remap of '{rule.name}': replacement for '{n}' has type '{t}', "
                f"expected '{old[n]}'"
            )
    return Rule(
        name=rule.name,
        params=tuple(new_params),
        precond=substitute(rule.precond, subst),
        postcond=substitute(rule.postcond, subst),
    )


# ---------------------------------------------------------------------------
# predicate lifting (for the deriv variant)


def final_rule_name(r: Rule) -> str:
    """The name a rule will carry in the fully resolved set: a {source}
    copy answers to the name of the derived rule defined from it."""
    if isinstance(r.annotation, Source) and r.name.endswith(SOURCE_SUFFIX):
        return r.name[: -len(SOURCE_SUFFIX)]
    return r.name


def rulename_class(pred: str) -> str:
    return RULENAME_CLASS_PREFIX + pred


def lift_predicates(m: RuleModule) -> RuleModule:
    """Give every predicate concluded by a user rule an extra first
    argument naming the rule that derived it.

    For each such predicate P (say of type T1 -> ... -> Tn -> Boolean):

    * a class ``Rulename_P`` is added as a new sort, with one constant
      per concluding rule, named by the rule's final name;
    * P's declaration becomes ``P+ : Rulename_P -> T1 -> ... -> Boolean``;
    * a conclusion ``P e1 .. en`` of rule r becomes ``P+ r' e1 .. en``
      where r' is r's final name;
    * each occurrence of P in a precondition gets a fresh rule-name
      parameter, universally quantified by appending it to the rule's
      parameter list;
    * an occurrence ``P e1 .. en`` in an assertion formula becomes
      ``exists rn. P+ rn e1 .. en``, which says exactly that some rule
      derives it.

    System rules (class inclusions) neither count as concluding rules
    nor are rewritten, so characteristic predicates stay unlifted.
    """
    decl_types = {d.name: d.type for d in m.all_decls()}
    class_names = {c.name for c in m.classes}
    char_preds = {char_pred_name(c) for c in class_names}
    rule_like = [r for r in m.rules if not r.system and not r.is_bodyless()]

    concluders: dict[str, list[Rule]] = {}
    for r in rule_like:
        parts = atom_parts(r.postcond)
        if parts is None:
            continue
        head, _ = parts
        if head in char_preds:
            raise TransformError(
                f"rule '{r.name}' concludes characteristic predicate '{head}'; "
                f"lifting characteristic predicates is not supported"
            )
        if head in decl_types:
            concluders.setdefault(head, []).append(r)

    if not concluders:
        return m

    lifted: dict[str, str] = {}
    new_classes: list[ClassDecl] = []
    new_consts: list[FunDecl] = []
    for p, rs in concluders.items():
        cls = rulename_class(p)
        plus = p + LIFT_SUFFIX
        if cls in class_names:
            raise TransformError(f"cannot lift '{p}': class '{cls}' already exists")
        if plus in decl_types:
            raise TransformError(f"cannot lift '{p}': symbol '{plus}' already declared")
        lifted[p] = plus
        new_classes.append(ClassDecl(cls, parent=ROOT_CLASS, rulename_for=plus))
        seen = set()
        for r in rs:
            fname = final_rule_name(r)
            if fname in seen:
                raise TransformError(
                    f"two rules concluding '{p}' resolve to the same name '{fname}'"
                )
            seen.add(fname)
            if fname in decl_types:
                raise TransformError(
                    f"cannot lift '{p}': rule-name constant '{fname}' collides "
                    f"with an existing declaration"
                )
            new_consts.append(FunDecl(fname, ClassT(cls)))

    def lift_decl(d: FunDecl) -> FunDecl:
        if d.name not in lifted:
            return d
        args, cod = uncurry(d.type)
        cls = rulename_class(d.name)
        new_type = fun_type(ClassT(cls), *args, cod)
        return FunDecl(lifted[d.name], new_type, system=d.system, loc=d.loc)

    const_names = {c.name for c in new_consts}

    def lift_rule(r: Rule) -> Rule:
        if r.system or r.is_bodyless():
            return r
        taken = set(n for n, _ in r.params) | set(decl_types) | set(lifted.values()) | const_names
        extra: list[tuple[str, LType]] = []

        def lift(head: str, args: tuple[Expr, ...], rn: str):
            extra.append((rn, ClassT(rulename_class(head))))
            return lambda new_args: apply(Var(lifted[head]), Var(rn), *new_args)

        pre = _lift_atoms(r.precond, lifted, taken, lift)
        parts = atom_parts(r.postcond)
        if parts is not None and parts[0] in lifted:
            head, args = parts
            post = apply(Var(lifted[head]), Var(final_rule_name(r)), *args)
        else:
            post = r.postcond
        return replace(r, params=r.params + tuple(extra), precond=pre, postcond=post)

    arity = {p: len(uncurry(decl_types[p])[0]) for p in lifted}

    def lift_assertion(a: Assertion) -> Assertion:
        taken = set(decl_types) | set(lifted.values()) | const_names | free_vars(a.formula)

        def lift(head: str, args: tuple[Expr, ...], rn: str):
            if len(args) != arity[head]:
                raise TransformError(
                    f"assertion '{a.name}': lifted predicate '{head}' must be fully applied"
                )
            cls = ClassT(rulename_class(head))
            return lambda new_args: Exists(rn, cls, apply(Var(lifted[head]), Var(rn), *new_args))

        return replace(a, formula=_lift_atoms(a.formula, lifted, taken, lift))

    decls = tuple(lift_decl(d) for d in m.decls)
    globals_ = tuple(lift_decl(d) for d in m.globals) + tuple(new_consts)
    rules = tuple(lift_rule(r) for r in m.rules)
    return replace(
        m,
        classes=m.classes + tuple(new_classes),
        decls=decls,
        globals=globals_,
        rules=rules,
        assertions=tuple(lift_assertion(a) for a in m.assertions),
    )


def _lift_atoms(e: Expr, lifted: dict[str, str], taken: set[str], lift: Callable) -> Expr:
    """`e` with each occurrence of an atom of a `lifted` predicate
    replaced, entering nodes in pre-order from an explicit stack: such an
    atom takes a fresh name `rn` not in `taken`, and `lift(head, args,
    rn)` returns the builder of its replacement from the rewritten
    arguments; any other node is rebuilt from its rewritten children."""

    def enter(x: Expr) -> tuple:
        parts = atom_parts(x)
        if parts is None or parts[0] not in lifted:
            return children(x), partial(rebuild, x), []
        rn = fresh_name("rn", taken)
        taken.add(rn)
        return parts[1], lift(*parts, rn), []

    stack = [enter(e)]
    while True:
        kids, build, done = stack[-1]
        if len(done) < len(kids):
            stack.append(enter(kids[len(done)]))
            continue
        stack.pop()
        if not stack:
            return build(done)
        stack[-1][2].append(build(done))


# ---------------------------------------------------------------------------
# stage 4: resolving derived rules


class Variant(enum.Enum):
    PRECOND = "precond"
    DERIV = "deriv"


def eval_derived(
    rules: Sequence[Rule], order: RuleOrder, variant: Variant, env: Env
) -> tuple[Rule, ...]:
    """Resolve every derived rule in the sequence of `order`, which is
    `rule_order(rules)` and so compatible with the precedence
    constraints, then drop the {source} copies.  The output preserves
    the input's rule order."""
    current: dict[str, Rule] = {r.name: r for r in rules}
    for name in order.sequence:
        r = current[name]
        if not isinstance(r.annotation, Derived):
            continue
        t = r.annotation.apply
        if isinstance(t, RestrictSubjectTo):
            target = current[t.target]
            overriders = [current[o] for o in t.overriders]
            if variant is Variant.PRECOND:
                resolved = restrict_subject_to_precond(target, overriders)
            else:
                resolved = restrict_subject_to_deriv(target, overriders, env)
        elif isinstance(t, Remap):
            resolved = remap(current[t.target], t.new_params, dict(t.subst), env)
        else:
            raise TransformError(f"rule '{name}': unknown transformer")
        current[name] = replace(resolved, name=name)
    return tuple(
        current[r.name] for r in rules if not isinstance(current[r.name].annotation, Source)
    )


# ---------------------------------------------------------------------------
# the whole pipeline


@dataclass(unsafe_hash=True)
class TransformResult:
    """A transformed module, the rule order it followed and a trace of its steps."""

    module: RuleModule
    order: RuleOrder
    trace: tuple[str, ...]


def transform_module(
    m: RuleModule, variant: Variant = Variant.PRECOND, simplify_preconds: bool = False
) -> TransformResult:
    """Run the full compilation: despite elimination, subjectTo
    elimination, predicate lifting (deriv variant only), and derived
    rule resolution.  System rules pass through untouched."""
    user = [r for r in m.rules if not r.system]
    system = [r for r in m.rules if r.system]

    trace: list[str] = []
    r1 = despite_elim(user)
    for old, new in zip(user, r1):
        if old.annotation != new.annotation and isinstance(new.annotation, Restrict):
            now = ", ".join(new.annotation.subject_to)
            trace.append(f"despite-elim: {old.name} subjectTo {now}")
    r2 = subject_to_elim(r1)
    for r in r2:
        if isinstance(r.annotation, Source):
            trace.append(f"subjectTo-elim: split off {r.name}")

    work = replace(m, rules=tuple(r2) + tuple(system))
    if variant is Variant.DERIV:
        work = lift_predicates(work)
        for c in work.classes:
            if c.rulename_for is not None:
                trace.append(f"lift: {c.rulename_for} indexed by {c.name}")
    env = Env.from_module(work)

    user2 = [r for r in work.rules if not r.system]
    order = rule_order(user2)
    resolved = eval_derived(user2, order, variant, env)
    derived_names = {r.name for r in user2 if isinstance(r.annotation, Derived)}
    for name in order.sequence:
        if name in derived_names:
            trace.append(f"resolve: {name}")

    if simplify_preconds:
        inc = inclusion_map(env.classes)
        resolved = tuple(
            replace(r, precond=simplify(r.precond, inc)) if not r.is_bodyless() else r
            for r in resolved
        )

    out = replace(work, rules=tuple(resolved) + tuple(r for r in work.rules if r.system))
    return TransformResult(out, order, tuple(trace))


# ---------------------------------------------------------------------------
# precondition simplification


def simplify(e: Expr, inclusions: Optional[dict[str, frozenset[str]]] = None) -> Expr:
    """Boolean simplification with contextual assumptions.

    Inside a conjunction each conjunct is simplified under the
    assumption that its siblings hold; dually for disjunctions.  The
    optional inclusion map lets class membership propagate upward
    (isSportsCar x forces isCar x) and prune entailed or contradictory
    literals.  The result is logically equivalent to the input.
    """
    simplifier = _Simplifier(inclusions or {})
    prev = None
    cur = e
    for _ in range(12):
        if cur == prev:
            break
        prev, cur = cur, simplifier.go(cur, {})
    return cur


class _Simplifier:
    """The passes of `simplify` over one inclusion map.  Its methods
    recurse through `self`, which holds no reference to them, so a run
    leaves no reference cycle behind."""

    def __init__(self, entails: dict[str, frozenset[str]]) -> None:
        self.entails = entails
        self.entailed_by: dict[str, set[str]] = {}
        for sub, sups in entails.items():
            for sup in sups:
                self.entailed_by.setdefault(sup, set()).add(sub)
        self.implied: dict[tuple[Expr, bool], list[Expr]] = {}

    def implied_atoms(self, e: Expr, val: bool) -> list[Expr]:
        """The atoms that take value `val` with `e`: its superclass atoms
        if `e` holds, its subclass atoms if it fails; built once."""
        out = self.implied.get((e, val))
        if out is None:
            out = self.implied[(e, val)] = []
            parts = atom_parts(e)
            if parts is not None:
                head, args = parts
                for name in self.entails.get(head, ()) if val else self.entailed_by.get(head, ()):
                    out.append(apply(Var(name), *args) if args else Var(name))
        return out

    def assume(self, ctx: dict[Expr, bool], e: Expr, val: bool) -> None:
        """Record that `e` has value `val`, and so do the operands of a
        conjunction that holds or a disjunction that fails, in pre-order."""
        stack = [(e, val)]
        while stack:
            e, val = stack.pop()
            kind = type(e)
            if kind is BoolLit:
                continue
            if kind is Not:
                stack.append((e.arg, not val))
                continue
            ctx[e] = val
            if kind is (And if val else Or):
                stack.append((e.right, val))
                stack.append((e.left, val))
                continue
            for atom in self.implied_atoms(e, val):
                ctx[atom] = val

    @staticmethod
    def purge(ctx: dict[Expr, bool], var: str) -> dict[Expr, bool]:
        return {k: v for k, v in ctx.items() if var not in free_vars(k)}

    def go(self, e: Expr, ctx: dict[Expr, bool]) -> Expr:
        if e in ctx:
            return TRUE if ctx[e] else FALSE
        kind = type(e)
        if kind is And or kind is Or:
            # Each operand is simplified assuming that its siblings hold
            # (&&) or fail (||); `unit` is the literal an operand can
            # drop, `zero` the one that decides the whole chain.
            holds = kind is And
            unit, zero = (TRUE, FALSE) if holds else (FALSE, TRUE)
            parts = spine(e, kind)
            done: list[Expr] = []
            for i, p in enumerate(parts):
                local = dict(ctx)
                for j in range(len(parts)):
                    if j != i:
                        self.assume(local, done[j] if j < i else parts[j], holds)
                sp = self.go(p, local)
                if sp == zero:
                    return zero
                done.append(sp)
            keep = [p for p in done if p != unit]
            if not keep:
                return unit
            out = keep[0]
            for p in keep[1:]:
                out = kind(out, p)
            return out
        if isinstance(e, Not):
            inner = self.go(e.arg, ctx)
            if isinstance(inner, BoolLit):
                return FALSE if inner.value else TRUE
            if isinstance(inner, Not):
                return inner.arg
            return Not(inner)
        if isinstance(e, Implies):
            left = self.go(e.left, ctx)
            if left == TRUE:
                return self.go(e.right, ctx)
            if left == FALSE:
                return TRUE
            local = dict(ctx)
            self.assume(local, left, True)
            right = self.go(e.right, local)
            if right == TRUE:
                return TRUE
            if right == FALSE:
                return self.go(Not(left), ctx)
            return Implies(left, right)
        if isinstance(e, IfThenElse):
            cond = self.go(e.cond, ctx)
            if cond == TRUE:
                return self.go(e.then, ctx)
            if cond == FALSE:
                return self.go(e.other, ctx)
            then_ctx = dict(ctx)
            self.assume(then_ctx, cond, True)
            else_ctx = dict(ctx)
            self.assume(else_ctx, cond, False)
            return IfThenElse(cond, self.go(e.then, then_ctx), self.go(e.other, else_ctx))
        if isinstance(e, (Forall, Exists)):
            body = self.go(e.body, self.purge(ctx, e.var))
            if isinstance(body, BoolLit):
                # sound because carriers are never empty
                return body
            return replace(e, body=body)
        if isinstance(e, Eq):
            if e.left == e.right:
                return TRUE
            if isinstance(e.left, IntLit) and isinstance(e.right, IntLit):
                return TRUE if e.left.value == e.right.value else FALSE
            return e
        if isinstance(e, Cmp):
            if isinstance(e.left, IntLit) and isinstance(e.right, IntLit):
                return TRUE if CMP_OPS[e.op](e.left.value, e.right.value) else FALSE
            return e
        if isinstance(e, Lambda):
            return replace(e, body=self.go(e.body, self.purge(ctx, e.var)))
        return e
