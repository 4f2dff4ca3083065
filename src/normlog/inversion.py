"""Inversion formulas: closing predicates under their defining rules.

Rules only say when a predicate holds.  To reason about when it does
NOT hold, each predicate P gets one extra formula stating that P only
holds by virtue of some rule concluding it:

    forall xs. P xs --> pre_1 \\/ ... \\/ pre_k

where the disjuncts are the rule preconditions, normalized so that all
rules concluding P speak about the same parameter tuple.  A predicate
concluded by no rule is simply false everywhere.

Adding these formulas is only faithful for rule sets that use the
closed predicates monotonically, hence the syntactic occurrence check
at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .syntax import (
    TRUE,
    And,
    BoolT,
    Eq,
    Exists,
    Expr,
    Forall,
    IfThenElse,
    Implies,
    LType,
    Not,
    NormlogError,
    Or,
    Rule,
    RuleModule,
    Var,
    apply,
    atom_parts,
    children,
    conj,
    fresh_name,
    substitute,
    uncurry,
)
from .typecheck import Env


class InversionError(NormlogError):
    pass


@dataclass(unsafe_hash=True)
class NormalizedRule:
    """A rule rewritten so its conclusion is the predicate applied to
    distinct parameter variables, one per argument position."""

    name: str
    pred: str
    params: tuple[tuple[str, LType], ...]
    precond: Expr


def normalize_rule(r: Rule, env: Env) -> NormalizedRule:
    """Bring a rule into the shape ``for xs if pre then P xs``.

    Conclusion arguments that are not plain parameter variables (or
    repeat one) become fresh parameters constrained by an equation in
    the precondition; parameters not mentioned in the conclusion are
    pushed into an existential."""
    parts = atom_parts(r.postcond)
    if parts is None:
        raise InversionError(f"rule '{r.name}': conclusion is not an atom")
    pred, args = parts
    if pred not in env.decls:
        raise InversionError(f"rule '{r.name}': conclusion head '{pred}' is not declared")
    arg_types, cod = uncurry(env.decls[pred])
    if not isinstance(cod, BoolT):
        raise InversionError(f"rule '{r.name}': conclusion head '{pred}' is not a predicate")
    if len(args) != len(arg_types):
        raise InversionError(
            f"rule '{r.name}': conclusion applies '{pred}' to {len(args)} of "
            f"{len(arg_types)} arguments"
        )

    param_types = dict(r.params)
    taken = set(param_types) | set(env.decls)
    new_params: list[tuple[str, LType]] = []
    equations: list[Expr] = []
    used: set[str] = set()
    for i, a in enumerate(args):
        if isinstance(a, Var) and a.name in param_types and a.name not in used:
            new_params.append((a.name, param_types[a.name]))
            used.add(a.name)
        else:
            x = fresh_name(f"x{i + 1}", taken)
            taken.add(x)
            new_params.append((x, arg_types[i]))
            equations.append(Eq(Var(x), a))

    pieces = ([] if r.precond == TRUE else [r.precond]) + equations
    pre = conj(pieces)
    for n, t in reversed([p for p in r.params if p[0] not in used]):
        pre = Exists(n, t, pre)
    return NormalizedRule(r.name, pred, tuple(new_params), pre)


def rules_concluding(rules: Sequence[Rule], pred: str) -> list[Rule]:
    out = []
    for r in rules:
        if r.is_bodyless():
            continue
        parts = atom_parts(r.postcond)
        if parts is not None and parts[0] == pred:
            out.append(r)
    return out


def inversion_formula(rules: Sequence[Rule], pred: str, env: Env) -> Expr:
    """The closure formula for one predicate over the given rules."""
    if pred not in env.decls:
        raise InversionError(f"'{pred}' is not declared")
    arg_types, cod = uncurry(env.decls[pred])
    if not isinstance(cod, BoolT):
        raise InversionError(f"'{pred}' is not a predicate")

    concluding = rules_concluding(rules, pred)
    if not concluding:
        if not arg_types:
            return Not(Var(pred))
        params = []
        taken = set(env.decls)
        for i, t in enumerate(arg_types):
            x = fresh_name(f"x{i + 1}", taken)
            taken.add(x)
            params.append((x, t))
        body = Not(apply(Var(pred), *[Var(n) for n, _ in params]))
        for n, t in reversed(params):
            body = Forall(n, t, body)
        return body

    norms = [normalize_rule(r, env) for r in concluding]
    canon = norms[0].params
    disjuncts = [norms[0].precond]
    for nr in norms[1:]:
        subst = {
            a: Var(b) for (a, _), (b, _) in zip(nr.params, canon) if a != b
        }
        disjuncts.append(substitute(nr.precond, subst) if subst else nr.precond)

    head = apply(Var(pred), *[Var(n) for n, _ in canon])
    body_expr = disjuncts[0]
    for d in disjuncts[1:]:
        body_expr = Or(body_expr, d)
    out: Expr = Implies(head, body_expr)
    for n, t in reversed(canon):
        out = Forall(n, t, out)
    return out


def inversion_targets(m: RuleModule) -> list[str]:
    """Predicates that get an inversion formula: every non-system
    Boolean-valued declaration (including Boolean constants)."""
    out = []
    for d in m.all_decls():
        if d.system:
            continue
        _, cod = uncurry(d.type)
        if isinstance(cod, BoolT):
            out.append(d.name)
    return out


@dataclass(unsafe_hash=True)
class MonotonicityReport:
    """Whether the rules are syntactically monotone, with each offending rule and why."""

    ok: bool
    offenders: tuple[tuple[str, str], ...]


# The negations each child of a node kind adds, or None where polarity
# is undefined: at every child of a kind not listed, and below.
_POLARITY = {
    Not: (1,), Implies: (1, 0), And: (0, 0), Or: (0, 0),
    Forall: (0,), Exists: (0,), IfThenElse: (None, 0, 0),
}


def check_syntactic_monotonicity(rules: Sequence[Rule], pred: str) -> MonotonicityReport:
    """Flag occurrences of the predicate that sit under an odd number of
    negations (counting implication antecedents) in the preconditions
    of the rules concluding it, plus positions whose polarity is not
    defined (equation arguments, if-conditions, lambda bodies), in
    pre-order, from an explicit stack of (subterm, negations or None)."""
    offenders: list[tuple[str, str]] = []
    for r in rules_concluding(rules, pred):
        stack: list = [(r.precond, 0)]
        while stack:
            e, negs = stack.pop()
            parts = atom_parts(e)
            if parts is not None and parts[0] == pred:
                if negs is None:
                    offenders.append((r.name, f"'{pred}' occurs in a position of mixed polarity"))
                elif negs % 2 == 1:
                    offenders.append((r.name, f"'{pred}' occurs under {negs} negation(s)"))
                stack.extend((a, None) for a in reversed(parts[1]))
                continue
            kids = children(e)
            adds = None if negs is None else _POLARITY.get(type(e))
            for i in reversed(range(len(kids))):
                add = None if adds is None else adds[i]
                stack.append((kids[i], None if add is None else negs + add))
    return MonotonicityReport(not offenders, tuple(offenders))
