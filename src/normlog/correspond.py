"""Model correspondence between the two restriction semantics.

The precondition route keeps every predicate's arity; the derivability
route lifts concluded predicates over a rule-name index sort.  The two
are linked by an explicit transfer:

* given a model of the precondition-route formulas, interpret the
  lifted predicate at (r, args) as "the final precondition of rule r
  holds at args";
* given a model of the derivability-route formulas, interpret the
  original predicate at args as "some rule index makes the lifted
  predicate true at args".

This module materializes both transfers over finite carriers and
checks, model by model, that the image satisfies the other side's
formula set (inversion formulas included on both sides).  A violation
is a found counterexample to the correspondence, reported with the
model that triggered it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .syntax import RuleModule, uncurry
from .typecheck import Env, elaborate, typecheck_module
from .transform import (
    RULENAME_CLASS_PREFIX,
    Variant,
    transform_module,
)
from .inversion import NormalizedRule, normalize_rule, rules_concluding
from .models import (
    DEFAULT_NODE_BUDGET,
    Compiled,
    CorrespondenceError,
    FormulaCompiler,
    FormulaSet,
    Interpretation,
    ModelProblem,
    ResourceCapError,
    enumerate_models,
    rules_to_formulas,
    translate_formulas,
)


@dataclass(unsafe_hash=True)
class Violation:
    """A formula of one route that a model transferred from the other falsifies."""

    direction: str
    formula: str
    model: dict


@dataclass(unsafe_hash=True)
class CorrespondenceReport:
    """The models checked on each route and the violations found.  The
    correspondence holds if no transferred model falsifies a formula of
    the other route and both routes have the same number of models."""

    checked_precond: int
    checked_deriv: int
    violations: tuple[Violation, ...]

    @property
    def counts_agree(self) -> bool:
        return self.checked_precond == self.checked_deriv

    @property
    def ok(self) -> bool:
        return not self.violations and self.counts_agree

    def to_json(self) -> dict:
        return {
            "checked_precond": self.checked_precond,
            "checked_deriv": self.checked_deriv,
            "ok": self.ok,
            "violations": [
                {"direction": v.direction, "formula": v.formula, "model": v.model}
                for v in self.violations
            ],
        }


@dataclass
class CorrespondencePair:
    """Both compiled forms of one module, plus the transfer data."""

    fs_precond: FormulaSet
    fs_deriv: FormulaSet
    # original predicate -> (rule-name class, lifted name)
    lifted: dict[str, tuple[str, str]]
    # rule-name class -> constants, in declaration order
    constants: dict[str, tuple[str, ...]]
    # final rule name -> normalized final rule on the precondition route,
    # its precondition translated as the formulas are
    normalized: dict[str, NormalizedRule]


def build_correspondence(m: RuleModule) -> CorrespondencePair:
    elab = elaborate(m)
    typecheck_module(elab)
    tp = transform_module(elab, Variant.PRECOND)
    td = transform_module(elab, Variant.DERIV)
    fs_p = rules_to_formulas(tp.module, include_inversions=True)
    fs_d = rules_to_formulas(td.module, include_inversions=True)

    lifted = {
        c.name[len(RULENAME_CLASS_PREFIX):]: (c.name, c.rulename_for)
        for c in td.module.classes
        if c.rulename_for is not None
    }
    constants = fs_d.fixed_map()

    env_p = Env.from_module(tp.module)
    normalized: dict[str, NormalizedRule] = {}
    for orig, (cls, _) in lifted.items():
        rules = rules_concluding([r for r in tp.module.rules if not r.system], orig)
        names = {r.name for r in rules}
        if names != set(constants[cls]):
            raise CorrespondenceError(
                f"rules concluding '{orig}' ({sorted(names)}) do not line up "
                f"with the rule-name constants ({sorted(constants[cls])})"
            )
        for r in rules:
            normalized[r.name] = normalize_rule(r, env_p)
    # A final precondition adds to its rule's precondition only equations
    # and binders over the rule's parameter types, so it needs translating
    # only if the rules did.
    if fs_p.translated:
        preconds = [nr.precond for nr in normalized.values()]
        translated = translate_formulas(preconds, env_p)
        if translated is not preconds:
            normalized = {nr.name: replace(nr, precond=e) for nr, e in zip(normalized.values(), translated)}

    return CorrespondencePair(fs_p, fs_d, lifted, constants, normalized)


def concluded(pair: CorrespondencePair) -> tuple[list[str], list[str]]:
    """The predicates that rules conclude, as each route names them: the
    originals on the precondition route, the lifted ones on the
    derivability route."""
    return list(pair.lifted), [plus for _, plus in pair.lifted.values()]


def final_preconditions(pair: CorrespondencePair, compiler: FormulaCompiler) -> dict[str, Compiled]:
    """The final precondition of every rule concluding a lifted
    predicate, by rule name, compiled once by `compiler` (that of the
    precondition-route problem) over the rule's parameters, one per
    argument of the concluded predicate and typed by that argument's
    sort in the formula set, so that applications to them fit the
    tables as in the rule formulas."""
    arg_types = {d.name: uncurry(d.type)[0] for d in pair.fs_precond.decls if d.name in pair.lifted}
    out: dict[str, Compiled] = {}
    for orig, (cls, _) in pair.lifted.items():
        for rn in pair.constants[cls]:
            nr = pair.normalized[rn]
            params = [(name, t) for (name, _), t in zip(nr.params, arg_types[orig])]
            out[rn] = compiler.compile(nr.precond, params)
    return out


def to_deriv(
    pair: CorrespondencePair, mp: Interpretation, preconds: dict[str, Compiled]
) -> Interpretation:
    """Image of a precondition-route model on the derivability side.
    `preconds` come from `final_preconditions` and are asked whether
    they are true against the tables of their problem, which must hold
    `mp`: its search is suspended at `mp`, so the tables are complete."""
    carriers = {**mp.carriers, **pair.constants}
    tables: dict[str, dict[tuple, object]] = {}
    lifted_names = {plus: orig for orig, (_, plus) in pair.lifted.items()}
    consts = {c for cs in pair.constants.values() for c in cs}

    for d in pair.fs_deriv.decls:
        if d.name in mp.tables:
            tables[d.name] = dict(mp.tables[d.name])
        elif d.name in consts:
            tables[d.name] = {(): d.name}
        elif d.name in lifted_names:
            # One cell per rule-name constant and key of the original
            # table, in the order the derivability search sets them.
            orig = lifted_names[d.name]
            table: dict[tuple, object] = {}
            for rn in pair.constants[pair.lifted[orig][0]]:
                precond = preconds[rn]
                for key in mp.tables[orig]:
                    for param, v in zip(precond.params, key):
                        param[0] = v
                    table[(rn,) + key] = precond.is_true()
            tables[d.name] = table
        else:
            raise CorrespondenceError(
                f"symbol '{d.name}' on the derivability side has no precondition-route source"
            )
    return Interpretation(carriers=carriers, ints=mp.ints, tables=tables)


def to_precond(pair: CorrespondencePair, md: Interpretation) -> Interpretation:
    """Image of a derivability-route model on the precondition side."""
    carriers = {s: md.carriers[s] for s in pair.fs_precond.sorts if s in md.carriers}
    tables: dict[str, dict[tuple, object]] = {}
    for d in pair.fs_precond.decls:
        if d.name in pair.lifted:
            # Keys come out in the order of the first rule name's cells.
            table: dict[tuple, object] = {}
            for key, v in md.tables[pair.lifted[d.name][1]].items():
                table[key[1:]] = table.get(key[1:], False) or v
            tables[d.name] = table
        elif d.name in md.tables:
            tables[d.name] = dict(md.tables[d.name])
        else:
            raise CorrespondenceError(
                f"symbol '{d.name}' on the precondition side has no derivability-route source"
            )
    return Interpretation(carriers=carriers, ints=md.ints, tables=tables)


def check_model_correspondence(
    m: RuleModule,
    sizes: dict[str, int],
    ints: Sequence[int] = (),
    node_budget: int = DEFAULT_NODE_BUDGET,
    violation_cap: int = 20,
) -> CorrespondenceReport:
    """Enumerate all models of both compiled forms and verify each
    transfers to a model of the other side.

    Each route searches the predicates its rules conclude (`concluded`)
    after all other symbols, so that the class predicates their rules
    read are set first.  A passing report holds only the two counts,
    which are the same in any search order.  A failing one lists
    violations in the order the searches find them, up to
    `violation_cap`, so it is made again by searches in declared order.
    So are the checks of a pair with a formula that may raise, because
    the first model or image that raises decides the error, and those
    whose concluded-last search exceeds the budget, so that the budget
    is exceeded only where a declared-order search exceeds it too.
    `node_budget` caps each search that runs: a check runs up to four,
    two per route."""
    pair = build_correspondence(m)
    last_p, last_d = concluded(pair)
    precond = ModelProblem(pair.fs_precond, sizes, ints, last_p)
    deriv = ModelProblem(pair.fs_deriv, sizes, ints, last_d)
    if precond.safe and deriv.safe:
        try:
            report = _check_pair(pair, precond, deriv, node_budget, violation_cap)
        except ResourceCapError:
            pass
        else:
            if report.ok:
                return report
    precond = ModelProblem(pair.fs_precond, sizes, ints)
    deriv = ModelProblem(pair.fs_deriv, sizes, ints)
    return _check_pair(pair, precond, deriv, node_budget, violation_cap)


def _check_pair(
    pair: CorrespondencePair,
    precond: ModelProblem,
    deriv: ModelProblem,
    node_budget: int,
    violation_cap: int,
) -> CorrespondenceReport:
    """The report on `pair` from a search of each route's problem.
    That one problem serves its search, the transfer out of its models
    and the check of the other route's images; the images of one route
    are checked while no search of the other is suspended."""
    preconds = final_preconditions(pair, precond.compiler)
    violations: list[Violation] = []

    def check(problem: ModelProblem, image: Interpretation, direction: str) -> None:
        for name in problem.false_formulas(image):
            if len(violations) < violation_cap:
                violations.append(Violation(direction, name, image.to_json()))

    checked_p = 0
    for mp in enumerate_models(precond, node_budget=node_budget):
        checked_p += 1
        check(deriv, to_deriv(pair, mp, preconds), "precond->deriv")

    checked_d = 0
    for md in enumerate_models(deriv, node_budget=node_budget):
        checked_d += 1
        check(precond, to_precond(pair, md), "deriv->precond")

    return CorrespondenceReport(checked_p, checked_d, tuple(violations))
