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

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .syntax import ClassT, IntT, BoolT, NormlogError, RuleModule, atom_parts, uncurry
from .typecheck import Env, elaborate, typecheck_module
from .transform import (
    RULENAME_CLASS_PREFIX,
    Variant,
    transform_module,
)
from .inversion import NormalizedRule, normalize_rule, rules_concluding
from .models import (
    Compiled,
    FormulaCompiler,
    FormulaSet,
    Interpretation,
    ModelError,
    Symbol,
    enumerate_models,
    rules_to_formulas,
)


class CorrespondenceError(NormlogError):
    pass


@dataclass(frozen=True)
class Violation:
    direction: str
    formula: str
    model: dict


@dataclass(frozen=True)
class CorrespondenceReport:
    checked_precond: int
    checked_deriv: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

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
    # original predicate -> (rule-name class, lifted name, arg types)
    lifted: dict[str, tuple[str, str, tuple]]
    # rule-name class -> constants, in declaration order
    constants: dict[str, tuple[str, ...]]
    # final rule name -> normalized final rule on the precondition route
    normalized: dict[str, NormalizedRule]


def build_correspondence(m: RuleModule) -> CorrespondencePair:
    elab = elaborate(m)
    typecheck_module(elab)
    tp = transform_module(elab, Variant.PRECOND)
    td = transform_module(elab, Variant.DERIV)
    fs_p = rules_to_formulas(tp.module, include_inversions=True)
    fs_d = rules_to_formulas(td.module, include_inversions=True)

    lifted: dict[str, tuple[str, str, tuple]] = {}
    constants: dict[str, tuple[str, ...]] = {}
    d_decl_types = {d.name: d.type for d in td.module.all_decls()}
    for c in td.module.classes:
        if c.rulename_for is None:
            continue
        orig = c.name[len(RULENAME_CLASS_PREFIX):]
        args, _ = uncurry(d_decl_types[c.rulename_for])
        lifted[orig] = (c.name, c.rulename_for, tuple(args[1:]))
        consts = tuple(g.name for g in td.module.globals if g.type == ClassT(c.name))
        constants[c.name] = consts

    env_p = Env.from_module(tp.module)
    normalized: dict[str, NormalizedRule] = {}
    for orig, (cls, _, _) in lifted.items():
        rules = rules_concluding([r for r in tp.module.rules if not r.system], orig)
        names = {r.name for r in rules}
        if names != set(constants[cls]):
            raise CorrespondenceError(
                f"rules concluding '{orig}' ({sorted(names)}) do not line up "
                f"with the rule-name constants ({sorted(constants[cls])})"
            )
        for r in rules:
            normalized[r.name] = normalize_rule(r, env_p)

    return CorrespondencePair(fs_p, fs_d, lifted, constants, normalized)


def _base_domain(t, carriers: dict[str, tuple[str, ...]], ints: Sequence[int]):
    if isinstance(t, ClassT):
        if t.name in carriers:
            return carriers[t.name]
        raise ModelError(f"no carrier for '{t.name}'")
    if isinstance(t, BoolT):
        return (False, True)
    if isinstance(t, IntT):
        return tuple(ints)
    raise ModelError(f"unsupported argument type '{t}' in transfer")


class _Reader:
    """Expressions evaluated on a run of interpretations with the same
    carriers and tables' cells, as the models of one search have: each
    is compiled once, against tables that `load` refills in place."""

    def __init__(self) -> None:
        self.tables: dict[str, dict[tuple, object]] = {}
        self.compiler: Optional[FormulaCompiler] = None
        self.compiled: dict[object, Compiled] = {}

    def load(self, interp: Interpretation) -> None:
        if self.compiler is None:
            self.tables = {name: {} for name in interp.tables}
            symbols = {
                name: Symbol(self.tables[name], frozenset(t), None)
                for name, t in interp.tables.items()
            }
            self.compiler = FormulaCompiler(symbols, interp.carriers, interp.ints)
        for name, table in self.tables.items():
            table.clear()
            table.update(interp.tables[name])

    def get(self, key: object, e, params: Sequence[str] = ()) -> Compiled:
        c = self.compiled.get(key)
        if c is None:
            c = self.compiled[key] = self.compiler.compile(e, params)
        return c


def to_deriv(
    pair: CorrespondencePair, mp: Interpretation, reader: Optional[_Reader] = None
) -> Interpretation:
    """Image of a precondition-route model on the derivability side.
    A `reader` kept over the models of one search compiles each final
    precondition once."""
    if reader is None:
        reader = _Reader()
    reader.load(mp)
    carriers = dict(mp.carriers)
    for cls, consts in pair.constants.items():
        carriers[cls] = consts
    tables: dict[str, dict[tuple, object]] = {}
    lifted_names = {plus: orig for orig, (_, plus, _) in pair.lifted.items()}
    const_of: dict[str, str] = {}
    for cls, consts in pair.constants.items():
        for c in consts:
            const_of[c] = cls

    for d in pair.fs_deriv.decls:
        if d.name in mp.tables:
            tables[d.name] = dict(mp.tables[d.name])
        elif d.name in const_of:
            tables[d.name] = {(): d.name}
        elif d.name in lifted_names:
            orig = lifted_names[d.name]
            cls, _, arg_types = pair.lifted[orig]
            doms = [pair.constants[cls]] + [
                _base_domain(t, mp.carriers, mp.ints) for t in arg_types
            ]
            table: dict[tuple, object] = {}
            for cell in itertools.product(*doms):
                rn, args = cell[0], cell[1:]
                nr = pair.normalized[rn]
                params = [p[0] for p in nr.params[: len(args)]]
                precond = reader.get(rn, nr.precond, params)
                for param, v in zip(precond.params, args):
                    param[0] = v
                table[cell] = bool(precond.fn())
            tables[d.name] = table
        else:
            raise CorrespondenceError(
                f"symbol '{d.name}' on the derivability side has no precondition-route source"
            )
    return Interpretation(carriers=carriers, ints=mp.ints, tables=tables)


def to_precond(pair: CorrespondencePair, md: Interpretation) -> Interpretation:
    """Image of a derivability-route model on the precondition side."""
    carriers = {
        s: md.carriers[s] for s in pair.fs_precond.sorts if s in md.carriers
    }
    tables: dict[str, dict[tuple, object]] = {}
    for d in pair.fs_precond.decls:
        if d.name in pair.lifted:
            cls, plus, arg_types = pair.lifted[d.name]
            src = md.tables[plus]
            doms = [_base_domain(t, md.carriers, md.ints) for t in arg_types]
            table = {}
            for args in itertools.product(*doms):
                table[args] = any(
                    src[(rn,) + args] for rn in pair.constants[cls]
                )
            tables[d.name] = table
        elif d.name in md.tables:
            tables[d.name] = dict(md.tables[d.name])
        else:
            raise CorrespondenceError(
                f"symbol '{d.name}' on the precondition side has no derivability-route source"
            )
    return Interpretation(carriers=carriers, ints=md.ints, tables=tables)


def _check_against(
    fs: FormulaSet,
    interp: Interpretation,
    direction: str,
    out: list[Violation],
    cap: int,
    reader: Optional[_Reader] = None,
) -> None:
    if reader is None:
        reader = _Reader()
    reader.load(interp)
    for i, (name, expr) in enumerate(fs.formulas):
        if not reader.get(i, expr).fn():
            if len(out) < cap:
                out.append(Violation(direction, name, interp.to_json()))


def check_model_correspondence(
    m: RuleModule,
    sizes: dict[str, int],
    ints: Sequence[int] = (),
    node_budget: int = 5_000_000,
    violation_cap: int = 20,
) -> CorrespondenceReport:
    """Enumerate all models of both compiled forms and verify each
    transfers to a model of the other side."""
    pair = build_correspondence(m)
    violations: list[Violation] = []

    checked_p = 0
    precond_models, deriv_images = _Reader(), _Reader()
    for mp in enumerate_models(pair.fs_precond, sizes, ints, node_budget):
        checked_p += 1
        md = to_deriv(pair, mp, precond_models)
        _check_against(pair.fs_deriv, md, "precond->deriv", violations, violation_cap, deriv_images)

    checked_d = 0
    precond_images = _Reader()
    for md in enumerate_models(pair.fs_deriv, sizes, ints, node_budget):
        checked_d += 1
        mp = to_precond(pair, md)
        _check_against(
            pair.fs_precond, mp, "deriv->precond", violations, violation_cap, precond_images
        )

    return CorrespondenceReport(checked_p, checked_d, tuple(violations))
