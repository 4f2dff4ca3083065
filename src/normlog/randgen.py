"""Random instances for sweep tests: annotated rule modules for the
correspondence checker and ground configurations for the answer set
encoding.

Modules are built so the interesting structure is exercised without
blowing up the finite-model search: one sort with one or two
subclasses (their characteristic predicates are the free symbols
models differ on), one or two rule-concluded predicates, and
subjectTo/despite annotations that always point "backwards" in rule
order, which keeps the induced ordering acyclic.  Preconditions may
mention concluded predicates, so predicate lifting gets real work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .syntax import (
    BOOL,
    ROOT_CLASS,
    And,
    App,
    ClassDecl,
    ClassT,
    Expr,
    FunDecl,
    IntLit,
    IntT,
    Not,
    Or,
    Restrict,
    Rule,
    RuleModule,
    Var,
    apply,
    fun_type,
)
from . import asp


@dataclass(unsafe_hash=True)
class ModuleSample:
    """A random module with the carrier sizes and integers to check it at."""

    module: RuleModule
    sizes: dict[str, int]
    ints: tuple[int, ...]


def random_annotated_module(rng: random.Random) -> ModuleSample:
    classes = [ClassDecl("Thing", parent=ROOT_CLASS)]
    classes.append(ClassDecl("Special", parent="Thing"))
    sub_preds = ["isSpecial"]
    if rng.random() < 0.5:
        parent = rng.choice(["Thing", "Special"])
        classes.append(ClassDecl("Extra", parent=parent))
        sub_preds.append("isExtra")

    n_preds = 1 if rng.random() < 0.7 else 2
    pred_names = ["grants", "blocks"][:n_preds]
    int_arg = rng.random() < 0.3
    decls = []
    for p in pred_names:
        if int_arg:
            decls.append(FunDecl(p, fun_type(ClassT("Thing"), IntT(), BOOL)))
        else:
            decls.append(FunDecl(p, fun_type(ClassT("Thing"), BOOL)))

    n_rules = 2 if rng.random() < 0.7 else 3
    x = Var("x")

    def base_atom() -> Expr:
        return App(Var(rng.choice(sub_preds)), x)

    def precond(concluded_before: list[str]) -> Expr:
        e = base_atom()
        for _ in range(rng.randrange(0, 2)):
            other = base_atom()
            e = And(e, other) if rng.random() < 0.6 else Or(e, other)
        if rng.random() < 0.3:
            e = And(e, Not(base_atom()))
        if concluded_before and rng.random() < 0.3:
            p = rng.choice(concluded_before)
            atom = _pred_atom(p, x, int_arg, rng)
            e = And(e, atom)
        return e

    rules = []
    concluded: list[str] = []
    for i in range(n_rules):
        p = rng.choice(pred_names)
        rules.append(
            Rule(
                name=f"r{i + 1}",
                params=(("x", ClassT("Thing")),),
                precond=precond(concluded),
                postcond=_pred_atom(p, x, int_arg, rng),
            )
        )
        if p not in concluded:
            concluded.append(p)

    subject_to: dict[int, list[str]] = {i: [] for i in range(n_rules)}
    despite: dict[int, list[str]] = {i: [] for i in range(n_rules)}
    for j in range(1, n_rules):
        for i in range(j):
            roll = rng.random()
            if roll < 0.35:
                subject_to[j].append(f"r{i + 1}")
            elif roll < 0.55:
                despite[i].append(f"r{j + 1}")
    annotated = []
    for i, r in enumerate(rules):
        st, dp = tuple(subject_to[i]), tuple(despite[i])
        if st or dp:
            annotated.append(Rule(r.name, r.params, r.precond, r.postcond, Restrict(st, dp)))
        else:
            annotated.append(r)

    m = RuleModule(
        classes=tuple(classes),
        decls=tuple(decls),
        globals=(),
        rules=tuple(annotated),
        assertions=(),
    )
    sizes = {"Thing": 1 if rng.random() < 0.7 else 2}
    ints = (1, 2) if int_arg else ()
    return ModuleSample(m, sizes, ints)


def _pred_atom(p: str, x: Var, int_arg: bool, rng: random.Random) -> Expr:
    if int_arg:
        return apply(Var(p), x, IntLit(rng.choice([1, 2])))
    return App(Var(p), x)


def random_config(rng: random.Random) -> asp.Config:
    atoms = [asp.Atom(n) for n in ["a", "b", "c", "d", "e", "f"][: rng.randrange(3, 7)]]
    n_rules = rng.randrange(1, 5)

    rules = []
    for rid in range(1, n_rules + 1):
        head = rng.choice(atoms)
        body = []
        for _ in range(rng.randrange(0, 3)):
            a = rng.choice(atoms)
            if a == head:
                continue
            body.append(asp.Literal(a, positive=rng.random() > 0.3))
        rules.append(asp.DefRule(rid, head, tuple(body)))

    facts = []
    for a in rng.sample(atoms, k=rng.randrange(0, 3)):
        facts.append(a)

    modifiers = []
    if n_rules >= 2:
        for _ in range(rng.randrange(0, 3)):
            i, j = rng.sample(range(1, n_rules + 1), 2)
            kind = rng.choice(asp.MODIFIER_KINDS)
            modifiers.append(asp.Modifier(kind, i, j))

    inconsistent = []
    if rng.random() < 0.6 and len(atoms) >= 2:
        k = rng.sample(atoms, k=rng.randrange(2, min(4, len(atoms) + 1)))
        inconsistent.append(tuple(k))

    cfg = asp.Config(tuple(rules), tuple(facts), tuple(modifiers), tuple(inconsistent))
    cfg.validate()
    return cfg
