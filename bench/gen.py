"""Seeded generators of `.l4` modules.

Every generator takes a `random.Random` and returns module source text.
The structure of each family (rule count, priority links, literal
count per precondition) is fixed by its arguments; the seed only picks
contents (which classes, which polarity, which rule carries a link as
`subjectTo` and which as `despite`).  That keeps the work per round,
and the encoding size, nearly the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_CLASSES = 6  # C1..C6 under Thing; C7 under C1 gives simplify an inclusion to use
CHECK_CLASSES = 2  # each class is a free table in the model search


@dataclass(frozen=True)
class CheckModule:
    """A module whose assertion verdict is known by construction."""

    name: str
    text: str
    assertion: str
    verdict: str  # valid | counter_model | satisfiable | unsatisfiable


def _class_lines(n: int = N_CLASSES, sub: bool = True) -> list[str]:
    lines = ["class Thing"]
    lines += [f"class C{i} extends Thing" for i in range(1, n + 1)]
    if sub:
        lines.append(f"class C{n + 1} extends C1")
    return lines


def _literal(rng: random.Random) -> str:
    c = rng.randrange(1, N_CLASSES + 2)
    return f"not isC{c} x" if rng.random() < 0.3 else f"isC{c} x"


def _rule(name: str, dominators: list[str], despites: list[str], pre: str, post: str) -> str:
    keys = []
    if dominators:
        keys.append("subjectTo: " + ", ".join(dominators))
    if despites:
        keys.append("despite: " + ", ".join(despites))
    ann = " {restrict: {" + ", ".join(keys) + "}}" if keys else ""
    return f"rule <{name}>{ann}\n  for x: Thing\n  if {pre}\n  then {post}\n"


def _functional(pred: str) -> str:
    return (
        f"assert <{pred}Functional> {{SMT: {{valid}}}}\n"
        f"  forall x: Thing. forall s1: Integer. forall s2: Integer.\n"
        f"    {pred} x s1 && {pred} x s2 --> s1 == s2\n"
    )


def _priority_rules(
    rng: random.Random,
    group: str,
    pred: str,
    length: int,
    fan_in: int,
    literals: int,
    earlier_preds: list[str],
) -> list[str]:
    """One priority group: rule k yields to the `fan_in` rules before it.
    Each link is written either as `subjectTo` on the yielding rule or
    as `despite` on the prevailing one; both compile to the same edge."""
    names = [f"{group}r{k}" for k in range(length)]
    subject_to: dict[int, list[str]] = {k: [] for k in range(length)}
    despite: dict[int, list[str]] = {k: [] for k in range(length)}
    for k in range(1, length):
        for i in range(max(0, k - fan_in), k):
            if rng.random() < 0.5:
                subject_to[k].append(names[i])
            else:
                despite[i].append(names[k])
    out = []
    for k in range(length):
        lits = [_literal(rng) for _ in range(literals)]
        if earlier_preds and rng.random() < 0.5:
            lits[-1] = f"{rng.choice(earlier_preds)} x {rng.randrange(10, 10 + length)}"
        out.append(
            _rule(names[k], subject_to[k], despite[k], " && ".join(lits), f"{pred} x {10 + k}")
        )
    return out


def compile_module(rng: random.Random, groups: int, length: int, fan_in: int) -> str:
    """A module of `groups` priority groups of `length` rules each.
    Under the precondition semantics a rule's resolved precondition
    contains those of its `fan_in` predecessors, so the compiled size
    grows with both `length` and `fan_in`."""
    preds = [f"lim{g}" for g in range(groups)]
    lines = _class_lines()
    lines += [f"decl {p} : Thing -> Integer -> Boolean" for p in preds]
    parts = ["\n".join(lines) + "\n"]
    for g, p in enumerate(preds):
        parts += _priority_rules(rng, f"g{g}", p, length, fan_in, 2, preds[:g])
    parts.append(_functional(preds[0]))
    return "\n".join(parts)


def check_module(rng: random.Random, length: int, verdict: str) -> CheckModule:
    """One priority group over `lim`, every rule yielding to all rules
    before it, with a verdict known by construction.  Each precondition
    tests both classes; only rules after the first two negate one.

    * valid: at most one rule fires per thing, so `lim` is functional.
    * counter_model: the link between the first two rules is dropped;
      a thing in both classes fires both, with different limits.
    * satisfiable: the first rule's limit is reachable.
    * unsatisfiable: the first two rules' limits together, which the
      priority link rules out.
    """
    drop = verdict == "counter_model"
    lines = _class_lines(CHECK_CLASSES, sub=False) + ["decl lim : Thing -> Integer -> Boolean"]
    parts = ["\n".join(lines) + "\n"]
    names = [f"r{k}" for k in range(length)]
    for k in range(length):
        dom = [n for i, n in enumerate(names[:k]) if not (drop and (i, k) == (0, 1))]
        lits = [f"isC{c} x" for c in rng.sample(range(1, CHECK_CLASSES + 1), 2)]
        if k >= 2:
            j = rng.randrange(2)
            lits[j] = "not " + lits[j]
        parts.append(_rule(names[k], dom, [], " && ".join(lits), f"lim x {10 + k}"))
    if verdict in ("valid", "counter_model"):
        parts.append(_functional("lim"))
        assertion = "limFunctional"
    else:
        goal = "lim x 10" if verdict == "satisfiable" else "lim x 10 && lim x 11"
        assertion = "limReached"
        parts.append(f"assert <{assertion}> {{SMT: {{satisfiable}}}}\n  exists x: Thing. {goal}\n")
    return CheckModule(f"check_{verdict}", "\n".join(parts), assertion, verdict)
