"""Reference computations the benchmark checks the program against.

Nothing here calls into `normlog`: expressions, interpretations and
configurations are read through their public fields only, and every
procedure is the plainest one that follows from the definitions.  A
wrong answer would have to be made twice, in two different ways, to
pass unnoticed.
"""

from __future__ import annotations

import itertools


def kind(e) -> str:
    return type(e).__name__


# ---------------------------------------------------------------------------
# expressions


def count_nodes(e) -> int:
    """Expression nodes in a formula, literals and variables included."""
    n = 0
    stack = [e]
    while stack:
        x = stack.pop()
        n += 1
        k = kind(x)
        if k == "Not":
            stack.append(x.arg)
        elif k in ("And", "Or", "Implies", "Eq", "Cmp"):
            stack += (x.left, x.right)
        elif k == "App":
            stack += (x.fn, x.arg)
        elif k in ("Forall", "Exists", "Lambda"):
            stack.append(x.body)
        elif k == "IfThenElse":
            stack += (x.cond, x.then, x.other)
        elif k == "FieldAccess":
            stack.append(x.obj)
    return n


def head_args(e):
    """The head symbol and the arguments of an application."""
    args = []
    while kind(e) == "App":
        args.append(e.arg)
        e = e.fn
    return (e.name if kind(e) == "Var" else None), tuple(reversed(args))


def evaluate(e, tables: dict, carriers: dict, ints, env=None):
    """Value of a formula or term in a finite interpretation: `tables`
    maps each symbol to {argument tuple: value}, `carriers` each sort
    to its elements, `ints` is the integer range."""
    env = env or {}
    k = kind(e)
    if k == "Var":
        return env[e.name] if e.name in env else tables[e.name][()]
    if k in ("BoolLit", "IntLit"):
        return e.value
    if k == "Not":
        return not evaluate(e.arg, tables, carriers, ints, env)
    if k in ("And", "Or", "Implies"):
        left = evaluate(e.left, tables, carriers, ints, env)
        if k == "And" and not left:
            return False
        if k == "Or" and left:
            return True
        if k == "Implies" and not left:
            return True
        return bool(evaluate(e.right, tables, carriers, ints, env))
    if k in ("Eq", "Cmp"):
        a = evaluate(e.left, tables, carriers, ints, env)
        b = evaluate(e.right, tables, carriers, ints, env)
        if k == "Eq":
            return a == b
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]
    if k == "App":
        head, args = head_args(e)
        return tables[head][tuple(evaluate(a, tables, carriers, ints, env) for a in args)]
    if k in ("Forall", "Exists"):
        t = e.var_type
        tk = kind(t)
        dom = carriers[t.name] if tk == "ClassT" else (False, True) if tk == "BoolT" else ints
        vals = (evaluate(e.body, tables, carriers, ints, {**env, e.var: v}) for v in dom)
        return all(vals) if k == "Forall" else any(vals)
    if k == "IfThenElse":
        c = evaluate(e.cond, tables, carriers, ints, env)
        return evaluate(e.then if c else e.other, tables, carriers, ints, env)
    raise ValueError(f"cannot evaluate {k}")


def _prop_atoms(e, out: dict) -> None:
    k = kind(e)
    if k in ("And", "Or", "Implies"):
        _prop_atoms(e.left, out)
        _prop_atoms(e.right, out)
    elif k == "Not":
        _prop_atoms(e.arg, out)
    elif k == "BoolLit" or _int_fold(e) is not None:
        pass
    else:
        out.setdefault(e, len(out))


def _int_fold(e):
    if kind(e) in ("Eq", "Cmp") and kind(e.left) == kind(e.right) == "IntLit":
        a, b = e.left.value, e.right.value
        if kind(e) == "Eq":
            return a == b
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[e.op]
    return None


def _prop_eval(e, val: dict) -> bool:
    k = kind(e)
    if k == "BoolLit":
        return e.value
    if k == "Not":
        return not _prop_eval(e.arg, val)
    if k == "And":
        return _prop_eval(e.left, val) and _prop_eval(e.right, val)
    if k == "Or":
        return _prop_eval(e.left, val) or _prop_eval(e.right, val)
    if k == "Implies":
        return (not _prop_eval(e.left, val)) or _prop_eval(e.right, val)
    folded = _int_fold(e)
    return folded if folded is not None else val[e]


def truth_table_work(e1, e2) -> int:
    """Node visits a truth-table comparison of two formulas would take."""
    atoms: dict = {}
    _prop_atoms(e1, atoms)
    _prop_atoms(e2, atoms)
    return (count_nodes(e1) + count_nodes(e2)) << len(atoms)


def equivalent(e1, e2, implied: dict) -> bool:
    """Truth-table equivalence of two quantifier-free formulas, over the
    valuations that respect `implied`: a map from a class-membership
    predicate to the predicates of its ancestor classes."""
    index: dict = {}
    _prop_atoms(e1, index)
    _prop_atoms(e2, index)
    atoms = list(index)
    forced = []
    for a in atoms:
        head, args = head_args(a)
        for sup in implied.get(head, ()):
            for b in atoms:
                if head_args(b) == (sup, args):
                    forced.append((a, b))
    for bits in itertools.product((False, True), repeat=len(atoms)):
        val = dict(zip(atoms, bits))
        if any(val[a] and not val[b] for a, b in forced):
            continue
        if _prop_eval(e1, val) != _prop_eval(e2, val):
            return False
    return True


def is_topological(sequence, edges, names) -> bool:
    """`sequence` lists every rule of `names` once, each edge (a, b)
    with a strictly before b."""
    if sorted(sequence) != sorted(names):
        return False
    pos = {n: i for i, n in enumerate(sequence)}
    return all(pos[a] < pos[b] for a, b in edges)


# ---------------------------------------------------------------------------
# defeasible configurations


def _holds(rule, legal) -> bool:
    return all((lit.atom in legal) == lit.positive for lit in rule.body)


def _clash(cfg, legal, dom, sub) -> bool:
    """The dominating rule's conclusion clashes with the other's: some
    inconsistent set holds both, and all its other members are legal."""
    cd, cs = dom.head, sub.head
    if cd == cs:
        return False
    return any(
        cd in k and cs in k and all(a in legal for a in k if a != cs) for k in cfg.inconsistent
    )


def is_legal_model(cfg, legal: frozenset, valid: frozenset) -> bool:
    """The defining conditions of a legal model, read off the paper:
    legal atoms are exactly the facts and the conclusions of valid
    rules, a valid rule applies, and a rule that applies is valid
    unless a modifier excludes it, while an excluded rule is not valid."""
    rules = {r.id: r for r in cfg.rules}
    if any(i not in rules or rules[i].head != c for i, c in valid):
        return False
    if legal != frozenset(cfg.facts) | {c for _, c in valid}:
        return False
    valid_ids = {i for i, _ in valid}
    excluded = set()
    for m in cfg.modifiers:
        if m.kind == "despite":
            if _holds(rules[m.second], legal):
                excluded.add(m.first)
        elif m.kind == "strong_subject_to":
            if m.first in valid_ids:
                excluded.add(m.second)
        elif m.kind == "subject_to":
            if m.first in valid_ids and _clash(cfg, legal, rules[m.first], rules[m.second]):
                excluded.add(m.second)
    for r in cfg.rules:
        if r.id in valid_ids:
            if not _holds(r, legal) or r.id in excluded:
                return False
        elif _holds(r, legal) and r.id not in excluded:
            return False
    return True


def legal_models(cfg) -> set:
    """Every legal model, as (is_legal, legally_valid) pairs.  A model
    is fixed by its set of valid rules, so 2^rules candidates suffice."""
    pairs = [(r.id, r.head) for r in cfg.rules]
    out = set()
    for bits in itertools.product((False, True), repeat=len(pairs)):
        valid = frozenset(p for p, b in zip(pairs, bits) if b)
        legal = frozenset(cfg.facts) | {c for _, c in valid}
        if is_legal_model(cfg, legal, valid):
            out.add((legal, valid))
    return out


def stable_models(ground) -> set:
    """Stable models of a ground normal program, by the definition:
    M is stable when it is the least model of the reduct by M.  Only
    rule heads can be in M, so candidates range over sets of heads."""
    heads = sorted({g.head for g in ground}, key=str)
    out = set()
    for bits in itertools.product((False, True), repeat=len(heads)):
        cand = frozenset(h for h, b in zip(heads, bits) if b)
        reduct = [(g.head, g.pos) for g in ground if not any(a in cand for a in g.neg)]
        least: set = set()
        grew = True
        while grew:
            grew = False
            for h, pos in reduct:
                if h not in least and all(a in least for a in pos):
                    least.add(h)
                    grew = True
        if least == cand:
            out.add(cand)
    return out
