"""Hand-rolled reference implementations used to cross-check the package.

Everything in this file is written in the most naive way that could
possibly work, independently of the code under test, so that a bug
would have to be made twice (and identically) to slip through.
"""

import re
from dataclasses import replace
from itertools import product

from normlog.asp import (
    Atom,
    ConfigError,
    GroundRule,
    LegalModel,
    TVar,
    axiom_violations,
)
from normlog.models import Interpretation, ModelError, ResourceCapError
from normlog.parser import KEYWORDS, LParseError, Token
from normlog.smtlib import SmtError, emit_smtlib, smt_decimal, smt_sort, smt_symbol
from normlog.syntax import (
    ROOT_CLASS,
    And,
    App,
    BoolLit,
    BoolT,
    ClassT,
    Cmp,
    Eq,
    Exists,
    FieldAccess,
    FloatLit,
    Forall,
    FunT,
    IfThenElse,
    Implies,
    IntLit,
    IntT,
    Lambda,
    Loc,
    Not,
    Or,
    StringLit,
    Var,
    atom_parts,
    char_pred_name,
    children,
    free_vars,
    print_expr,
    uncurry,
)
from normlog.typecheck import is_sort, sort_of


# ---------------------------------------------------------------------------
# propositional truth tables


def _int_lit(x):
    return x.value if isinstance(x, IntLit) else None


def prop_atoms(e):
    """The propositional atoms of a quantifier-free formula, keyed by
    their printed form.  Comparisons between integer literals fold to
    constants and do not count as atoms."""
    out = {}

    def walk(x):
        if isinstance(x, (And, Or, Implies)):
            walk(x.left)
            walk(x.right)
        elif isinstance(x, Not):
            walk(x.arg)
        elif isinstance(x, BoolLit):
            pass
        elif (
            isinstance(x, (Eq, Cmp))
            and _int_lit(x.left) is not None
            and _int_lit(x.right) is not None
        ):
            pass
        else:
            out[print_expr(x)] = x

    walk(e)
    return out


def eval_prop(e, val):
    """Evaluate a quantifier-free formula under a valuation that maps
    printed atoms to booleans."""
    if isinstance(e, BoolLit):
        return e.value
    if isinstance(e, Not):
        return not eval_prop(e.arg, val)
    if isinstance(e, And):
        return eval_prop(e.left, val) and eval_prop(e.right, val)
    if isinstance(e, Or):
        return eval_prop(e.left, val) or eval_prop(e.right, val)
    if isinstance(e, Implies):
        return (not eval_prop(e.left, val)) or eval_prop(e.right, val)
    if isinstance(e, (Eq, Cmp)):
        lhs, rhs = _int_lit(e.left), _int_lit(e.right)
        if lhs is not None and rhs is not None:
            if isinstance(e, Eq):
                return lhs == rhs
            return {
                "<": lhs < rhs,
                "<=": lhs <= rhs,
                ">": lhs > rhs,
                ">=": lhs >= rhs,
            }[e.op]
    key = print_expr(e)
    if key not in val:
        raise KeyError(f"no value for atom {key!r}")
    return val[key]


def equivalent(e1, e2, implications=()):
    """Truth-table equivalence of two quantifier-free formulas.

    implications: pairs (a, b) of printed atoms meaning "a forces b";
    valuations violating one are skipped.  Returns (True, None) or
    (False, first offending valuation).
    """
    keys = sorted(set(prop_atoms(e1)) | set(prop_atoms(e2)))
    for bits in product((False, True), repeat=len(keys)):
        val = dict(zip(keys, bits))
        if any(val.get(a, False) and not val.get(b, False) for a, b in implications):
            continue
        if eval_prop(e1, val) != eval_prop(e2, val):
            return False, val
    return True, None


# ---------------------------------------------------------------------------
# graph checks


def is_topological(sequence, edges):
    """True when every edge (a, b) has a strictly before b in sequence."""
    pos = {n: i for i, n in enumerate(sequence)}
    return all(a in pos and b in pos and pos[a] < pos[b] for a, b in edges)


def digraph_has_cycle(nodes, edges):
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    state = dict.fromkeys(nodes, 0)  # 0 unvisited, 1 on stack, 2 done

    def visit(n):
        state[n] = 1
        for m in succ.get(n, ()):
            if state[m] == 1 or (state[m] == 0 and visit(m)):
                return True
        state[n] = 2
        return False

    return any(state[n] == 0 and visit(n) for n in list(nodes))


# ---------------------------------------------------------------------------
# negation normal form, for the monotonicity cross-check


def to_nnf(e, neg=False):
    """Push negations down to atoms.  Only the pure first-order Boolean
    skeleton is handled; atoms pass through untouched."""
    if isinstance(e, Not):
        return to_nnf(e.arg, not neg)
    if isinstance(e, And):
        lhs, rhs = to_nnf(e.left, neg), to_nnf(e.right, neg)
        return Or(lhs, rhs) if neg else And(lhs, rhs)
    if isinstance(e, Or):
        lhs, rhs = to_nnf(e.left, neg), to_nnf(e.right, neg)
        return And(lhs, rhs) if neg else Or(lhs, rhs)
    if isinstance(e, Implies):
        return to_nnf(Or(Not(e.left), e.right), neg)
    if isinstance(e, Forall):
        body = to_nnf(e.body, neg)
        return Exists(e.var, e.var_type, body) if neg else Forall(e.var, e.var_type, body)
    if isinstance(e, Exists):
        body = to_nnf(e.body, neg)
        return Forall(e.var, e.var_type, body) if neg else Exists(e.var, e.var_type, body)
    if isinstance(e, BoolLit):
        return BoolLit(not e.value) if neg else e
    return Not(e) if neg else e


def negated_heads(e):
    """Heads of atoms that sit under a negation once e is in NNF."""
    out = set()

    def walk(x):
        if isinstance(x, Not):
            head = x.arg
            while isinstance(head, App):
                head = head.fn
            if isinstance(head, Var):
                out.add(head.name)
        elif isinstance(x, (And, Or)):
            walk(x.left)
            walk(x.right)
        elif isinstance(x, (Forall, Exists)):
            walk(x.body)

    walk(to_nnf(e))
    return out


# ---------------------------------------------------------------------------
# stable models by exhaustive candidate search


def brute_stable_models(rules):
    """All stable models of a ground normal program, the slow way.

    rules: iterables of (head, pos, neg) where the components are
    hashable tokens.  Every subset of the Herbrand base is tested
    against the reduct fixpoint definition, so keep the base tiny.
    """
    base = set()
    for head, pos, neg in rules:
        base.add(head)
        base.update(pos)
        base.update(neg)
    base = sorted(base, key=str)
    assert len(base) <= 18, "oracle is exponential in the atom count"
    found = []
    for bits in product((False, True), repeat=len(base)):
        cand = frozenset(a for a, b in zip(base, bits) if b)
        reduct = [(h, tuple(pos)) for h, pos, neg in rules if not (set(neg) & cand)]
        lm = set()
        changed = True
        while changed:
            changed = False
            for h, pos in reduct:
                if h not in lm and set(pos) <= lm:
                    lm.add(h)
                    changed = True
        if frozenset(lm) == cand:
            found.append(cand)
    return found


# ---------------------------------------------------------------------------
# configurations: the full legal-model sweep and naive grounding


def sweep_legal_models(cfg):
    """Every legal model of a ground configuration: each subset of the
    atoms that can be legal (facts and conclusions) crossed with each
    subset of the (rule, conclusion) pairs, kept when
    `axiom_violations` finds nothing.  Sorted as `legal_models` sorts."""
    atoms = list(dict.fromkeys([*cfg.facts, *(r.head for r in cfg.rules)]))
    pairs = [(r.id, r.head) for r in cfg.rules]
    assert len(atoms) + len(pairs) <= 16, "oracle is exponential in atoms and rules"
    found = []
    for legal_bits in product((False, True), repeat=len(atoms)):
        legal = frozenset(a for a, b in zip(atoms, legal_bits) if b)
        for valid_bits in product((False, True), repeat=len(pairs)):
            valid = frozenset(p for p, b in zip(pairs, valid_bits) if b)
            model = LegalModel(legal, valid)
            if not axiom_violations(cfg, model):
                found.append(model)
    return sorted(found, key=LegalModel.key)


def validity_sweep_legal_models(cfg):
    """Every legal model of a ground configuration by the validity-set
    sweep: each of the 2^rules sets of valid rules, with the facts and
    their conclusions as the legal atoms, kept when `axiom_violations`
    finds nothing.  Sorted as `legal_models` sorts."""
    pairs = [(r.id, r.head) for r in cfg.rules]
    assert len(pairs) <= 16, "oracle is exponential in the rules"
    facts = frozenset(cfg.facts)
    found = []
    for valid_bits in product((False, True), repeat=len(pairs)):
        valid = frozenset(p for p, b in zip(pairs, valid_bits) if b)
        model = LegalModel(facts.union(c for _, c in valid), valid)
        if not axiom_violations(cfg, model):
            found.append(model)
    return sorted(found, key=LegalModel.key)


def scan_axiom_violations(cfg, model):
    """`axiom_violations` as it was first written: for each rule every
    modifier is scanned, and for each subjection every inconsistent
    set, so one check is quadratic in the configuration.  The same
    messages in the same order."""
    if not cfg.is_ground():
        raise ConfigError("legal models are only defined for ground configurations")
    legal, valid = model.is_legal, model.legally_valid
    rmap = {r.id: r for r in cfg.rules}

    def holds(r):
        return all((lit.atom in legal) == lit.positive for lit in r.body)

    def conflict(dom, sub):
        cd, cs = rmap[dom].head, rmap[sub].head
        return cd != cs and any(
            cd in k and cs in k and all(a in legal for a in k if a != cs)
            for k in cfg.inconsistent
        )

    def is_valid(i):
        return (i, rmap[i].head) in valid

    out = []
    for i, c in valid:
        if i not in rmap:
            out.append(f"validity of unknown rule {i}")
        elif rmap[i].head != c:
            out.append(f"rule {i} held valid for {c}, but concludes {rmap[i].head}")
    for a in cfg.facts:
        if a not in legal:
            out.append(f"fact-legality: fact {a} is not legal")
    for i, c in valid:
        if i not in rmap:
            continue
        if not holds(rmap[i]):
            out.append(f"valid-rule-support: rule {i} is valid but its precondition fails")
        if c not in legal:
            out.append(f"valid-rule-support: rule {i} is valid but {c} is not legal")
    concluded = {c for _, c in valid}
    for a in legal:
        if a not in cfg.facts and a not in concluded:
            out.append(f"legality-support: {a} is legal but unsupported")
    for m in cfg.modifiers:
        if m.kind == "despite":
            if holds(rmap[m.second]) and is_valid(m.first):
                out.append(
                    f"despite-exclusion: rule {m.second} applies, so rule {m.first} must not be valid"
                )
        elif m.kind == "strong_subject_to":
            if is_valid(m.first) and is_valid(m.second):
                out.append(
                    f"strong-exclusion: rule {m.first} is valid, so rule {m.second} must not be valid"
                )
        elif m.kind == "subject_to":
            if is_valid(m.first) and conflict(m.first, m.second) and is_valid(m.second):
                out.append(
                    f"conflict-exclusion: rule {m.first} is valid and prevails, so "
                    f"rule {m.second} must not be valid"
                )
    for r in cfg.rules:
        if not holds(r) or (r.id, r.head) in valid:
            continue
        excused = any(
            (m.kind == "despite" and m.first == r.id and holds(rmap[m.second]))
            or (m.kind == "strong_subject_to" and m.second == r.id and is_valid(m.first))
            or (
                m.kind == "subject_to"
                and m.second == r.id
                and is_valid(m.first)
                and conflict(m.first, r.id)
            )
            for m in cfg.modifiers
        )
        if not excused:
            out.append(
                f"exclusion-justification: rule {r.id} applies and is not valid, "
                f"but nothing excludes it"
            )
    return out


def _vars(t):
    if isinstance(t, TVar):
        return {t.name}
    if isinstance(t, Atom):
        return set().union(*map(_vars, t.args))
    return set()


def _subst(t, b):
    if isinstance(t, TVar):
        return b[t.name]
    if isinstance(t, Atom):
        return Atom(t.pred, tuple(_subst(a, b) for a in t.args))
    return t


def _match(pattern, value, b):
    """`b` extended so that `pattern` instantiates to `value`, or None."""
    if isinstance(pattern, TVar):
        if pattern.name in b:
            return b if b[pattern.name] == value else None
        return {**b, pattern.name: value}
    if isinstance(pattern, Atom):
        if not isinstance(value, Atom) or pattern.pred != value.pred:
            return None
        if len(pattern.args) != len(value.args):
            return None
        for pa, va in zip(pattern.args, value.args):
            b = _match(pa, va, b)
            if b is None:
                return None
        return b
    return b if pattern == value else None


def reference_ground_program(p, instance_cap=1_000_000):
    """The ground instances of an answer set program by naive bottom-up
    evaluation: every round matches every clause against every atom
    derived so far, until a round adds nothing.  The instances are
    those `_ground_program` promises, sorted by their text; this order
    is the oracle's own, as `_ground_program` keeps its instances in
    derivation order, so compare the two as sets.  Errors may differ
    where an unsafe clause races another one or the instance cap: a
    clause here also matches atoms derived earlier in the same round,
    so for ``u(X) :- f(a).  f(a).  v(X) :- f(a).`` this names ``v(X)``
    where `_ground_program` names ``u(X)``."""
    possible = set()
    instances = set()

    def body_matches(body, b):
        if not body:
            yield b
            return
        lit, rest = body[0], body[1:]
        if not lit.positive:
            if _vars(lit.atom) - set(b):
                raise ConfigError(
                    f"unsafe clause: variable in negative literal {lit} not bound "
                    f"by a positive literal"
                )
            yield from body_matches(rest, b)
            return
        for v in list(possible):
            nb = _match(lit.atom, v, b)
            if nb is not None:
                yield from body_matches(rest, nb)

    changed = True
    while changed:
        changed = False
        for r in p.rules:
            pos = [l for l in r.body if l.positive]
            neg = [l for l in r.body if not l.positive]
            for b in body_matches(tuple(pos + neg), {}):
                if _vars(r.head) - set(b):
                    raise ConfigError(f"unsafe clause: unbound variable in head {r.head}")
                g = GroundRule(
                    _subst(r.head, b),
                    tuple(_subst(l.atom, b) for l in pos),
                    tuple(_subst(l.atom, b) for l in neg),
                )
                if g not in instances:
                    instances.add(g)
                    if len(instances) > instance_cap:
                        raise ResourceCapError(
                            f"grounding exceeded {instance_cap} rule instances"
                        )
                    changed = True
                if g.head not in possible:
                    possible.add(g.head)
                    changed = True

    def key(g):
        return (str(g.head), tuple(map(str, g.pos)), tuple(map(str, g.neg)))

    return [
        GroundRule(g.head, g.pos, tuple(a for a in g.neg if a in possible))
        for g in sorted(instances, key=key)
    ]


# ---------------------------------------------------------------------------
# expressions by walking the tree


def eval_expr(e, tables, carriers, ints, binding=None):
    """Evaluate a closed (or binding-closed) formula/term to a Python
    value: bool, int, or a carrier element name.  The reference the
    compiled closures of normlog.models are tested against."""
    b = binding or {}

    def domain(t):
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

    def ev(e, b):
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


def tree_free_vars(e, bound=frozenset()):
    """Free names of an expression by walking it as a tree."""
    if isinstance(e, Var):
        return set() if e.name in bound else {e.name}
    if isinstance(e, (BoolLit, IntLit, FloatLit, StringLit)):
        return set()
    if isinstance(e, Not):
        return tree_free_vars(e.arg, bound)
    if isinstance(e, (And, Or, Implies, Eq, Cmp)):
        return tree_free_vars(e.left, bound) | tree_free_vars(e.right, bound)
    if isinstance(e, App):
        return tree_free_vars(e.fn, bound) | tree_free_vars(e.arg, bound)
    if isinstance(e, (Lambda, Forall, Exists)):
        return tree_free_vars(e.body, bound | {e.var})
    if isinstance(e, IfThenElse):
        return (
            tree_free_vars(e.cond, bound)
            | tree_free_vars(e.then, bound)
            | tree_free_vars(e.other, bound)
        )
    assert isinstance(e, FieldAccess), e
    return tree_free_vars(e.obj, bound)


# ---------------------------------------------------------------------------
# finite models by whole-table assignment and tree-walking evaluation


def carriers_and_domain(fs, sizes, ints):
    """The carrier of every sort of a formula set, named as the
    enumerator names them (fixed constants, else `s.lower()` plus an
    index), and the domain of a type over those carriers and `ints`."""
    fixed = fs.fixed_map()
    carriers = {
        s: fixed[s] if s in fixed else tuple(f"{s.lower()}{i}" for i in range(sizes[s]))
        for s in fs.sorts
    }

    def domain(t):
        if isinstance(t, ClassT):
            return carriers[t.name]
        if isinstance(t, BoolT):
            return (False, True)
        assert isinstance(t, IntT) and ints, t
        return tuple(ints)

    return carriers, domain


def reference_models(fs, sizes, ints=()):
    """The models of a formula set, in the order the enumerator must
    yield them, by plain whole-table search: every free symbol takes
    each whole table from product(codomain, repeat=cells) in turn, and
    a formula is evaluated with the tree-walking eval_expr as soon as
    the last free symbol it mentions has a table.  No budget; keep the
    inputs small."""
    int_values = tuple(dict.fromkeys(ints))
    carriers, domain = carriers_and_domain(fs, sizes, int_values)
    fixed = fs.fixed_map()
    tables = {}
    free = []
    for d in fs.decls:
        args, cod = uncurry(d.type)
        if d.name in fs.char_true:
            tables[d.name] = {(v,): True for v in domain(args[0])}
        elif not args and isinstance(cod, ClassT) and d.name in fixed.get(cod.name, ()):
            tables[d.name] = {(): d.name}
        else:
            free.append((d.name, list(product(*map(domain, args))), domain(cod)))

    index = {name: i for i, (name, _, _) in enumerate(free)}
    stage = {}
    for _, expr in fs.formulas:
        refs = [index[n] for n in free_vars(expr) if n in index]
        stage.setdefault(max(refs, default=-1), []).append(expr)

    def holds_at(k):
        return all(eval_expr(e, tables, carriers, int_values) for e in stage.get(k, ()))

    found = []

    def search(k):
        if k == len(free):
            found.append(
                Interpretation(dict(carriers), int_values, {n: dict(t) for n, t in tables.items()})
            )
            return
        name, cells, cod = free[k]
        for combo in product(cod, repeat=len(cells)):
            tables[name] = dict(zip(cells, combo))
            if holds_at(k):
                search(k + 1)
        del tables[name]

    if holds_at(-1):
        search(0)
    return found


def declared_key(problem):
    """A sort key that puts the models of `problem`, found in any search
    order, in the order of `reference_models`: the codomain index of
    every free cell, free symbols in declared order, cells in order."""
    shapes = {name: (cells, values) for name, cells, values in problem._free}
    declared = [(name, *shapes[name]) for name in problem._names if name in shapes]

    def key(interp):
        return tuple(
            values.index(interp.tables[name][cell]) for name, cells, values in declared for cell in cells
        )

    return key


def renamed(interp, fs, renaming):
    """`interp` with the carrier elements renamed: `renaming` maps a
    sort to a dict from each of its elements to its new name, which is
    applied to every cell argument and value of that sort, as the
    declared types of `fs` give them."""

    def rename(x, t):
        return renaming[t.name][x] if isinstance(t, ClassT) and t.name in renaming else x

    tables = {}
    for d in fs.decls:
        args, cod = uncurry(d.type)
        tables[d.name] = {
            tuple(rename(x, t) for x, t in zip(cell, args)): rename(v, cod)
            for cell, v in interp.tables[d.name].items()
        }
    return Interpretation(dict(interp.carriers), interp.ints, tables)


def reference_stages(problem):
    """What `problem._stages` must be, staged from `free_vars`: a formula
    watches the free symbols among its free names and is staged at the
    last of them.  The closures are the problem's own, looked up in its
    compiler's memo, so that the two can be compared by identity."""
    index = {name: k for k, (name, _, _) in enumerate(problem._free)}
    staged = []
    for _, expr in problem._fs.formulas:
        refs = {index[n] for n in free_vars(expr) if n in index}
        staged.append((max(refs, default=-1), refs, problem.compiler.compile(expr)))
    is_false = [c.is_false for _, _, c in staged]
    prune_after = [0] * len(staged)
    last_unsafe = -2
    for i in sorted(range(len(staged)), key=lambda i: staged[i][0]):
        prune_after[i] = last_unsafe
        if not staged[i][2].safe:
            last_unsafe = staged[i][0]

    flat = []
    for k, (name, cells, values) in enumerate(problem._free):
        early = [
            (stage, fn)
            for (stage, refs, c), after, fn in zip(staged, prune_after, is_false)
            if c.safe and k in refs and after < k and c.false_from <= k
        ]
        complete = [
            fn
            for (stage, _, c), fn in zip(staged, is_false)
            if stage == k and (not c.safe or c.false_from <= k)
        ] + [fn for stage, fn in early if stage != k]
        early_fns = [fn for _, fn in early]
        table = problem.symbols[name].table
        for i, cell in enumerate(cells):
            flat.append((table, cell, values, complete if i == len(cells) - 1 else early_fns))

    initial = [fn for (stage, _, _), fn in zip(staged, is_false) if stage == -1]
    return initial, flat


# ---------------------------------------------------------------------------
# formula translation and SMT-LIB text by walking the tree


def tree_rewrite_fields(e, memo=None):
    """Attribute access as accessor application, rebuilding every node
    of the tree, shared or not.  `memo` is accepted and ignored."""
    if isinstance(e, FieldAccess):
        return App(Var(e.fieldname), tree_rewrite_fields(e.obj))
    if isinstance(e, Not):
        return replace(e, arg=tree_rewrite_fields(e.arg))
    if isinstance(e, (And, Or, Implies, Eq, Cmp)):
        return replace(e, left=tree_rewrite_fields(e.left), right=tree_rewrite_fields(e.right))
    if isinstance(e, App):
        return replace(e, fn=tree_rewrite_fields(e.fn), arg=tree_rewrite_fields(e.arg))
    if isinstance(e, (Lambda, Forall, Exists)):
        return replace(e, body=tree_rewrite_fields(e.body))
    if isinstance(e, IfThenElse):
        return replace(
            e,
            cond=tree_rewrite_fields(e.cond),
            then=tree_rewrite_fields(e.then),
            other=tree_rewrite_fields(e.other),
        )
    return e


def tree_guard_quantifiers(e, env, memo=None):
    """Subclass quantifiers as guarded sort quantifiers, rebuilding
    every node of the tree.  `memo` is accepted and ignored."""

    def guard(e):
        if isinstance(e, (Forall, Exists)):
            body = guard(e.body)
            t = e.var_type
            if isinstance(t, ClassT) and t.name != ROOT_CLASS and not is_sort(t.name, env.classes):
                sort = sort_of(t.name, env.classes)
                test = App(Var(char_pred_name(t.name)), Var(e.var))
                if isinstance(e, Forall):
                    return Forall(e.var, ClassT(sort), Implies(test, body))
                return Exists(e.var, ClassT(sort), And(test, body))
            return replace(e, body=body)
        if isinstance(e, Not):
            return replace(e, arg=guard(e.arg))
        if isinstance(e, (And, Or, Implies, Eq, Cmp)):
            return replace(e, left=guard(e.left), right=guard(e.right))
        if isinstance(e, App):
            return replace(e, fn=guard(e.fn), arg=guard(e.arg))
        if isinstance(e, Lambda):
            return replace(e, body=guard(e.body))
        if isinstance(e, IfThenElse):
            return replace(e, cond=guard(e.cond), then=guard(e.then), other=guard(e.other))
        return e

    return guard(e)


def _chain(e, kind):
    if isinstance(e, kind):
        return _chain(e.left, kind) + _chain(e.right, kind)
    return [e]


def _implies_chain(e):
    if isinstance(e, Implies):
        return [e.left] + _implies_chain(e.right)
    return [e]


def tree_expr_to_sexp(e, memo=None):
    """The SMT-LIB term of an expression, rendering every occurrence of
    a shared subterm again.  `memo` is accepted and ignored."""
    if isinstance(e, Var):
        return smt_symbol(e.name)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, IntLit):
        return str(e.value) if e.value >= 0 else f"(- {-e.value})"
    if isinstance(e, FloatLit):
        return smt_decimal(e.value)
    if isinstance(e, StringLit):
        return '"' + e.value.replace('"', '""') + '"'
    if isinstance(e, Not):
        return f"(not {tree_expr_to_sexp(e.arg)})"
    if isinstance(e, And):
        return "(and " + " ".join(tree_expr_to_sexp(x) for x in _chain(e, And)) + ")"
    if isinstance(e, Or):
        return "(or " + " ".join(tree_expr_to_sexp(x) for x in _chain(e, Or)) + ")"
    if isinstance(e, Implies):
        return "(=> " + " ".join(tree_expr_to_sexp(x) for x in _implies_chain(e)) + ")"
    if isinstance(e, Eq):
        return f"(= {tree_expr_to_sexp(e.left)} {tree_expr_to_sexp(e.right)})"
    if isinstance(e, Cmp):
        return f"({e.op} {tree_expr_to_sexp(e.left)} {tree_expr_to_sexp(e.right)})"
    if isinstance(e, App):
        parts = atom_parts(e)
        if parts is None:
            raise SmtError("cannot emit application of a non-symbol")
        head, args = parts
        return f"({smt_symbol(head)} " + " ".join(tree_expr_to_sexp(a) for a in args) + ")"
    if isinstance(e, (Forall, Exists)):
        kind = "forall" if isinstance(e, Forall) else "exists"
        binders = []
        body = e
        while isinstance(body, type(e)):
            binders.append(f"({smt_symbol(body.var)} {smt_sort(body.var_type)})")
            body = body.body
        return f"({kind} (" + " ".join(binders) + f") {tree_expr_to_sexp(body)})"
    if isinstance(e, IfThenElse):
        return (
            f"(ite {tree_expr_to_sexp(e.cond)} {tree_expr_to_sexp(e.then)} "
            f"{tree_expr_to_sexp(e.other)})"
        )
    raise SmtError(f"cannot emit {type(e).__name__} nodes to SMT-LIB")


def tree_emit_smtlib(fs, goal=None):
    """The script of `emit_smtlib` with every formula written in full
    by `tree_expr_to_sexp`.  Sorts, symbols and axioms come from the
    emitter itself, run on the formula set without its formulas."""
    lines = emit_smtlib(replace(fs, formulas=()), None).splitlines()[:-2]
    for name, e in fs.formulas:
        lines += [f"; {name}", f"(assert {tree_expr_to_sexp(e)})"]
    if goal is not None:
        gname, mode, e = goal
        if mode == "valid":
            lines += [f"; goal {gname} (validity: negated, sat = countermodel)",
                      f"(assert (not {tree_expr_to_sexp(e)}))"]
        else:
            lines += [f"; goal {gname} (satisfiability)", f"(assert {tree_expr_to_sexp(e)})"]
    return "\n".join(lines + ["(check-sat)", "(get-model)"]) + "\n"


# An SMT-LIB token as written: a parenthesis, a |symbol|, a "string"
# with "" escapes, or a simple symbol or numeral.
_RAW_TOKEN = re.compile(r'[()]|\|[^|]*\||"(?:[^"]|"")*"|[^\s()|";]+')


def _raw_sexp(line):
    """The one s-expression of a line, as nested lists of tokens."""
    stack = [[]]
    for tok in _RAW_TOKEN.findall(line):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    (form,) = stack[0]
    return form


def _print_sexp(t):
    return t if isinstance(t, str) else "(" + " ".join(_print_sexp(x) for x in t) + ")"


def _names(t):
    return {t} if isinstance(t, str) else set().union(*map(_names, t))


def _subst_sexp(t, sub):
    """`t` with the free occurrences of each name in `sub` replaced."""
    if isinstance(t, str):
        return sub.get(t, t)
    if len(t) == 3 and t[0] in ("forall", "exists"):
        bound = {b[0] for b in t[1]}
        inner = {v: a for v, a in sub.items() if v not in bound}
        for a in inner.values():
            assert not bound & _names(a), "the expansion would capture a variable"
        return [t[0], t[1], _subst_sexp(t[2], inner)]
    return [_subst_sexp(x, sub) for x in t]


def _expand(t, defs, sorts):
    """`t` with each use of a name in `defs` replaced by its body, the
    arguments substituted.  `sorts` maps each name bound around `t` to
    its binder's sort: each argument must be a name bound with the sort
    of the parameter it is passed for."""
    if isinstance(t, str):
        if t in defs:
            params, body = defs[t]
            assert not params, f"{t} used without its arguments"
            return body
        return t
    if len(t) == 3 and t[0] in ("forall", "exists"):
        inner = {**sorts, **{v: sort for v, sort in t[1]}}
        return [t[0], t[1], _expand(t[2], defs, inner)]
    if t and isinstance(t[0], str) and t[0] in defs:
        params, body = defs[t[0]]
        assert len(t) - 1 == len(params), f"{t[0]} applied to {len(t) - 1} arguments"
        for (v, sort), a in zip(params, t[1:]):
            bound = sorts.get(a) if isinstance(a, str) else None
            assert bound == sort, f"{t[0]} takes {v} of sort {sort}, passed {_print_sexp(a)} of sort {bound}"
        args = [_expand(x, defs, sorts) for x in t[1:]]
        return _subst_sexp(body, {v: a for (v, _), a in zip(params, args)})
    return [_expand(x, defs, sorts) for x in t]


def expand_definitions(script):
    """`script` with each `define-fun` line dropped and each use of the
    defined name replaced by the definition's body, its parameters
    substituted.  Each argument must be a variable bound where it is
    passed with the sort the definition gives its parameter.  Every
    other line is printed again from its s-expression, so a script
    without definitions comes back as is."""
    defs = {}
    out = []
    for line in script.splitlines():
        if not line.startswith("("):
            out.append(line)
            continue
        form = _raw_sexp(line)
        if form[0] == "define-fun":
            _, name, params, _sort, body = form
            params = [(v, sort) for v, sort in params]
            defs[name] = (params, _expand(body, defs, dict(params)))
        else:
            out.append(_print_sexp(_expand(form, defs, {})))
    return "\n".join(out) + "\n"


def iter_subexprs(e):
    """Depth-first iteration over an expression and its subterms, one
    item per occurrence."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(children(x)))


# Precedence levels of the printer, loosest first.
_LOW, _IMPLIES, _OR, _AND, _CMP, _NOT, _APP, _ATOM = range(8)


def _parens(s, need):
    return f"({s})" if need else s


def tree_print_expr(e, ctx=_LOW):
    """Concrete syntax of an expression by recursion over the tree, in
    a context of precedence `ctx`: every occurrence of a shared subterm
    is printed again."""
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, FloatLit):
        return repr(e.value)
    if isinstance(e, StringLit):
        return '"' + e.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(e, Not):
        return _parens("not " + tree_print_expr(e.arg, _NOT), ctx > _NOT)
    if isinstance(e, And):
        s = tree_print_expr(e.left, _AND) + " && " + tree_print_expr(e.right, _AND + 1)
        return _parens(s, ctx > _AND)
    if isinstance(e, Or):
        s = tree_print_expr(e.left, _OR) + " || " + tree_print_expr(e.right, _OR + 1)
        return _parens(s, ctx > _OR)
    if isinstance(e, Implies):
        s = tree_print_expr(e.left, _IMPLIES + 1) + " --> " + tree_print_expr(e.right, _IMPLIES)
        return _parens(s, ctx > _IMPLIES)
    if isinstance(e, Eq):
        s = tree_print_expr(e.left, _CMP + 1) + " == " + tree_print_expr(e.right, _CMP + 1)
        return _parens(s, ctx > _CMP)
    if isinstance(e, Cmp):
        s = tree_print_expr(e.left, _CMP + 1) + f" {e.op} " + tree_print_expr(e.right, _CMP + 1)
        return _parens(s, ctx > _CMP)
    if isinstance(e, App):
        s = tree_print_expr(e.fn, _APP) + " " + tree_print_expr(e.arg, _ATOM)
        return _parens(s, ctx > _APP)
    if isinstance(e, Lambda):
        ann = str(e.var_type)
        if isinstance(e.var_type, FunT):
            ann = f"({ann})"
        s = f"\\{e.var} : {ann} -> " + tree_print_expr(e.body, _LOW)
        return _parens(s, ctx > _LOW)
    if isinstance(e, IfThenElse):
        s = (
            "if "
            + tree_print_expr(e.cond, _LOW)
            + " then "
            + tree_print_expr(e.then, _LOW)
            + " else "
            + tree_print_expr(e.other, _LOW)
        )
        return _parens(s, ctx > _LOW)
    if isinstance(e, Forall):
        s = f"forall {e.var}: {e.var_type}. " + tree_print_expr(e.body, _LOW)
        return _parens(s, ctx > _LOW)
    if isinstance(e, Exists):
        s = f"exists {e.var}: {e.var_type}. " + tree_print_expr(e.body, _LOW)
        return _parens(s, ctx > _LOW)
    if isinstance(e, FieldAccess):
        obj = tree_print_expr(e.obj, _ATOM)
        if not isinstance(e.obj, (Var, FieldAccess)):
            obj = f"({obj})"
        return obj + "." + e.fieldname
    raise TypeError(f"unknown expression node {type(e).__name__}")


def char_tokenize(text):
    """SMT-LIB tokens by a character loop: comments and whitespace
    dropped, |symbols| kept quoted, strings kept quoted with their ""
    escapes undone."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append(c)
            i += 1
        elif c == "|":
            j = text.find("|", i + 1)
            if j < 0:
                raise SmtError("unterminated |symbol|")
            toks.append(text[i : j + 1])
            i = j + 1
        elif c == '"':
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise SmtError("unterminated string literal")
                if text[j] == '"':
                    if j + 1 < n and text[j + 1] == '"':
                        buf.append('"')
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            toks.append('"' + "".join(buf) + '"')
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();|\"":
                j += 1
            toks.append(text[i:j])
            i = j
    return toks


def l4_char_tokenize(text):
    """Rule-language tokens by a loop that moves one character at a
    time and counts lines and columns as it goes."""
    symbols = ["-->", "->", "&&", "||", "==", "<=", ">=", ":=",
               "{", "}", "(", ")", "[", "]", "<", ">", ",", ":", ".", "\\"]
    toks = []
    i, n = 0, len(text)
    line, col = 1, 1

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        loc = Loc(line, col)
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            if j < n and text[j] == "+":
                j += 1
            word = text[i:j]
            advance(j - i)
            toks.append(Token("kw" if word in KEYWORDS else "ident", word, loc))
            continue
        if c.isdecimal() or (c == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1 if c == "-" else i
            while j < n and text[j].isdecimal():
                j += 1
            is_float = False
            if j + 1 < n and text[j] == "." and text[j + 1].isdecimal():
                is_float = True
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            word = text[i:j]
            advance(j - i)
            if is_float:
                toks.append(Token("float", word, loc, float(word)))
            else:
                toks.append(Token("int", word, loc, int(word)))
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise LParseError(loc, "unterminated string literal")
            toks.append(Token("string", text[i : j + 1], loc, "".join(out)))
            advance(j + 1 - i)
            continue
        for sym in symbols:
            if text.startswith(sym, i):
                advance(len(sym))
                toks.append(Token("sym", sym, loc))
                break
        else:
            raise LParseError(loc, f"unexpected character {c!r}")
    toks.append(Token("eof", "", Loc(line, col)))
    return toks
