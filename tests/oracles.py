"""Hand-rolled reference implementations used to cross-check the package.

Everything in this file is written in the most naive way that could
possibly work, independently of the code under test, so that a bug
would have to be made twice (and identically) to slip through.
"""

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
from normlog.smtlib import SmtError, smt_decimal, smt_sort, smt_symbol
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
    IfThenElse,
    Implies,
    IntLit,
    IntT,
    Lambda,
    Not,
    Or,
    StringLit,
    Var,
    atom_parts,
    char_pred_name,
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
    derived so far, until a round adds nothing.  Instances, their order
    and the errors are those `_ground_program` promises."""
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
