"""Subtyping, expression typing, and module elaboration.

The class hierarchy is a forest rooted at the implicit top class
``Class``.  The immediate subclasses of ``Class`` are the sorts; every
other class denotes a subset of its sort, carved out by a generated
characteristic predicate.  Elaboration materializes that view:

* ``isC : S -> Boolean`` is declared for every class ``C`` with sort
  ``S`` (for a sort itself the predicate is trivially true on the whole
  carrier; backends treat it that way),
* each attribute ``f: T`` of class ``C`` is declared as ``f : C -> T``,
* each edge ``C extends B`` with ``B`` below the root yields the class
  inclusion rule ``for x: S if isC x then isB x``.

Generated items carry a ``system`` marker.  Elaboration is idempotent:
anything already present in identical form is skipped, and a user
declaration that coincides with a generated one is simply adopted (and
re-marked as system).  Mismatches are errors.

Builtin scalar types (Boolean, Integer, Float, String) are unrelated to
the class hierarchy and to each other; in particular Integer is not a
subtype of Float.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .syntax import (
    BOOL,
    ROOT_CLASS,
    And,
    App,
    BoolLit,
    BoolT,
    ClassDecl,
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
    Loc,
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
    char_pred_name,
    fun_type,
)


class LTypeError(NormlogError):
    def __init__(self, message: str, loc: Optional[Loc] = None):
        self.loc = loc
        self.message = message
        where = f"{loc}: " if loc else ""
        super().__init__(f"{where}{message}")


@dataclass
class Env:
    """Typing environment: class table plus declared symbol types."""

    classes: dict[str, ClassDecl]
    decls: dict[str, LType]

    @staticmethod
    def from_module(m: RuleModule) -> "Env":
        return Env(
            classes={c.name: c for c in m.classes},
            decls={d.name: d.type for d in m.all_decls()},
        )


def ancestors(name: str, classes: dict[str, ClassDecl]) -> list[str]:
    """Proper ancestors of a class, nearest first, excluding the root."""
    out = []
    seen = {name}
    cur = classes.get(name)
    while cur is not None and cur.parent != ROOT_CLASS:
        if cur.parent in seen:
            raise LTypeError(f"cyclic class hierarchy through '{name}'")
        seen.add(cur.parent)
        out.append(cur.parent)
        cur = classes.get(cur.parent)
        if cur is None:
            raise LTypeError(f"unknown class '{out[-1]}'")
    return out


def sort_of(name: str, classes: dict[str, ClassDecl]) -> str:
    """The sort (immediate subclass of the root) a class belongs to."""
    if name not in classes:
        raise LTypeError(f"unknown class '{name}'")
    chain = [name] + ancestors(name, classes)
    return chain[-1]


def is_sort(name: str, classes: dict[str, ClassDecl]) -> bool:
    c = classes.get(name)
    return c is not None and c.parent == ROOT_CLASS


def is_subtype(t1: LType, t2: LType, classes: dict[str, ClassDecl]) -> bool:
    """The reflexive-transitive subtype relation.

    Classes follow the extends chain up to the root; function types are
    contravariant in the domain and covariant in the codomain; tuple
    types relate componentwise.  Builtins only relate to themselves.
    """
    if t1 == t2:
        return True
    if isinstance(t1, ClassT) and isinstance(t2, ClassT):
        if t1.name != ROOT_CLASS and t1.name not in classes:
            raise LTypeError(f"unknown class '{t1.name}'")
        if t2.name == ROOT_CLASS:
            return True
        if t2.name not in classes:
            raise LTypeError(f"unknown class '{t2.name}'")
        if t1.name == ROOT_CLASS:
            return False
        return t2.name in ancestors(t1.name, classes)
    if isinstance(t1, FunT) and isinstance(t2, FunT):
        return is_subtype(t2.dom, t1.dom, classes) and is_subtype(t1.cod, t2.cod, classes)
    if isinstance(t1, TupleT) and isinstance(t2, TupleT):
        if len(t1.items) != len(t2.items):
            return False
        return all(is_subtype(a, b, classes) for a, b in zip(t1.items, t2.items))
    return False


def comparable(t1: LType, t2: LType, classes: dict[str, ClassDecl]) -> bool:
    return is_subtype(t1, t2, classes) or is_subtype(t2, t1, classes)


_CONNECTIVES = {And: "&&", Or: "||", Implies: "-->"}


def type_of(env: Env, e: Expr, vars: Optional[dict[str, LType]] = None) -> LType:
    """Type of an expression, or an LTypeError describing the mismatch."""
    return _type_of(env, e, vars or {})


def _type_of(env: Env, e: Expr, vs: dict[str, LType]) -> LType:
    """`type_of` under the bound variables `vs`.  A module-level
    function, so that the recursion leaves no reference cycle behind."""
    if isinstance(e, Var):
        if e.name in vs:
            return vs[e.name]
        if e.name in env.decls:
            return env.decls[e.name]
        raise LTypeError(f"unknown identifier '{e.name}'", e.loc)
    if isinstance(e, BoolLit):
        return BOOL
    if isinstance(e, IntLit):
        return IntT()
    if isinstance(e, FloatLit):
        return FloatT()
    if isinstance(e, StringLit):
        return StrT()
    if isinstance(e, Not):
        _expect_bool(env, e.arg, vs, "operand of 'not'")
        return BOOL
    if isinstance(e, (And, Or, Implies)):
        # The left spine in a loop, not a frame per connective: its
        # first operand, then the right operands from the inside out.
        chain = []
        while type(e) in _CONNECTIVES:
            chain.append(e)
            e = e.left
        _expect_bool(env, e, vs, f"left operand of '{_CONNECTIVES[type(chain[-1])]}'")
        for c in reversed(chain):
            _expect_bool(env, c.right, vs, f"right operand of '{_CONNECTIVES[type(c)]}'")
        return BOOL
    if isinstance(e, Eq):
        t1 = _type_of(env, e.left, vs)
        t2 = _type_of(env, e.right, vs)
        if not comparable(t1, t2, env.classes):
            raise LTypeError(f"cannot compare '{t1}' with '{t2}'", e.loc)
        return BOOL
    if isinstance(e, Cmp):
        t1 = _type_of(env, e.left, vs)
        t2 = _type_of(env, e.right, vs)
        ok = (isinstance(t1, IntT) and isinstance(t2, IntT)) or (
            isinstance(t1, FloatT) and isinstance(t2, FloatT)
        )
        if not ok:
            raise LTypeError(f"'{e.op}' needs two Integers or two Floats, got '{t1}' and '{t2}'", e.loc)
        return BOOL
    if isinstance(e, App):
        tf = _type_of(env, e.fn, vs)
        if not isinstance(tf, FunT):
            raise LTypeError(f"'{e.fn}' of type '{tf}' is not a function", e.loc)
        ta = _type_of(env, e.arg, vs)
        if not is_subtype(ta, tf.dom, env.classes):
            raise LTypeError(
                f"argument '{e.arg}' has type '{ta}', expected '{tf.dom}'", e.loc
            )
        return tf.cod
    if isinstance(e, Lambda):
        inner = dict(vs)
        inner[e.var] = e.var_type
        return FunT(e.var_type, _type_of(env, e.body, inner))
    if isinstance(e, (Forall, Exists)):
        inner = dict(vs)
        inner[e.var] = e.var_type
        tb = _type_of(env, e.body, inner)
        if not isinstance(tb, BoolT):
            raise LTypeError(f"quantifier body must be Boolean, got '{tb}'", e.loc)
        return BOOL
    if isinstance(e, IfThenElse):
        _expect_bool(env, e.cond, vs, "condition of 'if'")
        t1 = _type_of(env, e.then, vs)
        t2 = _type_of(env, e.other, vs)
        if is_subtype(t1, t2, env.classes):
            return t2
        if is_subtype(t2, t1, env.classes):
            return t1
        raise LTypeError(f"branches of 'if' have unrelated types '{t1}' and '{t2}'", e.loc)
    if isinstance(e, FieldAccess):
        to = _type_of(env, e.obj, vs)
        if not isinstance(to, ClassT):
            raise LTypeError(f"field access on non-class type '{to}'", e.loc)
        for cname in [to.name] + ancestors(to.name, env.classes):
            c = env.classes.get(cname)
            if c is None:
                continue
            for n, t in c.attrs:
                if n == e.fieldname:
                    return t
        raise LTypeError(f"class '{to.name}' has no attribute '{e.fieldname}'", e.loc)
    raise LTypeError(f"cannot type expression node {type(e).__name__}", getattr(e, "loc", None))


def _expect_bool(env: Env, e: Expr, vs: dict[str, LType], what: str) -> None:
    t = _type_of(env, e, vs)
    if not isinstance(t, BoolT):
        raise LTypeError(f"{what} must be Boolean, got '{t}'", getattr(e, "loc", None))


def inclusion_rule_name(child: str, parent: str) -> str:
    return f"incl'{child}'{parent}"


def elaborate(m: RuleModule) -> RuleModule:
    """Add characteristic predicates, attribute accessors and class
    inclusion rules.  Idempotent.  Rule-name classes (created by
    predicate lifting) are index sets, not user classes, and get no
    characteristic predicate."""
    classes = {c.name: c for c in m.classes}
    decl_types = {d.name: d.type for d in m.all_decls()}
    decl_list = list(m.decls)
    rules = list(m.rules)
    rule_names = {r.name for r in m.rules}

    def add_decl(d: FunDecl) -> None:
        existing = decl_types.get(d.name)
        if existing is None:
            decl_list.append(d)
            decl_types[d.name] = d.type
            return
        if existing != d.type:
            raise LTypeError(
                f"declaration '{d.name} : {existing}' collides with generated "
                f"'{d.name} : {d.type}'"
            )
        # Adopt an identical user declaration as the generated one.
        for i, old in enumerate(decl_list):
            if old.name == d.name and not old.system:
                decl_list[i] = replace(old, system=True)

    for c in m.classes:
        if c.rulename_for is not None:
            continue
        sort = sort_of(c.name, classes)
        add_decl(FunDecl(char_pred_name(c.name), fun_type(ClassT(sort), BOOL), system=True))
        for attr, ty in c.attrs:
            add_decl(FunDecl(attr, fun_type(ClassT(c.name), ty), system=True))

    for c in m.classes:
        if c.rulename_for is not None or c.parent == ROOT_CLASS:
            continue
        name = inclusion_rule_name(c.name, c.parent)
        sort = sort_of(c.name, classes)
        rule = Rule(
            name=name,
            params=(("x", ClassT(sort)),),
            precond=App(Var(char_pred_name(c.name)), Var("x")),
            postcond=App(Var(char_pred_name(c.parent)), Var("x")),
            system=True,
        )
        if name in rule_names:
            existing = next(r for r in rules if r.name == name)
            if existing != rule:
                raise LTypeError(f"rule name '{name}' collides with a generated inclusion rule")
            continue
        rules.append(rule)
        rule_names.add(name)

    return replace(m, decls=tuple(decl_list), rules=tuple(rules))


def typecheck_module(m: RuleModule) -> None:
    """Check every rule body and assertion formula of an elaborated
    module.  Raises LTypeError on the first problem."""
    env = Env.from_module(m)

    for name, ty in env.decls.items():
        _check_type_resolves(ty, env, name)

    for r in m.rules:
        if r.is_bodyless():
            continue
        vars: dict[str, LType] = {}
        for n, t in r.params:
            _check_type_resolves(t, env, f"parameter '{n}' of rule '{r.name}'")
            vars[n] = t
        for part, expr in (("precondition", r.precond), ("conclusion", r.postcond)):
            t = type_of(env, expr, vars)
            if not isinstance(t, BoolT):
                raise LTypeError(
                    f"{part} of rule '{r.name}' must be Boolean, got '{t}'", r.loc
                )

    for a in m.assertions:
        t = type_of(env, a.formula, {})
        if not isinstance(t, BoolT):
            raise LTypeError(f"assertion '{a.name}' must be Boolean, got '{t}'", a.loc)


def _check_type_resolves(t: LType, env: Env, what: str) -> None:
    if isinstance(t, ClassT):
        if t.name != ROOT_CLASS and t.name not in env.classes:
            raise LTypeError(f"unknown type '{t.name}' in {what}")
    elif isinstance(t, FunT):
        _check_type_resolves(t.dom, env, what)
        _check_type_resolves(t.cod, env, what)
    elif isinstance(t, TupleT):
        for it in t.items:
            _check_type_resolves(it, env, what)


def inclusion_map(classes: dict[str, ClassDecl]) -> dict[str, frozenset[str]]:
    """Map each characteristic predicate to the characteristic
    predicates it entails (one per proper ancestor class)."""
    out = {}
    for name in classes:
        if classes[name].rulename_for is not None:
            continue
        ups = ancestors(name, classes)
        out[char_pred_name(name)] = frozenset(char_pred_name(u) for u in ups)
    return out
