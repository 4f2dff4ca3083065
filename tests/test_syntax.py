"""AST helpers, the traversal core, the pretty printer, and module
well-formedness checks."""

import copy
import pickle
import random
from dataclasses import fields, replace

import pytest

import hypothesis.strategies as st
from hypothesis import given

import oracles
from conftest import CASES, load_case
from normlog import syntax
from normlog.parser import parse_expr, parse_module
from normlog.randgen import random_annotated_module
from normlog.syntax import (
    BOOL,
    INT,
    TRUE,
    And,
    App,
    BoolLit,
    ClassT,
    Cmp,
    Diagnostic,
    Eq,
    Exists,
    Expr,
    FieldAccess,
    FloatLit,
    Forall,
    FunT,
    IfThenElse,
    Implies,
    IntLit,
    Lambda,
    Loc,
    Not,
    Or,
    StringLit,
    TupleT,
    Var,
    apply,
    atom_parts,
    check_well_formed,
    children,
    conj,
    free_vars,
    fold,
    fresh_name,
    fun_type,
    print_expr,
    print_module,
    rebuild,
    spine,
    substitute,
    uncurry,
)
from normlog.transform import CycleError, Variant, transform_module
from normlog.typecheck import elaborate


def test_conj_left_nested():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert conj([a, b, c]) == And(And(a, b), c)
    assert conj([a]) == a
    assert conj([]) == TRUE


def test_conjuncts_flattens_nesting():
    a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
    e = And(And(a, And(b, c)), d)
    assert spine(e, And) == [a, b, c, d]
    assert spine(a, And) == [a]
    assert spine(Or(a, Or(And(b, c), d)), Or) == [a, And(b, c), d]


def test_spine_flattens_a_long_chain():
    atoms = [App(Var("p"), Var(f"x{i}")) for i in range(5000)]
    assert spine(conj(atoms), And) == atoms
    right = atoms[-1]
    for x in reversed(atoms[:-1]):
        right = And(x, right)
    assert spine(right, And) == atoms


def test_apply_builds_curried_applications():
    e = apply("maxSp", Var("v"), Var("d"))
    assert e == App(App(Var("maxSp"), Var("v")), Var("d"))
    assert apply("p") == Var("p")


def test_atom_parts():
    assert atom_parts(Var("p")) == ("p", ())
    assert atom_parts(apply("p", Var("x"), IntLit(3))) == ("p", (Var("x"), IntLit(3)))
    assert atom_parts(And(Var("a"), Var("b"))) is None
    assert atom_parts(App(IntLit(1), Var("x"))) is None


def test_fun_type_and_uncurry():
    t = fun_type(ClassT("Car"), INT, BOOL)
    assert t == FunT(ClassT("Car"), FunT(INT, BOOL))
    assert uncurry(t) == ((ClassT("Car"), INT), BOOL)
    assert uncurry(BOOL) == ((), BOOL)


def test_free_vars_respects_binders():
    e = Forall("x", ClassT("Car"), And(apply("p", Var("x")), Var("y")))
    assert free_vars(e) == {"p", "y"}
    lam = Lambda("y", BOOL, App(Var("y"), Var("z")))
    assert free_vars(lam) == {"z"}


def test_substitute_straightforward():
    e = And(Var("x"), apply("p", Var("x")))
    got = substitute(e, {"x": IntLit(5)})
    assert got == And(IntLit(5), apply("p", IntLit(5)))


def test_substitute_leaves_bound_occurrences():
    e = Forall("x", INT, Eq(Var("x"), Var("y")))
    got = substitute(e, {"x": IntLit(1)})
    assert got == e


def test_substitute_avoids_capture():
    # Replacing y by x under a binder on x must rename the binder.
    e = Forall("x", INT, Eq(Var("x"), Var("y")))
    got = substitute(e, {"y": Var("x")})
    assert isinstance(got, Forall)
    assert got.var != "x"
    assert got.body == Eq(Var(got.var), Var("x"))


def test_fresh_name():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1", "x2"}) == "x3"


def test_loc_is_ignored_by_equality():
    assert Var("a", loc=Loc(1, 1)) == Var("a", loc=Loc(9, 9)) == Var("a")
    assert Var("a", loc=Loc(1, 1)) == Var("a")


def test_loc_is_a_small_immutable_value():
    loc = Loc(3, 14)
    assert (loc.line, loc.col, str(loc), f"{loc}: x") == (3, 14, "3:14", "3:14: x")
    assert loc == Loc(3, 14) and hash(loc) == hash(Loc(3, 14)) and loc != Loc(14, 3)
    for name in ("line", "col"):
        with pytest.raises(AttributeError):
            setattr(loc, name, 1)
    # Diagnostic.__str__ drops the position only when there is none:
    # every Loc is true, even one at 0:0.
    assert Loc(0, 0)
    assert str(Diagnostic("error", Loc(0, 0), "m")) == "0:0: error: m"
    assert str(Diagnostic("error", None, "m")) == "error: m"


def test_parsed_module_pickles_with_its_locations():
    m = parse_module((CASES / "speedlimit_repaired.l4").read_text())
    copy = pickle.loads(pickle.dumps(m))
    assert copy == m
    assert [r.loc for r in copy.rules] == [r.loc for r in m.rules] and m.rules[0].loc.line > 0


# ---------------------------------------------------------------------------
# printer round-trips

_names = st.sampled_from(["a", "b", "c", "p", "q", "x", "y"])


def _exprs():
    leaves = st.one_of(
        st.builds(Var, _names),
        st.builds(BoolLit, st.booleans()),
        st.builds(IntLit, st.integers(-99, 99)),
        st.builds(StringLit, st.sampled_from(["hi", "lo", ""])),
    )

    def extend(inner):
        return st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Implies, inner, inner),
            st.builds(Eq, inner, inner),
            st.builds(
                lambda op, lhs, rhs: Cmp(op, lhs, rhs),
                st.sampled_from(["<", "<=", ">", ">="]),
                inner,
                inner,
            ),
            st.builds(lambda f, a: App(f, a), inner, inner),
            st.builds(IfThenElse, inner, inner, inner),
            st.builds(lambda v, b: Forall(v, ClassT("Car"), b), _names, inner),
            st.builds(lambda v, b: Exists(v, INT, b), _names, inner),
            st.builds(lambda v, b: Lambda(v, BOOL, b), _names, inner),
            st.builds(
                lambda v, b: Lambda(v, FunT(ClassT("Car"), BOOL), b), _names, inner
            ),
            st.builds(
                lambda o, f: FieldAccess(o, f), inner, st.sampled_from(["speed", "age"])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=14)


@given(_exprs())
def test_parse_inverts_print(e):
    assert parse_expr(print_expr(e)) == e


def test_print_precedence_samples():
    e = Implies(And(Var("a"), Or(Not(Var("b")), Var("c"))), Eq(IntLit(-3), IntLit(4)))
    assert print_expr(e) == "a && (not b || c) --> -3 == 4"
    assert print_expr(And(And(Var("a"), Var("b")), Var("c"))) == "a && b && c"
    assert print_expr(And(Var("a"), And(Var("b"), Var("c")))) == "a && (b && c)"


def test_tuple_type_str():
    assert str(TupleT((INT, BOOL))) == "(Integer, Boolean)"
    assert str(FunT(FunT(INT, INT), BOOL)) == "(Integer -> Integer) -> Boolean"


def test_fold_printer_matches_the_tree_printer():
    modules = [load_case(p.name) for p in sorted(CASES.glob("*.l4"))]
    modules += [elaborate(random_annotated_module(random.Random(s)).module) for s in range(60)]
    for m in modules:
        for variant in Variant:
            for simp in (False, True):
                try:
                    out = transform_module(m, variant, simplify_preconds=simp).module
                except CycleError:
                    out = m
                exprs = [e for r in out.rules for e in (r.precond, r.postcond)]
                exprs += [a.formula for a in out.assertions]
                for e in exprs:
                    assert print_expr(e) == oracles.tree_print_expr(e)
                # print_module shares one memo between rules and joins
                # the module's ropes once
                text = print_module(out, include_system=True)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(syntax, "_expr_text", lambda e, memo: oracles.tree_print_expr(e))
                    assert text == print_module(out, include_system=True)


# ---------------------------------------------------------------------------
# the traversal core

_L = Loc(3, 4)
_NODES = [
    Var("v", _L),
    BoolLit(True, _L),
    IntLit(7, _L),
    FloatLit(1.5, _L),
    StringLit("s", _L),
    Not(Var("a"), _L),
    And(Var("a"), Var("b"), _L),
    Or(Var("a"), Var("b"), _L),
    Implies(Var("a"), Var("b"), _L),
    Eq(Var("a"), IntLit(1), _L),
    Cmp("<", Var("a"), IntLit(1), _L),
    App(Var("f"), Var("a"), _L),
    Lambda("x", BOOL, Var("x"), _L),
    IfThenElse(Var("c"), Var("a"), Var("b"), _L),
    Forall("x", ClassT("Car"), Var("x"), _L),
    Exists("x", INT, Var("x"), _L),
    FieldAccess(Var("o"), "speed", _L),
]


def test_children_are_the_expr_fields_and_rebuild_keeps_the_rest():
    assert {type(e) for e in _NODES} == set(Expr.__subclasses__())
    for e in _NODES:
        kids = children(e)
        assert kids == tuple(getattr(e, f.name) for f in fields(e) if f.type == "Expr")
        assert rebuild(e, kids) is e and rebuild(e, list(kids)) is e
        new = [Var(f"k{i}") for i in range(len(kids))]
        if new:
            before = pickle.dumps(e)
            r = rebuild(e, new)
            assert type(r) is type(e) and list(children(r)) == new
            # every other field, the location included, is the old one
            assert all(getattr(r, f.name) is getattr(e, f.name) for f in fields(e) if f.type != "Expr")
            assert r.loc == _L
            # and the old node is a new node's source, not its storage
            assert pickle.dumps(e) == before and children(e) == kids
    cmp = rebuild(Cmp(">=", Var("a"), Var("b"), _L), [IntLit(1), IntLit(2)])
    assert (cmp.op, cmp.loc) == (">=", _L)
    for binder in (Forall, Exists, Lambda):
        b = rebuild(binder("v", ClassT("Car"), Var("v"), _L), [Var("w")])
        assert (b.var, b.var_type, b.body, b.loc) == ("v", ClassT("Car"), Var("w"), _L)


def _compared(e) -> tuple:
    return tuple(getattr(e, f.name) for f in fields(e) if f.compare)


def test_every_node_class_compares_and_hashes_structurally_and_ignores_loc():
    for e in _NODES:
        twin, moved, bare = copy.deepcopy(e), replace(e, loc=Loc(8, 9)), replace(e, loc=None)
        assert twin is not e and e == twin == moved == bare and moved.loc != e.loc
        assert hash(e) == hash(twin) == hash(moved) == hash(bare) == hash(_compared(e))
        assert repr(e) == repr(bare) and "loc" not in repr(e)
        assert len({e, twin, moved, bare}) == 1 and {e: 1}[moved] == 1
    assert len(set(_NODES) | set(map(copy.deepcopy, _NODES))) == len(_NODES) == 17
    # a compared field that differs makes the nodes differ, and so does the class
    assert Cmp("<", Var("x"), Var("y")) != Cmp("<=", Var("x"), Var("y"))
    assert Forall("x", ClassT("A"), Var("x")) != Forall("x", ClassT("B"), Var("x"))
    assert Forall("x", ClassT("A"), Var("x")) != Exists("x", ClassT("A"), Var("x"))
    assert And(Var("p"), Var("q")) != Or(Var("p"), Var("q"))
    # Hashes are those of the compared-field tuples, so a set of nodes
    # iterates in the order of a set of those tuples built alike.
    nodes = [App(Var(f"p{i % 5}"), IntLit(i)) for i in range(40)]
    assert [_compared(e) for e in set(nodes)] == list(set(_compared(e) for e in nodes))


def test_every_pickled_node_carries_no_hash():
    for e in _NODES:
        h = hash(e)
        data = pickle.dumps(e)
        assert e._hash == h and b"_hash" not in data
        twin = pickle.loads(data)
        assert twin._hash is None and twin == e and hash(twin) == h
        assert twin.loc == _L and pickle.dumps(twin) == data


def test_fold_printer_matches_the_tree_printer_at_every_child_position():
    for outer in _NODES:
        for inner in _NODES:
            for middle in _NODES:
                mid = rebuild(middle, [inner] * len(children(middle)))
                e = rebuild(outer, [mid] * len(children(outer)))
                assert print_expr(e) == oracles.tree_print_expr(e)


def test_substitute_keeps_locations():
    e = And(App(Var("p", _L), Var("x", _L), _L), Forall("y", INT, Eq(Var("y"), Var("x")), _L), _L)
    out = substitute(e, {"x": Var("z")})
    assert out == And(App(Var("p"), Var("z")), Forall("y", INT, Eq(Var("y"), Var("z"))))
    assert out.loc == out.left.loc == out.right.loc == _L
    # a renamed binder keeps its location too
    renamed = substitute(Forall("y", INT, Eq(Var("y"), Var("x")), _L), {"x": Var("y")})
    assert renamed == Forall("y1", INT, Eq(Var("y1"), Var("y"))) and renamed.loc == _L
    assert substitute(e, {"q": Var("z")}) is e


def test_fold_combines_each_distinct_inner_node_once_in_post_order():
    shared = And(Var("a"), Var("b"))
    e = Or(Not(shared), shared)
    seen = []

    def combine(x, values):
        seen.append(x)
        return 1 + sum(values)

    memo = {}
    assert fold(e, combine, memo) == 8  # the tree has eight nodes
    assert seen == [Var("a"), Var("b"), shared, Not(shared), e]
    assert set(memo) == {id(shared), id(e.left), id(e)} and memo[id(e)] == (e, 8)
    assert fold(e.left, combine, memo) == 4 and len(seen) == 5


def _fold_orders(e):
    """The nodes a fold over `e` with a fresh memo gives `kids`, and
    those it combines, in order: a walk over the occurrences that
    `iter_subexprs` yields which skips an inner node met before, with
    its subterms (a memo hit), and keeps every occurrence of a leaf."""
    walk = list(oracles.iter_subexprs(e))
    pre, post, seen, open_ = [], [], set(), []
    i = 0
    while i < len(walk):
        x = walk[i]
        if id(x) in seen:
            i += sum(1 for _ in oracles.iter_subexprs(x))
            open_[-1][1] -= 1
        else:
            i += 1
            pre.append(x)
            if children(x):
                seen.add(id(x))
            open_.append([x, len(children(x))])
        while open_ and open_[-1][1] == 0:
            post.append(open_.pop()[0])
            if open_:
                open_[-1][1] -= 1
    return pre, post


def test_fold_pairs_kids_and_combine_calls_at_depth():
    shared = Or(App(Var("p"), Var("x")), Var("q"))
    e = Var("r")
    for i in range(150):  # `shared` and level 75 occur more than once
        e = And(e, e) if i == 75 else And(e, shared) if i % 3 else Not(e)
    asked, combined, forms = [], [], []

    def kids(x):
        asked.append(x)
        forms.append(x)
        return children(x)

    def combine(x, values):
        assert forms.pop() is x  # the form its own `kids` call pushed
        assert len(values) == len(children(x))
        assert all(v is k for v, k in zip(values, children(x)))
        combined.append(x)
        return x

    assert fold(e, combine, {}, kids) is e and forms == []
    pre, post = _fold_orders(e)
    assert [id(x) for x in asked] == [id(x) for x in pre]
    assert [id(x) for x in combined] == [id(x) for x in post]
    inner = [id(x) for x in asked if children(x)]
    assert len(inner) == len(set(inner)) == 2 + 100 + 50  # shared, its atom, the levels


def _deep(levels):
    e = Var("p")
    for i in range(levels):
        e = Not(e) if i % 2 else And(e, Var(f"x{i % 7}"))
    return e


def test_fold_does_not_recurse_per_level():
    deep = _deep(100_000)
    assert fold(deep, lambda x, values: 1 + sum(values), {}) == 150_001
    assert free_vars(deep) == {"p"} | {f"x{i}" for i in range(7)}
    assert sum(1 for _ in oracles.iter_subexprs(deep)) == 150_001
    # The printer joins the rope of each level from its own stack; each
    # join copies the text below it, so its input is kept smaller.
    text = "not (" * 1500 + "p" + "".join(")" if i % 2 else f" && x{i % 7}" for i in range(3000))
    assert print_expr(_deep(3000)) == text


# ---------------------------------------------------------------------------
# module validation


def _errors(text):
    return [d.message for d in check_well_formed(parse_module(text)) if d.severity == "error"]


def test_well_formed_clean_module():
    text = """
class Vehicle
class Car extends Vehicle
decl maxSp : Vehicle -> Integer -> Boolean

rule <r1>
  for v : Car
  if isCar v
  then maxSp v 90
"""
    assert _errors(text) == []


def test_duplicate_class_reported():
    assert any(
        "duplicate class 'Car'" in m
        for m in _errors("class Car\nclass Car extends Car")
    )


def test_unknown_parent_reported():
    assert any("unknown class" in m for m in _errors("class Car extends Vehicle"))


def test_cyclic_hierarchy_reported():
    text = "class A extends B\nclass B extends A"
    assert any("cyclic class hierarchy" in m for m in _errors(text))


def test_reserved_class_name_reported():
    assert any("reserved" in m for m in _errors("class Integer"))


def test_free_variable_in_rule_reported():
    text = """
class Car
decl p : Car -> Boolean

rule <r1>
  for v : Car
  if p w
  then p v
"""
    assert any("w" in m for m in _errors(text))


def test_unknown_rule_in_annotation_reported():
    text = """
class Car
decl p : Car -> Boolean

rule <r1> {restrict: {subjectTo: nosuch}}
  for v : Car
  if p v
  then p v
"""
    assert any("nosuch" in m for m in _errors(text))


def test_nodes_cache_their_structural_hash():
    a = And(App(Var("p"), Var("x")), Not(Var("q")))
    b = And(App(Var("p"), Var("x")), Not(Var("q")))
    text = repr(a)
    assert a is not b and hash(a) == hash(b) and a == b
    # The cache is no field: equality with an unhashed twin, repr,
    # replace and pickling ignore it.
    assert a._hash is not None and b == And(App(Var("p"), Var("x")), Not(Var("q")))
    assert repr(a) == text and "_hash" not in text
    c = replace(a, right=Var("r"))
    assert c._hash is None
    assert hash(c) == hash(And(App(Var("p"), Var("x")), Var("r"))) and c != a
    copy = pickle.loads(pickle.dumps(a))
    assert copy._hash is None and copy == a and hash(copy) == hash(a)


def test_cached_hash_is_the_dataclass_hash():
    # Sets and dicts of nodes iterate in the same order as with the
    # plain dataclass hash: the hash of the tuple of compared fields.
    e = Cmp("<", IntLit(1), Var("y"))
    assert hash(e) == hash(("<", IntLit(1), Var("y")))
    assert hash(Var("y")) == hash(("y",))
    # A node hashes the unhashed nodes below it bottom-up from a stack,
    # so a chain deeper than the recursion limit hashes to the same value.
    deep = conj([App(Var("p"), Var("x"))] * 5000)
    assert hash(deep) == hash((deep.left, deep.right))
    assert hash(deep) == hash(conj([App(Var("p"), Var("x"))] * 5000))
