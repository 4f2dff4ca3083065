"""Stable model search for the answer set encoding, its projection
back to legal models, and the soundness check that holds the two
semantics against each other."""

import random

import pytest

from normlog.asp import (
    AspProgram,
    AspRule,
    Atom,
    ConfigError,
    Literal,
    TVar,
    answer_sets,
    axiom_violations,
    emit_asp,
    ground,
    legal_models,
    parse_config,
    project_answer_set,
    verify_lemma4,
    _ground_program,
    _reduct,
    _term_vars,
    _well_founded,
)
from normlog.models import ResourceCapError
from normlog.randgen import random_config

from conftest import CASES
from oracles import (
    brute_stable_models,
    reference_ground_program,
    sweep_legal_models,
    validity_sweep_legal_models,
)
from test_asp import cfg_file


def stable_strs(cfg):
    return [sorted(map(str, s)) for s in answer_sets(emit_asp(cfg))]


# ---------------------------------------------------------------------------
# grounding schematic programs


def test_ground_program_drops_never_derivable_negatives():
    # nothing can derive q, so "not q" is trivially true and vanishes
    prog = AspProgram(
        (
            AspRule(Atom("p"), (Literal(Atom("q"), positive=False),)),
        )
    )
    (g,) = _ground_program(prog)
    assert g.head == Atom("p") and g.pos == () and g.neg == ()


def test_ground_program_instantiates_over_derivable_atoms():
    prog = AspProgram(
        (
            AspRule(Atom("q", ("a",))),
            AspRule(Atom("q", ("b",))),
            AspRule(Atom("p", (TVar("X"),)), (Literal(Atom("q", (TVar("X"),))),)),
        )
    )
    heads = {str(g.head) for g in _ground_program(prog)}
    assert heads == {"q(a)", "q(b)", "p(a)", "p(b)"}


def test_ground_program_unsafe_negative_literal():
    prog = AspProgram(
        (AspRule(Atom("p", ("a",)), (Literal(Atom("q", (TVar("X"),)), False),)),)
    )
    with pytest.raises(ConfigError) as exc:
        _ground_program(prog)
    assert (
        str(exc.value)
        == "unsafe clause: variable in negative literal not q(X) not bound by a positive literal"
    )


def test_ground_program_unsafe_head():
    prog = AspProgram((AspRule(Atom("p", (TVar("X"),))),))
    with pytest.raises(ConfigError, match="unbound variable in head"):
        _ground_program(prog)


def test_ground_program_instance_cap():
    cfg = ground(
        parse_config(
            "rule 1: p(X) <- q(X).\n" + "\n".join(f"fact: q(c{i})." for i in range(30))
        )
    )
    with pytest.raises(ResourceCapError, match="grounding exceeded 10 rule instances"):
        _ground_program(emit_asp(cfg), instance_cap=10)


# ---------------------------------------------------------------------------
# the semi-naive grounder against naive bottom-up grounding


def outcome(ground_fn, prog, **kw):
    """The instances, or the type and message of the error raised."""
    try:
        return ground_fn(prog, **kw)
    except (ConfigError, ResourceCapError) as e:
        return type(e).__name__, str(e)


def test_grounding_matches_naive_on_random_configs():
    rng = random.Random(1986)
    for _ in range(250):
        prog = emit_asp(random_config(rng))
        assert _ground_program(prog) == reference_ground_program(prog)


def random_schematic_config(rng):
    consts = ["a", "b", "c"][: rng.randrange(1, 4)]
    preds = ["p", "q", "r", "s"]
    X = TVar("X")

    def atom(schematic):
        return Atom(rng.choice(preds), (X if schematic else rng.choice(consts),))

    lines = []
    for rid in range(1, rng.randrange(2, 5)):
        schematic = rng.random() < 0.7
        head = atom(schematic)
        body = [atom(schematic) for _ in range(rng.randrange(1 if schematic else 0, 3))]
        if schematic and all(a.args != (X,) for a in body):
            body[0] = Atom(body[0].pred, (X,))
        negs = [rng.random() < 0.3 for _ in body]
        text = ", ".join(("not " if n else "") + str(a) for a, n in zip(body, negs))
        lines.append(f"rule {rid}: {head}" + (f" <- {text}." if body else "."))
    for _ in range(rng.randrange(1, 4)):
        lines.append(f"fact: {atom(False)}.")
    if len(lines) > 2 and rng.random() < 0.7:
        kind = rng.choice(["despite", "subject_to", "strong_subject_to"])
        lines.append(f"modifier: {kind}(1, 2).")
    if rng.random() < 0.6:
        lines.append(f"inconsistent: {{{atom(False)}, {atom(False)}}}.")
    return ground(parse_config("\n".join(lines)))


def test_grounding_matches_naive_on_grounded_schematic_configs():
    rng = random.Random(1987)
    tried = 0
    for _ in range(300):
        try:
            cfg = random_schematic_config(rng)
        except ConfigError:  # an inconsistent set of one atom
            continue
        prog = emit_asp(cfg)
        assert _ground_program(prog) == reference_ground_program(prog)
        tried += 1
    assert tried >= 200


def test_legal_models_match_the_sweeps_on_grounded_schematic_configs():
    rng = random.Random(1978)
    tried = 0
    for _ in range(300):
        try:
            cfg = random_schematic_config(rng)
        except ConfigError:  # an inconsistent set of one atom
            continue
        models = legal_models(cfg)
        assert models == validity_sweep_legal_models(cfg), cfg
        atoms = set(cfg.facts) | {r.head for r in cfg.rules}
        if len(atoms) + len(cfg.rules) <= 10:
            assert models == sweep_legal_models(cfg), cfg
        tried += 1
    assert tried >= 200


@pytest.mark.parametrize("path", sorted(CASES.glob("*.cfg")), ids=lambda p: p.stem)
def test_grounding_matches_naive_on_cases(path):
    prog = emit_asp(parse_config(path.read_text()))
    assert _ground_program(prog) == reference_ground_program(prog)


def random_schematic_program(rng):
    """Clauses over two-place predicates and nested terms, joined on
    shared variables; now and then a clause is unsafe, or its head
    nests a term deeper than its body."""
    X, Y, Z = TVar("X"), TVar("Y"), TVar("Z")
    consts = ["a", "b", "a", "b", 1, Atom("f", ("a",))]
    terms = [X, Y, Z, "a", Atom("f", (X,))]
    preds = ["e", "p", "q"]

    def atom(pool):
        return Atom(rng.choice(preds), (rng.choice(pool), rng.choice(pool)))

    rules = [AspRule(atom(consts)) for _ in range(rng.randrange(4, 13))]
    for _ in range(rng.randrange(2, 7)):
        body = [Literal(atom(terms)) for _ in range(rng.randrange(1, 4))]
        bound = set().union(*(_term_vars(l.atom) for l in body))
        safe = [TVar(v) for v in sorted(bound)] or ["a"]
        if rng.random() < 0.4:
            pool = safe if rng.random() < 0.9 else [X, Y, Z]
            body.append(Literal(atom(pool), positive=False))
        head = atom(safe if rng.random() < 0.95 else [X, Y, Z])
        if rng.random() < 0.1:  # a term that grows without end
            head = Atom(head.pred, (Atom("f", (head.args[0],)), head.args[1]))
        rules.append(AspRule(head, tuple(body)))
    return AspProgram(tuple(rules))


def test_grounding_matches_naive_on_random_schematic_programs():
    rng = random.Random(1988)
    kinds = set()
    joined = 0
    for _ in range(400):
        prog = random_schematic_program(rng)
        got = outcome(_ground_program, prog, instance_cap=60)
        assert got == outcome(reference_ground_program, prog, instance_cap=60), prog
        kinds.add(got[0] if isinstance(got, tuple) else "instances")
        joined += isinstance(got, list) and len(got) >= len(prog.rules) + 5
    assert kinds == {"instances", "ConfigError", "ResourceCapError"}
    assert joined >= 30


def random_mixed_program(rng):
    """Ground clauses with bodies, in the shape of the encoding's
    ``according_to(3,q) :- is_legal(p), not is_legal(r).``, among
    schematic joins over nested terms; returns the program and the
    instance cap to ground it under.  A program is plain, or has a
    small cap and perhaps terms that grow without end, or has one or two
    unsafe clauses.  When there are two, the first matches a fact and
    the facts come first, so it raises first under naive and
    semi-naive evaluation alike."""
    R, C, X = TVar("R"), TVar("C"), TVar("X")
    terms = [Atom(n) for n in "pqrs"] + [Atom("f", (Atom(n),)) for n in "pq"]

    def il(t):
        return Atom("is_legal", (t,))

    facts = [AspRule(il(t)) for t in rng.sample(terms, rng.randrange(1, 4))]
    rules = []
    for rid in range(1, rng.randrange(3, 9)):
        body = [Literal(il(t), rng.random() < 0.7) for t in rng.choices(terms, k=rng.randrange(3))]
        head = Atom("according_to", (rid, rng.choice(terms)))
        if rng.random() < 0.25:
            head = Atom("defeated", (rng.randrange(1, 6),))
        rules.append(AspRule(head, tuple(body)))
    joins = [
        AspRule(
            Atom("legally_valid", (R, C)),
            (Literal(Atom("according_to", (R, C))), Literal(Atom("defeated", (R,)), False)),
        ),
        AspRule(il(C), (Literal(Atom("legally_valid", (R, C))),)),
        AspRule(
            Atom("defeated", (R,)),
            (Literal(Atom("according_to", (R, C))), Literal(il(Atom("f", (C,))))),
        ),
    ]
    rules += rng.sample(joins, rng.randrange(1, len(joins) + 1))
    mode = rng.choice(["plain", "cap", "unsafe"])
    cap = 1_000_000
    if mode == "cap":
        cap = rng.randrange(5, 30)
        if rng.random() < 0.5:
            rules.append(AspRule(il(Atom("f", (C,))), (Literal(il(C)),)))
    rng.shuffle(rules)
    if mode != "unsafe":
        i = rng.randrange(len(rules) + 1)
        return AspProgram(tuple(rules[:i] + facts + rules[i:])), cap
    first = AspRule(Atom("u", (X,)), (Literal(il(C)),))
    second = rng.choice(
        [
            AspRule(
                Atom("w", (C,)),
                (Literal(Atom("legally_valid", (R, C))), Literal(Atom("v", (X,)), False)),
            ),
            AspRule(Atom("u", (R, X)), (Literal(Atom("according_to", (R, C))),)),
            AspRule(Atom("u", (R, X)), (Literal(Atom("never", (R,))),)),
        ]
    )
    unsafe = rng.choice([[first], [second], [first, second]])
    i = rng.randrange(len(rules) + 1)
    j = rng.randrange(i, len(rules) + 1)
    rules = rules[:i] + unsafe[:1] + rules[i:j] + unsafe[1:] + rules[j:]
    return AspProgram(tuple(facts + rules)), cap


def test_first_unsafe_clause_is_the_earliest_round_then_clause_order():
    # f(a) is derived in the first round, so both unsafe clauses match
    # in the second and the grounder names the first in clause order.
    # The naive oracle already matches v(X) in the round that derives
    # f(a), after u(X) has had its turn; the two name different clauses.
    X = TVar("X")
    prog = AspProgram(
        (
            AspRule(Atom("u", (X,)), (Literal(Atom("f", ("a",))),)),
            AspRule(Atom("f", ("a",))),
            AspRule(Atom("v", (X,)), (Literal(Atom("f", ("a",))),)),
        )
    )
    unbound = "unsafe clause: unbound variable in head {}"
    assert outcome(_ground_program, prog) == ("ConfigError", unbound.format("u(X)"))
    assert outcome(reference_ground_program, prog) == ("ConfigError", unbound.format("v(X)"))


def test_grounding_matches_naive_on_ground_clauses_with_bodies():
    rng = random.Random(1984)
    kinds = set()
    fired = two_unsafe = 0
    for _ in range(500):
        prog, cap = random_mixed_program(rng)
        got = outcome(_ground_program, prog, instance_cap=cap)
        assert got == outcome(reference_ground_program, prog, instance_cap=cap), prog
        kinds.add(got[0] if isinstance(got, tuple) else "instances")
        # a ground clause fired on a derived atom
        fired += isinstance(got, list) and any(
            g.head.pred == "according_to" and g.pos for g in got
        )
        two_unsafe += sum(r.head.pred in ("u", "w") for r in prog.rules) == 2
    assert kinds == {"instances", "ConfigError", "ResourceCapError"}
    assert fired >= 100 and two_unsafe >= 30


# ---------------------------------------------------------------------------
# the well-founded model brackets every stable model


def random_ground_program(rng):
    atoms = [Atom(f"a{i}") for i in range(rng.randrange(2, 9))]
    rules = []
    for _ in range(rng.randrange(1, 11)):
        body = rng.sample(atoms, rng.randrange(0, 3))
        rules.append(
            AspRule(rng.choice(atoms), tuple(Literal(a, rng.random() < 0.5) for a in body))
        )
    return AspProgram(tuple(rules))


def test_well_founded_model_brackets_every_stable_model():
    rng = random.Random(1991)
    decided = undecided = 0
    for _ in range(400):
        prog = random_ground_program(rng)
        rules = _ground_program(prog)
        true, possible = _well_founded(_reduct(rules))
        negated = {a for g in rules for a in g.neg}
        decided += bool(negated & true)
        undecided += bool(negated & possible - true)
        stable = brute_stable_models([(g.head, g.pos, g.neg) for g in rules])
        for m in stable:
            assert true <= m <= possible
        key = lambda s: (len(s), tuple(sorted(map(str, s))))
        assert answer_sets(prog) == sorted(stable, key=key)
    assert decided > 50 and undecided > 50


def test_well_founded_model_brackets_stable_models_of_encodings():
    rng = random.Random(1992)
    checked = 0
    for _ in range(80):
        rules = _ground_program(emit_asp(random_config(rng)))
        if len({a for g in rules for a in (g.head, *g.pos, *g.neg)}) > 11:
            continue
        true, possible = _well_founded(_reduct(rules))
        for m in brute_stable_models([(g.head, g.pos, g.neg) for g in rules]):
            assert true <= m <= possible
        checked += 1
    assert checked >= 12


def test_well_founded_model_decides_a_stratified_program():
    # b is never derivable, so "not b" holds, a holds, and "not a" fails.
    prog = AspProgram(
        (
            AspRule(Atom("c")),
            AspRule(Atom("a"), (Literal(Atom("c")), Literal(Atom("b"), positive=False))),
            AspRule(Atom("b"), (Literal(Atom("a")), Literal(Atom("d"), positive=False))),
            AspRule(Atom("d"), (Literal(Atom("c")),)),
        )
    )
    true, possible = _well_founded(_reduct(_ground_program(prog)))
    assert true == possible == {Atom("a"), Atom("c"), Atom("d")}


# ---------------------------------------------------------------------------
# stable models on the worked examples


def test_bob_has_two_answer_sets():
    projections = [
        project_answer_set(s).to_json() for s in answer_sets(emit_asp(cfg_file("bob")))
    ]
    assert projections == [
        {
            "is_legal": [
                "may_spend_up_to_one_mill(bob)",
                "must_buy(merc,bob)",
                "wealthy(bob)",
            ],
            "legally_valid": [[2, "must_buy(merc,bob)"], [3, "may_spend_up_to_one_mill(bob)"]],
        },
        {
            "is_legal": [
                "may_spend_up_to_one_mill(bob)",
                "must_buy(rolls,bob)",
                "wealthy(bob)",
            ],
            "legally_valid": [[1, "must_buy(rolls,bob)"], [3, "may_spend_up_to_one_mill(bob)"]],
        },
    ]


def test_answer_set_atoms_include_bookkeeping():
    sets = answer_sets(emit_asp(cfg_file("bob")))
    merc = sets[0]
    assert Atom("according_to", (1, Atom("must_buy", ("rolls", "bob")))) in merc
    assert Atom("not_legally_valid", (1,)) in merc
    assert Atom("despite", (3, 4)) in merc


@pytest.mark.parametrize(
    "name, count", [("bob", 2), ("bob_strong", 1), ("bob_extreme", 1), ("selfdefeat", 0), ("chain", 0), ("nonminimal", 1), ("convgap", 1)]
)
def test_answer_set_counts(name, count):
    assert len(answer_sets(emit_asp(cfg_file(name)))) == count


def test_self_supporting_atom_never_stably_derived():
    (s,) = answer_sets(emit_asp(cfg_file("nonminimal")))
    assert project_answer_set(s).to_json() == {
        "is_legal": ["a"],
        "legally_valid": [[3, "a"]],
    }


def test_answer_sets_sorted_and_deterministic():
    p = emit_asp(cfg_file("bob"))
    a, b = answer_sets(p), answer_sets(p)
    assert a == b
    sizes = [len(s) for s in a]
    assert sizes == sorted(sizes)


def test_guess_cap():
    cfg = parse_config(
        "\n".join(
            f"rule {2 * i + 1}: a{i} <- not b{i}.\nrule {2 * i + 2}: b{i} <- not a{i}."
            for i in range(6)
        )
    )
    with pytest.raises(ResourceCapError) as exc:
        answer_sets(emit_asp(cfg), guess_cap_bits=4)
    assert str(exc.value) == "stable model search needs 2^12 candidates, cap is 2^4"


def test_grounded_schematic_config_round_trip():
    cfg = ground(parse_config("rule 1: p(X) <- q(X).\nfact: q(a).\nfact: q(b)."))
    projections = {
        tuple(sorted(project_answer_set(s).to_json()["is_legal"]))
        for s in answer_sets(emit_asp(cfg))
    }
    assert projections == {("p(a)", "p(b)", "q(a)", "q(b)")}


# ---------------------------------------------------------------------------
# differential against the exponential oracle


def oracle_models(cfg):
    triples = [
        (g.head, g.pos, g.neg) for g in _ground_program(emit_asp(cfg))
    ]
    return sorted(
        brute_stable_models(triples), key=lambda s: (len(s), tuple(sorted(map(str, s))))
    )


@pytest.mark.parametrize("name", ["selfdefeat", "chain", "nonminimal", "convgap"])
def test_engine_matches_oracle_on_fixture(name):
    cfg = cfg_file(name)
    assert answer_sets(emit_asp(cfg)) == oracle_models(cfg)


def test_engine_matches_oracle_on_random_programs():
    rng = random.Random(417)
    checked = 0
    for _ in range(60):
        cfg = random_config(rng)
        prog = emit_asp(cfg)
        rules = _ground_program(prog)
        atoms = set()
        for g in rules:
            atoms.add(g.head)
            atoms.update(g.pos)
            atoms.update(g.neg)
        if len(atoms) > 13:
            continue
        assert answer_sets(prog) == oracle_models(cfg)
        checked += 1
    assert checked >= 12


# ---------------------------------------------------------------------------
# projection


def test_projection_keeps_only_the_two_relations():
    s = frozenset(
        {
            Atom("is_legal", (Atom("p", ("a",)),)),
            Atom("legally_valid", (3, Atom("p", ("a",)))),
            Atom("according_to", (3, Atom("p", ("a",)))),
            Atom("defeated", (1, Atom("q",))),
        }
    )
    m = project_answer_set(s)
    assert m.to_json() == {"is_legal": ["p(a)"], "legally_valid": [[3, "p(a)"]]}


# ---------------------------------------------------------------------------
# the two semantics held against each other


def test_bob_encoding_sound_and_complete():
    rep = verify_lemma4(cfg_file("bob"))
    assert rep.to_json() == {
        "answer_sets": 2,
        "legal_models": 2,
        "sound": True,
        "unsound": [],
        "uncovered": [],
    }


def test_converse_gap_is_reported_not_fatal():
    rep = verify_lemma4(cfg_file("convgap"))
    assert rep.sound
    assert rep.answer_sets == 1 and rep.legal_models == 2
    assert [m.to_json() for m in rep.uncovered] == [
        {"is_legal": ["a"], "legally_valid": [[1, "a"]]}
    ]


def test_nonminimal_gap():
    rep = verify_lemma4(cfg_file("nonminimal"))
    assert rep.sound
    assert [m.to_json() for m in rep.uncovered] == [
        {"is_legal": ["a", "c"], "legally_valid": [[1, "c"], [3, "a"]]}
    ]


def test_soundness_only_mode_skips_the_model_search():
    rep = verify_lemma4(cfg_file("convgap"), check_converse=False)
    assert rep.to_json() == {
        "answer_sets": 1,
        "legal_models": None,
        "sound": True,
        "unsound": [],
        "uncovered": [],
    }


def test_every_projection_is_a_legal_model_on_random_configs():
    rng = random.Random(90125)
    for _ in range(60):
        cfg = random_config(rng)
        for s in answer_sets(emit_asp(cfg)):
            assert axiom_violations(cfg, project_answer_set(s)) == []


def test_projections_are_a_subset_of_the_legal_models():
    for name in ["bob", "bob_strong", "bob_extreme", "nonminimal", "convgap"]:
        cfg = cfg_file(name)
        legal = {(m.is_legal, m.legally_valid) for m in legal_models(cfg)}
        for s in answer_sets(emit_asp(cfg)):
            m = project_answer_set(s)
            assert (m.is_legal, m.legally_valid) in legal
