"""Defeasible rule configurations: parsing, grounding, and the legal
models checked directly against their defining conditions."""

import dataclasses
import itertools
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from normlog import asp
from normlog.asp import (
    Atom,
    Config,
    ConfigError,
    DefRule,
    GroundRule,
    LegalModel,
    Literal,
    Modifier,
    TVar,
    _ValiditySearch,
    _ground_program,
    axiom_violations,
    config_constants,
    emit_asp,
    ground,
    legal_models,
    minimal_only,
    parse_config,
)
from normlog.models import ResourceCapError
from normlog.parser import MAX_NESTING
from normlog.randgen import random_config

from conftest import CASES
from oracles import scan_axiom_violations, sweep_legal_models, validity_sweep_legal_models


def cfg_file(name: str) -> Config:
    return parse_config((CASES / f"{name}.cfg").read_text())


def A(pred, *args):
    return Atom(pred, tuple(args))


# ---------------------------------------------------------------------------
# parsing


def test_parse_bob_structure():
    cfg = cfg_file("bob")
    assert [r.id for r in cfg.rules] == [1, 2, 3, 4]
    assert cfg.rules[0].head == A("must_buy", "rolls", "bob")
    assert cfg.rules[0].body == (Literal(A("wealthy", "bob")),)
    assert cfg.facts == (A("wealthy", "bob"),)
    assert cfg.modifiers == (
        Modifier("subject_to", 3, 1),
        Modifier("subject_to", 3, 2),
        Modifier("despite", 3, 4),
    )
    assert len(cfg.inconsistent) == 1 and len(cfg.inconsistent[0]) == 3
    assert cfg.is_ground()


def test_parse_variables_and_negation():
    cfg = parse_config("rule 2: p(X, _y) <- q(X), not r(_y, 7).")
    (r,) = cfg.rules
    assert r.head == A("p", TVar("X"), TVar("_y"))
    assert r.body[1] == Literal(A("r", TVar("_y"), 7), positive=False)
    assert not cfg.is_ground()


def test_parse_nested_terms_and_negative_ints():
    cfg = parse_config("fact: owes(debt(alice, -30), bob).")
    (f,) = cfg.facts
    assert f == A("owes", A("debt", "alice", -30), "bob")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\nrule 1: p.  # trailing\n")
    assert [str(r) for r in cfg.rules] == ["rule 1: p."]


def test_rule_and_modifier_str_forms():
    cfg = parse_config("rule 1: p <- q, not r.\nmodifier: despite(1, 1).")
    assert str(cfg.rules[0]) == "rule 1: p <- q, not r."
    assert str(cfg.modifiers[0]) == "despite(1,1)"


def test_str_of_rule_reparses_to_equal_rule():
    cfg = parse_config("rule 4: buy(car, X) <- rich(X), not broke(X).")
    again = parse_config(str(cfg.rules[0]))
    assert again.rules == cfg.rules


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("rule 1: P(a).", "1:9: atoms must start with a lowercase letter, found 'P'"),
        ("fact: not.", "keyword cannot start an atom"),
        ("rule 1: p.\nrule 1: q.", "duplicate rule id 1"),
        ("rule 1: p.\nmodifier: shiny(1, 1).", "unknown modifier kind 'shiny'"),
        ("rule 1: p.\nmodifier: despite(1, 2).", "modifier despite(1,2) names unknown rule 2"),
        ("inconsistent: {p}.", "needs at least two distinct atoms"),
        ("inconsistent: {p, p}.", "needs at least two distinct atoms"),
        ("rule 1: p", "end of input: expected ."),
        ("wibble: p.", "expected 'rule', 'fact', 'modifier' or 'inconsistent'"),
        ("rule x: p.", "expected int"),
        ("rule 1: p <- .", "1:14: expected ident"),
        ("rule 1: p ? q.", "unexpected character '?'"),
        ("rule 1: a\u00b2 <- b.", "1:10: unexpected character '\u00b2'"),
        ("rule \u0663: p.", "1:6: unexpected character '\u0663'"),
        ("fact: caf\u00e9.", "1:10: unexpected character '\u00e9'"),
        # Whitespace is space, tab, CR and LF only, as in `.l4` text.
        ("fact:\xa0a.", "1:6: unexpected character '\\xa0'"),
        ("fact: a.\x0b", "1:9: unexpected character '\\x0b'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ConfigError, match=None) as exc:
        parse_config(text)
    assert fragment in str(exc.value)


def test_error_positions_count_lines():
    with pytest.raises(ConfigError) as exc:
        parse_config("rule 1: p.\nfact: Q.")
    assert str(exc.value).startswith("2:7:")


def nested_atom(levels: int) -> str:
    """An atom whose argument lists nest `levels` deep."""
    return "p(" + "f(" * (levels - 1) + "a" + ")" * levels


def test_nesting_limit():
    # "fact: p(" puts the first level at column 8; the error points at
    # the parenthesis that opens one level too many.
    with pytest.raises(ConfigError) as exc:
        parse_config(f"fact: {nested_atom(MAX_NESTING + 1)}.")
    assert str(exc.value) == f"1:{8 + 2 * MAX_NESTING}: nested more than {MAX_NESTING} levels deep"


def test_nesting_limit_counts_levels_not_arguments():
    atom = nested_atom(MAX_NESTING)
    cfg = parse_config(f"fact: {atom}.\nrule 1: q <- {atom}, {atom}.\nfact: {atom}.")
    assert str(cfg.facts[0]) == atom
    assert [str(lit) for lit in cfg.rules[0].body] == [atom, atom]


# ---------------------------------------------------------------------------
# atoms hash once


def test_equal_atoms_built_apart_hash_equal():
    X = TVar("X")
    pairs = [
        (A("p"), A("p")),
        (A("must_buy", "rolls", -3), A("must_buy", "rolls", -3)),
        (A("is_legal", A("f", A("g", "a"), 1)), A("is_legal", A("f", A("g", "a"), 1))),
        (A("p", X, A("f", X)), A("p", TVar("X"), A("f", TVar("X")))),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        # the cached value is the field-tuple hash a frozen dataclass has
        assert hash(a) == hash((a.pred, a.args))
    assert A("p", X) != A("p", TVar("Y")) and A("p", "a") != A("q", "a")


def test_atom_hash_cache_is_no_field():
    a = A("is_legal", A("f", TVar("X"), 2))
    text = repr(a)
    hash(a)
    assert a._hash is not None and a.args[0]._hash is not None
    assert repr(a) == text and "_hash" not in text
    assert str(a) == "is_legal(f(X,2))"
    assert [f.name for f in dataclasses.fields(Atom)] == ["pred", "args"]
    assert a == A("is_legal", A("f", TVar("X"), 2))  # an unhashed twin
    b = dataclasses.replace(a, pred="according_to")
    assert b._hash is None and str(b) == "according_to(f(X,2))"
    assert b == A("according_to", A("f", TVar("X"), 2)) != a
    assert hash(b) == hash(A("according_to", A("f", TVar("X"), 2)))


def test_pickled_atom_carries_no_hash():
    # String hashes differ between processes, so a hash kept as a field
    # would travel with the pickle and be stale where it is loaded.
    a = A("is_legal", A("must_buy", "rolls", TVar("X")))
    hash(a)
    data = pickle.dumps(a)
    assert b"_hash" not in data
    copy = pickle.loads(data)
    assert copy._hash is None and copy == a and hash(copy) == hash(a)
    script = (
        "import pickle, sys\n"
        "from normlog.asp import Atom, TVar\n"
        "a = pickle.loads(sys.stdin.buffer.read())\n"
        "assert a._hash is None and a.args[0]._hash is None\n"
        "twin = Atom('is_legal', (Atom('must_buy', ('rolls', TVar('X'))),))\n"
        "print(twin in {a}, a in {twin}, hash(a) == hash(twin), len({a, twin}))\n"
    )
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        out = subprocess.run(
            [sys.executable, "-c", script], input=data, env=env, capture_output=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == b"True True True 1\n"


def test_ground_rule_hashes_as_its_field_tuple():
    def rule():
        return GroundRule(A("p", "a"), (A("q", "a"),), (A("r"),))

    g, twin = rule(), rule()
    assert g is not twin and g == twin and hash(g) == hash(twin) == hash((g.head, g.pos, g.neg))
    assert [f.name for f in dataclasses.fields(GroundRule)] == ["head", "pos", "neg"]
    other = dataclasses.replace(g, neg=())
    assert other != g and len({g, twin, other}) == 2 and {g: 1, other: 2}[twin] == 1
    copy = pickle.loads(pickle.dumps(g))
    assert copy.head._hash is None and copy == g and hash(copy) == hash(g)
    # the ground program of a configuration, grounded twice, keys alike
    program = emit_asp(cfg_file("bob"))
    rules, again = _ground_program(program), _ground_program(program)
    assert rules == again and len(set(rules)) == len(rules)
    index = {g: i for i, g in enumerate(rules)}
    assert [index[g] for g in again] == list(range(len(rules)))


# ---------------------------------------------------------------------------
# grounding


def test_config_constants_first_occurrence_order():
    cfg = parse_config("rule 1: p(X) <- q(X, c).\nfact: q(a, b).")
    assert config_constants(cfg) == ["c", "a", "b"]


def test_ground_instance_ids():
    g = ground(parse_config("rule 1: p(X) <- q(X).\nfact: q(a).\nfact: q(b)."))
    assert [str(r) for r in g.rules] == [
        "rule 1000: p(a) <- q(a).",
        "rule 1001: p(b) <- q(b).",
    ]
    assert g.is_ground()


def test_ground_keeps_ground_rules_and_multiplies_modifiers():
    g = ground(
        parse_config(
            "rule 1: p(X) <- q(X).\n"
            "rule 2: r(X) <- q(X).\n"
            "rule 3: s.\n"
            "fact: q(a).\nfact: q(b).\n"
            "modifier: subject_to(1, 2).\n"
            "modifier: despite(3, 1)."
        )
    )
    assert [r.id for r in g.rules] == [1000, 1001, 2000, 2001, 3]
    assert set(map(str, g.modifiers)) == {
        "subject_to(1000,2000)",
        "subject_to(1000,2001)",
        "subject_to(1001,2000)",
        "subject_to(1001,2001)",
        "despite(3,1000)",
        "despite(3,1001)",
    }


def test_ground_explicit_constants():
    g = ground(parse_config("rule 1: p(X)."), constants=["u", "v"])
    assert [str(r.head) for r in g.rules] == ["p(u)", "p(v)"]


def test_ground_of_ground_config_is_identity_on_rules():
    cfg = cfg_file("bob")
    assert ground(cfg).rules == cfg.rules


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("rule 1: p(X).", "rule 1 has variables but there are no constants"),
        ("fact: p(X).", "fact p(X) must be ground"),
        ("inconsistent: {p(X), q}.", "inconsistent set atom p(X) must be ground"),
        (
            "rule 1: p(X) <- q(X).\nrule 1001: w.\nfact: q(a).\nfact: q(b).",
            "instance ids collide; renumber the schematic rules",
        ),
    ],
)
def test_ground_errors(text, fragment):
    with pytest.raises(ConfigError) as exc:
        ground(parse_config(text))
    assert fragment in str(exc.value)


# ---------------------------------------------------------------------------
# the axioms, one violation at a time


def triggers(cfg, legal, valid):
    return axiom_violations(cfg, LegalModel(frozenset(legal), frozenset(valid)))


def test_axiom_unknown_rule():
    assert triggers(Config(), [], [(7, A("p"))]) == ["validity of unknown rule 7"]


def test_axiom_wrong_conclusion():
    cfg = parse_config(
        "rule 1: p <- f.\nrule 2: g <- f.\nfact: f.\nmodifier: despite(1, 2)."
    )
    out = triggers(cfg, [A("f"), A("q"), A("g")], [(1, A("q")), (2, A("g"))])
    assert out == ["rule 1 held valid for q, but concludes p"]


def test_axiom_facts_are_legal():
    cfg = parse_config("fact: f.")
    assert triggers(cfg, [], []) == ["fact-legality: fact f is not legal"]


def test_axiom_valid_rule_needs_precondition():
    cfg = parse_config("rule 1: p <- f.")
    out = triggers(cfg, [A("p")], [(1, A("p"))])
    assert out == ["valid-rule-support: rule 1 is valid but its precondition fails"]


def test_axiom_valid_rule_needs_legal_conclusion():
    cfg = parse_config("rule 1: p.")
    out = triggers(cfg, [], [(1, A("p"))])
    assert out == ["valid-rule-support: rule 1 is valid but p is not legal"]


def test_axiom_legality_needs_support():
    assert triggers(Config(), [A("p")], []) == [
        "legality-support: p is legal but unsupported"
    ]


def test_axiom_despite_excludes():
    cfg = parse_config("rule 1: p.\nrule 2: q.\nmodifier: despite(1, 2).")
    out = triggers(cfg, [A("p"), A("q")], [(1, A("p")), (2, A("q"))])
    assert out == ["despite-exclusion: rule 2 applies, so rule 1 must not be valid"]


def test_axiom_strong_subjection_excludes():
    cfg = parse_config("rule 1: p.\nrule 2: q.\nmodifier: strong_subject_to(1, 2).")
    out = triggers(cfg, [A("p"), A("q")], [(1, A("p")), (2, A("q"))])
    assert out == ["strong-exclusion: rule 1 is valid, so rule 2 must not be valid"]


def test_axiom_subjection_excludes_on_conflict():
    cfg = parse_config(
        "rule 1: p.\nrule 2: q.\nmodifier: subject_to(1, 2).\ninconsistent: {p, q}."
    )
    out = triggers(cfg, [A("p"), A("q")], [(1, A("p")), (2, A("q"))])
    assert out == [
        "conflict-exclusion: rule 1 is valid and prevails, so rule 2 must not be valid"
    ]


def test_axiom_subjection_inert_without_conflict():
    cfg = parse_config("rule 1: p.\nrule 2: q.\nmodifier: subject_to(1, 2).")
    assert triggers(cfg, [A("p"), A("q")], [(1, A("p")), (2, A("q"))]) == []


def test_axiom_exclusion_needs_justification():
    cfg = parse_config("rule 1: p.")
    assert triggers(cfg, [], []) == [
        "exclusion-justification: rule 1 applies and is not valid, but nothing excludes it"
    ]


def test_axioms_accept_genuine_model():
    cfg = cfg_file("bob")
    model = LegalModel(
        frozenset(
            {
                A("wealthy", "bob"),
                A("must_buy", "merc", "bob"),
                A("may_spend_up_to_one_mill", "bob"),
            }
        ),
        frozenset(
            {
                (2, A("must_buy", "merc", "bob")),
                (3, A("may_spend_up_to_one_mill", "bob")),
            }
        ),
    )
    assert axiom_violations(cfg, model) == []


def test_axioms_require_ground_config():
    with pytest.raises(ConfigError, match="only defined for ground"):
        axiom_violations(parse_config("rule 1: p(X)."), LegalModel(frozenset(), frozenset()))


# ---------------------------------------------------------------------------
# conflict subtleties


def test_no_conflict_between_rules_with_same_conclusion():
    # subjection only bites on a genuine clash, and a rule never
    # clashes with a twin concluding the very same atom
    cfg = parse_config(
        "rule 1: p.\nrule 2: p.\nmodifier: subject_to(1, 2).\ninconsistent: {p, q}."
    )
    assert triggers(cfg, [A("p")], [(1, A("p")), (2, A("p"))]) == []


def test_conflict_needs_the_rest_of_the_set_legal():
    # in {p, q, r}, rules for p and q only clash once r is also legal
    base = (
        "rule 1: p <- f.\nrule 2: q <- f.\nfact: f.\n"
        "modifier: subject_to(1, 2).\ninconsistent: {p, q, r}."
    )
    without_r = triggers(
        parse_config(base), [A("f"), A("p"), A("q")], [(1, A("p")), (2, A("q"))]
    )
    assert without_r == []


# ---------------------------------------------------------------------------
# exhaustive legal model search


def model_jsons(name):
    return [m.to_json() for m in legal_models(cfg_file(name))]


def test_bob_has_two_legal_models():
    assert model_jsons("bob") == [
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


def test_strong_subjection_kills_the_rolls_model():
    models = model_jsons("bob_strong")
    assert len(models) == 1
    assert models[0]["legally_valid"] == [
        [2, "must_buy(merc,bob)"],
        [3, "may_spend_up_to_one_mill(bob)"],
    ]


def test_extreme_wealth_lifts_the_cap():
    models = model_jsons("bob_extreme")
    assert len(models) == 1
    assert models[0]["legally_valid"] == [
        [1, "must_buy(rolls,bob)"],
        [2, "must_buy(merc,bob)"],
        [4, "may_spend_up_to_ten_mill(bob)"],
    ]


def test_self_defeating_rule_leaves_no_model():
    assert legal_models(cfg_file("selfdefeat")) == []


def test_negation_loop_leaves_no_model():
    assert legal_models(cfg_file("chain")) == []


def test_self_supporting_rule_gives_nonminimal_model():
    models = model_jsons("nonminimal")
    assert models == [
        {"is_legal": ["a"], "legally_valid": [[3, "a"]]},
        {"is_legal": ["a", "c"], "legally_valid": [[1, "c"], [3, "a"]]},
    ]


def test_minimal_only_drops_the_superset():
    models = legal_models(cfg_file("nonminimal"))
    assert [m.to_json() for m in minimal_only(models)] == [
        {"is_legal": ["a"], "legally_valid": [[3, "a"]]}
    ]


def test_minimal_only_keeps_incomparable_models():
    models = legal_models(cfg_file("bob"))
    assert minimal_only(models) == models


def test_self_despite_leaves_the_empty_model():
    cfg = parse_config("rule 1: p.\nmodifier: despite(1, 1).")
    assert [m.to_json() for m in legal_models(cfg)] == [
        {"is_legal": [], "legally_valid": []}
    ]


def test_legal_models_cap():
    # Self-supporting rules: every validity set is a legal model, so the
    # search branches at each rule and the cap counts its nodes.
    cfg = parse_config("\n".join(f"rule {i}: c{i} <- c{i}." for i in range(25)))
    with pytest.raises(ResourceCapError) as exc:
        legal_models(cfg, cap_bits=10)
    assert str(exc.value) == "legal model search exceeded 2^10 nodes with 22 of 25 rules decided"


def test_facts_cost_no_candidates():
    cfg = parse_config("\n".join(f"fact: a{i}." for i in range(25)))
    (m,) = legal_models(cfg, cap_bits=0)
    assert m == LegalModel(frozenset(cfg.facts), frozenset())


def test_legal_models_match_the_full_sweep_on_random_configs():
    rng = random.Random(1986)
    found = 0
    for i in range(3000):
        cfg = random_config(rng)
        models = legal_models(cfg)
        assert models == validity_sweep_legal_models(cfg), cfg
        if i < 250:
            assert models == sweep_legal_models(cfg), cfg
            found += len(models)
    assert found > 100


@pytest.mark.parametrize("path", sorted(CASES.glob("*.cfg")), ids=lambda p: p.stem)
def test_legal_models_match_the_full_sweep_on_cases(path):
    cfg = parse_config(path.read_text())
    assert legal_models(cfg) == validity_sweep_legal_models(cfg) == sweep_legal_models(cfg)


def test_constraints_are_the_axioms_on_complete_assignments():
    # Once every validity bit is decided, some constraint is false
    # exactly when the validity set breaks a defining condition.
    rng = random.Random(1995)
    for _ in range(300):
        cfg = random_config(rng)
        search = _ValiditySearch(cfg)
        facts = frozenset(cfg.facts)
        for bits in itertools.product((False, True), repeat=len(cfg.rules)):
            for k, b in enumerate(bits):
                search.assign(k, b)
            valid = frozenset((r.id, r.head) for r, b in zip(cfg.rules, bits) if b)
            model = LegalModel(facts.union(c for _, c in valid), valid)
            refuted = any(search.falsified(c) for c in search.constraints)
            assert refuted == bool(axiom_violations(cfg, model)), (cfg, bits)
            for k in range(len(cfg.rules)):
                search.unassign(k)


def test_every_complete_assignment_reached_is_a_legal_model(monkeypatch):
    # The watch lists miss no constraint: the search never reaches a
    # complete assignment that the final check then throws away.
    checked = []

    def recording(cfg, model):
        out = axiom_violations(cfg, model)
        checked.append(out)
        return out

    monkeypatch.setattr(asp, "axiom_violations", recording)
    rng = random.Random(2002)
    for _ in range(500):
        legal_models(random_config(rng))
    assert checked and not any(checked)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_no_constraint_is_false_on_the_way_to_a_legal_model(seed, data):
    # Pruning is sound: a partial assignment that some legal model
    # extends leaves every constraint true or unknown.
    cfg = random_config(random.Random(seed))
    models = legal_models(cfg)
    assume(models)
    model = data.draw(st.sampled_from(models))
    decided = data.draw(st.sets(st.sampled_from(range(len(cfg.rules)))))
    search = _ValiditySearch(cfg)
    for k in sorted(decided):
        r = cfg.rules[k]
        search.assign(k, (r.id, r.head) in model.legally_valid)
    assert not any(search.falsified(c) for c in search.constraints)


def pairwise_chain(n):
    """Rules c_i <- a; rule 2k-1 prevails over rule 2k, whose
    conclusions clash.  The one legal model holds the odd-numbered
    rules valid."""
    lines = ["fact: a."]
    lines += [f"rule {i}: c{i} <- a." for i in range(1, n + 1)]
    for i in range(1, n, 2):
        lines.append(f"modifier: subject_to({i}, {i + 1}).")
        lines.append(f"inconsistent: {{c{i}, c{i + 1}}}.")
    return parse_config("\n".join(lines))


@pytest.mark.parametrize("n", [20, 200, 4000])
def test_pairwise_chain_under_the_default_cap(n):
    (m,) = legal_models(pairwise_chain(n))
    odd = range(1, n + 1, 2)
    assert m.legally_valid == {(i, A(f"c{i}")) for i in odd}
    assert m.is_legal == {A("a"), *(A(f"c{i}") for i in odd)}


def _dense_config(rng):
    """A ground configuration with more modifiers and inconsistent sets
    per rule than `random_config` draws, some sets repeating an atom."""
    atoms = [A(n) for n in "abcdef"]
    rules = []
    for i in range(1, rng.randrange(3, 9)):
        body = tuple(Literal(rng.choice(atoms), rng.random() < 0.7) for _ in range(rng.randrange(3)))
        rules.append(DefRule(i, rng.choice(atoms), body))
    ids = [r.id for r in rules]
    modifiers = tuple(
        Modifier(rng.choice(asp.MODIFIER_KINDS), *rng.sample(ids, 2)) for _ in range(rng.randrange(8))
    )
    inconsistent = []
    for _ in range(rng.randrange(5)):
        k = rng.sample(atoms, rng.randrange(2, 4))
        inconsistent.append(tuple(k + [k[0]] if rng.random() < 0.2 else k))
    facts = tuple(rng.sample(atoms, rng.randrange(3)))
    return Config(tuple(rules), facts, modifiers, tuple(inconsistent))


def _tampered_models(cfg, rng, n):
    """Candidates that break the conditions in every way: random legal
    atoms, random validity pairs, some with a wrong conclusion or an
    unknown rule."""
    atoms = list(dict.fromkeys([*cfg.facts, *(r.head for r in cfg.rules), A("z")]))
    pairs = [(r.id, r.head) for r in cfg.rules] + [(99, A("a")), (cfg.rules[0].id, A("z"))]
    for _ in range(n):
        legal = frozenset(a for a in atoms if rng.random() < 0.5)
        valid = frozenset(p for p in pairs if rng.random() < 0.4)
        yield LegalModel(legal, valid)


def test_axiom_violations_match_the_scanning_checker():
    rng = random.Random(2026)
    for i in range(600):
        cfg = random_config(rng) if i % 2 else _dense_config(rng)
        for model in [*legal_models(cfg), *_tampered_models(cfg, rng, 20)]:
            assert axiom_violations(cfg, model) == scan_axiom_violations(cfg, model), (cfg, model)


def test_axiom_violations_match_the_scanning_checker_on_a_chain():
    cfg = pairwise_chain(40)
    rng = random.Random(7)
    (model,) = legal_models(cfg)
    for m in [model, *_tampered_models(cfg, rng, 50)]:
        assert axiom_violations(cfg, m) == scan_axiom_violations(cfg, m)


def test_legal_models_deterministic():
    a = legal_models(cfg_file("bob"))
    b = legal_models(cfg_file("bob"))
    assert a == b


# ---------------------------------------------------------------------------
# the answer set encoding text


BOB_PROGRAM = """\
is_legal(wealthy(bob)).
subject_to(3,1).
subject_to(3,2).
despite(3,4).
according_to(1,must_buy(rolls,bob)) :- is_legal(wealthy(bob)).
according_to(2,must_buy(merc,bob)) :- is_legal(wealthy(bob)).
according_to(3,may_spend_up_to_one_mill(bob)) :- is_legal(wealthy(bob)).
according_to(4,may_spend_up_to_ten_mill(bob)) :- is_legal(extremely_wealthy(bob)).
opposes(must_buy(rolls,bob),must_buy(merc,bob)) :- is_legal(may_spend_up_to_one_mill(bob)).
opposes(must_buy(rolls,bob),may_spend_up_to_one_mill(bob)) :- is_legal(must_buy(merc,bob)).
opposes(must_buy(merc,bob),may_spend_up_to_one_mill(bob)) :- is_legal(must_buy(rolls,bob)).
opposes(X,Y) :- opposes(Y,X).
defeated(R2,C2) :- despite(R2,R1), according_to(R1,C1), according_to(R2,C2).
defeated(R2,C2) :- strong_subject_to(R1,R2), legally_valid(R1,C1), according_to(R2,C2).
defeated(R2,C2) :- subject_to(R1,R2), legally_valid(R1,C1), opposes(C1,C2), according_to(R2,C2).
not_legally_valid(R) :- defeated(R,C).
legally_valid(R,C) :- according_to(R,C), not not_legally_valid(R).
is_legal(C) :- legally_valid(R,C).
"""


def test_emit_asp_bob_golden():
    assert emit_asp(cfg_file("bob")).to_text() == BOB_PROGRAM


def test_emit_asp_requires_ground_config():
    with pytest.raises(ConfigError, match="needs a ground configuration"):
        emit_asp(parse_config("rule 1: p(X) <- q(X).\nfact: q(a)."))
