"""The four workloads: their inputs, queries and correctness checks.

`build(name, lib, seed, cases)` returns one round of queries.  A query
runs one call chain into the library and returns its answer; its
`check` compares the answer with a computation made apart from the
program (see oracles.py) or with a verdict known by construction, and
returns None or the reason the answer is wrong.  Library functions are
always looked up as module attributes at call time, so the traced run
sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import gen
import oracles


@dataclass
class Query:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    digest: Callable[[object], object]  # equal digests mean equal answers
    encoding: Callable[[object], int]  # bytes of the solver encoding of the input
    input_counts: dict = field(default_factory=dict)  # per-layer counts fixed by the input


def build(name: str, lib, seed: int, cases: dict[str, str]) -> list[Query]:
    return WORKLOADS[name](lib, seed, cases)


def _sha(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _goal(lib, module, a):
    env = lib.typecheck.Env.from_module(module)
    return (a.name, a.mode, lib.models.guard_quantifiers(lib.models.rewrite_fields(a.formula), env))


def _load(lib, text: str):
    m = lib.typecheck.elaborate(lib.parser.parse_module(text))
    lib.typecheck.typecheck_module(m)
    return m


def _ancestors(module) -> dict[str, list[str]]:
    """Class-membership predicate -> predicates of its ancestor classes."""
    parent = {c.name: c.parent for c in module.classes}
    out = {}
    for c in parent:
        ups, p = [], parent[c]
        while p in parent:
            ups.append("is" + p)
            p = parent[p]
        out["is" + c] = ups
    return out


# ---------------------------------------------------------------------------
# l4_compile: front end, both restriction semantics, SMT-LIB, no search

# (priority groups, rules per group, fan-in), smallest first; the last
# spec is an 80-rule module.  The counts are chosen, not measured from
# use: with the cases they make 102 queries a round, the 20 modules of
# at most 12 rules put query_p50_s on small modules, and the five
# largest put query_p90_s where precondition ballooning dominates.
COMPILE_SPECS = (
    [(1, 6, 1)] * 12 + [(2, 6, 2)] * 8 + [(3, 8, 2)] * 5 + [(4, 8, 3)] * 3 + [(6, 8, 3), (8, 10, 3)]
)
COMPILE_MODES = [("precond", False), ("deriv", False), ("precond", True)]
COMPILE_CASES = ["speedlimit_repaired", "speedlimit_plain", "selfref", "speedlimit_original"]
ORIGINAL_CYCLE = {"maxSpCarWorkday", "maxSpCarHighway", "maxSpSportsCar"}


@dataclass
class Compiled:
    source: object
    result: object  # TransformResult, None when rejected as cyclic
    cycle: object  # the CycleError, when rejected
    smt: str
    script: object


def _priority_links(module) -> tuple[list[str], set]:
    """Rule names after subjectTo elimination, and the ordering edges
    each priority link must produce: (prevailing, yielding) and
    (yielding'Orig, yielding)."""
    user = [r for r in module.rules if not r.system]
    links = set()
    for r in user:
        ann = r.annotation
        if oracles.kind(ann) == "Restrict":
            links |= {(d, r.name) for d in ann.subject_to}
            links |= {(r.name, y) for y in ann.despite}
    yielding = {y for _, y in links}
    names = [r.name for r in user] + [y + "'Orig" for y in yielding]
    return names, links | {(y + "'Orig", y) for y in yielding}


def _compile_query(lib, name: str, text: str, variant: str, simp: bool) -> Query:
    V = lib.transform.Variant(variant)

    def run():
        m = lib.parser.parse_module(text)
        m = lib.typecheck.elaborate(m)
        lib.typecheck.typecheck_module(m)
        try:
            res = lib.transform.transform_module(m, V, simplify_preconds=simp)
        except lib.transform.CycleError as e:
            return Compiled(m, None, e, "", None)
        target, goal = res.module, None
        if target.assertions:
            a = target.assertions[0]
            target = lib.models.adjusted_rules(target, a)
            goal = _goal(lib, target, a)
        fs = lib.models.rules_to_formulas(target)
        smt = lib.smtlib.emit_smtlib(fs, goal)
        return Compiled(m, res, None, smt, lib.smtlib.read_script(smt))

    def check(c: Compiled) -> Optional[str]:
        if name == "speedlimit_original":
            if c.cycle is None:
                return "a cyclic module was accepted"
            if set(c.cycle.cycle) != ORIGINAL_CYCLE:
                return f"wrong cycle {c.cycle.cycle}"
            return None
        if c.cycle is not None:
            return f"rejected as cyclic: {c.cycle}"
        try:
            lib.typecheck.typecheck_module(c.result.module)
        except lib.syntax.NormlogError as e:
            return f"the transformed module does not type-check: {e}"
        names, links = _priority_links(c.source)
        order = c.result.order
        if not oracles.is_topological(order.sequence, order.edges, names):
            return "the rule order is not a topological order of its edges"
        if not links <= set(order.edges):
            return f"ordering edges miss {sorted(links - set(order.edges))}"
        if not (c.script.has_check_sat and c.script.has_get_model):
            return "the SMT-LIB script has no (check-sat)/(get-model)"
        if simp:
            return _check_simplified(lib, c)
        return None

    def digest(c: Compiled):
        if c.cycle is not None:
            return ("cycle", c.cycle.cycle)
        return (_sha(c.smt), c.result.order.sequence, c.result.order.edges)

    return Query(f"{name}/{variant}{'+simplify' if simp else ''}", run, check, digest,
                 lambda c: len(c.smt.encode()))


# Truth tables are compared only while their size stays this small.
TRUTH_TABLE_WORK = 200_000


def _check_simplified(lib, c: Compiled) -> Optional[str]:
    plain = lib.transform.transform_module(c.source, lib.transform.Variant.PRECOND)
    before = {r.name: r.precond for r in plain.module.rules if not r.system}
    implied = _ancestors(c.source)
    for r in c.result.module.rules:
        if r.system:
            continue
        if oracles.truth_table_work(r.precond, before[r.name]) > TRUTH_TABLE_WORK:
            continue
        if not oracles.equivalent(r.precond, before[r.name], implied):
            return f"simplified precondition of {r.name} is not equivalent to the original"
    return None


def l4_compile(lib, seed: int, cases: dict[str, str]) -> list[Query]:
    rng = random.Random(seed)
    sources = [
        (f"gen{i}-{g}x{n}-fan{f}", gen.compile_module(rng, g, n, f))
        for i, (g, n, f) in enumerate(COMPILE_SPECS)
    ]
    sources += [(c, cases[c + ".l4"]) for c in COMPILE_CASES]
    return [
        _compile_query(lib, name, text, variant, simp)
        for name, text in sources
        for variant, simp in COMPILE_MODES
    ]


# ---------------------------------------------------------------------------
# l4_check: deciding assertions by finite-model search

SPEEDLIMIT_SIZES = [
    ("precond", (1, 1, 1)),
    ("precond", (2, 1, 1)),
    ("precond", (1, 2, 1)),
    ("precond", (1, 1, 2)),
    ("deriv", (1, 1, 1)),
]
CASE_CHECKS = [
    ("speedlimit_repaired", "maxSpFunctional", "valid", (90, 130, 320), SPEEDLIMIT_SIZES),
    ("speedlimit_plain", "maxSpFunctional", "counter_model", (90, 130), SPEEDLIMIT_SIZES),
    ("selfref", "anything", "unsatisfiable", (), [("precond", ()), ("deriv", ())]),
]
VERDICTS = ["valid", "counter_model", "satisfiable", "unsatisfiable"]
# (variant, things, samples): the lifted table of the derivability route
# grows with the carrier, so it is searched over one thing, and less often.
GEN_CHECK_SIZES = [("precond", 1, 10), ("precond", 2, 10), ("deriv", 1, 3)]
GEN_CHECK_RULES = 3


def _check_query(lib, name, module, assertion, verdict, sizes, ints) -> Query:
    a = next(x for x in module.assertions if x.name == assertion)

    def formulas():
        target = lib.models.adjusted_rules(module, a)
        return lib.models.rules_to_formulas(target), _goal(lib, target, a)

    def run():
        return lib.models.check_assertion(module, assertion, sizes, ints)

    def check(out) -> Optional[str]:
        if out.status != verdict:
            return f"verdict {out.status}, expected {verdict}"
        if out.model is None:
            return None
        fs, (_, mode, goal) = formulas()
        m = out.model
        for fname, f in fs.formulas:
            if not oracles.evaluate(f, m.tables, m.carriers, m.ints):
                return f"the returned model falsifies {fname}"
        if oracles.evaluate(goal, m.tables, m.carriers, m.ints) != (mode != "valid"):
            return "the returned model does not decide the assertion as reported"
        return None

    def digest(out):
        model = json.dumps(out.model.to_json(), sort_keys=True) if out.model else None
        return (out.status, model)

    def encoding(_out) -> int:
        fs, goal = formulas()
        return len(lib.smtlib.emit_smtlib(fs, goal).encode())

    nodes = sum(oracles.count_nodes(r.precond) + oracles.count_nodes(r.postcond) for r in module.rules)
    return Query(name, run, check, digest, encoding, {"transform.out_nodes": nodes})


def l4_check(lib, seed: int, cases: dict[str, str]) -> list[Query]:
    rng = random.Random(seed)
    out = []
    compiled: dict = {}

    def compiled_for(key, text, variant):
        if (key, variant) not in compiled:
            m = _load(lib, text)
            V = lib.transform.Variant(variant)
            compiled[key, variant] = lib.transform.transform_module(m, V).module
        return compiled[key, variant]

    for case, assertion, verdict, ints, sizes in CASE_CHECKS:
        for variant, dims in sizes:
            module = compiled_for(case, cases[case + ".l4"], variant)
            sz = dict(zip(("Vehicle", "Day", "Road"), dims))
            name = f"{case}/{variant}/{'-'.join(map(str, dims)) or 'none'}"
            out.append(_check_query(lib, name, module, assertion, verdict, sz, ints))
    ints = tuple(range(10, 10 + GEN_CHECK_RULES))
    for verdict in VERDICTS:
        samples = [gen.check_module(rng, GEN_CHECK_RULES, verdict)
                   for _ in range(max(n for _, _, n in GEN_CHECK_SIZES))]
        for variant, things, count in GEN_CHECK_SIZES:
            for k, cm in enumerate(samples[:count]):
                module = compiled_for((verdict, k), cm.text, variant)
                name = f"{cm.name}{k}/{variant}/{things}"
                out.append(
                    _check_query(lib, name, module, cm.assertion, cm.verdict, {"Thing": things}, ints)
                )
    return out


# ---------------------------------------------------------------------------
# l4_correspond: every model of both compiled forms, transferred

# randgen modules by (things, integer argument, free cells, rules).  The
# free cells of the derivability route (class tables plus the lifted
# tables, one per rule concluding a predicate) set the size of the
# search, so each stratum has a narrow cost and a fixed quota: a round
# costs the same, and its median falls in the same strata, whatever the
# seed.  The two costliest strata form a core drawn from CORE_SEED in
# every run, large enough that the 90th percentile falls well inside
# it and so reads the same inputs.  Two things with an integer argument cost up
# to seconds per module and are left out.
CORRESPOND_QUOTA = {
    (1, False, 3, 2): 32, (1, False, 4, 2): 32, (1, False, 4, 3): 32, (1, False, 5, 3): 32,
    (1, True, 5, 2): 32, (1, True, 6, 2): 32, (2, False, 6, 2): 32,
    (1, True, 7, 3): 16, (2, False, 8, 2): 16, (1, True, 8, 3): 16,
}
CORRESPOND_CORE = {(2, False, 8, 3): 48, (2, False, 10, 3): 8}
CORE_SEED = 0


def _stratum(sample) -> tuple:
    things = sample.sizes["Thing"]
    values = len(sample.ints) or 1
    rules = sample.module.rules
    concluding: dict[str, int] = {}
    for r in rules:
        head = oracles.head_args(r.postcond)[0]
        concluding[head] = concluding.get(head, 0) + 1
    cells = things * (len(sample.module.classes) - 1)
    cells += sum(things * values * n for n in concluding.values())
    return things, values > 1, cells, len(rules)


def _correspond_query(lib, name, module, sizes, ints, models=None) -> Query:
    def run():
        return lib.correspond.check_model_correspondence(module, sizes, ints)

    def check(r) -> Optional[str]:
        if r.violations:
            v = r.violations[0]
            return f"{len(r.violations)} violation(s), first {v.direction}: {v.formula}"
        if r.checked_precond != r.checked_deriv:
            return f"{r.checked_precond} precondition-route models, {r.checked_deriv} derivability-route"
        if r.checked_precond == 0:
            return "no models"
        if models is not None and r.checked_precond != models:
            return f"{r.checked_precond} models, expected {models}"
        return None

    def encoding(_r) -> int:
        pair = lib.correspond.build_correspondence(module)
        return sum(len(lib.smtlib.emit_smtlib(fs).encode()) for fs in (pair.fs_precond, pair.fs_deriv))

    return Query(name, run, check, lambda r: (r.checked_precond, r.checked_deriv, len(r.violations)),
                 encoding)


def l4_correspond(lib, seed: int, cases: dict[str, str]) -> list[Query]:
    rng = random.Random(seed)
    out = []
    for quota, draw in ((CORRESPOND_QUOTA, rng), (CORRESPOND_CORE, random.Random(CORE_SEED))):
        quota = dict(quota)
        while any(quota.values()):
            s = lib.randgen.random_annotated_module(draw)
            key = _stratum(s)
            if quota.get(key):
                quota[key] -= 1
                out.append(_correspond_query(lib, f"randgen{len(out)}", s.module, s.sizes, s.ints))
    # Vehicle, Day and Road of one element each: maxSp is a function of
    # the three speed limits, Car and SportsCar membership 2 x 2 ways,
    # Workday and Highway 2 ways each, so 3 * 2 * 2 models.
    m = lib.parser.parse_module(cases["speedlimit_repaired.l4"])
    out.append(
        _correspond_query(lib, "speedlimit_repaired/1-1-1", m, {"Vehicle": 1, "Day": 1, "Road": 1},
                          (90, 130, 320), models=3**1 * 2**1 * 2**1)
    )
    return out


# ---------------------------------------------------------------------------
# cfg_semantics: legal models, answer sets and their cross-check

CFG_CASES = ["bob", "bob_strong", "bob_extreme", "chain", "selfdefeat", "convgap", "nonminimal"]
# valid-rule sets of the purchase-obligation examples, as in the paper
PAPER_VALID = {
    "bob": {frozenset({1, 3}), frozenset({2, 3})},
    "bob_strong": {frozenset({2, 3})},
    "bob_extreme": {frozenset({1, 2, 4})},
    "chain": set(),
    "selfdefeat": set(),
}
# random_config samples by (rules, atoms that can be legal): the
# legal-model sweep costs 2^(atoms + rules), so a fixed quota per
# stratum keeps a round's cost and percentiles steady across seeds.
RANDOM_CFG_QUOTA = {
    (1, 1): 12, (1, 2): 12, (2, 2): 24, (2, 3): 24, (3, 2): 24,
    (3, 3): 36, (3, 4): 24, (4, 2): 18, (4, 3): 42, (4, 4): 30,
}
CHAIN_LEGAL = [4, 5]  # legal-model sweep over 2^(n+1+n) candidates
CHAIN_ANSWERS = [12, 14, 16]  # stable-model guess over 2^(n/2) candidates
PLAIN_ANSWERS = [40, 60, 80]  # grounding-bound: every rule applies
PLAIN_DEPTH = 5
STABLE_ORACLE_HEADS = 9  # brute-force stable models up to 2^9 candidates
LEGAL_ORACLE_RULES = 12  # the validity-set sweep up to 2^12 candidates


def _cfg_text(rules, facts=(), modifiers=(), inconsistent=()) -> str:
    """Configuration source: rules as (id, head, [(atom, positive)])."""
    lines = []
    for rid, head, body in rules:
        lits = ", ".join(a if pos else f"not {a}" for a, pos in body)
        lines.append(f"rule {rid}: {head} <- {lits}." if body else f"rule {rid}: {head}.")
    lines += [f"fact: {a}." for a in facts]
    lines += [f"modifier: {k}({i}, {j})." for k, i, j in modifiers]
    lines += ["inconsistent: {" + ", ".join(s) + "}." for s in inconsistent]
    return "\n".join(lines) + "\n"


def pairwise_chain(n: int) -> tuple[str, tuple]:
    """Rules c_i <- a; rule 2k-1 prevails over rule 2k, whose conclusions
    clash.  The one legal model: a and the odd-numbered conclusions."""
    rules = [(i, f"c{i}", [("a", True)]) for i in range(1, n + 1)]
    mods = [("subject_to", i, i + 1) for i in range(1, n, 2)]
    inc = [(f"c{i}", f"c{i + 1}") for i in range(1, n, 2)]
    odd = range(1, n + 1, 2)
    model = (frozenset({"a", *(f"c{i}" for i in odd)}), frozenset((i, f"c{i}") for i in odd))
    return _cfg_text(rules, ["a"], mods, inc), model


def plain_rules(rng: random.Random, n: int) -> tuple[str, tuple]:
    """n rules with no modifiers in PLAIN_DEPTH layers: each rule rests
    on a fact or on a rule of the layer below, so every rule applies
    and is valid, in the one model.  Grounding takes one pass per layer;
    the seed numbers the rules and picks the facts."""
    facts = [f"f{i}" for i in range(4)]
    width = n // PLAIN_DEPTH
    ids = rng.sample(range(1, n + 1), n)
    rules = []
    for k in range(n):
        body = rng.choice(facts) if k < width else f"p{ids[k - width]}"
        rules.append((ids[k], f"p{ids[k]}", [(body, True)]))
    rules.sort()
    model = (frozenset(facts + [f"p{i}" for i in ids]), frozenset((i, f"p{i}") for i in ids))
    return _cfg_text(rules, facts), model


def _random_cfg_text(cfg) -> str:
    return _cfg_text(
        [(r.id, str(r.head), [(str(l.atom), l.positive) for l in r.body]) for r in cfg.rules],
        [str(a) for a in cfg.facts],
        [(m.kind, m.first, m.second) for m in cfg.modifiers],
        [[str(a) for a in k] for k in cfg.inconsistent],
    )


def _names(model) -> tuple:
    legal, valid = model
    return frozenset(map(str, legal)), frozenset((i, str(c)) for i, c in valid)


def _projection(answer_set) -> tuple:
    legal = frozenset(str(a.args[0]) for a in answer_set if a.pred == "is_legal")
    valid = frozenset((a.args[0], str(a.args[1])) for a in answer_set if a.pred == "legally_valid")
    return legal, valid


def _cfg_query(lib, name: str, text: str, op: str, expected=None, paper=None) -> Query:
    """`expected`: the set of models known by construction, as
    (legal atom names, (rule id, conclusion name) pairs);
    `paper`: the valid-rule-id sets of the paper's examples."""
    def run():
        cfg = lib.asp.parse_config(text)
        if op == "legal":
            return cfg, lib.asp.legal_models(cfg)
        if op == "answers":
            return cfg, lib.asp.answer_sets(lib.asp.emit_asp(cfg))
        return cfg, lib.asp.verify_lemma4(cfg)

    def same_models(found: set) -> Optional[str]:
        if expected is not None and found != expected:
            return f"models {sorted(map(sorted, found))}, expected {sorted(map(sorted, expected))}"
        if paper is not None and {frozenset(i for i, _ in v) for _, v in found} != paper:
            return f"valid-rule sets {[sorted(i for i, _ in v) for _, v in found]}, paper has {paper}"
        return None

    def check(out) -> Optional[str]:
        cfg, res = out
        if op == "legal":
            legal = _sweep(cfg)
            found = {_names((m.is_legal, m.legally_valid)) for m in res}
            if len(found) != len(res):
                return "a legal model is listed twice"
            if legal is not None and found != legal:
                return f"{len(found)} legal models, the validity-set sweep finds {len(legal)}"
            return same_models(found)
        if op == "answers":
            found = {_projection(s) for s in res}
            for legal_atoms, valid in found:
                if not _is_legal(cfg, legal_atoms, valid):
                    return f"answer set projects to {sorted(legal_atoms)}, not a legal model"
            stable = _brute_force(lib, cfg)
            if stable is not None and set(res) != stable:
                return "answer sets differ from the brute-force stable models"
            return same_models(found)
        if not res.sound:
            return f"unsound: {res.unsound[0]}"
        stable = _brute_force(lib, cfg)
        if stable is not None and res.answer_sets != len(stable):
            return f"{res.answer_sets} answer sets, brute force finds {len(stable)}"
        legal = _sweep(cfg)
        if legal is not None:
            uncovered = {_names((m.is_legal, m.legally_valid)) for m in res.uncovered}
            if res.legal_models != len(legal) or not uncovered <= legal:
                return f"{res.legal_models} legal models reported, the sweep finds {len(legal)}"
            if res.answer_sets != len(legal) - len(uncovered):
                return f"{res.answer_sets} answer sets for {len(legal) - len(uncovered)} covered models"
        return None

    def digest(out):
        _, res = out
        if op == "legal":
            return tuple(json.dumps(m.to_json(), sort_keys=True) for m in res)
        if op == "answers":
            return tuple(tuple(sorted(map(str, s))) for s in res)
        return json.dumps(res.to_json(), sort_keys=True)

    return Query(f"{name}/{op}", run, check, digest,
                 lambda out: len(lib.asp.emit_asp(out[0]).to_text().encode()))


def _brute_force(lib, cfg):
    """Stable models of the ground program by their definition, for
    programs with few heads.  The ground instances are the program's
    own; the search over them is not."""
    ground = lib.asp._ground_program(lib.asp.emit_asp(cfg))
    if len({g.head for g in ground}) > STABLE_ORACLE_HEADS:
        return None
    return oracles.stable_models(ground)


def _sweep(cfg):
    """The legal models by the validity-set sweep, for small configurations."""
    if len(cfg.rules) > LEGAL_ORACLE_RULES:
        return None
    return {_names(m) for m in oracles.legal_models(cfg)}


def _is_legal(cfg, legal_names, valid_names) -> bool:
    atoms = {str(a): a for a in cfg.facts} | {str(r.head): r.head for r in cfg.rules}
    if not legal_names <= set(atoms):
        return False
    legal = frozenset(atoms[n] for n in legal_names)
    heads = {r.id: r.head for r in cfg.rules}
    if any(i not in heads or str(heads[i]) != c for i, c in valid_names):
        return False
    valid = frozenset((i, heads[i]) for i, _ in valid_names)
    return oracles.is_legal_model(cfg, legal, valid)


def cfg_semantics(lib, seed: int, cases: dict[str, str]) -> list[Query]:
    rng = random.Random(seed)
    out = []
    for c in CFG_CASES:
        for op in ("legal", "answers", "lemma4"):
            out.append(_cfg_query(lib, c, cases[c + ".cfg"], op, paper=PAPER_VALID.get(c)))
    quota = dict(RANDOM_CFG_QUOTA)
    while any(quota.values()):
        cfg = lib.randgen.random_config(rng)
        key = (len(cfg.rules), len(set(cfg.facts) | {r.head for r in cfg.rules}))
        if quota.get(key):
            quota[key] -= 1
            out.append(_cfg_query(lib, f"random{len(out)}", _random_cfg_text(cfg), "lemma4"))
    for n in CHAIN_LEGAL:
        text, model = pairwise_chain(n)
        out.append(_cfg_query(lib, f"chain{n}", text, "legal", expected={model}))
    for n in CHAIN_ANSWERS:
        text, model = pairwise_chain(n)
        out.append(_cfg_query(lib, f"chain{n}", text, "answers", expected={model}))
    for n in PLAIN_ANSWERS:
        text, model = plain_rules(rng, n)
        out.append(_cfg_query(lib, f"plain{n}", text, "answers", expected={model}))
    return out


WORKLOADS = {
    "l4_compile": l4_compile,
    "l4_check": l4_check,
    "l4_correspond": l4_correspond,
    "cfg_semantics": cfg_semantics,
}
