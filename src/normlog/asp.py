"""Defeasible rule configurations, their legal models, and an answer
set encoding with a built-in stable-model search.

A configuration is propositional-with-terms: rules with atomic heads
and bodies of (possibly negated) atoms, facts, modifier declarations
between rule ids, and minimal inconsistent sets of atoms.  Modifier
argument order, fixed here once and used everywhere:

* ``despite(subordinate, dominating)``: if the dominating rule's
  precondition is satisfied, the subordinate rule is not valid.
* ``subject_to(dominating, subordinate)``: if the dominating rule is
  valid and an inconsistent set contains both conclusions and is fully
  legal apart from the subordinate conclusion, the subordinate rule is
  not valid.
* ``strong_subject_to(dominating, subordinate)``: if the dominating
  rule is valid, the subordinate rule is not valid, unconditionally.

Legal models are checked directly against the defining conditions (see
`axiom_violations`); they are deliberately NOT minimized, because
non-minimal legal models are part of the semantics.  The conditions
force the legal atoms once the valid rules are chosen, so
`legal_models` searches the validity bits depth first, cutting a
branch as soon as a condition is false in three-valued logic.  The
answer set encoding (`emit_asp`) computes a subset of them;
`verify_lemma4` holds the two against each other.

The stable-model search grounds the program against the least model
of the negation-free relaxation (every stable model is contained in
it): ground clauses by counting their missing atoms, schematic ones
semi-naively.  The ground program is kept in the order its instances
are first derived and is never sorted.  The well-founded model then
decides most negated atoms, and candidate assignments are tried only
for the negated atoms it leaves undecided.  Answer sets are sorted
when they are returned.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .syntax import NormlogError
from .models import ResourceCapError
from .parser import MAX_NESTING


class ConfigError(NormlogError):
    pass


DEFAULT_CAP_BITS = 20


# ---------------------------------------------------------------------------
# terms, atoms, rules


@dataclass(unsafe_hash=True)
class TVar:
    """A variable of a schematic term, such as `X`."""

    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[int, str, TVar, "Atom"]


@dataclass
class Atom:
    """An atom, or a compound term inside one.  Atoms are values, under
    the one rule for every value class (`syntax.Expr`): a plain
    dataclass, no field of which is assigned after construction, which
    the tests check rather than a frozen dataclass.
    An atom hashes structurally, by `(pred, args)`, computed once, on
    first use, and kept in `_hash`, which is not a field: `==`, `repr`
    and `dataclasses.replace` ignore it, and a pickled atom leaves it
    behind, since string hashes differ between processes."""

    pred: str
    args: tuple = ()
    _hash = None

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.pred, self.args))
            self._hash = h
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}(" + ",".join(str(a) for a in self.args) + ")"


@dataclass(unsafe_hash=True)
class Literal:
    """A body literal: an atom, positive or under `not`."""

    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(unsafe_hash=True)
class DefRule:
    """A numbered defeasible rule of a configuration: its head and body literals."""

    id: int
    head: Atom
    body: tuple = ()

    def __str__(self) -> str:
        if not self.body:
            return f"rule {self.id}: {self.head}."
        return f"rule {self.id}: {self.head} <- " + ", ".join(str(b) for b in self.body) + "."


DESPITE = "despite"
SUBJECT_TO = "subject_to"
STRONG_SUBJECT_TO = "strong_subject_to"
MODIFIER_KINDS = (DESPITE, SUBJECT_TO, STRONG_SUBJECT_TO)


@dataclass(unsafe_hash=True)
class Modifier:
    """A modifier between two rules by id: despite, subject_to or strong_subject_to."""

    kind: str
    first: int
    second: int

    def __str__(self) -> str:
        return f"{self.kind}({self.first},{self.second})"


@dataclass(unsafe_hash=True)
class Config:
    """A configuration: rules, facts, modifiers and inconsistent sets of atoms."""

    rules: tuple = ()
    facts: tuple = ()
    modifiers: tuple = ()
    inconsistent: tuple = ()  # tuple of tuples of atoms

    @cached_property
    def rule_map(self) -> dict:
        """The rules by id, built once per configuration."""
        return {r.id: r for r in self.rules}

    @cached_property
    def fact_set(self) -> frozenset:
        """The facts as a set, built once per configuration."""
        return frozenset(self.facts)

    @cached_property
    def excluders(self) -> dict:
        """The modifiers that can exclude a rule, by its id, in
        configuration order: despite by its first rule, the two
        subjections by their second."""
        out: dict = {}
        for m in self.modifiers:
            out.setdefault(m.first if m.kind == DESPITE else m.second, []).append(m)
        return out

    @cached_property
    def inconsistent_by_atom(self) -> dict:
        """The inconsistent sets holding an atom, by atom, in
        configuration order."""
        out: dict = {}
        for k in self.inconsistent:
            for a in dict.fromkeys(k):
                out.setdefault(a, []).append(k)
        return out

    def validate(self) -> None:
        seen = set()
        for r in self.rules:
            if r.id in seen:
                raise ConfigError(f"duplicate rule id {r.id}")
            seen.add(r.id)
        for m in self.modifiers:
            if m.kind not in MODIFIER_KINDS:
                raise ConfigError(f"unknown modifier kind '{m.kind}'")
            for i in (m.first, m.second):
                if i not in seen:
                    raise ConfigError(f"modifier {m} names unknown rule {i}")
        for k in self.inconsistent:
            if len(set(k)) < 2:
                raise ConfigError(
                    f"inconsistent set {{{', '.join(str(a) for a in k)}}} needs at "
                    f"least two distinct atoms"
                )

    def is_ground(self) -> bool:
        return self._ground

    @cached_property
    def _ground(self) -> bool:
        return all(map(_is_ground, self._all_atoms()))

    def _all_atoms(self) -> Iterable[Atom]:
        for r in self.rules:
            yield r.head
            for lit in r.body:
                yield lit.atom
        yield from self.facts
        for k in self.inconsistent:
            yield from k


def _is_ground(a: Atom) -> bool:
    """Whether an atom holds no variable, by a walk that builds no set."""
    for t in a.args:
        if type(t) is TVar or (type(t) is Atom and not _is_ground(t)):
            return False
    return True


def _term_vars(t: Term) -> set:
    if isinstance(t, TVar):
        return {t.name}
    out: set = set()
    if isinstance(t, Atom):
        for a in t.args:
            if isinstance(a, TVar):
                out.add(a.name)
            elif isinstance(a, Atom):
                out |= _term_vars(a)
    return out


# ---------------------------------------------------------------------------
# configuration parser


_CFG_KEYWORDS = {"rule", "fact", "modifier", "inconsistent", "not"}
# ASCII only: every identifier is then an ASP-Core-2 symbol as it stands.
_CFG_DIGITS = frozenset(string.digits)
_CFG_IDENT = _CFG_DIGITS.union(string.ascii_letters, "_")
# Newlines aside, as in `.l4` text: any other character, such as a
# no-break space, is an error.
_CFG_SPACE = frozenset(" \t\r")


class _CfgParser:
    def __init__(self, text: str):
        self.toks = self._tokenize(text)
        self.pos = 0
        self.depth = 0

    @staticmethod
    def _tokenize(text: str):
        toks = []
        line, col = 1, 1
        i, n = 0, len(text)
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                col = 1
                i += 1
            elif c in _CFG_SPACE:
                col += 1
                i += 1
            elif c == "#":
                while i < n and text[i] != "\n":
                    i += 1
            elif c in _CFG_DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _CFG_DIGITS):
                j = i + 1
                while j < n and text[j] in _CFG_DIGITS:
                    j += 1
                toks.append(("int", text[i:j], line, col))
                col += j - i
                i = j
            elif c in _CFG_IDENT:  # not a digit, taken above
                j = i
                while j < n and text[j] in _CFG_IDENT:
                    j += 1
                toks.append(("ident", text[i:j], line, col))
                col += j - i
                i = j
            elif text.startswith("<-", i):
                toks.append(("sym", "<-", line, col))
                col += 2
                i += 2
            elif c in ":(){},.":
                toks.append(("sym", c, line, col))
                col += 1
                i += 1
            else:
                raise ConfigError(f"{line}:{col}: unexpected character {c!r}")
        return toks

    def _err(self, msg: str):
        if self.pos < len(self.toks):
            _, text, line, col = self.toks[self.pos]
            raise ConfigError(f"{line}:{col}: {msg}, found {text!r}")
        raise ConfigError(f"end of input: {msg}")

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        if self.pos >= len(self.toks):
            return False
        k, t, _, _ = self.toks[self.pos]
        return k == kind and (text is None or t == text)

    def accept(self, kind: str, text: Optional[str] = None) -> bool:
        if self.at(kind, text):
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, text: Optional[str] = None) -> str:
        if not self.at(kind, text):
            self._err(f"expected {text or kind}")
        t = self.toks[self.pos][1]
        self.pos += 1
        return t

    def parse(self) -> Config:
        rules, facts, modifiers, inconsistent = [], [], [], []
        while self.pos < len(self.toks):
            if self.accept("ident", "rule"):
                rid = int(self.expect("int"))
                self.expect("sym", ":")
                head = self.atom()
                body = []
                if self.accept("sym", "<-"):
                    body.append(self.literal())
                    while self.accept("sym", ","):
                        body.append(self.literal())
                self.expect("sym", ".")
                rules.append(DefRule(rid, head, tuple(body)))
            elif self.accept("ident", "fact"):
                self.expect("sym", ":")
                facts.append(self.atom())
                self.expect("sym", ".")
            elif self.accept("ident", "modifier"):
                self.expect("sym", ":")
                kind = self.expect("ident")
                if kind not in MODIFIER_KINDS:
                    raise ConfigError(f"unknown modifier kind '{kind}'")
                self.expect("sym", "(")
                first = int(self.expect("int"))
                self.expect("sym", ",")
                second = int(self.expect("int"))
                self.expect("sym", ")")
                self.expect("sym", ".")
                modifiers.append(Modifier(kind, first, second))
            elif self.accept("ident", "inconsistent"):
                self.expect("sym", ":")
                self.expect("sym", "{")
                atoms = [self.atom()]
                while self.accept("sym", ","):
                    atoms.append(self.atom())
                self.expect("sym", "}")
                self.expect("sym", ".")
                inconsistent.append(tuple(atoms))
            else:
                self._err("expected 'rule', 'fact', 'modifier' or 'inconsistent'")
        cfg = Config(tuple(rules), tuple(facts), tuple(modifiers), tuple(inconsistent))
        cfg.validate()
        return cfg

    def literal(self) -> Literal:
        if self.accept("ident", "not"):
            return Literal(self.atom(), positive=False)
        return Literal(self.atom())

    def atom(self) -> Atom:
        name = self.expect("ident")
        if name in _CFG_KEYWORDS:
            self.pos -= 1
            self._err("keyword cannot start an atom")
        if name[0].isupper():
            self.pos -= 1
            self._err("atoms must start with a lowercase letter")
        args: list = []
        if self.at("sym", "("):
            # Each argument list is one level.  Atoms are parsed, grounded
            # and compared recursively; the `.l4` parser's limit keeps all
            # of that well inside Python's default recursion limit.
            self.depth += 1
            if self.depth > MAX_NESTING:
                _, _, line, col = self.toks[self.pos]
                raise ConfigError(f"{line}:{col}: nested more than {MAX_NESTING} levels deep")
            self.pos += 1
            args.append(self.term())
            while self.accept("sym", ","):
                args.append(self.term())
            self.expect("sym", ")")
            self.depth -= 1
        return Atom(name, tuple(args))

    def term(self) -> Term:
        if self.at("int"):
            return int(self.expect("int"))
        name = self.expect("ident")
        if name[0].isupper() or name[0] == "_":
            return TVar(name)
        if self.at("sym", "("):
            self.pos -= 1
            return self.atom()
        return name


def parse_config(text: str) -> Config:
    return _CfgParser(text).parse()


# ---------------------------------------------------------------------------
# grounding a schematic configuration


def config_constants(cfg: Config) -> list[str]:
    """All constants appearing anywhere, in first-occurrence order."""
    out: list[str] = []
    seen = set()

    def walk(t: Term) -> None:
        if isinstance(t, str) and t not in seen:
            seen.add(t)
            out.append(t)
        elif isinstance(t, Atom):
            for a in t.args:
                walk(a)

    for a in cfg._all_atoms():
        for arg in a.args:
            walk(arg)
    return out


def _subst_term(t: Term, b: dict) -> Term:
    if isinstance(t, TVar):
        return b[t.name]
    if isinstance(t, Atom):
        return Atom(t.pred, tuple(_subst_term(a, b) for a in t.args))
    return t


def ground(cfg: Config, constants: Optional[Sequence[str]] = None) -> Config:
    """Instantiate schematic rules over the given constants (default:
    every constant in the configuration).  Instance ids are
    ``id * 1000 + k`` in instantiation order; modifiers between
    schematic rules multiply out to all instance pairs."""
    consts = list(constants) if constants is not None else config_constants(cfg)
    for a in cfg.facts:
        if _term_vars(a):
            raise ConfigError(f"fact {a} must be ground")
    for k in cfg.inconsistent:
        for a in k:
            if _term_vars(a):
                raise ConfigError(f"inconsistent set atom {a} must be ground")

    instances: dict[int, list[int]] = {}
    rules: list[DefRule] = []
    used_ids = set()
    for r in cfg.rules:
        vars = sorted(
            set().union(
                _term_vars(r.head), *[_term_vars(l.atom) for l in r.body]
            )
        )
        if not vars:
            rules.append(r)
            instances[r.id] = [r.id]
            used_ids.add(r.id)
            continue
        if not consts:
            raise ConfigError(f"rule {r.id} has variables but there are no constants")
        ids = []
        for k, combo in enumerate(itertools.product(consts, repeat=len(vars))):
            b = dict(zip(vars, combo))
            new_id = r.id * 1000 + k
            ids.append(new_id)
            rules.append(
                DefRule(
                    new_id,
                    _subst_term(r.head, b),
                    tuple(Literal(_subst_term(l.atom, b), l.positive) for l in r.body),
                )
            )
        instances[r.id] = ids
        used_ids.update(ids)
    if len(used_ids) != len(rules):
        raise ConfigError("instance ids collide; renumber the schematic rules")

    modifiers = []
    for m in cfg.modifiers:
        for i in instances[m.first]:
            for j in instances[m.second]:
                modifiers.append(Modifier(m.kind, i, j))

    out = Config(tuple(rules), cfg.facts, tuple(modifiers), cfg.inconsistent)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# legal models, checked directly against their defining conditions


@dataclass(unsafe_hash=True)
class LegalModel:
    """A legal model: the legal atoms and the valid (rule id, conclusion) pairs."""

    is_legal: frozenset
    legally_valid: frozenset  # of (rule id, conclusion atom)

    def key(self):
        return (
            len(self.is_legal) + len(self.legally_valid),
            tuple(sorted(str(a) for a in self.is_legal)),
            tuple(sorted((i, str(a)) for i, a in self.legally_valid)),
        )

    def to_json(self) -> dict:
        return {
            "is_legal": sorted(str(a) for a in self.is_legal),
            "legally_valid": [
                [i, str(a)] for i, a in sorted(self.legally_valid, key=lambda p: (p[0], str(p[1])))
            ],
        }


def _precond_satisfied(r: DefRule, legal: frozenset) -> bool:
    return all((lit.atom in legal) == lit.positive for lit in r.body)


def axiom_violations(cfg: Config, model: LegalModel) -> list[str]:
    """Check one candidate against the defining conditions of legal
    models.  Returns a list of violation descriptions (empty = legal)."""
    if not cfg.is_ground():
        raise ConfigError("legal models are only defined for ground configurations")
    legal = model.is_legal
    valid = model.legally_valid
    rmap = cfg.rule_map
    out: list[str] = []

    for i, c in valid:
        if i not in rmap:
            out.append(f"validity of unknown rule {i}")
        elif rmap[i].head != c:
            out.append(f"rule {i} held valid for {c}, but concludes {rmap[i].head}")

    # facts are legal
    for a in cfg.facts:
        if a not in legal:
            out.append(f"fact-legality: fact {a} is not legal")

    # valid rules have satisfied preconditions and legal conclusions
    for i, c in valid:
        r = rmap.get(i)
        if r is None:
            continue
        if not _precond_satisfied(r, legal):
            out.append(f"valid-rule-support: rule {i} is valid but its precondition fails")
        if c not in legal:
            out.append(f"valid-rule-support: rule {i} is valid but {c} is not legal")

    # every legal atom is a fact or the conclusion of a valid rule
    concluded = {c for _, c in valid}
    facts = cfg.fact_set
    for a in legal:
        if a not in facts and a not in concluded:
            out.append(f"legality-support: {a} is legal but unsupported")

    # modifier exclusions
    for m in cfg.modifiers:
        if m.kind == DESPITE:
            sub, dom = m.first, m.second
            if _precond_satisfied(rmap[dom], legal) and (sub, rmap[sub].head) in valid:
                out.append(
                    f"despite-exclusion: rule {dom} applies, so rule {sub} must not be valid"
                )
        elif m.kind == STRONG_SUBJECT_TO:
            dom, sub = m.first, m.second
            if (dom, rmap[dom].head) in valid and (sub, rmap[sub].head) in valid:
                out.append(
                    f"strong-exclusion: rule {dom} is valid, so rule {sub} must not be valid"
                )
        elif m.kind == SUBJECT_TO:
            dom, sub = m.first, m.second
            if (dom, rmap[dom].head) in valid and _conflict_applies(cfg, legal, dom, sub, rmap):
                if (sub, rmap[sub].head) in valid:
                    out.append(
                        f"conflict-exclusion: rule {dom} is valid and prevails, so "
                        f"rule {sub} must not be valid"
                    )

    # every excluded rule owes its exclusion to some modifier instance
    for r in cfg.rules:
        if not _precond_satisfied(r, legal):
            continue
        if (r.id, r.head) in valid:
            continue
        if not _exclusion_justified(cfg, legal, valid, r, rmap):
            out.append(
                f"exclusion-justification: rule {r.id} applies and is not valid, "
                f"but nothing excludes it"
            )
    return out


def _conflict_applies(cfg: Config, legal: frozenset, dom: int, sub: int, rmap: dict) -> bool:
    cd, cs = rmap[dom].head, rmap[sub].head
    if cd == cs:
        return False
    for k in cfg.inconsistent_by_atom.get(cd, ()):
        if cs in k and all(a in legal for a in k if a != cs):
            return True
    return False


def _exclusion_justified(cfg: Config, legal, valid, r: DefRule, rmap: dict) -> bool:
    for m in cfg.excluders.get(r.id, ()):
        if m.kind == DESPITE:
            if _precond_satisfied(rmap[m.second], legal):
                return True
        elif m.kind == STRONG_SUBJECT_TO:
            dom = m.first
            if (dom, rmap[dom].head) in valid:
                return True
        elif m.kind == SUBJECT_TO:
            dom = m.first
            if (dom, rmap[dom].head) in valid and _conflict_applies(
                cfg, legal, dom, r.id, rmap
            ):
                return True
    return False


class _ValiditySearch:
    """The validity bits of a ground configuration, partly assigned, and
    the defining conditions of legal models as constraints over them.

    Rule k (by position in ``cfg.rules``) has a bit: True, False, or
    None while undecided.  An atom is legal (True) when it is a fact or
    a rule decided valid concludes it, not legal (False) when it is no
    fact and every rule concluding it is decided invalid, and unknown
    (None) otherwise.  Both kinds of value live in `val`: rule k at
    slot k, the atoms after the rules.

    A constraint is a disjunction of terms, each term a conjunction of
    literals ``(slot, wanted value)``.  In Kleene's three-valued logic
    it is false when every term holds a literal decided against its
    wanted value.  Deciding more bits never turns a false constraint
    back, so a false one rules out every completion.  The constraints
    are valid-rule-support, the three modifier exclusions (a
    subject_to one per inconsistent set holding both conclusions) and
    exclusion-justification; fact-legality and legality-support hold
    by the way atoms get their values.  Once every bit is decided, no
    constraint is false exactly when `axiom_violations` finds nothing.
    """

    def __init__(self, cfg: Config):
        rules = cfg.rules
        n = len(rules)
        index = {r.id: k for k, r in enumerate(rules)}
        slot: dict[Atom, int] = {}
        for a in cfg._all_atoms():
            slot.setdefault(a, n + len(slot))
        self.head = [slot[r.head] for r in rules]
        # per atom slot: the valid rules concluding it, plus one for a
        # fact, and the undecided rules concluding it
        self.backing = backing = [0] * (n + len(slot))
        self.pending = pending = [0] * (n + len(slot))
        for a in cfg.facts:
            backing[slot[a]] = 1
        for h in self.head:
            pending[h] += 1
        self.val: list = [None] * n + [
            True if backing[h] else None if pending[h] else False for h in slot.values()
        ]

        # a rule's precondition holds: all its body literals as one term
        holds = [tuple((slot[l.atom], l.positive) for l in r.body) for r in rules]

        def fails(k: int) -> tuple:
            """A rule's precondition fails: one term per body literal."""
            return tuple(((i, not want),) for i, want in holds[k])

        def clashes(dom: int, sub: int) -> list:
            """For each inconsistent set holding both conclusions, the
            slots of its members other than the subordinate conclusion:
            when all are legal, the two rules clash."""
            cd, cs = rules[dom].head, rules[sub].head
            if cd == cs:
                return []
            return [
                tuple(slot[a] for a in dict.fromkeys(k) if a != cs)
                for k in cfg.inconsistent_by_atom.get(cd, ())
                if cs in k
            ]

        # valid-rule-support
        constraints = [(((k, False),), holds[k]) for k in range(n)]
        excuses: list[list] = [[] for _ in rules]
        for m in cfg.modifiers:
            if m.kind == DESPITE:
                sub, dom = index[m.first], index[m.second]
                constraints.append((((sub, False),), *fails(dom)))
                excuses[sub].append(holds[dom])
            elif m.kind == STRONG_SUBJECT_TO:
                dom, sub = index[m.first], index[m.second]
                constraints.append((((dom, False),), ((sub, False),)))
                excuses[sub].append(((dom, True),))
            elif m.kind == SUBJECT_TO:
                dom, sub = index[m.first], index[m.second]
                for others in clashes(dom, sub):
                    constraints.append(
                        (((dom, False),), ((sub, False),), *(((a, False),) for a in others))
                    )
                    excuses[sub].append(((dom, True), *((a, True) for a in others)))
        # exclusion-justification
        for k in range(n):
            constraints.append((*fails(k), ((k, True),), *excuses[k]))
        self.constraints = constraints

        watch: list[list] = [[] for _ in self.val]
        for c in constraints:
            for i in {i for term in c for i, _ in term}:
                watch[i].append(c)
        # deciding rule k settles its bit and perhaps its conclusion
        self.watch = [
            list({id(c): c for c in watch[k] + watch[self.head[k]]}.values())
            for k in range(n)
        ]

    def _settle(self, h: int) -> None:
        self.val[h] = True if self.backing[h] else None if self.pending[h] else False

    def assign(self, k: int, value: bool) -> None:
        h = self.head[k]
        self.val[k] = value
        self.pending[h] -= 1
        self.backing[h] += value
        self._settle(h)

    def unassign(self, k: int) -> None:
        h = self.head[k]
        self.backing[h] -= self.val[k]
        self.pending[h] += 1
        self.val[k] = None
        self._settle(h)

    def falsified(self, constraint: tuple) -> bool:
        val = self.val
        for term in constraint:
            for i, want in term:
                v = val[i]
                if v is not None and v is not want:
                    break
            else:
                return False
        return True

    def refuted(self, k: int) -> bool:
        """Whether a constraint that rule k's decision touches is false."""
        return any(map(self.falsified, self.watch[k]))


def legal_models(cfg: Config, cap_bits: int = DEFAULT_CAP_BITS) -> list[LegalModel]:
    """All legal models.  Fact-legality, valid-rule-support and
    legality-support force ``is_legal`` to be the facts plus the
    conclusions of the valid rules, so a model is a set of valid rules.
    The validity bits are decided depth first in rule order, False
    before True, with chronological backtracking; after each decision
    the constraints it touches are evaluated three-valued
    (`_ValiditySearch`) and the branch is cut as soon as one is false.
    Every complete assignment is checked against all the conditions by
    `axiom_violations`.  `cap_bits` bounds the search nodes (bits
    assigned, cut ones included) at 2^cap_bits."""
    if not cfg.is_ground():
        raise ConfigError("legal models are only defined for ground configurations")
    rules = cfg.rules
    n = len(rules)
    # the search has fewer than 2^(n+1) nodes
    limit = 1 << min(cap_bits, n + 1)
    search = _ValiditySearch(cfg)
    facts = cfg.fact_set
    out = []
    nodes = 0
    tried = [0] * n  # values tried for each rule's bit so far
    k = 0
    while k >= 0:
        if k == n:
            valid = frozenset((r.id, r.head) for r, v in zip(rules, search.val) if v)
            model = LegalModel(facts.union(c for _, c in valid), valid)
            if not axiom_violations(cfg, model):
                out.append(model)
            k -= 1
            continue
        if search.val[k] is not None:
            search.unassign(k)
        if tried[k] == 2:
            tried[k] = 0
            k -= 1
            continue
        nodes += 1
        if nodes > limit:
            raise ResourceCapError(
                f"legal model search exceeded 2^{cap_bits} nodes with {k} of {n} rules decided"
            )
        search.assign(k, tried[k] == 1)
        tried[k] += 1
        if not search.refuted(k):
            k += 1
    out.sort(key=LegalModel.key)
    return out


def minimal_only(models: Sequence[LegalModel]) -> list[LegalModel]:
    def combined(m: LegalModel) -> frozenset:
        return m.is_legal | {("v", p) for p in m.legally_valid}

    out = []
    for m in models:
        cm = combined(m)
        if not any(combined(o) < cm for o in models):
            out.append(m)
    return out


# ---------------------------------------------------------------------------
# the answer set encoding


@dataclass(unsafe_hash=True)
class AspRule:
    """A rule of an answer-set program: its head and body literals."""

    head: Atom
    body: tuple = ()

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- " + ", ".join(str(b) for b in self.body) + "."


@dataclass(unsafe_hash=True)
class AspProgram:
    """An answer-set program, its rules in order."""

    rules: tuple = ()

    def to_text(self) -> str:
        return "\n".join(str(r) for r in self.rules) + "\n"


def _il(a: Atom) -> Atom:
    return Atom("is_legal", (a,))


def _schematic_clauses() -> tuple:
    """The clauses with variables, the same in every encoding."""
    R, C, R1, C1, R2, C2, X, Y = map(TVar, ["R", "C", "R1", "C1", "R2", "C2", "X", "Y"])

    def lit(pred: str, *args, positive: bool = True) -> Literal:
        return Literal(Atom(pred, args), positive)

    defeated = Atom("defeated", (R2, C2))
    return (
        AspRule(Atom("opposes", (X, Y)), (lit("opposes", Y, X),)),
        AspRule(
            defeated,
            (lit(DESPITE, R2, R1), lit("according_to", R1, C1), lit("according_to", R2, C2)),
        ),
        AspRule(
            defeated,
            (
                lit(STRONG_SUBJECT_TO, R1, R2),
                lit("legally_valid", R1, C1),
                lit("according_to", R2, C2),
            ),
        ),
        AspRule(
            defeated,
            (
                lit(SUBJECT_TO, R1, R2),
                lit("legally_valid", R1, C1),
                lit("opposes", C1, C2),
                lit("according_to", R2, C2),
            ),
        ),
        AspRule(Atom("not_legally_valid", (R,)), (lit("defeated", R, C),)),
        AspRule(
            Atom("legally_valid", (R, C)),
            (lit("according_to", R, C), lit("not_legally_valid", R, positive=False)),
        ),
        AspRule(_il(C), (lit("legally_valid", R, C),)),
    )


_SCHEMATIC_CLAUSES = _schematic_clauses()


def emit_asp(cfg: Config) -> AspProgram:
    """The answer set program of a ground configuration.  Its stable
    models, projected to is_legal/legally_valid, are legal models."""
    if not cfg.is_ground():
        raise ConfigError("the answer set encoding needs a ground configuration")
    cfg.validate()
    out: list[AspRule] = []

    for a in cfg.facts:
        out.append(AspRule(_il(a)))

    for m in cfg.modifiers:
        out.append(AspRule(Atom(m.kind, (m.first, m.second))))

    for r in cfg.rules:
        body = tuple(Literal(_il(l.atom), l.positive) for l in r.body)
        out.append(AspRule(Atom("according_to", (r.id, r.head)), body))

    for k in cfg.inconsistent:
        for ai, aj in itertools.combinations(k, 2):
            rest = tuple(Literal(_il(a)) for a in k if a != ai and a != aj)
            out.append(AspRule(Atom("opposes", (ai, aj)), rest))
    out.extend(_SCHEMATIC_CLAUSES)
    return AspProgram(tuple(out))


# ---------------------------------------------------------------------------
# stable models


def _unify(pattern: Atom, value: Term, b: dict) -> Optional[dict]:
    """`b` extended by the bindings that make `pattern` equal `value`,
    or None.  Variable and constant arguments are matched in place:
    `b` is copied once, when a variable is first bound, and never
    changed; only a compound argument recurses."""
    if type(value) is not Atom or pattern.pred != value.pred:
        return None
    if len(pattern.args) != len(value.args):
        return None
    nb = b
    for pa, va in zip(pattern.args, value.args):
        if type(pa) is TVar:
            v = nb.get(pa.name)
            if v is None:
                if nb is b:
                    nb = dict(b)
                nb[pa.name] = va
            elif v != va:
                return None
        elif type(pa) is Atom:
            nb = _unify(pa, va, nb)
            if nb is None:
                return None
        elif pa != va:
            return None
    return nb


@dataclass(unsafe_hash=True)
class GroundRule:
    """One ground instance of a clause.  A value like `Atom`, hashed by
    its field tuple."""

    head: Atom
    pos: tuple
    neg: tuple


def _joins(derived: dict[str, list[Atom]], pos, spans, b, matched):
    """Bindings extending `b` that match each pos[j] against the atoms
    derived[pred][lo:hi], spans[j] = (lo, hi), with the atoms matched."""
    j = len(matched)
    if j == len(pos):
        yield b, matched
        return
    (lo, hi), atoms = spans[j], derived.get(pos[j].pred, ())
    for a in atoms[lo:hi]:
        nb = _unify(pos[j], a, b)
        if nb is not None:
            yield from _joins(derived, pos, spans, nb, matched + (a,))


def _ground_program(p: AspProgram, instance_cap: int = 1_000_000) -> list[GroundRule]:
    """Instantiate the clauses against the least model of the
    negation-free relaxation.  Every stable model is a subset of that
    least model, so instances pruned here cannot fire in any stable
    model.  Negative literals on atoms outside it are dropped as
    trivially true.  The instances come in the order they are first
    derived, each once, also where dropping literals makes two equal,
    and are never sorted; every caller reads them as a set.

    The least model is built in rounds: the first fires the clauses
    without positive literals, each later one, in clause order, the
    clauses an atom of the round before can make fire.  A clause
    without variables, told apart by one walk over its atoms, waits on a count of its missing positive atoms
    and fires once, in the round after the count reaches zero (Dowling
    & Gallier 1984).  Only clauses with variables are matched,
    semi-naively (Bancilhon & Ramakrishnan 1986): against the derived
    atoms, kept per predicate in derivation order, where a positive
    literal binds an atom of the round before.  An unsafe clause
    raises `ConfigError` in the round its positive literals first
    match, the first round if it has none.  So when several unsafe
    clauses could fire, the error names the one that matches in the
    earliest round, and among those the first in clause order: for
    ``u(X) :- f(a).  f(a).  v(X) :- f(a).`` it names ``u(X)``."""
    derived: dict[str, list[Atom]] = {}
    possible: set[Atom] = set()
    seen: dict[GroundRule, int] = {}  # each instance's place in `instances`
    instances: list[GroundRule] = []  # in derivation order
    waiting: dict[Atom, list[int]] = {}  # ground clauses by a missing atom
    missing: dict[int, int] = {}  # per ground clause, its missing atoms
    ready: list[int] = []  # ground clauses whose last atom came this round

    clauses: list = []  # a ground clause as its one instance
    schematic = []  # the clauses with variables and a positive literal
    for k, r in enumerate(p.rules):
        pos = tuple(l.atom for l in r.body if l.positive)
        neg = tuple(l.atom for l in r.body if not l.positive)
        if all(map(_is_ground, (r.head, *pos, *neg))):
            clauses.append(GroundRule(r.head, pos, neg))
            body = set(pos)
            missing[k] = len(body)
            for a in body:
                waiting.setdefault(a, []).append(k)
            continue
        bound = set().union(*map(_term_vars, pos))
        unsafe = next(
            (
                f"unsafe clause: variable in negative literal {l} not bound "
                f"by a positive literal"
                for l in r.body
                if not l.positive and _term_vars(l.atom) - bound
            ),
            f"unsafe clause: unbound variable in head {r.head}"
            if _term_vars(r.head) - bound
            else None,
        )
        clauses.append((r.head, pos, neg, unsafe))
        if pos:
            schematic.append(k)

    def add(g: GroundRule) -> None:
        n = len(seen)
        seen.setdefault(g, n)
        if len(seen) == n:
            return
        instances.append(g)
        if len(instances) > instance_cap:
            raise ResourceCapError(f"grounding exceeded {instance_cap} rule instances")
        h = g.head
        if h not in possible:
            possible.add(h)
            derived.setdefault(h.pred, []).append(h)
            for k in waiting.pop(h, ()):
                missing[k] -= 1
                if not missing[k]:
                    ready.append(k)

    for c in clauses:
        if type(c) is GroundRule:
            if not c.pos:
                add(c)
        elif not c[1]:  # nothing binds its variables
            raise ConfigError(c[3])
    before: dict[str, int] = {}  # atoms per predicate before the last round
    now = {q: len(atoms) for q, atoms in derived.items()}
    while now != before:
        due = sorted(ready + schematic)
        ready.clear()
        for k in due:
            if type(clauses[k]) is GroundRule:
                add(clauses[k])
                continue
            head, pos, neg, unsafe = clauses[k]
            for i, lit in enumerate(pos):
                lo, hi = before.get(lit.pred, 0), now.get(lit.pred, 0)
                if lo == hi:
                    continue
                # pos[i] binds an atom of the last round and the literals
                # before it older atoms only, so no match is made twice.
                spans = (
                    [(0, before.get(a.pred, 0)) for a in pos[:i]]
                    + [(lo, hi)]
                    + [(0, now.get(a.pred, 0)) for a in pos[i + 1 :]]
                )
                for b, matched in _joins(derived, pos, spans, {}, ()):
                    if unsafe:
                        raise ConfigError(unsafe)
                    gneg = tuple(_subst_term(a, b) for a in neg)
                    add(GroundRule(_subst_term(head, b), matched, gneg))
        before, now = now, {q: len(atoms) for q, atoms in derived.items()}

    # Dropping literals can make an instance equal to another one, which
    # kept its literals or lost some too; the first in derivation order
    # is listed.  `seen` gives the first place of each.
    listed: list = instances.copy()
    dropped = False
    for j in [j for j, g in enumerate(instances) if not possible.issuperset(g.neg)]:
        g = instances[j]
        g = GroundRule(g.head, g.pos, tuple(a for a in g.neg if a in possible))
        k = seen.setdefault(g, j)
        if k < j:
            listed[j] = None
            dropped = True
        else:
            listed[j] = g
            if k > j:  # an equal instance that kept its literals comes later
                seen[g] = j
                listed[k] = None
                dropped = True
    return [g for g in listed if g is not None] if dropped else listed


def _reduct(ground_rules: Sequence[GroundRule]):
    """The least model of the reduct, as a function of the atoms
    assumed true: rules with a negated atom among them are dropped, the
    other negative literals too.  Each rule waits on a count of its
    missing positive atoms, so one call is linear in the program."""
    waiting: dict[Atom, list[int]] = {}
    missing = []
    for i, g in enumerate(ground_rules):
        body = set(g.pos)
        missing.append(len(body))
        for a in body:
            waiting.setdefault(a, []).append(i)

    def least_model(assumed: frozenset) -> frozenset:
        left = missing.copy()
        for i, g in enumerate(ground_rules):
            if not assumed.isdisjoint(g.neg):
                left[i] = -1
        stack = [g.head for g, n in zip(ground_rules, left) if n == 0]
        known: set[Atom] = set()
        while stack:
            a = stack.pop()
            if a in known:
                continue
            known.add(a)
            for i in waiting.get(a, ()):
                left[i] -= 1
                if left[i] == 0:
                    stack.append(ground_rules[i].head)
        return frozenset(known)

    return least_model


def _well_founded(least_model) -> tuple[frozenset, frozenset]:
    """The well-founded model of a program, given by its `_reduct`, as
    a pair ``(true, possible)``, computed by the alternating fixpoint
    (Van Gelder, Ross & Schlipf 1991): ``true`` is the least fixpoint
    of applying the reduct's least model twice, ``possible`` the
    reduct's least model by ``true``.  Every stable model M has
    ``true <= M <= possible``."""
    true: frozenset = frozenset()
    while True:
        possible = least_model(true)
        closer = least_model(possible)
        if closer == true:
            return true, possible
        true = closer


def answer_sets(p: AspProgram, guess_cap_bits: int = DEFAULT_CAP_BITS) -> list[frozenset]:
    """All stable models.  The reduct, and hence stability, depends
    only on which negated atoms a candidate holds.  The well-founded
    model fixes those it makes true as held and those outside its
    possible atoms as not held; candidates are generated only over the
    rest, and each is kept when the least model of its reduct holds
    exactly the negated atoms guessed.  `guess_cap_bits` bounds the
    number of negated atoms the well-founded model leaves undecided.
    The sets are returned sorted, by size and then by their atoms' text."""
    ground_rules = _ground_program(p)
    neg_set = frozenset(a for g in ground_rules for a in g.neg)
    least_model = _reduct(ground_rules)
    true, possible = _well_founded(least_model)
    fixed = neg_set & true
    undecided = sorted(neg_set & possible - true, key=str)
    if len(undecided) > guess_cap_bits:
        raise ResourceCapError(
            f"stable model search needs 2^{len(undecided)} candidates, "
            f"cap is 2^{guess_cap_bits}"
        )

    out = []
    for mask in range(1 << len(undecided)):
        chosen = fixed.union(a for i, a in enumerate(undecided) if mask >> i & 1)
        lm = least_model(chosen)
        if lm & neg_set == chosen:
            out.append(lm)
    out.sort(key=lambda s: (len(s), tuple(sorted(map(str, s)))))
    return out


def project_answer_set(s: frozenset) -> LegalModel:
    legal = frozenset(a.args[0] for a in s if a.pred == "is_legal")
    valid = frozenset((a.args[0], a.args[1]) for a in s if a.pred == "legally_valid")
    return LegalModel(legal, valid)


# ---------------------------------------------------------------------------
# holding the two semantics against each other


@dataclass(unsafe_hash=True)
class EncodingReport:
    """What `verify_lemma4` found: answer sets, legal models and the mismatches."""

    answer_sets: int
    legal_models: Optional[int]
    unsound: tuple  # (projection json, violations) pairs
    uncovered: tuple  # legal models with no matching answer set

    @property
    def sound(self) -> bool:
        return not self.unsound

    def to_json(self) -> dict:
        return {
            "answer_sets": self.answer_sets,
            "legal_models": self.legal_models,
            "sound": self.sound,
            "unsound": [{"model": m, "violations": list(v)} for m, v in self.unsound],
            "uncovered": [m.to_json() for m in self.uncovered],
        }


def verify_lemma4(
    cfg: Config, check_converse: bool = True, cap_bits: int = DEFAULT_CAP_BITS
) -> EncodingReport:
    """Check that every answer set of the encoding projects to a legal
    model (a violation here is a bug), and optionally report legal
    models no answer set covers (expected for self-supporting models:
    the encoding is sound, not complete).  `cap_bits` caps both
    searches."""
    sets = answer_sets(emit_asp(cfg), cap_bits)
    unsound = []
    projections = []
    for s in sets:
        m = project_answer_set(s)
        projections.append(m)
        v = axiom_violations(cfg, m)
        if v:
            unsound.append((m.to_json(), tuple(v)))

    legal_count = None
    uncovered: list[LegalModel] = []
    if check_converse:
        legal = legal_models(cfg, cap_bits)
        legal_count = len(legal)
        covered = {(m.is_legal, m.legally_valid) for m in projections}
        uncovered = [m for m in legal if (m.is_legal, m.legally_valid) not in covered]
    return EncodingReport(len(sets), legal_count, tuple(unsound), tuple(uncovered))
