"""Recursive-descent parser for the rule language.

Operator precedence, loosest to tightest:

    -->   (right associative)
    ||
    &&
    ==  <=  >=  <  >
    not
    application by juxtaposition

Quantifiers, lambdas and if/then/else extend as far right as possible.

Lexical rules.  An identifier is a Unicode letter or ``_``, then any
letters, digits and other numeric characters (``x²``), ``_`` and
apostrophes (``maxSpCarWorkday'Orig``), and at most one trailing ``+``,
which is how generated lifted predicates are spelled.  Keywords are the
identifiers in `KEYWORDS`.  A numeral is an optional ``-`` and decimal
digits of any script (``٣`` is 3), with ``d.d`` making it a decimal
(``-1.5``); ``-`` before anything but a digit is part of a symbol
(``->``, ``-->``).  A string is written ``"..."``, where ``\\`` makes
the next character literal.  ``#`` starts a comment that runs to the
end of the line.  Whitespace is only space, tab, CR and LF; any other
character outside a string or comment, such as a no-break space, is an
error.  Columns in source locations count characters, a tab as one.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .syntax import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    And,
    App,
    Assertion,
    BoolLit,
    ClassDecl,
    ClassT,
    Cmp,
    Derived,
    Eq,
    Exists,
    Expr,
    FieldAccess,
    FloatLit,
    Forall,
    FunDecl,
    IfThenElse,
    Implies,
    IntLit,
    Lambda,
    Loc,
    LType,
    Not,
    NormlogError,
    Or,
    Remap,
    Restrict,
    RestrictSubjectTo,
    Rule,
    RuleModule,
    SATISFIABLE,
    Source,
    StringLit,
    TupleT,
    TRUE,
    VALID,
    Var,
    split_decls,
)


class LParseError(NormlogError):
    def __init__(self, loc: Optional[Loc], message: str):
        self.loc = loc
        self.message = message
        where = f"{loc}: " if loc else ""
        super().__init__(f"{where}{message}")


KEYWORDS = {
    "class",
    "extends",
    "decl",
    "rule",
    "fact",
    "assert",
    "for",
    "if",
    "then",
    "else",
    "not",
    "forall",
    "exists",
    "true",
    "false",
}

_SYMBOLS = [
    "-->",
    "->",
    "&&",
    "||",
    "==",
    "<=",
    ">=",
    ":=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "<",
    ">",
    ",",
    ":",
    ".",
    "\\",
]


class Token(NamedTuple):
    """One token: its kind, text, location and value."""

    kind: str  # ident kw int float string sym eof
    text: str
    loc: Loc
    value: object = None


# One match is the whitespace and comments before a token, then the
# token in the group of its kind.  An identifier starts with a character
# that `\w` matches and that is no decimal digit; `tokenize` rejects the
# ones that are not letters or `_` either, such as `²`.  A match without
# a token ends the input, or stops at a character that starts no token.
# The pattern matches the empty string, so `findall` goes through the
# text without a gap.
_TOKEN = re.compile(
    r"""([ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)
    (?:([^\W\d][\w']*\+?)
      |("""
    + "|".join(map(re.escape, _SYMBOLS))
    + r""")
      |(-?\d+\.\d+)
      |(-?\d+)
      |("[^"\\]*(?:\\.[^"\\]*)*")
    )?""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending with an `eof` token.  Tokens and
    their locations are built with `tuple.__new__`, and a token's
    position is the sum of the lengths before it: `findall` gives the
    skipped text and the token of each match, and only skipped text or
    a string can hold a newline."""
    toks: list[Token] = []
    append = toks.append
    new = tuple.__new__
    line, line_start, i = 1, 0, 0
    for skip, word, sym, dec, num, string in _TOKEN.findall(text):
        if skip:
            i += len(skip)
            if "\n" in skip:
                line += skip.count("\n")
                line_start = i - len(skip) + skip.rfind("\n") + 1
        loc = new(Loc, (line, i - line_start + 1))
        if word:
            if word in KEYWORDS:
                append(new(Token, ("kw", word, loc, None)))
            else:
                # `_` is ASCII, so a first character past ASCII must be a letter.
                if word[0] >= "\x80" and not word[0].isalpha():
                    raise LParseError(loc, f"unexpected character {word[0]!r}")
                append(new(Token, ("ident", word, loc, None)))
            i += len(word)
        elif sym:
            append(new(Token, ("sym", sym, loc, None)))
            i += len(sym)
        elif num:
            append(new(Token, ("int", num, loc, int(num))))
            i += len(num)
        elif dec:
            append(new(Token, ("float", dec, loc, float(dec))))
            i += len(dec)
        elif string:
            body = string[1:-1]
            append(new(Token, ("string", string, loc, _ESCAPE.sub(r"\1", body) if "\\" in body else body)))
            i += len(string)
            if "\n" in string:
                line += string.count("\n")
                line_start = i - len(string) + string.rfind("\n") + 1
        else:
            break
    if i < len(text):
        c = text[i]
        if c == '"':
            raise LParseError(loc, "unterminated string literal")
        raise LParseError(loc, f"unexpected character {c!r}")
    append(new(Token, ("eof", "", loc, None)))
    return toks


_ATOM_STARTS = {"ident", "int", "float", "string"}

# How deep parsed expressions and types may nest.  Each parenthesis,
# `not`, binder, if/then/else, right-nested `-->` or `->` is one level.
# The parser spends up to ten interpreter frames on a level, so the
# limit keeps parsing well inside Python's default recursion limit of
# 1000.  It bounds only the parsed text: later passes may build deeper
# trees, such as the precondition transform along subjectTo chains.
MAX_NESTING = 64


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    # `next` never moves past the final `eof` token, so `self.pos`
    # always indexes a token; only a lookahead needs a clamp.

    def peek(self) -> Token:
        return self.toks[self.pos]

    def lookahead(self, offset: int) -> Token:
        return self.toks[min(self.pos + offset, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if self.at(kind, text):
            return self.next()
        t = self.peek()
        want = text if text is not None else kind
        got = t.text if t.kind != "eof" else "end of input"
        raise LParseError(t.loc, f"expected {want!r}, found {got!r}")

    def ident(self, what: str = "identifier") -> Token:
        if self.at("ident"):
            return self.next()
        t = self.peek()
        raise LParseError(t.loc, f"expected {what}, found {t.text!r}")

    def descend(self) -> None:
        """Enter one more level of nesting; the caller leaves it with
        `self.depth -= 1` once the nested part is parsed."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise LParseError(self.peek().loc, f"nested more than {MAX_NESTING} levels deep")

    # -- types --------------------------------------------------------------

    def parse_type(self) -> LType:
        self.descend()
        t = self._atom_type()
        if self.accept("sym", "->"):
            t = self._mk_fun(t, self.parse_type())
        self.depth -= 1
        return t

    @staticmethod
    def _mk_fun(dom: LType, cod: LType) -> LType:
        from .syntax import FunT

        return FunT(dom, cod)

    def _atom_type(self) -> LType:
        if self.accept("sym", "("):
            items = [self.parse_type()]
            while self.accept("sym", ","):
                items.append(self.parse_type())
            self.expect("sym", ")")
            if len(items) == 1:
                return items[0]
            return TupleT(tuple(items))
        t = self.ident("type name")
        if t.text == "Boolean":
            return BOOL
        if t.text == "Integer":
            return INT
        if t.text == "Float":
            return FLOAT
        if t.text == "String":
            return STRING
        return ClassT(t.text)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        self.descend()
        e = self._expr()
        self.depth -= 1
        return e

    def _expr(self) -> Expr:
        t = self.peek()
        if t.kind == "kw" and t.text in ("forall", "exists"):
            self.next()
            v = self.ident("bound variable")
            self.expect("sym", ":")
            ty = self.parse_type()
            self.expect("sym", ".")
            body = self.parse_expr()
            node = Forall if t.text == "forall" else Exists
            return node(v.text, ty, body, loc=t.loc)
        if t.kind == "sym" and t.text == "\\":
            self.next()
            v = self.ident("lambda parameter")
            self.expect("sym", ":")
            # An unparenthesized function type would swallow the arrow
            # separating the annotation from the body, so the annotation
            # is restricted to an atomic type.
            ty = self._atom_type()
            self.expect("sym", "->")
            body = self.parse_expr()
            return Lambda(v.text, ty, body, loc=t.loc)
        if t.kind == "kw" and t.text == "if":
            self.next()
            cond = self.parse_expr()
            self.expect("kw", "then")
            then = self.parse_expr()
            self.expect("kw", "else")
            other = self.parse_expr()
            return IfThenElse(cond, then, other, loc=t.loc)
        return self._implies()

    def _implies(self) -> Expr:
        left = self._or()
        if self.at("sym", "-->"):
            t = self.next()
            return Implies(left, self.parse_expr(), loc=t.loc)
        return left

    def _or(self) -> Expr:
        e = self._and()
        while self.at("sym", "||"):
            t = self.next()
            e = Or(e, self._and(), loc=t.loc)
        return e

    def _and(self) -> Expr:
        e = self._cmp()
        while self.at("sym", "&&"):
            t = self.next()
            e = And(e, self._cmp(), loc=t.loc)
        return e

    def _cmp(self) -> Expr:
        e = self._unary()
        t = self.peek()
        if t.kind == "sym" and t.text in ("==", "<=", ">=", "<", ">"):
            self.next()
            rhs = self._unary()
            if t.text == "==":
                return Eq(e, rhs, loc=t.loc)
            return Cmp(t.text, e, rhs, loc=t.loc)
        return e

    def _unary(self) -> Expr:
        if self.at("kw", "not"):
            t = self.next()
            self.descend()
            arg = self._unary()
            self.depth -= 1
            return Not(arg, loc=t.loc)
        return self._app()

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind in _ATOM_STARTS:
            return True
        if t.kind == "sym" and t.text == "(":
            return True
        if t.kind == "kw" and t.text in ("true", "false"):
            return True
        return False

    def _app(self) -> Expr:
        e = self._postfix()
        while self._starts_atom():
            arg = self._postfix()
            e = App(e, arg)
        return e

    def _postfix(self) -> Expr:
        e = self._primary()
        while self.at("sym", "."):
            self.next()
            f = self.ident("field name")
            e = FieldAccess(e, f.text, loc=f.loc)
        return e

    def _primary(self) -> Expr:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return Var(t.text, loc=t.loc)
        if t.kind == "int":
            self.next()
            return IntLit(t.value, loc=t.loc)
        if t.kind == "float":
            self.next()
            return FloatLit(t.value, loc=t.loc)
        if t.kind == "string":
            self.next()
            return StringLit(t.value, loc=t.loc)
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return BoolLit(t.text == "true", loc=t.loc)
        if t.kind == "sym" and t.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect("sym", ")")
            return e
        raise LParseError(t.loc, f"expected expression, found {t.text!r}")

    # -- annotations ------------------------------------------------------------

    def _name_list(self) -> tuple[str, ...]:
        """Comma-separated names; stops before a `name:` key of the
        enclosing annotation block."""
        names = [self.ident("rule name").text]
        while self.at("sym", ","):
            if self.lookahead(1).kind == "ident" and self.lookahead(2).text == ":":
                break
            self.next()
            names.append(self.ident("rule name").text)
        return tuple(names)

    def parse_rule_annotation(self):
        open_tok = self.expect("sym", "{")
        key = self.ident("annotation keyword")
        if key.text == "source":
            self.expect("sym", "}")
            return Source()
        if key.text == "restrict":
            self.expect("sym", ":")
            self.expect("sym", "{")
            subject_to: tuple[str, ...] = ()
            despite: tuple[str, ...] = ()
            seen = set()
            while True:
                k = self.ident("'subjectTo' or 'despite'")
                if k.text not in ("subjectTo", "despite"):
                    raise LParseError(k.loc, f"unknown restrict key '{k.text}'")
                if k.text in seen:
                    raise LParseError(k.loc, f"duplicate restrict key '{k.text}'")
                seen.add(k.text)
                self.expect("sym", ":")
                names = self._name_list()
                if k.text == "subjectTo":
                    subject_to = names
                else:
                    despite = names
                if not self.accept("sym", ","):
                    break
            self.expect("sym", "}")
            self.expect("sym", "}")
            return Restrict(subject_to=subject_to, despite=despite)
        if key.text == "derived":
            self.expect("sym", ":")
            self.expect("sym", "{")
            k = self.ident("'apply'")
            if k.text != "apply":
                raise LParseError(k.loc, f"expected 'apply', found '{k.text}'")
            self.expect("sym", ":")
            self.expect("sym", "{")
            tr = self._transformer()
            self.expect("sym", "}")
            self.expect("sym", "}")
            self.expect("sym", "}")
            return Derived(tr)
        raise LParseError(
            open_tok.loc,
            f"unknown annotation '{key.text}' (expected restrict, source or derived)",
        )

    def _transformer(self):
        head = self.ident("transformer name")
        if head.text == "restrictSubjectTo":
            target = self.ident("rule name").text
            overriders = []
            while self.at("ident"):
                overriders.append(self.next().text)
            if not overriders:
                raise LParseError(head.loc, "restrictSubjectTo needs at least one overriding rule")
            return RestrictSubjectTo(target, tuple(overriders))
        if head.text == "remap":
            target = self.ident("rule name").text
            self.expect("sym", "[")
            params = () if self.at("sym", "]") else self._param_list()
            self.expect("sym", "]")
            self.expect("sym", "[")
            pairs = []
            if not self.at("sym", "]"):
                while True:
                    n = self.ident("parameter name")
                    self.expect("sym", ":=")
                    pairs.append((n.text, self.parse_expr()))
                    if not self.accept("sym", ","):
                        break
            self.expect("sym", "]")
            return Remap(target, params, tuple(pairs))
        raise LParseError(head.loc, f"unknown transformer '{head.text}'")

    def parse_assertion_annotation(self) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
        self.expect("sym", "{")
        mode = VALID
        add: tuple[str, ...] = ()
        dele: tuple[str, ...] = ()
        seen = set()
        while True:
            k = self.ident("'SMT' or 'rules'")
            if k.text in seen:
                raise LParseError(k.loc, f"duplicate annotation key '{k.text}'")
            seen.add(k.text)
            if k.text == "SMT":
                self.expect("sym", ":")
                self.expect("sym", "{")
                m = self.ident("'valid' or 'satisfiable'")
                if m.text not in (VALID, SATISFIABLE):
                    raise LParseError(m.loc, f"unknown assertion mode '{m.text}'")
                mode = m.text
                self.expect("sym", "}")
            elif k.text == "rules":
                self.expect("sym", ":")
                self.expect("sym", "{")
                while True:
                    rk = self.ident("'add' or 'del'")
                    if rk.text not in ("add", "del"):
                        raise LParseError(rk.loc, f"unknown rules key '{rk.text}'")
                    self.expect("sym", ":")
                    names = self._name_list()
                    if rk.text == "add":
                        add = names
                    else:
                        dele = names
                    if not self.accept("sym", ","):
                        break
                self.expect("sym", "}")
            else:
                raise LParseError(k.loc, f"unknown annotation key '{k.text}'")
            if not self.accept("sym", ","):
                break
        self.expect("sym", "}")
        return mode, add, dele

    # -- declarations -------------------------------------------------------------

    def _param_list(self) -> tuple[tuple[str, LType], ...]:
        params = []
        while True:
            n = self.ident("parameter name")
            self.expect("sym", ":")
            params.append((n.text, self.parse_type()))
            if not self.accept("sym", ","):
                break
        return tuple(params)

    def parse_class(self) -> ClassDecl:
        kw = self.expect("kw", "class")
        name = self.ident("class name")
        parent = "Class"
        if self.at("kw", "extends"):
            self.next()
            parent = self.ident("parent class name").text
        attrs = []
        if self.accept("sym", "{"):
            while not self.at("sym", "}"):
                n = self.ident("attribute name")
                self.expect("sym", ":")
                attrs.append((n.text, self.parse_type()))
                self.accept("sym", ",")
            self.expect("sym", "}")
        return ClassDecl(name.text, parent, tuple(attrs), loc=kw.loc)

    def parse_decl(self) -> FunDecl:
        kw = self.expect("kw", "decl")
        name = self.ident("declaration name")
        self.expect("sym", ":")
        ty = self.parse_type()
        return FunDecl(name.text, ty, loc=kw.loc)

    def _rule_name(self) -> str:
        self.expect("sym", "<")
        name = self.ident("rule name").text
        self.expect("sym", ">")
        return name

    def parse_rule(self) -> Rule:
        kw = self.expect("kw", "rule")
        name = self._rule_name()
        annotation = None
        if self.at("sym", "{"):
            annotation = self.parse_rule_annotation()
        params: tuple[tuple[str, LType], ...] = ()
        if self.at("kw", "for"):
            self.next()
            params = self._param_list()
        precond: Expr = TRUE
        has_if = False
        if self.at("kw", "if"):
            self.next()
            precond = self.parse_expr()
            has_if = True
        if self.at("kw", "then"):
            self.next()
            postcond = self.parse_expr()
            return Rule(name, params, precond, postcond, annotation, loc=kw.loc)
        if isinstance(annotation, Derived) and not params and not has_if:
            return Rule(name, (), TRUE, TRUE, annotation, loc=kw.loc)
        t = self.peek()
        raise LParseError(t.loc, f"expected 'then' in rule '{name}', found {t.text!r}")

    def parse_fact(self) -> Rule:
        kw = self.expect("kw", "fact")
        name = self._rule_name()
        annotation = None
        if self.at("sym", "{"):
            annotation = self.parse_rule_annotation()
        params: tuple[tuple[str, LType], ...] = ()
        if self.at("kw", "for"):
            self.next()
            params = self._param_list()
        postcond = self.parse_expr()
        return Rule(name, params, TRUE, postcond, annotation, loc=kw.loc)

    def parse_assertion(self) -> Assertion:
        kw = self.expect("kw", "assert")
        name = self._rule_name()
        mode, add, dele = VALID, (), ()
        if self.at("sym", "{"):
            mode, add, dele = self.parse_assertion_annotation()
        formula = self.parse_expr()
        return Assertion(name, formula, mode, add, dele, loc=kw.loc)

    def parse_module(self) -> RuleModule:
        classes: list[ClassDecl] = []
        decls: list[FunDecl] = []
        rules: list[Rule] = []
        assertions: list[Assertion] = []
        while not self.at("eof"):
            t = self.peek()
            if t.kind != "kw":
                raise LParseError(t.loc, f"expected a top-level item, found {t.text!r}")
            if t.text == "class":
                classes.append(self.parse_class())
            elif t.text == "decl":
                decls.append(self.parse_decl())
            elif t.text == "rule":
                rules.append(self.parse_rule())
            elif t.text == "fact":
                rules.append(self.parse_fact())
            elif t.text == "assert":
                assertions.append(self.parse_assertion())
            else:
                raise LParseError(t.loc, f"expected a top-level item, found {t.text!r}")
        funs, consts = split_decls(decls)
        return RuleModule(
            classes=tuple(classes),
            decls=tuple(funs),
            globals=tuple(consts),
            rules=tuple(rules),
            assertions=tuple(assertions),
        )


def parse_module(text: str) -> RuleModule:
    return _Parser(tokenize(text)).parse_module()


def parse_expr(text: str) -> Expr:
    p = _Parser(tokenize(text))
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "eof":
        raise LParseError(t.loc, f"trailing input after expression: {t.text!r}")
    return e


def parse_type(text: str) -> LType:
    p = _Parser(tokenize(text))
    t = p.parse_type()
    tok = p.peek()
    if tok.kind != "eof":
        raise LParseError(tok.loc, f"trailing input after type: {tok.text!r}")
    return t
