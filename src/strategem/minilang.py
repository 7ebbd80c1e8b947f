"""A small functional language used as the traversal corpus.

Concrete syntax, one declaration per line, `--` line comments:

  module ::= "module" CONID "where" decl*
  decl   ::= "data" CONID "=" con ("|" con)*
           | "type" CONID "=" type
           | VARID pat* "=" expr
  con    ::= CONID atype*
  type   ::= btype ("->" type)?
  btype  ::= atype+
  atype  ::= CONID | VARID | "(" type ")" | "<<" type ">>"
  expr   ::= "let" VARID "=" expr "in" expr | "\\" pat "->" expr | aexpr+
  aexpr  ::= VARID | CONID | INT | STRING | "(" expr ")" | "<<" expr ">>"
  pat    ::= VARID | "(" CONID pat* ")"

Lexical rules: names are ASCII, `[A-Za-z_][A-Za-z0-9_']*`; one starting
with an upper-case letter is a CONID, any other a VARID, except the six
quoted keywords.  INT is the digits 0-9; STRING is double-quoted on one
line, with no escapes.  String and comment text is not lexed, so it may
hold any character but a newline (in a string, also not `"`).  Spaces,
tabs and carriage returns are blanks.  The command line also requires
the whole file to be ASCII.

`<< ... >>` marks a focus; a module may contain at most one expression
focus and at most one type focus, checked at parse time.  Application and
type application associate left, function arrows associate right.

`parse` and `pretty` round-trip: parsing the pretty form of a module gives
the module back.  `pretty` renders any syntax fragment: a module, a
declaration, a type, an expression or a pattern; `pretty_chunks` gives
the same text as chunks in output order, without joining it.  Neither
`parse` nor `pretty` recurses, so they have no depth limit.  The
dataclass `==`, `repr` and `hash` do recurse on deep values; compare
those as terms.

The abstract syntax is registered for generic traversal at import time;
`to_term` wraps any syntax value, and the tags MODULE, DECL, TYPE, EXPR
and PATTERN name the five datatypes.  Source files use the .ml0 extension.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import groupby
from typing import NamedTuple, TypeAlias

from .terms import Registry, Term

__all__ = [
    "Module",
    "DataDecl",
    "TypeSyn",
    "FunBind",
    "Decl",
    "TyCon",
    "TyVar",
    "TyApp",
    "TyFun",
    "TyFocus",
    "Type",
    "Var",
    "Con",
    "LitInt",
    "LitStr",
    "App",
    "Lam",
    "Let",
    "Focus",
    "Expr",
    "PVar",
    "PCon",
    "Pattern",
    "ParseError",
    "MultipleFociError",
    "parse",
    "pretty",
    "pretty_chunks",
    "pretty_expr",
    "pretty_type",
    "REGISTRY",
    "MODULE",
    "DECL",
    "TYPE",
    "EXPR",
    "PATTERN",
    "to_term",
]


@dataclass(frozen=True)
class TyCon:
    name: str


@dataclass(frozen=True)
class TyVar:
    name: str


@dataclass(frozen=True)
class TyApp:
    fn: Type
    arg: Type


@dataclass(frozen=True)
class TyFun:
    arg: Type
    result: Type


@dataclass(frozen=True)
class TyFocus:
    inner: Type


Type: TypeAlias = TyCon | TyVar | TyApp | TyFun | TyFocus


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PCon:
    name: str
    args: tuple[Pattern, ...]


Pattern: TypeAlias = PVar | PCon


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Con:
    name: str


@dataclass(frozen=True)
class LitInt:
    value: int


@dataclass(frozen=True)
class LitStr:
    value: str


@dataclass(frozen=True)
class App:
    fn: Expr
    arg: Expr


@dataclass(frozen=True)
class Lam:
    param: Pattern
    body: Expr


@dataclass(frozen=True)
class Let:
    name: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class Focus:
    inner: Expr


Expr: TypeAlias = Var | Con | LitInt | LitStr | App | Lam | Let | Focus


@dataclass(frozen=True)
class DataDecl:
    name: str
    constructors: tuple[tuple[str, tuple[Type, ...]], ...]


@dataclass(frozen=True)
class TypeSyn:
    name: str
    rhs: Type


@dataclass(frozen=True)
class FunBind:
    name: str
    params: tuple[Pattern, ...]
    body: Expr


Decl: TypeAlias = DataDecl | TypeSyn | FunBind


@dataclass(frozen=True)
class Module:
    name: str
    decls: tuple[Decl, ...]


class ParseError(Exception):
    """Syntax error with source position."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class MultipleFociError(ParseError):
    """More than one focus of the same kind in a module."""


_KEYWORDS = frozenset({"module", "where", "data", "type", "let", "in"})

# One alternative per token class, tried in order; OTHER catches any
# character no other alternative starts with, so matches tile the source.
_TOKEN = re.compile(
    r"""
      (?P<NEWLINE>\n)
    | (?P<SKIP>[ \t\r]+ | --[^\n]*)
    | (?P<PUNCT>-> | << | >> | [=|()\\])
    | "(?P<STRING>[^"\n]*)"
    | (?P<UNTERMINATED>")
    | (?P<INT>[0-9]+)
    | (?P<NAME>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<OTHER>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    """Keywords and punctuation are tokens whose kind is their own text."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        text, col = m[kind], m.start() - line_start + 1
        if kind == "NAME":
            kind = text if text in _KEYWORDS else "CONID" if text[0].isupper() else "VARID"
        elif kind == "PUNCT":
            kind = text
        elif kind == "UNTERMINATED":
            raise ParseError("unterminated string", line, col)
        elif kind == "OTHER":
            raise ParseError(f"unexpected character {text!r}", line, col)
        tokens.append(_Token(kind, text, line, col))
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
    tokens.append(_Token("EOF", "", line, len(source) - line_start + 1))
    return tokens


class _Syntax:
    """What types and expressions differ in, for `_Parser.phrase`."""

    def __init__(self, what, expected, leaves, app, focus, arrow):
        self.what = what  # names the syntax class in messages and in the focus count
        self.expected = expected  # the message for a token that cannot start one
        self.leaves = leaves  # token kind -> the leaf made from the token text
        self.starts = {"(", "<<", *leaves}  # the kinds of the tokens that open an atom
        self.app, self.focus = app, focus
        # True for types, where "->" may follow a spine; an expression instead
        # may open with let or a lambda.
        self.arrow = arrow


_TYPE = _Syntax("type", "expected a type", {"CONID": TyCon, "VARID": TyVar}, TyApp, TyFocus, True)
_EXPR = _Syntax(
    "expression",
    "expected an expression",
    {"VARID": Var, "CONID": Con, "INT": lambda text: LitInt(int(text)), "STRING": LitStr},
    App,
    Focus,
    False,
)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.foci = {"expression": 0, "type": 0}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    def expect(self, kind) -> _Token:
        t = self.peek()
        if t.kind != kind:
            got = t.text if t.kind != "EOF" else "end of input"
            self.fail(f"expected {kind!r}, got {got!r}")
        return self.advance()

    def at(self, kind) -> bool:
        return self.peek().kind == kind

    def skip_newlines(self):
        while self.at("NEWLINE"):
            self.advance()

    def module(self) -> Module:
        self.skip_newlines()
        self.expect("module")
        name = self.expect("CONID").text
        self.expect("where")
        decls = []
        while not self.at("EOF"):
            if not self.at("NEWLINE"):
                self.fail("expected end of line")
            self.skip_newlines()
            if not self.at("EOF"):
                decls.append(self.decl())
        return Module(name, tuple(decls))

    def decl(self) -> Decl:
        if self.at("data") or self.at("type"):
            keyword = self.advance().kind
            name = self.expect("CONID").text
            self.expect("=")
            if keyword == "type":
                return TypeSyn(name, self.phrase(_TYPE))
            cons = [self.con()]
            while self.at("|"):
                self.advance()
                cons.append(self.con())
            return DataDecl(name, tuple(cons))
        if self.at("VARID"):
            name = self.advance().text
            params = []
            while not self.at("="):
                params.append(self.pat())
            self.expect("=")
            return FunBind(name, tuple(params), self.phrase(_EXPR))
        self.fail("expected a declaration")

    def con(self):
        name = self.expect("CONID").text
        fields = []
        while self.peek().kind in _TYPE.starts:
            fields.append(self.phrase(_TYPE, atom=True))
        return (name, tuple(fields))

    def phrase(self, syntax: _Syntax, atom=False):
        """Read a type or an expression, or with `atom` one atom, on an explicit stack.

        Each frame is a (form, part) pair, innermost last: "end" or "atom" at
        the bottom; ")", or ">>" with the focus class; "in" with a let's name;
        "app" with the spine so far; "wrap" with the constructor that takes
        the whole phrase read next (a let or lambda body, an arrow's result).
        """
        starts = syntax.starts
        stack = [("atom" if atom else "end", None)]
        while True:
            tok = self.advance()
            if tok.kind in syntax.leaves:
                node = syntax.leaves[tok.kind](tok.text)
            else:
                if tok.kind == "(":
                    stack.append((")", None))
                elif tok.kind == "<<":
                    self.foci[syntax.what] += 1
                    if self.foci[syntax.what] > 1:
                        message = f"more than one {syntax.what} focus"
                        raise MultipleFociError(message, tok.line, tok.col)
                    stack.append((">>", syntax.focus))
                elif tok.kind == "let" and not syntax.arrow:
                    stack.append(("in", self.expect("VARID").text))
                    self.expect("=")
                elif tok.kind == "\\" and not syntax.arrow:
                    stack.append(("wrap", partial(Lam, self.pat())))
                    self.expect("->")
                else:
                    raise ParseError(syntax.expected, tok.line, tok.col)
                continue
            while True:  # `node` is an atom: extend the spine, then close what it ends
                if stack[-1][0] == "app":
                    node = syntax.app(stack.pop()[1], node)
                form, part = stack[-1]
                if form == "atom":
                    return node
                if self.peek().kind in starts:
                    stack.append(("app", node))
                    break
                if syntax.arrow and self.at("->"):
                    self.advance()
                    stack.append(("wrap", partial(TyFun, node)))
                    break
                while form == "wrap":  # `node` is a whole phrase
                    node = stack.pop()[1](node)
                    form, part = stack[-1]
                if form == "end":
                    return node
                self.expect(form)
                stack.pop()
                if form == "in":
                    stack.append(("wrap", partial(Let, part, node)))
                    break
                if part:
                    node = part(node)

    def pat(self) -> Pattern:
        """Read a pattern; `stack` holds each open constructor pattern's name and arguments."""
        stack = [(None, [])]
        while True:
            tok = self.advance()
            if tok.kind == "VARID":
                stack[-1][1].append(PVar(tok.text))
            elif tok.kind == "(":
                stack.append((self.expect("CONID").text, []))
            else:
                raise ParseError("expected a pattern", tok.line, tok.col)
            while len(stack) > 1 and self.at(")"):
                self.advance()
                name, args = stack.pop()
                stack[-1][1].append(PCon(name, tuple(args)))
            if len(stack) == 1:
                return stack[0][1][0]


def parse(source: str) -> Module:
    """Parse module source, raising ParseError with line and column."""
    parser = _Parser(_tokenize(source))
    module = parser.module()
    parser.expect("EOF")
    return module


# Precedence places: a node whose own place is below the place its parent
# gives it is parenthesised.  Declarations never are.
_ARROW, _APP, _ATOM = 0, 1, 2


def _each(sep, nodes) -> list:
    """The parts of `nodes` at atom place, each after `sep`."""
    return [part for node in nodes for part in (sep, (node, _ATOM))]


# Node class -> (its place, its parts: text, or a (child, place) pair).
_LAYOUT = {
    Module: (_ATOM, lambda m: ["module ", m.name, " where", *_each("\n", m.decls), "\n"]),
    DataDecl: (_ATOM, lambda d: ["data ", d.name, " = ", *_each(" | ", d.constructors)[1:]]),
    tuple: (_ATOM, lambda con: [con[0], *_each(" ", con[1])]),  # a data constructor
    TypeSyn: (_ATOM, lambda d: ["type ", d.name, " = ", (d.rhs, _ARROW)]),
    FunBind: (_ATOM, lambda d: [d.name, *_each(" ", d.params), " = ", (d.body, _ARROW)]),
    TyCon: (_ATOM, lambda t: [t.name]),
    TyVar: (_ATOM, lambda t: [t.name]),
    TyApp: (_APP, lambda t: [(t.fn, _APP), " ", (t.arg, _ATOM)]),
    TyFun: (_ARROW, lambda t: [(t.arg, _APP), " -> ", (t.result, _ARROW)]),
    TyFocus: (_ATOM, lambda t: ["<< ", (t.inner, _ARROW), " >>"]),
    PVar: (_ATOM, lambda p: [p.name]),
    PCon: (_ATOM, lambda p: ["(", p.name, *_each(" ", p.args), ")"]),
    Var: (_ATOM, lambda e: [e.name]),
    Con: (_ATOM, lambda e: [e.name]),
    LitInt: (_ATOM, lambda e: [str(e.value)]),
    LitStr: (_ATOM, lambda e: ['"', e.value, '"']),
    App: (_APP, lambda e: [(e.fn, _APP), " ", (e.arg, _ATOM)]),
    Lam: (_ARROW, lambda e: ["\\", (e.param, _ATOM), " -> ", (e.body, _ARROW)]),
    Let: (_ARROW, lambda e: ["let ", e.name, " = ", (e.bound, _ARROW), " in ", (e.body, _ARROW)]),
    Focus: (_ATOM, lambda e: ["<< ", (e.inner, _ARROW), " >>"]),
}


# `pretty_chunks` hands on the parts it has gathered once more than
# _BATCH_PARTS are waiting; a part of _LONG_PART characters or more, mostly
# a name the syntax value holds, is handed on as it is, not copied.
_BATCH_PARTS = 512
_LONG_PART = 256


def _batch(parts):
    """The chunks of `parts`: runs of short parts joined, long parts as they are."""
    if max(map(len, parts)) < _LONG_PART:
        yield "".join(parts)
        return
    for long, run in groupby(parts, lambda part: len(part) >= _LONG_PART):
        yield from run if long else ("".join(run),)


def pretty_chunks(node):
    """The rendering of `pretty(node)`, as chunks of text in output order.

    `pending` holds the parts still to write, the next one last; `out`
    the parts written since the last chunk.
    """
    out = []
    pending = [(node, _ARROW)]
    while pending:
        part = pending.pop()
        if isinstance(part, str):
            out.append(part)
            continue
        if len(out) > _BATCH_PARTS:
            yield from _batch(out)
            out = []
        node, place = part
        own, layout = _LAYOUT[type(node)]
        parts = layout(node) if own >= place else ["(", *layout(node), ")"]
        pending += reversed(parts)
    if out:
        yield from _batch(out)


def pretty(node) -> str:
    """Render any syntax value: a module, declaration, type, expression or pattern.

    Parsing the rendering of a module gives the module back.
    """
    return "".join(pretty_chunks(node))


pretty_type = pretty_expr = pretty


REGISTRY = Registry()
_TAGS = REGISTRY.derive(
    {
        "Module": [Module],
        "Decl": [DataDecl, TypeSyn, FunBind],
        "Type": [TyCon, TyVar, TyApp, TyFun, TyFocus],
        "Expr": [Var, Con, LitInt, LitStr, App, Lam, Let, Focus],
        "Pattern": [PVar, PCon],
    }
)
MODULE = _TAGS["Module"]
DECL = _TAGS["Decl"]
TYPE = _TAGS["Type"]
EXPR = _TAGS["Expr"]
PATTERN = _TAGS["Pattern"]
REGISTRY.freeze()


def to_term(value, tag=None) -> Term:
    """Wrap a syntax value (or atom) as a traversable term."""
    return REGISTRY.term(value, tag)
