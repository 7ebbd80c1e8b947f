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
the module back.  The abstract syntax is registered for generic traversal
at import time; `to_term` wraps any syntax value, and the tags MODULE,
DECL, TYPE, EXPR and PATTERN name the five datatypes.  Source files use
the .ml0 extension.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


_ATYPE_START = frozenset({"CONID", "VARID", "(", "<<"})
_AEXPR_START = _ATYPE_START | {"INT", "STRING"}


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
        while True:
            if self.at("EOF"):
                break
            if not self.at("NEWLINE"):
                self.fail("expected end of line")
            self.skip_newlines()
            if self.at("EOF"):
                break
            decls.append(self.decl())
        return Module(name, tuple(decls))

    def decl(self) -> Decl:
        if self.at("data"):
            self.advance()
            name = self.expect("CONID").text
            self.expect("=")
            cons = [self.con()]
            while self.at("|"):
                self.advance()
                cons.append(self.con())
            return DataDecl(name, tuple(cons))
        if self.at("type"):
            self.advance()
            name = self.expect("CONID").text
            self.expect("=")
            return TypeSyn(name, self.type())
        if self.at("VARID"):
            name = self.advance().text
            params = []
            while not self.at("="):
                params.append(self.pat())
            self.expect("=")
            return FunBind(name, tuple(params), self.expr())
        self.fail("expected a declaration")

    def con(self):
        name = self.expect("CONID").text
        fields = []
        while self.peek().kind in _ATYPE_START:
            fields.append(self.atype())
        return (name, tuple(fields))

    def type(self) -> Type:
        left = self.btype()
        if self.at("->"):
            self.advance()
            return TyFun(left, self.type())
        return left

    def btype(self) -> Type:
        ty = self.atype()
        while self.peek().kind in _ATYPE_START:
            ty = TyApp(ty, self.atype())
        return ty

    def atype(self) -> Type:
        if self.at("CONID"):
            return TyCon(self.advance().text)
        if self.at("VARID"):
            return TyVar(self.advance().text)
        if self.at("("):
            self.advance()
            ty = self.type()
            self.expect(")")
            return ty
        if self.at("<<"):
            return self.focus("type", self.type, TyFocus)
        self.fail("expected a type")

    def expr(self) -> Expr:
        if self.at("let"):
            self.advance()
            name = self.expect("VARID").text
            self.expect("=")
            bound = self.expr()
            self.expect("in")
            return Let(name, bound, self.expr())
        if self.at("\\"):
            self.advance()
            param = self.pat()
            self.expect("->")
            return Lam(param, self.expr())
        e = self.aexpr()
        while self.peek().kind in _AEXPR_START:
            e = App(e, self.aexpr())
        return e

    def aexpr(self) -> Expr:
        if self.at("VARID"):
            return Var(self.advance().text)
        if self.at("CONID"):
            return Con(self.advance().text)
        if self.at("INT"):
            return LitInt(int(self.advance().text))
        if self.at("STRING"):
            return LitStr(self.advance().text)
        if self.at("("):
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if self.at("<<"):
            return self.focus("expression", self.expr, Focus)
        self.fail("expected an expression")

    def focus(self, what, inner, make):
        tok = self.advance()
        self.foci[what] += 1
        if self.foci[what] > 1:
            raise MultipleFociError(f"more than one {what} focus", tok.line, tok.col)
        node = inner()
        self.expect(">>")
        return make(node)

    def pat(self) -> Pattern:
        if self.at("VARID"):
            return PVar(self.advance().text)
        if self.at("("):
            self.advance()
            name = self.expect("CONID").text
            args = []
            while not self.at(")"):
                args.append(self.pat())
            self.advance()
            return PCon(name, tuple(args))
        self.fail("expected a pattern")


def parse(source: str) -> Module:
    """Parse module source, raising ParseError with line and column."""
    parser = _Parser(_tokenize(source))
    module = parser.module()
    parser.expect("EOF")
    return module


def _type_atom(ty: Type) -> str:
    if isinstance(ty, (TyCon, TyVar)):
        return ty.name
    if isinstance(ty, TyFocus):
        return f"<< {pretty_type(ty.inner)} >>"
    return f"({pretty_type(ty)})"


def _type_app(ty: Type) -> str:
    if isinstance(ty, TyApp):
        return f"{_type_app(ty.fn)} {_type_atom(ty.arg)}"
    return _type_atom(ty)


def pretty_type(ty: Type) -> str:
    if isinstance(ty, TyFun):
        return f"{_type_app(ty.arg)} -> {pretty_type(ty.result)}"
    return _type_app(ty)


def _pat(p: Pattern) -> str:
    if isinstance(p, PVar):
        return p.name
    inside = " ".join([p.name] + [_pat(a) for a in p.args])
    return f"({inside})"


def _expr_atom(e: Expr) -> str:
    if isinstance(e, (Var, Con)):
        return e.name
    if isinstance(e, LitInt):
        return str(e.value)
    if isinstance(e, LitStr):
        return f'"{e.value}"'
    if isinstance(e, Focus):
        return f"<< {pretty_expr(e.inner)} >>"
    return f"({pretty_expr(e)})"


def _expr_app(e: Expr) -> str:
    if isinstance(e, App):
        return f"{_expr_app(e.fn)} {_expr_atom(e.arg)}"
    return _expr_atom(e)


def pretty_expr(e: Expr) -> str:
    if isinstance(e, Let):
        return f"let {e.name} = {pretty_expr(e.bound)} in {pretty_expr(e.body)}"
    if isinstance(e, Lam):
        return f"\\{_pat(e.param)} -> {pretty_expr(e.body)}"
    return _expr_app(e)


def _decl(d: Decl) -> str:
    if isinstance(d, DataDecl):
        cons = " | ".join(
            " ".join([name] + [_type_atom(f) for f in fields])
            for name, fields in d.constructors
        )
        return f"data {d.name} = {cons}"
    if isinstance(d, TypeSyn):
        return f"type {d.name} = {pretty_type(d.rhs)}"
    parts = [d.name] + [_pat(p) for p in d.params]
    return f"{' '.join(parts)} = {pretty_expr(d.body)}"


def pretty(module: Module) -> str:
    """Render a module; parsing the result gives the module back."""
    lines = [f"module {module.name} where"]
    lines.extend(_decl(d) for d in module.decls)
    return "\n".join(lines) + "\n"


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
