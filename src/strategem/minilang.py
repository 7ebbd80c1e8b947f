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
the whole file to be ASCII.  The first bad character is reported before
any syntax error.  Positions are computed when an error is raised, by
lexing the source again up to the failing token.

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
from itertools import groupby, islice
from typing import TypeAlias

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


# Each match skips the blanks and the comment before one token, then reads
# it; the empty match at the end is EOF.  A lone `"` starts no string, and
# like a character no other alternative starts with it is a token of its own.
_TOKEN = re.compile(r"""[ \t\r]*(?:--[^\n]*)?(->|<<|>>|"[^"\n]*"|[0-9]+|[A-Za-z_][A-Za-z0-9_']*|\n|.|\Z)""")

# Token text -> kind where the first character does not fix it; keywords
# and punctuation are their own kind.  Any other token's kind comes from
# its first character, and a character that starts no token is an ERROR.
_KINDS = {text: text for text in "module where data type let in -> << >> = | ( ) \\".split()}
_KINDS.update({"\n": "NEWLINE", "": "EOF", '"': "ERROR"})
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_FIRST = {**dict.fromkeys(_LETTERS, "CONID"), **dict.fromkeys(_LETTERS.lower() + "_", "VARID")}
_FIRST |= {'"': "STRING", **dict.fromkeys("0123456789", "INT")}


def _error(message, source, index, error=ParseError):
    """`error` at the `index`-th token of `source`, whose position is found by lexing again."""
    start = next(islice(_TOKEN.finditer(source), index, None)).start(1)
    line_start = source.rfind("\n", 0, start) + 1
    return error(message, source.count("\n", 0, start) + 1, start - line_start + 1)


def _tokenize(source: str) -> tuple[list[str], list[str]]:
    """The texts of the tokens of `source` and, in a list of the same length, their kinds."""
    texts = _TOKEN.findall(source)
    kinds = [_KINDS.get(text) or _FIRST.get(text[0], "ERROR") for text in texts]
    if "ERROR" in kinds:
        i = kinds.index("ERROR")
        message = "unterminated string" if texts[i] == '"' else f"unexpected character {texts[i]!r}"
        raise _error(message, source, i)
    return texts, kinds


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
    {"VARID": Var, "CONID": Con, "INT": lambda t: LitInt(int(t)), "STRING": lambda t: LitStr(t[1:-1])},
    App,
    Focus,
    False,
)


class _Parser:
    def __init__(self, source):
        self.source = source
        self.texts, self.kinds = _tokenize(source)
        self.pos = 0
        self.foci = {"expression": 0, "type": 0}

    def fail(self, message, pos=None, error=ParseError):
        """Raise `error` at the token at `pos`, by default the next one."""
        raise _error(message, self.source, self.pos if pos is None else pos, error)

    def expect(self, kind) -> str:
        """The text of the next token, which must be of `kind`; the parser moves past it."""
        pos = self.pos
        if self.kinds[pos] != kind:
            self.fail(f"expected {kind!r}, got {self.texts[pos] or 'end of input'!r}")
        self.pos = pos + 1
        return self.texts[pos]

    def skip_newlines(self):
        while self.kinds[self.pos] == "NEWLINE":
            self.pos += 1

    def module(self) -> Module:
        self.skip_newlines()
        self.expect("module")
        name = self.expect("CONID")
        self.expect("where")
        decls = []
        while self.kinds[self.pos] != "EOF":
            if self.kinds[self.pos] != "NEWLINE":
                self.fail("expected end of line")
            self.skip_newlines()
            if self.kinds[self.pos] != "EOF":
                decls.append(self.decl())
        return Module(name, tuple(decls))

    def decl(self) -> Decl:
        keyword = self.kinds[self.pos]
        if keyword == "data" or keyword == "type":
            self.pos += 1
            name = self.expect("CONID")
            self.expect("=")
            if keyword == "type":
                return TypeSyn(name, self.phrase(_TYPE))
            cons = [self.con()]
            while self.kinds[self.pos] == "|":
                self.pos += 1
                cons.append(self.con())
            return DataDecl(name, tuple(cons))
        if keyword == "VARID":
            name = self.expect("VARID")
            params = []
            while self.kinds[self.pos] != "=":
                params.append(self.pat())
            self.pos += 1
            return FunBind(name, tuple(params), self.phrase(_EXPR))
        self.fail("expected a declaration")

    def con(self):
        name = self.expect("CONID")
        fields = []
        while self.kinds[self.pos] in _TYPE.starts:
            fields.append(self.phrase(_TYPE, atom=True))
        return (name, tuple(fields))

    def phrase(self, syntax: _Syntax, atom=False):
        """Read a type or an expression, or with `atom` one atom, on an explicit stack.

        Each frame is a (form, part) pair, innermost last: "end" or "atom" at
        the bottom; ")", or ">>" with the focus class; "in" with a let's name;
        "app" with the spine so far; "wrap" with the constructor that takes
        the whole phrase read next (a let or lambda body, an arrow's result).
        `pos` is the next token's index, stored in `self.pos` for the calls made.
        """
        kinds, texts = self.kinds, self.texts
        leaves, starts, arrow = syntax.leaves, syntax.starts, syntax.arrow
        stack = [("atom" if atom else "end", None)]
        pos = self.pos
        while True:
            kind = kinds[pos]
            pos += 1
            if kind in leaves:
                node = leaves[kind](texts[pos - 1])
            else:
                if kind == "(":
                    stack.append((")", None))
                elif kind == "<<":
                    self.foci[syntax.what] += 1
                    if self.foci[syntax.what] > 1:
                        self.fail(f"more than one {syntax.what} focus", pos - 1, MultipleFociError)
                    stack.append((">>", syntax.focus))
                elif kind == "let" and not arrow:
                    self.pos = pos
                    stack.append(("in", self.expect("VARID")))
                    self.expect("=")
                    pos = self.pos
                elif kind == "\\" and not arrow:
                    self.pos = pos
                    stack.append(("wrap", partial(Lam, self.pat())))
                    self.expect("->")
                    pos = self.pos
                else:
                    self.fail(syntax.expected, pos - 1)
                continue
            while True:  # `node` is an atom: extend the spine, then close what it ends
                if stack[-1][0] == "app":
                    node = syntax.app(stack.pop()[1], node)
                form, part = stack[-1]
                if form == "atom":
                    self.pos = pos
                    return node
                kind = kinds[pos]
                if kind in starts:
                    stack.append(("app", node))
                    break
                if arrow and kind == "->":
                    pos += 1
                    stack.append(("wrap", partial(TyFun, node)))
                    break
                while form == "wrap":  # `node` is a whole phrase
                    node = stack.pop()[1](node)
                    form, part = stack[-1]
                if form == "end":
                    self.pos = pos
                    return node
                if kind != form:
                    self.pos = pos
                    self.expect(form)  # raises
                pos += 1
                stack.pop()
                if form == "in":
                    stack.append(("wrap", partial(Let, part, node)))
                    break
                if part:
                    node = part(node)

    def pat(self) -> Pattern:
        """Read a pattern; `stack` holds each open constructor pattern's name and arguments."""
        kinds, texts = self.kinds, self.texts
        stack = [(None, [])]
        pos = self.pos
        while True:
            kind = kinds[pos]
            if kind == "VARID":
                stack[-1][1].append(PVar(texts[pos]))
                pos += 1
            elif kind == "(":
                self.pos = pos + 1
                stack.append((self.expect("CONID"), []))
                pos = self.pos
            else:
                self.fail("expected a pattern", pos)
            while len(stack) > 1 and kinds[pos] == ")":
                pos += 1
                name, args = stack.pop()
                stack[-1][1].append(PCon(name, tuple(args)))
            if len(stack) == 1:
                self.pos = pos
                return stack[0][1][0]


def parse(source: str) -> Module:
    """Parse module source, raising ParseError with line and column."""
    return _Parser(source).module()


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
