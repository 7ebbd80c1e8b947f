"""Seeded input generators for the benchmark.

Modules are generated as a small tuple syntax tree and rendered to `.ml0`
text by this file's own printer, which writes the canonical layout that
`strategem.minilang.pretty` produces.  The same printer, with hooks,
renders the expected output of `inc-ints`, `debruijn` and `to-alias`, so
those outputs are checked against something that shares no code with the
library.  Nothing here imports strategem.

Syntax tree shapes (all tuples, first item is the kind):

  type  ("TCon", name) ("TVar", name) ("TApp", f, a) ("TFun", a, r) ("TFocus", t)
  expr  ("Var", n) ("Con", n) ("Int", v) ("Str", s) ("App", f, a)
        ("Lam", pat, body) ("Let", n, bound, body) ("Focus", e)
  pat   ("PVar", n) ("PCon", n, (pat, ...))
  decl  ("Data", name, ((con, (type, ...)), ...)) ("Syn", name, type)
        ("Fun", name, (pat, ...), expr)
  module (name, (decl, ...))
"""

from __future__ import annotations

import hashlib
import random

ALIAS = "Alias"
FRESH = "Fresh"

_TYPE_NAMES = tuple(f"T{i}" for i in range(40)) + ("Int", "List", "Maybe", "Pair", "Tree")
_CON_NAMES = tuple(f"C{i}" for i in range(30)) + ("Nil", "Cons", "Just", "MkPair")
_VARS = tuple(f"v{i}" for i in range(40)) + ("x", "y", "z", "f", "g", "go", "acc", "xs")
_STRINGS = ("", "a", "hello", "x y z", "42", "key", "value")


def log_sizes(count: int, low: int, high: int) -> list:
    """`count` sizes log-spaced from `low` to `high`, both included.

    The sizes do not depend on the seed, so every seed runs the same mix of
    sizes and only the contents change.
    """
    if count == 1:
        return [high]
    return [round(low * (high / low) ** (i / (count - 1))) for i in range(count)]


def spread_order(count: int) -> list:
    """Indices 0..count-1 in bit-reversed order, so every prefix spans the range."""
    bits = max(1, (count - 1).bit_length())
    order = []
    for i in range(1 << bits):
        j = int(format(i, f"0{bits}b")[::-1], 2)
        if j < count:
            order.append(j)
    return order


# -- random syntax -----------------------------------------------------------


def _type(rng, depth):
    if depth <= 0 or rng.random() < 0.45:
        if rng.random() < 0.7:
            return ("TCon", rng.choice(_TYPE_NAMES))
        return ("TVar", rng.choice(_VARS))
    if rng.random() < 0.6:
        return ("TApp", _type(rng, depth - 1), _type(rng, depth - 1))
    return ("TFun", _type(rng, depth - 1), _type(rng, depth - 1))


def _pat(rng, depth):
    if depth <= 0 or rng.random() < 0.7:
        return ("PVar", rng.choice(_VARS))
    return ("PCon", rng.choice(_CON_NAMES), tuple(_pat(rng, depth - 1) for _ in range(rng.randrange(3))))


def _expr(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        case = rng.randrange(10)
        if case < 5:
            return ("Var", rng.choice(_VARS))
        if case < 7:
            return ("Con", rng.choice(_CON_NAMES))
        if case < 9:
            return ("Int", rng.randrange(1000))
        return ("Str", rng.choice(_STRINGS))
    case = rng.randrange(10)
    if case < 6:
        return ("App", _expr(rng, depth - 1), _expr(rng, depth - 1))
    if case < 8:
        return ("Lam", _pat(rng, 1), _expr(rng, depth - 1))
    return ("Let", rng.choice(_VARS), _expr(rng, depth - 1), _expr(rng, depth - 1))


def _decl(rng):
    roll = rng.random()
    if roll < 0.2:
        cons = tuple(
            (rng.choice(_CON_NAMES), tuple(_type(rng, 2) for _ in range(rng.randrange(3))))
            for _ in range(1 + rng.randrange(3))
        )
        return ("Data", rng.choice(_TYPE_NAMES), cons)
    if roll < 0.35:
        return ("Syn", rng.choice(_TYPE_NAMES), _type(rng, 3))
    params = tuple(_pat(rng, 1) for _ in range(rng.randrange(3)))
    return ("Fun", rng.choice(_VARS), params, _expr(rng, 3))


def module_tree(rng: random.Random, n_decls: int, name: str = "Bench") -> tuple:
    """A module of exactly `n_decls` declarations (at least 3).

    It carries exactly one expression focus, in a function binding, and
    exactly one type focus, whose type is the right-hand side of the
    synonym `Alias`, so `select-focus` and `to-alias --name Alias` succeed.
    """
    if n_decls < 3:
        raise ValueError("a benchmark module needs at least 3 declarations")
    decls = [_decl(rng) for _ in range(n_decls - 3)]
    rhs = _type(rng, 2)
    focus_fn = ("Fun", "focused", (("PVar", "x"),), ("App", ("Var", "x"), ("Focus", _expr(rng, 2))))
    box = ("Data", "Box", (("MkBox", (("TFocus", rhs),)),))
    for extra in (("Syn", ALIAS, rhs), focus_fn, box):
        decls.insert(rng.randrange(len(decls) + 1), extra)
    return (name, tuple(decls))


# -- canonical printer ---------------------------------------------------------


class Printer:
    """Renders the tuple syntax in `pretty`'s canonical layout.

    `int_delta` is added to every integer literal, `rename` (if given)
    replaces every string atom in preorder, and `alias` (if given) replaces
    the type focus by that type name.
    """

    def __init__(self, int_delta=0, rename=None, alias=None):
        self.int_delta = int_delta
        self.rename = rename
        self.alias = alias

    def s(self, text):
        return self.rename(text) if self.rename else text

    def type(self, ty):
        if ty[0] == "TFun":
            left = self.type_app(ty[1])
            return f"{left} -> {self.type(ty[2])}"
        return self.type_app(ty)

    def type_app(self, ty):
        if ty[0] == "TApp":
            fn = self.type_app(ty[1])
            return f"{fn} {self.type_atom(ty[2])}"
        return self.type_atom(ty)

    def type_atom(self, ty):
        kind = ty[0]
        if kind in ("TCon", "TVar"):
            return self.s(ty[1])
        if kind == "TFocus":
            if self.alias is not None:
                return self.alias
            return f"<< {self.type(ty[1])} >>"
        return f"({self.type(ty)})"

    def pat(self, p):
        if p[0] == "PVar":
            return self.s(p[1])
        head = self.s(p[1])
        return "(" + " ".join([head] + [self.pat(a) for a in p[2]]) + ")"

    def expr(self, e):
        kind = e[0]
        if kind == "Let":
            name = self.s(e[1])
            bound = self.expr(e[2])
            return f"let {name} = {bound} in {self.expr(e[3])}"
        if kind == "Lam":
            param = self.pat(e[1])
            return f"\\{param} -> {self.expr(e[2])}"
        return self.expr_app(e)

    def expr_app(self, e):
        if e[0] == "App":
            fn = self.expr_app(e[1])
            return f"{fn} {self.expr_atom(e[2])}"
        return self.expr_atom(e)

    def expr_atom(self, e):
        kind = e[0]
        if kind in ("Var", "Con"):
            return self.s(e[1])
        if kind == "Int":
            return str(e[1] + self.int_delta)
        if kind == "Str":
            return '"' + self.s(e[1]) + '"'
        if kind == "Focus":
            return f"<< {self.expr(e[1])} >>"
        return f"({self.expr(e)})"

    def decl(self, d):
        kind = d[0]
        name = self.s(d[1])
        if kind == "Data":
            alts = []
            for con, fields in d[2]:
                con_name = self.s(con)
                alts.append(" ".join([con_name] + [self.type_atom(f) for f in fields]))
            return f"data {name} = " + " | ".join(alts)
        if kind == "Syn":
            return f"type {name} = {self.type(d[2])}"
        params = [self.pat(p) for p in d[2]]
        return " ".join([name] + params) + f" = {self.expr(d[3])}"

    def lines(self, tree):
        """The module's lines, one at a time."""
        name, decls = tree
        yield f"module {self.s(name)} where"
        for d in decls:
            yield self.decl(d)

    def module(self, tree):
        return "".join(line + "\n" for line in self.lines(tree))


def render(tree) -> str:
    return Printer().module(tree)


def find_focus(tree) -> tuple:
    """The expression under the expression focus."""
    for d in tree[1]:
        if d[0] == "Fun" and d[1] == "focused":
            return d[3][2][1]
    raise ValueError("module has no expression focus")


def digest(lines) -> str:
    """SHA-256 of the text made of these lines, each ended by a newline."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def expected_digests(tree) -> tuple:
    """Digests of the expected stdout of the commands the printer can render,
    and the number of string atoms `debruijn` renames.

    Digests, because `debruijn` output grows with the square of the number
    of strings: the n-th new name is n characters long.
    """
    renamed = 0

    def fresh(_old):
        nonlocal renamed
        renamed += 1
        return "1" + "'" * (renamed - 1)

    digests = {
        "inc-ints": digest(Printer(int_delta=1).lines(tree)),
        "debruijn": digest(Printer(rename=fresh).lines(tree)),
        "to-alias": digest(Printer(alias=ALIAS).lines(tree)),
        "select-focus": digest([Printer().expr(find_focus(tree))]),
    }
    return digests, renamed


# -- the .ml0 corpus -------------------------------------------------------------


def corpus(seed: int, count: int, low: int, high: int) -> list:
    """(size, tree, text) for `count` modules, sizes log-spaced over [low, high]."""
    rng = random.Random(f"corpus:{seed}")
    out = []
    for i, size in enumerate(log_sizes(count, low, high)):
        tree = module_tree(rng, size, name=f"M{i}")
        out.append((size, tree, render(tree)))
    return out


# -- library data ------------------------------------------------------------------


def pair_list(rng: random.Random, n: int) -> list:
    return [(rng.random() < 0.5, rng.randrange(1000)) for _ in range(n)]


def optional_list(rng: random.Random, n: int) -> list:
    """Optional ints whose `None`s (about one in fifty, at least one) all sit
    in the second half, so a search for the first `None` walks half the list."""
    out = [rng.randrange(1000) for _ in range(n)]
    holes = [i for i in range(n // 2, n) if rng.random() < 0.04]
    for i in holes or [n // 2 + rng.randrange(n - n // 2)]:
        out[i] = None
    return out


TREE_DESCRIPTORS = "Tree.Leaf : Int\nTree.Node : Tree Tree\n"


def tree_shape(rng: random.Random, leaves: int):
    """A random binary tree shape: an int leaf or a (left, right) tuple."""
    stack = [leaves]
    built = []
    ops = []
    # Iterative split so very large trees never recurse in the generator.
    while stack:
        n = stack.pop()
        if n == 1:
            ops.append(rng.randrange(1000))
        else:
            k = 1 + rng.randrange(n - 1)
            ops.append(("node",))
            stack.append(n - k)
            stack.append(k)
    for op in reversed(ops):
        if isinstance(op, tuple):
            left = built.pop()
            right = built.pop()
            built.append((left, right))
        else:
            built.append(op)
    return built[0]


def encode_stream(rng: random.Random, length: int, distinct_share: float = 0.75) -> list:
    """`length` declaration trees, exactly round(length * distinct_share) of
    them distinct, in random order."""
    distinct, seen = [], set()
    while len(distinct) < max(1, round(length * distinct_share)):
        d = _decl(rng)
        if d not in seen:
            seen.add(d)
            distinct.append(d)
    stream = distinct + [rng.choice(distinct) for _ in range(length - len(distinct))]
    rng.shuffle(stream)
    return stream
