"""Independent references for checking benchmark outputs.

Everything here walks Python values directly, with no strategem
traversal machinery.  The walkers that must work at the interpreter's
default recursion limit (node counting, `App` chains) use explicit
stacks.
"""

from __future__ import annotations

import dataclasses

from strategem.minilang import App, Focus, FunBind, Lam, Let, LitInt, Module, PVar, Var


def pattern_vars(p) -> set:
    if isinstance(p, PVar):
        return {p.name}
    out = set()
    for arg in p.args:
        out |= pattern_vars(arg)
    return out


def free_vars_expr(e) -> set:
    """Free variables of an expression; `let` is recursive, as in the library."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, App):
        return free_vars_expr(e.fn) | free_vars_expr(e.arg)
    if isinstance(e, Lam):
        return free_vars_expr(e.body) - pattern_vars(e.param)
    if isinstance(e, Let):
        return (free_vars_expr(e.bound) | free_vars_expr(e.body)) - {e.name}
    if isinstance(e, Focus):
        return free_vars_expr(e.inner)
    return set()  # Con, LitInt, LitStr


def free_vars_module(m: Module) -> set:
    """Module-level bindings are mutually recursive and scope over every body."""
    out = set()
    bound = set()
    for d in m.decls:
        if isinstance(d, FunBind):
            bound.add(d.name)
            params = set()
            for p in d.params:
                params |= pattern_vars(p)
            out |= free_vars_expr(d.body) - params
    return out - bound


def count_nodes(value) -> int:
    """Nodes of the term view of a value: every node, atom, cons cell and nil.

    Works on syntax values and on descriptor-registered trees.  Tuple
    fields are lists, except `DataDecl` alternatives, which are (name,
    fields) pairs.  Container terms built by `list_of`/`pair_of` are
    counted by their own formulas in the workloads.
    """
    count = 0
    stack = [value]
    while stack:
        v = stack.pop()
        count += 1
        if isinstance(v, (bool, int, str)) or v is None:
            continue
        if isinstance(v, _Alt):
            count += 1  # the name atom
            stack.append(v.fields)
        elif isinstance(v, (tuple, list)):
            count += len(v)  # cons cells; this node was the nil
            stack.extend(v)
        elif dataclasses.is_dataclass(v):
            for f in dataclasses.fields(v):
                child = getattr(v, f.name)
                if f.name == "constructors":
                    child = tuple(_Alt(fields) for _, fields in child)
                stack.append(child)
        else:
            raise TypeError(f"cannot count nodes of {v!r}")
    return count


class _Alt:
    """A `DataDecl` alternative: a pair of a name and a list of field types."""

    __slots__ = ("fields",)

    def __init__(self, fields):
        self.fields = fields


def chain_matches(e, depth: int, delta: int) -> bool:
    """Whether `e` is `workloads.app_chain(depth)` with `delta` added to each int."""
    for i in range(depth):
        if not (isinstance(e, App) and isinstance(e.fn, App)):
            return False
        head, lit = e.fn.fn, e.fn.arg
        if not (isinstance(head, Var) and head.name == "f"):
            return False
        if not (isinstance(lit, LitInt) and lit.value == i + delta):
            return False
        e = e.arg
    return isinstance(e, LitInt) and e.value == delta


def chain_text(depth: int, delta: int = 0) -> str:
    """`pretty_expr` of `workloads.app_chain(depth)` with `delta` added, built without recursion."""
    if depth == 0:
        return str(delta)
    inner = "".join(f"(f {i + delta} " for i in range(1, depth))
    return f"f {delta} " + inner + str(delta) + ")" * (depth - 1)
