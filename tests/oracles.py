"""Hand-written reference implementations.

Everything here recurses over the syntax tree constructor by constructor,
with no generic machinery, so the generic traversals have something
independent to be measured against.  `preorder` alone walks the term view,
on a stack of its own.
"""

from __future__ import annotations

from strategem.minilang import (
    App,
    Con,
    DataDecl,
    Focus,
    FunBind,
    Lam,
    Let,
    LitInt,
    LitStr,
    Module,
    PCon,
    PVar,
    TyApp,
    TyCon,
    TyFocus,
    TyFun,
    TypeSyn,
    TyVar,
    Var,
)
from strategem.terms import children


def collect_ints(x) -> list:
    """Every integer in field order, which is preorder document order."""
    if isinstance(x, bool):
        return []
    if isinstance(x, int):
        return [x]
    if isinstance(x, str):
        return []
    if isinstance(x, (list, tuple)):
        out = []
        for item in x:
            out.extend(collect_ints(item))
        return out
    if isinstance(x, Module):
        return collect_ints(x.decls)
    if isinstance(x, DataDecl):
        return collect_ints(x.constructors)
    if isinstance(x, TypeSyn):
        return collect_ints(x.rhs)
    if isinstance(x, FunBind):
        return collect_ints(x.params) + collect_ints(x.body)
    if isinstance(x, (TyCon, TyVar, Var, Con, LitStr, PVar)):
        return []
    if isinstance(x, LitInt):
        return [x.value]
    if isinstance(x, TyApp):
        return collect_ints(x.fn) + collect_ints(x.arg)
    if isinstance(x, TyFun):
        return collect_ints(x.arg) + collect_ints(x.result)
    if isinstance(x, TyFocus):
        return collect_ints(x.inner)
    if isinstance(x, App):
        return collect_ints(x.fn) + collect_ints(x.arg)
    if isinstance(x, Lam):
        return collect_ints(x.param) + collect_ints(x.body)
    if isinstance(x, Let):
        return collect_ints(x.bound) + collect_ints(x.body)
    if isinstance(x, Focus):
        return collect_ints(x.inner)
    if isinstance(x, PCon):
        return collect_ints(x.args)
    raise TypeError(f"unknown node {x!r}")


def collect_strings(x) -> list:
    """Every string in field order: names, literals, pattern variables."""
    if isinstance(x, str):
        return [x]
    if isinstance(x, (bool, int)):
        return []
    if isinstance(x, (list, tuple)):
        out = []
        for item in x:
            out.extend(collect_strings(item))
        return out
    if isinstance(x, Module):
        return [x.name] + collect_strings(x.decls)
    if isinstance(x, DataDecl):
        return [x.name] + collect_strings(x.constructors)
    if isinstance(x, TypeSyn):
        return [x.name] + collect_strings(x.rhs)
    if isinstance(x, FunBind):
        return [x.name] + collect_strings(x.params) + collect_strings(x.body)
    if isinstance(x, (TyCon, TyVar, Var, Con, PVar)):
        return [x.name]
    if isinstance(x, LitInt):
        return []
    if isinstance(x, LitStr):
        return [x.value]
    if isinstance(x, TyApp):
        return collect_strings(x.fn) + collect_strings(x.arg)
    if isinstance(x, TyFun):
        return collect_strings(x.arg) + collect_strings(x.result)
    if isinstance(x, TyFocus):
        return collect_strings(x.inner)
    if isinstance(x, App):
        return collect_strings(x.fn) + collect_strings(x.arg)
    if isinstance(x, Lam):
        return collect_strings(x.param) + collect_strings(x.body)
    if isinstance(x, Let):
        return [x.name] + collect_strings(x.bound) + collect_strings(x.body)
    if isinstance(x, Focus):
        return collect_strings(x.inner)
    if isinstance(x, PCon):
        return [x.name] + collect_strings(x.args)
    raise TypeError(f"unknown node {x!r}")


def count_decls(m: Module) -> int:
    return len(m.decls)


def count_type_nodes(x) -> int:
    """Type nodes reachable from a syntax fragment."""
    if isinstance(x, (bool, int, str)):
        return 0
    if isinstance(x, (list, tuple)):
        return sum(count_type_nodes(item) for item in x)
    if isinstance(x, Module):
        return count_type_nodes(x.decls)
    if isinstance(x, DataDecl):
        return count_type_nodes(x.constructors)
    if isinstance(x, TypeSyn):
        return count_type_nodes(x.rhs)
    if isinstance(x, FunBind):
        return count_type_nodes(x.body)
    if isinstance(x, (TyCon, TyVar)):
        return 1
    if isinstance(x, (TyApp, TyFun)):
        parts = (x.fn, x.arg) if isinstance(x, TyApp) else (x.arg, x.result)
        return 1 + sum(count_type_nodes(p) for p in parts)
    if isinstance(x, TyFocus):
        return 1 + count_type_nodes(x.inner)
    if isinstance(x, App):
        return count_type_nodes(x.fn) + count_type_nodes(x.arg)
    if isinstance(x, Lam):
        return count_type_nodes(x.body)
    if isinstance(x, Let):
        return count_type_nodes(x.bound) + count_type_nodes(x.body)
    if isinstance(x, Focus):
        return count_type_nodes(x.inner)
    if isinstance(x, (Var, Con, LitInt, LitStr, PVar, PCon)):
        return 0
    raise TypeError(f"unknown node {x!r}")


def _type_names(ty) -> set:
    if isinstance(ty, TyCon):
        return {ty.name}
    if isinstance(ty, TyVar):
        return set()
    if isinstance(ty, TyApp):
        return _type_names(ty.fn) | _type_names(ty.arg)
    if isinstance(ty, TyFun):
        return _type_names(ty.arg) | _type_names(ty.result)
    if isinstance(ty, TyFocus):
        return _type_names(ty.inner)
    raise TypeError(f"unknown type {ty!r}")


def all_types(m: Module) -> set:
    """Declared heads plus type constructor use sites, by explicit walk."""
    out = set()
    for d in m.decls:
        if isinstance(d, DataDecl):
            out.add(d.name)
            for _, fields in d.constructors:
                for ty in fields:
                    out |= _type_names(ty)
        elif isinstance(d, TypeSyn):
            out.add(d.name)
            out |= _type_names(d.rhs)
    return out


def preorder(t):
    """Every subterm of a term, root first, children left to right.

    Walks an explicit stack, so it reaches any depth at the default
    recursion limit.
    """
    pending = [t]
    while pending:
        t = pending.pop()
        yield t
        pending.extend(reversed(children(t)))


def first_success(step, t):
    """The first subterm, in preorder, on which a one-node check succeeds.

    `step` maps a term to a result or None; returns (term, result) or None.
    """
    for sub in preorder(t):
        got = step(sub)
        if got is not None:
            return sub, got
    return None
