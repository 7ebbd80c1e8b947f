"""Worked analyses and transformations over the mini-language.

Each operation hides its strategy plumbing behind a plain signature, so
callers see ordinary functions on terms and modules:

  inc_ints           add one to every integer atom of any term
  any_types          one-node step collecting declared or used type names
  all_types          every type name declared or used in a module
  is_fresh_type      whether a name is unused as a type name
  free_vars          free variables of any syntax fragment
  to_alias           replace the focused type with a declared synonym
  de_bruijn          replace every string atom with a fresh name
  Coder              assign stable integer codes to terms
  count_of_type      count subterms of one datatype
  select_focus       contents of the expression focus
  select_type_focus  contents of the type focus

`to_alias` and the focus selectors raise NoFocus, NoSuchAlias or
GuardFailed; everything else is total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .effects import (
    IDENTITY,
    INT_SUM,
    NOTHING,
    PARTIAL,
    SET_UNION,
    STATE,
    Just,
    is_just,
)
from .minilang import (
    DECL,
    EXPR,
    MODULE,
    TYPE,
    DataDecl,
    Focus,
    FunBind,
    Lam,
    Let,
    Module,
    PVar,
    TyCon,
    TyFocus,
    TypeSyn,
    Var,
    to_term,
)
from .strategies import (
    TP,
    TU,
    adhoc_tp,
    adhoc_tu,
    apply,
    build_tu,
    fail_tp,
    fail_tu,
    identity_tp,
)
from .terms import INT, STR, Term, TypeTag, cast
from .themes import crush, free_names, local_state, once_td, select, topdown

__all__ = [
    "NameSet",
    "NoFocus",
    "NoSuchAlias",
    "GuardFailed",
    "inc_ints",
    "any_types",
    "all_types",
    "is_fresh_type",
    "free_vars",
    "to_alias",
    "de_bruijn",
    "de_bruijn_strategy",
    "Coder",
    "no_codes",
    "get_code",
    "set_code",
    "next_code",
    "encode",
    "TypeToken",
    "type_token",
    "count_of_type",
    "select_focus",
    "select_type_focus",
]

NameSet = frozenset


class NoFocus(Exception):
    """The module has no focus of the required kind."""


class NoSuchAlias(Exception):
    """No type synonym of the requested name is declared."""


class GuardFailed(Exception):
    """The focused type does not match the synonym's right-hand side."""


def inc_ints(t: Term) -> Term:
    """Add one to every integer atom, leaving everything else alone."""
    step = adhoc_tp(identity_tp(IDENTITY), INT, lambda n: IDENTITY.pure(n + 1))
    return apply(topdown(step), t)


def _name_of(*classes):
    # A node's own name if it is one of `classes`, else no names.
    return lambda v: IDENTITY.pure(frozenset({v.name} if isinstance(v, classes) else ()))


# One-node step: type names declared here (data and synonym heads) or used
# here (type constructor occurrences); empty anywhere else.
any_types: TU = adhoc_tu(
    adhoc_tu(build_tu(IDENTITY, frozenset()), DECL, _name_of(DataDecl, TypeSyn)),
    TYPE,
    _name_of(TyCon),
)


def all_types(module: Module) -> NameSet:
    """Every type name declared or used anywhere in the module."""
    return apply(crush(any_types, SET_UNION), to_term(module))


def is_fresh_type(name: str, module: Module) -> bool:
    """True when the name is unused as a type name in the module."""
    return name not in all_types(module)


def _pattern_vars(p) -> frozenset:
    names, pending = set(), [p]
    while pending:
        p = pending.pop()
        if isinstance(p, PVar):
            names.add(p.name)
        else:
            pending.extend(p.args)
    return frozenset(names)


def _expr_decs(e):
    if isinstance(e, Lam):
        return IDENTITY.pure(_pattern_vars(e.param))
    if isinstance(e, Let):
        # Recursive let: the binder scopes over its own right-hand side.
        return IDENTITY.pure(frozenset({e.name}))
    return IDENTITY.pure(frozenset())


def _decl_decs(d):
    if isinstance(d, FunBind):
        out = frozenset()
        for p in d.params:
            out |= _pattern_vars(p)
        return IDENTITY.pure(out)
    return IDENTITY.pure(frozenset())


def _module_decs(m):
    # Bindings are mutually recursive at module level, so every bound
    # function name scopes over every body.
    names = frozenset(d.name for d in m.decls if isinstance(d, FunBind))
    return IDENTITY.pure(names)


def free_vars(t: Term) -> NameSet:
    """Free variables of any syntax fragment, respecting all binders."""
    empty = build_tu(IDENTITY, frozenset())
    refs = adhoc_tu(empty, EXPR, _name_of(Var))
    decs = adhoc_tu(
        adhoc_tu(adhoc_tu(empty, EXPR, _expr_decs), DECL, _decl_decs),
        MODULE,
        _module_decs,
    )
    return apply(free_names(refs, decs), t)


def _select(module: Module, tag: TypeTag, step, missing: Exception):
    # What the PARTIAL `step` gives on the first node of datatype `tag` it
    # succeeds on, in preorder; `missing` is raised if there is none.
    got = apply(select(adhoc_tu(fail_tu(PARTIAL), tag, step)), to_term(module))
    if not is_just(got):
        raise missing
    return got.value


def _inner_of(marker: type):
    return lambda node: PARTIAL.pure(node.inner) if isinstance(node, marker) else PARTIAL.zero()


def select_type_focus(module: Module):
    """The type inside the module's type focus."""
    return _select(module, TYPE, _inner_of(TyFocus), NoFocus("module has no type focus"))


def select_focus(module: Module):
    """The expression inside the module's expression focus."""
    return _select(module, EXPR, _inner_of(Focus), NoFocus("module has no expression focus"))


def to_alias(name: str, module: Module) -> Module:
    """Fold the focused type expression into a declared synonym.

    The focused type must be exactly the synonym's right-hand side; the
    focus marker is then replaced by the synonym's name.
    """
    focused = select_type_focus(module)

    def alias_rhs(d):
        if isinstance(d, TypeSyn) and d.name == name:
            return PARTIAL.pure(d.rhs)
        return PARTIAL.zero()

    rhs = _select(module, DECL, alias_rhs, NoSuchAlias(f"no type synonym named {name}"))
    if to_term(focused) != to_term(rhs):
        raise GuardFailed(f"focused type is not the right-hand side of {name}")

    def fold(ty):
        if isinstance(ty, TyFocus):
            return PARTIAL.pure(TyCon(name))
        return PARTIAL.zero()

    replace = once_td(adhoc_tp(fail_tp(PARTIAL), TYPE, fold))
    rewritten = apply(replace, to_term(module))
    return cast(rewritten.value, MODULE).value


def _fresh_name(_old):
    # Issue the current name, leave a primed copy for the next string.
    return STATE.bind(
        STATE.get(),
        lambda n: STATE.bind(STATE.put(n + "'"), lambda _: STATE.pure(n)),
    )


def de_bruijn_strategy() -> TP:
    """The renaming transformation with its name state sealed inside.

    The returned strategy lives in the plain identity context; each
    application starts a fresh supply at "1".
    """
    step = adhoc_tp(identity_tp(STATE), STR, _fresh_name)
    return local_state("1", topdown(step))


def de_bruijn(t: Term) -> Term:
    """Replace every string atom, in preorder, with "1", "1'", "1''", ..."""
    return apply(de_bruijn_strategy(), t)


@dataclass(frozen=True)
class Coder:
    """Issues stable integer codes for terms.

    `counter` is the highest code handed out; `codes` maps terms, keyed
    by structure, to their codes; `lookup` reads that map as a unifying
    strategy over the partial context.  Updating is pure: operations
    return a new Coder.
    """

    counter: int
    codes: Mapping[Term, int]

    @property
    def lookup(self) -> TU:
        def run(t):
            code = self.codes.get(t)
            return NOTHING if code is None else Just(code)

        return TU(PARTIAL, run)


def no_codes() -> Coder:
    """A coder with no codes assigned."""
    return Coder(0, {})


def get_code(coder: Coder, t: Term):
    """Just the code of a term, or NOTHING if none was assigned."""
    return apply(coder.lookup, t)


def next_code(coder: Coder):
    """Reserve the next code; returns it and the advanced coder."""
    code = coder.counter + 1
    return code, Coder(code, coder.codes)


def set_code(coder: Coder, t: Term) -> Coder:
    """Assign the coder's current counter value as the code of a term.

    The lookup is updated pointwise: terms equal to this one now answer
    with the code, every other term as before.  The map is copied, so the
    given coder does not see the new code.
    """
    return Coder(coder.counter, {**coder.codes, t: coder.counter})


def encode(coder: Coder, t: Term):
    """The term's code, assigning the next free one on first sight.

    Encoding a term twice returns the same code and leaves the coder
    unchanged the second time.
    """
    known = get_code(coder, t)
    if is_just(known):
        return known.value, coder
    code, advanced = next_code(coder)
    return code, set_code(advanced, t)


@dataclass(frozen=True)
class TypeToken:
    """A value standing for a registered datatype, carrying nothing else."""

    tag: TypeTag


def type_token(tag: TypeTag) -> TypeToken:
    return TypeToken(tag)


def count_of_type(token: TypeToken, t: Term) -> int:
    """How many subterms of t, including t, have the token's datatype."""
    tick = adhoc_tu(build_tu(IDENTITY, 0), token.tag, lambda _v: IDENTITY.pure(1))
    return apply(crush(tick, INT_SUM), t)
