"""Effect contexts that strategies run in.

A strategy does not commit to one notion of computation.  Plain rewriting
needs nothing, rule application needs failure, name generation needs state.
Each notion is packaged as an effect context with `pure` and `bind`, plus
optional capabilities:

  * failure: `zero` and `plus` (committed first-success choice),
  * state: `get` and `put`.

Four contexts cover the library: IDENTITY, PARTIAL, STATE (state threaded
over identity) and PARTIAL_STATE (state threaded over partial).  The last
two are instances of one StateOver construction, so a state context can sit
on top of any inner context.

Computations are ordinary values: the value itself for IDENTITY, a Just or
NOTHING for PARTIAL, and a function from state to an inner computation of a
(value, state) pair for StateOver.  An IDENTITY or PARTIAL computation is
its own result; `run_state` runs a StateOver computation from an initial
state.  Each context class also reads its computations for the strategy
loop.  Strategies run in Identity, Partial and StateOver over those,
nested too; applying a strategy in any other context is a TypeError.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

__all__ = [
    "Just",
    "NOTHING",
    "is_just",
    "EffectContext",
    "Identity",
    "Partial",
    "StateOver",
    "IDENTITY",
    "PARTIAL",
    "STATE",
    "PARTIAL_STATE",
    "supports_failure",
    "supports_state",
    "run_state",
    "Monoid",
    "LIST_CONCAT",
    "SET_UNION",
    "INT_SUM",
    "EffectMorphism",
    "identity_morphism",
    "partial_to_identity",
    "unlift_state",
]


@dataclass(frozen=True)
class Just:
    """A present result of a partial computation."""

    value: Any


class _Nothing:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NOTHING"


NOTHING = _Nothing()


def is_just(m) -> bool:
    return isinstance(m, Just)


_FAIL = object()  # a failed computation, as the strategy loop reads it


class EffectContext:
    """Interface every effect context implements.

    `pure` injects a value, `bind` sequences a computation into a function
    producing the next one.  Both obey the usual identity and associativity
    laws.  Subclasses add capabilities by defining capability methods
    (`zero`/`plus`, `get`/`put`); `supports_failure` and `supports_state`
    test the class of a context, not which methods it defines.

    `_read(comp, regs)` is how the strategy loop reads a computation: the
    value, or _FAIL where it fails, and the state register after it.
    """

    kind = "abstract"

    def pure(self, value):
        raise NotImplementedError

    def bind(self, comp, fn):
        raise NotImplementedError

    def _read(self, comp, regs):
        return comp, regs

    def __repr__(self):
        return f"<context {self.kind}>"


@dataclass(frozen=True, repr=False)
class Identity(EffectContext):
    """Effect-free context.  A computation is the value itself."""

    kind = "identity"

    def pure(self, value):
        return value

    def bind(self, comp, fn):
        return fn(comp)


@dataclass(frozen=True, repr=False)
class Partial(EffectContext):
    """Context with failure.  A computation is Just(v) or NOTHING."""

    kind = "partial"

    def pure(self, value):
        return Just(value)

    def bind(self, comp, fn):
        if isinstance(comp, Just):
            return fn(comp.value)
        return NOTHING

    def zero(self):
        return NOTHING

    def plus(self, left, right):
        # Committed choice: the first success wins, the loser is dropped.
        return left if isinstance(left, Just) else right

    def plus_lazy(self, first, second):
        left = first()
        return left if isinstance(left, Just) else second()

    def _read(self, comp, regs):
        return (comp.value if isinstance(comp, Just) else _FAIL), regs


@dataclass(frozen=True, repr=False)
class StateOver(EffectContext):
    """State threaded over an inner context.

    A computation is a function from the current state to an inner
    computation of a (value, new state) pair.  Failure capability is
    inherited from the inner context; on a failed branch of `plus` the
    state of the losing branch is discarded along with its result.
    """

    kind = "state"
    inner: EffectContext

    def pure(self, value):
        return lambda s: self.inner.pure((value, s))

    def bind(self, comp, fn):
        def run(s):
            return self.inner.bind(comp(s), lambda pair: fn(pair[0])(pair[1]))

        return run

    def zero(self):
        return lambda s: self.inner.zero()

    def plus(self, left, right):
        return lambda s: self.inner.plus_lazy(lambda: left(s), lambda: right(s))

    def plus_lazy(self, first, second):
        return lambda s: self.inner.plus_lazy(lambda: first()(s), lambda: second()(s))

    def get(self):
        return lambda s: self.inner.pure((s, s))

    def put(self, new_state):
        return lambda s: self.inner.pure((None, new_state))

    def _read(self, comp, regs):
        # Run on the first state, and read the inner computation against the rest.
        pair, rest = self.inner._read(comp(regs[0]), regs[1:])
        if pair is _FAIL:
            return _FAIL, regs
        return pair[0], (pair[1], *rest)

    def __repr__(self):
        return f"<context state over {self.inner.kind}>"


IDENTITY = Identity()
PARTIAL = Partial()
STATE = StateOver(IDENTITY)
PARTIAL_STATE = StateOver(PARTIAL)


def supports_failure(ctx: EffectContext) -> bool:
    if isinstance(ctx, Partial):
        return True
    if isinstance(ctx, StateOver):
        return supports_failure(ctx.inner)
    return False


def supports_state(ctx: EffectContext) -> bool:
    return isinstance(ctx, StateOver)


def run_state(comp, initial):
    """Run a StateOver computation from an initial state.

    Over IDENTITY the result is a (value, final state) pair; over PARTIAL
    it is Just of such a pair or NOTHING.
    """
    return comp(initial)


@dataclass(frozen=True)
class Monoid:
    """Neutral element plus an associative append, passed to unifying folds.

    `neutral` must be a unit of `append`: `all_tu` relies on this when it
    skips a subterm whose analysis is known to give `neutral`, appending
    nothing for it.  A result may be the `neutral` object itself, which
    `all_tu` gives on a term without children; it is shared by every fold
    over the monoid, so it must not be mutated.
    """

    neutral: Any
    append: Callable[[Any, Any], Any]


LIST_CONCAT = Monoid([], operator.add)
SET_UNION = Monoid(frozenset(), operator.or_)
INT_SUM = Monoid(0, operator.add)


@dataclass(frozen=True)
class EffectMorphism:
    """A mapping between effect contexts that preserves pure values.

    `msubst` runs a strategy moved along one of the three below in the
    loop around it, knowing it by its `run`; along any other it nests a loop.
    """

    source: EffectContext
    target: EffectContext
    run: Callable[[Any], Any]


def _unchanged(comp):
    return comp


def _recover(default, comp):
    return comp.value if isinstance(comp, Just) else default


def _unlift(inner, initial, comp):
    return inner.bind(comp(initial), lambda pair: inner.pure(pair[0]))


def identity_morphism(ctx: EffectContext) -> EffectMorphism:
    return EffectMorphism(ctx, ctx, _unchanged)


def partial_to_identity(default) -> EffectMorphism:
    """Forget failure, recovering with a default.

    Meant for strategies that cannot actually fail any more, for example
    after wrapping in a recovery combinator; the default then never shows.
    """
    return EffectMorphism(PARTIAL, IDENTITY, partial(_recover, default))


def unlift_state(ctx: StateOver, initial) -> EffectMorphism:
    """Run state locally: start from `initial`, discard the final state.

    Maps computations in a StateOver context to its inner context, so the
    state becomes invisible from outside.
    """
    if not isinstance(ctx, StateOver):
        raise TypeError(f"unlift_state needs a state context, got {ctx!r}")
    return EffectMorphism(ctx, ctx.inner, partial(_unlift, ctx.inner, initial))
