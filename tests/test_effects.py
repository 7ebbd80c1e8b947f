"""Laws of the effect contexts, on randomly generated computations."""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError

import hypothesis.strategies as st
import pytest
from hypothesis import given

from strategem.effects import (
    IDENTITY,
    INT_SUM,
    LIST_CONCAT,
    NOTHING,
    PARTIAL,
    PARTIAL_STATE,
    SET_UNION,
    STATE,
    Identity,
    Just,
    Partial,
    StateOver,
    identity_morphism,
    is_just,
    partial_to_identity,
    run_state,
    supports_failure,
    supports_state,
    unlift_state,
)
from strategem.strategies import TU, apply
from strategem.terms import term

# Partial computations and a pool of functions into them.

partial_comps = st.one_of(st.integers(-50, 50).map(PARTIAL.pure), st.just(NOTHING))

_PARTIAL_FNS = (
    lambda x: PARTIAL.pure(x + 1),
    lambda x: PARTIAL.pure(x * 2),
    lambda x: NOTHING,
    lambda x: PARTIAL.pure(0) if x % 2 else NOTHING,
)
partial_fns = st.sampled_from(_PARTIAL_FNS)


@given(st.integers(), partial_fns)
def test_partial_left_identity(v, f):
    assert PARTIAL.bind(PARTIAL.pure(v), f) == f(v)


@given(partial_comps)
def test_partial_right_identity(c):
    assert PARTIAL.bind(c, PARTIAL.pure) == c


@given(partial_comps, partial_fns, partial_fns)
def test_partial_associativity(c, f, g):
    left = PARTIAL.bind(PARTIAL.bind(c, f), g)
    right = PARTIAL.bind(c, lambda x: PARTIAL.bind(f(x), g))
    assert left == right


@given(partial_comps)
def test_partial_zero_laws(c):
    assert PARTIAL.plus(PARTIAL.zero(), c) == c
    assert PARTIAL.plus(c, PARTIAL.zero()) == c
    assert PARTIAL.bind(PARTIAL.zero(), lambda x: PARTIAL.pure(x)) == NOTHING


@given(st.integers(), partial_comps)
def test_partial_plus_commits_to_first_success(v, c):
    assert PARTIAL.plus(PARTIAL.pure(v), c) == Just(v)


def test_partial_plus_lazy_skips_second_branch():
    forced = []

    def second():
        forced.append(True)
        return PARTIAL.pure(2)

    assert PARTIAL.plus_lazy(lambda: PARTIAL.pure(1), second) == Just(1)
    assert not forced
    assert PARTIAL.plus_lazy(lambda: NOTHING, second) == Just(2)
    assert forced


def test_example_partial_plus():
    assert PARTIAL.plus(PARTIAL.pure(1), PARTIAL.pure(2)) == Just(1)


# State computations, compared by running from generated initial states.

_STATE_TREES = st.recursive(
    st.one_of(
        st.integers(-20, 20).map(lambda v: ("pure", v)),
        st.just(("get",)),
        st.integers(-20, 20).map(lambda s: ("put", s)),
    ),
    lambda inner: st.tuples(st.just("bind"), inner, st.integers(0, 2)),
    max_leaves=6,
)

_STATE_FNS = (
    lambda x: STATE.pure(x if isinstance(x, int) else 0),
    lambda x: STATE.get(),
    lambda x: STATE.bind(STATE.put(x if isinstance(x, int) else 0), lambda _: STATE.pure(x)),
)


def _eval_state(tree):
    if tree[0] == "pure":
        return STATE.pure(tree[1])
    if tree[0] == "get":
        return STATE.get()
    if tree[0] == "put":
        return STATE.put(tree[1])
    _, sub, idx = tree
    return STATE.bind(_eval_state(sub), _STATE_FNS[idx])


@given(_STATE_TREES, st.integers(-5, 5))
def test_state_right_identity(tree, s0):
    c = _eval_state(tree)
    assert run_state(STATE.bind(c, STATE.pure), s0) == run_state(c, s0)


@given(st.integers(), st.integers(0, 2), st.integers(-5, 5))
def test_state_left_identity(v, idx, s0):
    f = _STATE_FNS[idx]
    assert run_state(STATE.bind(STATE.pure(v), f), s0) == run_state(f(v), s0)


@given(_STATE_TREES, st.integers(0, 2), st.integers(0, 2), st.integers(-5, 5))
def test_state_associativity(tree, i, j, s0):
    c, f, g = _eval_state(tree), _STATE_FNS[i], _STATE_FNS[j]
    left = STATE.bind(STATE.bind(c, f), g)
    right = STATE.bind(c, lambda x: STATE.bind(f(x), g))
    assert run_state(left, s0) == run_state(right, s0)


@given(st.integers(), st.integers())
def test_state_get_put(s0, s1):
    assert run_state(STATE.get(), s0) == (s0, s0)
    assert run_state(STATE.put(s1), s0) == (None, s1)
    roundabout = STATE.bind(STATE.put(s1), lambda _: STATE.get())
    assert run_state(roundabout, s0) == (s1, s1)


def test_partial_state_failure_discards_state():
    lose = PARTIAL_STATE.bind(PARTIAL_STATE.put(5), lambda _: PARTIAL_STATE.zero())
    comp = PARTIAL_STATE.plus(lose, PARTIAL_STATE.get())
    # The failed branch's put must not leak into the winning branch.
    assert run_state(comp, 0) == Just((0, 0))


def test_partial_state_plus_commits():
    win = PARTIAL_STATE.pure(1)
    comp = PARTIAL_STATE.plus(win, PARTIAL_STATE.pure(2))
    assert run_state(comp, 9) == Just((1, 9))


def test_nested_state_plus_commits_through_both_layers():
    ctx = StateOver(PARTIAL_STATE)
    lose = ctx.bind(ctx.put(5), lambda _: ctx.zero())
    assert _run_from(ctx.plus(lose, ctx.get()), (1, 2)) == Just(((1, 1), 2))
    assert _run_from(ctx.plus(ctx.pure(3), ctx.pure(4)), (1, 2)) == Just(((3, 1), 2))
    assert _run_from(ctx.plus(ctx.zero(), ctx.zero()), (1, 2)) is NOTHING


def test_capabilities():
    assert supports_failure(PARTIAL) and supports_failure(PARTIAL_STATE)
    assert not supports_failure(IDENTITY) and not supports_failure(STATE)
    assert supports_state(STATE) and supports_state(PARTIAL_STATE)
    assert not supports_state(IDENTITY) and not supports_state(PARTIAL)
    assert not hasattr(IDENTITY, "get") and not hasattr(PARTIAL, "put")


_REPRS = {
    IDENTITY: "<context identity>",
    PARTIAL: "<context partial>",
    STATE: "<context state over identity>",
    PARTIAL_STATE: "<context state over partial>",
    StateOver(STATE): "<context state over state>",
}


def test_context_equality():
    assert StateOver(IDENTITY) == STATE and StateOver(PARTIAL) == PARTIAL_STATE
    assert STATE != PARTIAL_STATE and IDENTITY != PARTIAL
    # Contexts are values: equal ones hash alike, so they are one dict key.
    fresh = (Identity(), Partial(), StateOver(Identity()), StateOver(Partial()), StateOver(STATE))
    for ctx, twin in zip(_REPRS, fresh):
        assert twin == ctx and hash(twin) == hash(ctx) and {ctx: 1, twin: 2} == {ctx: 2}
    for ctx, text in _REPRS.items():
        assert repr(ctx) == text
        for twin in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
            assert twin == ctx and hash(twin) == hash(ctx) and repr(twin) == text
    with pytest.raises(FrozenInstanceError):
        STATE.inner = PARTIAL


# The strategy loop reads a step's computation back out of its context:
# packing the value it reads gives the computation back.


def _comps(ctx):
    # Computations built with the context's own operations.
    leaves = [st.integers(-5, 5).map(ctx.pure)]
    if supports_failure(ctx):
        leaves.append(st.just(ctx.zero()))
    if supports_state(ctx):
        leaves += [st.just(ctx.get()), st.integers(-5, 5).map(ctx.put)]

    def pair(first, second):
        return ctx.bind(first, lambda v: ctx.bind(second, lambda w: ctx.pure((v, w))))

    return st.recursive(st.one_of(leaves), lambda inner: st.builds(pair, inner, inner), max_leaves=6)


@st.composite
def _cases(draw):
    # A context, a computation of it, and a state for each StateOver layer.
    ctx = draw(st.sampled_from(list(_REPRS)))
    layers, inner = 0, ctx
    while isinstance(inner, StateOver):
        layers, inner = layers + 1, inner.inner
    return ctx, draw(_comps(ctx)), draw(st.lists(st.integers(-5, 5), min_size=layers, max_size=layers))


def _run_from(comp, states):
    for s in states:  # outermost layer first
        comp = comp(s)
    return comp


@given(_cases())
def test_reading_a_packed_computation_gives_it_back(case):
    ctx, comp, states = case
    read = apply(TU(ctx, lambda _t: comp), term(1))
    assert _run_from(read, states) == _run_from(comp, states)


# Monoid instances.


@given(st.lists(st.integers()), st.lists(st.integers()), st.lists(st.integers()))
def test_list_monoid(a, b, c):
    m = LIST_CONCAT
    assert m.append(m.neutral, a) == a == m.append(a, m.neutral)
    assert m.append(m.append(a, b), c) == m.append(a, m.append(b, c))


@given(
    st.frozensets(st.integers(0, 9)),
    st.frozensets(st.integers(0, 9)),
    st.frozensets(st.integers(0, 9)),
)
def test_set_monoid(a, b, c):
    m = SET_UNION
    assert m.append(m.neutral, a) == a == m.append(a, m.neutral)
    assert m.append(m.append(a, b), c) == m.append(a, m.append(b, c))


@given(st.integers(), st.integers(), st.integers())
def test_sum_monoid(a, b, c):
    m = INT_SUM
    assert m.append(m.neutral, a) == a == m.append(a, m.neutral)
    assert m.append(m.append(a, b), c) == m.append(a, m.append(b, c))


# Morphisms.


@given(partial_comps)
def test_identity_morphism(c):
    assert identity_morphism(PARTIAL).run(c) == c


@given(st.integers(), st.integers())
def test_partial_to_identity(v, default):
    recover = partial_to_identity(default)
    assert recover.run(PARTIAL.pure(v)) == v
    assert recover.run(NOTHING) == default
    assert recover.run(PARTIAL.pure(v)) == v


@given(st.integers(), st.integers(-5, 5))
def test_unlift_state_preserves_pure(v, s0):
    m = unlift_state(STATE, s0)
    assert m.run(STATE.pure(v)) == IDENTITY.pure(v)


@given(st.integers(), st.integers())
def test_unlift_state_discards_final_state(s0, s1):
    m = unlift_state(STATE, s0)
    comp = STATE.bind(STATE.put(s1), lambda _: STATE.pure(7))
    assert m.run(comp) == 7
    # ... and reads see the local initial state.
    assert m.run(STATE.get()) == s0


def test_unlift_state_needs_state_context():
    with pytest.raises(TypeError):
        unlift_state(PARTIAL, 0)
