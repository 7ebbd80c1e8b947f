"""Every scheme at the default recursion limit, on a long list and a deep chain.

Strategies are data run by one loop over an explicit stack, so neither the
length of a list nor the depth of a term is bounded by the Python stack.
Each case runs in the main thread at the interpreter's default limit and
is checked against the reference walkers of `oracles.py`.  `collect_ints`
recurses, so it runs on a thread with a large stack.
"""

from __future__ import annotations

import sys
import threading
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import collect_ints, first_success, preorder
from strategem.effects import (
    IDENTITY,
    INT_SUM,
    NOTHING,
    PARTIAL,
    PARTIAL_STATE,
    STATE,
    identity_morphism,
    partial_to_identity,
    run_state,
    supports_failure,
    supports_state,
)
from strategem.minilang import App, FunBind, LitInt, Var, to_term
from strategem.strategies import (
    _recursive,
    adhoc_tp,
    adhoc_tu,
    all_tp,
    apply,
    build_tu,
    choice_tp,
    fail_tp,
    fail_tu,
    identity_tp,
    msubst_tp,
    seq_tp,
)
from strategem.terms import INT, Term, children, list_of, term
from strategem.themes import (
    bottomup,
    crush,
    free_names,
    innermost,
    local_state,
    once_td,
    select,
    selectenv,
    stop_td,
    stop_td_tu,
    topdown,
)
from test_themes import function_of, opaque_module

LENGTH = 100_000
DEPTH = 10_000
CONTEXTS = {"identity": IDENTITY, "partial": PARTIAL, "state": STATE, "partial_state": PARTIAL_STATE}
ALL = tuple(CONTEXTS)
PARTIAL_ONLY = ("partial", "partial_state")
STATEFUL = ("state", "partial_state")


def app_chain(depth):
    """`f 0 (f 1 (... (f (depth-1) 0)))`: `depth` nested applications."""
    e = LitInt(0)
    for i in reversed(range(depth)):
        e = App(App(Var("f"), LitInt(i)), e)
    return e


def on_big_stack(fn, *args):
    """Call a recursive reference walker on a thread with room for it."""
    out = []
    limit, size = sys.getrecursionlimit(), threading.stack_size(1 << 28)
    sys.setrecursionlimit(10**6)
    try:
        worker = threading.Thread(target=lambda: out.append(fn(*args)))
        worker.start()
        worker.join()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)
    return out[0]


class Subject(NamedTuple):
    term: Term
    ints: list  # collect_ints of its value


@pytest.fixture(scope="module", params=["list", "chain"])
def subject(request):
    if request.param == "list":
        value = list(range(LENGTH))
        return Subject(term(value, list_of(INT)), value)
    value = app_chain(DEPTH)
    return Subject(to_term(value), on_big_stack(collect_ints, value))


def counted(ctx, value):
    """`value` in `ctx`, counting one in the state where there is one."""
    if supports_state(ctx):
        return ctx.bind(ctx.get(), lambda n: ctx.bind(ctx.put(n + 1), lambda _: ctx.pure(value)))
    return ctx.pure(value)


def outcome(ctx, comp):
    """(value, final state) of a computation run from state 0, None on failure.

    The state reads None in a context without one.
    """
    if supports_state(ctx):
        comp = run_state(comp, 0)
    if supports_failure(ctx):
        if comp is NOTHING:
            return None
        comp = comp.value
    return comp if supports_state(ctx) else (comp, None)


def ints_of(t: Term) -> list:
    return on_big_stack(collect_ints, t.value)


def depth_of_first(t: Term, holds) -> int:
    """Depth of the first subterm in preorder that `holds`, root at 0."""
    pending = [(t, 0)]
    while pending:
        sub, depth = pending.pop()
        if holds(sub):
            return depth
        pending.extend((kid, depth + 1) for kid in reversed(children(sub)))
    raise AssertionError("no subterm holds")


def is_int(value):
    return lambda sub: sub.tag is INT and sub.value == value


# name -> (context names, case).  A case maps (ctx, subject) to the strategy,
# how to read its value, and the expected value and count of counted steps.
CASES = {}


def case(*contexts):
    def register(fn):
        CASES[fn.__name__] = (contexts, fn)
        return fn

    return register


def odd_down(ctx):
    return lambda v: counted(ctx, v - 1) if v % 2 else ctx.zero()


@case(*ALL)
def topdown_inc(ctx, sub):
    s = topdown(adhoc_tp(identity_tp(ctx), INT, lambda v: counted(ctx, v + 1)))
    return s, ints_of, [v + 1 for v in sub.ints], len(sub.ints)


@case(*ALL)
def bottomup_inc(ctx, sub):
    s = bottomup(adhoc_tp(identity_tp(ctx), INT, lambda v: counted(ctx, v + 1)))
    return s, ints_of, [v + 1 for v in sub.ints], len(sub.ints)


@case(*ALL)
def crush_sum(ctx, sub):
    s = crush(adhoc_tu(build_tu(ctx, 0), INT, lambda v: counted(ctx, v)), INT_SUM)
    return s, None, sum(sub.ints), len(sub.ints)


@case(*PARTIAL_ONLY)
def once_td_last(ctx, sub):
    top = max(sub.ints)
    s = once_td(adhoc_tp(fail_tp(ctx), INT, lambda v: counted(ctx, -1) if v == top else ctx.zero()))
    i = sub.ints.index(top)
    return s, ints_of, sub.ints[:i] + [-1] + sub.ints[i + 1 :], 1


@case(*PARTIAL_ONLY)
def select_last(ctx, sub):
    top = max(sub.ints)
    s = select(adhoc_tu(fail_tu(ctx), INT, lambda v: counted(ctx, v) if v == top else ctx.zero()))
    _, want = first_success(lambda t: t.value if is_int(top)(t) else None, sub.term)
    return s, None, want, 1


@case(*PARTIAL_ONLY)
def stop_td_odd(ctx, sub):
    s = stop_td(adhoc_tp(fail_tp(ctx), INT, odd_down(ctx)))
    odd = [v for v in sub.ints if v % 2]
    return s, ints_of, [v - v % 2 for v in sub.ints], len(odd)


@case(*PARTIAL_ONLY)
def stop_td_tu_odd(ctx, sub):
    step = lambda v: counted(ctx, v) if v % 2 else ctx.zero()
    s = stop_td_tu(adhoc_tu(fail_tu(ctx), INT, step), INT_SUM)
    odd = [v for v in sub.ints if v % 2]
    return s, None, sum(odd), len(odd)


@case(*PARTIAL_ONLY)
def innermost_odd(ctx, sub):
    s = innermost(adhoc_tp(fail_tp(ctx), INT, odd_down(ctx)))
    odd = [v for v in sub.ints if v % 2]
    return s, ints_of, [v - v % 2 for v in sub.ints], len(odd)


@case(*ALL)
def free_names_even(ctx, sub):
    # An int v uses the name v % 100 and, when odd, binds it.  Names are
    # few because every node's result is a new set of the names below it.
    none = build_tu(ctx, frozenset())
    refs = adhoc_tu(none, INT, lambda v: counted(ctx, frozenset({v % 100})))
    decs = adhoc_tu(none, INT, lambda v: counted(ctx, frozenset({v % 100} if v % 2 else ())))
    s = free_names(refs, decs)
    return s, None, {v % 100 for v in sub.ints if v % 2 == 0}, 2 * len(sub.ints)


@case(*PARTIAL_ONLY)
def selectenv_depth(ctx, sub):
    top = max(sub.ints)

    def at(depth):
        return adhoc_tu(fail_tu(ctx), INT, lambda v: counted(ctx, depth) if v == top else ctx.zero())

    s = selectenv(0, lambda depth, _t: depth + 1, at)
    return s, None, depth_of_first(sub.term, is_int(top)), 1


@case(*STATEFUL)
def local_state_numbering(ctx, sub):
    number = lambda _v: ctx.bind(ctx.get(), lambda n: ctx.bind(ctx.put(n + 1), lambda _: ctx.pure(n)))
    s = local_state(0, topdown(adhoc_tp(identity_tp(ctx), INT, number)))
    return s, ints_of, list(range(len(sub.ints))), None


@case(*ALL)
def recursion_through_msubst(ctx, sub):
    # Every level of the recursion passes through msubst.
    inc = adhoc_tp(identity_tp(ctx), INT, lambda v: counted(ctx, v + 1))
    s = _recursive(
        identity_tp(ctx), lambda rec: msubst_tp(identity_morphism(ctx), seq_tp(inc, all_tp(rec)))
    )
    return s, ints_of, [v + 1 for v in sub.ints], len(sub.ints)


@case("identity")
def per_node_local_state(ctx, sub):
    # An even int adds a count that starts afresh at 10 at every node; an
    # odd one fails, and the failure recovers as -1.
    local = PARTIAL_STATE
    add_count = lambda v: local.bind(
        counted(local, v), lambda v: local.bind(local.get(), lambda n: local.pure(v + n))
    )
    step = adhoc_tp(identity_tp(local), INT, lambda v: local.zero() if v % 2 else add_count(v))
    s = topdown(msubst_tp(partial_to_identity(term(-1)), local_state(10, step)))
    return s, ints_of, [-1 if v % 2 else v + 11 for v in sub.ints], None


@pytest.mark.parametrize(
    "name, ctx",
    [(name, ctx) for name, (contexts, _) in CASES.items() for ctx in contexts],
)
def test_scheme_at_the_default_limit(subject, name, ctx):
    assert sys.getrecursionlimit() == 1000
    s, read, want, count = CASES[name][1](CONTEXTS[ctx], subject)
    got = outcome(s.context, apply(s, subject.term))
    assert got is not None
    value, state = got
    assert (read(value) if read else value) == want
    assert state == (count if supports_state(s.context) else None)


# Combinator laws on large generated terms.

rows = st.lists(st.lists(st.integers(-50, 50), max_size=200), max_size=50)
longs = st.integers(0, 10_000).map(lambda n: list(range(n)))


def large_terms(row_values, long_values):
    return term(row_values, list_of(list_of(INT))), term(long_values, list_of(INT))


@settings(max_examples=15, deadline=None)
@given(rows, longs, st.sampled_from(ALL))
def test_topdown_identity_returns_its_input_object(row_values, long_values, ctx):
    ctx = CONTEXTS[ctx]
    for t in large_terms(row_values, long_values):
        value, _ = outcome(ctx, apply(topdown(identity_tp(ctx)), t))
        assert value is t


@settings(max_examples=15, deadline=None)
@given(rows, longs, st.sampled_from(ALL))
def test_crush_counts_every_node_in_preorder(row_values, long_values, ctx):
    ctx = CONTEXTS[ctx]
    for t in large_terms(row_values, long_values):
        value, _ = outcome(ctx, apply(crush(build_tu(ctx, 1), INT_SUM), t))
        assert value == sum(1 for _ in preorder(t))


@settings(max_examples=15, deadline=None)
@given(rows, longs)
def test_topdown_and_bottomup_agree_on_large_terms(row_values, long_values):
    bump = adhoc_tp(identity_tp(IDENTITY), INT, lambda v: IDENTITY.pure(v + 1))
    for t in large_terms(row_values, long_values):
        down, up = apply(topdown(bump), t), apply(bottomup(bump), t)
        assert down == up
        ints = [sub.value for sub in preorder(t) if sub.tag is INT]
        assert [sub.value for sub in preorder(down) if sub.tag is INT] == [v + 1 for v in ints]


# Deep strategies, not only deep terms.  Each node of a strategy is read
# where it is built, from its parts' readings, so a `seq_tp` chain of INT
# steps prunes however long it is: at 2,000 steps as at 5,000.

CHAIN = 5_000
SHORT = list(range(10))


@pytest.mark.parametrize("ctx", ALL)
def test_topdown_of_a_seq_chain_within_the_read_budget_prunes(ctx):
    assert sys.getrecursionlimit() == 1000
    ctx = CONTEXTS[ctx]
    inc = adhoc_tp(identity_tp(ctx), INT, lambda v: counted(ctx, v + 1))
    s = inc
    for _ in range(2_000 - 1):
        s = seq_tp(s, inc)
    # Entering the module's type would raise KeyError.
    value, state = outcome(ctx, apply(topdown(s), opaque_module()))
    assert function_of(value) == FunBind("f", (), LitInt(2_001))
    assert state == (2_000 if supports_state(ctx) else None)


@pytest.mark.parametrize("ctx", ALL)
def test_topdown_of_a_deep_seq_chain_prunes(ctx):
    assert sys.getrecursionlimit() == 1000
    ctx = CONTEXTS[ctx]
    inc = adhoc_tp(identity_tp(ctx), INT, lambda v: counted(ctx, v + 1))
    s = inc
    for _ in range(CHAIN - 1):
        s = seq_tp(s, inc)
    # Entering the module's type would raise KeyError.
    value, state = outcome(ctx, apply(topdown(s), opaque_module()))
    assert function_of(value) == FunBind("f", (), LitInt(1 + CHAIN))
    assert state == (CHAIN if supports_state(ctx) else None)


@pytest.mark.parametrize("ctx", ALL)
def test_topdown_of_a_deep_seq_chain(ctx):
    assert sys.getrecursionlimit() == 1000
    ctx = CONTEXTS[ctx]
    inc = adhoc_tp(identity_tp(ctx), INT, lambda v: counted(ctx, v + 1))
    s = inc
    for _ in range(CHAIN - 1):
        s = seq_tp(s, inc)
    value, state = outcome(ctx, apply(topdown(s), term(SHORT, list_of(INT))))
    assert collect_ints(value.value) == [v + CHAIN for v in collect_ints(SHORT)]
    assert state == (CHAIN * len(SHORT) if supports_state(ctx) else None)


@pytest.mark.parametrize("ctx", PARTIAL_ONLY)
def test_once_td_of_a_deep_choice_chain(ctx):
    assert sys.getrecursionlimit() == 1000
    ctx = CONTEXTS[ctx]
    top = max(SHORT)
    never = adhoc_tp(fail_tp(ctx), INT, lambda v: ctx.zero())
    hit = adhoc_tp(fail_tp(ctx), INT, lambda v: counted(ctx, -1) if v == top else ctx.zero())
    s = never
    for _ in range(CHAIN - 2):
        s = choice_tp(s, never)
    s = choice_tp(s, hit)
    value, state = outcome(ctx, apply(once_td(s), term(SHORT, list_of(INT))))
    ints = collect_ints(SHORT)
    i = ints.index(top)
    assert collect_ints(value.value) == ints[:i] + [-1] + ints[i + 1 :]
    assert state == (1 if supports_state(ctx) else None)
