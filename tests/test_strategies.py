"""The basic combinator vocabulary, kind by kind and law by law."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategem import strategies
from strategem.analyses import de_bruijn
from strategem.effects import (
    IDENTITY,
    INT_SUM,
    LIST_CONCAT,
    NOTHING,
    PARTIAL,
    PARTIAL_STATE,
    STATE,
    EffectContext,
    EffectMorphism,
    Just,
    StateOver,
    identity_morphism,
    partial_to_identity,
    run_state,
    supports_failure,
    supports_state,
)
from strategem.minilang import parse, to_term
from strategem.strategies import (
    TP,
    TU,
    adhoc_tp,
    adhoc_tu,
    all_tp,
    all_tu,
    apply,
    build_tu,
    choice_tp,
    choice_tu,
    fail_tp,
    fail_tu,
    identity_tp,
    let_tp,
    let_tu,
    msubst_tp,
    msubst_tu,
    one_tp,
    one_tu,
    seq_tp,
    seq_tu,
    tp_ops,
    tu_ops,
)
from strategem.terms import (
    INT,
    STR,
    Registry,
    children,
    list_of,
    pair_of,
    rebuild,
    register_descriptors,
    term,
)
from strategem.themes import (
    bottomup,
    crush,
    free_names,
    innermost,
    local_state,
    once_bu,
    once_td,
    repeat_,
    select,
    selectenv,
    stop_td,
    stop_td_tu,
    topdown,
    traverse_meta,
    try_,
)
from test_themes import _TARGETS, _bump, _count, _layers, _outcome, _partly, _terms


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Add:
    left: Arith
    right: Arith


Arith = Num | Add

ARITHS = Registry()
ARITH = ARITHS.derive({"Arith": [Num, Add]})["Arith"]
ARITHS.freeze()


def inc_int(default):
    return adhoc_tp(default, INT, lambda v: default.context.pure(v + 1))


def test_identity_and_build():
    t = term(5)
    assert apply(identity_tp(IDENTITY), t) == t
    assert apply(identity_tp(PARTIAL), t) == Just(t)
    assert apply(build_tu(IDENTITY, "k"), t) == "k"
    assert apply(build_tu(PARTIAL, "k"), t) == Just("k")


def test_apply_rejects_bare_values():
    with pytest.raises(TypeError):
        apply(identity_tp(IDENTITY), 5)


def test_fail_needs_failure_capability():
    assert apply(fail_tp(PARTIAL), term(1)) is NOTHING
    assert apply(fail_tu(PARTIAL), term(1)) is NOTHING
    for ctx in (IDENTITY, STATE):
        with pytest.raises(TypeError):
            fail_tp(ctx)
        with pytest.raises(TypeError):
            fail_tu(ctx)
    # The state-over-partial context does support failure.
    assert fail_tp(PARTIAL_STATE).context is PARTIAL_STATE


def test_adhoc_dispatches_on_datatype():
    s = inc_int(identity_tp(IDENTITY))
    assert apply(s, term(41)) == term(42)
    assert apply(s, term("x")) == term("x")


def test_adhoc_most_recent_customization_wins():
    base = inc_int(identity_tp(IDENTITY))
    s = adhoc_tp(base, INT, lambda v: IDENTITY.pure(v * 10))
    assert apply(s, term(4)) == term(40)
    # A customization at a different datatype leaves the earlier one alone.
    s2 = adhoc_tp(base, STR, lambda v: IDENTITY.pure(v + "!"))
    assert apply(s2, term(4)) == term(5)
    assert apply(s2, term("a")) == term("a!")
    # The same over a layer at another datatype, and inside a traversal.
    s3 = adhoc_tp(s2, INT, lambda v: IDENTITY.pure(v * 10))
    t = term([(4, "a")], list_of(pair_of(INT, STR)))
    assert apply(topdown(s3), t).value == [(40, "a!")]
    u = adhoc_tu(build_tu(IDENTITY, 0), INT, lambda v: IDENTITY.pure(1))
    u = adhoc_tu(adhoc_tu(u, STR, lambda v: IDENTITY.pure(2)), INT, lambda v: IDENTITY.pure(3))
    assert (apply(u, term(4)), apply(u, term("a")), apply(u, term(True))) == (3, 2, 0)


@pytest.mark.parametrize(
    "default",
    [
        identity_tp(PARTIAL),
        build_tu(PARTIAL, 0),
        fail_tp(PARTIAL),
        fail_tu(PARTIAL),
        TP(PARTIAL, PARTIAL.pure),
        TU(PARTIAL, lambda t: PARTIAL.pure(-1)),
    ],
    ids=["identity_tp", "build_tu", "fail_tp", "fail_tu", "TP", "TU"],
)
def test_an_adhoc_chain_over_a_generic_default_is_one_node(default):
    # The generic default itself is a type-case with no cases, so the chain
    # joins it: one node, with no node below it to dispatch to.
    adhoc = adhoc_tp if isinstance(default, TP) else adhoc_tu
    s = adhoc(adhoc(default, INT, PARTIAL.pure), STR, PARTIAL.pure)
    node = s.run
    assert type(node) is strategies._Adhoc and node.default is None
    assert set(node.steps) == {INT, STR}
    assert apply(s, term(True)) == apply(default, term(True))
    i, a = (term(4), term("a")) if isinstance(default, TP) else (4, "a")
    assert (apply(s, term(4)), apply(s, term("a"))) == (Just(i), Just(a))


def _int_step(kind, default):
    adhoc = adhoc_tp if kind is TP else adhoc_tu
    return adhoc(default, INT, PARTIAL.pure)


@pytest.mark.parametrize(
    "scheme, layer_of",
    [
        (lambda: topdown(_int_step(TP, identity_tp(PARTIAL))), lambda body: body.second),
        (lambda: bottomup(_int_step(TP, identity_tp(PARTIAL))), lambda body: body.first),
        (lambda: crush(_int_step(TU, build_tu(PARTIAL, 0)), INT_SUM), lambda body: body.second),
        (lambda: once_td(_int_step(TP, fail_tp(PARTIAL))), lambda body: body.second),
        (lambda: innermost(_int_step(TP, fail_tp(PARTIAL))), lambda body: body.first),
    ],
    ids=["topdown", "bottomup", "crush", "once_td", "innermost"],
)
def test_a_scheme_plans_its_own_layer_at_a_list_of_its_targets(scheme, layer_of):
    # Its layer's table runs the layer itself at a kid of the list's own
    # datatype, so the layer walks the list's elements in one frame.
    s = scheme()
    layer = layer_of(s.run.body)
    assert type(layer) is strategies._Layer
    assert layer.table[list_of(INT)] is layer
    assert s.run.plan(list_of(INT)) is layer


def test_a_function_default_plans_to_itself_at_every_tag():
    tags = (INT, STR, list_of(INT), pair_of(INT, STR), list_of(list_of(INT)))
    for s in (TP(PARTIAL, PARTIAL.pure), TU(PARTIAL, lambda t: PARTIAL.pure(0))):
        node = strategies._node(s)
        chain = _int_step(TP if isinstance(s, TP) else TU, s).run
        for tag in tags:
            assert node.plan(tag) is node
            assert chain.plan(tag) is chain


def test_adhoc_on_node_datatype_sees_bare_value():
    seen = []

    def step(v):
        seen.append(v)
        return IDENTITY.pure(Num(0))

    s = adhoc_tp(identity_tp(IDENTITY), ARITH, step)
    out = apply(s, ARITHS.term(Add(Num(1), Num(2))))
    assert seen == [Add(Num(1), Num(2))]
    assert out == ARITHS.term(Num(0))


def test_adhoc_checks_replacement_type():
    s = adhoc_tp(identity_tp(IDENTITY), INT, lambda v: IDENTITY.pure("oops"))
    with pytest.raises(TypeError):
        apply(s, term(1))


@pytest.mark.parametrize("ctx", [IDENTITY, PARTIAL])
def test_a_tp_step_must_keep_the_datatype(ctx):
    # A step's term of another datatype, or a value that is no term, is
    # refused where the step returns it, as an adhoc step's is.
    with pytest.raises(TypeError, match="'x' : Str.* is not a term of datatype Int"):
        apply(TP(ctx, lambda t: ctx.pure(term("x"))), term(1))
    with pytest.raises(TypeError, match="5 is not a term of datatype Int"):
        apply(all_tp(TP(ctx, lambda t: ctx.pure(5))), term((1, 2), pair_of(INT, INT)))
    assert apply(TP(ctx, lambda t: ctx.pure(term(2))), term(1)) == ctx.pure(term(2))


def test_adhoc_tu():
    s = adhoc_tu(build_tu(IDENTITY, 0), INT, lambda v: IDENTITY.pure(v * v))
    assert apply(s, term(6)) == 36
    assert apply(s, term("x")) == 0


def test_seq_tp_order():
    plus_one = inc_int(identity_tp(IDENTITY))
    times_two = adhoc_tp(identity_tp(IDENTITY), INT, lambda v: IDENTITY.pure(v * 2))
    assert apply(seq_tp(plus_one, times_two), term(3)) == term(8)
    assert apply(seq_tp(times_two, plus_one), term(3)) == term(7)


def test_seq_tp_propagates_failure():
    s = seq_tp(fail_tp(PARTIAL), identity_tp(PARTIAL))
    assert apply(s, term(1)) is NOTHING
    s = seq_tp(identity_tp(PARTIAL), fail_tp(PARTIAL))
    assert apply(s, term(1)) is NOTHING


def test_seq_tu_analyses_the_transformed_term():
    plus_one = inc_int(identity_tp(IDENTITY))
    grab = adhoc_tu(build_tu(IDENTITY, -1), INT, lambda v: IDENTITY.pure(v))
    assert apply(seq_tu(plus_one, grab), term(9)) == 10


def test_let_binds_an_intermediate_result():
    grab = adhoc_tu(build_tu(IDENTITY, 0), INT, lambda v: IDENTITY.pure(v))
    s = let_tp(grab, lambda n: adhoc_tp(identity_tp(IDENTITY), INT, lambda v: IDENTITY.pure(v + n)))
    assert apply(s, term(21)) == term(42)
    u = let_tu(grab, lambda n: build_tu(IDENTITY, n * 3))
    assert apply(u, term(5)) == 15


def test_let_body_must_live_in_the_lets_context():
    def body(ctx):
        return lambda n: adhoc_tp(identity_tp(ctx), INT, lambda v: ctx.pure(v + n))

    with pytest.raises(ValueError, match="mixed effect contexts"):
        apply(let_tp(build_tu(PARTIAL, 0), body(IDENTITY)), term(1))
    with pytest.raises(ValueError, match="mixed effect contexts"):
        run_state(apply(let_tp(build_tu(STATE, 0), body(IDENTITY)), term(1)), 0)
    with pytest.raises(ValueError, match="mixed effect contexts"):
        apply(let_tp(build_tu(IDENTITY, 1), body(PARTIAL)), term(1))


def test_choice_commits_to_first_success():
    plus_one = inc_int(identity_tp(PARTIAL))
    s = choice_tp(plus_one, fail_tp(PARTIAL))
    assert apply(s, term(1)) == Just(term(2))
    s = choice_tp(fail_tp(PARTIAL), plus_one)
    assert apply(s, term(1)) == Just(term(2))
    s = choice_tp(fail_tp(PARTIAL), fail_tp(PARTIAL))
    assert apply(s, term(1)) is NOTHING


def test_choice_does_not_run_the_loser():
    ran = []

    def spy(v):
        ran.append(v)
        return PARTIAL.pure(v)

    second = adhoc_tp(fail_tp(PARTIAL), INT, spy)
    s = choice_tp(identity_tp(PARTIAL), second)
    assert apply(s, term(7)) == Just(term(7))
    assert ran == []


def test_choice_needs_failure_capability():
    with pytest.raises(TypeError):
        choice_tp(identity_tp(IDENTITY), identity_tp(IDENTITY))
    with pytest.raises(TypeError):
        choice_tu(build_tu(STATE, 0), build_tu(STATE, 0))


def test_choice_discards_state_of_failed_branch():
    ctx = PARTIAL_STATE
    stamp_then_fail = TP(ctx, lambda t: ctx.bind(ctx.put(99), lambda _: ctx.zero()))
    s = choice_tp(stamp_then_fail, identity_tp(ctx))
    out = run_state(apply(s, term(1)), 0)
    assert out == Just((term(1), 0))


def test_mixed_contexts_are_rejected():
    with pytest.raises(ValueError):
        seq_tp(identity_tp(IDENTITY), identity_tp(PARTIAL))
    with pytest.raises(ValueError):
        choice_tu(build_tu(PARTIAL, 0), build_tu(PARTIAL_STATE, 0))


def test_a_node_of_another_context_is_refused():
    # A strategy whose `run` is taken from a strategy of another context.
    foreign = TP(IDENTITY, fail_tp(PARTIAL).run)
    with pytest.raises(ValueError, match="mixed effect contexts"):
        apply(foreign, term(1))
    with pytest.raises(ValueError, match="mixed effect contexts"):
        run_state(apply(TU(STATE, build_tu(IDENTITY, 0).run), term(1)), 0)
    for build in (all_tp, topdown, lambda s: adhoc_tp(s, INT, IDENTITY.pure)):
        with pytest.raises(ValueError, match="mixed effect contexts"):
            build(foreign)
    # An equal context is the same context.
    same = TP(StateOver(IDENTITY), identity_tp(STATE).run)
    assert run_state(apply(topdown(same), term(1)), 0) == (term(1), 0)


# (combinator given one strategy, the kind it needs there), for every
# argument of every combinator, and for schemes built from them.
_NEEDS = [
    (lambda s: seq_tp(s, identity_tp(PARTIAL)), TP),
    (lambda s: seq_tp(identity_tp(PARTIAL), s), TP),
    (lambda s: seq_tu(s, build_tu(PARTIAL, 0)), TP),
    (lambda s: seq_tu(identity_tp(PARTIAL), s), TU),
    (lambda s: choice_tp(s, fail_tp(PARTIAL)), TP),
    (lambda s: choice_tp(fail_tp(PARTIAL), s), TP),
    (lambda s: choice_tu(s, fail_tu(PARTIAL)), TU),
    (lambda s: choice_tu(fail_tu(PARTIAL), s), TU),
    (all_tp, TP),
    (lambda s: all_tu(s, INT_SUM), TU),
    (one_tp, TP),
    (one_tu, TU),
    (lambda s: adhoc_tp(s, INT, PARTIAL.pure), TP),
    (lambda s: adhoc_tu(s, INT, PARTIAL.pure), TU),
    (lambda s: let_tp(s, lambda _n: identity_tp(PARTIAL)), TU),
    (lambda s: let_tu(s, lambda _n: build_tu(PARTIAL, 0)), TU),
    (lambda s: msubst_tp(identity_morphism(PARTIAL), s), TP),
    (lambda s: msubst_tu(identity_morphism(PARTIAL), s), TU),
    (topdown, TP),
    (lambda s: crush(s, INT_SUM), TU),
]


@pytest.mark.parametrize("build, kind", _NEEDS)
def test_a_strategy_of_the_wrong_kind_is_refused_at_construction(build, kind):
    tp, tu = identity_tp(PARTIAL), build_tu(PARTIAL, 0)
    right, wrong = (tp, tu) if kind is TP else (tu, tp)
    build(right)
    other = "TU" if kind is TP else "TP"
    with pytest.raises(TypeError, match=f"expected a {kind.__name__} strategy, got {other}"):
        build(wrong)
    # A step of the other kind is refused too.
    with pytest.raises(TypeError, match=f"expected a {kind.__name__} strategy, got {other}"):
        build(type(wrong)(PARTIAL, PARTIAL.pure))


# Every public function that takes a strategy, given `x` in one of its
# strategy arguments.
_TAKES = {
    "apply": lambda x: apply(x, term(1)),
    "seq_tp.first": lambda x: seq_tp(x, identity_tp(PARTIAL)),
    "seq_tp.second": lambda x: seq_tp(identity_tp(PARTIAL), x),
    "seq_tu.first": lambda x: seq_tu(x, build_tu(PARTIAL, 0)),
    "seq_tu.second": lambda x: seq_tu(identity_tp(PARTIAL), x),
    "let_tp": lambda x: let_tp(x, lambda _n: identity_tp(PARTIAL)),
    "let_tu": lambda x: let_tu(x, lambda _n: build_tu(PARTIAL, 0)),
    "choice_tp.first": lambda x: choice_tp(x, fail_tp(PARTIAL)),
    "choice_tp.second": lambda x: choice_tp(fail_tp(PARTIAL), x),
    "choice_tu.first": lambda x: choice_tu(x, fail_tu(PARTIAL)),
    "choice_tu.second": lambda x: choice_tu(fail_tu(PARTIAL), x),
    "all_tp": all_tp,
    "all_tu": lambda x: all_tu(x, INT_SUM),
    "one_tp": one_tp,
    "one_tu": one_tu,
    "adhoc_tp": lambda x: adhoc_tp(x, INT, PARTIAL.pure),
    "adhoc_tu": lambda x: adhoc_tu(x, INT, PARTIAL.pure),
    "msubst_tp": lambda x: msubst_tp(identity_morphism(PARTIAL), x),
    "msubst_tu": lambda x: msubst_tu(identity_morphism(PARTIAL), x),
    "topdown": topdown,
    "bottomup": bottomup,
    "once_td": once_td,
    "once_bu": once_bu,
    "stop_td": stop_td,
    "stop_td_tu": lambda x: stop_td_tu(x, INT_SUM),
    "try_": try_,
    "repeat_": repeat_,
    "innermost": innermost,
    "crush": lambda x: crush(x, INT_SUM),
    "select": select,
    "selectenv": lambda x: selectenv(0, lambda env, _t: env, lambda _env: x),
    "free_names.refs": lambda x: free_names(x, build_tu(IDENTITY, frozenset())),
    "free_names.decs": lambda x: free_names(build_tu(IDENTITY, frozenset()), x),
    "traverse_meta": lambda x: traverse_meta(seq_tp, all_tp, x),
    "local_state": lambda x: local_state(0, x),
}


@pytest.mark.parametrize("build", _TAKES.values(), ids=_TAKES.keys())
def test_anything_but_a_strategy_is_refused(build):
    for thing in (lambda t: t, 5):
        with pytest.raises(TypeError, match=f"strategy, got {type(thing).__name__}$"):
            build(thing)


def test_a_node_of_another_kind_is_refused():
    # A strategy whose `run` is taken from a strategy of the other kind.
    foreign = TP(IDENTITY, build_tu(IDENTITY, 5).run)
    with pytest.raises(TypeError, match="expected a TP strategy, got the node of a TU"):
        apply(foreign, term(1))
    with pytest.raises(TypeError, match="expected a TU strategy, got the node of a TP"):
        apply(TU(IDENTITY, identity_tp(IDENTITY).run), term(1))
    for build, kind in _NEEDS:
        if kind is TP:
            wrapped, inner = TP(PARTIAL, build_tu(PARTIAL, 0).run), "TU"
        else:
            wrapped, inner = TU(PARTIAL, identity_tp(PARTIAL).run), "TP"
        with pytest.raises(TypeError, match=f"got the node of a {inner}"):
            build(wrapped)


def test_a_let_body_of_the_wrong_kind_is_refused_when_chosen():
    grab = adhoc_tu(build_tu(IDENTITY, 0), INT, IDENTITY.pure)
    with pytest.raises(TypeError, match="expected a TP strategy, got TU"):
        apply(let_tp(grab, lambda n: build_tu(IDENTITY, n)), term(1))
    with pytest.raises(TypeError, match="expected a TU strategy, got TP"):
        apply(let_tu(grab, lambda _n: identity_tp(IDENTITY)), term(1))
    with pytest.raises(TypeError, match="expected a TP strategy, got the node of a TU"):
        apply(let_tp(grab, lambda n: TP(IDENTITY, build_tu(IDENTITY, n).run)), term(1))


def test_all_tp_rewrites_each_child_once():
    s = all_tp(inc_int(identity_tp(IDENTITY)))
    # One layer only: the head is an Int child, the tail is a sequence child.
    out = apply(s, term([1, 2, 3], list_of(INT)))
    assert out.value == [2, 2, 3]
    # Both components of a pair are children.
    out = apply(s, term((1, 2), pair_of(INT, INT)))
    assert out.value == (2, 3)


def test_all_tp_keeps_leaves_and_propagates_failure():
    succeed_on_int = adhoc_tp(fail_tp(PARTIAL), INT, lambda v: PARTIAL.pure(v + 1))
    assert apply(all_tp(succeed_on_int), term(5)) == Just(term(5))
    t = term((1, "x"), pair_of(INT, STR))
    assert apply(all_tp(succeed_on_int), t) is NOTHING


def test_all_tu_folds_left_to_right():
    grab = adhoc_tu(build_tu(IDENTITY, []), INT, lambda v: IDENTITY.pure([v]))
    s = all_tu(grab, LIST_CONCAT)
    assert apply(s, term((3, 4), pair_of(INT, INT))) == [3, 4]
    assert apply(s, term(5)) == []


def test_one_tp_takes_the_leftmost_success():
    bump = adhoc_tp(fail_tp(PARTIAL), INT, lambda v: PARTIAL.pure(v + 1))
    out = apply(one_tp(bump), term([1, 2], list_of(INT)))
    assert out == Just(term([2, 2], list_of(INT)))
    out = apply(one_tp(bump), term(("x", 1), pair_of(STR, INT)))
    assert out == Just(term(("x", 2), pair_of(STR, INT)))


def test_one_fails_on_leaves_and_when_no_child_works():
    bump = adhoc_tp(fail_tp(PARTIAL), INT, lambda v: PARTIAL.pure(v + 1))
    assert apply(one_tp(bump), term(5)) is NOTHING
    assert apply(one_tp(bump), term(("a", "b"), pair_of(STR, STR))) is NOTHING
    assert apply(one_tu(fail_tu(PARTIAL)), term((1, 2), pair_of(INT, INT))) is NOTHING


def test_one_stops_probing_after_a_success():
    probed = []

    def spy(v):
        probed.append(v)
        return PARTIAL.pure(v)

    s = one_tu(adhoc_tu(fail_tu(PARTIAL), INT, spy))
    out = apply(s, term((1, 2), pair_of(INT, INT)))
    assert out == Just(1)
    assert probed == [1]


def test_all_and_one_over_strategies_that_act_below_the_kids():
    # No adhoc layer anywhere, so no kid reaches one; each kid is still
    # entered, since the inner all/one acts on the kid's own children.
    t = term([[1]], list_of(list_of(INT)))
    assert apply(all_tp(all_tp(fail_tp(PARTIAL))), t) is NOTHING
    assert apply(all_tu(all_tu(build_tu(IDENTITY, 1), INT_SUM), INT_SUM), t) == 2
    assert apply(one_tp(one_tp(identity_tp(PARTIAL))), t) == Just(t)


def test_all_tu_threads_state_left_to_right():
    ctx = STATE

    def stamp(v):
        return ctx.bind(
            ctx.get(), lambda n: ctx.bind(ctx.put(n + 1), lambda _: ctx.pure([(n, v)]))
        )

    s = all_tu(adhoc_tu(build_tu(ctx, []), INT, stamp), LIST_CONCAT)
    out = run_state(apply(s, term((7, 8), pair_of(INT, INT))), 0)
    assert out == ([(0, 7), (1, 8)], 2)


def test_one_keeps_only_the_state_of_the_child_that_succeeded():
    ctx = PARTIAL_STATE

    def record_then_fail_on_odd(result):
        # Records the value it saw, then fails on odd values.
        def step(v):
            return ctx.bind(
                ctx.get(),
                lambda seen: ctx.bind(
                    ctx.put(seen + (v,)), lambda _: ctx.zero() if v % 2 else ctx.pure(result(v))
                ),
            )

        return step

    t = term((1, 2), pair_of(INT, INT))
    tp = one_tp(adhoc_tp(fail_tp(ctx), INT, record_then_fail_on_odd(lambda v: v + 1)))
    assert run_state(apply(tp, t), ()) == Just((term((1, 3), pair_of(INT, INT)), (2,)))
    tu = one_tu(adhoc_tu(fail_tu(ctx), INT, record_then_fail_on_odd(lambda v: v)))
    assert run_state(apply(tu, t), ()) == Just((2, (2,)))


# One layer against a plain walk: the strategy applied to each of
# `children(t)` with `apply`, the state threaded left to right, `one` keeping
# only the state of the kid that works.  The per-kid strategy is a layer of
# adhoc steps over a default, so kids that reach no step's tag are skipped
# where the default gives what the layer gives on a term without kids; or
# `all` of those steps, which can count on one grandkid and fail on the
# next; or the steps after a counting step, which can count and then fail.


def _kid(s, kid, state):
    # (value, state) of `s` at `kid` from `state`, None on failure.
    ctx, comp = s.context, apply(s, kid)
    if supports_state(ctx):
        comp = run_state(comp, state)
    if supports_failure(ctx):
        if comp is NOTHING:
            return None
        comp = comp.value
    return comp if supports_state(ctx) else (comp, state)


def _all_reference(monoid):
    def layer(s, t, state):
        acc = [] if monoid is None else monoid.neutral
        for kid in children(t):
            got = _kid(s, kid, state)
            if got is None:
                return None
            v, state = got
            acc = acc + [v] if monoid is None else monoid.append(acc, v)
        if monoid is None:
            return (rebuild(t, acc) if acc else t), state
        return acc, state

    return layer


def _one_reference(tp):
    def layer(s, t, state):
        kids = children(t)
        for i, kid in enumerate(kids):
            got = _kid(s, kid, state)
            if got is not None:
                v, state = got
                return (rebuild(t, kids[:i] + (v,) + kids[i + 1 :]) if tp else v), state
        return None

    return layer


def _read(ctx, got):
    # A (value, state) pair or None as `_outcome` reads the computation.
    if got is None:
        return NOTHING
    v = got if supports_state(ctx) else got[0]
    return Just(v) if supports_failure(ctx) else v


def _sum(s):
    return all_tu(s, INT_SUM)


def _concat(s):
    return all_tu(s, LIST_CONCAT)


def _build(value):
    return lambda ctx: build_tu(ctx, value)


def _listed(v, n):
    return [(v, n)]


# (layer, reference, `all` of the kind, needs failure, default, step)
_ONE_LAYER = [
    (all_tp, _all_reference(None), all_tp, False, identity_tp, _bump),
    (all_tp, _all_reference(None), all_tp, True, fail_tp, _partly(_bump)),
    (_sum, _all_reference(INT_SUM), _sum, False, _build(0), _count),
    (_sum, _all_reference(INT_SUM), _sum, False, _build(1), _count),
    (_sum, _all_reference(INT_SUM), _sum, True, fail_tu, _partly(_count)),
    (_concat, _all_reference(LIST_CONCAT), _concat, False, _build([]), _listed),
    (_concat, _all_reference(LIST_CONCAT), _concat, False, _build([("x", 0)]), _listed),
    (_concat, _all_reference(LIST_CONCAT), _concat, True, fail_tu, _partly(_listed)),
    (one_tp, _one_reference(True), all_tp, True, fail_tp, _partly(_bump)),
    (one_tp, _one_reference(True), all_tp, True, identity_tp, _partly(_bump)),
    (one_tu, _one_reference(False), _sum, True, fail_tu, _partly(_count)),
    (one_tu, _one_reference(False), _sum, True, _build(0), _partly(_count)),
]


@settings(deadline=None)
@given(t=_terms, tags=st.lists(st.sampled_from(_TARGETS), min_size=1, max_size=2, unique=True))
def test_one_layer_agrees_with_a_walk_over_the_kids(t, tags):
    for layer, reference, all_, needs_failure, default, step in _ONE_LAYER:
        for ctx in (IDENTITY, PARTIAL, STATE, PARTIAL_STATE):
            if needs_failure and not supports_failure(ctx):
                continue
            s = _layers(default(ctx), tags, step)
            tick = _layers(identity_tp(ctx), tags, lambda v, n: v)
            seq = seq_tp if isinstance(s, TP) else seq_tu
            for kid_strategy in (s, all_(s), seq(tick, s)):
                want = _read(ctx, reference(kid_strategy, t, 0))
                assert _outcome(layer(kid_strategy), t) == want, (layer, ctx)


def test_msubst_moves_contexts():
    recovered = msubst_tp(partial_to_identity(term(0)), fail_tp(PARTIAL))
    assert recovered.context == IDENTITY
    assert apply(recovered, term(9)) == term(0)
    kept = msubst_tp(partial_to_identity(term(0)), identity_tp(PARTIAL))
    assert apply(kept, term(9)) == term(9)
    u = msubst_tu(partial_to_identity(-1), fail_tu(PARTIAL))
    assert apply(u, term(9)) == -1


def test_partial_to_identity_checks_the_default_of_a_transformation():
    # The default stands in for a term, so it is checked as a step's value.
    recovered = msubst_tp(partial_to_identity(5), fail_tp(PARTIAL))
    with pytest.raises(TypeError, match="5 is not a term of datatype Int"):
        apply(recovered, term(1))
    with pytest.raises(TypeError, match="5 is not a term of datatype Int"):
        apply(all_tp(recovered), term((1, 2), pair_of(INT, INT)))


def test_msubst_with_identity_morphism_is_inert():
    s = inc_int(identity_tp(PARTIAL))
    moved = msubst_tp(identity_morphism(PARTIAL), s)
    assert apply(moved, term(1)) == apply(s, term(1))


def test_msubst_checks_the_source_context():
    with pytest.raises(ValueError):
        msubst_tp(partial_to_identity(None), identity_tp(IDENTITY))
    with pytest.raises(ValueError):
        msubst_tu(identity_morphism(PARTIAL), build_tu(IDENTITY, 0))


def test_library_morphisms_start_no_second_loop(monkeypatch):
    entries = []
    loop = strategies._loop

    def counted(*args):
        entries.append(args)
        return loop(*args)

    monkeypatch.setattr(strategies, "_loop", counted)
    t = term([(1, 2), (3, 4)], list_of(pair_of(INT, INT)))
    bump = inc_int(identity_tp(PARTIAL))
    number = adhoc_tp(identity_tp(STATE), INT, lambda v: _tick(STATE, v))
    module = to_term(parse('module M where\nf = g "a" "b"\n'))
    # Each morphism moves a strategy at every node of a traversal.
    runs = {
        "de_bruijn": lambda: de_bruijn(module),
        "local_state": lambda: apply(topdown(local_state(0, number)), t),
        "identity_morphism": lambda: apply(topdown(msubst_tp(identity_morphism(PARTIAL), bump)), t),
        "partial_to_identity": lambda: apply(topdown(msubst_tp(partial_to_identity(term(0)), bump)), t),
    }
    for name, run in runs.items():
        entries.clear()
        run()
        assert len(entries) == 1, name
    # A morphism the library does not know runs its strategy in a nested loop.
    user = EffectMorphism(PARTIAL, IDENTITY, lambda comp: comp.value)
    entries.clear()
    assert apply(topdown(msubst_tp(user, bump)), t).value == [(2, 3), (4, 5)]
    assert len(entries) > 1


def test_shared_vocabulary_readings():
    tp = tp_ops()
    assert (tp.seq, tp.choice, tp.all, tp.one, tp.adhoc) == (
        seq_tp,
        choice_tp,
        all_tp,
        one_tp,
        adhoc_tp,
    )
    tu = tu_ops(INT_SUM)
    count_int = adhoc_tu(build_tu(IDENTITY, 0), INT, lambda v: IDENTITY.pure(1))
    # TU sequencing runs both analyses on the same term and appends.
    both = tu.seq(count_int, count_int)
    assert apply(both, term(3)) == 2
    assert apply(tu.all(count_int), term((1, 2), pair_of(INT, INT))) == 2


# How the loop runs strategies.


def _tick(ctx, value):
    return ctx.bind(ctx.get(), lambda n: ctx.bind(ctx.put(n + 1), lambda _: ctx.pure(value)))


def test_state_contexts_run_nothing_until_given_a_state():
    for ctx in (STATE, PARTIAL_STATE):
        seen = []
        step = adhoc_tp(identity_tp(ctx), INT, lambda v: seen.append(v) or _tick(ctx, v))
        t = term((1, 2), pair_of(INT, INT))
        comp = apply(topdown(step), t)
        assert seen == []
        out = run_state(comp, 0)
        assert seen == [1, 2]
        assert out == ((t, 2) if ctx is STATE else Just((t, 2)))

        def boom(v):
            raise ZeroDivisionError(v)

        comp = apply(adhoc_tp(identity_tp(ctx), INT, boom), term(1))
        with pytest.raises(ZeroDivisionError):
            run_state(comp, 0)


class Foreign(EffectContext):
    """A context with only pure and bind, which strategies do not run in."""

    kind = "foreign"

    def pure(self, value):
        return ("pure", value)

    def bind(self, comp, fn):
        return fn(comp[1])


def test_foreign_contexts_are_refused():
    ctx = Foreign()
    step = TP(ctx, ctx.pure)
    for s in (step, identity_tp(ctx), seq_tp(step, step), identity_tp(StateOver(ctx))):
        with pytest.raises(TypeError, match="foreign"):
            apply(s, term(1))


def test_one_keeps_the_state_of_the_one_success_after_9999_failures():
    registry = Registry()
    _, classes = register_descriptors(registry, "Wide.W : " + " ".join(["Int"] * 10_000))
    registry.freeze()
    wide = registry.term(classes[("Wide", "W")](*range(10_000)))
    ctx = PARTIAL_STATE

    def last_only(v):
        # Every child counts, then all but the last fail.
        return ctx.bind(_tick(ctx, v), lambda _: ctx.pure(-v) if v == 9_999 else ctx.zero())

    out = run_state(apply(one_tp(adhoc_tp(fail_tp(ctx), INT, last_only)), wide), 100)
    new, state = out.value
    assert state == 101
    assert (new.value.f0, new.value.f9998, new.value.f9999) == (0, 9_998, -9_999)
    out = run_state(apply(one_tu(adhoc_tu(fail_tu(ctx), INT, last_only)), wide), 100)
    assert out == Just((-9_999, 101))


def test_choice_restores_state_deep_inside_a_traversal():
    # At each of 10,000 cons cells and ints the first branch counts then
    # fails; only the second branch's count on ints may survive.
    ctx = PARTIAL_STATE
    count_then_fail = TP(ctx, lambda t: ctx.bind(_tick(ctx, t), lambda _: ctx.zero()))
    count_ints = adhoc_tp(identity_tp(ctx), INT, lambda v: _tick(ctx, v))
    t = term(list(range(10_000)), list_of(INT))
    out = run_state(apply(topdown(choice_tp(count_then_fail, count_ints)), t), 0)
    assert out.value[1] == 10_000
    assert out.value[0].value == list(range(10_000))


def test_a_step_may_apply_strategies_itself():
    t = term([(1, 2), (3, 4)], list_of(pair_of(INT, INT)))
    inner = topdown(inc_int(identity_tp(IDENTITY)))
    step = TP(IDENTITY, lambda t: apply(inner, t))
    assert apply(all_tp(step), t).value == [(2, 3), (4, 5)]
    counter = topdown(adhoc_tp(identity_tp(STATE), INT, lambda v: _tick(STATE, v)))
    step = TP(STATE, lambda t: apply(counter, t))
    out, state = run_state(apply(topdown(step), t), 0)
    assert out.value == [(1, 2), (3, 4)]
    # Each int counts once for itself and once for every node above it.
    assert state == 3 + 3 + 4 + 4
