"""Traversal schemes: visit order, cut-off, normal forms, environments."""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen_terms
from oracles import collect_ints, collect_strings, first_success, preorder
from strategem import strategies
from strategem.effects import (
    IDENTITY,
    INT_SUM,
    LIST_CONCAT,
    NOTHING,
    PARTIAL,
    PARTIAL_STATE,
    SET_UNION,
    STATE,
    EffectMorphism,
    Just,
    Monoid,
    StateOver,
    identity_morphism,
    partial_to_identity,
    run_state,
    supports_failure,
    supports_state,
    unlift_state,
)
from strategem.minilang import (
    DECL,
    EXPR,
    MODULE,
    PATTERN,
    TYPE,
    App,
    FunBind,
    Lam,
    Let,
    LitInt,
    Module,
    PVar,
    TyCon,
    TypeSyn,
    Var,
    parse,
    to_term,
)
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
    fail_tp,
    fail_tu,
    identity_tp,
    msubst_tp,
    msubst_tu,
    one_tp,
    seq_tp,
    seq_tu,
    tp_ops,
    tu_ops,
)
from strategem.terms import (
    BOOL,
    INT,
    STR,
    Registry,
    Term,
    UnregisteredType,
    children,
    list_of,
    optional_of,
    pair_of,
    rebuild,
    register_descriptors,
    term,
    validate_term,
)
from test_analyses import Opaque
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

CORPUS = Path(__file__).parent / "corpus"


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Plus:
    left: Arith
    right: Arith


Arith = Num | Plus

ARITHS = Registry()
ARITH = ARITHS.derive({"Arith": [Num, Plus]})["Arith"]
ARITHS.freeze()


def nested_pair():
    # (1, ([2], 3)) with every component in the term view.
    inner = pair_of(list_of(INT), INT)
    return term((1, ([2], 3)), pair_of(INT, inner))


def inc_ints_step(ctx):
    return adhoc_tp(identity_tp(ctx), INT, lambda v: ctx.pure(v + 1))


def grab_ints():
    return adhoc_tu(build_tu(IDENTITY, []), INT, lambda v: IDENTITY.pure([v]))


def grab_strs():
    return adhoc_tu(build_tu(IDENTITY, []), STR, lambda v: IDENTITY.pure([v]))


def _label(t):
    return (t.tag.name, repr(t.value))


def _logger():
    def run(t):
        return STATE.bind(
            STATE.get(),
            lambda log: STATE.bind(STATE.put(log + (_label(t),)), lambda _: STATE.pure(t)),
        )

    return TP(STATE, run)


def _postorder(t):
    for kid in children(t):
        yield from _postorder(kid)
    yield t


# Visit order.


def test_topdown_visits_in_preorder():
    t = ARITHS.term(Plus(Plus(Num(1), Num(2)), Num(3)))
    out, log = run_state(apply(topdown(_logger()), t), ())
    assert out == t
    assert list(log) == [_label(x) for x in preorder(t)]


def test_bottomup_visits_in_postorder():
    t = ARITHS.term(Plus(Plus(Num(1), Num(2)), Num(3)))
    out, log = run_state(apply(bottomup(_logger()), t), ())
    assert out == t
    assert list(log) == [_label(x) for x in _postorder(t)]


def test_topdown_increments_every_int():
    out = apply(topdown(inc_ints_step(IDENTITY)), nested_pair())
    assert out.value == (2, ([3], 4))


def test_topdown_and_bottomup_agree_on_independent_rules():
    t = nested_pair()
    s = inc_ints_step(IDENTITY)
    assert apply(topdown(s), t) == apply(bottomup(s), t)


# One-hit schemes.


def test_once_td_hits_the_first_preorder_match():
    bump = adhoc_tp(fail_tp(PARTIAL), INT, lambda v: PARTIAL.pure(v + 100))
    out = apply(once_td(bump), nested_pair())
    assert out == Just(term((101, ([2], 3)), nested_pair().tag))


def test_once_td_matches_the_preorder_oracle():
    t = to_term(parse((CORPUS / "funs.ml0").read_text()))
    probe = adhoc_tu(fail_tu(PARTIAL), STR, lambda v: PARTIAL.pure(v))
    got = apply(once_td(probe), t)
    expected = first_success(lambda sub: sub.value if sub.tag is STR else None, t)
    assert got == Just(expected[1])


def test_once_bu_prefers_the_deepest_leftmost_match():
    t = ARITHS.term(Plus(Num(1), Num(2)))
    probe = adhoc_tu(fail_tu(PARTIAL), ARITH, lambda v: PARTIAL.pure(v))
    assert apply(once_td(probe), t) == Just(Plus(Num(1), Num(2)))
    assert apply(once_bu(probe), t) == Just(Num(1))


def test_once_fails_when_nothing_matches():
    probe = adhoc_tu(fail_tu(PARTIAL), STR, lambda v: PARTIAL.pure(v))
    t = ARITHS.term(Plus(Num(1), Num(2)))
    assert apply(once_td(probe), t) is NOTHING
    assert apply(once_bu(probe), t) is NOTHING


# Cut-off schemes.


def _strip_let():
    def step(v):
        if isinstance(v, Let):
            return PARTIAL.pure(v.body)
        return NOTHING

    return adhoc_tp(fail_tp(PARTIAL), EXPR, step)


def test_stop_td_does_not_descend_below_a_success():
    e = Let("x", LitInt(1), Let("y", LitInt(2), Var("z")))
    out = apply(stop_td(_strip_let()), to_term(e, EXPR))
    assert out == Just(to_term(Let("y", LitInt(2), Var("z")), EXPR))


def test_stop_td_rewrites_each_topmost_match():
    e = App(Let("x", LitInt(1), Var("a")), Let("y", LitInt(2), Var("b")))
    out = apply(stop_td(_strip_let()), to_term(e, EXPR))
    assert out == Just(to_term(App(Var("a"), Var("b")), EXPR))


def test_stop_td_with_failing_step_is_identity():
    t = nested_pair()
    assert apply(stop_td(fail_tp(PARTIAL)), t) == Just(t)


def test_stop_td_tu_cuts_below_successes():
    def step(v):
        if isinstance(v, Lam):
            return PARTIAL.pure(["lam"])
        if isinstance(v, Var):
            return PARTIAL.pure([v.name])
        return NOTHING

    s = adhoc_tu(fail_tu(PARTIAL), EXPR, step)
    e = App(Lam(PVar("p"), Var("hidden")), Var("y"))
    out = apply(stop_td_tu(s, LIST_CONCAT), to_term(e, EXPR))
    assert out == Just(["lam", "y"])


# Recovery and repetition.


def test_try_keeps_the_term_on_failure():
    t = term("s")
    assert apply(try_(fail_tp(PARTIAL)), t) == Just(t)
    bump = adhoc_tp(fail_tp(PARTIAL), INT, lambda v: PARTIAL.pure(v + 1))
    assert apply(try_(bump), term(1)) == Just(term(2))


def test_repeat_applies_until_failure():
    def step(v):
        return PARTIAL.pure(v - 1) if v > 0 else NOTHING

    countdown = adhoc_tp(fail_tp(PARTIAL), INT, step)
    assert apply(repeat_(countdown), term(3)) == Just(term(0))
    assert apply(repeat_(countdown), term(0)) == Just(term(0))
    assert apply(repeat_(countdown), term("s")) == Just(term("s"))


# Normalization.


def _zero_rule():
    def step(v):
        if isinstance(v, Plus) and v.left == Num(0):
            return PARTIAL.pure(v.right)
        return NOTHING

    return adhoc_tp(fail_tp(PARTIAL), ARITH, step)


def test_innermost_reaches_the_normal_form():
    t = ARITHS.term(Plus(Num(0), Plus(Num(0), Num(5))))
    assert apply(innermost(_zero_rule()), t) == Just(ARITHS.term(Num(5)))
    t = ARITHS.term(Plus(Plus(Num(0), Num(0)), Num(7)))
    assert apply(innermost(_zero_rule()), t) == Just(ARITHS.term(Num(7)))


def test_innermost_leaves_no_redex_behind():
    t = ARITHS.term(Plus(Num(0), Plus(Plus(Num(0), Num(1)), Num(0))))
    out = apply(innermost(_zero_rule()), t)
    assert isinstance(out, Just)
    assert apply(once_td(_zero_rule()), out.value) is NOTHING


def test_innermost_is_identity_without_redexes():
    t = ARITHS.term(Plus(Num(1), Num(2)))
    assert apply(innermost(_zero_rule()), t) == Just(t)


# Deep collection.


def test_crush_collects_in_preorder():
    assert apply(crush(grab_ints(), LIST_CONCAT), nested_pair()) == [1, 2, 3]


def test_crush_matches_the_reference_walkers():
    for name in ("funs.ml0", "nested.ml0", "data.ml0"):
        m = parse((CORPUS / name).read_text())
        t = to_term(m)
        assert apply(crush(grab_ints(), LIST_CONCAT), t) == collect_ints(m)
        assert apply(crush(grab_strs(), LIST_CONCAT), t) == collect_strings(m)


# Selection.


def test_select_returns_the_first_holding_analysis():
    t = to_term(parse((CORPUS / "strings.ml0").read_text()))
    probe = adhoc_tu(fail_tu(PARTIAL), STR, lambda v: PARTIAL.pure(v))
    got = apply(select(probe), t)
    expected = first_success(lambda sub: sub.value if sub.tag is STR else None, t)
    assert got == Just(expected[1])


def test_select_fails_only_if_the_analysis_fails_everywhere():
    t = ARITHS.term(Plus(Num(1), Num(2)))
    probe = adhoc_tu(fail_tu(PARTIAL), STR, lambda v: PARTIAL.pure(v))
    assert apply(select(probe), t) is NOTHING
    sometimes = adhoc_tu(fail_tu(PARTIAL), INT, lambda v: PARTIAL.pure(v))
    assert apply(select(sometimes), t) == Just(1)


def test_selectenv_with_a_constant_environment_is_select():
    t = to_term(parse((CORPUS / "funs.ml0").read_text()))
    probe = lambda env: adhoc_tu(fail_tu(PARTIAL), STR, lambda v: PARTIAL.pure((env, v)))
    got = apply(selectenv("e", lambda env, node: env, probe), t)
    plain = apply(select(probe("e")), t)
    assert got == plain


def test_selectenv_builds_the_root_strategy_once():
    envs = []

    def probe(env):
        envs.append(env)
        return fail_tu(PARTIAL)

    selectenv(0, lambda e, t: e + 1, probe)
    assert envs == [0]


def test_selectenv_threads_depth_along_the_descent():
    probe = lambda d: adhoc_tu(
        fail_tu(PARTIAL), INT, lambda v: PARTIAL.pure(v) if d == 2 else NOTHING
    )
    got = apply(selectenv(0, lambda d, node: d + 1, probe), nested_pair())
    # The only Int at depth two in (1, ([2], 3)) is the 3.
    assert got == Just(3)


def test_selectenv_tracks_binders():
    def update(env, node):
        v = node.value
        if node.tag is EXPR and isinstance(v, Lam) and isinstance(v.param, PVar):
            return env | {v.param.name}
        return env

    def bound_var(env):
        def step(v):
            if isinstance(v, Var) and v.name in env:
                return PARTIAL.pure(v.name)
            return NOTHING

        return adhoc_tu(fail_tu(PARTIAL), EXPR, step)

    e = Lam(PVar("x"), App(Var("add"), Var("x")))
    got = apply(selectenv(frozenset(), update, bound_var), to_term(e, EXPR))
    assert got == Just("x")
    free_only = App(Var("add"), Var("y"))
    assert apply(selectenv(frozenset(), update, bound_var), to_term(free_only, EXPR)) is NOTHING


# Free names as a scheme.


def _lam_refs():
    def step(v):
        return IDENTITY.pure(frozenset({v.name}) if isinstance(v, Var) else frozenset())

    return adhoc_tu(build_tu(IDENTITY, frozenset()), EXPR, step)


def _lam_decs():
    def step(v):
        if isinstance(v, Lam) and isinstance(v.param, PVar):
            return IDENTITY.pure(frozenset({v.param.name}))
        return IDENTITY.pure(frozenset())

    return adhoc_tu(build_tu(IDENTITY, frozenset()), EXPR, step)


def test_free_names_subtracts_bound_names():
    s = free_names(_lam_refs(), _lam_decs())
    e = Lam(PVar("x"), App(App(Var("add"), Var("x")), Var("y")))
    assert apply(s, to_term(e, EXPR)) == frozenset({"add", "y"})


def test_free_names_scopes_binders_locally():
    s = free_names(_lam_refs(), _lam_decs())
    e = App(Lam(PVar("x"), Var("x")), Var("x"))
    assert apply(s, to_term(e, EXPR)) == frozenset({"x"})
    closed = Lam(PVar("x"), Var("x"))
    assert apply(s, to_term(closed, EXPR)) == frozenset()


# The scheme behind the schemes.


def test_traverse_meta_reads_as_topdown():
    ops = tp_ops()
    s = inc_ints_step(IDENTITY)
    t = nested_pair()
    assert apply(traverse_meta(ops.seq, ops.all, s), t) == apply(topdown(s), t)


def test_traverse_meta_reads_as_crush():
    ops = tu_ops(LIST_CONCAT)
    t = to_term(parse((CORPUS / "funs.ml0").read_text()))
    got = apply(traverse_meta(ops.seq, ops.all, grab_ints()), t)
    assert got == apply(crush(grab_ints(), LIST_CONCAT), t)


def test_traverse_meta_reads_as_once_td():
    ops = tp_ops()
    bump = adhoc_tp(fail_tp(PARTIAL), INT, lambda v: PARTIAL.pure(v + 100))
    t = nested_pair()
    assert apply(traverse_meta(ops.choice, ops.one, bump), t) == apply(once_td(bump), t)


# Local state.


def _stamp():
    ctx = STATE

    def step(v):
        return ctx.bind(ctx.get(), lambda n: ctx.bind(ctx.put(n + 1), lambda _: ctx.pure(n)))

    return adhoc_tp(identity_tp(ctx), INT, step)


def test_local_state_hides_the_counter():
    s = local_state(10, topdown(_stamp()))
    assert s.context == IDENTITY
    out = apply(s, nested_pair())
    assert out.value == (10, ([11], 12))


def test_local_state_restarts_per_application():
    s = local_state(0, topdown(_stamp()))
    first = apply(s, nested_pair())
    second = apply(s, nested_pair())
    assert first == second


def test_local_state_on_stateless_strategy_is_inert():
    s = local_state(0, topdown(inc_ints_step(STATE)))
    plain = topdown(inc_ints_step(IDENTITY))
    t = nested_pair()
    assert apply(s, t) == apply(plain, t)


def test_local_state_on_an_analysis():
    ctx = STATE

    def step(v):
        return ctx.bind(ctx.get(), lambda n: ctx.bind(ctx.put(n + 1), lambda _: ctx.pure([(n, v)])))

    s = local_state(10, crush(adhoc_tu(build_tu(ctx, []), INT, step), LIST_CONCAT))
    assert isinstance(s, TU) and s.context == IDENTITY
    assert apply(s, nested_pair()) == [(10, 1), (11, 2), (12, 3)]


def test_local_state_rejects_stateless_contexts():
    with pytest.raises(TypeError):
        local_state(0, identity_tp(IDENTITY))


def test_local_state_over_partial():
    ctx = PARTIAL_STATE

    def step(v):
        return ctx.bind(ctx.get(), lambda n: ctx.bind(ctx.put(n + 1), lambda _: ctx.pure(n)))

    s = local_state(5, topdown(adhoc_tp(identity_tp(ctx), INT, step)))
    assert s.context == PARTIAL
    assert isinstance(s.context, StateOver) is False
    out = apply(s, nested_pair())
    assert out == Just(term((5, ([6], 7)), nested_pair().tag))


# Pruning: a traversal skips the subterms whose datatype reaches no tag of
# its adhoc layers, where its strategy is known to give what skipping gives.


@dataclass(frozen=True)
class Box:
    inner: object


@dataclass(frozen=True)
class Wrap:
    leaf: object


@dataclass(frozen=True)
class Leaf:
    n: int


def test_an_undefined_datatype_prunes_nothing_until_defined():
    reg = Registry()
    box, wrap, leaf = (reg.declare(name) for name in ("Box", "Wrap", "Leaf"))
    reg.define(box, [(Box, (wrap,))])
    count = crush(adhoc_tu(build_tu(IDENTITY, 0), leaf, lambda _v: IDENTITY.pure(1)), INT_SUM)
    t = reg.term(Box(Wrap(Leaf(1))))
    # What Wrap holds is not known yet, so the traversal enters it.
    with pytest.raises(UnregisteredType):
        apply(count, t)
    reg.define(wrap, [(Wrap, (leaf,))])
    reg.define(leaf, [(Leaf, (INT,))])
    assert apply(count, t) == 1


def test_an_undefined_datatype_is_skipped_once_defined():
    # While Wrap is undefined the layer enters a Wrap kid and keeps no
    # answer for it; once Wrap is defined to hold no Leaf, the same layer
    # skips the kid, so it never meets the unregistered value inside.
    reg = Registry()
    box, wrap, leaf = (reg.declare(name) for name in ("Box", "Wrap", "Leaf"))
    reg.define(box, [(Box, (wrap,))])
    reg.define(leaf, [(Leaf, (INT,))])
    count = crush(adhoc_tu(build_tu(IDENTITY, 0), leaf, lambda _v: IDENTITY.pure(1)), INT_SUM)
    t = reg.term(Box(Opaque()))
    with pytest.raises(UnregisteredType):
        apply(count, t)
    reg.define(wrap, [(Wrap, (INT,))])
    assert apply(count, t) == 0


def test_a_guess_that_holds_only_at_leaves_prunes_nothing():
    # rec = -1 + the product of rec over the kids: 0 at a leaf, -1 at a
    # node whose kids are leaves; a sum of rec over the kids enters each.
    product = Monoid(1, operator.mul)
    rec = traverse_meta(
        tu_ops(INT_SUM).seq, lambda r: all_tu(r, product), build_tu(IDENTITY, -1)
    )
    t = term([[1], []], list_of(list_of(INT)))
    assert apply(all_tu(rec, INT_SUM), t) == -2


def test_a_fault_in_the_strategy_read_is_not_hidden(monkeypatch):
    # A fault where a layer decides what to skip reaches the caller.
    def broken(tag):
        raise KeyError("broken read")

    monkeypatch.setattr(strategies, "_reach", broken)
    with pytest.raises(KeyError, match="broken read"):
        apply(topdown(inc_ints_step(IDENTITY)), nested_pair())


class Tally:
    """An int sum whose == refuses to compare."""

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        raise TypeError("a Tally does not compare")


def test_a_result_whose_eq_raises_still_folds():
    tally = Monoid(Tally(0), lambda a, b: Tally(a.n + b.n))
    count = crush(adhoc_tu(build_tu(IDENTITY, Tally(0)), INT, lambda v: IDENTITY.pure(Tally(v))), tally)
    t = term([(["a"], 1), (["b", "c"], 2)], list_of(pair_of(list_of(STR), INT)))
    assert apply(count, t).n == 3


def test_a_monoid_whose_append_raises_on_its_first_call_still_folds():
    calls = []

    def append(a, b):
        calls.append((a, b))
        if len(calls) == 1:
            raise ValueError("the first append fails")
        return a + b

    count = crush(adhoc_tu(build_tu(IDENTITY, 0), INT, IDENTITY.pure), Monoid(0, append))
    t = term([(["a"], 1), (["b", "c"], 2)], list_of(pair_of(list_of(STR), INT)))
    assert apply(count, t) == 3


def opaque_module(rhs=None):
    """A module whose synonym's type, by default, fails a traversal entering it."""
    rhs = Opaque() if rhs is None else rhs
    return to_term(Module("M", (TypeSyn("T", rhs), FunBind("f", (), LitInt(1)))))


def function_of(module):
    """The function binding of an `opaque_module`, after a traversal."""
    return module.value.decls[1]


# The read behind pruning takes each self-reference met again below an
# all/one to give the empty result of the innermost one, and checks that
# its body gives that too.  Where the read holds, no layer enters the type.


def test_nested_topdowns_prune():
    s = inc_ints_step(IDENTITY)
    for _ in range(12):
        s = topdown(s)
    plain = apply(s, opaque_module(TyCon("Int")))
    assert function_of(apply(s, opaque_module())) == function_of(plain) != FunBind("f", (), LitInt(1))


def test_a_strategy_shared_at_two_places_prunes_at_any_depth():
    # Each node is read once, where it is built, however often it is shared.
    s = inc_ints_step(IDENTITY)
    for _ in range(16):
        s = topdown(seq_tp(s, s))
    t = to_term(TypeSyn("T", Opaque()), DECL)
    assert apply(s, t) is t


def test_a_self_reference_assumes_the_innermost_empty_result():
    # once_td's self-reference gives failure, the empty result of its one,
    # not the term itself, that of topdown's all_tp, even where it is met
    # below both; crush's gives 0 below its all_tu, and topdown's the term
    # itself below its all_tp.
    bump = adhoc_tp(fail_tp(PARTIAL), INT, lambda v: PARTIAL.pure(v + 1))
    for s in (topdown(try_(once_td(bump))), topdown(all_tp(try_(once_td(bump))))):
        plain = apply(s, opaque_module(TyCon("Int"))).value
        assert function_of(apply(s, opaque_module()).value) == function_of(plain) != FunBind("f", (), LitInt(1))
    count = adhoc_tu(build_tu(IDENTITY, 0), INT, IDENTITY.pure)
    s = crush(seq_tu(topdown(inc_ints_step(IDENTITY)), count), INT_SUM)
    assert apply(s, opaque_module()) == 2


# Pruned and unpruned runs agree.  The unpruned run is the same strategy
# with its default written as a step, which the pruning analysis cannot
# read, so it skips nothing.

_TREES = Registry()
_TREE_TAGS, _TREE_CLASSES = register_descriptors(
    _TREES,
    """
    Tree.Leaf : Int
    Tree.Tip :
    Tree.Node : Tree Str Tree
    Tree.Bag : List(Opt(Tree)) Pair(Bool,Int)
    """,
)
_TREES.freeze()
TREE = _TREE_TAGS["Tree"]
_T = {con: cls for (_, con), cls in _TREE_CLASSES.items()}

_small_ints = st.integers(-3, 40)
_trees = st.recursive(
    st.builds(_T["Leaf"], _small_ints) | st.builds(_T["Tip"]),
    lambda inner: st.builds(_T["Node"], inner, st.text("ab", max_size=2), inner)
    | st.builds(
        _T["Bag"],
        st.lists(st.none() | inner, max_size=3),
        st.tuples(st.booleans(), _small_ints),
    ),
    max_leaves=8,
)

_terms = st.one_of(
    st.one_of(gen_terms.modules, gen_terms.decls, gen_terms.exprs, gen_terms.types).map(to_term),
    st.lists(st.tuples(st.booleans(), _small_ints)).map(
        lambda v: term(v, list_of(pair_of(BOOL, INT)))
    ),
    st.lists(st.none() | _small_ints).map(lambda v: term(v, list_of(optional_of(INT)))),
    st.tuples(
        st.text("xy", max_size=3), st.lists(st.lists(_small_ints, max_size=3), max_size=3)
    ).map(lambda v: term(v, pair_of(STR, list_of(list_of(INT))))),
    _trees.map(lambda v: term(v, TREE)),
)

_TARGETS = (INT, STR, BOOL, MODULE, DECL, EXPR, TYPE, PATTERN, TREE)


def _identity(ctx, opaque):
    return TP(ctx, ctx.pure) if opaque else identity_tp(ctx)


def _build(value):
    def default(ctx, opaque):
        return TU(ctx, lambda _t: ctx.pure(value)) if opaque else build_tu(ctx, value)

    return default


def _fail(kind):
    def default(ctx, opaque):
        if opaque:
            return kind(ctx, lambda _t: ctx.zero())
        return fail_tp(ctx) if kind is TP else fail_tu(ctx)

    return default


def _layers(default, tags, fn):
    # One adhoc layer per tag, each running `fn(value, calls so far)`: a
    # state context counts the calls, and None from `fn` is failure.
    ctx = default.context
    adhoc = adhoc_tp if isinstance(default, TP) else adhoc_tu

    def result(v, n):
        out = fn(v, n)
        return ctx.zero() if out is None else ctx.pure(out)

    def step(v):
        if not supports_state(ctx):
            return result(v, 0)
        return ctx.bind(ctx.get(), lambda n: ctx.bind(ctx.put(n + 1), lambda _: result(v, n)))

    s = default
    for tag in tags:
        s = adhoc(s, tag, step)
    return s


def _size(v):
    return len(repr(v))


def _bump(v, n):
    # A value of the same datatype, changed where that is easy.
    if type(v) is bool:
        return not v
    if type(v) is int:
        return v + 1 + n
    if type(v) is str:
        return v + "'"
    return v


def _shrink(v, n):
    # A terminating rewrite rule for innermost; it fails on everything else.
    if type(v) is bool:
        return False if v else None
    if type(v) is int:
        return v // 2 if v > 0 else None
    if type(v) is str:
        return v[1:] if v else None
    return None


def _partly(fn):
    # `fn` where the value's repr has a length not divisible by 3, else failure.
    return lambda v, n: fn(v, n) if _size(v) % 3 else None


def _count(v, n):
    return _size(v) + n


def _bucket(v, n):
    return frozenset({(_size(v) + n) % 11})


def _meta(combine, descend):
    return lambda s: traverse_meta(combine, descend, s)


# name: (needs failure, default, step, scheme); the step's layers go over
# the default, the scheme over the layers.
_SCHEMES = {
    "topdown": (False, _identity, _bump, topdown),
    "topdown-partly": (True, _identity, _partly(_bump), topdown),
    "bottomup": (False, _identity, _bump, bottomup),
    "crush-sum": (False, _build(0), _count, lambda s: crush(s, INT_SUM)),
    "crush-union": (False, _build(frozenset()), _bucket, lambda s: crush(s, SET_UNION)),
    "once_td": (True, _fail(TP), _partly(_bump), once_td),
    "stop_td": (True, _fail(TP), _partly(_bump), stop_td),
    "stop_td_tu": (True, _fail(TU), _partly(_count), lambda s: stop_td_tu(s, INT_SUM)),
    "innermost": (True, _fail(TP), _shrink, innermost),
    "select": (True, _fail(TU), _partly(_count), select),
    "free_names": (False, _build(frozenset()), _bucket, lambda s: free_names(s, s)),
    # Where a skipped subterm would not give what skipping gives.
    "crush-count": (False, _build(1), _count, lambda s: crush(s, INT_SUM)),
    "topdown-fail": (True, _fail(TP), _bump, topdown),
    "all-all-fail": (True, _fail(TP), _bump, lambda s: all_tp(all_tp(s))),
    "all-all-count": (False, _build(1), _count, lambda s: all_tu(all_tu(s, INT_SUM), INT_SUM)),
    "one-one": (True, _identity, _bump, lambda s: one_tp(one_tp(s))),
    # A self-reference not directly below its layer: read through the cond
    # on it in "all-all-self", and as unknown in the others.  With a total
    # strategy the nested topdown's work is exponential in depth.
    "all-try-self": (True, _identity, _bump, _meta(seq_tp, lambda r: all_tp(try_(r)))),
    "one-try-self": (True, _fail(TP), _partly(_bump), _meta(choice_tp, lambda r: one_tp(try_(r)))),
    "one-seq-self": (
        True,
        _fail(TP),
        _partly(_bump),
        _meta(choice_tp, lambda r: one_tp(seq_tp(r, identity_tp(r.context)))),
    ),
    "all-topdown-self": (True, _fail(TP), _partly(_bump), _meta(seq_tp, lambda r: all_tp(topdown(r)))),
    "all-all-self": (False, _identity, _bump, _meta(seq_tp, lambda r: all_tp(all_tp(r)))),
}



def _cases(schemes):
    return [
        (name, ctx)
        for name, (needs_failure, *_) in schemes.items()
        for ctx in (IDENTITY, PARTIAL, STATE, PARTIAL_STATE)
        if supports_failure(ctx) or not needs_failure
    ]


_CASES = _cases(_SCHEMES)


def _outcome(s, t):
    got = apply(s, t)
    return run_state(got, 0) if supports_state(s.context) else got


@settings(deadline=None)
@given(t=_terms, tags=st.lists(st.sampled_from(_TARGETS), min_size=1, max_size=2, unique=True))
def test_pruned_and_unpruned_runs_agree(t, tags):
    for name, ctx in _CASES:
        _, default, step, scheme = _SCHEMES[name]
        pruned, unpruned = (
            _outcome(scheme(_layers(default(ctx, opaque), tags, step)), t)
            for opaque in (False, True)
        )
        assert pruned == unpruned, (name, ctx)


# Planned runs agree with cell-by-cell runs on long lists.  A transparent
# default is planned per datatype, and a layer that plans itself at a
# list's own datatype walks the list's elements in one frame; an opaque
# default plans nothing, so its layers walk a list one cons cell at a time.
# The `*-self` shapes are left out, since their work is exponential in
# depth.  "crush-order" folds with a monoid that does not commute: the
# hash of the sequence of its words, each a (number, 1) pair, so the order
# of its appends shows.  In "once_td-seq" an element's strategy can count
# a call and then fail, and whether a step fails depends on the count, so
# the search must restore the state it started the element from.

_P = 2**61 - 1
_WORDS = Monoid((0, 0), lambda a, b: ((a[0] * pow(31, b[1], _P) + b[0]) % _P, a[1] + b[1]))

_LONG_SCHEMES = {
    **{name: scheme for name, scheme in _SCHEMES.items() if not name.endswith("-self")},
    "crush-order": (False, _build((0, 0)), lambda v, n: (_count(v, n), 1), lambda s: crush(s, _WORDS)),
    "once_td-seq": (
        True,
        _fail(TP),
        lambda v, n: _bump(v, n) if (_size(v) + n) % 3 else None,
        lambda s: once_td(seq_tp(s, s)),
    ),
}
_LONG_CASES = _cases(_LONG_SCHEMES)

_ITEMS = {
    list_of(INT): lambda rng: rng.randint(-3, 40),
    list_of(pair_of(BOOL, INT)): lambda rng: (rng.random() < 0.5, rng.randint(-3, 40)),
    list_of(optional_of(INT)): lambda rng: None if rng.random() < 0.3 else rng.randint(-3, 40),
    list_of(list_of(INT)): lambda rng: [rng.randint(-3, 40) for _ in range(rng.randint(0, 3))],
}


def _rebuilt(t, cells):
    # `t` rebuilt around its first `cells` cons cells, as a traversal leaves it.
    kids = children(t)
    if not cells or not kids:
        return t
    return rebuild(t, (kids[0], _rebuilt(kids[1], cells - 1)))


@st.composite
def _long_lists(draw):
    # A list of 10^3 to 2*10^4 items held in a list or a tuple, as it is,
    # as the tail view below its first cell, or rebuilt around its first cells.
    tag = draw(st.sampled_from(list(_ITEMS)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    items = [_ITEMS[tag](rng) for _ in range(draw(st.integers(1_000, 20_000)))]
    t = term(tuple(items) if draw(st.booleans()) else items, tag)
    form = draw(st.sampled_from(("value", "tail", "cons")))
    if form == "tail":
        return children(t)[1]
    return _rebuilt(t, draw(st.integers(1, 50))) if form == "cons" else t


# Five examples, and twenty under the ci profile's 500.
@settings(deadline=None, max_examples=max(5, settings.default.max_examples // 25))
@given(t=_long_lists(), tags=st.lists(st.sampled_from((INT, BOOL, STR)), min_size=1, max_size=2, unique=True))
def test_planned_runs_agree_with_cell_by_cell_runs_on_long_lists(t, tags):
    for name, ctx in _LONG_CASES:
        _, default, step, scheme = _LONG_SCHEMES[name]
        planned, cells = (
            _outcome(scheme(_layers(default(ctx, opaque), tags, step)), t) for opaque in (False, True)
        )
        assert planned == cells, (name, ctx)


# A strategy moved along a library morphism runs in the loop around it, and
# along any other morphism in a nested loop; both give the same outcome.
# The per-node strategy of every scheme above is moved, in each context the
# morphism accepts; a fresh local state starts at 100, an outer one at 0.

_MORPHISMS = (
    *(identity_morphism(ctx) for ctx in (IDENTITY, PARTIAL, STATE, PARTIAL_STATE)),
    partial_to_identity(None),
    unlift_state(STATE, 100),
    unlift_state(PARTIAL_STATE, 100),
    unlift_state(StateOver(STATE), 100),
)


def _unknown(m):
    # The same morphism with a `run` the library does not recognise.
    return EffectMorphism(m.source, m.target, lambda comp: m.run(comp))


@settings(deadline=None)
@given(t=_terms, tags=st.lists(st.sampled_from(_TARGETS), min_size=1, max_size=2, unique=True))
def test_library_morphisms_agree_with_unknown_ones(t, tags):
    for name, (needs_failure, default, step, scheme) in _SCHEMES.items():
        for m in _MORPHISMS:
            if needs_failure and not supports_failure(m.target):
                continue
            s = _layers(default(m.source, False), tags, step)
            msubst = msubst_tp if isinstance(s, TP) else msubst_tu
            known, unknown = (_outcome(scheme(msubst(m2, s)), t) for m2 in (m, _unknown(m)))
            assert known == unknown, (name, m.source, m.target)


# A layer rebuilds a term around its new kids without checking them, which
# is sound only if every TP result is a valid term of its input's datatype.


@settings(deadline=None)
@given(t=_terms, tags=st.lists(st.sampled_from(_TARGETS), min_size=1, max_size=2, unique=True))
def test_a_transformation_gives_a_valid_term_of_its_input_datatype(t, tags):
    for name, ctx in _CASES:
        _, default, step, scheme = _SCHEMES[name]
        for opaque in (False, True):
            s = scheme(_layers(default(ctx, opaque), tags, step))
            if not isinstance(s, TP):
                continue
            got = _outcome(s, t)
            if got is NOTHING:
                continue
            if supports_failure(ctx):
                got = got.value
            if supports_state(ctx):
                got = got[0]
            assert isinstance(got, Term) and got.tag is t.tag, (name, ctx)
            validate_term(got)
