"""Strategy combinators.

A strategy is a first-class generic function on terms.  Two kinds exist:

  * TP (type-preserving): maps a term to a computation of a term of the
    same datatype; used for transformations.
  * TU (type-unifying): maps a term to a computation of one fixed result
    type; used for analyses.

Both kinds carry the effect context their computations live in.  Apply a
strategy with `apply`; everything else builds strategies from strategies.
All of them refuse anything but a strategy of the kind they need
(`TypeError`) and strategies of mixed contexts (`ValueError`), down to
the node a strategy wraps.  The basic vocabulary:

  identity_tp, build_tu     generic success
  fail_tp, fail_tu          generic failure (needs a partial context)
  adhoc_tp, adhoc_tu        type-specific customization of a generic default
  seq_tp, seq_tu            sequential composition
  let_tp, let_tu            bind an intermediate analysis result
  choice_tp, choice_tu      committed first-success choice
  all_tp, all_tu            push one layer down: every immediate subterm
  one_tp, one_tu            push one layer down: first subterm that works
  msubst_tp, msubst_tu      move a strategy along an effect morphism

`all` and `one` are one primitive, a one-layer traversal read at both
kinds.  `all` is a one-layer fold over the immediate subterms: `all_tp`
collects the new children and rebuilds the outermost constructor only if
a child changed; `all_tu` starts from the monoid's neutral element and
appends child results left to right.  `one` is a one-layer search that
commits to the leftmost child the strategy succeeds on: `one_tp` rebuilds
around the new child, `one_tu` returns its result.  What the layer gives
on a term without children is its empty result: the term itself for
`all_tp`, the neutral element for `all_tu`, failure for `one`.

Strategies are data run by one loop.  Every combinator builds a small
node, held in the `run` field of its TP or TU, and `_loop` interprets the
nodes with an explicit stack of pending frames, so no traversal recurses
on the Python stack however deep or long its term.  Failure is a sentinel
passed back up the stack.  The states of a state context are a register
tuple, which `choice` and `one` save and restore when a branch fails.  A
node is callable, so `s.run(t)` is `apply(s, t)`.

There is one type-case node: a step per tag over one generic default,
which is a node, a constant or a function of the term.  `identity_tp`,
`build_tu`, `fail_tp` and `fail_tu` are type-cases with no cases whose
default is a constant: the term itself, a value or the failure sentinel.
A `TP(ctx, fn)` or `TU(ctx, fn)` made from a function is one whose
default is `fn`: the loop calls it and reads its computation with the
context's `_read`, as an adhoc step's, and raises `TypeError` where a
TP's `fn` gives no term of its term's datatype.  The strategy a `let`
body returns is checked in the same way when it is chosen.  So a TP node
gives only terms of its input's datatype, and a layer rebuilds through
the view of its term's datatype with no further check.

In a state context `apply` returns a computation that runs nothing until
it is given a state.  Along a library morphism `msubst` is a node: the
strategy's own, a choice of it and the default, or one that puts the
initial state in front of the register.  Along any other it is a
function that applies the strategy in a nested loop, so a recursion
through it is bounded by the Python stack again.

An adhoc layer over a type-case joins its dict from tag to step, so a
chain of adhoc layers over any generic default is one node, which
dispatches with one lookup.  A traversal skips the subterms no adhoc
layer can reach, by one rule: a layer skips a kid where its strategy is
known to give the layer's empty result, since that kid then changes
nothing: `all_tp` keeps it, `all_tu` appends nothing for it and `one`
counts it as a failure.  Each node is read where it is built, from its
parts' readings: the tags of the adhoc layers it can run, and what it
gives on a term whose datatype reaches none of them at any depth.  Where
a layer's strategy gives its empty result there, a kid of such a
datatype is not entered, by one table per layer keyed by the kid's
datatype.  A scheme's self-reference below a layer is assumed to give
the layer's empty result, which holds by induction on the size of the
term once the scheme's body gives it too.  The reading cannot see
through a `let` or a function default, such as an `msubst` along a
user-written morphism, nor where a monoid's append or a result's `==`
raises, nor a self-reference that a choice or seq must decide on at its
own term, or that a nested scheme holds; any of them where the strategy
would run on the kid switches pruning off for that layer.  A datatype
declared but not yet defined may reach anything, so it is always
entered.

Which branch of a type-case runs is fixed by the term's datatype, so each
node is also planned per datatype, on demand and once: its plan at a tag
is the node that remains once the term's datatype is known.  A type-case
without a step for the tag is its default; a seq drops a part that is the
identity, is the failure of a first part that fails, and drops the
neutral element next to a layer of its own append (the monoid's unit
law); a choice drops a part that fails and commits to a first part that
gives a constant; a layer at a datatype without fields is its empty
result; a ref is its body's plan.  A let, an unlift and a function
default are their own plans, and a strategy deeper than `_PLAN_DEPTH`
runs unplanned below that depth.  The loop plans where the term changes:
at `apply`, and at each kid, whose plan the layer's table gives beside
the skip, as None.  Where that table plans the layer itself at its own
list term, the kid of the tail would run the layer again, so the layer
walks the list's elements in one frame instead of one frame per cons
cell: `all_tp` gives one new list, `all_tu` folds the elements left to
right, and `one` commits at the first element that works.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Any, Callable

from .effects import (
    EffectContext,
    EffectMorphism,
    Identity,
    Monoid,
    Partial,
    StateOver,
    supports_failure,
)
from .effects import _FAIL, _recover, _unchanged, _unlift
from .terms import Term, TypeTag, _ListTag, _reach, term

__all__ = [
    "TP",
    "TU",
    "Strategy",
    "apply",
    "identity_tp",
    "build_tu",
    "fail_tp",
    "fail_tu",
    "adhoc_tp",
    "adhoc_tu",
    "seq_tp",
    "seq_tu",
    "let_tp",
    "let_tu",
    "choice_tp",
    "choice_tu",
    "all_tp",
    "all_tu",
    "one_tp",
    "one_tu",
    "msubst_tp",
    "msubst_tu",
    "OverloadedOps",
    "tp_ops",
    "tu_ops",
]


@dataclass(frozen=True)
class TP:
    """Type-preserving strategy: term in, computation of same-typed term out."""

    context: EffectContext
    run: Callable[[Term], Any]


@dataclass(frozen=True)
class TU:
    """Type-unifying strategy: term in, computation of the result type out."""

    context: EffectContext
    run: Callable[[Term], Any]


Strategy = TP | TU


def apply(s: Strategy, t: Term):
    """Apply a strategy to a term, yielding a computation in its context."""
    if not isinstance(t, Term):
        raise TypeError(f"strategies apply to terms, got {t!r}")
    return _node(s)(t)


# The constant default of a type-case that stands for the term it is applied to.
_TERM = object()
# What a reading cannot tell, as the outcome of a function or a let.
_UNKNOWN = object()


class _Node:
    """A strategy as data, run by `_loop`: its context, its kind and its parts.

    Each node is read where it is built, from its parts' readings: `tags`
    are the tags of the adhoc layers it can run, and `out` is what it gives
    on any term whose datatype reaches none of them at any depth: _TERM
    (the term itself), _FAIL, a constant, _UNKNOWN, or a `_Ref` still being
    defined, for whatever that ref gives there.  `conds` are the (ref,
    empty) pairs the reading assumes: that the ref gives the empty result
    of a layer over it at each kid, a smaller term than the layer's.

    `plans` maps a datatype to the node's plan there, the node that remains
    once the term's datatype is known, filled by `plan`; a node that is
    its own plan everywhere (a let, an unlift, a function default) has none.
    """

    __slots__ = ("ctx", "tp", "out", "tags", "conds")  # tp: True for a TP, False for a TU
    plans = None

    def __init__(self, ctx, tp, out=_UNKNOWN, tags=frozenset(), conds=()):
        self.ctx, self.tp, self.out, self.tags, self.conds = ctx, tp, out, tags, conds

    def __call__(self, t):
        return _run(self.ctx, self, t)

    def plan(self, tag, depth=0):
        """The node to run in place of this one on a term of datatype `tag`.

        Below a depth of _PLAN_DEPTH nodes stay themselves, so planning a
        deep strategy does not recurse on the Python stack without bound.
        """
        plans = self.plans
        if plans is None:
            return self
        node = plans.get(tag)
        if node is None:
            if depth == _PLAN_DEPTH:
                return self
            plans[tag] = self  # met again while it is planned: itself
            plans[tag] = node = self._planned(tag, depth + 1)
        return node


# How many nodes deep `plan` looks below the node it is asked for.
_PLAN_DEPTH = 100


def _constant(node):
    # What a type-case with no cases gives (_TERM, _FAIL or a value), or _UNKNOWN.
    return node.out if type(node) is _Adhoc and not node.steps else _UNKNOWN


class _Adhoc(_Node):
    # The type-case: `steps` maps each tag of a chain of adhoc layers to its
    # step, whose value a TP wraps as a term.  Any other tag gets the generic
    # default: `fn`, a function of the term, whose value a TP checks; else the
    # node `default`; else the constant `out`.  `read`: the context's `_read`.
    __slots__ = ("steps", "default", "fn", "read", "plans")

    def __init__(self, ctx, tp, out, default=None, fn=None, steps={}):
        if default is None:
            super().__init__(ctx, tp, out, frozenset(steps))
        else:
            super().__init__(ctx, tp, default.out, default.tags.union(steps), default.conds)
        self.steps, self.default, self.fn, self.read = steps, default, fn, ctx._read
        self.plans = None if fn is not None else {}

    def _planned(self, tag, depth):
        # Without a step for `tag`, the default; a constant is a type-case with no cases.
        if tag in self.steps or not self.steps:
            return self
        if self.default is not None:
            return self.default.plan(tag, depth)
        return _Adhoc(self.ctx, self.tp, self.out)


class _Seq(_Node):
    # `append` is None when `second` runs on the output of `first`, and
    # otherwise a monoid's append of two analyses of the same term.
    __slots__ = ("first", "second", "append", "plans")

    def __init__(self, first, second, append):
        ctx, v = _same_context(first.ctx, second.ctx), first.out
        self.first, self.second, self.append, self.plans = first, second, append, {}
        if v is _FAIL or not _known(v):  # `second` does not run, or may
            super().__init__(ctx, second.tp, v if v is _FAIL else _UNKNOWN, first.tags, first.conds)
            return
        w = second.out  # where append is None, `v` is _TERM
        if append is not None and w is not _FAIL:
            try:
                w = append(v, w) if _known(w) else _UNKNOWN
            except Exception:  # a monoid's append, which is user code
                w = _UNKNOWN
        super().__init__(ctx, second.tp, w, first.tags | second.tags, first.conds + second.conds)

    def _planned(self, tag, depth):
        # A failing first part fails the seq, and an identity part drops out.
        # Next to a layer of the seq's own append, as in `crush`, so does the
        # layer's empty result, the monoid's neutral element.
        first = self.first.plan(tag, depth)
        v = _constant(first)
        if v is _FAIL:
            return first
        if v is _TERM:
            return self.second.plan(tag, depth)
        second, layer = self.second.plan(tag, depth), self.second
        if self.append is None:
            if _constant(second) is _TERM:
                return first
        elif type(layer) is _Layer and layer.append is self.append:
            if _same(v, layer.empty):
                return second
            if _constant(second) is layer.empty:
                return first
        if first is self.first and second is self.second:
            return self
        return _Seq(first, second, self.append)


class _Let(_Node):
    __slots__ = ("analysis", "body")

    def __init__(self, tp, analysis, body):
        super().__init__(analysis.ctx, tp)
        self.analysis, self.body = analysis, body


class _Choice(_Node):
    __slots__ = ("first", "second", "plans")

    def __init__(self, ctx, first, second):
        self.first, self.second, self.plans, v = first, second, {}, first.out
        if v is _FAIL:
            super().__init__(ctx, first.tp, second.out, first.tags | second.tags, first.conds + second.conds)
        else:
            super().__init__(ctx, first.tp, v if _known(v) else _UNKNOWN, first.tags, first.conds)

    def _planned(self, tag, depth):
        # A failing part drops out, and a first part that gives a constant
        # commits, remade in the choice's context where an msubst moved it.
        first = self.first.plan(tag, depth)
        v = _constant(first)
        if v is _FAIL:
            return self.second.plan(tag, depth)
        if v is not _UNKNOWN:
            return first if first.ctx is self.ctx else _Adhoc(self.ctx, self.tp, v)
        second = self.second.plan(tag, depth)
        if _constant(second) is _FAIL:
            return first
        if first is self.first and second is self.second:
            return self
        return _Choice(self.ctx, first, second)


class _Layer(_Node):
    # One-layer traversal, of the kind of `s`.  `empty` is what it gives on a
    # term without kids: _TERM for all_tp, the monoid's neutral for all_tu,
    # _FAIL for one; `append`: the monoid's, for all_tu.
    __slots__ = ("s", "empty", "append", "table", "plans")

    def __init__(self, s, empty, append):
        v, conds = s.out, s.conds
        if type(v) is _Ref:  # assume it gives `empty` at each kid
            v, conds = empty, conds + ((v, empty),)
        ctx = _partial_context(s.ctx) if empty is _FAIL else s.ctx
        super().__init__(ctx, s.tp, empty if _same(v, empty) else _UNKNOWN, s.tags, conds)
        self.s, self.empty, self.append, self.plans = s, empty, append, {}
        self.table = _Table(self)

    def _planned(self, tag, depth):
        # At a datatype with no fields, the layer's empty result.
        if _reach(tag) is not None and not tag.field_types:
            return _Adhoc(self.ctx, self.tp, self.empty)
        return self


class _Unlift(_Node):
    __slots__ = ("s", "initial")  # `s` moved along unlift_state(_, initial)

    def __init__(self, ctx, s, initial):
        super().__init__(ctx, s.tp, s.out, s.tags, s.conds)
        self.s, self.initial = s, initial


class _Ref(_Node):
    __slots__ = ("body",)  # set once the strategy that refers to it exists

    def __init__(self, ctx, tp):
        super().__init__(ctx, tp, self)  # read as itself until its body is read

    def plan(self, tag, depth=0):
        return self.body.plan(tag, depth)


# The frame kind of a result waiting for the next one to append to it.
_APPEND = object()
# The frame kind of a layer walking the elements of a list.
_SPINE = object()


def _loop(node, t, regs):
    """Run `node` at `t` from the state register `regs`.

    Returns the value, or _FAIL, and the register after it.  Frames
    pending a value: (_Seq, node, t) and (_APPEND, append, first result);
    (_Let, node, t); (_Unlift,), which drops the first state; (_Choice,
    second, t, regs), which takes over on failure; [_Layer, node, t, kids,
    i, acc] for kid `i`, which moves on to the next kid the layer's table
    does not skip when kid `i` fails under `one` and when it succeeds under
    `all`, running the table's plan there; and [_SPINE, node, t, kids,
    heads, acc, s] for the head of the cons cell with `kids`, where the
    table plans the layer itself at its list term `t`: it runs the plan `s`
    of the element datatype at each element in turn, `heads` being the
    elements before this one.  `acc` is what the layer carries from kid to
    kid: the register to restore (`one`), the new kids or elements
    (`all_tp`) or the running fold (`all_tu`).  Each value is checked where
    it enters, so a TP layer's new kids fit its term, which it rebuilds
    through its datatype's view; a spine gives one new list under `all_tp`,
    and the cells it walked around the new element under `one_tp`.
    """
    stack = []
    push, pop = stack.append, stack.pop
    while True:
        # Descend: evaluate `node` at `t` until it gives a value `v`.
        while True:
            kind = type(node)
            if kind is _Ref:
                node = node.body
            elif kind is _Seq:
                push((_Seq, node, t))
                node = node.first
            elif kind is _Adhoc:
                step = node.steps.get(t.tag)
                if step is not None:
                    v, regs = node.read(step(t.value), regs)
                    if node.tp and v is not _FAIL:
                        v = term(v, t.tag)
                    break
                if node.fn is not None:
                    v, regs = node.read(node.fn(t), regs)
                    if node.tp and v is not _FAIL and not (isinstance(v, Term) and v.tag is t.tag):
                        raise TypeError(f"{v!r} is not a term of datatype {t.tag.name}")
                    break
                if node.default is None:
                    v = t if node.out is _TERM else node.out
                    break
                node = node.default
            elif kind is _Layer:
                tag, table, i = t.tag, node.table, 0
                if type(tag) is _ListTag and table[tag] is node:
                    # The tail would run this layer again, so one frame walks
                    # the elements instead, from one cons cell to the next.
                    s = table[tag.elem]
                    kids = () if s is None else tag.children(t)
                    if kids:
                        acc = regs if node.empty is _FAIL else [] if node.tp else node.empty
                        push([_SPINE, node, t, kids, [], acc, s])
                        node, t = s, kids[0]
                        continue
                else:
                    kids = tag.children(t)
                    while i < len(kids) and (s := table[kids[i].tag]) is None:
                        i += 1
                if i == len(kids):
                    v = t if node.empty is _TERM else node.empty
                    break
                if node.empty is _FAIL:
                    acc = regs
                else:
                    acc = list(kids) if node.tp else node.empty
                push([_Layer, node, t, kids, i, acc])
                node, t = s, kids[i]
            elif kind is _Choice:
                push((_Choice, node.second, t, regs))
                node = node.first
            elif kind is _Let:
                push((_Let, node, t))
                node = node.analysis
            else:  # _Unlift
                push((_Unlift,))
                regs, node = (node.initial, *regs), node.s
        # Ascend: hand `v` to pending frames until one descends again.
        while stack:
            frame = pop()
            kind = frame[0]
            if kind is _Layer:
                _, node, t, kids, i, acc = frame
                one = node.empty is _FAIL
                if (v is _FAIL) is not one:
                    # A failed kid fails `all`; a kid that works ends `one`.
                    if v is not _FAIL and node.tp:
                        v = t.tag.rebuild(t, kids[:i] + (v,) + kids[i + 1 :])
                    continue
                if one:
                    regs = acc
                elif node.tp:
                    acc[i] = v
                else:
                    acc = frame[5] = node.append(acc, v)
                i, table = i + 1, node.table
                while i < len(kids) and (s := table[kids[i].tag]) is None:
                    i += 1
                if i < len(kids):
                    frame[4] = i
                    push(frame)
                    node, t = s, kids[i]
                    break
                if not one:
                    v = acc
                    if node.tp:
                        v = t.tag.rebuild(t, v) if any(map(is_not, v, kids)) else t
            elif kind is _SPINE:
                _, node, t, kids, heads, acc, s = frame
                one = node.empty is _FAIL
                if (v is _FAIL) is not one:
                    if v is not _FAIL and node.tp:
                        # The cells walked so far, around the new element.
                        v = t.tag.rebuild(t, (v, kids[1]))
                        for head in reversed(heads):
                            v = t.tag.rebuild(t, (head, v))
                    continue
                if one:
                    regs = acc
                elif node.tp:
                    acc.append(v)
                else:
                    acc = frame[5] = node.append(acc, v)
                heads.append(kids[0])
                kids = t.tag.children(kids[1])
                if kids:
                    frame[3] = kids
                    push(frame)
                    node, t = s, kids[0]
                    break
                if not one:
                    v = acc
                    if node.tp:
                        v = t.tag.relist(t, v) if any(map(is_not, v, heads)) else t
            elif v is _FAIL:
                if kind is _Choice:
                    _, node, t, regs = frame
                    break
            elif kind is _Seq:
                node, t = frame[1], frame[2]
                if node.append is None:
                    node, t = node.second, v
                else:
                    push((_APPEND, node.append, v))
                    node = node.second
                break
            elif kind is _APPEND:
                v = frame[1](frame[2], v)
            elif kind is _Let:
                _, let, t = frame
                node = _node(let.body(v), TP if let.tp else TU)
                _same_context(let.ctx, node.ctx)
                break
            elif kind is _Unlift:
                regs = regs[1:]
            # A _Choice frame passes a success on.
        else:
            return v, regs


def _run(ctx, node, t, regs=()):
    # The computation of `ctx` running `node` at `t`: a StateOver layer takes
    # its state first, and the inner context packs the result with the states.
    base = ctx
    while type(base) is StateOver:
        base = base.inner
    if type(base) not in (Identity, Partial):
        raise TypeError(f"strategies run in Identity, Partial or StateOver over those, not {base!r}")
    if type(ctx) is StateOver:
        return lambda s: _run(ctx.inner, node, t, regs + (s,))
    v, regs = _loop(node.plan(t.tag), t, regs)
    if v is _FAIL:
        return ctx.zero()
    for s in regs:
        v = (v, s)
    return ctx.pure(v)


def _same(a, b) -> bool:
    try:  # a value's own ==, which may raise or give a non-bool
        return a is b or (type(a) is type(b) and (a == b) is True)
    except Exception:
        return False


def _known(v) -> bool:
    return v is not _UNKNOWN and type(v) is not _Ref


def _settle(node):
    # The outcome and tags of `node` once the refs it rests on are defined,
    # with the tags of each: _UNKNOWN where it gives what a ref gives, or a
    # ref does not give what a cond assumes.
    tags = node.tags
    for ref, empty in node.conds:
        if not _same(ref.out, empty):
            return _UNKNOWN, tags
        tags |= ref.tags
    return (_UNKNOWN if type(node.out) is _Ref else node.out), tags


class _Table(dict):
    """What a layer runs at a kid, by the kid's datatype: the plan of its
    strategy there, or None where it skips the kid.

    A kid is skipped when its datatype reaches none of `tags`.  Filled on
    demand; a datatype whose reach is not known yet, as one declared but
    not defined, is entered, and the answer is not kept.  The first miss
    settles the layer's reading: `tags` are the tags of the adhoc layers
    its strategy can run, or None, which skips no kid, where what that
    strategy gives on a kid reaching none of them is not the layer's empty
    result or cannot be told.
    """

    __slots__ = ("layer", "tags", "s")

    def __init__(self, layer):
        super().__init__()
        self.layer, self.tags = layer, None

    def __missing__(self, tag):
        if self.layer is not None:
            layer, self.layer, self.s = self.layer, None, self.layer.s
            out, tags = _settle(layer)
            if out is layer.empty:
                self.tags = tags
        reach = _reach(tag) if self.tags is not None else ()
        node = None if reach and reach.isdisjoint(self.tags) else self.s.plan(tag)
        if reach is not None:  # else not known yet: enter, and keep no answer
            self[tag] = node
        return node


def _node(s: Strategy, kind=Strategy) -> _Node:
    # The node of `s`, a strategy of `kind` (TP, TU or either), or a type-case
    # with no cases around its function; the one reader of a TP or TU.
    # Anything else, and one around a node of the other kind or of another
    # context, is refused.
    if not isinstance(s, kind):
        want = "TP or TU" if kind is Strategy else kind.__name__
        raise TypeError(f"expected a {want} strategy, got {type(s).__name__}")
    tp, node = isinstance(s, TP), s.run
    if not isinstance(node, _Node):
        return _Adhoc(s.context, tp, _UNKNOWN, fn=node)
    if node.tp is not tp:
        outer, inner = ("TP", "TU") if tp else ("TU", "TP")
        raise TypeError(f"expected a {outer} strategy, got the node of a {inner}")
    _same_context(s.context, node.ctx)
    return node


def _wrap(node: _Node) -> Strategy:
    return (TP if node.tp else TU)(node.ctx, node)


def _recursive(s: Strategy, define: Callable[[Strategy], Strategy]) -> Strategy:
    # Tie the knot for a scheme: hand `define` a self-reference, of the kind
    # and context of `s`, before the body it refers to exists.
    node = _node(s)
    ref = _Ref(node.ctx, node.tp)
    rec = _wrap(ref)
    ref.body = body = _node(define(rec), type(rec))
    _same_context(ref.ctx, body.ctx)
    # Each cond on `ref` in the body assumes what it gives at a kid, so it
    # holds by induction on the size of the term where the body gives that.
    ref.out = body.out
    ref.out, ref.tags = _settle(body)
    return rec


def _same_context(ctx: EffectContext, other: EffectContext) -> EffectContext:
    if other is not ctx and other != ctx:  # usually the very same object
        raise ValueError(f"mixed effect contexts: {ctx!r} and {other!r}")
    return ctx


def _partial_context(ctx: EffectContext) -> EffectContext:
    if not supports_failure(ctx):
        raise TypeError(f"{ctx!r} has no failure capability")
    return ctx


def identity_tp(ctx: EffectContext) -> TP:
    """Succeed on every term, returning it unchanged."""
    return TP(ctx, _Adhoc(ctx, True, _TERM))


def build_tu(ctx: EffectContext, value) -> TU:
    """Succeed on every term with a constant result."""
    return TU(ctx, _Adhoc(ctx, False, value))


def fail_tp(ctx: EffectContext) -> TP:
    """Fail on every term."""
    return TP(ctx, _Adhoc(_partial_context(ctx), True, _FAIL))


def fail_tu(ctx: EffectContext) -> TU:
    """Fail on every term."""
    return TU(ctx, _Adhoc(_partial_context(ctx), False, _FAIL))


def _adhoc(kind, default, tag, step):
    # One node for a chain of adhoc layers over any generic default: a layer
    # over a type-case joins its dict, where the outer layer's step for a tag
    # wins, and any other node becomes the default of a new one.
    inner = _node(default, kind)
    if type(inner) is not _Adhoc:
        return _wrap(_Adhoc(inner.ctx, inner.tp, _UNKNOWN, inner, steps={tag: step}))
    steps = {**inner.steps, tag: step}
    return _wrap(_Adhoc(inner.ctx, inner.tp, inner.out, inner.default, inner.fn, steps))


def adhoc_tp(default: TP, tag: TypeTag, step: Callable) -> TP:
    """Customize a strategy at one datatype.

    On a term of that datatype, `step` receives the bare value and must
    return a computation of a replacement value of the same datatype; on
    anything else the default strategy runs.  Nesting adhoc layers is
    fine: the most recently added customization is consulted first.
    """
    return _adhoc(TP, default, tag, step)


def adhoc_tu(default: TU, tag: TypeTag, step: Callable) -> TU:
    """Customize a unifying strategy at one datatype.

    `step` receives the bare value and returns a computation of the
    result type.
    """
    return _adhoc(TU, default, tag, step)


def seq_tp(first: TP, second: TP) -> TP:
    """Feed the output term of one transformation into another."""
    return _wrap(_Seq(_node(first, TP), _node(second, TP), None))


def seq_tu(first: TP, second: TU) -> TU:
    """Transform, then analyse the transformed term."""
    return _wrap(_Seq(_node(first, TP), _node(second, TU), None))


def _both(first: TU, second: TU, append: Callable) -> TU:
    # Run both analyses on the same term, then `append` their results.
    return _wrap(_Seq(_node(first, TU), _node(second, TU), append))


def let_tp(analysis: TU, body: Callable[[Any], TP]) -> TP:
    """Run an analysis, then a transformation chosen from its result."""
    return _wrap(_Let(True, _node(analysis, TU), body))


def let_tu(analysis: TU, body: Callable[[Any], TU]) -> TU:
    """Run an analysis, then an analysis chosen from its result."""
    return _wrap(_Let(False, _node(analysis, TU), body))


def choice_tp(first: TP, second: TP) -> TP:
    """Committed choice: try one transformation, else the other."""
    first, second = _node(first, TP), _node(second, TP)
    return _wrap(_Choice(_partial_context(_same_context(first.ctx, second.ctx)), first, second))


def choice_tu(first: TU, second: TU) -> TU:
    """Committed choice between analyses."""
    first, second = _node(first, TU), _node(second, TU)
    return _wrap(_Choice(_partial_context(_same_context(first.ctx, second.ctx)), first, second))


def all_tp(s: TP) -> TP:
    """Apply a transformation to every immediate subterm.

    The outermost constructor is kept; failure on any child is failure of
    the whole.  When every child comes back as the very same term object,
    the input term itself is the result, so unchanged subterms are shared
    rather than copied.
    """
    return _wrap(_Layer(_node(s, TP), _TERM, None))


def all_tu(s: TU, monoid: Monoid) -> TU:
    """Analyse every immediate subterm, folding results left to right.

    The fold starts from the monoid's neutral element, so terms without
    children yield the neutral element.
    """
    return _wrap(_Layer(_node(s, TU), monoid.neutral, monoid.append))


def one_tp(s: TP) -> TP:
    """Replace the leftmost immediate subterm the strategy succeeds on.

    Children are tried left to right and the search stops at the first
    success; terms without children fail.
    """
    return _wrap(_Layer(_node(s, TP), _FAIL, None))


def one_tu(s: TU) -> TU:
    """Analyse the leftmost immediate subterm the strategy succeeds on."""
    return _wrap(_Layer(_node(s, TU), _FAIL, None))


def _msubst(kind, morphism, s):
    ctx, node, run = morphism.target, _node(s, kind), morphism.run
    if node.ctx != morphism.source:
        raise ValueError(f"strategy context {node.ctx!r} is not {morphism.source!r}")
    func = getattr(run, "func", run)  # a library morphism's, bound by partial
    if func is _recover:
        default = run.args[0]
        # A TP hands the default out through a checked function, as any step's value.
        if kind is TP:
            return _wrap(_Choice(ctx, node, _Adhoc(ctx, True, _UNKNOWN, fn=lambda t: default)))
        return _wrap(_Choice(ctx, node, _Adhoc(ctx, False, default)))
    if func is _unlift:
        return _wrap(_Unlift(ctx, node, run.args[1]))
    if func is _unchanged:
        return kind(ctx, node)
    return _wrap(_Adhoc(ctx, kind is TP, _UNKNOWN, fn=lambda t: run(_run(morphism.source, node, t))))


def msubst_tp(morphism: EffectMorphism, s: TP) -> TP:
    """Move a transformation into another effect context."""
    return _msubst(TP, morphism, s)


def msubst_tu(morphism: EffectMorphism, s: TU) -> TU:
    """Move an analysis into another effect context."""
    return _msubst(TU, morphism, s)


@dataclass(frozen=True)
class OverloadedOps:
    """One combinator vocabulary shared by both strategy kinds.

    Traversal schemes written against this interface can be read back as
    transformations or as analyses by picking `tp_ops` or `tu_ops`.
    """

    seq: Callable
    choice: Callable
    all: Callable
    one: Callable
    adhoc: Callable


def tp_ops() -> OverloadedOps:
    return OverloadedOps(seq_tp, choice_tp, all_tp, one_tp, adhoc_tp)


def tu_ops(monoid: Monoid) -> OverloadedOps:
    """TU reading of the shared vocabulary.

    Sequencing here runs both analyses on the same term and appends their
    results, which is what makes a top-down transformation scheme turn
    into a deep collecting analysis.
    """

    return OverloadedOps(
        lambda first, second: _both(first, second, monoid.append),
        choice_tu,
        lambda s: all_tu(s, monoid),
        one_tu,
        adhoc_tu,
    )
