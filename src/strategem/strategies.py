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
passed back up the stack; `fail_tp` and `fail_tu` are the constant node
whose value it is, as `identity_tp` and `build_tu` are constant nodes.
The states of a state context are a register tuple, which `choice` and
`one` save and restore when a branch fails.  A `TP(ctx, fn)` or
`TU(ctx, fn)` made from a function is a step: the loop calls it and
reads its computation with the context's `_read`, as an adhoc step's, and
raises `TypeError` where a TP step gives no term of its term's datatype.
A node is callable, so `s.run(t)` is `apply(s, t)`.  The strategy a
`let` body returns is checked in the same way when it is chosen.  So a TP
node gives only terms of its input's datatype, and a layer rebuilds
through the view of its term's datatype with no further check.

In a state context `apply` returns a computation that runs nothing until
it is given a state.  Along a library morphism `msubst` is a node: the
strategy's own, a choice of it and the default, or one that puts the
initial state in front of the register.  Along any other it is a step
that applies the strategy in a nested loop, so a recursion through it
is bounded by the Python stack again.

Nested adhoc layers collapse into one node holding a dict from tag to
step, so a chain dispatches with one lookup.  A traversal skips the
subterms no adhoc layer can reach, by one rule: a layer skips a kid where
its strategy is known to give the layer's empty result, since that kid
then changes nothing: `all_tp` keeps it, `all_tu` appends nothing for it
and `one` counts it as a failure.  On its first run a layer reads its
strategy: the tags of the adhoc layers it can run, and its outcome on a
term whose datatype reaches none of them at any depth.  Where that
outcome is the empty result, a kid of such a datatype is not entered,
by one table per layer keyed by the kid's datatype.
The outcome cannot be read through a `let` or a step, such as an
`msubst` along a user-written morphism, nor where a monoid's append or
a result's `==` raises, so any of them where the strategy would run on
the kid switches pruning off for that layer, as does a strategy too large
for the read, which stops after 10,000 nodes.  A datatype declared but
not yet defined may reach anything, so it is always entered.
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
from .terms import Term, TypeTag, _reach, term

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


# The value of a `_Const` that stands for the term it is applied to.
_TERM = object()


class _Node:
    """A strategy as data, run by `_loop`: its context, its kind and its parts."""

    __slots__ = ("ctx", "tp")  # tp: True for a TP, False for a TU

    def __init__(self, ctx, tp):
        self.ctx, self.tp = ctx, tp

    def __call__(self, t):
        return _run(self.ctx, self, t)


class _Const(_Node):
    __slots__ = ("value",)  # _TERM for identity_tp, _FAIL for fail_tp/fail_tu

    def __init__(self, ctx, tp, value):
        self.ctx, self.tp, self.value = ctx, tp, value


class _Adhoc(_Node):
    # `steps` maps each tag of a chain of adhoc layers to its step, whose
    # value a TP wraps as a term; `read`: the context's `_read`.
    __slots__ = ("default", "steps", "read")

    def __init__(self, default, steps):
        self.ctx, self.tp, self.default, self.steps = default.ctx, default.tp, default, steps
        self.read = default.ctx._read


class _Step(_Node):
    __slots__ = ("fn", "read")  # the function of a TP(ctx, fn) or TU(ctx, fn)

    def __init__(self, ctx, tp, fn):
        self.ctx, self.tp, self.fn, self.read = ctx, tp, fn, ctx._read


class _Seq(_Node):
    # `append` is None when `second` runs on the output of `first`, and
    # otherwise a monoid's append of two analyses of the same term.
    __slots__ = ("first", "second", "append")

    def __init__(self, first, second, append):
        self.ctx, self.tp = _same_context(first.ctx, second.ctx), second.tp
        self.first, self.second, self.append = first, second, append


class _Let(_Node):
    __slots__ = ("analysis", "body")

    def __init__(self, tp, analysis, body):
        self.ctx, self.tp, self.analysis, self.body = analysis.ctx, tp, analysis, body


class _Choice(_Node):
    __slots__ = ("first", "second")

    def __init__(self, ctx, first, second):
        self.ctx, self.tp, self.first, self.second = ctx, first.tp, first, second


class _Layer(_Node):
    # One-layer traversal, of the kind of `s`.  `empty` is what it gives on a
    # term without kids: _TERM for all_tp, the monoid's neutral for all_tu,
    # _FAIL for one; `append`: the monoid's, for all_tu.
    __slots__ = ("s", "empty", "append", "skips")

    def __init__(self, s, empty, append):
        self.ctx = _partial_context(s.ctx) if empty is _FAIL else s.ctx
        self.tp, self.s, self.empty, self.append = s.tp, s, empty, append
        self.skips = _Skips(self)


class _Unlift(_Node):
    __slots__ = ("s", "initial")  # `s` moved along unlift_state(_, initial)

    def __init__(self, ctx, s, initial):
        self.ctx, self.tp, self.s, self.initial = ctx, s.tp, s, initial


class _Ref(_Node):
    __slots__ = ("body",)  # set once the strategy that refers to it exists


# The frame kind of a result waiting for the next one to append to it.
_APPEND = object()


def _loop(node, t, regs):
    """Run `node` at `t` from the state register `regs`.

    Returns the value, or _FAIL, and the register after it.  Frames
    pending a value: (_Seq, node, t) and (_APPEND, append, first result);
    (_Let, node, t); (_Unlift,), which drops the first state; (_Choice,
    second, t, regs), which takes over on failure; and [_Layer, node, t,
    kids, i, acc] for kid `i`, which moves on to the next kid `skips` does
    not pass over when kid `i` fails under `one` and when it succeeds under
    `all`.  `acc` is what the layer carries from kid to kid: the register
    to restore (`one`), the new kids (`all_tp`) or the running fold
    (`all_tu`).  Each value is checked where it enters, so a TP layer's
    new kids fit its term, which it rebuilds through its datatype's view.
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
                node = node.default
            elif kind is _Const:
                v = t if node.value is _TERM else node.value
                break
            elif kind is _Layer:
                kids, i, skips = t.tag.children(t), 0, node.skips
                while i < len(kids) and skips[kids[i].tag]:
                    i += 1
                if i == len(kids):
                    v = t if node.empty is _TERM else node.empty
                    break
                if node.empty is _FAIL:
                    acc = regs
                else:
                    acc = list(kids) if node.tp else node.empty
                push([_Layer, node, t, kids, i, acc])
                node, t = node.s, kids[i]
            elif kind is _Choice:
                push((_Choice, node.second, t, regs))
                node = node.first
            elif kind is _Let:
                push((_Let, node, t))
                node = node.analysis
            elif kind is _Unlift:
                push((_Unlift,))
                regs, node = (node.initial, *regs), node.s
            else:
                v, regs = node.read(node.fn(t), regs)
                if node.tp and v is not _FAIL and not (isinstance(v, Term) and v.tag is t.tag):
                    raise TypeError(f"{v!r} is not a term of datatype {t.tag.name}")
                break
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
                i, skips = i + 1, node.skips
                while i < len(kids) and skips[kids[i].tag]:
                    i += 1
                if i < len(kids):
                    frame[4] = i
                    push(frame)
                    node, t = node.s, kids[i]
                    break
                if not one:
                    v = acc
                    if node.tp:
                        v = t.tag.rebuild(t, v) if any(map(is_not, v, kids)) else t
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
    v, regs = _loop(node, t, regs)
    if v is _FAIL:
        return ctx.zero()
    for s in regs:
        v = (v, s)
    return ctx.pure(v)


# The outcome `_outcome` cannot tell, and its mark of a part not read yet.
_UNKNOWN = object()


def _same(a, b) -> bool:
    try:  # a value's own ==, which may raise or give a non-bool
        return a is b or (type(a) is type(b) and (a == b) is True)
    except Exception:
        return False


def _outcome(node, tags):
    """What `node` gives on any term that reaches none of `tags`.

    The outcome is _TERM (the term itself), _FAIL, a constant or _UNKNOWN;
    `tags` collects the tags of the adhoc layers passed.  Each node is read
    once, on a stack of (node, first) frames, `first` being a _Seq's or
    _Choice's first outcome.  A _Ref met again below an all/one, which runs
    it on smaller terms, is `assumed` to give the empty result of the
    innermost one, the last of `empties`; if its body then gives that too,
    this holds by induction on the size of the term.  Met again with as many
    all/one open as on its entry (`entered`) it is _UNKNOWN, as are steps and
    lets, and the read ends there: _UNKNOWN absorbs all above it.
    """
    stack, empties, entered, assumed = [], [], {}, {}
    push, pop, budget = stack.append, stack.pop, 10_000  # nodes to read
    while True:
        # Descend: read `node` until it gives an outcome `v`.
        while True:
            budget -= 1
            if budget < 0:
                return _UNKNOWN
            kind = type(node)
            if kind is _Const:
                v = node.value
                break
            if kind is _Adhoc:
                tags.update(node.steps)
                node = node.default
            elif kind is _Seq or kind is _Choice:
                push((node, _UNKNOWN))
                node = node.first
            elif kind is _Layer:
                push((node, _UNKNOWN))
                empties.append(node.empty)
                node = node.s
            elif kind is _Unlift:
                node = node.s
            elif kind is not _Ref or entered.get(node) == len(empties):
                return _UNKNOWN
            elif node in entered:
                v = assumed.setdefault(node, empties[-1])
                break
            else:
                entered[node] = len(empties)
                push((node, _UNKNOWN))
                node = node.body
        # Ascend: hand `v` to pending frames until one reads a second part.
        while True:
            if v is _UNKNOWN or not stack:
                return v
            node, first = pop()
            kind = type(node)
            if kind is _Layer:
                v = node.empty if _same(v, empties.pop()) else _UNKNOWN
            elif kind is _Ref:
                del entered[node]
                v = v if _same(v, assumed.pop(node, v)) else _UNKNOWN
            elif first is _UNKNOWN and (v is _FAIL) is (kind is _Choice):
                # A _Choice's first part failed, or a _Seq's worked, where one
                # that runs its second part on the first's output needs _TERM.
                if kind is _Seq and node.append is None and v is not _TERM:
                    return _UNKNOWN
                push((node, v))
                node = node.second
                break
            elif kind is _Seq and node.append is not None and first is not _UNKNOWN and v is not _FAIL:
                if first is _TERM or v is _TERM:
                    return _UNKNOWN
                try:
                    v = node.append(first, v)
                except Exception:  # a monoid's append, which is user code
                    return _UNKNOWN


class _Skips(dict):
    """Whether a layer skips a kid, by the kid's datatype.

    A kid is skipped when its datatype reaches none of `tags`.  Filled on
    demand; a datatype whose reach is not known yet, as one declared but
    not defined, is entered, and the answer is not kept.  The first miss
    reads the strategy of `layer` with `_outcome`: `tags` are the tags of
    the adhoc layers it can run, or None, which skips no kid, where its
    outcome is not the layer's empty result or is past the read's budget.
    """

    __slots__ = ("layer", "tags")

    def __init__(self, layer):
        super().__init__()
        self.layer, self.tags = layer, None

    def __missing__(self, tag):
        if self.layer is not None:
            layer, self.layer, tags = self.layer, None, set()
            if _same(_outcome(layer.s, tags), layer.empty):
                self.tags = frozenset(tags)
        reach = _reach(tag) if self.tags is not None else ()
        if reach is None:
            return False  # not known yet: enter, and keep no answer
        self[tag] = skip = self.tags is not None and reach.isdisjoint(self.tags)
        return skip


def _node(s: Strategy, kind=Strategy) -> _Node:
    # The node of `s`, a strategy of `kind` (TP, TU or either), or a step
    # around its function; the one reader of a TP or TU.  Anything else, and
    # one around a node of the other kind or of another context, is refused.
    if not isinstance(s, kind):
        want = "TP or TU" if kind is Strategy else kind.__name__
        raise TypeError(f"expected a {want} strategy, got {type(s).__name__}")
    tp, node = isinstance(s, TP), s.run
    if not isinstance(node, _Node):
        return _Step(s.context, tp, node)
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
    return TP(ctx, _Const(ctx, True, _TERM))


def build_tu(ctx: EffectContext, value) -> TU:
    """Succeed on every term with a constant result."""
    return TU(ctx, _Const(ctx, False, value))


def fail_tp(ctx: EffectContext) -> TP:
    """Fail on every term."""
    return TP(ctx, _Const(_partial_context(ctx), True, _FAIL))


def fail_tu(ctx: EffectContext) -> TU:
    """Fail on every term."""
    return TU(ctx, _Const(_partial_context(ctx), False, _FAIL))


def _adhoc(kind, default, tag, step):
    # One node for a chain of adhoc layers: a layer over another joins its
    # dict, where the outer layer's step for a tag wins.
    inner = _node(default, kind)
    if type(inner) is _Adhoc:
        return _wrap(_Adhoc(inner.default, {**inner.steps, tag: step}))
    return _wrap(_Adhoc(inner, {tag: step}))


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
        # A TP hands the default out through a checked step, as any step's value.
        fallback = _Step(ctx, True, lambda t: default) if kind is TP else _Const(ctx, False, default)
        return _wrap(_Choice(ctx, node, fallback))
    if func is _unlift:
        return _wrap(_Unlift(ctx, node, run.args[1]))
    if func is _unchanged:
        return kind(ctx, node)
    return _wrap(_Step(ctx, kind is TP, lambda t: run(_run(morphism.source, node, t))))


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
