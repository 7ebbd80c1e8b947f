"""Strategy combinators.

A strategy is a first-class generic function on terms.  Two kinds exist:

  * TP (type-preserving): maps a term to a computation of a term of the
    same datatype; used for transformations.
  * TU (type-unifying): maps a term to a computation of one fixed result
    type; used for analyses.

Both kinds carry the effect context their computations live in.  Apply a
strategy with `apply`; everything else builds strategies from strategies.
The basic vocabulary:

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
reads its computation in its own context, as it reads an adhoc step's.
A node is callable, so `s.run(t)` is `apply(s, t)`.  The strategy a
`let` body returns must live in the let's context; the loop checks this
when the body is chosen, and raises the `ValueError` that `seq` and
`choice` raise at construction.

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
outcome is the empty result, a kid of such a datatype is not entered.
The outcome cannot be read through a `let` or a step, such as an
`msubst` along a user-written morphism, so any of them where the
strategy would run on the kid switches pruning off for that layer, as
does a strategy nested too deep to read.  A datatype declared but not
yet defined may reach anything, so it is always entered.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Any, Callable

from .effects import (
    EffectContext,
    EffectMorphism,
    Identity,
    Just,
    Monoid,
    Partial,
    StateOver,
    supports_failure,
)
from .effects import _recover, _unchanged, _unlift
from .terms import Term, TypeTag, _reach, rebuild, term

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
    return _run(s.context, _node(s), t)


# The loop's failure, passed back up its stack in place of a value.
_FAIL = object()
# The value of a `_Const` that stands for the term it is applied to.
_TERM = object()


class _Node:
    """A strategy as data, run by `_loop`; the node's fields are its parts."""

    __slots__ = ("ctx",)

    def __init__(self, ctx):
        self.ctx = ctx

    def __call__(self, t):
        return _run(self.ctx, self, t)


class _Const(_Node):
    __slots__ = ("value",)  # _TERM for identity_tp, _FAIL for fail_tp/fail_tu

    def __init__(self, ctx, value):
        self.ctx, self.value = ctx, value


class _Adhoc(_Node):
    # `steps` maps each tag of a chain of adhoc layers to its step; `tp`:
    # wrap the step's value as a term; `read`: see `_reader`.
    __slots__ = ("default", "steps", "tp", "read")

    def __init__(self, ctx, default, steps, tp):
        self.ctx, self.default, self.steps, self.tp = ctx, default, steps, tp
        self.read = _reader(ctx)


class _Step(_Node):
    __slots__ = ("fn", "read")  # the function of a TP(ctx, fn) or TU(ctx, fn)

    def __init__(self, ctx, fn):
        self.ctx, self.fn, self.read = ctx, fn, _reader(ctx)


class _Seq(_Node):
    # `append` is None when `second` runs on the output of `first`, and
    # otherwise a monoid's append of two analyses of the same term.
    __slots__ = ("first", "second", "append")

    def __init__(self, ctx, first, second, append):
        self.ctx, self.first, self.second, self.append = ctx, first, second, append


class _Let(_Node):
    __slots__ = ("analysis", "body")

    def __init__(self, ctx, analysis, body):
        self.ctx, self.analysis, self.body = ctx, analysis, body


class _Choice(_Node):
    __slots__ = ("first", "second")

    def __init__(self, ctx, first, second):
        self.ctx, self.first, self.second = ctx, first, second


class _Layer(_Node):
    # One-layer traversal.  `empty` is what the layer gives on a term without
    # kids: _TERM for all_tp, the monoid's neutral for all_tu, _FAIL for one;
    # `tp`: rebuild around the new kids; `append`: the monoid's, for all_tu.
    __slots__ = ("s", "empty", "tp", "append", "skips")

    def __init__(self, ctx, s, empty, tp, append):
        self.ctx, self.s, self.empty, self.tp, self.append = ctx, s, empty, tp, append
        self.skips = _Skips(self)


class _Unlift(_Node):
    __slots__ = ("s", "initial")  # `s` moved along unlift_state(_, initial)

    def __init__(self, ctx, s, initial):
        self.ctx, self.s, self.initial = ctx, s, initial


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
    kids, i, acc, skip] for kid `i`, which moves on to the next kid when
    kid `i` fails under `one` and when it succeeds under `all`.  `acc` is
    what the layer carries from kid to kid: the register to restore
    (`one`), the new kids, starting as the kids (`all_tp`), or the
    running fold (`all_tu`).  `skip` is the node's `skips` at the
    datatype of `t`, read on entry to a term with kids: None, or whether
    to pass over a kid, by its tag (see `_Skips`).
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
                kids, i = t.tag.children(t), 0
                skip = node.skips[t.tag] if kids else None
                while skip is not None and i < len(kids) and skip[kids[i].tag]:
                    i += 1
                if i == len(kids):
                    v = t if node.empty is _TERM else node.empty
                    break
                if node.empty is _FAIL:
                    acc = regs
                else:
                    acc = list(kids) if node.tp else node.empty
                push([_Layer, node, t, kids, i, acc, skip])
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
                break
        # Ascend: hand `v` to pending frames until one descends again.
        while stack:
            frame = pop()
            kind = frame[0]
            if kind is _Layer:
                _, node, t, kids, i, acc, skip = frame
                one = node.empty is _FAIL
                if (v is _FAIL) is not one:
                    # A failed kid fails `all`; a kid that works ends `one`.
                    if v is not _FAIL and node.tp:
                        v = rebuild(t, kids[:i] + (v,) + kids[i + 1 :])
                    continue
                if one:
                    regs = acc
                elif node.tp:
                    acc[i] = v
                else:
                    acc = frame[5] = node.append(acc, v)
                i += 1
                if skip is not None:
                    while i < len(kids) and skip[kids[i].tag]:
                        i += 1
                if i < len(kids):
                    frame[4] = i
                    push(frame)
                    node, t = node.s, kids[i]
                    break
                if not one:
                    v = acc
                    if node.tp:
                        v = rebuild(t, v) if any(map(is_not, v, kids)) else t
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
                body, t = frame[1].body(v), frame[2]
                if body.context is not frame[1].ctx:  # usually the very same object
                    _same_context(frame[1].ctx, body.context)
                node = _node(body)
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
    if type(base) is not Identity and type(base) is not Partial:
        raise TypeError(f"strategies run in Identity, Partial or StateOver over those, not {base!r}")
    if type(ctx) is StateOver:
        return lambda s: _run(ctx.inner, node, t, regs + (s,))
    v, regs = _loop(node, t, regs)
    if v is _FAIL:
        return ctx.zero()
    for s in regs:
        v = (v, s)
    return ctx.pure(v)


def _reader(ctx):
    """How the loop reads a computation of `ctx`: (comp, regs) -> (value, regs).

    The value is _FAIL where the computation fails.  A StateOver layer
    runs the computation on the first state of the register and reads
    the inner computation it returns against the rest.
    """
    kind = type(ctx)
    if kind is Partial:
        return lambda comp, regs: ((comp.value if isinstance(comp, Just) else _FAIL), regs)
    if kind is not StateOver:  # Identity; `_run` refuses any other class first
        return lambda comp, regs: (comp, regs)
    inner = _reader(ctx.inner)

    def read(comp, regs):
        pair, rest = inner(comp(regs[0]), regs[1:])
        if pair is _FAIL:
            return _FAIL, regs
        return pair[0], (pair[1], *rest)

    return read


# Outcomes `_Outcomes` reads besides _TERM, _FAIL and constants: one it
# cannot tell, and the first guess for a self-reference (see `_Outcomes`).
_UNKNOWN = object()
_ANY = object()


def _same(a, b) -> bool:
    return a is b or (type(a) is type(b) and a == b)


class _Outcomes:
    """What a strategy gives on any term that reaches none of `tags`.

    `outcome(node, level)` is _TERM (the term itself), _FAIL, a constant
    or _UNKNOWN, and `tags` collects the tags of the adhoc layers it
    passes: such a term matches none of them.  `level` counts the all/one
    nodes passed, each of which runs its strategy on smaller terms.

    A _Ref is read twice.  The first pass guesses: met again below an
    all/one, the _Ref is _ANY, which all and one read as if the term had
    no kids.  The second pass checks: met again there, the _Ref is the
    guess, and if its body then gives the guess, the guess holds by
    induction on the size of the term.  Met again anywhere else, it is
    _UNKNOWN.  _UNKNOWN absorbs every outcome it meets, so a known outcome
    rests on no unchecked guess.  Steps and lets are _UNKNOWN.
    """

    def __init__(self):
        self.tags, self.guesses = set(), {}
        # Nodes read; past it every outcome is _UNKNOWN.  Each pass over a
        # _Ref reads the _Refs nested in it twice, so the count doubles with
        # each level of nesting.
        self.budget = 10_000

    def outcome(self, node, level):
        self.budget -= 1
        if self.budget < 0:
            return _UNKNOWN
        kind = type(node)
        if kind is _Const:
            return node.value
        if kind is _Adhoc:
            self.tags.update(node.steps)
            return self.outcome(node.default, level)
        if kind is _Seq:
            first = self.outcome(node.first, level)
            if first is _FAIL or first is _UNKNOWN or first is _ANY:
                return first
            if node.append is None:
                return self.outcome(node.second, level) if first is _TERM else _UNKNOWN
            second = self.outcome(node.second, level)
            if second is _FAIL or second is _UNKNOWN or second is _ANY:
                return second
            if first is _TERM or second is _TERM:
                return _UNKNOWN
            return node.append(first, second)
        if kind is _Choice:
            first = self.outcome(node.first, level)
            return self.outcome(node.second, level) if first is _FAIL else first
        if kind is _Layer:
            v = self.outcome(node.s, level + 1)
            return node.empty if v is _ANY or _same(v, node.empty) else _UNKNOWN
        if kind is _Unlift:
            return self.outcome(node.s, level)
        if kind is _Ref:
            if node in self.guesses:
                entered, guess = self.guesses[node]
                return guess if level > entered else _UNKNOWN
            self.guesses[node] = (level, _ANY)
            guess = self.outcome(node.body, level)
            self.guesses[node] = (level, guess)
            v = self.outcome(node.body, level) if guess is not _UNKNOWN else _UNKNOWN
            del self.guesses[node]
            return v if _same(v, guess) else _UNKNOWN
        return _UNKNOWN


class _Skips(dict):
    """The kids a layer skips, by the datatype of the parent term.

    Maps a tag to None when no kid of that datatype can be skipped, else
    to a dict from each of its field datatypes to whether a kid of that
    datatype is skipped: it is when it reaches none of `tags`.  Filled on
    demand; a field datatype whose reach is not known yet is not skipped,
    and the answer is not kept.  The first miss reads the strategy of
    `layer` (see the module docstring): `tags` are the tags of the adhoc
    layers it can run, or None, which skips no kid, where its outcome is
    not the layer's empty result.
    """

    __slots__ = ("layer", "tags")

    def __init__(self, layer):
        super().__init__()
        self.layer, self.tags = layer, None

    def __missing__(self, tag):
        if self.layer is not None:
            layer, self.layer, reader = self.layer, None, _Outcomes()
            try:
                if _same(reader.outcome(layer.s, 0), layer.empty):
                    self.tags = frozenset(reader.tags)
            except Exception:  # a monoid's append or ==, or a strategy nested too deep
                pass
        skip, known = {}, True
        for field in (tag.field_types if self.tags is not None else ()):
            reach = _reach(field)
            known = known and reach is not None
            skip[field] = reach is not None and reach.isdisjoint(self.tags)
        if not any(skip.values()):
            skip = None
        if known:
            self[tag] = skip
        return skip


def _node(s: Strategy):
    # The node of `s`, a step around a function; one of another context is
    # refused, as seq and choice refuse mixed contexts.
    node = s.run if isinstance(s.run, _Node) else _Step(s.context, s.run)
    if node.ctx is not s.context:
        _same_context(s.context, node.ctx)
    return node


def _recursive(s: Strategy, define: Callable[[Strategy], Strategy]) -> Strategy:
    # Tie the knot for a scheme: hand `define` a self-reference, of the kind
    # and context of `s`, before the body it refers to exists.
    ref = _Ref(s.context)
    rec = type(s)(s.context, ref)
    body = define(rec)
    _same_context(s.context, body.context)
    ref.body = _node(body)
    return rec


def _same_context(ctx: EffectContext, other: EffectContext) -> EffectContext:
    if other != ctx:
        raise ValueError(f"mixed effect contexts: {ctx!r} and {other!r}")
    return ctx


def _partial_context(ctx: EffectContext) -> EffectContext:
    if not supports_failure(ctx):
        raise TypeError(f"{ctx!r} has no failure capability")
    return ctx


def identity_tp(ctx: EffectContext) -> TP:
    """Succeed on every term, returning it unchanged."""
    return TP(ctx, _Const(ctx, _TERM))


def build_tu(ctx: EffectContext, value) -> TU:
    """Succeed on every term with a constant result."""
    return TU(ctx, _Const(ctx, value))


def fail_tp(ctx: EffectContext) -> TP:
    """Fail on every term."""
    return TP(ctx, _Const(_partial_context(ctx), _FAIL))


def fail_tu(ctx: EffectContext) -> TU:
    """Fail on every term."""
    return TU(ctx, _Const(_partial_context(ctx), _FAIL))


def _adhoc(default, tag, step, tp):
    # One node for a chain of adhoc layers: a layer over another of the same
    # kind joins its dict, where the outer layer's step for a tag wins.
    ctx, inner = default.context, _node(default)
    if type(inner) is _Adhoc and inner.tp is tp:
        return _Adhoc(ctx, inner.default, {**inner.steps, tag: step}, tp)
    return _Adhoc(ctx, inner, {tag: step}, tp)


def adhoc_tp(default: TP, tag: TypeTag, step: Callable) -> TP:
    """Customize a strategy at one datatype.

    On a term of that datatype, `step` receives the bare value and must
    return a computation of a replacement value of the same datatype; on
    anything else the default strategy runs.  Nesting adhoc layers is
    fine: the most recently added customization is consulted first.
    """
    return TP(default.context, _adhoc(default, tag, step, True))


def adhoc_tu(default: TU, tag: TypeTag, step: Callable) -> TU:
    """Customize a unifying strategy at one datatype.

    `step` receives the bare value and returns a computation of the
    result type.
    """
    return TU(default.context, _adhoc(default, tag, step, False))


def seq_tp(first: TP, second: TP) -> TP:
    """Feed the output term of one transformation into another."""
    ctx = _same_context(first.context, second.context)
    return TP(ctx, _Seq(ctx, _node(first), _node(second), None))


def seq_tu(first: TP, second: TU) -> TU:
    """Transform, then analyse the transformed term."""
    ctx = _same_context(first.context, second.context)
    return TU(ctx, _Seq(ctx, _node(first), _node(second), None))


def _both(first: TU, second: TU, append: Callable) -> TU:
    # Run both analyses on the same term, then `append` their results.
    ctx = _same_context(first.context, second.context)
    return TU(ctx, _Seq(ctx, _node(first), _node(second), append))


def let_tp(analysis: TU, body: Callable[[Any], TP]) -> TP:
    """Run an analysis, then a transformation chosen from its result."""
    return TP(analysis.context, _Let(analysis.context, _node(analysis), body))


def let_tu(analysis: TU, body: Callable[[Any], TU]) -> TU:
    """Run an analysis, then an analysis chosen from its result."""
    return TU(analysis.context, _Let(analysis.context, _node(analysis), body))


def choice_tp(first: TP, second: TP) -> TP:
    """Committed choice: try one transformation, else the other."""
    ctx = _partial_context(_same_context(first.context, second.context))
    return TP(ctx, _Choice(ctx, _node(first), _node(second)))


def choice_tu(first: TU, second: TU) -> TU:
    """Committed choice between analyses."""
    ctx = _partial_context(_same_context(first.context, second.context))
    return TU(ctx, _Choice(ctx, _node(first), _node(second)))


def all_tp(s: TP) -> TP:
    """Apply a transformation to every immediate subterm.

    The outermost constructor is kept; failure on any child is failure of
    the whole.  When every child comes back as the very same term object,
    the input term itself is the result, so unchanged subterms are shared
    rather than copied.
    """
    return TP(s.context, _Layer(s.context, _node(s), _TERM, True, None))


def all_tu(s: TU, monoid: Monoid) -> TU:
    """Analyse every immediate subterm, folding results left to right.

    The fold starts from the monoid's neutral element, so terms without
    children yield the neutral element.
    """
    return TU(s.context, _Layer(s.context, _node(s), monoid.neutral, False, monoid.append))


def one_tp(s: TP) -> TP:
    """Replace the leftmost immediate subterm the strategy succeeds on.

    Children are tried left to right and the search stops at the first
    success; terms without children fail.
    """
    ctx = _partial_context(s.context)
    return TP(ctx, _Layer(ctx, _node(s), _FAIL, True, None))


def one_tu(s: TU) -> TU:
    """Analyse the leftmost immediate subterm the strategy succeeds on."""
    ctx = _partial_context(s.context)
    return TU(ctx, _Layer(ctx, _node(s), _FAIL, False, None))


def _msubst(kind, morphism, s):
    if s.context != morphism.source:
        raise ValueError(f"strategy context {s.context!r} is not {morphism.source!r}")
    ctx, node, run = morphism.target, _node(s), morphism.run
    func = getattr(run, "func", run)  # a library morphism's, bound by partial
    if func is _recover:
        return kind(ctx, _Choice(ctx, node, _Const(ctx, run.args[0])))
    if func is _unlift:
        return kind(ctx, _Unlift(ctx, node, run.args[1]))
    if func is _unchanged:
        return kind(ctx, node)
    return kind(ctx, _Step(ctx, lambda t: run(_run(morphism.source, node, t))))


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
