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

`all` and `one` are each one primitive read at both kinds.  `all` is a
one-layer fold over the immediate subterms: `all_tp` starts from no
children, collects the new ones and rebuilds the outermost constructor
only if a child changed; `all_tu` starts from the monoid's neutral element
and appends child results left to right.  `one` is a one-layer search that
commits to the leftmost child the strategy succeeds on: `one_tp` rebuilds
around the new child, `one_tu` returns its result.  `one` fails on terms
without children.  Strategies are opaque values: treat `apply` as the only
way to use one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Any, Callable

from .effects import EffectContext, EffectMorphism, Monoid, supports_failure
from .terms import Term, TypeTag, children, rebuild, term

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
    return s.run(t)


def _recursive(s: Strategy, define: Callable[[Strategy], Strategy]) -> Strategy:
    # Tie the knot for a scheme: hand `define` a self-reference, of the kind
    # and context of `s`, before the body it refers to exists.
    def run(t):
        return body.run(t)

    rec = type(s)(s.context, run)
    body = define(rec)
    return rec


def _same_context(*strategies) -> EffectContext:
    ctx = strategies[0].context
    for s in strategies[1:]:
        if s.context != ctx:
            raise ValueError(f"mixed effect contexts: {ctx!r} and {s.context!r}")
    return ctx


def _partial_context(ctx: EffectContext) -> EffectContext:
    if not supports_failure(ctx):
        raise TypeError(f"{ctx!r} has no failure capability")
    return ctx


def identity_tp(ctx: EffectContext) -> TP:
    """Succeed on every term, returning it unchanged."""
    return TP(ctx, ctx.pure)


def build_tu(ctx: EffectContext, value) -> TU:
    """Succeed on every term with a constant result."""
    return TU(ctx, lambda t: ctx.pure(value))


def fail_tp(ctx: EffectContext) -> TP:
    """Fail on every term."""
    _partial_context(ctx)
    return TP(ctx, lambda t: ctx.zero())


def fail_tu(ctx: EffectContext) -> TU:
    """Fail on every term."""
    _partial_context(ctx)
    return TU(ctx, lambda t: ctx.zero())


def _adhoc(kind, default, tag, hit):
    def run(t):
        if t.tag is tag:
            return hit(t.value)
        return default.run(t)

    return kind(default.context, run)


def adhoc_tp(default: TP, tag: TypeTag, step: Callable) -> TP:
    """Customize a strategy at one datatype.

    On a term of that datatype, `step` receives the bare value and must
    return a computation of a replacement value of the same datatype; on
    anything else the default strategy runs.  Nesting adhoc layers is
    fine: the most recently added customization is consulted first.
    """
    ctx = default.context
    return _adhoc(TP, default, tag, lambda v: ctx.bind(step(v), lambda w: ctx.pure(term(w, tag))))


def adhoc_tu(default: TU, tag: TypeTag, step: Callable) -> TU:
    """Customize a unifying strategy at one datatype.

    `step` receives the bare value and returns a computation of the
    result type.
    """
    return _adhoc(TU, default, tag, step)


def seq_tp(first: TP, second: TP) -> TP:
    """Feed the output term of one transformation into another."""
    ctx = _same_context(first, second)
    return TP(ctx, lambda t: ctx.bind(first.run(t), second.run))


def seq_tu(first: TP, second: TU) -> TU:
    """Transform, then analyse the transformed term."""
    ctx = _same_context(first, second)
    return TU(ctx, lambda t: ctx.bind(first.run(t), second.run))


def _let(kind, analysis, body):
    ctx = analysis.context
    return kind(ctx, lambda t: ctx.bind(analysis.run(t), lambda v: body(v).run(t)))


def let_tp(analysis: TU, body: Callable[[Any], TP]) -> TP:
    """Run an analysis, then a transformation chosen from its result."""
    return _let(TP, analysis, body)


def let_tu(analysis: TU, body: Callable[[Any], TU]) -> TU:
    """Run an analysis, then an analysis chosen from its result."""
    return _let(TU, analysis, body)


def choice_tp(first: TP, second: TP) -> TP:
    """Committed choice: try one transformation, else the other."""
    ctx = _partial_context(_same_context(first, second))
    return TP(ctx, lambda t: ctx.plus_lazy(lambda: first.run(t), lambda: second.run(t)))


def choice_tu(first: TU, second: TU) -> TU:
    """Committed choice between analyses."""
    ctx = _partial_context(_same_context(first, second))
    return TU(ctx, lambda t: ctx.plus_lazy(lambda: first.run(t), lambda: second.run(t)))


def _fold(s, start, append, finish):
    # The one-layer fold: run `s` on each immediate subterm, left to right,
    # appending each result to the accumulator; `finish(t, kids, acc)` gives
    # the value of the whole.
    ctx = s.context

    def run(t):
        kids = children(t)

        def go(i, acc):
            if i == len(kids):
                return ctx.pure(finish(t, kids, acc))
            return ctx.bind(s.run(kids[i]), lambda r: go(i + 1, append(acc, r)))

        return go(0, start)

    return run


def _search(s, found):
    # The one-layer search: try `s` on each immediate subterm, left to right,
    # committing to the first success; `found(t, kids, i, comp)` turns the
    # computation at child i into the value of the whole.
    ctx = _partial_context(s.context)

    def run(t):
        kids = children(t)

        def go(i):
            if i == len(kids):
                return ctx.zero()
            return ctx.plus_lazy(lambda: found(t, kids, i, s.run(kids[i])), lambda: go(i + 1))

        return go(0)

    return run


def all_tp(s: TP) -> TP:
    """Apply a transformation to every immediate subterm.

    The outermost constructor is kept; failure on any child is failure of
    the whole.  When every child comes back as the very same term object,
    the input term itself is the result, so unchanged subterms are shared
    rather than copied.
    """
    return TP(
        s.context,
        _fold(
            s,
            (),
            lambda acc, new: acc + (new,),
            lambda t, kids, new: rebuild(t, new) if any(map(is_not, new, kids)) else t,
        ),
    )


def all_tu(s: TU, monoid: Monoid) -> TU:
    """Analyse every immediate subterm, folding results left to right.

    The fold starts from the monoid's neutral element, so terms without
    children yield the neutral element.
    """
    return TU(s.context, _fold(s, monoid.neutral, monoid.append, lambda t, kids, acc: acc))


def one_tp(s: TP) -> TP:
    """Replace the leftmost immediate subterm the strategy succeeds on.

    Children are tried left to right and the search stops at the first
    success; terms without children fail.
    """
    ctx = s.context

    def found(t, kids, i, comp):
        return ctx.bind(comp, lambda new: ctx.pure(rebuild(t, kids[:i] + (new,) + kids[i + 1 :])))

    return TP(ctx, _search(s, found))


def one_tu(s: TU) -> TU:
    """Analyse the leftmost immediate subterm the strategy succeeds on."""
    return TU(s.context, _search(s, lambda t, kids, i, comp: comp))


def msubst_tp(morphism: EffectMorphism, s: TP) -> TP:
    """Move a transformation into another effect context."""
    if s.context != morphism.source:
        raise ValueError(f"strategy context {s.context!r} is not {morphism.source!r}")
    return TP(morphism.target, lambda t: morphism.run(s.run(t)))


def msubst_tu(morphism: EffectMorphism, s: TU) -> TU:
    """Move an analysis into another effect context."""
    if s.context != morphism.source:
        raise ValueError(f"strategy context {s.context!r} is not {morphism.source!r}")
    return TU(morphism.target, lambda t: morphism.run(s.run(t)))


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

    def seq(first: TU, second: TU) -> TU:
        ctx = _same_context(first, second)

        def run(t):
            return ctx.bind(
                first.run(t),
                lambda a: ctx.bind(second.run(t), lambda b: ctx.pure(monoid.append(a, b))),
            )

        return TU(ctx, run)

    return OverloadedOps(
        seq, choice_tu, lambda s: all_tu(s, monoid), one_tu, adhoc_tu
    )
