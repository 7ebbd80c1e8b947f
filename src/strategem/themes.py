"""Traversal schemes.

Recurring traversal shapes, captured once over the core combinators so
concrete traversals are one-liners.  Nothing in here mentions a concrete
datatype; type-specific behaviour always arrives through the argument
strategies.

The defining equations, with seq/choice/all/one from the core vocabulary:

  topdown(s)   = seq(s, all(topdown(s)))
  bottomup(s)  = seq(all(bottomup(s)), s)
  once_td(s)   = choice(s, one(once_td(s)))
  once_bu(s)   = choice(one(once_bu(s)), s)
  stop_td(s)   = choice(s, all(stop_td(s)))
  try_(s)      = choice(s, identity)
  repeat_(s)   = try_(seq(s, repeat_(s)))
  innermost(s) = seq(all(innermost(s)), try_(seq(s, innermost(s))))

A scheme written once reads at both kinds (see `traverse_meta`).  The
analyses `crush`, `stop_td_tu` and `select` are TU readings, not schemes
of their own: `crush` is `topdown` and `stop_td_tu` is `stop_td`, each
over `tu_ops(monoid)`, where seq runs both analyses on the same term and
appends their results; `select` is `once_td` at an analysis.

`repeat_` and `innermost` terminate only for terminating rewrite systems.
"""

from __future__ import annotations

from operator import sub
from typing import Any, Callable

from .effects import Monoid, SET_UNION, StateOver, unlift_state
from .strategies import (
    TP,
    TU,
    OverloadedOps,
    _both,
    _msubst,
    _node,
    _recursive,
    all_tp,
    all_tu,
    choice_tp,
    choice_tu,
    identity_tp,
    let_tu,
    one_tp,
    one_tu,
    seq_tp,
    tp_ops,
    tu_ops,
)

__all__ = [
    "topdown",
    "bottomup",
    "once_td",
    "once_bu",
    "stop_td",
    "stop_td_tu",
    "try_",
    "repeat_",
    "innermost",
    "crush",
    "select",
    "selectenv",
    "free_names",
    "traverse_meta",
    "local_state",
]


def _topdown(ops: OverloadedOps, s):
    return traverse_meta(ops.seq, ops.all, s)


def _stop_td(ops: OverloadedOps, s):
    return traverse_meta(ops.choice, ops.all, s)


def _choice_one(s):
    # The kind's (choice, one): a scheme built from them reads at both kinds.
    return (choice_tp, one_tp) if isinstance(s, TP) else (choice_tu, one_tu)


def topdown(s: TP) -> TP:
    """Apply a transformation to every subterm, root first."""
    return _topdown(tp_ops(), s)


def bottomup(s: TP) -> TP:
    """Apply a transformation to every subterm, leaves first."""
    return _recursive(s, lambda rec: seq_tp(all_tp(rec), s))


def once_td(s):
    """Apply a strategy to the first subterm it succeeds on, in preorder."""
    return traverse_meta(*_choice_one(s), s)


def once_bu(s):
    """Apply a strategy to the first subterm it succeeds on, leaves first."""
    choice, one = _choice_one(s)
    return _recursive(s, lambda rec: choice(one(rec), s))


def stop_td(s: TP) -> TP:
    """Transform top-down but do not descend below a success."""
    return _stop_td(tp_ops(), s)


def stop_td_tu(s: TU, monoid: Monoid) -> TU:
    """Collect top-down, cutting off below every success."""
    return _stop_td(tu_ops(monoid), s)


def try_(s: TP) -> TP:
    """Attempt a transformation, keeping the term on failure."""
    return choice_tp(s, identity_tp(_node(s, TP).ctx))


def repeat_(s: TP) -> TP:
    """Apply a transformation at the root until it fails."""
    return _recursive(s, lambda rec: try_(seq_tp(s, rec)))


def innermost(s: TP) -> TP:
    """Rewrite to normal form: exhaustively, innermost redexes first."""
    return _recursive(s, lambda rec: seq_tp(all_tp(rec), try_(seq_tp(s, rec))))


def crush(s: TU, monoid: Monoid) -> TU:
    """Fold an analysis over every subterm, root first.

    At each node the node's own result comes before the children's fold.
    The step must succeed everywhere it is reached; wrap a partial step
    in choice with a neutral build first.
    """
    return _topdown(tu_ops(monoid), s)


def select(s: TU) -> TU:
    """The result of a partial analysis at the first subterm it holds on.

    Fails only if the analysis fails at every subterm.
    """
    return once_td(s)


def selectenv(env, update: Callable, s: Callable[[Any], TU]) -> TU:
    """Selection with an environment threaded along the descent.

    At each node the strategy for the current environment is tried first;
    below the node the environment becomes `update(env, node)`.
    """
    ctx = _node(s(env), TU).ctx
    node = TU(ctx, ctx.pure)  # the analysis whose result is the term itself

    def at(env):
        return choice_tu(s(env), let_tu(node, lambda t: one_tu(at(update(env, t)))))

    return at(env)


def free_names(refs: TU, decs: TU) -> TU:
    """Free-name analysis over any scoping discipline.

    `refs` yields the names a node itself mentions, `decs` the names the
    node binds for everything below it; both must be total and return
    sets.  A node's free names are its own and its children's, minus what
    it binds: (refs | free names below) - decs, each part read at the
    same node.
    """
    union = SET_UNION.append
    return _recursive(
        refs, lambda rec: _both(_both(refs, all_tu(rec, SET_UNION), union), decs, sub)
    )


def traverse_meta(combine: Callable, descend: Callable, s):
    """The scheme behind the schemes: traverse(s) = combine(s, descend(traverse(s))).

    With the overloaded vocabulary, (seq, all) reads as topdown for
    transformations and as crush for analyses; (choice, one) reads as
    once_td for both.
    """
    return _recursive(s, lambda rec: combine(s, descend(rec)))


def local_state(initial, s):
    """Hide the state of a stateful strategy.

    The strategy must live in a StateOver context; the result lives in
    the inner context, starts every application from `initial` and
    discards the final state.
    """
    node = _node(s)
    if not isinstance(node.ctx, StateOver):
        raise TypeError(f"local_state needs a strategy in a state context, got {node.ctx!r}")
    return _msubst(TP if node.tp else TU, unlift_state(node.ctx, initial), s)
