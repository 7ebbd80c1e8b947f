"""Fixed-batch timings of each layer, taken from spans in the traced run.

Every metric here times a public call, or a fixed batch of them, on
inputs that depend on neither the seed nor the workload.  The calls run
inside spans named after the metric, and the value is the total duration
of those spans divided by the batch: calls, term nodes or kilobytes of
source.  `module` is a fixed 2,000-declaration module and `list` a fixed
2,000-element `list_of(pair_of(BOOL, INT))`; the term-view list metrics
walk a 4,000-element one.
"""

from __future__ import annotations

import random

import gen
import refs
import workloads
from strategem import (
    IDENTITY,
    INT,
    INT_SUM,
    NOTHING,
    PARTIAL,
    PARTIAL_STATE,
    STATE,
    Just,
    adhoc_tp,
    adhoc_tu,
    all_tp,
    all_tu,
    apply,
    build_tu,
    children,
    choice_tp,
    fail_tp,
    fail_tu,
    free_names,
    identity_tp,
    innermost,
    once_td,
    one_tp,
    one_tu,
    rebuild,
    same_term,
    select,
    seq_tp,
    stop_td,
    term,
    topdown,
    validate_term,
)
from strategem.analyses import (
    all_types,
    count_of_type,
    de_bruijn,
    encode,
    free_vars,
    inc_ints,
    is_fresh_type,
    no_codes,
    select_focus,
    to_alias,
    type_token,
)
from strategem.minilang import DECL, EXPR, MODULE, PATTERN, TYPE, Focus, Var, parse, pretty, to_term

EFFECT_BATCH = 200_000
MODULE_DECLS = 2000
LIST_ELEMS = 2000
LONG_LIST_ELEMS = 4000
STREAM_LENGTH = 300
CHUNK = 500  # cons cells whose children are held at once for the rebuild timing
CONTEXTS = {"identity": IDENTITY, "partial": PARTIAL, "state": STATE, "partial_state": PARTIAL_STATE}
SCALE = {"ns": 1, "us": 1e3, "ms": 1e6}


def _run(ctx, comp):
    """Eliminate a computation; state contexts start from state 0."""
    return comp(0) if ctx in (STATE, PARTIAL_STATE) else comp


def _never(_value):
    return PARTIAL.zero()


def _focus(e):
    return PARTIAL.pure(e) if isinstance(e, Focus) else PARTIAL.zero()


def _var_name(e):
    return frozenset({e.name}) if isinstance(e, Var) else frozenset()


def _rebuild_all(pairs):
    for t, kids in pairs:
        rebuild(t, kids)


def _subterms(root) -> list:
    """Every subterm, root first, without recursion."""
    out, stack = [], [root]
    while stack:
        t = stack.pop()
        out.append(t)
        stack.extend(reversed(children(t)))
    return out


class Suite:
    def __init__(self, lib: workloads.Library):
        rng = random.Random("layers")
        self.lib = lib
        self.text = gen.render(gen.module_tree(rng, MODULE_DECLS, name="Layers"))
        self.module = parse(self.text)
        self.mterm = to_term(self.module)
        self.copy = to_term(parse(self.text))
        self.mnodes = refs.count_nodes(self.module)
        self.decls = [to_term(d) for d in self.module.decls]
        syntax = (MODULE, DECL, TYPE, EXPR, PATTERN)
        self.nodes = [t for t in _subterms(self.mterm) if t.tag in syntax]
        self.list = term(gen.pair_list(rng, LIST_ELEMS), workloads.PAIRS)
        self.list_nodes = 4 * LIST_ELEMS + 1
        self.long_list = term(gen.pair_list(rng, LONG_LIST_ELEMS), workloads.PAIRS)
        self.stream = workloads.encode_stream_terms(rng, STREAM_LENGTH)[0]

    def run(self, tr) -> dict:
        """Run every timing under `tr`; returns {metric: (value, unit)}."""
        self.tr = tr
        self.per = {}
        self._effects()
        self._terms()
        self._strategies()
        self._themes()
        self._minilang()
        self._analyses()
        totals = {}
        for span in tr.spans:
            if span[0] in self.per:
                totals[span[0]] = totals.get(span[0], 0) + span[2] - span[1]
        return {
            name: (totals[name] / SCALE[unit.split("/")[0]] / per, unit)
            for name, (unit, per) in self.per.items()
        }

    def time(self, name, unit, per, fn, *args):
        """Call `fn` in a span counted towards metric `name`, `per` units of work."""
        self.per[name] = (unit, per)
        return self.tr.call(name, fn, *args)

    def _effects(self):
        def identity_bind():
            bind, pure = IDENTITY.bind, IDENTITY.pure
            for _ in range(EFFECT_BATCH):
                bind(1, pure)

        def partial_bind():
            bind, pure, just = PARTIAL.bind, PARTIAL.pure, Just(1)
            for _ in range(EFFECT_BATCH):
                bind(just, pure)

        def plus_lazy():
            plus, just = PARTIAL.plus_lazy, Just(1)
            first, second = (lambda: NOTHING), (lambda: just)
            for _ in range(EFFECT_BATCH):
                plus(first, second)

        def state_bind(ctx):
            # A state computation does its work when run, so run each bind once.
            bind, pure, comp = ctx.bind, ctx.pure, ctx.pure(1)
            for _ in range(EFFECT_BATCH):
                bind(comp, pure)(0)

        self.time("effects.identity.bind_ns", "ns", EFFECT_BATCH, identity_bind)
        self.time("effects.partial.bind_ns", "ns", EFFECT_BATCH, partial_bind)
        self.time("effects.partial.plus_lazy_ns", "ns", EFFECT_BATCH, plus_lazy)
        self.time("effects.state.bind_ns", "ns", EFFECT_BATCH, state_bind, STATE)
        self.time("effects.partial_state.bind_ns", "ns", EFFECT_BATCH, state_bind, PARTIAL_STATE)

    def _terms(self):
        cells = LONG_LIST_ELEMS + 1  # cons cells and the final nil

        def walk_list():
            t = self.long_list
            while True:
                kids = children(t)
                if not kids:
                    return
                t = kids[1]

        self.time("terms.children.list_ns", "ns", cells, walk_list)
        # Rebuild every cons cell from its own children.  The children are
        # taken outside the spans, a chunk at a time, to bound memory.
        t, chunk = self.long_list, []
        while True:
            kids = children(t)
            if kids:
                chunk.append((t, kids))
                t = kids[1]
            if len(chunk) == CHUNK or not kids:
                self.time("terms.rebuild.list_ns", "ns", cells - 1, _rebuild_all, chunk)
                chunk = []
            if not kids:
                break

        nodes = self.nodes
        self.time("terms.children.node_ns", "ns", len(nodes), lambda: [children(t) for t in nodes])
        pairs = [(t, children(t)) for t in nodes]
        self.time("terms.rebuild.node_ns", "ns", len(nodes), _rebuild_all, pairs)
        self.time("terms.same_term.us_per_node", "us/node", self.mnodes, same_term, self.mterm, self.copy)
        self.time("terms.validate_term.us_per_node", "us/node", self.mnodes, validate_term, self.mterm)
        values = [(t.value, t.tag) for t in nodes]
        self.time("terms.term_ns", "ns", len(values), lambda: [term(v, tag) for v, tag in values])

    def _strategies(self):
        batch = self.decls

        def each(ctx, strategy):
            def run():
                for t in batch:
                    _run(ctx, apply(strategy, t))

            return run

        def timed(name, ctx, strategy):
            self.time(f"strategies.{name}.us", "us", len(batch), each(ctx, strategy))

        for name, ctx in CONTEXTS.items():
            timed(f"all_tp.{name}", ctx, all_tp(identity_tp(ctx)))
        for name, ctx in CONTEXTS.items():
            timed(f"all_tu.{name}", ctx, all_tu(build_tu(ctx, 0), INT_SUM))
        for name in ("partial", "partial_state"):
            ctx = CONTEXTS[name]
            timed(f"one_tp.{name}", ctx, one_tp(fail_tp(ctx)))
            timed(f"one_tu.{name}", ctx, one_tu(fail_tu(ctx)))
        timed("choice_tp.partial", PARTIAL, choice_tp(fail_tp(PARTIAL), identity_tp(PARTIAL)))
        timed("adhoc_tp.identity", IDENTITY, adhoc_tp(identity_tp(IDENTITY), DECL, IDENTITY.pure))
        timed("seq_tp.identity", IDENTITY, seq_tp(identity_tp(IDENTITY), identity_tp(IDENTITY)))

    def _themes(self):
        lib = self.lib
        inputs = {"module": (self.mterm, self.mnodes), "list": (self.list, self.list_nodes)}
        tick_state = topdown(adhoc_tp(identity_tp(STATE), INT, workloads.tick(STATE)))
        search = once_td(adhoc_tp(fail_tp(PARTIAL), INT, _never))  # finds nothing: a full search
        odd_to_even = innermost(adhoc_tp(fail_tp(PARTIAL), INT, workloads.odd_to_even))
        at_types = stop_td(adhoc_tp(fail_tp(PARTIAL), TYPE, PARTIAL.pure))
        focus = select(adhoc_tu(fail_tu(PARTIAL), EXPR, _focus))
        empty = build_tu(IDENTITY, frozenset())
        names = free_names(adhoc_tu(empty, EXPR, _var_name), empty)
        plan = [
            ("topdown.identity", IDENTITY, lib.inc, ("module", "list")),
            ("topdown.state", STATE, tick_state, ("module", "list")),
            ("bottomup.identity", IDENTITY, lib.flip, ("list",)),
            ("crush.identity", IDENTITY, lib.sum, ("module", "list")),
            ("once_td.partial", PARTIAL, search, ("module", "list")),
            ("stop_td.partial", PARTIAL, at_types, ("module",)),
            ("innermost.partial", PARTIAL, odd_to_even, ("list",)),
            ("select.partial", PARTIAL, focus, ("module",)),
            ("free_names.identity", IDENTITY, names, ("module",)),
        ]
        for name, ctx, strategy, where in plan:
            for key in where:
                t, nodes = inputs[key]
                self.time(f"themes.{name}.{key}", "us/node", nodes, lambda: _run(ctx, apply(strategy, t)))

    def _minilang(self):
        kb = len(self.text.encode("ascii")) / 1024
        self.time("minilang.parse.us_per_kb", "us/KB", kb, parse, self.text)
        decls = self.module.decls
        self.time("minilang.to_term_us", "us", len(decls), lambda: [to_term(d) for d in decls])
        self.time("minilang.pretty.us_per_node", "us/node", self.mnodes, pretty, self.module)

    def _analyses(self):
        m, t, n = self.module, self.mterm, self.mnodes
        calls = [
            ("inc_ints", inc_ints, t),
            ("all_types", all_types, m),
            ("is_fresh_type", lambda mod: is_fresh_type(gen.FRESH, mod), m),
            ("free_vars", free_vars, t),
            ("count_of_type", lambda term_: count_of_type(type_token(DECL), term_), t),
            ("de_bruijn", de_bruijn, t),
            ("to_alias", lambda mod: to_alias(gen.ALIAS, mod), m),
            ("select_focus", select_focus, m),
        ]
        for name, fn, arg in calls:
            self.time(f"analyses.{name}.us_per_node", "us/node", n, fn, arg)
        coder = no_codes()
        for d in self.stream:
            _code, coder = self.time("analyses.encode.us_per_call", "us", len(self.stream), encode, coder, d)

