"""The four workloads: inputs, operations, output checks and the timed loop.

An operation (`Op`) is one call into the library's public interface, with
the number of term nodes in its input and a check of its output against
an independent reference.  Checks run outside the timed region.

  cli-read       `cli.main` in-process: collect-types, fresh-type,
                 free-vars, count-decls, select-focus
  cli-write      `cli.main` in-process: inc-ints, debruijn, to-alias
  library-data   traversal schemes and `encode` on containers, a
                 descriptor-registered tree and declaration streams
  default-stack  a fixed ladder of every op family at the interpreter's
                 default recursion limit, plus a timed loop over the
                 ladder's base rung
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

import gen
import oracles
import refs
import spans
from strategem import (
    BOOL,
    IDENTITY,
    INT,
    INT_SUM,
    PARTIAL,
    PARTIAL_STATE,
    STATE,
    adhoc_tp,
    adhoc_tu,
    apply,
    bottomup,
    build_tu,
    crush,
    fail_tp,
    identity_tp,
    innermost,
    list_of,
    local_state,
    once_td,
    optional_of,
    pair_of,
    term,
    topdown,
)
from strategem import cli
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
from strategem.minilang import (
    DECL,
    MODULE,
    App,
    FunBind,
    LitInt,
    Module,
    Var,
    parse,
    pretty,
    pretty_expr,
    to_term,
)
from strategem.terms import Registry, cast, register_descriptors

READ_COMMANDS = ("collect-types", "fresh-type", "free-vars", "count-decls", "select-focus")
WRITE_COMMANDS = ("inc-ints", "debruijn", "to-alias")
NAMED_COMMANDS = ("fresh-type", "to-alias")

# Timed loops run at least this many ops, so op_ms_p90 has ten samples above it.
MIN_OPS = 110

CORPUS_SIZES = (100, 2000)  # declarations per module, log-spaced
LIST_SIZES = (500, 4000)  # elements per list and leaves per tree, log-spaced
STREAM_SIZES = (50, 400)  # declarations per encode stream, log-spaced
WARM_DECLS = 12

# default-stack ladder.  Fixed: the same inputs for every seed.
LADDER_DECLS = (50, 100, 200, 500, 1000, 2000)
LADDER_ELEMS = (60, 120, 250, 500, 1000, 2000, 4000)
LADDER_DEPTH = (50, 100, 200, 600, 1000, 2000)
LADDER_SEED = 0

PAIRS = list_of(pair_of(BOOL, INT))
OPT_INT = optional_of(INT)
OPTS = list_of(OPT_INT)
INTS = list_of(INT)


@dataclass
class Op:
    kind: str  # what the op does, e.g. "free-vars" or "topdown.identity"
    layer: str  # the layer whose public function the op calls
    nodes: int  # term nodes in the input
    run: Callable  # tracer -> output: the timed work, one span per public call
    check: Callable[[object], bool]  # output against the reference
    input_id: str  # ops on the same input share it; max_ok_nodes groups by it
    parts: Callable | None = None  # cli ops: tracer -> the library calls of cli.main, one span each


# -- cli ---------------------------------------------------------------------------


class _Sink:
    """A stream that keeps what is written to it without copying it.

    The captured output of `debruijn` on a large module runs to tens of
    megabytes; a `StringIO` would copy it twice inside the timed region.
    """

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


def run_cli(argv):
    """`cli.main` in-process; returns (exit status, the chunks written to stdout)."""
    out = _Sink()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_Sink()):
        status = cli.main(argv)
    return status, out.chunks


# The library calls `cli._run_command` makes for each command, one span each.
def _pipeline(tr, command, source, name):
    module = tr.call("minilang.parse", parse, source)

    def term_of(m):
        return tr.call("minilang.to_term", to_term, m)

    if command == "collect-types":
        return tr.call("analyses.all_types", all_types, module)
    if command == "fresh-type":
        return tr.call("analyses.is_fresh_type", is_fresh_type, name, module)
    if command == "free-vars":
        return tr.call("analyses.free_vars", free_vars, term_of(module))
    if command == "count-decls":
        token = type_token(DECL)
        return tr.call("analyses.count_of_type", count_of_type, token, term_of(module))
    if command == "select-focus":
        return tr.call("minilang.pretty", pretty_expr, tr.call("analyses.select_focus", select_focus, module))
    if command == "inc-ints":
        done = tr.call("analyses.inc_ints", inc_ints, term_of(module))
        return tr.call("minilang.pretty", pretty, cast(done, MODULE).value)
    if command == "debruijn":
        done = tr.call("analyses.de_bruijn", de_bruijn, term_of(module))
        return tr.call("minilang.pretty", pretty, cast(done, MODULE).value)
    if command == "to-alias":
        return tr.call("minilang.pretty", pretty, tr.call("analyses.to_alias", to_alias, name, module))
    raise ValueError(command)


@dataclass
class Source:
    """One generated `.ml0` file with the digest of every command's expected stdout."""

    path: str
    nodes: int
    expected: dict
    name: str  # --name for fresh-type


def write_source(tree, path: str, fresh_name: str) -> Source:
    text = gen.render(tree)
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
    module = parse(text)
    types = oracles.all_types(module)
    expected, renamed = gen.expected_digests(tree)
    # The printer's renderings must agree with the oracle walkers.
    bumped = [n + 1 for n in oracles.collect_ints(module)]
    if oracles.collect_ints(parse(gen.Printer(int_delta=1).module(tree))) != bumped:
        raise AssertionError(f"{path}: inc-ints reference disagrees with collect_ints")
    if renamed != len(oracles.collect_strings(module)):
        raise AssertionError(f"{path}: debruijn reference disagrees with collect_strings")
    expected["collect-types"] = gen.digest(sorted(types))
    expected["fresh-type"] = gen.digest(["false" if fresh_name in types else "true"])
    expected["free-vars"] = gen.digest(sorted(refs.free_vars_module(module)))
    expected["count-decls"] = gen.digest([str(oracles.count_decls(module))])
    return Source(path, refs.count_nodes(module), expected, fresh_name)


def cli_op(src: Source, command: str) -> Op:
    argv = [command] + (["--name", _name(src, command)] if command in NAMED_COMMANDS else [])
    argv.append(src.path)
    want = src.expected[command]

    def check(out):
        status, chunks = out
        h = hashlib.sha256()
        for chunk in chunks:
            h.update(chunk.encode("ascii"))
        return status == 0 and h.hexdigest() == want

    def run(tr):
        return tr.call("cli.main", run_cli, argv)

    def parts(tr):
        # Read outside the span: the file read is part of cli.main's self time.
        with open(src.path, encoding="ascii") as handle:
            source = handle.read()
        return tr.call(spans.PARTS, _pipeline, tr, command, source, _name(src, command))

    return Op(command, "cli", src.nodes, run, check, src.path, parts)


def _name(src: Source, command: str) -> str:
    return gen.ALIAS if command == "to-alias" else src.name


def write_warm_source(path: str) -> Source:
    """The small module every warm-up runs the CLI commands on."""
    return write_source(gen.module_tree(random.Random("warm"), WARM_DECLS, "Warm"), path, gen.FRESH)


def cli_sources(seed: int, workdir: str, count: int, sizes: tuple) -> list:
    sources = []
    for i, (_size, tree, _text) in enumerate(gen.corpus(seed, count, *sizes)):
        path = os.path.join(workdir, f"m{i:02d}.ml0")
        sources.append(write_source(tree, path, gen.FRESH if i % 2 else gen.ALIAS))
    return sources


def cli_ops(sources: list, commands: tuple) -> list:
    return interleave([[cli_op(src, c) for c in commands] for src in sources])


def interleave(groups: list) -> list:
    """One schedule over every op of every group (one group per input).

    Each step runs one op of each kind, and each kind walks the inputs in
    `gen.spread_order` from its own offset.  So consecutive ops never share
    an input, every stretch of the schedule mixes small and large inputs,
    and the slowest ops are spread over the run instead of sharing one
    stretch of time.
    """
    n, kinds = len(groups), len(groups[0])
    order = gen.spread_order(n)
    shift = max(1, n // kinds)
    return [groups[order[(p + k * shift) % n]][k] for p in range(n) for k in range(kinds)]


# -- library data ---------------------------------------------------------------------


def tick(ctx):
    """A step that replaces a value with the state counter, then bumps it."""

    def step(_old):
        return ctx.bind(ctx.get(), lambda k: ctx.bind(ctx.put(k + 1), lambda _: ctx.pure(k)))

    return step


class Library:
    """The strategies and the tree datatype the library-data ops use.

    Built once per process: building them is part of set-up.
    """

    def __init__(self):
        registry = Registry()
        tags, classes = register_descriptors(registry, gen.TREE_DESCRIPTORS)
        registry.freeze()
        self.tree = tags["Tree"]
        self.leaf = classes[("Tree", "Leaf")]
        self.node = classes[("Tree", "Node")]
        leaf, node = self.leaf, self.node

        def merge(v):
            if isinstance(v, node) and isinstance(v.f0, leaf) and isinstance(v.f1, leaf):
                return PARTIAL.pure(leaf(v.f0.f0 + v.f1.f0))
            return PARTIAL.zero()

        def fill(v):
            return PARTIAL.pure(0) if v is None else PARTIAL.zero()

        self.inc = topdown(adhoc_tp(identity_tp(IDENTITY), INT, lambda n: n + 1))
        self.flip = bottomup(adhoc_tp(identity_tp(IDENTITY), BOOL, lambda b: not b))
        self.renumber = local_state(0, topdown(adhoc_tp(identity_tp(STATE), INT, tick(STATE))))
        self.renumber_partial = local_state(
            0, topdown(adhoc_tp(identity_tp(PARTIAL_STATE), INT, tick(PARTIAL_STATE)))
        )
        self.sum = crush(adhoc_tu(build_tu(IDENTITY, 0), INT, lambda n: n), INT_SUM)
        self.fill = once_td(adhoc_tp(fail_tp(PARTIAL), OPT_INT, fill))
        self.merge = innermost(adhoc_tp(fail_tp(PARTIAL), self.tree, merge))

    def tree_value(self, shape):
        """Build a tree from `gen.tree_shape` output, without recursion."""
        stack, built = [(shape, False)], []
        while stack:
            s, ready = stack.pop()
            if isinstance(s, int):
                built.append(self.leaf(s))
            elif ready:
                right = built.pop()
                built.append(self.node(built.pop(), right))
            else:
                stack += [(s, True), (s[1], False), (s[0], False)]
        return built[0]


def _theme_op(kind, strategy, t, nodes, want, input_id, unwrap=None):
    unwrap = unwrap or (lambda r: r)

    def run(tr):
        return unwrap(tr.call("themes." + kind.split(".")[0], apply, strategy, t))

    return Op(kind, "themes", nodes, run, lambda got: got == want, input_id)


def _term_value(r):
    return r.value


def _partial_value(r):
    return r.value.value if r is not None and hasattr(r, "value") else None


def _encode_all(tr, terms):
    coder, codes = no_codes(), []
    for t in terms:
        code, coder = tr.call("analyses.encode", encode, coder, t)
        codes.append(code)
    return codes


def encode_stream_terms(rng, length):
    """Declaration terms with repeats, their node count and reference codes."""
    trees = gen.encode_stream(rng, length)
    module = parse(gen.render(("Stream", tuple(trees))))
    codes, want = {}, []
    for tree in trees:
        want.append(codes.setdefault(tree, len(codes) + 1))
    nodes = sum(refs.count_nodes(d) for d in module.decls)
    return [to_term(d) for d in module.decls], nodes, want


def library_ops(seed: int, lib: Library, datasets: int, sizes: tuple, lengths: tuple) -> list:
    rng = random.Random(f"library:{seed}")
    sizes = gen.log_sizes(datasets, *sizes)
    lengths = gen.log_sizes(datasets, *lengths)
    groups = []
    for k, (n, length) in enumerate(zip(sizes, lengths)):
        pairs = gen.pair_list(rng, n)
        opts = gen.optional_list(rng, n)
        shape = gen.tree_shape(rng, n)
        leaves = _leaves(shape)
        pt, ot = term(pairs, PAIRS), term(opts, OPTS)
        tt = term(lib.tree_value(shape), lib.tree)
        p_nodes = 4 * n + 1
        o_nodes = n + 1 + sum(1 if v is None else 2 for v in opts)
        t_nodes = 3 * len(leaves) - 1
        ints = [v for v in opts if v is not None]
        hole = opts.index(None)
        filled = opts[:hole] + [0] + opts[hole + 1 :]
        numbered = iter(range(n))
        renumbered_opts = [None if v is None else next(numbered) for v in opts]
        renumbered_pairs = [(b, i) for i, (b, _) in enumerate(pairs)]
        stream, s_nodes, codes = encode_stream_terms(rng, length)

        def theme(kind, strategy, t, nodes, want, family, unwrap=None):
            return _theme_op(kind, strategy, t, nodes, want, f"{family}{k}", unwrap)

        bumped = [(b, v + 1) for b, v in pairs]
        flipped = [(not b, v) for b, v in pairs]
        merged = lib.leaf(sum(leaves))
        group = [
            theme("topdown.identity", lib.inc, pt, p_nodes, bumped, "pairs", _term_value),
            theme("bottomup.identity", lib.flip, pt, p_nodes, flipped, "pairs", _term_value),
            theme("local_state.state", lib.renumber, pt, p_nodes, renumbered_pairs, "pairs", _term_value),
            theme("crush.identity", lib.sum, ot, o_nodes, sum(ints), "opts"),
            theme("once_td.partial", lib.fill, ot, o_nodes, filled, "opts", _partial_value),
            theme(
                "local_state.partial_state", lib.renumber_partial, ot, o_nodes, renumbered_opts, "opts",
                _partial_value,
            ),
            theme("innermost.partial", lib.merge, tt, t_nodes, merged, "tree", _partial_value),
            theme("crush.identity", lib.sum, tt, t_nodes, sum(leaves), "tree"),
            Op(
                "encode",
                "analyses",
                s_nodes,
                lambda tr, s=stream: _encode_all(tr, s),
                codes.__eq__,
                f"stream{k}",
            ),
        ]
        groups.append(group)
    return interleave(groups)


def _leaves(shape) -> list:
    out, stack = [], [shape]
    while stack:
        s = stack.pop()
        if isinstance(s, int):
            out.append(s)
        else:
            stack += [s[1], s[0]]
    return out


# -- default-stack ladder ------------------------------------------------------------


def odd_to_even(v):
    return PARTIAL.pure(v - 1) if v % 2 else PARTIAL.zero()


def app_chain(depth: int):
    """`f 0 (f 1 (... (f (depth-1) 0)))`: `depth` nested applications."""
    e = LitInt(0)
    for i in reversed(range(depth)):
        e = App(App(Var("f"), LitInt(i)), e)
    return e


def ladder_ops(lib: Library, workdir: str, decls, elems, depths) -> list:
    """Every op family on every rung of the fixed ladder, smallest rung first."""
    rng = random.Random(f"ladder:{LADDER_SEED}")
    ops = []
    for n in decls:
        path = os.path.join(workdir, f"ladder{n}.ml0")
        src = write_source(gen.module_tree(rng, n, name=f"L{n}"), path, gen.FRESH)
        ops += [cli_op(src, c) for c in READ_COMMANDS + WRITE_COMMANDS]
    evens = innermost(adhoc_tp(fail_tp(PARTIAL), INT, odd_to_even))
    for n in elems:
        values = list(range(n))
        t, nodes, key = term(values, INTS), 2 * n + 1, f"list{n}"
        find_last = once_td(
            adhoc_tp(fail_tp(PARTIAL), INT, lambda v, n=n: PARTIAL.pure(-1) if v == n - 1 else PARTIAL.zero())
        )
        ops += [
            _theme_op("topdown.identity", lib.inc, t, nodes, [v + 1 for v in values], key, _term_value),
            _theme_op("crush.identity", lib.sum, t, nodes, sum(values), key),
            _theme_op("once_td.partial", find_last, t, nodes, values[:-1] + [-1], key, _partial_value),
            _theme_op("innermost.partial", evens, t, nodes, [v - v % 2 for v in values], key, _partial_value),
        ]
    for d in depths:
        chain = app_chain(d)
        module = Module("Chain", (FunBind("main", (), chain),))
        nodes = refs.count_nodes(chain)
        text = f"module Chain where\nmain = {refs.chain_text(d)}\n"
        ops += [
            Op(
                "inc_ints",
                "analyses",
                nodes,
                lambda tr, c=chain: tr.call("analyses.inc_ints", inc_ints, to_term(c)).value,
                lambda got, d=d: refs.chain_matches(got, d, 1),
                f"chain{d}",
            ),
            Op(
                "pretty",
                "minilang",
                refs.count_nodes(module),
                lambda tr, m=module: tr.call("minilang.pretty", pretty, m),
                text.__eq__,
                f"chain{d}",
            ),
        ]
    return ops


# -- running ops ------------------------------------------------------------------------


@dataclass
class Outcome:
    op: Op
    seconds: float  # the op alone
    busy_seconds: float  # the op and the collection before it, which frees the last op's garbage
    ok: bool
    error: str | None  # kind of exception the op raised, if any
    raised_in: str | None  # innermost strategem function on the raising stack
    wrong: bool  # completed with an output that failed its check


def raised_in(exc: BaseException) -> str:
    where = "?"
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if os.sep + "strategem" + os.sep in code.co_filename:
            module = os.path.splitext(os.path.basename(code.co_filename))[0]
            where = f"{module}.{code.co_name}"
        tb = tb.tb_next
    return where


def attempt(op: Op, tracer=spans.NULL) -> Outcome:
    """Run one op, time it, then check its output outside the timed region.

    Each op starts from a collected heap, so the garbage of earlier ops
    never lands in its own time or memory; the collection is timed apart
    and counts towards the loop's throughput.
    """
    began = time.perf_counter()
    gc.collect()
    start = time.perf_counter()
    try:
        out = tracer.call("op:" + op.kind, op.run, tracer)
    except Exception as exc:  # recorded as a failure of this op
        end = time.perf_counter()
        return Outcome(op, end - start, end - began, False, type(exc).__name__, raised_in(exc), False)
    end = time.perf_counter()
    right = op.check(out)
    return Outcome(op, end - start, end - began, right, None, None, not right)


def run_all_once(ops: list, tracer=spans.NULL) -> list:
    outcomes = []
    for op in ops:
        tracer.op_id += 1
        outcomes.append(attempt(op, tracer))
    return outcomes


def run_parts(ops: list, tracer, first_op_id: int) -> None:
    """For each cli op, the library calls `cli.main` makes, each in a span,
    under the op id the op had in the traced pass.  A failure stays in its
    span; the pass goes on."""
    for i, op in enumerate(ops):
        if op.parts is not None:
            tracer.op_id = first_op_id + i
            gc.collect()  # as before every timed op
            with contextlib.suppress(Exception):
                op.parts(tracer)


def timed_loop(ops: list, seconds: float) -> list:
    """Closed loop with one client: ops one after another, cycling through
    the schedule, until `seconds` have passed and at least MIN_OPS ran."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    while len(outcomes) < MIN_OPS or time.perf_counter() < deadline:
        outcomes.append(attempt(ops[len(outcomes) % len(ops)]))
    return outcomes


def max_ok_nodes(outcomes: list) -> int:
    """Nodes of the largest input on which every op kind completed correctly."""
    nodes, failed = {}, set()
    for o in outcomes:
        nodes[o.op.input_id] = max(nodes.get(o.op.input_id, 0), o.op.nodes)
        if not o.ok:
            failed.add(o.op.input_id)
    return max((n for key, n in nodes.items() if key not in failed), default=0)


def tally(outcomes: list, recorded=()) -> dict:
    """Counts for the result line, and a log of every op that did not succeed.

    Exceptions whose kind is in `recorded` are what the workload exists to
    record (default-stack's recursion limit): they count against ok_share
    but not as failed ops of the benchmark.
    """
    log = []
    failed = wrong = 0
    for o in outcomes:
        if o.ok:
            continue
        wrong += o.wrong
        failed += o.error not in recorded
        log.append(
            {
                "op": o.op.kind,
                "layer": o.op.layer,
                "input": os.path.basename(o.op.input_id),
                "nodes": o.op.nodes,
                "error": o.error or "wrong output",
                "raised_in": o.raised_in,
            }
        )
    return {"correct": wrong == 0, "attempted": len(outcomes), "failed": failed, "failure_log": log}


# -- warm-up -------------------------------------------------------------------------------


def warm_up(workload: str, lib: Library, path: str) -> None:
    """Run every op kind of the workload once on a small input."""
    if workload != "library-data":
        commands = {"cli-read": READ_COMMANDS, "cli-write": WRITE_COMMANDS}.get(
            workload, READ_COMMANDS + WRITE_COMMANDS
        )
        for command in commands:
            named = ["--name", gen.ALIAS] if command in NAMED_COMMANDS else []
            run_cli([command] + named + [path])
    if workload in ("library-data", "default-stack"):
        pairs = term([(True, 1), (False, 2)] * 4, PAIRS)
        opts = term([1, None, 2, 3] * 2, OPTS)
        tree = term(lib.tree_value(((1, 2), (3, (4, 5)))), lib.tree)
        for strategy, t in [
            (lib.inc, pairs), (lib.flip, pairs), (lib.renumber, pairs), (lib.sum, opts),
            (lib.fill, opts), (lib.renumber_partial, opts), (lib.merge, tree), (lib.sum, tree),
        ]:
            apply(strategy, t)
        chain = app_chain(8)
        inc_ints(to_term(chain))
        pretty(Module("Chain", (FunBind("main", (), chain),)))
        _encode_all(spans.NULL, [to_term(FunBind("f", (), LitInt(i % 3))) for i in range(6)])
