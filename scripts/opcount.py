#!/usr/bin/env python3
"""Count the bytecodes a few library operations execute.

A wall-clock timing of a few-percent change drowns in run-to-run noise on
a shared machine; the number of bytecodes an operation executes does not
vary between runs.  This script builds fixed inputs (a generated `.ml0`
module of 60 declarations and a 300-element list of pairs), runs each
operation once to fill the caches, then counts the opcodes it executes
under `sys.settrace`.  The first seven operations run in IDENTITY; the
next four read the computations of PARTIAL, STATE and PARTIAL_STATE
steps.  The next three build their strategy inside the operation and run
it on a one-element list or a pair, so they count the read behind
pruning: each node of a strategy is read where it is built, and each
layer settles its strategy's reading on its first run.  `read_shared`
places one strategy at two places on each of eight levels.  `parse`
reads the module's text; its regex matching runs in C and is not
counted.  `pretty` renders the module's syntax value to text.  `to_alias`
runs on the module with one more declaration, which holds a type focus
equal to a synonym's right-hand side, so it rebuilds each term on the
path to the focus through `one_tp`.  `selectenv` searches the module
with a PARTIAL INT step that never matches, under an environment that
counts the depth, so it builds a `choice_tu`, a `let_tu` and a `one_tu`
at each node it enters.  `crush_list` sums a 300-element list of INTs
with `crush` over INT_SUM, and `select_list` searches it with a PARTIAL
step that matches only its last element, so they count the one-frame
walk of a list's elements under `all_tu` and under `one`.  `build`
applies nothing: it calls each of the 29 functions that make a strategy
from strategies once, on fixed small strategies, so it counts
construction alone, the reading of each new node included.  Work done in C (set and dict operations, builtins) is
not counted.  Compare two trees by pointing PYTHONPATH at each `src/`:

    PYTHONPATH=src python3 scripts/opcount.py
"""

from __future__ import annotations

import sys

from strategem import (
    BOOL,
    IDENTITY,
    INT,
    INT_SUM,
    PARTIAL,
    PARTIAL_STATE,
    adhoc_tp,
    adhoc_tu,
    all_tp,
    all_tu,
    apply,
    bottomup,
    build_tu,
    choice_tp,
    choice_tu,
    crush,
    fail_tp,
    fail_tu,
    free_names,
    identity_morphism,
    identity_tp,
    innermost,
    let_tp,
    let_tu,
    list_of,
    local_state,
    msubst_tp,
    msubst_tu,
    once_bu,
    once_td,
    one_tp,
    one_tu,
    pair_of,
    repeat_,
    select,
    selectenv,
    seq_tp,
    seq_tu,
    stop_td,
    stop_td_tu,
    term,
    topdown,
    traverse_meta,
    try_,
)
from strategem.analyses import (
    all_types,
    count_of_type,
    de_bruijn,
    encode,
    free_vars,
    inc_ints,
    no_codes,
    to_alias,
    type_token,
)
from strategem.minilang import DECL, parse, pretty, to_term


def module_text(n: int) -> str:
    """A module cycling through data, synonym, function and value declarations."""
    lines = ["module Count where"]
    for i in range(n):
        d = i - i % 4  # the data declaration of this group of four
        lines.append(
            (
                f"data D{i} = A{i} Int D{i} | B{i}",
                f"type S{i} = Int -> D{d}",
                f"f{i} x = let y = g x {i} in \\(A{d} n r) -> h y n {i + 1}",
                f'v{i} = f{i - 1} (A{d} {i} B{d}) "s{i}"',
            )[i % 4]
        )
    return "\n".join(lines) + "\n"


def tick(n):
    """Count one more INT in the state, keeping the INT."""
    ctx = PARTIAL_STATE
    return ctx.bind(ctx.get(), lambda k: ctx.bind(ctx.put(k + 1), lambda _: ctx.pure(n)))


def encode_all(terms) -> None:
    """Encode the terms in turn, threading one coder through them."""
    coder = no_codes()
    for t in terms:
        coder = encode(coder, t)[1]


def read_nested(t):
    """`topdown` nested 8 deep over an INT increment, built and applied."""
    s = adhoc_tp(identity_tp(IDENTITY), INT, lambda n: n + 1)
    for _ in range(8):
        s = topdown(s)
    return apply(s, t)


def read_mixed(t):
    """`topdown` over a `try_` of a `once_td`, built and applied."""
    bump = adhoc_tp(fail_tp(PARTIAL), INT, lambda v: PARTIAL.pure(v + 1))
    return apply(topdown(try_(once_td(bump))), t)


def read_shared(t):
    """`topdown(seq_tp(s, s))` nested 8 deep over an INT increment, built and applied."""
    s = adhoc_tp(identity_tp(IDENTITY), INT, lambda n: n + 1)
    for _ in range(8):
        s = topdown(seq_tp(s, s))
    return apply(s, t)


def build(parts) -> list:
    """Each function that makes a strategy from strategies, called once."""
    tp, tu, stateful = parts
    morphism = identity_morphism(PARTIAL)
    return [
        seq_tp(tp, tp),
        seq_tu(tp, tu),
        let_tp(tu, lambda _n: tp),
        let_tu(tu, lambda _n: tu),
        choice_tp(tp, tp),
        choice_tu(tu, tu),
        all_tp(tp),
        all_tu(tu, INT_SUM),
        one_tp(tp),
        one_tu(tu),
        adhoc_tp(tp, INT, PARTIAL.pure),
        adhoc_tu(tu, INT, PARTIAL.pure),
        msubst_tp(morphism, tp),
        msubst_tu(morphism, tu),
        topdown(tp),
        bottomup(tp),
        once_td(tp),
        once_bu(tp),
        stop_td(tp),
        stop_td_tu(tu, INT_SUM),
        try_(tp),
        repeat_(tp),
        innermost(tp),
        crush(tu, INT_SUM),
        select(tu),
        selectenv(0, lambda env, _t: env, lambda _env: tu),
        free_names(tu, tu),
        traverse_meta(seq_tp, all_tp, tp),
        local_state(0, stateful),
    ]


def opcodes(fn, *args) -> int:
    """The opcodes executed by `fn(*args)`, in Python frames it enters."""
    count = 0

    def trace(frame, event, _arg):
        nonlocal count
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def main() -> None:
    text = module_text(60)
    module = parse(text)
    mterm, mcopy = to_term(module), to_term(parse(text))
    pairs = term([(i % 2 == 0, i) for i in range(300)], list_of(pair_of(BOOL, INT)))
    bump = topdown(adhoc_tp(identity_tp(IDENTITY), INT, lambda n: IDENTITY.pure(n + 1)))
    never = once_td(adhoc_tp(fail_tp(PARTIAL), INT, lambda _n: PARTIAL.zero()))
    count_ints = local_state(0, topdown(adhoc_tp(identity_tp(PARTIAL_STATE), INT, tick)))
    no_int = adhoc_tu(fail_tu(PARTIAL), INT, lambda _n: PARTIAL.zero())
    find_env = selectenv(0, lambda env, _t: env + 1, lambda _env: no_int)
    ints = term(list(range(300)), list_of(INT))
    total = crush(adhoc_tu(build_tu(IDENTITY, 0), INT, IDENTITY.pure), INT_SUM)
    last = select(adhoc_tu(fail_tu(PARTIAL), INT, lambda n: PARTIAL.pure(n) if n == 299 else PARTIAL.zero()))
    decls = [to_term(d) for d in module.decls] * 2
    one_pair = term([(True, 1)], list_of(pair_of(BOOL, INT)))
    focused = parse(text + "data Focus = MkFocus << Int -> D0 >>\n")  # the focus is S1's right-hand side
    ops = [
        ("inc_ints", inc_ints, mterm),
        ("all_types", all_types, module),
        ("free_vars", free_vars, mterm),
        ("count_of_type", lambda t: count_of_type(type_token(DECL), t), mterm),
        ("topdown_list", lambda t: apply(bump, t), pairs),
        ("hash", hash, mterm),
        ("eq", lambda t: t == mcopy, mterm),
        ("once_td", lambda t: apply(never, t), pairs),
        ("de_bruijn", de_bruijn, mterm),
        ("local_state", lambda t: apply(count_ints, t), pairs),
        ("encode", encode_all, decls),
        ("read_nested", read_nested, one_pair),
        ("read_mixed", read_mixed, one_pair),
        ("read_shared", read_shared, term((True, 1), pair_of(BOOL, INT))),
        ("parse", parse, text),
        ("pretty", pretty, module),
        ("to_alias", lambda m: to_alias("S1", m), focused),
        ("selectenv", lambda t: apply(find_env, t), mterm),
        ("crush_list", lambda t: apply(total, t), ints),
        ("select_list", lambda t: apply(last, t), ints),
        ("build", build, (identity_tp(PARTIAL), build_tu(PARTIAL, 0), identity_tp(PARTIAL_STATE))),
    ]
    print(f"python {sys.version.split()[0]}")
    for name, fn, arg in ops:
        fn(arg)
        print(f"{name:<14}{opcodes(fn, arg):>10}")


if __name__ == "__main__":
    main()
