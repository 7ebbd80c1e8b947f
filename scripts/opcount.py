#!/usr/bin/env python3
"""Count the bytecodes a few library operations execute.

A wall-clock timing of a few-percent change drowns in run-to-run noise on
a shared machine; the number of bytecodes an operation executes does not
vary between runs.  This script builds fixed inputs (a generated `.ml0`
module of 60 declarations and a 300-element list of pairs), runs each
operation once to fill the caches, then counts the opcodes it executes
under `sys.settrace`.  Work done in C (set and dict operations, builtins)
is not counted.  Compare two trees by pointing PYTHONPATH at each `src/`:

    PYTHONPATH=src python3 scripts/opcount.py
"""

from __future__ import annotations

import sys

from strategem import BOOL, IDENTITY, INT, adhoc_tp, apply, identity_tp, list_of, pair_of, term, topdown
from strategem.analyses import all_types, count_of_type, free_vars, inc_ints, type_token
from strategem.minilang import DECL, parse, to_term


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
    ops = [
        ("inc_ints", inc_ints, mterm),
        ("all_types", all_types, module),
        ("free_vars", free_vars, mterm),
        ("count_of_type", lambda t: count_of_type(type_token(DECL), t), mterm),
        ("topdown_list", lambda t: apply(bump, t), pairs),
        ("hash", hash, mterm),
        ("eq", lambda t: t == mcopy, mterm),
    ]
    print(f"python {sys.version.split()[0]}")
    for name, fn, arg in ops:
        fn(arg)
        print(f"{name:<14}{opcodes(fn, arg):>10}")


if __name__ == "__main__":
    main()
