"""Spans recorded around the benchmark's calls into the library.

A span is [name, start_ns, end_ns, parent index, op id, error kind].
Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time

LAYERS = ("cli", "analyses", "minilang", "themes")
# Span holding the library calls `cli.main` makes, repeated on the same input.
PARTS = "cli.parts"


class NullTracer:
    """Records nothing: untraced runs call the same op code through it."""

    op_id = -1

    def call(self, name, fn, *args):
        return fn(*args)


NULL = NullTracer()


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self.op_id = -1

    def call(self, name, fn, *args):
        """Call `fn(*args)` inside a span named `name`."""
        record = [name, 0, 0, self._open[-1] if self._open else -1, self.op_id, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        except Exception as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def write(self, path):
        keys = ("name", "start_ns", "end_ns", "parent", "op", "error")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _duration(span):
    return span[2] - span[1]


def children_of(spans):
    kids = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    return kids


def self_times(spans) -> list:
    kids = children_of(spans)
    return [_duration(s) - sum(_duration(spans[k]) for k in kids[i]) for i, s in enumerate(spans)]


def self_ns_by_name(spans) -> dict:
    out = {}
    for span, own in zip(spans, self_times(spans)):
        out[span[0]] = out.get(span[0], 0) + own
    return out


def loop_metrics(spans) -> tuple:
    """Per-layer metrics that come from the traced workload loop itself.

    The loop ran each op once traced, and then, for cli ops, the library
    calls `cli.main` makes on the same input, in a `cli.parts` span under
    the same op id.
    """
    kids = children_of(spans)
    main_ns, parts_ns, parse_ns = {}, {}, {}
    for i, span in enumerate(spans):
        if span[5] is not None:
            continue  # only ops whose calls all completed are compared
        if span[0] == "cli.main":
            main_ns[span[4]] = _duration(span)
        elif span[0] == PARTS:
            parts_ns[span[4]] = _duration(span)
            parse_ns[span[4]] = sum(_duration(spans[k]) for k in kids[i] if spans[k][0] == "minilang.parse")
    paired = [op for op in main_ns if op in parts_ns]
    self_ms = [(main_ns[op] - parts_ns[op]) / 1e6 for op in paired]
    total_main = sum(main_ns[op] for op in paired)
    parse_share = sum(parse_ns[op] for op in paired) / total_main if total_main else 0.0
    metrics = {
        "minilang.parse.share": (parse_share, "fraction"),
        # A median: each difference is small beside the two times it comes from.
        "cli.main.self_ms": (statistics.median(self_ms) if self_ms else 0.0, "ms"),
    }
    # A failure belongs to the innermost public call that raised.  A failing
    # cli.main belongs to the library call that failed in the op's parts
    # pass; it counts for cli only when its library calls alone completed.
    failed_parts = {span[4] for span in spans if span[0] == PARTS and span[5] is not None}
    failures = {layer: {} for layer in LAYERS}
    for i, span in enumerate(spans):
        layer = span[0].split(".")[0]
        if span[5] is None or layer not in failures or span[0] == PARTS:
            continue
        if any(spans[k][5] is not None for k in kids[i]):
            continue
        if span[0] == "cli.main" and span[4] in failed_parts:
            continue
        kinds = failures[layer]
        kinds[span[5]] = kinds.get(span[5], 0) + 1
    for layer, kinds in failures.items():
        metrics[f"{layer}.failures"] = (sum(kinds.values()), "count")
        metrics[f"{layer}.failures.recursion"] = (kinds.get("RecursionError", 0), "count")
    return metrics, failures


def overhead_share(untraced_s: list, spans) -> float:
    """Time of the traced ops over the time of the same ops untraced, minus one."""
    traced_ns = sum(_duration(s) for s in spans if s[0].startswith("op:"))
    return traced_ns / 1e9 / sum(untraced_s) - 1.0
