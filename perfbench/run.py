#!/usr/bin/env python3
"""Layered benchmark for strategem.

Run from the repository root:

  python3 perfbench/run.py --workload cli-read --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1

Workloads: cli-read, cli-write, library-data, default-stack, or `all`
(each in its own process).  With `--trace 0` the last line of stdout is a
JSON object with the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a traced run.  Every op's output is checked against
an independent reference; the exit status is 1 if any output is wrong or
an op fails unexpectedly.  Inputs, spans and a details file go under
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORKLOADS = ("cli-read", "cli-write", "library-data", "default-stack")
BIG_STACK_BYTES = 1 << 30
BIG_RECURSION_LIMIT = 1_000_000
COLD_STARTS = 8  # half before the timed loop, half after: the host's speed drifts over a run
CORPUS_MODULES = 33  # 99 cli-write ops a pass: the loop times nearly every input once, so op times fill the range densely
LIBRARY_DATASETS = 13
# Errors default-stack exists to record: they count against ok_share, not as failed ops.
RECORDED = ("RecursionError",)
TRACED_OPS = 20  # a prefix of the schedule; it mixes small and large inputs
UNITS = {
    "nodes_per_s": "nodes/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_share": "fraction",
    "max_ok_nodes": "nodes",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (os.path.join(SRC, "strategem"), os.path.join(TESTS, "oracles.py")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from a strategem checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [HERE, SRC, TESTS]
    if args.setup_probe:
        return setup_probe(args.workload, args.setup_probe)
    if args.workload == "all":
        return run_all(args)
    workdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    if args.workload == "default-stack":
        # Runs on the main thread at the interpreter's default recursion limit.
        result = run_workload(args, workdir)
    else:
        result = in_big_stack(run_workload, args, workdir)
    report(args, workdir, result)
    return 0 if result["correct"] and result["failed"] == 0 else 1


def in_big_stack(fn, *args):
    """Run `fn` on a worker thread with a large stack and recursion limit."""
    box = {}

    def target():
        sys.setrecursionlimit(BIG_RECURSION_LIMIT)
        try:
            box["result"] = fn(*args)
        except BaseException as exc:  # re-raised on the calling thread
            box["error"] = exc

    limit = sys.getrecursionlimit()
    threading.stack_size(BIG_STACK_BYTES)
    worker = threading.Thread(target=target, name="bench")
    worker.start()
    worker.join()
    sys.setrecursionlimit(limit)
    if "error" in box:
        raise box["error"]
    return box["result"]


# -- set-up -------------------------------------------------------------------------


def setup_probe(workload, workdir) -> int:
    """Child process of `measure_setup`: import, build strategies, warm up."""
    import strategem.cli  # noqa: F401  derives and freezes the registry
    import workloads

    def body():
        lib = workloads.Library()
        workloads.warm_up(workload, lib, os.path.join(workdir, "warm.ml0"))

    if workload == "default-stack":
        body()
    else:
        in_big_stack(body)
    return 0


def measure_setup(workload, workdir, starts) -> list:
    """Wall time of `starts` fresh interpreters made ready for `workload`."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe", workdir]
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        # No timeout: with one, waiting polls and rounds the time up to 50 ms steps.
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# -- one workload ---------------------------------------------------------------------


def build_ops(workload, seed, lib, workdir):
    import workloads

    if workload in ("cli-read", "cli-write"):
        sources = workloads.cli_sources(seed, workdir, CORPUS_MODULES, workloads.CORPUS_SIZES)
        commands = workloads.READ_COMMANDS if workload == "cli-read" else workloads.WRITE_COMMANDS
        return workloads.cli_ops(sources, commands)
    if workload == "library-data":
        sizes = (workloads.LIST_SIZES, workloads.STREAM_SIZES)
        return workloads.library_ops(seed, lib, LIBRARY_DATASETS, *sizes)
    raise ValueError(workload)


def ladder(lib, workdir, base=False):
    """default-stack's fixed ladder, or only its base rung (smallest sizes)."""
    import workloads

    rungs = (workloads.LADDER_DECLS, workloads.LADDER_ELEMS, workloads.LADDER_DEPTH)
    if base:
        rungs = tuple(r[:1] for r in rungs)
    return workloads.ladder_ops(lib, workdir, *rungs)


def run_workload(args, workdir):
    import workloads

    phases = Phases()
    lib = workloads.Library()
    warm = os.path.join(workdir, "warm.ml0")
    workloads.write_warm_source(warm)
    stack = args.workload == "default-stack"
    if stack:
        # Untraced, the timed loop runs on the base rung; the traced run takes the ladder.
        ops = ladder(lib, workdir, base=not args.trace)
    else:
        ops = build_ops(args.workload, args.seed, lib, workdir)
    phases.mark("inputs")
    workloads.warm_up(args.workload, lib, warm)
    # The inputs live for the whole run: keep them out of every collection.
    gc.collect()
    gc.freeze()
    phases.mark("warm_up")
    if args.trace:
        result = traced_run(args, lib, ops, phases)
    else:
        setup = measure_setup(args.workload, workdir, COLD_STARTS // 2)
        phases.mark("setup_probes")
        loop = workloads.timed_loop(ops, args.seconds)
        # Read before default-stack's ladder runs: peak memory is the loop's.
        usage = resource.getrusage(resource.RUSAGE_SELF)
        phases.mark("timed_loop")
        setup += measure_setup(args.workload, workdir, COLD_STARTS - COLD_STARTS // 2)
        phases.mark("setup_probes_after")
        probe = workloads.run_all_once(ladder(lib, workdir)) if stack else None
        phases.mark("ladder")
        result = end_to_end(setup, probe, loop, usage)
    result["phases_s"] = phases.times
    return result


class Phases:
    """Wall time of each phase of a run, for the details file."""

    def __init__(self):
        self.times = {}
        self._last = time.perf_counter()

    def mark(self, name):
        now = time.perf_counter()
        self.times[name] = now - self._last
        self._last = now


def end_to_end(setup, ladder, loop, usage):
    """Metrics of an untraced run.  ok_share and max_ok_nodes come from the
    ladder on default-stack and from the timed loop elsewhere; `usage` is
    the process's resource usage when the timed loop ended."""
    import workloads

    capacity = ladder or loop
    times = [o.seconds for o in loop]
    metrics = {
        # Loop wall time less the output checks: op times and the collections between ops.
        "nodes_per_s": sum(o.op.nodes for o in loop if o.ok) / sum(o.busy_seconds for o in loop),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] * 1e3,
        "ok_share": sum(o.ok for o in capacity) / len(capacity),
        "max_ok_nodes": workloads.max_ok_nodes(capacity),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    return {
        "metrics": {k: (v, UNITS[k]) for k, v in metrics.items()},
        "rusage": {"user_s": usage.ru_utime, "sys_s": usage.ru_stime, "minflt": usage.ru_minflt},
        "op_seconds": [[o.op.kind, o.op.nodes, o.seconds] for o in loop],
        "samples": len(loop),
        "setup_samples": setup,
        **workloads.tally((ladder or []) + loop, recorded=RECORDED if ladder else ()),
    }


def traced_run(args, lib, ops, phases):
    """Untraced pass, then the same ops traced, then the fixed layer timings.

    default-stack runs its whole ladder; the other workloads the first
    TRACED_OPS ops of their schedule.
    """
    import layers
    import spans
    import workloads

    if args.workload != "default-stack":
        ops = ops[:TRACED_OPS]
    untraced = workloads.run_all_once(ops)
    phases.mark("untraced_pass")
    tracer = spans.Tracer()
    traced = workloads.run_all_once(ops, tracer)
    overhead = spans.overhead_share([o.seconds for o in untraced], tracer.spans)
    phases.mark("traced_pass")
    workloads.run_parts(ops, tracer, first_op_id=0)
    phases.mark("parts_pass")
    loop_spans = list(tracer.spans)
    metrics, failures = spans.loop_metrics(loop_spans)
    metrics["trace.overhead_share"] = (overhead, "fraction")

    def suite():
        tracer.op_id = -1  # layer timings belong to no op
        return layers.Suite(lib).run(tracer)

    if args.workload == "default-stack":
        metrics.update(in_big_stack(suite))
    else:
        metrics.update(suite())
    phases.mark("layer_suite")
    outcomes = untraced + traced
    recorded = RECORDED if args.workload == "default-stack" else ()
    return {
        "metrics": metrics,
        "samples": len(traced),
        "tracer": tracer,
        "failures_by_layer": failures,
        "self_ns": spans.self_ns_by_name(loop_spans),
        **workloads.tally(outcomes, recorded=recorded),
    }


# -- reporting -------------------------------------------------------------------------


def context(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    src_lines = 0
    for folder, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    src_lines += sum(1 for _ in handle)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit or "unknown",
        "src_lines": src_lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def report(args, workdir, result):
    ctx = context(args)
    details = {"context": ctx, **{k: v for k, v in result.items() if k != "tracer"}}
    if "tracer" in result:
        result["tracer"].write(os.path.join(workdir, "spans.jsonl"))
    with open(os.path.join(workdir, "details.json"), "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=2, default=str)
    print(" ".join(f"{k}={v}" for k, v in ctx.items()))
    groups = {}
    for f in result.get("failure_log", []):
        groups.setdefault((f["layer"], f["op"], f["error"]), []).append(f["nodes"])
    for (layer, op, error), nodes in sorted(groups.items()):
        print(f"failed: {layer} {op} {error} x{len(nodes)}, smallest input {min(nodes)} nodes")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"samples={result['samples']} attempted={result['attempted']} failed={result['failed']}")
    print("phases_s: " + " ".join(f"{k}={v:.1f}" for k, v in result["phases_s"].items()))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )


def run_all(args) -> int:
    """Every workload in its own process; prints each one's output, then one
    combined JSON line with metrics named `<workload>.<metric>`."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(f"== {workload}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines:
            combined["correct"] = False
            continue
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for name, value in one["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
