"""Self-tests of the benchmark.  Run from the repository root:

  python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import argparse
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import pytest  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from strategem.minilang import Focus, TyFocus, parse, pretty  # noqa: E402


def _nodes(value):
    """Every dataclass node of a syntax value, without recursion."""
    stack, out = [value], []
    while stack:
        v = stack.pop()
        if isinstance(v, (tuple, list)):
            stack.extend(v)
        elif hasattr(v, "__dataclass_fields__"):
            out.append(v)
            stack.extend(getattr(v, f) for f in v.__dataclass_fields__)
    return out


def test_generator_is_byte_identical_for_a_seed():
    first = [text for _size, _tree, text in gen.corpus(7, 5, 100, 400)]
    again = [text for _size, _tree, text in gen.corpus(7, 5, 100, 400)]
    other = [text for _size, _tree, text in gen.corpus(8, 5, 100, 400)]
    assert first == again
    assert first != other
    for make in (gen.pair_list, gen.optional_list, gen.tree_shape, gen.encode_stream):
        assert make(random.Random(3), 200) == make(random.Random(3), 200)


def test_sizes_cover_the_range_and_every_prefix_spreads():
    sizes = gen.log_sizes(22, 100, 2000)
    assert sizes[0] == 100 and sizes[-1] == 2000 and sizes == sorted(sizes)
    order = gen.spread_order(22)
    assert sorted(order) == list(range(22))
    assert max(order[:4]) >= 11 and min(order[:4]) == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_modules_round_trip_and_have_one_focus_of_each_kind(seed, tmp_path):
    def check():
        for i, (size, tree, text) in enumerate(gen.corpus(seed, 4, 20, 300)):
            module = parse(text)
            assert len(module.decls) == size
            assert pretty(module) == text
            nodes = _nodes(module)
            assert sum(isinstance(n, Focus) for n in nodes) == 1
            assert sum(isinstance(n, TyFocus) for n in nodes) == 1
            src = workloads.write_source(tree, str(tmp_path / f"m{i}.ml0"), gen.FRESH)
            for command in workloads.READ_COMMANDS + workloads.WRITE_COMMANDS:
                outcome = workloads.attempt(workloads.cli_op(src, command))
                assert outcome.ok, (command, outcome)

    # Modules this size overflow the default recursion limit (default-stack
    # records that); here they run the way the timed workloads run them.
    run.in_big_stack(check)


def test_a_wrong_output_is_caught(tmp_path):
    _size, tree, _text = gen.corpus(1, 1, 20, 20)[0]
    src = workloads.write_source(tree, str(tmp_path / "m.ml0"), gen.FRESH)
    src.expected["count-decls"] = gen.digest(["0"])
    outcome = workloads.attempt(workloads.cli_op(src, "count-decls"))
    assert outcome.wrong and not outcome.ok
    assert workloads.tally([outcome])["correct"] is False


def test_a_failing_cli_op_counts_once_for_the_call_that_raised():
    # [name, start_ns, end_ns, parent, op id, error]: op 0 fails in de_bruijn,
    # op 1 fails in cli.main although its library calls alone complete.
    trace = [
        ["op:debruijn", 0, 9, -1, 0, "RecursionError"],
        ["cli.main", 1, 8, 0, 0, "RecursionError"],
        ["op:inc-ints", 10, 19, -1, 1, "ValueError"],
        ["cli.main", 11, 18, 2, 1, "ValueError"],
        [spans.PARTS, 20, 29, -1, 0, "RecursionError"],
        ["minilang.parse", 21, 22, 4, 0, None],
        ["minilang.to_term", 22, 23, 4, 0, None],
        ["analyses.de_bruijn", 23, 28, 4, 0, "RecursionError"],
        [spans.PARTS, 30, 39, -1, 1, None],
    ]
    metrics, failures = spans.loop_metrics(trace)
    assert failures["analyses"] == {"RecursionError": 1}
    assert failures["cli"] == {"ValueError": 1}
    assert metrics["minilang.failures"][0] == 0


def test_free_vars_reference_respects_binders():
    module = parse("module M where\nf x = \\y -> g x y z\ng = let z = z in w\n")
    assert workloads.refs.free_vars_module(module) == {"z", "w"}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every input so a whole run takes a few seconds."""
    monkeypatch.setattr(run, "COLD_STARTS", 1)
    monkeypatch.setattr(run, "CORPUS_MODULES", 3)
    monkeypatch.setattr(run, "LIBRARY_DATASETS", 2)
    monkeypatch.setattr(run, "TRACED_OPS", 2)
    monkeypatch.setattr(workloads, "MIN_OPS", 12)
    monkeypatch.setattr(workloads, "CORPUS_SIZES", (10, 40))
    monkeypatch.setattr(workloads, "LIST_SIZES", (20, 80))
    monkeypatch.setattr(workloads, "STREAM_SIZES", (5, 20))
    monkeypatch.setattr(workloads, "LADDER_DECLS", (10, 300))
    monkeypatch.setattr(workloads, "LADDER_ELEMS", (20, 300))
    monkeypatch.setattr(workloads, "LADDER_DEPTH", (20, 700))
    monkeypatch.setattr(layers, "EFFECT_BATCH", 100)
    monkeypatch.setattr(layers, "MODULE_DECLS", 20)
    monkeypatch.setattr(layers, "LIST_ELEMS", 30)
    monkeypatch.setattr(layers, "LONG_LIST_ELEMS", 40)
    monkeypatch.setattr(layers, "STREAM_LENGTH", 10)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_of_every_workload_finishes(tiny, tmp_path, workload, trace):
    args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, trace=trace)
    if workload == "default-stack":
        result = run.run_workload(args, str(tmp_path))
    else:
        result = run.in_big_stack(run.run_workload, args, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    if trace:
        assert "trace.overhead_share" in metrics and "analyses.encode.us_per_call" in metrics
    else:
        assert set(metrics) == set(run.UNITS)
        assert metrics["ok_share"][0] > 0 and metrics["max_ok_nodes"][0] > 0
    if workload == "default-stack":
        # Only the recursion limit may stop an op, and only on the ladder.
        assert {f["error"] for f in result["failure_log"]} <= {"RecursionError"}
