"""The command line front end: every command, both formats, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategem.analyses import de_bruijn
from strategem.cli import _print_structured, main
from strategem.minilang import parse, to_term

CORPUS = Path(__file__).parent / "corpus"

COMMANDS = [
    ["inc-ints"],
    ["collect-types"],
    ["fresh-type", "--name", "Zzz"],
    ["free-vars"],
    ["count-decls"],
    ["debruijn"],
    ["select-focus"],
    ["to-alias", "--name", "N"],
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Per-command behaviour on known inputs.


def test_inc_ints_prints_the_rewritten_module(capsys):
    code, out, err = run(capsys, "inc-ints", str(CORPUS / "funs.ml0"))
    assert (code, err) == (0, "")
    assert "h = add 2 42" in out
    assert out.endswith("\n")


def test_collect_types_prints_sorted_names(capsys):
    code, out, err = run(capsys, "collect-types", str(CORPUS / "syn.ml0"))
    assert (code, err) == (0, "")
    assert out == "F\nInt\nL\nN\n"


def test_fresh_type_prints_a_boolean(capsys):
    code, out, _ = run(capsys, "fresh-type", "--name", "Zzz", str(CORPUS / "syn.ml0"))
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "fresh-type", "--name", "L", str(CORPUS / "syn.ml0"))
    assert (code, out) == (0, "false\n")


def test_free_vars_of_a_closed_module_prints_nothing(capsys):
    code, out, err = run(capsys, "free-vars", str(CORPUS / "funs.ml0"))
    assert (code, out, err) == (0, "", "")


def test_free_vars_lists_open_modules(tmp_path, capsys):
    path = tmp_path / "open.ml0"
    path.write_text("module M where\nf = add x\n")
    code, out, err = run(capsys, "free-vars", str(path))
    assert (code, err) == (0, "")
    assert out == "add\nx\n"


def test_count_decls_prints_a_number(capsys):
    code, out, _ = run(capsys, "count-decls", str(CORPUS / "funs.ml0"))
    assert (code, out) == (0, "6\n")
    code, out, _ = run(capsys, "count-decls", str(CORPUS / "empty.ml0"))
    assert (code, out) == (0, "0\n")


def test_debruijn_renames_every_string(capsys):
    code, out, err = run(capsys, "debruijn", str(CORPUS / "strings.ml0"))
    assert (code, err) == (0, "")
    assert out == 'module 1 where\n1\' = "1\'\'"\n1\'\'\' = "1\'\'\'\'"\n1\'\'\'\'\' = "1\'\'\'\'\'\'"\n'


def test_select_focus_prints_the_expression(capsys):
    code, out, err = run(capsys, "select-focus", str(CORPUS / "focus.ml0"))
    assert (code, out, err) == (0, "add x 1\n", "")


def test_to_alias_success(capsys):
    path = CORPUS / "toalias" / "case01.ml0"
    golden = (Path(__file__).parent / "golden" / "toalias" / "case01.out").read_text()
    code, out, err = run(capsys, "to-alias", "--name", "N", str(path))
    assert (code, err) == (0, "")
    assert out == golden


# Exit codes.


def test_analysis_failures_exit_one(capsys):
    code, out, err = run(capsys, "select-focus", str(CORPUS / "data.ml0"))
    assert (code, out) == (1, "")
    assert err.startswith("NoFocus:")
    code, _, err = run(capsys, "to-alias", "--name", "N", str(CORPUS / "toalias" / "case05.ml0"))
    assert code == 1 and err.startswith("NoSuchAlias:")
    code, _, err = run(capsys, "to-alias", "--name", "N", str(CORPUS / "toalias" / "case06.ml0"))
    assert code == 1 and err.startswith("GuardFailed:")


def test_parse_errors_exit_two_with_position(tmp_path, capsys):
    path = tmp_path / "bad.ml0"
    path.write_text("module M where\nf = @\n")
    code, out, err = run(capsys, "count-decls", str(path))
    assert (code, out) == (2, "")
    assert err == f"{path}:2:5: unexpected character '@'\n"


def test_missing_file_exits_two(tmp_path, capsys):
    path = tmp_path / "absent.ml0"
    code, out, err = run(capsys, "free-vars", str(path))
    assert (code, out) == (2, "")
    assert str(path) in err


@pytest.mark.parametrize("lines", [1, 1000])
def test_non_ascii_input_exits_two_with_the_byte_offset(tmp_path, capsys, lines):
    # 1,000 lines put the byte past the first 8 KiB of the file.
    head = b"module M where\n" + b"x = 1\n" * lines
    path = tmp_path / "latin1.ml0"
    path.write_bytes(head + b"y = \xc3\xa9\n")
    code, out, err = run(capsys, "count-decls", str(path))
    assert (code, out) == (2, "")
    assert err == f"{path}: not ASCII text (byte 0xc3 at offset {len(head) + 4})\n"


# The exit-code contract on any file.  Generated files are small; deep and
# large inputs have a test of their own below.


CORPUS_FILES = [path.read_bytes() for path in sorted(CORPUS.rglob("*.ml0"))]


@st.composite
def _corpus_file_with_inserted_bytes(draw):
    data = bytearray(draw(st.sampled_from(CORPUS_FILES)))
    for _ in range(draw(st.integers(0, 8))):
        data.insert(draw(st.integers(0, len(data))), draw(st.integers(0, 255)))
    return bytes(data)


@given(st.one_of(st.binary(max_size=256), _corpus_file_with_inserted_bytes()))
def test_every_command_exits_zero_one_or_two_on_any_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.ml0"
    path.write_bytes(data)
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([*argv, str(path)]) in (0, 1, 2)


# Deep and large inputs, in the main thread at the default recursion limit.

DEEP = 10_000
ARROWS = "A -> " * DEEP + "A"
DEEP_INPUTS = {
    "application": "f = " + "g (" * DEEP + "x" + ")" * DEEP,
    "arrow type": "type T = " + ARROWS,
    "constructor pattern": "f " + "(C " * DEEP + "x" + ")" * DEEP + " = x",
    "let chain": "f = " + "let x = 1 in " * DEEP + "x",
    "lambda chain": "f = " + "\\x -> " * DEEP + "x",
    "arrow focus and synonym": f"type N = {ARROWS}\ndata Box = MkBox << {ARROWS} >>",
    "deep focus": "f = << " + "g (" * DEEP + "x" + ")" * DEEP + " >>",
    "declarations": "\n".join(f"x{i} = {i}" for i in range(DEEP)),
}
# The one input each focus command succeeds on; elsewhere it exits 1.
FOCUSED = {"select-focus": "deep focus", "to-alias": "arrow focus and synonym"}


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("name", DEEP_INPUTS)
def test_every_command_keeps_its_contract_on_deep_and_large_input(tmp_path, name):
    assert sys.getrecursionlimit() == 1000
    path = tmp_path / "deep.ml0"
    path.write_text(f"module M where\n{DEEP_INPUTS[name]}\n")
    for argv in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
        assert "Traceback" not in err.getvalue()
        assert code == (1 if FOCUSED.get(argv[0], name) != name else 0), argv


# Formats.


def test_structured_output_shape(capsys):
    path = CORPUS / "syn.ml0"
    code, out, err = run(capsys, "collect-types", "--format", "structured", str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc == {
        "command": "collect-types",
        "input": str(path),
        "result": ["F", "Int", "L", "N"],
    }


def test_structured_and_text_agree(capsys):
    for path in map(str, sorted(CORPUS.glob("*.ml0")) + sorted((CORPUS / "toalias").glob("*.ml0"))):
        for argv in COMMANDS:
            code_t, out_t, _ = run(capsys, *argv, path)
            code_s, out_s, _ = run(capsys, *argv, "--format", "structured", path)
            assert code_t == code_s, (argv, path)
            if code_t != 0:
                assert out_t == out_s == ""
                continue
            doc = json.loads(out_s)
            assert (doc["command"], doc["input"]) == (argv[0], path)
            result = doc["result"]
            if isinstance(result, bool):
                assert out_t == ("true\n" if result else "false\n")
            elif isinstance(result, int):
                assert out_t == f"{result}\n"
            elif isinstance(result, list):
                assert out_t == "".join(f"{item}\n" for item in result)
            else:
                assert out_t == result + ("" if result.endswith("\n") else "\n")


# JSON escapes these: quotes, backslashes and control characters; `</` is kept.
_JSON_TEXT = st.lists(st.sampled_from(['"', "\\", "</", "a", *map(chr, range(0x20))])).map("".join)


@given(text=_JSON_TEXT, path=_JSON_TEXT, data=st.data())
def test_streamed_structured_output_is_exact(text, path, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)))))
    chunks = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_structured("debruijn", path, iter(chunks))
    doc = {"command": "debruijn", "input": path, "result": text}
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def test_every_command_is_deterministic(capsys):
    files = {
        "select-focus": CORPUS / "focus.ml0",
        "to-alias": CORPUS / "toalias" / "case01.ml0",
    }
    for argv in COMMANDS:
        path = str(files.get(argv[0], CORPUS / "funs.ml0"))
        first = run(capsys, *argv, path)
        second = run(capsys, *argv, path)
        assert first == second
        assert first[0] == 0


# Wiring.


def test_module_entry_point(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command", "x.ml0"])


def test_repeated_calls_see_only_their_own_arguments(capsys):
    syn, case01 = str(CORPUS / "syn.ml0"), str(CORPUS / "toalias" / "case01.ml0")
    assert run(capsys, "fresh-type", "--name", "L", syn) == (0, "false\n", "")
    code, out, _ = run(capsys, "fresh-type", "--format", "structured", "--name", "Zzz", syn)
    assert (code, json.loads(out)) == (0, {"command": "fresh-type", "input": syn, "result": True})
    assert run(capsys, "collect-types", syn) == (0, "F\nInt\nL\nN\n", "")
    golden = (Path(__file__).parent / "golden" / "toalias" / "case01.out").read_text()
    assert run(capsys, "to-alias", "--name", "N", case01) == (0, golden, "")
    # A usage error still exits 2, whatever the calls before it were given.
    for argv in (["fresh-type", syn], ["count-decls", "--name", "N", syn], ["free-vars", "--format", "json", syn]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        assert "usage: strategem" in capsys.readouterr().err
    assert run(capsys, "count-decls", str(CORPUS / "funs.ml0")) == (0, "6\n", "")


def test_console_script_is_installed():
    exe = shutil.which("strategem")
    if exe is None:
        pytest.skip("package not installed with console scripts on PATH")
    proc = subprocess.run(
        [exe, "count-decls", str(CORPUS / "funs.ml0")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n"


def test_python_dash_m_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "strategem", "collect-types", str(CORPUS / "syn.ml0")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "F\nInt\nL\nN\n"


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_reader_that_closes_the_pipe_gets_exit_two_and_no_traceback(tmp_path, fmt):
    # More output than a pipe holds, so writes fail after the reader has
    # gone: about 110 KB of free names, and a rendered module of about
    # 180 KB, whose k-th name `debruijn` makes k characters long.
    names = tmp_path / "names.ml0"
    decls = (f"x{i} = free_{'n' * 100}_{i}" for i in range(1_000))
    names.write_text("module M where\n" + "\n".join(decls) + "\n")
    module = tmp_path / "module.ml0"
    module.write_text("module M where\n" + "".join(f"x{i} = y{i}\n" for i in range(300)))
    for command, path in (("free-vars", names), ("debruijn", module)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "strategem", command, "--format", fmt, str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2, command
        assert err == "<stdout>: write failed: Broken pipe\n", command


class _Trickle(io.RawIOBase):
    """A raw file that takes at most 10 bytes per write, as a full pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += bytes(b[:10])
        return min(len(b), 10)


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_unbuffered_output_survives_short_writes(tmp_path, capsys, monkeypatch, fmt):
    # Under `python -u` stdout is a text layer writing through to a raw
    # file, which may take only part of each write.
    path = tmp_path / "module.ml0"
    path.write_text("module M where\n" + "".join(f"f{i} x = g x \"s{i}\"\n" for i in range(50)))
    argv = ["debruijn", "--format", fmt, str(path)]
    _, expected, _ = run(capsys, *argv)
    raw = _Trickle()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii", write_through=True))
    assert main(argv) == 0
    assert raw.data.decode("ascii") == expected
    assert not raw.closed


# Memory.


class _Keep:
    """A stream that keeps the chunks written to it."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_debruijn_output_is_not_held_twice(tmp_path):
    # `debruijn` makes the k-th string atom k characters long, so the names
    # of 4,401 atoms dominate the memory of the rewritten module.  Written as
    # rendered, the output adds little to what the rewrite alone holds; a
    # joined copy of it would nearly double it.
    source = "module M where\n" + "".join(f"f{i} = g{' x' * 9}\n" for i in range(400))
    path = tmp_path / "names.ml0"
    path.write_text(source)

    def cli():
        with contextlib.redirect_stdout(_Keep()):
            assert main(["debruijn", str(path)]) == 0

    def rewrite():
        de_bruijn(to_term(parse(source)))

    cli()  # fill the caches first
    rewrite()
    assert _traced_peak(cli) <= 1.3 * _traced_peak(rewrite)
