"""Every command on every corpus file, against its committed output.

Each file under golden/cli/ holds, for one corpus module, the exit status,
stdout and stderr of every command in both formats.  The CLI is run from
the tests directory with the module's path relative to it, so the path in
the output is the same on every machine.  To rewrite the files after a
deliberate change of output, run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from strategem.cli import main

TESTS = Path(__file__).parent
SOURCES = sorted(p.relative_to(TESTS).as_posix() for p in (TESTS / "corpus").rglob("*.ml0"))
COMMANDS = {
    "inc-ints": [],
    "collect-types": [],
    "fresh-type": ["--name", "Zzz"],
    "free-vars": [],
    "count-decls": [],
    "debruijn": [],
    "select-focus": [],
    "to-alias": ["--name", "N"],
}
FORMATS = ("text", "structured")


def _golden_path(source: str) -> Path:
    return TESTS / "golden" / "cli" / Path(source).relative_to("corpus").with_suffix(".json")


def _key(command: str, fmt: str) -> str:
    return f"{command} --format {fmt}"


def _run(command: str, fmt: str, source: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, *COMMANDS[command], "--format", fmt, source])
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("source", SOURCES)
def test_cli_output_matches_the_golden_file(monkeypatch, source, command, fmt):
    monkeypatch.chdir(TESTS)
    golden = json.loads(_golden_path(source).read_text())
    assert _run(command, fmt, source) == golden[_key(command, fmt)]


def _write() -> None:
    os.chdir(TESTS)
    for source in SOURCES:
        runs = {_key(c, f): _run(c, f, source) for c in COMMANDS for f in FORMATS}
        path = _golden_path(source)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write()
