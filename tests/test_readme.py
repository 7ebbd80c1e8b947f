"""The README's examples run and give what their comments say."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_blocks(title: str) -> list:
    section = README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_a_taste_runs_as_its_comments_say():
    first, second = python_blocks("A taste")
    namespace = {}
    # The first block ends in an expression whose value its comment states.
    *body, last = first.splitlines()
    expr, comment = last.split("#")
    exec("\n".join(body), namespace)
    assert eval(expr, namespace) == ast.literal_eval(comment.strip()) == [(True, 2), (False, 3)]
    # The second prints the module its comment lines show: pretty's text
    # ends in a newline, and print adds one.
    lines = second.splitlines()
    shown = "".join(f"{line[2:]}\n" for line in lines if line.startswith("# "))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(line for line in lines if not line.startswith("#")), namespace)
    assert shown == "module M where\nanswer = add 2 42\n"
    assert out.getvalue() == shown + "\n"
