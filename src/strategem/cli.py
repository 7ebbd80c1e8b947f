"""Command line front end for the mini-language operations.

Usage: strategem <command> [--name N] [--format text|structured] <file.ml0>

Transformation commands print the rewritten module; analysis commands
print their result, one item per line for name sets, sorted.  The
structured format prints one JSON document with the fields `command`,
`input` and `result`.  A rewritten module or expression is written as it
is rendered, chunk by chunk, and is never held as one string; the
command's analysis finishes before the first write.  Exit status: 0 on
success, 1 when an analysis or guard fails (for example no focus), 2 on
a syntax error, which is reported with line and column on stderr, 2 on a
file that cannot be read or is not ASCII text, and 2 when the output
cannot be written, for example to a pipe its reader has closed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys

from .analyses import (
    GuardFailed,
    NoFocus,
    NoSuchAlias,
    all_types,
    count_of_type,
    de_bruijn,
    free_vars,
    inc_ints,
    is_fresh_type,
    select_focus,
    to_alias,
    type_token,
)
from .minilang import DECL, MODULE, ParseError, parse, pretty_chunks, to_term
from .terms import cast

__all__ = ["main", "entry"]


# command -> (help, takes --name, action on the parsed arguments and the module)
_COMMANDS = {
    "inc-ints": ("add one to every integer literal", False,
                 lambda args, m: pretty_chunks(cast(inc_ints(to_term(m)), MODULE).value)),
    "collect-types": ("list every declared or used type name", False,
                      lambda args, m: sorted(all_types(m))),
    "fresh-type": ("check that a type name is unused", True,
                   lambda args, m: is_fresh_type(args.name, m)),
    "free-vars": ("list the free variables of the module", False,
                  lambda args, m: sorted(free_vars(to_term(m)))),
    "count-decls": ("count the declarations", False,
                    lambda args, m: count_of_type(type_token(DECL), to_term(m))),
    "debruijn": ("replace every string atom with a fresh name", False,
                 lambda args, m: pretty_chunks(cast(de_bruijn(to_term(m)), MODULE).value)),
    "to-alias": ("fold the focused type into a synonym", True,
                 lambda args, m: pretty_chunks(to_alias(args.name, m))),
    "select-focus": ("print the focused expression", False,
                     lambda args, m: pretty_chunks(select_focus(m))),
}


def _print_text(result):
    if isinstance(result, bool):
        print("true" if result else "false")
    elif isinstance(result, int):
        print(result)
    elif isinstance(result, list):
        for item in result:
            print(item)
    else:  # rendered text, written chunk by chunk and ended with a newline
        last = ""
        for chunk in result:
            sys.stdout.write(chunk)
            last = chunk or last
        if not last.endswith("\n"):
            sys.stdout.write("\n")


def _print_structured(command, path, result):
    rendered = not isinstance(result, (bool, int, list))
    doc = {"command": command, "input": path, "result": "" if rendered else result}
    text = json.dumps(doc, indent=2)
    if not rendered:
        print(text)
        return
    # JSON escapes a string one character at a time, so the chunks escaped
    # one by one make up the escaped whole.  `result` is the last field.
    head, tail = text.rsplit('""', 1)
    sys.stdout.write(head + '"')
    for chunk in result:
        sys.stdout.write(json.dumps(chunk)[1:-1])
    sys.stdout.write('"' + tail + "\n")


@functools.cache  # one parser per process, not eight subparsers built on every call
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="strategem", description="analyses and transformations for .ml0 modules"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, named, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if named:
            p.add_argument("--name", required=True, help="type name to use")
        p.add_argument(
            "--format", choices=("text", "structured"), default="text", help="output format"
        )
        p.add_argument("file", help="module source (.ml0)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="ascii") as handle:
            source = handle.read()
    except OSError as exc:
        print(f"{args.file}: {exc.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        # The whole file is decoded in one call, so the offset is the file's.
        byte, offset = exc.object[exc.start], exc.start
        print(f"{args.file}: not ASCII text (byte 0x{byte:02x} at offset {offset})", file=sys.stderr)
        return 2
    try:
        module = parse(source)
        result = _COMMANDS[args.command][2](args, module)
    except ParseError as exc:
        print(f"{args.file}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return 2
    except (NoFocus, NoSuchAlias, GuardFailed) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # Under `python -u` text drops the rest of a short raw write; buffering retries it.
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(stdout.buffer), stdout.encoding, stdout.errors)
    try:
        if args.format == "structured":
            _print_structured(args.command, args.file, result)
        else:
            _print_text(result)
        sys.stdout.flush()
    except OSError as exc:
        # Send what is still buffered to the null device, so the flush at
        # interpreter exit fails no second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"<stdout>: write failed: {exc.strerror}", file=sys.stderr)
        return 2
    finally:
        if sys.stdout is not stdout:  # flush, and leave the raw file open
            sys.stdout.detach().detach()
            sys.stdout = stdout
    return 0


def entry():
    sys.exit(main())
