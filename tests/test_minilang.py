"""Concrete syntax: tokenizing, parsing, printing, the round trip."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gen_terms
from strategem.minilang import (
    DECL,
    EXPR,
    MODULE,
    PATTERN,
    TYPE,
    REGISTRY,
    App,
    Con,
    DataDecl,
    Focus,
    FunBind,
    Lam,
    Let,
    LitInt,
    LitStr,
    Module,
    MultipleFociError,
    ParseError,
    PCon,
    PVar,
    TyApp,
    TyCon,
    TyFocus,
    TyFun,
    TypeSyn,
    TyVar,
    Var,
    parse,
    pretty,
    pretty_chunks,
    pretty_expr,
    pretty_type,
    to_term,
)
from strategem.terms import INT, RegistryFrozen, validate_term

CORPUS = Path(__file__).parent / "corpus"
ALL_SOURCES = sorted(CORPUS.glob("*.ml0")) + sorted((CORPUS / "toalias").glob("*.ml0"))


# Round trips.


@pytest.mark.parametrize("path", ALL_SOURCES, ids=lambda p: p.name)
def test_corpus_round_trips(path):
    m = parse(path.read_text())
    assert parse(pretty(m)) == m
    assert pretty(parse(pretty(m))) == pretty(m)


@given(gen_terms.modules)
def test_generated_modules_round_trip(m):
    assert parse(pretty(m)) == m


_BLANKS = st.text(st.sampled_from(" \t\r"), min_size=1, max_size=3)
_LINE_END = st.tuples(
    st.sampled_from(["", " ", "\t", "\r"]),
    st.sampled_from(["", "--", "-- c", "--c -> x", '-- "', "---"]),  # comment text is not lexed
).map("".join)


@given(gen_terms.modules, st.data())
def test_blanks_and_comments_between_tokens_change_nothing(m, data):
    # Every space outside a string becomes a run of blanks; before each line
    # end go blanks and a comment, which may follow the last token directly
    # (`x--c`).  The text may end in a comment without a newline.
    text, out, inside = pretty(m)[:-1], [], False
    for ch in text:
        inside ^= ch == '"'
        if ch == " " and not inside:
            ch = data.draw(_BLANKS)
        elif ch == "\n":
            ch = data.draw(_LINE_END) + "\n"
        out.append(ch)
    out.append(data.draw(st.sampled_from(["", "\n", "--", "-- end", "\r\n-- end"])))
    assert parse("".join(out)) == m


def test_round_trip_preserves_foci():
    src = (CORPUS / "focus.ml0").read_text()
    m = parse(src)
    assert parse(pretty(m)) == m
    assert any(
        isinstance(d, FunBind) and isinstance(d.body, Focus) for d in m.decls
    )


DEEP = 10_000
DEEP_SHAPES = {
    "parenthesised expression": "f = " + "(" * DEEP + "x" + ")" * DEEP,
    "parenthesised type": "type T = " + "(" * DEEP + "A" + ")" * DEEP,
    "arrows": "type T = " + "A -> " * DEEP + "A",
    "right-nested application": "f = " + "g (" * DEEP + "x" + ")" * DEEP,
    "let chain": "f = " + "let x = 1 in " * DEEP + "x",
    "let in its own bound": "f = " + "let x = " * DEEP + "1" + " in x" * DEEP,
    "lambda chain": "f = " + "\\x -> " * DEEP + "x",
    "constructor patterns": "f " + "(C " * DEEP + "x" + ")" * DEEP + " = x",
    "application spine": "f = g" + " x" * DEEP,
}


@pytest.mark.parametrize("decl", DEEP_SHAPES.values(), ids=DEEP_SHAPES.keys())
def test_deep_syntax_at_the_default_limit(decl):
    # In the main thread at the default limit: parse and pretty must not
    # recurse.  Results are compared as text, since the dataclass `==` and
    # `repr` recurse on deep values.
    assert sys.getrecursionlimit() == 1000
    m = parse(f"module M where\n{decl}\n")
    text = pretty(m)
    assert pretty(parse(text)) == text
    validate_term(to_term(m))


# Exact parses.


def test_parse_data_declaration():
    m = parse((CORPUS / "data.ml0").read_text())
    assert m == Module(
        "Data",
        (DataDecl("L", (("Nil", ()), ("Cons", (TyCon("Int"), TyCon("L"))))),),
    )


def test_parse_function_bindings():
    m = parse("module M where\nf x = \\y -> add x y\ng = let y = f y in y\n")
    f, g = m.decls
    assert f == FunBind("f", (PVar("x"),), Lam(PVar("y"), App(App(Var("add"), Var("x")), Var("y"))))
    assert g == FunBind("g", (), Let("y", App(Var("f"), Var("y")), Var("y")))


def test_application_associates_left():
    m = parse("module M where\nf = a b c\n")
    assert m.decls[0].body == App(App(Var("a"), Var("b")), Var("c"))


def test_parentheses_group_application():
    m = parse("module M where\nf = a (b c)\n")
    assert m.decls[0].body == App(Var("a"), App(Var("b"), Var("c")))


def test_arrows_associate_right():
    m = parse("module M where\ntype F = A -> B -> C\n")
    assert m.decls[0].rhs == TyFun(TyCon("A"), TyFun(TyCon("B"), TyCon("C")))
    m = parse("module M where\ntype F = (A -> B) -> C\n")
    assert m.decls[0].rhs == TyFun(TyFun(TyCon("A"), TyCon("B")), TyCon("C"))


def test_type_application_associates_left():
    m = parse("module M where\ntype T = Map k v\n")
    assert m.decls[0].rhs == TyApp(TyApp(TyCon("Map"), TyVar("k")), TyVar("v"))


def test_constructor_pattern():
    m = parse("module M where\npick p = (\\(Pair a b) -> a) p\n")
    lam = m.decls[0].body.fn
    assert lam.param == PCon("Pair", (PVar("a"), PVar("b")))


def test_literals():
    m = parse('module M where\na = 42\nb = "hi"\nc = Nil\n')
    assert [d.body for d in m.decls] == [LitInt(42), LitStr("hi"), Con("Nil")]


def test_comments_and_blank_lines_are_ignored():
    src = (
        "\n-- leading comment\nmodule M where\n\n"
        "-- about f\nf x = x -- trailing comment\n\n\n"
    )
    assert parse(src) == Module("M", (FunBind("f", (PVar("x"),), Var("x")),))


def test_arrow_wins_over_comment_start():
    m = parse("module M where\nf = \\x -> x\n")
    assert m.decls[0].body == Lam(PVar("x"), Var("x"))


def test_primed_and_underscored_names():
    m = parse("module M where\nf' x_1 = x_1\n")
    assert m.decls[0] == FunBind("f'", (PVar("x_1"),), Var("x_1"))


# Errors, with positions.


def _err(src) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse(src)
    return info.value


def test_error_positions():
    e = _err("module M where\nf = @\n")
    assert (e.line, e.col) == (2, 5)
    assert str(e).startswith("2:5:")


def test_only_ascii_digits_start_a_literal():
    # str.isdigit() also holds for superscripts and other scripts' digits.
    e = _err("module M where\nx = ²\n")
    assert (e.line, e.col, e.message) == (2, 5, "unexpected character '²'")
    e = _err("module M where\nx = ٣\n")
    assert (e.line, e.col) == (2, 5)
    # Names are ASCII too; string and comment text is not lexed.
    e = _err("module M where\nx = é\n")
    assert (e.line, e.col, e.message) == (2, 5, "unexpected character 'é'")
    e = _err("module M where\ny² = 1\n")
    assert (e.line, e.col, e.message) == (2, 2, "unexpected character '²'")
    e = _err("module M where\nÉ = 1\n")
    assert (e.line, e.col) == (2, 1)
    assert parse('module M where\na = "é" -- café\n').decls[0].body == LitStr("é")


def _blanks_outside_strings(text):
    inside = False
    for i, ch in enumerate(text):
        if ch == '"':
            inside = not inside
        elif ch == " " and not inside:
            yield i


@given(gen_terms.modules, st.data())
def test_errors_point_at_the_offending_character(m, data):
    text = pretty(m)
    i = data.draw(st.sampled_from(list(_blanks_outside_strings(text))))
    e = _err(text[:i] + "@" + text[i + 1 :])
    line = text.count("\n", 0, i) + 1
    col = i - text.rfind("\n", 0, i)
    assert (e.line, e.col, e.message) == (line, col, "unexpected character '@'")


@given(gen_terms.modules)
def test_crlf_line_ends_parse_the_same(m):
    assert parse(pretty(m).replace("\n", "\r\n")) == m


def test_unterminated_string():
    e = _err('module M where\na = "oops\n')
    assert "unterminated" in e.message
    assert (e.line, e.col) == (2, 5)


def test_missing_module_header():
    e = _err("f = 1\n")
    assert (e.line, e.col) == (1, 1)


def test_two_declarations_on_one_line():
    e = _err("module M where\nf = 1 g = 2\n")
    assert e.message == "expected end of line"


def test_trailing_garbage_rejected():
    _err("module M where\nf = 1\n)\n")
    _err("module M where\nf = (1\n")


@pytest.mark.parametrize(
    "decl, message, col",
    [
        ("f = (1", "expected ')', got '\\n'", 7),
        ("f = << 1", "expected '>>', got '\\n'", 9),
        ("type T = (A", "expected ')', got '\\n'", 12),
        ("type T = << A", "expected '>>', got '\\n'", 14),
        ("f = let x = 1 y", "expected 'in', got '\\n'", 16),
        ("f = \\x y", "expected '->', got 'y'", 8),
        ("type T =", "expected a type", 9),
        ("type T = A ->", "expected a type", 14),
        ("f = )", "expected an expression", 5),
        ("f (x) = x", "expected 'CONID', got 'x'", 4),
        ("f (C (D x) = x", "expected a pattern", 12),
    ],
)
def test_error_messages_and_positions(decl, message, col):
    e = _err(f"module M where\n{decl}\n")
    assert (e.message, e.line, e.col) == (message, 2, col)


@pytest.mark.parametrize(
    "src, line, col, message",
    [
        ("module M where\nf =", 2, 4, "expected an expression"),
        ("module M where\nf = (1", 2, 7, "expected ')', got 'end of input'"),
        # The lexical error wins over the earlier syntax error.
        ("module M where\nf = )\ng = @\n", 3, 5, "unexpected character '@'"),
        ("module M where\n\tf = 1 @\n", 2, 8, "unexpected character '@'"),
        ("", 1, 1, "expected 'module', got 'end of input'"),
        ("module M where\nf = -", 2, 5, "unexpected character '-'"),
        ("module M where\nf = >", 2, 5, "unexpected character '>'"),
        ('module M where\r\nf = "ab\r\n', 2, 5, "unterminated string"),
        ('module "x"', 1, 8, "expected 'CONID', got '\"x\"'"),
        ("module M\r\n\twhere x", 1, 10, "expected 'where', got '\\n'"),
        ("module M where\nf = << a >>\ng = << b >> @", 3, 13, "unexpected character '@'"),
    ],
)
def test_exact_error_positions(src, line, col, message):
    e = _err(src)
    assert (e.line, e.col, e.message) == (line, col, message)


@pytest.mark.parametrize(
    "src, body",
    [
        ("module M where\nf = x--c", Var("x")),
        ("module M where\r\n\tf = 1\r\n", LitInt(1)),
        ("module M where\nf = 12abc", App(LitInt(12), Var("abc"))),
        ('module M where\nf = "a -- b"', LitStr("a -- b")),
        ('module M where\nf = ""', LitStr("")),
    ],
)
def test_lexing_edge_cases(src, body):
    assert parse(src).decls[0].body == body


def test_missing_expression():
    e = _err("module M where\nf =\n")
    assert e.message == "expected an expression"


def test_keyword_cannot_open_a_binding():
    e = _err("module M where\nin = 1\n")
    assert e.message == "expected a declaration"


def test_second_expression_focus_rejected():
    e = _err("module M where\nf = << a >>\ng = << b >>\n")
    assert isinstance(e, MultipleFociError)
    assert e.message == "more than one expression focus"
    assert (e.line, e.col) == (3, 5)


def test_nested_expression_foci_rejected():
    e = _err("module M where\nf = << << a >> >>\n")
    assert isinstance(e, MultipleFociError)


def test_second_type_focus_rejected():
    e = _err("module M where\ntype A = << X >>\ntype B = << Y >>\n")
    assert isinstance(e, MultipleFociError)
    assert e.message == "more than one type focus"
    assert (e.line, e.col) == (3, 10)


def test_one_focus_of_each_kind_is_allowed():
    m = parse("module M where\ntype A = << X >>\nf = << a >>\n")
    syn, fun = m.decls
    assert syn.rhs == TyFocus(TyCon("X"))
    assert fun.body == Focus(Var("a"))


def test_multiple_foci_error_is_a_parse_error():
    assert issubclass(MultipleFociError, ParseError)


# Exact layouts.


def test_pretty_module_layout():
    m = Module(
        "M",
        (
            DataDecl("L", (("Nil", ()), ("Cons", (TyCon("Int"), TyCon("L"))))),
            TypeSyn("F", TyFun(TyCon("Int"), TyCon("Int"))),
            FunBind("f", (PVar("x"),), App(App(Var("add"), Var("x")), LitInt(1))),
            DataDecl(
                "D",
                (
                    ("C", (TyApp(TyCon("L"), TyVar("a")), TyFun(TyCon("A"), TyVar("b")))),
                    ("E", (TyFocus(TyApp(TyCon("L"), TyVar("a"))),)),
                ),
            ),
            FunBind(
                "g", (PCon("C", ()), PCon("P", (PCon("Q", (PVar("x"),)), PVar("y")))), Var("y")
            ),
        ),
    )
    text = (
        "module M where\n"
        "data L = Nil | Cons Int L\n"
        "type F = Int -> Int\n"
        "f x = add x 1\n"
        "data D = C (L a) (A -> b) | E << L a >>\n"
        "g (C) (P (Q x) y) = y\n"
    )
    assert pretty(m) == text
    assert parse(text) == m
    assert pretty(Module("E", ())) == "module E where\n"


def test_pretty_renders_any_fragment():
    assert pretty(DataDecl("D", (("C", (TyApp(TyCon("L"), TyVar("a")),)),))) == "data D = C (L a)"
    assert pretty(FunBind("f", (PVar("x"),), Var("x"))) == "f x = x"
    assert pretty(PCon("P", (PCon("Q", ()), PVar("y")))) == "(P (Q) y)"
    assert pretty(TyFun(TyCon("A"), TyCon("B"))) == "A -> B"
    assert pretty_type is pretty_expr is pretty


def test_pretty_chunks_hand_long_parts_on_as_they_are():
    # Many declarations, so the parts are handed on in more than one batch.
    names = ["v" * n for n in range(200, 1200)]
    m = Module("M", tuple(FunBind(f"f{i}", (), App(Var(v), LitStr(v))) for i, v in enumerate(names)))
    chunks = list(pretty_chunks(m))
    assert len(chunks) > 1 and "".join(chunks) == pretty(m)
    kept = {id(c) for c in chunks}
    assert all(id(v) in kept for v in names if len(v) >= 256)


def test_pretty_expr_precedence():
    assert pretty_expr(App(App(Var("f"), Var("g")), Var("x"))) == "f g x"
    assert pretty_expr(App(Var("f"), App(Var("g"), Var("x")))) == "f (g x)"
    assert pretty_expr(App(Lam(PVar("x"), Var("f")), Var("v"))) == "(\\x -> f) v"
    assert pretty_expr(App(Var("f"), Let("x", LitInt(1), Var("x")))) == "f (let x = 1 in x)"
    assert pretty_expr(Lam(PCon("Pair", (PVar("a"), PVar("b"))), Var("a"))) == "\\(Pair a b) -> a"
    assert pretty_expr(Focus(App(Var("f"), LitInt(1)))) == "<< f 1 >>"
    assert pretty_expr(LitStr("hi")) == '"hi"'
    assert pretty_expr(App(Var("f"), Lam(PVar("x"), Var("x")))) == "f (\\x -> x)"
    assert pretty_expr(App(Let("x", LitInt(1), Var("x")), Var("v"))) == "(let x = 1 in x) v"
    assert pretty_expr(App(Var("f"), Focus(App(Var("g"), Var("x"))))) == "f << g x >>"
    assert pretty_expr(Lam(PCon("C", ()), Var("x"))) == "\\(C) -> x"


def test_pretty_type_precedence():
    assert pretty_type(TyFun(TyCon("A"), TyFun(TyCon("B"), TyCon("C")))) == "A -> B -> C"
    assert pretty_type(TyFun(TyFun(TyCon("A"), TyCon("B")), TyCon("C"))) == "(A -> B) -> C"
    assert pretty_type(TyApp(TyApp(TyCon("Map"), TyVar("k")), TyVar("v"))) == "Map k v"
    assert pretty_type(TyApp(TyCon("T"), TyApp(TyCon("U"), TyVar("a")))) == "T (U a)"
    assert pretty_type(TyFocus(TyCon("X"))) == "<< X >>"
    assert pretty_type(TyApp(TyCon("T"), TyFun(TyCon("A"), TyCon("B")))) == "T (A -> B)"


# The registered syntax.


def test_registry_is_frozen():
    assert REGISTRY.frozen
    with pytest.raises(RegistryFrozen):
        REGISTRY.declare("Imposter")


def test_tags_are_distinct():
    tags = {MODULE, DECL, TYPE, EXPR, PATTERN}
    assert len(tags) == 5


def test_to_term_infers_syntax_tags():
    assert to_term(Var("x")).tag is EXPR
    assert to_term(PVar("x")).tag is PATTERN
    assert to_term(TyCon("T")).tag is TYPE
    assert to_term(Module("M", ())).tag is MODULE
    assert to_term(5).tag is INT
