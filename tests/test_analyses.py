"""The worked operations over the mini-language, against reference walkers."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

from oracles import all_types as oracle_all_types
from oracles import collect_ints, collect_strings, count_decls, count_type_nodes
from strategem.analyses import (
    Coder,
    GuardFailed,
    NoFocus,
    NoSuchAlias,
    all_types,
    any_types,
    count_of_type,
    de_bruijn,
    de_bruijn_strategy,
    encode,
    free_vars,
    get_code,
    inc_ints,
    is_fresh_type,
    next_code,
    no_codes,
    select_focus,
    select_type_focus,
    set_code,
    to_alias,
    type_token,
)
from strategem.effects import (
    IDENTITY,
    INT_SUM,
    NOTHING,
    SET_UNION,
    STATE,
    EffectMorphism,
    Just,
    identity_morphism,
    partial_to_identity,
    unlift_state,
)
from strategem.minilang import (
    DECL,
    EXPR,
    MODULE,
    TYPE,
    App,
    DataDecl,
    FunBind,
    Lam,
    Let,
    LitInt,
    Module,
    PCon,
    PVar,
    TyCon,
    TypeSyn,
    Var,
    parse,
    pretty,
    to_term,
)
from strategem.strategies import TU, adhoc_tu, apply, build_tu, let_tu, msubst_tu
from strategem.terms import BOOL, INT, STR, cast, list_of, pair_of, term
from strategem.themes import crush

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"


def load(name):
    return parse((CORPUS / name).read_text())


# Incrementing integers.


def test_inc_ints_on_plain_data():
    t = term([(True, 1), (False, 2)], list_of(pair_of(BOOL, INT)))
    assert inc_ints(t).value == [(True, 2), (False, 3)]
    nested = term((1, ([2], 3)), pair_of(INT, pair_of(list_of(INT), INT)))
    assert inc_ints(nested).value == (2, ([3], 4))


def test_inc_ints_on_modules():
    m = load("funs.ml0")
    out = cast(inc_ints(to_term(m)), MODULE).value
    assert collect_ints(out) == [n + 1 for n in collect_ints(m)]
    # Everything but the integers is untouched.
    assert collect_strings(out) == collect_strings(m)
    assert out.decls[3].body == App(App(Var("add"), LitInt(2)), LitInt(42))


def test_inc_ints_leaves_booleans_alone():
    t = term([True, False], list_of(BOOL))
    assert inc_ints(t).value == [True, False]


# Type-name harvesting.


def test_any_types_is_a_single_node_step():
    syn = to_term(parse("module M where\ntype N = L\n").decls[0], DECL)
    assert apply(any_types, syn) == frozenset({"N"})
    use = to_term(TyCon("L"))
    assert apply(any_types, use) == frozenset({"L"})
    neither = to_term(Var("x"))
    assert apply(any_types, neither) == frozenset()


def test_all_types_on_the_corpus():
    assert all_types(load("syn.ml0")) == frozenset({"F", "Int", "L", "N"})
    for name in ("empty.ml0", "data.ml0", "syn.ml0", "funs.ml0", "tyfocus.ml0"):
        m = load(name)
        assert all_types(m) == oracle_all_types(m)


def test_is_fresh_type():
    m = load("syn.ml0")
    assert is_fresh_type("Fresh", m)
    assert not is_fresh_type("L", m)
    # Use sites count, not only declarations.
    assert not is_fresh_type("Int", m)
    assert is_fresh_type("Anything", load("empty.ml0"))


# Free variables.


def test_free_vars_of_a_lambda():
    e = Lam(PVar("x"), App(App(Var("add"), Var("x")), Var("y")))
    assert free_vars(to_term(e, EXPR)) == frozenset({"add", "y"})


def test_free_vars_respects_let_recursion():
    e = Let("y", App(Var("f"), Var("y")), Var("y"))
    assert free_vars(to_term(e, EXPR)) == frozenset({"f"})
    knot = Let("x", Var("x"), Var("x"))
    assert free_vars(to_term(knot, EXPR)) == frozenset()


def test_free_vars_of_function_bindings():
    d = FunBind("f", (PVar("x"),), App(Var("x"), Var("f")))
    # The parameter is bound at the declaration; the function's own name
    # only becomes bound at module level.
    assert free_vars(to_term(d, DECL)) == frozenset({"f"})
    m = parse("module M where\nf x = x f\n")
    assert free_vars(to_term(m)) == frozenset()


def test_free_vars_sees_nested_pattern_binders():
    e = Lam(PCon("Pair", (PVar("a"), PCon("Box", (PVar("b"),)))), App(Var("a"), Var("b")))
    assert free_vars(to_term(e, EXPR)) == frozenset()


def test_free_vars_ignores_constructors_and_literals():
    m = parse('module M where\nmsg = Con 1 "s"\n')
    assert free_vars(to_term(m)) == frozenset()


def test_free_vars_of_whole_corpus_modules():
    assert free_vars(to_term(load("funs.ml0"))) == frozenset()
    assert free_vars(to_term(load("nested.ml0"))) == frozenset()


def test_binder_does_not_leak_sideways():
    e = App(Lam(PVar("x"), Var("x")), Var("x"))
    assert free_vars(to_term(e, EXPR)) == frozenset({"x"})


# Focus selection.


def test_select_focus():
    assert select_focus(load("focus.ml0")) == App(App(Var("add"), Var("x")), LitInt(1))
    with pytest.raises(NoFocus, match="^module has no expression focus$"):
        select_focus(load("data.ml0"))
    with pytest.raises(NoFocus):
        select_focus(load("tyfocus.ml0"))


def test_select_type_focus():
    assert select_type_focus(load("tyfocus.ml0")) == TyCon("L")
    with pytest.raises(NoFocus, match="^module has no type focus$"):
        select_type_focus(load("data.ml0"))
    with pytest.raises(NoFocus):
        select_type_focus(load("focus.ml0"))


# Folding a type into a synonym.

TOALIAS_CASES = sorted((CORPUS / "toalias").glob("*.ml0"), key=lambda p: p.name)
FAILURES = {"NoFocus": NoFocus, "NoSuchAlias": NoSuchAlias, "GuardFailed": GuardFailed}


@pytest.mark.parametrize("path", TOALIAS_CASES, ids=lambda p: p.stem)
def test_to_alias_golden(path):
    module = parse(path.read_text())
    expected = (GOLDEN / "toalias" / f"{path.stem}.out").read_text()
    marker = expected.strip()
    if marker in FAILURES:
        with pytest.raises(FAILURES[marker]):
            to_alias("N", module)
    else:
        assert pretty(to_alias("N", module)) == expected


def test_to_alias_returns_a_plain_module():
    out = to_alias("N", parse((CORPUS / "toalias" / "case01.ml0").read_text()))
    assert isinstance(out, type(parse("module X where\n")))
    assert all_types(out) == all_types(parse((GOLDEN / "toalias" / "case01.out").read_text()))


# Renaming string atoms.


def test_de_bruijn_on_nested_pairs():
    t = term(("a", ("b", "c")), pair_of(STR, pair_of(STR, STR)))
    assert de_bruijn(t).value == ("1", ("1'", "1''"))


def test_de_bruijn_follows_preorder():
    m = load("strings.ml0")
    out = cast(de_bruijn(to_term(m)), MODULE).value
    expected = ["1" + "'" * i for i in range(len(collect_strings(m)))]
    assert collect_strings(out) == expected


def test_de_bruijn_names_are_distinct():
    m = load("funs.ml0")
    out = cast(de_bruijn(to_term(m)), MODULE).value
    names = collect_strings(out)
    assert len(names) == len(set(names))
    assert len(names) == len(collect_strings(m))


def test_de_bruijn_state_is_sealed():
    s = de_bruijn_strategy()
    assert s.context == IDENTITY
    t = term(("a", "b"), pair_of(STR, STR))
    assert apply(s, t) == apply(s, t)
    assert de_bruijn(t) == de_bruijn(t)


def test_de_bruijn_without_strings_is_identity():
    t = term([1, 2], list_of(INT))
    assert de_bruijn(t) == t


# Coding terms.


def test_no_codes_knows_nothing():
    assert get_code(no_codes(), term(5)) is NOTHING


def test_encode_assigns_codes_in_first_seen_order():
    coder = no_codes()
    terms = [term(10), term("x"), term(20)]
    codes = []
    for t in terms:
        code, coder = encode(coder, t)
        codes.append(code)
    assert codes == [1, 2, 3]
    assert get_code(coder, term("x")) == Just(2)


def test_encode_is_stable_on_repeats():
    coder = no_codes()
    code1, coder = encode(coder, term(7))
    code2, after = encode(coder, term(7))
    assert code1 == code2 == 1
    assert after is coder
    code3, _ = encode(coder, term(8))
    assert code3 == 2


def test_codes_respect_datatypes():
    coder = no_codes()
    code_int, coder = encode(coder, term(1))
    code_str, coder = encode(coder, term("1"))
    assert (code_int, code_str) == (1, 2)
    assert get_code(coder, term(1)) == Just(1)
    assert get_code(coder, term("1")) == Just(2)


def test_structurally_equal_terms_share_a_code():
    coder = no_codes()
    e1 = to_term(App(Var("f"), Var("x")), EXPR)
    e2 = to_term(App(Var("f"), Var("x")), EXPR)
    code1, coder = encode(coder, e1)
    code2, coder = encode(coder, e2)
    assert code1 == code2


def test_next_and_set_code_compose_into_encode():
    coder = no_codes()
    t = to_term(Var("v"), EXPR)
    code, advanced = next_code(coder)
    assert code == 1
    stored = set_code(advanced, t)
    assert get_code(stored, t) == Just(1)
    assert get_code(stored, to_term(Var("w"), EXPR)) is NOTHING
    assert isinstance(stored, Coder)


def test_encode_has_no_ceiling_at_the_default_limit():
    # One lookup per call, however many codes: no stack grows with the coder.
    assert sys.getrecursionlimit() == 1000
    assert threading.current_thread() is threading.main_thread()
    decls = [
        to_term(FunBind(f"f{i}", (PVar("x"),), App(Var("x"), LitInt(i))), DECL)
        for i in range(2000)
    ]
    coder, codes = no_codes(), []
    for t in decls:
        code, coder = encode(coder, t)
        codes.append(code)
    assert codes == list(range(1, 2001))
    for i, t in enumerate(decls[:50]):
        code, after = encode(coder, t)
        assert code == i + 1 and after is coder
    assert get_code(coder, to_term(FunBind("unseen", (), LitInt(0)), DECL)) is NOTHING


# Counting by datatype.


def test_count_of_type_counts_declarations():
    m = load("funs.ml0")
    assert count_of_type(type_token(DECL), to_term(m)) == count_decls(m) == 6
    assert count_of_type(type_token(DECL), to_term(load("empty.ml0"))) == 0


def test_count_of_type_counts_atoms_and_includes_the_root():
    m = load("funs.ml0")
    assert count_of_type(type_token(INT), to_term(m)) == len(collect_ints(m))
    assert count_of_type(type_token(STR), to_term(m)) == len(collect_strings(m))
    assert count_of_type(type_token(EXPR), to_term(Var("x"), EXPR)) == 1
    assert count_of_type(type_token(INT), term(3)) == 1


def test_count_of_type_counts_type_nodes():
    for name in ("data.ml0", "syn.ml0", "tyfocus.ml0", "funs.ml0"):
        m = load(name)
        assert count_of_type(type_token(TYPE), to_term(m)) == count_type_nodes(m)


# Pruning: a traversal does not enter a subterm whose datatype reaches no
# tag of its adhoc layers.


class Opaque:
    """A value of no registered class: `children` raises on a term holding it."""


def _tick(ctx):
    return adhoc_tu(build_tu(ctx, 0), DECL, lambda _decl: ctx.pure(1))


def test_count_of_type_never_enters_what_cannot_hold_the_datatype():
    # Patterns, expressions and types hold no declaration.
    m = Module("M", (FunBind("f", (Opaque(),), Opaque()), TypeSyn("T", Opaque())))
    assert count_of_type(type_token(DECL), to_term(m)) == 2

    def one(_decl):
        return IDENTITY.pure(1)

    opaque = adhoc_tu(TU(IDENTITY, lambda _t: IDENTITY.pure(0)), DECL, one)
    with_let = adhoc_tu(let_tu(build_tu(IDENTITY, 0), lambda n: build_tu(IDENTITY, n)), DECL, one)
    # The same tick moved along a morphism the library does not know.
    user = msubst_tu(EffectMorphism(IDENTITY, IDENTITY, lambda comp: comp), _tick(IDENTITY))
    for tick in (opaque, with_let, user):
        with pytest.raises(KeyError):
            apply(crush(tick, INT_SUM), to_term(m))
    # Along a library morphism the tick runs in the traversal's loop, which
    # reads it and still skips what holds no declaration.
    for morphism in (identity_morphism(IDENTITY), partial_to_identity(0), unlift_state(STATE, 0)):
        tick = msubst_tu(morphism, _tick(morphism.source))
        assert apply(crush(tick, INT_SUM), to_term(m)) == 2


def test_all_types_never_enters_what_cannot_hold_a_type():
    # Patterns and expressions hold no type; a synonym's right-hand side does.
    m = Module("M", (FunBind("f", (Opaque(),), Opaque()), TypeSyn("T", TyCon("Int"))))
    assert all_types(m) == {"T", "Int"}
    opaque = TU(IDENTITY, lambda t: apply(any_types, t))
    with pytest.raises(KeyError):
        apply(crush(opaque, SET_UNION), to_term(m))
