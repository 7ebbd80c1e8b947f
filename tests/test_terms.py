"""The universal term view: tags, decomposition, rebuilding, registries."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import re
from dataclasses import dataclass
from typing import List, Optional

import hypothesis.strategies as st
import pytest
from hypothesis import given

from gen_terms import modules
from strategem.minilang import parse, to_term
from strategem.effects import IDENTITY, INT_SUM, NOTHING, PARTIAL, Just
from strategem.strategies import adhoc_tp, adhoc_tu, apply, build_tu, fail_tp, identity_tp
from strategem.terms import (
    BOOL,
    INT,
    STR,
    ArityMismatch,
    ChildTypeMismatch,
    DuplicateRegistration,
    Registry,
    RegistryFrozen,
    Term,
    TypeTag,
    UnregisteredType,
    cast,
    children,
    constructor,
    descriptor_lines,
    list_of,
    optional_of,
    pair_of,
    rebuild,
    register_descriptors,
    same_term,
    term,
    type_of,
    validate_term,
)
from strategem.themes import bottomup, crush, once_td, topdown

# A toy datatype family used throughout this module.


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Node:
    left: Tree
    right: Tree
    name: str


Tree = Leaf | Node

TREES = Registry()
TREE = TREES.derive({"Tree": [Leaf, Node]})["Tree"]
TREES.freeze()


def tree_values():
    return st.recursive(
        st.integers(-99, 99).map(Leaf),
        lambda inner: st.builds(Node, inner, inner, st.sampled_from(["a", "b", "c"])),
        max_leaves=8,
    )


# Atoms.


def test_atom_inference():
    assert term(5).tag is INT
    assert term("x").tag is STR
    assert term(True).tag is BOOL


def test_bool_is_not_int():
    # bool is a subclass of int in Python; the term view keeps them apart.
    assert term(True).tag is not INT
    with pytest.raises(TypeError):
        term(True, INT)
    with pytest.raises(TypeError):
        term(1, BOOL)


def test_atoms_are_leaves():
    for t in (term(0), term("hi"), term(False)):
        assert children(t) == ()
        assert constructor(t).arity == 0
        assert rebuild(t, ()) == t


def test_atom_constructor_identity():
    assert constructor(term(3)) == constructor(term(3))
    assert constructor(term(3)) != constructor(term(4))
    assert constructor(term(3)).owner is INT


def test_inference_needs_a_tag_for_nodes():
    with pytest.raises(UnregisteredType):
        term(Leaf(1))
    assert TREES.term(Leaf(1)).tag is TREE


# Containers.


def test_container_tags_are_memoized():
    assert list_of(INT) is list_of(INT)
    assert pair_of(INT, STR) is pair_of(INT, STR)
    assert optional_of(BOOL) is optional_of(BOOL)
    assert list_of(INT) is not list_of(STR)
    assert list_of(INT).name == "List(Int)"
    assert pair_of(INT, STR).name == "Pair(Int,Str)"
    assert optional_of(BOOL).name == "Opt(Bool)"


def test_list_decomposition():
    t = term([1, 2, 3], list_of(INT))
    con = constructor(t)
    assert con.name == "Cons" and con.arity == 2
    head, tail = children(t)
    assert head == term(1)
    assert tail.tag is list_of(INT) and tail.value == [2, 3]
    assert constructor(term([], list_of(INT))).name == "Nil"
    assert children(term([], list_of(INT))) == ()


def test_list_rebuild_keeps_payload_kind():
    lst = term([1, 2], list_of(INT))
    tup = term((1, 2), list_of(INT))
    assert isinstance(rebuild(lst, children(lst)).value, list)
    assert isinstance(rebuild(tup, children(tup)).value, tuple)
    # Same structure regardless of payload representation.
    assert same_term(lst, tup)


def test_pair_decomposition():
    t = term((7, "x"), pair_of(INT, STR))
    assert constructor(t).name == "Pair"
    assert children(t) == (term(7), term("x"))
    assert rebuild(t, (term(8), term("y"))).value == (8, "y")


def test_optional_decomposition():
    some = term(5, optional_of(INT))
    none = term(None, optional_of(INT))
    assert constructor(some).name == "Some" and children(some) == (term(5),)
    assert constructor(none).name == "None" and children(none) == ()
    assert rebuild(some, (term(6),)).value == 6


def test_long_lists_compare_and_validate_at_the_default_limit():
    n = 10**5
    as_list = term(list(range(n)), list_of(INT))
    assert as_list == term(tuple(range(n)), list_of(INT))
    assert as_list != term(list(range(n - 1)) + [0], list_of(INT))
    validate_term(as_list)
    with pytest.raises(TypeError):
        validate_term(Term(list(range(n)) + ["x"], list_of(INT)))


# The lazy list view, against plain-Python maps and folds.

PAIRS = list_of(pair_of(BOOL, INT))
NESTED = list_of(list_of(INT))


def sequences(elements):
    return st.lists(elements, max_size=12).flatmap(lambda xs: st.sampled_from([xs, tuple(xs)]))


def list_terms():
    ints = st.integers(-99, 99)
    return st.one_of(
        sequences(st.tuples(st.booleans(), ints)).map(lambda v: term(v, PAIRS)),
        sequences(sequences(ints)).map(lambda v: term(v, NESTED)),
    )


def py_bump(v):
    """Add one to every int, keeping bools and every sequence type."""
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v + 1
    return type(v)(py_bump(x) for x in v)


def py_ints(v):
    if isinstance(v, bool):
        return []
    if isinstance(v, int):
        return [v]
    return [n for x in v for n in py_ints(x)]


def py_bump_first(v):
    """Add one to the first int in preorder; also say whether one was found."""
    if isinstance(v, bool):
        return v, False
    if isinstance(v, int):
        return v + 1, True
    out = list(v)
    for i, x in enumerate(v):
        out[i], done = py_bump_first(x)
        if done:
            return type(v)(out), True
    return v, False


INC = adhoc_tp(identity_tp(IDENTITY), INT, lambda n: n + 1)
INC_FIRST = adhoc_tp(fail_tp(PARTIAL), INT, lambda n: PARTIAL.pure(n + 1))
SUM = crush(adhoc_tu(build_tu(IDENTITY, 0), INT, lambda n: n), INT_SUM)


@given(list_terms())
def test_lazy_lists_match_plain_python(t):
    v, want = t.value, py_bump(t.value)
    # `==` on a list and a tuple is false, so this also checks sequence types.
    assert apply(topdown(INC), t).value == want
    assert apply(bottomup(INC), t).value == want
    assert apply(SUM, t) == sum(py_ints(v))
    found = apply(once_td(INC_FIRST), t)
    first, done = py_bump_first(v)
    assert (found.value.value == first) if done else found is NOTHING
    assert apply(topdown(identity_tp(IDENTITY)), t) is t


@given(list_terms())
def test_walking_a_list_gives_its_slices(t):
    v, i = t.value, 0
    while kids := children(t):
        head, t = kids
        assert head.value == v[i]
        i += 1
        assert constructor(t).name == ("Cons" if i < len(v) else "Nil")
        assert t.value == v[i:]
    assert i == len(v)


# Structural hashing: equal terms hash alike, whatever form their lists take.


def other_sequence_form(t):
    """The same term with its top-level sequence held as the other kind."""
    v = t.value
    if isinstance(v, (list, tuple)):
        return Term(tuple(v) if isinstance(v, list) else list(v), t.tag)
    return Term(dataclasses.replace(v, decls=list(v.decls)), t.tag)


def subterms(t):
    yield t
    for kid in children(t):
        yield from subterms(kid)


# Returns every atom as a new term, so each list on the way up is rebuilt as a _Cons chain.
REBUILD_ATOMS = adhoc_tp(adhoc_tp(identity_tp(IDENTITY), INT, IDENTITY.pure), STR, IDENTITY.pure)


@given(st.one_of(list_terms(), modules.map(to_term)))
def test_equal_terms_hash_alike(t):
    flipped = other_sequence_form(t)
    rebuilt = apply(topdown(REBUILD_ATOMS), t)
    rebuilt_flipped = apply(topdown(REBUILD_ATOMS), flipped)
    for other in (flipped, rebuilt, rebuilt_flipped):
        assert other == t and hash(other) == hash(t)
        assert rebuilt == other and hash(rebuilt) == hash(other)
    assert len({t, flipped, rebuilt, rebuilt_flipped}) == 1
    for sub in subterms(t):
        if constructor(sub).name == "Cons":
            tail = children(sub)[1]
            h = hash(tail)
            plain = Term(tail.value, tail.tag)
            assert tail == plain and h == hash(plain)


def test_a_term_is_never_equal_to_a_bare_value():
    assert term(1).__eq__(1) is NotImplemented
    assert term(1) != 1 and 1 != term(1) and not term(1) == 1


def test_a_list_view_misses_every_attribute_but_value():
    t = term([1, 2, 3], list_of(INT))
    tail = children(t)[1]
    cons = rebuild(t, (term(9), tail))
    for view in (tail, cons):
        with pytest.raises(AttributeError, match="nope"):
            view.nope
        assert not hasattr(view, "head_of")
    assert (tail.value, cons.value) == ([2, 3], [9, 2, 3])


def test_atoms_of_different_datatypes_stay_apart():
    assert term(1) != term(True)
    assert len({term(1), term(True), term(1)}) == 2


# Nodes and the fundamental laws.


@given(tree_values())
def test_rebuild_round_trip(v):
    t = TREES.term(v)
    assert rebuild(t, children(t)) == t


@given(tree_values())
def test_children_match_arity(v):
    t = TREES.term(v)
    con = constructor(t)
    kids = children(t)
    assert len(kids) == con.arity
    for kid, ftag in zip(kids, con.field_tags):
        assert kid.tag is ftag


@given(tree_values())
def test_validate_accepts_real_values(v):
    validate_term(TREES.term(v))


def test_validate_rejects_foreign_values():
    with pytest.raises(TypeError):
        validate_term(Term("not a tree", TREE))
    with pytest.raises(TypeError):
        validate_term(Term(Node(Leaf(1), "oops", "n"), TREE))


def test_node_decomposition_order_follows_fields():
    t = TREES.term(Node(Leaf(1), Leaf(2), "n"))
    kids = children(t)
    assert [k.value for k in kids] == [Leaf(1), Leaf(2), "n"]
    assert [k.tag for k in kids] == [TREE, TREE, STR]


def test_rebuild_checks_arity_and_types():
    t = TREES.term(Node(Leaf(1), Leaf(2), "n"))
    with pytest.raises(ArityMismatch):
        rebuild(t, children(t)[:2])
    bad = (TREES.term(Leaf(1)), TREES.term(Leaf(2)), term(3))
    with pytest.raises(ChildTypeMismatch):
        rebuild(t, bad)


def test_cast():
    t = TREES.term(Leaf(1))
    assert cast(t, TREE) == Just(Leaf(1))
    assert cast(t, INT) is NOTHING
    assert cast(term(5), INT) == Just(5)


def test_structural_equality():
    a = TREES.term(Node(Leaf(1), Leaf(2), "n"))
    b = TREES.term(Node(Leaf(1), Leaf(2), "n"))
    c = TREES.term(Node(Leaf(1), Leaf(3), "n"))
    assert a == b and a != c
    assert same_term(a, b) and not same_term(a, c)
    assert term(1) != term("1")
    # Unequal terms whose preorder keys agree for a while.
    ints, opt = list_of(INT), optional_of(INT)
    rebuilt = apply(topdown(REBUILD_ATOMS), term([1, 2], ints))
    for x, y in [
        (term([1, 2], ints), term((1, 2, 3), ints)),
        (rebuilt, term([1, 2, 3], ints)),
        (term(True), term(1)),
        (term(None, opt), term(5, opt)),
    ]:
        assert x != y and y != x
        assert not same_term(x, y) and not same_term(y, x)


def test_type_of_and_names():
    assert type_of(TREES.term(Leaf(1))) is TREE
    assert TREE.name == "Tree"
    assert repr(constructor(TREES.term(Leaf(1)))) == "Tree.Leaf/1"


# Registry bookkeeping.


def test_declare_is_idempotent():
    r = Registry()
    assert r.declare("T") is r.declare("T")


def test_define_identical_is_noop_different_is_error():
    r = Registry()

    @dataclass(frozen=True)
    class One:
        n: int

    tag = r.declare("T")
    r.define(tag, [(One, (INT,))])
    r.define(tag, [(One, (INT,))])
    with pytest.raises(DuplicateRegistration):
        r.define(tag, [(One, (STR,))])


def test_constructor_class_cannot_serve_two_datatypes():
    r = Registry()

    @dataclass(frozen=True)
    class One:
        n: int

    r.define(r.declare("A"), [(One, (INT,))])
    with pytest.raises(DuplicateRegistration):
        r.define(r.declare("B"), [(One, (INT,))])


def test_frozen_registry_refuses_changes():
    r = Registry()

    @dataclass(frozen=True)
    class One:
        n: int

    r.define(r.declare("A"), [(One, (INT,))])
    r.freeze()
    assert r.frozen
    with pytest.raises(RegistryFrozen):
        r.declare("B")
    # Identical re-definition stays a no-op even after freezing.
    r.define(r.tag("A"), [(One, (INT,))])


def test_freeze_requires_every_declared_type_defined():
    r = Registry()
    r.declare("Ghost")
    with pytest.raises(UnregisteredType):
        r.freeze()


@pytest.mark.parametrize(
    "make", [lambda: Registry().declare("Ghost"), lambda: TypeTag("X")], ids=["declared", "bare"]
)
def test_a_datatype_without_a_view_is_unregistered_everywhere(make):
    g = make()
    uses = [
        lambda: term(1, g),
        lambda: Term(1, g) == Term(1, g),
        lambda: hash(Term(1, g)),
        lambda: children(Term(1, g)),
        lambda: constructor(Term(1, g)),
        lambda: rebuild(Term(1, g), ()),
        lambda: validate_term(Term(1, g)),
        lambda: descriptor_lines(g),
        lambda: term(1, optional_of(g)),
        lambda: validate_term(term([1], list_of(g))),
    ]
    for use in uses:
        with pytest.raises(UnregisteredType, match=f"datatype {g.name} was declared but never defined"):
            use()
    assert not hasattr(g, "anything")
    with pytest.raises(TypeError):
        descriptor_lines(INT)


def test_a_copy_keeps_its_datatype():
    # Tags compare by identity, so a copy of a term must keep the very same tag.
    ints = term([1, 2], list_of(INT))
    module = to_term(parse("module M where\nf x = add x 1\n"))
    for tag in (INT, ints.tag, module.tag):
        assert copy.copy(tag) is tag and copy.deepcopy(tag) is tag
    for t in (ints, module):
        assert copy.copy(t).tag is t.tag
        d = copy.deepcopy(t)
        assert d.tag is t.tag and d == t and hash(d) == hash(t)
        assert apply(topdown(INC), d) == apply(topdown(INC), t) != t
    for tag, t in ((INT, term(1)), (ints.tag, ints), (module.tag, module)):
        with pytest.raises(TypeError, match=re.escape(repr(tag))):
            pickle.dumps(t)


def test_freeze_follows_field_types_through_containers():
    other = Registry()
    ghost = other.declare("Ghost")
    r = Registry()

    @dataclass(frozen=True)
    class Holder:
        items: object

    r.define(r.declare("H"), [(Holder, (list_of(optional_of(pair_of(INT, ghost))),))])
    with pytest.raises(UnregisteredType):
        r.freeze()


def test_non_dataclass_constructor_rejected():
    r = Registry()

    class Plain:
        pass

    with pytest.raises(TypeError):
        r.define(r.declare("A"), [(Plain, ())])


def test_define_refuses_a_tag_of_another_registry_and_a_wrong_field_count():
    r, other = Registry(), Registry()

    @dataclass(frozen=True)
    class One:
        n: int

    with pytest.raises(UnregisteredType, match="was not declared in this registry"):
        r.define(other.declare("A"), [(One, (INT,))])
    r.declare("A")  # a tag of the same name is still not the other registry's
    with pytest.raises(UnregisteredType, match="was not declared in this registry"):
        r.define(other.tag("A"), [(One, (INT,))])
    with pytest.raises(ArityMismatch, match="A.One has 1 fields, got 2 tags"):
        r.define(r.tag("A"), [(One, (INT, INT))])
    # A refused definition leaves the datatype undefined, so it can still be defined.
    assert r.define(r.tag("A"), [(One, (INT,))]) is r.tag("A")
    assert r.term(One(1)).tag is r.tag("A")


def test_derive_resolves_container_annotations():
    r = Registry()

    @dataclass(frozen=True)
    class Rec:
        items: list[int]
        extra: Optional[str]
        at: tuple[int, str]
        rest: tuple[str, ...]

    tag = r.derive({"Rec": [Rec]})["Rec"]
    t = r.term(Rec([1], "x", (2, "y"), ("a", "b")))
    kids = children(t)
    assert [k.tag for k in kids] == [
        list_of(INT),
        optional_of(STR),
        pair_of(INT, STR),
        list_of(STR),
    ]
    assert rebuild(t, kids) == t
    assert tag.name == "Rec"


def test_derive_rejects_unknown_annotations():
    r = Registry()

    @dataclass(frozen=True)
    class Bad:
        x: dict

    @dataclass(frozen=True)
    class BareList:
        x: List

    @dataclass(frozen=True)
    class TwoArgList:
        x: list[int, str]

    for cls in (Bad, BareList, TwoArgList):
        with pytest.raises(UnregisteredType):
            r.derive({cls.__name__: [cls]})


def test_derive_refuses_long_tuples_and_unions_across_datatypes():
    @dataclass(frozen=True)
    class Triple:
        x: tuple[int, int, int]

    @dataclass(frozen=True)
    class Either:
        x: int | str

    @dataclass(frozen=True)
    class MaybeEither:
        x: Optional[int | str]

    with pytest.raises(UnregisteredType, match="only pairs and tuple"):
        Registry().derive({"Triple": [Triple]})
    for cls in (Either, MaybeEither):
        with pytest.raises(UnregisteredType, match="union members span several datatypes"):
            Registry().derive({cls.__name__: [cls]})


def test_registry_tag_lookup():
    assert TREES.tag("Tree") is TREE
    with pytest.raises(UnregisteredType):
        TREES.tag("Missing")


# The textual descriptor format.

DESCRIPTOR = """
Shape.Dot :
Shape.Box : Int Int
Shape.Tag : Str Shape
Shape.Many : List(Shape)
Shape.At : Pair(Int,Int)
Shape.Hint : Opt(Str)
"""


def test_register_descriptors_and_walk():
    r = Registry()
    tags, classes = register_descriptors(r, DESCRIPTOR)
    r.freeze()
    shape = tags["Shape"]
    Dot, Box = classes[("Shape", "Dot")], classes[("Shape", "Box")]
    Tag, Many = classes[("Shape", "Tag")], classes[("Shape", "Many")]
    v = Tag("t", Many([Dot(), Box(1, 2)]))
    t = r.term(v)
    assert constructor(t).name == "Tag"
    assert rebuild(t, children(t)) == t
    inner = children(children(t)[1])[0]
    assert inner.tag is list_of(shape)


def test_descriptor_lines_round_trip():
    lines = descriptor_lines(TREE)
    assert lines == ["Tree.Leaf : Int", "Tree.Node : Tree Tree Str"]
    r = Registry()
    tags, classes = register_descriptors(r, "\n".join(lines))
    again = descriptor_lines(tags["Tree"])
    assert again == lines


def test_descriptors_nest_pairs_and_name_earlier_datatypes():
    r = Registry()
    leaf_tags, leaf_classes = register_descriptors(r, "Leaf.L : Int")
    line = "Box.B : Pair(Pair(Int,Str),Int) Leaf"
    tags, classes = register_descriptors(r, line)
    assert descriptor_lines(tags["Box"]) == [line]
    t = r.term(classes[("Box", "B")](((1, "a"), 2), leaf_classes[("Leaf", "L")](3)))
    assert [k.tag for k in children(t)] == [pair_of(pair_of(INT, STR), INT), leaf_tags["Leaf"]]
    assert rebuild(t, children(t)) == t


def test_descriptor_lines_rejects_atoms():
    with pytest.raises(TypeError):
        descriptor_lines(INT)


def test_malformed_descriptors_rejected():
    r = Registry()
    with pytest.raises(ValueError):
        register_descriptors(r, "NoColonHere Int")
    with pytest.raises(ValueError):
        register_descriptors(r, "Missing.Dot : Pair(Int)")
