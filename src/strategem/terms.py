"""Universal term representation.

Generic traversal needs one uniform view of values from many datatypes.
Here a value is wrapped in a `Term` carrying the `TypeTag` of its
concrete datatype.  The tag is also the datatype's one-layer view: it
takes a value apart into child terms and puts it back together, so
traversal code never mentions the datatypes it walks over.

Three families of datatypes exist:

  * atoms: int, str and bool, registered once per process with zero
    children,
  * algebraic datatypes: a named union of frozen dataclass constructors,
    registered in a `Registry`,
  * containers: sequences, pairs and optionals, instantiated per element
    type through `list_of`, `pair_of` and `optional_of`; each distinct
    instantiation is its own datatype.

Tags compare by identity and are stable for the lifetime of the process:
a copy of a tag is the tag itself, and pickling one is refused.
Registries are populated at import time and then frozen, which also checks
the closure property: every datatype reachable from a registered one is
itself registered.

Terms compare and hash by structure, whatever form a list value takes.
A hash walks the whole term, O(size), and is not cached; a term used as
a dict key must not have its list value mutated afterwards.

Ordinary datatypes are registered with `Registry.derive`, which reads
constructor field types straight from dataclass annotations.  A textual
descriptor format (one `TypeName.ConName : FieldType*` line per
constructor) is supported through `descriptor_lines` and
`register_descriptors` for the same purpose.

Cost model for lists: `children` of a cons cell is O(1).  The tail it
returns is a view of the original sequence from an offset, and `rebuild`
of a cons cell returns a term holding its head and tail terms.  Neither
copies anything; their Python `list` or `tuple` is assembled, once and in
a single pass, when `.value` is first read, with the sequence type of the
list it came from.  So a traversal of a list is linear, but any step that
reads `.value` of a list term (an `adhoc` step on a list datatype, `cast`)
pays O(length) for each cons cell it runs on.
"""

from __future__ import annotations

import dataclasses
import operator
import types
import typing
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .effects import Just, NOTHING

__all__ = [
    "TypeTag",
    "ConstructorTag",
    "Term",
    "Registry",
    "INT",
    "STR",
    "BOOL",
    "list_of",
    "pair_of",
    "optional_of",
    "term",
    "type_of",
    "constructor",
    "children",
    "rebuild",
    "cast",
    "same_term",
    "validate_term",
    "descriptor_lines",
    "register_descriptors",
    "ArityMismatch",
    "ChildTypeMismatch",
    "DuplicateRegistration",
    "UnregisteredType",
    "RegistryFrozen",
]


class ArityMismatch(Exception):
    """Rebuild was given the wrong number of children."""


class ChildTypeMismatch(Exception):
    """Rebuild was given a child of the wrong type."""


class DuplicateRegistration(Exception):
    """A datatype name or constructor class was registered twice with a different shape."""


class UnregisteredType(Exception):
    """A datatype was used before being registered."""


class RegistryFrozen(Exception):
    """A frozen registry refused a new registration."""


class TypeTag:
    """One concrete datatype: its identity and its one-layer view.

    The registration machinery hands out exactly one tag per datatype, so
    tags compare by identity, and a copy of a tag is the tag itself.  Each
    kind of datatype is a subclass, and traversal, comparison and `freeze`
    use only its view: `field_types`, the datatypes of the constructor
    fields (none for atoms); `check`, of a term against the datatype; a
    term's constructor, children and `head` (what equal terms share at the
    top); and `rebuild`, for all but atoms.  A tag with no view yet, one
    declared but not defined or a bare `TypeTag`, raises `UnregisteredType`
    from each of these.
    """

    __slots__ = ("name", "_reach")

    def __init__(self, name: str):
        self.name = name
        self._reach = None

    def __repr__(self):
        return f"TypeTag({self.name})"

    def __getattr__(self, name):
        # Only reached for a missing member, such as an unset slot.
        if name in _VIEW:
            raise UnregisteredType(f"datatype {self.name} was declared but never defined")
        raise AttributeError(name)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        raise TypeError(f"{self!r} belongs to one process and cannot be pickled")

    def head(self, t):
        return self.constructor_of(t)


_VIEW = frozenset(("field_types", "by_class", "check", "constructor_of", "children", "rebuild"))


@dataclass(frozen=True)
class ConstructorTag:
    """Identity of one constructor of a datatype, with its field types."""

    name: str
    owner: TypeTag
    field_tags: tuple

    @property
    def arity(self) -> int:
        return len(self.field_tags)

    def __repr__(self):
        return f"{self.owner.name}.{self.name}/{self.arity}"


class Term:
    """A value paired with the tag of its datatype.

    Terms are immutable handles.  Equality is structural: same tag, same
    constructor, pairwise equal children.  Equal terms hash alike.
    """

    __slots__ = ("value", "tag")

    def __init__(self, value, tag: TypeTag):
        self.value = value
        self.tag = tag

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return same_term(self, other)

    def __hash__(self):
        return hash(tuple(_keys(self)))

    def __repr__(self):
        return f"Term({self.value!r} : {self.tag.name})"


def _closure(tags) -> set:
    # The datatypes `tags` reach through `field_types`, themselves included;
    # raises UnregisteredType on one declared but never defined.
    seen, pending = set(tags), list(tags)
    while pending:
        for field in pending.pop().field_types:
            if field not in seen:
                seen.add(field)
                pending.append(field)
    return seen


def _reach(tag: TypeTag):
    """The datatypes a term of `tag` can hold at any depth, `tag` included.

    None while the walk meets a datatype declared but not yet defined,
    whose fields are still unknown; a complete set never changes, since a
    definition is final, so it is cached on the tag.
    """
    if tag._reach is None:
        try:
            tag._reach = frozenset(_closure((tag,)))
        except UnregisteredType:
            return None
    return tag._reach


class _AtomTag(TypeTag):
    __slots__ = ("pytype",)
    field_types = ()

    def __init__(self, name, pytype):
        super().__init__(name)
        self.pytype = pytype

    def check(self, t):
        # Exact type: bool is a subclass of int but has its own tag.
        return type(t.value) is self.pytype

    def constructor_of(self, t):
        return ConstructorTag(repr(t.value), self, ())

    def head(self, t):
        return (type(t.value), t.value)

    def children(self, t):
        return ()


class _NodeTag(TypeTag):
    # Set by `Registry.define`: `by_class` maps each constructor class to its
    # ConstructorTag and field names.
    __slots__ = ("by_class", "field_types")

    def check(self, t):
        return type(t.value) in self.by_class

    def constructor_of(self, t):
        return self.by_class[type(t.value)][0]

    def children(self, t):
        value = t.value
        con, names = self.by_class[type(value)]
        return tuple(map(Term, map(value.__getattribute__, names), con.field_tags))

    def rebuild(self, t, kids):
        # The class of the value is the constructor being kept.
        return Term(type(t.value)(*[kid.value for kid in kids]), t.tag)


class _Tail(Term):
    """A list term viewing `seq` from `offset` on; its value is sliced on first read."""

    __slots__ = ("seq", "offset")

    def __init__(self, seq, offset, tag):
        self.seq = seq
        self.offset = offset
        self.tag = tag

    def __getattr__(self, name):
        # Only reached while the `value` slot is still unset.
        if name != "value":
            raise AttributeError(name)
        self.value = self.seq[self.offset :]
        return self.value


class _Cons(Term):
    """A rebuilt cons cell holding its head and tail terms.

    Its value is assembled on first read, in one pass down the chain of
    rebuilt cells, with the sequence type of the list the chain ends in.
    """

    __slots__ = ("head", "tail")

    def __init__(self, head, tail, tag):
        self.head = head
        self.tail = tail
        self.tag = tag

    def __getattr__(self, name):
        if name != "value":
            raise AttributeError(name)
        items, t = [], self
        while type(t) is _Cons:
            items.append(t.head.value)
            t = t.tail
        rest = t.value
        items.extend(rest)
        self.value = tuple(items) if isinstance(rest, tuple) else items
        return self.value


class _ListTag(TypeTag):
    __slots__ = ("elem", "field_types", "nil", "cons")

    def __init__(self, name, elem):
        super().__init__(name)
        self.elem = elem
        self.field_types = (elem, self)
        self.nil = ConstructorTag("Nil", self, ())
        self.cons = ConstructorTag("Cons", self, (elem, self))

    def check(self, t):
        # A lazy form is a list by construction: it came from one.
        return isinstance(t, (_Tail, _Cons)) or isinstance(t.value, (list, tuple))

    def constructor_of(self, t):
        if type(t) is _Cons:
            return self.cons
        seq, i = (t.seq, t.offset) if type(t) is _Tail else (t.value, 0)
        return self.cons if i < len(seq) else self.nil

    def children(self, t):
        if type(t) is _Cons:
            return (t.head, t.tail)
        seq, i = (t.seq, t.offset) if type(t) is _Tail else (t.value, 0)
        if i == len(seq):
            return ()
        return (Term(seq[i], self.elem), _Tail(seq, i + 1, self))

    def rebuild(self, t, kids):
        return _Cons(kids[0], kids[1], self)

    def relist(self, t, kids):
        # A list of the values of the element terms `kids`, with the sequence
        # type of `t`'s.
        while type(t) is _Cons:
            t = t.tail
        seq = t.seq if type(t) is _Tail else t.value
        items = [kid.value for kid in kids]
        return Term(tuple(items) if isinstance(seq, tuple) else items, self)


class _PairTag(TypeTag):
    __slots__ = ("first", "second", "field_types", "pair")

    def __init__(self, name, first, second):
        super().__init__(name)
        self.first, self.second = first, second
        self.field_types = (first, second)
        self.pair = ConstructorTag("Pair", self, (first, second))

    def check(self, t):
        return type(t.value) is tuple and len(t.value) == 2

    def constructor_of(self, t):
        return self.pair

    def children(self, t):
        value = t.value
        return (Term(value[0], self.first), Term(value[1], self.second))

    def rebuild(self, t, kids):
        return Term((kids[0].value, kids[1].value), self)


class _OptionalTag(TypeTag):
    __slots__ = ("elem", "field_types", "none", "some")

    def __init__(self, name, elem):
        super().__init__(name)
        self.elem = elem
        self.field_types = (elem,)
        self.none = ConstructorTag("None", self, ())
        self.some = ConstructorTag("Some", self, (elem,))

    def check(self, t):
        if t.value is None:
            return True
        return self.elem.check(Term(t.value, self.elem))

    def constructor_of(self, t):
        return self.none if t.value is None else self.some

    def children(self, t):
        if t.value is None:
            return ()
        return (Term(t.value, self.elem),)

    def rebuild(self, t, kids):
        return Term(kids[0].value, self)


INT = _AtomTag("Int", int)
STR = _AtomTag("Str", str)
BOOL = _AtomTag("Bool", bool)

_ATOM_BY_TYPE = {int: INT, str: STR, bool: BOOL}

_containers: dict = {}


def _container(kind, name, *fields) -> TypeTag:
    key = (kind, *fields)
    if key not in _containers:
        _containers[key] = kind(name, *fields)
    return _containers[key]


def list_of(elem: TypeTag) -> TypeTag:
    """The datatype of sequences over one element type."""
    return _container(_ListTag, f"List({elem.name})", elem)


def pair_of(first: TypeTag, second: TypeTag) -> TypeTag:
    """The datatype of two-tuples over two element types."""
    return _container(_PairTag, f"Pair({first.name},{second.name})", first, second)


def optional_of(elem: TypeTag) -> TypeTag:
    """The datatype of an optional value: None or an element."""
    return _container(_OptionalTag, f"Opt({elem.name})", elem)


def term(value, tag: TypeTag | None = None) -> Term:
    """Wrap a value as a term, inferring the tag for atoms.

    Values of container or algebraic datatypes need an explicit tag here;
    `Registry.term` can additionally infer tags for its own constructor
    classes.
    """
    if tag is None:
        tag = _ATOM_BY_TYPE.get(type(value))
        if tag is None:
            raise UnregisteredType(
                f"cannot infer a datatype for {value!r}; pass the tag explicitly"
            )
    return _checked(Term(value, tag))


def _checked(t: Term) -> Term:
    if not t.tag.check(t):
        raise TypeError(f"{t.value!r} is not a value of datatype {t.tag.name}")
    return t


def type_of(t: Term) -> TypeTag:
    return t.tag


def constructor(t: Term) -> ConstructorTag:
    return t.tag.constructor_of(t)


def children(t: Term) -> tuple:
    """The immediate subterms of a term, left to right; O(1) on a list."""
    return t.tag.children(t)


def rebuild(t: Term, kids: Sequence[Term]) -> Term:
    """Rebuild a term around new children, keeping its constructor.

    Children must match the constructor's arity and field types; with the
    original children the result is structurally equal to the input.
    """
    con = constructor(t)
    kids = tuple(kids)
    if len(kids) != con.arity:
        raise ArityMismatch(
            f"{con!r} takes {con.arity} children, got {len(kids)}"
        )
    for kid, ftag in zip(kids, con.field_tags):
        if kid.tag is not ftag:
            raise ChildTypeMismatch(
                f"{con!r} expects a child of type {ftag.name}, got {kid.tag.name}"
            )
    if con.arity == 0:
        return t
    return t.tag.rebuild(t, kids)


def cast(t: Term, target: TypeTag):
    """The underlying value if the term has the target type, else NOTHING."""
    if t.tag is target:
        return Just(t.value)
    return NOTHING


def same_term(a: Term, b: Term) -> bool:
    """Structural equality: equal tags, constructors and children."""
    # Walks that agree as far as both go are equally long: a head fixes its node's arity.
    return all(map(operator.eq, _keys(a), _keys(b)))


def _preorder(t: Term):
    # Subterms parents first, left to right, on an explicit stack; a
    # subterm's children are taken only after the caller has seen it.
    pending = [t]
    while pending:
        t = pending.pop()
        yield t
        pending.extend(reversed(children(t)))


def _keys(t: Term):
    # What equal terms share, node by node: `==` compares it and `hash` hashes it.
    for sub in _preorder(t):
        yield sub.tag, sub.tag.head(sub)


def validate_term(t: Term) -> None:
    """Walk a term and check every level against its datatype."""
    for sub in _preorder(t):
        _checked(sub)


class Registry:
    """Bookkeeper for named algebraic datatypes.

    A datatype is declared to obtain its tag, then defined with its
    constructor classes, which must be dataclasses.  `derive` does both
    steps for a whole family of datatypes by reading field annotations.
    After `freeze` no further definitions are accepted and the closure
    property has been checked.
    """

    def __init__(self):
        self._by_name: dict[str, TypeTag] = {}
        self._classes: dict[type, TypeTag] = {}
        self._frozen = False

    def declare(self, name: str) -> TypeTag:
        """Create (or fetch) the tag for a named datatype."""
        if name in self._by_name:
            return self._by_name[name]
        if self._frozen:
            raise RegistryFrozen(f"registry is frozen; cannot declare {name}")
        tag = _NodeTag(name)
        self._by_name[name] = tag
        return tag

    def define(self, tag: TypeTag, constructors: Sequence[tuple]) -> TypeTag:
        """Define a declared datatype by its constructors.

        `constructors` lists (dataclass, field tag sequence) pairs.
        Defining the same datatype twice is an error unless the shape is
        identical, in which case it is a no-op.
        """
        if self._by_name.get(tag.name) is not tag:
            raise UnregisteredType(f"{tag!r} was not declared in this registry")
        signature = tuple((cls, tuple(ftags)) for cls, ftags in constructors)
        try:  # the shape it is defined with: one constructor per class, in order
            shape = tuple((cls, con.field_tags) for cls, (con, _) in tag.by_class.items())
        except UnregisteredType:
            shape = None
        if shape is not None:
            if shape == tuple(dict(signature).items()):
                return tag
            raise DuplicateRegistration(
                f"datatype {tag.name} is already defined with a different shape"
            )
        built = []
        for cls, ftags in signature:
            if not dataclasses.is_dataclass(cls):
                raise TypeError(f"constructor {cls!r} of {tag.name} is not a dataclass")
            owner = self._classes.get(cls)
            if owner is not None and owner is not tag:
                raise DuplicateRegistration(
                    f"constructor class {cls.__name__} already belongs to {owner.name}"
                )
            names = tuple(f.name for f in dataclasses.fields(cls))
            if len(names) != len(ftags):
                raise ArityMismatch(
                    f"{tag.name}.{cls.__name__} has {len(names)} fields, got {len(ftags)} tags"
                )
            built.append((cls, ConstructorTag(cls.__name__, tag, ftags), names))
        tag.by_class = {cls: (con, names) for cls, con, names in built}
        tag.field_types = tuple(f for con, _ in tag.by_class.values() for f in con.field_tags)
        for cls in tag.by_class:
            self._classes[cls] = tag
        return tag

    def derive(self, datatypes: Mapping[str, Sequence[type]]) -> dict[str, TypeTag]:
        """Register a family of datatypes from dataclass annotations.

        Maps each datatype name to its constructor classes.  Field types
        are read from the class annotations: atoms, classes of any
        datatype in the family (or already in the registry), unions of
        such classes, list[X], tuple[X, ...], tuple[X, Y] and Optional[X].
        """
        tags = {name: self.declare(name) for name in datatypes}
        class_map = dict(self._classes)
        for name, classes in datatypes.items():
            for cls in classes:
                class_map[cls] = tags[name]
        for name, classes in datatypes.items():
            constructors = []
            for cls in classes:
                hints = typing.get_type_hints(cls)
                ftags = tuple(
                    self._resolve(hints[f.name], class_map, f"{name}.{cls.__name__}.{f.name}")
                    for f in dataclasses.fields(cls)
                )
                constructors.append((cls, ftags))
            self.define(tags[name], constructors)
        return tags

    def _resolve(self, hint, class_map, where) -> TypeTag:
        direct = _ATOM_BY_TYPE.get(hint)
        if direct is not None:
            return direct
        if isinstance(hint, type) and hint in class_map:
            return class_map[hint]
        origin = typing.get_origin(hint)
        args = typing.get_args(hint)
        if origin is list and len(args) == 1:
            return list_of(self._resolve(args[0], class_map, where))
        if origin is tuple:
            if len(args) == 2 and args[1] is Ellipsis:
                return list_of(self._resolve(args[0], class_map, where))
            if len(args) == 2:
                return pair_of(
                    self._resolve(args[0], class_map, where),
                    self._resolve(args[1], class_map, where),
                )
            raise UnregisteredType(f"{where}: only pairs and tuple[X, ...] are supported")
        if origin in (typing.Union, types.UnionType):
            members = [a for a in args if a is not type(None)]
            resolved = {self._resolve(a, class_map, where) for a in members}
            if len(resolved) != 1:
                raise UnregisteredType(f"{where}: union members span several datatypes")
            inner = resolved.pop()
            if len(members) != len(args):
                return optional_of(inner)
            return inner
        raise UnregisteredType(f"{where}: cannot resolve annotation {hint!r}")

    def freeze(self) -> None:
        """Refuse further definitions after checking the closure property."""
        _closure(self._by_name.values())
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def tag(self, name: str) -> TypeTag:
        if name not in self._by_name:
            raise UnregisteredType(f"no datatype named {name} in this registry")
        return self._by_name[name]

    def term(self, value, tag: TypeTag | None = None) -> Term:
        """Like the module-level `term`, also inferring node datatypes."""
        if tag is None and type(value) in self._classes:
            tag = self._classes[type(value)]
        return term(value, tag)


def descriptor_lines(tag: TypeTag) -> list[str]:
    """Render a node datatype in the textual descriptor format."""
    # A bare TypeTag has no view yet: reading `by_class` raises UnregisteredType.
    if not isinstance(tag, _NodeTag) and type(tag) is not TypeTag:
        raise TypeError(f"{tag!r} is not an algebraic datatype")
    lines = []
    for con, _ in tag.by_class.values():
        fields = " ".join(ftag.name for ftag in con.field_tags)
        lines.append(f"{tag.name}.{con.name} : {fields}".rstrip())
    return lines


def _parse_field_type(text: str, lookup) -> TypeTag:
    text = text.strip()
    for head, wrap in (("List(", list_of), ("Opt(", optional_of)):
        if text.startswith(head) and text.endswith(")"):
            return wrap(_parse_field_type(text[len(head) : -1], lookup))
    if text.startswith("Pair(") and text.endswith(")"):
        inner = text[len("Pair(") : -1]
        depth = 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                return pair_of(
                    _parse_field_type(inner[:i], lookup),
                    _parse_field_type(inner[i + 1 :], lookup),
                )
        raise ValueError(f"malformed pair type {text!r}")
    return lookup(text)


def register_descriptors(registry: Registry, text: str):
    """Register datatypes from descriptor text, synthesizing dataclasses.

    Each non-blank line reads `TypeName.ConName : FieldType*` where a
    field type is Int, Str, Bool, a datatype name, or List(T), Pair(T,T),
    Opt(T).  Returns the new tags by name and the synthesized constructor
    classes keyed by (type name, constructor name).
    """
    parsed = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        head, sep, fields = line.partition(":")
        if not sep or "." not in head:
            raise ValueError(f"malformed descriptor line {raw!r}")
        tname, _, cname = head.strip().partition(".")
        parsed.append((tname.strip(), cname.strip(), fields.split()))

    tags = {tname: registry.declare(tname) for tname, _, _ in parsed}
    known = {**tags, **{atom.name: atom for atom in _ATOM_BY_TYPE.values()}}

    def lookup(name):
        return known[name] if name in known else registry.tag(name)

    classes = {}
    grouped: dict[str, list] = {}
    for tname, cname, fields in parsed:
        cls = dataclasses.make_dataclass(
            cname, [(f"f{i}", "object") for i in range(len(fields))], frozen=True
        )
        classes[(tname, cname)] = cls
        ftags = tuple(_parse_field_type(f, lookup) for f in fields)
        grouped.setdefault(tname, []).append((cls, ftags))
    for tname, constructors in grouped.items():
        registry.define(tags[tname], constructors)
    return tags, classes
