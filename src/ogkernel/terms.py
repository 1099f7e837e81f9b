"""Immutable syntax trees: generator expressions, function expressions, judgments.

Every term and judgment is a `Term`, the tuple of its class name and its
fields, so equality and `hash` are the tuple's own and run in C.  The name tag
keeps terms of different classes apart and hashes alike in every run.  A term
carries no source span: only a surface declaration keeps one, as its last
field.  The same layout gives the one walk over a term's
subterms: `collect_names` finds the generator names and whether Nat occurs,
which is all a finite model needs to know of a judgment (`free_names` and
`mentions_nat` read one of the two).  `render` is the one printer of the
surface syntax: `ogkernel.surface.parse_source` reads back each term and
judgment it writes, with the scope references that the parser leaves to
elaboration (`LimitRef`, `MorphismRef`, `EqQuery`).  An object tag
is a value (see `ObjLit`) that only `tag_text` writes as text, and a catalog
stream or family descriptor a term (`BitStream`, `Family`) that only its `str`
writes as spec text: nothing here parses text.  The one other piece of logic
is the builtin catalog: each former's argument kinds (enforced when a
`BuiltinRule` is built) and its signature (`fn_signature`).

Records outside the term language follow the same rule: a record is a `Term`
when its class must take part in equality (a carrier, a verdict, a surface
declaration) or no field may ever change (a kernel theorem, which compares by
identity), and a `typing.NamedTuple`, like `Span`, otherwise.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Union

__all__ = [
    "Span",
    "Term",
    "Ident",
    "GenExpr",
    "Two",
    "Nat",
    "Named",
    "Product",
    "Powerset",
    "TWO",
    "NAT",
    "Tag",
    "ObjLit",
    "is_tag",
    "is_numeral",
    "tag_text",
    "LimitRef",
    "FnExpr",
    "MorphismRef",
    "Table",
    "BuiltinRule",
    "BUILTIN_RULES",
    "fn_signature",
    "Judgment",
    "IsGen",
    "IsObj",
    "IsMor",
    "IsBinFn",
    "IsDomain",
    "SupportsQuant",
    "IsSet",
    "IsCoherentFamily",
    "EqQuery",
    "SIGNATURES",
    "BitStream",
    "Family",
    "FamilySpec",
    "render",
    "collect_names",
    "term_names",
    "free_names",
    "mentions_nat",
]


class Span(NamedTuple):
    """Source location: 1-based line/column plus byte offsets."""

    line: int
    col: int
    start: int
    end: int


# Each judgment form, and the Eq query, as the surface writes it: its head, then
# the sort of each argument, as its class statement declares them.
# `ogkernel.surface` parses a judgment by this table and `render` prints one.
# A "gen" argument is a generator expression, "fn" a function (a `table` takes
# its signature from the other arguments), "obj" an object literal or
# `limit(F)`, "lit" an object literal, and "name" and "family" a family's name
# and its quoted descriptor.
SIGNATURES: dict[type, tuple[str, tuple[str, ...]]] = {}


class Term(tuple):
    """A record that takes part in equality: the tuple of its class name and
    its fields.  A subclass names its fields in its class statement, as
    `Product(GenExpr, fields="left right")` does; each field is a read-only
    item getter.  A judgment form also names its head and sorts there (see
    SIGNATURES).  A subclass sets `__slots__ = ()` and holds nothing else,
    but for `semantics.Carrier`, which keeps its tag codes in its `__dict__`.
    No attribute can be assigned, and copying or pickling is refused: the
    tuple's own `__reduce_ex__` would rebuild another record."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: str = "", head: str = "", sorts: str = "") -> None:
        cls._fields = tuple(fields.split())
        for i, name in enumerate(cls._fields, 1):
            setattr(cls, name, property(itemgetter(i)))
        if head:
            SIGNATURES[cls] = (head, tuple(sorts.split()))

    def __new__(cls, *fields: object):
        if len(fields) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(fields)}")
        return tuple.__new__(cls, (cls.__name__, *fields))

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce_ex__(self, protocol: object):
        raise TypeError(f"cannot copy or pickle a {type(self).__name__}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self[1:]))
        return f"{type(self).__name__}({shown})"


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class Ident(Term, fields="text"):
    """A name: a letter, then letters, digits and underscores."""

    __slots__ = ()

    def __new__(cls, text: str):
        if not _IDENT_RE.match(text):
            raise ValueError(f"invalid identifier: {text!r}")
        return tuple.__new__(cls, (cls.__name__, text))

    def __str__(self) -> str:
        return self.text


# ---------------------------------------------------------------------------
# Generator expressions


class GenExpr(Term):
    """Base class for generator expressions."""

    __slots__ = ()


class Two(GenExpr):
    """The fixed two-object generator (objects `yes` and `no`)."""

    __slots__ = ()


class Nat(GenExpr):
    """The natural numbers, with numeral objects."""

    __slots__ = ()


class Named(GenExpr, fields="name"):
    __slots__ = ()


class Product(GenExpr, fields="left right"):
    __slots__ = ()


class Powerset(GenExpr, fields="arg"):
    __slots__ = ()


TWO = Two()
NAT = Nat()


# ---------------------------------------------------------------------------
# Object literals and function expressions

_NUMERAL_RE = re.compile(r"(0|[1-9][0-9]*)\Z")
_NOT_IN_ATOM = frozenset('(){},"\n')  # a pair or set, or the end of a string literal

Tag = Union[str, tuple, frozenset, "Family"]  # an object tag: see `ObjLit`


def is_numeral(tag: Tag) -> bool:
    """Whether `tag` is a numeral, the tag of an object of Nat: ASCII digits
    without a leading zero."""
    return type(tag) is str and _NUMERAL_RE.match(tag) is not None


def is_tag(tag: object) -> bool:
    """Whether `tag` is an object tag (see `ObjLit`) at every depth.  An atom
    is nonempty text with no bracket, comma, quote or newline, so a pair or
    set splits back apart."""
    if type(tag) is str:
        return tag != "" and _NOT_IN_ATOM.isdisjoint(tag)
    if type(tag) is tuple:
        return len(tag) == 2 and is_tag(tag[0]) and is_tag(tag[1])
    return type(tag) is Family or type(tag) is frozenset and all(map(is_tag, tag))


def tag_text(tag: Tag) -> str:
    """The one writing of an object tag as text: ``(a,b)`` for a pair,
    ``limit(<descriptor>)`` for a family and ``{a,c}`` for a set, its members
    sorted as text."""
    if type(tag) is str:
        return tag
    if type(tag) is tuple:
        return f"({tag_text(tag[0])},{tag_text(tag[1])})"
    if type(tag) is Family:
        return f"limit({tag})"
    return "{" + ",".join(sorted(map(tag_text, tag))) + "}"


class ObjLit(Term, fields="tag of"):
    """A tagged constant naming one object of a carrier.

    Its tag is an atom, a nonempty string (``yes``, a numeral or a declared
    tag); a pair of tags, for a product object; a frozenset of tags, for a
    powerset object; or a `Family`, for the object of P[Nat] that its coherent
    limit names.  Any other tag (see `is_tag`) is a ValueError, so `render`
    writes back every tag an `ObjLit` holds.
    """

    __slots__ = ()

    def __new__(cls, tag: Tag, of: GenExpr):
        if not (type(tag) is str and _NOT_IN_ATOM.isdisjoint(tag) and tag or is_tag(tag)):
            raise ValueError(f"not an object tag: {tag!r}")
        return tuple.__new__(cls, (cls.__name__, tag, of))


class LimitRef(Term, fields="name"):
    """`limit(name)`, the limit of a coherent family, before elaboration looks it up."""

    __slots__ = ()


class FnExpr(Term):
    """Base class for function expressions (finite tables or builtin rules)."""

    __slots__ = ()


class MorphismRef(FnExpr, fields="name"):
    """A morphism's name as a function, before elaboration looks it up."""

    __slots__ = ()


class Table(FnExpr, fields="domain codomain rows"):
    __slots__ = ()

    def __new__(cls, domain: GenExpr, codomain: GenExpr, rows: tuple[tuple[ObjLit, ObjLit], ...]):
        seen = set()
        for key, _ in rows:
            if key.tag in seen:
                raise ValueError(f"duplicate table row for {tag_text(key.tag)!r}")
            seen.add(key.tag)
        return tuple.__new__(cls, (cls.__name__, domain, codomain, rows))


BuiltinArg = Union[GenExpr, "BitStream", "Family", int]

# What each argument kind admits.
_ARG_KINDS = {
    "generator expression": lambda a: isinstance(a, GenExpr),
    "stream": lambda a: isinstance(a, BitStream),
    "family": lambda a: type(a) is Family,
    "natural number": lambda a: type(a) is int and a >= 0,
}

# The catalog of function formers: each rule's argument kinds, in order.
BUILTIN_RULES: dict[str, tuple[str, ...]] = {
    "eq_of": ("generator expression",),
    "empty_detector_of": ("generator expression",),
    "indicator_stream": ("stream",),
    "union_of_family": ("family",),
    "restrict": ("stream", "natural number"),
}


class BuiltinRule(FnExpr, fields="rule args"):
    """A catalogued function former, its arguments of the kinds that
    BUILTIN_RULES lists; any other former is a ValueError."""

    __slots__ = ()

    def __new__(cls, rule: str, args: tuple[BuiltinArg, ...] = ()):
        kinds = BUILTIN_RULES.get(rule)
        if kinds is None:
            known = ", ".join(sorted(BUILTIN_RULES))
            raise ValueError(f"unknown builtin rule {rule!r} (known: {known})")
        if len(args) != len(kinds) or not all(_ARG_KINDS[k](a) for k, a in zip(kinds, args)):
            raise ValueError(f"builtin {rule} takes [{', '.join(kinds)}]")
        return tuple.__new__(cls, (cls.__name__, rule, args))


def fn_signature(fn: FnExpr) -> tuple[GenExpr, GenExpr]:
    """The declared (domain, codomain) of a function expression."""
    if isinstance(fn, Table):
        return fn.domain, fn.codomain
    if fn.rule == "eq_of":
        return Product(fn.args[0], fn.args[0]), TWO
    if fn.rule == "empty_detector_of":
        return Powerset(fn.args[0]), TWO
    return NAT, TWO  # the stream formers: indicator, restriction, union


# ---------------------------------------------------------------------------
# Streams and families (stage n: a stream's bits at 0..n) for the coherent-limit lab


class BitStream(Term):
    """A catalog stream of `ogkernel.streams`: a bit at every natural number.
    Its `str` is its spec, the one canonical text of it that the surface
    reads back: the class's `spec` format filled with its fields, a tuple of
    bits written as its digits."""

    __slots__ = ()
    spec = ""

    def __str__(self) -> str:
        fields = ("".join(map(str, f)) if type(f) is tuple else f for f in self[1:])
        return self.spec.format(*fields)


class Family(Term, fields="base corruption"):
    """A family descriptor: the restrictions of the stream `base`, written
    ``restrictions(<spec>)``, or with `corruption` (stage, index) the family
    whose stages from `stage` on flip the bit at `index`, written
    ``corrupt(<spec>,<stage>,<index>)``; `ogkernel.streams` resolves it."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.corruption is None:
            return f"restrictions({self.base})"
        return "corrupt({},{},{})".format(self.base, *self.corruption)


class FamilySpec(Term, fields="name descriptor"):
    """A named family, its descriptor a `Family`: any other is a ValueError."""

    __slots__ = ()

    def __new__(cls, name: Ident, descriptor: Family):
        if type(descriptor) is not Family:
            raise ValueError(f"not a family descriptor: {descriptor!r}")
        return tuple.__new__(cls, (cls.__name__, name, descriptor))


# ---------------------------------------------------------------------------
# Judgments (the expressions are GenExprs; fn and eq are FnExprs)


class Judgment(Term):
    """Base class for the judgment forms the kernel can assert."""

    __slots__ = ()


class IsGen(Judgment, fields="expr", head="Gen", sorts="gen"):
    __slots__ = ()


class IsObj(Judgment, fields="obj expr", head="Obj", sorts="obj gen"):
    __slots__ = ()


class IsMor(Judgment, fields="fn dom cod", head="Mor", sorts="fn gen gen"):
    __slots__ = ()


class IsBinFn(Judgment, fields="fn dom", head="BinFn", sorts="fn gen"):
    """Definitionally IsMor(fn, dom, Two); see kernel rule bin_fn_from_mor."""

    __slots__ = ()


class IsDomain(Judgment, fields="expr eq", head="Domain", sorts="gen fn"):
    __slots__ = ()


class SupportsQuant(Judgment, fields="expr", head="SupportsQuant", sorts="gen"):
    __slots__ = ()


class IsSet(Judgment, fields="expr", head="Set", sorts="gen"):
    __slots__ = ()


class IsCoherentFamily(Judgment, fields="family", head="Coherent", sorts="name family"):
    __slots__ = ()


class EqQuery(Term, fields="left right", head="Eq", sorts="lit lit"):
    """`Eq(left, right)`: whether two objects of one domain are equal, a
    query that elaboration evaluates, not a judgment the kernel asserts."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Operations


def collect_names(x: tuple, names: set[Ident]) -> bool:
    """Add every Named ident in `x` to `names`; whether Nat occurs in `x`.

    `x` is a term, a judgment or a plain tuple of them, such as a table's
    rows.  The walk follows the tuple layout: the fields of a `Term` are its
    items after the class name, and every item of a plain tuple is walked.
    """
    found, nat = term_names(x) if isinstance(x, Term) else _items_names(x)
    names.update(found)
    return nat


@lru_cache(maxsize=4096)
def term_names(x: Term) -> tuple[frozenset[Ident], bool]:
    """`collect_names` of a term, walked once per term.  A table's names are
    those of its signature and of the distinct carriers its literals name: a
    tag names no generator."""
    if type(x) is Named:
        return frozenset((x.name,)), False
    if type(x) is Table:
        return _items_names({x.domain, x.codomain, *map(itemgetter(2), chain(*x.rows))})
    found, nat = _items_names(x[1:])
    return found, nat or type(x) is Nat


def _items_names(items) -> tuple[frozenset[Ident], bool]:
    """The names and Nat of the tuples among `items`, each term's read from `term_names`."""
    parts = [term_names(i) if isinstance(i, Term) else _items_names(i)
             for i in items if isinstance(i, tuple)]
    return frozenset().union(*map(itemgetter(0), parts)), any(map(itemgetter(1), parts))


def free_names(x: tuple) -> set[Ident]:
    """The set of Named idents occurring anywhere in `x`."""
    names: set[Ident] = set()
    collect_names(x, names)
    return names


def mentions_nat(x: tuple) -> bool:
    """Whether Nat occurs anywhere in `x`."""
    return collect_names(x, set())


# ---------------------------------------------------------------------------
# Rendering (targets the surface grammar; parse(render(x)) == x)


@lru_cache(maxsize=4096)
def render(x: Term) -> str:
    """The surface syntax of `x`; memoised, as a report names one judgment in
    several items (its assertion, its trace, its sweep)."""
    if isinstance(x, GenExpr):
        return _render_gen(x)
    if isinstance(x, FnExpr):
        return _render_fn(x)
    if isinstance(x, ObjLit):
        return _render_obj(x.tag, x.of)
    if isinstance(x, LimitRef):
        return f"limit({x.name})"
    if isinstance(x, IsCoherentFamily):
        return f'Coherent({x.family.name}, "{x.family.descriptor}")'
    if type(x) in SIGNATURES:
        return f"{SIGNATURES[type(x)][0]}({', '.join(map(render, x[1:]))})"
    raise TypeError(f"cannot render {type(x).__name__}")


@lru_cache(maxsize=4096)  # a judgment's `render` prints its subexpressions
def _render_gen(e: GenExpr) -> str:
    if isinstance(e, Two):
        return "Two"
    if isinstance(e, Nat):
        return "Nat"
    if isinstance(e, Named):
        return e.name.text
    if isinstance(e, Powerset):
        return f"P[{_render_gen(e.arg)}]"
    if isinstance(e, Product):
        # `*` is left-associative: parenthesize a product in right position.
        left = _render_gen(e.left)
        right = _render_gen(e.right)
        if isinstance(e.right, Product):
            right = f"({right})"
        return f"{left} * {right}"
    raise TypeError(f"unknown GenExpr: {e!r}")


def _render_gen_atom(e: GenExpr) -> str:
    text = _render_gen(e)
    return f"({text})" if isinstance(e, Product) else text


def _render_obj(tag: Tag, of: GenExpr) -> str:
    if type(tag) is tuple and isinstance(of, Product):
        return f"({_render_obj(tag[0], of.left)}, {_render_obj(tag[1], of.right)})"
    if type(tag) is str and (_IDENT_RE.match(tag) or is_numeral(tag)):
        return f"{_render_gen_atom(of)}.{tag}"
    return f'{_render_gen_atom(of)}."{tag_text(tag)}"'


def _render_builtin_arg(a: BuiltinArg) -> str:
    if isinstance(a, GenExpr):
        return _render_gen(a)
    return str(a) if type(a) is int else f'"{a}"'


def _render_fn(f: FnExpr) -> str:
    if isinstance(f, BuiltinRule):
        args = ", ".join(_render_builtin_arg(a) for a in f.args)
        return f"{f.rule}[{args}]"
    if isinstance(f, Table):
        rows = ", ".join(
            f"{_render_obj(k.tag, k.of)} -> {_render_obj(v.tag, v.of)}" for k, v in f.rows
        )
        body = f"{{ {rows} }}" if rows else "{ }"
        return f"table {body}"
    if isinstance(f, MorphismRef):
        return f.name.text
    raise TypeError(f"unknown FnExpr: {f!r}")
