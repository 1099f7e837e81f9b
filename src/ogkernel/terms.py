"""Immutable syntax trees: generator expressions, function expressions, judgments.

Every term and judgment is a `Term`, the tuple of its class name and its
fields, so equality and `hash` are the tuple's own and run in C.  The name tag
keeps terms of different classes apart and hashes alike in every run.  A term
carries no source span: only a surface declaration keeps one, as its last
field.  The same layout gives the one walk over a term's
subterms: `collect_names` finds the generator names and whether Nat occurs,
which is all a finite model needs to know of a judgment (`free_names` and
`mentions_nat` read one of the two).  `render` produces the surface syntax
that `ogkernel.surface.parse_gen_expr` and friends read back.  The one other
piece of logic is the builtin catalog: each former's argument kinds (enforced
when a `BuiltinRule` is built) and its signature (`fn_signature`).

Records outside the term language follow the same rule: a record is a `Term`
when its class must take part in equality (the stream catalog, a carrier, a
verdict, a surface declaration) or no field may ever change (a kernel
theorem, which compares by identity), and a `typing.NamedTuple`, like `Span`,
otherwise.
"""

from __future__ import annotations

import re
from functools import lru_cache
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
    "ObjLit",
    "limit_lit",
    "limit_descriptor",
    "is_numeral",
    "FnExpr",
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
    "FamilySpec",
    "render",
    "collect_names",
    "free_names",
    "mentions_nat",
    "split_pair_tag",
    "split_top_level",
    "tag_members",
]


class Span(NamedTuple):
    """Source location: 1-based line/column plus byte offsets."""

    line: int
    col: int
    start: int
    end: int


class Term(tuple):
    """A record that takes part in equality: the tuple of its class name and
    its fields.  A subclass names its fields in its class statement, as
    `Product(GenExpr, fields="left right")` does; each field is a read-only
    item getter.  A subclass sets `__slots__ = ()` and holds nothing else,
    but for `semantics.Carrier`, which keeps its tag codes in its `__dict__`.
    No attribute can be assigned, and copying or pickling is refused: the
    tuple's own `__reduce_ex__` would rebuild another record."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: str = "") -> None:
        cls._fields = tuple(fields.split())
        for i, name in enumerate(cls._fields, 1):
            setattr(cls, name, property(itemgetter(i)))

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


def is_numeral(tag: str) -> bool:
    """Whether `tag` is a numeral, the tag of an object of Nat: ASCII digits
    without a leading zero."""
    return _NUMERAL_RE.match(tag) is not None


class ObjLit(Term, fields="tag of"):
    """A tagged constant naming one object of a carrier.

    Tags for the builtin carriers: ``yes``/``no`` for Two, decimal numerals
    for Nat, ``(a,b)`` pair tags for products, ``{...}`` member-list tags
    for powersets, and ``limit(<family descriptor>)`` for coherent limits.
    """

    __slots__ = ()

    def __new__(cls, tag: str, of: GenExpr):
        if not tag:
            raise ValueError("object literal tag must be nonempty")
        return tuple.__new__(cls, (cls.__name__, tag, of))


def limit_lit(descriptor: str) -> ObjLit:
    """The object of P[Nat] that the coherent limit of a family names."""
    return ObjLit(f"limit({descriptor})", Powerset(NAT))


def limit_descriptor(tag: str) -> str | None:
    """The family descriptor of a `limit(...)` tag; None for other tags."""
    if tag.startswith("limit(") and tag.endswith(")"):
        return tag[6:-1]
    return None


class FnExpr(Term):
    """Base class for function expressions (finite tables or builtin rules)."""

    __slots__ = ()


class Table(FnExpr, fields="domain codomain rows"):
    __slots__ = ()

    def __new__(cls, domain: GenExpr, codomain: GenExpr, rows: tuple[tuple[ObjLit, ObjLit], ...]):
        seen = set()
        for key, _ in rows:
            if key.tag in seen:
                raise ValueError(f"duplicate table row for {key.tag!r}")
            seen.add(key.tag)
        return tuple.__new__(cls, (cls.__name__, domain, codomain, rows))


BuiltinArg = Union[GenExpr, str, int]

# What each argument kind admits.  A spec string is a stream or family
# descriptor; it holds no quote or newline, so it renders as a string literal.
_ARG_KINDS = {
    "generator expression": lambda a: isinstance(a, GenExpr),
    "spec string": lambda a: isinstance(a, str) and '"' not in a and "\n" not in a,
    "natural number": lambda a: type(a) is int and a >= 0,
}

# The catalog of function formers: each rule's argument kinds, in order.
BUILTIN_RULES: dict[str, tuple[str, ...]] = {
    "eq_of": ("generator expression",),
    "empty_detector_of": ("generator expression",),
    "indicator_stream": ("spec string",),
    "union_of_family": ("spec string",),
    "restrict": ("spec string", "natural number"),
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
# Families (stage n: a stream's bits at 0..n) for the coherent-limit lab


class FamilySpec(Term, fields="name descriptor"):
    """A coherent-family description drawn from the stream catalog.

    The descriptor grammar and its coherence decision are owned by
    `ogkernel.streams` (`resolve_family` and `family_limit`):
    ``restrictions(<stream spec>)`` or ``corrupt(<stream spec>,<stage>,<index>)``.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Judgments (the expressions are GenExprs; fn and eq are FnExprs)


class Judgment(Term):
    """Base class for the judgment forms the kernel can assert."""

    __slots__ = ()


class IsGen(Judgment, fields="expr"):
    __slots__ = ()


class IsObj(Judgment, fields="obj expr"):
    __slots__ = ()


class IsMor(Judgment, fields="fn dom cod"):
    __slots__ = ()


class IsBinFn(Judgment, fields="fn dom"):
    """Definitionally IsMor(fn, dom, Two); see kernel rule bin_fn_from_mor."""

    __slots__ = ()


class IsDomain(Judgment, fields="expr eq"):
    __slots__ = ()


class SupportsQuant(Judgment, fields="expr"):
    __slots__ = ()


class IsSet(Judgment, fields="expr"):
    __slots__ = ()


class IsCoherentFamily(Judgment, fields="family"):
    __slots__ = ()


# ---------------------------------------------------------------------------
# Operations

_TermLike = Union[GenExpr, FnExpr, Judgment, ObjLit]


def collect_names(x: tuple, names: set[Ident]) -> bool:
    """Add every Named ident in `x` to `names`; whether Nat occurs in `x`.

    `x` is a term, a judgment or a plain tuple of them, such as a table's
    rows.  The walk follows the tuple layout: the fields of a `Term` are its
    items after the class name, and every item of a plain tuple is walked.
    """
    if isinstance(x, Named):
        names.add(x.name)
        return False
    nat = isinstance(x, Nat)
    for item in x[1:] if isinstance(x, Term) else x:
        if isinstance(item, tuple) and collect_names(item, names):
            nat = True
    return nat


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
def render(x: _TermLike) -> str:
    """The surface syntax of `x`; memoised, as a report names one judgment in
    several items (its assertion, its trace, its sweep)."""
    if isinstance(x, GenExpr):
        return _render_gen(x)
    if isinstance(x, FnExpr):
        return _render_fn(x)
    if isinstance(x, ObjLit):
        return _render_obj(x.tag, x.of)
    if isinstance(x, Judgment):
        return _render_judgment(x)
    raise TypeError(f"cannot render {type(x).__name__}")


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


def _render_obj(tag: str, of: GenExpr) -> str:
    if isinstance(of, Product):
        try:
            left_tag, right_tag = split_pair_tag(tag)
        except ValueError:
            pass  # a non-pair tag on a product carrier: dotted form below
        else:
            left = _render_obj(left_tag, of.left)
            right = _render_obj(right_tag, of.right)
            return f"({left}, {right})"
    if _IDENT_RE.match(tag) or is_numeral(tag):
        return f"{_render_gen_atom(of)}.{tag}"
    return f'{_render_gen_atom(of)}."{tag}"'


_BRACKETS = frozenset("(){}")
_DELIMITER_RE = re.compile(r"[(){},]")


def split_top_level(body: str) -> list[str]:
    """Split `body` at the commas outside any parentheses or braces; a
    closing bracket without its opener is a ValueError."""
    if _BRACKETS.isdisjoint(body):
        return body.split(",")
    parts, depth, start = [], 0, 0
    for m in _DELIMITER_RE.finditer(body):
        ch = m[0]
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {body!r}")
        elif depth == 0:
            parts.append(body[start : m.start()])
            start = m.end()
    parts.append(body[start:])
    return parts


def split_pair_tag(tag: str) -> tuple[str, str]:
    """Split a product tag ``(a,b)`` into its two component tags.

    Components may themselves contain parenthesized or braced tags.
    """
    parts = split_top_level(tag[1:-1]) if tag[:1] == "(" and tag[-1:] == ")" else []
    if len(parts) != 2:
        raise ValueError(f"not a pair tag: {tag!r}")
    return parts[0], parts[1]


def tag_members(tag: str) -> tuple[str, ...]:
    """The member tags of a powerset object tag `{a,b,...}`."""
    if not (tag.startswith("{") and tag.endswith("}")):
        raise ValueError(f"not a powerset tag: {tag!r}")
    return tuple(split_top_level(tag[1:-1])) if tag != "{}" else ()


def _render_builtin_arg(a: BuiltinArg) -> str:
    if isinstance(a, GenExpr):
        return _render_gen(a)
    return f'"{a}"' if isinstance(a, str) else str(a)


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
    raise TypeError(f"unknown FnExpr: {f!r}")


def _render_judgment(j: Judgment) -> str:
    if isinstance(j, IsGen):
        return f"Gen({_render_gen(j.expr)})"
    if isinstance(j, IsObj):
        return f"Obj({_render_obj(j.obj.tag, j.obj.of)}, {_render_gen(j.expr)})"
    if isinstance(j, IsMor):
        return f"Mor({_render_fn(j.fn)}, {_render_gen(j.dom)}, {_render_gen(j.cod)})"
    if isinstance(j, IsBinFn):
        return f"BinFn({_render_fn(j.fn)}, {_render_gen(j.dom)})"
    if isinstance(j, IsDomain):
        return f"Domain({_render_gen(j.expr)}, {_render_fn(j.eq)})"
    if isinstance(j, SupportsQuant):
        return f"SupportsQuant({_render_gen(j.expr)})"
    if isinstance(j, IsSet):
        return f"Set({_render_gen(j.expr)})"
    if isinstance(j, IsCoherentFamily):
        return f'Coherent({j.family.name.text}, "{j.family.descriptor}")'
    raise TypeError(f"unknown Judgment: {j!r}")
