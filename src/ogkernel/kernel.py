"""The trusted core: Theorem values exist only as outputs of this module.

Five axioms (H1 the two-element set, H2 choice-as-sections, H3 the naturals
support quantification, H4 powerset closure exposed as a unary rule, and the
coherent-limit axiom exposed through `coherent_limit`) plus a small fixed set
of inference rules.  A theorem is the immutable root node of its own trace:
its rule, its judgment, its premises' theorems and its payload.  `_judge` is
the one place that says what a node concludes: every theorem is built through
it, and `verify_trace` replays each node of a theorem's trace through it and
reports the first node that fails.  Each node's facts are derived once:
`trace_set`, `trace_uses` and `_first_failure` memoise its trace, its axiom
uses and its replay from its children's, so theorems that share a node judge
it once.

The kernel owns its carriers: a table is checked by a scan of its rows on
carriers it knows whole, with the tags its own declarations record, and no
operation takes a model.  It imports nothing from the finite-model oracle
(`ogkernel.semantics`), so that agreement between the two is evidence.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import streams
from .terms import (
    NAT,
    TWO,
    BuiltinRule,
    FamilySpec,
    FnExpr,
    GenExpr,
    Ident,
    IsBinFn,
    IsCoherentFamily,
    IsDomain,
    IsGen,
    IsMor,
    IsObj,
    IsSet,
    Judgment,
    Named,
    Nat,
    ObjLit,
    Powerset,
    Product,
    SupportsQuant,
    Table,
    Tag,
    Term,
    Two,
    fn_signature,
    free_names,
    is_numeral,
    render,
    tag_text,
)

__all__ = [
    "AxiomId",
    "RuleId",
    "AXIOM_STATEMENTS",
    "Theorem",
    "Kernel",
    "KernelError",
    "CrossDomainEqualityError",
    "verify_trace",
    "TraceReport",
    "axioms_used",
    "trace_set",
    "trace_uses",
    "leaf_kinds",
    "builtin_premises",
]


class KernelError(Exception):
    """A kernel-side refusal; its message says which check failed."""


class CrossDomainEqualityError(KernelError):
    """Equality queried between objects of different generators.

    This refusal is the point: '=' exists only within a single set.
    """


class AxiomId(str, Enum):
    """A member is also the string of its name, and hashes, compares and joins
    as it; f-strings render it differently across Python versions."""

    H1_TWO_IS_SET = "H1"
    H2_CHOICE = "H2"
    H3_NAT_SUPPORTS_QUANT = "H3"
    H4_POWERSET_QUANT = "H4"
    CLA_COHERENT_LIMIT = "CLA"

    @classmethod
    def from_name(cls, name: str) -> "AxiomId":
        try:
            return _AXIOMS_BY_NAME[name]
        except KeyError:
            raise KernelError(f"unknown axiom: {name!r}") from None


_AXIOMS_BY_NAME = {axiom.value: axiom for axiom in AxiomId}


AXIOM_STATEMENTS: dict[AxiomId, str] = {
    AxiomId.H1_TWO_IS_SET: "there is a 2-element set",
    AxiomId.H2_CHOICE: (
        "the axiom of Choice: every surjection between sets admits a section"
    ),
    AxiomId.H3_NAT_SUPPORTS_QUANT: "the natural numbers support quantification",
    AxiomId.H4_POWERSET_QUANT: (
        "if a logical domain supports quantification then so does its powerset"
    ),
    AxiomId.CLA_COHERENT_LIMIT: (
        "a coherent family of finite-stage binary functions on the naturals "
        "has its union as a genuine binary function"
    ),
}


class RuleId:
    """The labels of rule nodes: plain strings, as a theorem carries them."""

    GEN_INTRO = "gen_intro"
    MOR_INTRO = "mor_intro"
    BIN_FN_FROM_MOR = "bin_fn_from_mor"
    DOMAIN_INTRO = "domain_intro"
    SET_INTRO = "set_intro"
    SQUANT_FROM_POWERSET = "squant_from_powerset"
    COHERENT_LIMIT = "coherent_limit"
    EQ_WITHIN_DOMAIN = "eq_within_domain"


# Rules that *are* axioms in closure form: applications count as axiom uses.
_RULE_AXIOMS = {
    RuleId.SQUANT_FROM_POWERSET: AxiomId.H4_POWERSET_QUANT,
    RuleId.COHERENT_LIMIT: AxiomId.CLA_COHERENT_LIMIT,
}


_SEAL = object()


class Theorem(Term, fields="kind label judgment children payload"):  # kind: axiom | decl | rule
    """A kernel-derived judgment, sealed: the root node of its own trace,
    whose children are its premises' theorems.  Only `_theorem` makes one.
    Theorems compare by identity, so that a premise used twice is counted
    once in a trace."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, seal, kind, label, judgment, children=(), payload=()):
        if seal is not _SEAL:
            raise TypeError("Theorem values are created only by kernel operations")
        return tuple.__new__(cls, (cls.__name__, kind, label, judgment, children, payload))

    @property
    def node(self) -> "Theorem":
        """The theorem itself, as its trace's root node."""
        return self

    @property
    def parts(self) -> tuple["Theorem", ...]:
        """Constituent theorems: an IsSet's IsDomain and SupportsQuant facts
        about the same expression, which are its premises."""
        return self.children if self.label == RuleId.SET_INTRO else ()

    def __repr__(self) -> str:
        return f"|- {render(self.judgment)}"


def _theorem(kind, label, payload=(), premises=()) -> Theorem:
    """Judge a node from its premises and seal it: the one place where a
    theorem is made."""
    premises = tuple(premises)
    if not all(type(p) is Theorem for p in premises):
        raise KernelError("every premise must be a theorem")
    judgment = _judge(kind, label, payload, tuple(p.judgment for p in premises))
    return Theorem(_SEAL, kind, label, judgment, premises, payload)


# ---------------------------------------------------------------------------
# Known carriers: Two and the generators declared with tags, closed under `*`
# and `P[...]`.  An object is named by its tag: `yes`/`no`, a declared tag, a
# pair of tags for a pair, a frozenset of tags for a subset.  The objects are
# listed in the oracle's index order (pairs row by row, subsets by bitmask),
# but no index is formed, so any carrier can be read.

Tags = dict[str, tuple[str, ...]]  # a generator's name -> its declared tags

_TWO_TAGS = ("yes", "no")


def _unknown_part(expr: GenExpr, tags: Tags) -> str | None:
    """What keeps `expr` from being a carrier known whole; None when it is one."""
    if isinstance(expr, Nat):
        return "it mentions Nat, which is infinite"
    if isinstance(expr, Named):
        name = expr.name.text
        return None if tags.get(name) else f"generator {name!r} declares no tags"
    if isinstance(expr, Product):
        return _unknown_part(expr.left, tags) or _unknown_part(expr.right, tags)
    if isinstance(expr, Powerset):
        return _unknown_part(expr.arg, tags)
    return None


def _is_object(expr: GenExpr, tag: Tag, tags: Tags) -> bool:
    """Whether `tag` names an object of `expr`.  Nat is read whole: every
    numeral in ASCII digits without a leading zero names an object."""
    if isinstance(expr, Two):
        return tag in _TWO_TAGS
    if isinstance(expr, Named):
        return tag in tags[expr.name.text]
    if isinstance(expr, Nat):
        return is_numeral(tag)
    if isinstance(expr, Product):
        return (
            type(tag) is tuple and len(tag) == 2
            and _is_object(expr.left, tag[0], tags) and _is_object(expr.right, tag[1], tags)
        )
    return type(tag) is frozenset and all(_is_object(expr.arg, m, tags) for m in tag)


def _first_objects(expr: GenExpr, tags: Tags, count: int) -> list[Tag]:
    """The tags of a known carrier's first `count` objects, or all."""
    if isinstance(expr, Two):
        objects = list(_TWO_TAGS)
    elif isinstance(expr, Named):
        objects = list(tags[expr.name.text])
    elif isinstance(expr, Product):
        right = _first_objects(expr.right, tags, count)
        left = _first_objects(expr.left, tags, -(-count // len(right)))
        objects = [(a, b) for a in left for b in right]
    else:
        # A mask below `count` has its members among count.bit_length() objects.
        base = _first_objects(expr.arg, tags, count.bit_length())
        objects = [
            frozenset(b for j, b in enumerate(base) if k >> j & 1)
            for k in range(min(count, 1 << len(base)))
        ]
    return objects[:count]


# ---------------------------------------------------------------------------
# Rule checkers (used both at construction time and during trace replay)


def _judge(kind: str, label: str, payload: tuple, premises: tuple[Judgment, ...]) -> Judgment:
    """The judgment that a trace node concludes from its payload and its
    premises' judgments; raises unless the node's rule admits them."""
    if type(payload) is not tuple:  # a term is a tuple too, and would match by its items
        raise KernelError(f"no {kind} node {label!r} with this payload")
    match kind, label, payload:
        case "rule", RuleId.MOR_INTRO, (fn, dom, cod, tags):
            return _check_mor(fn, dom, cod, dict(tags), premises)
        case "rule", RuleId.GEN_INTRO, (expr,):
            return _check_gen_formation(expr, premises)
        case "rule", RuleId.BIN_FN_FROM_MOR, ():
            (premise,) = premises
            if not isinstance(premise, IsMor) or premise.cod != TWO:
                raise KernelError(
                    f"bin_fn_from_mor needs a morphism into Two, got {render(premise)}"
                )
            return IsBinFn(premise.fn, premise.dom)
        case "rule", RuleId.DOMAIN_INTRO, ():
            gen_j, eq_j = premises
            return _check_domain(gen_j, eq_j)
        case "rule", RuleId.SET_INTRO, ():
            dom_j, sq_j = premises
            if not isinstance(dom_j, IsDomain):
                raise KernelError(f"set_intro needs a domain premise, got {render(dom_j)}")
            if not isinstance(sq_j, SupportsQuant):
                raise KernelError(
                    f"set_intro needs a supports-quantification premise, got {render(sq_j)}"
                )
            if dom_j.expr != sq_j.expr:
                raise KernelError(
                    f"premises concern different expressions: {render(dom_j.expr)} "
                    f"vs {render(sq_j.expr)}"
                )
            return IsSet(dom_j.expr)
        case "rule", RuleId.SQUANT_FROM_POWERSET, ():
            (premise,) = premises
            if not isinstance(premise, SupportsQuant):
                raise KernelError(
                    f"squant_from_powerset needs SupportsQuant(A), got {render(premise)}"
                )
            return SupportsQuant(Powerset(premise.expr))
        case "rule", RuleId.COHERENT_LIMIT, ():
            (premise,) = premises
            if not isinstance(premise, IsCoherentFamily):
                raise KernelError(
                    f"coherent_limit needs a coherence premise, got {render(premise)}"
                )
            return IsObj(ObjLit(premise.family.descriptor, Powerset(NAT)), Powerset(NAT))
        case "axiom", "H1", ("domain",):
            return IsDomain(TWO, BuiltinRule("eq_of", (TWO,)))
        case "axiom", "H1", ("squant",):
            return SupportsQuant(TWO)
        case "axiom", "H3", ():
            return SupportsQuant(NAT)
        case "axiom", "H2", (surj, dom, cod, tags):
            return _choice_judgment(surj, dom, cod, dict(tags))
        case "decl", "generator", (name, tags):
            repeated = [t for i, t in enumerate(tags) if t in tags[:i]]
            if repeated:
                raise KernelError(f"generator {name!r} lists the tag {repeated[0]!r} twice")
            return IsGen(Named(Ident(name)))
        case "decl", "coherent_family", (family,):
            streams.family_limit(family.descriptor)  # raises CoherenceError unless coherent
            return IsCoherentFamily(family)
    raise KernelError(f"no {kind} node {label!r} with this payload")


def _choice_judgment(surj: FnExpr, dom: GenExpr, cod: GenExpr, tags: Tags) -> Judgment:
    """A section of `surj`, one row per codomain object taking its least preimage."""
    if not isinstance(surj, Table):
        raise KernelError("H2 reads its surjection from the rows of a table")
    _check_mor(surj, dom, cod, tags, ())
    value_at = {key.tag: value.tag for key, value in surj.rows}
    least: dict[Tag, Tag] = {}
    for tag in _first_objects(dom, tags, len(value_at)):  # every object: the table is total
        least.setdefault(value_at[tag], tag)
    targets = _first_objects(cod, tags, len(least) + 1)
    uncovered = next((t for t in targets if t not in least), None)
    if uncovered is not None:
        raise KernelError(f"not surjective: {tag_text(uncovered)!r} is uncovered")
    rows = tuple((ObjLit(t, cod), ObjLit(least[t], dom)) for t in targets)
    return IsMor(Table(cod, dom, rows), cod, dom)


def _required_squants(expr: GenExpr) -> tuple[GenExpr, ...]:
    """Which SupportsQuant premises the builtin equality on `expr` needs."""
    if isinstance(expr, (Two, Nat)):
        return ()
    if isinstance(expr, Product):
        return _required_squants(expr.left) + _required_squants(expr.right)
    if isinstance(expr, Powerset):
        # Extensional equality on P[B] is the detector applied to the
        # symmetric difference, so it needs exactly the detector on B.
        return (expr.arg,)
    raise KernelError(
        f"no builtin equality for {render(expr)}: primitive generators "
        "provide no identity on their objects"
    )


def builtin_premises(fn: BuiltinRule) -> tuple[GenExpr, ...]:
    """The generators whose SupportsQuant a builtin's introduction needs:
    the detector on A needs A's, the equality on A its components' detectors,
    and the stream formers none."""
    if fn.rule == "eq_of":
        return _required_squants(fn.args[0])
    if fn.rule == "empty_detector_of":
        return fn.args
    return ()


def _is_union(fn: FnExpr) -> bool:
    """A family's union is total exactly by CLA: introducing one uses it."""
    return isinstance(fn, BuiltinRule) and fn.rule == "union_of_family"


def _check_mor(
    fn: FnExpr,
    dom: GenExpr,
    cod: GenExpr,
    tags: Tags,
    premises: tuple[Judgment, ...],
) -> Judgment:
    if isinstance(fn, Table):
        if fn.domain != dom or fn.codomain != cod:
            raise KernelError(
                f"table is declared {render(fn.domain)} -> {render(fn.codomain)}, "
                f"not {render(dom)} -> {render(cod)}"
            )
        _check_rows(fn, tags)
    elif isinstance(fn, BuiltinRule):
        if fn.rule == "restrict":
            raise KernelError(
                "restrictions are partial on the naturals; they are family "
                "stages, not total morphisms"
            )
        declared_dom, declared_cod = fn_signature(fn)
        if declared_dom != dom or declared_cod != cod:
            raise KernelError(
                f"builtin {fn.rule} has signature {render(declared_dom)} -> "
                f"{render(declared_cod)}, not {render(dom)} -> {render(cod)}"
            )
        # A catalog stream is total; a family's union is a stream only when
        # the family is coherent.
        if _is_union(fn):
            try:
                streams.family_limit(fn.args[0])
            except streams.CoherenceError as exc:
                raise KernelError(f"union_of_family needs a coherent family: {exc}") from None
        required = tuple(SupportsQuant(b) for b in builtin_premises(fn))
        if premises != required:
            raise KernelError(
                f"builtin {fn.rule} on {render(dom)} requires premises "
                f"[{', '.join(render(r) for r in required)}], got "
                f"[{', '.join(render(p) for p in premises)}]"
            )
    else:
        raise KernelError(f"not a function expression: {fn!r}")
    return IsMor(fn, dom, cod)


def _check_rows(table: Table, tags: Tags) -> None:
    """A row scan on carriers known whole: every key is a domain object and
    every value a codomain object, each written on that carrier, and there is
    a row for each domain object."""
    dom, cod, rows = table.domain, table.codomain, table.rows
    for side, expr in (("domain", dom), ("codomain", cod)):
        unknown = _unknown_part(expr, tags)
        if unknown:
            raise KernelError(
                f"a table's {side} must be a finite carrier known whole, and "
                f"{render(expr)} is not: {unknown}"
            )
    elsewhere = next((row for row in rows if row[0].of != dom or row[1].of != cod), None)
    if elsewhere is not None:
        row = " -> ".join(map(render, elsewhere))
        raise KernelError(f"row {row} is not written on {render(dom)} -> {render(cod)}")
    stray = next((key.tag for key, _ in rows if not _is_object(dom, key.tag, tags)), None)
    if stray is not None:
        raise KernelError(f"row key {tag_text(stray)!r} is not an object of the domain")
    outside = next((value.tag for _, value in rows if not _is_object(cod, value.tag, tags)), None)
    if outside is not None:
        raise KernelError(f"row value {tag_text(outside)!r} is not an object of the codomain")
    # The keys name distinct objects: one is missing iff |dom| > len(rows).
    keys = {key.tag for key, _ in rows}
    missing = next((t for t in _first_objects(dom, tags, len(rows) + 1) if t not in keys), None)
    if missing is not None:
        raise KernelError(f"table has no row for {tag_text(missing)!r}")


def _check_gen_formation(expr: GenExpr, premises: tuple[Judgment, ...]) -> Judgment:
    if isinstance(expr, (Two, Nat)):
        if premises:
            raise KernelError("formation of a builtin generator takes no premises")
        return IsGen(expr)
    if isinstance(expr, Powerset):
        if premises != (IsGen(expr.arg),):
            raise KernelError(f"powerset formation needs Gen({render(expr.arg)})")
        return IsGen(expr)
    if isinstance(expr, Product):
        if premises != (IsGen(expr.left), IsGen(expr.right)):
            raise KernelError("product formation needs both component generators")
        return IsGen(expr)
    raise KernelError(f"cannot form {render(expr)} by formation rules")


def _check_domain(gen_j: Judgment, eq_j: Judgment) -> Judgment:
    if not isinstance(gen_j, IsGen):
        raise KernelError(f"domain_intro needs Gen(A), got {render(gen_j)}")
    if not isinstance(eq_j, IsBinFn):
        raise KernelError(
            f"domain_intro needs a binary function premise, got {render(eq_j)}"
        )
    expr, eq = gen_j.expr, eq_j.fn
    if eq_j.dom != Product(expr, expr):
        raise KernelError(
            f"equality pairing is on {render(eq_j.dom)}, expected "
            f"{render(Product(expr, expr))}"
        )
    if isinstance(eq, Table):
        # The BinFn premise proved each key a pair of objects (x,y): diagonal iff x == y.
        for key, value in eq.rows:
            x, y = key.tag
            expected = "yes" if x == y else "no"
            if value.tag != expected:
                raise KernelError(
                    f"equality pairing on {render(expr)} returns {value.tag!r} at "
                    f"({tag_text(x)!r}, {tag_text(y)!r}), expected {expected!r}"
                )
    elif eq != BuiltinRule("eq_of", (expr,)):  # eq_of rests on its premises alone
        raise KernelError(f"{render(eq)} is not the equality on {render(expr)}")
    return IsDomain(expr, eq)


# ---------------------------------------------------------------------------
# The kernel proper


class Kernel:
    """Holds the declared-name table.

    Theorems, once created, are immutable and freely shareable.
    """

    def __init__(self) -> None:
        self._declared: dict[str, Theorem] = {}
        self._formations: dict[GenExpr, Theorem] = {}

    # -- axioms

    def axiom(self, axiom: AxiomId, params: Sequence = ()) -> Theorem:
        params = tuple(params)
        if axiom in (AxiomId.H1_TWO_IS_SET, AxiomId.H3_NAT_SUPPORTS_QUANT) and params:
            raise KernelError(f"{axiom.value} takes no parameters")
        if axiom is AxiomId.H1_TWO_IS_SET:
            parts = (_theorem("axiom", "H1", ("domain",)), _theorem("axiom", "H1", ("squant",)))
            return _theorem("rule", RuleId.SET_INTRO, (), parts)
        if axiom is AxiomId.H3_NAT_SUPPORTS_QUANT:
            return _theorem("axiom", "H3")
        if axiom is AxiomId.H2_CHOICE:
            if len(params) != 3:
                raise KernelError("H2 takes a surjection description: (fn, dom, cod)")
            return _theorem("axiom", "H2", (*params, self._tags(params[0])))
        if axiom is AxiomId.H4_POWERSET_QUANT:
            raise KernelError(
                "H4 is a closure rule: apply squant_from_powerset to a "
                "SupportsQuant theorem"
            )
        if axiom is AxiomId.CLA_COHERENT_LIMIT:
            raise KernelError(
                "the coherent-limit axiom applies through coherent_limit on a "
                "verified coherent family"
            )
        raise KernelError(f"unknown axiom {axiom!r}")

    # -- generators

    def gen_intro(self, decl: Ident | GenExpr, tags: Sequence[str] = ()) -> Theorem:
        """Declare a fresh primitive generator with the tags of its objects
        (without tags, no table on it is ever checked), or form a composite one."""
        if isinstance(decl, Ident):
            if decl.text in self._declared:
                raise KernelError(f"generator {decl.text!r} is already declared")
            thm = _theorem("decl", "generator", (decl.text, tuple(tags)))
            self._declared[decl.text] = thm
            return thm
        if tags:
            raise KernelError("only a primitive generator declares tags")
        if isinstance(decl, Named):
            thm = self._declared.get(decl.name.text)
            if thm is None:
                raise KernelError(f"generator {decl.name.text!r} is not declared")
            return thm
        if isinstance(decl, GenExpr):
            return self._formation(decl)
        raise KernelError(f"cannot introduce a generator from {decl!r}")

    def _formation(self, expr: GenExpr) -> Theorem:
        cached = self._formations.get(expr)
        if cached is not None:
            return cached
        if isinstance(expr, Named):
            return self.gen_intro(expr)
        if isinstance(expr, (Two, Nat)):
            children: tuple[Theorem, ...] = ()
        elif isinstance(expr, Powerset):
            children = (self._formation(expr.arg),)
        elif isinstance(expr, Product):
            children = (self._formation(expr.left), self._formation(expr.right))
        else:
            raise KernelError(f"cannot form {expr!r}")
        return self._formations.setdefault(
            expr, _theorem("rule", RuleId.GEN_INTRO, (expr,), children)
        )

    def _tags(self, fn: FnExpr) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """The tags this kernel's declarations give the generators a table names."""
        if not isinstance(fn, Table):
            return ()
        names = free_names(fn.domain) | free_names(fn.codomain)
        return tuple(sorted((i.text, self.gen_intro(Named(i)).payload[1]) for i in names))

    # -- morphisms

    def mor_intro(
        self,
        fn: FnExpr,
        dom: GenExpr,
        cod: GenExpr,
        *,
        premises: Sequence[Theorem] = (),
    ) -> Theorem:
        return _theorem("rule", RuleId.MOR_INTRO, (fn, dom, cod, self._tags(fn)), premises)

    def bin_fn_from_mor(self, mor: Theorem) -> Theorem:
        return _theorem("rule", RuleId.BIN_FN_FROM_MOR, premises=(mor,))

    # -- domains and sets

    def domain_intro(self, gen: Theorem, eq: Theorem) -> Theorem:
        return _theorem("rule", RuleId.DOMAIN_INTRO, premises=(gen, eq))

    def set_intro(self, domain: Theorem, squant: Theorem) -> Theorem:
        return _theorem("rule", RuleId.SET_INTRO, premises=(domain, squant))

    def squant_from_powerset(self, squant: Theorem) -> Theorem:
        return _theorem("rule", RuleId.SQUANT_FROM_POWERSET, premises=(squant,))

    # -- coherent limits

    def coherent_family(self, family: FamilySpec) -> Theorem:
        """Certify a catalog family that the descriptor shows to be coherent;
        raises CoherenceError at the first disagreeing stage and index."""
        return _theorem("decl", "coherent_family", (family,))

    def coherent_limit(self, family: Theorem) -> Theorem:
        return _theorem("rule", RuleId.COHERENT_LIMIT, premises=(family,))

    # -- equality queries

    def eq_within_domain(self, domain: Theorem, x: ObjLit, y: ObjLit) -> str:
        """`yes` or `no`: the domain's equality at (x, y), a table's row at the
        pair or whether two tags agree.  Raises KernelError when a
        tag names no object of the domain."""
        dom_j = domain.judgment
        if not isinstance(dom_j, IsDomain):
            raise KernelError(
                f"eq_within_domain needs a domain theorem, got {domain!r}"
            )
        for lit in (x, y):
            if lit.of != dom_j.expr:
                raise CrossDomainEqualityError(
                    f"'=' is only defined within a single set: "
                    f"{render(x.of)} object vs {render(y.of)} object"
                )
        expr, eq, a, b = dom_j.expr, dom_j.eq, x.tag, y.tag
        # A table is total on expr * expr with keys that name objects, so t
        # names an object exactly when (t,t) has a row.
        values = {key.tag: value.tag for key, value in eq.rows} if isinstance(eq, Table) else None
        for t in (a, b):
            if not (_is_object(expr, t, {}) if values is None else (t, t) in values):
                raise KernelError(f"{tag_text(t)!r} is not an object of {render(expr)}")
        return ("yes" if a == b else "no") if values is None else values[(a, b)]


# ---------------------------------------------------------------------------
# Trace replay and inspection


@lru_cache(maxsize=4096)
def trace_set(node: Theorem) -> frozenset[Theorem]:
    """The nodes of a theorem's trace, each node's set made once from its children's."""
    return frozenset((node,)).union(*map(trace_set, node.children))


@lru_cache(maxsize=4096)
def trace_uses(node: Theorem) -> frozenset[tuple[AxiomId, Theorem]]:
    """The axiom uses of a theorem's trace as (axiom, node) pairs, so that a
    shared node counts once, each node's made once from its children's: an
    axiom leaf uses its axiom, a closure rule its axiom, and the introduction
    of a family's union CLA."""
    if node.kind == "axiom":
        use = AxiomId.from_name(node.label)
    elif node.kind == "rule" and node.label == RuleId.MOR_INTRO:
        use = _is_union(node.payload[0]) and AxiomId.CLA_COHERENT_LIMIT
    else:
        use = node.kind == "rule" and _RULE_AXIOMS.get(node.label)
    return frozenset(((use, node),) if use else ()).union(*map(trace_uses, node.children))


def axioms_used(thm: Theorem) -> Counter:
    """Multiset of axiom uses: axiom leaves plus closure-rule applications."""
    return Counter(map(itemgetter(0), trace_uses(thm)))


def leaf_kinds(thm: Theorem) -> set[str]:
    """Leaf classification: axiom names, plus 'declaration' for the rest."""
    return {
        node.label if node.kind == "axiom" else "declaration"
        for node in trace_set(thm)
        if not node.children
    }


class TraceReport(NamedTuple):
    node_count: int
    failure: str | None = None  # names the first node that does not replay

    @property
    def passed(self) -> bool:
        return self.failure is None


def verify_trace(thm: Theorem) -> TraceReport:
    """Replay the trace, premises first: through `_judge`, each node must
    re-derive its judgment from its payload and its children's judgments.
    The report names the first node that does not; it does not raise."""
    return TraceReport(len(trace_set(thm)), _first_failure(thm))


@lru_cache(maxsize=4096)
def _first_failure(node: Theorem) -> str | None:
    """The first failure of `node`'s trace in postorder, each node's made
    once from its children's: a failing node fails every theorem above it."""
    failures = filter(None, map(_first_failure, node.children))
    return next(failures, None) or _replay_failure(node)


def _replay_failure(node: Theorem) -> str | None:
    """Why a node does not re-derive its judgment through `_judge`, or None."""
    premises = tuple(child.judgment for child in node.children)
    try:
        derived = _judge(node.kind, node.label, node.payload, premises)
    except (KernelError, ValueError) as exc:  # a bad arity is a ValueError
        reason = str(exc)
    else:
        if derived == node.judgment:
            return None
        reason = f"replay derives {render(derived)}"
    return f"{node.label} node {render(node.judgment)}: {reason}"
