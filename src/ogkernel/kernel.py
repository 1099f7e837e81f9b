"""The trusted core: Theorem values exist only as outputs of this module.

Five axioms (H1 the two-element set, H2 choice-as-sections, H3 the naturals
support quantification, H4 powerset closure exposed as a unary rule, and the
coherent-limit axiom exposed through `coherent_limit`) plus a small fixed set
of inference rules.  `_judge` is the one place that says what a trace node
concludes: every theorem is built through it, and `verify_trace` replays each
node of a theorem's trace through it and reports the first node that fails.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import NamedTuple, Sequence

from . import streams
from .semantics import (
    NO_VALUE,
    Model,
    NotFinitelyCheckable,
    diagonal_violation,
    fn_holes,
    fn_values,
    interpret,
)
from .terms import (
    NAT,
    TWO,
    BuiltinRule,
    FamilySpec,
    FnExpr,
    FrozenRecord,
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
    Two,
    fn_signature,
    limit_lit,
    render,
)

__all__ = [
    "AxiomId",
    "RuleId",
    "AXIOM_STATEMENTS",
    "Theorem",
    "TraceNode",
    "Kernel",
    "EqQuery",
    "KernelError",
    "SchemaError",
    "NameClashError",
    "PremiseError",
    "TotalityError",
    "CodomainError",
    "CatalogError",
    "EqualityLawError",
    "CrossDomainEqualityError",
    "CounterexampleError",
    "verify_trace",
    "TraceReport",
    "axioms_used",
    "trace_nodes",
    "leaf_kinds",
    "builtin_premises",
]


class KernelError(Exception):
    """Base class for kernel-side refusals."""


class SchemaError(KernelError):
    """An axiom or rule was invoked with the wrong shape of arguments."""


class NameClashError(KernelError):
    """A generator name was declared twice."""


class PremiseError(KernelError):
    """A rule's premises do not have the required judgment forms."""


class TotalityError(KernelError):
    """A table morphism is not total over its domain carrier."""


class CodomainError(KernelError):
    """A table row mentions an object outside the declared carriers."""


class CatalogError(KernelError):
    """A builtin rule was requested outside its catalog entry."""


class EqualityLawError(KernelError):
    """A claimed equality pairing does not flag exactly the diagonal."""


class CrossDomainEqualityError(KernelError):
    """Equality queried between objects of different generators.

    This refusal is the point: '=' exists only within a single set.
    """


class CounterexampleError(KernelError):
    """A choice instance failed: the map is not surjective in the model."""

    def __init__(self, message: str, model: Model, uncovered: str):
        super().__init__(message)
        self.model = model
        self.uncovered = uncovered


class AxiomId(Enum):
    H1_TWO_IS_SET = "H1"
    H2_CHOICE = "H2"
    H3_NAT_SUPPORTS_QUANT = "H3"
    H4_POWERSET_QUANT = "H4"
    CLA_COHERENT_LIMIT = "CLA"

    @classmethod
    def from_name(cls, name: str) -> "AxiomId":
        for member in cls:
            if member.value == name:
                return member
        raise SchemaError(f"unknown axiom: {name!r}")


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


class RuleId(Enum):
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


class TraceNode(FrozenRecord):
    """One derivation step.  Nodes compare by identity so that shared
    premises (the same Theorem used twice) are counted once in a trace."""

    __slots__ = ("kind", "label", "judgment", "children", "payload")  # kind: axiom | decl | rule
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, kind: str, label: str, judgment: Judgment, children=(), payload=()):
        self._init(kind=kind, label=label, judgment=judgment, children=children, payload=payload)


_SEAL = object()


class Theorem:
    """A sealed witness of a kernel-derived judgment: its trace's root node."""

    __slots__ = ("_node", "_parts")

    def __init__(self, node, parts=(), *, _token=None):
        if _token is not _SEAL:
            raise TypeError("Theorem values are created only by kernel operations")
        self._node = node
        self._parts = tuple(parts)

    @property
    def judgment(self) -> Judgment:
        return self._node.judgment

    @property
    def node(self) -> TraceNode:
        return self._node

    @property
    def parts(self) -> tuple["Theorem", ...]:
        """Constituent theorems (an IsSet carries its IsDomain and
        SupportsQuant facts about the same expression)."""
        return self._parts

    def __repr__(self) -> str:
        return f"|- {render(self.judgment)}"


def _theorem(kind, label, payload=(), premises=(), parts=()) -> Theorem:
    """Judge a node from its premises and seal it: the one place where a
    trace node is made."""
    judgment = _judge(kind, label, payload, tuple(p.judgment for p in premises))
    node = TraceNode(kind, label, judgment, tuple(p.node for p in premises), payload)
    return Theorem(node, parts, _token=_SEAL)


class EqQuery(NamedTuple):
    """A well-formed within-domain equality question, evaluable in models."""

    domain: Theorem
    left: ObjLit
    right: ObjLit

    def evaluate(self, model: Model) -> str:
        dom_judgment = self.domain.judgment
        assert isinstance(dom_judgment, IsDomain)
        expr = dom_judgment.expr
        lits = (self.left, self.right)
        if isinstance(expr, Nat):
            # A numeral is an object of Nat whatever the truncation bound:
            # widen the bound to cover the numerals asked about.
            numerals = [int(lit.tag) for lit in lits if lit.tag.isdecimal()]
            model = Model(model.assignments, max([model.nat_bound or 0, *numerals]))
        try:
            carrier = interpret(expr, model)
            i, j = codes = [carrier.index(lit.tag) for lit in lits]
            if None in codes:
                tag = lits[codes.index(None)].tag
                raise KernelError(f"{tag!r} is not an object of {carrier.name} in this model")
            eq = dom_judgment.eq
            if isinstance(eq, BuiltinRule) and eq.rule == "eq_of":
                return "yes" if i == j else "no"  # one pair: the square is not built
            value = fn_values(eq, model)[i * len(carrier) + j]
        except NotFinitelyCheckable as exc:
            raise KernelError(f"cannot evaluate this equality: {exc}") from exc
        if value < 0:
            raise KernelError("equality pairing has no value at this pair")
        return interpret(TWO, model).tag(value)


# ---------------------------------------------------------------------------
# Rule checkers (used both at construction time and during trace replay)


def _judge(kind: str, label: str, payload: tuple, premises: tuple[Judgment, ...]) -> Judgment:
    """The judgment that a trace node concludes from its payload and its
    premises' judgments; raises unless the node's rule admits them."""
    match kind, label, payload:
        case "rule", _, _:
            return _check_rule(RuleId(label), payload, premises)
        case "axiom", "H1", ("domain",):
            return IsDomain(TWO, BuiltinRule("eq_of", (TWO,)))
        case "axiom", "H1", ("squant",):
            return SupportsQuant(TWO)
        case "axiom", "H3", ():
            return SupportsQuant(NAT)
        case "axiom", "H2", (surj, dom, cod, model):
            return _choice_judgment(surj, dom, cod, model)
        case "decl", "generator", (name,):
            return IsGen(Named(Ident(name)))
        case "decl", "coherent_family", (family,):
            streams.family_limit(family.descriptor)  # raises CoherenceError unless coherent
            return IsCoherentFamily(family)
    raise SchemaError(f"no {kind} node {label!r} with this payload")


def _choice_judgment(surj: FnExpr, dom: GenExpr, cod: GenExpr, model: Model) -> Judgment:
    _check_mor(surj, dom, cod, model, ())
    dom_carrier = interpret(dom, model)
    cod_carrier = interpret(cod, model)
    values = fn_values(surj, model)
    section_rows = []
    for target in range(len(cod_carrier)):
        tag = cod_carrier.tag(target)
        if target not in values:
            raise CounterexampleError(
                f"not surjective in {model.describe()}: {tag!r} is uncovered",
                model=model,
                uncovered=tag,
            )
        section_rows.append((ObjLit(tag, cod), ObjLit(dom_carrier.tag(values.index(target)), dom)))
    section = Table(cod, dom, tuple(section_rows))
    return IsMor(section, cod, dom)


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
    raise CatalogError(
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
    model: Model | None,
    premises: tuple[Judgment, ...],
) -> Judgment:
    if isinstance(fn, Table):
        if fn.domain != dom or fn.codomain != cod:
            raise PremiseError(
                f"table is declared {render(fn.domain)} -> {render(fn.codomain)}, "
                f"not {render(dom)} -> {render(cod)}"
            )
        if model is None:
            raise TotalityError(
                "a finite model is required to check totality of a table"
            )
        try:
            dom_carrier = interpret(dom, model)
            values = fn_values(fn, model)
        except NotFinitelyCheckable as exc:
            raise TotalityError(f"cannot check totality: {exc}") from exc
        # Row keys are distinct, so a row missing from the encoding names no object.
        holes, outside = fn_holes(fn, model)
        if len(values) - holes < len(fn.rows):
            stray = next(k.tag for k, _ in fn.rows if dom_carrier.index(k.tag) is None)
            raise CodomainError(f"row key {stray!r} is not an object of the domain")
        if holes or outside:
            bad = next(i for i, v in enumerate(values) if v < 0)
            tag = dom_carrier.tag(bad)
            if values[bad] == NO_VALUE:
                raise TotalityError(f"table has no row for {tag!r}")
            value = next(v.tag for k, v in fn.rows if k.tag == tag)
            raise CodomainError(f"row value {value!r} is not an object of the codomain")
    elif isinstance(fn, BuiltinRule):
        if fn.rule == "restrict":
            raise CatalogError(
                "restrictions are partial on the naturals; they are family "
                "stages, not total morphisms"
            )
        declared_dom, declared_cod = fn_signature(fn)
        if declared_dom != dom or declared_cod != cod:
            raise CatalogError(
                f"builtin {fn.rule} has signature {render(declared_dom)} -> "
                f"{render(declared_cod)}, not {render(dom)} -> {render(cod)}"
            )
        # Totality is a catalog guarantee once the spec resolves; a union
        # resolves to a stream only for a coherent family.
        if _is_union(fn):
            try:
                streams.family_limit(fn.args[0])
            except streams.CoherenceError as exc:
                raise CatalogError(f"union_of_family needs a coherent family: {exc}") from None
        elif fn.rule == "indicator_stream":
            streams.parse_stream_spec(fn.args[0])
        required = tuple(SupportsQuant(b) for b in builtin_premises(fn))
        if premises != required:
            raise PremiseError(
                f"builtin {fn.rule} on {render(dom)} requires premises "
                f"[{', '.join(render(r) for r in required)}], got "
                f"[{', '.join(render(p) for p in premises)}]"
            )
    else:
        raise SchemaError(f"not a function expression: {fn!r}")
    return IsMor(fn, dom, cod)


def _check_rule(rule: RuleId, payload: tuple, premises: tuple[Judgment, ...]) -> Judgment:
    if rule is RuleId.GEN_INTRO:
        (expr,) = payload
        return _check_gen_formation(expr, premises)
    if rule is RuleId.MOR_INTRO:
        fn, dom, cod, model = payload
        return _check_mor(fn, dom, cod, model, premises)
    if rule is RuleId.BIN_FN_FROM_MOR:
        (premise,) = premises
        if not isinstance(premise, IsMor) or premise.cod != TWO:
            raise PremiseError(
                f"bin_fn_from_mor needs a morphism into Two, got {render(premise)}"
            )
        return IsBinFn(premise.fn, premise.dom)
    if rule is RuleId.DOMAIN_INTRO:
        gen_j, eq_j = premises
        (models,) = payload
        return _check_domain(gen_j, eq_j, models)
    if rule is RuleId.SET_INTRO:
        dom_j, sq_j = premises
        if not isinstance(dom_j, IsDomain):
            raise PremiseError(f"set_intro needs a domain premise, got {render(dom_j)}")
        if not isinstance(sq_j, SupportsQuant):
            raise PremiseError(
                f"set_intro needs a supports-quantification premise, got {render(sq_j)}"
            )
        if dom_j.expr != sq_j.expr:
            raise PremiseError(
                f"premises concern different expressions: {render(dom_j.expr)} "
                f"vs {render(sq_j.expr)}"
            )
        return IsSet(dom_j.expr)
    if rule is RuleId.SQUANT_FROM_POWERSET:
        (premise,) = premises
        if not isinstance(premise, SupportsQuant):
            raise PremiseError(
                f"squant_from_powerset needs SupportsQuant(A), got {render(premise)}"
            )
        return SupportsQuant(Powerset(premise.expr))
    if rule is RuleId.COHERENT_LIMIT:
        (premise,) = premises
        if not isinstance(premise, IsCoherentFamily):
            raise PremiseError(
                f"coherent_limit needs a coherence premise, got {render(premise)}"
            )
        return IsObj(limit_lit(premise.family.descriptor), Powerset(NAT))
    raise SchemaError(f"rule {rule.value} is not derivable this way")


def _check_gen_formation(expr: GenExpr, premises: tuple[Judgment, ...]) -> Judgment:
    if isinstance(expr, (Two, Nat)):
        if premises:
            raise PremiseError("formation of a builtin generator takes no premises")
        return IsGen(expr)
    if isinstance(expr, Powerset):
        if premises != (IsGen(expr.arg),):
            raise PremiseError(f"powerset formation needs Gen({render(expr.arg)})")
        return IsGen(expr)
    if isinstance(expr, Product):
        if premises != (IsGen(expr.left), IsGen(expr.right)):
            raise PremiseError("product formation needs both component generators")
        return IsGen(expr)
    raise PremiseError(f"cannot form {render(expr)} by formation rules")


def _check_domain(
    gen_j: Judgment, eq_j: Judgment, models: tuple[Model, ...]
) -> Judgment:
    if not isinstance(gen_j, IsGen):
        raise PremiseError(f"domain_intro needs Gen(A), got {render(gen_j)}")
    if not isinstance(eq_j, IsBinFn):
        raise PremiseError(
            f"domain_intro needs a binary function premise, got {render(eq_j)}"
        )
    expr = gen_j.expr
    if eq_j.dom != Product(expr, expr):
        raise PremiseError(
            f"equality pairing is on {render(eq_j.dom)}, expected "
            f"{render(Product(expr, expr))}"
        )
    if not models:
        raise PremiseError("domain_intro needs at least one evidence model")
    for model in models:
        try:
            violation = diagonal_violation(eq_j.fn, expr, model)
        except NotFinitelyCheckable as exc:
            raise PremiseError(f"evidence model cannot interpret {render(expr)}: {exc}")
        if violation is not None:
            x, y, got, expected = violation
            raise EqualityLawError(
                f"equality pairing on {render(expr)} returns {got!r} at "
                f"({x!r}, {y!r}) in {model.describe()}, expected {expected!r}"
            )
    return IsDomain(expr, eq_j.fn)


# ---------------------------------------------------------------------------
# The kernel proper


class Kernel:
    """Holds the declared-name table.

    Theorems, once created, are immutable and freely shareable.
    """

    def __init__(self) -> None:
        self._declared: dict[str, Theorem] = {}
        self._formations: dict[GenExpr, Theorem] = {}

    def _derive(self, rule: RuleId, premises: Sequence[Theorem], payload: tuple = ()) -> Theorem:
        """Apply `rule` to `premises`: the one path by which a rule's
        conclusion becomes a theorem.  A set keeps its premises as parts."""
        parts = premises if rule is RuleId.SET_INTRO else ()
        return _theorem("rule", rule.value, payload, premises, parts)

    # -- axioms

    def axiom(self, axiom: AxiomId, params: Sequence = (), model: Model | None = None) -> Theorem:
        params = tuple(params)
        if axiom is AxiomId.H1_TWO_IS_SET:
            if params:
                raise SchemaError("H1 takes no parameters")
            parts = (_theorem("axiom", "H1", ("domain",)), _theorem("axiom", "H1", ("squant",)))
            return self._derive(RuleId.SET_INTRO, parts)
        if axiom is AxiomId.H3_NAT_SUPPORTS_QUANT:
            if params:
                raise SchemaError("H3 takes no parameters")
            return _theorem("axiom", axiom.value)
        if axiom is AxiomId.H2_CHOICE:
            if len(params) != 3:
                raise SchemaError("H2 takes a surjection description: (fn, dom, cod)")
            if model is None:
                raise SchemaError("H2 needs a finite model to check surjectivity")
            return _theorem("axiom", axiom.value, (*params, model))
        if axiom is AxiomId.H4_POWERSET_QUANT:
            raise SchemaError(
                "H4 is a closure rule: apply squant_from_powerset to a "
                "SupportsQuant theorem"
            )
        if axiom is AxiomId.CLA_COHERENT_LIMIT:
            raise SchemaError(
                "the coherent-limit axiom applies through coherent_limit on a "
                "verified coherent family"
            )
        raise SchemaError(f"unknown axiom {axiom!r}")

    # -- generators

    def gen_intro(self, decl: Ident | GenExpr) -> Theorem:
        """Declare a fresh primitive generator, or form a composite one."""
        if isinstance(decl, Ident):
            if decl.text in self._declared:
                raise NameClashError(f"generator {decl.text!r} is already declared")
            thm = _theorem("decl", "generator", (decl.text,))
            self._declared[decl.text] = thm
            return thm
        if isinstance(decl, Named):
            thm = self._declared.get(decl.name.text)
            if thm is None:
                raise PremiseError(f"generator {decl.name.text!r} is not declared")
            return thm
        if isinstance(decl, GenExpr):
            return self._formation(decl)
        raise SchemaError(f"cannot introduce a generator from {decl!r}")

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
            raise SchemaError(f"cannot form {expr!r}")
        return self._formations.setdefault(
            expr, self._derive(RuleId.GEN_INTRO, children, (expr,))
        )

    # -- morphisms

    def mor_intro(
        self,
        fn: FnExpr,
        dom: GenExpr,
        cod: GenExpr,
        *,
        model: Model | None = None,
        premises: Sequence[Theorem] = (),
    ) -> Theorem:
        return self._derive(RuleId.MOR_INTRO, premises, (fn, dom, cod, model))

    def bin_fn_from_mor(self, mor: Theorem) -> Theorem:
        return self._derive(RuleId.BIN_FN_FROM_MOR, (mor,))

    # -- domains and sets

    def domain_intro(
        self, gen: Theorem, eq: Theorem, models: Sequence[Model]
    ) -> Theorem:
        return self._derive(RuleId.DOMAIN_INTRO, (gen, eq), (tuple(models),))

    def set_intro(self, domain: Theorem, squant: Theorem) -> Theorem:
        return self._derive(RuleId.SET_INTRO, (domain, squant))

    def squant_from_powerset(self, squant: Theorem) -> Theorem:
        return self._derive(RuleId.SQUANT_FROM_POWERSET, (squant,))

    # -- coherent limits

    def coherent_family(self, family: FamilySpec) -> Theorem:
        """Certify a catalog family that the descriptor shows to be coherent;
        raises CoherenceError at the first disagreeing stage and index."""
        return _theorem("decl", "coherent_family", (family,))

    def coherent_limit(self, family: Theorem) -> Theorem:
        return self._derive(RuleId.COHERENT_LIMIT, (family,))

    # -- equality queries

    def eq_within_domain(self, domain: Theorem, x: ObjLit, y: ObjLit) -> EqQuery:
        dom_j = domain.judgment
        if not isinstance(dom_j, IsDomain):
            raise PremiseError(
                f"eq_within_domain needs a domain theorem, got {domain!r}"
            )
        for lit in (x, y):
            if lit.of != dom_j.expr:
                raise CrossDomainEqualityError(
                    f"'=' is only defined within a single set: "
                    f"{render(x.of)} object vs {render(y.of)} object"
                )
        return EqQuery(domain, x, y)


# ---------------------------------------------------------------------------
# Trace replay and inspection


def trace_nodes(thm: Theorem) -> list[TraceNode]:
    """All trace nodes in postorder, shared subtrees visited once."""
    seen: set[int] = set()
    out: list[TraceNode] = []

    def walk(node: TraceNode) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node.children:
            walk(child)
        out.append(node)

    walk(thm.node)
    return out


def axioms_used(thm: Theorem) -> Counter:
    """Multiset of axiom uses: axiom leaves plus closure-rule applications."""
    uses: Counter = Counter()
    for node in trace_nodes(thm):
        if node.kind == "axiom":
            uses[AxiomId.from_name(node.label)] += 1
        elif node.kind == "rule":
            rule = RuleId(node.label)
            if rule in _RULE_AXIOMS:
                uses[_RULE_AXIOMS[rule]] += 1
            elif rule is RuleId.MOR_INTRO and _is_union(node.payload[0]):
                uses[AxiomId.CLA_COHERENT_LIMIT] += 1
    return uses


def leaf_kinds(thm: Theorem) -> set[str]:
    """Leaf classification: axiom names, plus 'declaration' for the rest."""
    kinds = set()
    for node in trace_nodes(thm):
        if node.children:
            continue
        kinds.add(node.label if node.kind == "axiom" else "declaration")
    return kinds


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
    nodes = trace_nodes(thm)
    for node in nodes:
        premises = tuple(child.judgment for child in node.children)
        try:
            derived = _judge(node.kind, node.label, node.payload, premises)
        except (KernelError, ValueError) as exc:  # a bad arity or label is a ValueError
            reason = str(exc)
        else:
            if derived == node.judgment:
                continue
            reason = f"replay derives {render(derived)}"
        return TraceReport(len(nodes), f"{node.label} node {render(node.judgment)}: {reason}")
    return TraceReport(len(nodes))
