"""Brute-force finite semantics: the independent oracle for kernel output.

A Model assigns finite carriers to named generators and (optionally) a
truncation bound for the naturals.  Judgments are evaluated by exhaustive
enumeration; anything that would require unbounded quantification comes
back as `not-finitely-checkable` rather than a silent overclaim.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from . import streams
from .terms import (
    TWO,
    BuiltinRule,
    FnExpr,
    GenExpr,
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
    Powerset,
    Product,
    SupportsQuant,
    Table,
    Two,
    render,
    split_pair_tag,
)

__all__ = [
    "Carrier",
    "Model",
    "Verdict",
    "HOLDS",
    "FAILS",
    "NOT_FINITELY_CHECKABLE",
    "InterpretationError",
    "NotFinitelyCheckable",
    "interpret",
    "interpret_fn",
    "fn_signature",
    "verify_judgment",
    "verify_axiom_instances",
    "AxiomCheck",
    "soundness_sweep",
    "SweepItem",
    "SweepReport",
    "models_for_judgment",
    "default_model",
    "mentions_nat",
    "tag_members",
]

HOLDS = "holds"
FAILS = "fails"
NOT_FINITELY_CHECKABLE = "not-finitely-checkable"

# Powerset carriers with more than 2**16 objects are never materialized.
MAX_POWERSET_BASE = 16

# Family coherence is scanned through stage max(32, m + 1), m the largest
# integer argument of the descriptor, so the scan passes every stage and index
# the descriptor names; a scan beyond the cap is not finitely checkable.
COHERENCE_SCAN_MIN = 32
COHERENCE_SCAN_CAP = 1024


class InterpretationError(ValueError):
    """An expression mentions a name the model does not assign."""


class NotFinitelyCheckable(Exception):
    """The question cannot be settled by finite enumeration at these bounds."""


@dataclass(frozen=True)
class Carrier:
    """A finite carrier: canonically ordered, pairwise distinct object tags."""

    name: str
    objects: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise ValueError(f"carrier {self.name!r} has duplicate tags")

    def __len__(self) -> int:
        return len(self.objects)


TWO_CARRIER = Carrier("Two", ("yes", "no"))


@dataclass(frozen=True)
class Model:
    """Carriers for named generators plus an optional bound for Nat.

    Two is always the fixed yes/no carrier; Product and Powerset are
    interpreted structurally and never assigned directly.
    """

    assignments: tuple[tuple[str, Carrier], ...] = ()
    nat_bound: int | None = None

    @classmethod
    def make(
        cls, assignments: Mapping[str, Carrier] | None = None, nat_bound: int | None = None
    ) -> "Model":
        items = tuple(sorted((assignments or {}).items()))
        return cls(items, nat_bound)

    def carrier_for(self, name: str) -> Carrier | None:
        for key, carrier in self.assignments:
            if key == name:
                return carrier
        return None

    @property
    def truncated(self) -> bool:
        return self.nat_bound is not None

    def describe(self) -> str:
        parts = [f"{name}:{len(carrier)}" for name, carrier in self.assignments]
        if self.nat_bound is not None:
            parts.append(f"nat<=:{self.nat_bound}")
        return "model(" + ", ".join(parts) + ")" if parts else "model()"


def default_model(nat_bound: int = 3) -> Model:
    return Model.make({}, nat_bound=nat_bound)


# ---------------------------------------------------------------------------
# Interpretation


@lru_cache(maxsize=4096)
def interpret(expr: GenExpr, model: Model) -> Carrier:
    """The carrier of `expr` in `model`, with deterministic object order.

    Powerset objects are member-list tags `{a,c}` enumerated in subset-mask
    order, so index 0 is always the empty (all-no) function.
    """
    if isinstance(expr, Two):
        return TWO_CARRIER
    if isinstance(expr, Nat):
        if model.nat_bound is None:
            raise NotFinitelyCheckable("Nat has no truncation bound in this model")
        tags = tuple(str(i) for i in range(model.nat_bound + 1))
        return Carrier("Nat", tags)
    if isinstance(expr, Named):
        carrier = model.carrier_for(expr.name.text)
        if carrier is None:
            raise InterpretationError(f"no carrier assigned to {expr.name.text!r}")
        return carrier
    if isinstance(expr, Product):
        left = interpret(expr.left, model)
        right = interpret(expr.right, model)
        tags = tuple(f"({a},{b})" for a in left.objects for b in right.objects)
        return Carrier(f"({left.name} x {right.name})", tags)
    if isinstance(expr, Powerset):
        base = interpret(expr.arg, model)
        if len(base) > MAX_POWERSET_BASE:
            raise NotFinitelyCheckable(
                f"powerset of a {len(base)}-object carrier exceeds the "
                f"enumeration cap (base size {MAX_POWERSET_BASE})"
            )
        tags = tuple(
            "{" + ",".join(t for j, t in enumerate(base.objects) if mask >> j & 1) + "}"
            for mask in range(1 << len(base))
        )
        return Carrier(f"P[{base.name}]", tags)
    raise TypeError(f"cannot interpret {expr!r}")


def tag_members(tag: str) -> tuple[str, ...]:
    """The member tags of a powerset object tag `{a,b,...}`."""
    if not (tag.startswith("{") and tag.endswith("}")):
        raise ValueError(f"not a powerset tag: {tag!r}")
    body = tag[1:-1]
    if not body:
        return ()
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return tuple(parts)


def fn_signature(fn: FnExpr) -> tuple[GenExpr, GenExpr]:
    """The declared (domain, codomain) of a function expression."""
    if isinstance(fn, Table):
        return fn.domain, fn.codomain
    if isinstance(fn, BuiltinRule):
        if fn.rule == "eq_of":
            (arg,) = fn.args
            return Product(arg, arg), TWO
        if fn.rule == "empty_detector_of":
            (arg,) = fn.args
            return Powerset(arg), TWO
        if fn.rule in ("indicator_stream", "restrict", "union_of_family"):
            return Nat(), TWO
    raise TypeError(f"cannot determine signature of {fn!r}")


def _fn_value(fn: FnExpr, model: Model, tag: str) -> str | None:
    """Evaluate `fn` at one domain tag; None when the tag has no row."""
    if isinstance(fn, Table):
        for key, val in fn.rows:
            if key.tag == tag:
                return val.tag
        return None
    assert isinstance(fn, BuiltinRule)
    if fn.rule == "eq_of":
        left, right = split_pair_tag(tag)
        return "yes" if left == right else "no"
    if fn.rule == "empty_detector_of":
        return "yes" if tag == "{}" else "no"
    if fn.rule == "indicator_stream":
        (spec,) = fn.args
        stream = streams.parse_stream_spec(str(spec))
        return "yes" if stream.value_at(int(tag)) else "no"
    if fn.rule == "restrict":
        spec, upper = fn.args
        if int(tag) > int(upper):
            return None
        stream = streams.parse_stream_spec(str(spec))
        return "yes" if stream.value_at(int(tag)) else "no"
    if fn.rule == "union_of_family":
        (descriptor,) = fn.args
        union = streams.union_limit(streams.resolve_family(str(descriptor)))
        return "yes" if union.value_at(int(tag)) else "no"
    raise TypeError(f"cannot evaluate {fn!r}")


def interpret_fn(fn: FnExpr, model: Model) -> dict[str, str]:
    """Materialize `fn` as a tag-to-tag table over its interpreted domain."""
    dom, _ = fn_signature(fn)
    carrier = interpret(dom, model)
    table = {}
    for tag in carrier.objects:
        value = _fn_value(fn, model, tag)
        if value is not None:
            table[tag] = value
    return table


# ---------------------------------------------------------------------------
# Judgment evaluation


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: str = ""
    witness: tuple[tuple[str, str], ...] | None = None
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.status == FAILS and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _witness(**kwargs: str) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(kwargs.items()))


def mentions_nat(x: object) -> bool:
    if isinstance(x, Nat):
        return True
    if isinstance(x, Product):
        return mentions_nat(x.left) or mentions_nat(x.right)
    if isinstance(x, Powerset):
        return mentions_nat(x.arg)
    if isinstance(x, Table):
        return mentions_nat(x.domain) or mentions_nat(x.codomain)
    if isinstance(x, BuiltinRule):
        return any(mentions_nat(a) for a in x.args if isinstance(a, (GenExpr, FnExpr)))
    if isinstance(x, Judgment):
        return any(mentions_nat(e) for e in judgment_exprs(x))
    return False


def judgment_exprs(j: Judgment) -> tuple[GenExpr | FnExpr, ...]:
    if isinstance(j, IsGen):
        return (j.expr,)
    if isinstance(j, IsObj):
        return (j.obj.of, j.expr)
    if isinstance(j, IsMor):
        return (j.fn, j.dom, j.cod)
    if isinstance(j, IsBinFn):
        return (j.fn, j.dom)
    if isinstance(j, IsDomain):
        return (j.expr, j.eq)
    if isinstance(j, (SupportsQuant, IsSet)):
        return (j.expr,)
    if isinstance(j, IsCoherentFamily):
        return ()
    raise TypeError(f"unknown judgment: {j!r}")


def verify_judgment(j: Judgment, model: Model) -> Verdict:
    """Exhaustively evaluate one judgment in one model."""
    try:
        return _verify(j, model)
    except NotFinitelyCheckable as exc:
        return Verdict(NOT_FINITELY_CHECKABLE, detail=str(exc))


def _truncated(j: Judgment, model: Model) -> bool:
    return model.truncated and mentions_nat(j)


def _verify(j: Judgment, model: Model) -> Verdict:
    trunc = _truncated(j, model)
    if isinstance(j, IsGen):
        carrier = interpret(j.expr, model)
        return Verdict(HOLDS, detail=f"{len(carrier)} objects", truncated=trunc)
    if isinstance(j, IsObj):
        return _verify_obj(j, model, trunc)
    if isinstance(j, IsMor):
        return _verify_mor(j.fn, j.dom, j.cod, model, trunc)
    if isinstance(j, IsBinFn):
        return _verify_mor(j.fn, j.dom, TWO, model, trunc)
    if isinstance(j, IsDomain):
        return _verify_domain(j, model, trunc)
    if isinstance(j, SupportsQuant):
        return _verify_squant(j.expr, model, trunc)
    if isinstance(j, IsSet):
        sq = _verify_squant(j.expr, model, trunc)
        if sq.status != HOLDS:
            return sq
        # A finite carrier always admits the diagonal equality pairing, so
        # set-hood reduces to supporting quantification.
        return Verdict(HOLDS, detail=f"diagonal equality exists; {sq.detail}", truncated=trunc)
    if isinstance(j, IsCoherentFamily):
        return _verify_coherence(j.family.descriptor)
    raise TypeError(f"cannot verify {j!r}")


def _verify_obj(j: IsObj, model: Model, trunc: bool) -> Verdict:
    tag = j.obj.tag
    if isinstance(j.expr, Nat) and tag.isdigit():
        detail = "numeral"
        if model.nat_bound is not None and int(tag) > model.nat_bound:
            detail = f"numeral beyond truncation bound {model.nat_bound}"
        return Verdict(HOLDS, detail=detail, truncated=trunc)
    if tag.startswith("limit(") and tag.endswith(")") and j.expr == Powerset(NAT_EXPR):
        return _verify_coherence(tag[len("limit(") : -1], trunc)
    carrier = interpret(j.expr, model)
    if tag in carrier.objects:
        return Verdict(HOLDS, truncated=trunc)
    return Verdict(
        FAILS,
        detail=f"{tag!r} is not an object of {carrier.name}",
        witness=_witness(tag=tag, carrier=carrier.name),
        truncated=trunc,
    )


def _verify_mor(
    fn: FnExpr, dom: GenExpr, cod: GenExpr, model: Model, trunc: bool
) -> Verdict:
    try:
        declared_dom, declared_cod = fn_signature(fn)
    except TypeError:
        return Verdict(FAILS, detail="no signature", witness=_witness(fn=render(fn)))
    if declared_dom != dom or declared_cod != cod:
        return Verdict(
            FAILS,
            detail="declared signature does not match",
            witness=_witness(
                declared=f"{render(declared_dom)} -> {render(declared_cod)}",
                expected=f"{render(dom)} -> {render(cod)}",
            ),
            truncated=trunc,
        )
    if isinstance(fn, BuiltinRule) and fn.rule == "union_of_family":
        coherence = _verify_coherence(str(fn.args[0]), trunc)
        if not coherence.holds:
            return coherence
    dom_carrier = interpret(dom, model)
    cod_carrier = interpret(cod, model)
    if isinstance(fn, Table):
        # A table names its objects; in a model whose carrier differs the
        # judgment is not interpretable rather than false.
        if {key.tag for key, _ in fn.rows} != set(dom_carrier.objects):
            raise NotFinitelyCheckable(
                f"table objects do not match the carrier of {dom_carrier.name}"
            )
    cod_tags = set(cod_carrier.objects)
    for tag in dom_carrier.objects:
        value = _fn_value(fn, model, tag)
        if value is None:
            return Verdict(
                FAILS,
                detail=f"not total: no value at {tag!r}",
                witness=_witness(missing=tag),
                truncated=trunc,
            )
        if value not in cod_tags:
            return Verdict(
                FAILS,
                detail=f"value at {tag!r} is outside the codomain",
                witness=_witness(at=tag, got=value),
                truncated=trunc,
            )
    return Verdict(HOLDS, detail=f"total on {len(dom_carrier)} objects", truncated=trunc)


def _verify_domain(j: IsDomain, model: Model, trunc: bool) -> Verdict:
    mor = _verify_mor(j.eq, Product(j.expr, j.expr), TWO, model, trunc)
    if mor.status != HOLDS:
        return mor
    carrier = interpret(j.expr, model)
    for x in carrier.objects:
        for y in carrier.objects:
            got = _fn_value(j.eq, model, f"({x},{y})")
            expected = "yes" if x == y else "no"
            if got != expected:
                return Verdict(
                    FAILS,
                    detail="equality pairing does not flag exactly the same-object pairs",
                    witness=_witness(x=x, y=y, got=str(got), expected=expected),
                    truncated=trunc,
                )
    return Verdict(HOLDS, detail=f"diagonal law on {len(carrier)}^2 pairs", truncated=trunc)


def _verify_squant(expr: GenExpr, model: Model, trunc: bool) -> Verdict:
    power = interpret(Powerset(expr), model)
    # The canonical detector flags index 0; verify its law over the whole
    # powerset carrier.
    for i, tag in enumerate(power.objects):
        if (i == 0) != (tag == "{}"):
            return Verdict(
                FAILS,
                detail="canonical detector law violated",
                witness=_witness(index=str(i), tag=tag),
                truncated=trunc,
            )
    return Verdict(
        HOLDS,
        detail=f"canonical detector verified on {len(power)} tables",
        truncated=trunc,
    )


def _verify_coherence(descriptor: str, trunc: bool = False) -> Verdict:
    """Scan a family's stages for one that does not restrict to its
    predecessor.  Independent of the kernel's rule on descriptors: it only
    resolves the stages and compares them."""
    member_at = streams.resolve_family(descriptor)
    last = max(
        [COHERENCE_SCAN_MIN, *(int(m) + 1 for m in re.findall(r",\s*(\d+)", descriptor))]
    )
    if last > COHERENCE_SCAN_CAP:
        raise NotFinitelyCheckable(
            f"coherence of {descriptor!r} needs stages 0..{last}, beyond the "
            f"scan cap of {COHERENCE_SCAN_CAP}"
        )
    result = streams.is_coherent([member_at(n) for n in range(last + 1)])
    if not result.ok:
        return Verdict(
            FAILS,
            detail=f"stage {result.violation} disagrees with its predecessor",
            witness=_witness(stage=str(result.violation)),
            truncated=trunc,
        )
    return Verdict(HOLDS, detail=f"coherent on stages 0..{last}", truncated=trunc)


NAT_EXPR = Nat()


# ---------------------------------------------------------------------------
# Model enumeration and the soundness sweep

_TAG_ALPHABET = "abcdefgh"


def models_for_judgment(j: Judgment, max_size: int) -> list[Model]:
    """Canonical model enumeration: sizes ascending, lexicographic tags.

    Named generators get carriers of every size 1..max_size; when the
    judgment mentions Nat, the truncation bound sweeps carrier sizes
    1..max_size as well.
    """
    names = sorted(
        {ident.text for e in judgment_exprs(j) for ident in _expr_names(e)}
    )
    nat_bounds: list[int | None]
    if mentions_nat(j):
        nat_bounds = list(range(max_size))
    else:
        nat_bounds = [None]
    models = []
    size_choices = itertools.product(range(1, max_size + 1), repeat=len(names))
    for sizes in size_choices:
        assignments = {
            name: Carrier(name, tuple(_TAG_ALPHABET[:size]))
            for name, size in zip(names, sizes)
        }
        for bound in nat_bounds:
            models.append(Model.make(assignments, nat_bound=bound))
    return models


def _expr_names(e: GenExpr | FnExpr):
    from .terms import free_names

    return free_names(e)


@dataclass(frozen=True)
class SweepItem:
    judgment: str
    model: str
    status: str
    detail: str = ""
    witness: tuple[tuple[str, str], ...] | None = None
    truncated: bool = False


@dataclass(frozen=True)
class SweepReport:
    items: tuple[SweepItem, ...]
    checked: int
    holds: int
    fails: int
    not_checkable: int

    @property
    def failures(self) -> tuple[SweepItem, ...]:
        return tuple(item for item in self.items if item.status == FAILS)


def soundness_sweep(theorems: Sequence, max_size: int = 3) -> SweepReport:
    """Verify every finitely checkable theorem in every canonical model.

    Each (theorem, model) pair is an independent read-only check; results
    are reported in canonical order.  `theorems` only needs `.judgment`.
    """
    if max_size > 4:
        raise ValueError("soundness sweeps are bounded at carrier size 4")
    items: list[SweepItem] = []
    holds = fails = nfc = 0
    for thm in theorems:
        j = thm.judgment
        for model in models_for_judgment(j, max_size):
            verdict = verify_judgment(j, model)
            if verdict.status == HOLDS:
                holds += 1
            elif verdict.status == FAILS:
                fails += 1
            else:
                nfc += 1
            items.append(
                SweepItem(
                    judgment=render(j),
                    model=model.describe(),
                    status=verdict.status,
                    detail=verdict.detail,
                    witness=verdict.witness,
                    truncated=verdict.truncated,
                )
            )
    return SweepReport(
        items=tuple(items),
        checked=len(items),
        holds=holds,
        fails=fails,
        not_checkable=nfc,
    )


# ---------------------------------------------------------------------------
# Axiom instance checks


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    status: str  # holds | fails | assumed
    detail: str
    witness: tuple[tuple[str, str], ...] | None = None


def _checked_carriers(model: Model) -> list[tuple[GenExpr, Carrier]]:
    out: list[tuple[GenExpr, Carrier]] = [(TWO, TWO_CARRIER)]
    if model.nat_bound is not None:
        out.append((NAT_EXPR, interpret(NAT_EXPR, model)))
    for name, carrier in model.assignments:
        out.append((Named(_ident(name)), carrier))
    return out


def _ident(name: str):
    from .terms import Ident

    return Ident(name)


def _detector_law(power: Carrier, base_size: int) -> tuple[tuple[str, str], ...] | None:
    """None when the canonical detector law holds on `power`, else a witness."""
    if len(power) != 1 << base_size:
        return _witness(
            expected=str(1 << base_size), got=str(len(power)), carrier=power.name
        )
    empties = [i for i, tag in enumerate(power.objects) if tag == "{}"]
    if empties != [0]:
        return _witness(carrier=power.name, empties=str(empties))
    return None


def verify_axiom_instances(model: Model, _interpret=interpret) -> list[AxiomCheck]:
    """Check H1/H2/H4 instances exhaustively at small bounds; H3 is assumed.

    `_interpret` exists so tests can inject a corrupted interpretation and
    confirm the checks actually detect structural damage.
    """
    checks: list[AxiomCheck] = []
    carriers = _checked_carriers(model)

    # H1: there is a 2-element set.
    two = _interpret(TWO, model)
    witness = None
    if len(two) != 2:
        witness = _witness(carrier=two.name, size=str(len(two)))
    else:
        witness = _detector_law(_interpret(Powerset(TWO), model), 2)
    checks.append(
        AxiomCheck(
            "H1",
            FAILS if witness else HOLDS,
            "a fixed two-object carrier with diagonal equality and empty-detector",
            witness,
        )
    )

    # H2: every surjection between checked carriers admits a section.
    surjections = 0
    h2_witness = None
    for _, dom in carriers:
        if len(dom) > 4:
            continue
        for _, cod in carriers:
            for values in itertools.product(cod.objects, repeat=len(dom)):
                if set(values) != set(cod.objects):
                    continue
                surjections += 1
                fn = dict(zip(dom.objects, values))
                section = {}
                for target in cod.objects:
                    preimages = [x for x in dom.objects if fn[x] == target]
                    section[target] = preimages[0]
                if any(fn[section[t]] != t for t in cod.objects):
                    h2_witness = _witness(dom=dom.name, cod=cod.name)
                    break
            if h2_witness:
                break
        if h2_witness:
            break
    checks.append(
        AxiomCheck(
            "H2",
            FAILS if h2_witness else HOLDS,
            f"sections found for all {surjections} surjections "
            "between checked carriers with |dom| <= 4",
            h2_witness,
        )
    )

    # H3: the naturals support quantification — not finitely checkable.
    bound = model.nat_bound
    checks.append(
        AxiomCheck(
            "H3",
            "assumed",
            "not finitely checkable"
            + (f"; Nat truncated at {bound} in this model" if bound is not None else ""),
        )
    )

    # H4: supports-quantification is preserved by powersets.
    h4_witness = None
    h4_checked = 0
    for expr, carrier in carriers:
        if len(carrier) > 4:
            continue
        h4_checked += 1
        power = _interpret(Powerset(expr), model)
        witness = _detector_law(power, len(carrier))
        if witness is None:
            power2 = _interpret(Powerset(Powerset(expr)), model)
            witness = _detector_law(power2, len(power))
        if witness is not None:
            h4_witness = witness
            break
    checks.append(
        AxiomCheck(
            "H4",
            FAILS if h4_witness else HOLDS,
            f"powerset detector law verified for {h4_checked} checked domains "
            "with |A| <= 4",
            h4_witness,
        )
    )
    return checks
