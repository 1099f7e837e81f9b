"""Brute-force finite semantics: the independent oracle for kernel output.

A Model assigns finite carriers to named generators and (optionally) a
truncation bound for the naturals.  Judgments are evaluated by exhaustive
enumeration; anything that would require unbounded quantification comes
back as `not-finitely-checkable` rather than a silent overclaim.

The objects of a carrier are the integers 0 .. n-1: a Nat numeral k is k, an
object of a named generator is its position in the assigned tags, a product
pair (i, j) is ``i*|B| + j``, and a powerset element is the bitmask of its
members.  Every law is checked on these indices, by list and bytes operations
that run in C where it spans a whole carrier: the diagonal and detector laws
read one byte per object; `Carrier.index` reads a tag without parsing text, and
only witnesses and `interpret_fn` write tags as text.  Two budgets bound every
check: `interpret` refuses a carrier or function domain of more than
CARRIER_BUDGET objects, and `models_for_judgment` a judgment of more than
MODEL_BUDGET models, as not finitely checkable.  A carrier records its parts
and no objects, so it is sized before anything is enumerated.  A judgment's
models come from the names and Nat that `terms.term_names` finds, and
`soundness_sweep` is the one place that judges a judgment in its models.

Each pure fact is computed once per process, in an `lru_cache` of fixed size:
`interpret`, `_table_values`, `_empty_flags`, a signature's `_models`,
`_verify_mor` (for Mor, BinFn and Domain), `_verify_squant` (for
SupportsQuant and Set) and `_verify_coherence` (for a family).  No cache keeps
an exception: NotFinitelyCheckable is raised afresh at every call.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

from . import streams
from .terms import (
    NAT,
    TWO,
    BuiltinRule,
    Family,
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
    Powerset,
    Product,
    SupportsQuant,
    Table,
    Tag,
    Term,
    Two,
    fn_signature,
    is_numeral,
    mentions_nat,
    render,
    tag_text,
    term_names,
)

__all__ = [
    "Carrier",
    "Model",
    "Verdict",
    "HOLDS",
    "FAILS",
    "NOT_FINITELY_CHECKABLE",
    "CARRIER_BUDGET",
    "MODEL_BUDGET",
    "NO_VALUE",
    "NotFinitelyCheckable",
    "interpret",
    "fn_values",
    "interpret_fn",
    "verify_judgment",
    "verify_axiom_instances",
    "AxiomCheck",
    "soundness_sweep",
    "SWEEP_SIZES",
    "SweepItem",
    "SweepReport",
    "models_for_judgment",
    "default_model",
]

HOLDS = "holds"
FAILS = "fails"
NOT_FINITELY_CHECKABLE = "not-finitely-checkable"

# No carrier or function domain with more objects is enumerated.  2**16 is
# the powerset of a 16-object carrier and the pair domain of a 256-object one.
CARRIER_BUDGET = 1 << 16
# No judgment is judged in more models: s**k of them for k names at size s,
# times s when Nat occurs.
MODEL_BUDGET = 1 << 10

# Evaluator results besides codomain indices.
NO_VALUE = -1  # the function has no value at this domain object
OUTSIDE = -2  # a table row whose value is no object of the codomain
# The formers whose values `fn_values` builds whole, as bytes: they are total
# and Two-valued, so neither result above occurs, and a whole-carrier law over
# them compares bytes without a list of up to CARRIER_BUDGET ints.
_WHOLE_FORMERS = ("eq_of", "empty_detector_of")
YES, NO = 0, 1  # the objects of Two

# Family coherence is scanned through stage max(32, m + 1), m the larger of a
# corrupted family's stage and index, so the scan passes every stage and index
# the descriptor names; a scan beyond the cap is not finitely checkable.
COHERENCE_SCAN_MIN = 32
COHERENCE_SCAN_CAP = 1024

# The carrier sizes a soundness sweep or a `model check` may go up to.
SWEEP_SIZES = range(1, 5)


class NotFinitelyCheckable(Exception):
    """The question cannot be settled by finite enumeration at these bounds."""


class Carrier(Term, fields="name tags parts size"):
    """A finite carrier whose objects are the indices 0 .. size-1.

    An explicit carrier lists pairwise distinct object tags, object k being
    ``tags[k]``: Two, the truncated naturals and the carriers a model assigns
    to named generators.  A product carrier has ``parts == (A, B)`` and object
    ``i*|B| + j`` is the pair (i, j); a powerset carrier has ``parts == (A,)``
    and object k is the subset of A whose bitmask is k, so index 0 is the
    empty (all-no) function.  `tag` gives the tag of one object and `index`
    the object of one tag.  An explicit carrier keeps its tag-to-index table
    in its `__dict__`, out of equality.
    """

    def __new__(cls, name: str, tags: tuple[str, ...] = (), parts: tuple[Carrier, ...] = ()):
        codes = None
        if len(parts) == 2:
            size = parts[0].size * parts[1].size
        elif parts:
            size = 1 << parts[0].size
        else:
            codes = {tag: k for k, tag in enumerate(tags)}
            if len(codes) != len(tags):
                raise ValueError(f"carrier {name!r} has duplicate tags")
            size = len(tags)
        carrier = tuple.__new__(cls, (cls.__name__, name, tags, parts, size))
        carrier.__dict__["_codes"] = codes
        return carrier

    def __len__(self) -> int:
        return self.size

    def tag(self, k: int) -> Tag:
        """The tag of object `k`: a pair of tags for a pair, a frozenset of
        tags for a subset."""
        if not self.parts:
            return self.tags[k]
        if len(self.parts) == 2:
            left, right = self.parts
            i, j = divmod(k, right.size)
            return left.tag(i), right.tag(j)
        (base,) = self.parts
        return frozenset(base.tag(j) for j in range(base.size) if k >> j & 1)

    def index(self, tag: Tag) -> int | None:
        """The object that `tag` names, or None when it names none."""
        if not self.parts:
            return self._codes.get(tag)
        if len(self.parts) == 2 and type(tag) is tuple and len(tag) == 2:
            i, j = (part.index(t) for part, t in zip(self.parts, tag))
            return None if i is None or j is None else i * self.parts[1].size + j
        if len(self.parts) == 1 and type(tag) is frozenset:
            members = [self.parts[0].index(t) for t in tag]
            return None if None in members else sum(1 << j for j in members)
        return None


TWO_CARRIER = Carrier("Two", ("yes", "no"))


class Model(NamedTuple):
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

    def carrier_for(self, name: str) -> Carrier:
        """The carrier assigned to `name`; a ValueError when none is."""
        carrier = dict(self.assignments).get(name)
        if carrier is None:
            raise ValueError(f"no carrier assigned to {name!r}")
        return carrier

    def describe(self) -> str:
        parts = [f"{name}:{carrier.size}" for name, carrier in self.assignments]
        if self.nat_bound is not None:
            parts.append(f"nat<=:{self.nat_bound}")
        return "model(" + ", ".join(parts) + ")" if parts else "model()"


def default_model(nat_bound: int = 3) -> Model:
    return Model.make({}, nat_bound=nat_bound)


# ---------------------------------------------------------------------------
# Interpretation


@lru_cache(maxsize=4096)
def interpret(expr: GenExpr, model: Model) -> Carrier:
    """The carrier of `expr` in `model`; not finitely checkable past the budget.

    Nothing is enumerated past the budget: a product or powerset carrier only
    records its parts, which are within the budget, and Nat lists at most
    CARRIER_BUDGET + 1 numerals.  Its objects are indices (see `Carrier`).
    """
    carrier = _CARRIERS[type(expr)](expr, model)
    if carrier.size > CARRIER_BUDGET:  # not len(): it overflows past sys.maxsize
        raise NotFinitelyCheckable(
            f"{render(expr)} has more than {CARRIER_BUDGET} objects in {model.describe()}"
        )
    return carrier


def _nat_carrier(expr: Nat, model: Model) -> Carrier:
    if model.nat_bound is None:
        raise NotFinitelyCheckable("Nat has no truncation bound in this model")
    return Carrier("Nat", tuple(map(str, range(min(model.nat_bound, CARRIER_BUDGET) + 1))))


def _product_carrier(expr: Product, model: Model) -> Carrier:
    left, right = interpret(expr.left, model), interpret(expr.right, model)
    return Carrier(f"({left.name} x {right.name})", parts=(left, right))


def _powerset_carrier(expr: Powerset, model: Model) -> Carrier:
    base = interpret(expr.arg, model)
    return Carrier(f"P[{base.name}]", parts=(base,))


# The carrier of each generator expression class in a model, before the budget.
_CARRIERS = {
    Two: lambda expr, model: TWO_CARRIER,
    Nat: _nat_carrier,
    Named: lambda expr, model: model.carrier_for(expr.name.text),
    Product: _product_carrier,
    Powerset: _powerset_carrier,
}


@lru_cache(maxsize=1024)
def _table_values(table: Table, model: Model) -> tuple[int, ...]:
    """`table` encoded once per model: the codomain index at each domain
    index, NO_VALUE where it has no row and OUTSIDE where its row names no
    codomain object.  Rows whose key is no domain object are left out.  A
    literal names an object only of its own carrier."""
    dom = interpret(table.domain, model)
    cod = interpret(table.codomain, model)
    values = [NO_VALUE] * dom.size
    for key, val in table.rows:
        k = dom.index(key.tag) if key.of == table.domain else None
        if k is not None:
            v = cod.index(val.tag) if val.of == table.codomain else None
            values[k] = OUTSIDE if v is None else v
    return tuple(values)  # cached: shared by every caller


def fn_values(fn: FnExpr, model: Model) -> Sequence[int]:
    """The codomain index of `fn` at every index of its domain; NO_VALUE
    where `fn` has no value.  Only a table can send an object OUTSIDE its
    codomain.  `eq_of` and `empty_detector_of` have a value everywhere and
    come back as bytes, one per object; the others as a list."""
    n = interpret(fn_signature(fn)[0], model).size
    if isinstance(fn, Table):
        return list(_table_values(fn, model))
    if fn.rule == "eq_of":
        side = interpret(fn.args[0], model).size
        values = bytearray((NO,)) * n
        values[:: side + 1] = bytes((YES,)) * side  # the pairs (i, i)
        return values
    if fn.rule == "empty_detector_of":
        return bytes((YES,)) + bytes((NO,)) * (n - 1)  # yes at the empty table
    if fn.rule == "union_of_family":
        stream = streams.family_limit(fn.args[0])
    else:  # indicator_stream, restrict: a catalog stream on Nat
        stream = fn.args[0]
    defined = min(n, fn.args[1] + 1) if fn.rule == "restrict" else n
    bits = bytes(map(stream.value_at, range(defined)))
    yes_at_one = bytes.maketrans(b"\0\1", bytes((NO, YES)))
    return list(bits.translate(yes_at_one)) + [NO_VALUE] * (n - defined)


def interpret_fn(fn: FnExpr, model: Model) -> dict[str, str]:
    """`fn` written out as a table from tag text to tag text over its
    interpreted domain."""
    dom, cod = (interpret(e, model) for e in fn_signature(fn))
    values = fn_values(fn, model)
    return {tag_text(dom.tag(k)): tag_text(cod.tag(v)) for k, v in enumerate(values) if v >= 0}


# ---------------------------------------------------------------------------
# Judgment evaluation


class Verdict(Term, fields="status detail witness"):
    __slots__ = ()

    def __new__(cls, status: str, detail: str = "", witness=None):
        if status == FAILS and witness is None:
            raise ValueError("a failing verdict must carry a witness")
        return tuple.__new__(cls, (cls.__name__, status, detail, witness))

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _witness(**kwargs: str) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(kwargs.items()))


def _fails(detail: str, **witness: str) -> Verdict:
    return Verdict(FAILS, detail=detail, witness=_witness(**witness))


def verify_judgment(j: Judgment, model: Model) -> Verdict:
    """Exhaustively evaluate one judgment in one model, by its form's verifier."""
    try:
        return _VERIFIERS[type(j)](j, model)
    except NotFinitelyCheckable as exc:
        return Verdict(NOT_FINITELY_CHECKABLE, detail=str(exc))


def _verify_set(j: IsSet, model: Model) -> Verdict:
    sq = _verify_squant(j.expr, model)
    if sq.status != HOLDS:
        return sq
    # A finite carrier always admits the diagonal equality pairing, so
    # set-hood reduces to supporting quantification.
    return Verdict(HOLDS, detail=f"diagonal equality exists; {sq.detail}")


def _verify_obj(j: IsObj, model: Model) -> Verdict:
    tag = j.obj.tag
    if isinstance(j.expr, Nat) and is_numeral(tag):
        detail, bound = "numeral", model.nat_bound
        # a numeral longer than the bound is past it: int() refuses 4,300 digits
        if bound is not None and (len(tag) > len(str(bound)) or int(tag) > bound):
            detail = f"numeral beyond truncation bound {bound}"
        return Verdict(HOLDS, detail=detail)
    if type(tag) is Family and j.expr == Powerset(NAT):
        return _verify_coherence(tag)
    carrier = interpret(j.expr, model)
    if carrier.index(tag) is not None:
        return Verdict(HOLDS)
    name, text = carrier.name, tag_text(tag)
    return _fails(f"{text!r} is not an object of {name}", tag=text, carrier=name)


def _atoms(tag: Tag) -> list[str]:
    """The atoms of an object tag, at every depth; a family counts as one."""
    nested = type(tag) is tuple or type(tag) is frozenset
    return [atom for part in tag for atom in _atoms(part)] if nested else [tag]


@lru_cache(maxsize=4096)
def _verify_mor(fn: FnExpr, dom: GenExpr, cod: GenExpr, model: Model) -> Verdict:
    declared_dom, declared_cod = fn_signature(fn)
    if declared_dom != dom or declared_cod != cod:
        return _fails(
            "declared signature does not match",
            declared=f"{render(declared_dom)} -> {render(declared_cod)}",
            expected=f"{render(dom)} -> {render(cod)}",
        )
    if isinstance(fn, BuiltinRule) and fn.rule == "union_of_family":
        coherence = _verify_coherence(fn.args[0])
        if not coherence.holds:
            return coherence
    if isinstance(fn, Table) and mentions_nat(dom):
        # Finitely many rows on an infinite carrier: some numeral is in no key.
        mentioned = {atom for key, _ in fn.rows for atom in _atoms(key.tag)}
        n = str(next(k for k in itertools.count() if str(k) not in mentioned))
        return _fails(f"not total: Nat is infinite and no row mentions {n}", missing=n)
    dom_carrier = interpret(dom, model)
    if isinstance(fn, BuiltinRule) and fn.rule in _WHOLE_FORMERS:
        return Verdict(HOLDS, detail=f"total on {dom_carrier.size} objects")
    values = fn_values(fn, model)
    holes, outside = values.count(NO_VALUE), values.count(OUTSIDE)
    if isinstance(fn, Table) and (len(fn.rows) != dom_carrier.size or holes or outside):
        # `_table_values` skips a literal written on another carrier, so a
        # table with one matches no model, and it fails in every model.
        row = next((r for r in fn.rows if r[0].of != dom or r[1].of != cod), None)
        if row is not None:
            return _fails("a row is written on another carrier", row=" -> ".join(map(render, row)))
    if isinstance(fn, Table) and (len(fn.rows) != dom_carrier.size or holes):
        # A table names its objects; in a model whose carrier differs the
        # judgment is not interpretable rather than false.
        raise NotFinitelyCheckable(
            f"table objects do not match the carrier of {dom_carrier.name}"
        )
    if holes or outside:
        k = next(k for k, v in enumerate(values) if v < 0)
        tag = dom_carrier.tag(k)
        at = tag_text(tag)
        if values[k] == NO_VALUE:
            return _fails(f"not total: no value at {at!r}", missing=at)
        got = next(val.tag for key, val in fn.rows if key.tag == tag)
        bound = model.nat_bound  # not None where the codomain mentions Nat
        numerals = [a for a in _atoms(got) if is_numeral(a)] if mentions_nat(cod) else ()
        if any(len(a) > 9 or int(a) > bound for a in numerals):
            # As for `Obj`: a numeral past the bound is still an object of Nat.
            raise NotFinitelyCheckable(
                f"value {tag_text(got)!r} mentions a numeral past the truncation bound {bound}"
            )
        return _fails(f"value at {at!r} is outside the codomain", at=at, got=tag_text(got))
    return Verdict(HOLDS, detail=f"total on {dom_carrier.size} objects")


def _verify_domain(j: IsDomain, model: Model) -> Verdict:
    mor = _verify_mor(j.eq, Product(j.expr, j.expr), TWO, model)
    if mor.status != HOLDS:
        return mor
    # The diagonal law at all |A|^2 pairs: yes exactly at the pairs (i, i).
    carrier = interpret(j.expr, model)
    n = carrier.size
    got = fn_values(j.eq, model)  # total and Two-valued: the Mor check held
    if got[:: n + 1].count(YES) != n or got.count(YES) != n:
        x, y = divmod(next(k for k, g in enumerate(got) if (g == YES) != (k % (n + 1) == 0)), n)
        detail = "equality pairing does not flag exactly the same-object pairs"
        value, want = TWO_CARRIER.tag(got[x * n + y]), "yes" if x == y else "no"
        x, y = tag_text(carrier.tag(x)), tag_text(carrier.tag(y))
        return _fails(detail, x=x, y=y, got=value, expected=want)
    return Verdict(HOLDS, detail=f"diagonal law on {n}^2 pairs")


@lru_cache(maxsize=1024)
def _verify_squant(expr: GenExpr, model: Model) -> Verdict:
    witness = _detector_law(expr, model)
    if witness is not None:
        return Verdict(FAILS, "canonical detector law violated", witness)
    tables = interpret(Powerset(expr), model).size
    return Verdict(HOLDS, f"canonical detector verified on {tables} tables")


def _detector_law(
    expr: GenExpr, model: Model, _interpret=interpret
) -> tuple[tuple[str, str], ...] | None:
    """None when the canonical detector law holds on the powerset of `expr`,
    else a witness: it has 2^|A| tables, and `empty_detector_of` flags exactly
    the tables whose masks count no members."""
    power, base_size = _interpret(Powerset(expr), model), _interpret(expr, model).size
    if power.size != 1 << base_size:
        return _witness(
            expected=str(1 << base_size), got=str(power.size), carrier=power.name
        )
    flags = fn_values(BuiltinRule("empty_detector_of", (expr,)), model)
    expected = _empty_flags(base_size)
    if bytes(flags) != expected:
        k = next(k for k, (f, e) in enumerate(zip(flags, expected)) if f != e)
        want = TWO_CARRIER.tag(expected[k])
        return _witness(carrier=power.name, table=tag_text(power.tag(k)), expected=want)
    return None


@lru_cache(maxsize=32)
def _empty_flags(base_size: int) -> bytes:
    """The detector's values on the masks 0 .. 2^base_size - 1: yes where a
    mask counts no members, no elsewhere."""
    return _member_counts(base_size).translate(bytes([YES] + [NO] * 255))


def _member_counts(base_size: int) -> bytes:
    """The number of members of every mask 0 .. 2^base_size - 1, one byte
    each: the masks with a new top element count one more than those below."""
    counts, plus_one = b"\0", bytes(range(1, 256)) + b"\0"
    for _ in range(base_size):
        counts += counts.translate(plus_one)
    return counts


@lru_cache(maxsize=256)
def _verify_coherence(family: Family) -> Verdict:
    """Scan a family's stages for one that does not restrict to its
    predecessor.  Independent of the kernel's rule on families: it only
    resolves the stages and compares them."""
    last = max([COHERENCE_SCAN_MIN, *(m + 1 for m in family.corruption or ())])
    if last > COHERENCE_SCAN_CAP:
        raise NotFinitelyCheckable(
            f"coherence of '{family}' needs stages 0..{last}, beyond the "
            f"scan cap of {COHERENCE_SCAN_CAP}"
        )
    violation = streams.is_coherent(streams.family_stages(family, last))
    if violation is not None:
        stage = str(violation)
        return _fails(f"stage {stage} disagrees with its predecessor", stage=stage)
    return Verdict(HOLDS, detail=f"coherent on stages 0..{last}")


# The verifier of each judgment form.
_VERIFIERS = {
    IsGen: lambda j, model: Verdict(HOLDS, detail=f"{interpret(j.expr, model).size} objects"),
    IsObj: _verify_obj,
    IsMor: lambda j, model: _verify_mor(j.fn, j.dom, j.cod, model),
    IsBinFn: lambda j, model: _verify_mor(j.fn, j.dom, TWO, model),
    IsDomain: _verify_domain,
    SupportsQuant: lambda j, model: _verify_squant(j.expr, model),
    IsSet: _verify_set,
    IsCoherentFamily: lambda j, model: _verify_coherence(j.family.descriptor),
}


# ---------------------------------------------------------------------------
# Model enumeration and the soundness sweep

_TAG_ALPHABET = "abcdefgh"


def models_for_judgment(j: Judgment, max_size: int) -> tuple[Model, ...]:
    """Canonical model enumeration: sizes ascending, lexicographic tags.

    Named generators get carriers of every size 1..max_size; when the
    judgment mentions Nat, the truncation bound sweeps carrier sizes
    1..max_size as well.  Not finitely checkable past MODEL_BUDGET models,
    which are counted before any is built.
    """
    idents, nat = term_names(j)
    count = max_size ** len(idents) * (max_size if nat else 1)
    if count > MODEL_BUDGET:
        raise NotFinitelyCheckable(f"{count} models at size {max_size}, more than {MODEL_BUDGET}")
    return _models(tuple(sorted(map(attrgetter("text"), idents))), nat, max_size)


@lru_cache(maxsize=32)
def _models(names: tuple[str, ...], nat: bool, max_size: int) -> tuple[Model, ...]:
    nat_bounds = range(max_size) if nat else [None]
    return tuple(
        Model.make(
            {name: Carrier(name, tuple(_TAG_ALPHABET[:size])) for name, size in zip(names, sizes)},
            nat_bound=bound,
        )
        for sizes in itertools.product(range(1, max_size + 1), repeat=len(names))
        for bound in nat_bounds
    )


class SweepItem(NamedTuple):
    """A judgment's canonical models and its verdict in each, in that order;
    past MODEL_BUDGET, no models and a verdict that names their count."""

    judgment: Judgment
    models: tuple[Model, ...]
    verdicts: tuple[Verdict, ...]


class SweepReport(NamedTuple):
    items: tuple[SweepItem, ...]
    checked: int
    holds: int
    fails: int
    not_checkable: int


def soundness_sweep(judgments: Sequence[Judgment], max_size: int = 3) -> SweepReport:
    """Verify every judgment in every canonical model up to `max_size`.

    One item per distinct judgment, in first-seen order.  A judgment given k
    times is verified once per model, and its models and verdicts repeat k
    times, so the counts are over the (judgment, model) pairs given.
    """
    if max_size not in SWEEP_SIZES:
        raise ValueError(f"soundness sweep sizes range over {SWEEP_SIZES[0]}..{SWEEP_SIZES[-1]}")
    given: dict[Judgment, int] = {}  # each judgment's count, in first-seen order
    for j in judgments:
        given[j] = given.get(j, 0) + 1
    items = []
    statuses = []
    for j, times in given.items():
        try:
            models = models_for_judgment(j, max_size)
        except NotFinitelyCheckable as exc:
            models, verdicts = (), (Verdict(NOT_FINITELY_CHECKABLE, str(exc)),)
        else:
            # `verify_judgment` is read from the module, where bench/probes.py patches it
            verdicts = tuple(map(verify_judgment, itertools.repeat(j), models))
        items.append(SweepItem(j, models * times, verdicts * times))
        statuses += map(attrgetter("status"), items[-1].verdicts)
    return SweepReport(
        tuple(items), len(statuses), *map(statuses.count, (HOLDS, FAILS, NOT_FINITELY_CHECKABLE))
    )


# ---------------------------------------------------------------------------
# Axiom instance checks


class AxiomCheck(NamedTuple):
    axiom: str
    status: str  # holds | fails | assumed
    detail: str
    witness: tuple[tuple[str, str], ...] | None = None


def verify_axiom_instances(model: Model, _interpret=interpret) -> list[AxiomCheck]:
    """Check H1/H2/H4 instances exhaustively at small bounds; H3 is assumed.

    `_interpret` exists so tests can inject a corrupted interpretation and
    confirm the checks actually detect structural damage; every carrier
    checked here is read through it.
    """
    checks: list[AxiomCheck] = []
    named = [Named(Ident(name)) for name, _ in model.assignments]
    exprs = [TWO, NAT, *named] if model.nat_bound is not None else [TWO, *named]
    carriers = [(expr, _interpret(expr, model)) for expr in exprs]

    def check(axiom: str, witness, broken: str, held: str) -> None:
        status, detail = (FAILS, broken) if witness else (HOLDS, held)
        checks.append(AxiomCheck(axiom, status, detail, witness))

    # H1: there is a 2-element set.
    two = carriers[0][1]
    laws = {}  # each expression's detector law, run once: H1 and H4 both read Two's
    if two.size != 2:
        witness = _witness(carrier=two.name, size=str(two.size))
    else:
        witness = laws[TWO] = _detector_law(TWO, model, _interpret)
    check(
        "H1",
        witness,
        "the two-object carrier or its powerset detector law is broken",
        "a fixed two-object carrier with diagonal equality and empty-detector",
    )

    # H2: every surjection between checked carriers admits a section.  A map
    # is the tuple of its values at the domain indices; its section sends each
    # target to the first index it takes, and the map must send that back.
    surjections = 0
    h2_witness = None
    sized = [(carrier, carrier.size) for _, carrier in carriers]
    domains = [(dom, n) for dom, n in sized if n <= 4]
    for (dom, n), (cod, m) in itertools.product(domains, sized):
        targets = tuple(range(m))
        onto = list(filter(frozenset(targets).issubset, itertools.product(targets, repeat=n)))
        surjections += len(onto)
        sections = map(map, map(attrgetter("index"), onto), itertools.repeat(targets))
        composed = map(tuple, map(map, map(attrgetter("__getitem__"), onto), sections))
        if not all(map(targets.__eq__, composed)):
            h2_witness = h2_witness or _witness(dom=dom.name, cod=cod.name)
    check(
        "H2",
        h2_witness,
        "no section for a surjection between checked carriers",
        f"sections found for all {surjections} surjections between checked carriers "
        "with |dom| <= 4",
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
    small = [(expr, carrier) for expr, carrier in carriers if carrier.size <= 4]
    for expr, _ in small:
        law = laws[expr] if expr in laws else _detector_law(expr, model, _interpret)
        h4_witness = law or _detector_law(Powerset(expr), model, _interpret)
        if h4_witness:
            break
    check(
        "H4",
        h4_witness,
        f"powerset detector law violated over {render(expr)}",
        f"powerset detector law verified for {len(small)} checked domains with |A| <= 4",
    )
    return checks
