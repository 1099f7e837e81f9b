"""Derived, untrusted constructions scripted over the kernel.

Builds the standard objects — the two-object set, the naturals, product
domains, powerset domains — and the headline derivations (set-hood of
P[Nat] and P[P[Nat]]), plus concrete choice instances.  Everything here
goes through kernel operations; nothing is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .kernel import AxiomId, Kernel, PremiseError, Theorem, builtin_premises
from .semantics import Model, carrier_size, mentions_nat
from .terms import (
    NAT,
    TWO,
    BuiltinRule,
    FnExpr,
    GenExpr,
    IsBinFn,
    IsDomain,
    IsGen,
    IsSet,
    ObjLit,
    Powerset,
    Product,
    SupportsQuant,
    Table,
    free_names,
    render,
)

__all__ = [
    "ConstructionResult",
    "build_two",
    "build_naturals",
    "build_product_domain",
    "build_powerset_domain",
    "choice_instance",
    "build_prelude",
    "prelude_theorems",
    "prelude_source",
    "evidence_models",
    "diagonal_table",
]


@dataclass(frozen=True)
class ConstructionResult:
    """An expression with the theorems derived about it, in creation order."""

    expr: GenExpr
    theorems: tuple[Theorem, ...]

    def _find(self, kind: type) -> Theorem | None:
        for thm in self.theorems:
            if isinstance(thm.judgment, kind):
                return thm
        return None

    @property
    def gen(self) -> Theorem | None:
        return self._find(IsGen)

    @property
    def binfn(self) -> Theorem | None:
        return self._find(IsBinFn)

    @property
    def domain(self) -> Theorem | None:
        return self._find(IsDomain)

    @property
    def set_(self) -> Theorem | None:
        return self._find(IsSet)

    @property
    def squant(self) -> Theorem | None:
        direct = self._find(SupportsQuant)
        if direct is not None:
            return direct
        # An IsSet theorem carries its supports-quantification constituent.
        set_thm = self.set_
        if set_thm is not None and len(set_thm.parts) == 2:
            return set_thm.parts[1]
        return None

    @property
    def eq(self) -> FnExpr | None:
        dom = self.domain
        if dom is None:
            return None
        assert isinstance(dom.judgment, IsDomain)
        return dom.judgment.eq


# Evidence models keep the diagonal check at or below this many objects.
_EVIDENCE_SIZE_CAP = 64


def evidence_models(expr: GenExpr) -> tuple[Model, ...]:
    """Small finite models in which equality-law evidence for `expr` is
    checked exhaustively.  The two largest feasible Nat truncations are used;
    an expression without Nat gets the single model with bound 1."""
    feasible = [
        k
        for k in (range(4) if mentions_nat(expr) else (1,))
        if not free_names(expr)  # a named generator has no carrier without a model
        and carrier_size(expr, Model.make({}, nat_bound=k)) <= _EVIDENCE_SIZE_CAP
    ]
    if not feasible:
        raise PremiseError(
            f"no feasible evidence model for {render(expr)}; supply models explicitly"
        )
    return tuple(Model.make({}, nat_bound=k) for k in feasible[-2:])


def diagonal_table(expr: GenExpr, objects: Sequence[str]) -> Table:
    """The explicit equality table flagging exactly the same-object pairs."""
    pair = Product(expr, expr)
    rows = tuple(
        (
            ObjLit(f"({x},{y})", pair),
            ObjLit("yes" if x == y else "no", TWO),
        )
        for x in objects
        for y in objects
    )
    return Table(pair, TWO, rows)


def build_two(kernel: Kernel) -> ConstructionResult:
    """Two with set-hood from H1 and an explicit 4-row diagonal equality."""
    set_thm = kernel.axiom(AxiomId.H1_TWO_IS_SET)
    gen = kernel.gen_intro(TWO)
    table = diagonal_table(TWO, ("yes", "no"))
    models = evidence_models(TWO)
    mor = kernel.mor_intro(table, Product(TWO, TWO), TWO, model=models[0])
    binfn = kernel.bin_fn_from_mor(mor)
    domain = kernel.domain_intro(gen, binfn, models)
    return ConstructionResult(TWO, (set_thm, gen, mor, binfn, domain))


def build_naturals(kernel: Kernel) -> ConstructionResult:
    """The naturals as a primitive generator with numeral equality; their
    support for quantification is hypothesis H3."""
    gen = kernel.gen_intro(NAT)
    eq = BuiltinRule("eq_of", (NAT,))
    mor = kernel.mor_intro(eq, Product(NAT, NAT), TWO)
    binfn = kernel.bin_fn_from_mor(mor)
    domain = kernel.domain_intro(gen, binfn, evidence_models(NAT))
    squant = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    set_thm = kernel.set_intro(domain, squant)
    return ConstructionResult(NAT, (gen, mor, binfn, domain, squant, set_thm))


def _squants_for(
    fn: BuiltinRule, pool: Sequence[Theorem]
) -> tuple[Theorem, ...]:
    """Match the SupportsQuant premises the builtin `fn` needs against a
    pool of available theorems."""
    premises = []
    for needed in builtin_premises(fn):
        for thm in pool:
            if thm.judgment == SupportsQuant(needed):
                premises.append(thm)
                break
        else:
            raise PremiseError(
                f"missing premise {render(SupportsQuant(needed))} for {render(fn)}"
            )
    return tuple(premises)


def build_product_domain(
    kernel: Kernel,
    a: ConstructionResult,
    b: ConstructionResult,
    *,
    squant_premises: Sequence[Theorem] = (),
) -> ConstructionResult:
    """The product of two domains with componentwise equality."""
    if a.domain is None or b.domain is None:
        raise PremiseError("build_product_domain needs IsDomain on both inputs")
    expr = Product(a.expr, b.expr)
    gen = kernel.gen_intro(expr)
    eq = BuiltinRule("eq_of", (expr,))
    pool = [t for t in (a.squant, b.squant) if t is not None]
    pool += list(squant_premises)
    premises = _squants_for(eq, pool)
    mor = kernel.mor_intro(eq, Product(expr, expr), TWO, premises=premises)
    binfn = kernel.bin_fn_from_mor(mor)
    domain = kernel.domain_intro(gen, binfn, evidence_models(expr))
    return ConstructionResult(expr, (gen, mor, binfn, domain))


def build_powerset_domain(kernel: Kernel, a: ConstructionResult) -> ConstructionResult:
    """The powerset of a set, itself a set: extensional equality is the
    empty-detector applied to the symmetric difference, and quantification
    support comes from the powerset-closure rule."""
    if a.domain is None:
        raise PremiseError("build_powerset_domain needs IsDomain on its input")
    squant = a.squant
    if squant is None:
        raise PremiseError(
            "build_powerset_domain needs SupportsQuant on its input: the "
            "powerset-closure hypothesis applies only to domains that "
            "support quantification"
        )
    expr = Powerset(a.expr)
    gen = kernel.gen_intro(expr)
    eq = BuiltinRule("eq_of", (expr,))
    mor = kernel.mor_intro(eq, Product(expr, expr), TWO, premises=(squant,))
    binfn = kernel.bin_fn_from_mor(mor)
    domain = kernel.domain_intro(gen, binfn, evidence_models(expr))
    power_squant = kernel.squant_from_powerset(squant)
    set_thm = kernel.set_intro(domain, power_squant)
    return ConstructionResult(
        expr, (gen, mor, binfn, domain, power_squant, set_thm)
    )


def choice_instance(
    kernel: Kernel, surj: FnExpr, dom: GenExpr, cod: GenExpr, model: Model
) -> Theorem:
    """A section-existence theorem for a concrete surjection.

    Raises CounterexampleError (with the model and the uncovered object)
    when the map is not surjective in the checked model.
    """
    kernel.mor_intro(surj, dom, cod, model=model)
    return kernel.axiom(AxiomId.H2_CHOICE, (surj, dom, cod), model=model)


# ---------------------------------------------------------------------------
# The shipped prelude


def build_prelude(kernel: Kernel) -> list[ConstructionResult]:
    """The constructions the shipped prelude file performs, via direct calls."""
    two = build_two(kernel)
    nat = build_naturals(kernel)
    pnat = build_powerset_domain(kernel, nat)
    ppnat = build_powerset_domain(kernel, pnat)
    return [two, nat, pnat, ppnat]


def prelude_theorems(kernel: Kernel) -> list[Theorem]:
    return [thm for result in build_prelude(kernel) for thm in result.theorems]


def prelude_source() -> str:
    """The text of the shipped `.og` prelude."""
    return resources.files(__package__).joinpath("prelude.og").read_text("utf-8")
