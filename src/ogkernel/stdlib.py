"""Derived, untrusted helpers scripted over the kernel.

The standard objects (the two-object set, the naturals, the iterated
powersets up to Set(P[P[Nat]])) are stated once, in the shipped `.og`
prelude, and reach the kernel through elaboration.  This module ships that
prelude, picks the evidence models a domain's equality law is checked in,
and builds concrete choice instances.  Everything here goes through kernel
operations; nothing is trusted.
"""

from __future__ import annotations

from pathlib import Path

from .kernel import AxiomId, Kernel, PremiseError, Theorem
from .semantics import Model, carrier_size, mentions_nat
from .terms import FnExpr, GenExpr, free_names, render

__all__ = ["evidence_models", "choice_instance", "prelude_source"]


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


def choice_instance(
    kernel: Kernel, surj: FnExpr, dom: GenExpr, cod: GenExpr, model: Model
) -> Theorem:
    """A section-existence theorem for a concrete surjection.

    Raises CounterexampleError (with the model and the uncovered object)
    when the map is not surjective in the checked model.
    """
    kernel.mor_intro(surj, dom, cod, model=model)
    return kernel.axiom(AxiomId.H2_CHOICE, (surj, dom, cod), model=model)


def prelude_source() -> str:
    """The text of the shipped `.og` prelude."""
    return Path(__file__).with_name("prelude.og").read_text("utf-8")
