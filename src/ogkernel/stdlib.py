"""Derived, untrusted helpers scripted over the kernel.

The standard objects (the two-object set, the naturals, the iterated
powersets up to Set(P[P[Nat]])) are stated once, in the shipped `.og`
prelude, and reach the kernel through elaboration.  This module ships that
prelude and builds concrete choice instances through kernel operations;
nothing here is trusted.

`evidence_models` is no longer called: the kernel checks tables on carriers
it knows whole and takes no model.  `bench/probes.py` still patches it by
name, here and in `ogkernel.elaborate`, so it stays until that probe goes.
"""

from __future__ import annotations

from pathlib import Path

from .kernel import AxiomId, Kernel, PremiseError, Theorem
from .semantics import Model, carrier_size, mentions_nat
from .terms import FnExpr, GenExpr, free_names, render

__all__ = ["evidence_models", "choice_instance", "prelude_source"]


# An evidence model gives `expr` at most this many objects.
_EVIDENCE_SIZE_CAP = 64


def evidence_models(expr: GenExpr) -> tuple[Model, ...]:
    """Small finite models to check equality-law evidence for `expr` in:
    the two largest feasible Nat truncations, or, for an expression without
    Nat, the single model with bound 1."""
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


def choice_instance(kernel: Kernel, surj: FnExpr, dom: GenExpr, cod: GenExpr) -> Theorem:
    """A section-existence theorem for a surjection, given as a table on
    carriers the kernel knows whole; raises CounterexampleError, naming an
    uncovered object, when the map is not surjective."""
    return kernel.axiom(AxiomId.H2_CHOICE, (surj, dom, cod))


def prelude_source() -> str:
    """The text of the shipped `.og` prelude."""
    return Path(__file__).with_name("prelude.og").read_text("utf-8")
