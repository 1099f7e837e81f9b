"""The standard library: the shipped `.og` prelude.

The standard objects (the two-object set, the naturals, the iterated
powersets up to Set(P[P[Nat]])) are stated once, in the prelude, and reach
the kernel through elaboration; nothing here is trusted.

`evidence_models` is no longer called: the kernel checks tables on carriers
it knows whole and takes no model.  `bench/probes.py` still patches it by
name, here and in `ogkernel.elaborate`, so it stays until that probe goes.
"""

from __future__ import annotations

from pathlib import Path

from .kernel import PremiseError
from .semantics import InterpretationError, Model, NotFinitelyCheckable, interpret
from .terms import GenExpr, mentions_nat, render

__all__ = ["evidence_models", "prelude_source"]


# An evidence model gives `expr` at most this many objects.
_EVIDENCE_SIZE_CAP = 64


def evidence_models(expr: GenExpr) -> tuple[Model, ...]:
    """Small finite models to check equality-law evidence for `expr` in:
    the two largest feasible Nat truncations, or, for an expression without
    Nat, the single model with bound 1."""
    feasible = []
    for k in range(4) if mentions_nat(expr) else (1,):
        model = Model.make({}, nat_bound=k)
        try:
            if len(interpret(expr, model)) <= _EVIDENCE_SIZE_CAP:
                feasible.append(model)
        except (InterpretationError, NotFinitelyCheckable):
            pass  # a named generator has no carrier here, or past the budget
    if not feasible:
        raise PremiseError(
            f"no feasible evidence model for {render(expr)}; supply models explicitly"
        )
    return tuple(feasible[-2:])


def prelude_source() -> str:
    """The text of the shipped `.og` prelude."""
    return Path(__file__).with_name("prelude.og").read_text("utf-8")
