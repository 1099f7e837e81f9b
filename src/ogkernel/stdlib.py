"""The standard library: the shipped `.og` prelude.

The standard objects (the two-object set, the naturals, the iterated
powersets up to Set(P[P[Nat]])) are stated once, in the prelude, and reach
the kernel through elaboration; nothing here is trusted.
"""

from __future__ import annotations

import os

__all__ = ["prelude_source"]

evidence_models = None  # no function, but bench/probes.py patches this name


def prelude_source() -> str:
    """The text of the shipped `.og` prelude."""
    with open(os.path.join(os.path.dirname(__file__), "prelude.og"), "rb") as file:
        return file.read().decode("utf-8")
