"""The standard library: the shipped `.og` prelude.

The standard objects (the two-object set, the naturals, the iterated
powersets up to Set(P[P[Nat]])) are stated once, in the prelude, and reach
the kernel through elaboration; nothing here is trusted.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["prelude_source"]

evidence_models = None  # no function, but bench/probes.py patches this name


def prelude_source() -> str:
    """The text of the shipped `.og` prelude."""
    return Path(__file__).with_name("prelude.og").read_text("utf-8")
