"""Hereditarily finite universes and instance-level ZFC-1 checks.

ZFC-1 reads the classical axioms with functions as primitives, ignoring
first-order definability; separation is therefore checked for *every*
subset of every element, which stays feasible up to rank 3 (16 elements,
each with at most 4 members).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

__all__ = ["HFSet", "HFUniverse", "Zfc1Family", "Zfc1Report", "check_zfc1_instances", "RankError"]

HFSet = frozenset  # elements are themselves HFSets, down to frozenset()

MAX_RANK = 3


class RankError(ValueError):
    """Universe rank beyond the combinatorial budget."""


@lru_cache(maxsize=None)
def ackermann(s: HFSet) -> int:
    """Canonical integer code: the binary digits of a set are its members."""
    return sum(1 << ackermann(e) for e in s)


def hf_rank(s: HFSet) -> int:
    return 1 + max((hf_rank(e) for e in s), default=-1)


def render_hf(s: HFSet) -> str:
    return "{" + ",".join(render_hf(e) for e in sorted(s, key=ackermann)) + "}"


class HFUniverse(NamedTuple):
    """All hereditarily finite sets of rank <= rank, canonically ordered.

    Element counts are 1, 2, 4, 16 for ranks 0 through 3.
    """

    rank: int
    elements: tuple[HFSet, ...]

    @classmethod
    def build(cls, rank: int) -> "HFUniverse":
        if rank < 0:
            raise RankError("rank must be nonnegative")
        if rank > MAX_RANK:
            raise RankError(
                f"rank {rank} exceeds the instance-check budget (max {MAX_RANK})"
            )
        level: set[HFSet] = {frozenset()}
        for _ in range(rank):
            members = sorted(level, key=ackermann)
            level = {
                frozenset(c)
                for r in range(len(members) + 1)
                for c in itertools.combinations(members, r)
            }
        return cls(rank, tuple(sorted(level, key=ackermann)))

    def __contains__(self, s: HFSet) -> bool:
        return s in set(self.elements)

    def membership_table(self) -> dict[tuple[int, int], bool]:
        """(i, j) -> whether element i is a member of element j."""
        return {
            (i, j): (x in y)
            for i, x in enumerate(self.elements)
            for j, y in enumerate(self.elements)
        }


class Zfc1Family(NamedTuple):
    name: str
    instances: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


class Zfc1Report(NamedTuple):
    rank: int
    element_count: int
    families: tuple[Zfc1Family, ...]

    @property
    def total_instances(self) -> int:
        return sum(f.instances for f in self.families)

    @property
    def total_failures(self) -> int:
        return sum(len(f.failures) for f in self.families)

    @property
    def ok(self) -> bool:
        return self.total_failures == 0


def check_zfc1_instances(universe: HFUniverse) -> Zfc1Report:
    """Instance-wise checks of extensionality, pairing, union, powerset,
    and full-subset separation over every element of the universe."""
    elems = universe.elements
    families = [
        _check_extensionality(elems),
        _check_pairing(elems),
        _check_union(elems),
        _check_powerset(elems),
        _check_separation(elems),
    ]
    return Zfc1Report(universe.rank, len(elems), tuple(families))


def _check_extensionality(elems: tuple[HFSet, ...]) -> Zfc1Family:
    failures = []
    instances = 0
    for x, y in itertools.combinations(elems, 2):
        instances += 1
        # Distinct sets must be separated by a member; the universe is
        # transitive, so quantifying witnesses over it is complete.
        if not any((z in x) != (z in y) for z in elems):
            failures.append(f"{render_hf(x)} vs {render_hf(y)}: no separating member")
    return Zfc1Family("extensionality", instances, tuple(failures))


def _check_pairing(elems: tuple[HFSet, ...]) -> Zfc1Family:
    failures = []
    instances = 0
    for i, x in enumerate(elems):
        for y in elems[i:]:
            instances += 1
            pair = frozenset({x, y})
            members = set(elems) | {x, y}
            if not all((z in pair) == (z == x or z == y) for z in members):
                failures.append(f"pair of {render_hf(x)}, {render_hf(y)}")
    return Zfc1Family("pairing", instances, tuple(failures))


def _check_union(elems: tuple[HFSet, ...]) -> Zfc1Family:
    universe = set(elems)
    failures = []
    for x in elems:
        union = frozenset(z for y in x for z in y)
        ok = all((z in union) == any(z in y for y in x) for z in elems)
        # Union lowers rank, so it must land back inside the universe.
        if not ok or union not in universe:
            failures.append(f"union of {render_hf(x)}")
    return Zfc1Family("union", len(elems), tuple(failures))


def _check_powerset(elems: tuple[HFSet, ...]) -> Zfc1Family:
    failures = []
    for x in elems:
        members = sorted(x, key=ackermann)
        power = frozenset(
            frozenset(c)
            for r in range(len(members) + 1)
            for c in itertools.combinations(members, r)
        )
        candidates = set(elems) | power
        if not all((z in power) == z.issubset(x) for z in candidates):
            failures.append(f"powerset of {render_hf(x)}")
    return Zfc1Family("powerset", len(elems), tuple(failures))


def _check_separation(elems: tuple[HFSet, ...]) -> Zfc1Family:
    universe = set(elems)
    failures = []
    instances = 0
    for x in elems:
        members = sorted(x, key=ackermann)
        for r in range(len(members) + 1):
            for chosen in itertools.combinations(members, r):
                instances += 1
                subset = frozenset(chosen)
                keep = set(chosen)
                ok = all((z in subset) == (z in x and z in keep) for z in elems)
                # A subset never raises rank, so it stays in the universe.
                if not ok or subset not in universe:
                    failures.append(
                        f"subset {render_hf(subset)} of {render_hf(x)}"
                    )
    return Zfc1Family("separation", instances, tuple(failures))
