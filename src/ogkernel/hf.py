"""Hereditarily finite universes and instance-level ZFC-1 checks.

A hereditarily finite (HF) set is its Ackermann code (W. Ackermann, 1937):
the natural number whose 1-bits are the codes of its members.  So the empty
set is 0, {0} is 1, and x is a member of y exactly when `y >> x & 1`.

The only set of rank 0 is the empty set 0, and the sets of rank <= r + 1 are
the subsets of those of rank <= r.  If the latter are the codes below n, their
subsets are exactly the n-bit masks, the codes below 2^n.  So the sets of
rank <= r are the codes below 2↑↑r (2↑↑0 = 1, 2↑↑(r+1) = 2^(2↑↑r)): 1, 2, 4
and 16 of them for ranks 0 through 3.

ZFC-1 reads the classical axioms with functions as primitives, ignoring
first-order definability; separation is therefore checked for *every*
subset of every element, which stays feasible up to rank 3 (16 elements,
each with at most 4 members).
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

__all__ = ["HFUniverse", "Zfc1Family", "Zfc1Report", "check_zfc1_instances"]

MAX_RANK = 3


def members(code: int) -> list[int]:
    """The codes of the members of `code`, ascending: its 1-bits."""
    return [z for z in range(code.bit_length()) if code >> z & 1]


def render_hf(code: int) -> str:
    return "{" + ",".join(render_hf(z) for z in members(code)) + "}"


class HFUniverse(NamedTuple):
    """All hereditarily finite sets of rank <= rank: the codes below 2↑↑rank."""

    rank: int
    elements: tuple[int, ...]

    @classmethod
    def build(cls, rank: int) -> "HFUniverse":
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} exceeds the instance-check budget (max {MAX_RANK})")
        size = 1
        for _ in range(rank):
            size = 1 << size
        return cls(rank, tuple(range(size)))


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


def _pair(x: int, y: int) -> int:
    return 1 << x | 1 << y


def _union(x: int) -> int:
    union = 0
    for y in members(x):
        union |= y
    return union


def _powerset(x: int) -> int:
    # Each member m of x doubles the subsets: those without m, and each of
    # them with m added, whose code is 1 << m higher.
    power = 1
    for m in members(x):
        power |= power << (1 << m)
    return power


def check_zfc1_instances(universe: HFUniverse) -> Zfc1Report:
    """Instance-wise checks of extensionality, pairing, union, powerset,
    and full-subset separation over every element of the universe."""
    elems = universe.elements
    # The universe read as a set: `whole >> z & 1` says z is one of its codes.
    whole = sum(1 << z for z in set(elems))
    families = [
        _check_extensionality(elems, whole),
        _check_pairing(elems),
        _check_union(elems, whole),
        _check_powerset(elems),
        _check_separation(elems, whole),
    ]
    return Zfc1Report(universe.rank, len(elems), tuple(families))


def _check_extensionality(elems: tuple[int, ...], whole: int) -> Zfc1Family:
    # Distinct sets must be separated by a member; the universe is
    # transitive, so quantifying witnesses over it is complete.
    failures = [
        f"{render_hf(x)} vs {render_hf(y)}: no separating member"
        for i, x in enumerate(elems)
        for y in elems[i + 1:]
        if not (x ^ y) & whole
    ]
    return Zfc1Family("extensionality", len(elems) * (len(elems) - 1) // 2, tuple(failures))


def _check_pairing(elems: tuple[int, ...]) -> Zfc1Family:
    failures = []
    for i, x in enumerate(elems):
        for y in elems[i:]:
            pair = _pair(x, y)
            # x and y are members of the pair, and nothing else is.
            if not pair >> x & pair >> y & 1 or pair & ~(1 << x) & ~(1 << y):
                failures.append(f"pair of {render_hf(x)}, {render_hf(y)}")
    return Zfc1Family("pairing", len(elems) * (len(elems) + 1) // 2, tuple(failures))


def _check_union(elems: tuple[int, ...], whole: int) -> Zfc1Family:
    failures = []
    for x in elems:
        union = _union(x)
        # The reference reads membership in x from its code, not from `members`.
        in_some_member = reduce(or_, [y for y in elems if x >> y & 1], 0)
        # Union lowers rank, so it must land back inside the universe.
        if (union ^ in_some_member) & whole or not whole >> union & 1:
            failures.append(f"union of {render_hf(x)}")
    return Zfc1Family("union", len(elems), tuple(failures))


def _check_powerset(elems: tuple[int, ...]) -> Zfc1Family:
    failures = []
    for x in elems:
        power = _powerset(x)
        candidates = elems + tuple(members(power))
        if any((power >> z & 1) != (z & ~x == 0) for z in candidates):
            failures.append(f"powerset of {render_hf(x)}")
    return Zfc1Family("powerset", len(elems), tuple(failures))


def _check_separation(elems: tuple[int, ...], whole: int) -> Zfc1Family:
    failures = []
    instances = 0
    for x in elems:
        instances += 1 << x.bit_count()
        # The submasks of x in ascending order, from 0 up to x itself.
        subset = 0
        while True:
            # A subset never raises rank, so it stays in the universe.
            if not whole >> subset & 1:
                failures.append(f"subset {render_hf(subset)} of {render_hf(x)}")
            if subset == x:
                break
            subset = (subset - x) & x
    return Zfc1Family("separation", instances, tuple(failures))
