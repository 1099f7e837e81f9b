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

Each family is one comparison, in C over the whole universe, of the
construction under test with an independent reference; only when it fails
are the failures listed, in element order.  Extensionality asks the elements
masked by the universe to be distinct, pairing compares `1 << x | 1 << y`,
union the join of the elements y with `x >> y & 1`, and powerset the code
whose members are the submasks of x, at every code of the universe and every
member of the powerset.  Separation asks every submask to be in the universe,
and reads them from the same walk as powerset.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, combinations_with_replacement, repeat, starmap
from operator import and_, lshift, mul, or_, rshift, xor
from typing import NamedTuple

__all__ = ["HFUniverse", "Zfc1Family", "Zfc1Report", "check_zfc1_instances"]

MAX_RANK = 3


def members(code: int) -> list[int]:
    """The codes of the members of `code`, ascending: its 1-bits."""
    digits = bin(code)[:1:-1]  # lowest bit first
    return list(compress(range(len(digits)), map("1".__eq__, digits)))


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


def _pair(x: int, y: int) -> int:
    return 1 << x | 1 << y


def _union(x: int) -> int:
    return reduce(or_, members(x), 0)


def _powerset(x: int) -> int:
    # Each member m of x doubles the subsets: those without m, and each of
    # them with m added, whose code is 1 << m higher.
    power = 1
    for m in members(x):
        power |= power << (1 << m)
    return power


def _submasks(x: int) -> list[int]:
    """The submasks of x, ascending: each 1-bit of x, lowest first, doubles them."""
    subsets = [0]
    while x:
        low = x & -x
        subsets += list(map(or_, subsets, repeat(low)))
        x ^= low
    return subsets


def check_zfc1_instances(universe: HFUniverse) -> Zfc1Report:
    """Instance-wise checks of extensionality, pairing, union, powerset,
    and full-subset separation over every element of the universe."""
    elems = universe.elements
    # The universe read as a set: `whole >> z & 1` says z is one of its codes.
    whole = sum(map(lshift, repeat(1), set(elems)))
    submasks = list(map(_submasks, elems))
    families = [
        _check_extensionality(elems, whole),
        _check_pairing(elems),
        _check_union(elems, whole),
        _check_powerset(elems, submasks, whole),
        _check_separation(elems, submasks, whole),
    ]
    return Zfc1Report(universe.rank, len(elems), tuple(families))


def _check_extensionality(elems: tuple[int, ...], whole: int) -> Zfc1Family:
    # Distinct sets must be separated by a member; the universe is
    # transitive, so quantifying witnesses over it is complete.
    inside = list(map(and_, elems, repeat(whole)))
    failures = () if len(set(inside)) == len(inside) else [
        f"{render_hf(x)} vs {render_hf(y)}: no separating member"
        for i, x in enumerate(elems)
        for y in elems[i + 1:]
        if not (x ^ y) & whole
    ]
    return Zfc1Family("extensionality", len(elems) * (len(elems) - 1) // 2, tuple(failures))


def _check_pairing(elems: tuple[int, ...]) -> Zfc1Family:
    pairs = list(combinations_with_replacement(elems, 2))
    got = list(starmap(_pair, pairs))
    # x and y are members of the pair, and nothing else is.
    singletons = map(lshift, repeat(1), elems)
    expected = list(starmap(or_, combinations_with_replacement(singletons, 2)))
    failures = () if got == expected else [
        f"pair of {render_hf(x)}, {render_hf(y)}"
        for (x, y), pair, want in zip(pairs, got, expected) if pair != want
    ]
    return Zfc1Family("pairing", len(pairs), tuple(failures))


def _check_union(elems: tuple[int, ...], whole: int) -> Zfc1Family:
    unions = list(map(_union, elems))
    # The reference reads membership in x from its code, not from `members`:
    # each element y joins the reference of every x with `x >> y & 1`.
    reference = [0] * len(elems)
    for y in elems:
        member = map(and_, map(rshift, elems, repeat(y)), repeat(1))
        reference = list(map(or_, reference, map(mul, member, repeat(y))))
    # Union lowers rank, so it must land back inside the universe.
    agree = list(map(and_, unions, repeat(whole))) == list(map(and_, reference, repeat(whole)))
    failures = () if agree and set(elems).issuperset(unions) else [
        f"union of {render_hf(x)}"
        for x, union, ref in zip(elems, unions, reference)
        if (union ^ ref) & whole or not whole >> union & 1
    ]
    return Zfc1Family("union", len(elems), tuple(failures))


def _check_powerset(elems: tuple[int, ...], submasks: list[list[int]], whole: int) -> Zfc1Family:
    powers = list(map(_powerset, elems))
    expected = [sum(map(lshift, repeat(1), subsets)) for subsets in submasks]
    # The reference has the submasks of x as members; the two must agree at
    # every code of the universe and at every member of the powerset.
    wrong = list(map(and_, map(xor, powers, expected), map(or_, powers, repeat(whole))))
    failures = () if not any(wrong) else [
        f"powerset of {render_hf(x)}" for x, bad in zip(elems, wrong) if bad
    ]
    return Zfc1Family("powerset", len(elems), tuple(failures))


def _check_separation(elems: tuple[int, ...], submasks: list[list[int]], whole: int) -> Zfc1Family:
    # A subset never raises rank, so it stays in the universe.
    inside = set(elems).issuperset(chain.from_iterable(submasks))
    failures = () if inside else [
        f"subset {render_hf(subset)} of {render_hf(x)}"
        for x, subsets in zip(elems, submasks)
        for subset in subsets
        if not whole >> subset & 1
    ]
    return Zfc1Family("separation", sum(map(len, submasks)), tuple(failures))
