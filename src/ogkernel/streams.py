"""Binary streams on the naturals: family stages, coherence, unions, periodicity.

This is the desk-scale coherent-limit laboratory.  A "small model" of
subcollections of the naturals is the class of eventually periodic bit
streams; it is closed under finite-support embedding, xor, shift, and
single-bit flips, yet the squares indicator — the union of its own finite
restrictions, all of which lie in the class — does not belong to it.

Stage n of a family is the prefix of a stream up to n, as n + 1 bytes, and
the union of a coherent catalog family is itself a catalog stream.  Streams
and families are terms (`terms.BitStream`, `terms.Family`): this module reads
no spec text, whose grammar `ogkernel.surface` owns.

The gap demonstration checks the finite restrictions and the closure by
witnesses known in closed form, the closure exhaustively over a fixed family
of small members; it reads the union off the restriction family's stages, and
searches only to show that the limit is outside the class.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import NamedTuple, Sequence

from .terms import BitStream, Family

__all__ = [
    "Periodic",
    "SquaresIndicator",
    "PowersOfTwoIndicator",
    "FiniteSupport",
    "XorOf",
    "ShiftOf",
    "FlipAt",
    "CoherenceError",
    "BoundError",
    "MAX_HORIZON",
    "MAX_PERIOD_BOUND",
    "family_stages",
    "family_limit",
    "is_coherent",
    "ep_decide",
    "EpVerdict",
    "is_ep_witness",
    "xor_witness",
    "shift_witness",
    "flip_witness",
    "demonstrate_gap",
    "GapReport",
]


class CoherenceError(ValueError):
    """A later family stage disagrees with an earlier one."""

    def __init__(self, stage: int, index: int):
        super().__init__(f"family stage {stage} disagrees at index {index}")
        self.stage = stage
        self.index = index


class BoundError(ValueError):
    """A search bound precondition was violated."""


# Caps on one ep_decide query, which makes `period_bound` integer shift-and-xor
# passes over a prefix of `horizon + 1` bits: at both caps it runs in about ten
# milliseconds, and every larger request is refused rather than attempted.
MAX_HORIZON = 65536
MAX_PERIOD_BOUND = 1024


# ---------------------------------------------------------------------------
# Stream catalog: each stream has `value_at(n)`, the bit at n, and
# `prefix(n)`, the bits at 0..n as n + 1 bytes of 0 or 1.


def _check_bits(bits: Sequence[int], what: str) -> None:
    if not set(bits) <= {0, 1}:
        raise ValueError(f"{what} must consist of 0/1 bits")


class Periodic(BitStream, fields="preperiod period"):
    __slots__ = ()
    spec = "periodic:{}/{}"

    def __new__(cls, preperiod: tuple[int, ...], period: tuple[int, ...]):
        if not period:
            raise ValueError("period must be nonempty")
        _check_bits(preperiod, "preperiod")
        _check_bits(period, "period")
        return tuple.__new__(cls, (cls.__name__, preperiod, period))

    def value_at(self, n: int) -> int:
        if n < len(self.preperiod):
            return self.preperiod[n]
        return self.period[(n - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> bytes:
        reps = max(n + 1 - len(self.preperiod), 0) // len(self.period) + 1
        return (bytes(self.preperiod) + bytes(self.period) * reps)[: n + 1]


class SquaresIndicator(BitStream):
    __slots__ = ()
    spec = "squares"

    def value_at(self, n: int) -> int:
        return 1 if math.isqrt(n) ** 2 == n else 0

    def prefix(self, n: int) -> bytes:
        out = bytearray(n + 1)
        for k in range(math.isqrt(n) + 1):
            out[k * k] = 1
        return bytes(out)


class PowersOfTwoIndicator(BitStream):
    __slots__ = ()
    spec = "pow2"

    def value_at(self, n: int) -> int:
        return 1 if n > 0 and n & (n - 1) == 0 else 0

    def prefix(self, n: int) -> bytes:
        out = bytearray(n + 1)
        k = 1
        while k <= n:
            out[k] = 1
            k *= 2
        return bytes(out)


class FiniteSupport(BitStream, fields="bits"):
    __slots__ = ()
    spec = "finite:{}"

    def __new__(cls, bits: tuple[int, ...]):
        _check_bits(bits, "bits")
        return tuple.__new__(cls, (cls.__name__, bits))

    def value_at(self, n: int) -> int:
        return self.bits[n] if n < len(self.bits) else 0

    def prefix(self, n: int) -> bytes:
        return bytes(self.bits[: n + 1]) + bytes(max(n + 1 - len(self.bits), 0))


class XorOf(BitStream, fields="left right"):
    __slots__ = ()
    spec = "xor({},{})"

    def value_at(self, n: int) -> int:
        return self.left.value_at(n) ^ self.right.value_at(n)

    def prefix(self, n: int) -> bytes:
        # Every byte is 0 or 1, so xor of the big-endian integers is bytewise.
        left, right = (int.from_bytes(s.prefix(n), "big") for s in (self.left, self.right))
        return (left ^ right).to_bytes(n + 1, "big")


class ShiftOf(BitStream, fields="base offset"):
    """Left shift: value_at(n) = base.value_at(n + offset)."""

    __slots__ = ()
    spec = "shift({},{})"

    def __new__(cls, base: BitStream, offset: int):
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        return tuple.__new__(cls, (cls.__name__, base, offset))

    def value_at(self, n: int) -> int:
        return self.base.value_at(n + self.offset)

    def prefix(self, n: int) -> bytes:
        return self.base.prefix(n + self.offset)[self.offset :]


class FlipAt(BitStream, fields="base index"):
    __slots__ = ()
    spec = "flip({},{})"

    def __new__(cls, base: BitStream, index: int):
        if index < 0:
            raise ValueError("index must be nonnegative")
        return tuple.__new__(cls, (cls.__name__, base, index))

    def value_at(self, n: int) -> int:
        v = self.base.value_at(n)
        return v ^ 1 if n == self.index else v

    def prefix(self, n: int) -> bytes:
        out = bytearray(self.base.prefix(n))
        if self.index <= n:
            out[self.index] ^= 1
        return bytes(out)


# ---------------------------------------------------------------------------
# Coherence of stages


def is_coherent(stages: Sequence[bytes]) -> int | None:
    """The first stage that is not a prefix of the next one's, or None when
    each is; `stages[n]` holds the bits at 0..n."""
    for n in range(len(stages) - 1):
        if stages[n + 1][: n + 1] != stages[n]:
            return n + 1
    return None


# ---------------------------------------------------------------------------
# Families (shared with the kernel's coherent-limit rule)


def family_stages(family: Family, last: int) -> list[bytes]:
    """Stages 0..last of a family (see `terms.Family`): stage n is the prefix
    of its stream up to n, with the bit at the corruption's index flipped from
    its stage on (an incoherent family when index < stage, used as a negative
    control).  Every stage is a slice of one prefix of the stream."""
    bits = flipped = family.base.prefix(last)
    stage, index = family.corruption or (last + 1, last + 1)
    if index <= last:
        flipped = bits[:index] + bytes((bits[index] ^ 1,)) + bits[index + 1 :]
    return [(flipped if n >= stage else bits)[: n + 1] for n in range(last + 1)]


def family_limit(family: Family) -> BitStream:
    """The exact coherence decision for a family, and the union of a
    coherent family: the stream each stage is a prefix of.

    ``restrictions(s)`` is always coherent, with union s.  ``corrupt(s,k,i)``
    first flips bit i at stage k; stage k - 1 has bit i in its domain exactly
    when i < k, so that is when the family is incoherent, and CoherenceError
    names (k, i), the first stage and index that disagree with the stage
    before.  Otherwise no stage before k reaches index i, and the union is s
    with bit i flipped.
    """
    if family.corruption is None:
        return family.base
    stage, index = family.corruption
    if index < stage:
        raise CoherenceError(stage, index)
    return FlipAt(family.base, index)


# ---------------------------------------------------------------------------
# Eventually-periodic membership


class EpVerdict(NamedTuple):
    member: bool
    witness: tuple[int, int] | None
    preperiod_bound: int
    period_bound: int
    horizon: int

    def describe(self) -> str:
        if self.member:
            p, q = self.witness  # type: ignore[misc]
            return f"member, witness (p={p}, q={q})"
        return (
            f"non-member up to bounds ({self.preperiod_bound}, "
            f"{self.period_bound}, {self.horizon})"
        )


def ep_decide(
    s: BitStream, preperiod_bound: int, period_bound: int, horizon: int
) -> EpVerdict:
    """Search all (p <= preperiod_bound, 1 <= q <= period_bound) witnesses.

    A witness (p, q) requires value_at(i) == value_at(i+q) for all
    p <= i <= horizon - q.  The first witness in lexicographic (p, q) order
    is returned.  The horizon must be at least preperiod_bound +
    2 * period_bound so a claimed witness is cross-checked over at least one
    full extra period, and at most MAX_HORIZON; the preperiod bound at least
    0 and the period bound at most MAX_PERIOD_BOUND.  Bounds outside these
    ranges raise BoundError.
    """
    if preperiod_bound < 0:
        raise BoundError("preperiod bound must be nonnegative")
    if period_bound < 1:
        raise BoundError("period bound must be at least 1")
    if period_bound > MAX_PERIOD_BOUND:
        raise BoundError(
            f"period bound {period_bound} above the maximum {MAX_PERIOD_BOUND}"
        )
    if horizon > MAX_HORIZON:
        raise BoundError(f"horizon {horizon} above the maximum {MAX_HORIZON}")
    if horizon < preperiod_bound + 2 * period_bound:
        raise BoundError(
            f"horizon {horizon} below preperiod_bound + 2*period_bound = "
            f"{preperiod_bound + 2 * period_bound}"
        )
    # Bit i of x is the value at i, so for i <= horizon - q bit i of x ^ x >> q
    # is set when the values at i and i + q differ: valid_from[q - 1], the least
    # p with no mismatch at i >= p for lag q, is one past the highest such bit.
    x = int(s.prefix(horizon).translate(bytes.maketrans(b"\0\1", b"01"))[::-1], 2)
    full = (1 << horizon + 1) - 1
    valid_from = [((x ^ x >> q) & full >> q).bit_length() for q in range(1, period_bound + 1)]
    # The first witness takes the least preperiod any lag admits, then the
    # least lag admitting it.
    p = min(valid_from)
    if p > preperiod_bound:
        return EpVerdict(False, None, preperiod_bound, period_bound, horizon)
    return EpVerdict(
        True, (p, valid_from.index(p) + 1), preperiod_bound, period_bound, horizon
    )


def is_ep_witness(s: BitStream, p: int, q: int, horizon: int) -> bool:
    """Direct scan: does (p, q) witness eventual periodicity up to `horizon`?"""
    if q < 1 or p < 0 or horizon - q < p:
        return False
    arr = s.prefix(horizon)
    return arr[p : horizon + 1 - q] == arr[p + q :]


def xor_witness(w1: tuple[int, int], w2: tuple[int, int]) -> tuple[int, int]:
    return max(w1[0], w2[0]), math.lcm(w1[1], w2[1])


def shift_witness(w: tuple[int, int], offset: int) -> tuple[int, int]:
    return max(w[0] - offset, 0), w[1]


def flip_witness(w: tuple[int, int], index: int) -> tuple[int, int]:
    return max(w[0], index + 1), w[1]


# ---------------------------------------------------------------------------
# The gap demonstration

_RESTRICTION_STAGES = 256
_CLOSURE_HORIZON = 256


class GapReport(NamedTuple):
    """Machine-checked sub-results of the missing-limit demonstration, as
    (name, ok, detail) triples:

    (a) every finite restriction, extended by zeros, holds its closed-form
        witness, so it is in the small model;
    (b) the small model is closed under xor/shift/flip: every case over a
        fixed family of small members holds its predicted witness;
    (c) the diagonal of the restriction family's stages is the base stream;
    (d) the base stream itself is not in the small model (up to bounds).
    """

    base_spec: str
    sub_results: tuple[tuple[str, bool, str], ...]
    base_verdict: EpVerdict
    conclusion: str
    passed: bool


def demonstrate_gap(
    base: BitStream = SquaresIndicator(),
    *,
    preperiod_bound: int = 64,
    period_bound: int = 64,
    horizon: int = 4096,
) -> GapReport:
    """Run the four sub-checks on the stream `base` and draw (or withdraw)
    the conclusion.

    With the default squares indicator the small model contains every finite
    stage of the restriction family but not its coherent limit.  Substituting
    an eventually periodic base stream flips sub-result (d) and
    the conclusion is withdrawn — the control experiment.  Only (d) searches:
    (a) and (b) check witnesses known in closed form.
    """
    bits = base.prefix(_RESTRICTION_STAGES)
    total = _RESTRICTION_STAGES + 1

    # (a) restriction n, extended by zeros, is constant from n + 1 on: the
    # witness (n + 1, 1) holds when bits n + 1..n + 3 of its prefix agree.
    restrictions = sum(
        is_ep_witness(FiniteSupport(tuple(bits[: n + 1])), n + 1, 1, n + 3)
        for n in range(total)
    )

    # (b) the family: every Periodic with preperiod (), 0 or 1 and period 0, 1,
    # 01 or 10, and every FiniteSupport of at most one bit, each with its
    # constructed witness.  Every xor pair, shift by 0, 1, 3 and flip at 0, 1, 4
    # of it holds the witness the transforms predict.
    members = [
        *((Periodic(pre, per), (len(pre), len(per)))
          for pre in ((), (0,), (1,)) for per in ((0,), (1,), (0, 1), (1, 0))),
        *((FiniteSupport(one), (len(one), 1)) for one in ((), (0,), (1,))),
    ]
    cases = [
        *((XorOf(s1, s2), xor_witness(w1, w2))
          for (s1, w1), (s2, w2) in combinations_with_replacement(members, 2)),
        *((ShiftOf(s, k), shift_witness(w, k)) for s, w in members for k in (0, 1, 3)),
        *((FlipAt(s, i), flip_witness(w, i)) for s, w in members for i in (0, 1, 4)),
    ]
    closures = sum(is_ep_witness(c, *w, _CLOSURE_HORIZON) for c, w in cases)

    # (c) stage m of the restriction family decides bit m of its union.
    stages = family_stages(Family(base, None), _RESTRICTION_STAGES)
    diagonal = bytes(stage[m] for m, stage in enumerate(stages))

    # (d) the base stream itself is outside the class, up to bounds.
    base_verdict = ep_decide(base, preperiod_bound, period_bound, horizon)

    sub_results = (
        (
            "finite-restrictions-in-model",
            restrictions == total,
            f"{restrictions}/{total} restrictions extended by zeros are eventually periodic",
        ),
        (
            "closure-spot-checks",
            closures == len(cases),
            f"{closures}/{len(cases)} xor/shift/flip closure cases of {len(members)} small "
            f"members hold their predicted witnesses up to horizon {_CLOSURE_HORIZON}",
        ),
        (
            "union-round-trip",
            diagonal == bits,
            f"union of restrictions matches {base} up to stage {_RESTRICTION_STAGES}",
        ),
        ("limit-outside-model", not base_verdict.member, f"{base}: {base_verdict.describe()}"),
    )
    passed = all(ok for _, ok, _ in sub_results)
    if passed:
        conclusion = (
            f"the small model contains every finite stage of {base} "
            "but not the coherent limit"
        )
    elif base_verdict.member:
        conclusion = (
            f"withdrawn: {base} is itself eventually periodic "
            f"({base_verdict.describe()}); no gap demonstrated"
        )
    else:
        conclusion = "withdrawn: a sub-check failed; no gap demonstrated"
    return GapReport(str(base), sub_results, base_verdict, conclusion, passed)
