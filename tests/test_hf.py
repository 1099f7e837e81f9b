"""Hereditarily finite universes and ZFC-1 instance checks."""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache, reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogkernel import hf
from ogkernel.hf import (
    HFUniverse,
    check_zfc1_instances,
    members,
    render_hf,
)

# Reference model: HF sets as nested frozensets, built and read independently
# of the integer codes `ogkernel.hf` works on.


@lru_cache(maxsize=None)
def ackermann(s: frozenset) -> int:
    """Reference encoder: the binary digits of a set's code are its members."""
    return sum(1 << ackermann(e) for e in s)


def _rank(s: frozenset) -> int:
    return 1 + max((_rank(e) for e in s), default=-1)


def _render(s: frozenset) -> str:
    return "{" + ",".join(_render(e) for e in sorted(s, key=ackermann)) + "}"


def _levels(top: int) -> list[set[frozenset]]:
    """The sets of rank <= r for r = 0..top: iterate powersets from {{}}."""
    level = {frozenset()}
    levels = [level]
    for _ in range(top):
        items = list(level)
        level = {
            frozenset(c)
            for r in range(len(items) + 1)
            for c in itertools.combinations(items, r)
        }
        levels.append(level)
    return levels


def _decoded_below_256() -> dict[int, frozenset]:
    """Every set whose members are among the first 8 sets of rank <= 3."""
    first8 = sorted(_levels(3)[3], key=ackermann)[:8]
    sets = [
        frozenset(c) for r in range(9) for c in itertools.combinations(first8, r)
    ]
    return {ackermann(s): s for s in sets}


def test_universe_counts():
    assert [len(HFUniverse.build(r).elements) for r in range(4)] == [1, 2, 4, 16]


def test_universe_matches_independent_construction():
    for rank, level in enumerate(_levels(3)):
        universe = HFUniverse.build(rank)
        assert universe.elements == tuple(sorted(ackermann(s) for s in level))
        assert max(_rank(s) for s in level) == rank


def test_universe_is_canonically_ordered_and_transitive():
    universe = HFUniverse.build(3)
    assert universe.elements == tuple(range(16))  # rank-3 sets are exactly codes 0..15
    for code in universe.elements:
        for member in members(code):
            assert member in universe.elements


def test_membership():
    empty, single = 0, 1  # {} and {{}}
    assert single in HFUniverse.build(1).elements
    assert single >> empty & 1 and members(single) == [empty]
    assert not empty >> single & 1 and members(empty) == []


def test_codes_agree_with_decoded_sets():
    decoded = _decoded_below_256()
    assert sorted(decoded) == list(range(256))
    for code, s in decoded.items():
        assert members(code) == sorted(ackermann(e) for e in s)
        assert render_hf(code) == _render(s)


def test_rank_bounds():
    with pytest.raises(ValueError, match="rank 4 exceeds the instance-check budget"):
        HFUniverse.build(4)
    with pytest.raises(ValueError, match="rank must be nonnegative"):
        HFUniverse.build(-1)


def test_rank0_vacuous():
    report = check_zfc1_instances(HFUniverse.build(0))
    assert all(f.ok for f in report.families)
    families = {f.name: f for f in report.families}
    assert families["extensionality"].instances == 0
    assert families["pairing"].instances == 1  # the pair {0,0} = {0}


def test_rank2_all_hold():
    report = check_zfc1_instances(HFUniverse.build(2))
    assert all(f.ok for f in report.families) and report.element_count == 4


def test_rank3_counts_and_zero_failures():
    report = check_zfc1_instances(HFUniverse.build(3))
    assert all(f.ok for f in report.families)
    families = {f.name: f for f in report.families}
    # oracle: unordered pairs with repetition from 16 elements
    assert families["pairing"].instances == 16 * 17 // 2 == 136
    assert families["extensionality"].instances == 16 * 15 // 2
    assert families["union"].instances == 16
    assert families["powerset"].instances == 16
    # oracle: all subsets of every element
    expected = sum(2 ** len(s) for s in _levels(3)[3])
    assert families["separation"].instances == expected == 81
    assert report.total_instances == 369


def test_render_hf():
    assert render_hf(0) == "{}"
    assert render_hf(1) == "{{}}"
    assert render_hf(3) == "{{},{{}}}"


# Each family fails on a damaged universe or construction.


def _failing(report) -> dict[str, tuple[str, ...]]:
    return {f.name: f.failures for f in report.families if not f.ok}


def test_repeated_code_fails_extensionality():
    report = check_zfc1_instances(HFUniverse(3, tuple(range(16)) + (5,)))
    assert _failing(report) == {
        "extensionality": ("{{},{{{}}}} vs {{},{{{}}}}: no separating member",)
    }


@pytest.mark.parametrize(
    "broken, count",
    [
        (lambda x, y: 1 << x | 1 << (y + 1), 136),  # adds a member
        (lambda x, y: 1 << x, 120),  # drops y unless y == x
    ],
)
def test_broken_pairing_fails(monkeypatch, broken, count):
    monkeypatch.setattr(hf, "_pair", broken)
    failures = _failing(check_zfc1_instances(HFUniverse.build(3)))
    assert list(failures) == ["pairing"] and len(failures["pairing"]) == count
    assert f"pair of {render_hf(0)}, {render_hf(1)}" in failures["pairing"]


def test_union_outside_universe_fails():
    # Without 3 = {{},{{}}}, every x whose members' members are exactly {}
    # and {{}} has its union outside.  The universe is no longer transitive
    # (8 = {3}), so x and x + 8 lose their one separating member, and 3 is a
    # missing subset of 7, 11 and 15.
    report = check_zfc1_instances(HFUniverse(3, tuple(c for c in range(16) if c != 3)))
    failures = _failing(report)
    assert set(failures) == {"extensionality", "union", "separation"}
    assert len(failures["extensionality"]) == 7 and len(failures["separation"]) == 3
    assert failures["union"] == tuple(f"union of {render_hf(x)}" for x in (6, 7, *range(8, 16)))


def test_broken_union_fails(monkeypatch):
    union = hf._union
    monkeypatch.setattr(hf, "_union", lambda x: union(x) | 1)  # adds {} to every union
    failures = _failing(check_zfc1_instances(HFUniverse.build(3)))
    assert failures == {"union": tuple(f"union of {render_hf(x)}" for x in (0, 1, 4, 5))}


def test_union_reads_membership_from_the_codes(monkeypatch):
    # Drop each set's least member from `members`: `_union` then misses that
    # member's own members, which changes the unions of the codes 2, 4, 6 and
    # 8.  The reference reads membership from the codes, so all four fail.
    members = hf.members
    monkeypatch.setattr(hf, "members", lambda code: members(code)[1:])
    failures = _failing(check_zfc1_instances(HFUniverse.build(3)))
    assert len(failures["union"]) == 4


@pytest.mark.parametrize(
    "damage",
    [
        lambda x, power: power & ~(1 << x),  # drops x itself
        lambda x, power: power | 1 << 16,  # adds {4}, a code outside the universe
    ],
)
def test_broken_powerset_fails(monkeypatch, damage):
    powerset = hf._powerset
    monkeypatch.setattr(hf, "_powerset", lambda x: damage(x, powerset(x)))
    failures = _failing(check_zfc1_instances(HFUniverse.build(3)))
    assert failures == {"powerset": tuple(f"powerset of {render_hf(x)}" for x in range(16))}


def test_subset_outside_universe_fails():
    report = check_zfc1_instances(HFUniverse(3, tuple(c for c in range(16) if c != 5)))
    assert _failing(report) == {
        "separation": tuple(f"subset {render_hf(5)} of {render_hf(x)}" for x in (7, 13, 15))
    }


# The five family checks as they were written before each family became one
# comparison with a reference: a scan per instance.  They read the
# constructions under test through the module, so a patch reaches both.


def _reference_families(universe: HFUniverse) -> dict[str, tuple[int, tuple[str, ...]]]:
    elems = universe.elements
    whole = sum(1 << z for z in set(elems))
    families = {}

    failures = [
        f"{render_hf(x)} vs {render_hf(y)}: no separating member"
        for i, x in enumerate(elems)
        for y in elems[i + 1:]
        if not (x ^ y) & whole
    ]
    families["extensionality"] = (len(elems) * (len(elems) - 1) // 2, tuple(failures))

    failures = []
    for i, x in enumerate(elems):
        for y in elems[i:]:
            pair = hf._pair(x, y)
            if not pair >> x & pair >> y & 1 or pair & ~(1 << x) & ~(1 << y):
                failures.append(f"pair of {render_hf(x)}, {render_hf(y)}")
    families["pairing"] = (len(elems) * (len(elems) + 1) // 2, tuple(failures))

    failures = []
    for x in elems:
        union = hf._union(x)
        in_some_member = reduce(or_, [y for y in elems if x >> y & 1], 0)
        if (union ^ in_some_member) & whole or not whole >> union & 1:
            failures.append(f"union of {render_hf(x)}")
    families["union"] = (len(elems), tuple(failures))

    failures = []
    for x in elems:
        power = hf._powerset(x)
        candidates = elems + tuple(hf.members(power))
        if any((power >> z & 1) != (z & ~x == 0) for z in candidates):
            failures.append(f"powerset of {render_hf(x)}")
    families["powerset"] = (len(elems), tuple(failures))

    failures = []
    instances = 0
    for x in elems:
        instances += 1 << x.bit_count()
        subset = 0
        while True:
            if not whole >> subset & 1:
                failures.append(f"subset {render_hf(subset)} of {render_hf(x)}")
            if subset == x:
                break
            subset = (subset - x) & x
    families["separation"] = (instances, tuple(failures))
    return families


def _families(universe: HFUniverse) -> dict[str, tuple[int, tuple[str, ...]]]:
    report = check_zfc1_instances(universe)
    return {f.name: (f.instances, f.failures) for f in report.families}


@st.composite
def _damaged_universes(draw) -> HFUniverse:
    """Rank-3 codes with some left out, one repeated, one of 16 or more, in
    any order."""
    codes = sorted(draw(st.sets(st.integers(0, 15))))
    if codes and draw(st.booleans()):
        codes.append(draw(st.sampled_from(codes)))
    if draw(st.booleans()):
        codes.append(draw(st.one_of(st.integers(16, 1023), st.just(1 << 12))))
    return HFUniverse(3, tuple(draw(st.permutations(codes))))


@settings(max_examples=200, deadline=None)
@given(_damaged_universes())
def test_families_fail_as_the_per_instance_scans_do(universe):
    assert _families(universe) == _reference_families(universe)


@pytest.mark.parametrize(
    "name, damage, failing",
    [
        ("_union", lambda union: lambda x: union(x) ^ 1, {"union": 16}),
        ("_pair", lambda pair: lambda x, y: pair(x, y) | 1, {"pairing": 120}),
        ("members", lambda members: lambda code: members(code)[code & 1:], {"powerset": 8}),
    ],
)
def test_one_fault_fails_only_its_family(monkeypatch, name, damage, failing):
    # `members(code)[code & 1:]` drops member 0 wherever the code has it.
    monkeypatch.setattr(hf, name, damage(getattr(hf, name)))
    universe = HFUniverse.build(3)
    families = _families(universe)
    assert {name: len(f) for name, (_, f) in families.items() if f} == failing
    assert families == _reference_families(universe)


def _line_events(run) -> int:
    lines = 0

    def on_event(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return on_event

    previous = sys.gettrace()
    sys.settrace(on_event)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines


def test_the_rank_3_checks_make_a_bounded_number_of_calls(python_calls):
    # Each family is one comparison with a reference built in C: the calls
    # left are the constructions under test, about one per instance of
    # pairing and a few per element otherwise.  A scan per instance made 666.
    calls = python_calls(lambda: check_zfc1_instances(HFUniverse.build(3)))
    assert calls <= 300, calls


def test_the_union_reference_grows_with_the_elements_not_their_codes():
    # 1 << 12 has the one member 12, which is not in this universe, so its
    # union {12} falls outside it.  A reference over every code below
    # 1 << 12 would run about 12,400 line events.
    universe = HFUniverse(3, (0, 1, 1 << 12))
    elems, whole = universe.elements, 1 | 1 << 1 | 1 << (1 << 12)
    family = hf._check_union(elems, whole)
    assert family.failures == _reference_families(universe)["union"][1]
    assert family.failures == (f"union of {render_hf(1 << 12)}",)
    lines = _line_events(lambda: hf._check_union(elems, whole))
    assert lines < 200, lines
