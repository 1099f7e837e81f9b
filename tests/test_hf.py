"""Hereditarily finite universes and ZFC-1 instance checks."""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

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
    assert report.ok
    families = {f.name: f for f in report.families}
    assert families["extensionality"].instances == 0
    assert families["pairing"].instances == 1  # the pair {0,0} = {0}


def test_rank2_all_hold():
    report = check_zfc1_instances(HFUniverse.build(2))
    assert report.ok and report.element_count == 4


def test_rank3_counts_and_zero_failures():
    report = check_zfc1_instances(HFUniverse.build(3))
    assert report.ok
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
    assert report.total_failures == 0


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
