"""Coherent-limit laboratory: family stages, unions, periodicity search."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogkernel import streams
from ogkernel.semantics import default_model, verify_judgment
from ogkernel.streams import (
    MAX_HORIZON,
    MAX_PERIOD_BOUND,
    BoundError,
    CoherenceError,
    FiniteSupport,
    FlipAt,
    Periodic,
    PowersOfTwoIndicator,
    ShiftOf,
    SquaresIndicator,
    XorOf,
    demonstrate_gap,
    ep_decide,
    family_limit,
    family_stages,
    flip_witness,
    is_coherent,
    is_ep_witness,
    shift_witness,
    xor_witness,
)
from ogkernel.surface import MAX_COMBINATORS, StreamSpecError, parse_family, parse_stream_spec
from ogkernel.terms import Family, FamilySpec, Ident, IsCoherentFamily


def test_restriction_stages_are_prefixes():
    assert family_stages(Family(SquaresIndicator(), None), 5)[5] == bytes((1, 1, 0, 0, 1, 0))
    assert family_stages(Family(Periodic((), (1, 0)), None), 3)[3] == bytes((1, 0, 1, 0))
    assert family_stages(Family(PowersOfTwoIndicator(), None), 0) == [bytes((0,))]
    for spec in ("squares", "finite:11", "periodic:0/1"):
        stream = parse_stream_spec(spec)
        assert family_stages(Family(stream, None), 0) == [bytes((stream.value_at(0),))]


def test_prefix_matches_value_at():
    streams = [
        SquaresIndicator(),
        PowersOfTwoIndicator(),
        Periodic((1, 0, 1), (0, 0, 1)),
        FiniteSupport((1, 0, 1, 1)),
        XorOf(SquaresIndicator(), Periodic((), (1, 0))),
        ShiftOf(SquaresIndicator(), 3),
        FlipAt(PowersOfTwoIndicator(), 5),
    ]
    for s in streams:
        prefix = s.prefix(200)
        assert list(prefix) == [s.value_at(i) for i in range(201)]


def test_is_coherent_examples():
    fam = [SquaresIndicator().prefix(n) for n in range(17)]
    assert is_coherent(fam) is None
    # flip bit 3 of stage 7: violated at the 6 -> 7 transition
    bits = bytearray(fam[7])
    bits[3] ^= 1
    fam[7] = bytes(bits)
    assert is_coherent(fam) == 7
    assert is_coherent([SquaresIndicator().prefix(0)]) is None  # singleton, vacuous


def test_monotone_coherence():
    # coherent at N implies coherent at every shorter prefix
    rng = random.Random(7)
    for _ in range(50):
        stream = Periodic(
            tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3))),
            tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4))),
        )
        fam = [stream.prefix(n) for n in range(24)]
        assert is_coherent(fam) is None
        for cut in range(1, 24):
            assert is_coherent(fam[:cut]) is None


def test_family_limit_round_trip():
    for spec in ("pow2", "finite:", "squares"):
        stream = parse_stream_spec(spec)
        assert family_limit(Family(stream, None)) == stream
        assert family_limit(Family(stream, None)).prefix(4096) == stream.prefix(4096)
    assert family_limit(Family(SquaresIndicator(), (3, 7))) == FlipAt(SquaresIndicator(), 7)


def test_family_limit_coherence_error():
    for descriptor, violation in (("corrupt(squares,3,1)", (3, 1)), ("corrupt(pow2,1,0)", (1, 0))):
        with pytest.raises(CoherenceError) as exc:
            family_limit(parse_family(descriptor))
        assert (exc.value.stage, exc.value.index) == violation


# One spec of each of the seven catalog stream kinds.
_CATALOG_KINDS = (
    "periodic:10/011",
    "squares",
    "pow2",
    "finite:1101",
    "xor(squares,periodic:/10)",
    "shift(pow2,3)",
    "flip(squares,6)",
)


def test_family_limit_is_the_diagonal_union():
    # stage m holds the bits at 0..m, so the union's bit m is stage m's last
    for spec in _CATALOG_KINDS:
        descriptors = [f"restrictions({spec})"] + [
            f"corrupt({spec},{k},{i})" for k in range(8) for i in range(10) if i >= k
        ]
        for descriptor in map(parse_family, descriptors):
            stages = family_stages(descriptor, 59)
            diagonal = bytes(stage[m] for m, stage in enumerate(stages))
            assert family_limit(descriptor).prefix(59) == diagonal, descriptor


def test_ep_decide_examples():
    # lexicographically first witness; (0, 2) beats the constructed (1, 2)
    verdict = ep_decide(Periodic((1,), (0, 1)), 8, 8, 64)
    assert verdict.member and verdict.witness == (0, 2)
    verdict = ep_decide(FiniteSupport((1, 1, 0, 1)), 8, 8, 64)
    assert verdict.member and verdict.witness == (4, 1)
    verdict = ep_decide(SquaresIndicator(), 64, 64, 4096)
    assert not verdict.member and verdict.witness is None


def test_ep_decide_bound_errors():
    with pytest.raises(BoundError):
        ep_decide(SquaresIndicator(), 64, 64, 100)  # horizon below p + 2q
    with pytest.raises(BoundError):
        ep_decide(SquaresIndicator(), 4, 0, 64)


def test_ep_decide_caps():
    squares = SquaresIndicator()
    started = time.perf_counter()
    # the worst query the caps allow is answered, and quickly
    verdict = ep_decide(
        squares, MAX_HORIZON - 2 * MAX_PERIOD_BOUND, MAX_PERIOD_BOUND, MAX_HORIZON
    )
    assert not verdict.member
    assert time.perf_counter() - started < 1.0
    with pytest.raises(BoundError, match="period bound 1025 above the maximum 1024"):
        ep_decide(squares, 0, MAX_PERIOD_BOUND + 1, MAX_HORIZON)
    with pytest.raises(BoundError, match="horizon 65537 above the maximum 65536"):
        ep_decide(squares, 0, 1, MAX_HORIZON + 1)
    with pytest.raises(BoundError):
        ep_decide(squares, 99999999, 99999999, 999999999)


def _naive_ep(stream, pb, qb, horizon):
    """Independent oracle for ep_decide: scan every (p, q) pair directly."""
    values = [stream.value_at(i) for i in range(horizon + 1)]
    for p in range(pb + 1):
        for q in range(1, qb + 1):
            if all(values[i] == values[i + q] for i in range(p, horizon - q + 1)):
                return (p, q)
    return None


def test_ep_decide_agrees_with_naive_search():
    rng = random.Random(42)
    for _ in range(40):
        kind = rng.randrange(3)
        if kind == 0:
            stream = Periodic(
                tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4))),
                tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4))),
            )
        elif kind == 1:
            stream = FiniteSupport(tuple(rng.randint(0, 1) for _ in range(6)))
        else:
            stream = SquaresIndicator()
        # fixed bounds, then random ones that may cut the first witness off
        pb, qb = rng.randint(0, 8), rng.randint(1, 6)
        for bounds in ((6, 5, 32), (pb, qb, pb + 2 * qb + rng.randint(0, 20))):
            expected = _naive_ep(stream, *bounds)
            verdict = ep_decide(stream, *bounds)
            assert verdict.witness == expected
            assert verdict.member == (expected is not None)


_bits = st.text("01", max_size=12)
_leaf_specs = (
    st.sampled_from(["squares", "pow2"])
    | st.builds("periodic:{}/{}".format, _bits, st.text("01", min_size=1, max_size=6))
    | st.builds("finite:{}".format, _bits)
)
_stream_specs = st.recursive(
    _leaf_specs,
    lambda inner: st.builds("xor({},{})".format, inner, inner)
    | st.builds("shift({},{})".format, inner, st.integers(0, 20))
    | st.builds("flip({},{})".format, inner, st.integers(0, 80)),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(
    _stream_specs,
    st.integers(0, 40),
    st.integers(0, 8),
    st.integers(1, 6),
    st.integers(0, 20),
)
def test_prefix_bytes_and_ep_decide_property(spec, n, pb, qb, extra):
    # n often falls inside a pre-period and below flip indices
    stream = parse_stream_spec(spec)
    expected = bytes(stream.value_at(i) for i in range(n + 1))
    assert stream.prefix(n) == expected
    assert family_stages(Family(stream, None), n)[n] == expected
    assert family_limit(Family(stream, None)).prefix(n) == expected
    horizon = pb + 2 * qb + extra
    assert ep_decide(stream, pb, qb, horizon).witness == _naive_ep(stream, pb, qb, horizon)


def test_ep_witness_soundness():
    # any returned witness survives a direct scan to the horizon
    rng = random.Random(13)
    for _ in range(100):
        stream = XorOf(
            Periodic(
                tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4))),
                tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5))),
            ),
            FiniteSupport(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5)))),
        )
        verdict = ep_decide(stream, 16, 12, 128)
        assert verdict.member
        p, q = verdict.witness
        assert is_ep_witness(stream, p, q, 128)


def test_closure_witness_transforms():
    rng = random.Random(99)
    for _ in range(100):
        pre1 = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        per1 = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        s1, w1 = Periodic(pre1, per1), (len(pre1), len(per1))
        pre2 = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        per2 = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        s2, w2 = Periodic(pre2, per2), (len(pre2), len(per2))
        k, i = rng.randint(0, 6), rng.randint(0, 12)
        cases = [
            (XorOf(s1, s2), xor_witness(w1, w2)),
            (ShiftOf(s1, k), shift_witness(w1, k)),
            (FlipAt(s1, i), flip_witness(w1, i)),
        ]
        for stream, (p, q) in cases:
            assert is_ep_witness(stream, p, q, 256)


def test_xor_witness_is_lcm_based():
    assert xor_witness((2, 3), (5, 4)) == (5, 12)
    assert shift_witness((3, 2), 5) == (0, 2)
    assert flip_witness((1, 2), 7) == (8, 2)


def test_stream_spec_errors():
    for bad in ("gibberish", "periodic:1", "periodic:/", "finite:12", "xor(squares)", "shift(a,b,c)"):
        with pytest.raises(StreamSpecError):
            parse_stream_spec(bad)


def test_stream_spec_refuses_a_shift_past_the_horizon():
    assert parse_stream_spec(f"shift(squares,{MAX_HORIZON})").prefix(3) == bytes((1, 0, 0, 0))
    for spec in (f"shift(squares,{MAX_HORIZON + 1})", "xor(pow2,shift(squares,100000000000))"):
        with pytest.raises(StreamSpecError, match="shift offset .* above the maximum 65536"):
            parse_stream_spec(spec)
        with pytest.raises(StreamSpecError):
            parse_family(f"restrictions({spec})")


def test_stream_spec_refuses_too_many_combinators():
    def nested(depth):
        return "shift(" * depth + "squares" + ",1)" * depth

    assert parse_stream_spec(nested(MAX_COMBINATORS)).prefix(0) == bytes((0,))
    for spec in (nested(MAX_COMBINATORS + 1), nested(500), "xor(squares," * 33 + "pow2" + ")" * 33):
        with pytest.raises(StreamSpecError, match="combinators, above the maximum 32"):
            parse_stream_spec(spec)


def test_family_stages_of_descriptors():
    member = family_stages(parse_family("restrictions(squares)"), 5)
    assert member[5] == bytes((1, 1, 0, 0, 1, 0))
    corrupt = family_stages(parse_family("corrupt(squares,3,1)"), 4)
    assert corrupt[2] == SquaresIndicator().prefix(2)
    assert corrupt[4][1] != SquaresIndicator().prefix(4)[1]
    for bad in ("nonsense(squares)", "corrupt(squares,3,-1)", "corrupt(squares,-3,1)"):
        with pytest.raises(StreamSpecError):
            parse_family(bad)


def _stages_per_stage(family: Family, last: int) -> list[bytes]:
    """The reference stages 0..last: each stage its own prefix of the stream,
    or for ``corrupt(s,k,i)`` from stage k on of the stream with bit i flipped."""
    stream = flipped = family.base
    stage = math.inf
    if family.corruption is not None:
        stage, index = family.corruption
        flipped = FlipAt(stream, index)
    return [(flipped if n >= stage else stream).prefix(n) for n in range(last + 1)]


# One spec of each catalog stream class.
_CATALOG_BASES = (
    "squares", "pow2", "periodic:10/011", "finite:1011",
    "xor(squares,pow2)", "shift(squares,3)", "flip(pow2,5)",
)
_CORRUPTIONS = ((0, 0), (5, 7), (7, 5), (2, 600), (300, 2), (1100, 1099), (3, 5000))


@pytest.mark.parametrize("spec", _CATALOG_BASES)
def test_family_stages_slice_one_prefix_like_the_per_stage_definition(spec):
    descriptors = [f"restrictions({spec})", *(f"corrupt({spec},{k},{i})" for k, i in _CORRUPTIONS)]
    for descriptor in map(parse_family, descriptors):
        expected = _stages_per_stage(descriptor, 1100)
        for last in (1100, 0, 3, 700, 1024):
            assert family_stages(descriptor, last) == expected[: last + 1], descriptor


def test_demonstrate_gap_builds_the_base_prefix_a_few_times(monkeypatch):
    calls = []
    prefix = SquaresIndicator.prefix
    monkeypatch.setattr(
        SquaresIndicator, "prefix", lambda self, n: calls.append(n) or prefix(self, n)
    )
    assert demonstrate_gap().passed
    # the base bits, (c) and (d) build one each
    assert len(calls) == 3


@pytest.mark.parametrize(
    "descriptor",
    [
        "restrictions(squares)", "restrictions(xor(squares,pow2))", "corrupt(squares,3,100)",
        "corrupt(squares,100,3)", "corrupt(pow2,0,0)", "corrupt(periodic:1/01,40,39)",
        "corrupt(shift(squares,3),1024,1023)", "corrupt(squares,1000000000,3)",
    ],
)
def test_the_oracle_coherence_verdicts_match_the_per_stage_definition(
    descriptor, monkeypatch, clear_caches
):
    model = default_model(nat_bound=3)
    judgment = IsCoherentFamily(FamilySpec(Ident("F"), parse_family(descriptor)))
    verdict = verify_judgment(judgment, model)
    monkeypatch.setattr(streams, "family_stages", _stages_per_stage)
    clear_caches()  # the oracle's coherence verdict is cached per family
    assert verify_judgment(judgment, model) == verdict


def _violation(descriptor: Family) -> tuple[int, int] | None:
    """The (stage, index) that `family_limit` refuses a family at, or None."""
    try:
        family_limit(descriptor)
    except CoherenceError as exc:
        return exc.stage, exc.index
    return None


def test_family_violation_matches_stage_scan():
    # the exact rule against a brute scan of 40 stages, which reaches past
    # every corruption stage in the grid
    for spec in ("squares", "pow2", "periodic:1/01", "finite:1101"):
        stream = parse_stream_spec(spec)
        assert _violation(Family(stream, None)) is None
        for stage in range(14):
            for index in range(14):
                descriptor = Family(stream, (stage, index))
                member = family_stages(descriptor, 39)
                scan = is_coherent(member)
                violation = _violation(descriptor)
                if scan is None:
                    assert violation is None, descriptor
                    continue
                bad, before = member[scan], member[scan - 1]
                first = next(i for i, (a, b) in enumerate(zip(bad, before)) if a != b)
                assert violation == (scan, first), descriptor


def _oks(report) -> dict[str, bool]:
    return {name: ok for name, ok, _ in report.sub_results}


def test_demonstrate_gap_passes():
    report = demonstrate_gap()
    details = {name: detail for name, _, detail in report.sub_results}
    assert _oks(report) == dict.fromkeys(
        ["finite-restrictions-in-model", "closure-spot-checks", "union-round-trip",
         "limit-outside-model"],
        True,
    )
    assert details["finite-restrictions-in-model"].startswith("257/257 ")
    assert details["closure-spot-checks"].startswith("210/210 ")
    assert details["union-round-trip"].endswith("up to stage 256")
    assert not report.base_verdict.member
    assert report.passed
    assert "not the coherent limit" in report.conclusion


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("xor_witness", lambda w1, w2: (0, math.lcm(w1[1], w2[1]))),
        ("shift_witness", lambda w, offset: (0, w[1])),
        ("flip_witness", lambda w, index: w),
        pytest.param(
            "xor_witness", lambda w1, w2: (max(w1[0], w2[0]), w1[1] + w2[1]), id="xor_witness-sum"
        ),
    ],
)
def test_the_closure_spot_checks_catch_a_wrong_witness(name, wrong, monkeypatch):
    monkeypatch.setattr(streams, name, wrong)
    report = demonstrate_gap()
    assert not _oks(report)["closure-spot-checks"]
    assert not report.passed and report.conclusion.startswith("withdrawn")


def _stray_one_past_the_bits(monkeypatch) -> SquaresIndicator:
    prefix = FiniteSupport.prefix
    monkeypatch.setattr(
        FiniteSupport,
        "prefix",
        lambda self, n: prefix(self, n)[:-1] + b"\1" if n >= len(self.bits) else prefix(self, n),
    )
    return SquaresIndicator()


def _corrupt_stages(monkeypatch) -> SquaresIndicator:
    stages = streams.family_stages
    corrupt = Family(SquaresIndicator(), (5, 7))
    monkeypatch.setattr(streams, "family_stages", lambda _, last: stages(corrupt, last))
    return SquaresIndicator()


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("finite-restrictions-in-model", _stray_one_past_the_bits),
        ("union-round-trip", _corrupt_stages),
    ],
)
def test_each_sub_result_has_a_corruption_that_flips_it(name, corrupt, monkeypatch):
    # (b) is flipped by the wrong witnesses above, (d) by the control below.
    report = demonstrate_gap(corrupt(monkeypatch))
    assert not _oks(report)[name]
    assert not report.passed and report.conclusion.startswith("withdrawn")


def test_demonstrate_gap_searches_only_for_the_limit(monkeypatch):
    calls = []
    decide = streams.ep_decide
    monkeypatch.setattr(streams, "ep_decide", lambda *args: calls.append(args) or decide(*args))
    assert demonstrate_gap().passed
    assert calls == [(SquaresIndicator(), 64, 64, 4096)]


def test_importing_the_cli_loads_no_random():
    # -S skips the .pth files of site-packages, which may import random themselves.
    env = {**os.environ, "PYTHONPATH": str(Path(streams.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, ogkernel.cli; print('random' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"


def test_demonstrate_gap_control_flips():
    report = demonstrate_gap(Periodic((1,), (0, 1)))
    assert report.base_spec == "periodic:1/01" and report.base_verdict.member
    assert _oks(report) == {**_oks(demonstrate_gap()), "limit-outside-model": False}
    assert not report.passed
    assert report.conclusion.startswith("withdrawn")


def test_demonstrate_gap_rejects_small_horizon():
    with pytest.raises(BoundError):
        demonstrate_gap(horizon=100)


def test_squares_gaps_guarantee_nonmembership():
    # the gap between consecutive squares exceeds any period <= 64 well
    # before the 4096 horizon, so every candidate has a mismatch
    squares = SquaresIndicator()
    for q in range(1, 65):
        k = 33  # gap 2k+1 = 67 > 64
        i = k * k
        assert i + q <= 4096
        assert squares.value_at(i) == 1
        assert squares.value_at(i + q) == 0
