"""Finite-model oracle: interpretation, judgment checks, axiom instances."""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from conftest import carrier_objects, elaborate_path, elaborate_text
from ogkernel import elaborate, semantics, streams
from ogkernel.cli import main
from ogkernel.elaborate import Item, sweep_item
from ogkernel.stdlib import prelude_source
from ogkernel.semantics import (
    FAILS,
    HOLDS,
    NOT_FINITELY_CHECKABLE,
    Carrier,
    Model,
    default_model,
    interpret,
    interpret_fn,
    models_for_judgment,
    soundness_sweep,
    verify_axiom_instances,
    verify_judgment,
)
from ogkernel.semantics import _member_counts
from ogkernel.streams import CoherenceError
from ogkernel.surface import parse_family, parse_stream_spec
from ogkernel.terms import (
    NAT,
    TWO,
    BuiltinRule,
    FamilySpec,
    Ident,
    IsBinFn,
    IsCoherentFamily,
    IsDomain,
    IsGen,
    IsMor,
    IsObj,
    IsSet,
    Named,
    ObjLit,
    Powerset,
    Product,
    SupportsQuant,
    Table,
    fn_signature,
    tag_text,
)


def _named(name: str, *tags: str) -> tuple[Named, Model]:
    expr = Named(Ident(name))
    model = Model.make({name: Carrier(name, tags)}, nat_bound=3)
    return expr, model


def test_interpret_powerset_and_product_counts():
    model = default_model()
    assert len(interpret(Powerset(TWO), model)) == 4
    assert len(interpret(Product(TWO, TWO), model)) == 4
    # oracle: all maps from a 4-element set to {0, 1}, enumerated directly
    base = interpret(Powerset(TWO), model)
    expected = sum(1 for _ in itertools.product((0, 1), repeat=len(base)))
    assert len(interpret(Powerset(Powerset(TWO)), model)) == expected == 16


def test_powerset_cardinality_law_up_to_8():
    for n in range(0, 9):
        expr, model = _named("A", *(f"x{i}" for i in range(n)))
        carrier = interpret(Powerset(expr), model)
        assert len(carrier) == 2**n
        # index 0 is the empty (always-no) table
        assert carrier_objects(carrier)[0] == frozenset()
        assert len(set(carrier_objects(carrier))) == 2**n


def test_detector_flags_exactly_the_empty_table_up_to_8():
    for n in range(0, 9):
        expr, model = _named("A", *(f"x{i}" for i in range(n)))
        detector = interpret_fn(BuiltinRule("empty_detector_of", (expr,)), model)
        flagged = [tag for tag, value in detector.items() if value == "yes"]
        assert flagged == ["{}"]


def test_stream_formers_flag_their_members():
    model = default_model(nat_bound=5)
    squares = interpret_fn(BuiltinRule("indicator_stream", (parse_stream_spec("squares"),)), model)
    assert squares == {"0": "yes", "1": "yes", "2": "no", "3": "no", "4": "yes", "5": "no"}
    stage = interpret_fn(BuiltinRule("restrict", (parse_stream_spec("squares"), 2)), model)
    assert stage == {"0": "yes", "1": "yes", "2": "no"}  # no value past index 2
    union = interpret_fn(BuiltinRule("union_of_family", (parse_family("restrictions(pow2)"),)), model)
    assert union == {"0": "no", "1": "yes", "2": "yes", "3": "no", "4": "yes", "5": "no"}


def test_union_of_an_incoherent_family_has_no_values():
    # refused at every Nat bound, also where no numeral reaches the bad stage
    union = BuiltinRule("union_of_family", (parse_family("corrupt(squares,3,1)"),))
    for bound in (1, 5):
        model = default_model(nat_bound=bound)
        with pytest.raises(CoherenceError, match="family stage 3 disagrees at index 1"):
            semantics.fn_values(union, model)
        with pytest.raises(CoherenceError, match="family stage 3 disagrees at index 1"):
            interpret_fn(union, model)


def test_member_counts_by_doubling_equal_popcounts():
    # the detector law's table: byte k is the number of members of mask k
    for b in range(17):
        assert _member_counts(b) == bytes(k.bit_count() for k in range(2**b))


def test_detector_law_reads_the_detector(monkeypatch):
    # a detector that flags no table breaks the law at the empty table
    real = semantics.fn_values

    def flag_nothing(fn, model):
        values = real(fn, model)
        return [semantics.NO] * len(values) if fn.rule == "empty_detector_of" else values

    monkeypatch.setattr(semantics, "fn_values", flag_nothing)
    expr, model = _named("A", "x", "y")
    verdict = verify_judgment(SupportsQuant(expr), model)
    assert verdict.status == FAILS
    assert dict(verdict.witness) == {"carrier": "P[A]", "table": "{}", "expected": "yes"}


def test_the_detector_law_catches_a_fault_at_full_size(monkeypatch):
    # At 2^16 tables, the size the bytes compare was made for, a detector that
    # also flags mask 1 fails the judgment and H4.  The fault is made on a
    # bytearray copy, so it works whatever sequence `fn_values` returns.
    real = semantics.fn_values

    def flag_mask_one(fn, model):
        values = real(fn, model)
        if fn.rule != "empty_detector_of" or len(values) != semantics.CARRIER_BUDGET:
            return values
        values = bytearray(values)
        values[1] = semantics.YES
        return values

    monkeypatch.setattr(semantics, "fn_values", flag_mask_one)
    tower = Powerset(Powerset(NAT))
    verdict = verify_judgment(SupportsQuant(tower), default_model(nat_bound=1))
    assert verdict.status == FAILS
    assert dict(verdict.witness) == {"carrier": "P[P[P[Nat]]]", "table": "{{}}", "expected": "no"}
    checks = {check.axiom: check for check in verify_axiom_instances(default_model(3))}
    assert (checks["H4"].status, checks["H4"].detail) == (
        FAILS, "powerset detector law violated over Nat"
    )
    assert checks["H1"].status == HOLDS  # P[Two] has 4 tables: not patched


def test_the_carrier_wide_laws_build_no_list_per_object(clear_caches):
    # At 2^16 objects one byte each is 64 KiB, and a list of ints is 512 KiB.
    tower = Powerset(Powerset(NAT))
    checks = (
        lambda: [verify_judgment(SupportsQuant(tower), default_model(nat_bound=1))],
        lambda: [
            verify_judgment(IsDomain(tower, BuiltinRule("eq_of", (tower,))), default_model(2))
        ],
        lambda: verify_axiom_instances(default_model(3)),
    )
    for check in checks:
        clear_caches()
        tracemalloc.start()
        try:
            verdicts = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(v.status in (HOLDS, "assumed") for v in verdicts)
        assert peak < 256 * 1024, peak


def test_interpret_errors():
    with pytest.raises(ValueError, match="^no carrier assigned to 'Mystery'$"):
        interpret(Named(Ident("Mystery")), default_model())
    verdict = verify_judgment(IsGen(NAT), Model.make({}, nat_bound=None))
    assert verdict.status == NOT_FINITELY_CHECKABLE


def test_verify_domain_examples():
    diagonal = BuiltinRule("eq_of", (TWO,))
    assert verify_judgment(IsDomain(TWO, diagonal), default_model()).holds

    constant_yes = Table(
        Product(TWO, TWO),
        TWO,
        tuple(
            (ObjLit((x, y), Product(TWO, TWO)), ObjLit("yes", TWO))
            for x in ("yes", "no")
            for y in ("yes", "no")
        ),
    )
    verdict = verify_judgment(IsDomain(TWO, constant_yes), default_model())
    assert verdict.status == FAILS
    witness = dict(verdict.witness)
    assert witness["x"] != witness["y"] and witness["got"] == "yes"


def test_the_diagonal_law_reads_the_equality_former(monkeypatch):
    # An `eq_of` with its first two bytes swapped says no at (yes, yes) and
    # yes at (yes, no); the law is read off its values alone, so it fails.
    real = semantics.fn_values

    def swap_first_two(fn, model):
        values = real(fn, model)
        if getattr(fn, "rule", None) != "eq_of":
            return values
        values = bytearray(values)
        values[0], values[1] = values[1], values[0]
        return values

    monkeypatch.setattr(semantics, "fn_values", swap_first_two)
    verdict = verify_judgment(IsDomain(TWO, BuiltinRule("eq_of", (TWO,))), default_model())
    assert verdict.status == FAILS
    assert dict(verdict.witness) == {"x": "yes", "y": "yes", "got": "no", "expected": "yes"}


def _table(dom, cod, pairs) -> Table:
    return Table(dom, cod, tuple((ObjLit(k, dom), ObjLit(v, cod)) for k, v in pairs))


def test_a_table_on_nat_fails_at_the_least_numeral_without_a_row():
    gap = _table(NAT, TWO, (("0", "yes"), ("2", "no")))
    pairs = _table(Product(NAT, TWO), TWO, ((("0", "yes"), "yes"), (("0", "no"), "no")))
    for table, missing in ((gap, "1"), (pairs, "1")):
        judgment = IsMor(table, table.domain, TWO)
        for bound in range(4):  # in every truncation, the rows included
            verdict = verify_judgment(judgment, default_model(bound))
            assert verdict.status == FAILS and dict(verdict.witness)["missing"] == missing


def test_a_numeral_value_past_the_bound_is_not_checkable_rather_than_false():
    flip = IsMor(_table(TWO, NAT, (("yes", "1"), ("no", "0"))), TWO, NAT)
    assert verify_judgment(flip, default_model(0)).status == NOT_FINITELY_CHECKABLE
    assert verify_judgment(flip, default_model(1)).holds
    # a value that names no object at any bound still fails
    bad = IsMor(_table(TWO, NAT, (("yes", "one"), ("no", "0"))), TWO, NAT)
    assert verify_judgment(bad, default_model(3)).status == FAILS
    source = "model check Mor(table { Two.yes -> Nat.1, Two.no -> Nat.0 }, Two, Nat) upto 3;"
    (item,) = elaborate_text(source).items
    assert (item.status, item.detail) == ("pass", "holds in 2/3 models (rest not finitely checkable)")


def test_supports_quant_search_on_three_objects():
    expr, model = _named("A", "x", "y", "z")
    verdict = verify_judgment(SupportsQuant(expr), model)
    assert verdict.holds
    # oracle: among all 8 tables over a 3-object carrier exactly one is
    # empty, and the detector flags exactly that one
    detector = interpret_fn(BuiltinRule("empty_detector_of", (expr,)), model)
    assert len(detector) == 8
    assert sum(1 for v in detector.values() if v == "yes") == 1


def test_supports_quant_constructive_path():
    # the canonical detector is verified at every carrier size
    expr, model = _named("A", *(f"x{i}" for i in range(6)))
    verdict = verify_judgment(SupportsQuant(expr), model)
    assert verdict.holds and "canonical" in verdict.detail


def test_supports_quant_blows_up_gracefully():
    verdict = verify_judgment(
        SupportsQuant(Powerset(Powerset(NAT))), default_model(nat_bound=2)
    )
    assert verdict.status == NOT_FINITELY_CHECKABLE


def test_extensional_equality_on_powerset_up_to_5():
    for n in range(0, 6):
        expr, model = _named("A", *(f"x{i}" for i in range(n)))
        eq = interpret_fn(BuiltinRule("eq_of", (Powerset(expr),)), model)
        carrier = interpret(Powerset(expr), model)
        for f in carrier_objects(carrier):
            for g in carrier_objects(carrier):
                # oracle: pointwise agreement of the member sets
                agree = set(f) == set(g)
                assert eq[tag_text((f, g))] == ("yes" if agree else "no")


def test_mor_verification():
    expr, model = _named("A", "x", "y")
    good = Table(
        expr, TWO, ((ObjLit("x", expr), ObjLit("yes", TWO)), (ObjLit("y", expr), ObjLit("no", TWO)))
    )
    assert verify_judgment(IsMor(good, expr, TWO), model).holds
    assert verify_judgment(IsBinFn(good, expr), model).holds
    bad_value = Table(
        expr, TWO, ((ObjLit("x", expr), ObjLit("zap", TWO)), (ObjLit("y", expr), ObjLit("no", TWO)))
    )
    assert verify_judgment(IsMor(bad_value, expr, TWO), model).status == FAILS
    # a table whose objects differ from the model carrier is not
    # interpretable there, rather than false
    bigger = Model.make({"A": Carrier("A", ("x", "y", "z"))}, nat_bound=3)
    assert (
        verify_judgment(IsMor(good, expr, TWO), bigger).status
        == NOT_FINITELY_CHECKABLE
    )


def test_a_row_literal_on_another_carrier_names_no_object_and_fails():
    # G's carrier has the tags yes and no, so only the literals' carriers are wrong
    expr, model = _named("G", "yes", "no")
    cases = ((TWO, TWO, (2, 0), "Two.yes -> Two.yes"), (expr, expr, (0, 2), "G.yes -> G.yes"))
    for key_of, value_of, holes, row in cases:
        rows = tuple((ObjLit(t, key_of), ObjLit(t, value_of)) for t in ("yes", "no"))
        table = Table(expr, TWO, rows)
        assert _holes_and_outside(table, model) == holes
        verdict = verify_judgment(IsMor(table, expr, TWO), model)
        assert verdict.status == FAILS and dict(verdict.witness) == {"row": row}


def test_a_row_on_nat_makes_the_judgment_sweep_nat_bounds():
    # The judgment mentions Nat through a row's carrier, so its models sweep
    # the truncation bound; the row fails it in every one of them.
    source = "model check Mor(table { Two.yes -> Two.yes, Two.no -> Nat.0 }, Two, Two) upto 2;"
    (item,) = elaborate_text(source).items
    assert (item.status, item.detail) == ("fail", "fails in 2/2 models")
    assert item.witness == {"model": "model(nat<=:0)", "row": "Two.no -> Nat.0"}


def _holes_and_outside(fn, model) -> tuple[int, int]:
    values = list(semantics.fn_values(fn, model))  # bytes.count takes no -1
    return values.count(semantics.NO_VALUE), values.count(semantics.OUTSIDE)


def test_partial_functions_fail_totality_as_before():
    expr, model = _named("A", "x", "y")
    hole = Table(expr, TWO, ((ObjLit("x", expr), ObjLit("yes", TWO)),))
    outside = Table(
        expr, TWO, ((ObjLit("x", expr), ObjLit("yes", TWO)), (ObjLit("y", expr), ObjLit("up", TWO)))
    )
    assert _holes_and_outside(hole, model) == (1, 0)
    assert _holes_and_outside(outside, model) == (0, 1)
    # a table with a hole names too few objects: not interpretable in this model
    verdict = verify_judgment(IsMor(hole, expr, TWO), model)
    assert verdict.status == NOT_FINITELY_CHECKABLE
    assert verdict.detail == "table objects do not match the carrier of A"
    verdict = verify_judgment(IsMor(outside, expr, TWO), model)
    assert verdict.status == FAILS
    assert verdict.detail == "value at 'y' is outside the codomain"
    assert verdict.witness == (("at", "y"), ("got", "up"))
    # of the formers only `restrict` has holes, past its bound
    for bound, holes in ((1, 2), (3, 0), (9, 0)):
        fn = BuiltinRule("restrict", (parse_stream_spec("squares"), bound))
        assert _holes_and_outside(fn, model) == (holes, 0)
    verdict = verify_judgment(IsMor(BuiltinRule("restrict", (parse_stream_spec("squares"), 1)), NAT, TWO), model)
    assert verdict.status == FAILS and verdict.witness == (("missing", "2"),)
    assert verdict.detail == "not total: no value at '2'"
    # `_verify_mor` does not scan the formers built whole: they have no holes
    whole = [BuiltinRule(rule, (Powerset(expr),)) for rule in semantics._WHOLE_FORMERS]
    for fn in (*whole, BuiltinRule("indicator_stream", (parse_stream_spec("pow2"),))):
        assert _holes_and_outside(fn, model) == (0, 0)
        assert verify_judgment(IsMor(fn, *fn_signature(fn)), model).holds


def test_is_obj_examples():
    model = default_model(nat_bound=3)
    assert verify_judgment(IsObj(ObjLit("yes", TWO), TWO), model).holds
    assert verify_judgment(IsObj(ObjLit("7", NAT), NAT), model).holds
    verdict = verify_judgment(IsObj(ObjLit("maybe", TWO), TWO), model)
    assert verdict.status == FAILS
    limit = ObjLit(parse_family("restrictions(squares)"), Powerset(NAT))
    assert verify_judgment(IsObj(limit, Powerset(NAT)), model).holds
    # a family's limit is an object of P[Nat] alone
    verdict = verify_judgment(IsObj(ObjLit(limit.tag, TWO), TWO), model)
    assert verdict.detail == "'limit(restrictions(squares))' is not an object of Two"
    for descriptor, stage in (("corrupt(squares,3,1)", "3"), ("corrupt(squares,100,3)", "100")):
        broken = ObjLit(parse_family(descriptor), Powerset(NAT))
        verdict = verify_judgment(IsObj(broken, Powerset(NAT)), model)
        assert verdict.status == FAILS and dict(verdict.witness) == {"stage": stage}


def test_family_coherence_is_scanned_past_the_descriptor():
    model = default_model(nat_bound=3)

    def coherent(descriptor):
        return verify_judgment(IsCoherentFamily(FamilySpec(Ident("F"), parse_family(descriptor))), model)

    assert coherent("restrictions(squares)").holds
    assert coherent("corrupt(squares,3,100)").holds
    verdict = coherent("corrupt(squares,100,3)")
    assert verdict.status == FAILS and dict(verdict.witness) == {"stage": "100"}
    verdict = coherent("corrupt(squares,1000000000,3)")
    assert verdict.status == NOT_FINITELY_CHECKABLE
    assert "1000000001" in verdict.detail
    # the union of an incoherent family is no binary function, though each
    # stage alone has a value at every numeral
    for descriptor in ("corrupt(squares,5,3)", "corrupt(squares,2,1)"):
        union = BuiltinRule("union_of_family", (parse_family(descriptor),))
        assert verify_judgment(IsMor(union, NAT, TWO), model).status == FAILS
    union = BuiltinRule("union_of_family", (parse_family("restrictions(pow2)"),))
    assert verify_judgment(IsMor(union, NAT, TWO), model).holds


def test_is_set_reduces_to_quantification_support():
    model = default_model()
    assert verify_judgment(IsSet(TWO), model).holds
    assert verify_judgment(IsSet(Powerset(NAT)), default_model(nat_bound=2)).holds


def test_axiom_instances_default_model():
    checks = {c.axiom: c for c in verify_axiom_instances(default_model())}
    assert checks["H1"].status == HOLDS
    assert checks["H2"].status == HOLDS
    assert checks["H3"].status == "assumed"
    assert "truncated" in checks["H3"].detail
    assert checks["H4"].status == HOLDS


def test_axiom_instances_ignore_unrelated_two_sized_carriers():
    model = Model.make({"TwoPrime": Carrier("TwoPrime", ("only",))}, nat_bound=2)
    checks = {c.axiom: c for c in verify_axiom_instances(model)}
    assert checks["H1"].status == HOLDS  # Two itself is fixed


def test_axiom_instances_detect_corruption():
    # test hook: an interpretation that drops one table from every powerset
    def corrupted(expr, model):
        carrier = interpret(expr, model)
        if isinstance(expr, Powerset):
            return Carrier(carrier.name, carrier_objects(carrier)[:-1])
        return carrier

    checks = {
        c.axiom: c
        for c in verify_axiom_instances(default_model(), _interpret=corrupted)
    }
    assert checks["H4"].status == FAILS
    assert checks["H4"].witness is not None
    assert checks["H4"].detail == "powerset detector law violated over Two"
    assert checks["H1"].status == FAILS
    assert checks["H1"].detail == "the two-object carrier or its powerset detector law is broken"
    # passing details stay as they were
    assert checks["H2"].detail.startswith("sections found for all")


def test_axiom_instances_read_every_carrier_through_the_hook():
    # test hook: Nat has two objects whatever its bound, so H2 ranges over
    # the four pairs of two-object carriers, with two surjections each
    def short_nat(expr, model):
        return Carrier("Nat", ("0", "1")) if expr == NAT else interpret(expr, model)

    model = Model.make({}, nat_bound=3)
    checks = {c.axiom: c for c in verify_axiom_instances(model, _interpret=short_nat)}
    assert checks["H2"].detail == (
        "sections found for all 8 surjections between checked carriers with |dom| <= 4"
    )


def _reference_h2(model: Model) -> tuple[str, str]:
    """H2's status and detail as the per-map loop decided them: a set of the
    values for each map, and a section read off each surjection."""
    named = [Named(Ident(name)) for name, _ in model.assignments]
    exprs = [TWO, NAT, *named] if model.nat_bound is not None else [TWO, *named]
    carriers = [interpret(expr, model) for expr in exprs]
    surjections = 0
    broken = False
    for dom, cod in itertools.product(carriers, repeat=2):
        targets = range(len(cod))
        maps = itertools.product(targets, repeat=len(dom)) if len(dom) <= 4 else ()
        for values in maps:
            if len(set(values)) == len(cod):
                surjections += 1
                section = [values.index(t) for t in targets]
                broken = broken or any(values[section[t]] != t for t in targets)
    if broken:
        return FAILS, "no section for a surjection between checked carriers"
    return HOLDS, (
        f"sections found for all {surjections} surjections between checked carriers "
        "with |dom| <= 4"
    )


def _h2_models():
    for size in range(1, 5):
        tags = tuple(f"t{k}" for k in range(size))
        yield default_model(size - 1)
        yield Model.make({"A": Carrier("A", tags)})
        yield Model.make({"A": Carrier("A", tags), "B": Carrier("B", tags[:2])}, nat_bound=size)


@pytest.mark.parametrize("model", list(_h2_models()))
def test_h2_counts_the_surjections_the_per_map_loop_counts(model):
    h2 = next(c for c in verify_axiom_instances(model) if c.axiom == "H2")
    assert (h2.status, h2.detail) == _reference_h2(model)


def test_the_axiom_instances_make_a_bounded_number_of_calls(python_calls):
    # H2 picks its surjections with a C filter and checks each section with
    # `map`: no Python call per map.  A set, an `any` and `len` per map made 592.
    model = default_model(3)
    verify_axiom_instances(model)  # carriers come from `interpret`'s cache
    calls = python_calls(lambda: verify_axiom_instances(model))
    assert calls <= 100, calls


def test_soundness_sweep_flags_corrupt_judgments():
    constant_yes = Table(
        Product(TWO, TWO),
        TWO,
        tuple(
            (ObjLit((x, y), Product(TWO, TWO)), ObjLit("yes", TWO))
            for x in ("yes", "no")
            for y in ("yes", "no")
        ),
    )
    report = soundness_sweep([IsDomain(TWO, constant_yes)], max_size=3)
    assert report.fails > 0
    (item,) = report.items
    assert all(verdict.status == FAILS and verdict.witness for verdict in item.verdicts)


def test_a_judgment_given_twice_is_verified_once_per_model(monkeypatch):
    calls = []
    verify = semantics.verify_judgment
    monkeypatch.setattr(semantics, "verify_judgment", lambda j, m: calls.append(m) or verify(j, m))
    twice = IsGen(Product(Named(Ident("A")), NAT))
    models = models_for_judgment(twice, 2)
    report = soundness_sweep([twice, IsGen(TWO), twice], max_size=2)
    assert calls == [*models, Model()]
    first, second = report.items
    assert (first.judgment, first.models) == (twice, models * 2)
    assert first.verdicts == tuple(verify(twice, model) for model in models * 2)
    assert (second.judgment, second.models) == (IsGen(TWO), (Model(),))
    assert (report.checked, report.holds) == (2 * len(models) + 1, 2 * len(models) + 1)


def test_a_judgment_past_the_model_budget_is_counted_not_built(monkeypatch):
    # s**k models for k names at size s, times s when Nat occurs: four names
    # and Nat at size 4 make MODEL_BUDGET = 1024 models, five make 4096.
    made = []
    real = semantics.Model.make
    monkeypatch.setattr(semantics.Model, "make", lambda *a, **k: made.append(1) or real(*a, **k))
    within, past = (
        IsGen(functools.reduce(Product, [*(Named(Ident(f"G{i}")) for i in range(k)), NAT]))
        for k in (4, 5)
    )
    detail = "4096 models at size 4, more than 1024"
    with pytest.raises(semantics.NotFinitelyCheckable, match=detail):
        models_for_judgment(past, 4)
    assert made == []
    report = soundness_sweep([within, past, past], max_size=4)
    assert len(made) == len(report.items[0].models) == semantics.MODEL_BUDGET
    skipped = semantics.Verdict(NOT_FINITELY_CHECKABLE, detail)
    assert report.items[1] == (past, (), (skipped, skipped))
    assert (report.holds, report.not_checkable) == (1024, 2)
    name = "model check Gen(G0 * G1 * G2 * G3 * G4 * Nat) upto 4"
    assert sweep_item(name, report.items[1]) == Item(
        name, "skipped", f"not finitely checkable at this bound: {detail}"
    )


CORPUS = Path(__file__).parent / "corpus"


def _prelude_judgments():
    return elaborate_text(prelude_source()).judgments


def test_the_sweep_runs_each_morphism_check_once(clear_caches):
    # Mor, BinFn and Domain share one check of a function on its signature
    # in a model: its body runs once per distinct argument tuple.
    body, runs = inspect.unwrap(semantics._verify_mor).__code__, []

    def on_event(frame, event, arg):
        if event == "call" and frame.f_code is body:
            runs.append(tuple(frame.f_locals[name] for name in ("fn", "dom", "cod", "model")))

    judgments = _prelude_judgments()
    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        report = soundness_sweep(judgments, 3)
    finally:
        sys.setprofile(previous)
    checks = sum(
        len(item.verdicts)
        for item in report.items
        if isinstance(item.judgment, (IsMor, IsBinFn, IsDomain))
    )
    assert len(runs) == len(set(runs)) < checks, (len(runs), checks)


def test_a_signature_has_one_model_tuple():
    a = Named(Ident("A"))
    models = models_for_judgment(IsGen(Product(a, NAT)), 3)
    assert models_for_judgment(IsSet(Powerset(Product(NAT, a))), 3) is models
    assert models_for_judgment(IsGen(Product(a, NAT)), 2) is not models


@pytest.mark.parametrize("name", ["prelude", *(f"{n:02d}" for n in range(4, 10))])
def test_the_sweep_is_the_same_with_every_cache_cleared_between_judgments(
    name, clear_caches, monkeypatch
):
    # The judgments of a file's theorems and of its `model check`s.
    checked, sweep = [], semantics.soundness_sweep
    monkeypatch.setattr(elaborate, "soundness_sweep", lambda js, n: checked.extend(js) or sweep(js, n))
    if name == "prelude":
        result = elaborate_text(prelude_source())
    else:
        (path,) = CORPUS.glob(f"{name}_*.og")
        result = elaborate_path(path)
    judgments = [*result.judgments, *checked]
    assert judgments
    for size in semantics.SWEEP_SIZES:
        clear_caches()
        items = soundness_sweep(judgments, size).items
        alone = []
        for judgment, times in Counter(judgments).items():
            clear_caches()
            alone += soundness_sweep([judgment] * times, size).items
        assert items == tuple(alone), size


def test_a_model_run_scans_each_family_once(monkeypatch, capsys):
    # Corpus 08 names two families, in Coherent(...) and in the three models
    # of each limit's Obj(..., P[Nat]): the oracle's verdict on a family is
    # cached, where it scanned the stages 8 times.
    scans, scan = [], streams.is_coherent
    monkeypatch.setattr(streams, "is_coherent", lambda stages: scans.append(stages) or scan(stages))
    assert main(["model", str(CORPUS / "08_coherent_squares.og"), "--max-size", "3"]) == 0
    assert "summary: 17 pass, 0 fail, 1 assumed" in capsys.readouterr().out
    assert len(scans) == 2


def test_the_axiom_instances_run_each_detector_law_once(python_calls):
    # H1 and H4 both read the detector law on Two; a call computes it once.
    model = Model.make({"A": Carrier("A", ("a", "b"))}, nat_bound=1)
    checks = verify_axiom_instances(model)
    assert [c.status for c in checks] == [HOLDS, HOLDS, "assumed", HOLDS]
    # Two, Nat and A, each with its powerset
    assert python_calls(lambda: verify_axiom_instances(model), "_detector_law") == 6


def test_soundness_sweep_empty():
    report = soundness_sweep([], max_size=3)
    assert report.checked == 0 and report.items == ()


def test_models_for_judgment_canonical_order():
    judgment = IsGen(Product(Named(Ident("A")), NAT))
    models = models_for_judgment(judgment, 2)
    descriptions = [m.describe() for m in models]
    assert descriptions == [
        "model(A:1, nat<=:0)",
        "model(A:1, nat<=:1)",
        "model(A:2, nat<=:0)",
        "model(A:2, nat<=:1)",
    ]
    # no names, no Nat: a single trivial model
    assert len(models_for_judgment(IsGen(TWO), 3)) == 1
