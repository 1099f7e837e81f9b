"""Elaboration: declarations drive the kernel; diagnostics carry spans."""

from __future__ import annotations

from pathlib import Path

from ogkernel.elaborate import elaborate_file, elaborate_source
from ogkernel.kernel import axioms_used, verify_trace
from ogkernel.stdlib import prelude_source
from ogkernel.terms import render

CORPUS = Path(__file__).parent / "corpus"


def test_prelude_headline_axiom_multiset():
    result = elaborate_source(prelude_source())
    final = result.theorems[-1]
    assert render(final.judgment) == "Set(P[P[Nat]])"
    assert sorted(a.value for a in axioms_used(final).elements()) == ["H3", "H4", "H4"]


def test_h4_shorthand_gives_two_node_trace():
    result = elaborate_source(
        "assert SupportsQuant(P[Nat]) by rule H4 from H3;"
    )
    assert not result.diagnostics
    report = verify_trace(result.theorems[0])
    assert report.passed and report.node_count == 2


def test_unknown_generator_is_e0004():
    result = elaborate_source("assert Gen(Ghost) by rule gen;")
    assert [d.code for d in result.diagnostics] == ["E0004"]


def test_unknown_morphism_is_e0004():
    result = elaborate_source("assert BinFn(ghost_eq, Two * Two) by rule binfn;")
    assert [d.code for d in result.diagnostics] == ["E0004"]


def test_kernel_errors_become_e0102_with_span():
    result = elaborate_source(
        "generator G primitive;\ngenerator G primitive;"
    )
    assert [d.code for d in result.diagnostics] == ["E0102"]
    assert result.diagnostics[0].span.line == 2


def test_cross_domain_equality_is_e0101_not_a_crash():
    result = elaborate_file(CORPUS / "crossdomain.og")
    assert [d.code for d in result.diagnostics] == ["E0101"]
    # earlier declarations elaborated normally
    assert len(result.theorems) == 4


def test_mismatched_proof_is_rejected():
    result = elaborate_source("assert Set(Two) by axiom H3;")
    assert [d.code for d in result.diagnostics] == ["E0102"]
    assert "claims" in result.diagnostics[0].message


def test_h2_is_not_a_script_axiom():
    result = elaborate_source("assert Set(Two) by axiom H2;")
    assert [d.code for d in result.diagnostics] == ["E0102"]


def test_eq_items_evaluate():
    result = elaborate_file(CORPUS / "18_eq_queries.og")
    assert not result.diagnostics
    eq_items = [i for i in result.items if i.name.startswith("Eq(")]
    assert [i.detail for i in eq_items] == [
        "evaluates to yes",
        "evaluates to no",
        "evaluates to no",
    ]


def test_generator_tags_feed_table_evidence():
    result = elaborate_source(
        "generator G primitive {a, b};\n"
        "morphism f : G -> Two := table { G.a -> Two.yes, G.b -> Two.no };\n"
        "assert BinFn(f, G) by rule binfn;\n"
    )
    assert not result.diagnostics
    assert len(result.theorems) == 3


def test_partial_table_is_rejected():
    result = elaborate_source(
        "generator G primitive {a, b};\n"
        "morphism f : G -> Two := table { G.a -> Two.yes };\n"
    )
    assert [d.code for d in result.diagnostics] == ["E0102"]
    assert "no row" in result.diagnostics[0].message


def test_aliases_resolve():
    result = elaborate_file(CORPUS / "13_aliases.og")
    assert not result.diagnostics
    assert "SupportsQuant(P[Nat])" in [render(j) for j in result.judgments]


def test_include_resolves_relative_paths():
    result = elaborate_file(CORPUS / "11_include_main.og")
    assert not result.diagnostics
    assert [i.status for i in result.items] == ["pass"] * len(result.items)


def test_include_missing_file_is_e0005(tmp_path):
    main = tmp_path / "main.og"
    main.write_text('include "nowhere.og";\n')
    result = elaborate_file(main)
    assert [d.code for d in result.diagnostics] == ["E0005"]


def test_include_of_a_file_that_is_not_utf8_is_e0005(tmp_path):
    (tmp_path / "latin1.og").write_bytes(b"-- caf\xe9\n")
    main = tmp_path / "main.og"
    main.write_text('include "latin1.og";\n')
    (diagnostic,) = elaborate_file(main).diagnostics
    assert diagnostic.code == "E0005"
    assert diagnostic.message.startswith("cannot include 'latin1.og': 'utf-8' codec")


def test_a_byte_order_mark_at_the_start_of_a_file_is_skipped(tmp_path):
    lib = tmp_path / "lib.og"
    lib.write_text("assert Set(Two) by axiom H1;\n", "utf-8-sig")
    main = tmp_path / "main.og"
    main.write_text('include "lib.og";\nassert SupportsQuant(Nat) by axiom H3;\n', "utf-8-sig")
    for path, count in ((lib, 1), (main, 2)):
        result = elaborate_file(path)
        assert not result.diagnostics
        assert [i.status for i in result.items] == ["pass"] * len(result.items)
        assert len(result.theorems) == count


def test_include_cycle_is_detected(tmp_path):
    a = tmp_path / "a.og"
    b = tmp_path / "b.og"
    a.write_text('include "b.og";\n')
    b.write_text('include "a.og";\n')
    result = elaborate_file(a)
    assert any(d.code == "E0005" and "circular" in d.message for d in result.diagnostics)


def test_model_check_items():
    result = elaborate_source("model check Set(Two) upto 3;")
    assert not result.diagnostics
    assert result.items[0].status == "pass"
    result = elaborate_source("model check SupportsQuant(P[P[Nat]]) upto 4;")
    assert result.items[0].status in ("pass", "skipped")


def test_model_check_failing_judgment():
    source = (
        "generator G primitive {a, b};\n"
        "morphism bad : G * G -> Two := table { (G.a, G.a) -> Two.yes, "
        "(G.a, G.b) -> Two.yes, (G.b, G.a) -> Two.yes, (G.b, G.b) -> Two.yes };\n"
        "model check Domain(G, bad) upto 2;\n"
    )
    result = elaborate_source(source)
    items = [i for i in result.items if i.name.startswith("model check")]
    assert items[0].status == "fail"
    assert items[0].witness is not None


def test_limit_decls_produce_items():
    result = elaborate_source('limit member "periodic:1/01" upto 8 8 64;')
    assert result.items[0].status == "pass"
    assert "member" in result.items[0].detail
    result = elaborate_source('limit member "squares" upto 4 4 64;')
    assert "non-member" in result.items[0].detail


def test_coherent_and_limit_rules():
    result = elaborate_file(CORPUS / "08_coherent_squares.og")
    assert not result.diagnostics
    judgments = [render(j) for j in result.judgments]
    assert 'Obj(P[Nat]."limit(restrictions(squares))", P[Nat])' in judgments


def test_every_corpus_file_elaborates_cleanly():
    for path in sorted(CORPUS.glob("[0-9]*.og")):
        result = elaborate_file(path)
        assert not result.diagnostics, (path.name, result.diagnostics)
        assert not [i for i in result.items if i.status == "fail"], path.name
        for thm in result.theorems:
            assert verify_trace(thm).passed, path.name


def test_duplicate_primitive_tag_declares_nothing():
    result = elaborate_source(
        "generator G primitive {a, b, a};\ngenerator G primitive {a, b};\n"
    )
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E0102", "generator 'G' lists the tag 'a' twice")
    ]
    assert [render(j) for j in result.judgments] == ["Gen(G)"]


def test_each_missing_premise_is_named():
    # `require` renders what it looked for only when the lookup fails.
    result = elaborate_source(
        "generator G primitive {a, b};\n"
        "morphism f : G -> Two := table { G.a -> Two.yes, G.b -> Two.no };\n"
        "assert SupportsQuant(P[G]) by rule H4;\n"
        "assert Set(G) by rule set_intro;\n"
        "assert BinFn(eq_of[Two], Two * Two) by rule binfn;\n"
        "assert Domain(G, f) by rule domain_intro;\n"
        'assert Obj(P[Nat]."limit(restrictions(squares))", P[Nat]) by rule cla;\n'
        "assert Mor(empty_detector_of[G], P[G], Two) by rule mor;\n"
    )
    assert [(d.span.line, d.code, d.message) for d in result.diagnostics] == [
        (3, "E0102", "no proof of SupportsQuant(G) in scope"),
        (4, "E0102", "no proof of Domain(G, ...) in scope"),
        (5, "E0102", "no proof of Mor(eq_of[Two], Two * Two, Two) in scope"),
        (6, "E0102", "no proof of BinFn(..., G * G) in scope"),
        (7, "E0102", 'no proof of Coherent(..., "restrictions(squares)") in scope'),
        (8, "E0102", "no proof of SupportsQuant(G) in scope"),
    ]
