"""Elaboration: declarations drive the kernel; diagnostics carry spans."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from ogkernel import elaborate, surface
from ogkernel.elaborate import _RULE_ALIASES, elaborate_file, elaborate_files, elaborate_source
from ogkernel.kernel import axioms_used, verify_trace
from ogkernel.semantics import soundness_sweep
from ogkernel.stdlib import prelude_source
from ogkernel.surface import LimitDecl, parse_source
from ogkernel.terms import (
    TWO,
    BitStream,
    IsCoherentFamily,
    ObjLit,
    Powerset,
    Product,
    Table,
    render,
)

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


def _both_entry_points(path: Path):
    """The elaboration of a file through `elaborate_file` and `elaborate_files`."""
    yield elaborate_file(path)
    yield elaborate_files([(path, parse_source(path.read_text())[0])])


def test_a_file_that_includes_itself_runs_once(tmp_path, monkeypatch):
    (tmp_path / "self.og").write_text('include "self.og";\nassert Set(Two) by axiom H1;\n')
    monkeypatch.chdir(tmp_path)
    for result in _both_entry_points(Path("self.og")):
        assert [i.name for i in result.items] == ["Set(Two)"]
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E0005", "circular include of 'self.og'")
        ]


def test_an_include_cycle_runs_each_file_once(tmp_path):
    a = tmp_path / "a.og"
    a.write_text('include "b.og";\nassert Set(Two) by axiom H1;\n')
    (tmp_path / "b.og").write_text('include "a.og";\nassert SupportsQuant(Nat) by axiom H3;\n')
    for result in _both_entry_points(a):
        assert [i.name for i in result.items] == ["SupportsQuant(Nat)", "Set(Two)"]
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E0005", "circular include of 'a.og'")
        ]


def test_an_include_of_an_earlier_root_file_does_nothing(tmp_path, monkeypatch):
    lib, main = tmp_path / "lib.og", tmp_path / "main.og"
    lib.write_text("assert Set(Two) by axiom H1;\n")
    main.write_text('include "lib.og";\nassert SupportsQuant(Nat) by axiom H3;\n')
    resolved = []
    realpath = os.path.realpath
    monkeypatch.setattr(os.path, "realpath", lambda path: resolved.append(path) or realpath(path))
    result = elaborate_files([(lib, parse_source(lib.read_text())[0])])
    assert not resolved  # a session with no include resolves no path
    result = elaborate_files([(p, parse_source(p.read_text())[0]) for p in (lib, main)])
    assert not result.diagnostics
    assert [i.name for i in result.items] == ["Set(Two)", "SupportsQuant(Nat)"]


def test_model_check_items():
    result = elaborate_source("model check Set(Two) upto 3;")
    assert not result.diagnostics
    assert result.items[0].status == "pass"
    result = elaborate_source("model check SupportsQuant(P[P[Nat]]) upto 4;")
    assert result.items[0].status in ("pass", "skipped")


@pytest.mark.parametrize(
    "source, detail, witness",
    [
        ("generator G primitive {a, b};\n"
         "morphism bad : G * G -> Two := table { (G.a, G.a) -> Two.yes, "
         "(G.a, G.b) -> Two.yes, (G.b, G.a) -> Two.yes, (G.b, G.b) -> Two.yes };\n"
         "model check Domain(G, bad) upto 2;\n",
         "fails in 1/2 models", {"x": "a", "y": "b", "expected": "no", "got": "yes"}),
        # A builtin declared on another domain fails in every model.
        ("model check Mor(eq_of[Two], Nat, Two) upto 2;\n",
         "fails in 2/2 models", {"declared": "Two * Two -> Two", "expected": "Nat -> Two"}),
        # A Domain's verdict is its equality's Mor verdict.
        ("model check Domain(Two, eq_of[Nat]) upto 1;\n",
         "fails in 1/1 models", {"declared": "Nat * Nat -> Two", "expected": "Two * Two -> Two"}),
    ],
)
def test_model_check_failing_judgment(source, detail, witness):
    result = elaborate_source(source)
    items = [i for i in result.items if i.name.startswith("model check")]
    assert (items[0].status, items[0].detail) == ("fail", detail)
    assert witness.items() <= items[0].witness.items()


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


def _layers(sources):
    """Each parsed file's elaboration, the replay of its theorems and its
    size-3 sweep."""
    out = []
    for path, decls in sources:
        result = elaborate_files([(path, decls)])
        replays = [verify_trace(thm) for thm in result.theorems]
        out.append((result.items, result.diagnostics, replays, soundness_sweep(result.judgments, 3)))
    return out


def test_no_layer_reads_spec_text_again(monkeypatch, clear_caches):
    # The surface builds the stream or family of every builtin, every quoted
    # limit tag, every Coherent(...) descriptor and every `limit member` spec
    # as it parses a file.  Past that no layer parses a spec: with the grammar
    # refusing, elaboration, replay and the sweep give what they gave before.
    paths = [*sorted(CORPUS.glob("[0-9]*.og")), None]
    sources = [
        (path or "prelude.og", parse_source(path.read_text("utf-8") if path else prelude_source())[0])
        for path in paths
    ]
    decls = [decl for _, file_decls in sources for decl in file_decls]
    assert any(isinstance(getattr(decl, "judgment", None), IsCoherentFamily) for decl in decls)
    assert any(isinstance(decl, LimitDecl) and isinstance(decl.spec, BitStream) for decl in decls)
    expected = _layers(sources)

    def refuse(*args):
        raise AssertionError(f"spec text parsed again: {args}")

    for name in ("parse_stream_spec", "_parse_spec", "parse_family", "split_top_level"):
        monkeypatch.setattr(surface, name, refuse)
    clear_caches()
    assert _layers(sources) == expected


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


_TWO_DOMAIN = (
    "morphism eq_two : Two * Two -> Two := rule eq_of[Two];\n"
    "assert BinFn(eq_two, Two * Two) by rule binfn;\n"
    "assert Domain(Two, eq_two) by rule domain_intro;\n"
)
_NO_GOAL = "needs its premises given with 'from' when it has no goal"
_SUBPROOF = "needs a goal, so it cannot be a 'from' subproof"
_EQ_PROOF = "an Eq(...) assertion is proved by rule eq_within alone"


@pytest.mark.parametrize(
    "source, line, code, message",
    [
        # A goal of a form the rule does not prove, named as the file spells it.
        ("assert Set(Two) by rule gen;", 1, "E0102", "rule gen cannot prove Set(Two)"),
        ("assert Set(Two) by rule coherent;", 1, "E0102", "rule coherent cannot prove Set(Two)"),
        ("assert Gen(Two) by rule mor_intro;", 1, "E0102", "rule mor_intro cannot prove Gen(Two)"),
        ("assert SupportsQuant(Nat) by rule H4 from H3;", 1, "E0102",
         "rule H4 cannot prove SupportsQuant(Nat)"),
        ("assert Set(Two) by rule binfn;", 1, "E0102", "rule binfn cannot prove Set(Two)"),
        ("assert Obj(Nat.3, Nat) by rule cla;", 1, "E0102",
         "rule cla cannot prove Obj(Nat.3, Nat)"),
        ("assert Gen(Two) by rule set_intro;", 1, "E0102", "rule set_intro cannot prove Gen(Two)"),
        ("assert Set(Two) by rule domain_intro;", 1, "E0102",
         "rule domain_intro cannot prove Set(Two)"),
        ("assert Set(Two) by rule eq_within;", 1, "E0102", "rule eq_within cannot prove Set(Two)"),
        # A subproof has no goal: only H4, with its own `from`, can be one.
        ("assert SupportsQuant(P[P[Nat]]) by rule H4 from rule H4;", 1, "E0102",
         f"rule H4 {_NO_GOAL}"),
        ("assert SupportsQuant(P[Nat]) by rule H4 from rule binfn;", 1, "E0102",
         f"rule binfn {_SUBPROOF}"),
        ("assert SupportsQuant(P[Nat]) by rule H4 from rule cla;", 1, "E0102",
         f"rule cla {_SUBPROOF}"),
        ("assert SupportsQuant(P[Nat]) by rule H4 from rule set_intro;", 1, "E0102",
         f"rule set_intro {_SUBPROOF}"),
        ("assert SupportsQuant(P[Nat]) by rule H4 from rule domain_intro;", 1, "E0102",
         f"rule domain_intro {_SUBPROOF}"),
        ("assert SupportsQuant(P[Nat]) by rule H4 from rule gen_intro;", 1, "E0102",
         f"rule gen_intro {_SUBPROOF}"),
        ("assert SupportsQuant(P[Nat]) by rule H4 from rule coherent;", 1, "E0102",
         f"rule coherent {_SUBPROOF}"),
        ("assert SupportsQuant(P[Nat]) by rule H4 from rule mor;", 1, "E0102",
         f"rule mor {_SUBPROOF}"),
        ("assert SupportsQuant(P[Nat]) by rule H4 from rule eq_within;", 1, "E0102",
         f"rule eq_within {_SUBPROOF}"),
        # Judgment arguments of the wrong number or kind.
        ("assert Gen(Two, Nat) by rule gen;", 1, "E0102", "Gen takes 1 argument(s), got 2"),
        ('assert Gen("x") by rule gen;', 1, "E0102", "Gen: expected a generator expression"),
        ("assert Obj(Two, Two) by rule gen;", 1, "E0102", "Obj takes an object literal"),
        ("assert Eq(Two, Two.no) by rule eq_within;", 1, "E0102", "Eq takes two object literals"),
        ('assert Coherent("squares", F) by rule coherent;', 1, "E0102",
         'Coherent takes a family name and a "descriptor"'),
        # A `model check` takes a judgment and a bound the sweep covers.
        ("model check Gen(Two) upto 9;", 1, "E0102", "model check bounds range over 1..4"),
        ("model check Eq(Two.yes, Two.no) upto 1;", 1, "E0102",
         "model check takes a judgment, not an equality query"),
        # Only `rule eq_within` with no subproofs proves an Eq.
        (_TWO_DOMAIN + "assert Eq(Two.yes, Two.no) by axiom CLA;", 4, "E0102", _EQ_PROOF),
        (_TWO_DOMAIN + "assert Eq(Two.yes, Two.no) by rule bogus from rule cla;", 4, "E0102",
         _EQ_PROOF),
        (_TWO_DOMAIN + "assert Eq(Two.yes, Two.no) by rule eq_within from H3;", 4, "E0102",
         _EQ_PROOF),
        # A name the catalog of axioms, rules or specs does not know.
        ("assert SupportsQuant(Nat) by axiom H9;", 1, "E0102", "unknown axiom: 'H9'"),
        ("assert Gen(Two) by rule foo;", 1, "E0102", "unknown rule 'foo'"),
        ('limit member "shift(squares, x)" upto 4 4 16;', 1, "E0102",
         "expected an integer, got 'x'"),
        ('limit member "xor(squares),pow2)" upto 4 4 16;', 1, "E0102",
         "unbalanced parentheses in 'xor(squares),pow2)'"),
        ('limit member "flip(squares,-1)" upto 4 4 16;', 1, "E0102",
         "bad spec 'flip(squares,-1)': index must be nonnegative"),
        ('assert Coherent(F, "corrupt(squares,3)") by rule coherent;', 1, "E0102",
         "corrupt(...) takes three arguments: 'corrupt(squares,3)'"),
        # A `from` premise that the derivation does not use.
        ("generator G primitive {a};\nassert Gen(P[G]) by rule gen from axiom H3;", 2, "E0102",
         "rule gen does not use its 'from' premise SupportsQuant(Nat)"),
        ("assert SupportsQuant(P[Nat]) by rule H4 from axiom H3, axiom H3;", 1, "E0102",
         "rule H4 does not use its 'from' premise SupportsQuant(Nat)"),
        ("generator G primitive {a};\nmorphism f : G -> Two := table { G.a -> Two.yes };\n"
         "assert Mor(f, G, Two) by rule mor from H3;", 3, "E0102",
         "rule mor does not use its 'from' premise SupportsQuant(Nat)"),
        # Primitives and aliases share one namespace.
        ("generator G primitive {a, b};\ngenerator G := Two;", 2, "E0102",
         "generator 'G' is already declared"),
        ("generator G := Two;\ngenerator G primitive {a, b};", 2, "E0102",
         "generator 'G' is already declared"),
        # A morphism, too, is declared once.
        ("morphism f : Two * Two -> Two := rule eq_of[Two];\n" * 2, 2, "E0102",
         "morphism 'f' is already declared"),
    ],
)
def test_each_refusal_names_its_rule_and_goal(source, line, code, message):
    result = elaborate_source(source + "\n")
    assert [(d.span.line, d.code, d.message) for d in result.diagnostics] == [
        (line, code, message)
    ]


@pytest.mark.parametrize("rule", sorted(_RULE_ALIASES))
def test_only_h4_can_be_a_subproof(rule):
    # H4 gets past "needs a goal", to ask for its own `from`.
    result = elaborate_source(f"assert SupportsQuant(P[Nat]) by rule H4 from rule {rule};\n")
    refusal = _NO_GOAL if _RULE_ALIASES[rule] == "squant" else _SUBPROOF
    assert [(d.code, d.message) for d in result.diagnostics] == [("E0102", f"rule {rule} {refusal}")]


def test_a_right_eq_proof_still_evaluates():
    for rule in ("eq_within", "eq_within_domain"):
        result = elaborate_source(_TWO_DOMAIN + f"assert Eq(Two.yes, Two.no) by rule {rule};\n")
        assert not result.diagnostics
        assert result.items[-1] == ("Eq(Two.yes, Two.no)", "pass", "evaluates to no", None)


def test_an_include_runs_once_per_session(tmp_path):
    (tmp_path / "lib.og").write_text("assert Set(Two) by axiom H1;\n")
    (tmp_path / "mid.og").write_text('include "lib.og";\n')
    main = tmp_path / "main.og"
    main.write_text('include "lib.og";\ninclude "mid.og";\ninclude "./lib.og";\n')
    result = elaborate_file(main)
    assert not result.diagnostics
    assert [i.name for i in result.items] == ["Set(Two)"]



def _two_domains(first: str, second: str) -> str:
    """Two Domain(P[Two], ...) theorems, with the equalities `first` then
    `second` ("builtin" or "table"), then Set(P[Two]) by set_intro."""
    pt = Powerset(TWO)
    subsets = [frozenset(), frozenset({"yes"}), frozenset({"no"}), frozenset({"yes", "no"})]
    rows = tuple(
        (ObjLit((a, b), Product(pt, pt)), ObjLit("yes" if a == b else "no", TWO))
        for a in subsets
        for b in subsets
    )
    eqs = {"builtin": "eq_of[P[Two]]", "table": render(Table(Product(pt, pt), TWO, rows))}
    return (
        "assert Set(Two) by axiom H1;\n"
        + "".join(f"assert BinFn({eq}, P[Two] * P[Two]) by rule mor;\n" for eq in eqs.values())
        + f"assert Domain(P[Two], {eqs[first]}) by rule domain_intro;\n"
        + f"assert Domain(P[Two], {eqs[second]}) by rule domain_intro;\n"
        + "assert Set(Two) by axiom H1;\n"
        + "assert SupportsQuant(P[Two]) by rule H4;\n"
        + "assert Set(P[Two]) by rule set_intro;\n"
    )


# Each case: a file, and the axioms and trace size of its last theorem when
# every lookup finds the latest theorem in scope.  In the first two, set_intro
# takes the second domain: the builtin's trace holds a use of H1 that the
# fresh H1 before the H4 line does not share, and the table's holds none.  In
# the last, the parts of Set(Nat) shadow the older SupportsQuant(Nat), which
# the domain of P[Nat] holds, so the H4 premise is another H3 leaf.
_SHADOWING = {
    "domains builtin then table": (_two_domains("builtin", "table"), "axioms: H1, H4", 8),
    "domains table then builtin": (_two_domains("table", "builtin"), "axioms: H1, H1, H4", 9),
    "a set's parts shadow an older SupportsQuant": (
        "assert SupportsQuant(Nat) by axiom H3;\n"
        "morphism eq_pn : P[Nat] * P[Nat] -> Two := rule eq_of[P[Nat]];\n"
        "assert BinFn(eq_pn, P[Nat] * P[Nat]) by rule binfn;\n"
        "assert Domain(P[Nat], eq_pn) by rule domain_intro;\n"
        "morphism eq_nat : Nat * Nat -> Two := rule eq_of[Nat];\n"
        "assert BinFn(eq_nat, Nat * Nat) by rule binfn;\n"
        "assert Domain(Nat, eq_nat) by rule domain_intro;\n"
        "assert Set(Nat) by rule set_intro from axiom H3;\n"
        "assert SupportsQuant(P[Nat]) by rule H4;\n"
        "assert Set(P[Nat]) by rule set_intro;\n",
        "axioms: H3, H3, H4",
        9,
    ),
}


@pytest.mark.parametrize("case", _SHADOWING)
def test_a_lookup_finds_the_latest_theorem_in_scope(case):
    source, axioms, nodes = _SHADOWING[case]
    result = elaborate_source(source)
    assert result.diagnostics == ()
    assert result.items[-1].detail == axioms
    assert verify_trace(result.theorems[-1]).node_count == nodes
