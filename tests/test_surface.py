"""Lexer and parser: tokens, diagnostics, error recovery, round trips."""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ogkernel.stdlib import prelude_source
from ogkernel.surface import (
    KEYWORDS,
    AssertDecl,
    AxiomRef,
    Diagnostic,
    GeneratorDecl,
    RuleApp,
    Token,
    lex,
    parse_source,
    render_decl,
)
from ogkernel.terms import Span

CORPUS = Path(__file__).parent / "corpus"


def _tokens(source: str):
    tokens, diagnostics = lex(source)
    assert not diagnostics
    return [(t.kind, t.text) for t in tokens if t.kind != "eof"]


def test_lex_example():
    assert _tokens("Set(P[Nat])") == [
        ("ident", "Set"),
        ("symbol", "("),
        ("ident", "P"),
        ("symbol", "["),
        ("keyword", "Nat"),
        ("symbol", "]"),
        ("symbol", ")"),
    ]


def test_lex_comment_only():
    tokens, diagnostics = lex("-- note\n")
    assert not diagnostics
    assert [t for t in tokens if t.kind != "eof"] == []


def test_lex_illegal_character():
    _, diagnostics = lex("Δ")
    assert len(diagnostics) == 1 and diagnostics[0].code == "E0001"


def test_lex_strings_bitlists_integers():
    assert _tokens('include "lib.og";') == [
        ("keyword", "include"),
        ("string", "lib.og"),
        ("symbol", ";"),
    ]
    assert _tokens("#1011 42") == [("bitlist", "1011"), ("integer", "42")]
    _, diags = lex('"unterminated')
    assert diags and diags[0].code == "E0001"
    _, diags = lex("#")
    assert diags and diags[0].code == "E0001"


def test_lex_spans_cover_non_whitespace():
    source = 'assert Set(Two) by axiom H1;\n"x" 42'
    tokens, diagnostics = lex(source)
    assert not diagnostics
    spans = [(t.span.start, t.span.end) for t in tokens if t.kind != "eof"]
    for (s1, e1), (s2, _) in zip(spans, spans[1:]):
        assert e1 <= s2  # non-overlapping, in source order
    covered = set()
    for s, e in spans:
        covered.update(range(s, e))
    for i, ch in enumerate(source):
        if not ch.isspace():
            assert i in covered


def test_parse_examples():
    decls, diags = parse_source("assert Set(Two) by axiom H1;")
    assert not diags
    assert isinstance(decls[0], AssertDecl)
    assert decls[0].judgment.head == "Set"
    assert decls[0].proof == AxiomRef("H1", decls[0].proof.span)

    decls, diags = parse_source("generator G primitive;")
    assert not diags and isinstance(decls[0], GeneratorDecl)
    assert decls[0].tags is None

    decls, diags = parse_source("generator G primitive {a, b};")
    assert decls[0].tags == ("a", "b")


def test_parse_unclosed_bracket_then_recovery():
    decls, diags = parse_source("assert Set(Two by;\nassert Gen(Two) by rule gen;")
    assert [d.code for d in diags] == ["E0003"]
    assert len(decls) == 1  # the second declaration still parses


def test_parse_error_codes():
    _, diags = parse_source("assert Set(Two) frobnicate;")
    assert diags[0].code == "E0002"
    _, diags = parse_source("morphism f : Two -> Two := table { Two.yes -> Two.no ;")
    assert diags[0].code == "E0003"


def test_integers_are_ascii_digits():
    assert _tokens("0 42") == [("integer", "0"), ("integer", "42")]
    _, diags = parse_source('morphism r : Nat -> Two := rule restrict["squares", \u00b2];')
    assert diags[0].code == "E0001"
    assert diags[0].message == "illegal character '\u00b2'"


def test_five_error_file_yields_five_primary_diagnostics():
    decls, diags = parse_source((CORPUS / "err5.og").read_text())
    assert len(diags) == 5
    assert len(decls) == 1  # the final well-formed declaration survives


def test_axiom_shorthand_in_proofs():
    decls, _ = parse_source("assert SupportsQuant(P[Nat]) by rule H4 from H3;")
    proof = decls[0].proof
    assert isinstance(proof, RuleApp)
    assert proof.subproofs == (AxiomRef("H3", proof.span),)
    canonical, _ = parse_source(render_decl(decls[0]))
    assert canonical[0] == decls[0]


def test_parse_determinism():
    source = (CORPUS / "17_mixed_session.og").read_text()
    first = parse_source(source)
    second = parse_source(source)
    assert first == second


def test_golden_corpus_round_trip():
    corpus = sorted(CORPUS.glob("[0-9]*.og"))
    assert len(corpus) == 20
    for path in corpus:
        decls, diags = parse_source(path.read_text())
        assert not diags, f"{path.name}: {[d.message for d in diags]}"
        rendered = "\n".join(render_decl(d) for d in decls)
        reparsed, rediags = parse_source(rendered)
        assert not rediags, f"{path.name} re-render: {[d.message for d in rediags]}"
        assert reparsed == decls, f"{path.name} does not round-trip"


def test_decl_forms_round_trip_individually():
    samples = [
        "generator G primitive;",
        "generator G primitive {a, b, c};",
        "generator PN := P[Nat];",
        "morphism f : Two -> Two := table { Two.yes -> Two.no, Two.no -> Two.yes };",
        "morphism e : Nat * Nat -> Two := rule eq_of[Nat];",
        "assert Gen(Two * (Nat * Two)) by rule gen;",
        "assert Domain(Two, eq_of[Two]) by rule domain_intro;",
        'assert Coherent(F, "restrictions(squares)") by rule coherent;',
        "assert Obj(limit(F), P[Nat]) by rule cla;",
        'assert Obj(P[Two]."{}", P[Two]) by rule cla;',
        "assert Eq(Nat.3, Nat.5) by rule eq_within;",
        "model check Set(Two) upto 3;",
        'include "lib.og";',
        "limit demo;",
        'limit member "periodic:1/01" upto 8 8 64;',
        "assert Set(Nat) by rule set_intro from (rule domain_intro from rule gen), axiom H3;",
    ]
    for source in samples:
        decls, diags = parse_source(source)
        assert not diags, f"{source}: {[d.message for d in diags]}"
        assert len(decls) == 1
        reparsed, rediags = parse_source(render_decl(decls[0]))
        assert not rediags
        assert reparsed == decls


def test_bitlist_sugar_normalizes():
    decls, diags = parse_source('limit member #1101 upto 8 8 64;')
    assert not diags
    assert decls[0].spec == "finite:1101"
    reparsed, _ = parse_source(render_decl(decls[0]))
    assert reparsed == decls


def test_pair_literals_and_parenthesized_products():
    decls, diags = parse_source(
        "morphism f : Two * Two -> Two := table { (Two.yes, Two.no) -> Two.yes };"
    )
    assert not diags
    key = decls[0].body[0][0]  # a table literal is its tuple of rows
    assert key.tag == "(yes,no)"
    decls, diags = parse_source("assert Gen((Two * Two) * Nat) by rule gen;")
    assert not diags


# ---------------------------------------------------------------------------
# The character-at-a-time lexer that the master-regex `lex` replaced, kept
# verbatim as the reference of the differential property below.

_SYMBOLS = ("->", ":=", "(", ")", "[", "]", "{", "}", "*", ";", ",", ".", ":")


def reference_lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Maximal-munch tokenization; `--` comments are skipped."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def span(start_i: int, start_line: int, start_col: int, end_i: int) -> Span:
        return Span(start_line, start_col, start_i, end_i)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        start_i, start_line, start_col = i, line, col
        if ch == '"':
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] != '"':
                diagnostics.append(
                    Diagnostic(
                        "error",
                        "E0001",
                        "unterminated string literal",
                        span(start_i, start_line, start_col, j),
                    )
                )
                i = j
                col += j - start_i
                continue
            text = source[i + 1 : j]
            tokens.append(Token("string", text, span(start_i, start_line, start_col, j + 1)))
            col += j + 1 - i
            i = j + 1
            continue
        if ch == "#":
            j = i + 1
            while j < n and source[j] in "01":
                j += 1
            if j == i + 1:
                diagnostics.append(
                    Diagnostic(
                        "error",
                        "E0001",
                        "'#' must be followed by a 0/1 bit list",
                        span(start_i, start_line, start_col, i + 1),
                    )
                )
                i += 1
                col += 1
                continue
            tokens.append(
                Token("bitlist", source[i + 1 : j], span(start_i, start_line, start_col, j))
            )
            col += j - i
            i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(
                Token("integer", source[i:j], span(start_i, start_line, start_col, j))
            )
            col += j - i
            i = j
            continue
        if ch.isascii() and ch.isalpha():
            j = i
            while j < n and (
                source[j].isascii() and (source[j].isalnum() or source[j] == "_")
            ):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, span(start_i, start_line, start_col, j)))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(
                    Token("symbol", sym, span(start_i, start_line, start_col, i + len(sym)))
                )
                i += len(sym)
                col += len(sym)
                break
        else:
            diagnostics.append(
                Diagnostic(
                    "error",
                    "E0001",
                    f"illegal character {ch!r}",
                    span(start_i, start_line, start_col, i + 1),
                )
            )
            i += 1
            col += 1
    tokens.append(Token("eof", "", Span(line, col, n, n)))
    return tokens, diagnostics


def _assert_lex_agrees(source: str) -> None:
    tokens, diagnostics = lex(source)
    expected_tokens, expected_diagnostics = reference_lex(source)
    assert [(t.kind, t.text, t.span) for t in tokens] == [
        (t.kind, t.text, t.span) for t in expected_tokens
    ]
    assert diagnostics == expected_diagnostics


def test_lex_agrees_with_reference_lexer_on_corpus_and_prelude():
    for path in sorted(CORPUS.glob("*.og")):
        _assert_lex_agrees(path.read_text("utf-8"))
    _assert_lex_agrees(prelude_source())


# Fragments of `.og` text, so that keywords, comments, arrows and literals
# occur often, plus single characters of the alphabet and stray ones.  Some
# are longer words that begin with a keyword, and some leave a comment or a
# string open at the end of a line or of the input.
_FRAGMENTS = [
    *sorted(KEYWORDS), "Set", "P", "x_1", "--", "-- note", "->", ":=", '"sq"', "#01",
    "42", "007", " ", "  ", "\n", "\r\n", "\t", "\r", "-- end", '"abc\n',
    "Two_x", "limitdemo", "generator2", "Two\u00e9",
]
_CHARS = list("aZ9_()[]{}*;,.:>= ") + ["-", "#", '"', "²", "\t", "\r", "\n"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS) | st.sampled_from(_CHARS), max_size=40))
def test_lex_agrees_with_reference_lexer(pieces):
    _assert_lex_agrees("".join(pieces))
