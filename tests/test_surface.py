"""Lexer and parser: tokens, diagnostics, error recovery, round trips."""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from ogkernel.cli import EXIT_OK, main
from ogkernel.elaborate import elaborate_source
from ogkernel.stdlib import prelude_source
from ogkernel.surface import (
    _AXIOM_NAMES,
    _LEX_ERRORS,
    JUDGMENT_HEADS,
    KEYWORDS,
    MAX_NESTING,
    AssertDecl,
    AxiomRef,
    Diagnostic,
    GeneratorDecl,
    IncludeDecl,
    LimitDecl,
    Malformed,
    ModelCheckDecl,
    MorphismDecl,
    RuleApp,
    StreamSpecError,
    _scan,
    _tag_value,
    parse_family,
    parse_source,
    parse_stream_spec,
    render_decl,
)
from ogkernel.terms import (
    BUILTIN_RULES,
    BuiltinRule,
    EqQuery,
    FamilySpec,
    GenExpr,
    Ident,
    IsBinFn,
    IsCoherentFamily,
    IsDomain,
    IsGen,
    IsMor,
    IsObj,
    IsSet,
    LimitRef,
    MorphismRef,
    Named,
    Nat,
    ObjLit,
    Powerset,
    Product,
    Span,
    SupportsQuant,
    Table,
    Two,
    render,
)

CORPUS = Path(__file__).parent / "corpus"

_KIND_KEYS = frozenset({"ident", "integer", "string", "bitlist", "eof"})  # keyed by kind


class Token(NamedTuple):
    kind: str  # keyword | ident | symbol | integer | bitlist | string | eof
    text: str
    span: Span


def lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """The parser's keyed token tuples as `Token` records."""
    toks, diagnostics = _scan(source)
    kinds = dict.fromkeys(KEYWORDS, "keyword") | {kind: kind for kind in _KIND_KEYS}
    tokens = [Token(kinds.get(key, "symbol"), text, Span(*where)) for key, text, *where in toks]
    return tokens, diagnostics


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
    assert decls[0].judgment == IsSet(Two())
    assert decls[0].proof == AxiomRef("H1")

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
    # the end of the file is named in words; an identifier spelled like
    # its token kind is quoted as any other token
    _, diags = parse_source("assert Set(Two")
    assert diags[0].message == "unclosed bracket: expected ')', found end of file"
    _, diags = parse_source("assert Set(Two) by")
    assert diags[0].message == "expected a proof expression, found end of file"
    _, diags = parse_source("assert eof;")
    assert diags[0].message == "expected a judgment head, found 'eof'"
    # a string literal is shown with its quotes, apart from an identifier
    _, diags = parse_source('assert "" ;\nassert "abc";')
    assert [d.message for d in diags] == [
        """expected a judgment head, found '""'""",
        """expected a judgment head, found '"abc"'""",
    ]
    # a bit list is shown with its `#`, apart from an integer
    _, diags = parse_source("assert #1101;\nassert 1101;")
    assert [d.message for d in diags] == [
        "expected a judgment head, found '#1101'",
        "expected a judgment head, found '1101'",
    ]
    # a malformed spec is E0002 at its string: a former's stream or family
    # argument, or the family of a quoted `limit(...)` tag
    for source, message, note in (
        ('morphism m : Nat -> Two := rule indicator_stream["sq"];',
         "unknown stream spec: 'sq'", None),
        ('assert Mor(restrict["xor(squares)", 3], Nat, Two) by rule mor;',
         "xor(...) takes two arguments: 'xor(squares)'", None),
        ('assert Mor(union_of_family["corrupt(squares,-1,2)"], Nat, Two) by rule mor;',
         "corrupt(...) stage and index must be nonnegative: 'corrupt(squares,-1,2)'", None),
        ('assert Obj(P[Nat]."limit(restrictions(sq))", P[Nat]) by rule cla;',
         "malformed object tag 'limit(restrictions(sq))'", "unknown stream spec: 'sq'"),
    ):
        _, diags = parse_source(source)
        assert [(d.code, d.message, d.note, d.span.col) for d in diags] == [
            ("E0002", message, note, source.index('"') + 1)
        ], source


def test_a_spec_in_any_spelling_is_one_term():
    judgments = [
        parse_source(f'model check Mor(indicator_stream["{spec}"], Nat, Two) upto 1;')[0][0]
        for spec in ("xor(squares, pow2)", "xor(squares,pow2)")
    ]
    assert judgments[0] == judgments[1]
    assert render_decl(judgments[0]) == (
        'model check Mor(indicator_stream["xor(squares,pow2)"], Nat, Two) upto 1;'
    )


def test_a_malformed_quoted_tag_is_a_syntax_error_at_the_tag():
    head = "morphism f : P[Two] -> Two := table { P[Two]."
    cases = (
        ("{yes,no", None),
        ("{yes,yes}", "a set tag repeats a member"),
        ("(yes,no,yes)", "a pair tag has two members"),
        ("{a),(b}", "unbalanced brackets in 'a),(b'"),
    )
    for text, note in cases:
        _, diags = parse_source(f'{head}"{text}" -> Two.yes }};')
        assert [(d.code, d.message, d.note, d.span.col) for d in diags] == [
            ("E0002", f"malformed object tag {text!r}", note, len(head) + 1)
        ]


def test_a_set_tag_names_one_object_in_any_member_order():
    source = (
        'model check Obj(P[Two]."{no,yes}", P[Two]) upto 1;\n'
        'model check Obj(P[Two]."{yes,no}", P[Two]) upto 1;\n'
        "morphism f : P[Two] -> Two := table { P[Two].\"{}\" -> Two.yes, "
        'P[Two]."{yes}" -> Two.no, P[Two]."{no}" -> Two.no, P[Two]."{yes,no}" -> Two.no };\n'
        "assert Mor(f, P[Two], Two) by rule mor;\n"
    )
    items = elaborate_source(source).items
    assert [(i.status, i.detail) for i in items[:2]] == [("pass", "holds in 1/1 models")] * 2
    assert items[2].status == "pass"
    decls, _ = parse_source(source)
    assert decls[0].judgment.obj == decls[1].judgment.obj


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
    assert proof.subproofs == (AxiomRef("H3"),)
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
        less_spans = [d[:-1] for d in decls]
        assert [d[:-1] for d in reparsed] == less_spans, f"{path.name} does not round-trip"


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
    assert str(decls[0].spec) == "finite:1101"
    reparsed, _ = parse_source(render_decl(decls[0]))
    assert reparsed == decls


def test_pair_literals_and_parenthesized_products():
    decls, diags = parse_source(
        "morphism f : Two * Two -> Two := table { (Two.yes, Two.no) -> Two.yes };"
    )
    assert not diags
    key = decls[0].body.rows[0][0]
    assert key.tag == ("yes", "no")
    decls, diags = parse_source("assert Gen((Two * Two) * Nat) by rule gen;")
    assert not diags
    (item,) = elaborate_source("model check Obj((Two.yes, Two.no), Two * Two) upto 1;").items
    assert (item.status, item.detail) == ("pass", "holds in 1/1 models")
    _, diags = parse_source("assert Obj((Two, Nat), Two * Two) by rule gen;")
    assert [(d.code, d.message) for d in diags] == [("E0002", "pair literals take object literals")]


# ---------------------------------------------------------------------------
# The character-at-a-time lexer that the master-regex `lex` replaced, kept
# verbatim but for the severity its diagnostics dropped, as the reference of
# the differential property below.

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


# ---------------------------------------------------------------------------
# The parser on `Token` records that the key-dispatching `_Parser` replaced,
# kept verbatim but for its three names, the two constants it imports, the
# spans its idents, judgments and proofs dropped, and the terms it now builds:
# `_reference_judgment` checks each judgment head by head, as elaboration did
# before the parser built terms, a morphism's table is a `Table` and a `limit
# member` spec a stream.  It is the reference of the differential tests below.


def _reference_judgment(head: str, args: tuple):
    """The term that `head(args)` writes, or a Malformed naming the argument
    of the wrong number or sort that elaboration once refused first."""

    def want(n: int) -> None:
        if len(args) != n:
            raise ValueError(f"{head} takes {n} argument(s), got {len(args)}")

    def expr_arg(a) -> GenExpr:
        if not isinstance(a, GenExpr):
            raise ValueError(f"{head}: expected a generator expression")
        return a

    def fn_arg(a, dom, cod):
        if isinstance(a, BuiltinRule):
            return a
        if type(a) is tuple:
            return Table(dom, cod, a)
        if isinstance(a, Named):
            return MorphismRef(a.name)
        shown = f'"{a}"' if isinstance(a, str) else render(a)
        raise ValueError(f"expected a function argument, got {shown}")

    try:
        if head in ("Gen", "Set", "SupportsQuant"):
            want(1)
            return {"Gen": IsGen, "Set": IsSet, "SupportsQuant": SupportsQuant}[head](expr_arg(args[0]))
        if head == "Domain":
            want(2)
            expr = expr_arg(args[0])
            return IsDomain(expr, fn_arg(args[1], Product(expr, expr), Two()))
        if head == "Mor":
            want(3)
            dom, cod = expr_arg(args[1]), expr_arg(args[2])
            return IsMor(fn_arg(args[0], dom, cod), dom, cod)
        if head == "BinFn":
            want(2)
            dom = expr_arg(args[1])
            return IsBinFn(fn_arg(args[0], dom, Two()), dom)
        if head == "Eq":
            want(2)
            if not all(isinstance(a, ObjLit) for a in args):
                raise ValueError("Eq takes two object literals")
            return EqQuery(*args)
        if head == "Obj":
            want(2)
            expr = expr_arg(args[1])
            if not isinstance(args[0], (ObjLit, LimitRef)):
                raise ValueError("Obj takes an object literal")
            return IsObj(args[0], expr)
        want(2)
        name, descriptor = args
        if not isinstance(name, Named) or not isinstance(descriptor, str):
            raise ValueError('Coherent takes a family name and a "descriptor"')
        return IsCoherentFamily(FamilySpec(name.name, parse_family(descriptor)))
    except ValueError as exc:
        return Malformed(str(exc))


class _ReferenceParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _ReferenceParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open `(`, `P[`, `from` and `*` levels
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]  # `advance` never moves past `eof`

    def bracket_follows(self) -> bool:
        """Whether a `[` follows the token at hand."""
        tok = self.tokens[min(self.pos + 1, len(self.tokens) - 1)]
        return tok.kind == "symbol" and tok.text == "["

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def error(self, code: str, message: str, span: Span | None = None, note: str | None = None):
        return _ReferenceParseError(
            Diagnostic(code, message, span or self.peek().span, note)
        )

    def expect(self, kind: str, text: str | None = None) -> Token:
        if self.at(kind, text):
            return self.advance()
        want = text if text is not None else kind
        raise self.error("E0002", f"expected {want!r}, found {self.shown()}")

    def enter(self) -> Token:
        """Consume the token at hand, which opens one more level of nesting."""
        if self.depth == MAX_NESTING:
            raise self.error("E0002", f"nesting deeper than MAX_NESTING = {MAX_NESTING}")
        self.depth += 1
        return self.advance()

    def leave(self, closer: str, opener: Token) -> Token:
        """Consume the bracket that closes the level `opener` entered."""
        self.depth -= 1
        return self.expect_closing(closer, opener.span)

    def expect_closing(self, closer: str, opener_span: Span) -> Token:
        if self.at("symbol", closer):
            return self.advance()
        raise self.error(
            "E0003",
            f"unclosed bracket: expected {closer!r}, found {self.shown()}",
            note=f"opened at line {opener_span.line}, column {opener_span.col}",
        )

    def comma_list(self, item, closer: str | None = None) -> list:
        """`item()` once and again after each `,`; no items before `closer`."""
        if closer is not None and self.at("symbol", closer):
            return []
        items = [item()]
        while self.at("symbol", ","):
            self.advance()
            items.append(item())
        return items

    def shown(self) -> str:
        """How an error message names the token at hand."""
        tok = self.tokens[self.pos]
        if tok.kind == "eof":
            return "end of file"
        if tok.kind == "bitlist":
            return repr("#" + tok.text)
        return repr(f'"{tok.text}"' if tok.kind == "string" else tok.text)

    def sync(self) -> None:
        """Recover at the next `;` (consumed) and continue parsing."""
        while not self.at("eof") and not self.at("symbol", ";"):
            self.advance()
        if self.at("symbol", ";"):
            self.advance()

    # -- entry point

    def parse_file(self) -> list[Decl]:
        decls: list[Decl] = []
        while not self.at("eof"):
            try:
                decls.append(self.parse_decl())
            except _ReferenceParseError as err:
                self.diagnostics.append(err.diagnostic)
                self.depth = 0
                self.sync()
        return decls

    def parse_decl(self) -> Decl:
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.text == "generator":
                return self.parse_gen_decl()
            if tok.text == "morphism":
                return self.parse_mor_decl()
            if tok.text == "assert":
                return self.parse_assert_decl()
            if tok.text == "model":
                return self.parse_check_decl()
            if tok.text == "include":
                return self.parse_include_decl()
            if tok.text == "limit":
                return self.parse_limit_decl()
        raise self.error("E0002", f"expected a declaration, found {self.shown()}")

    def parse_gen_decl(self) -> GeneratorDecl:
        start = self.expect("keyword", "generator")
        name = self.expect("ident").text
        body: GenExpr | None = None
        tags: tuple[str, ...] | None = None
        if self.at("keyword", "primitive"):
            self.advance()
            if self.at("symbol", "{"):
                opener = self.advance()
                tags = tuple(self.comma_list(self.parse_tag))
                self.expect_closing("}", opener.span)
        elif self.at("symbol", ":="):
            self.advance()
            body = self.parse_gen_expr()
        else:
            raise self.error("E0002", "expected 'primitive' or ':=' in generator declaration")
        self.expect("symbol", ";")
        return GeneratorDecl(name, body, tags, start.span)

    def parse_tag(self) -> str:
        if self.at("ident") or self.at("integer"):
            return self.advance().text
        raise self.error("E0002", "expected an object tag")

    def parse_mor_decl(self) -> MorphismDecl:
        start = self.expect("keyword", "morphism")
        name = self.expect("ident").text
        self.expect("symbol", ":")
        dom = self.parse_gen_expr()
        self.expect("symbol", "->")
        cod = self.parse_gen_expr()
        self.expect("symbol", ":=")
        if self.at("keyword", "table"):
            self.advance()
            try:
                body = Table(dom, cod, self.parse_table_body())
            except ValueError as exc:
                body = Malformed(str(exc))
        elif self.at("keyword", "rule"):
            self.advance()
            body = self.parse_builtin(self.expect("ident"))
        else:
            raise self.error("E0002", "expected 'table' or 'rule' after ':='")
        self.expect("symbol", ";")
        return MorphismDecl(name, dom, cod, body, start.span)

    def parse_table_body(self):
        opener = self.expect("symbol", "{")
        rows = self.comma_list(self.parse_row, "}")
        self.expect_closing("}", opener.span)
        return tuple(rows)

    def parse_row(self) -> tuple[ObjLit, ObjLit]:
        start = self.peek()
        key = self.parse_arg()
        self.expect("symbol", "->")
        value = self.parse_arg()
        if not isinstance(key, ObjLit) or not isinstance(value, ObjLit):
            raise self.error("E0002", "table rows take object literals", start.span)
        return key, value

    def parse_obj_tag(self):
        if self.at("string", ""):
            raise self.error("E0002", "an object tag must be nonempty")
        if self.at("ident") or self.at("integer"):
            return self.advance().text
        if not self.at("string"):
            raise self.error("E0002", "expected an object tag after '.'")
        text = self.peek().text
        try:
            tag = _tag_value(text)
        except ValueError as exc:
            raise self.error(
                "E0002", f"malformed object tag {text!r}", note=str(exc) or None
            ) from None
        self.advance()
        return tag

    def parse_builtin(self, name: Token) -> BuiltinRule:
        """The former `name[args]`, whose brackets may be left out when there
        are no arguments; one the catalog does not admit is E0002."""
        args: list = []
        if self.at("symbol", "["):
            opener = self.advance()
            kinds = list(BUILTIN_RULES.get(name.text, ()))
            args = self.comma_list(
                lambda: self.parse_builtin_arg(kinds.pop(0) if kinds else None), "]"
            )
            self.expect_closing("]", opener.span)
        try:
            return BuiltinRule(name.text, tuple(args))
        except ValueError as exc:
            raise self.error("E0002", str(exc), name.span) from None

    def parse_builtin_arg(self, kind: str | None):
        if self.at("string"):
            text = self.peek().text
            if kind == "stream" or kind == "family":
                parse = parse_stream_spec if kind == "stream" else parse_family
                try:
                    text = parse(text)
                except StreamSpecError as exc:
                    raise self.error("E0002", str(exc)) from None
            self.advance()
            return text
        if self.at("integer"):
            return int(self.advance().text)
        return self.parse_gen_expr()

    # -- generator expressions

    def parse_gen_expr(self) -> GenExpr:
        return self.parse_factors(self.parse_gen_atom())

    def parse_factors(self, expr: GenExpr) -> GenExpr:
        """`expr` times the `*` factors that follow it."""
        depth = self.depth
        while self.at("symbol", "*"):
            self.enter()
            expr = Product(expr, self.parse_gen_atom())
        self.depth = depth
        return expr

    def parse_gen_atom(self) -> GenExpr:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "Two":
            self.advance()
            return Two()
        if tok.kind == "keyword" and tok.text == "Nat":
            self.advance()
            return Nat()
        if tok.kind == "symbol" and tok.text == "(":
            opener = self.enter()
            expr = self.parse_gen_expr()
            self.leave(")", opener)
            return expr
        if tok.kind == "ident":
            if tok.text == "P" and self.bracket_follows():
                self.advance()
                opener = self.enter()
                inner = self.parse_gen_expr()
                self.leave("]", opener)
                return Powerset(inner)
            self.advance()
            return Named(Ident(tok.text))
        raise self.error("E0002", f"expected a generator expression, found {self.shown()}")

    # -- judgments

    def parse_judgment(self):
        tok = self.peek()
        if tok.kind != "ident" or tok.text not in JUDGMENT_HEADS:
            raise self.error(
                "E0002",
                f"expected a judgment head, found {self.shown()}",
                note="heads: " + ", ".join(sorted(JUDGMENT_HEADS)),
            )
        self.advance()
        opener = self.expect("symbol", "(")
        args = self.comma_list(self.parse_arg, ")")
        self.expect_closing(")", opener.span)
        return _reference_judgment(tok.text, tuple(args))

    def parse_arg(self):
        if self.at("string"):
            return self.advance().text
        if self.at("keyword", "limit"):
            self.advance()
            opener = self.expect("symbol", "(")
            name = self.expect("ident").text
            self.expect_closing(")", opener.span)
            return LimitRef(Ident(name))
        if self.at("keyword", "table"):
            self.advance()
            return self.parse_table_body()
        if self.at("symbol", "("):
            # Either a parenthesized generator expression or a pair literal.
            opener = self.enter()
            first = self.parse_arg()
            if self.at("symbol", ","):
                self.advance()
                second = self.parse_arg()
                self.leave(")", opener)
                if not isinstance(first, ObjLit) or not isinstance(second, ObjLit):
                    raise self.error("E0002", "pair literals take object literals")
                return ObjLit((first.tag, second.tag), Product(first.of, second.of))
            self.leave(")", opener)
            if not isinstance(first, GenExpr):
                raise self.error("E0002", "expected a generator expression in parentheses")
            return self.finish_arg_expr(first)
        tok = self.peek()
        if tok.kind == "ident" and tok.text in BUILTIN_RULES and self.bracket_follows():
            return self.parse_builtin(self.advance())
        atom = self.parse_gen_atom()
        return self.finish_arg_expr(atom)

    def finish_arg_expr(self, atom: GenExpr):
        if self.at("symbol", "."):
            self.advance()
            return ObjLit(self.parse_obj_tag(), atom)
        return self.parse_factors(atom)

    # -- proof expressions

    def parse_proof(self) -> ProofExpr:
        tok = self.peek()
        if self.at("symbol", "("):
            opener = self.enter()
            inner = self.parse_proof()
            self.leave(")", opener)
            return inner
        if self.at("keyword", "axiom"):
            self.advance()
            name = self.expect("ident").text
            return AxiomRef(name)
        if self.at("keyword", "rule"):
            self.advance()
            name = self.expect("ident").text
            subproofs: list[ProofExpr] = []
            if self.at("keyword", "from"):
                self.enter()
                subproofs = self.comma_list(self.parse_proof)
                self.depth -= 1
            return RuleApp(name, tuple(subproofs))
        if tok.kind == "ident" and tok.text in _AXIOM_NAMES:
            # Shorthand: a bare axiom name stands for `axiom <name>`.
            self.advance()
            return AxiomRef(tok.text)
        raise self.error("E0002", f"expected a proof expression, found {self.shown()}")

    # -- remaining declarations

    def parse_assert_decl(self) -> AssertDecl:
        start = self.expect("keyword", "assert")
        judgment = self.parse_judgment()
        self.expect("keyword", "by")
        proof = self.parse_proof()
        self.expect("symbol", ";")
        return AssertDecl(judgment, proof, start.span)

    def parse_check_decl(self) -> ModelCheckDecl:
        start = self.expect("keyword", "model")
        self.expect("keyword", "check")
        judgment = self.parse_judgment()
        self.expect("keyword", "upto")
        bound = int(self.expect("integer").text)
        self.expect("symbol", ";")
        return ModelCheckDecl(judgment, bound, start.span)

    def parse_include_decl(self) -> IncludeDecl:
        start = self.expect("keyword", "include")
        path = self.expect("string").text
        self.expect("symbol", ";")
        return IncludeDecl(path, start.span)

    def parse_limit_decl(self) -> LimitDecl:
        start = self.expect("keyword", "limit")
        if self.at("keyword", "demo"):
            self.advance()
            self.expect("symbol", ";")
            return LimitDecl("demo", None, None, start.span)
        if self.at("keyword", "member"):
            self.advance()
            if self.at("bitlist"):
                # `#1101` is sugar for the finite-support spec string.
                spec = "finite:" + self.advance().text
            else:
                spec = self.expect("string").text
            self.expect("keyword", "upto")
            p = int(self.expect("integer").text)
            q = int(self.expect("integer").text)
            h = int(self.expect("integer").text)
            self.expect("symbol", ";")
            try:
                spec = parse_stream_spec(spec)
            except StreamSpecError as exc:
                spec = Malformed(str(exc))
            return LimitDecl("member", spec, (p, q, h), start.span)
        raise self.error("E0002", "expected 'demo' or 'member' after 'limit'")


def reference_parse(tokens: list[Token]) -> tuple[list[Decl], list[Diagnostic]]:
    """Recursive-descent parse with recovery at `;`."""
    parser = _ReferenceParser(tokens)
    decls = parser.parse_file()
    return decls, parser.diagnostics


def _assert_parse_agrees(source: str) -> None:
    tokens, lex_diagnostics = lex(source)
    decls, parse_diagnostics = reference_parse(tokens)
    expected = decls, lex_diagnostics + parse_diagnostics
    assert parse_source(source) == expected


def _corpus_and_prelude() -> list[str]:
    return [*(p.read_text("utf-8") for p in sorted(CORPUS.glob("*.og"))), prelude_source()]


def test_parser_agrees_with_reference_parser_on_every_prefix():
    for source in _corpus_and_prelude():
        for end in range(len(source) + 1):
            _assert_parse_agrees(source[:end])


# Multi-token pieces reach deeper into the grammar than single tokens do.
_SOUP = [
    *_FRAGMENTS, *_SYMBOLS, *sorted(JUDGMENT_HEADS), *sorted(_AXIOM_NAMES), *sorted(_KIND_KEYS),
    "P", "P[", "eq_of", "restrict", '""', '"squares"', "Two.yes", 'Two.""', "Nat.3", "(Two.yes, Nat.0)",
    'P[Two]."{no,yes}"', '"{a,a}"', '"(a,b"', '"(a,{b})"', "union_of_family",
    '"restrictions(pow2)"', '"sq"', 'P[Nat]."limit(restrictions(squares))"', '"limit(a)"',
    "assert Gen(", "by rule gen;", "rule H4 from", "morphism f : Two -> Two := table {",
    "generator G primitive", "limit member #01 upto 1 2 3;", "limit(F)",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_SOUP), max_size=40))
def test_parser_agrees_with_reference_parser(pieces):
    _assert_parse_agrees(" ".join(pieces))


# ---------------------------------------------------------------------------
# Keyed dispatch: a keyword or symbol token is keyed by its text, any other
# token by its kind.


def test_no_keyword_is_a_token_kind():
    assert KEYWORDS.isdisjoint(_KIND_KEYS | _LEX_ERRORS.keys())


def test_names_that_are_token_kinds_check_like_any_other(tmp_path, monkeypatch, capsys):
    # The same file with each of those names prefixed by `K` gives the same
    # report, once the prefixes are taken out again.
    kinds = "ident|string|integer|bitlist|eof"
    source = (
        "generator ident primitive {string, integer, bitlist, eof, ident};\n"
        "generator string := ident * Two;\n"
        "morphism eof : ident -> Two := table { ident.string -> Two.yes, "
        "ident.integer -> Two.no, ident.bitlist -> Two.no, ident.eof -> Two.yes, "
        "ident.ident -> Two.no };\n"
        "morphism bitlist : Two * Two -> Two := rule eq_of[Two];\n"
        "assert Gen(P[string]) by rule gen;\n"
        "assert Mor(eof, ident, Two) by rule mor;\n"
        "assert BinFn(eof, ident) by rule binfn;\n"
        "assert BinFn(bitlist, Two * Two) by rule mor;\n"
        "assert Domain(Two, bitlist) by rule domain_intro;\n"
        'assert Coherent(integer, "restrictions(squares)") by rule coherent;\n'
        "assert Obj(limit(integer), P[Nat]) by rule cla;\n"
        "model check Gen(string) upto 2;\n"
    )
    monkeypatch.chdir(tmp_path)
    outputs = []
    for text in (source, re.sub(rf"\b({kinds})\b", r"K\1", source)):
        Path("names.og").write_text(text)
        assert main(["check", "names.og"]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert "summary: 19 pass, 0 fail" in outputs[0]
    assert outputs[0] == re.sub(rf"\bK({kinds})\b", r"\1", outputs[1])


def test_every_token_boundary_prefix_ends_in_decls_or_one_diagnostic():
    for source in ((CORPUS / "20_full_tower.og").read_text("utf-8"), prelude_source()):
        tokens, _ = lex(source)
        complete = 0  # the declarations the prefix holds whole
        for tok in tokens[:-1]:
            decls, diagnostics = parse_source(source[: tok.span.end])
            if tok.text == ";":
                complete += 1
                assert diagnostics == []
            else:
                assert len(diagnostics) == 1 and diagnostics[0].code in ("E0002", "E0003")
            assert len(decls) == complete


def test_parsing_makes_no_token_records_and_few_calls():
    # A profiler sees each Python-level call; the parser consumes the scanner's
    # tuples and builds a Span only for the start of a declaration.
    source = prelude_source()
    token_count = len(lex(source)[0])
    calls: list[object] = []

    def on_event(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        decls, _ = parse_source(source)
    finally:
        sys.setprofile(previous)
    spans = calls.count(Span.__new__.__code__)
    assert spans == len(decls) == 23, (spans, len(decls))
    assert len(calls) < 4 * token_count, (len(calls), token_count)
