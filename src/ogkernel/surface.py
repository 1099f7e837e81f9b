"""Lexer and parser for `.og` files, with error recovery and source spans.

The grammar (`-- og-syntax 1`):

    file      := decl* ;
    decl      := genDecl | morDecl | assertDecl | checkDecl | includeDecl
               | limitDecl ;
    genDecl   := "generator" IDENT ("primitive" tags? | ":=" genExpr) ";" ;
    tags      := "{" tag ("," tag)* "}" ;
    genExpr   := genAtom ("*" genAtom)* ;
    genAtom   := "Two" | "Nat" | IDENT | "P" "[" genExpr "]"
               | "(" genExpr ")" ;
    morDecl   := "morphism" IDENT ":" genExpr "->" genExpr ":="
                 ("table" "{" rows? "}" | "rule" IDENT bargs?) ";" ;
    rows      := row ("," row)* ;  row := objlit "->" objlit ;
    objlit    := genAtom "." (IDENT | INT | STRING)
               | "(" objlit "," objlit ")" | "limit" "(" IDENT ")" ;
    assertDecl:= "assert" judgment "by" proofExpr ";" ;
    judgment  := ("Gen"|"Set"|"Domain"|"SupportsQuant"|"Mor"|"BinFn"|"Eq"
               |"Coherent"|"Obj") "(" argList ")" ;
    proofExpr := "axiom" IDENT | "rule" IDENT ("from" proofExpr
                 ("," proofExpr)*)? | "(" proofExpr ")" ;
    checkDecl := "model" "check" judgment "upto" INT ";" ;
    includeDecl := "include" STRING ";" ;
    limitDecl := "limit" ("demo" | "member" (STRING | BITLIST)
                 "upto" INT INT INT) ";" ;

`*` binds tighter than `->`; `P[...]` is atomic.  An object tag written as
a STRING must be nonempty.  Comments run from `--` to end of line.
Statement terminator is `;`.  Each `(`, `P[`, `from` and `*` nests one
level deeper; a generator expression, object literal or proof nested deeper
than MAX_NESTING levels is E0002.

Lexing is line-at-a-time: no token, comment or lexical error spans a newline.
`read_source` drops a byte-order mark that starts a file; any other U+FEFF is E0001.
"""

from __future__ import annotations

import re
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .terms import (
    BUILTIN_RULES,
    BuiltinRule,
    GenExpr,
    Ident,
    Named,
    Nat,
    ObjLit,
    Powerset,
    Product,
    Record,
    Span,
    Two,
    render,
)

__all__ = [
    "MAX_NESTING",
    "Token",
    "Diagnostic",
    "lex",
    "parse",
    "parse_source",
    "read_source",
    "parse_gen_expr",
    "GeneratorDecl",
    "MorphismDecl",
    "AssertDecl",
    "ModelCheckDecl",
    "IncludeDecl",
    "LimitDecl",
    "SurfaceJudgment",
    "LimitRef",
    "AxiomRef",
    "RuleApp",
    "render_decl",
    "render_judgment",
    "render_proof",
]

KEYWORDS = frozenset(
    "generator morphism assert by axiom rule from model check upto include primitive "
    "table limit demo member Two Nat".split()
)

JUDGMENT_HEADS = frozenset(
    {"Gen", "Set", "Domain", "SupportsQuant", "Mor", "BinFn", "Eq", "Coherent", "Obj"}
)


class Token(Record):
    # kind: keyword | ident | symbol | integer | bitlist | string | eof
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind: str, text: str, span: Span):
        self.kind, self.text, self.span = kind, text, span


class Diagnostic(NamedTuple):
    severity: str  # error | warning
    code: str
    message: str
    span: Span
    note: str | None = None

    def format(self, filename: str = "<input>") -> str:
        base = (
            f"{filename}:{self.span.line}:{self.span.col}: "
            f"{self.severity}[{self.code}]: {self.message}"
        )
        return base + (f"\n  note: {self.note}" if self.note else "")


# One alternative per token kind, tried in order; each is maximal munch.  A match
# of a named group is a token of that kind with text `m[kind]`, or a lexical error
# that `_LEX_ERRORS` names; the unnamed one is a run of blanks and a `--` comment.
_TOKEN_RE = re.compile(
    r"""(?:[ \t\r]|--.*)+
      | "(?P<string>[^"]*)"
      | (?P<unterminated>"[^"]*)
      | \#(?P<bitlist>[01]+)
      | (?P<hash>\#)
      | (?P<integer>[0-9]+)
      | (?P<keyword>(?:KEYWORDS)(?![A-Za-z0-9_]))
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<symbol>->|:=|[()\[\]{}*;,.:])
      | (?P<illegal>.)""".replace("KEYWORDS", "|".join(sorted(KEYWORDS))),
    re.VERBOSE,
)
_LEX_ERRORS = {
    "unterminated": "unterminated string literal",
    "hash": "'#' must be followed by a 0/1 bit list",
    "illegal": "illegal character {!r}",
}


def lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Maximal-munch tokenization; `--` comments are skipped."""
    tokens: list[Token] = []
    at = 0  # the offset of the line's first character
    for n, text in enumerate(source.split("\n"), 1):
        # One line: a line tracer charges each line of a comprehension per token.
        tokens += [Token(k, m[k], Span(n, m.start() + 1, at + m.start(), at + m.end())) for m in _TOKEN_RE.finditer(text) if (k := m.lastgroup)]
        at += len(text) + 1
    diagnostics: list[Diagnostic] = []
    if not _LEX_ERRORS.keys().isdisjoint(map(attrgetter("kind"), tokens)):
        diagnostics = [
            Diagnostic("error", "E0001", _LEX_ERRORS[t.kind].format(t.text), t.span)
            for t in tokens
            if t.kind in _LEX_ERRORS
        ]
        tokens = [t for t in tokens if t.kind not in _LEX_ERRORS]
    end = len(source)
    tokens.append(Token("eof", "", Span(n, len(text) + 1, end, end)))
    return tokens, diagnostics


# ---------------------------------------------------------------------------
# Declarations and proof expressions
#
# Tokens, judgments, proofs and declarations are Records, so their equality
# ignores the source span.  In argument position a string literal is a `str`
# and a table literal is its tuple of (key, value) rows; its signature comes
# from context.


class LimitRef(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


Rows = tuple[tuple[ObjLit, ObjLit], ...]
SurfaceArg = object  # GenExpr | ObjLit | BuiltinRule | Rows | LimitRef | str


class SurfaceJudgment(Record):
    __slots__ = ("head", "args", "span")

    def __init__(self, head: str, args: tuple[SurfaceArg, ...], span: Span):
        self.head, self.args, self.span = head, args, span


class AxiomRef(Record):
    __slots__ = ("name", "span")

    def __init__(self, name: str, span: Span):
        self.name, self.span = name, span


class RuleApp(Record):
    __slots__ = ("name", "subproofs", "span")

    def __init__(self, name: str, subproofs: tuple[AxiomRef | RuleApp, ...], span: Span):
        self.name, self.subproofs, self.span = name, subproofs, span


ProofExpr = AxiomRef | RuleApp


class GeneratorDecl(Record):
    __slots__ = ("name", "body", "tags", "span")  # body None means `primitive`

    def __init__(
        self, name: str, body: GenExpr | None, tags: tuple[str, ...] | None, span: Span
    ):
        self.name, self.body, self.tags, self.span = name, body, tags, span


class MorphismDecl(Record):
    __slots__ = ("name", "dom", "cod", "body", "span")

    def __init__(
        self, name: str, dom: GenExpr, cod: GenExpr, body: Rows | BuiltinRule, span: Span
    ):
        self.name, self.dom, self.cod, self.body, self.span = name, dom, cod, body, span


class AssertDecl(Record):
    __slots__ = ("judgment", "proof", "span")

    def __init__(self, judgment: SurfaceJudgment, proof: ProofExpr, span: Span):
        self.judgment, self.proof, self.span = judgment, proof, span


class ModelCheckDecl(Record):
    __slots__ = ("judgment", "bound", "span")

    def __init__(self, judgment: SurfaceJudgment, bound: int, span: Span):
        self.judgment, self.bound, self.span = judgment, bound, span


class IncludeDecl(Record):
    __slots__ = ("path", "span")

    def __init__(self, path: str, span: Span):
        self.path, self.span = path, span


class LimitDecl(Record):
    __slots__ = ("command", "spec", "bounds", "span")  # command: "demo" | "member"

    def __init__(
        self, command: str, spec: str | None, bounds: tuple[int, int, int] | None, span: Span
    ):
        self.command, self.spec, self.bounds, self.span = command, spec, bounds, span


Decl = GeneratorDecl | MorphismDecl | AssertDecl | ModelCheckDecl | IncludeDecl | LimitDecl


# ---------------------------------------------------------------------------
# Parser

_AXIOM_NAMES = frozenset({"H1", "H2", "H3", "H4", "CLA"})
MAX_NESTING = 64  # keeps parsing, elaboration and replay far from the recursion limit


class _ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _Parser:
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
        return _ParseError(
            Diagnostic("error", code, message, span or self.peek().span, note)
        )

    def expect(self, kind: str, text: str | None = None) -> Token:
        if self.at(kind, text):
            return self.advance()
        want = text if text is not None else kind
        raise self.error("E0002", f"expected {want!r}, found {self.shown()!r}")

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
            f"unclosed bracket: expected {closer!r}, found {self.shown()!r}",
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
        return tok.text or tok.kind

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
            except _ParseError as err:
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
        raise self.error("E0002", f"expected a declaration, found {self.shown()!r}")

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
        body: Rows | BuiltinRule
        if self.at("keyword", "table"):
            self.advance()
            body = self.parse_table_body()
        elif self.at("keyword", "rule"):
            self.advance()
            body = self.parse_builtin(self.expect("ident"))
        else:
            raise self.error("E0002", "expected 'table' or 'rule' after ':='")
        self.expect("symbol", ";")
        return MorphismDecl(name, dom, cod, body, start.span)

    def parse_table_body(self) -> Rows:
        opener = self.expect("symbol", "{")
        rows = self.comma_list(self.parse_row, "}")
        self.expect_closing("}", opener.span)
        return tuple(rows)

    def parse_row(self) -> tuple[ObjLit, ObjLit]:
        key = self.parse_obj_lit()
        self.expect("symbol", "->")
        value = self.parse_obj_lit()
        return key, value

    def parse_obj_lit(self) -> ObjLit:
        if self.at("symbol", "("):
            # Either a pair literal or a parenthesized carrier before `.`;
            # try the pair reading first and backtrack.
            saved = self.pos, self.depth
            opener = self.enter()
            try:
                left = self.parse_obj_lit()
                self.expect("symbol", ",")
                right = self.parse_obj_lit()
                self.leave(")", opener)
                return ObjLit(f"({left.tag},{right.tag})", Product(left.of, right.of))
            except _ParseError:
                self.pos, self.depth = saved
        atom = self.parse_gen_atom()
        self.expect("symbol", ".")
        return ObjLit(self.parse_obj_tag(), atom)

    def parse_obj_tag(self) -> str:
        if self.at("string", ""):
            raise self.error("E0002", "an object tag must be nonempty")
        if self.at("ident") or self.at("integer") or self.at("string"):
            return self.advance().text
        raise self.error("E0002", "expected an object tag after '.'")

    def parse_builtin(self, name: Token) -> BuiltinRule:
        """The former `name[args]`, whose brackets may be left out when there
        are no arguments; one the catalog does not admit is E0002."""
        args: list = []
        if self.at("symbol", "["):
            opener = self.advance()
            args = self.comma_list(self.parse_builtin_arg, "]")
            self.expect_closing("]", opener.span)
        try:
            return BuiltinRule(name.text, tuple(args))
        except ValueError as exc:
            raise self.error("E0002", str(exc), name.span) from None

    def parse_builtin_arg(self):
        if self.at("string"):
            return self.advance().text
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
            return Named(Ident(tok.text, tok.span))
        raise self.error("E0002", f"expected a generator expression, found {self.shown()!r}")

    # -- judgments

    def parse_judgment(self) -> SurfaceJudgment:
        tok = self.peek()
        if tok.kind != "ident" or tok.text not in JUDGMENT_HEADS:
            raise self.error(
                "E0002",
                f"expected a judgment head, found {self.shown()!r}",
                note="heads: " + ", ".join(sorted(JUDGMENT_HEADS)),
            )
        self.advance()
        opener = self.expect("symbol", "(")
        args = self.comma_list(self.parse_arg, ")")
        self.expect_closing(")", opener.span)
        return SurfaceJudgment(tok.text, tuple(args), tok.span)

    def parse_arg(self):
        if self.at("string"):
            return self.advance().text
        if self.at("keyword", "limit"):
            self.advance()
            opener = self.expect("symbol", "(")
            name = self.expect("ident").text
            self.expect_closing(")", opener.span)
            return LimitRef(name)
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
                return ObjLit(
                    f"({first.tag},{second.tag})", Product(first.of, second.of)
                )
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
            return AxiomRef(name, tok.span)
        if self.at("keyword", "rule"):
            self.advance()
            name = self.expect("ident").text
            subproofs: list[ProofExpr] = []
            if self.at("keyword", "from"):
                self.enter()
                subproofs = self.comma_list(self.parse_proof)
                self.depth -= 1
            return RuleApp(name, tuple(subproofs), tok.span)
        if tok.kind == "ident" and tok.text in _AXIOM_NAMES:
            # Shorthand: a bare axiom name stands for `axiom <name>`.
            self.advance()
            return AxiomRef(tok.text, tok.span)
        raise self.error("E0002", f"expected a proof expression, found {self.shown()!r}")

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
            return LimitDecl("member", spec, (p, q, h), start.span)
        raise self.error("E0002", "expected 'demo' or 'member' after 'limit'")


def parse(tokens: list[Token]) -> tuple[list[Decl], list[Diagnostic]]:
    """Recursive-descent parse with recovery at `;`."""
    parser = _Parser(tokens)
    decls = parser.parse_file()
    return decls, parser.diagnostics


def read_source(path: Path) -> str:
    """The text of a `.og` file, read as UTF-8 less a byte-order mark at its start.
    This is what the `utf-8-sig` codec does, without importing its module."""
    return path.read_text("utf-8").removeprefix("\ufeff")


def parse_source(source: str) -> tuple[list[Decl], list[Diagnostic]]:
    tokens, lex_diags = lex(source)
    decls, parse_diags = parse(tokens)
    return decls, lex_diags + parse_diags


def parse_gen_expr(text: str) -> GenExpr:
    """Parse a standalone generator expression (testing convenience)."""
    tokens, lex_diags = lex(text)
    parser = _Parser(tokens)
    expr = parser.parse_gen_expr()
    if lex_diags or parser.diagnostics or not parser.at("eof"):
        raise ValueError(f"not a generator expression: {text!r}")
    return expr


# ---------------------------------------------------------------------------
# Rendering (deterministic; parse(render_decl(d)) == d up to spans)


def render_arg(arg) -> str:
    if isinstance(arg, str):
        return f'"{arg}"'
    if isinstance(arg, LimitRef):
        return f"limit({arg.name})"
    if isinstance(arg, tuple):
        rows = ", ".join(f"{render(k)} -> {render(v)}" for k, v in arg)
        return f"table {{ {rows} }}" if rows else "table { }"
    return render(arg)


def render_judgment(j: SurfaceJudgment) -> str:
    return f"{j.head}({', '.join(render_arg(a) for a in j.args)})"


def render_proof(p: ProofExpr) -> str:
    if isinstance(p, AxiomRef):
        return f"axiom {p.name}"
    parts = f"rule {p.name}"
    if p.subproofs:
        rendered = []
        for sub in p.subproofs:
            text = render_proof(sub)
            if isinstance(sub, RuleApp) and sub.subproofs:
                text = f"({text})"
            rendered.append(text)
        parts += " from " + ", ".join(rendered)
    return parts


def render_decl(d: Decl) -> str:
    if isinstance(d, GeneratorDecl):
        if d.body is not None:
            return f"generator {d.name} := {render(d.body)};"
        if d.tags:
            return f"generator {d.name} primitive {{{', '.join(d.tags)}}};"
        return f"generator {d.name} primitive;"
    if isinstance(d, MorphismDecl):
        body = render_arg(d.body) if isinstance(d.body, tuple) else f"rule {render(d.body)}"
        return (
            f"morphism {d.name} : {render(d.dom)} -> {render(d.cod)} := {body};"
        )
    if isinstance(d, AssertDecl):
        return f"assert {render_judgment(d.judgment)} by {render_proof(d.proof)};"
    if isinstance(d, ModelCheckDecl):
        return f"model check {render_judgment(d.judgment)} upto {d.bound};"
    if isinstance(d, IncludeDecl):
        return f'include "{d.path}";'
    if isinstance(d, LimitDecl):
        if d.command == "demo":
            return "limit demo;"
        p, q, h = d.bounds  # type: ignore[misc]
        return f'limit member "{d.spec}" upto {p} {q} {h};'
    raise TypeError(f"cannot render {d!r}")
