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
"""

from __future__ import annotations

import re
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


# One alternative per token kind, tried in order; each is maximal munch.
# `space` takes a whole run of blanks, newlines and `--` comments at once.
_TOKEN_RE = re.compile(
    r"""(?P<space>(?:[ \t\r\n]|--[^\n]*)+)
      | (?P<string>"[^"\n]*")
      | (?P<unterminated>"[^"\n]*)
      | (?P<bitlist>\#[01]+)
      | (?P<hash>\#)
      | (?P<integer>[0-9]+)
      | (?P<word>[A-Za-z][A-Za-z0-9_]*)
      | (?P<symbol>->|:=|[()\[\]{}*;,.:])
      | (?P<illegal>.)""",
    re.VERBOSE,
)
_LEX_ERRORS = {
    "unterminated": "unterminated string literal",
    "hash": "'#' must be followed by a 0/1 bit list",
}


def lex(source: str) -> tuple[list[Token], list[Diagnostic]]:
    """Maximal-munch tokenization; `--` comments are skipped."""
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0  # line_start: the offset just past the last newline
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        start, end = match.span()
        if kind == "space":
            last = source.rfind("\n", start, end)
            if last >= 0:
                line += source.count("\n", start, end)
                line_start = last + 1
            continue
        span = Span(line, start - line_start + 1, start, end)
        text = match.group()
        if kind == "word":
            kind = "keyword" if text in KEYWORDS else "ident"
        elif kind == "string":
            text = text[1:-1]
        elif kind == "bitlist":
            text = text[1:]
        elif kind in _LEX_ERRORS or kind == "illegal":
            message = _LEX_ERRORS.get(kind, f"illegal character {text!r}")
            diagnostics.append(Diagnostic("error", "E0001", message, span))
            continue
        tokens.append(Token(kind, text, span))
    end = len(source)
    tokens.append(Token("eof", "", Span(line, end - line_start + 1, end, end)))
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

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def error(self, code: str, message: str, span: Span | None = None, note: str | None = None):
        return _ParseError(
            Diagnostic("error", code, message, span or self.peek().span, note)
        )

    def expect(self, kind: str, text: str | None = None) -> Token:
        if self.at(kind, text):
            return self.advance()
        want = text if text is not None else kind
        got = self.peek()
        shown = got.text or got.kind
        raise self.error("E0002", f"expected {want!r}, found {shown!r}")

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
        got = self.peek()
        shown = got.text or got.kind
        raise self.error(
            "E0003",
            f"unclosed bracket: expected {closer!r}, found {shown!r}",
            note=f"opened at line {opener_span.line}, column {opener_span.col}",
        )

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
        shown = tok.text or tok.kind
        raise self.error("E0002", f"expected a declaration, found {shown!r}")

    def parse_gen_decl(self) -> GeneratorDecl:
        start = self.expect("keyword", "generator")
        name = self.expect("ident").text
        body: GenExpr | None = None
        tags: tuple[str, ...] | None = None
        if self.at("keyword", "primitive"):
            self.advance()
            if self.at("symbol", "{"):
                opener = self.advance()
                tag_list = [self.parse_tag()]
                while self.at("symbol", ","):
                    self.advance()
                    tag_list.append(self.parse_tag())
                self.expect_closing("}", opener.span)
                tags = tuple(tag_list)
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
        rows: list[tuple[ObjLit, ObjLit]] = []
        if not self.at("symbol", "}"):
            rows.append(self.parse_row())
            while self.at("symbol", ","):
                self.advance()
                rows.append(self.parse_row())
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
            if not self.at("symbol", "]"):
                args.append(self.parse_builtin_arg())
                while self.at("symbol", ","):
                    self.advance()
                    args.append(self.parse_builtin_arg())
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
            if tok.text == "P" and self.peek(1).kind == "symbol" and self.peek(1).text == "[":
                self.advance()
                opener = self.enter()
                inner = self.parse_gen_expr()
                self.leave("]", opener)
                return Powerset(inner)
            self.advance()
            return Named(Ident(tok.text, tok.span))
        shown = tok.text or tok.kind
        raise self.error("E0002", f"expected a generator expression, found {shown!r}")

    # -- judgments

    def parse_judgment(self) -> SurfaceJudgment:
        tok = self.peek()
        if tok.kind != "ident" or tok.text not in JUDGMENT_HEADS:
            shown = tok.text or tok.kind
            raise self.error(
                "E0002",
                f"expected a judgment head, found {shown!r}",
                note="heads: " + ", ".join(sorted(JUDGMENT_HEADS)),
            )
        self.advance()
        opener = self.expect("symbol", "(")
        args: list = []
        if not self.at("symbol", ")"):
            args.append(self.parse_arg())
            while self.at("symbol", ","):
                self.advance()
                args.append(self.parse_arg())
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
        if (
            tok.kind == "ident"
            and tok.text in BUILTIN_RULES
            and self.peek(1).kind == "symbol"
            and self.peek(1).text == "["
        ):
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
                subproofs.append(self.parse_proof())
                while self.at("symbol", ","):
                    self.advance()
                    subproofs.append(self.parse_proof())
                self.depth -= 1
            return RuleApp(name, tuple(subproofs), tok.span)
        if tok.kind == "ident" and tok.text in _AXIOM_NAMES:
            # Shorthand: a bare axiom name stands for `axiom <name>`.
            self.advance()
            return AxiomRef(tok.text, tok.span)
        shown = tok.text or tok.kind
        raise self.error("E0002", f"expected a proof expression, found {shown!r}")

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
