"""Lexer and parser for `.og` files, with error recovery.

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
    bargs     := "[" (barg ("," barg)*)? "]" ;  barg := STRING | INT | genExpr ;
    rows      := row ("," row)* ;  row := objlit "->" objlit ;
    objlit    := genAtom "." (IDENT | INT | STRING) | "(" objlit "," objlit ")" ;
    assertDecl:= "assert" judgment "by" proofExpr ";" ;
    judgment  := ("Gen"|"Set"|"Domain"|"SupportsQuant"|"Mor"|"BinFn"|"Eq"
               |"Coherent"|"Obj") "(" (arg ("," arg)*)? ")" ;
    arg       := genExpr | objlit | STRING | "limit" "(" IDENT ")"
               | "table" "{" rows? "}" | IDENT bargs ;
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

A token is a plain tuple `(key, text, line, col, start, end)`.  Its key is
its text for a keyword or symbol and its kind for any other token (`ident`,
`integer`, `string`, `bitlist`, `eof`); no keyword is spelled like a kind.
The parser compares keys and builds a `Span` only for the start of a
declaration and for a diagnostic.
"""

from __future__ import annotations

import re
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .terms import (
    BUILTIN_RULES,
    NAT,
    TWO,
    BuiltinRule,
    GenExpr,
    Ident,
    Named,
    ObjLit,
    Powerset,
    Product,
    Span,
    Term,
    render,
)

__all__ = [
    "MAX_NESTING",
    "Diagnostic",
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


class Diagnostic(NamedTuple):
    code: str
    message: str
    span: Span
    note: str | None = None
    within: tuple[str, ...] = ()  # the includes, outermost first, as each was written

    def format(self, filename: str = "<input>") -> str:
        base = (
            f"{filename}:{self.span.line}:{self.span.col}: "
            f"error[{self.code}]: {self.message}"
        )
        return base + (f"\n  note: {self.note}" if self.note else "")


# One alternative per token kind, tried in order; each is maximal munch.  A match
# of a named group is a token with text `m[kind]`, or a lexical error that
# `_LEX_ERRORS` names; the unnamed one is a run of blanks and a `--` comment.
# `spelled` is a keyword or a symbol (no symbol starts with a letter, so the two
# can share a group ahead of `ident`): its key is its text.
_TOKEN_RE = re.compile(
    r"""(?:[ \t\r]|--.*)+
      | "(?P<string>[^"]*)"
      | (?P<unterminated>"[^"]*)
      | \#(?P<bitlist>[01]+)
      | (?P<hash>\#)
      | (?P<integer>[0-9]+)
      | (?P<spelled>(?:KEYWORDS)(?![A-Za-z0-9_])|->|:=|[()\[\]{}*;,.:])
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<illegal>.)""".replace("KEYWORDS", "|".join(sorted(KEYWORDS))),
    re.VERBOSE,
)
_LEX_ERRORS = {
    "unterminated": "unterminated string literal",
    "hash": "'#' must be followed by a 0/1 bit list",
    "illegal": "illegal character {!r}",
}
_Tok = tuple[str, str, int, int, int, int]  # key, text, line, col, start, end


def _scan(source: str) -> tuple[list[_Tok], list[Diagnostic]]:
    """Maximal-munch tokenization into keyed tuples; `--` comments are skipped."""
    toks: list[_Tok] = []
    at = 0  # the offset of the line's first character
    for n, text in enumerate(source.split("\n"), 1):
        # One line: a line tracer charges each line of a comprehension per token.
        toks += [(m[k] if k == "spelled" else k, m[k], n, m.start() + 1, at + m.start(), at + m.end()) for m in _TOKEN_RE.finditer(text) if (k := m.lastgroup)]
        at += len(text) + 1
    diagnostics: list[Diagnostic] = []
    if not _LEX_ERRORS.keys().isdisjoint(map(itemgetter(0), toks)):
        diagnostics = [
            Diagnostic("E0001", _LEX_ERRORS[t[0]].format(t[1]), Span(*t[2:]))
            for t in toks
            if t[0] in _LEX_ERRORS
        ]
        toks = [t for t in toks if t[0] not in _LEX_ERRORS]
    end = len(source)
    toks.append(("eof", "", n, len(text) + 1, end, end))
    return toks, diagnostics


# ---------------------------------------------------------------------------
# Declarations and proof expressions
#
# A declaration's last field is its span, the place of its first token;
# judgments and proofs carry none.  In argument position a string literal is
# a `str` and a table literal is its tuple of (key, value) rows; its
# signature comes from context.


class LimitRef(Term, fields="name"):
    """`limit(name)`: the object a coherent family's limit names."""

    __slots__ = ()


Rows = tuple[tuple[ObjLit, ObjLit], ...]
SurfaceArg = object  # GenExpr | ObjLit | BuiltinRule | Rows | LimitRef | str


class SurfaceJudgment(Term, fields="head args"):
    """`head(args)`, each argument a SurfaceArg."""

    __slots__ = ()


class AxiomRef(Term, fields="name"):
    """`axiom name`."""

    __slots__ = ()


class RuleApp(Term, fields="name subproofs"):
    """`rule name from subproofs`, each a ProofExpr."""

    __slots__ = ()


ProofExpr = AxiomRef | RuleApp


class GeneratorDecl(Term, fields="name body tags span"):
    """`generator name := body;`, or `primitive` with optional tags when body is None."""

    __slots__ = ()


class MorphismDecl(Term, fields="name dom cod body span"):
    """`morphism name : dom -> cod := body;`, body a Rows table or a BuiltinRule."""

    __slots__ = ()


class AssertDecl(Term, fields="judgment proof span"):
    """`assert judgment by proof;`."""

    __slots__ = ()


class ModelCheckDecl(Term, fields="judgment bound span"):
    """`model check judgment upto bound;`."""

    __slots__ = ()


class IncludeDecl(Term, fields="path span"):
    """`include "path";`."""

    __slots__ = ()


class LimitDecl(Term, fields="command spec bounds span"):
    """`limit demo;` or `limit member spec upto bounds;` (command "demo" or "member")."""

    __slots__ = ()


Decl = GeneratorDecl | MorphismDecl | AssertDecl | ModelCheckDecl | IncludeDecl | LimitDecl


# ---------------------------------------------------------------------------
# Parser

_AXIOM_NAMES = frozenset({"H1", "H2", "H3", "H4", "CLA"})
MAX_NESTING = 64  # keeps parsing, elaboration and replay far from the recursion limit


class _ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _Parser:
    """Recursive descent over `_scan`'s tokens: a test compares `keys[pos]` with
    a key, and `pos += 1` consumes the token at hand.  No sentinel follows `eof`:
    each `pos += 1` follows a test that excludes "eof", so `pos` stops at the last
    token (the prefix tests of `tests/test_surface.py` cut every construct short)."""

    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.keys = list(map(itemgetter(0), toks))
        self.pos = 0
        self.depth = 0  # open `(`, `P[`, `from` and `*` levels
        self.diagnostics: list[Diagnostic] = []

    # -- token plumbing

    def error(self, code: str, message: str, span: Span | None = None, note: str | None = None):
        return _ParseError(
            Diagnostic(code, message, span or Span(*self.toks[self.pos][2:]), note)
        )

    def expect(self, key: str) -> _Tok:
        if self.keys[self.pos] != key:
            raise self.error("E0002", f"expected {key!r}, found {self.shown()}")
        self.pos += 1
        return self.toks[self.pos - 1]

    def enter(self) -> _Tok:
        """Consume the token at hand, which opens one more level of nesting."""
        if self.depth == MAX_NESTING:
            raise self.error("E0002", f"nesting deeper than MAX_NESTING = {MAX_NESTING}")
        self.depth += 1
        self.pos += 1
        return self.toks[self.pos - 1]

    def leave(self, closer: str, opener: _Tok) -> None:
        """Consume the bracket that closes the level `opener` entered."""
        self.depth -= 1
        self.expect_closing(closer, opener)

    def expect_closing(self, closer: str, opener: _Tok) -> None:
        if self.keys[self.pos] != closer:
            raise self.error(
                "E0003",
                f"unclosed bracket: expected {closer!r}, found {self.shown()}",
                note=f"opened at line {opener[2]}, column {opener[3]}",
            )
        self.pos += 1

    def comma_list(self, item, closer: str | None = None) -> list:
        """`item()` once and again after each `,`; no items before `closer`."""
        if self.keys[self.pos] == closer:
            return []
        items = [item()]
        while self.keys[self.pos] == ",":
            self.pos += 1
            items.append(item())
        return items

    def shown(self) -> str:
        """How an error message names the token at hand: its text, quoted,
        or the end of the file."""
        key, text, *_ = self.toks[self.pos]
        return "end of file" if key == "eof" else repr(text or key)

    def sync(self) -> None:
        """Recover at the next `;` (consumed) and continue parsing."""
        while self.keys[self.pos] not in ("eof", ";"):
            self.pos += 1
        if self.keys[self.pos] == ";":
            self.pos += 1

    # -- entry point

    def parse_file(self) -> list[Decl]:
        decls: list[Decl] = []
        while self.keys[self.pos] != "eof":
            try:
                decls.append(self.parse_decl())
            except _ParseError as err:
                self.diagnostics.append(err.diagnostic)
                self.depth = 0
                self.sync()
        return decls

    def parse_decl(self) -> Decl:
        parse = self.DECLS.get(self.keys[self.pos])
        if parse is None:
            raise self.error("E0002", f"expected a declaration, found {self.shown()}")
        start = Span(*self.toks[self.pos][2:])
        self.pos += 1
        return parse(self, start)

    def parse_gen_decl(self, start: Span) -> GeneratorDecl:
        name = self.expect("ident")[1]
        body: GenExpr | None = None
        tags: tuple[str, ...] | None = None
        key = self.keys[self.pos]
        if key == "primitive":
            self.pos += 1
            if self.keys[self.pos] == "{":
                opener = self.toks[self.pos]
                self.pos += 1
                tags = tuple(self.comma_list(self.parse_tag))
                self.expect_closing("}", opener)
        elif key == ":=":
            self.pos += 1
            body = self.parse_gen_expr()
        else:
            raise self.error("E0002", "expected 'primitive' or ':=' in generator declaration")
        self.expect(";")
        return GeneratorDecl(name, body, tags, start)

    def parse_tag(self) -> str:
        if self.keys[self.pos] in ("ident", "integer"):
            self.pos += 1
            return self.toks[self.pos - 1][1]
        raise self.error("E0002", "expected an object tag")

    def parse_mor_decl(self, start: Span) -> MorphismDecl:
        name = self.expect("ident")[1]
        self.expect(":")
        dom = self.parse_gen_expr()
        self.expect("->")
        cod = self.parse_gen_expr()
        self.expect(":=")
        body: Rows | BuiltinRule
        key = self.keys[self.pos]
        if key == "table":
            self.pos += 1
            body = self.parse_table_body()
        elif key == "rule":
            self.pos += 1
            body = self.parse_builtin(self.expect("ident"))
        else:
            raise self.error("E0002", "expected 'table' or 'rule' after ':='")
        self.expect(";")
        return MorphismDecl(name, dom, cod, body, start)

    def parse_table_body(self) -> Rows:
        opener = self.expect("{")
        rows = self.comma_list(self.parse_row, "}")
        self.expect_closing("}", opener)
        return tuple(rows)

    def parse_row(self) -> tuple[ObjLit, ObjLit]:
        key = self.parse_obj_lit()
        self.expect("->")
        value = self.parse_obj_lit()
        return key, value

    def parse_obj_lit(self) -> ObjLit:
        if self.keys[self.pos] == "(":
            # Either a pair literal or a parenthesized carrier before `.`;
            # try the pair reading first and backtrack.
            saved = self.pos, self.depth
            opener = self.enter()
            try:
                left = self.parse_obj_lit()
                self.expect(",")
                right = self.parse_obj_lit()
                self.leave(")", opener)
                return ObjLit(f"({left.tag},{right.tag})", Product(left.of, right.of))
            except _ParseError:
                self.pos, self.depth = saved
        atom = self.parse_gen_atom()
        self.expect(".")
        return ObjLit(self.parse_obj_tag(), atom)

    def parse_obj_tag(self) -> str:
        key, text, *_ = self.toks[self.pos]
        if key in ("ident", "integer") or key == "string" and text:
            self.pos += 1
            return text
        if key == "string":
            raise self.error("E0002", "an object tag must be nonempty")
        raise self.error("E0002", "expected an object tag after '.'")

    def parse_builtin(self, name: _Tok) -> BuiltinRule:
        """The former `name[args]`, whose brackets may be left out when there
        are no arguments; one the catalog does not admit is E0002."""
        args: list = []
        if self.keys[self.pos] == "[":
            opener = self.toks[self.pos]
            self.pos += 1
            args = self.comma_list(self.parse_builtin_arg, "]")
            self.expect_closing("]", opener)
        try:
            return BuiltinRule(name[1], tuple(args))
        except ValueError as exc:
            raise self.error("E0002", str(exc), Span(*name[2:])) from None

    def parse_builtin_arg(self):
        key = self.keys[self.pos]
        if key == "string":
            self.pos += 1
            return self.toks[self.pos - 1][1]
        if key == "integer":
            self.pos += 1
            return int(self.toks[self.pos - 1][1])
        return self.parse_gen_expr()

    # -- generator expressions

    def parse_gen_expr(self) -> GenExpr:
        return self.parse_factors(self.parse_gen_atom())

    def parse_factors(self, expr: GenExpr) -> GenExpr:
        """`expr` times the `*` factors that follow it."""
        depth = self.depth
        while self.keys[self.pos] == "*":
            self.enter()
            expr = Product(expr, self.parse_gen_atom())
        self.depth = depth
        return expr

    def parse_gen_atom(self) -> GenExpr:
        tok = self.toks[self.pos]
        key = tok[0]
        if key == "Two":
            self.pos += 1
            return TWO
        if key == "Nat":
            self.pos += 1
            return NAT
        if key == "ident":
            if tok[1] == "P" and self.keys[self.pos + 1] == "[":
                self.pos += 1
                opener = self.enter()
                inner = self.parse_gen_expr()
                self.leave("]", opener)
                return Powerset(inner)
            self.pos += 1
            return Named(Ident(tok[1]))
        if key == "(":
            opener = self.enter()
            expr = self.parse_gen_expr()
            self.leave(")", opener)
            return expr
        raise self.error("E0002", f"expected a generator expression, found {self.shown()}")

    # -- judgments

    def parse_judgment(self) -> SurfaceJudgment:
        head = self.toks[self.pos]
        if head[0] != "ident" or head[1] not in JUDGMENT_HEADS:
            raise self.error(
                "E0002",
                f"expected a judgment head, found {self.shown()}",
                note="heads: " + ", ".join(sorted(JUDGMENT_HEADS)),
            )
        self.pos += 1
        opener = self.expect("(")
        args = self.comma_list(self.parse_arg, ")")
        self.expect_closing(")", opener)
        return SurfaceJudgment(head[1], tuple(args))

    def parse_arg(self):
        tok = self.toks[self.pos]
        key = tok[0]
        if key == "string":
            self.pos += 1
            return tok[1]
        if key == "limit":
            self.pos += 1
            opener = self.expect("(")
            name = self.expect("ident")[1]
            self.expect_closing(")", opener)
            return LimitRef(name)
        if key == "table":
            self.pos += 1
            return self.parse_table_body()
        if key == "(":
            # Either a parenthesized generator expression or a pair literal.
            opener = self.enter()
            first = self.parse_arg()
            if self.keys[self.pos] == ",":
                self.pos += 1
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
        if key == "ident" and tok[1] in BUILTIN_RULES and self.keys[self.pos + 1] == "[":
            self.pos += 1
            return self.parse_builtin(tok)
        return self.finish_arg_expr(self.parse_gen_atom())

    def finish_arg_expr(self, atom: GenExpr):
        if self.keys[self.pos] == ".":
            self.pos += 1
            return ObjLit(self.parse_obj_tag(), atom)
        return self.parse_factors(atom)

    # -- proof expressions

    def parse_proof(self) -> ProofExpr:
        tok = self.toks[self.pos]
        key = tok[0]
        if key == "(":
            opener = self.enter()
            inner = self.parse_proof()
            self.leave(")", opener)
            return inner
        if key == "axiom":
            self.pos += 1
            name = self.expect("ident")[1]
            return AxiomRef(name)
        if key == "rule":
            self.pos += 1
            name = self.expect("ident")[1]
            subproofs: list[ProofExpr] = []
            if self.keys[self.pos] == "from":
                self.enter()
                subproofs = self.comma_list(self.parse_proof)
                self.depth -= 1
            return RuleApp(name, tuple(subproofs))
        if key == "ident" and tok[1] in _AXIOM_NAMES:
            # Shorthand: a bare axiom name stands for `axiom <name>`.
            self.pos += 1
            return AxiomRef(tok[1])
        raise self.error("E0002", f"expected a proof expression, found {self.shown()}")

    # -- remaining declarations

    def parse_assert_decl(self, start: Span) -> AssertDecl:
        judgment = self.parse_judgment()
        self.expect("by")
        proof = self.parse_proof()
        self.expect(";")
        return AssertDecl(judgment, proof, start)

    def parse_check_decl(self, start: Span) -> ModelCheckDecl:
        self.expect("check")
        judgment = self.parse_judgment()
        self.expect("upto")
        bound = int(self.expect("integer")[1])
        self.expect(";")
        return ModelCheckDecl(judgment, bound, start)

    def parse_include_decl(self, start: Span) -> IncludeDecl:
        path = self.expect("string")[1]
        self.expect(";")
        return IncludeDecl(path, start)

    def parse_limit_decl(self, start: Span) -> LimitDecl:
        key = self.keys[self.pos]
        if key == "demo":
            self.pos += 1
            self.expect(";")
            return LimitDecl("demo", None, None, start)
        if key == "member":
            self.pos += 1
            if self.keys[self.pos] == "bitlist":
                # `#1101` is sugar for the finite-support spec string.
                self.pos += 1
                spec = "finite:" + self.toks[self.pos - 1][1]
            else:
                spec = self.expect("string")[1]
            self.expect("upto")
            p = int(self.expect("integer")[1])
            q = int(self.expect("integer")[1])
            h = int(self.expect("integer")[1])
            self.expect(";")
            return LimitDecl("member", spec, (p, q, h), start)
        raise self.error("E0002", "expected 'demo' or 'member' after 'limit'")

    # The parser of each declaration, by its keyword.
    DECLS = {
        "generator": parse_gen_decl,
        "morphism": parse_mor_decl,
        "assert": parse_assert_decl,
        "model": parse_check_decl,
        "include": parse_include_decl,
        "limit": parse_limit_decl,
    }


def read_source(path: Path) -> str:
    """The text of a `.og` file, read as UTF-8 less a byte-order mark at its start.
    This is what the `utf-8-sig` codec does, without importing its module."""
    return path.read_text("utf-8").removeprefix("\ufeff")


def parse_source(source: str) -> tuple[list[Decl], list[Diagnostic]]:
    """Recursive-descent parse with recovery at `;`."""
    toks, lex_diags = _scan(source)
    parser = _Parser(toks)
    decls = parser.parse_file()
    return decls, lex_diags + parser.diagnostics


def parse_gen_expr(text: str) -> GenExpr:
    """Parse a standalone generator expression (testing convenience)."""
    toks, lex_diags = _scan(text)
    parser = _Parser(toks)
    expr = parser.parse_gen_expr()
    if lex_diags or parser.diagnostics or parser.keys[parser.pos] != "eof":
        raise ValueError(f"not a generator expression: {text!r}")
    return expr


# ---------------------------------------------------------------------------
# Rendering (deterministic; parse_source(render_decl(d)) == d but for its span)


def render_arg(arg) -> str:
    if isinstance(arg, str):
        return f'"{arg}"'
    if isinstance(arg, LimitRef):
        return f"limit({arg.name})"
    if type(arg) is tuple:  # a table literal's rows, not a term
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
        body = render_arg(d.body) if type(d.body) is tuple else f"rule {render(d.body)}"
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
