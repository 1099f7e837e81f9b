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
    objlit    := genAtom "." (IDENT | KEYWORD | INT | STRING) | "(" objlit "," objlit ")" ;
    tag       := ATOM | "limit(" family ")" | "(" tag "," tag ")"
               | "{" (tag ("," tag)*)? "}" ;
    stream    := "squares" | "pow2" | "periodic:" BITS "/" BITS | "finite:" BITS
               | ("xor(" stream "," stream | ("shift(" | "flip(") stream "," INT) ")" ;
    family    := "restrictions(" stream ")" | "corrupt(" stream "," INT "," INT ")" ;
    assertDecl:= "assert" judgment "by" proofExpr ";" ;
    judgment  := HEAD "(" (arg ("," arg)*)? ")" ;  -- see terms.SIGNATURES
    arg       := genExpr | objlit | STRING | "limit" "(" IDENT ")"
               | "table" "{" rows? "}" | IDENT bargs ;
    proofExpr := "axiom" IDENT | "rule" IDENT ("from" proofExpr
                 ("," proofExpr)*)? | "(" proofExpr ")" ;
    checkDecl := "model" "check" judgment "upto" INT ";" ;
    includeDecl := "include" STRING ";" ;
    limitDecl := "limit" ("demo" | "member" (STRING | BITLIST)
                 "upto" INT INT INT) ";" ;

`*` binds tighter than `->`; `P[...]` is atomic.  A KEYWORD after `.` is the
tag it spells.  An object tag written as a STRING holds one `tag`, whose value
the parser builds (see `terms.ObjLit`): an ATOM is nonempty text without
brackets or commas (`terms.is_tag`), `limit(...)` the limit of a family, and a
set lists distinct members in any order; any other STRING is E0002.  A STRING
`barg` is a `stream` or a `family`, as the former's argument kind says, and a
malformed one is E0002.  A judgment is built as a `terms` term by its head's
signature, and the spec of a `limit member` as a stream; an argument of the
wrong number or sort, a table row given twice or a malformed spec there makes
a `Malformed`, which elaboration refuses with E0102 (no later layer parses
text).  Comments run from `--` to end of line.
Statement terminator is `;`.  Each `(`, `P[`, `from` and `*` nests one
level deeper; a generator expression, object literal or proof nested deeper
than MAX_NESTING levels is E0002.

No token, comment or lexical error spans a newline.
`read_source` drops a byte-order mark that starts a file; any other U+FEFF is E0001.

A token is a plain tuple `(key, text, line, col, start, end)`.  Its key is
its text for a keyword or symbol and its kind for any other token (`ident`,
`integer`, `string`, `bitlist`, `eof`); no keyword is spelled like a kind.
The parser compares keys and builds a `Span` only for the start of a
declaration and for a diagnostic.
"""

from __future__ import annotations

import os
import re
from bisect import bisect
from functools import lru_cache
from itertools import repeat
from operator import itemgetter, methodcaller
from typing import NamedTuple

from .streams import (
    MAX_HORIZON, FiniteSupport, FlipAt, Periodic, PowersOfTwoIndicator, ShiftOf, SquaresIndicator,
    XorOf,
)
from .terms import (
    BUILTIN_RULES,
    NAT,
    TWO,
    BitStream,
    SIGNATURES,
    BuiltinRule,
    Family,
    FamilySpec,
    FnExpr,
    GenExpr,
    Ident,
    IsCoherentFamily,
    LimitRef,
    MorphismRef,
    Named,
    ObjLit,
    Powerset,
    Product,
    Span,
    Table,
    Tag,
    Term,
    is_tag,
    render,
)

__all__ = [
    "MAX_NESTING",
    "MAX_COMBINATORS",
    "StreamSpecError",
    "parse_stream_spec",
    "parse_family",
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
    "Malformed",
    "AxiomRef",
    "RuleApp",
    "render_decl",
    "render_proof",
]

KEYWORDS = frozenset(
    "generator morphism assert by axiom rule from model check upto include primitive "
    "table limit demo member Two Nat".split()
)

# Each judgment head's term class, its argument sorts (`terms.SIGNATURES`) and
# each argument's class: GenExpr for a generator expression, else `object`.
JUDGMENT_HEADS = {
    head: (cls, sorts, tuple(GenExpr if sort == "gen" else object for sort in sorts))
    for cls, (head, sorts) in SIGNATURES.items()
}
# The signature a `table` argument takes from the head's other arguments.
_TABLE_SIGNATURES = {
    "Mor": lambda fn, dom, cod: (dom, cod),
    "BinFn": lambda fn, dom: (dom, TWO),
    "Domain": lambda expr, eq: (Product(expr, expr), TWO),
}
_SORT_ERRORS = {"obj": "Obj takes an object literal", "lit": "Eq takes two object literals"}


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


# A match is the blanks and comments before a token (group `blank`), then one
# alternative per token kind, tried in order; each is maximal munch.  The last
# group a match closes, but for the end of the source, is the token's kind: its
# text is `m[kind]`, or a lexical error that `_LEX_ERRORS` names.  `spelled` is
# a keyword or a symbol (no symbol starts with a letter, so the two can share a
# group ahead of `ident`): its key is its text.
_TOKEN_RE = re.compile(
    r"""(?P<blank>(?:[ \t\r\n]|--.*)*)
      (?: "(?P<string>[^"\n]*)"
      | (?P<unterminated>"[^"\n]*)
      | \#(?P<bitlist>[01]+)
      | (?P<hash>\#)
      | (?P<integer>[0-9]+)
      | (?P<spelled>(?:KEYWORDS)(?![A-Za-z0-9_])|->|:=|[()\[\]{}*;,.:])
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<illegal>.)
      | \Z)""".replace("KEYWORDS", "|".join(sorted(KEYWORDS))),
    re.VERBOSE,
)
_NEWLINE_RE = re.compile("\n")
_LEX_ERRORS = {
    "unterminated": "unterminated string literal",
    "hash": "'#' must be followed by a 0/1 bit list",
    "illegal": "illegal character {!r}",
}
_Tok = tuple[str, str, int, int, int, int]  # key, text, line, col, start, end


def _scan(source: str) -> tuple[list[_Tok], list[Diagnostic]]:
    """Maximal-munch tokenization into keyed tuples; `--` comments are skipped."""
    starts = [0, *map(methodcaller("end"), _NEWLINE_RE.finditer(source))]
    # One line: a line tracer charges each line of a comprehension per token.
    toks = [(m[k] if k == "spelled" else k, m[k], (n := bisect(starts, at := m.end(1))), at - starts[n - 1] + 1, at, m.end()) for m in _TOKEN_RE.finditer(source) if (k := m.lastgroup) != "blank"]
    diagnostics: list[Diagnostic] = []
    if not _LEX_ERRORS.keys().isdisjoint(map(itemgetter(0), toks)):
        diagnostics = [
            Diagnostic("E0001", _LEX_ERRORS[t[0]].format(t[1]), Span(*t[2:]))
            for t in toks
            if t[0] in _LEX_ERRORS
        ]
        toks = [t for t in toks if t[0] not in _LEX_ERRORS]
    end = len(source)
    toks.append(("eof", "", len(starts), end - starts[-1] + 1, end, end))
    return toks, diagnostics


# ---------------------------------------------------------------------------
# Declarations and proof expressions
#
# A declaration's last field is its span, the place of its first token;
# judgments and proofs carry none.  A judgment is a `terms` judgment or
# `EqQuery` whose scope references (`Named`, `MorphismRef`, `LimitRef`)
# elaboration resolves, or a `Malformed`.


class Malformed(Term, fields="message"):
    """A judgment, table or stream spec that parses but does not form a term:
    elaboration refuses its declaration with E0102, and the file goes on."""

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
    """`morphism name : dom -> cod := body;`, body a Table, a BuiltinRule or a Malformed."""

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
    """`limit demo;` or `limit member spec upto bounds;`, spec a BitStream or a Malformed."""

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

    def expect(self, key: str) -> None:
        if self.keys[self.pos] != key:
            raise self.error("E0002", f"expected {key!r}, found {self.shown()}")
        self.pos += 1

    def take(self, key: str) -> _Tok:
        """`expect(key)`, and return the token it consumes."""
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
        """How an error message names the token at hand: its text, quoted (a
        string literal with its quotes, a bit list with its `#`), or the end of the file."""
        key, text, *_ = self.toks[self.pos]
        shown = {"string": f'"{text}"', "bitlist": "#" + text}.get(key, text)
        return "end of file" if key == "eof" else repr(shown)

    def sync(self) -> None:
        """Recover at the next `;` (consumed) and continue parsing."""
        while self.keys[self.pos] not in ("eof", ";"):
            self.pos += 1
        if self.keys[self.pos] == ";":
            self.pos += 1

    # -- entry point

    def parse_file(self) -> list[Decl]:
        decls: list[Decl] = []
        while True:  # the `try` is entered at the start and after each error
            try:
                while self.keys[self.pos] != "eof":
                    decls.append(self.parse_decl())
                return decls
            except _ParseError as err:
                self.diagnostics.append(err.diagnostic)
                self.depth = 0
                self.sync()

    def parse_decl(self) -> Decl:
        parse = self.DECLS.get(self.keys[self.pos])
        if parse is None:
            raise self.error("E0002", f"expected a declaration, found {self.shown()}")
        start = Span(*self.toks[self.pos][2:])
        self.pos += 1
        return parse(self, start)

    def parse_gen_decl(self, start: Span) -> GeneratorDecl:
        name = self.take("ident")[1]
        body: GenExpr | None = None
        tags: tuple[str, ...] | None = None
        key = self.keys[self.pos]
        if key == "primitive":
            self.pos += 1
            if self.keys[self.pos] == "{":
                opener = self.take("{")
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
        name = self.take("ident")[1]
        self.expect(":")
        dom = self.parse_gen_expr()
        self.expect("->")
        cod = self.parse_gen_expr()
        self.expect(":=")
        body: FnExpr | Malformed
        key = self.keys[self.pos]
        if key == "table":
            self.pos += 1
            try:
                body = Table(dom, cod, self.parse_table_body())
            except ValueError as exc:  # a key given two rows
                body = Malformed(str(exc))
        elif key == "rule":
            self.pos += 1
            body = self.parse_builtin(self.take("ident"))
        else:
            raise self.error("E0002", "expected 'table' or 'rule' after ':='")
        self.expect(";")
        return MorphismDecl(name, dom, cod, body, start)

    def parse_table_body(self) -> tuple[tuple[ObjLit, ObjLit], ...]:
        opener = self.take("{")
        rows = self.comma_list(self.parse_row, "}")
        self.expect_closing("}", opener)
        return tuple(rows)

    def parse_row(self) -> tuple[ObjLit, ObjLit]:
        start = self.toks[self.pos]
        key, _, value = self.parse_arg(), self.expect("->"), self.parse_arg()
        if type(key) is not ObjLit or type(value) is not ObjLit:
            raise self.error("E0002", "table rows take object literals", Span(*start[2:]))
        return key, value

    def parse_obj_tag(self) -> Tag:
        key, text = self.toks[self.pos][:2]
        if key in ("ident", "integer") or key in KEYWORDS:
            self.pos += 1
            return text
        if key != "string":
            raise self.error("E0002", "expected an object tag after '.'")
        if not text:
            raise self.error("E0002", "an object tag must be nonempty")
        try:
            tag = _tag_value(text)
        except ValueError as exc:
            message = f"malformed object tag {text!r}"
            raise self.error("E0002", message, note=str(exc) or None) from None
        self.pos += 1
        return tag

    def parse_builtin(self, name: _Tok) -> BuiltinRule:
        """The former `name[args]`, whose brackets may be left out when there
        are no arguments; one the catalog does not admit is E0002."""
        args: list = []
        if self.keys[self.pos] == "[":
            opener = self.take("[")
            kinds = iter(BUILTIN_RULES.get(name[1], ()))
            args = self.comma_list(lambda: self.parse_builtin_arg(next(kinds, None)), "]")
            self.expect_closing("]", opener)
        try:
            return BuiltinRule(name[1], tuple(args))
        except ValueError as exc:
            raise self.error("E0002", str(exc), Span(*name[2:])) from None

    def parse_builtin_arg(self, kind: str | None):
        """One argument, a STRING read as the spec that `kind` names."""
        key = self.keys[self.pos]
        if key == "string":
            text = self.toks[self.pos][1]
            try:
                arg = _SPEC_PARSERS[kind](text) if kind in _SPEC_PARSERS else text
            except StreamSpecError as exc:
                raise self.error("E0002", str(exc)) from None
            self.pos += 1
            return arg
        if key == "integer":
            self.pos += 1
            return int(self.toks[self.pos - 1][1])
        return self.parse_gen_expr()

    # -- generator expressions

    def parse_gen_expr(self) -> GenExpr:
        return self.parse_factors(self.parse_gen_atom())

    def parse_factors(self, expr: GenExpr) -> GenExpr:
        """`expr` times the `*` factors that follow it."""
        if self.keys[self.pos] != "*":
            return expr
        depth = self.depth
        while self.keys[self.pos] == "*":
            self.enter()
            expr = Product(expr, self.parse_gen_atom())
        self.depth = depth
        return expr

    def parse_gen_atom(self) -> GenExpr:
        key, text = self.toks[self.pos][:2]
        if key in _ATOM_KEYS and (text != "P" or self.keys[self.pos + 1] != "["):
            self.pos += 1
            return _atom(key, text)
        if key == "ident":
            self.pos += 1
            opener = self.enter()
            inner = self.parse_gen_expr()
            self.leave("]", opener)
            return Powerset(inner)
        if key == "(":
            opener = self.enter()
            expr = self.parse_gen_expr()
            self.leave(")", opener)
            return expr
        raise self.error("E0002", f"expected a generator expression, found {self.shown()}")

    # -- judgments

    def parse_judgment(self):
        key, head = self.toks[self.pos][:2]
        if key != "ident" or head not in JUDGMENT_HEADS:
            raise self.error(
                "E0002",
                f"expected a judgment head, found {self.shown()}",
                note="heads: " + ", ".join(sorted(JUDGMENT_HEADS)),
            )
        self.pos += 1
        opener = self.take("(")
        args = self.comma_list(self.parse_arg, ")")
        self.expect_closing(")", opener)
        # The term `head(args)` writes, or a Malformed naming its first bad argument.
        cls, sorts, classes = JUDGMENT_HEADS[head]
        if len(args) != len(sorts):
            return Malformed(f"{head} takes {len(sorts)} argument(s), got {len(args)}")
        if not all(map(isinstance, args, classes)):  # generator expressions first
            return Malformed(f"{head}: expected a generator expression")
        try:
            fields = tuple(map(_argument, sorts, args, repeat(head), repeat(args)))
        except ValueError as exc:  # a sort error, a row given twice or a bad descriptor
            return Malformed(str(exc))
        return cls(FamilySpec(*fields)) if cls is IsCoherentFamily else cls(*fields)

    def parse_arg(self):
        """One argument of a judgment, or one side of a table row, of any sort."""
        key, text = self.toks[self.pos][:2]
        if key in _ATOM_KEYS and (text not in _BRACKETED or self.keys[self.pos + 1] != "["):
            self.pos += 1
            return self.finish_arg_expr(_atom(key, text))
        if key == "string":
            self.pos += 1
            return text
        if key == "limit":
            self.pos += 1
            opener = self.take("(")
            name = self.take("ident")[1]
            self.expect_closing(")", opener)
            return LimitRef(Ident(name))
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
                if type(first) is not ObjLit or type(second) is not ObjLit:
                    raise self.error("E0002", "pair literals take object literals")
                return ObjLit((first.tag, second.tag), Product(first.of, second.of))
            self.leave(")", opener)
            if not isinstance(first, GenExpr):
                raise self.error("E0002", "expected a generator expression in parentheses")
            return self.finish_arg_expr(first)
        if key == "ident" and text in BUILTIN_RULES:  # and a `[` follows
            self.pos += 1
            return self.parse_builtin(self.toks[self.pos - 1])
        return self.finish_arg_expr(self.parse_gen_atom())  # P[...], or no argument

    def finish_arg_expr(self, atom: GenExpr):
        if self.keys[self.pos] == ".":
            self.pos += 1
            return ObjLit(self.parse_obj_tag(), atom)
        return self.parse_factors(atom)

    # -- proof expressions

    def parse_proof(self) -> ProofExpr:
        key, text = self.toks[self.pos][:2]
        if key == "rule":
            self.pos += 1
            name = self.take("ident")[1]
            if self.keys[self.pos] != "from":
                return RuleApp(name, ())
            self.enter()
            subproofs = self.comma_list(self.parse_proof)
            self.depth -= 1
            return RuleApp(name, tuple(subproofs))
        if key == "axiom" or key == "ident" and text in _AXIOM_NAMES:
            # Shorthand: a bare axiom name stands for `axiom <name>`.
            self.pos += 1
            return AxiomRef(self.take("ident")[1] if key == "axiom" else text)
        if key == "(":
            opener = self.enter()
            inner = self.parse_proof()
            self.leave(")", opener)
            return inner
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
        bound = int(self.take("integer")[1])
        self.expect(";")
        return ModelCheckDecl(judgment, bound, start)

    def parse_include_decl(self, start: Span) -> IncludeDecl:
        path = self.take("string")[1]
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
            # `#1101` is sugar for the finite-support spec string.
            bits = self.keys[self.pos] == "bitlist"
            spec = ("finite:" if bits else "") + self.take("bitlist" if bits else "string")[1]
            self.expect("upto")
            p, q, h = (int(self.take("integer")[1]) for _ in range(3))
            self.expect(";")
            try:
                stream = parse_stream_spec(spec)
            except StreamSpecError as exc:
                stream = Malformed(str(exc))
            return LimitDecl("member", stream, (p, q, h), start)
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


_CONSTANTS = {"Two": TWO, "Nat": NAT}
_ATOM_KEYS = frozenset({*_CONSTANTS, "ident"})
_BRACKETED = frozenset({"P", *BUILTIN_RULES})  # the names that a `[` can follow


@lru_cache(maxsize=4096)
def _atom(key: str, text: str) -> GenExpr:
    """The generator expression that one token writes: Two, Nat or a name."""
    return _CONSTANTS.get(key) or Named(Ident(text))


def _argument(sort: str, arg, head: str, args: list):
    """`arg` as a `sort` argument of `head(args)`, or a ValueError saying why not."""
    if sort == "gen":
        return arg
    if sort == "fn":
        if type(arg) is Named:
            return MorphismRef(arg.name)
        if type(arg) is tuple:  # a table's rows
            return Table(*_TABLE_SIGNATURES[head](*args), arg)
        if type(arg) is BuiltinRule:
            return arg
        shown = f'"{arg}"' if type(arg) is str else render(arg)
        raise ValueError(f"expected a function argument, got {shown}")
    if sort == "obj" and type(arg) in (ObjLit, LimitRef) or sort == "lit" and type(arg) is ObjLit:
        return arg
    if sort == "name" and type(arg) is Named:
        return arg.name
    if sort == "family" and type(arg) is str:
        return parse_family(arg)
    raise ValueError(_SORT_ERRORS.get(sort, 'Coherent takes a family name and a "descriptor"'))


def _tag_value(text: str) -> Tag:
    """The tag that the text of a quoted object tag writes (see `tag` in the
    grammar); a ValueError, which may say why, when it writes none."""
    if is_tag(text):
        return text
    if text == "{}":
        return frozenset()
    if text.startswith("limit(") and text.endswith(")"):
        return parse_family(text[6:-1])
    brackets = text[:1] + text[-1:]
    if brackets not in ("()", "{}"):
        raise ValueError
    tags = [_tag_value(part) for part in split_top_level(text[1:-1])]
    if brackets == "()" and len(tags) != 2:
        raise ValueError("a pair tag has two members")
    if brackets == "{}" and len(set(tags)) < len(tags):
        raise ValueError("a set tag repeats a member")
    return tuple(tags) if brackets == "()" else frozenset(tags)


# ---------------------------------------------------------------------------
# Stream specs and family descriptors (`stream` and `family` in the grammar)

# At most MAX_COMBINATORS xor/shift/flip nodes and shift offsets of at most
# MAX_HORIZON keep a spec's prefixes to megabytes and its parse shallow.
MAX_COMBINATORS = 32


class StreamSpecError(ValueError):
    """Malformed stream or family spec string."""


def parse_stream_spec(spec: str) -> BitStream:
    """Parse a catalog name: ``periodic:<pre>/<per>``, ``squares``, ``pow2``,
    ``finite:<bits>``, ``xor(a,b)``, ``shift(a,k)``, ``flip(a,i)``, with at
    most MAX_COMBINATORS combinators and shift offsets of at most
    MAX_HORIZON."""
    combinators = sum(spec.count(head + "(") for head in _COMBINATORS)
    if combinators > MAX_COMBINATORS:
        raise StreamSpecError(
            f"stream spec has {combinators} combinators, above the maximum {MAX_COMBINATORS}"
        )
    return _parse_spec(spec)


def _parse_spec(spec: str) -> BitStream:
    s = spec.strip()
    if s in ("squares", "pow2"):
        return SquaresIndicator() if s == "squares" else PowersOfTwoIndicator()
    kind, colon, bits = s.partition(":")
    if colon and kind in ("periodic", "finite"):
        if kind == "periodic" and "/" not in bits:
            raise StreamSpecError(f"periodic spec needs <pre>/<per>: {spec!r}")
        try:
            if kind == "periodic":
                return Periodic(*map(_parse_bits, bits.split("/", 1)))
            return FiniteSupport(_parse_bits(bits))
        except ValueError as exc:
            raise StreamSpecError(f"bad {kind} spec {spec!r}: {exc}") from exc
    head, _, body = s.partition("(")
    if head in _COMBINATORS and s.endswith(")"):
        args = _split_args(body[:-1], spec)
        if len(args) != 2:
            raise StreamSpecError(f"{head}(...) takes two arguments: {spec!r}")
        make, read = _COMBINATORS[head]
        try:
            return make(_parse_spec(args[0]), read(args[1]))
        except ValueError as exc:
            if isinstance(exc, StreamSpecError):
                raise
            raise StreamSpecError(f"bad spec {spec!r}: {exc}") from exc
    raise StreamSpecError(f"unknown stream spec: {spec!r}")


def _parse_bits(text: str) -> tuple[int, ...]:
    if not all(c in "01" for c in text):
        raise ValueError(f"expected a 0/1 string, got {text!r}")
    return tuple(int(c) for c in text)


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise StreamSpecError(f"expected an integer, got {text!r}") from exc


def _parse_offset(text: str) -> int:
    offset = _parse_int(text)
    if offset > MAX_HORIZON:
        raise StreamSpecError(f"shift offset {offset} above the maximum {MAX_HORIZON}")
    return offset


# Each combinator's stream and how it reads its second argument.
_COMBINATORS = {
    "xor": (XorOf, _parse_spec), "shift": (ShiftOf, _parse_offset), "flip": (FlipAt, _parse_int)
}


def _split_args(body: str, spec: str) -> list[str]:
    try:
        return [arg.strip() for arg in split_top_level(body)]
    except ValueError as exc:
        raise StreamSpecError(f"unbalanced parentheses in {spec!r}") from exc


def parse_family(descriptor: str) -> Family:
    """The family that a descriptor names: ``restrictions(<spec>)``, or
    ``corrupt(<spec>,<stage>,<index>)`` with a nonnegative stage and index."""
    d = descriptor.strip()
    head, paren, body = d[:-1].partition("(")
    if not (paren and d.endswith(")") and head in ("restrictions", "corrupt")):
        raise StreamSpecError(f"unknown family descriptor: {descriptor!r}")
    if head == "restrictions":
        return Family(parse_stream_spec(body), None)
    args = _split_args(body, descriptor)
    if len(args) != 3:
        raise StreamSpecError(f"corrupt(...) takes three arguments: {descriptor!r}")
    stage, index = _parse_int(args[1]), _parse_int(args[2])
    if stage < 0 or index < 0:
        raise StreamSpecError(f"corrupt(...) stage and index must be nonnegative: {descriptor!r}")
    return Family(parse_stream_spec(args[0]), (stage, index))


# The spec parser of each builtin argument kind that a STRING gives.
_SPEC_PARSERS = {"stream": parse_stream_spec, "family": parse_family}


_BRACKETS = frozenset("(){}")
_DELIMITER_RE = re.compile(r"[(){},]")


def split_top_level(body: str) -> list[str]:
    """Split `body` at the commas outside any parentheses or braces; a
    closing bracket without its opener is a ValueError."""
    if _BRACKETS.isdisjoint(body):
        return body.split(",")
    parts, depth, start = [], 0, 0
    for m in _DELIMITER_RE.finditer(body):
        ch = m[0]
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {body!r}")
        elif depth == 0:
            parts.append(body[start : m.start()])
            start = m.end()
    parts.append(body[start:])
    return parts


def read_source(path: str | os.PathLike) -> str:
    """The text of a `.og` file, read as UTF-8 less a byte-order mark at its start.
    This is what the `utf-8-sig` codec does, without importing its module."""
    with open(path, "rb") as file:
        return file.read().decode("utf-8").removeprefix("\ufeff")


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


def render_proof(p: ProofExpr) -> str:
    if isinstance(p, AxiomRef):
        return f"axiom {p.name}"
    # A subproof with its own `from` is parenthesized.
    subs = ", ".join(f"({t})" if " from " in t else t for t in map(render_proof, p.subproofs))
    return f"rule {p.name} from {subs}" if subs else f"rule {p.name}"


def render_decl(d: Decl) -> str:
    if isinstance(d, GeneratorDecl):
        if d.body is not None:
            return f"generator {d.name} := {render(d.body)};"
        if d.tags:
            return f"generator {d.name} primitive {{{', '.join(d.tags)}}};"
        return f"generator {d.name} primitive;"
    if isinstance(d, MorphismDecl):
        body = render(d.body) if isinstance(d.body, Table) else f"rule {render(d.body)}"
        return f"morphism {d.name} : {render(d.dom)} -> {render(d.cod)} := {body};"
    if isinstance(d, AssertDecl):
        return f"assert {render(d.judgment)} by {render_proof(d.proof)};"
    if isinstance(d, ModelCheckDecl):
        return f"model check {render(d.judgment)} upto {d.bound};"
    if isinstance(d, IncludeDecl):
        return f'include "{d.path}";'
    if isinstance(d, LimitDecl):
        if d.command == "demo":
            return "limit demo;"
        p, q, h = d.bounds  # type: ignore[misc]
        return f'limit member "{d.spec}" upto {p} {q} {h};'
    raise TypeError(f"cannot render {d!r}")
