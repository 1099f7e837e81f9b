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

A token is a plain tuple `(key, text, start, end)` of its key, its text and
its offsets in the source.  Its key is its text for a keyword or symbol and
its kind for any other token (`ident`, `integer`, `string`, `bitlist`,
`eof`); no keyword is spelled like a kind.  The lexer is one `findall` of a
pattern of two groups, the blanks and comments before a token and the token's
text, and makes its tuples in C: a key is looked up in one table by the text,
for a keyword or symbol, or else in another by the text's first character,
and the offsets are one running sum of the lengths of both groups.  Only a
string literal or a bit list costs Python, which strips its quotes or `#`
(and keys a string without its closing quote as unterminated).  The parser
compares keys, and reads a token's line and column, by one `bisect` over the
offsets at which the lines start, only where it builds a `Span`: for the
start of a declaration and for a diagnostic.
"""

from __future__ import annotations

import os
import re
from bisect import bisect
from functools import lru_cache
from itertools import accumulate, chain, compress, count, repeat
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
    "GeneratorDecl",
    "MorphismDecl",
    "AssertDecl",
    "ModelCheckDecl",
    "IncludeDecl",
    "LimitDecl",
    "Malformed",
    "AxiomRef",
    "RuleApp",
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
# The heads whose every argument is a generator expression: Gen, SupportsQuant, Set.
_GEN_HEADS = frozenset(
    head for head, (_, sorts, _) in JUDGMENT_HEADS.items() if set(sorts) == {"gen"}
)
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


# A match is the blanks and comments before a token (group 1), then the
# token's text (group 2), each alternative maximal munch: a string literal with
# its quotes (or an unterminated one, to the end of the line), `#` and its bits,
# an integer, a word, a two-character symbol, or any other character, which is
# a one-character symbol or an illegal one.  Group 2 is empty only at the end of
# the source, so the matches run on from each other and skip nothing.
_TOKEN_RE = re.compile(
    r'((?:[ \t\r\n]|--.*)*)'
    r'("[^"\n]*"?|#[01]*|[0-9]+|[A-Za-z][A-Za-z0-9_]*|->|:=|.|)'
)
_NEWLINE_RE = re.compile("\n")
# A token's key: the text itself for a keyword or symbol (`#` and `"` alone
# are lexical errors), otherwise the kind of its first character.
_SPELLED = {
    **{text: text for text in (*KEYWORDS, "->", ":=", *"()[]{}*;,.:")},
    "#": "hash",
    '"': "unterminated",
}
_FIRST_KINDS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", "ident"),
    **dict.fromkeys("0123456789", "integer"),
    '"': "string",
    "#": "bitlist",
}
_QUOTED = frozenset({"string", "bitlist"})  # the keys whose text keeps a quote or `#`
_LEX_ERRORS = {
    "unterminated": "unterminated string literal",
    "hash": "'#' must be followed by a 0/1 bit list",
    "illegal": "illegal character {!r}",
}
_Tok = tuple[str, str, int, int]  # key, text, start, end


def _scan(source: str) -> list[_Tok]:
    """Maximal-munch tokenization into keyed tuples, lexical errors among them
    and the end of the source last; `--` comments are skipped.  The keys come
    from the two tables, and each token's start and end from one running sum of
    the lengths of the blanks and texts before it, all in C: Python runs only
    for the string literals and bit lists, to strip their quotes or `#`."""
    pairs = _TOKEN_RE.findall(source)
    texts = list(filter(None, map(itemgetter(1), pairs)))  # the end of the source dropped
    kinds = map(_FIRST_KINDS.get, map(itemgetter(0), texts), repeat("illegal"))
    keys = list(map(_SPELLED.get, texts, kinds))
    offsets = accumulate(map(len, chain.from_iterable(pairs)))
    toks = list(zip(keys, texts, offsets, offsets))  # (start, end): two running sums in turn
    for i in compress(count(), map(_QUOTED.__contains__, keys)):
        key, text, start, end = toks[i]
        if key == "bitlist":
            toks[i] = (key, text[1:], start, end)
        elif text[-1] == '"':  # two quotes at least: `"` alone is keyed unterminated
            toks[i] = (key, text[1:-1], start, end)
        else:
            toks[i] = ("unterminated", text, start, end)
    toks.append(("eof", "", len(source), len(source)))
    return toks


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

    def __init__(self, source: str):
        # The offset at which each line starts, for `span`.
        self.starts = [0, *map(methodcaller("end"), _NEWLINE_RE.finditer(source))]
        self.toks = _scan(source)
        self.diagnostics: list[Diagnostic] = []  # the lexical errors first
        if not _LEX_ERRORS.keys().isdisjoint(map(itemgetter(0), self.toks)):
            self.diagnostics = [
                Diagnostic("E0001", _LEX_ERRORS[tok[0]].format(tok[1]), self.span(tok))
                for tok in self.toks
                if tok[0] in _LEX_ERRORS
            ]
            self.toks = [tok for tok in self.toks if tok[0] not in _LEX_ERRORS]
        self.keys = list(map(itemgetter(0), self.toks))
        self.pos = 0
        self.depth = 0  # open `(`, `P[`, `from` and `*` levels

    # -- token plumbing

    def span(self, tok: _Tok) -> Span:
        """Where a token is: its line is found by one `bisect` of its start
        (`tok[2]`) among the offsets at which the lines start."""
        line = bisect(self.starts, tok[2])
        return Span(line, tok[2] - self.starts[line - 1] + 1, *tok[2:])

    def error(self, code: str, message: str, span: Span | None = None, note: str | None = None):
        return _ParseError(
            Diagnostic(code, message, span or self.span(self.toks[self.pos]), note)
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

    def expect_closing(self, closer: str, opener: _Tok, levels: int = 0) -> None:
        """Consume the bracket that closes `opener`, leaving the `levels` nesting
        levels it entered."""
        self.depth -= levels
        if self.keys[self.pos] != closer:
            opened = self.span(opener)
            raise self.error(
                "E0003",
                f"unclosed bracket: expected {closer!r}, found {self.shown()}",
                note=f"opened at line {opened.line}, column {opened.col}",
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
        start = self.span(self.toks[self.pos])
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
            raise self.error("E0002", "table rows take object literals", self.span(start))
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
            opener = self.toks[self.pos]
            self.pos += 1
            kinds = iter(BUILTIN_RULES.get(name[1], ()))
            args = self.comma_list(lambda: self.parse_builtin_arg(next(kinds, None)), "]")
            self.expect_closing("]", opener)
        try:
            return BuiltinRule(name[1], tuple(args))
        except ValueError as exc:
            raise self.error("E0002", str(exc), self.span(name)) from None

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
        atom = self.parse_gen_atom()
        return self.parse_factors(atom) if self.keys[self.pos] == "*" else atom

    def parse_factors(self, expr: GenExpr) -> GenExpr:
        """`expr` times the `*` factors that follow it, the first at hand."""
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
            self.expect_closing("]", opener, levels=1)
            return Powerset(inner)
        if key == "(":
            opener = self.enter()
            expr = self.parse_gen_expr()
            self.expect_closing(")", opener, levels=1)
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
        if head in _GEN_HEADS:  # every argument is a generator expression, as written
            return cls(*args)
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
                self.expect_closing(")", opener, levels=1)
                if type(first) is not ObjLit or type(second) is not ObjLit:
                    raise self.error("E0002", "pair literals take object literals")
                return ObjLit((first.tag, second.tag), Product(first.of, second.of))
            self.expect_closing(")", opener, levels=1)
            if not isinstance(first, GenExpr):
                raise self.error("E0002", "expected a generator expression in parentheses")
            return self.finish_arg_expr(first)
        if key == "ident" and text in BUILTIN_RULES:  # and a `[` follows
            self.pos += 1
            return self.parse_builtin(self.toks[self.pos - 1])
        return self.finish_arg_expr(self.parse_gen_atom())  # P[...], or no argument

    def finish_arg_expr(self, atom: GenExpr):
        key = self.keys[self.pos]
        if key == ".":
            self.pos += 1
            return ObjLit(self.parse_obj_tag(), atom)
        return self.parse_factors(atom) if key == "*" else atom

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
            self.expect_closing(")", opener, levels=1)
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
    parser = _Parser(source)
    decls = parser.parse_file()
    return decls, parser.diagnostics
