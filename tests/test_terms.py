"""Syntax-level tests: structural identity, rendering, the names and Nat a
term mentions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogkernel.streams import SquaresIndicator
from ogkernel.surface import (
    KEYWORDS, _Parser, _scan, _tag_value, parse_gen_expr, parse_source, split_top_level,
)
from ogkernel.terms import (
    NAT,
    TWO,
    BuiltinRule,
    EqQuery,
    Family,
    Ident,
    FamilySpec,
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
    SupportsQuant,
    Table,
    collect_names,
    free_names,
    is_tag,
    is_numeral,
    mentions_nat,
    render,
    tag_text,
)

SQUARES = SquaresIndicator()


def test_structural_equality_examples():
    assert Powerset(NAT) == Powerset(Nat())
    assert Powerset(NAT) != Powerset(TWO)
    # order matters: no commutativity at the syntax level
    assert Product(TWO, NAT) != Product(NAT, TWO)


def test_ident_rules():
    assert Ident("abc_1") == Ident("abc_1")
    with pytest.raises(ValueError):
        Ident("1abc")
    with pytest.raises(ValueError):
        Ident("")


def test_render_examples():
    assert render(Powerset(NAT)) == "P[Nat]"
    assert render(IsSet(TWO)) == "Set(Two)"
    assert render(Product(TWO, TWO)) == "Two * Two"
    # right-nested products are parenthesized, left-nested are not
    assert render(Product(Product(TWO, NAT), TWO)) == "Two * Nat * Two"
    assert render(Product(TWO, Product(NAT, TWO))) == "Two * (Nat * Two)"


def test_free_names_examples():
    a, b = Ident("A"), Ident("B")
    assert free_names(Powerset(Named(a))) == {a}
    assert free_names(TWO) == set()
    assert free_names(Product(Named(a), Named(b))) == {a, b}
    table = Table(
        Named(a),
        TWO,
        ((ObjLit("x", Named(a)), ObjLit("yes", TWO)),),
    )
    assert free_names(table) == {a}
    assert not mentions_nat(table)
    # judgments: every name and Nat they mention, rows and former arguments too
    f = Ident("F")
    limit = IsObj(ObjLit(Family(SQUARES, None), Powerset(NAT)), Powerset(NAT))
    family = IsCoherentFamily(FamilySpec(f, Family(SQUARES, (3, 7))))
    builtin = IsMor(BuiltinRule("eq_of", (Product(Named(a), NAT),)), TWO, TWO)
    stream = IsBinFn(BuiltinRule("restrict", (SQUARES, 3)), TWO)
    nat_row = IsMor(Table(TWO, TWO, ((ObjLit("no", TWO), ObjLit("0", NAT)),)), TWO, TWO)
    cases = (
        (IsGen(Powerset(Named(a))), {a}, False),
        (limit, set(), True),  # a limit object is an object of P[Nat]
        (family, set(), False),  # a family's name is no generator
        (builtin, {a}, True),  # a former's generator argument
        (stream, set(), False),  # streams and bounds name nothing
        (nat_row, set(), True),  # the row's value is an object of Nat
        (IsDomain(Named(a), Table(Product(Named(a), Named(a)), TWO, ())), {a}, False),
    )
    for judgment, names, nat in cases:
        found: set[Ident] = set()
        assert collect_names(judgment, found) is nat, judgment
        assert found == names == free_names(judgment), judgment
        assert mentions_nat(judgment) is nat, judgment
    # a plain tuple, such as a table's rows, is walked item by item
    found = set()
    assert collect_names(nat_row.fn.rows, found) and found == set()


def test_table_rejects_duplicate_rows():
    with pytest.raises(ValueError):
        Table(
            TWO,
            TWO,
            (
                (ObjLit("yes", TWO), ObjLit("yes", TWO)),
                (ObjLit("yes", TWO), ObjLit("no", TWO)),
            ),
        )


def test_builtin_rule_catalog_is_fixed():
    with pytest.raises(ValueError):
        BuiltinRule("frobnicate", ())


def test_builtin_rule_arguments_follow_the_catalog():
    assert BuiltinRule("restrict", (SQUARES, 5)).args == (SQUARES, 5)
    family = Family(SQUARES, None)
    malformed = [
        ("eq_of", ()),
        ("eq_of", (NAT, TWO)),
        ("eq_of", (SQUARES,)),
        ("indicator_stream", (NAT,)),
        ("indicator_stream", ("squares",)),  # spec text is parsed before a term is built
        ("indicator_stream", (family,)),
        ("union_of_family", (family, 4)),
        ("union_of_family", (SQUARES,)),
        ("union_of_family", ("restrictions(squares)",)),
        ("restrict", (SQUARES, -1)),
        ("restrict", (SQUARES, True)),
    ]
    for rule, args in malformed:
        with pytest.raises(ValueError, match=f"builtin {rule} takes"):
            BuiltinRule(rule, args)


def reference_split_top_level(body: str) -> list[str]:
    """The character-at-a-time `split_top_level`, kept as the reference."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {body!r}")
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="(){},ab ", max_size=24))
def test_split_top_level_agrees_with_reference(body):
    try:
        expected = reference_split_top_level(body)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            split_top_level(body)
        assert str(raised.value) == str(exc)
    else:
        assert split_top_level(body) == expected


def test_quoted_tags_parse_once_into_values():
    assert _tag_value("(a,b)") == ("a", "b")
    assert _tag_value("(a,a)") == ("a", "a")  # only a set repeats no member
    assert _tag_value("((a,b),c)") == (("a", "b"), "c")
    assert _tag_value("({y,x},z)") == (frozenset("xy"), "z")
    assert _tag_value("{}") == frozenset()
    assert _tag_value("ab") == "ab"
    assert _tag_value("limit(corrupt(squares,3,7))") == Family(SQUARES, (3, 7))
    assert _tag_value("(limit(restrictions( squares )),a)") == (Family(SQUARES, None), "a")
    for text in ("", "(a,b", "(a)", "(a,b,c)", "{a,}", "{a,a}", "a,b", "a)", "(a),(b)"):
        with pytest.raises(ValueError):
            _tag_value(text)
    assert tag_text((frozenset({"yes", "no"}), "0")) == "({no,yes},0)"  # members sorted as text


def test_family_spec_takes_only_a_family():
    # The descriptor is a parsed `Family`: its text is refused when the
    # record is built, not when the kernel or the oracle reads it.
    for descriptor in ("restrictions(squares)", SQUARES, None):
        with pytest.raises(ValueError, match="not a family descriptor"):
            FamilySpec(Ident("F"), descriptor)
    assert FamilySpec(Ident("F"), Family(SQUARES, None)).descriptor == Family(SQUARES, None)


def test_obj_lit_takes_only_tag_shapes():
    for tag in ("", ("a",), ("a", "b", "c"), ["a", "b"], ("a", ""), frozenset({("a",)}), 3):
        with pytest.raises(ValueError, match="not an object tag"):
            ObjLit(tag, Product(TWO, TWO))
    assert not is_numeral(("1", "2")) and not is_numeral(frozenset({"1"}))


# ---------------------------------------------------------------------------
# Randomized corpus: equivalence laws and parse/render round trips

_NAMES = ("A", "B", "C", "Gx")


def _random_expr(rng: random.Random, depth: int):
    choice = rng.randrange(5 if depth > 0 else 3)
    if choice == 0:
        return TWO
    if choice == 1:
        return NAT
    if choice == 2:
        return Named(Ident(rng.choice(_NAMES)))
    if choice == 3:
        return Powerset(_random_expr(rng, depth - 1))
    return Product(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _expr_corpus(count: int = 10_000, seed: int = 90125):
    rng = random.Random(seed)
    return [_random_expr(rng, rng.randrange(7)) for _ in range(count)]


def test_structural_equality_is_an_equivalence_relation():
    corpus = _expr_corpus()
    rng = random.Random(0)
    for expr in corpus:
        assert expr == expr  # reflexive
    for _ in range(20_000):
        a, b = rng.choice(corpus), rng.choice(corpus)
        ab = a == b
        assert ab == (b == a)  # symmetric
        if ab:
            c = rng.choice(corpus)
            if b == c:
                assert a == c  # transitive


def test_render_parse_round_trip_on_corpus():
    for expr in _expr_corpus():
        assert parse_gen_expr(render(expr)) == expr


def _parse_obj_lit(text: str) -> ObjLit:
    toks, diags = _scan(text)
    assert not diags
    parser = _Parser(toks)
    lit = parser.parse_arg()
    assert parser.keys[parser.pos] == "eof" and not parser.diagnostics
    return lit


def test_obj_lit_round_trip():
    rng = random.Random(20_000)
    exprs = [_random_expr(rng, rng.randrange(3)) for _ in range(500)]
    for i, expr in enumerate(exprs):
        lit = ObjLit(f"t{i}", expr)
        assert _parse_obj_lit(render(lit)) == lit
    # pair literals render in tuple form
    pair = ObjLit(("yes", "3"), Product(TWO, NAT))
    assert render(pair) == "(Two.yes, Nat.3)"
    assert _parse_obj_lit(render(pair)) == pair
    # tags that are not identifiers fall back to string form
    odd = ObjLit(frozenset(), Powerset(TWO))
    assert render(odd) == 'P[Two]."{}"'
    assert _parse_obj_lit(render(odd)) == odd


# Atoms that would not read back as themselves: brackets or a comma split
# into a pair or set, a quote or newline ends the string literal, and
# `limit(...)` reads as a family or not at all.
_NOT_ATOMS = (
    "", "(a,b)", "{}", "{a}", "a,b", "a)", "(a", 'a"b', "a\nb",
    "limit(a(b)", "limit(a))", "limit(a),(b)", 'limit("a")', "limit(restrictions(squares))",
)


def test_obj_lit_refuses_an_atom_that_would_not_read_back():
    for atom in _NOT_ATOMS:
        assert not is_tag(atom)
        for tag in (atom, (atom, "a"), frozenset({atom})):
            with pytest.raises(ValueError, match="not an object tag"):
                ObjLit(tag, Powerset(Product(TWO, TWO)))
        assert _read_tag(atom) != atom  # a pair, a set or E0002, never the atom
    for atom in ("a b", "a--b", "limit", "\ufeff"):
        assert is_tag(atom) and _read_tag(atom) == atom


def _read_tag(text: str):
    """The tag a quoted object tag holding `text` is read as, None for E0002."""
    try:
        return _tag_value(text)
    except ValueError:
        return None


_ATOMS = st.text(max_size=4).filter(is_tag) | st.sampled_from(
    (*sorted(KEYWORDS), "yes", "0", "007", Family(SQUARES, None), Family(SQUARES, (5, 7)))
)
_TAGS = st.recursive(
    _ATOMS, lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3), max_leaves=6
)
_EXPRS = st.recursive(
    st.sampled_from((TWO, NAT, Named(Ident("G")))),
    lambda inner: st.builds(Powerset, inner) | st.builds(Product, inner, inner),
    max_leaves=4,
)


@settings(max_examples=400, deadline=None)
@given(_TAGS, _EXPRS)
def test_render_is_faithful_to_every_literal_obj_lit_accepts(tag, of):
    lit = ObjLit(tag, of)
    assert _parse_obj_lit(render(lit)) == lit


_LITS = st.builds(ObjLit, _TAGS, _EXPRS)
_ROWS = st.lists(st.tuples(_LITS, _LITS), max_size=3, unique_by=lambda row: row[0].tag).map(tuple)
_NAMES_IN_SCOPE = st.sampled_from(["f", "F", "P", "eq_of"]).map(Ident)  # no keyword


def _functions(dom, cod):
    """A function from `dom` to `cod` as a judgment writes one: a morphism's
    name, a builtin or a table."""
    return st.one_of(
        st.builds(MorphismRef, _NAMES_IN_SCOPE),
        st.builds(BuiltinRule, st.just("eq_of"), st.tuples(_EXPRS)),
        _ROWS.map(lambda rows: Table(dom, cod, rows)),
    )


_FAMILIES = st.sampled_from([Family(SQUARES, None), Family(SQUARES, (5, 7))])
_JUDGMENTS = st.one_of(
    *(st.builds(form, _EXPRS) for form in (IsGen, IsSet, SupportsQuant)),
    st.builds(IsObj, _LITS | st.builds(LimitRef, _NAMES_IN_SCOPE), _EXPRS),
    st.tuples(_EXPRS, _EXPRS).flatmap(
        lambda sig: st.builds(IsMor, _functions(*sig), st.just(sig[0]), st.just(sig[1]))
    ),
    _EXPRS.flatmap(lambda dom: st.builds(IsBinFn, _functions(dom, TWO), st.just(dom))),
    _EXPRS.flatmap(
        lambda expr: st.builds(IsDomain, st.just(expr), _functions(Product(expr, expr), TWO))
    ),
    st.builds(EqQuery, _LITS, _LITS),
    st.builds(IsCoherentFamily, st.builds(FamilySpec, _NAMES_IN_SCOPE, _FAMILIES)),
)


@settings(max_examples=400, deadline=None)
@given(_JUDGMENTS)
def test_render_judgments_round_trip_via_surface(judgment):
    # Judgment rendering feeds reports and the assert grammar: the parser
    # reads back every judgment `render` writes, with its scope references
    # (a morphism's name, `limit(F)`) and the Eq query.
    (decl,), diagnostics = parse_source(f"assert {render(judgment)} by axiom H1;")
    assert not diagnostics and decl.judgment == judgment
    eq = BuiltinRule("eq_of", (NAT,))
    assert render(IsDomain(NAT, eq)) == "Domain(Nat, eq_of[Nat])"
    assert render(IsMor(eq, Product(NAT, NAT), TWO)) == (
        "Mor(eq_of[Nat], Nat * Nat, Two)"
    )
    assert render(IsBinFn(eq, Product(NAT, NAT))) == "BinFn(eq_of[Nat], Nat * Nat)"
    assert render(SupportsQuant(Powerset(NAT))) == "SupportsQuant(P[Nat])"
