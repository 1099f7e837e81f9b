"""Index-encoded carriers: the tag codec and the single carrier-size budget."""

from __future__ import annotations

import io
import itertools
import math
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import carrier_objects, parse_gen_expr
from ogkernel.cli import main
from ogkernel.kernel import AxiomId, Kernel, KernelError, verify_trace
from ogkernel.semantics import (
    CARRIER_BUDGET,
    NOT_FINITELY_CHECKABLE,
    Carrier,
    Model,
    NotFinitelyCheckable,
    default_model,
    interpret,
    models_for_judgment,
    verify_judgment,
)
from ogkernel.streams import (
    MAX_HORIZON,
    FiniteSupport,
    FlipAt,
    Periodic,
    PowersOfTwoIndicator,
    ShiftOf,
    SquaresIndicator,
    XorOf,
)
from ogkernel.surface import (
    MAX_COMBINATORS,
    parse_family,
    parse_source,
    parse_stream_spec,
    split_top_level,
)
from ogkernel.terms import (
    NAT,
    TWO,
    BUILTIN_RULES,
    BuiltinRule,
    Family,
    Ident,
    IsDomain,
    IsGen,
    IsObj,
    Named,
    ObjLit,
    Powerset,
    Product,
    render,
)

A = Named(Ident("A"))
B = Named(Ident("B"))


def reference_tags(expr, model) -> list:
    """The objects of `expr`, written out from the definition: pairs in
    row-major order, powerset elements as member sets in subset-mask order."""
    if expr == TWO:
        return ["yes", "no"]
    if expr == NAT:
        return [str(i) for i in range(model.nat_bound + 1)]
    if isinstance(expr, Named):
        return list(model.carrier_for(expr.name.text).tags)
    if isinstance(expr, Product):
        left, right = reference_tags(expr.left, model), reference_tags(expr.right, model)
        return [(a, b) for a in left for b in right]
    base = reference_tags(expr.arg, model)
    return [
        frozenset(t for j, t in enumerate(base) if mask >> j & 1)
        for mask in range(1 << len(base))
    ]


def reference_size(expr, model) -> int | float:
    """The number of objects of `expr`, from the definition; inf for a
    powerset whose base has more than 64 objects."""
    if expr == TWO:
        return 2
    if expr == NAT:
        return model.nat_bound + 1
    if isinstance(expr, Named):
        return len(model.carrier_for(expr.name.text).tags)
    if isinstance(expr, Product):
        left, right = reference_size(expr.left, model), reference_size(expr.right, model)
        return left * right if left and right else 0
    base = reference_size(expr.arg, model)
    return 2**base if base <= 64 else math.inf


def _small_exprs():
    leaves = [TWO, NAT, A]
    products = [Product(x, y) for x in leaves for y in leaves]
    level1 = leaves + [Powerset(x) for x in leaves] + products
    return level1 + [Powerset(x) for x in level1]


def _assert_codec(carrier: Carrier, expected: list) -> None:
    assert len(carrier) == len(expected)
    assert [carrier.tag(k) for k in range(len(carrier))] == expected
    assert carrier_objects(carrier) == tuple(expected)
    assert [carrier.index(tag) for tag in expected] == list(range(len(expected)))


def test_codec_matches_the_definition_in_the_size_2_models():
    checked = 0
    for expr in _small_exprs():
        for model in models_for_judgment(IsGen(expr), 2):
            _assert_codec(interpret(expr, model), reference_tags(expr, model))
            checked += 1
    assert checked > 50


def test_codec_on_the_powerset_tower_at_nat_bound_2():
    model = default_model(nat_bound=2)
    expr = Powerset(Powerset(NAT))
    carrier = interpret(expr, model)
    assert len(carrier) == 256
    _assert_codec(carrier, reference_tags(expr, model))
    assert carrier.index(frozenset()) == 0  # the empty (all-no) function


def test_tags_that_name_no_object_do_not_encode():
    model = Model.make({"A": Carrier("A", ("a", "b"))}, nat_bound=2)
    pairs = interpret(Product(A, Powerset(A)), model)
    subsets = interpret(Powerset(A), model)
    a_set = frozenset({"a"})
    wrong_pairs = ("(a,{a})", ("a", a_set, "b"), ("c", frozenset()), "a", (("a", a_set),), a_set)
    for tag in (*wrong_pairs, ("a", "a"), ("a", frozenset({"a", "c"}))):
        assert pairs.index(tag) is None, tag
    for tag in ("{a}", frozenset({" a"}), frozenset({"c"}), "a", frozenset({a_set}), ("a", "b")):
        assert subsets.index(tag) is None, tag
    assert interpret(NAT, model).index("3") is None
    # a set has no member order: {b,a} is the object {a,b}
    assert subsets.index(frozenset(("b", "a"))) == subsets.index(frozenset(("a", "b"))) == 3


def test_interpret_refuses_carriers_past_the_budget():
    model = default_model(nat_bound=3)
    tower = Powerset(Powerset(NAT))
    assert len(interpret(tower, model)) == CARRIER_BUDGET
    two_tower = TWO
    for _ in range(6):
        two_tower = Powerset(two_tower)  # 2, 4, 16, 2^16, then 2^(2^16): never formed
    for expr in (
        Product(tower, tower),
        Powerset(tower),
        Powerset(Powerset(tower)),  # 2^(2^65536): never formed
        Product(Powerset(tower), NAT),
        two_tower,
    ):
        with pytest.raises(NotFinitelyCheckable):
            interpret(expr, model)
    # Nat lists at most CARRIER_BUDGET + 1 numerals, whatever its bound
    with pytest.raises(NotFinitelyCheckable):
        interpret(NAT, default_model(nat_bound=10**12))


def test_domain_past_the_budget_is_not_finitely_checkable():
    tower = Powerset(Powerset(NAT))
    judgment = IsDomain(tower, BuiltinRule("eq_of", (tower,)))
    assert verify_judgment(judgment, default_model(3)).status == NOT_FINITELY_CHECKABLE
    assert verify_judgment(judgment, default_model(2)).holds  # 256^2 pairs


def test_kernel_accepts_a_builtin_domain_past_the_budget():
    kernel = Kernel()
    squant = kernel.axiom(AxiomId.H1_TWO_IS_SET).parts[1]
    squant = kernel.squant_from_powerset(kernel.squant_from_powerset(squant))
    tower = Powerset(Powerset(Powerset(TWO)))  # 2^16 objects, 2^32 pairs
    eq = BuiltinRule("eq_of", (tower,))
    mor = kernel.mor_intro(eq, Product(tower, tower), TWO, premises=(squant,))
    binfn = kernel.bin_fn_from_mor(mor)
    # the builtin equality rests on its premises: no pair is enumerated
    domain = kernel.domain_intro(kernel.gen_intro(tower), binfn)
    assert domain.judgment == IsDomain(tower, eq)
    assert verify_trace(domain).passed


def test_model_sweep_at_size_4_ends_within_the_budget():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["model", "--max-size", "4"])
    assert code == 0
    sweep = [line for line in out.getvalue().splitlines() if "soundness" in line]
    eq_items = [line for line in sweep if "eq_of[P[P[Nat]]]" in line]
    assert len(eq_items) == 3  # Mor, BinFn and Domain
    for line in eq_items:
        assert line.endswith("holds in 3/4 models (rest not finitely checkable)")


def test_split_top_level():
    assert split_top_level("a,(b,c),{d,e}") == ["a", "(b,c)", "{d,e}"]
    assert split_top_level("") == [""]
    with pytest.raises(ValueError):
        split_top_level("a),b")


# ---------------------------------------------------------------------------
# Property: random expressions within the budget


def _exprs():
    leaves = st.sampled_from([TWO, NAT, A, B])
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Powerset, inner), st.builds(Product, inner, inner)
        ),
        max_leaves=4,
    )


_models = st.builds(
    lambda a, b, bound: Model.make(
        {
            "A": Carrier("A", tuple(f"a{i}" for i in range(a))),
            "B": Carrier("B", ("p", "q")[:b]),
        },
        nat_bound=bound,
    ),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 3),
)


@settings(max_examples=300, deadline=None)
@given(_exprs(), _models, st.data())
def test_codec_round_trip_property(expr, model, data):
    size = reference_size(expr, model)
    if size > CARRIER_BUDGET:
        with pytest.raises(NotFinitelyCheckable):
            interpret(expr, model)
        return
    carrier = interpret(expr, model)
    assert len(carrier) == size
    if size <= 64:
        _assert_codec(carrier, reference_tags(expr, model))
    for k in data.draw(st.lists(st.integers(0, size - 1), max_size=8)) if size else ():
        assert carrier.index(carrier.tag(k)) == k


_bits = st.lists(st.integers(0, 1), max_size=8).map(tuple)
_streams = st.recursive(
    st.sampled_from([SquaresIndicator(), PowersOfTwoIndicator()])
    | st.builds(Periodic, _bits, st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple))
    | st.builds(FiniteSupport, _bits),
    lambda inner: st.builds(XorOf, inner, inner)
    | st.builds(ShiftOf, inner, st.integers(0, MAX_HORIZON))
    | st.builds(FlipAt, inner, st.integers(0, 10**9)),
    max_leaves=6,
).filter(lambda s: str(s).count("(") <= MAX_COMBINATORS)  # every "(" opens a combinator
_families = st.builds(
    Family, _streams, st.none() | st.tuples(st.integers(0, 10**9), st.integers(0, 10**9))
)


@settings(max_examples=300, deadline=None)
@given(_streams, _families)
def test_spec_text_round_trip_property(stream, family):
    # `str` writes the one canonical spec, which the surface reads back
    assert parse_stream_spec(str(stream)) == stream
    assert parse_family(str(family)) == family


def _builtins():
    """Well-formed catalog formers: each argument drawn from its kind."""
    by_kind = {
        "generator expression": _exprs(),
        "stream": _streams,
        "family": _families,
        "natural number": st.integers(0, 10**6),
    }
    return st.sampled_from(sorted(BUILTIN_RULES)).flatmap(
        lambda rule: st.tuples(*(by_kind[kind] for kind in BUILTIN_RULES[rule])).map(
            lambda args: BuiltinRule(rule, args)
        )
    )


@settings(max_examples=300, deadline=None)
@given(_exprs(), _builtins())
def test_render_parse_round_trip_property(expr, former):
    assert parse_gen_expr(render(expr)) == expr
    text = render(former)
    decls, diags = parse_source(
        f"morphism m : Nat -> Two := rule {text};\nassert Mor({text}, Nat, Two) by rule mor;"
    )
    assert not diags
    assert decls[0].body == former
    assert decls[1].judgment.fn == former


def test_named_carrier_enumeration_is_canonical():
    # the sweep's named carriers: one tag per letter, in order
    for size in range(1, 4):
        model = models_for_judgment(IsGen(A), 3)[size - 1]
        assert carrier_objects(interpret(A, model)) == tuple("abc"[:size])
    subsets = carrier_objects(interpret(Powerset(A), model))
    assert list(itertools.islice(subsets, 3)) == [frozenset(), frozenset("a"), frozenset("b")]


def test_only_decimal_tags_are_numerals():
    model = default_model(nat_bound=2)
    assert verify_judgment(IsObj(ObjLit("7", NAT), NAT), model).holds
    past = verify_judgment(IsObj(ObjLit("9" * 5000, NAT), NAT), model)
    assert past.holds and past.detail == "numeral beyond truncation bound 2"
    for tag in ("²", "٣", "007"):  # superscript two, Arabic-Indic three, a leading zero
        verdict = verify_judgment(IsObj(ObjLit(tag, NAT), NAT), model)
        assert verdict.status == "fails" and dict(verdict.witness)["tag"] == tag
    kernel = Kernel()
    eq = BuiltinRule("eq_of", (NAT,))
    binfn = kernel.bin_fn_from_mor(kernel.mor_intro(eq, Product(NAT, NAT), TWO))
    domain = kernel.domain_intro(kernel.gen_intro(NAT), binfn)
    assert kernel.eq_within_domain(domain, ObjLit("3", NAT), ObjLit("70", NAT)) == "no"
    # a numeral of any size is an object of Nat; equality compares canonical tags
    huge = "9" * 5000
    for left, expected in (("300", "no"), (huge, "yes")):
        assert kernel.eq_within_domain(domain, ObjLit(left, NAT), ObjLit(huge, NAT)) == expected
    for tag in ("²", "٣", "03", "-1"):  # superscript two, Arabic-Indic three
        with pytest.raises(KernelError, match="not an object of Nat"):
            kernel.eq_within_domain(domain, ObjLit(tag, NAT), ObjLit("2", NAT))
