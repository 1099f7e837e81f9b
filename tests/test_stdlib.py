"""The standard constructions, built through `.og` elaboration, and choice
instances through the kernel's H2."""

from __future__ import annotations

import ast
import itertools
import subprocess
import sys

import pytest

from ogkernel.elaborate import ElabResult, elaborate_source
from ogkernel.kernel import (
    AxiomId,
    Kernel,
    KernelError,
    leaf_kinds,
    verify_trace,
)
from ogkernel.semantics import Model, default_model, fn_values, interpret
from ogkernel.stdlib import prelude_source
from ogkernel.terms import (
    NAT,
    TWO,
    BuiltinRule,
    IsDomain,
    IsSet,
    Named,
    Ident,
    ObjLit,
    Powerset,
    Product,
    SupportsQuant,
    Table,
    render,
)

TWO_SRC = """
assert Set(Two) by axiom H1;
assert Gen(Two) by rule gen;
morphism eq_two : Two * Two -> Two := table {
  (Two.yes, Two.yes) -> Two.yes, (Two.yes, Two.no) -> Two.no,
  (Two.no, Two.yes) -> Two.no, (Two.no, Two.no) -> Two.yes
};
assert BinFn(eq_two, Two * Two) by rule binfn;
assert Domain(Two, eq_two) by rule domain_intro;
"""

NAT_SRC = """
assert Gen(Nat) by rule gen;
morphism eq_nat : Nat * Nat -> Two := rule eq_of[Nat];
assert BinFn(eq_nat, Nat * Nat) by rule binfn;
assert Domain(Nat, eq_nat) by rule domain_intro;
assert SupportsQuant(Nat) by axiom H3;
assert Set(Nat) by rule set_intro;
"""


def _domain_src(name: str, expr: str) -> str:
    """A domain on `expr` with its builtin componentwise equality."""
    return (
        f"assert Gen({expr}) by rule gen;\n"
        f"morphism {name} : ({expr}) * ({expr}) -> Two := rule eq_of[{expr}];\n"
        f"assert BinFn({name}, ({expr}) * ({expr})) by rule binfn;\n"
        f"assert Domain({expr}, {name}) by rule domain_intro;\n"
    )


def _powerset_src(name: str, base: str) -> str:
    """`P[base]` as a set: its domain, H4 from the base, then set-hood."""
    expr = f"P[{base}]"
    return _domain_src(name, expr) + (
        f"assert SupportsQuant({expr}) by rule H4;\n"
        f"assert Set({expr}) by rule set_intro;\n"
    )


def _elaborated(source: str) -> ElabResult:
    result = elaborate_source(source)
    assert not result.diagnostics, [d.message for d in result.diagnostics]
    for thm in result.theorems:
        assert verify_trace(thm).passed
    return result


def _last(result: ElabResult, kind: type):
    return next(t for t in reversed(result.theorems) if isinstance(t.judgment, kind))


def test_two_is_a_set_by_h1_with_diagonal_equality():
    result = _elaborated(TWO_SRC)
    set_thm = result.theorems[0]
    assert set_thm.judgment == IsSet(TWO)
    assert set_thm.node.children[0].label == "H1"
    assert set_thm.parts[1].judgment == SupportsQuant(TWO)
    # the equality table covers all 2x2 pairs, flagging exactly the diagonal
    eq = _last(result, IsDomain).judgment.eq
    assert {(k.tag, v.tag) for k, v in eq.rows} == {
        (("yes", "yes"), "yes"),
        (("yes", "no"), "no"),
        (("no", "yes"), "no"),
        (("no", "no"), "yes"),
    }


def test_naturals_judgment_sequence():
    result = _elaborated(NAT_SRC)
    assert [render(j) for j in result.judgments] == [
        "Gen(Nat)",
        "Mor(eq_of[Nat], Nat * Nat, Two)",
        "BinFn(eq_of[Nat], Nat * Nat)",
        "Domain(Nat, eq_of[Nat])",
        "SupportsQuant(Nat)",
        "Set(Nat)",
    ]
    assert leaf_kinds(result.theorems[-1]) == {"declaration", "H3"}


def test_numeral_equality_under_eq_of_nat():
    eq = _last(_elaborated(NAT_SRC), IsDomain).judgment.eq
    assert eq == BuiltinRule("eq_of", (NAT,))
    model = default_model(nat_bound=5)
    pairs = interpret(Product(NAT, NAT), model)
    two = interpret(TWO, model)
    at = [pairs.index(("3", "3")), pairs.index(("3", "4"))]
    values = fn_values(eq, model)
    assert [two.tag(values[k]) for k in at] == ["yes", "no"]


def test_powersets_of_two_are_sets():
    result = _elaborated(
        TWO_SRC + _powerset_src("eq_p", "Two") + _powerset_src("eq_pp", "P[Two]")
    )
    sets = [t.judgment for t in result.theorems if isinstance(t.judgment, IsSet)]
    assert sets == [
        IsSet(TWO),
        IsSet(Powerset(TWO)),
        IsSet(Powerset(Powerset(TWO))),
    ]
    carrier = interpret(Powerset(TWO), Model.make({}, nat_bound=1))
    assert len(carrier) == 4  # all 2**2 binary tables


def test_product_domains():
    result = _elaborated(
        TWO_SRC
        + NAT_SRC
        + _domain_src("eq_tt", "Two * Two")
        + _domain_src("eq_nt", "Nat * Two")
    )
    domains = [t.judgment.expr for t in result.theorems if isinstance(t.judgment, IsDomain)]
    assert domains[-2:] == [Product(TWO, TWO), Product(NAT, TWO)]
    carrier = interpret(Product(TWO, TWO), Model.make({}, nat_bound=1))
    assert len(carrier) == 4


def test_powerset_requires_quantification_support():
    # Nat * Two has a domain, but nothing says it supports quantification,
    # so the powerset-closure rule H4 has no premise to apply to.
    source = (
        TWO_SRC
        + NAT_SRC
        + _domain_src("eq_nt", "Nat * Two")
        + "assert SupportsQuant(P[Nat * Two]) by rule H4;\n"
    )
    result = elaborate_source(source)
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("E0102", "no proof of SupportsQuant(Nat * Two) in scope")
    ]


def test_prelude_builds_the_tower():
    result = _elaborated(prelude_source())
    assert len(result.theorems) == 23
    sets = [t.judgment.expr for t in result.theorems if isinstance(t.judgment, IsSet)]
    assert [render(e) for e in sets] == ["Two", "Nat", "P[Nat]", "P[P[Nat]]"]


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


def test_choice_instance_three_to_two(kernel):
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"), ("a", "b", "c"))
    surj = Table(
        g,
        TWO,
        (
            (ObjLit("a", g), ObjLit("yes", TWO)),
            (ObjLit("b", g), ObjLit("yes", TWO)),
            (ObjLit("c", g), ObjLit("no", TWO)),
        ),
    )
    thm = kernel.axiom(AxiomId.H2_CHOICE, (surj, g, TWO))
    section = {k.tag: v.tag for k, v in thm.judgment.fn.rows}
    surj_map = {k.tag: v.tag for k, v in surj.rows}
    assert all(surj_map[section[t]] == t for t in ("yes", "no"))


def test_choice_instance_counterexample(kernel):
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"), ("a", "b"))
    not_surj = Table(
        g,
        TWO,
        ((ObjLit("a", g), ObjLit("yes", TWO)), (ObjLit("b", g), ObjLit("yes", TWO))),
    )
    with pytest.raises(KernelError, match="^not surjective: 'no' is uncovered$"):
        kernel.axiom(AxiomId.H2_CHOICE, (not_surj, g, TWO))


def test_choice_instances_exhaustive_small():
    # every surjection between carriers with |dom| <= 3, |cod| <= 3 here
    # (the acceptance suite pushes this to 4)
    d, c = Named(Ident("D")), Named(Ident("C"))
    tags = "wxyz"
    for nd in range(1, 4):
        for nc in range(1, 4):
            kernel = Kernel()
            kernel.gen_intro(Ident("D"), tuple(tags[:nd]))
            kernel.gen_intro(Ident("C"), tuple(tags[:nc]))
            for values in itertools.product(tags[:nc], repeat=nd):
                if set(values) != set(tags[:nc]):
                    continue
                surj = Table(
                    d,
                    c,
                    tuple(
                        (ObjLit(t, d), ObjLit(v, c)) for t, v in zip(tags[:nd], values)
                    ),
                )
                thm = kernel.axiom(AxiomId.H2_CHOICE, (surj, d, c))
                section = {k.tag: v.tag for k, v in thm.judgment.fn.rows}
                surj_map = dict(zip(tags[:nd], values))
                assert all(surj_map[section[t]] == t for t in tags[:nc])


def test_importing_the_stdlib_loads_no_other_package_module():
    # It holds the prelude's text and nothing trusted.
    script = (
        "import sys\n"
        "import ogkernel.stdlib\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'ogkernel'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert ast.literal_eval(result.stdout) == ["ogkernel", "ogkernel.stdlib"]
