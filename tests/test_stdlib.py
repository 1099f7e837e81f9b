"""Derived constructions: the standard objects and choice instances."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from ogkernel.kernel import (
    CounterexampleError,
    Kernel,
    PremiseError,
    axioms_used,
    verify_trace,
)
from ogkernel.semantics import Carrier, Model, interpret
from ogkernel.stdlib import (
    build_naturals,
    build_powerset_domain,
    build_prelude,
    build_product_domain,
    build_two,
    choice_instance,
    evidence_models,
    prelude_theorems,
)
from ogkernel.terms import (
    NAT,
    TWO,
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


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


def test_build_two(kernel):
    result = build_two(kernel)
    assert result.set_.judgment == IsSet(TWO)
    assert result.set_.node.children[0].label == "H1"
    # the equality table covers all 2x2 pairs
    assert len(result.eq.rows) == 4
    for thm in result.theorems:
        assert verify_trace(thm).passed
    assert result.squant.judgment == SupportsQuant(TWO)


def test_build_naturals(kernel):
    result = build_naturals(kernel)
    assert result.set_.judgment == IsSet(NAT)
    assert [render(t.judgment) for t in result.theorems] == [
        "Gen(Nat)",
        "Mor(eq_of[Nat], Nat * Nat, Two)",
        "BinFn(eq_of[Nat], Nat * Nat)",
        "Domain(Nat, eq_of[Nat])",
        "SupportsQuant(Nat)",
        "Set(Nat)",
    ]
    # numeral equality under the builtin rule
    from ogkernel.semantics import default_model, fn_values

    model = default_model(nat_bound=5)
    pairs = interpret(Product(NAT, NAT), model)
    two = interpret(TWO, model)
    at = [pairs.index("(3,3)"), pairs.index("(3,4)")]
    values = fn_values(result.eq, model, np.array(at))
    assert [two.tag(v) for v in values] == ["yes", "no"]


def test_build_powerset_of_two(kernel):
    two = build_two(kernel)
    ptwo = build_powerset_domain(kernel, two)
    assert ptwo.set_.judgment == IsSet(Powerset(TWO))
    carrier = interpret(Powerset(TWO), Model.make({}, nat_bound=1))
    assert len(carrier) == 4  # all 2**2 binary tables
    pptwo = build_powerset_domain(kernel, ptwo)
    assert pptwo.set_.judgment == IsSet(Powerset(Powerset(TWO)))


def test_build_powerset_chain_over_naturals(kernel):
    nat = build_naturals(kernel)
    pnat = build_powerset_domain(kernel, nat)
    ppnat = build_powerset_domain(kernel, pnat)
    assert pnat.set_.judgment == IsSet(Powerset(NAT))
    assert ppnat.set_.judgment == IsSet(Powerset(Powerset(NAT)))
    # the headline derivation uses exactly H3, H4, H4
    uses = sorted(a.value for a in axioms_used(ppnat.set_).elements())
    assert uses == ["H3", "H4", "H4"]


def test_powerset_requires_quantification_support(kernel):
    two = build_two(kernel)
    nat = build_naturals(kernel)
    product = build_product_domain(kernel, two, nat)
    assert product.domain is not None and product.squant is None
    with pytest.raises(PremiseError, match="powerset-closure"):
        build_powerset_domain(kernel, product)


def test_build_product_domain(kernel):
    two = build_two(kernel)
    result = build_product_domain(kernel, two, two)
    assert result.domain.judgment.expr == Product(TWO, TWO)
    carrier = interpret(Product(TWO, TWO), Model.make({}, nat_bound=1))
    assert len(carrier) == 4
    nat = build_naturals(kernel)
    mixed = build_product_domain(kernel, nat, two)
    assert isinstance(mixed.domain.judgment, IsDomain)


def test_build_product_domain_premise_error(kernel):
    two = build_two(kernel)
    gen_only_expr = Named(Ident("G"))
    kernel.gen_intro(Ident("G"))
    from ogkernel.stdlib import ConstructionResult

    bare = ConstructionResult(gen_only_expr, (kernel.gen_intro(gen_only_expr),))
    with pytest.raises(PremiseError):
        build_product_domain(kernel, two, bare)


def test_choice_instance_three_to_two(kernel):
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"))
    model = Model.make({"G": Carrier("G", ("a", "b", "c"))}, nat_bound=1)
    surj = Table(
        g,
        TWO,
        (
            (ObjLit("a", g), ObjLit("yes", TWO)),
            (ObjLit("b", g), ObjLit("yes", TWO)),
            (ObjLit("c", g), ObjLit("no", TWO)),
        ),
    )
    thm = choice_instance(kernel, surj, g, TWO, model)
    section = {k.tag: v.tag for k, v in thm.judgment.fn.rows}
    surj_map = {k.tag: v.tag for k, v in surj.rows}
    assert all(surj_map[section[t]] == t for t in ("yes", "no"))


def test_choice_instance_counterexample(kernel):
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"))
    model = Model.make({"G": Carrier("G", ("a", "b"))}, nat_bound=1)
    not_surj = Table(
        g,
        TWO,
        ((ObjLit("a", g), ObjLit("yes", TWO)), (ObjLit("b", g), ObjLit("yes", TWO))),
    )
    with pytest.raises(CounterexampleError) as exc:
        choice_instance(kernel, not_surj, g, TWO, model)
    assert exc.value.uncovered == "no"


def test_choice_instances_exhaustive_small(kernel):
    # every surjection between carriers with |dom| <= 3, |cod| <= 3 here
    # (the acceptance suite pushes this to 4)
    kernel.gen_intro(Ident("D"))
    kernel.gen_intro(Ident("C"))
    d, c = Named(Ident("D")), Named(Ident("C"))
    tags = "wxyz"
    for nd in range(1, 4):
        for nc in range(1, 4):
            model = Model.make(
                {"D": Carrier("D", tuple(tags[:nd])), "C": Carrier("C", tuple(tags[:nc]))},
                nat_bound=1,
            )
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
                thm = choice_instance(kernel, surj, d, c, model)
                section = {k.tag: v.tag for k, v in thm.judgment.fn.rows}
                surj_map = dict(zip(tags[:nd], values))
                assert all(surj_map[section[t]] == t for t in tags[:nc])


def test_prelude_builders(kernel):
    results = build_prelude(kernel)
    assert [render(r.expr) for r in results] == ["Two", "Nat", "P[Nat]", "P[P[Nat]]"]
    theorems = prelude_theorems(Kernel())
    assert len(theorems) == 23
    for thm in theorems:
        assert verify_trace(thm).passed


def test_evidence_models_are_small(kernel):
    for expr in (TWO, NAT, Powerset(NAT), Powerset(Powerset(NAT))):
        for model in evidence_models(expr):
            assert len(interpret(expr, model)) <= 64
    # the cap holds for Nat-free expressions too: 2^16 objects is refused
    with pytest.raises(PremiseError, match="no feasible evidence model"):
        evidence_models(Powerset(Powerset(Powerset(TWO))))
