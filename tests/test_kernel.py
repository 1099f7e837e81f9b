"""Kernel rules, sealing, trace replay, and the refusal behaviors."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ogkernel import kernel as kernel_module

from ogkernel.kernel import (
    AxiomId,
    CatalogError,
    CodomainError,
    CounterexampleError,
    CrossDomainEqualityError,
    EqualityLawError,
    Kernel,
    KernelError,
    NameClashError,
    PremiseError,
    SchemaError,
    Theorem,
    TotalityError,
    TraceNode,
    _judge,
    axioms_used,
    leaf_kinds,
    trace_nodes,
    verify_trace,
)
from ogkernel.semantics import Carrier, Model, interpret, verify_judgment
from ogkernel.streams import CoherenceError
from ogkernel.terms import (
    NAT,
    TWO,
    BuiltinRule,
    FamilySpec,
    Ident,
    IsBinFn,
    IsCoherentFamily,
    IsDomain,
    IsGen,
    IsMor,
    IsObj,
    IsSet,
    Named,
    ObjLit,
    Powerset,
    Product,
    SupportsQuant,
    Table,
)


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


# -- axioms


def test_axiom_h1(kernel):
    thm = kernel.axiom(AxiomId.H1_TWO_IS_SET)
    assert thm.judgment == IsSet(TWO)
    # the set-hood package carries its domain and quantification facts
    assert [p.judgment for p in thm.parts] == [
        IsDomain(TWO, BuiltinRule("eq_of", (TWO,))),
        SupportsQuant(TWO),
    ]
    assert verify_trace(thm).passed


def test_axiom_h3(kernel):
    assert kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT).judgment == SupportsQuant(NAT)


def test_axiom_arity_errors(kernel):
    with pytest.raises(SchemaError):
        kernel.axiom(AxiomId.H1_TWO_IS_SET, [NAT])
    with pytest.raises(SchemaError):
        kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT, [NAT])


def test_h4_and_cla_are_rules_not_leaf_axioms(kernel):
    with pytest.raises(SchemaError, match="squant_from_powerset"):
        kernel.axiom(AxiomId.H4_POWERSET_QUANT, [NAT])
    with pytest.raises(SchemaError, match="coherent_limit"):
        kernel.axiom(AxiomId.CLA_COHERENT_LIMIT)


# -- generators


def test_gen_intro_primitive_and_clash(kernel):
    thm = kernel.gen_intro(Ident("G"))
    assert thm.judgment == IsGen(Named(Ident("G")))
    with pytest.raises(NameClashError):
        kernel.gen_intro(Ident("G"))


def test_gen_intro_formation(kernel):
    thm = kernel.gen_intro(Powerset(NAT))
    assert thm.judgment == IsGen(Powerset(NAT))
    assert verify_trace(thm).passed
    kernel.gen_intro(Ident("G"))
    composite = kernel.gen_intro(Product(Named(Ident("G")), TWO))
    assert composite.judgment == IsGen(Product(Named(Ident("G")), TWO))


def test_gen_intro_unknown_name(kernel):
    with pytest.raises(PremiseError):
        kernel.gen_intro(Named(Ident("Ghost")))


def test_formation_theorems_are_shared(kernel):
    assert kernel.gen_intro(Powerset(NAT)) is kernel.gen_intro(Powerset(NAT))


# -- morphisms


def test_mor_intro_identity_table(kernel):
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"), ("a", "b", "c"))
    identity = Table(g, g, tuple((ObjLit(t, g), ObjLit(t, g)) for t in "abc"))
    thm = kernel.mor_intro(identity, g, g)
    assert thm.judgment == IsMor(identity, g, g)
    assert verify_trace(thm).passed


def test_mor_intro_binary_function(kernel):
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"), ("a", "b"))
    table = Table(
        g, TWO, ((ObjLit("a", g), ObjLit("yes", TWO)), (ObjLit("b", g), ObjLit("no", TWO)))
    )
    mor = kernel.mor_intro(table, g, TWO)
    binfn = kernel.bin_fn_from_mor(mor)
    assert binfn.judgment == IsBinFn(table, g)


def test_mor_intro_totality_and_codomain_errors(kernel):
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"), ("a", "b"))
    partial = Table(g, TWO, ((ObjLit("a", g), ObjLit("yes", TWO)),))
    with pytest.raises(TotalityError, match="^table has no row for 'b'$"):
        kernel.mor_intro(partial, g, TWO)
    bad = Table(
        g, TWO, ((ObjLit("a", g), ObjLit("up", TWO)), (ObjLit("b", g), ObjLit("no", TWO)))
    )
    with pytest.raises(CodomainError, match="^row value 'up' is not an object of the codomain$"):
        kernel.mor_intro(bad, g, TWO)
    # a row whose key is no object of the domain, also where a row is missing
    stray_row = (ObjLit("z", g), ObjLit("no", TWO))
    total = ((ObjLit("a", g), ObjLit("yes", TWO)), bad.rows[1])
    for rows in (total + (stray_row,), total[1:] + (stray_row,)):
        with pytest.raises(CodomainError, match="row key 'z' is not an object"):
            kernel.mor_intro(Table(g, TWO, rows), g, TWO)


def test_mor_intro_refuses_row_literals_on_another_carrier(kernel):
    # G declares the tags yes and no, so only the literals' carriers are wrong
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"), ("yes", "no"))
    keys_on_two = Table(g, TWO, tuple((ObjLit(t, TWO), ObjLit(t, TWO)) for t in ("yes", "no")))
    with pytest.raises(CodomainError, match=r"^row Two\.yes -> Two\.yes is not written on G -> Two$"):
        kernel.mor_intro(keys_on_two, g, TWO)
    values_on_g = Table(g, TWO, tuple((ObjLit(t, g), ObjLit(t, g)) for t in ("yes", "no")))
    with pytest.raises(CodomainError, match=r"^row G\.yes -> G\.yes is not written on G -> Two$"):
        kernel.mor_intro(values_on_g, g, TWO)


def test_builtin_morphisms(kernel):
    eq_nat = kernel.mor_intro(BuiltinRule("eq_of", (NAT,)), Product(NAT, NAT), TWO)
    assert eq_nat.judgment == IsMor(BuiltinRule("eq_of", (NAT,)), Product(NAT, NAT), TWO)
    sq = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    detector = kernel.mor_intro(
        BuiltinRule("empty_detector_of", (NAT,)), Powerset(NAT), TWO, premises=(sq,)
    )
    assert verify_trace(detector).passed


def test_builtin_premise_and_catalog_errors(kernel):
    with pytest.raises(PremiseError):
        kernel.mor_intro(
            BuiltinRule("empty_detector_of", (NAT,)), Powerset(NAT), TWO
        )  # missing SupportsQuant premise
    with pytest.raises(CatalogError):
        kernel.mor_intro(BuiltinRule("eq_of", (NAT,)), Product(NAT, NAT), NAT)
    kernel.gen_intro(Ident("G"))
    g = Named(Ident("G"))
    with pytest.raises(CatalogError, match="no identity"):
        kernel.mor_intro(BuiltinRule("eq_of", (g,)), Product(g, g), TWO)
    with pytest.raises(CatalogError, match="partial"):
        kernel.mor_intro(BuiltinRule("restrict", ("squares", 5)), NAT, TWO)


# -- domains and sets


def test_domain_intro_two(kernel):
    gen = kernel.gen_intro(TWO)
    pair = Product(TWO, TWO)
    table = Table(
        pair,
        TWO,
        tuple(
            (ObjLit(f"({x},{y})", pair), ObjLit("yes" if x == y else "no", TWO))
            for x in ("yes", "no")
            for y in ("yes", "no")
        ),
    )
    mor = kernel.mor_intro(table, pair, TWO)
    binfn = kernel.bin_fn_from_mor(mor)
    thm = kernel.domain_intro(gen, binfn)
    assert thm.judgment == IsDomain(TWO, table)


def test_domain_intro_nat_builtin(kernel):
    gen = kernel.gen_intro(NAT)
    eq = BuiltinRule("eq_of", (NAT,))
    binfn = kernel.bin_fn_from_mor(kernel.mor_intro(eq, Product(NAT, NAT), TWO))
    thm = kernel.domain_intro(gen, binfn)
    assert thm.judgment == IsDomain(NAT, eq)


def test_domain_intro_rejects_constant_yes(kernel):
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"), ("a", "b"))
    constant = Table(
        Product(g, g),
        TWO,
        tuple(
            (ObjLit(f"({x},{y})", Product(g, g)), ObjLit("yes", TWO))
            for x in "ab"
            for y in "ab"
        ),
    )
    gen = kernel.gen_intro(g)
    binfn = kernel.bin_fn_from_mor(kernel.mor_intro(constant, Product(g, g), TWO))
    with pytest.raises(EqualityLawError, match=r"returns 'yes' at \('a', 'b'\)"):
        kernel.domain_intro(gen, binfn)


def test_domain_intro_premise_mismatch(kernel):
    gen_two = kernel.gen_intro(TWO)
    eq_nat = BuiltinRule("eq_of", (NAT,))
    binfn = kernel.bin_fn_from_mor(kernel.mor_intro(eq_nat, Product(NAT, NAT), TWO))
    with pytest.raises(PremiseError):
        kernel.domain_intro(gen_two, binfn)


def test_set_intro_and_mismatch(kernel):
    gen = kernel.gen_intro(NAT)
    eq = BuiltinRule("eq_of", (NAT,))
    binfn = kernel.bin_fn_from_mor(kernel.mor_intro(eq, Product(NAT, NAT), TWO))
    domain = kernel.domain_intro(gen, binfn)
    squant = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    thm = kernel.set_intro(domain, squant)
    assert thm.judgment == IsSet(NAT)
    assert thm.parts == (domain, squant)
    two_set = kernel.axiom(AxiomId.H1_TWO_IS_SET)
    with pytest.raises(PremiseError):
        kernel.set_intro(domain, two_set.parts[1])  # SupportsQuant(Two) vs Nat


def test_squant_from_powerset_chain(kernel):
    h3 = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    p1 = kernel.squant_from_powerset(h3)
    assert p1.judgment == SupportsQuant(Powerset(NAT))
    p2 = kernel.squant_from_powerset(p1)
    assert p2.judgment == SupportsQuant(Powerset(Powerset(NAT)))
    report = verify_trace(p2)
    assert report.passed and report.node_count == 3  # H3, H4, H4
    assert sorted(a.value for a in axioms_used(p2).elements()) == ["H3", "H4", "H4"]


def test_squant_premise_error(kernel):
    set_nat = kernel.axiom(AxiomId.H1_TWO_IS_SET)
    with pytest.raises(PremiseError):
        kernel.squant_from_powerset(set_nat)  # IsSet, not SupportsQuant


# -- coherent limits


def test_coherent_family_and_limit(kernel):
    family = FamilySpec(Ident("F"), "restrictions(squares)")
    fam_thm = kernel.coherent_family(family)
    assert fam_thm.judgment == IsCoherentFamily(family)
    limit = kernel.coherent_limit(fam_thm)
    assert limit.judgment == IsObj(
        ObjLit("limit(restrictions(squares))", Powerset(NAT)), Powerset(NAT)
    )
    assert verify_trace(limit).passed
    zero = kernel.coherent_family(FamilySpec(Ident("Z"), "restrictions(finite:)"))
    assert kernel.coherent_limit(zero).judgment.obj.tag == "limit(restrictions(finite:))"


def test_incoherent_family_is_refused_upstream(kernel):
    for descriptor, stage, index in (
        ("corrupt(squares,3,1)", 3, 1),
        ("corrupt(squares,100,3)", 100, 3),
    ):
        family = FamilySpec(Ident("Bad"), descriptor)
        with pytest.raises(CoherenceError) as exc:
            kernel.coherent_family(family)
        assert (exc.value.stage, exc.value.index) == (stage, index)
        # a forged declaration node is refused on replay the same way
        with pytest.raises(CoherenceError) as exc:
            _judge("decl", "coherent_family", (family,), ())
        assert (exc.value.stage, exc.value.index) == (stage, index)


def test_union_of_incoherent_family_is_refused(kernel):
    union = BuiltinRule("union_of_family", ("restrictions(pow2)",))
    assert kernel.mor_intro(union, NAT, TWO).judgment == IsMor(union, NAT, TWO)
    corrupt = BuiltinRule("union_of_family", ("corrupt(squares,5,3)",))
    with pytest.raises(CatalogError, match="stage 5 disagrees at index 3"):
        kernel.mor_intro(corrupt, NAT, TWO)


def test_union_of_family_counts_cla(kernel):
    union = BuiltinRule("union_of_family", ("restrictions(pow2)",))
    assert axioms_used(kernel.mor_intro(union, NAT, TWO)) == {AxiomId.CLA_COHERENT_LIMIT: 1}
    indicator = BuiltinRule("indicator_stream", ("squares",))
    assert not axioms_used(kernel.mor_intro(indicator, NAT, TWO))


def test_coherent_limit_premise_error(kernel):
    h3 = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    with pytest.raises(PremiseError):
        kernel.coherent_limit(h3)


# -- equality queries


def _nat_domain(kernel: Kernel):
    gen = kernel.gen_intro(NAT)
    eq = BuiltinRule("eq_of", (NAT,))
    binfn = kernel.bin_fn_from_mor(kernel.mor_intro(eq, Product(NAT, NAT), TWO))
    return kernel.domain_intro(gen, binfn)


def test_eq_within_domain_evaluates(kernel):
    domain = _nat_domain(kernel)
    assert kernel.eq_within_domain(domain, ObjLit("3", NAT), ObjLit("3", NAT)) == "yes"
    assert kernel.eq_within_domain(domain, ObjLit("3", NAT), ObjLit("5", NAT)) == "no"


def test_cross_domain_equality_is_refused(kernel):
    domain = _nat_domain(kernel)
    with pytest.raises(CrossDomainEqualityError):
        kernel.eq_within_domain(domain, ObjLit("yes", TWO), ObjLit("0", NAT))


# -- choice (H2)


def test_choice_section_for_three_to_two(kernel):
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
    judgment = thm.judgment
    assert isinstance(judgment, IsMor)
    assert judgment.dom == TWO and judgment.cod == g
    section = {k.tag: v.tag for k, v in judgment.fn.rows}
    # oracle: enumerate all functions Two -> G and keep the sections
    surj_map = {"a": "yes", "b": "yes", "c": "no"}
    candidates = [
        {"yes": x, "no": y} for x in "abc" for y in "abc"
    ]
    sections = [c for c in candidates if all(surj_map[c[t]] == t for t in c)]
    assert section in sections and len(sections) == 2
    assert verify_trace(thm).passed


def test_choice_identity_on_two(kernel):
    identity = Table(
        TWO, TWO, ((ObjLit("yes", TWO), ObjLit("yes", TWO)), (ObjLit("no", TWO), ObjLit("no", TWO)))
    )
    thm = kernel.axiom(AxiomId.H2_CHOICE, (identity, TWO, TWO))
    assert {k.tag: v.tag for k, v in thm.judgment.fn.rows} == {"yes": "yes", "no": "no"}


def test_choice_counterexample(kernel):
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"), ("a", "b"))
    not_surjective = Table(
        g,
        TWO,
        ((ObjLit("a", g), ObjLit("yes", TWO)), (ObjLit("b", g), ObjLit("yes", TWO))),
    )
    with pytest.raises(CounterexampleError, match="^not surjective: 'no' is uncovered$") as exc:
        kernel.axiom(AxiomId.H2_CHOICE, (not_surjective, g, TWO))
    assert exc.value.uncovered == "no"


# -- sealing and trace integrity


def test_theorems_are_sealed():
    with pytest.raises(TypeError):
        Theorem(IsSet(TWO), TraceNode("axiom", "H1", IsSet(TWO)))


def test_corrupted_trace_fails_at_root(kernel, rejudge):
    thm = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    assert verify_trace(thm).passed
    # swap the recorded judgment behind the kernel's back
    rejudge(thm, (), SupportsQuant(TWO))
    report = verify_trace(thm)
    assert not report.passed
    assert report.failure.startswith("H3 node SupportsQuant(Two): ")


def test_tampered_inner_node_is_named_by_replay(kernel, rejudge):
    p2 = kernel.squant_from_powerset(
        kernel.squant_from_powerset(kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT))
    )
    rejudge(p2, (0,), SupportsQuant(Powerset(TWO)))  # the middle node
    report = verify_trace(p2)
    assert not report.passed and report.node_count == 3
    assert report.failure == (
        "squant_from_powerset node SupportsQuant(P[Two]): "
        "replay derives SupportsQuant(P[Nat])"
    )


def test_replay_rederives_a_generator_declaration_from_its_name(kernel, rejudge):
    thm = kernel.gen_intro(Ident("G"))
    rejudge(thm, (), IsGen(Named(Ident("H"))))
    assert verify_trace(thm).failure == "generator node Gen(H): replay derives Gen(G)"


def test_trace_leaf_kinds_for_naturals(kernel):
    h3 = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    set_thm = kernel.set_intro(_nat_domain(kernel), h3)
    assert leaf_kinds(set_thm) == {"declaration", "H3"}


def test_binfn_iff_mor_into_two(kernel):
    # constructing either form yields the other by a single rule application
    eq = BuiltinRule("eq_of", (TWO,))
    mor = kernel.mor_intro(eq, Product(TWO, TWO), TWO)
    binfn = kernel.bin_fn_from_mor(mor)
    assert isinstance(mor.judgment, IsMor) and mor.judgment.cod == TWO
    assert binfn.judgment == IsBinFn(eq, Product(TWO, TWO))
    assert binfn.node.children == (mor.node,)
    with pytest.raises(PremiseError):
        kernel.bin_fn_from_mor(kernel.gen_intro(TWO))  # not a morphism


def test_trace_nodes_deduplicate_shared_premises(kernel):
    h3 = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    p1 = kernel.squant_from_powerset(h3)
    p2 = kernel.squant_from_powerset(h3)
    # different applications share the H3 leaf by identity
    merged = {id(n) for n in trace_nodes(p1)} & {id(n) for n in trace_nodes(p2)}
    assert id(h3.node) in merged


# -- carriers the kernel knows whole


def test_kernel_imports_only_terms_and_streams_from_the_package():
    source = Path(kernel_module.__file__).read_text("utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert not node.level and not node.module.startswith("ogkernel"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("ogkernel") for a in node.names)
    assert imported == {"terms", "streams"}


def test_tables_need_carriers_known_whole(kernel):
    kernel.gen_intro(Ident("G"))  # no tags
    g = Named(Ident("G"))
    one_row = Table(g, TWO, ((ObjLit("a", g), ObjLit("yes", TWO)),))
    with pytest.raises(TotalityError, match="G is not: generator 'G' declares no tags"):
        kernel.mor_intro(one_row, g, TWO)
    on_nat = Table(NAT, TWO, ((ObjLit("0", NAT), ObjLit("yes", TWO)),))
    with pytest.raises(TotalityError, match="Nat is not: it mentions Nat"):
        kernel.mor_intro(on_nat, NAT, TWO)
    # a table into Nat is refused too, whatever its values
    into_nat = Table(
        TWO, NAT, ((ObjLit("yes", TWO), ObjLit("0", NAT)), (ObjLit("no", TWO), ObjLit("1", NAT)))
    )
    with pytest.raises(CodomainError, match="codomain must be a finite carrier known whole"):
        kernel.mor_intro(into_nat, TWO, NAT)
    with pytest.raises(PremiseError, match="'H' is not declared"):
        kernel.mor_intro(Table(Named(Ident("H")), TWO, ()), Named(Ident("H")), TWO)


def test_table_payload_carries_the_declared_tags(kernel):
    kernel.gen_intro(Ident("G"), ("a", "b"))
    kernel.gen_intro(Ident("H"), ("u",))
    g, h = Named(Ident("G")), Named(Ident("H"))
    table = Table(Product(g, h), TWO, tuple(
        (ObjLit(f"({x},u)", Product(g, h)), ObjLit("yes", TWO)) for x in "ab"
    ))
    thm = kernel.mor_intro(table, Product(g, h), TWO)
    assert thm.node.payload[3] == (("G", ("a", "b")), ("H", ("u",)))
    assert verify_trace(thm).passed


def test_repeated_tag_is_refused_by_the_kernel(kernel):
    with pytest.raises(SchemaError, match="^generator 'G' lists the tag 'a' twice$"):
        kernel.gen_intro(Ident("G"), ("a", "b", "a"))
    kernel.gen_intro(Ident("G"), ("a", "b"))  # the refused name was not declared
    with pytest.raises(SchemaError):
        kernel.gen_intro(Powerset(TWO), ("a",))


@pytest.mark.parametrize(
    "kind, label, payload",
    [
        ("decl", "generator", Named(Ident("G"))),
        ("rule", "gen_intro", TWO),
        ("decl", "coherent_family", TWO),
    ],
)
def test_the_judge_refuses_a_term_as_its_payload(kind, label, payload):
    # A term is a tuple, but a payload is a plain one: a sequence pattern
    # matched against a term's items would judge the wrong thing or crash.
    with pytest.raises(SchemaError, match="with this payload"):
        _judge(kind, label, payload, ())


def test_a_huge_domain_is_refused_without_building_it(kernel):
    tower = TWO
    for _ in range(5):
        tower = Powerset(tower)  # 2^65536 objects at P^4; P^5 is never counted
    one_row = Table(tower, TWO, ((ObjLit("{}", tower), ObjLit("yes", TWO)),))
    with pytest.raises(TotalityError, match=r"^table has no row for '\{\{\}\}'$"):
        kernel.mor_intro(one_row, tower, TWO)


def test_canonical_tags_order_objects_as_the_carrier_does(kernel):
    kernel.gen_intro(Ident("G"), ("b", "a"))
    g = Named(Ident("G"))
    # P[G] in bitmask order: {}, {b}, {a}, {b,a}; {a,b} is not canonical
    sub = Powerset(g)
    rows = tuple((ObjLit(t, sub), ObjLit("yes", TWO)) for t in ("{}", "{b}", "{a}", "{b,a}"))
    kernel.mor_intro(Table(sub, TWO, rows), sub, TWO)
    bad = rows[:3] + ((ObjLit("{a,b}", sub), ObjLit("yes", TWO)),)
    with pytest.raises(CodomainError, match="row key '{a,b}' is not an object"):
        kernel.mor_intro(Table(sub, TWO, bad), sub, TWO)
    # H2 takes the least preimage in carrier order, whatever the row order
    collapse = Table(sub, TWO, tuple(
        (ObjLit(t, sub), ObjLit("no" if t == "{}" else "yes", TWO))
        for t in ("{b,a}", "{a}", "{b}", "{}")
    ))
    section = kernel.axiom(AxiomId.H2_CHOICE, (collapse, sub, TWO)).judgment.fn
    assert [(k.tag, v.tag) for k, v in section.rows] == [("yes", "{b}"), ("no", "{}")]


def test_h2_reads_a_table():
    with pytest.raises(SchemaError, match="table"):
        Kernel().axiom(AxiomId.H2_CHOICE, (BuiltinRule("eq_of", (TWO,)), Product(TWO, TWO), TWO))


def test_equality_on_a_table_domain_reads_its_rows(kernel):
    kernel.gen_intro(Ident("G"), ("a", "b"))
    g = Named(Ident("G"))
    pair = Product(g, g)
    diagonal = Table(pair, TWO, tuple(
        (ObjLit(f"({x},{y})", pair), ObjLit("yes" if x == y else "no", TWO))
        for x in "ab" for y in "ab"
    ))
    binfn = kernel.bin_fn_from_mor(kernel.mor_intro(diagonal, pair, TWO))
    domain = kernel.domain_intro(kernel.gen_intro(g), binfn)
    ask = lambda x, y: kernel.eq_within_domain(domain, ObjLit(x, g), ObjLit(y, g))
    assert (ask("a", "a"), ask("a", "b")) == ("yes", "no")
    with pytest.raises(KernelError, match="'c' is not an object of G"):
        ask("c", "a")


# -- differential: the kernel against the oracle on tables over G{a,b,c} and Two

_G = Named(Ident("G"))
_G_TAGS = ("a", "b", "c")
_G_MODEL = Model.make({"G": Carrier("G", _G_TAGS)})
_CARRIERS = [_G, TWO, Product(_G, TWO), Product(TWO, _G), Product(TWO, TWO), Product(_G, _G)]


_STRAY = ("z", "(a,z)", "{}", "(yes,a", "a ", "yes,no", "(c,no)", "(yes,yes)", "b", "no")


@st.composite
def _tables(draw):
    """A total table on two of the carriers, then up to three faults: a row
    missing, a row with an extra or unknown key, a value outside the codomain."""
    dom, cod = draw(st.sampled_from(_CARRIERS)), draw(st.sampled_from(_CARRIERS))
    keys, targets = (interpret(expr, _G_MODEL).objects for expr in (dom, cod))
    values = st.lists(st.sampled_from(targets), min_size=len(keys), max_size=len(keys))
    rows = dict(zip(keys, draw(values)))
    for fault in draw(st.lists(st.sampled_from(["missing", "key", "value"]), max_size=3)):
        if fault == "missing" and rows:
            del rows[draw(st.sampled_from(sorted(rows)))]
        elif fault == "key":
            rows.setdefault(draw(st.sampled_from(_STRAY)), draw(st.sampled_from(targets)))
        elif fault == "value" and rows:
            rows[draw(st.sampled_from(sorted(rows)))] = draw(st.sampled_from(_STRAY))
    return Table(dom, cod, tuple((ObjLit(k, dom), ObjLit(v, cod)) for k, v in rows.items()))


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_kernel_accepts_a_table_exactly_when_the_oracle_holds(table):
    kernel = Kernel()
    kernel.gen_intro(Ident("G"), _G_TAGS)
    try:
        kernel.mor_intro(table, table.domain, table.codomain)
        accepted = True
    except KernelError:
        accepted = False
    judgment = IsMor(table, table.domain, table.codomain)
    assert accepted == verify_judgment(judgment, _G_MODEL).holds
