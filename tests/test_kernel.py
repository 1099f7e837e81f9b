"""Kernel rules, sealing, trace replay, and the refusal behaviors."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import carrier_objects, elaborate_path, elaborate_text
from ogkernel import kernel as kernel_module

from ogkernel.kernel import (
    AxiomId,
    CrossDomainEqualityError,
    Kernel,
    KernelError,
    Theorem,
    _is_object,
    _judge,
    axioms_used,
    leaf_kinds,
    trace_set,
    verify_trace,
)
from ogkernel.semantics import Carrier, Model, SweepItem, interpret, verify_judgment
from ogkernel.stdlib import prelude_source
from ogkernel.streams import CoherenceError, FiniteSupport, PowersOfTwoIndicator, SquaresIndicator
from ogkernel.surface import _Parser, _scan, _tag_value, parse_family
from ogkernel.terms import (
    NAT,
    TWO,
    BuiltinRule,
    Family,
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
    Term,
    render,
    tag_text,
)

CORPUS = Path(__file__).parent / "corpus"


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
    with pytest.raises(KernelError):
        kernel.axiom(AxiomId.H1_TWO_IS_SET, [NAT])
    with pytest.raises(KernelError):
        kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT, [NAT])


def test_h4_and_cla_are_rules_not_leaf_axioms(kernel):
    with pytest.raises(KernelError, match="squant_from_powerset"):
        kernel.axiom(AxiomId.H4_POWERSET_QUANT, [NAT])
    with pytest.raises(KernelError, match="coherent_limit"):
        kernel.axiom(AxiomId.CLA_COHERENT_LIMIT)


# -- generators


def test_gen_intro_primitive_and_clash(kernel):
    thm = kernel.gen_intro(Ident("G"))
    assert thm.judgment == IsGen(Named(Ident("G")))
    with pytest.raises(KernelError):
        kernel.gen_intro(Ident("G"))


def test_gen_intro_formation(kernel):
    thm = kernel.gen_intro(Powerset(NAT))
    assert thm.judgment == IsGen(Powerset(NAT))
    assert verify_trace(thm).passed
    kernel.gen_intro(Ident("G"))
    composite = kernel.gen_intro(Product(Named(Ident("G")), TWO))
    assert composite.judgment == IsGen(Product(Named(Ident("G")), TWO))


def test_gen_intro_unknown_name(kernel):
    with pytest.raises(KernelError):
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
    with pytest.raises(KernelError, match="^table has no row for 'b'$"):
        kernel.mor_intro(partial, g, TWO)
    bad = Table(
        g, TWO, ((ObjLit("a", g), ObjLit("up", TWO)), (ObjLit("b", g), ObjLit("no", TWO)))
    )
    with pytest.raises(KernelError, match="^row value 'up' is not an object of the codomain$"):
        kernel.mor_intro(bad, g, TWO)
    # a row whose key is no object of the domain, also where a row is missing
    stray_row = (ObjLit("z", g), ObjLit("no", TWO))
    total = ((ObjLit("a", g), ObjLit("yes", TWO)), bad.rows[1])
    for rows in (total + (stray_row,), total[1:] + (stray_row,)):
        with pytest.raises(KernelError, match="row key 'z' is not an object"):
            kernel.mor_intro(Table(g, TWO, rows), g, TWO)


def test_mor_intro_refuses_row_literals_on_another_carrier(kernel):
    # G declares the tags yes and no, so only the literals' carriers are wrong
    g = Named(Ident("G"))
    kernel.gen_intro(Ident("G"), ("yes", "no"))
    keys_on_two = Table(g, TWO, tuple((ObjLit(t, TWO), ObjLit(t, TWO)) for t in ("yes", "no")))
    with pytest.raises(KernelError, match=r"^row Two\.yes -> Two\.yes is not written on G -> Two$"):
        kernel.mor_intro(keys_on_two, g, TWO)
    values_on_g = Table(g, TWO, tuple((ObjLit(t, g), ObjLit(t, g)) for t in ("yes", "no")))
    with pytest.raises(KernelError, match=r"^row G\.yes -> G\.yes is not written on G -> Two$"):
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
    with pytest.raises(KernelError):
        kernel.mor_intro(
            BuiltinRule("empty_detector_of", (NAT,)), Powerset(NAT), TWO
        )  # missing SupportsQuant premise
    with pytest.raises(KernelError):
        kernel.mor_intro(BuiltinRule("eq_of", (NAT,)), Product(NAT, NAT), NAT)
    kernel.gen_intro(Ident("G"))
    g = Named(Ident("G"))
    with pytest.raises(KernelError, match="no identity"):
        kernel.mor_intro(BuiltinRule("eq_of", (g,)), Product(g, g), TWO)
    with pytest.raises(KernelError, match="partial"):
        kernel.mor_intro(BuiltinRule("restrict", (SquaresIndicator(), 5)), NAT, TWO)


# -- domains and sets


def test_domain_intro_two(kernel):
    gen = kernel.gen_intro(TWO)
    pair = Product(TWO, TWO)
    table = Table(
        pair,
        TWO,
        tuple(
            (ObjLit((x, y), pair), ObjLit("yes" if x == y else "no", TWO))
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
            (ObjLit((x, y), Product(g, g)), ObjLit("yes", TWO))
            for x in "ab"
            for y in "ab"
        ),
    )
    gen = kernel.gen_intro(g)
    binfn = kernel.bin_fn_from_mor(kernel.mor_intro(constant, Product(g, g), TWO))
    with pytest.raises(KernelError, match=r"returns 'yes' at \('a', 'b'\)"):
        kernel.domain_intro(gen, binfn)


def test_domain_intro_premise_mismatch(kernel):
    gen_two = kernel.gen_intro(TWO)
    eq_nat = BuiltinRule("eq_of", (NAT,))
    binfn = kernel.bin_fn_from_mor(kernel.mor_intro(eq_nat, Product(NAT, NAT), TWO))
    with pytest.raises(KernelError):
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
    with pytest.raises(KernelError):
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
    with pytest.raises(KernelError):
        kernel.squant_from_powerset(set_nat)  # IsSet, not SupportsQuant


# -- coherent limits


def test_coherent_family_and_limit(kernel):
    squares = Family(SquaresIndicator(), None)
    family = FamilySpec(Ident("F"), squares)
    fam_thm = kernel.coherent_family(family)
    assert fam_thm.judgment == IsCoherentFamily(family)
    limit = kernel.coherent_limit(fam_thm)
    assert limit.judgment == IsObj(ObjLit(squares, Powerset(NAT)), Powerset(NAT))
    assert render(limit.judgment) == 'Obj(P[Nat]."limit(restrictions(squares))", P[Nat])'
    assert verify_trace(limit).passed
    zero = kernel.coherent_family(FamilySpec(Ident("Z"), Family(FiniteSupport(()), None)))
    assert tag_text(kernel.coherent_limit(zero).judgment.obj.tag) == "limit(restrictions(finite:))"


def test_incoherent_family_is_refused_upstream(kernel):
    for descriptor, stage, index in (
        ("corrupt(squares,3,1)", 3, 1),
        ("corrupt(squares,100,3)", 100, 3),
    ):
        family = FamilySpec(Ident("Bad"), parse_family(descriptor))
        with pytest.raises(CoherenceError) as exc:
            kernel.coherent_family(family)
        assert (exc.value.stage, exc.value.index) == (stage, index)
        # a forged declaration node is refused on replay the same way
        with pytest.raises(CoherenceError) as exc:
            _judge("decl", "coherent_family", (family,), ())
        assert (exc.value.stage, exc.value.index) == (stage, index)


def test_union_of_incoherent_family_is_refused(kernel):
    union = BuiltinRule("union_of_family", (Family(PowersOfTwoIndicator(), None),))
    assert kernel.mor_intro(union, NAT, TWO).judgment == IsMor(union, NAT, TWO)
    corrupt = BuiltinRule("union_of_family", (Family(SquaresIndicator(), (5, 3)),))
    with pytest.raises(KernelError, match="stage 5 disagrees at index 3"):
        kernel.mor_intro(corrupt, NAT, TWO)


def test_union_of_family_counts_cla(kernel):
    union = BuiltinRule("union_of_family", (Family(PowersOfTwoIndicator(), None),))
    assert axioms_used(kernel.mor_intro(union, NAT, TWO)) == {AxiomId.CLA_COHERENT_LIMIT: 1}
    indicator = BuiltinRule("indicator_stream", (SquaresIndicator(),))
    assert not axioms_used(kernel.mor_intro(indicator, NAT, TWO))


def test_coherent_limit_premise_error(kernel):
    h3 = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    with pytest.raises(KernelError):
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
    with pytest.raises(KernelError, match="^not surjective: 'no' is uncovered$"):
        kernel.axiom(AxiomId.H2_CHOICE, (not_surjective, g, TWO))


# -- sealing and trace integrity


def test_theorems_are_sealed(kernel):
    with pytest.raises(TypeError, match="only by kernel operations"):
        Theorem(object(), "axiom", "H1", IsSet(TWO), (), ())
    assert Theorem.__slots__ == ()
    two_set = kernel.axiom(AxiomId.H1_TWO_IS_SET)
    assert isinstance(two_set, Term) and two_set.node is two_set
    # a set's parts are its premises, the very theorems of its trace
    assert len(two_set.parts) == 2
    assert all(part is child for part, child in zip(two_set.parts, two_set.children))


def test_a_premise_must_be_a_theorem(kernel):
    squant = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    domain = _nat_domain(kernel)
    # anything with a judgment, even another record that carries one
    lookalike = SweepItem(SupportsQuant(NAT), (), ())
    with pytest.raises(KernelError, match="every premise must be a theorem"):
        kernel.set_intro(domain, lookalike)
    assert kernel.set_intro(domain, squant).judgment == IsSet(NAT)


def test_no_attribute_of_a_theorem_can_be_assigned(kernel):
    thm = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    other = kernel.axiom(AxiomId.H1_TWO_IS_SET)
    for name in ("_node", "_parts", "judgment", "children", "payload", "parts", "node"):
        with pytest.raises(AttributeError):
            setattr(thm, name, other)
        with pytest.raises(AttributeError):
            delattr(thm, name)
    assert thm.judgment == SupportsQuant(NAT) and verify_trace(thm).passed


def test_corrupted_trace_fails_at_root(kernel, rejudge):
    thm = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    assert verify_trace(thm).passed
    # a forgery that records another judgment under the kernel's seal
    report = verify_trace(rejudge(thm, (), SupportsQuant(TWO)))
    assert not report.passed
    assert report.failure.startswith("H3 node SupportsQuant(Two): ")


def test_tampered_inner_node_is_named_by_replay(kernel, rejudge):
    p2 = kernel.squant_from_powerset(
        kernel.squant_from_powerset(kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT))
    )
    report = verify_trace(rejudge(p2, (0,), SupportsQuant(Powerset(TWO))))  # the middle node
    assert not report.passed and report.node_count == 3
    assert report.failure == (
        "squant_from_powerset node SupportsQuant(P[Two]): "
        "replay derives SupportsQuant(P[Nat])"
    )


def test_replay_rederives_a_generator_declaration_from_its_name(kernel, rejudge):
    thm = kernel.gen_intro(Ident("G"))
    forged = rejudge(thm, (), IsGen(Named(Ident("H"))))
    assert verify_trace(forged).failure == "generator node Gen(H): replay derives Gen(G)"


def _file_theorems():
    yield pytest.param(elaborate_text(prelude_source()).theorems, id="prelude")
    for path in sorted(CORPUS.glob("*.og")):
        yield pytest.param(elaborate_path(path).theorems, id=path.stem)


def _node_paths(thm: Theorem, path: tuple[int, ...] = ()):
    """Every path of child positions from a theorem to a node of its trace."""
    yield path
    for i, child in enumerate(thm.children):
        yield from _node_paths(child, (*path, i))


@pytest.mark.parametrize("theorems", _file_theorems())
def test_the_replay_memo_reports_like_a_fresh_replay(theorems, rejudge):
    # Each theorem of a file, and a forgery of it at every node, replayed
    # one after another through the per-node memo: a forgery shares every
    # other node with the file's own theorems, which come after it, and its
    # forged node with the forged premise above that node, which comes right
    # after it.
    replayed = []
    for thm in theorems:
        for path in _node_paths(thm):
            node = thm
            for i in path:
                node = node.children[i]
            other = SupportsQuant(NAT if node.judgment == SupportsQuant(TWO) else TWO)
            forged = rejudge(thm, path, other)
            replayed += [forged, forged.children[path[0]]] if path else [forged]
        replayed.append(thm)
    reports = [verify_trace(thm) for thm in replayed]
    fresh = []
    for thm in replayed:
        kernel_module._first_failure.cache_clear()
        fresh.append(verify_trace(thm))
    assert reports == fresh
    assert sum(report.passed for report in reports) == len(theorems)


def test_a_forged_node_fails_every_theorem_that_contains_it(kernel, rejudge, monkeypatch):
    p2 = kernel.squant_from_powerset(
        kernel.squant_from_powerset(kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT))
    )
    forged = rejudge(p2, (0, 0), SupportsQuant(TWO))  # the H3 leaf
    theorems = (forged.children[0], forged)  # both contain the forged leaf
    calls = []
    judge = kernel_module._judge
    monkeypatch.setattr(kernel_module, "_judge", lambda *args: calls.append(args) or judge(*args))
    reports = [verify_trace(thm) for thm in theorems]
    assert [report.node_count for report in reports] == [2, 3]
    assert {report.failure for report in reports} == {
        "H3 node SupportsQuant(Two): replay derives SupportsQuant(Nat)"
    }
    assert len(calls) == 1  # the second theorem reads the leaf's failure from the memo


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
    with pytest.raises(KernelError):
        kernel.bin_fn_from_mor(kernel.gen_intro(TWO))  # not a morphism


def test_trace_sets_share_a_premise_by_identity(kernel):
    h3 = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    p1 = kernel.squant_from_powerset(h3)
    p2 = kernel.squant_from_powerset(h3)
    # different applications share the H3 leaf by identity
    assert trace_set(p1) & trace_set(p2) == {h3.node}


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


def test_importing_the_kernel_loads_only_the_trusted_base():
    # The package root imports nothing, so the kernel's closure in the package
    # is what it imports: the terms and the stream catalog.
    script = (
        "import sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.partition('.')[0] == 'ogkernel')\n"
        "import ogkernel\n"
        "print(loaded())\n"
        "import ogkernel.kernel\n"
        "print(loaded())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    root, kernel = map(ast.literal_eval, result.stdout.splitlines())
    assert root == ["ogkernel"]
    assert kernel == ["ogkernel", "ogkernel.kernel", "ogkernel.streams", "ogkernel.terms"]


def test_the_readme_counts_the_lines_of_the_trusted_base():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    sentence = re.search(
        r"`kernel\.py` \(([\d,]+) lines\).*?`terms\.py` \(([\d,]+)\) and "
        r"`streams\.py`\s+\(([\d,]+)\), ([\d,]+) lines in all",
        readme,
        re.DOTALL,
    )
    *counts, total = (int(number.replace(",", "")) for number in sentence.groups())
    package = Path(kernel_module.__file__).parent
    lines = [
        (package / f"{name}.py").read_text("utf-8").count("\n")
        for name in ("kernel", "terms", "streams")
    ]
    assert counts == lines and total == sum(lines)


def test_the_trusted_base_and_the_oracle_name_no_spec_parser():
    # The spec grammar is the surface's: the kernel, the terms, the stream
    # catalog and the oracle read streams and families as terms, so none of
    # them defines, imports, calls or lists a spec parser.
    package = Path(kernel_module.__file__).parent
    parsers = {"parse_stream_spec", "parse_family", "split_top_level"}
    for module in ("kernel.py", "terms.py", "streams.py", "semantics.py"):
        named = set()
        for node in ast.walk(ast.parse((package / module).read_text("utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias, ast.Attribute)):
                named.add(getattr(node, "name", None) or getattr(node, "attr", None))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)  # an `__all__` entry
        assert named.isdisjoint(parsers), module


def test_the_kernel_and_the_oracle_read_no_tag_or_spec_text():
    # Only the surface splits text: the kernel and the oracle read object
    # tags, streams and families as values.
    package = Path(kernel_module.__file__).parent
    for module in ("kernel.py", "semantics.py"):
        imported = set()
        for node in ast.walk(ast.parse((package / module).read_text("utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {alias.name for alias in node.names} | {getattr(node, "module", None)}
        assert imported.isdisjoint({"re", "split_top_level"}), module


def test_every_exception_class_is_caught_by_name_somewhere():
    # A refusal gets a class of its own only where a program tells it apart:
    # each exception class of the package is named in some `except` clause
    # of the package or of the demos.  Any other refusal raises KernelError
    # or a builtin, and its message says which check failed.
    package = Path(kernel_module.__file__).parent
    modules = [
        importlib.import_module(f"ogkernel.{info.name}")
        for info in pkgutil.iter_modules([str(package)])
        if info.name != "__main__"
    ]
    defined = {
        name
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    }
    caught = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in [*package.glob("*.py"), *(package.parents[1] / "demos").glob("*.py")]
        for handler in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for node in ast.walk(handler.type)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert {"KernelError", "CrossDomainEqualityError", "UsageError"} <= defined
    assert sorted(defined - caught) == []


def test_tables_need_carriers_known_whole(kernel):
    kernel.gen_intro(Ident("G"))  # no tags
    g = Named(Ident("G"))
    one_row = Table(g, TWO, ((ObjLit("a", g), ObjLit("yes", TWO)),))
    with pytest.raises(KernelError, match="G is not: generator 'G' declares no tags"):
        kernel.mor_intro(one_row, g, TWO)
    on_nat = Table(NAT, TWO, ((ObjLit("0", NAT), ObjLit("yes", TWO)),))
    with pytest.raises(KernelError, match="Nat is not: it mentions Nat"):
        kernel.mor_intro(on_nat, NAT, TWO)
    # a table into Nat is refused too, whatever its values
    into_nat = Table(
        TWO, NAT, ((ObjLit("yes", TWO), ObjLit("0", NAT)), (ObjLit("no", TWO), ObjLit("1", NAT)))
    )
    with pytest.raises(KernelError, match="codomain must be a finite carrier known whole"):
        kernel.mor_intro(into_nat, TWO, NAT)
    with pytest.raises(KernelError, match="'H' is not declared"):
        kernel.mor_intro(Table(Named(Ident("H")), TWO, ()), Named(Ident("H")), TWO)


def test_table_payload_carries_the_declared_tags(kernel):
    kernel.gen_intro(Ident("G"), ("a", "b"))
    kernel.gen_intro(Ident("H"), ("u",))
    g, h = Named(Ident("G")), Named(Ident("H"))
    table = Table(Product(g, h), TWO, tuple(
        (ObjLit((x, "u"), Product(g, h)), ObjLit("yes", TWO)) for x in "ab"
    ))
    thm = kernel.mor_intro(table, Product(g, h), TWO)
    assert thm.node.payload[3] == (("G", ("a", "b")), ("H", ("u",)))
    assert verify_trace(thm).passed


def test_repeated_tag_is_refused_by_the_kernel(kernel):
    with pytest.raises(KernelError, match="^generator 'G' lists the tag 'a' twice$"):
        kernel.gen_intro(Ident("G"), ("a", "b", "a"))
    kernel.gen_intro(Ident("G"), ("a", "b"))  # the refused name was not declared
    with pytest.raises(KernelError):
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
    with pytest.raises(KernelError, match="with this payload"):
        _judge(kind, label, payload, ())


def test_a_huge_domain_is_refused_without_building_it(kernel):
    tower = TWO
    for _ in range(5):
        tower = Powerset(tower)  # 2^65536 objects at P^4; P^5 is never counted
    one_row = Table(tower, TWO, ((ObjLit(frozenset(), tower), ObjLit("yes", TWO)),))
    with pytest.raises(KernelError, match=r"^table has no row for '\{\{\}\}'$"):
        kernel.mor_intro(one_row, tower, TWO)


def test_tags_list_objects_as_the_carrier_does(kernel):
    kernel.gen_intro(Ident("G"), ("b", "a"))
    g = Named(Ident("G"))
    # P[G] in bitmask order: {}, {b}, {a}, {b,a}; a set has no member order
    sub = Powerset(g)
    subsets = [frozenset(), frozenset("b"), frozenset("a"), frozenset("ab")]
    rows = tuple((ObjLit(t, sub), ObjLit("yes", TWO)) for t in subsets)
    kernel.mor_intro(Table(sub, TWO, rows), sub, TWO)
    bad = rows[:3] + ((ObjLit(frozenset("ac"), sub), ObjLit("yes", TWO)),)
    with pytest.raises(KernelError, match="row key '{a,c}' is not an object"):
        kernel.mor_intro(Table(sub, TWO, bad), sub, TWO)
    with pytest.raises(KernelError, match=r"^table has no row for '\{a,b\}'$"):
        kernel.mor_intro(Table(sub, TWO, rows[:3]), sub, TWO)
    # H2 takes the least preimage in carrier order, whatever the row order
    collapse = Table(sub, TWO, tuple(
        (ObjLit(t, sub), ObjLit("yes" if t else "no", TWO)) for t in reversed(subsets)
    ))
    section = kernel.axiom(AxiomId.H2_CHOICE, (collapse, sub, TWO)).judgment.fn
    assert [(k.tag, v.tag) for k, v in section.rows] == [("yes", subsets[1]), ("no", subsets[0])]


def test_h2_reads_a_table():
    with pytest.raises(KernelError, match="table"):
        Kernel().axiom(AxiomId.H2_CHOICE, (BuiltinRule("eq_of", (TWO,)), Product(TWO, TWO), TWO))


def test_equality_on_a_table_domain_reads_its_rows(kernel):
    kernel.gen_intro(Ident("G"), ("a", "b"))
    g = Named(Ident("G"))
    pair = Product(g, g)
    diagonal = Table(pair, TWO, tuple(
        (ObjLit((x, y), pair), ObjLit("yes" if x == y else "no", TWO))
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


# Tags of every shape that name no object of some carrier: atoms no carrier
# lists, a family, and a set on a product is the wrong shape.
_LIMIT = Family(SquaresIndicator(), None)
_STRAY = (
    "z", _LIMIT, "a ", "b", "no", ("a", "z"), ("c", "no"), ("yes", "yes"),
    (("a", "b"), "no"), frozenset(), frozenset({"a"}), frozenset({"a", "yes"}),
)


@st.composite
def _tables(draw):
    """A total table on two of the carriers, then up to three faults: a row
    missing, a row with an extra or unknown key, a value outside the codomain."""
    dom, cod = draw(st.sampled_from(_CARRIERS)), draw(st.sampled_from(_CARRIERS))
    keys, targets = (carrier_objects(interpret(expr, _G_MODEL)) for expr in (dom, cod))
    values = st.lists(st.sampled_from(targets), min_size=len(keys), max_size=len(keys))
    rows = dict(zip(keys, draw(values)))
    for fault in draw(st.lists(st.sampled_from(["missing", "key", "value"]), max_size=3)):
        if fault == "missing" and rows:
            del rows[draw(st.sampled_from(list(rows)))]
        elif fault == "key":
            rows.setdefault(draw(st.sampled_from(_STRAY)), draw(st.sampled_from(targets)))
        elif fault == "value" and rows:
            rows[draw(st.sampled_from(list(rows)))] = draw(st.sampled_from(_STRAY))
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


# -- structured tags: one tag, one reading, in the kernel, the oracle and the surface

_TAG_MODEL = Model.make({"G": Carrier("G", _G_TAGS)}, nat_bound=1)
# The numerals stop at the model's bound: the kernel reads Nat whole.
_ATOMS_ON = {TWO: ("yes", "no"), NAT: ("0", "1"), _G: _G_TAGS}
_ANY_TAGS = st.recursive(
    st.sampled_from(("yes", "no", "a", "c", "z", "0", "1", "01", _LIMIT)),
    lambda inner: st.tuples(inner, inner)
    | st.tuples(inner, inner, inner)
    | st.frozensets(inner, max_size=3),
    max_leaves=6,
)


def _exprs_to(depth: int):
    """Generator expressions over Two, Nat and G, nested up to `depth` deep."""
    leaves = st.sampled_from(list(_ATOMS_ON))
    if depth == 0:
        return leaves
    inner = _exprs_to(depth - 1)
    return leaves | st.builds(Powerset, inner) | st.builds(Product, inner, inner)


@st.composite
def _tags_on(draw, expr):
    """The tag of an object of `expr`, or one time in five a tag of any shape,
    a 3-tuple or a set on a product among them."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_ANY_TAGS)
    if isinstance(expr, Product):
        return draw(_tags_on(expr.left)), draw(_tags_on(expr.right))
    if isinstance(expr, Powerset):
        return frozenset(draw(st.lists(_tags_on(expr.arg), max_size=3)))
    return draw(st.sampled_from(_ATOMS_ON[expr]))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_kernel_oracle_and_surface_read_a_tag_alike(data):
    expr = data.draw(_exprs_to(2))
    tag = data.draw(_tags_on(expr))
    names_object = interpret(expr, _TAG_MODEL).index(tag) is not None
    assert _is_object(expr, tag, {"G": _G_TAGS}) == names_object
    try:
        lit = ObjLit(tag, expr)
    except ValueError:
        assert not names_object  # a 3-tuple is no tag
        return
    parser = _Parser(_scan(render(lit))[0])
    assert parser.parse_arg() == lit and parser.keys[parser.pos] == "eof"
    if isinstance(tag, frozenset):  # a set written in any member order is one tag
        members = data.draw(st.permutations(sorted(map(tag_text, tag))))
        assert _tag_value("{" + ",".join(members) + "}") == tag
