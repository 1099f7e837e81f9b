"""Records: a record whose class takes part in equality is a `Term` tuple
tagged with its class name, every other record is a NamedTuple, no class is a
dataclass, and each record keeps its equality, validation and immutability."""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ogkernel
from ogkernel import cli, terms
from ogkernel.elaborate import Item, elaborate_source
from ogkernel.kernel import AxiomId, Kernel, Theorem
from ogkernel.semantics import FAILS, HOLDS, Carrier, Model, Verdict, models_for_judgment
from ogkernel.stdlib import prelude_source
from ogkernel.streams import (
    FiniteSupport,
    FlipAt,
    Periodic,
    PowersOfTwoIndicator,
    ShiftOf,
    SquaresIndicator,
    XorOf,
)
from ogkernel.surface import (
    AssertDecl,
    AxiomRef,
    GeneratorDecl,
    IncludeDecl,
    LimitDecl,
    Malformed,
    ModelCheckDecl,
    MorphismDecl,
    RuleApp,
    parse_source,
)
from ogkernel.terms import (
    NAT,
    TWO,
    BitStream,
    BuiltinRule,
    EqQuery,
    Family,
    FamilySpec,
    FnExpr,
    GenExpr,
    Ident,
    IsBinFn,
    IsCoherentFamily,
    IsDomain,
    IsGen,
    IsMor,
    IsObj,
    IsSet,
    Judgment,
    LimitRef,
    MorphismRef,
    Named,
    Nat,
    ObjLit,
    Powerset,
    Product,
    Span,
    SupportsQuant,
    Table,
    Term,
    Two,
)

TERM_CLASSES = (
    Ident, ObjLit, FamilySpec, Two, Nat, Named, Product, Powerset, Table, BuiltinRule,
    IsGen, IsObj, IsMor, IsBinFn, IsDomain, SupportsQuant, IsSet, IsCoherentFamily,
    LimitRef, MorphismRef, EqQuery, Periodic, SquaresIndicator, PowersOfTwoIndicator, FiniteSupport, XorOf, ShiftOf, FlipAt,
    Family,
)
# Records outside the term language whose class takes part in equality, or
# whose fields must not be replaced (a theorem, a report and its summary).
RECORD_CLASSES = (
    Theorem, Carrier, Verdict, Malformed, AxiomRef, RuleApp,
    GeneratorDecl, MorphismDecl, AssertDecl, ModelCheckDecl, IncludeDecl, LimitDecl, cli.Report,
)
BASES = (Term, GenExpr, FnExpr, Judgment, BitStream)
CORPUS = Path(__file__).parent / "corpus"


def _package_classes():
    for info in pkgutil.iter_modules(ogkernel.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"ogkernel.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield module.__name__, cls


def test_no_class_is_a_dataclass_and_every_term_class_is_a_term():
    classes = [cls for _, cls in _package_classes()]
    assert classes and not any(dataclasses.is_dataclass(cls) for cls in classes)
    term_classes = {cls for cls in classes if issubclass(cls, Term)}
    assert term_classes == {*BASES, *TERM_CLASSES, *RECORD_CLASSES}
    for cls in term_classes:
        # Only a Carrier keeps an instance __dict__, for its tag codes.
        assert (cls.__dict__.get("__slots__") == ()) == (cls is not Carrier), cls


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ogkernel.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "[]"


def _fields_walk(term, names: set[str]) -> bool:
    """Generator names into `names`; true when `Nat` occurs.  The walk an
    outside tool makes over a judgment, knowing only that terms are tuples."""
    if isinstance(term, Nat):
        return True
    if isinstance(term, Named):
        names.add(term.name.text)
        return False
    if not isinstance(term, tuple):
        return False
    found = False
    for part in term:
        found = _fields_walk(part, names) or found
    return found


def test_a_fields_walk_reaches_every_subterm_of_a_judgment():
    g, h = Named(Ident("G")), Named(Ident("H"))
    table = Table(Product(g, NAT), TWO, ((ObjLit(("a", "0"), Product(g, NAT)), ObjLit("yes", TWO)),))
    names: set[str] = set()
    assert _fields_walk(IsMor(table, Product(g, NAT), TWO), names)
    assert names == {"G"}
    names = set()
    assert not _fields_walk(IsObj(ObjLit(frozenset("a"), Powerset(h)), Powerset(h)), names)
    assert names == {"H"}
    names = set()
    assert _fields_walk(IsMor(BuiltinRule("eq_of", (Product(NAT, h),)), g, TWO), names)
    assert names == {"G", "H"}


def _elaborated_judgments():
    sources = [prelude_source(), *(path.read_text("utf-8") for path in CORPUS.glob("*.og"))]
    results = [elaborate_source(source, base_dir=CORPUS) for source in sources]
    return {thm.judgment for result in results for thm in result.theorems}


def test_the_fields_walk_and_the_models_agree_with_collect_names():
    # Over every judgment the corpus and the prelude elaborate: an outside
    # walk finds the names and Nat the oracle finds, and the oracle makes
    # s^|names| models at size s, times s Nat bounds when Nat occurs.
    judgments = _elaborated_judgments()
    assert len({type(j) for j in judgments}) == 8  # every judgment form
    for judgment in judgments:
        idents: set[Ident] = set()
        nat = terms.collect_names(judgment, idents)
        names: set[str] = set()
        assert _fields_walk(judgment, names) == nat, judgment
        assert names == {ident.text for ident in idents}, judgment
        for s in range(1, 4):
            expected = s ** len(names) * (s if nat else 1)
            assert len(models_for_judgment(judgment, s)) == expected, (judgment, s)


def test_judgments_of_different_forms_are_not_equal():
    assert IsSet(TWO) != terms.SupportsQuant(TWO)
    assert hash(IsSet(TWO)) == hash(IsSet(TWO))


# -- terms: tuples tagged with their class name


def _reference_equal(a, b) -> bool:
    """Term equality as the dataclass terms had it: the same class, and equal
    fields, compared the same way."""
    if isinstance(a, Term) or isinstance(b, Term):
        return type(a) is type(b) and all(
            _reference_equal(getattr(a, f), getattr(b, f)) for f in a._fields
        )
    if type(a) is tuple and type(b) is tuple:
        return len(a) == len(b) and all(map(_reference_equal, a, b))
    return type(a) is type(b) and a == b


def _rebuilt(x):
    """An equal copy of `x` built afresh."""
    if isinstance(x, Term):
        return type(x)(*(_rebuilt(getattr(x, f)) for f in x._fields))
    return tuple(map(_rebuilt, x)) if type(x) is tuple else x


_IDENTS = st.builds(Ident, st.sampled_from(["G", "H"]))
_GEN_EXPRS = st.recursive(
    st.sampled_from([TWO, NAT]) | st.builds(Named, _IDENTS),
    lambda inner: st.builds(Product, inner, inner) | st.builds(Powerset, inner),
    max_leaves=4,
)
_OBJ_LITS = st.builds(ObjLit, st.sampled_from(["a", "yes", "0"]), _GEN_EXPRS)
_ROWS = st.lists(st.tuples(_OBJ_LITS, _OBJ_LITS), max_size=2, unique_by=lambda r: r[0].tag)
_FN_EXPRS = st.builds(BuiltinRule, st.just("eq_of"), st.tuples(_GEN_EXPRS)) | st.builds(
    Table, _GEN_EXPRS, _GEN_EXPRS, _ROWS.map(tuple)
)
_FAMILIES = st.builds(
    FamilySpec, _IDENTS, st.sampled_from([Family(SquaresIndicator(), None), Family(SquaresIndicator(), (1, 0))])
)
_JUDGMENTS = st.one_of(
    *(st.builds(form, _GEN_EXPRS) for form in (IsGen, SupportsQuant, IsSet)),
    st.builds(IsObj, _OBJ_LITS, _GEN_EXPRS),
    st.builds(IsMor, _FN_EXPRS, _GEN_EXPRS, _GEN_EXPRS),
    st.builds(IsBinFn, _FN_EXPRS, _GEN_EXPRS),
    st.builds(IsDomain, _GEN_EXPRS, _FN_EXPRS),
    st.builds(IsCoherentFamily, _FAMILIES),
)
_TERMS = st.one_of(_IDENTS, _GEN_EXPRS, _OBJ_LITS, _FN_EXPRS, _FAMILIES, _JUDGMENTS)


@settings(max_examples=400, deadline=None)
@given(_TERMS, _TERMS)
def test_term_equality_is_class_and_field_equality(a, b):
    assert (a == b) == _reference_equal(a, b)
    if a == b:
        assert hash(a) == hash(b)
    copy = _rebuilt(a)
    assert copy == a and hash(copy) == hash(a) and _reference_equal(copy, a)


def test_terms_of_different_classes_or_fields_differ():
    e = Named(Ident("G"))
    assert IsSet(e) != SupportsQuant(e) and IsGen(e) != IsSet(e) and TWO != NAT
    assert IsGen(e) != IsGen(Named(Ident("H"))) and Two() == TWO
    assert repr(e) == "Named(name=Ident(text='G'))"
    for term, field in ((e, "name"), (e.name, "text"), (IsGen(e), "expr")):
        with pytest.raises(AttributeError):
            setattr(term, field, None)
    with pytest.raises(TypeError, match="Product takes 2 fields, got 1"):
        Product(TWO)


def test_a_term_hashes_alike_in_every_interpreter():
    # The class-name tag hashes by its text; a class object would hash by address.
    script = "from ogkernel.terms import Ident, Named; print(hash(Named(Ident('G'))))"
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    hashes = {
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
        ).stdout
        for _ in range(2)
    }
    assert len(hashes) == 1


# -- spans: only a declaration keeps one, as its last field


def test_tokens_and_declarations_compare_without_spans():
    # The parser's tokens are plain tuples; a judgment or proof built from
    # them keeps no span, and a declaration less its span is the same
    # wherever it stands.
    (first,), _ = parse_source("assert Set(Two) by axiom H1;")
    (second,), _ = parse_source("\n\n   assert Set(Two) by axiom H1;")
    assert first.judgment == second.judgment and first.proof == second.proof
    assert first.proof == AxiomRef("H1") != AxiomRef("H3")
    source = 'limit member "squares" upto 1 2 8;'
    (decl,), _ = parse_source(source)
    (moved,), _ = parse_source("\n  " + source)
    assert decl != moved and decl[:-1] == moved[:-1]
    assert decl != LimitDecl("member", SquaresIndicator(), (1, 2, 9), decl.span)
    assert decl != IncludeDecl("limit", decl.span)
    assert repr(decl).startswith("LimitDecl(command='member', spec=SquaresIndicator()")


def test_string_and_table_arguments_round_trip():
    source = (
        'assert Coherent(F, "restrictions(squares)") by rule coherent;\n'
        "assert Mor(table { Two.yes -> Two.no, Two.no -> Two.yes }, Two, Two) by rule mor;\n"
        "assert Obj(limit(F), P[Nat]) by rule cla;\n"
    )
    decls, diagnostics = parse_source(source)
    assert not diagnostics
    assert decls[0].judgment.family.descriptor == Family(SquaresIndicator(), None)
    rows = decls[1].judgment.fn.rows
    assert isinstance(rows, tuple) and [k.tag for k, _ in rows] == ["yes", "no"]
    assert elaborate_source(source).items[-1].status == "pass"


# -- records read by the CLI


def test_per_file_prefixes_item_names_and_keeps_the_rest():
    sources = [(Path("a.og"), []), (Path("b.og"), [])]
    witness = {"model": "model()"}
    items = cli._per_file(sources, {}, "layer", lambda result: [Item("x", "fail", "d", witness)])
    assert items == [
        Item("a.og: x", "fail", "d", witness),
        Item("b.og: x", "fail", "d", witness),
    ]
    assert cli._per_file(sources[:1], {}, "layer", lambda result: [Item("x", "pass")]) == [
        Item("x", "pass", "", None)
    ]


def test_run_config_defaults_print_in_help(capsys):
    assert not isinstance(cli.RunConfig.horizon, int)  # a field, not its default
    assert cli.RunConfig("limits").horizon == 4096
    for command, expected in (
        ("model", "--max-size N  (default: 3)"),
        ("limits", "--preperiod-bound N  (default: 64)"),
        ("limits", "--period-bound N  (default: 64)"),
        ("check", "--format text|json  (default: text)"),
    ):
        assert cli.main([command, "--help"]) == cli.EXIT_OK
        assert expected in capsys.readouterr().out
    assert cli.main(["limits", "--help"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "  --demo\n" in out and "  --out PATH\n" in out  # no default shown


# -- validation


def test_verdict_rejects_a_failure_without_witness():
    with pytest.raises(ValueError, match="witness"):
        Verdict(FAILS, "no witness")
    verdict = Verdict(FAILS, "bad", (("at", "x"),))
    assert verdict == Verdict(FAILS, "bad", (("at", "x"),)) != Verdict(HOLDS)
    assert not verdict.holds and Verdict(HOLDS).holds


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Periodic((), ()), "period must be nonempty"),
        (lambda: Periodic((2,), (1,)), "preperiod must consist"),
        (lambda: FiniteSupport((0, 3)), "bits must consist"),
        (lambda: ShiftOf(SquaresIndicator(), -1), "offset must be nonnegative"),
        (lambda: FlipAt(SquaresIndicator(), -1), "index must be nonnegative"),
        (lambda: Carrier("G", ("a", "a")), "duplicate tags"),
    ],
)
def test_records_with_invariants_reject_bad_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# -- immutable, hashed records


def test_hashed_records_are_immutable_values():
    g = Carrier("G", ("a", "b"))
    model = Model.make({"G": g}, nat_bound=2)
    stream = XorOf(Periodic((1,), (0, 1)), FlipAt(SquaresIndicator(), 3))
    for record, field in (
        (g, "tags"),
        (Carrier("P", parts=(g,)), "size"),
        (model, "nat_bound"),
        (stream, "left"),
        (SquaresIndicator(), "offset"),
        (Verdict(HOLDS), "status"),
        (Kernel().axiom(AxiomId.H3_NAT_SUPPORTS_QUANT), "judgment"),
    ):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert g == Carrier("G", ("a", "b")) and hash(g) == hash(Carrier("G", ("a", "b")))
    assert g != Carrier("G", ("a",)) and len(Carrier("P", parts=(g,))) == 4
    assert model == Model.make({"G": Carrier("G", ("a", "b"))}, nat_bound=2)
    assert {model: 1}[Model((("G", Carrier("G", ("a", "b"))),), 2)] == 1
    copy = XorOf(Periodic((1,), (0, 1)), FlipAt(SquaresIndicator(), 3))
    assert stream == copy and hash(stream) == hash(copy)
    assert SquaresIndicator() == SquaresIndicator()
    assert Periodic((), (1,)) != FiniteSupport((1,))
    kernel = Kernel()
    h3 = kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT)
    assert h3 != kernel.axiom(AxiomId.H3_NAT_SUPPORTS_QUANT) and h3 == h3  # by identity


# -- the contracts of the Term records outside the term language


def _one_record_of_each_class() -> list[Term]:
    g, span = Named(Ident("G")), Span(1, 1, 0, 6)
    yes = ObjLit("yes", TWO)
    eq = BuiltinRule("eq_of", (TWO,))
    squares = SquaresIndicator()
    family = FamilySpec(Ident("F"), Family(squares, None))
    judgment, proof = IsSet(TWO), AxiomRef("H1")
    return [
        Ident("G"), yes, family, TWO, NAT, g, Product(g, TWO), Powerset(g),
        Table(TWO, TWO, ((yes, yes),)), eq, IsGen(g), IsObj(yes, TWO), IsMor(eq, TWO, TWO),
        IsBinFn(eq, TWO), IsDomain(TWO, eq), SupportsQuant(NAT), IsSet(TWO),
        IsCoherentFamily(family), LimitRef(Ident("F")), MorphismRef(Ident("f")), EqQuery(yes, yes),
        family.descriptor,
        Periodic((0,), (1,)), squares, PowersOfTwoIndicator(), FiniteSupport((1, 0)),
        XorOf(squares, squares), ShiftOf(squares, 1), FlipAt(squares, 2),
        Kernel().axiom(AxiomId.H3_NAT_SUPPORTS_QUANT), Carrier("G", ("a",)), Verdict(HOLDS),
        Malformed("Set takes 1 argument(s), got 2"), proof, RuleApp("H4", (proof,)),
        GeneratorDecl("G", None, ("a",), span), MorphismDecl("f", TWO, TWO, eq, span),
        AssertDecl(judgment, proof, span), ModelCheckDecl(judgment, 2, span),
        IncludeDecl("lib.og", span), LimitDecl("demo", None, None, span),
        cli.Report(ogkernel.__version__, "axioms", (Item("H1", "assumed"),)),
    ]


def test_copying_or_pickling_any_record_is_refused():
    # The tuple's own reduction would pass the whole tagged tuple to __new__
    # and build another record, or fail on the way: a Term refuses instead.
    records = _one_record_of_each_class()
    assert {type(r) for r in records} == {*TERM_CLASSES, *RECORD_CLASSES}
    for record in records:
        for duplicate in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match="cannot copy or pickle"):
                duplicate(record)


def test_streams_of_different_classes_differ():
    s = Periodic((1,), (0, 1))
    assert SquaresIndicator() != PowersOfTwoIndicator()
    assert ShiftOf(s, 3) != FlipAt(s, 3)
    values = [ShiftOf(s, 3), FlipAt(s, 3), ShiftOf(s, 4), ShiftOf(Periodic((1,), (0, 1)), 3)]
    for a in values:
        for b in values:
            assert (hash(a) == hash(b)) == (a == b), (a, b)


def test_a_declaration_span_is_read_only_and_shown_by_repr():
    (decl,), _ = parse_source("\n  include \"lib.og\";")
    with pytest.raises(AttributeError):
        decl.span = Span(1, 1, 0, 0)
    assert decl.span == Span(2, 3, 3, 10)
    assert repr(decl) == "IncludeDecl(path='lib.og', span=Span(line=2, col=3, start=3, end=10))"
