"""Class tables: each dispatch table of the package has a row for exactly the
classes it dispatches on, so a new term, judgment or declaration class without
a row fails here, not in a user's run."""

from __future__ import annotations

from ogkernel import elaborate, semantics, terms
from ogkernel.surface import Decl, Malformed
from ogkernel.terms import (
    SIGNATURES,
    BuiltinRule,
    EqQuery,
    FnExpr,
    GenExpr,
    Judgment,
    LimitRef,
    Nat,
    ObjLit,
    Product,
    Table,
    Term,
    Two,
)


def _leaves(base: type) -> set[type]:
    """The classes below `base` that no class derives from."""
    below = set(base.__subclasses__())
    return {cls for cls in below if not cls.__subclasses__()} | set().union(
        *(_leaves(cls) for cls in below)
    )


GEN_EXPRS = _leaves(GenExpr)
FN_EXPRS = _leaves(FnExpr)
JUDGMENTS = _leaves(Judgment)


def test_the_class_families_are_the_ones_the_grammar_names():
    assert {cls.__name__ for cls in GEN_EXPRS} == {"Two", "Nat", "Named", "Product", "Powerset"}
    assert FN_EXPRS == {BuiltinRule, Table, terms.MorphismRef}
    assert JUDGMENTS == SIGNATURES.keys() - {EqQuery}


def test_render_has_a_row_for_every_class_the_surface_writes():
    assert terms._RENDERERS.keys() == {*GEN_EXPRS, *FN_EXPRS, *SIGNATURES, ObjLit, LimitRef}


def test_term_names_walks_by_row_only_what_its_fields_do_not_say():
    # Two and Nat have no fields, a Named's name is an Ident, a Powerset's
    # names and an ObjLit's are those of one field, and a table reads its
    # literals' carriers; every other class is walked field by field.
    assert terms._NAMES.keys() == GEN_EXPRS - {Product} | {ObjLit, Table}


def test_interpret_has_a_row_for_every_generator_expression():
    assert semantics._CARRIERS.keys() == GEN_EXPRS


def test_the_oracle_has_a_verifier_for_every_judgment_form():
    assert semantics._VERIFIERS.keys() == JUDGMENTS


def test_scope_has_a_row_for_every_class_that_can_name_something():
    # Two, Nat, families, streams and bounds name nothing; a plain tuple is a
    # table's rows or a builtin's arguments.
    named = {*GEN_EXPRS - {Two, Nat}, *FN_EXPRS, *SIGNATURES, ObjLit, LimitRef, Malformed, tuple}
    assert elaborate._SCOPERS.keys() == named


def test_elaboration_has_a_runner_for_every_declaration():
    assert elaborate._RUNNERS.keys() == set(Decl.__args__)


def test_every_table_key_is_a_term_class_or_a_plain_tuple():
    tables = (terms._RENDERERS, terms._NAMES, semantics._CARRIERS, semantics._VERIFIERS,
              elaborate._SCOPERS, elaborate._RUNNERS)
    for table in tables:
        assert all(key is tuple or issubclass(key, Term) for key in table)
