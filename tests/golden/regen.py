"""Regenerate the golden files that `tests/test_golden.py` compares against.

Each case is one `ogk` command line, run in-process through `cli.main`; its
JSON report goes to `<case>.json` and its exit code to `exit_codes.json`.
The elaboration grid (`grid()`) goes to `grid.json`.  Run from anywhere:

    PYTHONPATH=src python tests/golden/regen.py

Regenerate only when a change of report is intended, and say so in the
change log: the golden files are the byte-identity gate for refactors.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent
EXIT_CODES = GOLDEN / "exit_codes.json"
GRID = GOLDEN / "grid.json"

_CHECKED = sorted(p.name for p in (ROOT / "tests" / "corpus").glob("[0-2][0-9]_*.og"))

CASES: dict[str, list[str]] = {
    **{
        f"check_{name[:-3]}": ["check", "--format", "json", f"tests/corpus/{name}"]
        for name in [*_CHECKED, "crossdomain.og"]
    },
    "model_prelude_2": ["model", "--format", "json", "--max-size", "2"],
    "model_prelude_3": ["model", "--format", "json", "--max-size", "3"],
    "model_prelude_4": ["model", "--format", "json", "--max-size", "4"],
    **{
        f"model_{name[:-3]}_3": [
            "model", "--format", "json", "--max-size", "3", f"tests/corpus/{name}"
        ]
        for name in _CHECKED
        if name[:2] in ("04", "05", "06")
    },
}


def run_case(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of `ogk argv`, run from the repository root."""
    from ogkernel.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


# The elaboration grid: each of GRID_GOALS asserted by each of GRID_PROOFS,
# every cell in its own session after the same GRID_CONTEXT.  The proofs are
# every rule spelling, and one unknown rule, with each `from` form, then the
# five axioms: 17 x 16 + 5 = 277 proofs, 5,540 cells.
GRID_CONTEXT = """\
generator G primitive {a, b};
generator A := G * Two;
morphism f : G -> Two := table { G.a -> Two.yes, G.b -> Two.no };
morphism eqg : G * G -> Two := table { (G.a, G.a) -> Two.yes, (G.a, G.b) -> Two.no, \
(G.b, G.a) -> Two.no, (G.b, G.b) -> Two.yes };
morphism u : Nat -> Two := rule indicator_stream["squares"];
assert SupportsQuant(P[Nat]) by rule H4 from H3;
assert BinFn(eqg, G * G) by rule binfn;
assert BinFn(eq_of[Two], Two * Two) by rule mor;
assert Domain(G, eqg) by rule domain_intro;
assert Domain(Two, eq_of[Two]) by rule domain_intro;
assert Coherent(F, "restrictions(squares)") by rule coherent;
"""
GRID_GOALS = [
    "Gen(Two)",
    "Gen(P[A])",
    "Set(Two)",
    "Set(G)",
    "SupportsQuant(Nat)",
    "SupportsQuant(P[Nat])",
    "SupportsQuant(P[P[Nat]])",
    "Mor(f, G, Two)",
    "Mor(table { Two.yes -> G.a, Two.no -> G.b }, Two, G)",
    "Mor(u, Nat, Two)",
    "Mor(eq_of[P[Nat]], P[Nat] * P[Nat], Two)",
    "BinFn(f, G)",
    "BinFn(eq_of[P[Nat]], P[Nat] * P[Nat])",
    "BinFn(table { G.a -> Two.yes, G.b -> Two.no }, G)",
    "Domain(G, eqg)",
    "Domain(G, table { (G.a, G.a) -> Two.yes, (G.a, G.b) -> Two.no, (G.b, G.a) -> Two.no, \
(G.b, G.b) -> Two.yes })",
    "Domain(Two, eq_of[Two])",
    "Obj(limit(F), P[Nat])",
    "Obj(G.a, G)",
    "Coherent(K, \"restrictions(pow2)\")",
]
_GRID_RULES = [
    "gen", "gen_intro", "mor", "mor_intro", "binfn", "bin_fn_from_mor", "domain_intro",
    "set_intro", "H4", "squant_from_powerset", "coherent", "coherent_family", "cla",
    "coherent_limit", "eq_within", "eq_within_domain", "bogus",
]
_GRID_FROMS = [
    "", " from H1", " from axiom H3", " from CLA", " from axiom H2", " from H3, H3",
    " from rule H4 from H3", " from (rule H4 from axiom H3)", " from axiom H1, rule H4 from H3",
    " from rule gen", " from rule mor", " from rule binfn", " from rule set_intro",
    " from rule domain_intro", " from rule cla", " from rule bogus",
]
GRID_PROOFS = [f"rule {rule}{tail}" for rule in _GRID_RULES for tail in _GRID_FROMS] + [
    "axiom H1", "axiom H2", "H3", "axiom H4", "CLA",
]


def grid() -> dict:
    """The proofs, and for each goal the proofs (by their index in GRID_PROOFS)
    that give each record: the diagnostic's code, line and message, or the
    derived judgment with its axiom multiset and trace size."""
    from ogkernel.elaborate import elaborate_files
    from ogkernel.kernel import axioms_used, trace_nodes
    from ogkernel.surface import parse_source
    from ogkernel.terms import render

    context, diagnostics = parse_source(GRID_CONTEXT)
    assert not diagnostics, diagnostics
    blank = "\n" * GRID_CONTEXT.count("\n")  # each cell's assert is on the line after the context
    cells: dict[str, dict[str, list[int]]] = {}
    for goal in GRID_GOALS:
        records = cells[goal] = {}
        for i, proof in enumerate(GRID_PROOFS):
            decls, diagnostics = parse_source(f"{blank}assert {goal} by {proof};")
            if not diagnostics:
                result = elaborate_files([("grid.og", context + decls)])
                diagnostics = result.diagnostics
            if diagnostics:
                (diag,) = diagnostics
                record = f"{diag.code} {diag.span.line}: {diag.message}"
            else:
                thm = result.theorems[-1]
                axioms = ",".join(sorted(axioms_used(thm).elements()))
                record = f"{render(thm.judgment)} | {axioms} | {len(trace_nodes(thm))}"
            records.setdefault(record, []).append(i)
    return {"proofs": GRID_PROOFS, "cells": cells}


def main() -> None:
    codes = {}
    for case, argv in CASES.items():
        code, stdout = run_case(argv)
        (GOLDEN / f"{case}.json").write_text(stdout, encoding="utf-8")
        codes[case] = code
        print(f"{case}: exit {code}, {len(stdout)} bytes")
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    GRID.write_text(json.dumps(grid(), indent=1) + "\n", encoding="utf-8")
    print(f"grid: {len(GRID_GOALS)} goals x {len(GRID_PROOFS)} proofs")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
