"""Golden reports: `check` and `model` JSON and exit codes, byte for byte,
and the elaboration grid.

The expected files are produced by `tests/golden/regen.py`; a refactor that
claims to keep behaviour must leave every one of them unchanged.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

from ogkernel.elaborate import elaborate_files
from ogkernel.semantics import FAILS, soundness_sweep
from ogkernel.surface import parse_source
from ogkernel.terms import render

_REGEN = Path(__file__).parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

EXIT_CODES = json.loads(regen.EXIT_CODES.read_text("utf-8"))


def test_every_case_has_a_golden_file():
    assert set(EXIT_CODES) == set(regen.CASES)
    for case in regen.CASES:
        assert (regen.GOLDEN / f"{case}.json").exists(), case


@pytest.mark.parametrize("case", sorted(regen.CASES))
def test_golden_report(case):
    code, stdout = regen.run_case(regen.CASES[case])
    expected = (regen.GOLDEN / f"{case}.json").read_text("utf-8")
    assert stdout == expected
    assert code == EXIT_CODES[case]


def test_elaboration_grid():
    """Every cell of the elaboration grid gives its recorded diagnostic or
    theorem: a refactor of the surface or of elaboration changes none."""
    expected = json.loads(regen.GRID.read_text("utf-8"))
    assert regen.grid() == expected


def test_the_oracle_judges_every_theorem_of_the_grid():
    """Every distinct judgment that a grid cell derives, its context's
    included, swept at size 2.  Only the cells that `grid.json` records as
    theorems are elaborated."""
    context, _ = parse_source(regen.GRID_CONTEXT)
    blank = "\n" * regen.GRID_CONTEXT.count("\n")
    judgments = {}
    for goal, records in json.loads(regen.GRID.read_text("utf-8"))["cells"].items():
        for record, proofs in records.items():
            if re.match(r"E\d{4} ", record):  # a diagnostic
                continue
            for i in proofs:
                decls, _ = parse_source(f"{blank}assert {goal} by {regen.GRID_PROOFS[i]};")
                result = elaborate_files([("grid.og", context + decls)])
                assert record.startswith(f"{render(result.judgments[-1])} | "), (goal, i)
                judgments.update(dict.fromkeys(result.judgments))  # the context's too
    sweep = soundness_sweep(list(judgments), 2)
    failing = {
        render(item.judgment)
        for item in sweep.items
        if any(verdict.status == FAILS for verdict in item.verdicts)
    }
    assert (len(judgments), sweep.checked, sweep.not_checkable) == (22, 38, 5)
    # A false FAIL (ROADMAP item 11): the oracle gives G the carrier {a} as
    # well as {a, b}, whatever tags G declares, and this table has a row
    # value outside {a}.  When item 11 lands, the failing set becomes empty.
    assert failing == {"Mor(table { Two.yes -> G.a, Two.no -> G.b }, Two, G)"}
