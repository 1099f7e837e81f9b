"""Golden reports: `check` and `model` JSON and exit codes, byte for byte,
and the elaboration grid.

The expected files are produced by `tests/golden/regen.py`; a refactor that
claims to keep behaviour must leave every one of them unchanged.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

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
