"""Regenerate the golden reports that `tests/test_golden.py` compares against.

Each case is one `ogk` command line, run in-process through `cli.main`; its
JSON report goes to `<case>.json` and its exit code to `exit_codes.json`.
Run from anywhere:

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


def main() -> None:
    codes = {}
    for case, argv in CASES.items():
        code, stdout = run_case(argv)
        (GOLDEN / f"{case}.json").write_text(stdout, encoding="utf-8")
        codes[case] = code
        print(f"{case}: exit {code}, {len(stdout)} bytes")
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
