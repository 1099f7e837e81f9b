"""Reach or delete: every function of `src/ogkernel` is entered by an `ogk`
command line, or the allow-list below says why it stays.

Run as a script, this file makes the pass in an interpreter of its own. It
installs a `sys.setprofile` hook before it imports the package, so that a
function run only at import (`Term.__init_subclass__`) counts as reached. It
runs the CLI pass in-process through `cli.main`, then each demo script, and
prints as JSON the functions that each entered. A function is keyed by its
module and its `co_qualname`. Comprehensions are left out, and the lambdas of
one scope share a key.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ogkernel"
CORPUS = ROOT / "tests" / "corpus"

# Each function that the CLI pass does not reach, with why it stays:
# - ("readme", note): public API that README.md names;
# - ("demo", note): a script in demos/ reaches it;
# - ("bench", item): a name that bench/ pins, which waits for that ROADMAP item;
# - ("test", "file::test"): a reference or failure path that this test drives.
ALLOWED: dict[str, tuple[str, str]] = {
    "cli.Report.to_dict": ("readme", "the layout that Report.to_json writes"),
    "elaborate._refuse": (
        "test", "tests/test_elaborate.py::test_each_refusal_names_its_rule_and_goal"
    ),
    "hf.Zfc1Report.total_instances": ("bench", "item 0"),
    "hf.render_hf": ("test", "tests/test_hf.py::test_repeated_code_fails_extensionality"),
    "kernel.Theorem.__repr__": ("demo", "building_the_sets prints a theorem"),
    "kernel.Theorem.node": ("bench", "item 0"),
    "kernel._choice_judgment": ("demo", "building_the_sets applies H2, which item 5 brings to .og"),
    "kernel.axioms_used": ("readme", "the axiom multiset of a theorem"),
    "kernel.leaf_kinds": ("demo", "building_the_sets lists the leaves of Set(Nat)"),
    # The package reads `Carrier.size`; bench/probes.py's span mode still counts
    # carrier objects with `len(carrier)`.
    "semantics.Carrier.__len__": (
        "test", "tests/test_records.py::test_hashed_records_are_immutable_values"
    ),
    "semantics.Carrier.tag": ("demo", "model_checking writes a detector out through interpret_fn"),
    "semantics.interpret_fn": ("demo", "model_checking writes a detector out"),
    "streams.FiniteSupport.value_at": ("test", "tests/test_streams.py::test_prefix_matches_value_at"),
    "streams.FlipAt.value_at": ("test", "tests/test_streams.py::test_prefix_matches_value_at"),
    "streams.Periodic.value_at": ("test", "tests/test_streams.py::test_prefix_matches_value_at"),
    "streams.PowersOfTwoIndicator.value_at": (
        "test", "tests/test_streams.py::test_prefix_matches_value_at"
    ),
    "streams.ShiftOf.value_at": ("test", "tests/test_streams.py::test_prefix_matches_value_at"),
    "streams.XorOf.value_at": ("test", "tests/test_streams.py::test_prefix_matches_value_at"),
    "terms.Term.__reduce_ex__": (
        "test", "tests/test_records.py::test_copying_or_pickling_any_record_is_refused"
    ),
    "terms.Term.__repr__": (
        "test", "tests/test_records.py::test_terms_of_different_classes_or_fields_differ"
    ),
    "terms.Term.__setattr__": (
        "test", "tests/test_records.py::test_hashed_records_are_immutable_values"
    ),
}

_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _cli_pass(run) -> None:
    """The `ogk` command lines of the pass, each given to `run` as its argv."""
    for path in sorted(CORPUS.glob("*.og")):
        run(["check", str(path)])
        run(["check", "--format", "json", str(path)])
    for size in ("2", "3", "4"):
        run(["model", "--max-size", size])
    for name in ("04_primitive_generators", "05_products", "06_morphism_tables"):
        run(["model", "--max-size", "3", str(CORPUS / f"{name}.og")])
    for argv in (["limits", "--demo"], ["limits", "squares"], ["axioms"], ["--help"], ["--version"]):
        run(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run(["axioms", "--timings", os.path.join(tmp, "timings.json")])


def _reached() -> dict[str, list[str]]:
    """The functions of the package that the CLI pass enters, then those
    that the demos enter; run in an interpreter that has not imported it."""
    reached: set[str] = set()
    prefix = str(PACKAGE) + os.sep

    def on_event(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            module = frame.f_globals["__name__"].rpartition(".")[2]
            reached.add(f"{module}.{frame.f_code.co_qualname}")

    sys.path.insert(0, str(PACKAGE.parent))
    sys.setprofile(on_event)
    from ogkernel.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        _cli_pass(main)
        by_cli = sorted(reached)
        reached.clear()
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    sys.setprofile(None)
    return {"cli": by_cli, "demos": sorted(reached)}


@functools.cache
def _reach() -> dict[str, set[str]]:
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, timeout=60, check=True
    )
    return {name: set(keys) for name, keys in json.loads(proc.stdout).items()}


def _functions() -> set[str]:
    """Every function and method the package defines, comprehensions left out."""
    keys = set()
    for path in PACKAGE.glob("*.py"):
        todo = [compile(path.read_text("utf-8"), str(path), "exec")]
        while todo:
            for const in todo.pop().co_consts:
                if isinstance(const, types.CodeType):
                    todo.append(const)
                    if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in _COMPREHENSIONS:
                        keys.add(f"{path.stem}.{const.co_qualname}")
    return keys


def test_every_function_is_reached_or_allow_listed():
    unreached = _functions() - _reach()["cli"]
    assert sorted(unreached - ALLOWED.keys()) == []  # reach each one from the corpus, or delete it
    assert sorted(ALLOWED.keys() - unreached) == []  # reached now, or gone: take it off the list


def test_every_allow_list_reason_holds():
    readme = (ROOT / "README.md").read_text("utf-8")
    bench = "".join(path.read_text("utf-8") for path in (ROOT / "bench").glob("*.py"))
    for key, (kind, detail) in ALLOWED.items():
        name = key.rpartition(".")[2]
        if kind == "readme":
            assert re.search(rf"\b{name}\b", readme), key
        elif kind == "demo":
            assert key in _reach()["demos"], key
        elif kind == "bench":
            assert re.search(rf"\b{name}\b", bench) and detail in ("item 0", "item 17"), key
        else:
            assert kind == "test", key
            path, test = detail.split("::")
            assert f"\ndef {test}(" in (ROOT / path).read_text("utf-8"), key


if __name__ == "__main__":
    print(json.dumps(_reached()))
