"""The README's budgets as tested contracts: a file's cost is linear in its
number of declarations, an alias's expansion, a judgment's and a file's
judgments' are bounded, a report stays within a bound of its source, and three
runs, the fixed work of `ogk model` and `ogk check` and the benchmark's
model-sweep operations cost no more Python work than pinned."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import elaborate_text
from ogkernel.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from ogkernel.elaborate import ALIAS_NODES_PER_CHAR, MAX_ALIAS_NODES
from ogkernel.kernel import verify_trace
from ogkernel.surface import MAX_NESTING

ROOT = Path(__file__).resolve().parents[1]

# -- linearity

_PREAMBLE = "assert Set(Two) by axiom H1;\ngenerator G primitive {a, b, c, d};\n"
_EQ_ROWS = ", ".join(
    f"(G.{x}, G.{y}) -> Two.{'yes' if x == y else 'no'}" for x in "abcd" for y in "abcd"
)

# The heaviest declaration of each kind we test, as the text of `n` copies
# after _PREAMBLE; a copy that declares a name takes a fresh one.  In the
# first, each H4 premise is the oldest of about 2n theorems in scope; in the
# second, each lookup fails.
_COPIES = {
    "assert, long scope": lambda n: (
        "assert Gen(P[Two]) by rule gen;\n" * n + "assert SupportsQuant(P[Two]) by rule H4;\n" * n
    ),
    "assert, failed lookups": lambda n: (
        "assert Gen(P[Two]) by rule gen;\n" * n
        + "assert SupportsQuant(P[P[Two]]) by rule H4;\n" * n
    ),
    "assert Eq": lambda n: "assert Eq(Two.yes, Two.no) by rule eq_within;\n" * n,
    "generator": lambda n: "".join(
        f"generator A{i} := P[G * Two] * P[P[Nat]];\n" for i in range(n)
    ),
    "morphism": lambda n: "".join(
        f"morphism m{i} : G * G -> Two := table {{ {_EQ_ROWS} }};\n" for i in range(n)
    ),
    "model check": lambda n: "model check Set(P[Two]) upto 2;\n" * n,
    "limit member": lambda n: 'limit member "shift(pow2,3)" upto 8 8 64;\n' * n,
    "limit demo": lambda n: "limit demo;\n" * (n // 10),  # a tenth as many: each costs more
    "include": lambda n: 'include "lib.og";\n' * n,
}


@pytest.mark.parametrize("kind", _COPIES)
def test_a_file_costs_linear_in_its_declarations(
    kind, tmp_path, line_events, clear_caches, capsys
):
    (tmp_path / "lib.og").write_text("generator L primitive {a, b};\n")
    counts, codes = [], []
    for n in (100, 200):
        path = tmp_path / f"copies_{n}.og"
        path.write_text(_PREAMBLE + _COPIES[kind](n))
        clear_caches()  # as in a fresh process
        counts.append(line_events(lambda: codes.append(main(["check", str(path)]))))
    capsys.readouterr()
    assert set(codes) == {EXIT_CHECK_FAILED if "failed" in kind else EXIT_OK}
    assert counts[1] <= 2.1 * counts[0], counts


# -- alias expansion


def _doubling(k: int) -> str:
    """A_i is A_(i-1) * A_(i-1): 2^(k+1) - 1 nodes once expanded, k levels deep."""
    lines = [f"generator A{i} := A{i - 1} * A{i - 1};" for i in range(1, k + 1)]
    return "\n".join(["generator A0 := Two;", *lines, f"assert Gen(A{k}) by rule gen;"])


def _chain(k: int) -> str:
    """A_i is P[A_(i-1)], k levels deep, each proved to support quantification."""
    lines = [
        f"generator A{i} := P[A{i - 1}];\nassert SupportsQuant(A{i}) by rule H4;"
        for i in range(1, k + 1)
    ]
    return "\n".join(["assert Set(Two) by axiom H1;", "generator A0 := Two;", *lines])


_WITHIN = {"doubling": _doubling(11), "chain": _chain(MAX_NESTING)}
def _refusal(alias: str, size: int, depth: int) -> str:
    return (
        f"alias {alias!r} expands to {size} nodes {depth} levels deep, past "
        f"MAX_ALIAS_NODES = {MAX_ALIAS_NODES} or MAX_NESTING = {MAX_NESTING}"
    )


_PAST = {  # source, line of the first refusal, its message
    "doubling": (_doubling(12), 13, _refusal("A12", 2**13 - 1, 12)),
    "doubling to A20": (_doubling(20), 13, _refusal("A12", 2**13 - 1, 12)),
    "chain": (_chain(MAX_NESTING + 1), 2 * MAX_NESTING + 3, _refusal("A65", 66, 65)),
    "chain of 990": (_chain(990), 2 * MAX_NESTING + 3, _refusal("A65", 66, 65)),
}


def test_the_doubling_bound_is_one_step_past_a11():
    assert 2**12 - 1 <= MAX_ALIAS_NODES < 2**13 - 1


@pytest.mark.parametrize("shape", _WITHIN)
def test_an_alias_at_the_bounds_elaborates_and_replays(shape):
    result = elaborate_text(_WITHIN[shape])
    assert result.diagnostics == ()
    assert all(verify_trace(thm).passed for thm in result.theorems)


@pytest.mark.parametrize("shape", _WITHIN)
def test_an_alias_at_the_bounds_reports_within_its_bound(shape, tmp_path, capsys):
    path = tmp_path / "alias.og"
    path.write_text(_WITHIN[shape])
    assert main(["check", "--format", "json", str(path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and len(out) < 100 * len(_WITHIN[shape]) + 50_000  # doubling: 58,805 bytes


@pytest.mark.parametrize("shape", _PAST)
def test_an_alias_past_a_bound_is_e0102(shape, tmp_path, capsys):
    source, line, message = _PAST[shape]
    first, *rest = elaborate_text(source).diagnostics
    assert (first.code, first.span.line, first.message) == ("E0102", line, message)
    assert {diag.code for diag in rest} <= {"E0004"}  # later lines name the refused alias
    path = tmp_path / "alias.og"
    path.write_text(source)
    assert main(["check", "--format", "json", str(path)]) == EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert err == "" and len(out) < 100 * len(source) + 50_000  # A20 wrote 29 MB


def _alias_products(n: int) -> str:
    """`_doubling(11)`'s aliases, then n assertions about a product of 60 to 62
    factors A11, each nested under MAX_NESTING: a judgment of about 250,000
    nodes once expanded, which a report would write whole."""
    aliases = _doubling(11).rpartition("\n")[0]
    products = (" * ".join(["A11"] * (60 + i % 3)) for i in range(n))
    return "\n".join([aliases, *(f"assert Gen({p}) by rule gen;" for p in products)]) + "\n"


def test_a_judgment_past_the_node_bound_is_e0102():
    first, *rest = elaborate_text(_alias_products(3)).diagnostics
    assert [diag.span.line for diag in (first, *rest)] == [13, 14, 15]  # each assertion
    nodes = 60 * 4095 + 59 + 1  # the factors, the products and Gen
    assert (first.code, first.message) == (
        "E0102", f"judgment expands to {nodes} nodes, past MAX_ALIAS_NODES = {MAX_ALIAS_NODES}"
    )


def _alias_repeats(n: int) -> str:
    """`_doubling(11)`'s aliases, then n assertions that the last, 4,095 nodes
    once expanded, is a generator: each within MAX_ALIAS_NODES alone."""
    aliases = _doubling(11).rpartition("\n")[0]
    return aliases + "\n" + "assert Gen(A11) by rule gen;\n" * n


def test_a_file_past_its_alias_node_budget_is_e0102():
    source = _alias_repeats(64)
    result = elaborate_text(source)
    lines = [diag.span.line for diag in result.diagnostics]
    assert {diag.code for diag in result.diagnostics} == {"E0102"}
    # Lines 13..76 assert.  The first is admitted on MAX_ALIAS_NODES, and each
    # next one once the file before it has grown by 512 characters (4,096 / 8).
    assert sorted(set(range(13, 77)) - set(lines)) == [13, 21, 38, 56, 74]
    second = source.index("assert", source.index("assert") + 1)  # the first refused
    budget = MAX_ALIAS_NODES + ALIAS_NODES_PER_CHAR * second
    assert result.diagnostics[0].message == (
        f"the file's judgments that name an alias expand to 8192 nodes with this one, "
        f"past {budget}: MAX_ALIAS_NODES + {ALIAS_NODES_PER_CHAR} per character before it"
    )


def _check_in_child(source: str, tmp_path) -> tuple[int, int, int]:
    """`ogk check --format json` of `source` in a child process under a 1 GiB
    address-space limit: its exit code, its peak RSS in KiB and its report's size."""
    path, report = tmp_path / "source.og", tmp_path / "report.json"
    path.write_text(source)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "import ogkernel.cli as cli\n"
        f"code = cli.main(['check', '--format', 'json', '--out', {str(report)!r}, {str(path)!r}])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    code, peak_kib = map(int, result.stdout.split())
    return code, peak_kib, report.stat().st_size


def test_alias_products_stay_within_the_report_and_memory_bounds(tmp_path):
    # At 64 assertions the report was 112 MB and the peak RSS 420 MB.
    source = _alias_products(64)
    code, peak_kib, size = _check_in_child(source, tmp_path)
    assert code == EXIT_CHECK_FAILED
    assert size < 100 * len(source) + 50_000
    assert peak_kib < 64 * 1024


def test_alias_repeats_stay_within_the_report_and_memory_bounds(tmp_path):
    # Each assertion admitted alone, this 2,156-byte file wrote 1,876,482 bytes
    # before the file's alias nodes were bounded.
    source = _alias_repeats(64)
    code, peak_kib, size = _check_in_child(source, tmp_path)
    assert code == EXIT_CHECK_FAILED
    assert size < 100 * len(source) + 50_000  # 187,409 bytes
    assert peak_kib < 64 * 1024


# Exact counts of `ogk` runs, from the repository root with every package
# cache empty, as a fresh process makes them: (opcodes, Python calls).  Each
# bound is about 2% above its count when it was set, so a change that adds
# Python work fails here before the benchmark runs; a change that cuts the work
# lowers the bound.  Bytecode differs between CPython versions.
_PINNED_WORK = {
    ("model", "--max-size", "3"): (68_400, 2_520),  # 67,047 and 2,471
    ("check", "tests/corpus/20_full_tower.og"): (52_200, 1_875),  # 51,140 and 1,837
    ("check", "tests/corpus/10_limit_lab.og"): (71_650, 2_655),  # 70,255 and 2,602
}

# The fixed work of a run, counted the same way on a file of one line, read
# from its own directory: the README's budget of `ogk model` (the axiom
# instances and ZFC-1 over the 16 HF sets of rank 3) and `ogk check`'s.
_ONE_LINE = "assert Set(Two) by axiom H1;\n"
_PINNED_ONE_LINE_WORK = {
    ("model", "one_line.og", "--max-size", "3", "--format", "json"): (10_540, 451),  # 10,333, 442
    ("check", "one_line.og", "--format", "json"): (3_690, 118),  # 3,619 and 115
}


def _assert_pinned(argv, bounds, python_opcodes, python_calls, clear_caches):
    opcodes = python_opcodes(lambda: main(list(argv)))
    clear_caches()
    calls = python_calls(lambda: main(list(argv)))
    most_opcodes, most_calls = bounds
    assert opcodes <= most_opcodes and calls <= most_calls, (opcodes, calls)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts pinned on CPython 3.11")
@pytest.mark.parametrize("argv", _PINNED_WORK)
def test_a_run_does_no_more_python_work_than_pinned(
    argv, python_opcodes, python_calls, clear_caches, monkeypatch, capsys
):
    monkeypatch.chdir(ROOT)
    _assert_pinned(argv, _PINNED_WORK[argv], python_opcodes, python_calls, clear_caches)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts pinned on CPython 3.11")
@pytest.mark.parametrize("argv", _PINNED_ONE_LINE_WORK)
def test_the_fixed_work_of_a_run_is_no_more_than_pinned(
    argv, python_opcodes, python_calls, clear_caches, monkeypatch, tmp_path, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one_line.og").write_text(_ONE_LINE)
    bounds = _PINNED_ONE_LINE_WORK[argv]
    _assert_pinned(argv, bounds, python_opcodes, python_calls, clear_caches)


# One operation of the benchmark's model-sweep workload, counted as its
# counting pass counts it: in a fresh process after `import ogkernel.cli`, with
# PYTHONHASHSEED=0, every line event of the Python frames that `cli.main` enters.
_COUNT_LINES = """
import io, sys
import ogkernel.cli as cli

def on_line(frame, event, arg):
    global events
    events += event == "line"
    return on_line

events = 0
out, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()
sys.settrace(lambda frame, event, arg: on_line)
code = cli.main(sys.argv[1:])
sys.settrace(None)
print(code, events, file=out)
"""


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts pinned on CPython 3.11")
def test_a_model_sweep_operation_runs_no_more_line_events_than_pinned(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    workload, report = workloads.WORKLOADS["model-sweep"](), str(tmp_path / "report.json")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    counts = []
    for op in workload.ops:
        argv = [report if arg == workloads.REPORT else arg for arg in workload.argv(op)]
        result = subprocess.run(
            [sys.executable, "-c", _COUNT_LINES, *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        code, events = map(int, result.stdout.split())
        assert code == EXIT_OK, op.name
        counts.append(events)
    assert sum(counts) / len(counts) <= 6_150, counts  # 6,087.2 when it was pinned
