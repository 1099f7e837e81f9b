"""The README's budgets as tested contracts: a file's cost is linear in its
number of declarations, an alias's expansion is bounded, and two runs do no
more Python work than pinned."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from conftest import elaborate_text
from ogkernel.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from ogkernel.elaborate import MAX_ALIAS_NODES
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


# Exact counts of two `ogk` runs, from the repository root with every package
# cache empty, as a fresh process makes them: (opcodes, Python calls).  Each
# bound is about 2% above its count when it was set, so a change that adds
# Python work fails here before the benchmark runs; a change that cuts the work
# lowers the bound.  Bytecode differs between CPython versions.
_PINNED_WORK = {
    ("model", "--max-size", "3"): (91_300, 2_680),  # 89,767 and 2,621
    ("check", "tests/corpus/20_full_tower.og"): (72_300, 2_040),  # 71,139 and 1,990
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts pinned on CPython 3.11")
@pytest.mark.parametrize("argv", _PINNED_WORK)
def test_a_run_does_no_more_python_work_than_pinned(
    argv, python_opcodes, python_calls, clear_caches, monkeypatch, capsys
):
    monkeypatch.chdir(ROOT)
    opcodes = python_opcodes(lambda: main(list(argv)))
    clear_caches()
    calls = python_calls(lambda: main(list(argv)))
    most_opcodes, most_calls = _PINNED_WORK[argv]
    assert opcodes <= most_opcodes and calls <= most_calls, (opcodes, calls)
