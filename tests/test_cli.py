"""CLI: exit codes, report schema, determinism."""

from __future__ import annotations

import enum
import itertools
import json
import json.encoder
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import elaborate_text
from ogkernel import __version__, cli, kernel
from ogkernel.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    Report,
    RunConfig,
    UsageError,
    emit_report,
    main,
    run,
)
from ogkernel.elaborate import ElabResult, Item, elaborate_files
from ogkernel.kernel import trace_set
from ogkernel.surface import MAX_NESTING, parse_source
from ogkernel.terms import (
    BUILTIN_RULES,
    NAT,
    TWO,
    BuiltinRule,
    IsBinFn,
    IsMor,
    ObjLit,
    Product,
    SupportsQuant,
    Table,
    render,
)

CORPUS = Path(__file__).parent / "corpus"
PRELUDE = Path(__file__).parents[1] / "src" / "ogkernel" / "prelude.og"


def test_check_prelude_passes():
    code, report = run(RunConfig("check", (str(PRELUDE),)))
    assert code == EXIT_OK
    assert report.summary["fail"] == 0
    names = [i.name for i in report.items]
    assert "Set(P[P[Nat]])" in names


def test_check_missing_file_is_usage_error():
    with pytest.raises(UsageError):
        run(RunConfig("check", ("does_not_exist.og",)))
    assert main(["check", "does_not_exist.og"]) == EXIT_USAGE


def test_check_cross_domain_file_exits_1(capsys):
    exit_code = main(["check", str(CORPUS / "crossdomain.og")])
    out = capsys.readouterr().out
    assert exit_code == EXIT_CHECK_FAILED
    assert "E0101" in out


def test_a_limit_tag_names_its_family_in_any_spelling(tmp_path, capsys):
    # A family is a term, so a descriptor spelled with blanks is the family
    # that a quoted limit tag names.
    path = tmp_path / "limit.og"
    path.write_text(
        'assert Coherent(F, "restrictions( squares )") by rule coherent;\n'
        'assert Obj(P[Nat]."limit(restrictions(squares))", P[Nat]) by rule cla;\n'
    )
    assert main(["check", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == [
        'PASS     Coherent(F, "restrictions(squares)") | no axioms',
        'PASS     Obj(P[Nat]."limit(restrictions(squares))", P[Nat]) | axioms: CLA',
    ]


def test_check_refusals_exit_1(tmp_path, capsys):
    cases = {
        "corrupt.og": (
            'assert Coherent(F, "corrupt(squares,100,3)") by rule coherent;\n'
            "assert Obj(limit(F), P[Nat]) by rule cla;\n",
            "E0102 at 1:1 | family is not coherent: family stage 100 disagrees at index 3",
        ),
        "negative.og": (
            'assert Coherent(F, "corrupt(squares,3,-1)") by rule coherent;\n',
            "E0102 at 1:1 | corrupt(...) stage and index must be nonnegative",
        ),
        "union.og": (
            'morphism u : Nat -> Two := rule union_of_family["corrupt(squares,5,3)"];\n'
            "assert Mor(u, Nat, Two) by rule mor;\n",
            "E0102 at 1:1 | union_of_family needs a coherent family",
        ),
        "duplicate_row.og": (
            "morphism e : Two -> Two := table "
            "{ Two.yes -> Two.no, Two.yes -> Two.yes, Two.no -> Two.no };\n"
            "assert Mor(e, Two, Two) by rule mor;\n",
            "E0102 at 1:1 | duplicate table row for 'yes'",
        ),
    }
    for name, (source, expected) in cases.items():
        path = tmp_path / name
        path.write_text(source)
        assert main(["check", str(path)]) == EXIT_CHECK_FAILED, name
        assert expected in capsys.readouterr().out, name


def test_builtin_equality_on_a_deep_tower_rests_on_its_premises(capsys):
    # P[P[P[Two]]] has 2^16 objects; no pair of them is enumerated.
    path = Path(__file__).parents[1] / "bench" / "inputs" / "deep_tower.og"
    started = time.perf_counter()
    assert main(["check", str(path)]) == EXIT_OK
    assert time.perf_counter() - started < 1.0
    out = capsys.readouterr().out
    assert "Domain(P[P[P[Two]]], eq_of[P[P[P[Two]]]]) | axioms: H1, H4, H4" in out
    assert "summary: 13 pass, 0 fail" in out


# The two finite tables on Nat that the kernel once certified as total.
_NAT_TABLES = {
    "Nat": "table { Nat.0 -> Two.yes, Nat.1 -> Two.no }",
    "Nat * Nat": "table { (Nat.0, Nat.0) -> Two.yes, (Nat.0, Nat.1) -> Two.no, "
    "(Nat.1, Nat.0) -> Two.no, (Nat.1, Nat.1) -> Two.yes }",
}


@pytest.mark.parametrize("domain", sorted(_NAT_TABLES))
def test_a_finite_table_on_nat_is_refused_and_fails_in_the_oracle(domain, tmp_path, capsys):
    table = _NAT_TABLES[domain]
    path = tmp_path / "nat_table.og"
    path.write_text(
        f"morphism g : {domain} -> Two := {table};\n"
        f"assert Mor(g, {domain}, Two) by rule mor;\n"
        f"assert BinFn(g, {domain}) by rule binfn;\n"
    )
    refusal = (
        f"E0102 at 1:1 | a table's domain must be a finite carrier known whole, "
        f"and {domain} is not: it mentions Nat, which is infinite"
    )
    for command in ("check", "model"):
        assert main([command, str(path)]) == EXIT_CHECK_FAILED, command
        out = capsys.readouterr().out
        assert refusal in out and "PASS     Mor(" not in out, command
    # the oracle fails the judgment in every model, naming a numeral with no row
    path.write_text(f"model check Mor({table}, {domain}, Two) upto 3;\n")
    assert main(["model", str(path)]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "| fails in 3/3 models [witness: {'missing': '2', 'model': 'model(nat<=:0)'}]" in out


@pytest.mark.parametrize(
    "argv, source, code, message",
    [
        (
            ["check"],
            'assert Obj(Two."", Two) by rule cla;\n',
            EXIT_USAGE,
            "1:16: error[E0002]: an object tag must be nonempty",
        ),
        (
            ["check"],
            "generator G primitive {a, a};\n",
            EXIT_CHECK_FAILED,
            "E0102 at 1:1 | generator 'G' lists the tag 'a' twice",
        ),
        (
            ["check"],
            'limit member "squares" upto 99999999 99999999 999999999;\n',
            EXIT_CHECK_FAILED,
            "E0102 at 1:1 | period bound 99999999 above the maximum 1024",
        ),
        (
            ["limits", "--demo", "--horizon", "10"],
            None,
            EXIT_USAGE,
            "error: horizon 10 below preperiod_bound + 2*period_bound = 192",
        ),
        (
            ["limits", "squares", "--horizon", "70000"],
            None,
            EXIT_USAGE,
            "error: horizon 70000 above the maximum 65536",
        ),
        (
            ["limits", "pow2", "--preperiod-bound", "-100", "--period-bound", "1"]
            + ["--horizon", "-50"],
            None,
            EXIT_USAGE,
            "error: preperiod bound must be nonnegative",
        ),
        (
            ["check"],
            'assert Mor("x", Two, Two) by rule mor;\n',
            EXIT_CHECK_FAILED,
            'E0102 at 1:1 | expected a function argument, got "x"',
        ),
        (
            ["check"],
            "assert Mor(limit(F), Two, Two) by rule mor;\n",
            EXIT_CHECK_FAILED,
            "E0102 at 1:1 | expected a function argument, got limit(F)",
        ),
        *(
            (["model", "--max-size", size], None, EXIT_USAGE, f"must lie in 1..4, found {size}")
            for size in ("0", "-1", "5")
        ),
        (
            ["limits", "shift(pow2,100000000000)", "--horizon", "3"]
            + ["--preperiod-bound", "1", "--period-bound", "1"],
            None,
            EXIT_USAGE,
            "error: shift offset 100000000000 above the maximum 65536",
        ),
        (
            ["check"],
            'limit member "shift(squares,100000000000)" upto 1 1 3;\n',
            EXIT_CHECK_FAILED,
            "E0102 at 1:1 | shift offset 100000000000 above the maximum 65536",
        ),
        (
            ["check"],
            "generator G primitive;\nmorphism f : G -> Two := table { G.a -> Two.yes };\n",
            EXIT_CHECK_FAILED,
            "E0102 at 2:1 | a table's domain must be a finite carrier known whole, "
            "and G is not: generator 'G' declares no tags",
        ),
        (
            ["check"],
            "morphism n : Two -> Nat := table { Two.yes -> Nat.0, Two.no -> Nat.1 };\n",
            EXIT_CHECK_FAILED,
            "E0102 at 1:1 | a table's codomain must be a finite carrier known whole, "
            "and Nat is not: it mentions Nat, which is infinite",
        ),
    ],
)
def test_refusals_end_quickly_with_their_exit_code(argv, source, code, message, tmp_path, capsys):
    if source is not None:
        path = tmp_path / "input.og"
        path.write_text(source)
        argv = [*argv, str(path)]
    started = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert "internal error" not in captured.err


def test_a_model_check_past_the_model_budget_ends_at_once(tmp_path):
    # Ten untagged generators at size 4 have 4**10 models: the sweep counts
    # them and skips the item, where building them took seconds and gigabytes.
    names = [f"G{i}" for i in range(10)]
    path = tmp_path / "generators.og"
    path.write_text(
        "".join(f"generator {name} primitive;\n" for name in names)
        + f"model check Gen({' * '.join(names)}) upto 4;\n"
    )
    script = (
        "import resource, sys\n"
        "import ogkernel.cli as cli\n"
        "status = open('/proc/self/status').read().split('VmSize:')[1]\n"
        "memory = int(status.split()[0]) * 1024 + 256 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (memory, memory))\n"
        "resource.setrlimit(resource.RLIMIT_CPU, (2, 3))\n"
        f"sys.exit(cli.main(['check', {str(path)!r}]))\n"
    )
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=10
    )
    assert time.perf_counter() - started < 2.0
    assert result.returncode in (EXIT_OK, EXIT_CHECK_FAILED), result.stderr
    assert "1048576 models at size 4, more than 1024" in result.stdout


def test_an_include_diamond_runs_each_file_once(tmp_path):
    # Each f{i} includes f{i+1} twice: run at every include, f0 gave 2**19 items.
    for i in range(19):
        (tmp_path / f"f{i}.og").write_text(f'include "f{i + 1}.og";\n' * 2)
    (tmp_path / "f19.og").write_text("assert Set(Two) by axiom H1;\n")
    script = (
        "import resource, sys\n"
        "import ogkernel.cli as cli\n"
        "status = open('/proc/self/status').read().split('VmSize:')[1]\n"
        "memory = int(status.split()[0]) * 1024 + 256 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (memory, memory))\n"
        "resource.setrlimit(resource.RLIMIT_CPU, (2, 3))\n"
        f"sys.exit(cli.main(['check', {str(tmp_path / 'f0.og')!r}]))\n"
    )
    started = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=10
    )
    assert time.perf_counter() - started < 2.0
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stdout.endswith("summary: 2 pass, 0 fail, 0 assumed\n")


@pytest.mark.parametrize(
    "files, lines",
    [
        # a -> b -> a: the cycle is found at b's include line.
        ({"a.og": 'include "b.og";\n', "b.og": 'include "a.og";\n'},
         ["FAIL     E0005 at 1:1 | b.og: circular include of 'a.og'"]),
        # A syntax error in c.og, whose include is the root file's only line.
        ({"a.og": 'include "c.og";\n', "c.og": "assert Set(Two) by axiom H1;\n\nassert Set(Two\n"},
         ["FAIL     E0003 at 4:1 | c.og: unclosed bracket: expected ')', found end of file",
          "FAIL     E0005 at 1:1 | included file 'c.og' has syntax errors"]),
        # A file with a syntax error, included twice, runs and is reported once.
        ({"a.og": 'include "c.og";\ninclude "c.og";\n', "c.og": "assert Gen((G);\n"},
         ["FAIL     E0003 at 1:15 | c.og: unclosed bracket: expected ')', found ';'",
          "FAIL     E0005 at 1:1 | included file 'c.og' has syntax errors"]),
        # An elaboration error two includes down names both, outermost first.
        ({"a.og": 'assert Set(Two) by axiom H1;\ninclude "sub/b.og";\n',
          "sub/b.og": 'include "c.og";\n', "sub/c.og": "\nassert Gen(G) by rule gen;\n"},
         ["PASS     Set(Two) | axioms: H1, H1",
          "FAIL     E0004 at 2:1 | sub/b.og: c.og: unknown generator 'G'",
          "PASS     trace Set(Two) | 3 nodes replayed"]),
    ],
)
def test_a_diagnostic_in_an_included_file_names_the_file(files, lines, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    assert main(["check", str(tmp_path / "a.og")]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out.splitlines()[:-1] == lines


def test_deeply_nested_stream_spec_is_refused(tmp_path, capsys):
    nested = "shift(" * 500 + "squares" + ",1)" * 500
    path = tmp_path / "nested.og"
    path.write_text(f'limit member "{nested}" upto 1 1 3;\n')
    message = "stream spec has 500 combinators, above the maximum 32"
    assert main(["limits", nested]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["check", str(path)]) == EXIT_CHECK_FAILED
    assert f"E0102 at 1:1 | {message}" in capsys.readouterr().out


# An argument of each catalogued kind, and one of another kind.
_ARG_OF_KIND = {
    "generator expression": "Nat", "stream": '"squares"', "family": '"restrictions(squares)"',
    "natural number": "5",
}
_ARG_NOT_OF_KIND = {"generator expression": "5", "stream": "Nat", "family": "Nat", "natural number": "Nat"}


def _malformed_builtins():
    """Every catalog rule with no arguments, one argument too many, and each
    argument of the wrong kind, as a morphism body and a judgment argument."""
    for rule, kinds in BUILTIN_RULES.items():
        args = [_ARG_OF_KIND[kind] for kind in kinds]
        wrong = [
            args[:i] + [_ARG_NOT_OF_KIND[kind]] + args[i + 1 :] for i, kind in enumerate(kinds)
        ]
        for bad in [[], args + args[-1:], *wrong]:
            former = f"{rule}[{', '.join(bad)}]"
            yield f"morphism m : Nat -> Two := rule {former if bad else rule};"
            yield f"assert Mor({former}, Nat, Two) by rule mor;"


@pytest.mark.parametrize("source", list(_malformed_builtins()))
def test_malformed_builtin_is_a_syntax_error(source, tmp_path, capsys):
    path = tmp_path / "former.og"
    path.write_text(source + "\n")
    assert main(["check", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error[E0002]: builtin " in err and "internal error" not in err


def test_internal_error_names_the_exception(monkeypatch, capsys):
    def out_of_memory(config, timings):
        raise MemoryError()

    monkeypatch.setattr(cli, "_run_axioms", out_of_memory)
    assert main(["axioms"]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: MemoryError()\n"


def test_check_syntax_errors_exit_2(capsys):
    exit_code = main(["check", str(CORPUS / "err5.og")])
    captured = capsys.readouterr()
    assert exit_code == EXIT_USAGE
    assert captured.err.count("error[") == 5


def test_report_json_round_trip():
    report = Report(
        __version__,
        "check",
        (
            Item("Set(Two)", "pass", "axioms: H1"),
            Item("broken", "fail", "boom", {"model": "model()"}),
            Item("H3", "assumed", "truncated"),
        ),
    )
    data = json.loads(report.to_json())
    assert data == report.to_dict()
    assert data["summary"] == {"pass": 1, "fail": 1, "assumed": 1}
    assert set(data) == {"version", "command", "items", "summary"}


# Strings that the encoder escapes: quotes, backslashes, control characters,
# non-ASCII and astral characters, U+2028 and a lone surrogate.
_REPORT_TEXT = st.text(st.sampled_from('"\\\x00\n\x1f\x7f\u2028\u00e9\ud800\U0001f600') | st.characters())
_REPORT_ITEMS = st.lists(
    st.builds(
        Item,
        _REPORT_TEXT,
        st.sampled_from(["pass", "fail", "assumed", "skipped"]) | _REPORT_TEXT,
        _REPORT_TEXT,
        st.none() | st.dictionaries(_REPORT_TEXT, _REPORT_TEXT, max_size=4),
    ),
    max_size=5,
)


@given(items=_REPORT_ITEMS, command=_REPORT_TEXT)
@example(items=[], command="check")
@example(items=[Item("a", "pass"), Item("b", "fail", "", {})], command="model")
@example(items=[Item("c", "fail", "d", {"model": "model(G:2)", "at": "(a,b)"})], command="model")
def test_to_json_writes_what_json_dumps_writes(items, command):
    report = Report(__version__, command, tuple(items))
    assert report.to_json() == json.dumps(report.to_dict(), indent=2) + "\n"


def test_empty_report_shape():
    report = Report(__version__, "axioms", ())
    data = json.loads(report.to_json())
    assert data["items"] == []
    assert data["summary"] == {"pass": 0, "fail": 0, "assumed": 0}


def test_json_byte_determinism():
    config = RunConfig("check", (str(PRELUDE),), format="json")
    _, first = run(config)
    _, second = run(config)
    assert first.to_json() == second.to_json()
    config = RunConfig("limits", (), demo=True, format="json")
    _, first = run(config)
    _, second = run(config)
    assert first.to_json() == second.to_json()


def test_exit_code_law():
    code, report = run(RunConfig("check", (str(CORPUS / "crossdomain.og"),)))
    assert report.summary["fail"] > 0 and code == EXIT_CHECK_FAILED
    code, report = run(RunConfig("check", (str(CORPUS / "01_two_basics.og"),)))
    assert report.summary["fail"] == 0 and code == EXIT_OK


def test_model_reports_h3_assumed():
    code, report = run(RunConfig("model", ()))
    assert code == EXIT_OK
    h3 = [i for i in report.items if i.name == "axiom H3"]
    assert h3 and h3[0].status == "assumed"
    assert "truncated" in h3[0].detail
    assert report.summary["assumed"] >= 1


def test_the_coherence_scan_bound_ignores_the_stream_arguments(tmp_path):
    # Only a corrupted family's stage and index set the scan's last stage;
    # the shift and flip arguments of its stream do not.
    path = tmp_path / "families.og"
    path.write_text(
        'assert Coherent(F, "restrictions(shift(squares,2000))") by rule coherent;\n'
        'assert Coherent(G, "corrupt(flip(squares,1500),3,7)") by rule coherent;\n'
    )
    code, report = run(RunConfig("model", (str(path),), max_size=1))
    assert code == EXIT_OK
    sweep = {i.name: i.detail for i in report.items if i.name.startswith("soundness")}
    assert list(sweep.values()) == ["holds in 1/1 models"] * 2


def test_model_includes_zfc1_and_sweep():
    code, report = run(RunConfig("model", (), max_size=2))
    assert code == EXIT_OK
    names = [i.name for i in report.items]
    assert any(n.startswith("zfc1 pairing") for n in names)
    assert any(n.startswith("soundness Set(P[P[Nat]])") for n in names)


def _nat_table(cod, *rows):
    """`Mor(table {...}, Two, cod)`, each row a value tag and its carrier."""
    keys = (ObjLit("yes", TWO), ObjLit("no", TWO))
    values = tuple(ObjLit(tag, of) for tag, of in rows)
    return IsMor(Table(TWO, cod, tuple(zip(keys, values))), TWO, cod)


@pytest.mark.parametrize(
    "judgment, bound, status, detail",
    [
        (IsBinFn(BuiltinRule("eq_of", (NAT,)), Product(NAT, NAT)), 3, "pass",
         "holds in 3/3 models"),
        (_nat_table(NAT, ("1", NAT), ("0", NAT)), 3, "pass",
         "holds in 2/3 models (rest not finitely checkable)"),
        (_nat_table(NAT, ("5", NAT), ("0", NAT)), 3, "skipped",
         "not finitely checkable at this bound: value '5' mentions a numeral past the "
         "truncation bound 0"),
        (_nat_table(TWO, ("yes", TWO), ("0", NAT)), 2, "fail", "fails in 2/2 models"),
    ],
)
def test_model_check_and_the_model_sweep_word_a_judgment_alike(
    judgment, bound, status, detail, monkeypatch, tmp_path
):
    # `model check J upto n` in a file, and the `soundness J` item that
    # `ogk model --max-size n` gives a session that proved J.
    (checked,) = elaborate_text(f"model check {render(judgment)} upto {bound};").items
    assert checked.name == f"model check {render(judgment)} upto {bound}"
    proved = ElabResult((SimpleNamespace(judgment=judgment),), (), ())
    monkeypatch.setattr(cli, "elaborate_files", lambda sources: proved)
    path = tmp_path / "empty.og"
    path.write_text("")
    _, report = run(RunConfig("model", (str(path),), max_size=bound))
    (swept,) = (i for i in report.items if i.name == f"soundness {render(judgment)}")
    assert (checked.status, checked.detail) == (status, detail)
    assert (swept.status, swept.detail, swept.witness) == (status, detail, checked.witness)
    if status == "fail":
        assert checked.witness == {"row": "Two.no -> Nat.0", "model": "model(nat<=:0)"}


def test_limits_demo():
    code, report = run(RunConfig("limits", (), demo=True))
    assert code == EXIT_OK
    names = [i.name for i in report.items]
    assert names == [
        "finite-restrictions-in-model",
        "closure-spot-checks",
        "union-round-trip",
        "limit-outside-model",
        "conclusion",
    ]


def test_limits_stream_specs():
    code, report = run(
        RunConfig("limits", ("periodic:1/01", "squares"))
    )
    assert code == EXIT_OK
    assert "member" in report.items[0].detail
    assert "non-member" in report.items[1].detail


def test_a_membership_item_is_named_by_its_stream():
    # Two spellings of one stream are one stream, and one item name: its spec.
    code, report = run(RunConfig("limits", ("xor(squares, pow2)", "xor(squares,pow2)")))
    assert code == EXIT_OK
    assert [item.name for item in report.items] == ["ep-membership xor(squares,pow2)"] * 2


def test_limits_usage_errors():
    with pytest.raises(UsageError):
        run(RunConfig("limits", ()))
    with pytest.raises(UsageError):
        run(RunConfig("limits", ("gibberish:spec",)))
    assert main(["limits", "gibberish:spec"]) == EXIT_USAGE


def test_axioms_lists_all_five():
    code, report = run(RunConfig("axioms", ()))
    assert code == EXIT_OK
    assert [i.name for i in report.items] == ["H1", "H2", "H3", "H4", "CLA"]
    assert all(i.status == "assumed" for i in report.items)


def test_emit_report_to_file(tmp_path):
    report = Report(__version__, "axioms", (Item("H1", "assumed", "x"),))
    out = tmp_path / "report.json"
    assert emit_report(report, "json", str(out)) == EXIT_OK
    assert out.read_text() == report.to_json()


def test_an_unwritable_report_path_exits_3(tmp_path, capsys):
    out = tmp_path / "nonexistent" / "r.json"
    assert main(["check", str(CORPUS / "01_two_basics.og"), "--out", str(out)]) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("error: cannot write report: ")
    assert not out.parent.exists()


def test_an_unwritable_timings_path_exits_3_and_still_reports(tmp_path, capsys):
    sidecar = tmp_path / "nonexistent" / "t.json"
    argv = ["check", "--timings", str(sidecar), str(CORPUS / "01_two_basics.og")]
    assert main(argv) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write timings: ") and "internal error" not in err
    assert out.endswith("summary: 11 pass, 0 fail, 0 assumed\n")  # the report is still written
    assert not sidecar.parent.exists()


@pytest.mark.parametrize(
    "config, keys",
    [
        (RunConfig("limits", (), demo=True), {"streams"}),
        (RunConfig("check", (str(CORPUS / "01_two_basics.og"),)), {"surface", "elaborate", "kernel.replay"}),
        (
            RunConfig("model", (), max_size=2),
            {"surface", "elaborate", "semantics.sweep", "semantics.axioms", "hf"},
        ),
    ],
)
def test_timings_sidecar(config, keys, tmp_path):
    sidecar = tmp_path / "timings.json"
    code, report = run(config._replace(timings=str(sidecar), format="json"))
    assert code == EXIT_OK
    data = json.loads(sidecar.read_text())
    assert data["command"] == config.command
    assert set(data["seconds"]) == keys
    # and no wall-clock data inside the report itself
    assert "seconds" not in report.to_json()


def test_text_format_has_summary_line(capsys):
    assert main(["axioms"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.rstrip().endswith("0 pass, 0 fail, 5 assumed")


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ogkernel", "axioms", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    data = json.loads(result.stdout)
    assert data["command"] == "axioms"


# ---------------------------------------------------------------------------
# The argv grammar


@pytest.mark.parametrize(
    "argv, config",
    [
        (["check", "a.og"], RunConfig("check", ("a.og",))),
        (
            ["check", "--format", "json", "a.og", "b.og", "--out=r.json", "--timings", "t.json"],
            RunConfig("check", ("a.og", "b.og"), format="json", out="r.json", timings="t.json"),
        ),
        (["check", "--format=text", "--", "--odd.og"], RunConfig("check", ("--odd.og",))),
        (["check", "-", "--out", "-"], RunConfig("check", ("-",), out="-")),
        (["model"], RunConfig("model")),
        (
            ["model", "--max-size", "2", "a.og", "--format=json", "--max-size=4"],
            RunConfig("model", ("a.og",), max_size=4, format="json"),
        ),
        (
            ["limits", "--demo", "squares", "--horizon=100", "--preperiod-bound", "8",
             "pow2", "--period-bound=9", "--timings=t.json", "--out", "r.txt"],
            RunConfig("limits", ("squares", "pow2"), horizon=100, preperiod_bound=8,
                      period_bound=9, demo=True, out="r.txt", timings="t.json"),
        ),
        (["limits", "--horizon", "-5"], RunConfig("limits", horizon=-5)),
        (["axioms", "--format", "json"], RunConfig("axioms", format="json")),
    ],
)  # fmt: skip
def test_argv_fills_run_config(argv, config):
    assert cli._parse_argv(argv) == config


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["--format", "json", "axioms"],
        ["check"],
        ["check", "--format", "json"],
        ["check", "a.og", "--bogus"],
        ["check", "a.og", "--max-size", "3"],
        ["check", "a.og", "--max", "3"],
        ["model", "--demo"],
        ["axioms", "extra"],
        ["check", "a.og", "--out"],
        ["check", "a.og", "--out", "--format", "json"],
        ["limits", "--demo=yes"],
        ["model", "--max-size", "three"],
        ["model", "--max-size="],
        ["limits", "--demo", "--horizon", "1e3"],
        ["limits", "--demo", "--preperiod-bound", "x"],
        ["limits", "--demo", "--period-bound=2.5"],
        ["axioms", "--format", "xml"],
        ["axioms", "--format=JSON"],
        ["check", "--version"],
    ],
)
def test_malformed_argv_is_a_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ogk: error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--version"], f"{__version__}\n"),
        (["--help"], "usage: ogk "),
        (["-h"], "usage: ogk "),
        (["check", "--help"], "usage: ogk check [FLAGS] FILE..."),
        (["model", "-h", "--bogus"], "usage: ogk model [FLAGS] [FILE...]"),
        (["limits", "--help"], "--horizon N  (default: 4096)"),
        (["axioms", "--help"], "--format text|json  (default: text)"),
    ],
)
def test_version_and_help_exit_0(argv, expected, capsys):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert expected in captured.out and captured.err == ""


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ogk", "--version"])
    assert main() == EXIT_OK
    assert capsys.readouterr().out == f"{__version__}\n"


def test_check_imports_no_argparse_or_locale():
    for argv in (["check", str(CORPUS / "01_two_basics.og")], ["model", "--max-size", "3"]):
        script = (
            "import sys\n"
            "import ogkernel.cli as cli\n"
            f"code = cli.main({argv!r})\n"
            "print(code, sorted(m for m in ('argparse', 'locale', 'numpy') if m in sys.modules))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == "0 []", argv


def test_reports_are_byte_identical_under_every_hash_seed():
    for argv in (
        ["check", str(CORPUS / "20_full_tower.og"), "--format", "json"],
        ["model", "--max-size", "2", "--format", "json"],
        # the stream catalog: coherent families, limits and periodicity
        ["check", str(CORPUS / "08_coherent_squares.og"), str(CORPUS / "10_limit_lab.og"),
         "--format", "json"],
        ["limits", "--demo"],
    ):
        reports = set()
        for seed in ("0", "1"):
            result = subprocess.run(
                [sys.executable, "-m", "ogkernel", *argv],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert result.returncode in (EXIT_OK, EXIT_CHECK_FAILED) and result.stdout, argv
            reports.add(result.stdout)
        assert len(reports) == 1, argv


def test_cli_runs_where_numpy_cannot_be_imported():
    # A None entry in sys.modules makes every `import numpy` raise ImportError.
    commands = [
        ["check", str(CORPUS / "10_limit_lab.og")],
        ["model", "--max-size", "3"],
        ["limits", "--demo"],
    ]
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import ogkernel.cli as cli\n"
        f"codes = [cli.main(argv) for argv in {commands!r}]\n"
        "print(codes)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "[0, 0, 0]"


# ---------------------------------------------------------------------------
# Several files in one `ogk check`


def test_check_gives_each_file_its_own_session(capsys):
    files = sorted(str(p) for p in CORPUS.glob("[0-2][0-9]_*.og"))
    assert len(files) == 20
    assert main(["check", *files]) == EXIT_OK
    assert "already declared" not in capsys.readouterr().out


def test_multi_file_check_names_each_item_by_its_file(capsys):
    first, second = str(CORPUS / "01_two_basics.og"), str(CORPUS / "crossdomain.og")
    assert main(["check", "--format", "json", first, second]) == EXIT_CHECK_FAILED
    items = json.loads(capsys.readouterr().out)["items"]
    assert all(item["name"].startswith((f"{first}: ", f"{second}: ")) for item in items)
    failing = [item["name"] for item in items if item["status"] == "fail"]
    assert failing == [f"{second}: E0101 at 8:1"]
    # one file alone keeps its item names unprefixed
    assert main(["check", "--format", "json", second]) == EXIT_CHECK_FAILED
    items = json.loads(capsys.readouterr().out)["items"]
    assert not any(item["name"].startswith(second) for item in items)


def test_model_gives_each_file_its_own_session(capsys):
    files = [
        str(p)
        for pattern in ("0[1-9]_*.og", "1*.og", "20*.og")
        for p in sorted(CORPUS.glob(pattern))
    ]
    assert len(files) == 20
    assert main(["model", "--max-size", "2", "--format", "json", *files]) == EXIT_OK
    names = [item["name"] for item in json.loads(capsys.readouterr().out)["items"]]
    assert not any("already declared" in name for name in names)
    shared = [name for name in names if not name.startswith(tuple(f"{f}: " for f in files))]
    assert shared == [n for n in names if n.startswith(("axiom ", "zfc1 "))]
    assert [n for n in shared if n.startswith("axiom ")] == [
        "axiom H1", "axiom H2", "axiom H3", "axiom H4"
    ]
    assert {n.split(": ", 1)[0] for n in names if n not in shared} == set(files)


def test_multi_file_check_with_a_syntax_error_exits_2(capsys):
    argv = ["check", str(CORPUS / "01_two_basics.og"), str(CORPUS / "err5.og")]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.count("error[") == 5


# ---------------------------------------------------------------------------
# Inputs that reach no verdict of their own


def test_unreadable_inputs_are_usage_errors(tmp_path, capsys):
    latin1 = tmp_path / "latin1.og"
    latin1.write_bytes(b"-- caf\xe9\ngenerator G primitive;\n")
    for argv in (["check", str(tmp_path)], ["check", str(latin1)], ["model", str(latin1)]):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {argv[1]}: "), err
        assert "internal error" not in err


def test_input_files_are_named_as_path_objects_write_them():
    # Reports and diagnostics have named each input as `str(Path(name))`.
    for n in range(7):
        for parts in itertools.product(("/", ".", "..", "a"), repeat=n):
            name = "".join(parts)
            assert cli._normal_path(name) == str(Path(name)), name


def test_a_bad_byte_past_the_first_read_chunk_is_named_at_its_file_offset(tmp_path, capsys):
    # A file is decoded whole, so the offset counts from its start and not
    # from the 8 KiB chunk that a buffered text read would decode it in.
    bad, root = tmp_path / "bad.og", tmp_path / "root.og"
    bad.write_bytes(b"-" * 8193 + b"\xff\n")
    root.write_text('include "bad.og";\n')
    detail = "'utf-8' codec can't decode byte 0xff in position 8193: invalid start byte"
    assert main(["check", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: cannot read {bad}: {detail}\n"
    assert main(["check", str(root)]) == EXIT_CHECK_FAILED
    assert f"FAIL     E0005 at 1:1 | cannot include 'bad.og': {detail}\n" in capsys.readouterr().out


def test_a_byte_order_mark_at_the_start_of_a_file_is_skipped(tmp_path, capsys):
    source = "assert SupportsQuant(P[Nat]) by rule H4 from axiom H3;\n"
    reports = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        path = tmp_path / name / "tower.og"
        path.parent.mkdir()
        path.write_text(source, encoding)
        assert main(["check", "--format", "json", str(path)]) == EXIT_OK
        reports.append(capsys.readouterr().out.replace(name, "DIR"))
    assert reports[0] == reports[1]
    stray = tmp_path / "stray.og"
    stray.write_text(source + "\ufeff", "utf-8-sig")
    assert main(["check", str(stray)]) == EXIT_USAGE
    assert "2:1: error[E0001]: illegal character '\\ufeff'" in capsys.readouterr().err


def test_a_replay_failure_fails_its_trace_item_and_names_the_node(
    tmp_path, monkeypatch, capsys, rejudge
):
    path = tmp_path / "tower.og"
    path.write_text("assert SupportsQuant(P[Nat]) by rule H4 from axiom H3;\n")
    replay = cli.verify_trace

    def tampering_replay(thm):
        return replay(rejudge(thm, (0,), SupportsQuant(TWO)))  # a forged H3 node

    monkeypatch.setattr(cli, "verify_trace", tampering_replay)
    assert main(["check", "--format", "json", str(path)]) == EXIT_CHECK_FAILED
    items = json.loads(capsys.readouterr().out)["items"]
    assert items[-1] == {
        "name": "trace SupportsQuant(P[Nat])",
        "status": "fail",
        "detail": "2 nodes replayed; H3 node SupportsQuant(Two): replay derives SupportsQuant(Nat)",
    }


def test_a_payload_that_replay_refuses_fails_its_trace_item(tmp_path, monkeypatch, capsys):
    path = tmp_path / "gen.og"
    path.write_text("generator G primitive {a, b};\n")
    replay = cli.verify_trace

    def tampering_replay(thm):  # the same node, listing the tag a twice
        forged = kernel.Theorem(
            kernel._SEAL, thm.kind, thm.label, thm.judgment, thm.children, ("G", ("a", "a"))
        )
        return replay(forged)

    monkeypatch.setattr(cli, "verify_trace", tampering_replay)
    assert main(["check", "--format", "json", str(path)]) == EXIT_CHECK_FAILED
    items = json.loads(capsys.readouterr().out)["items"]
    assert items == [{
        "name": "trace Gen(G)",
        "status": "fail",
        "detail": "1 nodes replayed; generator node Gen(G): generator 'G' lists the tag 'a' twice",
    }]


def test_a_file_replay_judges_each_node_of_its_dag_once(monkeypatch):
    path = CORPUS / "20_full_tower.og"
    result = elaborate_files([(path, parse_source(path.read_text())[0])])
    calls = []
    judge = kernel._judge
    monkeypatch.setattr(kernel, "_judge", lambda *args: calls.append(args) or judge(*args))
    items = cli._replay_items(result)
    assert [item.status for item in items] == ["pass"] * len(result.theorems) == ["pass"] * 23
    assert len(calls) == len(frozenset().union(*map(trace_set, result.theorems))) == 25


@pytest.mark.parametrize("command", ["check", "model"])
def test_row_literals_on_another_carrier_are_refused(command, tmp_path, capsys):
    path = tmp_path / "wrong_carrier.og"
    path.write_text(
        "generator G primitive {yes, no};\n"
        "morphism f : G -> Two := table { Two.yes -> Two.yes, Two.no -> Two.no };\n"
        "assert Mor(f, G, Two) by rule mor;\n"
    )
    assert main([command, str(path)]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL     E0102 at 2:1 | row Two.yes -> Two.yes is not written on G -> Two\n" in out
    assert "Mor(" not in out  # no theorem, trace or sweep item about f


def test_ogk_runs_no_pure_python_json_enum_or_random_code(tmp_path):
    # Reports are written without json's pure-Python encoder, rule and axiom
    # ids are looked up without calling an Enum class, and the gap demo draws
    # with `random()` alone; a profiler's call events would show each.
    watched = {
        json.encoder._make_iterencode.__code__,
        type(enum.Enum).__call__.__code__,
        random.Random.randrange.__code__,
    }
    entered = set()

    def on_call(frame, event, arg):
        if frame.f_code in watched:
            entered.add(frame.f_code.co_name)

    out = str(tmp_path / "report.json")
    previous = sys.gettrace()
    for argv in (
        ["check", str(CORPUS / "20_full_tower.og")],
        ["check", str(CORPUS / "10_limit_lab.og")],
        ["model", "--max-size", "2"],
    ):
        sys.settrace(on_call)
        try:
            code = main([*argv, "--format", "json", "--out", out])
        finally:
            sys.settrace(previous)
        assert code == EXIT_OK, argv
    assert entered == set()


# Each reproducer nests one construct `n` levels deep.
_NESTINGS = {
    "parentheses": lambda n: "assert Gen(" + "(" * n + "Two" + ")" * n + ") by rule gen;",
    "powersets": lambda n: "assert Gen(" + "P[" * n + "Two" + "]" * n + ") by rule gen;",
    "product": lambda n: "assert Gen(" + "*".join(["Two"] * (n + 1)) + ") by rule gen;",
    "from chain": lambda n: "assert SupportsQuant(Nat) by " + "rule H4 from " * n + "axiom H3;",
    "pair key": lambda n: (
        "morphism m : Two -> Two := table { "
        + "(" * n + "Two.yes" + ", Two.no)" * n + " -> Two.yes };"
    ),
}


@pytest.mark.parametrize("kind", _NESTINGS)
def test_nesting_past_the_bound_is_a_syntax_error(kind, tmp_path, capsys):
    path = tmp_path / "nested.og"
    path.write_text(_NESTINGS[kind](1000) + "\ngenerator G primitive;\n")
    assert main(["check", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("error[") == 1  # the parser recovers at `;`
    assert f"error[E0002]: nesting deeper than MAX_NESTING = {MAX_NESTING}" in err
    assert "internal error" not in err
    assert parse_source(_NESTINGS[kind](MAX_NESTING))[1] == []
    assert parse_source(_NESTINGS[kind](MAX_NESTING + 1))[1] != []


_WRAPPERS = {
    "assert Gen({}) by rule gen;": ("Two", ("({})", "P[{}]", "{}*Two", "Two*{}")),
    "assert SupportsQuant(Nat) by {};": (
        "axiom H3",
        ("({})", "rule H4 from {}", "rule set_intro from {}, axiom H1"),
    ),
    "morphism m : Two -> Two := table {{ {} -> Two.yes }};": (
        "Two.yes",
        ("({}, Two.no)", "(Two.no, {})"),
    ),
}


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    template=st.sampled_from(sorted(_WRAPPERS)),
    pattern=st.lists(st.integers(0, 3), min_size=1, max_size=6),
    depth=st.integers(0, 1000),
)
def test_random_nestings_end_in_a_verdict(template, pattern, depth, tmp_path, capsys):
    base, wrappers = _WRAPPERS[template]
    text = base
    for level in range(depth):
        text = wrappers[pattern[level % len(pattern)] % len(wrappers)].format(text)
    path = tmp_path / "nested.og"
    path.write_text(template.format(text) + "\n")
    assert main(["check", str(path)]) in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE)
    assert "internal error" not in capsys.readouterr().err
