"""Acceptance criteria, one test per criterion, with stated time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

from conftest import elaborate_text, render_decl
from ogkernel.cli import EXIT_CHECK_FAILED, EXIT_OK, RunConfig, main, run
from ogkernel.hf import HFUniverse, check_zfc1_instances
from ogkernel.kernel import AxiomId, Kernel, axioms_used
from ogkernel.semantics import (
    Carrier,
    Model,
    interpret,
    interpret_fn,
    soundness_sweep,
)
from ogkernel.stdlib import prelude_source
from ogkernel.streams import demonstrate_gap
from ogkernel.surface import parse_source, parse_stream_spec
from ogkernel.terms import (
    BuiltinRule,
    Ident,
    Named,
    ObjLit,
    Powerset,
    Table,
    render,
)

CORPUS = Path(__file__).parent / "corpus"
PRELUDE = Path(__file__).parents[1] / "src" / "ogkernel" / "prelude.og"


def _timed(name: str, budget: float):
    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            status = "PASS" if exc_type is None and elapsed < budget else "FAIL"
            print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
            assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"
            return False

    return _Timer()


def test_criterion_1_derivation_reproduction():
    with _timed("1 derivation-reproduction", 1.0):
        result = elaborate_text(prelude_source())
        assert not result.diagnostics
        judgments = [render(j) for j in result.judgments]
        for expected in ("Set(Two)", "Set(Nat)", "Set(P[Nat])", "Set(P[P[Nat]])"):
            assert expected in judgments
        final = result.theorems[-1]
        assert render(final.judgment) == "Set(P[P[Nat]])"
        uses = sorted(a.value for a in axioms_used(final).elements())
        assert uses == ["H3", "H4", "H4"]


def test_criterion_2_kernel_oracle_agreement():
    with _timed("2 kernel-oracle-agreement", 10.0):
        judgments = elaborate_text(prelude_source()).judgments
        report = soundness_sweep(judgments, max_size=3)
        assert report.fails == 0
        assert report.holds > 0


def test_criterion_3_powerset_law():
    with _timed("3 powerset-law", 5.0):
        for n in range(0, 9):
            expr = Named(Ident("A"))
            model = Model.make(
                {"A": Carrier("A", tuple(f"x{i}" for i in range(n)))}, nat_bound=1
            )
            carrier = interpret(Powerset(expr), model)
            assert len(carrier) == 2**n
            detector = interpret_fn(
                BuiltinRule("empty_detector_of", (expr,)), model
            )
            flagged = [tag for tag, v in detector.items() if v == "yes"]
            assert flagged == ["{}"]  # exactly one: the all-no table


def test_criterion_4_choice_instances():
    with _timed("4 choice-instances", 10.0):
        d, c = Named(Ident("D")), Named(Ident("C"))
        tags = ("t0", "t1", "t2", "t3")
        surjections = 0
        for nd in range(1, 5):
            for nc in range(1, 5):
                kernel = Kernel()
                kernel.gen_intro(Ident("D"), tags[:nd])
                kernel.gen_intro(Ident("C"), tags[:nc])
                for values in itertools.product(tags[:nc], repeat=nd):
                    if set(values) != set(tags[:nc]):
                        continue
                    surjections += 1
                    surj = Table(
                        d,
                        c,
                        tuple(
                            (ObjLit(t, d), ObjLit(v, c))
                            for t, v in zip(tags[:nd], values)
                        ),
                    )
                    thm = kernel.axiom(AxiomId.H2_CHOICE, (surj, d, c))
                    section = {k.tag: v.tag for k, v in thm.judgment.fn.rows}
                    surj_map = dict(zip(tags[:nd], values))
                    assert all(surj_map[section[t]] == t for t in tags[:nc])
        assert surjections > 0


def test_criterion_5_coherent_limit_gap():
    with _timed("5 coherent-limit-gap", 5.0):
        exit_code, report = run(RunConfig("limits", (), demo=True))
        assert exit_code == EXIT_OK
        by_name = {i.name: i for i in report.items}
        assert "257/257" in by_name["finite-restrictions-in-model"].detail
        assert by_name["finite-restrictions-in-model"].status == "pass"
        assert "210/210" in by_name["closure-spot-checks"].detail
        assert by_name["union-round-trip"].status == "pass"
        assert "stage 256" in by_name["union-round-trip"].detail
        assert by_name["limit-outside-model"].status == "pass"
        assert "(64, 64, 4096)" in by_name["limit-outside-model"].detail
        # control experiment: a periodic base stream flips sub-result (d)
        control = demonstrate_gap(parse_stream_spec("periodic:1/01"))
        assert control.base_verdict.member
        assert not control.passed
        assert control.conclusion.startswith("withdrawn")


def test_criterion_6_zfc1_instances():
    with _timed("6 zfc1-instances", 5.0):
        report = check_zfc1_instances(HFUniverse.build(3))
        assert report.element_count == 16
        families = {f.name: f for f in report.families}
        assert set(families) == {
            "extensionality",
            "pairing",
            "union",
            "powerset",
            "separation",
        }
        assert families["pairing"].instances == 136
        assert not any(f.failures for f in report.families)


def test_criterion_7_cross_domain_equality(capsys):
    exit_code = main(["check", str(CORPUS / "crossdomain.og")])
    out = capsys.readouterr().out
    assert exit_code == EXIT_CHECK_FAILED  # a failed check, never a crash
    assert "E0101" in out
    print("ACCEPTANCE 7 cross-domain-equality: PASS")


def test_criterion_8_parser_robustness():
    with _timed("8 parser-robustness", 10.0):
        corpus = sorted(CORPUS.glob("[0-9]*.og"))
        assert len(corpus) == 20
        for path in corpus:
            decls, diags = parse_source(path.read_text())
            assert not diags, path.name
            reparsed, rediags = parse_source(
                "\n".join(render_decl(d) for d in decls)
            )
            assert not rediags, path.name
            assert [d[:-1] for d in reparsed] == [d[:-1] for d in decls], path.name
        _, diags = parse_source((CORPUS / "err5.og").read_text())
        assert len(diags) == 5
        config = RunConfig("check", (str(PRELUDE),), format="json")
        _, first = run(config)
        _, second = run(config)
        assert first.to_json() == second.to_json()
        assert json.loads(first.to_json()) == first.to_dict()
