"""The two workloads: their operations, budgets and correctness checks.

Each operation is one `ogk` command line.  Expected verdicts are written
here from the inputs and the documented semantics, never copied from the
program's output.  An operation whose outcome misses its expectation counts
as failed; when it is not one of the named faults below, the run is also
marked incorrect.

This module runs in the benchmark's own process and never imports ogkernel:
checks that need the program's API run in a forked child (`inspect` in
`server.py`).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

CORPUS = "tests/corpus"
INPUTS = "bench/inputs"
REPORT = "bench/out/report.json"

# Named faults of the program at the commit that defined this benchmark.
# They stay in every pass and count as failed until they are fixed.
CORRUPT_FAULT = (
    "Kernel.coherent_family scans only stages 0..64, so corrupt(squares,100,3) "
    "is certified coherent"
)
TOWER_FAULT = (
    "evidence_models skips its size cap without Nat; the domain check walks "
    "2^32 pairs"
)
MAX4_FAULT = (
    "interpret materialises P[P[Nat]] * P[P[Nat]] at Nat bound 3 (2^32 pairs) "
    "and exhausts memory"
)


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    fault: str | None = None  # named fault: failing is expected, not incorrect
    path: str | None = None  # input inspected through the API ("" = prelude)


class Workload:
    name: str
    tail_pct: int  # the percentile reported as op_tail_s
    cpu_s: int  # time budget of one operation (CPU seconds)
    mem_mb = 256  # address-space budget above the post-import size
    ops: tuple[Op, ...]

    def __init__(self) -> None:
        self.first: dict[str, tuple] = {}  # op name -> first output seen

    def argv(self, op: Op) -> list[str]:
        return [*op.argv, "--format", "json", "--out", REPORT]

    def judge(self, op: Op, reply: dict) -> str | None:
        """None when the operation met its expectation, else the reason."""
        result = reply["result"]
        if reply["status"] != 0 or result is None or "error" in result:
            if reply["status"] < 0:
                return f"killed by signal {-reply['status']} (budget)"
            return f"child failed: {(result or {}).get('error', reply['status'])}"
        output = (result["exit"], result["report"], result["stderr"])
        first = self.first.setdefault(op.name, output)
        if first != output:
            return "output differs from the first pass"
        return self.expect(op, result)

    def expect(self, op: Op, result: dict) -> str | None:
        raise NotImplementedError

    def final_checks(self, inspections: dict[str, dict]) -> list[str]:
        return []


def _report(result: dict) -> dict | None:
    return json.loads(result["report"]) if result["report"] else None


def _fails(report: dict) -> list[tuple[int, str]]:
    """(line, code) of each failing diagnostic item of a check report."""
    out = []
    for item in report["items"]:
        match = re.fullmatch(r"(E\d{4}) at (\d+):\d+", item["name"])
        if match and item["status"] == "fail":
            out.append((int(match[2]), match[1]))
    return out


def _runaway_ok(result: dict) -> str | None:
    """A runaway input is correct once it ends within budget with a verdict."""
    if result["exit"] in (0, 1):
        return None
    return f"exit {result['exit']}, expected 0 or 1 within budget"


# ---------------------------------------------------------------------------
# check-corpus

CORPUS_FILES = (
    "01_two_basics", "02_naturals", "03_powerset_chain", "04_primitive_generators",
    "05_products", "06_morphism_tables", "07_builtin_rules", "08_coherent_squares",
    "09_model_checks", "10_limit_lab", "11_include_main", "12_include_lib",
    "13_aliases", "14_proof_nesting", "15_strings_and_comments",
    "16_two_object_logic", "17_mixed_session", "18_eq_queries", "19_formations",
    "20_full_tower",
)  # fmt: skip

# Exit code and failing diagnostics (line, code), written from the files.
CHECK_EXPECT: dict[str, tuple[int, tuple[tuple[int, str], ...]]] = {
    **{name: (0, ()) for name in CORPUS_FILES},
    # line 8 asks '=' between a Two object and a Nat object: refused.
    "crossdomain": (1, ((8, "E0101"),)),
    # five syntax errors, one per line 2..6: an unclosed '(' and four
    # missing tokens (name, generator expression, 'by', bound).
    "err5": (2, ((2, "E0003"), (3, "E0002"), (4, "E0002"), (5, "E0002"), (6, "E0002"))),
}
CORRUPT_LINE = 4  # the Coherent(...) assertion in bench/inputs/corrupt_coherence.og


def squares_stage(n: int, flip_from: int | None = None, index: int = 0) -> list[int]:
    """Stage n of restrictions(squares), or of corrupt(squares, flip_from, index)."""
    bits = [1 if math.isqrt(i) ** 2 == i else 0 for i in range(n + 1)]
    if flip_from is not None and n >= flip_from and index <= n:
        bits[index] ^= 1
    return bits


class CheckCorpus(Workload):
    name = "check-corpus"
    tail_pct = 93
    cpu_s = 1

    def __init__(self) -> None:
        super().__init__()
        ops = [
            Op(name, ("check", f"{CORPUS}/{name}.og"), path=f"{CORPUS}/{name}.og")
            for name in (*CORPUS_FILES, "crossdomain")
        ]
        ops.append(Op("err5", ("check", f"{CORPUS}/err5.og")))
        ops.append(Op("corrupt_coherence", ("check", f"{INPUTS}/corrupt_coherence.og"),
                      fault=CORRUPT_FAULT))
        ops.append(Op("deep_tower", ("check", f"{INPUTS}/deep_tower.og"), fault=TOWER_FAULT))
        self.ops = tuple(ops)

    def expect(self, op: Op, result: dict) -> str | None:
        if op.name == "deep_tower":
            return _runaway_ok(result)
        if op.name == "err5":
            found = [
                (int(m[1]), m[2])
                for m in re.finditer(r"^\S+:(\d+):\d+: error\[(E\d{4})\]", result["stderr"], re.M)
            ]
            expected = CHECK_EXPECT["err5"]
            if result["exit"] != expected[0] or tuple(found) != expected[1]:
                return f"exit {result['exit']} with diagnostics {found}"
            return None
        report = _report(result)
        if report is None:
            return f"exit {result['exit']} without a report"
        fails = _fails(report)
        if op.name == "corrupt_coherence":
            if result["exit"] != 1 or (CORRUPT_LINE, "E0102") not in fails:
                return f"exit {result['exit']}: the incoherent family was not refused"
            return None
        code, diagnostics = CHECK_EXPECT[op.name]
        if result["exit"] != code or tuple(fails) != diagnostics:
            return f"exit {result['exit']} with failing diagnostics {fails}"
        other = [i["name"] for i in report["items"] if i["status"] == "fail" and not
                 re.fullmatch(r"E\d{4} at \d+:\d+", i["name"])]
        if other:
            return f"failing items {other}"
        return None

    def final_checks(self, inspections: dict[str, dict]) -> list[str]:
        problems = []
        if squares_stage(100, 100, 3)[:100] == squares_stage(99, 100, 3):
            problems.append("own scan finds corrupt(squares,100,3) coherent at stage 100")
        for name, info in inspections.items():
            if not info["parsed"] or name not in self.first:
                problems.append(f"{name}: not checked (no parse or no output)")
                continue
            theorems = info["theorems"]
            for thm in theorems:
                if not thm["replays"]:
                    problems.append(f"{name}: {thm['judgment']} does not replay")
                if thm["refuted"]:
                    problems.append(f"{name}: {thm['judgment']} refuted in {thm['refuted'][0]}")
            report = json.loads(self.first[name][1])
            traces = [i for i in report["items"] if i["name"].startswith("trace ")]
            if len(traces) != len(theorems) or any(i["status"] != "pass" for i in traces):
                problems.append(f"{name}: {len(traces)} trace items for {len(theorems)} theorems")
        problems += _tower_axioms(inspections.get("20_full_tower"), "20_full_tower")
        return problems


def _tower_axioms(info: dict | None, name: str) -> list[str]:
    """Set(P[P[Nat]]) must be derived from exactly the axioms {H3, H4, H4}."""
    if info is None or not info["parsed"]:
        return [f"{name}: not inspected"]
    axioms = [t["axioms"] for t in info["theorems"] if t["judgment"] == "Set(P[P[Nat]])"]
    if axioms != [["H3", "H4", "H4"]]:
        return [f"{name}: Set(P[P[Nat]]) uses axioms {axioms}"]
    return []


# ---------------------------------------------------------------------------
# model-sweep


def surjections(n: int, k: int) -> int:
    """k! * S(n, k): the number of maps from n objects onto k objects."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


def h2_count(max_size: int) -> int:
    """Surjections between the checked carriers, Two and Nat truncated at
    `max_size`, for domains of at most 4 objects."""
    sizes = (2, max_size + 1)
    return sum(surjections(n, k) for n in sizes if n <= 4 for k in sizes)


class ModelSweep(Workload):
    name = "model-sweep"
    tail_pct = 66
    cpu_s = 10

    def __init__(self) -> None:
        super().__init__()
        self.ops = (
            Op("prelude@2", ("model", "--max-size", "2"), path=""),
            Op("prelude@3", ("model", "--max-size", "3"), path=""),
            *(
                Op(f"{name}@3", ("model", f"{CORPUS}/{name}.og", "--max-size", "3"),
                   path=f"{CORPUS}/{name}.og")
                for name in ("04_primitive_generators", "05_products", "06_morphism_tables")
            ),
            Op("prelude@4", ("model", "--max-size", "4"), fault=MAX4_FAULT),
        )

    def expect(self, op: Op, result: dict) -> str | None:
        if op.fault is not None:
            return _runaway_ok(result)
        report = _report(result)
        if result["exit"] != 0 or report is None:
            return f"exit {result['exit']}"
        items = {i["name"]: i for i in report["items"]}
        failing = [name for name, i in items.items() if i["status"] == "fail"]
        if failing:
            return f"failing items {failing}"
        size = int(op.argv[-1])
        h2 = items.get("axiom H2", {}).get("detail", "")
        if f"all {h2_count(size)} surjections" not in h2:
            return f"H2 detail {h2!r}, expected {h2_count(size)} surjections"
        pairing = items.get("zfc1 pairing (rank 3)", {}).get("detail", "")
        if not pairing.startswith(f"{math.comb(16, 2) + 16} instances"):
            return f"pairing detail {pairing!r}"
        return None

    def final_checks(self, inspections: dict[str, dict]) -> list[str]:
        problems = []
        for op in self.ops:
            if op.path is None:
                continue
            info = inspections[op.name]
            if not info["parsed"] or op.name not in self.first:
                problems.append(f"{op.name}: not checked (no parse or no output)")
                continue
            size = int(op.argv[-1])
            expected: dict[str, int] = {}
            for thm in info["theorems"]:
                models = size ** len(thm["names"]) * (size if thm["nat"] else 1)
                expected[thm["judgment"]] = expected.get(thm["judgment"], 0) + models
            report = json.loads(self.first[op.name][1])
            seen = set()
            for item in report["items"]:
                if not item["name"].startswith("soundness "):
                    continue
                judgment = item["name"][len("soundness ") :]
                seen.add(judgment)
                counted = re.search(r"in \d+/(\d+) models", item["detail"])
                if counted and int(counted[1]) != expected.get(judgment):
                    problems.append(
                        f"{op.name}: {judgment} swept in {counted[1]} models, "
                        f"expected {expected.get(judgment)}"
                    )
            if seen != set(expected):
                problems.append(f"{op.name}: swept judgments differ from the theorem list")
            if op.name == "prelude@3" and sum(expected.values()) != 59:
                problems.append(f"prelude@3: {sum(expected.values())} canonical models, not 59")
        problems += _tower_axioms(inspections.get("prelude@2"), "prelude")
        return problems


WORKLOADS = {w.name: w for w in (CheckCorpus, ModelSweep)}
