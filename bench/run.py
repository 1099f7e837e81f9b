"""End-to-end and per-layer benchmark of the `ogk` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke
    python3 bench/run.py --baseline RUNS [--seconds S] [--label L]

A run starts the fork server (`server.py`), then

1. makes whole passes over the workload's operations, each pass in an order
   drawn from --seed, one operation at a time, until --seconds have passed
   and the tail percentile has ten samples beyond it.  After each pass a
   fresh interpreter imports `ogkernel.cli` (setup_s, at least SETUP_RUNS
   samples).  With --trace 1 the boundaries of every layer are wrapped,
   spans are recorded and setup is not timed;
2. between passes, one untimed step at a time, makes one counting pass:
   every operation that completed is run once more under a line-event
   counter (lines_per_op, and *_lines per layer);
3. and, the same way, runs the correctness checks that need the program's
   API in forked children, outside all timing.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per layer with --trace 1).  Each run
also writes bench/out/BENCH_<label>.json; --trace 1 writes its spans to
bench/out/spans_<label>.jsonl.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import REPORT, WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SRC = ROOT / "src"
ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",  # line counts depend on set and dict order
    "OPENBLAS_NUM_THREADS": "1",  # the server forks: it must hold no threads
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_RUNS = 7  # fewest setup samples in a run
TAIL_BEYOND = 10  # samples beyond the tail percentile
INSPECT_CPU_S = 10
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
COUNT_SLOWDOWN = 10  # the line counter makes an operation up to this much slower

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "lines_per_op": "count",
}
# group of the layer table -> (self-time metric, line metric or None)
GROUPS = {
    "surface": ("surface.self_s", "surface.self_lines"),
    "elaborate": ("elaborate.self_s", "elaborate.self_lines"),
    "kernel.rule": ("kernel.rule_s", "kernel.rule_lines"),
    "kernel.replay": ("kernel.replay_s", "kernel.replay_lines"),
    "stdlib.evidence": ("stdlib.evidence_s", None),
    "semantics.sweep": ("semantics.sweep_s", "semantics.sweep_lines"),
    "semantics.axioms": ("semantics.axioms_s", "semantics.axioms_lines"),
    "semantics.other": ("semantics.other_s", None),
    "hf": ("hf.self_s", None),
    "streams.ep": ("streams.ep_s", "streams.ep_lines"),
    "streams.gap": ("streams.gap_s", None),
    "streams.coherence": ("streams.coherence_s", None),
    "cli.report": ("cli.report_s", None),
}
COUNTERS = (
    "surface.decls", "elaborate.items", "kernel.rule_calls", "kernel.theorems",
    "kernel.replay_nodes", "kernel.unique_nodes", "stdlib.evidence_models",
    "semantics.sweep_items", "semantics.not_checkable", "semantics.judgment_calls",
    "semantics.carrier_objects", "hf.instances", "streams.ep_queries",
    "streams.coherence_stages", "cli.report_bytes",
)  # fmt: skip
# Per-layer metrics each workload must move (the smoke mode's gate).
EXERCISES = {
    "check-corpus": (
        "surface.self_s", "surface.self_lines", "surface.decls", "elaborate.self_s",
        "elaborate.self_lines", "elaborate.items", "kernel.rule_s", "kernel.rule_lines",
        "kernel.rule_calls", "kernel.theorems", "kernel.replay_s", "kernel.replay_lines",
        "kernel.replay_nodes", "kernel.unique_nodes", "stdlib.evidence_s",
        "stdlib.evidence_models", "semantics.judgment_calls", "semantics.carrier_objects",
        "streams.ep_s", "streams.ep_lines", "streams.ep_queries", "streams.gap_s",
        "streams.coherence_stages", "cli.report_s", "cli.report_bytes",
    ),
    "model-sweep": (
        "surface.self_s", "surface.decls", "elaborate.self_s", "elaborate.items",
        "kernel.rule_s", "kernel.rule_calls", "kernel.theorems", "stdlib.evidence_s",
        "stdlib.evidence_models", "semantics.sweep_s", "semantics.sweep_lines",
        "semantics.sweep_items", "semantics.not_checkable", "semantics.axioms_s",
        "semantics.axioms_lines", "semantics.judgment_calls", "semantics.carrier_objects",
        "hf.self_s", "hf.instances", "cli.report_s", "cli.report_bytes",
    ),
}  # fmt: skip


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, dead server)."""


def fixed_layout() -> None:
    """Turn off address-space randomisation for this (child) process.

    Under Python 3.11, `hash(None)` derives from the address of `None`, so
    the hash of a `Model` without a Nat bound, and with it the collisions in
    the `interpret` cache, change from process to process.  Each collision
    runs a generated `__eq__`, and the line count moves by a few lines.
    A fixed layout makes the count exact."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona == -1 or libc.personality(persona | ADDR_NO_RANDOMIZE) == -1:
        raise OSError(ctypes.get_errno(), "personality(ADDR_NO_RANDOMIZE) failed")


class Server:
    """The fork server, started fresh for each run."""

    def __enter__(self) -> "Server":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "server.py")],
            cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=fixed_layout,
        )  # fmt: skip
        line = self.proc.stdout.readline()
        if not line:
            self.__exit__()
            raise BenchError("the fork server did not start")
        self.ready = json.loads(line)
        if not Path(self.ready["ogkernel"]).resolve().is_relative_to(SRC):
            self.__exit__()
            raise BenchError(f"ogkernel imported from {self.ready['ogkernel']}, not {SRC}")
        return self

    def request(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the fork server died")
        return json.loads(line)

    def op(self, workload: Workload, op: Op, mode: str) -> dict:
        cpu_s = workload.cpu_s * (COUNT_SLOWDOWN if mode == "count" else 1)
        return self.request(
            kind="op", argv=workload.argv(op), mode=mode, out=REPORT,
            cpu_s=cpu_s, mem_mb=workload.mem_mb, wall_s=2 * cpu_s + 2,
        )  # fmt: skip

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Outcomes of the operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Counter = Counter()
        self.problems: list[str] = []
        self.ok: list[tuple[Op, dict]] = []

    def record(self, workload: Workload, op: Op, reply: dict) -> None:
        self.attempted += 1
        problem = workload.judge(op, reply)
        if problem is None:
            self.ok.append((op, reply))
            return
        self.failed[op.name] += 1
        if op.fault is None:
            self.problems.append(f"{op.name}: {problem}")


def import_time() -> float:
    """Seconds for a fresh interpreter to import ogkernel.cli and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ogkernel.cli"], cwd=ROOT, env=ENV, check=True,
                   preexec_fn=fixed_layout)  # fmt: skip
    return time.perf_counter() - start


def timed_passes(server: Server, workload: Workload, seed: int, seconds: float, mode: str,
                 setups: list[float] | None, max_passes: int | None = None) -> tuple:  # fmt: skip
    """Whole passes in seeded order until `seconds` have passed and the tail
    percentile has TAIL_BEYOND samples beyond it (or `max_passes` ran).
    With `setups`, one setup sample is taken after each pass, so that setup
    and operations see the same host speed.  One step of the untimed work
    (`chores`) follows each pass, so the timed samples spread over the whole
    run and not only its first part.  Returns the tally, the number of
    passes, the counting pass's results and the inspections."""
    rng = random.Random(seed)
    tally = Tally()
    counted: list[dict] = []
    inspections: dict[str, dict] = {}
    work = chores(server, workload, tally, counted, inspections)
    passes = 0
    start = time.perf_counter()
    while True:
        order = list(workload.ops)
        rng.shuffle(order)
        for op in order:
            tally.record(workload, op, server.op(workload, op, mode))
        passes += 1
        if setups is not None:
            setups.append(import_time())
        if max_passes is not None and passes >= max_passes:
            break
        next(work, None)
        elapsed = time.perf_counter() - start
        beyond = len(tally.ok) * (100 - workload.tail_pct) / 100
        if elapsed >= seconds and (beyond >= TAIL_BEYOND or elapsed >= 4 * seconds + 60):
            break
    for _ in work:
        pass
    return tally, passes, counted, inspections


def chores(server: Server, workload: Workload, tally: Tally, counted: list[dict],
           inspections: dict[str, dict]):  # fmt: skip
    """The untimed work of a run, one operation per step.  First the counting
    pass: each operation that completed in the first timed pass runs once
    more under the line counter, and its output must match the timed
    passes.  Then the inputs are inspected through the API."""
    completed = {op.name for op, _ in tally.ok}
    for op in workload.ops:
        if op.name not in completed:
            continue
        reply = server.op(workload, op, "count")
        problem = workload.judge(op, reply)
        if problem is None:
            counted.append(reply["result"])
        else:
            tally.problems.append(f"{op.name} (counting pass): {problem}")
        yield
    for op in workload.ops:
        if op.path is None:
            continue
        reply = server.request(
            kind="inspect", path=op.path, size=2,
            cpu_s=INSPECT_CPU_S, mem_mb=workload.mem_mb, wall_s=2 * INSPECT_CPU_S + 2,
        )  # fmt: skip
        result = reply["result"]
        if reply["status"] != 0 or result is None or "error" in result:
            raise BenchError(f"inspecting {op.name} failed: {reply}")
        inspections[op.name] = result
        yield


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def end_to_end(workload: Workload, tally: Tally, counted: list[dict],
               setups: list[float]) -> tuple[dict, dict]:  # fmt: skip
    latency = [reply["result"]["seconds"] for _, reply in tally.ok]
    rss = [reply["maxrss_kb"] / 1024 for _, reply in tally.ok]
    busy: dict[str, list[float]] = {}
    for op, reply in tally.ok:
        busy.setdefault(op.name, []).append(reply["busy_s"])
    lines = [sum(result["lines"].values()) for result in counted]
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(latency),
        "op_tail_s": percentile(latency, workload.tail_pct),
        # one pass over the completed inputs, each at its median busy time:
        # a sample slowed by a burst of other load on the host moves it less
        # than it moves the mean
        "ops_per_s": len(busy) / sum(statistics.median(b) for b in busy.values()),
        "peak_rss_mb": max(rss),
        "lines_per_op": sum(lines) / len(lines),
    }
    samples = {
        "setup_s": summary(setups),
        "op_s": summary(latency),
        "rss_mb": summary(rss),
        "lines": summary(lines),
    }
    return values, samples


def per_layer(tally: Tally, counted: list[dict]) -> tuple[dict, dict]:
    n = len(tally.ok)
    values = dict.fromkeys(COUNTERS, 0.0)
    for metric, line_metric in GROUPS.values():
        values[metric] = 0.0
        if line_metric:
            values[line_metric] = 0.0
    for _, reply in tally.ok:
        result = reply["result"]
        for key, count in result["counts"].items():
            values[key] += count / n
        spans = result["spans"]
        own = [end - start for _, _, start, end, _ in spans]
        for _, _, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (_, group, *_), seconds in zip(spans, own):
            values[GROUPS[group][0]] += seconds / n
    for result in counted:
        for group, lines in result["lines"].items():
            if group and GROUPS[group][1]:
                values[GROUPS[group][1]] += lines / len(counted)
    traced = [reply["result"]["seconds"] for _, reply in tally.ok]
    values["trace.op_p50_s"] = statistics.median(traced)
    values["count.op_p50_s"] = statistics.median(r["seconds"] for r in counted)
    return values, {"op_s": summary(traced)}


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run(name: str, seed: int, seconds: float, trace: bool, label: str | None,
        max_passes: int | None = None) -> dict:  # fmt: skip
    workload = WORKLOADS[name]()
    OUT.mkdir(exist_ok=True)
    setups = None
    if not trace:
        import_time()  # writes the .pyc files
        setups = []
    with Server() as server:
        mode = "span" if trace else "plain"
        tally, passes, counted, inspections = timed_passes(
            server, workload, seed, seconds, mode, setups, max_passes
        )
        if not tally.ok:
            raise BenchError(f"no operation of {name} completed: {tally.problems[:3]}")
        if not counted:
            raise BenchError(f"no operation of {name} completed the counting pass")
        tally.problems += workload.final_checks(inspections)
        numpy_version = server.ready["numpy"]
    if trace:
        values, samples = per_layer(tally, counted)
    else:
        setups += [import_time() for _ in range(SETUP_RUNS - len(setups))]
        values, samples = end_to_end(workload, tally, counted, setups)
    label = label or f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "label": label, "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "commit": commit(), "python": platform.python_version(),
        "numpy": numpy_version, "passes": passes, "attempted": tally.attempted,
        "failed": sum(tally.failed.values()), "failed_ops": dict(tally.failed),
        "problems": tally.problems, "correct": not tally.problems,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()},
        "samples": samples,
    }  # fmt: skip
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        with open(OUT / f"spans_{label}.jsonl", "w", encoding="utf-8") as out:
            for index, (op, reply) in enumerate(tally.ok):
                for span_name, group, start, end, parent in reply["result"]["spans"]:
                    out.write(json.dumps({
                        "op": index, "input": op.name, "name": span_name, "group": group,
                        "start": start, "end": end, "parent": parent,
                    }) + "\n")  # fmt: skip
    return record


def smoke() -> int:
    """One traced pass per workload; fails when a layer metric that the
    workload should move reads zero (a wrapper patched in the wrong place)."""
    status = 0
    for name, required in EXERCISES.items():
        record = run(name, seed=1, seconds=0, trace=True, label=f"smoke-{name}", max_passes=1)
        zero = [m for m in required if not record["metrics"][m]["value"]]
        for problem in record["problems"]:
            print(f"{name}: incorrect: {problem}")
        if zero:
            print(f"{name}: zero per-layer metrics: {', '.join(zero)}")
        if zero or record["problems"]:
            status = 1
        else:
            print(f"{name}: ok ({len(required)} layer metrics non-zero, "
                  f"{record['failed']} of {record['attempted']} failed: {record['failed_ops']})")
    return status


def baseline(runs: int, seconds: float, label: str) -> int:
    """`runs` seeds per workload, each in a fresh `run.py` process started
    with the same arguments as a single run, plus one traced run; writes
    bench/BENCH_<label>.json."""
    out: dict = {"commit": commit(), "python": platform.python_version(),
                 "numpy": np.__version__, "runs": runs, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        records = []
        for seed, trace in [(s, 0) for s in range(1, runs + 1)] + [(1, 1)]:
            command = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
            records.append(json.loads(done.stdout.strip().splitlines()[-1]))
        plain = records[:-1]
        entry = {
            "attempted": [r["attempted"] for r in plain],
            "failed": [r["failed"] for r in plain],
            "correct": all(r["correct"] for r in records),
            "metrics": {},
        }
        for metric in [*plain[0]["metrics"], *records[-1]["metrics"]]:
            source = plain if metric in plain[0]["metrics"] else records[-1:]
            values = [r["metrics"][metric]["value"] for r in source]
            stats = summary(values)
            if stats.get("median"):
                stats["spread"] = stats.get("iqr", 0.0) / stats["median"]
            entry["metrics"][metric] = {"unit": source[0]["metrics"][metric]["unit"], **stats}
            if metric in END_TO_END:
                print(f"{name:13} {metric:13} median {stats['median']:.6g}  "
                      f"spread {stats.get('spread', 0.0):.4f}")
        out["workloads"][name] = entry
    (BENCH / f"BENCH_{label}.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--baseline", type=int, metavar="RUNS")
    args = parser.parse_args()
    for needed in (SRC / "ogkernel" / "cli.py", ROOT / "tests" / "corpus"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    try:
        if args.smoke:
            return smoke()
        if args.baseline:
            return baseline(args.baseline, args.seconds, args.label or "baseline")
        if not args.workload:
            parser.error("--workload is required")
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.label)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"]:
        print(f"incorrect: {problem}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"],
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
