"""Batch command-line front end with deterministic text/JSON reports.

Commands:
    check FILES...     parse, elaborate, and verify traces of `.og` files
    model [FILES...]   soundness sweep + axiom instances + ZFC-1 instances
    limits [...]       the coherent-limit gap demo, or per-stream membership
    axioms             list the five axioms

Exit codes: 0 all checks pass, 1 some check fails, 2 parse/usage error,
3 internal fault.  JSON reports contain no wall-clock data; timings go to
the `--timings` sidecar.  `OGK_COLOR=1` turns on text coloring.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .elaborate import ElabResult, Item, elaborate_files
from .hf import HFUniverse, check_zfc1_instances
from .kernel import AXIOM_STATEMENTS, AxiomId, verify_trace
from .semantics import FAILS, HOLDS, default_model, soundness_sweep, verify_axiom_instances
from .stdlib import prelude_source
from .streams import (
    BoundError,
    StreamSpecError,
    demonstrate_gap,
    ep_decide,
    parse_stream_spec,
)
from .surface import parse_source
from .terms import render

__all__ = ["RunConfig", "Report", "run", "emit_report", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class RunConfig:
    command: str  # check | model | limits | axioms
    inputs: tuple[str, ...] = ()
    max_size: int = 3
    horizon: int = 4096
    preperiod_bound: int = 64
    period_bound: int = 64
    demo: bool = False
    format: str = "text"
    out: str | None = None
    timings: str | None = None


@dataclass(frozen=True)
class Report:
    version: str
    command: str
    items: tuple[Item, ...]

    @property
    def summary(self) -> dict[str, int]:
        counts = {"pass": 0, "fail": 0, "assumed": 0}
        for item in self.items:
            if item.status in counts:
                counts[item.status] += 1
        return counts

    def to_dict(self) -> dict:
        items = []
        for item in self.items:
            entry: dict = {
                "name": item.name,
                "status": item.status,
                "detail": item.detail,
            }
            if item.witness is not None:
                entry["witness"] = item.witness
            items.append(entry)
        return {
            "version": self.version,
            "command": self.command,
            "items": items,
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        items = tuple(
            Item(
                entry["name"],
                entry["status"],
                entry.get("detail", ""),
                entry.get("witness"),
            )
            for entry in data["items"]
        )
        return cls(data["version"], data["command"], items)

    def to_text(self, color: bool = False) -> str:
        lines = []
        for item in self.items:
            status = item.status.upper()
            if color:
                code = {"PASS": "32", "FAIL": "31", "ASSUMED": "33"}.get(status, "36")
                status = f"\x1b[{code}m{status}\x1b[0m"
            line = f"{status:<8} {item.name}"
            if item.detail:
                line += f" | {item.detail}"
            if item.witness:
                line += f" [witness: {item.witness}]"
            lines.append(line)
        counts = self.summary
        lines.append(
            f"summary: {counts['pass']} pass, {counts['fail']} fail, "
            f"{counts['assumed']} assumed"
        )
        return "\n".join(lines) + "\n"


class UsageError(Exception):
    pass


def _read_inputs(config: RunConfig) -> list[tuple[Path, list]]:
    """Parse all input files; raises UsageError on missing files or syntax
    errors (diagnostics are printed to stderr first)."""
    sources: list[tuple[Path, list]] = []
    had_errors = False
    for name in config.inputs:
        path = Path(name)
        if not path.exists():
            raise UsageError(f"file not found: {name}")
        decls, diagnostics = parse_source(path.read_text("utf-8"))
        for diag in diagnostics:
            print(diag.format(str(path)), file=sys.stderr)
        if diagnostics:
            had_errors = True
        sources.append((path, decls))
    if had_errors:
        raise UsageError("syntax errors in input files")
    return sources


def _default_prelude() -> list[tuple[Path, list]]:
    decls, diagnostics = parse_source(prelude_source())
    if diagnostics:  # the shipped prelude must always parse
        raise RuntimeError("internal: shipped prelude has syntax errors")
    return [(Path("prelude.og"), decls)]


def _items_from_elab(result: ElabResult) -> list[Item]:
    items = list(result.items)
    for diag in result.diagnostics:
        items.append(
            Item(
                f"{diag.code} at {diag.span.line}:{diag.span.col}",
                "fail",
                diag.message,
            )
        )
    return items


def _run_check(config: RunConfig, timings: dict[str, float]) -> Report:
    started = time.perf_counter()
    sources = _read_inputs(config)
    timings["parse"] = time.perf_counter() - started
    started = time.perf_counter()
    result = elaborate_files(sources)
    items = _items_from_elab(result)
    for thm in result.theorems:
        trace = verify_trace(thm)
        items.append(
            Item(
                f"trace {render(thm.judgment)}",
                "pass" if trace.passed else "fail",
                f"{trace.node_count} nodes replayed",
            )
        )
    timings["elaborate"] = time.perf_counter() - started
    return Report(__version__, "check", tuple(items))


def _run_model(config: RunConfig, timings: dict[str, float]) -> Report:
    sources = _read_inputs(config) if config.inputs else _default_prelude()
    result = elaborate_files(sources)
    items = _items_from_elab(result)

    started = time.perf_counter()
    sweep = soundness_sweep(result.theorems, config.max_size)
    by_judgment: dict[str, list] = {}
    for entry in sweep.items:
        by_judgment.setdefault(entry.judgment, []).append(entry)
    for judgment, entries in by_judgment.items():
        fails = [e for e in entries if e.status == FAILS]
        checked = [e for e in entries if e.status == HOLDS]
        name = f"soundness {judgment}"
        if fails:
            items.append(
                Item(
                    name,
                    "fail",
                    f"fails in {len(fails)}/{len(entries)} models",
                    dict(fails[0].witness or ()) | {"model": fails[0].model},
                )
            )
        elif not checked:
            items.append(Item(name, "skipped", "not finitely checkable at this bound"))
        else:
            detail = f"holds in {len(checked)}/{len(entries)} models"
            if len(checked) != len(entries):
                detail += " (rest not finitely checkable)"
            items.append(Item(name, "pass", detail))
    timings["soundness_sweep"] = time.perf_counter() - started

    started = time.perf_counter()
    for check in verify_axiom_instances(default_model(nat_bound=config.max_size)):
        status = {HOLDS: "pass", FAILS: "fail"}.get(check.status, "assumed")
        items.append(
            Item(
                f"axiom {check.axiom}",
                status,
                check.detail,
                dict(check.witness) if check.witness else None,
            )
        )
    timings["axiom_instances"] = time.perf_counter() - started

    started = time.perf_counter()
    report = check_zfc1_instances(HFUniverse.build(3))
    for family in report.families:
        items.append(
            Item(
                f"zfc1 {family.name} (rank {report.rank})",
                "pass" if family.ok else "fail",
                f"{family.instances} instances, {len(family.failures)} failures",
            )
        )
    timings["zfc1"] = time.perf_counter() - started
    return Report(__version__, "model", tuple(items))


def _run_limits(config: RunConfig, timings: dict[str, float]) -> Report:
    items: list[Item] = []
    started = time.perf_counter()
    if config.demo:
        try:
            report = demonstrate_gap(
                preperiod_bound=config.preperiod_bound,
                period_bound=config.period_bound,
                horizon=config.horizon,
            )
        except BoundError as exc:
            raise UsageError(str(exc))
        for name, ok, detail in report.sub_results():
            items.append(Item(name, "pass" if ok else "fail", detail))
        items.append(
            Item("conclusion", "pass" if report.passed else "fail", report.conclusion)
        )
    elif not config.inputs:
        raise UsageError("limits needs --demo or at least one stream spec")
    for spec in config.inputs:
        try:
            stream = parse_stream_spec(spec)
            verdict = ep_decide(
                stream, config.preperiod_bound, config.period_bound, config.horizon
            )
        except (StreamSpecError, BoundError) as exc:
            raise UsageError(str(exc))
        items.append(Item(f"ep-membership {spec}", "pass", verdict.describe()))
    timings["limits"] = time.perf_counter() - started
    return Report(__version__, "limits", tuple(items))


def _run_axioms(config: RunConfig, timings: dict[str, float]) -> Report:
    items = [
        Item(axiom.value, "assumed", AXIOM_STATEMENTS[axiom]) for axiom in AxiomId
    ]
    return Report(__version__, "axioms", tuple(items))


def run(config: RunConfig) -> tuple[int, Report | None]:
    """Execute a command; returns (exit code, report or None on usage error)."""
    timings: dict[str, float] = {}
    runners = {
        "check": _run_check,
        "model": _run_model,
        "limits": _run_limits,
        "axioms": _run_axioms,
    }
    if config.command not in runners:
        raise UsageError(f"unknown command {config.command!r}")
    report = runners[config.command](config, timings)
    if config.timings:
        Path(config.timings).write_text(
            json.dumps({"command": config.command, "seconds": timings}, indent=2) + "\n",
            encoding="utf-8",
        )
    exit_code = EXIT_OK if report.summary["fail"] == 0 else EXIT_CHECK_FAILED
    return exit_code, report


def emit_report(report: Report, format: str, out: str | None) -> int:
    """Serialize the report; returns an exit code (3 on unwritable output)."""
    if format == "json":
        payload = report.to_json()
    else:
        color = os.environ.get("OGK_COLOR") == "1" and out is None
        payload = report.to_text(color=color)
    if out is None:
        sys.stdout.write(payload)
        return EXIT_OK
    try:
        Path(out).write_text(payload, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogk",
        description="object-generator kernel: proof checking, finite-model "
        "verification, and the coherent-limit laboratory",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", metavar="PATH")
        p.add_argument("--timings", metavar="PATH")

    p_check = sub.add_parser("check", help="parse, elaborate, and verify .og files")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    common(p_check)

    p_model = sub.add_parser("model", help="run the finite-model oracle")
    p_model.add_argument("files", nargs="*", metavar="FILE")
    p_model.add_argument("--max-size", type=int, default=3, metavar="N")
    common(p_model)

    p_limits = sub.add_parser("limits", help="coherent-limit laboratory")
    p_limits.add_argument("specs", nargs="*", metavar="STREAM")
    p_limits.add_argument("--demo", action="store_true")
    p_limits.add_argument("--horizon", type=int, default=4096, metavar="N")
    p_limits.add_argument("--preperiod-bound", type=int, default=64, metavar="N")
    p_limits.add_argument("--period-bound", type=int, default=64, metavar="N")
    common(p_limits)

    p_axioms = sub.add_parser("axioms", help="list the five axioms")
    common(p_axioms)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    inputs: tuple[str, ...] = ()
    if args.command == "check":
        inputs = tuple(args.files)
    elif args.command == "model":
        inputs = tuple(args.files)
    elif args.command == "limits":
        inputs = tuple(args.specs)
    return RunConfig(
        command=args.command,
        inputs=inputs,
        max_size=getattr(args, "max_size", 3),
        horizon=getattr(args, "horizon", 4096),
        preperiod_bound=getattr(args, "preperiod_bound", 64),
        period_bound=getattr(args, "period_bound", 64),
        demo=getattr(args, "demo", False),
        format=args.format,
        out=args.out,
        timings=args.timings,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    config = _config_from_args(args)
    try:
        exit_code, report = run(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # internal fault
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    emit_code = emit_report(report, config.format, config.out)
    return emit_code if emit_code != EXIT_OK else exit_code


if __name__ == "__main__":
    sys.exit(main())
