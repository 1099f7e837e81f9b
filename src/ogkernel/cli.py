"""Batch command-line front end with deterministic text/JSON reports.

Commands:
    check FILES...     parse, elaborate, and verify each `.og` file in its own session
    model [FILES...]   soundness sweep + axiom instances + ZFC-1 instances
    limits [...]       the coherent-limit gap demo, or per-stream membership
    axioms             list the five axioms

Exit codes: 0 all checks pass, 1 some check fails, 2 parse/usage error,
3 internal fault.  JSON reports contain no wall-clock data; timings go to
the `--timings` sidecar.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import filterfalse
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import NamedTuple

from . import __version__
from .elaborate import ElabResult, Item, elaborate_files, gap_items, membership_item, sweep_item
from .hf import HFUniverse, check_zfc1_instances
from .kernel import AXIOM_STATEMENTS, verify_trace
from .semantics import (
    FAILS, HOLDS, SWEEP_SIZES, default_model, soundness_sweep, verify_axiom_instances
)
from .stdlib import prelude_source
from .streams import BoundError, demonstrate_gap, ep_decide
from .surface import StreamSpecError, parse_source, parse_stream_spec, read_source
from .terms import Term, render

__all__ = ["RunConfig", "Report", "run", "emit_report", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class RunConfig(NamedTuple):
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


class Report(Term, fields="version command items summary"):
    """A command's items and their summary, the number of pass, fail and
    assumed items, counted once; a `Term`, so no field is replaced after."""

    __slots__ = ()

    def __new__(cls, version: str, command: str, items: tuple[Item, ...]):
        statuses = list(map(attrgetter("status"), items))
        summary = {status: statuses.count(status) for status in ("pass", "fail", "assumed")}
        return tuple.__new__(cls, (cls.__name__, version, command, items, summary))

    def to_dict(self) -> dict:
        items = [item._asdict() for item in self.items]
        for entry in items:
            if entry["witness"] is None:
                del entry["witness"]
        return {"version": self.version, "command": self.command, "items": items,
                "summary": self.summary}

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), indent=2)` and a newline, byte for byte,
        without the pure-Python encoder that an indent selects: one template
        per item, each string (every field and witness entry is one) encoded
        as `json.dumps` does."""
        q = encode_basestring_ascii
        # one line, so that each item costs one line event
        items = [_ITEM % (q(n), q(s), q(d), "" if w is None else _witness(w)) for n, s, d, w in self.items]
        listed = "[%s\n  ]" % ",".join(items) if items else "[]"
        return _REPORT % (q(self.version), q(self.command), listed, *self.summary.values())

    def to_text(self) -> str:
        lines = []
        for item in self.items:
            line = f"{item.status.upper():<8} {item.name}"
            if item.detail:
                line += f" | {item.detail}"
            if item.witness:
                line += f" [witness: {item.witness}]"
            lines.append(line)
        lines.append("summary: {pass} pass, {fail} fail, {assumed} assumed".format_map(self.summary))
        return "\n".join(lines) + "\n"


# The layout of `json.dumps(indent=2)`: a report, and each item in its list.
_REPORT = (
    '{\n  "version": %s,\n  "command": %s,\n  "items": %s,\n  "summary": '
    '{\n    "pass": %d,\n    "fail": %d,\n    "assumed": %d\n  }\n}\n'
)
_ITEM = '\n    {\n      "name": %s,\n      "status": %s,\n      "detail": %s%s\n    }'


def _witness(witness: dict) -> str:
    """An item's witness field, led by its comma."""
    q = encode_basestring_ascii
    pairs = zip(map(q, witness), map(q, witness.values()))
    entries = ",".join(map("\n        %s: %s".__mod__, pairs))
    return ',\n      "witness": ' + ("{%s\n      }" % entries if entries else "{}")


class UsageError(Exception):
    pass


def _read_inputs(config: RunConfig) -> list[tuple[str, list]]:
    """Parse all input files; raises UsageError on missing or unreadable
    files or syntax errors (diagnostics are printed to stderr first)."""
    sources: list[tuple[str, list]] = []
    had_errors = False
    for name in config.inputs:
        path = _normal_path(name)
        try:
            source = read_source(path)
        except FileNotFoundError:
            raise UsageError(f"file not found: {name}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read {name}: {exc}") from None
        decls, diagnostics = parse_source(source)
        for diag in diagnostics:
            print(diag.format(path), file=sys.stderr)
        if diagnostics:
            had_errors = True
        sources.append((path, decls))
    if had_errors:
        raise UsageError("syntax errors in input files")
    return sources


def _normal_path(name: str) -> str:
    """`name` as reports name an input file, the way `str(Path(name))` writes it:
    no empty or `.` segment, and one leading slash, or two where it has two."""
    stripped = name.lstrip("/")
    root = "//" if len(name) - len(stripped) == 2 else "/" if stripped != name else ""
    return root + "/".join(filterfalse({"", "."}.__contains__, stripped.split("/"))) or "."


def _default_prelude() -> list[tuple[str, list]]:
    decls, diagnostics = parse_source(prelude_source())
    if diagnostics:  # the shipped prelude must always parse
        raise RuntimeError("internal: shipped prelude has syntax errors")
    return [("prelude.og", decls)]


def _items_from_elab(result: ElabResult) -> list[Item]:
    return list(result.items) + [
        Item(f"{diag.code} at {diag.span.line}:{diag.span.col}", "fail",
             ": ".join((*diag.within, diag.message)))
        for diag in result.diagnostics
    ]


def _per_file(sources, timings: dict[str, float], layer: str, body) -> list[Item]:
    """Elaborate each file in its own session and add `body(result)`'s items,
    timed under `layer`; with several files, each item name starts with its
    file's path."""
    timings["elaborate"] = timings[layer] = 0.0
    items: list[Item] = []
    for path, decls in sources:
        started = time.perf_counter()
        result = elaborate_files([(path, decls)])
        file_items = _items_from_elab(result)
        layer_started = time.perf_counter()
        timings["elaborate"] += layer_started - started
        file_items += body(result)
        timings[layer] += time.perf_counter() - layer_started
        if len(sources) > 1:
            file_items = [item._replace(name=f"{path}: {item.name}") for item in file_items]
        items += file_items
    return items


def _run_check(config: RunConfig, timings: dict[str, float]) -> Report:
    started = time.perf_counter()
    sources = _read_inputs(config)
    timings["surface"] = time.perf_counter() - started
    items = _per_file(sources, timings, "kernel.replay", _replay_items)
    return Report(__version__, "check", tuple(items))


def _replay_items(result: ElabResult) -> list[Item]:
    items: list[Item] = []
    for thm in result.theorems:
        trace = verify_trace(thm)
        detail = f"{trace.node_count} nodes replayed"
        if not trace.passed:
            detail += f"; {trace.failure}"
        items.append(
            Item(f"trace {render(thm.judgment)}", "pass" if trace.passed else "fail", detail)
        )
    return items


def _run_model(config: RunConfig, timings: dict[str, float]) -> Report:
    """The files' soundness sweeps, then the axiom-instance and ZFC-1 items once."""
    if config.max_size not in SWEEP_SIZES:
        sizes = f"{SWEEP_SIZES[0]}..{SWEEP_SIZES[-1]}"
        raise UsageError(f"--max-size must lie in {sizes}, found {config.max_size}")
    started = time.perf_counter()
    sources = _read_inputs(config) if config.inputs else _default_prelude()
    timings["surface"] = time.perf_counter() - started
    items = _per_file(
        sources, timings, "semantics.sweep", lambda result: _sweep_items(result, config.max_size)
    )

    started = time.perf_counter()
    for check in verify_axiom_instances(default_model(nat_bound=config.max_size)):
        status = {HOLDS: "pass", FAILS: "fail"}.get(check.status, "assumed")
        witness = dict(check.witness) if check.witness else None
        items.append(Item(f"axiom {check.axiom}", status, check.detail, witness))
    timings["semantics.axioms"] = time.perf_counter() - started

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
    timings["hf"] = time.perf_counter() - started
    return Report(__version__, "model", tuple(items))


def _sweep_items(result: ElabResult, max_size: int) -> list[Item]:
    return [
        sweep_item(f"soundness {render(item.judgment)}", item)
        for item in soundness_sweep(result.judgments, max_size).items
    ]


def _run_limits(config: RunConfig, timings: dict[str, float]) -> Report:
    if not config.demo and not config.inputs:
        raise UsageError("limits needs --demo or at least one stream spec")
    started = time.perf_counter()
    p, q, h = config.preperiod_bound, config.period_bound, config.horizon
    items: list[Item] = []
    try:
        if config.demo:
            items = gap_items(demonstrate_gap(preperiod_bound=p, period_bound=q, horizon=h))
        for stream in map(parse_stream_spec, config.inputs):
            items.append(membership_item(stream, ep_decide(stream, p, q, h)))
    except (StreamSpecError, BoundError) as exc:
        raise UsageError(str(exc))
    timings["streams"] = time.perf_counter() - started
    return Report(__version__, "limits", tuple(items))


def _run_axioms(config: RunConfig, timings: dict[str, float]) -> Report:
    items = (Item(axiom.value, "assumed", text) for axiom, text in AXIOM_STATEMENTS.items())
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
    exit_code = EXIT_OK if report.summary["fail"] == 0 else EXIT_CHECK_FAILED
    if config.timings:
        sidecar = json.dumps({"command": config.command, "seconds": timings}, indent=2) + "\n"
        exit_code = _write(config.timings, sidecar, "timings") or exit_code
    return exit_code, report


def emit_report(report: Report, format: str, out: str | None) -> int:
    """Serialize the report; returns an exit code (3 on unwritable output)."""
    payload = report.to_json() if format == "json" else report.to_text()
    if out is None:
        sys.stdout.write(payload)
        return EXIT_OK
    return _write(out, payload, "report")


def _write(path: str, payload: str, what: str) -> int:
    """Write `payload` to `path` as UTF-8, through the file descriptor and no
    text layer; returns an exit code (3 when it cannot)."""
    data = memoryview(payload.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


# The argv grammar: `ogk COMMAND [FLAG | POSITIONAL]...`, where a lone `--`
# ends the flags.  Each command maps to its summary, the name of its
# positionals (None: it takes none), their minimum count and its own flags; a
# flag maps to the `RunConfig` field it sets and the kind of its value: `bool`
# (the flag takes no value), `int`, `str`, or a tuple of the allowed values.
# Defaults are the `RunConfig` defaults.
_COMMON_FLAGS = {
    "--format": ("format", ("text", "json")),
    "--out": ("out", str),
    "--timings": ("timings", str),
}
_COMMANDS = {
    "check": ("parse, elaborate, and verify .og files", "FILE", 1, {}),
    "model": ("run the finite-model oracle", "FILE", 0, {"--max-size": ("max_size", int)}),
    "limits": (
        "coherent-limit laboratory",
        "STREAM",
        0,
        {
            "--demo": ("demo", bool),
            "--horizon": ("horizon", int),
            "--preperiod-bound": ("preperiod_bound", int),
            "--period-bound": ("period_bound", int),
        },
    ),
    "axioms": ("list the five axioms", None, 0, {}),
}


_METAVARS = {bool: "", int: " N", str: " PATH"}


def _help(command: str | None) -> str:
    if command is None:
        lines = ["usage: ogk [-h | --version] COMMAND [FLAGS] [ARGS]", "", "commands:"]
        lines += (f"  {name:<8} {spec[0]}" for name, spec in _COMMANDS.items())
        lines.append("'ogk COMMAND --help' lists the flags of a command.")
    else:
        summary, positional, minimum, flags = _COMMANDS[command]
        operands = f" {positional}..." if minimum else f" [{positional}...]" if positional else ""
        lines = [f"usage: ogk {command} [FLAGS]{operands}", "", summary, "", "flags:"]
        for flag, (field, kind) in {**flags, **_COMMON_FLAGS}.items():
            value = " " + "|".join(kind) if isinstance(kind, tuple) else _METAVARS[kind]
            default = RunConfig._field_defaults[field]
            lines.append(f"  {flag}{value}" + (f"  (default: {default})" if default else ""))
        lines.append("  -h, --help")
    return "\n".join(lines) + "\n"


def _is_flag(arg: str) -> bool:
    """A flag starts with `-`; a lone `-` and a negative integer do not count."""
    return arg.startswith("-") and arg != "-" and not arg[1:].isdigit()


def _parse_argv(argv: list[str]) -> RunConfig | str:
    """The `RunConfig` that `argv` asks for, or the help or version text to
    print; raises UsageError on malformed argv."""
    if not argv:
        raise UsageError(f"missing command (choose from {', '.join(_COMMANDS)})")
    command, rest = argv[0], iter(argv[1:])
    if command not in _COMMANDS:
        if command in ("-h", "--help"):
            return _help(None)
        if command == "--version":
            return __version__ + "\n"
        raise UsageError(f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    _, positional, minimum, flags = _COMMANDS[command]
    flags = {**flags, **_COMMON_FLAGS}
    fields: dict = {}
    inputs: list[str] = []
    for arg in rest:
        if not _is_flag(arg):
            inputs.append(arg)
            continue
        flag, has_value, value = arg.partition("=")
        if flag not in flags:
            if arg == "--":
                inputs += rest
            elif arg in ("-h", "--help"):
                return _help(command)
            else:
                raise UsageError(f"unrecognized flag {flag} for {command}")
            continue
        field, kind = flags[flag]
        if kind is bool:
            if has_value:
                raise UsageError(f"{flag} takes no value")
            fields[field] = True
            continue
        if not has_value:
            value = next(rest, None)
            if value is None or _is_flag(value):
                raise UsageError(f"{flag} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{flag} needs an integer, found {value!r}") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"{flag} must be one of {', '.join(kind)}, found {value!r}")
        fields[field] = value
    if positional is None and inputs:
        raise UsageError(f"{command} takes no arguments, found {inputs[0]!r}")
    if len(inputs) < minimum:
        raise UsageError(f"{command} needs at least {minimum} {positional}")
    return RunConfig(command, tuple(inputs), **fields)


def main(argv: list[str] | None = None) -> int:
    try:
        config = _parse_argv(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"ogk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(config, str):
        sys.stdout.write(config)
        return EXIT_OK
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
