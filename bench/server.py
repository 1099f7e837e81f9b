"""Fork server: one process that has just imported `ogkernel.cli`.

The benchmark starts this script once per run and sends it one JSON request
per line on stdin.  For each request it forks; the child runs the request
under its own CPU-time, address-space and wall-clock limits and writes a
JSON result into a pipe.  The server reads the pipe to its end, reaps the
child with `wait4` and answers on stdout with the result, the child's exit
status, its peak resident set and the fork-to-reap time.

Every operation therefore starts from the state a fresh `ogk` process has
right after import: no `lru_cache` entry, no declared name and no parsed
file carries over from one operation to the next.  The server itself never
runs ogkernel code.
"""

from __future__ import annotations

import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from dataclasses import fields, is_dataclass
from pathlib import Path

import probes

import ogkernel
import ogkernel.cli as cli


def _address_space() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmSize in /proc/self/status")


def _limit(req: dict) -> None:
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    cpu = req["cpu_s"]
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))
    memory = _address_space() + req["mem_mb"] * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (memory, memory))
    signal.alarm(req["wall_s"])


def run_op(req: dict) -> dict:
    """Run `ogk <argv>` through `cli.main`, timed from the call to the
    written report."""
    out = Path(req["out"])
    out.unlink(missing_ok=True)
    rec = None if req["mode"] == "plain" else probes.Recorder(req["mode"])
    if rec is not None:
        probes.install(rec)
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    if rec is not None and rec.mode == "count":
        rec.start_counting()
    start = time.perf_counter()
    code = cli.main(list(req["argv"]))
    seconds = time.perf_counter() - start
    if rec is not None and rec.mode == "count":
        rec.stop_counting()
    result = {
        "exit": code,
        "seconds": seconds,
        "stderr": sys.stderr.getvalue(),
        "report": out.read_text("utf-8") if out.exists() else None,
    }
    if rec is not None:
        rec.finish()
        result["counts"] = dict(rec.counts)
        result["lines"] = dict(rec.lines)
        result["spans"] = [
            [name, group, begin - start, end - start, parent]
            for name, group, begin, end, parent in rec.spans
        ]
    return result


def _term_facts(term, names: set[str]) -> bool:
    """Collect the generator names in `term`; true when `Nat` occurs."""
    from ogkernel.terms import Named, Nat

    if isinstance(term, Nat):
        return True
    if isinstance(term, Named):
        names.add(term.name.text)
        return False
    if isinstance(term, tuple):
        parts = term
    elif is_dataclass(term):
        parts = tuple(getattr(term, f.name) for f in fields(term))
    else:
        return False
    found = False
    for part in parts:
        found = _term_facts(part, names) or found
    return found


def inspect(req: dict) -> dict:
    """Elaborate one input through the public API and report, per theorem,
    whether its trace replays, the canonical models of size `size` that
    refute it, its axiom multiset, and the names and `Nat` it mentions."""
    from ogkernel.elaborate import elaborate_files
    from ogkernel.kernel import axioms_used, verify_trace
    from ogkernel.semantics import FAILS, models_for_judgment, verify_judgment
    from ogkernel.stdlib import prelude_source
    from ogkernel.surface import parse_source
    from ogkernel.terms import render

    path = Path(req["path"]) if req["path"] else Path("prelude.og")
    source = path.read_text("utf-8") if req["path"] else prelude_source()
    decls, diagnostics = parse_source(source)
    if diagnostics:
        return {"parsed": False}
    theorems = []
    for thm in elaborate_files([(path, decls)]).theorems:
        judgment = thm.judgment
        names: set[str] = set()
        refuted = [
            model.describe()
            for model in models_for_judgment(judgment, req["size"])
            if verify_judgment(judgment, model).status == FAILS
        ]
        theorems.append(
            {
                "judgment": render(judgment),
                "replays": verify_trace(thm).passed,
                "refuted": refuted,
                "axioms": sorted(axiom.value for axiom in axioms_used(thm).elements()),
                "nat": _term_facts(judgment, names),
                "names": sorted(names),
            }
        )
    return {"parsed": True, "theorems": theorems}


def _child(req: dict, pipe: int) -> None:
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)
    try:
        _limit(req)
        result = run_op(req) if req["kind"] == "op" else inspect(req)
        payload = json.dumps(result).encode()
        code = 0
    except BaseException:
        payload = json.dumps({"error": traceback.format_exc()}).encode()
        code = 1
    view = memoryview(payload)
    while view:
        view = view[os.write(pipe, view) :]
    os._exit(code)


def serve(req: dict) -> dict:
    read_end, write_end = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        _child(req, write_end)
    os.close(write_end)
    chunks = []
    with os.fdopen(read_end, "rb") as pipe:
        while chunk := pipe.read(1 << 16):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    busy = time.perf_counter() - start
    payload = b"".join(chunks)
    return {
        "result": json.loads(payload) if payload else None,
        "status": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
        "busy_s": busy,
    }


def main() -> None:
    import numpy

    ready = {"ogkernel": ogkernel.__file__, "numpy": numpy.__version__}
    print(json.dumps(ready), flush=True)
    for line in sys.stdin:
        print(json.dumps(serve(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
