"""Layer boundaries of ogkernel, wrapped from outside the package.

`install` patches each boundary function where its callers look the name up
(modules import by name, so `cli.verify_trace` and `kernel.interpret` are
patched in `cli` and `kernel`, not only in their home modules).  It runs in a
forked child just before one operation, so nothing outlives the operation.

A `Recorder` works in one of two modes:

* ``span``: each boundary call records ``[name, group, start, end, parent]``
  and bumps the layer counters of the benchmark's layer table;
* ``count``: no clock is read; a `sys.settrace` hook counts Python line
  events and charges each to the group on top of the boundary stack.

A call nested in a boundary of the same layer is charged to the outermost
one (a `verify_judgment` inside `soundness_sweep` is sweep time), so the
self time of a group is its spans' time minus the time of child spans of
other layers.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = str(Path(__file__).resolve().parent)

KERNEL_RULES = (
    "axiom",
    "gen_intro",
    "mor_intro",
    "bin_fn_from_mor",
    "domain_intro",
    "set_intro",
    "squant_from_powerset",
    "coherent_family",
    "coherent_limit",
    "eq_within_domain",
)


class Recorder:
    def __init__(self, mode: str):
        if mode not in ("span", "count"):
            raise ValueError(f"unknown recorder mode {mode!r}")
        self.mode = mode
        self.stack: list[tuple[str, str, int]] = []  # (layer, group, span index)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.lines: Counter = Counter()  # line events by group; "" is outside
        self.top = ""
        self.replayed_nodes: set[int] = set()

    def call(self, name, layer, group, fn, args, kwargs, after):
        stack = self.stack
        if stack and stack[-1][0] == layer:
            group = stack[-1][1]
        if self.mode == "count":
            stack.append((layer, group, -1))
            self.top = group
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.top = stack[-1][1] if stack else ""
        span = [name, group, 0.0, 0.0, stack[-1][2] if stack else -1]
        stack.append((layer, group, len(self.spans)))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()
        if after is not None:
            after(self, result, args)
        return result

    # -- line counting

    def start_counting(self) -> None:
        lines = self.lines

        def on_line(frame, event, arg):
            if event == "line":
                lines[self.top] += 1
            return on_line

        def on_call(frame, event, arg):
            if frame.f_code.co_filename.startswith(BENCH_DIR):
                return None
            return on_line

        sys.settrace(on_call)

    def stop_counting(self) -> None:
        sys.settrace(None)

    def finish(self) -> None:
        if self.replayed_nodes:
            self.counts["kernel.unique_nodes"] = len(self.replayed_nodes)


# -- counters taken at the boundaries (span mode only)


def _count(key, measure=lambda result, args: 1):
    def after(rec, result, args):
        rec.counts[key] += measure(result, args)

    return after


def _after_replay(rec, result, args):
    rec.counts["kernel.replay_nodes"] += result.node_count
    seen = rec.replayed_nodes
    todo = [args[0].node]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.children)


def _after_sweep(rec, result, args):
    rec.counts["semantics.sweep_items"] += len(result.items)
    rec.counts["semantics.not_checkable"] += result.not_checkable


def install(rec: Recorder) -> None:
    """Patch every boundary of the layer table to report to `rec`."""
    # `ogkernel.elaborate` names a function in the package namespace, so the
    # modules are taken from the import system, not as package attributes.
    cli, elaborate, hf, kernel, semantics, stdlib, streams = (
        importlib.import_module(f"ogkernel.{name}")
        for name in ("cli", "elaborate", "hf", "kernel", "semantics", "stdlib", "streams")
    )

    def wrap(fn, name, layer, group, after=None):
        def boundary(*args, **kwargs):
            return rec.call(name, layer, group, fn, args, kwargs, after)

        return boundary

    def after_rule(rec, result, args):
        rec.counts["kernel.rule_calls"] += 1
        if isinstance(result, kernel.Theorem):
            rec.counts["kernel.theorems"] += 1

    def patch(owners, attr, layer, group, after=None):
        for owner in owners:
            fn = getattr(owner, attr)
            setattr(owner, attr, wrap(fn, f"{owner.__name__}.{attr}", layer, group, after))

    patch((cli, elaborate), "parse_source", "surface", "surface",
          _count("surface.decls", lambda r, a: len(r[0])))
    patch((cli,), "elaborate_files", "elaborate", "elaborate",
          _count("elaborate.items", lambda r, a: len(r.items)))
    for method in KERNEL_RULES:
        patch((kernel.Kernel,), method, "kernel", "kernel.rule", after_rule)
    patch((cli,), "verify_trace", "kernel", "kernel.replay", _after_replay)
    patch((elaborate, stdlib), "evidence_models", "stdlib", "stdlib.evidence",
          _count("stdlib.evidence_models", lambda r, a: len(r)))
    patch((cli,), "soundness_sweep", "semantics", "semantics.sweep", _after_sweep)
    patch((cli,), "verify_axiom_instances", "semantics", "semantics.axioms")
    patch((semantics, elaborate), "verify_judgment", "semantics", "semantics.other",
          _count("semantics.judgment_calls"))
    _patch_interpret(rec, wrap, kernel, semantics)
    build = hf.HFUniverse.build
    hf.HFUniverse.build = staticmethod(wrap(build, "HFUniverse.build", "hf", "hf"))
    patch((cli,), "check_zfc1_instances", "hf", "hf",
          _count("hf.instances", lambda r, a: r.total_instances))
    patch((cli, streams), "ep_decide", "streams", "streams.ep", _count("streams.ep_queries"))
    patch((cli, streams), "demonstrate_gap", "streams", "streams.gap")
    patch((streams,), "is_coherent", "streams", "streams.coherence",
          _count("streams.coherence_stages", lambda r, a: len(a[0])))
    patch((cli.Report,), "to_json", "cli", "cli.report",
          _count("cli.report_bytes", lambda r, a: len(r)))
    patch((cli,), "emit_report", "cli", "cli.report")


def _patch_interpret(rec, wrap, kernel, semantics) -> None:
    """`interpret` is an lru_cache; a call is a materialisation when the
    cache's miss count moves.  `verify_axiom_instances` binds it as a
    default argument, so that default is patched too."""
    cached = semantics.interpret

    def measured(*args):
        if rec.mode == "count":
            return cached(*args)
        misses = cached.cache_info().misses
        carrier = cached(*args)
        if cached.cache_info().misses != misses:
            rec.counts["semantics.carrier_objects"] += len(carrier)
        return carrier

    boundary = wrap(measured, "semantics.interpret", "semantics", "semantics.other")
    semantics.interpret = boundary
    kernel.interpret = boundary
    semantics.verify_axiom_instances.__defaults__ = (boundary,)
