"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
import sys

import pytest

from ogkernel.elaborate import ElabResult, elaborate_files
from ogkernel.kernel import _SEAL, Theorem
from ogkernel.semantics import Carrier
from ogkernel.surface import (
    AssertDecl,
    AxiomRef,
    Decl,
    GeneratorDecl,
    IncludeDecl,
    LimitDecl,
    ModelCheckDecl,
    MorphismDecl,
    ProofExpr,
    parse_source,
    read_source,
)
from ogkernel.terms import GenExpr, Table, Tag, render


def elaborate_text(source: str, path: str | os.PathLike = "input.og") -> ElabResult:
    """`source` parsed and elaborated in a session of its own, as `ogk check`
    runs the file `path` (its includes are read from that file's directory),
    or only its syntax errors when it has any."""
    decls, diagnostics = parse_source(source)
    if diagnostics:
        return ElabResult((), (), tuple(diagnostics))
    return elaborate_files([(path, decls)])


def elaborate_path(path: str | os.PathLike) -> ElabResult:
    """The file at `path`, parsed and elaborated as `elaborate_text` does."""
    return elaborate_text(read_source(path), path)


def render_proof(p: ProofExpr) -> str:
    if isinstance(p, AxiomRef):
        return f"axiom {p.name}"
    # A subproof with its own `from` is parenthesized.
    subs = ", ".join(f"({t})" if " from " in t else t for t in map(render_proof, p.subproofs))
    return f"rule {p.name} from {subs}" if subs else f"rule {p.name}"


def render_decl(d: Decl) -> str:
    """A declaration as `.og` text: `parse_source(render_decl(d))` gives `d`
    back but for its span."""
    if isinstance(d, GeneratorDecl):
        if d.body is not None:
            return f"generator {d.name} := {render(d.body)};"
        if d.tags:
            return f"generator {d.name} primitive {{{', '.join(d.tags)}}};"
        return f"generator {d.name} primitive;"
    if isinstance(d, MorphismDecl):
        body = render(d.body) if isinstance(d.body, Table) else f"rule {render(d.body)}"
        return f"morphism {d.name} : {render(d.dom)} -> {render(d.cod)} := {body};"
    if isinstance(d, AssertDecl):
        return f"assert {render(d.judgment)} by {render_proof(d.proof)};"
    if isinstance(d, ModelCheckDecl):
        return f"model check {render(d.judgment)} upto {d.bound};"
    if isinstance(d, IncludeDecl):
        return f'include "{d.path}";'
    if isinstance(d, LimitDecl):
        if d.command == "demo":
            return "limit demo;"
        p, q, h = d.bounds  # type: ignore[misc]
        return f'limit member "{d.spec}" upto {p} {q} {h};'
    raise TypeError(f"cannot render {d!r}")


def parse_gen_expr(text: str) -> GenExpr:
    """A generator expression parsed from `text`, as an alias's body."""
    (decl,), diagnostics = parse_source(f"generator X := {text};")
    assert not diagnostics, diagnostics
    return decl.body


def carrier_objects(carrier: Carrier) -> tuple[Tag, ...]:
    """Every object tag of a carrier, in index order."""
    return tuple(map(carrier.tag, range(len(carrier))))


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "ogkernel":
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def _empty_caches():
    """Every `functools.lru_cache` of the package starts each test empty: a
    verdict, carrier or model list cached by an earlier test would outlive a
    monkeypatch of what it was computed from."""
    _clear_caches()


@pytest.fixture
def clear_caches():
    """`clear_caches()`: empty every `functools.lru_cache` of the package."""
    return _clear_caches


def _rejudge(thm: Theorem, path: tuple[int, ...], judgment) -> Theorem:
    """A forgery of `thm` whose trace node at `path` (child positions from the
    root) records `judgment`: that node and every node above it are rebuilt
    with the kernel's private seal, as no kernel operation would build them."""
    if not path:
        return Theorem(_SEAL, thm.kind, thm.label, judgment, thm.children, thm.payload)
    i, *rest = path
    child = _rejudge(thm.children[i], tuple(rest), judgment)
    children = (*thm.children[:i], child, *thm.children[i + 1 :])
    return Theorem(_SEAL, thm.kind, thm.label, thm.judgment, children, thm.payload)


@pytest.fixture
def rejudge():
    """`rejudge(thm, path, judgment)`: a forged copy of a theorem with one
    recorded judgment of its trace changed; theorems are immutable, so the
    path to that node is rebuilt."""
    return _rejudge


def _python_calls(run, name: str | None = None) -> int:
    calls = 0

    def on_event(frame, event, arg):
        nonlocal calls
        calls += event == "call" and name in (None, frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.fixture
def python_calls():
    """`python_calls(run, name=None)`: the profiler's call events while
    `run()` runs, a count of the Python functions it enters (generator
    resumes too), or of those named `name` alone."""
    return _python_calls


def _python_opcodes(run) -> int:
    opcodes = 0

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    def on_opcode(frame, event, arg):
        nonlocal opcodes
        opcodes += event == "opcode"
        return on_opcode

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return opcodes


@pytest.fixture
def python_opcodes():
    """`python_opcodes(run)`: the bytecode instructions that the Python
    functions entered while `run()` runs execute, an exact count of work that
    no layout of the source changes (work done in C is not seen)."""
    return _python_opcodes


def _line_events(run) -> int:
    events = 0

    def on_line(frame, event, arg):
        nonlocal events
        events += event == "line"
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line)
    try:
        run()
    finally:
        sys.settrace(previous)
    return events


@pytest.fixture
def line_events():
    """`line_events(run)`: the tracer's line events while `run()` runs, an
    exact count of the Python lines it executes, as the benchmark counts them."""
    return _line_events
