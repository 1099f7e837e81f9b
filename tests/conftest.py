"""Fixtures shared by the test modules."""

from __future__ import annotations

import sys

import pytest

from ogkernel.kernel import _SEAL, Theorem


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
