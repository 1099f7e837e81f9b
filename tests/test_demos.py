"""The demo scripts print exactly the text pinned in `tests/demo_stdout/`."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
EXPECTED = Path(__file__).parent / "demo_stdout"


@pytest.mark.parametrize("name", ["building_the_sets", "model_checking", "limit_gap"])
def test_demo_stdout_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        env=env,
        timeout=60,
        check=True,
    )
    assert proc.stdout == (EXPECTED / f"{name}.txt").read_bytes()
