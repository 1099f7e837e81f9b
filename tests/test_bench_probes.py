"""The benchmark's layer probes still find every boundary they patch."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_probes_count_every_layer_of_check_and_model():
    # `bench/probes.py` patches functions by name; a renamed or deleted one
    # would fail every operation the benchmark counts.  The `model check`
    # declarations of file 09 reach the oracle's `verify_judgment`.
    script = (
        "import json, os, probes\n"
        "from ogkernel import cli\n"
        "rec = probes.Recorder('span')\n"
        "probes.install(rec)\n"
        "codes = [\n"
        "    cli.main([*argv, '--out', os.devnull])\n"
        "    for argv in (\n"
        "        ['check', 'tests/corpus/10_limit_lab.og'],\n"
        "        ['check', 'tests/corpus/09_model_checks.og'],\n"
        "        ['model', '--max-size', '2'],\n"
        "    )\n"
        "]\n"
        "print(json.dumps({'codes': codes, 'counts': rec.counts}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    counted = ("streams.ep_queries", "kernel.rule_calls", "semantics.sweep_items",
               "semantics.judgment_calls", "hf.instances")
    for key in counted:
        assert report["counts"].get(key, 0) > 0, key
