"""What the benchmark reads from the package must exist in it.

``perfbench/tracer.py`` wraps each name in ``TARGETS`` for the traced
benchmark run, and ``perfbench/child.py env`` probes the environment before
every run; a renamed or deleted name would break those runs, so it fails
here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    missing = []
    for target in tracer.TARGETS:
        module, *path = target.split(".")
        obj = importlib.import_module(f"lagpaths.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(target)
    assert not missing, missing


def test_benchmark_env_probe_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "env"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["jets_route"] == "generic"


def test_tracer_rhs_labels_cover_every_model():
    # the traced run reports evaluate_rhs per model under these labels
    from lagpaths.dynamics import MODELS

    assert _load_tracer().LABELS["dynamics.evaluate_rhs"] == tuple(MODELS)
