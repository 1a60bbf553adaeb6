"""The benchmark tracer's targets must exist in the package.

``perfbench/tracer.py`` wraps each name in ``TARGETS`` for the traced
benchmark run; a renamed or deleted function would break that run, so it
fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for target in tracer.TARGETS:
        module, *path = target.split(".")
        obj = importlib.import_module(f"lagpaths.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(target)
    assert not missing, missing
