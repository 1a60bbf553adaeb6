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


def test_tracer_rhs_labels_cover_every_model():
    # the traced run reports evaluate_rhs per model under these labels
    from lagpaths.dynamics import MODELS

    assert _load_tracer().LABELS["dynamics.evaluate_rhs"] == tuple(MODELS)
