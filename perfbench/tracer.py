"""Span tracer used by the benchmark's traced run.

A span is one call of a wrapped function.  Each thread keeps its own stack
of open spans, so a span's self time is its duration minus the durations of
the child spans opened *in the same thread*; spans recorded in worker-pool
threads are charged to those threads and never subtracted from the caller.
``total_s`` counts only the outermost span of a name in a thread, so
recursion is not double counted.

``instrument_lagpaths`` wraps the package's public functions from outside
the package: every module global that refers to a wrapped function is
replaced, so ``from .jets import mul_coeffs`` call sites are traced too, and
methods are patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        # frame: [name, start, time covered by child spans]
        self._stack().append([name, self._clock(), 0.0])

    def exit(self) -> None:
        stack = self._stack()
        name, start, child = stack.pop()
        duration = self._clock() - start
        if stack:
            stack[-1][2] += duration
        outermost = all(frame[0] != name for frame in stack)
        with self._lock:
            rec = self.spans.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0}
            )
            rec["calls"] += 1
            rec["self_s"] += duration - child
            if outermost:
                rec["total_s"] += duration

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str, label=None, on_call=None):
        """Wrap fn in a span named ``name`` (plus ``.label(args)`` if given);
        ``on_call(tracer, *args, **kwargs)`` records counts before the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if label is None else f"{name}.{label(*args, **kwargs)}"
            if on_call is not None:
                on_call(self, *args, **kwargs)
            self.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper


# -- lagpaths instrumentation ---------------------------------------------------


def _rhs_model(spec, state, threads=1, need_grad=True):
    return spec.model


def _rhs_counts(tracer, spec, state, threads=1, need_grad=True):
    # every target row is summed against every source particle
    tracer.count("dynamics.evaluate_rhs.pairs", state.n * state.n)


def _mul_counts(tracer, a, b):
    # computed from shapes: one multiply-add per (n, k <= n) pair and
    # broadcast element; bytes = inputs read once plus output written once
    orders = a.shape[0]
    width = math.prod(np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    tracer.count("jets.mul_coeffs.madds", orders * (orders + 1) // 2 * width)
    tracer.count("jets.mul_coeffs.bytes", 8 * (a.size + b.size + orders * width))


# "<module>.<attribute path>"; each is also its span name
TARGETS = (
    "dynamics.evaluate_rhs", "dynamics.rk4_step", "dynamics.grad_u_sup",
    "dynamics.chord_arc", "dynamics.velocity", "dynamics.init_grid",
    "dynamics.incompressibility_residual", "dynamics.invariants_euler2d",
    "jets.mul_coeffs", "jets.pow_coeffs", "jets.exp_coeffs", "jets.kernel_on_jet",
    "taylor.time_jets_fast", "taylor.time_jets_oracle", "taylor.taylor_step",
    "taylor.estimate_radius", "taylor.fit_cauchy", "taylor.holder_stats",
    "taylor.paper_radius_bound",
    "combinatorics.enumerate_partitions_multi", "combinatorics.partitions_by_alpha",
    "combinatorics.magic_identity_1d", "combinatorics.magic_identity_multi",
    "combinatorics.check_factorial_bound", "combinatorics.S_n_identity",
    "combinatorics.convolution_identity",
    "kernels.ScalarKernel.derive", "kernels.ScalarKernel.derive_multi",
    "kernels.ScalarKernel.evaluate", "kernels.verify_derivative_bound",
    "kernels.circle_mean", "kernels.split_gaussian", "kernels.catalog",
    "scenarios.build_scenario", "scenarios.seeded_sqg_cloud",
    "cli.RunConfig.from_dict", "cli.build_run", "cli.append_state_rows",
    "cli.run_simulation", "cli.run_taylor_analysis", "cli.run_radius_bound",
    "cli.run_identity_suite", "cli.run_kernel_suite",
)
# target -> (span label from the arguments, count recorder)
HOOKS = {
    "dynamics.evaluate_rhs": (_rhs_model, _rhs_counts),
    "jets.mul_coeffs": (None, _mul_counts),
}

# lru-cached functions whose cache_info() gives a hit ratio
CACHED = ("combinatorics.partitions_by_alpha", "kernels.catalog")
# span labels of the labelled targets, and the counters recorded
LABELS = {"dynamics.evaluate_rhs": ("sqg", "euler2d", "ipm", "boussinesq2d", "euler3d")}
COUNTS = ("dynamics.evaluate_rhs.pairs", "jets.mul_coeffs.madds", "jets.mul_coeffs.bytes")


def span_names() -> list[str]:
    """Every span name the instrumentation can record."""
    names = []
    for target in TARGETS:
        names += [f"{target}.{label}" for label in LABELS.get(target, ())] or [target]
    return names


def _replace_everywhere(orig, wrapped) -> None:
    for name, mod in list(sys.modules.items()):
        if name != "lagpaths" and not name.startswith("lagpaths."):
            continue
        hits = [k for k, v in vars(mod).items() if v is orig]
        for k in hits:
            setattr(mod, k, wrapped)


def instrument_lagpaths(tracer: Tracer) -> dict:
    """Wrap every target; returns the unwrapped lru-cached functions."""
    originals = {}
    for target in TARGETS:
        module, path = target.split(".", 1)
        label, on_call = HOOKS.get(target, (None, None))
        mod = importlib.import_module(f"lagpaths.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.wrap(raw.__func__, target, label, on_call))
            else:
                wrapped = tracer.wrap(raw, target, label, on_call)
            setattr(cls, attr, wrapped)
            continue
        orig = getattr(mod, path)
        originals[target] = orig
        _replace_everywhere(orig, tracer.wrap(orig, target, label, on_call))
    return {target: originals[target] for target in CACHED}


def cache_stats(cached: dict) -> dict:
    out = {}
    for target, fn in cached.items():
        info = fn.cache_info()
        out[target] = {"hits": info.hits, "misses": info.misses}
    return out
