"""Fresh-process helpers that the benchmark runner starts, one per call.

    child.py env                         print versions and the jets route
    child.py setup CONFIG...             import the CLI, resolve each config
    child.py oracle SEED ORDER OUT       criterion-4 oracle vs fast jets
    child.py probe THREADS N ORDER OUT   single-layer timings on sqg_bump NxN
    child.py trace OUT cli ARGS...       ``lagpaths`` CLI under the tracer
    child.py trace OUT oracle ARGS...    the oracle check under the tracer

The runner puts the checkout's ``src`` first on PYTHONPATH.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path


def env() -> int:
    import numpy

    import lagpaths
    from lagpaths import _fastjets, cli  # noqa: F401  (caches cli bytecode before set-up is timed)

    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "numba": _fastjets.HAVE_NUMBA,
                "jets_route": "compiled" if _fastjets.HAVE_NUMBA else "generic",
                "lagpaths_file": lagpaths.__file__,
            }
        )
    )
    return 0


def setup(paths: list[str]) -> int:
    from lagpaths import cli

    for path in paths:
        cli.build_run(cli.RunConfig.from_dict(json.loads(Path(path).read_text())))
    return 0


def oracle(seed: str, order: str, out: str) -> int:
    import numpy as np

    from lagpaths import scenarios, taylor

    state, spec = scenarios.seeded_sqg_cloud(seed=int(seed))
    exact = taylor.time_jets_oracle(spec, state, order=int(order))
    fast = taylor.time_jets_fast(spec, state, order=int(order))
    scale = np.max(np.abs(fast.x_coeffs), axis=(1, 2), keepdims=True)
    rel = float(np.max(np.abs(exact.x_coeffs - fast.x_coeffs) / scale))
    Path(out).write_text(json.dumps({"max_rel_diff": rel, "n": state.n}) + "\n")
    return 0


def probe(threads: str, n_axis: str, order: str, out: str) -> int:
    """ROADMAP baseline layers on the SQG bump (32x32 and order 6 there)."""
    from lagpaths import dynamics, scenarios, taylor

    t = int(threads)
    state, spec = scenarios.build_scenario("sqg_bump", n_per_axis=int(n_axis))

    def timed(fn, repeats):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    result = {
        "evaluate_rhs": timed(lambda: dynamics.evaluate_rhs(spec, state, threads=t), 5),
        "rk4_step": timed(lambda: dynamics.rk4_step(spec, state, 0.01, threads=t), 3),
        "time_jets_fast": timed(
            lambda: taylor.time_jets_fast(spec, state, int(order), threads=t), 1
        ),
    }
    Path(out).write_text(json.dumps(result) + "\n")
    return 0


def trace(out: str, target: str, args: list[str]) -> int:
    from lagpaths import cli

    from tracer import Tracer, cache_stats, instrument_lagpaths

    tracer = Tracer()
    cached = instrument_lagpaths(tracer)
    try:
        if target == "cli":
            return cli.main(args)
        return oracle(*args)
    finally:
        Path(out).write_text(
            json.dumps(
                {
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                    "caches": cache_stats(cached),
                }
            )
            + "\n"
        )


def main(argv: list[str]) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "env":
        return env()
    if cmd == "setup":
        return setup(rest)
    if cmd == "oracle":
        return oracle(*rest)
    if cmd == "probe":
        return probe(*rest)
    if cmd == "trace":
        return trace(rest[0], rest[1], rest[2:])
    print(f"unknown child command {cmd!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
