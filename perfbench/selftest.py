"""Self-tests of the benchmark: span arithmetic and shrunken workloads.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer, instrument_lagpaths  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_nested_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def derive(axis):
        clock.advance(2.0)

    def derive_multi(alpha):
        clock.advance(1.0)
        for axis, count in enumerate(alpha):
            for _ in range(count):
                derive(axis)
        clock.advance(0.5)

    derive = tracer.wrap(derive, "kernels.ScalarKernel.derive")
    derive_multi = tracer.wrap(derive_multi, "kernels.ScalarKernel.derive_multi")
    derive_multi((2, 1))
    outer = tracer.spans["kernels.ScalarKernel.derive_multi"]
    inner = tracer.spans["kernels.ScalarKernel.derive"]
    assert outer == {"calls": 1, "self_s": 1.5, "total_s": 7.5}
    assert inner == {"calls": 3, "self_s": 6.0, "total_s": 6.0}


def test_recursion_counts_total_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fact(n):
        clock.advance(1.0)
        return 1 if n <= 1 else n * fact(n - 1)

    fact = tracer.wrap(fact, "f")
    assert fact(4) == 24
    assert tracer.spans["f"] == {"calls": 4, "self_s": 4.0, "total_s": 4.0}


def test_worker_thread_spans_are_charged_to_their_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda _: time.sleep(0.05), "inner")
    local = tracer.wrap(lambda: time.sleep(0.02), "local")

    def outer():
        local()
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(inner, range(2)))

    tracer.wrap(outer, "outer")()
    out, loc, inn = (tracer.spans[k] for k in ("outer", "local", "inner"))
    # only the same-thread child is subtracted from the caller
    assert out["self_s"] == pytest.approx(out["total_s"] - loc["total_s"], abs=1e-12)
    assert out["self_s"] >= 0.045
    assert inn["calls"] == 2 and inn["self_s"] == inn["total_s"] >= 0.1


def test_instrumented_derive_multi_nests_derive():
    sys.path.insert(0, str(run.SRC))
    from lagpaths import kernels

    tracer = Tracer()
    instrument_lagpaths(tracer)
    expr = kernels.sqg_velocity_kernel()
    expr.derive_multi((2, 1))
    outer = tracer.spans["kernels.ScalarKernel.derive_multi"]
    inner = tracer.spans["kernels.ScalarKernel.derive"]
    assert inner["calls"] == 3 * outer["calls"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - inner["total_s"], rel=1e-9, abs=1e-12
    )


# -- shrunken workloads -------------------------------------------------------------


def _shrink(builder):
    def build(rng):
        invs = builder(rng)
        for inv in invs:
            cfg = inv.config
            if cfg is not None:
                integ = cfg["integrator"]
                integ["t_end"] = integ["dt"] * (2 if inv.command == "taylor" else 1)
                if "taylor_order" in integ:
                    integ["taylor_order"] = inv.order = 4
                inv.steps = 0 if inv.command == "radius-bound" else 1 + (inv.command == "taylor")
                if "grid" in cfg:
                    dim = len(cfg["grid"]["extent"])
                    cfg["grid"]["n_per_axis"] = 4 if dim == 3 else 6
                    inv.n = cfg["grid"]["n_per_axis"] ** dim
            elif inv.command == "verify-identities":
                inv.args += ["--max-n", "3"]
            elif inv.command == "verify-kernels":
                inv.args += ["--samples", "40", "--max-order", "2"]
            elif inv.command == "oracle":
                inv.args[1] = "3"
        return invs

    return build


@pytest.fixture
def shrunk(monkeypatch, tmp_path):
    for name, builder in list(run.WORKLOADS.items()):
        monkeypatch.setitem(run.WORKLOADS, name, _shrink(builder))
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference.json")
    monkeypatch.setattr(run, "PROBE_GRID", 6)
    monkeypatch.setattr(run, "PROBE_ORDER", 3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_shrunken_workload_prints_every_metric(shrunk, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_step_count_is_a_failure(shrunk, capsys):
    invs = run.WORKLOADS["taylor_jets"](run.random.Random(5))
    run.prepare(invs)
    invs[0].steps += 1
    res = run.run_pass(invs, {}, None, time.monotonic() + 120)
    assert res.failed == 1 and "config implies" in res.problems[0]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_reference_mismatch_and_digest_change():
    ref = {"numbers": {"steps": 3, "lambda": 1.5}, "digests": {"state.csv": "aa"}}
    bad, moved = run.compare_reference(ref, {"steps": 3, "lambda": 1.5 + 1e-12}, {"state.csv": "bb"})
    assert bad == [] and moved == ["state.csv"]
    bad, _ = run.compare_reference(ref, {"steps": 4, "lambda": 1.5}, {"state.csv": "aa"})
    assert len(bad) == 1
