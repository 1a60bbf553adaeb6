"""End-to-end and per-layer benchmark of the ``lagpaths`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record

Each workload is a fixed sequence of real ``lagpaths`` invocations (plus
the criterion-4 oracle check), one fresh interpreter each, run as a closed
loop by a single client: the next invocation starts when the last one
ends.  Passes over the sequence repeat while the next one can still end
within ``--seconds`` of the start (set-up timing included); timings are
medians over passes.  The seed generates the inputs (inline
Gaussian field, config seeds, kernel-sample seed, oracle cloud seed); grid
sizes, orders and step counts do not depend on it.

Every output is checked: exit code, config-implied step counts, verify-case
counts, the oracle tolerance, and (for seeds in ``reference.json``) the key
result numbers.  Output digests that differ from the reference are reported
in the environment line but do not count as failures.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs baseline
probes, then alternates untraced and traced passes and prints the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  ``--record``
runs one pass and stores its results as the reference for that seed.
The last stdout line is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import CACHED, COUNTS, TARGETS, span_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"

THREADS = 2
SETUP_REPEATS = 11
HARD_LIMIT_S = 165.0  # every child is killed past this point of a run
ORACLE_ORDER = 8
PROBE_GRID, PROBE_ORDER = 32, 6  # the ROADMAP per-layer baseline
ORACLE_TOL = 1e-9  # criterion 4
REF_RTOL = 1e-6
SQUARE = [[-2.0, 2.0], [-2.0, 2.0]]
RING_BOX = [[-1.5, 1.5], [-1.5, 1.5], [-1.0, 1.0]]

# command -> per-layer name of its summed wall time
COMMAND_METRIC = {
    "simulate": "cmd.simulate_s",
    "taylor": "cmd.taylor_s",
    "verify-identities": "cmd.verify_identities_s",
    "verify-kernels": "cmd.verify_kernels_s",
    "radius-bound": "cmd.radius_bound_s",
    "oracle": "cmd.oracle_check_s",
}


@dataclass
class Invocation:
    label: str
    command: str  # a lagpaths CLI command, or "oracle"
    args: list = field(default_factory=list)
    config: dict | None = None
    n: int = 0  # particles
    steps: int = 0  # config-implied step count
    order: int = 0  # Taylor order
    work: float = 1.0  # particle-steps, pair-orders, or 1 per verified case

    @property
    def out_dir(self) -> str:
        return f"out/{self.label}"

    def argv(self, trace_out: str | None = None) -> list[str]:
        if self.command == "oracle":
            tail = ["oracle", *self.args]
        else:
            tail = ["cli", "--threads", str(THREADS), self.command, *self.args]
            if self.config is not None:
                tail += ["--config", f"configs/{self.label}.json"]
        if trace_out is not None:
            return [sys.executable, str(CHILD), "trace", trace_out, *tail]
        if self.command == "oracle":
            return [sys.executable, str(CHILD), *tail]
        return [sys.executable, "-m", "lagpaths.cli", *tail[1:]]


# -- workloads ------------------------------------------------------------------


def _seeded(rng: random.Random) -> tuple[dict, int]:
    field_spec = {
        "field": "gaussian",
        "amplitude": round(rng.uniform(0.8, 1.2), 6),
        "width": round(rng.uniform(0.4, 0.6), 6),
        "center": [round(rng.uniform(-0.3, 0.3), 6), round(rng.uniform(-0.3, 0.3), 6)],
    }
    return field_spec, rng.randrange(1, 1_000_000)


def _run(label, command, model, scenario, n_axis, extent, integrator, seed):
    config = {
        "model": model,
        "scenario": scenario,
        "integrator": integrator,
        "diagnostics": {"pair_samples": 2048, "output_every": 1},
        "output": {"directory": f"out/{label}"},
        "seed": seed,
    }
    n = 2  # the point-vortex scenarios
    if n_axis is not None:
        config["grid"] = {"extent": extent, "n_per_axis": n_axis}
        n = n_axis ** len(extent)
    steps = round(integrator["t_end"] / integrator["dt"])
    order = integrator.get("taylor_order", 0)
    if command == "simulate":
        work = n * steps
    elif command == "taylor":
        work = n * n * order * (1 + steps)
    else:
        work = 1  # one verified bound
    return Invocation(label, command, config=config, n=n, steps=steps, order=order, work=work)


def rk4_models(rng: random.Random) -> list[Invocation]:
    field_spec, seed = _seeded(rng)

    def rk4(dt, t_end):
        return {"kind": "rk4", "dt": dt, "t_end": t_end}

    return [
        _run("sqg", "simulate", "sqg", field_spec, 40, SQUARE, rk4(0.05, 0.1), seed),
        _run("ipm", "simulate", "ipm", "ipm_bubble", 32, SQUARE, rk4(0.05, 0.1), seed),
        _run("boussinesq", "simulate", "boussinesq2d", "boussinesq_bubble", 32, SQUARE,
             rk4(0.05, 0.1), seed),
        _run("euler3d", "simulate", "euler3d", "euler3d_ring", 10, RING_BOX,
             rk4(0.05, 0.05), seed),
        _run("vortex_pair", "simulate", "euler2d", "vortex_pair", None, None,
             rk4(0.01, 1.0), seed),
    ]


def taylor_jets(rng: random.Random) -> list[Invocation]:
    field_spec, seed = _seeded(rng)

    def tay(order, steps):
        # the ratio-test radius estimate dips to ~0.14 on some steps, so a
        # 0.02 cap (binding while radius > 0.04) keeps the step count fixed
        dt = 0.02
        return {"kind": "taylor", "dt": dt, "t_end": dt * steps, "taylor_order": order}

    return [
        _run("sqg", "taylor", "sqg", field_spec, 16, SQUARE, tay(12, 3), seed),
        _run("ipm", "taylor", "ipm", "ipm_bubble", 16, SQUARE, tay(8, 2), seed),
    ]


def verify_suites(rng: random.Random) -> list[Invocation]:
    _, seed = _seeded(rng)
    kernel_seed = rng.randrange(1, 1_000_000)
    cloud_seed = rng.randrange(1, 1_000_000)
    radius = _run("radius_bound", "radius-bound", "sqg", "sqg_bump", 64, SQUARE,
                  {"kind": "rk4", "dt": 0.1, "t_end": 0.1}, seed)
    return [
        Invocation("verify_identities", "verify-identities",
                   ["--output", "out/verify_identities/report.json"]),
        Invocation("verify_kernels", "verify-kernels",
                   ["--seed", str(kernel_seed), "--output", "out/verify_kernels/report.json"]),
        radius,
        Invocation("oracle_check", "oracle",
                   [str(cloud_seed), str(ORACLE_ORDER), "out/oracle_check/result.json"]),
    ]


WORKLOADS = {"rk4_models": rk4_models, "taylor_jets": taylor_jets, "verify_suites": verify_suites}


# -- output checks ----------------------------------------------------------------


def _flatten(value, prefix="") -> dict:
    """Numeric and boolean leaves of a JSON value, keyed by dotted path."""
    out = {}
    if isinstance(value, dict):
        for k, v in value.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            out.update(_flatten(v, f"{prefix}{i}."))
    elif isinstance(value, (bool, int, float)):
        out[prefix[:-1]] = value
    return out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> int:
    return len(path.read_text().splitlines()) - 1  # minus the header


def check_outputs(inv: Invocation, case_counts: dict) -> tuple[list, dict, dict]:
    """Problems found, key numbers and output digests of one invocation."""
    out = WORK / inv.out_dir
    problems: list[str] = []
    if inv.command in ("simulate", "taylor"):
        files = ["state.csv", "diagnostics.csv", "summary.json"]
        if inv.command == "taylor":
            files.append("orders.csv")
        summary = json.loads((out / "summary.json").read_text())
        t_end = inv.config["integrator"]["t_end"]
        if summary["steps"] != inv.steps:
            problems.append(f"{summary['steps']} steps, config implies {inv.steps}")
        if abs(summary["final_t"] - t_end) > 1e-9:
            problems.append(f"final_t {summary['final_t']} != t_end {t_end}")
        if _rows(out / "diagnostics.csv") != inv.steps + 1:
            problems.append("diagnostics.csv row count")
        if _rows(out / "state.csv") != inv.n * (inv.steps + 1):
            problems.append("state.csv row count")
        if inv.command == "taylor" and _rows(out / "orders.csv") != inv.n * (inv.order + 1):
            problems.append("orders.csv row count")
        if not summary["chord_min"] > 0 or not summary["lambda"] >= 1.0:
            problems.append("chord-arc or lambda out of range")
        for drift in _flatten(summary["invariant_drifts"]).values():
            if drift > 1e-9:
                problems.append(f"point-vortex invariant drift {drift}")
        numbers = _flatten(summary)
    elif inv.command in ("verify-identities", "verify-kernels"):
        files = ["report.json"]
        report = json.loads((out / "report.json").read_text())
        counts = report["summary"]
        if counts["failed"]:
            problems.append(f"{counts['failed']} failed cases")
        expected = case_counts.get(inv.command)
        if expected is not None and counts["total"] != expected:
            problems.append(f"{counts['total']} cases, reference has {expected}")
        numbers = _flatten(counts)
        for case in report["cases"]:
            if isinstance(case["got"], dict):
                numbers[case["name"]] = case["got"]["worst_ratio"]
    elif inv.command == "radius-bound":
        files = ["radius_bound.json"]
        payload = json.loads((out / "radius_bound.json").read_text())
        if not 0 < payload["R_paper"] < math.inf:
            problems.append(f"R_paper {payload['R_paper']}")
        numbers = _flatten(payload)
    else:  # oracle
        files = []
        rel = json.loads((out / "result.json").read_text())["max_rel_diff"]
        if not rel <= ORACLE_TOL:
            problems.append(f"oracle vs fast jets differ by {rel} > {ORACLE_TOL}")
        numbers = {"max_rel_diff": rel}
    for key, value in numbers.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"non-finite {key}")
    return problems, numbers, {name: _digest(out / name) for name in files}


def compare_reference(ref: dict, numbers: dict, digests: dict) -> tuple[list, list]:
    """Mismatched key numbers (failures) and changed digests (reported)."""
    problems = []
    for key, want in ref["numbers"].items():
        if key == "max_rel_diff":
            continue  # rounding-level; held to ORACLE_TOL, not to the reference
        got = numbers.get(key)
        if isinstance(want, bool) or not isinstance(want, (int, float)):
            ok = got == want
        else:
            ok = isinstance(got, (int, float)) and math.isclose(
                got, want, rel_tol=REF_RTOL, abs_tol=1e-12
            )
        if not ok:
            problems.append(f"{key} = {got}, reference {want}")
    changed = [name for name, d in ref["digests"].items() if digests.get(name) != d]
    return problems, changed


# -- child processes --------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Outcome:
    wall: float
    code: int
    rss_mb: float


def spawn(argv: list[str], deadline: float, stdout=None) -> Outcome:
    """Run one child to completion; kill it if the run's deadline passes."""
    err_path = WORK / "stderr.txt"
    with open(err_path, "wb") as err, open(stdout or os.devnull, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        print(f"child exited {code}: {' '.join(argv)}\n{tail}", file=sys.stderr)
    return Outcome(wall, code, usage.ru_maxrss / 1024.0)


# -- passes -----------------------------------------------------------------------


@dataclass
class PassResult:
    walls: dict  # label -> seconds
    rss_mb: float = 0.0
    failed: int = 0
    numbers: dict = field(default_factory=dict)  # label -> key numbers
    digests: dict = field(default_factory=dict)  # label -> {file: sha256}
    problems: list = field(default_factory=list)
    changed: list = field(default_factory=list)  # digests unlike the reference
    trace: dict | None = None  # merged trace of a traced pass


def run_pass(invs, case_counts, refs, deadline, traced=False) -> PassResult:
    shutil.rmtree(WORK / "out", ignore_errors=True)
    res = PassResult({}, trace={} if traced else None)
    for inv in invs:
        (WORK / inv.out_dir).mkdir(parents=True, exist_ok=True)
        trace_out = f"{inv.out_dir}/trace.json" if traced else None
        o = spawn(inv.argv(trace_out), deadline)
        res.walls[inv.label] = o.wall
        res.rss_mb = max(res.rss_mb, o.rss_mb)
        problems = [f"exit code {o.code}"] if o.code != 0 else []
        if not problems:
            try:
                found, numbers, digests = check_outputs(inv, case_counts)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found, numbers, digests = [f"unreadable output: {exc!r}"], {}, {}
            problems += found
            res.numbers[inv.label], res.digests[inv.label] = numbers, digests
            ref = (refs or {}).get(inv.label)
            if ref is not None and not found:
                bad, moved = compare_reference(ref, numbers, digests)
                problems += bad
                res.changed += [f"{inv.label}/{name}" for name in moved]
        if traced and o.code == 0:
            merge_trace(res.trace, json.loads((WORK / trace_out).read_text()))
        if problems:
            res.failed += 1
            res.problems += [f"{inv.label}: {p}" for p in problems]
    return res


def log_pass(kind: str, res: PassResult) -> None:
    walls = " ".join(f"{label}={secs:.3f}" for label, secs in res.walls.items())
    print(f"{kind}: {sum(res.walls.values()):.3f} s ({walls})", file=sys.stderr)


def merge_trace(into: dict, part: dict) -> None:
    spans = into.setdefault("spans", {})
    for name, rec in part["spans"].items():
        acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for key in acc:
            acc[key] += rec[key]
    counts = into.setdefault("counts", {})
    for name, v in part["counts"].items():
        counts[name] = counts.get(name, 0) + v
    caches = into.setdefault("caches", {})
    for name, rec in part["caches"].items():
        acc = caches.setdefault(name, {"hits": 0, "misses": 0})
        acc["hits"] += rec["hits"]
        acc["misses"] += rec["misses"]


# -- metrics ----------------------------------------------------------------------

LAYERS = sorted({target.split(".")[0] for target in TARGETS})


def layer_metrics(trace: dict) -> dict:
    """Span, count and cache metrics of one traced pass, by metric name."""
    spans = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in span_names()}
    spans.update(trace.get("spans", {}))
    out = {name: trace.get("counts", {}).get(name, 0) for name in COUNTS}
    for span, rec in spans.items():
        for key, v in rec.items():
            out[f"{span}.{key}"] = v
    for target in CACHED:
        rec = trace.get("caches", {}).get(target, {"hits": 0, "misses": 0})
        calls = rec["hits"] + rec["misses"]
        out[f"{target}.hit_ratio"] = rec["hits"] / calls if calls else 0.0
    rhs_calls = sum(v["calls"] for k, v in spans.items() if k.startswith("dynamics.evaluate_rhs."))
    steps = spans["dynamics.rk4_step"]["calls"] + spans["taylor.taylor_step"]["calls"]
    out["dynamics.evaluate_rhs.calls_per_step"] = rhs_calls / steps if steps else 0.0
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v["self_s"] for k, v in spans.items() if k.startswith(layer + ".")
        )
    return out


def command_metrics(invs, passes: list[PassResult]) -> dict:
    """Per-command summed wall times and work rates, medians over passes."""
    out = {}
    for cmd, name in COMMAND_METRIC.items():
        labels = [i.label for i in invs if i.command == cmd]
        out[name] = statistics.median(sum(p.walls[l] for l in labels) for p in passes)
    rates = {"simulate": "cmd.particle_steps_per_s", "taylor": "cmd.pair_orders_per_s"}
    for cmd, name in rates.items():
        work = sum(i.work for i in invs if i.command == cmd)
        secs = out[COMMAND_METRIC[cmd]]
        out[name] = work / secs if secs else 0.0
    return out


def pass_work(invs, res: PassResult) -> float:
    """Useful work of a pass; a verify suite counts the cases it checked."""
    return sum(
        res.numbers.get(i.label, {}).get("total", 0) if i.command.startswith("verify-") else i.work
        for i in invs
    )


def _median_dicts(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# -- environment ------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_env(deadline: float) -> dict:
    out = WORK / "env.json"
    if spawn([sys.executable, str(CHILD), "env"], deadline, stdout=out).code != 0:
        raise SystemExit("cannot import lagpaths from the checkout")
    info = json.loads(out.read_text())
    if not Path(info.pop("lagpaths_file")).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit("lagpaths was imported from outside the checkout")
    return info


# -- main -------------------------------------------------------------------------


def metric_spec(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def prepare(invs: list[Invocation]) -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "configs").mkdir(parents=True)
    for inv in invs:
        if inv.config is not None:
            (WORK / "configs" / f"{inv.label}.json").write_text(json.dumps(inv.config, indent=2))


def measure(args, invs, case_counts, refs, deadline) -> tuple[dict, list, list]:
    """Metrics by name, plus every pass run (untraced and traced)."""
    window_end = time.monotonic() + args.seconds
    passes, traced = [], []
    metrics = {}
    if not args.trace:
        setup_argv = [sys.executable, str(CHILD), "setup"] + [
            f"configs/{i.label}.json" for i in invs if i.config is not None
        ]
        setup = [spawn(setup_argv, deadline) for _ in range(SETUP_REPEATS)]
        if any(o.code for o in setup):
            raise SystemExit("set-up failed")
        metrics["setup_s"] = statistics.median(o.wall for o in setup)
    else:
        probes = {}
        for threads in (1, 2):
            out = WORK / f"probe{threads}.json"
            argv = [sys.executable, str(CHILD), "probe", str(threads), str(PROBE_GRID),
                    str(PROBE_ORDER), out.name]
            if spawn(argv, deadline).code:
                raise SystemExit("probe failed")
            for layer, secs in json.loads(out.read_text()).items():
                probes[f"probe.{layer}.threads{threads}_s"] = secs
        metrics.update(probes)

    # closed loop: start another pass (pair, when tracing) only if it can
    # end inside the window, judged by the length of the last one
    while True:
        started = time.monotonic()
        passes.append(run_pass(invs, case_counts, refs, deadline))
        log_pass("pass", passes[-1])
        if args.trace:
            traced.append(run_pass(invs, case_counts, refs, deadline, traced=True))
            log_pass("traced pass", traced[-1])
        now = time.monotonic()
        if now + (now - started) > min(window_end, deadline):
            break
    walls = [sum(p.walls.values()) for p in passes]
    if not args.trace:
        metrics["wall_s"] = statistics.median(walls)
        metrics["work_per_s"] = statistics.median(
            pass_work(invs, p) / w for p, w in zip(passes, walls)
        )
        metrics["peak_rss_mb"] = statistics.median(p.rss_mb for p in passes)
    else:
        metrics.update(command_metrics(invs, passes))
        complete = [p.trace for p in traced if not p.failed] or [{}]
        metrics.update(_median_dicts([layer_metrics(t) for t in complete]))
        metrics["trace.overhead_s"] = statistics.median(
            sum(p.walls.values()) for p in traced
        ) - statistics.median(walls)
    return metrics, passes, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass and store it as this seed's reference")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its current child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S

    if not (SRC / "lagpaths" / "cli.py").is_file():
        print(f"no lagpaths sources under {SRC}", file=sys.stderr)
        return 2
    invs = WORKLOADS[args.workload](random.Random(args.seed))
    prepare(invs)
    env = probe_env(deadline)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    case_counts = reference.get("case_counts", {})
    refs = reference.get("seeds", {}).get(args.workload, {}).get(str(args.seed))

    if args.record:
        return record(args, invs, reference, deadline)

    names = metric_spec(bool(args.trace))
    metrics, passes, traced = measure(args, invs, case_counts, refs, deadline)
    runs = passes + traced
    for line in sorted({p for r in runs for p in r.problems}):
        print(f"check failed: {line}", file=sys.stderr)
    attempted = len(invs) * (len(passes) + len(traced))
    failed = sum(r.failed for r in runs)
    if args.trace:
        metrics["cmd.error_rate"] = failed / attempted

    environment = {
        **env,
        "nproc": os.cpu_count(),
        "threads": {i.label: THREADS for i in invs if i.command != "oracle"},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "traced_passes": len(traced),
        "reference_checked": refs is not None,
        "digests": passes[-1].digests,
        "digests_changed": sorted({c for r in runs for c in r.changed}),
        "error_rate": failed / attempted,
        "computed_not_measured": ["jets.mul_coeffs.madds", "jets.mul_coeffs.bytes"],
        "run_s": round(time.monotonic() - t0, 3),
    }
    print(json.dumps({"environment": environment}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in names.items()
        },
    }
    print(json.dumps(result))
    return 0


def record(args, invs, reference, deadline) -> int:
    res = run_pass(invs, reference.get("case_counts", {}), None, deadline)
    if res.failed:
        print("\n".join(res.problems), file=sys.stderr)
        return 1
    counts = reference.setdefault("case_counts", {})
    for inv in invs:
        if inv.command.startswith("verify-"):
            counts[inv.command] = res.numbers[inv.label]["total"]
    seeds = reference.setdefault("seeds", {}).setdefault(args.workload, {})
    seeds[str(args.seed)] = {
        inv.label: {"numbers": res.numbers[inv.label], "digests": res.digests[inv.label]}
        for inv in invs
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {args.workload} seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
