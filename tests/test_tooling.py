"""What the benchmark reads from the package must exist in it, and the
package imports nothing it does not use and defines nothing only tests call.

``perfbench/tracer.py`` wraps each name in ``TARGETS`` for the traced
benchmark run, ``perfbench/child.py env`` probes the environment before
every run, and ``perfbench/child.py setup`` times ``cli.build_run``; a
renamed or deleted name would break those runs, so it fails here first.
The names README cites from the package must resolve too.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _unused_imports(path: Path) -> list[str]:
    """The module-level imports of a source file that it never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        # a quoted annotation reads the names it spells
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a]
            notes = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                expr = ast.parse(note.value, mode="eval")
                read |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(bound.items(), key=lambda kv: kv[1])
        if name not in read
    ]


def test_no_unused_module_imports():
    sources = sorted((ROOT / "src" / "lagpaths").glob("*.py"))
    assert sources
    unused = [entry for path in sources for entry in _unused_imports(path)]
    assert not unused, unused


# package names that stay without a caller, each with its reason
CALLER_ALLOWLIST: dict[str, str] = {}


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function and class of a module and
    of each method of its classes that is not a dunder."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub


def test_src_names_have_a_caller():
    # src/ holds what a command or the benchmark runs: a function only tests
    # call belongs in tests/.  A name counts as called when package code
    # names it outside its own definition, when a perfbench script spells
    # it, or when the _scenario decorator registers it.
    sources = (ROOT / "src" / "lagpaths").glob("*.py")
    trees = {path: ast.parse(path.read_text()) for path in sources}
    assert trees
    named: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                named.setdefault(name, []).append((path, node.lineno))
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        bench |= set(re.findall(r"\w+", path.read_text()))
    uncalled = []
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            own = range(node.lineno, node.end_lineno + 1)
            called = any(p != path or line not in own for p, line in named.get(name, ()))
            registered = any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_scenario"
                for d in node.decorator_list
            )
            key = f"{path.stem}.{qualname}"
            if not (called or name in bench or registered or key in CALLER_ALLOWLIST):
                uncalled.append(key)
    assert not uncalled, uncalled


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
        # the traced run reads each cached target's cache_info() for its
        # hit ratio
        elif target in tracer.CACHED and not hasattr(obj, "cache_info"):
            missing.append(f"{target}.cache_info")
    assert not missing, missing
    assert set(tracer.CACHED) <= set(tracer.TARGETS)


def test_readme_names_resolve():
    # a backticked dotted name whose head is a package module, bare or
    # called: `taylor.time_jets_fast`, `combinatorics.partitions_by_alpha(n, d)`
    modules = {p.stem for p in (ROOT / "src" / "lagpaths").glob("*.py")} - {"__init__"}
    readme = (ROOT / "README.md").read_text()
    found = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", readme)
    checked, missing = set(), []
    for name in found:
        head, *path = name.split(".")
        if head == "lagpaths":
            head, *path = path
        if head not in modules:
            continue
        checked.add(name)
        obj = importlib.import_module(f"lagpaths.{head}")
        try:
            for attr in path:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(name)
    assert {"taylor.time_jets_fast", "combinatorics.partitions_by_alpha"} <= checked
    assert not missing, missing


def test_readme_lists_the_diagnostics_columns():
    # README "Output files" gives the diagnostics.csv header as the program
    # writes it, column for column
    from lagpaths import cli

    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Output files\n", 1)[1].split("\n## ", 1)[0]
    item = section.split("* `diagnostics.csv`", 1)[1].split("\n* ", 1)[0]
    assert re.findall(r"`([^`]*)`", item)[0] == cli.DIAG_HEADER


def test_benchmark_env_probe_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "env"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["jets_route"] == "generic"


def test_benchmark_setup_builds_each_scenario_kind(tmp_path):
    # the set-up step the benchmark times: build_run on a named grid, a point
    # and an inline scenario, each in a fresh process
    base = {
        "model": "sqg",
        "integrator": {"kind": "rk4", "dt": 0.1, "t_end": 0.1},
        "output": {"directory": str(tmp_path / "out")},
    }
    grid = {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 8}
    configs = {
        "named_grid": {**base, "scenario": "sqg_bump", "grid": grid},
        "point": {**base, "model": "euler2d", "scenario": "vortex_pair"},
        "inline": {**base, "scenario": {"field": "gaussian"}, "grid": grid},
    }
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup"]
    out = subprocess.run(
        child + [str(tmp_path / f"{name}.json") for name in configs],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr


def test_tracer_rhs_labels_cover_every_model():
    # the traced run reports evaluate_rhs per model under these labels
    from lagpaths.dynamics import MODELS

    assert _load_tracer().LABELS["dynamics.evaluate_rhs"] == tuple(MODELS)


def test_benchmark_oracle_check_within_tolerance(tmp_path):
    # verify_suites' oracle check: 16 particles in one diagonal unit, held to
    # the tolerance the benchmark reads as correct
    sys.path.insert(0, str(ROOT / "perfbench"))  # run.py imports tracer
    try:
        tol = runpy.run_path(str(ROOT / "perfbench" / "run.py"))["ORACLE_TOL"]
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for seed in (1, 424242):
        out = tmp_path / f"oracle_{seed}.json"
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), "oracle",
             str(seed), "8", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(out.read_text())
        assert result["n"] == 16
        assert result["max_rel_diff"] <= tol, (seed, result)
