"""Command-line interface: schema strictness, exit codes, artifact formats."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lagpaths import cli, dynamics, scenarios, taylor
from lagpaths.cli import (
    RunConfig,
    main,
    run_identity_suite,
    run_kernel_suite,
    state_csv_header,
)
from lagpaths.errors import ConfigError


def _write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "model": "euler2d",
        "scenario": "two_vortex",
        "integrator": {"kind": "rk4", "dt": 0.02, "t_end": 0.2},
        "diagnostics": {"pair_samples": 64, "output_every": 5},
        "output": {"directory": str(tmp_path / "out")},
        "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_unknown_config_key_rejected(tmp_path):
    path, _ = _write_config(tmp_path, typo_key=1)
    assert main(["simulate", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_missing_model_rejected(tmp_path):
    path, cfg = _write_config(tmp_path)
    del cfg["model"]
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_model_scenario_mismatch_rejected(tmp_path):
    path, _ = _write_config(tmp_path, model="sqg")
    assert main(["simulate", "--config", str(path)]) == 2


@pytest.mark.parametrize(
    "scenario", [name for name, s in scenarios.SCENARIOS.items() if not s.grid]
)
@pytest.mark.parametrize(
    "overrides",
    [
        {"grid": {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 8}},
        {"regularization_delta": 0.3},
    ],
    ids=["grid", "delta"],
)
def test_point_scenario_refuses_grid_and_delta(tmp_path, capsys, scenario, overrides):
    # a point scenario has a fixed layout and runs unregularized
    path, _ = _write_config(tmp_path, scenario=scenario, **overrides)
    assert main(["simulate", "--config", str(path)]) == 2
    assert "takes no grid or regularization_delta" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_for_another_model_rejected_before_building():
    # a 2D grid reached the 3D ring builder (IndexError), a 3D grid the 2D
    # builders (broadcast ValueError), before the model check ran
    for model, scenario, extent in (
        ("sqg", "euler3d_ring", [[-1, 1], [-1, 1]]),
        ("euler3d", "sqg_bump", [[-1, 1], [-1, 1], [-1, 1]]),
    ):
        config = RunConfig.from_dict(
            {
                "model": model,
                "scenario": scenario,
                "grid": {"extent": extent, "n_per_axis": 3},
                "integrator": {"kind": "rk4", "dt": 0.1, "t_end": 0.1},
                "output": {"directory": "out"},
            }
        )
        with pytest.raises(ConfigError, match="does not match"):
            cli.build_run(config)


@pytest.mark.parametrize(
    "tag, model",
    [(m, m) for m in ("sqg", "euler2d", "ipm", "boussinesq2d", "euler3d")]
    + [
        ("2D-Euler", "euler2d"),
        ("2d_euler", "euler2d"),
        (" IPM ", "ipm"),
        ("Boussinesq", "boussinesq2d"),
        ("3D-Euler", "euler3d"),
    ],
)
def test_config_model_spellings(tag, model):
    config = RunConfig.from_dict(
        {
            "model": tag,
            "scenario": "two_vortex",
            "integrator": {"kind": "rk4", "dt": 0.1, "t_end": 0.1},
            "output": {"directory": "out"},
        }
    )
    assert config.model == model


_INLINE = {"field": "gaussian", "amplitude": 1.0, "width": 0.5}
_GRID = {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 8}
_TAYLOR = {"kind": "taylor", "dt": 0.02, "t_end": 0.02}


@pytest.mark.parametrize(
    "overrides",
    [
        {"grid": {"extent": [1, 2], "n_per_axis": 8}},
        {"grid": {"extent": [["a", "b"], ["c", "d"]], "n_per_axis": 8}},
        {"grid": {"extent": [[-1, 1], [-1, 1], [-1, 1]], "n_per_axis": 8}},
        {"scenario": {**_INLINE, "center": "x"}},
        {"scenario": {**_INLINE, "center": [0.0, "x"]}},
        {"scenario": {**_INLINE, "amplitude": "big"}},
        {"integrator": {**_TAYLOR, "taylor_order": True}},
        {"integrator": {**_TAYLOR, "taylor_order": 2}},
        {"integrator": {**_TAYLOR, "t_end": float("inf")}},
        {"diagnostics": {"output_every": True}},
        {"model": "navier_stokes"},
        {"seed": -1},
        {"scenario": {**_INLINE, "amplitude": 10**400}},
        {"grid": {**_GRID, "n_per_axis": 10**6}},
        {"output": {}},
        {"output": {"directory": ""}},
        {"diagnostics": {"pair_samples": 10**12}},
        {"integrator": {**_TAYLOR, "dt": 1e-300}},
        {"integrator": {**_TAYLOR, "t_end": 1e308}},
        {"scenario": {**_INLINE, "width": 0}},
        {"scenario": {**_INLINE, "width": -0.5}},
        {"regularization_delta": 1e-160},
    ],
    ids=[
        "flat_extent",
        "string_extent",
        "extent_dim_mismatch",
        "string_center",
        "center_entry",
        "string_amplitude",
        "bool_order",
        "low_order",
        "infinite_t_end",
        "bool_output_every",
        "unknown_model",
        "negative_seed",
        "int_beyond_float",
        "grid_too_large",
        "no_directory",
        "empty_directory",
        "huge_pair_samples",
        "tiny_dt",
        "huge_t_end",
        "zero_width",
        "negative_width",
        "delta_without_float_rate",
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, recwarn, overrides):
    cfg = {
        "model": "sqg",
        "scenario": _INLINE,
        "grid": _GRID,
        "integrator": {**_TAYLOR, "taylor_order": 6},
        "output": {"directory": str(tmp_path / "out")},
        **overrides,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["taylor", "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    # refused at load: the error line alone, no warning from a half-built run
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


@pytest.mark.parametrize(
    "command, kind, delta",
    [("simulate", "taylor", 1e-160), ("taylor", "rk4", 1e-155)],
    ids=["simulate_taylor", "taylor_rk4"],
)
def test_jets_refuse_delta_without_float_rate(tmp_path, capsys, command, kind, delta):
    # the jets stream the blob Gaussian at the float rate 1 / delta^2, here
    # above 1e308; an rk4 simulate saturates the factor and runs
    # (test_tiny_delta_runs_without_warnings)
    path, _ = _write_config(
        tmp_path,
        model="sqg",
        scenario="sqg_bump",
        grid={**_GRID, "n_per_axis": 4},
        regularization_delta=delta,
        integrator={**_TAYLOR, "kind": kind, "taylor_order": 6},
    )
    assert main([command, "--config", str(path)]) == 2
    assert not (tmp_path / "out").exists()
    assert "regularization_delta 0 or at least 7.458e-155" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [7.458340731200208e-155, 1e-154])
def test_taylor_just_above_the_delta_bound_runs_without_warnings(tmp_path, delta):
    # 1 / delta^2 is near 1.8e308, so -|y|^2 / delta^2 rounds to -inf on
    # these pairs: their Gaussian is 0.0, and each unit drops it
    path, _ = _write_config(
        tmp_path,
        model="sqg",
        scenario="sqg_bump",
        grid={**_GRID, "n_per_axis": 4},
        regularization_delta=delta,
        integrator={**_TAYLOR, "taylor_order": 6},
    )
    assert main(["taylor", "--config", str(path)]) == 0


def test_config_without_integrator_kind_runs_rk4(tmp_path):
    # integrator.kind defaults to rk4: the same state.csv as naming it
    states = []
    for kind in ({}, {"kind": "rk4"}):
        out = tmp_path / f"out{len(states)}"
        path, _ = _write_config(
            tmp_path,
            integrator={"dt": 0.02, "t_end": 0.1, **kind},
            output={"directory": str(out)},
        )
        assert main(["simulate", "--config", str(path)]) == 0
        states.append((out / "state.csv").read_bytes())
    assert states[0] == states[1]
    path, _ = _write_config(
        tmp_path,
        model="sqg",
        scenario=_INLINE,
        grid=_GRID,
        integrator={"dt": 0.02, "t_end": 0.02, "taylor_order": 6},
    )
    assert main(["taylor", "--config", str(path)]) == 0


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "model, scenario, grid, calls",
    [
        # 3 diagnosed states whose evaluation doubles as the next step's
        # first RK4 stage, 3 more stages per step, and the trimmed extent probe
        ("sqg", "sqg_bump", {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 12},
         3 + 2 * 3 + 1),
        # point vortices evolve no G and have no extent probe
        ("euler2d", "two_vortex", None, 3 + 2 * 3),
    ],
    ids=["sqg_bump", "two_vortex"],
)
def test_simulate_evaluates_each_state_once(
    tmp_path, monkeypatch, model, scenario, grid, calls
):
    evaluations = _count_calls(monkeypatch, dynamics, "evaluate_rhs")
    cfg = {
        "model": model,
        "scenario": scenario,
        "integrator": {"kind": "rk4", "dt": 0.05, "t_end": 0.1},
        "diagnostics": {"pair_samples": 64, "output_every": 1},
        "output": {"directory": str(tmp_path / "out")},
    }
    if grid is not None:
        cfg["grid"] = grid
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["steps"] == 2
    assert (summary["extent_sensitivity"] is not None) == (grid is not None)
    assert len(evaluations) == calls


def test_taylor_command_builds_and_expands_once_per_state(tmp_path, monkeypatch):
    builds = _count_calls(monkeypatch, cli, "build_run")
    expansions = _count_calls(monkeypatch, taylor, "time_jets_fast")
    cfg = {
        "model": "sqg",
        "scenario": "sqg_bump",
        "grid": {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 8},
        "integrator": {**_TAYLOR, "t_end": 0.06, "taylor_order": 6},
        "diagnostics": {"pair_samples": 64, "output_every": 1},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["taylor", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["steps"] >= 3
    assert len(builds) == 1
    assert len(expansions) == summary["steps"]


def test_bad_integrator_settings_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {
                "model": "euler2d",
                "scenario": "two_vortex",
                "integrator": {"kind": "rk4", "dt": -1.0, "t_end": 1.0},
                "output": {"directory": "x"},
            }
        )
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {
                "model": "euler2d",
                "scenario": "two_vortex",
                "integrator": {"kind": "leapfrog", "dt": 0.1, "t_end": 1.0},
                "output": {"directory": "x"},
            }
        )


def test_simulate_two_vortex_outputs(tmp_path):
    path, cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_t"] == pytest.approx(0.2)
    assert summary["invariant_drifts"]["hamiltonian"] < 1e-10
    state_lines = (out / "state.csv").read_text().splitlines()
    assert state_lines[0] == state_csv_header(2)
    assert state_lines[0] == "t,particle_id,a1,a2,x1,x2,g11,g12,g21,g22,theta0"
    diag_lines = (out / "diagnostics.csv").read_text().splitlines()
    assert diag_lines[0] == (
        "t,chord_min,chord_max,lambda_bound,grad_u_sup,det_dev,"
        "hamiltonian,p1,p2,ang_imp"
    )


def test_point_vortex_invariants_only_for_euler2d():
    # the Hamiltonian, momentum and angular-impulse columns follow MODELS
    point = [
        model
        for model in dynamics.MODELS
        if cli._is_point_vortex(dynamics.ModelSpec(model, 0.0))
    ]
    assert point == ["euler2d"]
    assert not cli._is_point_vortex(dynamics.ModelSpec("euler2d", 0.1))


def _per_value_state_rows(state):
    """The per-value formatting loop that append_state_rows replaced."""

    def fmt(x):
        return "" if x is None else repr(float(x) + 0.0)

    if state.theta0 is not None:
        data_col = state.theta0
    elif state.omega0 is not None and state.omega0.ndim == 1:
        data_col = state.omega0
    else:
        data_col = np.zeros(state.n)
    g = state.grads if state.grads is not None else dynamics.identity_grads(
        state.n, state.dim
    )
    return [
        ",".join(
            [fmt(state.t), str(i)]
            + [fmt(v) for v in state.labels[i]]
            + [fmt(v) for v in state.positions[i]]
            + [fmt(v) for v in g[i].reshape(-1)]
            + [fmt(data_col[i])]
        )
        for i in range(state.n)
    ]


@pytest.mark.parametrize("dim", [2, 3])
def test_state_rows_match_per_value_format(dim):
    special = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, 0.1, -1.0 / 3.0]
    rng = np.random.default_rng(dim)
    n = 12
    values = rng.choice(special, size=(n, dim + dim + dim * dim + dim + 1))
    cols = np.split(values, np.cumsum([dim, dim, dim * dim, dim]), axis=1)
    labels, positions, grads, omega, theta = cols
    base = dynamics.ParticleState(
        dim, labels, positions, np.ones(n), grads=grads.reshape(n, dim, dim), t=-0.0
    )
    states = [
        base,
        base.replace(theta0=theta[:, 0], t=1e-300),
        base.replace(grads=None, omega0=theta[:, 0], t=0.25),
        base.replace(omega0=omega, t=5e-324),
    ]
    for state in states:
        lines = []
        cli.append_state_rows(lines, state)
        assert lines == _per_value_state_rows(state)
    assert "-0.0" not in "".join(lines) and "5e-324" in "".join(lines)


def test_simulate_deterministic_across_threads_and_reruns(tmp_path):
    blobs = {}
    for tag, threads in (("a", "1"), ("b", "2"), ("c", "4"), ("a2", "1")):
        outdir = tmp_path / f"out_{tag}"
        cfg = {
            "model": "sqg",
            "scenario": "sqg_bump",
            "grid": {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 40},
            "integrator": {"kind": "rk4", "dt": 0.05, "t_end": 0.1},
            "diagnostics": {"pair_samples": 128, "output_every": 1},
            "output": {"directory": str(outdir)},
            "seed": 3,
        }
        path = tmp_path / f"cfg_{tag}.json"
        path.write_text(json.dumps(cfg))
        assert main(["--threads", threads, "simulate", "--config", str(path)]) == 0
        blobs[tag] = (
            (outdir / "state.csv").read_bytes(),
            (outdir / "diagnostics.csv").read_bytes(),
            (outdir / "summary.json").read_bytes(),
        )
    assert blobs["a"] == blobs["b"] == blobs["c"] == blobs["a2"]


def test_taylor_coincident_particles_exit_3(tmp_path, monkeypatch, capsys):
    # two particles of the last jet work unit share a position
    build = cli.build_run

    def coincident(config):
        state, spec = build(config)
        positions = state.positions.copy()
        positions[-1] = positions[-2]
        return state.replace(positions=positions), spec

    monkeypatch.setattr(cli, "build_run", coincident)
    monkeypatch.setattr(dynamics, "PAIR_BLOCK", 16)  # 3 tiles of 3: 6 units
    cfg = {
        "model": "ipm",
        "scenario": "ipm_bubble",
        "grid": {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 3},
        "integrator": {**_TAYLOR, "taylor_order": 4},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["--threads", "2", "taylor", "--config", str(path)]) == 3
    assert "zero displacement" in capsys.readouterr().err


_TINY_GRID = {"extent": [[0.0, 1e-310], [0.0, 1e-310]], "n_per_axis": 4}
_SMALL_GRID = {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 4}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "command, overrides, key",
    [
        # label distances underflow to 0: C0 and R_paper were NaN
        (
            "radius-bound",
            {"model": "sqg", "scenario": "sqg_bump", "grid": _TINY_GRID},
            "holder_stats.theta_seminorm",
        ),
        # the data norms overflow: C0 was Infinity
        (
            "radius-bound",
            {
                "model": "sqg",
                "scenario": {"field": "gaussian", "amplitude": 1e300},
                "grid": _SMALL_GRID,
            },
            "holder_stats.grad_theta_seminorm",
        ),
        # lambda was Infinity and the angular impulse drift NaN
        (
            "simulate",
            {
                "scenario": "vortex_pair",
                "integrator": {"kind": "rk4", "dt": 1e300, "t_end": 1e300},
            },
            "lambda",
        ),
    ],
    ids=["underflowed_labels", "overflowed_amplitude", "overflowed_step"],
)
def test_non_finite_summary_exits_3_and_writes_no_summary(
    tmp_path, capsys, command, overrides, key
):
    path, _ = _write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path)]) == 3
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == (
        ["diagnostics.csv", "state.csv"] if command == "simulate" else []
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical failure: {key} is not finite\n"


def test_taylor_command_summary_fields(tmp_path):
    cfg = {
        "model": "sqg",
        "scenario": "sqg_bump",
        "grid": {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 12},
        "integrator": {
            "kind": "taylor",
            "dt": 0.1,
            "t_end": 0.2,
            "taylor_order": 8,
            "safety": 0.5,
        },
        "diagnostics": {"pair_samples": 64, "output_every": 1},
        "output": {"directory": str(tmp_path / "out")},
        "seed": 5,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["taylor", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for key in ("aggregate_radius", "fitted_C", "fitted_R", "R_paper",
                "enforced_constraints", "envelope_satisfied", "final_t"):
        assert key in summary, key
    assert summary["R_paper"] > 0
    orders = (tmp_path / "out" / "orders.csv").read_text().splitlines()
    assert orders[0] == "particle_id,n,coef_norm,ratio_est,root_est"
    assert len(orders) == 1 + 12 * 12 * (8 + 1)
    # the taylor summary reports the radius-bound command's bound
    assert main(["radius-bound", "--config", str(path)]) == 0
    bound = json.loads((tmp_path / "out" / "radius_bound.json").read_text())
    for key in ("R_paper", "C0", "C1"):
        assert summary[key] == bound[key], key
    for tag, enforced in (("enforced", True), ("unenforced", False)):
        assert summary[f"{tag}_constraints"] == [
            c["constraint"] for c in bound["constraints"] if c["enforced"] == enforced
        ]


def test_taylor_on_an_equilibrium_reports_a_degenerate_expansion(tmp_path):
    # the stratified state does not move: every coefficient of order >= 1
    # is zero, so no radius is finite
    path, _ = _write_config(
        tmp_path,
        model="ipm",
        scenario="ipm_stratified",
        grid={"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 8},
        integrator={"kind": "taylor", "dt": 0.1, "t_end": 0.2, "taylor_order": 8},
    )
    assert main(["taylor", "--config", str(path)]) == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    text = (tmp_path / "out" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=refuse)
    for key in ("aggregate_radius", "aggregate_radius_root", "fitted_R"):
        assert summary[key] is None, key
    assert summary["fitted_C"] == 0.0
    assert summary["envelope_satisfied"] is True
    assert summary["final_t"] == pytest.approx(0.2)


@pytest.mark.filterwarnings("error")
def test_taylor_on_a_translation_fits_no_envelope_slope(tmp_path):
    # a vortex pair translates: only coefficient 1 is nonzero, one point,
    # through which the envelope fit draws no line
    path, _ = _write_config(
        tmp_path,
        scenario="vortex_pair",
        integrator={"kind": "taylor", "dt": 0.05, "t_end": 0.05, "taylor_order": 8},
    )
    assert main(["taylor", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for key in ("aggregate_radius", "aggregate_radius_root", "fitted_R"):
        assert summary[key] is None, key
    # C = 0 and R = inf give an envelope of 0 at every order >= 1, which
    # coefficient 1 exceeds
    assert summary["fitted_C"] == 0.0
    assert summary["envelope_satisfied"] is False


def test_radius_bound_command(tmp_path):
    cfg = {
        "model": "sqg",
        "scenario": "sqg_bump",
        "grid": {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 16},
        "integrator": {"kind": "rk4", "dt": 0.1, "t_end": 0.1},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["radius-bound", "--config", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "radius_bound.json").read_text())
    assert payload["C1"] == pytest.approx(27.0 * 1.5 * 32.0)
    assert payload["R_paper"] > 0
    unenforced = [c for c in payload["constraints"] if not c["enforced"]]
    assert {c["constraint"] for c in unenforced} == {
        "dual_norm_tail",
        "boundary_flux",
    }


def test_verify_identities_exit_codes(tmp_path, capsys):
    assert main(["verify-identities", "--max-n", "8"]) == 0
    capsys.readouterr()
    assert main(["verify-identities", "--max-n", "0"]) == 2
    assert main(["verify-identities", "--dims", "a,b"]) == 2
    # no dimension would run no multivariate case; a repeated one would
    # write its partition_sum_ratio entries twice
    assert main(["verify-identities", "--dims", ""]) == 2
    assert main(["verify-identities", "--dims", "2,2"]) == 2


def test_verify_identities_report_is_byte_stable(tmp_path):
    """The default exact suite: every case and every digit of the report."""
    report = tmp_path / "report.json"
    assert main(["verify-identities", "--output", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == "266d66a3e17da2617d4ecf94867c4cbfbd696154b1dd3d786a8223c218e16621"


def test_verify_identities_informational_ratio(capsys):
    assert main(["verify-identities", "--max-n", "1", "--dims", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    entries = [
        i for i in report["informational"] if i["name"] == "partition_sum_ratio[d=2,n=1]"
    ]
    assert entries and entries[0]["ratio"] == "2"


def test_verify_kernels_exit_codes(tmp_path, capsys):
    assert main(["verify-kernels", "--samples", "120", "--max-order", "3"]) == 0
    capsys.readouterr()
    assert main(["verify-kernels", "--samples", "0"]) == 2
    assert main(["verify-kernels", "--max-order", "9"]) == 2
    # with nan**0 == 1 a NaN constant would pass order 0 of every envelope
    assert main(["verify-kernels", "--ck", "nan"]) == 2
    assert main(["verify-kernels", "--ck", "inf"]) == 2
    # numpy refuses a negative seed; a huge sample count exhausts memory
    assert main(["verify-kernels", "--seed", "-1"]) == 2
    too_many = str(cli.MAX_KERNEL_SAMPLES + 1)
    assert main(["verify-kernels", "--samples", too_many]) == 2
    # c_k**max_order * max_order! beyond the float range: c_k**5 overflows
    # at 1e300, and at 1e52 the power is finite but order 6 is not
    assert main(["verify-kernels", "--ck", "1e300"]) == 2
    assert main(["verify-kernels", "--ck", "1e52", "--max-order", "6"]) == 2


def _modules_loaded_by(argv):
    """The lagpaths modules and numpy that cli.main(argv) loads in a fresh
    interpreter; its exit code must be 0."""
    code = (
        "import contextlib, io, json, sys\n"
        "from lagpaths import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "names = [m for m in sys.modules if m == 'numpy' or m.startswith('lagpaths')]\n"
        "print(json.dumps([code, names]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    exit_code, names = json.loads(done.stdout)
    assert exit_code == 0
    return set(names)


def test_verify_identities_runs_without_numpy():
    loaded = _modules_loaded_by(["verify-identities", "--max-n", "4"])
    assert "lagpaths.combinatorics" in loaded
    assert "numpy" not in loaded


def test_verify_kernels_loads_only_the_kernel_layer():
    loaded = _modules_loaded_by(["verify-kernels", "--samples", "64", "--max-order", "2"])
    assert "lagpaths.kernels" in loaded
    for name in ("dynamics", "scenarios", "jets", "taylor"):
        assert f"lagpaths.{name}" not in loaded


def test_rk4_simulate_loads_no_jet_layers(tmp_path):
    path, _ = _write_config(tmp_path)
    loaded = _modules_loaded_by(["simulate", "--config", str(path)])
    assert "lagpaths.dynamics" in loaded
    for name in ("taylor", "jets", "kernels"):
        assert f"lagpaths.{name}" not in loaded


def test_verify_kernels_report_is_byte_stable(tmp_path):
    """The default kernel suite at seed 5: every case and every digit."""
    report = tmp_path / "report.json"
    assert main(["verify-kernels", "--seed", "5", "--output", str(report)]) == 0
    digest = hashlib.sha256(report.read_bytes()).hexdigest()
    assert digest == "c6461ac185eb9ce6fcb31fb3f3ae942e2428155eb10e520de57a587e6c6b4c74"


def test_verify_kernels_fails_with_small_constant(capsys):
    code = main(["verify-kernels", "--ck", "1.0", "--samples", "120",
                 "--max-order", "3"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    failing = [c for c in report["cases"] if not c["passed"]]
    assert failing
    assert any(c["got"]["worst_ratio"] > 1.0 for c in failing)


def test_identity_suite_rejects_overrange():
    with pytest.raises(ConfigError):
        run_identity_suite(16, [1])
    with pytest.raises(ConfigError):
        run_identity_suite(5, [4])


def test_kernel_suite_rejects_bad_params():
    with pytest.raises(ConfigError):
        run_kernel_suite(32.0, 0, 100, 1)
    with pytest.raises(ConfigError):
        run_kernel_suite(-2.0, 3, 100, 1)


def test_inline_scenario_gaussian_euler2d(tmp_path):
    cfg = {
        "model": "euler2d",
        "scenario": {"field": "gaussian", "amplitude": 0.5, "width": 0.4},
        "grid": {"extent": [[-1.5, 1.5], [-1.5, 1.5]], "n_per_axis": 12},
        "integrator": {"kind": "rk4", "dt": 0.05, "t_end": 0.1},
        "diagnostics": {"pair_samples": 64, "output_every": 1},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["det_dev"] < 1e-6
    assert summary["lambda"] > 1.0


@pytest.mark.parametrize(
    "scenario, grid",
    [
        (_INLINE, {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 12}),
        ("vortex_pair", None),  # n < 16: no outer shell to drop
    ],
    ids=["inline_grid", "vortex_pair"],
)
def test_extent_probe_covers_euler2d(tmp_path, scenario, grid):
    cfg = {
        "model": "euler2d",
        "scenario": scenario,
        "integrator": {"kind": "rk4", "dt": 0.05, "t_end": 0.05},
        "diagnostics": {"pair_samples": 64, "output_every": 1},
        "output": {"directory": str(tmp_path / "out")},
    }
    if grid is not None:
        cfg["grid"] = grid
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    probe = summary["extent_sensitivity"]
    if grid is None:
        assert probe is None
    else:
        assert math.isfinite(probe) and probe > 0


def test_inline_scenario_unknown_key_rejected(tmp_path):
    cfg = {
        "model": "euler2d",
        "scenario": {"field": "gaussian", "radius": 2.0},
        "grid": {"extent": [[-1, 1], [-1, 1]], "n_per_axis": 8},
        "integrator": {"kind": "rk4", "dt": 0.05, "t_end": 0.1},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2


def test_euler3d_ring_scenario_runs(tmp_path):
    cfg = {
        "model": "euler3d",
        "scenario": "euler3d_ring",
        "grid": {
            "extent": [[-1.5, 1.5], [-1.5, 1.5], [-1.0, 1.0]],
            "n_per_axis": 8,
        },
        "integrator": {"kind": "rk4", "dt": 0.05, "t_end": 0.1},
        "diagnostics": {"pair_samples": 64, "output_every": 2},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "state.csv").read_text().splitlines()
    assert lines[0] == state_csv_header(3)
    assert lines[0].count("g") == 9


def test_boussinesq_scenario_runs(tmp_path):
    cfg = {
        "model": "boussinesq2d",
        "scenario": "boussinesq_bubble",
        "grid": {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 12},
        "integrator": {"kind": "rk4", "dt": 0.05, "t_end": 0.2},
        "diagnostics": {"pair_samples": 64, "output_every": 2},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["det_dev"] < 1e-4
    assert math.isfinite(summary["lambda"])


def test_simulate_finds_label_neighbors_once(tmp_path, monkeypatch):
    searches = _count_calls(monkeypatch, dynamics, "nearest_neighbor_pairs")
    cfg = {
        "model": "sqg",
        "scenario": "sqg_bump",
        "grid": {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 8},
        "integrator": {"kind": "rk4", "dt": 0.05, "t_end": 0.15},
        "diagnostics": {"pair_samples": 64, "output_every": 1},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 1 + 4  # four diagnosed states share one search
    assert len(searches) == 1


def test_simulate_draws_chord_arc_sample_once(tmp_path, monkeypatch):
    draws = _count_calls(monkeypatch, dynamics, "chord_arc_sample")
    chords = _count_calls(monkeypatch, dynamics, "chord_arc")
    path, _ = _write_config(
        tmp_path, diagnostics={"pair_samples": 64, "output_every": 1}
    )
    assert main(["simulate", "--config", str(path)]) == 0
    assert len(chords) == 11  # the initial state and ten steps
    assert len(draws) == 1


@pytest.mark.filterwarnings("error")
def test_tiny_delta_runs_without_warnings(tmp_path):
    path, _ = _write_config(
        tmp_path,
        model="sqg",
        scenario="sqg_bump",
        grid=_GRID,
        regularization_delta=1e-200,
        integrator={"kind": "rk4", "dt": 0.05, "t_end": 0.1},
    )
    assert main(["simulate", "--config", str(path)]) == 0


@pytest.mark.parametrize("command", ["simulate", "taylor", "radius-bound"])
def test_unusable_output_directory_exits_2_before_compute(
    tmp_path, monkeypatch, command
):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    calls = _count_calls(monkeypatch, dynamics, "evaluate_rhs")
    holder = _count_calls(monkeypatch, taylor, "holder_stats")
    cfg = {
        "model": "sqg",
        "scenario": "sqg_bump",
        "grid": _GRID,
        "integrator": {**_TAYLOR, "taylor_order": 6},
        "output": {"directory": str(blocker / "out")},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    assert calls == [] and holder == []


@pytest.mark.parametrize("command", ["verify-identities", "verify-kernels"])
def test_unusable_report_path_exits_2(tmp_path, monkeypatch, command, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    identities = command == "verify-identities"
    suite = "run_identity_suite" if identities else "run_kernel_suite"
    runs = _count_calls(monkeypatch, cli, suite)
    # the parent is a file: refused before the suite runs
    assert main([command, "--output", str(blocker / "r.json")]) == 2
    assert runs == []
    # the path is a directory: the write fails after the suite
    small = ["--max-n", "3"] if identities else ["--samples", "40", "--max-order", "2"]
    assert main([command, *small, "--output", str(tmp_path)]) == 2
    assert "cannot write" in capsys.readouterr().err
    # a missing parent directory is created
    report = tmp_path / "new" / "r.json"
    assert main([command, *small, "--output", str(report)]) == 0
    assert json.loads(report.read_text())["summary"]["failed"] == 0


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_threads_below_one_exit_2(threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", threads, "verify-identities", "--max-n", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# -- RunConfig.from_dict and build_run under fuzzed input -------------------------

# junk never holds a large int that could size a grid; 10**400 and 2**64
# probe the float and int64 ranges, 10**6 the grid cap
_NUMBER = (
    st.integers(-3, 12)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([10**400, -(10**400), 2**64, 10**6])
)
_JUNK = st.recursive(
    st.none() | st.booleans() | _NUMBER | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


_SIZE = st.floats(0.01, 2.0)
_VALID = st.fixed_dictionaries(
    {
        "model": st.sampled_from(list(dynamics.MODELS) + ["2D-Euler"]),
        "scenario": st.sampled_from(list(scenarios.SCENARIOS))
        | st.fixed_dictionaries(
            {},
            optional={
                "field": st.sampled_from(["gaussian", "stratified"]),
                "amplitude": _SIZE,
                "width": _SIZE,
                "center": st.lists(_SIZE, min_size=2, max_size=2),
            },
        ),
        "integrator": st.fixed_dictionaries(
            {"dt": _SIZE, "t_end": _SIZE},
            optional={
                "kind": st.sampled_from(["rk4", "taylor"]),
                "taylor_order": st.integers(4, 12),
                "safety": st.floats(0.1, 0.9),
            },
        ),
        "output": st.fixed_dictionaries({"directory": st.just("out")}),
    },
    optional={
        "grid": st.fixed_dictionaries(
            {
                "extent": st.lists(
                    st.tuples(st.floats(-3.0, -0.5), st.floats(0.5, 3.0)).map(list),
                    min_size=2,
                    max_size=3,
                ),
                "n_per_axis": st.integers(2, 6),
            }
        ),
        "regularization_delta": st.floats(0.0, 1.0),
        "diagnostics": st.fixed_dictionaries(
            {},
            optional={
                "pair_samples": st.integers(0, 64),
                "output_every": st.integers(1, 3),
            },
        ),
        "seed": st.integers(0, 2**32),
    },
)


def _key_paths(value, prefix=()):
    """The key path of every entry of nested mappings."""
    paths = []
    if isinstance(value, dict):
        for key, item in value.items():
            paths.append(prefix + (key,))
            paths += _key_paths(item, prefix + (key,))
    return paths


@st.composite
def _configs(draw):
    """A valid configuration with up to three entries replaced by junk,
    dropped, or joined by an unknown key."""
    cfg = draw(_VALID)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(_key_paths(cfg)))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["junk", "drop", "extra"]))
        if action == "junk":
            parent[path[-1]] = draw(_JUNK)
        elif action == "drop":
            del parent[path[-1]]
        else:
            parent[draw(st.text(max_size=6))] = draw(_JUNK)
    return cfg


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(raw=_configs() | _JUNK)
def test_fuzzed_config_gives_run_or_config_error(raw):
    with np.errstate(all="ignore"):
        try:
            cli.build_run(RunConfig.from_dict(raw))
        except ConfigError:
            pass


def test_scenario_model_table_matches_builders():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name, entry in scenarios.SCENARIOS.items():
        takes_grid = "yes" if entry.grid else "no"
        assert f"| `{name}` | `{entry.model}` | {takes_grid} |" in readme, name
        small = {"n_per_axis": 3} if entry.grid else {}
        _, spec = scenarios.build_scenario(name, **small)
        assert spec.model == entry.model, name
        if not entry.grid:
            with pytest.raises(TypeError):
                scenarios.build_scenario(name, n_per_axis=3)
