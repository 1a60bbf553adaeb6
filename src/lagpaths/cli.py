"""Batch front door: verification suites, simulation and Taylor runners.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.  All outputs are JSON (reports, run summaries) or CSV
(time series); runs are deterministic for a fixed config and seed, bitwise
independent of the worker-thread count.

The module top imports only the standard library, ``combinatorics`` and
``errors``; each function imports the numeric layers it uses, so that
``verify-identities`` runs without numpy and ``verify-kernels`` loads
``kernels`` alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Optional

from . import combinatorics as comb
from .errors import ConfigError, NumericalFailureError


# -- verification reports ------------------------------------------------------


@dataclasses.dataclass
class VerificationReport:
    suite: str
    cases: list
    informational: list

    def counts(self) -> dict:
        passed = sum(1 for c in self.cases if c["passed"])
        return {
            "total": len(self.cases),
            "passed": passed,
            "failed": len(self.cases) - passed,
            "informational": len(self.informational),
        }

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.cases)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "summary": self.counts(),
            "cases": self.cases,
            "informational": self.informational,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _exact_case(name: str, expected, got, passed) -> dict:
    """One exact identity case; the exact values are written as text."""
    return {
        "name": name, "expected": str(expected), "got": str(got), "passed": bool(passed)
    }


def run_identity_suite(max_n: int, dims: list[int]) -> VerificationReport:
    """Exact identity checks; d >= 2 partition-sum ratios are informational."""
    if max_n < 1:
        raise ConfigError("max_n must be >= 1")
    if max_n > 15:
        raise ConfigError("multivariate identities are capped at max_n = 15")
    if not dims or any(d not in (1, 2, 3) for d in dims) or len(set(dims)) < len(dims):
        raise ConfigError("dims must list distinct values from {1, 2, 3}")
    cases, info = [], []

    for j in range(2, 31):
        lhs, rhs, equal = comb.check_factorial_bound(j)
        cases.append(
            _exact_case(f"half_binomial_factorial_identity[j={j}]", rhs, lhs, equal)
        )

    for n in range(1, max_n + 1):
        lhs, rhs, equal = comb.magic_identity_1d(n)
        cases.append(
            _exact_case(f"partition_sum_closed_form_1d[n={n}]", rhs, lhs, equal)
        )

    if 1 in dims:
        for n in range(1, max_n + 1):
            lhs, rhs, ratio = comb.magic_identity_multi(n, 1)
            cases.append(
                _exact_case(
                    f"partition_sum_closed_form_multi[d=1,n={n}]", rhs, lhs, ratio == 1
                )
            )

    for n in range(1, 41):
        triple, closed, equal, bound = comb.S_n_identity(n)
        cases.append(
            _exact_case(
                f"coefficient_triple_sum[n={n}]", closed, triple, equal and bound
            )
        )

    for m in range(1, 41):
        lhs, rhs, equal = comb.convolution_identity(m)
        cases.append(_exact_case(f"coefficient_convolution[m={m}]", rhs, lhs, equal))
    lhs0, rhs0, _ = comb.convolution_identity(0)
    info.append(
        {
            "name": "coefficient_convolution[m=0]",
            "note": "closed form misses the generating-function constant at m=0",
            "lhs": str(lhs0),
            "rhs": str(rhs0),
        }
    )

    for d in dims:
        if d == 1:
            continue
        for n in range(1, min(max_n, 10) + 1):
            lhs, rhs, ratio = comb.magic_identity_multi(n, d)
            info.append(
                {
                    "name": f"partition_sum_ratio[d={d},n={n}]",
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                    "ratio": str(ratio),
                }
            )
    return VerificationReport("identities", cases, info)


CIRCLE_MEAN_KERNELS = (
    # (name in the circle-mean cases, label in the envelope cases, builder
    # in kernels)
    ("sqg", "sqg", "sqg_velocity_kernel"),
    ("biot_savart_2d", "biot_savart", "biot_savart_2d_kernel"),
    ("strain_2d", "strain2d", "strain_2d_kernel"),
)

KERNEL_BOUND_CHECKS = (
    # (label in suite_kernels, power offset, gaussian decay in the envelope)
    ("sqg_inner", 2, True),
    ("sqg_outer", 0, False),
    ("sqg_stream_part", 1, True),
    ("sqg_bounded_part", 0, True),
    ("strain2d_inner", 2, True),
    ("strain2d_outer", 0, False),
    ("biot_savart_inner", 1, True),
    ("biot_savart_outer", 0, False),
)


def suite_kernels() -> dict[str, kernels.KernelExpr]:
    """Every 2D kernel of the kernel suite, each built once, by label.

    Each catalog kernel of CIRCLE_MEAN_KERNELS comes whole and as the parts
    of its Gaussian split, "<label>_inner" and "<label>_outer"; then the
    stream-function split of the localized SQG kernel.
    """
    from . import kernels

    out = {}
    for _, label, build in CIRCLE_MEAN_KERNELS:
        expr = getattr(kernels, build)()
        out[label] = expr
        out[f"{label}_inner"], out[f"{label}_outer"] = kernels.split_gaussian(expr)
    out["sqg_stream_part"], out["sqg_bounded_part"] = kernels.decompose_kin()
    return out


def run_kernel_suite(
    c_k: float, max_order: int, samples: int, seed: int
) -> VerificationReport:
    """Derivative envelopes at the given constant, plus circle means."""
    import numpy as np

    from . import kernels

    if not 1 <= samples <= MAX_KERNEL_SAMPLES:
        raise ConfigError(f"samples must lie in 1..{MAX_KERNEL_SAMPLES}")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    if not 0 < max_order <= 6:
        raise ConfigError("max_order must lie in 1..6")
    if not (math.isfinite(c_k) and c_k > 0):
        raise ConfigError("c_k must be positive and finite")
    try:  # the largest envelope factor; a float power raises past the range
        top = c_k**max_order * math.factorial(max_order)
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ConfigError("c_k**max_order * max_order! must be a finite float")
    cases, info = [], []
    pts = kernels.bound_samples(samples, 2, seed=seed)
    built = suite_kernels()
    for label, offset, gauss in KERNEL_BOUND_CHECKS:
        rep = kernels.verify_derivative_bound(
            built[label], c_k, offset, max_order, pts, gaussian_decay=gauss
        )
        cases.append(
            {
                "name": f"derivative_envelope[{label}]",
                "expected": "worst ratio <= 1",
                "got": {
                    "worst_ratio": rep["worst_ratio"],
                    "per_order": {
                        str(k): v for k, v in rep["worst_ratio_per_order"].items()
                    },
                },
                "passed": bool(rep["passed"]),
            }
        )

    for name, label, _ in CIRCLE_MEAN_KERNELS:
        for tag in ("", "_inner", "_outer"):
            e = built[label + tag]
            worst = 0.0
            for radius in (0.5, 1.0, 2.0):
                mean = kernels.circle_mean(e, radius, 64)
                worst = max(worst, float(np.max(np.abs(mean))))
            cases.append(
                {
                    "name": f"circle_mean[{name}{tag}]",
                    "expected": "max |mean| < 1e-12 at radii 0.5, 1, 2",
                    "got": worst,
                    "passed": worst < 1e-12,
                }
            )

    # 3D strain kernel: no established envelope constant; measure one
    pts3 = kernels.bound_samples(max(samples // 4, 64), 3, seed=seed + 1)
    strain3 = kernels.strain_3d_kernel()
    rep3 = kernels.verify_derivative_bound(
        strain3, c_k, 3, min(max_order, 3), pts3, gaussian_decay=False
    )
    empirical = max(
        c_k * ratio ** (1.0 / order)
        for order, ratio in rep3["worst_ratio_per_order"].items()
        if order >= 1
    )
    mean3 = float(np.max(np.abs(kernels.circle_mean(strain3, 1.0, 24))))
    info.append(
        {
            "name": "strain3d_empirical_constant",
            "note": "3D strain kernel constant measured, not asserted",
            "constant_at_offset_3": empirical,
            "sphere_mean_radius_1": mean3,
        }
    )
    return VerificationReport("kernels", cases, info)


# -- run configuration ---------------------------------------------------------

_SCHEMA = {
    "model": str,
    "scenario": (str, dict),
    "grid": {"extent": list, "n_per_axis": int},
    "regularization_delta": (int, float),
    "integrator": {
        "kind": str,
        "dt": (int, float),
        "t_end": (int, float),
        "taylor_order": int,
        "safety": (int, float),
    },
    "diagnostics": {"pair_samples": int, "output_every": int},
    "output": {"directory": str},
    "seed": int,
}

_INLINE_SCHEMA = {
    "field": str, "amplitude": (int, float), "width": (int, float), "center": list
}

_REQUIRED = ("model", "scenario", "integrator", "output")

# a larger grid is refused before init_grid allocates it; the pairwise sums
# cost O(N^2) per evaluation, so no run near this size finishes anyway
MAX_PARTICLES = 2**20
# t_end / dt above this is refused: each step appends its snapshot rows, and a
# run of that many steps would not end in any useful time
MAX_STEPS = 2**20
# chord_arc draws and gathers every sampled pair at once, some 100 bytes each
MAX_PAIR_SAMPLES = 2**22
# verify-kernels evaluates each derivative on all samples at once and keeps
# the factors the terms share, some 330 bytes of peak memory per sample
MAX_KERNEL_SAMPLES = 2**20


def _check_keys(data: dict, schema: dict, path: str = "") -> None:
    for key, value in data.items():
        if key not in schema:
            raise ConfigError(f"unknown configuration key {path + key!r}")
        expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path + key!r} must be a mapping")
            _check_keys(value, expected, path + key + ".")
            continue
        if key == "scenario" and isinstance(value, dict):
            _check_keys(value, _INLINE_SCHEMA, "scenario.")
            continue
        # no key takes a flag, and bool would pass as an int
        if isinstance(value, bool) or not isinstance(value, expected):
            raise ConfigError(f"{path + key!r} has the wrong type")
        if isinstance(value, (int, float)) and not _is_finite_number(value):
            raise ConfigError(f"{path + key!r} must be finite")


def _is_finite_number(value) -> bool:
    """An int or float, not a bool, with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_number_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(
        map(_is_finite_number, value)
    )


@dataclasses.dataclass
class RunConfig:
    model: str
    scenario: object
    grid: Optional[dict]
    regularization_delta: Optional[float]
    integrator: dict
    diagnostics: dict
    output_dir: Path
    seed: int

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        from . import dynamics

        _check_keys(raw, _SCHEMA)
        for key in _REQUIRED:
            if key not in raw:
                raise ConfigError(f"missing required configuration key {key!r}")
        model = dynamics.normalize_model_tag(raw["model"])
        integ = dict(raw["integrator"])
        kind = integ.setdefault("kind", "rk4")
        if kind not in ("rk4", "taylor"):
            raise ConfigError("integrator.kind must be 'rk4' or 'taylor'")
        if "dt" not in integ or integ["dt"] <= 0:
            raise ConfigError("integrator.dt must be positive")
        if "t_end" not in integ or integ["t_end"] <= 0:
            raise ConfigError("integrator.t_end must be positive")
        if integ["t_end"] / integ["dt"] > MAX_STEPS:
            raise ConfigError(f"integrator.t_end / dt must be at most {MAX_STEPS}")
        integ.setdefault("taylor_order", 12)
        integ.setdefault("safety", 0.5)
        if not 0 < integ["safety"] < 1:
            raise ConfigError("integrator.safety must lie in (0, 1)")
        # radius estimation and the envelope fit need order >= 4
        if not 4 <= integ["taylor_order"] <= dynamics.FAST_MAX_ORDER:
            raise ConfigError(
                f"integrator.taylor_order must lie in 4..{dynamics.FAST_MAX_ORDER}"
            )
        diag = dict(raw.get("diagnostics", {}))
        diag.setdefault("pair_samples", 2048)
        diag.setdefault("output_every", 10)
        if diag["output_every"] < 1 or diag["pair_samples"] < 0:
            raise ConfigError("invalid diagnostics settings")
        if diag["pair_samples"] > MAX_PAIR_SAMPLES:
            raise ConfigError(
                f"diagnostics.pair_samples must be at most {MAX_PAIR_SAMPLES}"
            )
        grid = raw.get("grid")
        if grid is not None:
            if "extent" not in grid or "n_per_axis" not in grid:
                raise ConfigError("grid needs 'extent' and 'n_per_axis'")
            dim = dynamics.MODELS[model].dim
            n_axis = grid["n_per_axis"]
            if n_axis < 2 or n_axis**dim > MAX_PARTICLES:
                raise ConfigError(
                    f"grid.n_per_axis must be >= 2 and give {model} at most "
                    f"{MAX_PARTICLES} particles"
                )
            extent = grid["extent"]
            if len(extent) != dim or not all(map(_is_number_pair, extent)):
                raise ConfigError(
                    f"grid.extent must be {dim} [lo, hi] number pairs for {model}"
                )
        inline = raw["scenario"] if isinstance(raw["scenario"], dict) else {}
        if not _is_number_pair(inline.get("center", [0, 0])):
            raise ConfigError("scenario.center must be an [x, y] number pair")
        # the field divides by width^2, so 0 fails and -w would run as w
        if inline.get("width", 1) <= 0:
            raise ConfigError("scenario.width must be positive")
        delta = raw.get("regularization_delta")
        if delta is not None and delta < 0:
            raise ConfigError("regularization_delta must be >= 0")
        directory = raw["output"].get("directory")
        if not directory or "\0" in directory:
            raise ConfigError("output.directory must be a non-empty path")
        seed = raw.get("seed", 0)
        if seed < 0:  # np.random.default_rng takes no negative seed
            raise ConfigError("seed must be >= 0")
        return RunConfig(
            model=model,
            scenario=raw["scenario"],
            grid=grid,
            regularization_delta=delta,
            integrator=integ,
            diagnostics=diag,
            output_dir=Path(directory),
            seed=seed,
        )


def build_run(config: RunConfig):
    """Resolve the scenario into a (state, spec) pair, honoring overrides."""
    from . import dynamics, scenarios

    overrides = {}
    if config.grid is not None:
        overrides["extent"] = tuple(tuple(ax) for ax in config.grid["extent"])
        overrides["n_per_axis"] = config.grid["n_per_axis"]
    if config.regularization_delta is not None:
        overrides["delta"] = config.regularization_delta

    if isinstance(config.scenario, str):
        name = config.scenario
        entry = scenarios.SCENARIOS.get(name)  # build_scenario refuses unknown names
        if entry is not None and entry.model != config.model:
            raise ConfigError(
                f"config model {config.model!r} does not match scenario model "
                f"{entry.model!r}"
            )
        if entry is not None and overrides and not entry.grid:
            raise ConfigError(
                f"scenario {name!r} takes no grid or regularization_delta"
            )
        return scenarios.build_scenario(name, **overrides)
    if config.grid is None:
        raise ConfigError("inline scenarios need a grid")
    field_kind = config.scenario.get("field", "gaussian")
    params = {k: v for k, v in config.scenario.items() if k in ("amplitude", "width")}
    if field_kind == "gaussian":
        field = scenarios.gaussian_field(
            center=config.scenario.get("center", (0.0, 0.0)), **params
        )
    elif field_kind == "stratified":
        field = scenarios.stratified_field(**params)
    else:
        raise ConfigError(f"unknown inline field kind {field_kind!r}")
    label_field = dynamics.MODELS[config.model].label_field
    if label_field is None:
        raise ConfigError("inline scenarios cover the 2D models only")
    return scenarios.grid_run(config.model, **overrides, **{label_field: field})


# -- output writers -------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x) + 0.0)


def state_csv_header(dim: int) -> str:
    axes = range(1, dim + 1)
    cols = (
        ["t", "particle_id"]
        + [f"a{i}" for i in axes]
        + [f"x{i}" for i in axes]
        + [f"g{i}{j}" for i in axes for j in axes]
        + ["theta0"]
    )
    return ",".join(cols)


def append_state_rows(lines: list[str], state: dynamics.ParticleState) -> None:
    import numpy as np

    from . import dynamics

    if state.theta0 is not None:
        data_col = state.theta0
    elif state.omega0 is not None and state.omega0.ndim == 1:
        data_col = state.omega0
    else:
        data_col = np.zeros(state.n)
    g = state.grads if state.grads is not None else dynamics.identity_grads(
        state.n, state.dim
    )
    t = _fmt(state.t)
    # + 0.0 turns -0.0 into 0.0, as _fmt does; repr of each float is _fmt's text
    values = np.column_stack(
        [state.labels, state.positions, g.reshape(state.n, -1), data_col]
    ) + 0.0
    for i, row in enumerate(values.tolist()):
        lines.append(f"{t},{i},{','.join(map(repr, row))}")


# the diagnostics.csv columns in order: the keys of a diagnosed state's record
DIAG_COLUMNS = (
    "t", "chord_min", "chord_max", "lambda_bound", "grad_u_sup", "det_dev",
    "hamiltonian", "p1", "p2", "ang_imp",
)
DIAG_HEADER = ",".join(DIAG_COLUMNS)


def _is_point_vortex(spec: dynamics.ModelSpec) -> bool:
    """A constant density on the unregularized 2D Biot-Savart kernel."""
    from . import dynamics

    model = dynamics.MODELS[spec.model]
    planar = model.closed and model.kernel == "biot_savart_2d"
    return planar and spec.regularization_delta == 0.0


def _diagnose(state, spec, grad_u, chords, records: list[dict]) -> None:
    """Append the record of ``state`` to ``records``: its ``DIAG_COLUMNS``,
    None where a column does not apply, and lambda_bound, which integrates
    over the records up to this one, left for ``run_simulation`` to fill."""
    from . import dynamics

    r = dict.fromkeys(DIAG_COLUMNS)
    records.append(r)
    r["t"], r["grad_u_sup"] = state.t, dynamics.grad_u_sup(grad_u)
    r["chord_min"], r["chord_max"] = dynamics.chord_arc(state, sample=chords)
    if spec.evolve_gradients and state.grads is not None:
        r["det_dev"] = dynamics.incompressibility_residual(state)
    if _is_point_vortex(spec):
        r["hamiltonian"], p, r["ang_imp"] = dynamics.invariants_euler2d(state)
        r["p1"], r["p2"] = float(p[0]), float(p[1])


def run_simulation(config: RunConfig, run: tuple, threads: int = 1, jets=None) -> dict:
    """RK4 (or Taylor) time loop with periodic diagnostics and snapshots.

    ``run`` is ``build_run(config)``; ``jets``, the Taylor expansion at its
    initial state, saves the first Taylor step from expanding again.  Writes
    state.csv and diagnostics.csv into ``config.output_dir``, which must exist.
    """
    import numpy as np

    from . import dynamics

    state, spec = run
    integ = config.integrator
    kind = integ["kind"]
    if kind == "taylor":
        from . import taylor
    t_end, dt = float(integ["t_end"]), float(integ["dt"])
    every = config.diagnostics["output_every"]
    pair_samples = config.diagnostics["pair_samples"]

    state_lines = [state_csv_header(state.dim)]
    records: list[dict] = []

    # the diagnostics need grad u even where G is not evolved
    diag_spec = dataclasses.replace(spec, evolve_gradients=True)
    # labels never move: one neighbor search and one draw of pairs serve
    # every chord-arc sample
    neighbors = dynamics.nearest_neighbor_pairs(state.labels, threads=threads)
    chords = dynamics.chord_arc_sample(state.labels, neighbors, pair_samples, config.seed)

    def diagnose(s):
        u, grad_u, w_dot = dynamics.evaluate_rhs(diag_spec, s, threads=threads)
        _diagnose(s, spec, grad_u, chords, records)
        append_state_rows(state_lines, s)
        # RK4's first stage at s; u does not depend on grad u being computed
        return u, grad_u if spec.evolve_gradients else None, w_dot

    rhs = diagnose(state)

    step = 0
    while state.t < t_end - 1e-12:
        if kind == "rk4":
            h = min(dt, t_end - state.t)
            state = dynamics.rk4_step(spec, state, h, threads=threads, rhs0=rhs)
        else:
            cap = min(dt, t_end - state.t)
            state, _ = taylor.taylor_step(
                spec,
                state,
                order=integ["taylor_order"],
                safety=integ["safety"],
                h_cap=cap / integ["safety"],
                threads=threads,
                jets=jets,
            )
            jets = None
        rhs = None
        step += 1
        if step % every == 0 or state.t >= t_end - 1e-12:
            rhs = diagnose(state)

    # lambda over the records up to each one, in one pass over the columns
    columns = ([r[c] for r in records] for c in ("grad_u_sup", "t"))
    lams = dynamics.lambda_prefixes(*columns)
    for r, lam in zip(records, lams.tolist()):
        r["lambda_bound"] = lam
    first, last = records[0], records[-1]
    drifts = {}
    if _is_point_vortex(spec):
        h, p1, p2, ang = (
            abs(last[c] - first[c]) for c in ("hamiltonian", "p1", "p2", "ang_imp")
        )
        drifts = {"hamiltonian": h, "momentum": [p1, p2], "angular_impulse": ang}

    summary = {
        "final_t": state.t,
        "steps": step,
        "chord_min": last["chord_min"],
        "chord_max": last["chord_max"],
        "lambda": last["lambda_bound"],
        "det_dev": last["det_dev"],
        "invariant_drifts": drifts,
        # the loop ends on a diagnosed state, so rhs holds its velocity
        "extent_sensitivity": _extent_sensitivity(state, spec, rhs[0], threads),
    }

    _write_output(config.output_dir / "state.csv", state_lines)
    diag_lines = [",".join(map(_fmt, r.values())) for r in records]
    _write_output(config.output_dir / "diagnostics.csv", [DIAG_HEADER] + diag_lines)
    return summary


def _extent_sensitivity(state, spec, u_full, threads) -> Optional[float]:
    """Relative change of the fastest particle's speed when the outermost
    label shell is dropped: a direct measure of domain-truncation error.
    ``u_full`` is the velocity of the whole state."""
    import numpy as np

    from . import dynamics

    if state.n < 16:
        return None
    lo = state.labels.min(axis=0)
    hi = state.labels.max(axis=0)
    span = hi - lo
    inner = np.all(
        (state.labels > lo + 0.06 * span) & (state.labels < hi - 0.06 * span),
        axis=1,
    )
    if inner.sum() < 4 or inner.all():
        return None
    u_trim = dynamics.velocity(spec, state.subset(inner), threads=threads)
    speeds = np.linalg.norm(u_full[inner], axis=1)
    k = int(np.argmax(speeds))
    if speeds[k] == 0.0:
        return None
    return float(np.linalg.norm(u_trim[k] - u_full[inner][k]) / speeds[k])


def run_taylor_analysis(config: RunConfig, run: tuple, threads: int = 1) -> tuple:
    """Jet expansion at the initial state: radius data, envelope, bound.

    Returns the summary, the orders.csv lines and the jets, which carry what a
    first Taylor step needs (their X coefficients are the same either way).
    """
    import numpy as np

    from . import taylor

    state, spec = run
    order = config.integrator["taylor_order"]
    with_g = config.integrator["kind"] == "taylor" and spec.evolve_gradients
    jets = taylor.time_jets_fast(
        spec, state, order, with_gradients=with_g, threads=threads
    )
    est = taylor.estimate_radius(jets)
    fitted_c, fitted_r, satisfied = taylor.fit_cauchy(jets)

    lines = ["particle_id,n,coef_norm,ratio_est,root_est"]
    norms = np.linalg.norm(jets.x_coeffs, axis=2)
    for i in range(jets.n_particles):
        for n in range(order + 1):
            coef = norms[n, i]
            after = norms[n + 1, i] if n < order else 0.0
            ratio = coef / after if after > 0 else None
            root = 1.0 / coef ** (1.0 / n) if n >= 1 and coef > 0 else None
            lines.append(f"{i},{n},{_fmt(coef)},{_fmt(ratio)},{_fmt(root)}")

    def radius(r: float) -> Optional[float]:
        """A radius, or None (JSON null) where a degenerate expansion has
        no finite one."""
        return r if math.isfinite(r) else None

    summary = {
        "aggregate_radius": radius(est.aggregate_ratio),
        "aggregate_radius_root": radius(est.aggregate_root),
        "fitted_C": fitted_c,
        "fitted_R": radius(fitted_r),
        "envelope_satisfied": satisfied,
        "growing_estimates": est.growing,
        "order": order,
    }
    if state.theta0 is not None and state.grad_theta0 is not None:
        bound = run_radius_bound(config, run)
        summary.update({key: bound[key] for key in ("R_paper", "C0", "C1")})
        names = [(p["constraint"], p["enforced"]) for p in bound["constraints"]]
        summary["enforced_constraints"] = [name for name, on in names if on]
        summary["unenforced_constraints"] = [name for name, on in names if not on]
    return summary, lines, jets


def run_radius_bound(config: RunConfig, run: tuple) -> dict:
    """Holder statistics and the explicit radius bound; ``run`` is
    ``build_run(config)``."""
    from . import taylor

    state, _spec = run
    if state.theta0 is None or state.grad_theta0 is None:
        raise ConfigError("radius bound needs scalar data (theta0) scenarios")
    stats = taylor.holder_stats(state, gamma=0.5, seed=config.seed)
    c1, c0, r_paper, provenance = taylor.paper_radius_bound(stats)
    held = dataclasses.asdict(stats)  # the data norms, once gamma and lam are out
    return {
        "gamma": held.pop("gamma"),
        "lambda": held.pop("lam"),
        "holder_stats": held,
        "C0": c0,
        "C1": c1,
        "R_paper": r_paper,
        "constraints": provenance,
    }


# -- command line ----------------------------------------------------------------


def _make_output_dir(directory: Path) -> None:
    """Create an output directory before any compute, so that an unusable
    path fails at once, not after the run."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {directory}: {exc}") from exc


def _write_output(path: Path, lines: list[str]) -> None:
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _non_finite_key(value, key: str = "") -> Optional[str]:
    """The dotted key of the first non-finite number in a summary, which JSON
    cannot hold, or None."""
    if isinstance(value, float) and not math.isfinite(value):
        return key
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for k, item in items:
            found = _non_finite_key(item, f"{key}.{k}" if key else str(k))
            if found is not None:
                return found
    return None


def _thread_count(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {threads}")
    return threads


def _load_config(path: str) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagpaths",
        description="Lagrangian-path laboratory for inviscid fluid models",
    )
    parser.add_argument(
        "--threads",
        type=_thread_count,
        default=1,
        help="worker threads for pairwise sums (at least 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("verify-identities", help="exact combinatorial identities")
    p_id.add_argument("--max-n", type=int, default=15)
    p_id.add_argument("--dims", type=str, default="1,2,3")
    p_id.add_argument("--output", type=str, default=None)

    p_k = sub.add_parser("verify-kernels", help="kernel derivative envelopes")
    p_k.add_argument("--ck", type=float, default=32.0)
    p_k.add_argument("--max-order", type=int, default=5)
    p_k.add_argument("--samples", type=int, default=1000)
    p_k.add_argument("--seed", type=int, default=7)
    p_k.add_argument("--output", type=str, default=None)

    for name, help_text in (
        ("simulate", "time integration with diagnostics"),
        ("taylor", "jet expansion, radius estimates, Taylor run"),
        ("radius-bound", "Holder statistics and the explicit radius bound"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command in ("verify-identities", "verify-kernels"):
            if args.output:
                _make_output_dir(Path(args.output).parent)
            if args.command == "verify-identities":
                try:
                    dims = [int(d) for d in args.dims.split(",") if d.strip()]
                except ValueError as exc:
                    raise ConfigError(f"--dims must list integers: {exc}") from exc
                report = run_identity_suite(args.max_n, dims)
            else:
                report = run_kernel_suite(
                    args.ck, args.max_order, args.samples, args.seed
                )
            text = report.to_json()
            if args.output:
                _write_output(Path(args.output), [text])
            else:
                print(text)
            return 0 if report.all_passed() else 1
        if args.command in ("simulate", "taylor", "radius-bound"):
            config = _load_config(args.config)
            run = build_run(config)
            if args.command == "taylor" or (
                args.command == "simulate" and config.integrator["kind"] == "taylor"
            ):
                from . import taylor

                taylor.ensure_taylor_model(run[1])  # refused before any output
            _make_output_dir(config.output_dir)
            if args.command == "simulate":
                summary = run_simulation(config, run, threads=args.threads)
                name = "summary.json"
            elif args.command == "taylor":
                summary, order_lines, jets = run_taylor_analysis(
                    config, run, threads=args.threads
                )
                summary.update(
                    run_simulation(config, run, threads=args.threads, jets=jets)
                )
                _write_output(config.output_dir / "orders.csv", order_lines)
                name = "summary.json"
            else:
                summary = run_radius_bound(config, run)
                name = "radius_bound.json"
            try:
                text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
            except ValueError:
                key = _non_finite_key(summary)
                raise NumericalFailureError(f"{key} is not finite") from None
            _write_output(config.output_dir / name, [text])
            print(text)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
