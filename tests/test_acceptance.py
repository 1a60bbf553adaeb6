"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from lagpaths import combinatorics as comb
from lagpaths.cli import main, run_identity_suite, run_kernel_suite
from lagpaths.dynamics import (
    chord_arc,
    evaluate_rhs,
    grad_u_sup,
    incompressibility_residual,
    invariants_euler2d,
    lambda_accumulate,
    rk4_step,
)
from lagpaths.scenarios import (
    corotation_closed_form,
    seeded_sqg_cloud,
    sqg_bump,
    two_vortex,
    vortex_pair,
)
from lagpaths.taylor import (
    TrajectoryJets,
    estimate_radius,
    fit_cauchy,
    holder_stats,
    ode1d_testbed,
    paper_radius_bound,
    time_jets_fast,
    time_jets_oracle,
)
from lagpaths.jets import Jet

COROTATION_PERIOD = 2.0 * math.pi**2


def _report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_exact_identities():
    t0 = time.perf_counter()
    for n in range(1, 16):
        assert comb.magic_identity_1d(n)[2]
        assert comb.magic_identity_multi(n, 1)[2] == 1
    for n in range(1, 41):
        _, _, equal, bound = comb.S_n_identity(n)
        assert equal and bound
    for m in range(1, 41):
        assert comb.convolution_identity(m)[2]
    for j in range(2, 31):
        assert comb.check_factorial_bound(j)[2]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"identity suite took {elapsed:.1f}s (budget 5s)"
    _report(1, elapsed, "all partition/coefficient identities exact (rational)")


def test_criterion_2_dimension_ratios_archived():
    t0 = time.perf_counter()
    lhs, rhs, ratio = comb.magic_identity_multi(1, 2)
    assert ratio == Fraction(2)
    report = run_identity_suite(10, [2, 3])
    names = {i["name"] for i in report.informational}
    for d in (2, 3):
        for n in range(1, 11):
            assert f"partition_sum_ratio[d={d},n={n}]" in names
    _report(
        2,
        time.perf_counter() - t0,
        "d=2,n=1 ratio equals 2; d in {2,3}, n <= 10 ratios archived",
    )


def test_criterion_3_kernel_bounds():
    t0 = time.perf_counter()
    report = run_kernel_suite(c_k=32.0, max_order=5, samples=1000, seed=7)
    envelope_cases = [
        c for c in report.cases if c["name"].startswith("derivative_envelope")
    ]
    circle_cases = [c for c in report.cases if c["name"].startswith("circle_mean")]
    assert len(envelope_cases) == 8
    assert all(c["passed"] for c in envelope_cases), [
        c["name"] for c in envelope_cases if not c["passed"]
    ]
    assert all(c["passed"] for c in circle_cases)
    worst = max(c["got"]["worst_ratio"] for c in envelope_cases)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"kernel suite took {elapsed:.1f}s (budget 60s)"
    _report(
        3,
        elapsed,
        f"derivative envelopes hold at constant 32 (worst ratio {worst:.3f}); "
        "circle means < 1e-12",
    )


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_criterion_4_cross_oracle_faa_di_bruno():
    t0 = time.perf_counter()
    # jets: partition-sum route vs Cauchy-product route
    for builder in (seeded_sqg_cloud, two_vortex):
        state, spec = builder()
        oracle = time_jets_oracle(spec, state, order=6)
        fast = time_jets_fast(spec, state, order=6)
        scale = np.max(np.abs(fast.x_coeffs), axis=(1, 2), keepdims=True)
        rel = np.max(np.abs(oracle.x_coeffs - fast.x_coeffs) / scale)
        assert rel <= 1e-9, (builder.__name__, rel)

    # exact multivariate formula vs symbolic polynomial expansion
    import random

    rng = random.Random(99)
    d = 2
    h = {
        mono: Fraction(rng.randint(-3, 3))
        for mono in itertools.product(range(3), repeat=d)
    }
    g = [[Fraction(rng.randint(-2, 2)) for _ in range(5)] for _ in range(d)]
    f = [Fraction(0)]
    for mono, cval in h.items():
        term = [cval]
        for i, e in enumerate(mono):
            for _ in range(e):
                term = _poly_mul(term, g[i])
        f = [
            (f[k] if k < len(f) else Fraction(0))
            + (term[k] if k < len(term) else Fraction(0))
            for k in range(max(len(f), len(term)))
        ]
    g0 = tuple(gi[0] for gi in g)
    for n in range(1, 9):
        h_derivs = {}
        for alpha in comb.multi_indices_up_to(n, d):
            dc = h
            for axis, e in enumerate(alpha):
                for _ in range(e):
                    nd = {}
                    for mono, cval in dc.items():
                        if mono[axis]:
                            key = list(mono)
                            key[axis] -= 1
                            nd[tuple(key)] = (
                                nd.get(tuple(key), Fraction(0)) + cval * mono[axis]
                            )
                    dc = nd
            val = Fraction(0)
            for mono, cval in dc.items():
                term = cval
                for x, e in zip(g0, mono):
                    term *= x**e
                val += term
            h_derivs[alpha] = val
        g_derivs = [
            tuple(factorial(l) * (gi[l] if l < len(gi) else Fraction(0)) for gi in g)
            for l in range(n + 1)
        ]
        expected = factorial(n) * (f[n] if n < len(f) else Fraction(0))
        assert comb.faa_di_bruno_multi(h_derivs, g_derivs, n) == expected
    _report(
        4,
        time.perf_counter() - t0,
        "oracle/fast jets within 1e-9 at order 6; polynomial compositions exact",
    )


def test_criterion_5_closed_form_dynamics():
    t0 = time.perf_counter()
    # corotation over a full period
    state, spec = two_vortex()
    h0, p0, a0 = invariants_euler2d(state)
    steps = 20_000
    for _ in range(steps):
        state = rk4_step(spec, state, COROTATION_PERIOD / steps)
    return_err = np.max(np.abs(state.positions - [[0.0, 0.0], [1.0, 0.0]]))
    assert return_err < 1e-6
    h1, p1, a1 = invariants_euler2d(state)
    assert abs(h1 - h0) < 1e-8
    assert np.max(np.abs(p1 - p0)) < 1e-8
    assert abs(a1 - a0) < 1e-8

    # translating pair speed
    state, spec = vortex_pair()
    start = state.positions.copy()
    for _ in range(200):
        state = rk4_step(spec, state, 1.0 / 200)
    speed = np.mean(state.positions[:, 0] - start[:, 0]) / 1.0
    assert abs(speed - 1.0 / (2.0 * math.pi)) < 1e-8

    # measured convergence order
    horizon = COROTATION_PERIOD / 8.0
    errors = []
    for steps in (125, 250, 500):
        s, _ = two_vortex()
        for _ in range(steps):
            s = rk4_step(spec, s, horizon / steps)
        errors.append(np.max(np.abs(s.positions - corotation_closed_form(horizon))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8, (errors, orders)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"dynamics suite took {elapsed:.1f}s (budget 120s)"
    _report(
        5,
        elapsed,
        f"period return {return_err:.1e}, pair speed exact to 1e-8, "
        f"invariant drift < 1e-8, RK4 order {min(orders):.2f}",
    )


def test_criterion_6_taylor_stepper():
    t0 = time.perf_counter()
    state, spec = two_vortex()
    h = 0.1 * COROTATION_PERIOD
    jets = time_jets_fast(spec, state, order=12)
    taylor_pos = jets.positions_at(h)
    ref = state
    for _ in range(10_000):
        ref = rk4_step(spec, ref, h / 10_000)
    step_err = np.max(np.abs(taylor_pos - ref.positions))
    assert step_err < 1e-8

    testbed = ode1d_testbed(lambda g: g * g, 1.0, 20)
    assert np.max(np.abs(testbed.coeffs - 1.0)) < 1e-12
    est = estimate_radius(
        TrajectoryJets(testbed.coeffs[:, None, None], 0.0, "euler2d", None)
    )
    assert abs(est.aggregate_ratio - 1.0) <= 0.05

    _report(
        6,
        time.perf_counter() - t0,
        f"order-12 step within {step_err:.1e} of the dense reference; "
        "testbed coefficients exact, radius estimate 1.0",
    )


@pytest.fixture(scope="module")
def bump_run():
    state, spec = sqg_bump(n_per_axis=64)
    jets = time_jets_fast(spec, state, order=12, threads=2)
    est = estimate_radius(jets)
    fitted_c, fitted_r, satisfied = fit_cauchy(jets)
    stats = holder_stats(state, gamma=0.5)
    _, _, r_paper, _ = paper_radius_bound(stats)

    rhs = evaluate_rhs(spec, state, threads=2)
    sups, times = [grad_u_sup(rhs[1])], [0.0]
    dt = 0.1
    for _ in range(10):
        state = rk4_step(spec, state, dt, threads=2, rhs0=rhs)
        rhs = evaluate_rhs(spec, state, threads=2)
        sups.append(grad_u_sup(rhs[1]))
        times.append(state.t)
    lam_hat = lambda_accumulate(sups, times)
    lo, hi = chord_arc(state, 4096, seed=0)
    return {
        "det_dev": incompressibility_residual(state),
        "chord": (lo, hi),
        "lambda_hat": lam_hat,
        "ratio_radius": est.aggregate_ratio,
        "fitted": (fitted_c, fitted_r, satisfied),
        "r_paper": r_paper,
        "final_t": state.t,
    }


def test_criterion_7_structural_invariants(bump_run):
    t0 = time.perf_counter()
    assert bump_run["final_t"] == pytest.approx(1.0)
    assert bump_run["det_dev"] < 1e-3
    lam = bump_run["lambda_hat"]
    lo, hi = bump_run["chord"]
    assert lo >= (1.0 / lam) * 0.95
    assert hi <= lam * 1.05
    _, fitted_r, satisfied = bump_run["fitted"]
    assert satisfied
    assert fitted_r > 0
    assert 0 < bump_run["r_paper"] <= bump_run["ratio_radius"]
    _report(
        7,
        time.perf_counter() - t0,
        f"det dev {bump_run['det_dev']:.1e}, chord ({lo:.3f}, {hi:.3f}) within "
        f"lambda-hat {lam:.2f} bounds, envelope satisfied, "
        f"R_paper {bump_run['r_paper']:.2e} <= ratio radius "
        f"{bump_run['ratio_radius']:.3f}",
    )


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    max_threads = str(os.cpu_count() or 2)
    blobs = []
    for tag, threads in (
        ("t1", "1"),
        ("t2", "2"),
        ("tmax", max_threads),
        ("t1_again", "1"),
    ):
        outdir = tmp_path / tag
        # 40^2 particles so that both the dynamics and the jet propagation
        # split into several row chunks and the thread pool really runs
        cfg = {
            "model": "sqg",
            "scenario": "sqg_bump",
            "grid": {"extent": [[-2.0, 2.0], [-2.0, 2.0]], "n_per_axis": 40},
            "integrator": {
                "kind": "rk4",
                "dt": 0.05,
                "t_end": 0.1,
                "taylor_order": 6,
                "safety": 0.5,
            },
            "diagnostics": {"pair_samples": 512, "output_every": 1},
            "output": {"directory": str(outdir)},
            "seed": 2024,
        }
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(cfg))
        assert main(["--threads", threads, "taylor", "--config", str(path)]) == 0
        blobs.append(
            tuple(
                (outdir / f).read_bytes()
                for f in ("state.csv", "diagnostics.csv", "summary.json", "orders.csv")
            )
        )
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    _report(
        8,
        time.perf_counter() - t0,
        f"byte-identical outputs at 1, 2, and {max_threads} threads and on rerun",
    )
