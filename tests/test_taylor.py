"""Taylor-machinery checks: cross-oracles, radius estimates, stepping."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lagpaths import taylor
from lagpaths.dynamics import (
    MODELS,
    ModelSpec,
    ScalarField,
    init_grid,
    rk4_step,
    velocity,
)
from lagpaths.errors import ConfigError
from lagpaths.jets import Jet
from lagpaths.scenarios import (
    corotation_closed_form,
    gaussian_field,
    ipm_bubble,
    seeded_sqg_cloud,
    sqg_bump,
    two_vortex,
)
from lagpaths.taylor import (
    HolderStats,
    TrajectoryJets,
    estimate_radius,
    fit_cauchy,
    holder_stats,
    ode1d_testbed,
    paper_radius_bound,
    taylor_step,
    time_jets_fast,
    time_jets_oracle,
)

COROTATION_PERIOD = 2.0 * math.pi**2


def test_first_order_coefficients_equal_velocity():
    state, spec = seeded_sqg_cloud()
    u = velocity(spec, state)
    fast = time_jets_fast(spec, state, order=4)
    oracle = time_jets_oracle(spec, state, order=4)
    np.testing.assert_allclose(fast.x_coeffs[0], state.positions, atol=0)
    np.testing.assert_allclose(fast.x_coeffs[1], u, atol=1e-14)
    np.testing.assert_allclose(oracle.x_coeffs[1], u, atol=1e-14)


def test_two_vortex_jets_match_closed_form():
    state, spec = two_vortex()
    jets = time_jets_fast(spec, state, order=6)
    # corotation: X = mid -/+ arm(t), arm = 0.5 (cos wt, sin wt), w = 1/pi
    w = 1.0 / math.pi
    for n in range(7):
        arm_n = (
            0.5
            * w**n
            / math.factorial(n)
            * np.array([math.cos(n * math.pi / 2), math.sin(n * math.pi / 2)])
        )
        expected = np.stack([-arm_n, arm_n]) if n else corotation_closed_form(0.0)
        np.testing.assert_allclose(jets.x_coeffs[n], expected, atol=1e-10)


def test_x_jet_shift_identity_equals_velocity_jet():
    """d/dt of the X jet is the pairwise kernel sum of the final jets."""
    from lagpaths.jets import Jet, kernel_on_jet
    from lagpaths.kernels import regularize, sqg_velocity_kernel

    state, spec = seeded_sqg_cloud()
    order = 6
    expr = regularize(sqg_velocity_kernel(), spec.regularization_delta)
    wrho = state.weights * state.theta0
    n = state.n
    for compiled, atol in ((False, 1e-14), (True, 1e-13)):
        jets = time_jets_fast(spec, state, order, use_compiled=compiled)
        # displacement jets for every ordered pair, self pairs masked
        y = jets.x_coeffs[:, :, None, :] - jets.x_coeffs[:, None, :, :]
        y = np.moveaxis(y, 3, 1)
        eye = np.eye(n, dtype=bool)
        y[0, 0][eye] = 1.0
        kv = kernel_on_jet(expr, Jet(y)).coeffs
        kv[..., eye] = 0.0
        u_jet = np.einsum("ocij,j->oic", kv, wrho)
        shifted = jets.x_coeffs[1:] * np.arange(1, order + 1)[:, None, None]
        np.testing.assert_allclose(shifted, u_jet[:order], rtol=0, atol=atol)
    for builder in (seeded_sqg_cloud, two_vortex):
        state, spec = builder()
        oracle = time_jets_oracle(spec, state, order=6)
        fast = time_jets_fast(spec, state, order=6)
        scale = np.max(np.abs(fast.x_coeffs), axis=(1, 2), keepdims=True)
        diff = np.max(np.abs(oracle.x_coeffs - fast.x_coeffs) / scale)
        assert diff < 1e-9, diff


def test_oracle_caps():
    state, spec = seeded_sqg_cloud()
    with pytest.raises(ConfigError):
        time_jets_oracle(spec, state, order=9)


def test_single_particle_constant_jet():
    from lagpaths.dynamics import ParticleState, identity_grads

    state = ParticleState(
        dim=2,
        labels=np.array([[0.3, -0.2]]),
        positions=np.array([[0.3, -0.2]]),
        weights=np.ones(1),
        grads=identity_grads(1, 2),
        theta0=np.ones(1),
        grad_theta0=np.zeros((1, 2)),
        boussinesq_w=np.zeros(1),
    )
    spec = ModelSpec("sqg", 0.1, evolve_gradients=False)
    jets = time_jets_fast(spec, state, order=5)
    np.testing.assert_allclose(jets.x_coeffs[1:], 0.0, atol=1e-16)
    np.testing.assert_allclose(jets.x_coeffs[0, 0], state.positions[0])


def test_ode1d_testbed_cases():
    sq = ode1d_testbed(lambda g: g * g, 1.0, 20)
    np.testing.assert_allclose(sq.coeffs, np.ones(21), atol=1e-12)
    const = ode1d_testbed(lambda g: Jet(np.eye(1, len(g.coeffs)).ravel()), 2.0, 6)
    np.testing.assert_allclose(const.coeffs, [2.0, 1.0, 0, 0, 0, 0, 0], atol=1e-15)
    expo = ode1d_testbed(lambda g: g, 1.0, 10)
    np.testing.assert_allclose(
        expo.coeffs, [1.0 / math.factorial(n) for n in range(11)], rtol=1e-13
    )


def _jets_from_scalar(coeffs) -> "object":
    """Wrap a scalar coefficient sequence as single-particle TrajectoryJets."""
    from lagpaths.taylor import TrajectoryJets

    arr = np.asarray(coeffs, dtype=float)[:, None, None]
    return TrajectoryJets(arr, 0.0, "euler2d", None)


def test_estimate_radius_testbed():
    sq = ode1d_testbed(lambda g: g * g, 1.0, 20)
    est = estimate_radius(_jets_from_scalar(sq.coeffs))
    assert abs(est.aggregate_ratio - 1.0) < 0.05
    assert abs(est.aggregate_root - 1.0) < 0.05


def test_estimate_radius_degenerate_constant():
    est = estimate_radius(_jets_from_scalar([3.0] + [0.0] * 12))
    assert math.isinf(est.aggregate_ratio)
    assert est.degenerate


def test_estimate_radius_flags_entire_dynamics():
    state, spec = two_vortex()
    jets = time_jets_fast(spec, state, order=16)
    est = estimate_radius(jets)
    assert est.growing
    assert est.aggregate_ratio > 4.0  # far beyond any Cauchy-bound radius


def test_fit_cauchy_exact_envelopes():
    c, r, ok = fit_cauchy(_jets_from_scalar(np.ones(13)))
    assert ok and abs(r - 1.0) < 1e-9 and abs(c - 1.0) < 1e-9
    c, r, ok = fit_cauchy(_jets_from_scalar(0.5 ** np.arange(13)))
    assert ok and abs(r - 2.0) < 1e-9
    assert abs(c - 1.0) < 1e-9


def test_taylor_step_order12_matches_rk4_reference():
    state, spec = two_vortex()
    h = 0.1 * COROTATION_PERIOD
    jets = time_jets_fast(spec, state, order=12)
    taylor_pos = jets.positions_at(h)
    ref = state
    steps = 10_000
    for _ in range(steps):
        ref = rk4_step(spec, ref, h / steps)
    np.testing.assert_allclose(taylor_pos, ref.positions, atol=1e-8)
    np.testing.assert_allclose(taylor_pos, corotation_closed_form(h), atol=1e-8)


def test_taylor_step_api_adaptive():
    state, spec = two_vortex()
    stepped, report = taylor_step(spec, state, order=12, safety=0.5, h_cap=2.0)
    assert 0 < report["h"] <= 1.0
    np.testing.assert_allclose(
        stepped.positions, corotation_closed_form(report["h"]), atol=1e-9
    )
    assert report["truncation_indicator"] < 1e-6


def test_taylor_step_small_safety_first_order():
    state, spec = two_vortex()
    u = velocity(spec, state)
    stepped, report = taylor_step(spec, state, order=8, safety=1e-4, h_cap=1.0)
    h = report["h"]
    np.testing.assert_allclose(
        stepped.positions, state.positions + h * u, atol=5.0 * h**2
    )


def test_taylor_testbed_step_matches_exact_solution():
    sq = ode1d_testbed(lambda g: g * g, 1.0, 20)
    # truncating the geometric series at order 20 leaves h**21 / (1 - h):
    # at h = 0.3 that is ~1e-11, at h = 0.5 it is ~2e-6 and sets the error
    np.testing.assert_allclose(Jet(sq.coeffs).evaluate(0.3), 1.0 / 0.7, rtol=1e-10)
    err_half = abs(Jet(sq.coeffs).evaluate(0.5) - 2.0)
    assert 1e-7 < err_half < 4e-6


def test_taylor_vs_rk4_local_order():
    state, spec = two_vortex()
    jets = time_jets_fast(spec, state, order=4)
    errs, hs = [], [0.2, 0.1, 0.05]
    for h in hs:
        one_rk4 = rk4_step(spec, state, h)
        errs.append(np.max(np.abs(jets.positions_at(h) - one_rk4.positions)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 4.8, (errs, orders)


def test_ipm_taylor_step_consistent_with_rk4():
    state, spec = ipm_bubble(n_per_axis=12)
    jets = time_jets_fast(spec, state, order=8, with_gradients=True)
    h = 0.05
    ref = state
    for _ in range(50):
        ref = rk4_step(spec, ref, h / 50)
    np.testing.assert_allclose(jets.positions_at(h), ref.positions, atol=1e-9)
    np.testing.assert_allclose(jets.grads_at(h), ref.grads, atol=1e-8)


def test_sqg_gradient_jets_consistent_with_rk4():
    state, spec = sqg_bump(n_per_axis=12)
    jets = time_jets_fast(spec, state, order=8, with_gradients=True)
    h = 0.05
    ref = state
    for _ in range(50):
        ref = rk4_step(spec, ref, h / 50)
    np.testing.assert_allclose(jets.positions_at(h), ref.positions, atol=1e-9)
    np.testing.assert_allclose(jets.grads_at(h), ref.grads, atol=1e-8)


def test_euler2d_grid_gradient_jets_consistent_with_rk4():
    # euler2d carries no theta0, so its gradient jets take no bracket terms
    field = gaussian_field(width=0.4)
    state = init_grid(
        ((-1.5, 1.5), (-1.5, 1.5)), 10, gamma_data=ScalarField(field.value, None)
    )
    spec = ModelSpec("euler2d", 0.3)
    jets = time_jets_fast(spec, state, order=8, with_gradients=True)
    h = 0.05
    ref = state
    for _ in range(50):
        ref = rk4_step(spec, ref, h / 50)
    np.testing.assert_allclose(jets.positions_at(h), ref.positions, atol=1e-9)
    np.testing.assert_allclose(jets.grads_at(h), ref.grads, atol=1e-8)


def test_compiled_jets_match_generic_route():
    from lagpaths import _fastjets

    if not _fastjets.HAVE_NUMBA:
        pytest.skip("numba not installed")
    state, spec = sqg_bump(n_per_axis=16)
    jf = time_jets_fast(spec, state, 10, use_compiled=True)
    jg = time_jets_fast(spec, state, 10, use_compiled=False)
    scale = np.max(np.abs(jg.x_coeffs), axis=(1, 2), keepdims=True)
    assert np.max(np.abs(jf.x_coeffs - jg.x_coeffs) / scale) < 1e-12
    # unregularized pair kernel branch
    state, spec = two_vortex()
    jf = time_jets_fast(spec, state, 10, use_compiled=True)
    jg = time_jets_fast(spec, state, 10, use_compiled=False)
    np.testing.assert_allclose(jf.x_coeffs, jg.x_coeffs, atol=1e-15)
    # thread count does not change compiled results bitwise
    state, spec = sqg_bump(n_per_axis=16)
    j1 = time_jets_fast(spec, state, 8, threads=1)
    j2 = time_jets_fast(spec, state, 8, threads=2)
    assert np.array_equal(j1.x_coeffs, j2.x_coeffs)


@pytest.mark.parametrize("scenario", [seeded_sqg_cloud, two_vortex])
def test_compiled_recurrence_as_python_matches_generic_route(scenario):
    # the compiled route's recurrence run as plain Python, with or without
    # numba: p = 3 regularized (SQG cloud), p = 2 unregularized (vortices)
    from lagpaths import _fastjets

    state, spec = scenario()
    model = MODELS[spec.model]
    order = 8
    xj = np.zeros((order + 1, state.n, 2))
    xj[0] = state.positions
    delta = spec.regularization_delta
    inv_d2 = 0.0 if delta == 0.0 else 1.0 / (delta * delta)
    propagate = getattr(_fastjets._propagate, "py_func", _fastjets._propagate)
    propagate(
        xj,
        state.weights * model.density(state),
        1.0 / (2.0 * math.pi),
        model.radial_power / 2.0,
        inv_d2,
        order,
    )
    generic = time_jets_fast(spec, state, order, use_compiled=False)
    scale = np.max(np.abs(generic.x_coeffs), axis=(1, 2), keepdims=True)
    assert np.max(np.abs(xj - generic.x_coeffs) / scale) < 1e-12


def test_gradient_jets_threaded_bitwise_identical():
    # 40^2 particles at order 4 split into several pair chunks, so the
    # generic (gradient-carrying) route genuinely distributes work
    state, spec = sqg_bump(n_per_axis=40)
    j1 = time_jets_fast(spec, state, 4, with_gradients=True, threads=1)
    j2 = time_jets_fast(spec, state, 4, with_gradients=True, threads=2)
    assert np.array_equal(j1.x_coeffs, j2.x_coeffs)
    assert np.array_equal(j1.g_coeffs, j2.g_coeffs)


def test_ipm_gradient_jets_threaded_bitwise_identical():
    # the density-jet route: 24^2 particles split into several pair blocks
    state, spec = ipm_bubble(n_per_axis=24)
    j1 = time_jets_fast(spec, state, 4, with_gradients=True, threads=1)
    j2 = time_jets_fast(spec, state, 4, with_gradients=True, threads=2)
    assert np.array_equal(j1.x_coeffs, j2.x_coeffs)
    assert np.array_equal(j1.g_coeffs, j2.g_coeffs)


@pytest.mark.parametrize(
    "scenario, order",
    [(lambda: sqg_bump(n_per_axis=16), 8), (lambda: ipm_bubble(n_per_axis=12), 6)],
    ids=["sqg_bump", "ipm_bubble"],
)
def test_cached_and_rebuilt_pair_blocks_bitwise_equal(monkeypatch, scenario, order):
    state, spec = scenario()
    cached = time_jets_fast(spec, state, order, with_gradients=True, threads=2)
    monkeypatch.setattr(taylor, "JET_CACHE_BYTES", 0)  # every block rebuilds
    rebuilt = time_jets_fast(spec, state, order, with_gradients=True, threads=2)
    assert cached.x_coeffs.tobytes() == rebuilt.x_coeffs.tobytes()
    assert cached.g_coeffs.tobytes() == rebuilt.g_coeffs.tobytes()


def _radius_per_particle_loop(jets):
    """estimate_radius's per-particle loop before it was vectorized."""
    order = jets.order
    mags = np.abs(jets.x_coeffs)
    tiny = 1e-300
    half = order // 2
    n_idx = np.arange(half, order)
    ratio_pp = np.full(jets.n_particles, np.inf)
    root_pp = np.full(jets.n_particles, np.inf)
    growing_flags = []
    norms = np.linalg.norm(jets.x_coeffs, axis=2)

    def seq_estimates(seq):
        floor = seq.max() * 1e-14 + tiny
        num, den = seq[n_idx], seq[n_idx + 1]
        valid = (num > floor) & (den > floor)
        ratio = float(np.median(num[valid] / den[valid])) if np.any(valid) else None
        tail = seq[half:]
        nz = tail > floor
        root = None
        if np.any(nz):
            exps = np.arange(half, order + 1)[nz]
            root = float(1.0 / np.max(tail[nz] ** (1.0 / exps)))
        return ratio, root

    for i in range(jets.n_particles):
        comp_ratio, comp_root = [], []
        for c in range(mags.shape[2]):
            ratio, root = seq_estimates(mags[:, i, c])
            if ratio is not None:
                comp_ratio.append(ratio)
            if root is not None:
                comp_root.append(root)
        if not comp_ratio:
            ratio, root = seq_estimates(norms[:, i])
            comp_ratio = [ratio] if ratio is not None else []
            comp_root = comp_root or ([root] if root is not None else [])
        if comp_ratio:
            ratio_pp[i] = min(comp_ratio)
        if comp_root:
            root_pp[i] = min(comp_root)
        if order > 10:
            nseq = norms[:, i]
            if np.all(nseq[half + 1 :] > tiny):
                nr = nseq[half:-1] / nseq[half + 1 :]
                if len(nr) >= 3:
                    growing_flags.append(bool(np.all(np.diff(nr) > 0)))
    return ratio_pp, root_pp, bool(growing_flags and all(growing_flags))


@pytest.mark.parametrize("order", [5, 8, 12])
@pytest.mark.parametrize(
    "scenario",
    [two_vortex, lambda: sqg_bump(n_per_axis=12)],
    ids=["two_vortex", "sqg_bump"],
)
def test_estimate_radius_matches_per_particle_loop(scenario, order):
    # two_vortex has exact zeros in single components (the fallback paths)
    state, spec = scenario()
    jets = time_jets_fast(spec, state, order)
    ratio, root, growing = _radius_per_particle_loop(jets)
    est = estimate_radius(jets)
    assert est.per_particle_ratio.tobytes() == ratio.tobytes()
    assert est.per_particle_root.tobytes() == root.tobytes()
    assert est.growing == growing


def test_estimate_radius_flags_growth_like_per_particle_loop():
    # ratio estimates c_n / c_(n+1) that rise with n flag growth
    n = np.arange(13)
    g = np.exp(0.3 * n - 0.01 * n**2)
    grow = TrajectoryJets(np.tile(g[:, None, None], (1, 3, 2)), 0.0, "sqg")
    assert _radius_per_particle_loop(grow)[2]
    assert estimate_radius(grow).growing


def test_holder_stats_basics():
    state, _ = sqg_bump(n_per_axis=24, amplitude=0.0)
    state.theta0[:] = 2.5
    state.grad_theta0[:] = 0.0
    stats = holder_stats(state, gamma=0.5)
    assert stats.theta_seminorm == 0.0
    assert stats.theta_linf == 2.5
    assert stats.map_norm == pytest.approx(1.0)


def test_holder_stats_linear_field_lower_bound():
    state, _ = sqg_bump(n_per_axis=24)
    state.theta0[:] = state.labels[:, 0]
    state.grad_theta0[:] = np.array([1.0, 0.0])
    stats = holder_stats(state, gamma=0.5, sample_pairs=4096, seed=3)
    pairs_max = stats.theta_seminorm
    # the estimator is the sampled max of |da_1| / |da|^(1/2); any sampled
    # value is a valid lower bound and the axis-aligned far pair dominates
    assert pairs_max > 1.0


def test_holder_stats_gaussian_l1():
    state, _ = sqg_bump(n_per_axis=128, extent=((-4.0, 4.0), (-4.0, 4.0)))
    stats = holder_stats(state, gamma=0.5)
    exact = 2.0 * math.pi * 0.5**2  # integral of the unit-amplitude Gaussian
    assert abs(stats.theta_l1 - exact) / exact < 0.01


def test_paper_radius_bound_plugins():
    stats = HolderStats(
        gamma=0.5,
        lam=1.5,
        theta_seminorm=1.0,
        theta_l1=1.0,
        grad_theta_seminorm=0.0,
        grad_theta_l1=0.0,
        grad_theta_linf=0.0,
        theta_linf=1.0,
        map_norm=1.0,
    )
    c1, c0, r, provenance = paper_radius_bound(stats, c_k=32.0)
    assert c1 == pytest.approx(27.0 * 1.5 * 32.0)  # = 1296
    scalar = [p for p in provenance if p["constraint"] == "scalar_data"][0]
    assert scalar["value"] == pytest.approx(128.0)
    assert c0 == pytest.approx(128.0)
    assert r == pytest.approx(1.0 / (128.0 * 1296.0))
    unenforced = [p for p in provenance if not p["enforced"]]
    assert len(unenforced) == 2


def test_paper_radius_bound_degenerate_data():
    stats = HolderStats(
        gamma=0.5, lam=1.25, theta_seminorm=0.0, theta_l1=0.0,
        grad_theta_seminorm=0.0, grad_theta_l1=0.0, grad_theta_linf=0.0,
        map_norm=1.0,
    )
    c1, c0, r, _ = paper_radius_bound(stats)
    assert c0 == 1.0  # only the map-norm constraint binds
    assert r > 0.0


def test_paper_radius_bound_monotone():
    base = dict(
        gamma=0.4, lam=1.4, theta_seminorm=0.7, theta_l1=0.3,
        grad_theta_seminorm=0.9, grad_theta_l1=0.2, grad_theta_linf=1.1,
        theta_linf=1.0, map_norm=1.0,
    )
    _, _, r0, _ = paper_radius_bound(HolderStats(**base))
    for key in (
        "theta_seminorm", "theta_l1", "grad_theta_seminorm",
        "grad_theta_l1", "grad_theta_linf", "map_norm",
    ):
        bumped = dict(base)
        bumped[key] = base[key] * 3.0 + 1.0
        _, _, r1, _ = paper_radius_bound(HolderStats(**bumped))
        assert r1 <= r0, key


def test_paper_radius_bound_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        HolderStats(
            gamma=1.5, lam=1.4, theta_seminorm=0, theta_l1=0,
            grad_theta_seminorm=0, grad_theta_l1=0, grad_theta_linf=0,
        )
    with pytest.raises(ConfigError):
        HolderStats(
            gamma=0.5, lam=1.7, theta_seminorm=0, theta_l1=0,
            grad_theta_seminorm=0, grad_theta_l1=0, grad_theta_linf=0,
        )
