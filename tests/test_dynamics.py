"""Dynamics checks: closed-form vortex motion, symmetry, and G consistency."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from lagpaths import dynamics
from lagpaths.dynamics import (
    MODELS,
    ROT90,
    ModelSpec,
    ScalarField,
    evaluate_rhs,
    grad_u_sup,
    identity_grads,
    incompressibility_residual,
    init_grid,
    invariants_euler2d,
    lambda_prefixes,
    make_point_vortex_state,
    operator_norms,
    poisson_bracket,
    rk4_step,
    velocity,
)
from lagpaths.errors import ConfigError, NumericalFailureError
from lagpaths.kernels import catalog
from lagpaths.scenarios import (
    boussinesq_bubble,
    euler3d_ring,
    gaussian_field,
    ipm_bubble,
    ipm_stratified,
    sqg_bump,
    two_vortex,
    vortex_pair,
)
from reference import corotation_closed_form, sampled_chord_arc

TWO_PI = 2.0 * math.pi
COROTATION_PERIOD = 2.0 * math.pi**2


def test_init_grid_basic():
    state = init_grid(((0.0, 1.0), (0.0, 1.0)), 2)
    assert state.n == 4
    np.testing.assert_allclose(state.weights, 0.25)
    np.testing.assert_allclose(
        sorted(map(tuple, state.labels)),
        [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)],
    )
    np.testing.assert_allclose(state.grads, identity_grads(4, 2))


def test_init_grid_rejects_degenerate_extent():
    with pytest.raises(ConfigError):
        init_grid(((0.0, 0.0), (0.0, 1.0)), 4)


def test_init_grid_fd_gradient_close_to_analytic():
    field = gaussian_field()
    plain = ScalarField(field.value, None)
    state = init_grid(((-2.0, 2.0), (-2.0, 2.0)), 48, theta0=plain)
    exact = field.gradient(state.labels)
    err = np.max(np.abs(state.grad_theta0 - exact))
    assert err < 2.5e-2


def test_two_point_vortex_velocity():
    state, spec = two_vortex()
    u = velocity(spec, state)
    np.testing.assert_allclose(u[0], [0.0, -1.0 / TWO_PI], atol=1e-15)
    np.testing.assert_allclose(u[1], [0.0, 1.0 / TWO_PI], atol=1e-15)


def test_coincident_points_fail():
    state = make_point_vortex_state([(0.0, 0.0), (0.0, 0.0)], [1.0, 1.0])
    with pytest.raises(NumericalFailureError):
        velocity(ModelSpec("euler2d", 0.0, evolve_gradients=False), state)


def test_constant_theta_sqg_symmetries():
    # odd grid: the center particle sees an exactly negation-symmetric cloud
    field = ScalarField(lambda a: np.ones(len(a)), lambda a: np.zeros_like(a))
    state = init_grid(((-1.0, 1.0), (-1.0, 1.0)), 15, theta0=field)
    spec = ModelSpec("sqg", 0.25, evolve_gradients=False)
    u = velocity(spec, state)
    center = np.argmin(np.linalg.norm(state.labels, axis=1))
    np.testing.assert_allclose(u[center], 0.0, atol=1e-14)
    # total induced momentum vanishes by kernel antisymmetry
    mom = np.einsum("n,n,nk->k", state.weights, state.theta0, u)
    np.testing.assert_allclose(mom, 0.0, atol=1e-12)
    # vanishing data gradient kills the gradient dynamics entirely
    dg = evaluate_rhs(ModelSpec("sqg", 0.25), state)[1]
    np.testing.assert_allclose(dg, 0.0)


def test_euler2d_induced_momentum_conserved():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(20, 2))
    circ = rng.uniform(-1, 1, size=20)
    state = make_point_vortex_state(pts, circ)
    spec = ModelSpec("euler2d", 0.0, evolve_gradients=False)
    u = velocity(spec, state)
    mom = np.einsum("n,n,nk->k", state.weights, state.omega0, u)
    np.testing.assert_allclose(mom, 0.0, atol=1e-12)


def test_radial_sqg_velocity_is_tangential():
    state, spec = sqg_bump(n_per_axis=64)
    u = velocity(spec, state)
    r = state.labels
    speeds = np.linalg.norm(u, axis=1)
    radial = np.abs(np.einsum("nk,nk->n", u, r)) / np.maximum(
        np.linalg.norm(r, axis=1), 1e-12
    )
    active = speeds > 1e-3 * speeds.max()
    assert np.max(radial[active] / speeds[active]) < 1e-3


def test_ipm_stratified_is_equilibrium():
    state, spec = ipm_stratified(n_per_axis=24)
    u = velocity(spec, state)
    np.testing.assert_allclose(u, 0.0, atol=1e-14)
    dg = evaluate_rhs(spec, state)[1]
    np.testing.assert_allclose(dg, 0.0, atol=1e-14)


def test_poisson_bracket_values():
    assert poisson_bracket((1.0, 0.0), (0.0, 1.0)) == 1.0
    assert poisson_bracket((2.0, 3.0), (2.0, 3.0)) == 0.0
    assert poisson_bracket((2.0, 3.0), (-1.0, 4.0)) == 11.0


def test_gradient_trace_free_euler2d_grid():
    field = gaussian_field(width=0.4)
    state = init_grid(
        ((-1.5, 1.5), (-1.5, 1.5)),
        24,
        gamma_data=ScalarField(field.value, None),
    )
    spec = ModelSpec("euler2d", 0.25)
    dg = evaluate_rhs(spec, state)[1]
    traces = dg[:, 0, 0] + dg[:, 1, 1]
    np.testing.assert_allclose(traces, 0.0, atol=1e-12)


def test_two_vortex_gradient_local_term():
    state, _ = two_vortex()
    spec = ModelSpec("euler2d", 0.0, evolve_gradients=True)
    dg = evaluate_rhs(spec, state)[1]
    # at t = 0 (G = I) the antisymmetric part is the half-vorticity rotation
    antisym = 0.5 * (dg[0] - dg[0].T)
    np.testing.assert_allclose(
        antisym, 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-15
    )
    strain = 0.5 * (dg[0] + dg[0].T)
    np.testing.assert_allclose(
        strain, np.array([[0.0, -1.0], [-1.0, 0.0]]) / TWO_PI, atol=1e-15
    )


def test_rk4_zero_velocity_fixed_point():
    state, spec = ipm_stratified(n_per_axis=12)
    stepped = rk4_step(spec, state, 0.05)
    np.testing.assert_allclose(stepped.positions, state.positions, atol=1e-15)
    np.testing.assert_allclose(stepped.grads, state.grads, atol=1e-15)


def test_two_vortex_corotation_short_arc():
    state, spec = two_vortex()
    t_end = COROTATION_PERIOD / 16.0
    steps = 400
    dt = t_end / steps
    for _ in range(steps):
        state = rk4_step(spec, state, dt)
    np.testing.assert_allclose(
        state.positions, corotation_closed_form(t_end), atol=1e-10
    )


def test_vortex_pair_translation_speed():
    state, spec = vortex_pair()
    t_end, steps = 1.0, 200
    start = state.positions.copy()
    for _ in range(steps):
        state = rk4_step(spec, state, t_end / steps)
    drift = state.positions - start
    np.testing.assert_allclose(drift[:, 0], t_end / TWO_PI, atol=1e-8)
    np.testing.assert_allclose(drift[:, 1], 0.0, atol=1e-10)


def test_rk4_convergence_order():
    _, spec = two_vortex()
    t_end = COROTATION_PERIOD / 8.0
    errors = []
    for steps in (50, 100, 200):
        state, _ = two_vortex()
        for _ in range(steps):
            state = rk4_step(spec, state, t_end / steps)
        errors.append(
            np.max(np.abs(state.positions - corotation_closed_form(t_end)))
        )
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 3.8, (errors, orders)


def test_point_vortex_invariants_at_start():
    state, _ = two_vortex()
    h, p, ang = invariants_euler2d(state)
    assert h == 0.0
    np.testing.assert_allclose(p, [1.0, 0.0])
    assert ang == 1.0


def test_invariant_drift_small():
    state, spec = two_vortex()
    h0, p0, a0 = invariants_euler2d(state)
    steps = 500
    dt = (COROTATION_PERIOD / 8.0) / steps
    for _ in range(steps):
        state = rk4_step(spec, state, dt)
    h1, p1, a1 = invariants_euler2d(state)
    assert abs(h1 - h0) < 1e-10
    np.testing.assert_allclose(p1, p0, atol=1e-10)
    assert abs(a1 - a0) < 1e-10


def test_chord_arc_identity_and_rigid_rotation():
    state, _ = sqg_bump(n_per_axis=12)
    assert sampled_chord_arc(state, 256, seed=1) == (1.0, 1.0)
    ang = 0.7
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    rotated = state.replace(positions=state.positions @ rot.T)
    lo, hi = sampled_chord_arc(rotated, 256, seed=1)
    assert abs(lo - 1.0) < 1e-12 and abs(hi - 1.0) < 1e-12


def test_chord_arc_flags_coincident_positions():
    state, _ = sqg_bump(n_per_axis=4)
    pos = state.positions.copy()
    pos[1] = pos[0]
    collapsed = state.replace(positions=pos)
    lo, hi = sampled_chord_arc(collapsed, 64, seed=2)
    assert math.isinf(hi)
    assert math.isfinite(lo)


def _argmin_neighbors(labels):
    """The brute-force nearest-neighbour scan the cell list replaced."""
    n = len(labels)

    def chunk_fn(rng):
        i0, i1 = rng
        d2 = np.sum(
            (labels[i0:i1, None, :] - labels[None, :, :]) ** 2, axis=-1
        )
        rows = np.arange(i0, i1)
        d2[rows - i0, rows] = np.inf
        return np.argmin(d2, axis=1)

    rows = max(1, dynamics.PAIR_BLOCK // n)
    nearest = np.concatenate(dynamics._run_chunks(chunk_fn, n, rows))
    return np.stack([np.arange(n), nearest], axis=-1)


def _sorted_neighbors(labels, k):
    """Each row's k nearest other labels by (squared distance, index)."""
    n = len(labels)
    d2 = np.sum((labels[:, None, :] - labels[None, :, :]) ** 2, axis=-1)
    return [
        sorted((j for j in range(n) if j != i), key=lambda j: (d2[i, j], j))[:k]
        for i in range(n)
    ]


def _label_clouds():
    rng = np.random.default_rng(7)
    dense = rng.uniform(size=(400, 2)) * (4.0, 1.0)
    sparse = rng.uniform(size=(40, 2)) * (20.0, 1.0) + (4.0, 0.0)
    t = np.linspace(0.0, 1.0, 60)
    return {
        "grid2d": init_grid(((-2.0, 2.0), (-1.0, 1.0)), 20).labels,
        "grid3d": init_grid(((-1.0, 1.0),) * 3, 7).labels,
        "uniform": rng.uniform(-1.0, 1.0, size=(500, 2)),
        # cells fit the dense part, so rows of the sparse strip find no
        # k-th neighbour within one cell and are searched again
        "clustered": np.concatenate([dense, sparse]),
        "collinear": np.stack([t, 2.0 * t, -t], axis=-1),
        "duplicated": np.repeat(rng.uniform(size=(40, 2)), 3, axis=0),
        "two": np.array([[0.0, 0.0], [0.5, 0.5]]),
    }


@pytest.mark.parametrize("cloud", list(_label_clouds()))
def test_nearest_neighbor_pairs_match_brute_force(monkeypatch, cloud):
    labels = _label_clouds()[cloud]
    n = len(labels)
    assert np.array_equal(
        dynamics.nearest_neighbor_pairs(labels), _argmin_neighbors(labels)
    )
    kmax = min(4, n - 1)
    want = _sorted_neighbors(labels, kmax)
    searches = []
    run_chunks = dynamics._run_chunks

    def spy(fn, n, rows, threads=1):
        searches.append(n)
        return run_chunks(fn, n, rows, threads)

    monkeypatch.setattr(dynamics, "_run_chunks", spy)
    for k in range(1, kmax + 1):
        for threads in (1, 2):
            got = dynamics.nearest_neighbor_pairs(labels, k, threads)
            pairs = [(i, j) for i, row in enumerate(want) for j in row[:k]]
            assert list(map(tuple, got.tolist())) == pairs, (k, threads)
    if cloud == "clustered":
        # every search met rows with no k-th neighbour within one cell
        assert len(searches) == 2 * 2 * kmax
    with pytest.raises(ValueError):
        dynamics.nearest_neighbor_pairs(labels, n)


def test_lambda_prefixes_match_a_trapezoid_per_prefix():
    # a long uneven history: steps of 0.2 to 1.8 times the mean
    rng = np.random.default_rng(8)
    n = 10001
    times = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.8, n - 1))))
    times *= 20.0 / times[-1]
    hist = np.abs(1.0 + 0.5 * np.sin(times) + 0.1 * rng.normal(size=n))
    got = dynamics.lambda_prefixes(hist, times)
    want = [math.exp(np.trapezoid(hist[:k], x=times[:k])) for k in range(1, n + 1)]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert got[0] == 1.0


def test_run_chunks_keeps_one_pool_per_worker_count():
    for _ in range(2):
        got = dynamics._run_chunks(lambda c: c, 10, 3, threads=2)
        assert got == [(0, 3), (3, 6), (6, 9), (9, 10)]
    made = dynamics._pool.cache_info().misses
    dynamics._run_chunks(lambda c: c, 10, 3, threads=2)
    assert dynamics._pool.cache_info().misses == made

    def fail(c):
        if c[0] == 0:
            raise ValueError("first chunk")
        return c

    with pytest.raises(ValueError, match="first chunk"):
        dynamics._run_chunks(fail, 10, 3, threads=2)


def test_lambda_accumulate():
    assert lambda_prefixes([0.0, 0.0, 0.0], [0.0, 0.1, 0.2])[-1] == 1.0
    c, t_end, steps = 0.7, 2.0, 400
    hist = np.full(steps + 1, c)
    times = np.linspace(0.0, t_end, steps + 1)
    np.testing.assert_allclose(
        lambda_prefixes(hist, times)[-1], math.exp(c * t_end), rtol=1e-12
    )
    # a short last step: the spacing is uneven
    np.testing.assert_allclose(
        lambda_prefixes([c, c, c], [0.0, 0.1, 0.15])[-1], math.exp(c * 0.15),
        rtol=1e-12,
    )


def test_incompressibility_residual_zero_at_start():
    state, _ = sqg_bump(n_per_axis=12)
    assert incompressibility_residual(state) == 0.0


def test_operator_norm_2x2_matches_svd():
    rng = np.random.default_rng(8)
    mats = rng.normal(size=(40, 2, 2))
    np.testing.assert_allclose(
        operator_norms(mats),
        np.linalg.svd(mats, compute_uv=False)[:, 0],
        rtol=1e-12,
    )


def _fd_flow_gradient(pos_grid: np.ndarray, h: float) -> np.ndarray:
    """4th-order label finite differences of the evolved positions."""
    n = pos_grid.shape[0]
    grads = np.full((n, n, 2, 2), np.nan)
    for axis in range(2):
        p = np.moveaxis(pos_grid, axis, 0)
        der = (-p[4:] + 8.0 * p[3:-1] - 8.0 * p[1:-3] + p[:-4]) / (12.0 * h)
        np.moveaxis(grads, axis, 0)[2:-2, :, :, axis] = der
    return grads


def _flow_map_fd_error(builder, n):
    state, spec = builder(n_per_axis=n, width=0.5)
    h = state.labels[n, 0] - state.labels[0, 0]  # grid spacing along axis 0
    t_end, steps = 0.5, 10
    for _ in range(steps):
        state = rk4_step(spec, state, t_end / steps)
    sl = slice(2, n - 2)
    fd = _fd_flow_gradient(state.positions.reshape(n, n, 2), h)[sl, sl]
    ev = state.grads.reshape(n, n, 2, 2)[sl, sl]
    err = np.max(np.abs(fd - ev)) / np.max(np.abs(ev))
    deviation = np.max(np.abs(ev - np.eye(2)))
    return err, deviation


@pytest.mark.parametrize("builder", [sqg_bump, ipm_bubble, boussinesq_bubble])
def test_label_gradient_matches_flow_map_fd(builder):
    """Evolved G must converge to the label derivative of the evolved map.

    The residual at fixed resolution is blob-scale discretization error; a
    sign or multiplication-order mistake in the gradient dynamics would
    instead leave an O(1) plateau, so the refinement ratio is the real check.
    """
    err_coarse, _ = _flow_map_fd_error(builder, 16)
    err_fine, deviation = _flow_map_fd_error(builder, 32)
    assert err_fine < 0.07, (err_coarse, err_fine)
    assert err_coarse / err_fine > 2.0, (err_coarse, err_fine)
    # the map stayed measurably non-trivial, so the check has teeth
    assert deviation > 0.05


def test_tracer_gradient_matches_trajectory_fd():
    """For point vortices plus a tracer, G of the tracer equals the FD
    derivative of its final position with respect to its initial label."""
    eps = 1e-5
    base = np.array([0.4, 0.1])
    offsets = [(0.0, 0.0), (eps, 0.0), (-eps, 0.0), (0.0, eps), (0.0, -eps)]
    positions = [(0.0, 0.0), (1.0, 0.0)] + [tuple(base + o) for o in offsets]
    circs = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    state = make_point_vortex_state(positions, circs)
    spec = ModelSpec("euler2d", 0.0, evolve_gradients=True)
    t_end, steps = COROTATION_PERIOD / 8.0, 400
    for _ in range(steps):
        state = rk4_step(spec, state, t_end / steps)
    fd = np.stack(
        [
            (state.positions[3] - state.positions[4]) / (2 * eps),
            (state.positions[5] - state.positions[6]) / (2 * eps),
        ],
        axis=-1,
    )
    np.testing.assert_allclose(state.grads[2], fd, atol=2e-5)


def test_gradient_inverse_consistency_after_run():
    state, spec = sqg_bump(n_per_axis=20)
    for _ in range(8):
        state = rk4_step(spec, state, 0.05)
    res = incompressibility_residual(state)
    G = state.grads
    adj = np.empty_like(G)
    adj[:, 0, 0] = G[:, 1, 1]
    adj[:, 0, 1] = -G[:, 0, 1]
    adj[:, 1, 0] = -G[:, 1, 0]
    adj[:, 1, 1] = G[:, 0, 0]
    inv = np.linalg.inv(G)
    err = np.max(np.abs(inv - adj))
    assert err <= 4.0 * res * np.max(operator_norms(G)) + 1e-13


def test_boussinesq_reduces_to_euler2d_without_theta():
    field = gaussian_field(width=0.4)
    zero = ScalarField(lambda a: np.zeros(len(a)), lambda a: np.zeros_like(a))
    vort = ScalarField(field.value, None)
    s_bous = init_grid(((-1.5, 1.5), (-1.5, 1.5)), 16, theta0=zero, gamma_data=vort)
    s_eul = init_grid(((-1.5, 1.5), (-1.5, 1.5)), 16, gamma_data=vort)
    spec_b = ModelSpec("boussinesq2d", 0.375)
    spec_e = ModelSpec("euler2d", 0.375)
    for _ in range(4):
        s_bous = rk4_step(spec_b, s_bous, 0.05)
        s_eul = rk4_step(spec_e, s_eul, 0.05)
    np.testing.assert_allclose(s_bous.positions, s_eul.positions, atol=1e-14)
    np.testing.assert_allclose(s_bous.grads, s_eul.grads, atol=1e-14)
    np.testing.assert_allclose(s_bous.boussinesq_w, 0.0, atol=1e-15)


def test_buoyancy_directions():
    # positive density anomaly sinks under Darcy gravity but rises in the
    # Boussinesq system, where theta enters as upward buoyancy
    for builder, sign in ((ipm_bubble, -1.0), (boussinesq_bubble, +1.0)):
        state, spec = builder(n_per_axis=20)
        z0 = np.average(state.positions[:, 1], weights=state.theta0)
        for _ in range(10):
            state = rk4_step(spec, state, 0.05)
        z1 = np.average(state.positions[:, 1], weights=state.theta0)
        assert sign * (z1 - z0) > 1e-4, (builder.__name__, z1 - z0)


def test_boussinesq_accumulator_rate():
    state, spec = boussinesq_bubble(n_per_axis=16)
    dt = 1e-3
    stepped = rk4_step(spec, state, dt)
    # dW/dt at t=0 equals {theta0, a_2} = d theta0 / d a_1
    expected = state.grad_theta0[:, 0] * dt
    np.testing.assert_allclose(stepped.boussinesq_w, expected, atol=1e-9)


def test_euler3d_ring_translates_axially():
    state, spec = euler3d_ring(n_per_axis=10)
    u = velocity(spec, state)
    wnorm = np.linalg.norm(state.omega0, axis=1)
    core = wnorm > 0.3 * wnorm.max()
    # the ring pushes itself along +z and the mean transverse drift cancels
    assert np.mean(u[core, 2]) > 0.0
    assert abs(np.mean(u[core, 0])) < 1e-12
    assert abs(np.mean(u[core, 1])) < 1e-12
    dg = evaluate_rhs(spec, state)[1]
    traces = np.trace(dg, axis1=1, axis2=2)
    np.testing.assert_allclose(traces, 0.0, atol=1e-12)


def test_grad_u_sup_positive_on_active_flow():
    state, spec = sqg_bump(n_per_axis=16)
    gu = evaluate_rhs(spec, state)[1]
    sup = grad_u_sup(gu)
    assert sup > 0.0
    assert np.max(operator_norms(gu)) == pytest.approx(sup)


def test_grad_u_sup_matches_label_gradient_route():
    # away from t = 0 (G != I), grad u read off the RHS equals the one
    # recovered from the label-gradient rate as (dG/dt) G^-1
    state, spec = sqg_bump(n_per_axis=16)
    for _ in range(3):
        state = rk4_step(spec, state, 0.1)
    assert np.max(np.abs(state.grads - np.eye(2))) > 0.05
    gu = evaluate_rhs(spec, state)[1]
    dg = np.einsum("nij,njk->nik", gu, state.grads)
    recovered = np.einsum("nij,njk->nik", dg, np.linalg.inv(state.grads))
    expected = float(np.max(operator_norms(recovered)))
    assert grad_u_sup(gu) == pytest.approx(expected, rel=1e-12)


def test_threaded_rhs_bitwise_identical():
    # 40^2 particles split into more than one row chunk, so the thread pool
    # genuinely distributes work
    state, spec = sqg_bump(n_per_axis=40)
    u1, g1, _ = evaluate_rhs(spec, state, threads=1)
    u2, g2, _ = evaluate_rhs(spec, state, threads=2)
    u4, g4, _ = evaluate_rhs(spec, state, threads=4)
    assert np.array_equal(u1, u2) and np.array_equal(u1, u4)
    assert np.array_equal(g1, g2) and np.array_equal(g1, g4)


@pytest.mark.parametrize(
    "make", [lambda: ipm_bubble(n_per_axis=32), lambda: euler3d_ring(n_per_axis=10)],
    ids=["ipm", "euler3d"],
)
def test_full_tiles_threaded_bitwise_identical(make):
    """At the full PAIR_BLOCK tiles the sums are matrix products: ipm's one
    weight row against each kernel tile, euler3d's three rows.  Their bytes
    must not depend on the thread count."""
    state, spec = make()
    state = rk4_step(spec, state, 0.05)
    assert len(dynamics._pair_units(state.n)) > 3
    for need_grad in (True, False):
        u1, g1, _ = evaluate_rhs(spec, state, 1, need_grad)
        for threads in (2, 3):
            u, g, _ = evaluate_rhs(spec, state, threads, need_grad)
            assert _bits(u) == _bits(u1), (need_grad, threads)
            assert _bits(g) == _bits(g1), (need_grad, threads)


@pytest.mark.parametrize("d", [2, 3])
def test_displacement_tiles_are_the_broadcast_bytes(monkeypatch, d):
    # 23 particles in tiles of 5 and a short last one of 3; a leading jet
    # axis as in the Taylor route
    monkeypatch.setattr(dynamics, "PAIR_BLOCK", 25)
    x = np.random.default_rng(d).normal(size=(4, d, 23))
    units = dynamics._pair_units(23)
    assert {i1 - i0 for (i0, i1), _ in units} == {5, 3}
    for rows, sources in units:
        (i0, i1), (j0, j1) = rows, sources
        want = np.subtract(x[..., None, i0:i1], x[..., j0:j1, None])
        out = np.full(want.shape, np.nan)
        got = dynamics._displacements(x, rows, sources, out=out)
        assert got is out and got.tobytes() == want.tobytes()
        for c in range(d):  # one coefficient, one component
            tile = np.empty(want.shape[2:])
            dynamics._displacements(x[0, c], rows, sources, out=tile)
            assert tile.tobytes() == want[0, c].tobytes()


def test_rhs_reuses_its_tile_buffers():
    """The pair tiles reuse one scratch block per worker, so a warm call
    faults in almost no fresh pages (about 11 k per call when each tile
    allocated its temporaries)."""
    resource = pytest.importorskip("resource")
    state, spec = sqg_bump(n_per_axis=40)

    def faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate_rhs(spec, state, 1)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(), faults()
    assert sorted(faults() for _ in range(3))[1] < 1000


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("model", ["sqg", "euler2d", "euler3d"])
def test_tiny_delta_saturates_without_warnings(model):
    """delta^2 underflows to 0 at delta = 1e-200: every tile saturates, with
    no division by it, and the 2D sums are those without regularization."""
    state, spec = _BLOCK_CASES[model]()
    u, g, _ = evaluate_rhs(ModelSpec(model, 1e-200), state)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(g))
    if model != "euler3d":
        u0, g0, _ = evaluate_rhs(ModelSpec(model, 0.0), state)
        assert _bits(u) == _bits(u0) and _bits(g) == _bits(g0)


def test_model_table_matches_kernel_catalog():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for tag, model in MODELS.items():
        # README "Models" gives each row's catalog name
        row = f"| `{tag}` | "
        assert any(
            line.startswith(row) and f"| `{model.kernel}` |" in line
            for line in readme.splitlines()
        ), tag
        kernel = catalog(model.kernel).velocity_kernel
        assert model.dim == kernel.dim, tag
        # a density that moves with G (or W) forces G to be evolved
        spec = ModelSpec(tag, evolve_gradients=False)
        assert spec.evolve_gradients == (not model.closed), tag


def test_unknown_model_tag_is_config_error():
    with pytest.raises(ConfigError, match="unknown model tag"):
        ModelSpec("navier_stokes")


# -- pair units against the einsum kernels they replaced ----------------------


def _einsum_rhs(spec, state, need_grad):
    """The row-major einsum kernels of ``evaluate_rhs`` before the pair sums
    moved to source-major blocks, kept as the bitwise reference.  With the
    2e6-pair budget they used, the test states below are one block."""
    model = MODELS[spec.model]
    X, w, delta = state.positions, state.weights, spec.regularization_delta
    need_grad = need_grad and spec.evolve_gradients
    n = state.n
    Y = X[:, None, :] - X[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", Y, Y)
    rows = np.arange(n)
    r2[rows, rows] = 1.0
    assert not np.any(r2 == 0.0)
    f = 1.0 if delta == 0.0 else -np.expm1(-r2 / (delta * delta))
    grad_u = None
    if model.dim == 3:
        wvec = model.density(state)
        ww = w[:, None] * wvec
        inv_r3 = f / (4.0 * math.pi * r2 * np.sqrt(r2))
        cross = np.cross(np.broadcast_to(ww[None, :, :], Y.shape), Y)
        cross[rows, rows] = 0.0
        u = np.einsum("ijk,ij->ik", cross, inv_r3)
        if need_grad:
            s = 3.0 * f / (8.0 * math.pi * r2 * r2 * np.sqrt(r2))
            zxw = -cross
            grad_u = np.einsum("ij,ijk,ijl->ikl", s, zxw, Y) + np.einsum(
                "ij,ijk,ijl->ikl", s, Y, zxw
            )
            rot = np.zeros((n, 3, 3))
            rot[:, 0, 1], rot[:, 0, 2] = -wvec[:, 2], wvec[:, 1]
            rot[:, 1, 0], rot[:, 1, 2] = wvec[:, 2], -wvec[:, 0]
            rot[:, 2, 0], rot[:, 2, 1] = -wvec[:, 1], wvec[:, 0]
            grad_u = grad_u + 0.5 * rot
        return u, grad_u
    transported = model.kernel == "perp_riesz"
    dens = model.density(state)
    wd = w * dens
    rp = TWO_PI * r2
    if transported:
        rp = rp * np.sqrt(r2)
    radial = f / rp
    kvec = np.empty_like(Y)
    kvec[..., 0] = -Y[..., 1] * radial
    kvec[..., 1] = Y[..., 0] * radial
    kvec[rows, rows] = 0.0
    u = np.einsum("j,ijk->ik", wd, kvec)
    if need_grad:
        if transported:
            th, G = state.grad_theta0, state.grads
            b1 = poisson_bracket(th, G[:, 0, :])
            b2 = poisson_bracket(th, G[:, 1, :])
            wv = w[:, None] * np.stack([b2, -b1], axis=-1)
            grad_u = np.einsum("ijk,jl->ikl", kvec, wv)
        else:
            s = f / (TWO_PI * r2 * r2)
            e11 = 2.0 * Y[..., 0] * Y[..., 1] * s
            e12 = (Y[..., 1] ** 2 - Y[..., 0] ** 2) * s
            kmat = np.empty(Y.shape[:2] + (2, 2))
            kmat[..., 0, 0] = e11
            kmat[..., 0, 1] = e12
            kmat[..., 1, 0] = e12
            kmat[..., 1, 1] = -e11
            kmat[rows, rows] = 0.0
            grad_u = np.einsum("j,ijkl->ikl", wd, kmat)
            grad_u = grad_u + 0.5 * dens[:, None, None] * ROT90
    return u, grad_u


def _euler2d_grid(n_per_axis, delta):
    state = init_grid(
        ((-2.0, 2.0), (-2.0, 2.0)), n_per_axis, gamma_data=gaussian_field(1.0, 0.6)
    )
    return state, ModelSpec("euler2d", delta)


_BLOCK_CASES = {
    "sqg": lambda: sqg_bump(n_per_axis=10),
    "euler2d": lambda: _euler2d_grid(10, 0.8),
    "ipm": lambda: ipm_bubble(n_per_axis=10),
    "boussinesq2d": lambda: boussinesq_bubble(n_per_axis=10),
    "euler3d": lambda: euler3d_ring(n_per_axis=5),
}


def _stepped_case(model, regularized):
    """A state one RK4 step in (G != I), with uneven weights."""
    state, spec = _BLOCK_CASES[model]()
    if not regularized:
        spec = ModelSpec(model, 0.0)
    state = rk4_step(spec, state, 0.05)
    weights = state.weights * np.random.default_rng(3).uniform(0.5, 1.5, state.n)
    assert np.max(np.abs(state.grads - np.eye(state.dim))) > 1e-4
    return state.replace(weights=weights), spec


def _bits(a):
    return None if a is None else a.tobytes()


def _assert_close(got, ref, case):
    """Within 1e-13 of the largest |entry| of the reference."""
    if ref is None:
        assert got is None, case
        return
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), case


@pytest.mark.parametrize("regularized", [True, False], ids=["delta", "no_delta"])
@pytest.mark.parametrize("model", list(_BLOCK_CASES))
def test_pair_units_match_einsum_kernels(monkeypatch, model, regularized):
    """The pair units against the einsum reference.  The units add each
    pair's terms to its row and to its source, so the sums no longer run in
    index order and are close to the reference, not bitwise equal."""
    if model == "euler3d" and not regularized:
        pytest.skip("euler3d needs a positive delta")
    state, spec = _stepped_case(model, regularized)
    n = state.n
    assert n % 7 != 0
    # one unit; tiles of 7 with a short last tile; one-particle tiles
    for side, tiles in ((math.isqrt(dynamics.PAIR_BLOCK), 1), (7, -(-n // 7)), (1, n)):
        monkeypatch.setattr(dynamics, "PAIR_BLOCK", side * side)
        assert len(dynamics._pair_units(n)) == tiles * (tiles + 1) // 2
        for need_grad in (True, False):
            u_ref, g_ref = _einsum_rhs(spec, state, need_grad)
            for threads in (1, 2):
                u, g, _ = evaluate_rhs(spec, state, threads, need_grad)
                case = (side, need_grad, threads)
                _assert_close(u, u_ref, case)
                _assert_close(g, g_ref, case)


def test_regularization_factor_saturates_past_its_bound():
    x = np.linspace(dynamics.REG_SATURATED, 800.0, 2_000_001)
    assert np.all(-np.expm1(-x) == 1.0)
    assert -np.expm1(-36.0) < 1.0  # the bound sits near the limit 54 ln 2


@pytest.mark.parametrize("model", ["sqg", "euler2d", "euler3d"])
def test_saturated_units_give_the_bytes_of_the_full_factor(monkeypatch, model):
    """Two clusters far apart in units of delta: the units between them
    take the factor 1.0, and the sums keep every byte."""
    state, spec = _stepped_case(model, True)
    positions = state.positions.copy()
    positions[state.n // 2:, 0] += 50.0 * spec.regularization_delta
    state = state.replace(positions=positions)
    monkeypatch.setattr(dynamics, "PAIR_BLOCK", 13 * 13 if state.dim == 3 else 100)
    factors = []
    reg_factor = dynamics._reg_factor
    monkeypatch.setattr(
        dynamics, "_reg_factor", lambda *a: factors.append(reg_factor(*a)) or factors[-1]
    )
    for need_grad in (True, False):
        u, g, _ = evaluate_rhs(spec, state, 2, need_grad)
        saturated = [isinstance(f, float) for f in factors]
        assert any(saturated) and not all(saturated)
        with monkeypatch.context() as m:
            m.setattr(dynamics, "REG_SATURATED", math.inf)
            u_full, g_full, _ = evaluate_rhs(spec, state, 2, need_grad)
        assert _bits(u) == _bits(u_full), need_grad
        assert _bits(g) == _bits(g_full), need_grad


@pytest.mark.parametrize("model", list(_BLOCK_CASES))
def test_pair_units_threaded_bitwise_identical(monkeypatch, model):
    # 55 units, of tiles of 10 (100 particles) or 13 with a short last
    # one of 8 (125): neither 2 nor 3 threads get equal shares
    state, spec = _stepped_case(model, True)
    monkeypatch.setattr(dynamics, "PAIR_BLOCK", 13 * 13 if state.dim == 3 else 100)
    assert len(dynamics._pair_units(state.n)) == 55
    for need_grad in (True, False):
        u1, g1, _ = evaluate_rhs(spec, state, 1, need_grad)
        assert (g1 is None) != need_grad
        for threads in (2, 3):
            u, g, _ = evaluate_rhs(spec, state, threads, need_grad)
            assert _bits(u) == _bits(u1), (need_grad, threads)
            assert _bits(g) == _bits(g1), (need_grad, threads)


@pytest.mark.parametrize("model", ["sqg", "euler3d"])
def test_collision_in_a_later_block_is_reported(monkeypatch, model):
    state, spec = _BLOCK_CASES[model]()
    # ten tiles; particle 0 meets particle 1 in the first, diagonal unit, or
    # the last particle in the unit of the first and the last tile
    monkeypatch.setattr(dynamics, "PAIR_BLOCK", 13 * 13 if state.dim == 3 else 100)
    units = dynamics._pair_units(state.n)
    assert len(units) == 55
    (i0, i1), (j0, j1) = units[9]
    assert i0 == 0 and i1 > 1 and j0 < state.n - 1 < j1 == state.n
    for other in (1, state.n - 1):
        positions = state.positions.copy()
        positions[other] = positions[0]
        for threads in (1, 2):
            with pytest.raises(NumericalFailureError, match="coincident"):
                evaluate_rhs(spec, state.replace(positions=positions), threads)
