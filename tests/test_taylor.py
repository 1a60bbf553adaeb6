"""Taylor-machinery checks: cross-oracles, radius estimates, stepping."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from lagpaths import dynamics, taylor
from lagpaths.dynamics import (
    MODELS,
    ROT90,
    ModelSpec,
    ScalarField,
    _brackets_2d,
    _run_chunks,
    evaluate_rhs,
    init_grid,
    make_point_vortex_state,
    rk4_step,
    velocity,
)
from lagpaths.errors import ConfigError, NumericalFailureError, SingularEvaluationError
from lagpaths.jets import Jet, KernelStream, mul_step
from lagpaths.kernels import catalog
from lagpaths.scenarios import (
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
    paper_radius_bound,
    taylor_step,
    time_jets_fast,
    time_jets_oracle,
)
from reference import corotation_closed_form, jet_mul, ode1d_testbed

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
    jets = time_jets_fast(spec, state, order)
    # displacement jets for every ordered pair, self pairs masked
    y = jets.x_coeffs[:, :, None, :] - jets.x_coeffs[:, None, :, :]
    y = np.moveaxis(y, 3, 1)
    eye = np.eye(n, dtype=bool)
    y[0, 0][eye] = 1.0
    kv = kernel_on_jet(expr, Jet(y)).coeffs
    kv[..., eye] = 0.0
    u_jet = np.einsum("ocij,j->oic", kv, wrho)
    shifted = jets.x_coeffs[1:] * np.arange(1, order + 1)[:, None, None]
    np.testing.assert_allclose(shifted, u_jet[:order], rtol=0, atol=1e-14)
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


def test_oracle_refuses_a_delta_whose_derivatives_overflow():
    # the exact derivatives carry powers of the rate 1 / delta^2: at order 6
    # a rate of 1e120 makes coefficients past the float range
    state, spec = seeded_sqg_cloud(n_particles=8)
    with pytest.raises(ConfigError, match="exceed the float range"):
        time_jets_oracle(replace(spec, regularization_delta=1e-60), state, order=6)
    jets = time_jets_oracle(replace(spec, regularization_delta=1e-20), state, order=6)
    assert np.all(np.isfinite(jets.x_coeffs))


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
    sq = ode1d_testbed(lambda g: jet_mul(g, g), 1.0, 20)
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
    return TrajectoryJets(arr)


def test_estimate_radius_testbed():
    sq = ode1d_testbed(lambda g: jet_mul(g, g), 1.0, 20)
    est = estimate_radius(_jets_from_scalar(sq.coeffs))
    assert abs(est.aggregate_ratio - 1.0) < 0.05
    assert abs(est.aggregate_root - 1.0) < 0.05


def test_estimate_radius_degenerate_constant():
    est = estimate_radius(_jets_from_scalar([3.0] + [0.0] * 12))
    assert math.isinf(est.aggregate_ratio)
    assert np.all(np.isinf(est.per_particle_ratio))


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
    sq = ode1d_testbed(lambda g: jet_mul(g, g), 1.0, 20)
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


def _units_for(monkeypatch, n, side, count):
    """Set PAIR_BLOCK to tiles of ``side`` particles; check the count."""
    monkeypatch.setattr(dynamics, "PAIR_BLOCK", side * side)
    assert len(dynamics._pair_units(n)) == count
    return count


def test_gradient_jets_threaded_bitwise_identical(monkeypatch):
    # 40^2 particles at order 4 in 10 tiles, 55 units: neither 2 nor 3
    # threads get equal shares, so the partial sums finish out of order
    state, spec = sqg_bump(n_per_axis=40)
    _units_for(monkeypatch, state.n, 160, 55)
    j1 = time_jets_fast(spec, state, 4, with_gradients=True, threads=1)
    for threads in (2, 3):
        jt = time_jets_fast(spec, state, 4, with_gradients=True, threads=threads)
        assert j1.x_coeffs.tobytes() == jt.x_coeffs.tobytes()
        assert j1.g_coeffs.tobytes() == jt.g_coeffs.tobytes()


def test_ipm_gradient_jets_threaded_bitwise_identical(monkeypatch):
    # the density-jet route: 24^2 particles in tiles of 58 (a short last
    # one of 54), 55 units
    state, spec = ipm_bubble(n_per_axis=24)
    _units_for(monkeypatch, state.n, 58, 55)
    j1 = time_jets_fast(spec, state, 4, with_gradients=True, threads=1)
    for threads in (2, 3):
        jt = time_jets_fast(spec, state, 4, with_gradients=True, threads=threads)
        assert j1.x_coeffs.tobytes() == jt.x_coeffs.tobytes()
        assert j1.g_coeffs.tobytes() == jt.g_coeffs.tobytes()


def _unit_sizes(spec, with_g, n, order):
    """``nbytes`` of the work units of an n-particle expansion, in order."""
    _, keep, layout = taylor._jet_kernels(spec, with_g)
    dim = MODELS[spec.model].dim
    return [
        taylor._JetUnit(unit, layout, dim, order, keep).nbytes
        for unit in dynamics._pair_units(n)
    ]


_SQG16 = partial(sqg_bump, n_per_axis=16)
_IPM12 = partial(ipm_bubble, n_per_axis=12)


@pytest.mark.parametrize(
    "scenario, order, tiles",
    [(_SQG16, 8, None), (_IPM12, 6, None), (_SQG16, 8, (64, 10)), (_IPM12, 6, (48, 6))],
    ids=["sqg_bump", "ipm_bubble", "sqg_bump_mixed", "ipm_bubble_mixed"],
)
def test_cached_and_rebuilt_pair_blocks_bitwise_equal(
    monkeypatch, scenario, order, tiles
):
    state, spec = scenario()
    if tiles:
        _units_for(monkeypatch, state.n, *tiles)  # more units than threads
    cached = time_jets_fast(spec, state, order, with_gradients=True, threads=2)
    budget = 0  # every block rebuilds
    if tiles:
        # the first half of the units keep their arrays, the rest rebuild
        sizes = _unit_sizes(spec, True, state.n, order)
        budget = sum(sizes[: len(sizes) // 2])
    monkeypatch.setattr(taylor, "JET_CACHE_BYTES", budget)
    for threads in (1, 2):
        rebuilt = time_jets_fast(
            spec, state, order, with_gradients=True, threads=threads
        )
        assert cached.x_coeffs.tobytes() == rebuilt.x_coeffs.tobytes()
        assert cached.g_coeffs.tobytes() == rebuilt.g_coeffs.tobytes()


def _thirty_particles(model):
    """30 particles, sqg or ipm: tiles of 8 and a short last one of 6."""
    state, spec = seeded_sqg_cloud(n_particles=30)
    if model == "ipm":
        state, spec = ipm_bubble(n_per_axis=6)
        state = state.subset(np.arange(state.n) < 30)
    return state, spec


@pytest.mark.parametrize(
    "model, with_g", [("sqg", False), ("ipm", True)], ids=["sqg_x", "ipm"]
)
def test_jet_cache_counts_the_bytes_a_unit_holds(monkeypatch, model, with_g):
    state, spec = _thirty_particles(model)
    _units_for(monkeypatch, state.n, 8, 10)
    order = 4
    _, keep, layout = taylor._jet_kernels(spec, with_g)
    assert keep == with_g
    unique = len(layout.unique)
    # a unit holds `order` coefficients of the stream's histories and the
    # displacements per streamed pair, I (I - 1) / 2 on a diagonal, and its
    # kernel tiles of I x J cells: every coefficient where a pair sum reads
    # the kernel jets, otherwise a diagonal unit's one
    total = 0
    for (i0, i1), (j0, j1) in dynamics._pair_units(state.n):
        cells = (i1 - i0) * (j1 - j0)
        diagonal = i0 == j0
        pairs = (i1 - i0) * (i1 - i0 - 1) // 2 if diagonal else cells
        tile_coeffs = order if keep else int(diagonal)
        total += 8 * (order * (layout.histories + state.dim) * pairs
                      + tile_coeffs * unique * cells)
    streams = []
    push = KernelStream.push

    def spy(stream, y, out=None):
        streams.append(stream)
        return push(stream, y, out=out)

    monkeypatch.setattr(KernelStream, "push", spy)
    for budget, kept in ((total, 10), (total - 1, 9)):
        monkeypatch.setattr(taylor, "JET_CACHE_BYTES", budget)
        streams.clear()
        time_jets_fast(spec, state, order, with_gradients=with_g)
        pushes = {}
        for stream in streams:
            pushes[id(stream)] = pushes.get(id(stream), 0) + 1
        # a kept stream takes `order` pushes; the last unit, past the
        # budget, builds a fresh stream of n + 1 pushes at every order n
        rebuilt = list(range(1, order + 1)) if kept < 10 else []
        assert sorted(pushes.values()) == sorted([order] * kept + rebuilt)


@pytest.mark.parametrize(
    "model, with_g", [("sqg", False), ("ipm", True)], ids=["sqg_x", "ipm"]
)
def test_jet_unit_nbytes_is_what_a_kept_unit_holds(monkeypatch, model, with_g):
    state, spec = _thirty_particles(model)
    _units_for(monkeypatch, state.n, 8, 10)
    order = 4
    sizes = _unit_sizes(spec, with_g, state.n, order)
    monkeypatch.setattr(taylor, "JET_CACHE_BYTES", sum(sizes[:5]))
    units = []

    class Recorded(taylor._JetUnit):
        def __init__(self, *args):
            super().__init__(*args)
            units.append(self)

    monkeypatch.setattr(taylor, "_JetUnit", Recorded)
    time_jets_fast(spec, state, order, with_gradients=with_g)
    assert [unit.kept for unit in units] == [True] * 5 + [False] * 5
    for unit in units:
        if not unit.kept:
            assert unit.arrays is None  # a rebuilt unit drops its arrays
            continue
        stream, y, tiles = unit.arrays
        held = sum(a.nbytes for h in stream.kept.values() for a in h)
        held += y.nbytes + tiles.nbytes
        assert held == unit.nbytes


@pytest.mark.parametrize("build", [sqg_bump, ipm_bubble], ids=["sqg", "ipm"])
def test_saturated_units_stream_the_unregularized_kernel(build):
    # the grid spacing, 4 / 15, is past the cutoff 27.3 delta, so every
    # pair's Gaussian is 0.0 and each unit drops it at its first push
    state, spec = build(n_per_axis=16, delta=0.005)
    regularized = time_jets_fast(spec, state, 6, with_gradients=True)
    plain = time_jets_fast(replace(spec, regularization_delta=0.0), state, 6,
                           with_gradients=True)
    assert regularized.x_coeffs.tobytes() == plain.x_coeffs.tobytes()
    assert regularized.g_coeffs.tobytes() == plain.g_coeffs.tobytes()


def test_diagonal_units_of_one_side_share_triangle_indices(monkeypatch):
    state, spec = _thirty_particles("sqg")
    _units_for(monkeypatch, state.n, 8, 10)
    _, keep, layout = taylor._jet_kernels(spec, False)
    units = [
        taylor._JetUnit(unit, layout, state.dim, 4, keep)
        for unit in dynamics._pair_units(state.n)
    ]
    diagonal = [unit for unit in units if unit.diagonal]
    assert [i1 - i0 for (i0, i1) in (unit.rows for unit in diagonal)] == [8, 8, 8, 6]
    first, *same, short = diagonal
    for unit in same:
        assert all(a is b for a, b in zip(unit.tri, first.tri))
    assert not any(a.flags.writeable for a in first.tri)
    assert short.tri[0] is not first.tri[0]
    jj, ii, flat = short.tri
    assert np.array_equal(flat, jj * 6 + ii) and np.all(jj > ii) and len(jj) == 15


def _row_block_jets(spec, state, order, with_gradients):
    """The generic route before the pair-once units, as the reference: row
    blocks of every row i against all N sources, so each pair is streamed
    twice, and the self pairs get a dummy displacement that is zeroed."""
    model = MODELS[spec.model]
    need_g = with_gradients or not model.closed
    entry = catalog(model.kernel)
    comps = taylor._regularized(spec, entry.velocity_kernel).comps
    if need_g:
        comps += taylor._regularized(spec, entry.gradient_kernel).comps
    transported = model.kernel == "perp_riesz"
    keep = need_g and (transported or not model.closed)
    d, n_pts, w = state.dim, state.n, state.weights
    rows = -(-n_pts // -(-n_pts * n_pts // 2**15))
    blocks = {}
    xj = np.zeros((order + 1, n_pts, d))
    xj[0] = state.positions
    gj = m_hist = None
    if need_g:
        gj = np.zeros((order + 1, n_pts, d, d))
        gj[0] = state.grads
        m_hist = np.zeros((order, n_pts, d, d))
    rho = model.density(state) if model.closed else None

    for n in range(order):
        if need_g:
            g_state = state.replace(grads=gj[: n + 1])
            if not model.closed:
                rho = model.density(g_state)
            if transported:
                b1, b2 = _brackets_2d(g_state)
                vj = np.stack([b2, -b1], axis=1)

        def chunk_rhs(rng):
            i0, i1 = rng
            xt = np.ascontiguousarray(np.moveaxis(xj[: n + 1], 2, 1))
            y = xt[:, :, i0:i1, None] - xt[:, :, None, :]
            mask = np.zeros(y.shape[2:], dtype=bool)
            mask[np.arange(i1 - i0), np.arange(i0, i1)] = True
            y[0, 0][mask] = 1.0
            stream, kept = blocks.setdefault(rng, (KernelStream(comps), []))
            while stream.n <= n:
                k = stream.push(y)
                k[..., mask] = 0.0
                if keep:
                    kept.append(k)
            if rho.ndim == 1:
                s = np.einsum("...j,j->...", k, w * rho)
            else:
                s = np.einsum("...j,j->...", mul_step(kept, rho, n), w)
            s = stream.expand(s)
            if not need_g:
                return s, None
            if transported:
                v = mul_step([h[:, None] for h in kept], vj[:, None, :, None, :], n)
                return s[:d], stream.expand(np.einsum("...j,j->...", v, w))[d:]
            return s[:d], s[d:].reshape(d, d, -1)

        parts = _run_chunks(chunk_rhs, n_pts, rows)
        xj[n + 1] = np.concatenate([p[0] for p in parts], axis=1).T / (n + 1)
        if need_g:
            m_n = np.moveaxis(np.concatenate([p[1] for p in parts], axis=2), 2, 0)
            if not transported:
                r = np.atleast_2d(rho)
                if n < len(r):
                    m_n += 0.5 * r[n][:, None, None] * ROT90
            m_hist[n] = m_n
            g_n = np.zeros((n_pts, d, d))
            for a in range(d):
                for c in range(d):
                    acc = np.zeros(n_pts)
                    for k in range(d):
                        acc += mul_step(m_hist[:, :, a, k], gj[:, :, k, c], n)
                    g_n[:, a, c] = acc
            gj[n + 1] = g_n / (n + 1)
    return xj, gj


def _euler2d_grid(n_per_axis):
    state = init_grid(
        ((-2.0, 2.0), (-2.0, 2.0)), n_per_axis, gamma_data=gaussian_field(1.0, 0.6)
    )
    return state, ModelSpec("euler2d", 0.8)


_UNIT_CASES = {
    "sqg": (lambda: sqg_bump(n_per_axis=7), False),
    "sqg_grad": (lambda: sqg_bump(n_per_axis=7), True),
    "ipm": (lambda: ipm_bubble(n_per_axis=7), True),
    "euler2d_grad": (lambda: _euler2d_grid(7), True),
}


def _assert_orders_close(got, ref):
    """Each order within 1e-13 of the largest |coefficient| of that order."""
    for n in range(len(ref)):
        scale = np.max(np.abs(ref[n]))
        assert np.max(np.abs(got[n] - ref[n])) <= 1e-13 * scale, n


@pytest.mark.parametrize("tiles", [1, 5], ids=["one_unit", "15_units"])
@pytest.mark.parametrize("regularized", [True, False], ids=["delta", "no_delta"])
@pytest.mark.parametrize("case", list(_UNIT_CASES))
def test_pair_units_match_row_block_loop(monkeypatch, case, regularized, tiles):
    scenario, with_g = _UNIT_CASES[case]
    state, spec = scenario()
    if not regularized:
        spec = ModelSpec(spec.model, 0.0)
    # one step in (G != I) with uneven weights
    state = rk4_step(spec, state, 0.05)
    weights = state.weights * np.random.default_rng(3).uniform(0.5, 1.5, state.n)
    state = state.replace(weights=weights)
    # 49 particles: one tile, or four of 10 and a short last one of 9
    _units_for(monkeypatch, state.n, 10 if tiles > 1 else 49, tiles * (tiles + 1) // 2)
    order = 6
    xj, gj = _row_block_jets(spec, state, order, with_g)
    runs = [
        time_jets_fast(spec, state, order, with_gradients=with_g, threads=threads)
        for threads in (1, 2)
    ]
    for jets in runs:
        _assert_orders_close(jets.x_coeffs, xj)
        if gj is not None:
            _assert_orders_close(jets.g_coeffs, gj)
    # the unit sums are added in unit order whatever the thread count
    one, two = runs
    assert np.array_equal(one.x_coeffs, two.x_coeffs)
    if gj is not None:
        assert np.array_equal(one.g_coeffs, two.g_coeffs)


@pytest.mark.parametrize("regularized", [True, False], ids=["delta", "no_delta"])
@pytest.mark.parametrize("case", [c for c, (_, g) in _UNIT_CASES.items() if g])
def test_first_coefficients_match_the_rhs(monkeypatch, case, regularized):
    # coefficient 1 of X is u and coefficient 1 of G is (grad u) G, as
    # evaluate_rhs gives them, each within 1e-14 of its largest entry
    scenario, _ = _UNIT_CASES[case]
    state, spec = scenario()
    if not regularized:
        spec = ModelSpec(spec.model, 0.0)
    # one step in (G != I) with uneven weights, on 15 units
    state = rk4_step(spec, state, 0.05)
    weights = state.weights * np.random.default_rng(3).uniform(0.5, 1.5, state.n)
    state = state.replace(weights=weights)
    _units_for(monkeypatch, state.n, 10, 15)
    jets = time_jets_fast(spec, state, 1, with_gradients=True)
    u, grad_u, _ = evaluate_rhs(spec, state)
    pairs = ((jets.x_coeffs[1], u), (jets.g_coeffs[1], grad_u @ state.grads))
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_each_pair_is_pushed_once(monkeypatch):
    # a random cloud, so every displacement names its pair
    state, spec = seeded_sqg_cloud(n_particles=30)
    _units_for(monkeypatch, state.n, 8, 10)  # tiles of 8 and a last one of 6
    pushed = {}
    push = KernelStream.push

    def spy(stream, y, out=None):
        # coefficient 0 of every streamed pair: a diagonal unit's (d, pairs)
        # triangle or a (d, J, I) tile
        pushed.setdefault(stream.n, []).append(y[0].reshape(y.shape[1], -1).T.copy())
        return push(stream, y, out=out)

    monkeypatch.setattr(KernelStream, "push", spy)
    order = 5
    time_jets_fast(spec, state, order, with_gradients=True)
    i, j = np.triu_indices(state.n, k=1)
    pairs = state.positions[i] - state.positions[j]
    assert sorted(pushed) == list(range(order))
    for n in range(order):
        assert sum(len(y) for y in pushed[n]) == len(pairs), n
    got = np.concatenate(pushed[0])
    assert np.array_equal(got[np.lexsort(got.T)], pairs[np.lexsort(pairs.T)])


@pytest.mark.parametrize("threads", [1, 2])
def test_coincident_particles_in_a_later_unit_raise(monkeypatch, threads):
    state, spec = ipm_bubble(n_per_axis=7)
    positions = state.positions.copy()
    positions[-1] = positions[-2]  # a pair of the last unit
    _units_for(monkeypatch, state.n, 10, 15)
    with pytest.raises(SingularEvaluationError):
        time_jets_fast(
            spec, state.replace(positions=positions), 4, with_gradients=True,
            threads=threads,
        )


def test_non_finite_jets_raise():
    # |y|^-2 overflows for vortices this close: a NaN expansion must not
    # reach estimate_radius, which would read it as an infinite radius
    spec = ModelSpec("euler2d", 0.0, evolve_gradients=False)
    routes = ((time_jets_fast, 1e-14, 25), (time_jets_oracle, 1e-40, 8))
    for route, gap, order in routes:
        state = make_point_vortex_state([(0.0, 0.0), (gap, 0.0)], [1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(NumericalFailureError, match="non-finite jet"):
                route(spec, state, order)


def test_estimate_radius_falls_back_on_root_estimate():
    # 1e-14 apart at order 8 the coefficients rise from 1e-14 to 1e201, so
    # no ratio pair clears the noise floor; the root test still gives a radius
    state = make_point_vortex_state([(0.0, 0.0), (1e-14, 0.0)], [1.0, 1.0])
    spec = ModelSpec("euler2d", 0.0, evolve_gradients=False)
    with np.errstate(over="ignore"):
        est = estimate_radius(time_jets_fast(spec, state, 8))
    assert 0.0 < est.aggregate_root < 1e-20
    assert est.per_particle_ratio.tobytes() == est.per_particle_root.tobytes()
    assert est.aggregate_ratio == est.aggregate_root
    assert not math.isinf(est.aggregate_ratio)


def test_taylor_step_floor_raises():
    # the root estimate of two vortices 1e-14 apart gives h = 3.6e-26 at
    # order 8, so a run from this state would need about 1e24 steps
    state = make_point_vortex_state([(0.0, 0.0), (1e-14, 0.0)], [1.0, 1.0])
    spec = ModelSpec("euler2d", 0.0, evolve_gradients=False)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalFailureError, match="step size degenerate"):
            taylor_step(spec, state, 8, safety=0.5, h_cap=0.04)


def test_readme_history_bytes():
    """The per-pair table and the example in README "Jet routes"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {
        "X only (`euler2d`, `sqg`)": ("sqg", False),
        "`sqg` with gradient jets": ("sqg", True),
        "`euler2d` with gradient jets": ("euler2d", True),
        "`ipm`": ("ipm", True),
    }
    # two tiles of 128: two diagonal units and the off-diagonal one between
    n, order = 256, 8
    for label, (model, with_g) in rows.items():
        counts = []
        for delta in (0.0, 0.1):
            sizes = _unit_sizes(ModelSpec(model, delta), with_g, n, order)
            arrays, rest = divmod(sizes[1], 8 * order * 128 * 128)
            assert rest == 0, label
            counts.append(arrays)
        assert f"| {label} | {counts[0]} / {counts[1]} " in readme, label
    # every pair, plus each diagonal unit's kernel jets on the 128 * 129 / 2
    # cells outside its triangle
    mb = sum(_unit_sizes(ModelSpec("ipm", 0.1), True, n, order)) / 1e6
    assert f"{n}-particle `ipm` expansion at order {order} keeps {mb:.0f} MB" in readme


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
    grow = TrajectoryJets(np.tile(g[:, None, None], (1, 3, 2)))
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
