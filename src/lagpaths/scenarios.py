"""Built-in initial-data scenarios with closed-form fields.

Each builder returns a (ParticleState, ModelSpec) pair.  Grid scenarios
default the blob scale to twice the label spacing; point scenarios run
unregularized with the self term excluded by antisymmetry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (
    ModelSpec,
    ParticleState,
    ScalarField,
    VectorField,
    default_delta,
    identity_grads,
    init_grid,
    make_point_vortex_state,
)
from .errors import ConfigError


def gaussian_field(amplitude=1.0, width=0.5, center=(0.0, 0.0)) -> ScalarField:
    center = np.asarray(center, dtype=float)
    s2 = width * width

    def value(a):
        d = a - center
        return amplitude * np.exp(-np.sum(d * d, axis=-1) / (2.0 * s2))

    def gradient(a):
        d = a - center
        return -d / s2 * value(a)[..., None]

    return ScalarField(value, gradient)


def stratified_field(amplitude=1.0, width=0.5) -> ScalarField:
    """Density depending on the vertical label only: an IPM equilibrium."""
    s2 = width * width

    def value(a):
        return amplitude * np.exp(-(a[..., 1] ** 2) / (2.0 * s2))

    def gradient(a):
        g = np.zeros_like(a)
        g[..., 1] = -a[..., 1] / s2 * value(a)
        return g

    return ScalarField(value, gradient)


@dataclass(frozen=True)
class Scenario:
    model: str
    build: Callable[..., tuple[ParticleState, ModelSpec]]
    # the builder takes extent, n_per_axis and delta; point scenarios take none
    grid: bool


# name -> Scenario; the model is known before the scenario is built, since a
# grid sized for one model's dimension breaks another model's builder
SCENARIOS: dict[str, Scenario] = {}


def _scenario(model: str, grid: bool = True):
    """Register the decorated builder in SCENARIOS under its name.

    The builder's first argument is its model, bound here, so that each
    scenario's model is written once; callers pass only the rest.
    """

    def register(build):
        bound = functools.update_wrapper(functools.partial(build, model), build)
        SCENARIOS[build.__name__] = Scenario(model, bound, grid)
        return bound

    return register


def grid_run(
    model: str, extent, n_per_axis: int, delta=None, **data
) -> tuple[ParticleState, ModelSpec]:
    """A label grid carrying ``data`` (init_grid's fields) and its ModelSpec;
    delta defaults to twice the label spacing."""
    state = init_grid(extent, n_per_axis, **data)
    if delta is None:
        delta = default_delta(extent, n_per_axis)
    return state, ModelSpec(model, delta)


_SQUARE = ((-2.0, 2.0), (-2.0, 2.0))


@_scenario("euler2d", grid=False)
def two_vortex(model) -> tuple[ParticleState, ModelSpec]:
    """Corotating unit vortices at (0,0) and (1,0); period 2 pi^2."""
    state = make_point_vortex_state([(0.0, 0.0), (1.0, 0.0)], [1.0, 1.0])
    return state, ModelSpec(model, 0.0, evolve_gradients=False)


@_scenario("euler2d", grid=False)
def vortex_pair(model) -> tuple[ParticleState, ModelSpec]:
    """Counter-rotating pair at unit separation; translates at 1/(2 pi)."""
    state = make_point_vortex_state([(0.0, 0.5), (0.0, -0.5)], [1.0, -1.0])
    return state, ModelSpec(model, 0.0, evolve_gradients=False)


@_scenario("sqg")
def sqg_bump(
    model, n_per_axis=64, extent=_SQUARE, amplitude=1.0, width=0.5, delta=None
) -> tuple[ParticleState, ModelSpec]:
    field = gaussian_field(amplitude, width)
    return grid_run(model, extent, n_per_axis, delta, theta0=field)


@_scenario("ipm")
def ipm_stratified(
    model, n_per_axis=32, extent=_SQUARE, amplitude=1.0, width=0.5, delta=None
) -> tuple[ParticleState, ModelSpec]:
    field = stratified_field(amplitude, width)
    return grid_run(model, extent, n_per_axis, delta, theta0=field)


@_scenario("ipm")
def ipm_bubble(
    model, n_per_axis=32, extent=_SQUARE, amplitude=1.0, width=0.4, delta=None
) -> tuple[ParticleState, ModelSpec]:
    """Off-equilibrium porous-medium data: a buoyant Gaussian blob."""
    field = gaussian_field(amplitude, width, center=(0.0, -0.3))
    return grid_run(model, extent, n_per_axis, delta, theta0=field)


@_scenario("boussinesq2d")
def boussinesq_bubble(
    model, n_per_axis=32, extent=_SQUARE, amplitude=1.0, width=0.4, delta=None
) -> tuple[ParticleState, ModelSpec]:
    """Initially quiescent buoyant bubble: no omega0 (the fluid starts at
    rest), Gaussian theta0."""
    field = gaussian_field(amplitude, width, center=(0.0, -0.3))
    return grid_run(model, extent, n_per_axis, delta, theta0=field)


@_scenario("euler3d")
def euler3d_ring(
    model,
    n_per_axis=12,
    extent=((-1.5, 1.5), (-1.5, 1.5), (-1.0, 1.0)),
    ring_radius=0.8,
    core_width=0.25,
    strength=1.0,
    delta=None,
) -> tuple[ParticleState, ModelSpec]:
    """Gaussian-core vortex ring in the z = 0 plane, divergence free."""

    def omega(a):
        rho = np.sqrt(a[..., 0] ** 2 + a[..., 1] ** 2)
        rho_safe = np.maximum(rho, 1e-12)
        amp = strength * np.exp(
            -((rho - ring_radius) ** 2 + a[..., 2] ** 2) / (2.0 * core_width**2)
        )
        out = np.zeros_like(a)
        out[..., 0] = -a[..., 1] / rho_safe * amp
        out[..., 1] = a[..., 0] / rho_safe * amp
        return out

    return grid_run(model, extent, n_per_axis, delta, gamma_data=VectorField(omega))


def seeded_sqg_cloud(
    n_particles=16, seed=1234, delta=0.3
) -> tuple[ParticleState, ModelSpec]:
    """Random well-separated SQG particle cloud used by cross-oracle checks."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n_particles, 2))
    # push apart anything closer than a small core to keep kernels tame
    for _ in range(50):
        d = pts[:, None, :] - pts[None, :, :]
        r = np.linalg.norm(d, axis=-1) + np.eye(n_particles)
        if r.min() > 0.25:
            break
        i, j = np.unravel_index(np.argmin(r), r.shape)
        pts[i] += 0.1 * (pts[i] - pts[j]) / r[i, j]
    theta = rng.uniform(0.5, 1.5, size=n_particles)
    state = ParticleState(
        dim=2,
        labels=pts.copy(),
        positions=pts.copy(),
        weights=np.full(n_particles, 4.0 / n_particles),
        grads=identity_grads(n_particles, 2),
        theta0=theta,
        grad_theta0=np.zeros((n_particles, 2)),
        omega0=None,
        boussinesq_w=np.zeros(n_particles),
        t=0.0,
    )
    return state, ModelSpec("sqg", delta, evolve_gradients=False)


def build_scenario(name: str, **overrides):
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name].build(**overrides)


def corotation_closed_form(t: float) -> np.ndarray:
    """Exact two_vortex positions at time t (midpoint (1/2, 0), Omega = 1/pi)."""
    omega = 1.0 / math.pi
    mid = np.array([0.5, 0.0])
    arm = 0.5 * np.array([math.cos(omega * t), math.sin(omega * t)])
    return np.stack([mid - arm, mid + arm])
