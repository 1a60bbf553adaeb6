"""Discretized self-contained Lagrangian evolution for the five models.

The continuum equations evolve the particle map X and its label gradient
G = dX/da against kernels applied to displacements X(a) - X(b), weighted by
data frozen at time zero (theta_0, omega_0, their label gradients).  The
discretization replaces label integrals by midpoint quadrature over a label
grid, realizes principal values by omitting the self term, and optionally
regularizes kernels with the analytic blob factor (1 - exp(-|y|^2/delta^2)).

Velocity densities per model, as the ``MODELS`` table gives them (all sums
run over source particles j != i):

* euler2d      u_i = sum w_j K2(Y_ij) omega0_j
* sqg          u_i = sum w_j Ksqg(Y_ij) theta0_j
* ipm          u_i = sum w_j K2(Y_ij) * (-{theta0, X_2}_j)
* boussinesq2d u_i = sum w_j K2(Y_ij) (omega0_j + W_j),  dW/dt = {theta0, X_2}
* euler3d      u_i = (1/4pi) sum w_j (G_j omega0_j) x Y_ij / |Y_ij|^3

with K2 the 2D Biot-Savart kernel and Ksqg the perp-Riesz kernel.  The label
gradient obeys dG/dt = (grad u) G, with grad u assembled from the model's
strain sum plus the local vorticity rotation (2D) or vorticity cross product
(3D).  Each unordered pair is formed once, in fixed work units whose
partial sums are added in a fixed order, so results are bitwise independent
of the worker-thread count.  ``pair_weights`` builds the weight rows of the
pair sums and ``read_velocity`` reads u and grad u off them, for
``evaluate_rhs`` here and for the time jets of ``taylor`` alike.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalFailureError

TWO_PI = 2.0 * math.pi
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass
class ScalarField:
    """Sampler for scalar label data, optionally with an analytic gradient."""

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class VectorField:
    """Sampler for vector label data (3D vorticity)."""

    value: Callable[[np.ndarray], np.ndarray]


@dataclass
class ModelSpec:
    model: str
    regularization_delta: float = 0.0
    evolve_gradients: bool = True

    def __post_init__(self):
        self.model = normalize_model_tag(self.model)
        if not MODELS[self.model].closed:
            # the density moves with G (or W), so G must be evolved
            self.evolve_gradients = True
        if self.regularization_delta < 0:
            raise ConfigError("regularization_delta must be >= 0")


@dataclass
class ParticleState:
    """Snapshot of the discretized Lagrangian map."""

    dim: int
    labels: np.ndarray  # (N, d)
    positions: np.ndarray  # (N, d)
    weights: np.ndarray  # (N,)
    grads: Optional[np.ndarray] = None  # (N, d, d)
    theta0: Optional[np.ndarray] = None  # (N,)
    grad_theta0: Optional[np.ndarray] = None  # (N, d)
    omega0: Optional[np.ndarray] = None  # (N,) in 2D, (N, 3) in 3D
    boussinesq_w: Optional[np.ndarray] = None  # (N,)
    t: float = 0.0

    @property
    def n(self) -> int:
        return len(self.labels)

    def replace(self, **kw) -> "ParticleState":
        return dataclasses.replace(self, **kw)

    def subset(self, mask) -> "ParticleState":
        """The particles selected by a boolean mask or index array."""
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return self.replace(
            **{k: v[mask] for k, v in fields.items() if isinstance(v, np.ndarray)}
        )


def identity_grads(n: int, dim: int) -> np.ndarray:
    return np.broadcast_to(np.eye(dim), (n, dim, dim)).copy()


def init_grid(
    extent,
    n_per_axis: int,
    theta0: Optional[ScalarField] = None,
    gamma_data: Optional[VectorField | ScalarField] = None,
) -> ParticleState:
    """Uniform cell-centered label grid with midpoint quadrature weights."""
    extent = [tuple(map(float, ax)) for ax in extent]
    dim = len(extent)
    if dim not in (2, 3):
        raise ConfigError("dimension must be 2 or 3")
    if n_per_axis < 2:
        raise ConfigError("need at least 2 points per axis")
    axes, spacings = [], []
    for lo, hi in extent:
        if not hi > lo:
            raise ConfigError(f"degenerate extent ({lo}, {hi})")
        h = (hi - lo) / n_per_axis
        axes.append(lo + h * (np.arange(n_per_axis) + 0.5))
        spacings.append(h)
    mesh = np.meshgrid(*axes, indexing="ij")
    labels = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    weights = np.full(len(labels), float(np.prod(spacings)))

    theta_vals = grad_theta = None
    if theta0 is not None:
        theta_vals = np.asarray(theta0.value(labels), dtype=float)
        if theta0.gradient is not None:
            grad_theta = np.asarray(theta0.gradient(labels), dtype=float)
        else:
            grad_theta = _grid_gradient(theta_vals, [n_per_axis] * dim, spacings)
        if not (np.all(np.isfinite(theta_vals)) and np.all(np.isfinite(grad_theta))):
            raise ConfigError("theta0 sampler produced non-finite values")

    omega_vals = None
    if gamma_data is not None:
        omega_vals = np.asarray(gamma_data.value(labels), dtype=float)
        if not np.all(np.isfinite(omega_vals)):
            raise ConfigError("vorticity sampler produced non-finite values")

    return ParticleState(
        dim=dim,
        labels=labels,
        positions=labels.copy(),
        weights=weights,
        grads=identity_grads(len(labels), dim),
        theta0=theta_vals,
        grad_theta0=grad_theta,
        omega0=omega_vals,
        boussinesq_w=np.zeros(len(labels)),
        t=0.0,
    )


def _grid_gradient(values: np.ndarray, shape, spacings) -> np.ndarray:
    field = values.reshape(shape)
    grads = np.gradient(field, *spacings, edge_order=2)
    return np.stack([g.reshape(-1) for g in grads], axis=-1)


def default_delta(extent, n_per_axis: int) -> float:
    """Blob scale: twice the label spacing of the finest axis."""
    h = min((hi - lo) / n_per_axis for lo, hi in extent)
    return 2.0 * h


def poisson_bracket(f_grad, g_grad) -> float | np.ndarray:
    """{f, g} = (d1 f)(d2 g) - (d2 f)(d1 g) from the two gradients."""
    f_grad = np.asarray(f_grad, dtype=float)
    g_grad = np.asarray(g_grad, dtype=float)
    return f_grad[..., 0] * g_grad[..., 1] - f_grad[..., 1] * g_grad[..., 0]


def _brackets_2d(state: ParticleState) -> tuple[np.ndarray, np.ndarray]:
    """({theta0, X_1}, {theta0, X_2}) at every particle from G and grad theta0.

    G may carry leading jet axes, (..., N, d, d); the brackets then are jets.
    """
    th, G = _carried(state, "grad_theta0"), _carried(state, "grads")
    return poisson_bracket(th, G[..., 0, :]), poisson_bracket(th, G[..., 1, :])


def _carried(state: ParticleState, name: str) -> np.ndarray:
    value = getattr(state, name)
    if value is None:
        raise ConfigError(f"the model needs {name} data")
    return value


@dataclass(frozen=True)
class Model:
    """What sets one model apart: every model moves its particles by

        u_i = sum_j w_j rho_j K(X_i - X_j),

    and the models differ only in the kernel K and the density rho.
    """

    dim: int
    kernel: str  # the name of K in kernels.catalog
    # rho is constant in time, so X evolves alone (the X-only Taylor route
    # and the oracle); other models always evolve G
    closed: bool
    taylor: bool  # time-Taylor jets are provided
    label_field: Optional[str]  # init_grid field an inline scalar scenario fills
    # rho of each particle; linear in G, so it also maps G jets to rho jets
    # (in 3D the carried Cauchy vorticity G omega0, a vector)
    density: Callable[[ParticleState], np.ndarray]
    w_rate: Optional[Callable[[ParticleState], np.ndarray]] = None  # Boussinesq dW/dt

    @property
    def transported(self) -> bool:
        """grad theta0 rides along the path (SQG), so no strain kernel."""
        return self.kernel == "perp_riesz"


MODELS: dict[str, Model] = {
    "sqg": Model(
        dim=2, kernel="perp_riesz", closed=True, taylor=True,
        label_field="theta0", density=lambda s: _carried(s, "theta0"),
    ),
    "euler2d": Model(
        dim=2, kernel="biot_savart_2d", closed=True, taylor=True,
        label_field="gamma_data", density=lambda s: _carried(s, "omega0"),
    ),
    "ipm": Model(
        dim=2, kernel="biot_savart_2d", closed=False, taylor=True,
        label_field="theta0", density=lambda s: -_brackets_2d(s)[1],
    ),
    # omega0 + W; without omega0 data the fluid starts at rest
    "boussinesq2d": Model(
        dim=2, kernel="biot_savart_2d", closed=False, taylor=False,
        label_field="theta0",
        density=lambda s: (0.0 if s.omega0 is None else s.omega0) + s.boussinesq_w,
        w_rate=lambda s: _brackets_2d(s)[1],
    ),
    "euler3d": Model(
        dim=3, kernel="biot_savart_3d", closed=False, taylor=False,
        label_field=None,
        density=lambda s: np.einsum(
            "nij,nj->ni", _carried(s, "grads"), _carried(s, "omega0")
        ),
    ),
}

# the highest order of the time-Taylor jets (``taylor.time_jets_fast``); run
# configs check their taylor_order against it without loading ``taylor``
FAST_MAX_ORDER = 25

# spellings besides the MODELS keys, once case, "-" and "_" are dropped
MODEL_ALIASES = {
    "2deuler": "euler2d", "boussinesq": "boussinesq2d", "3deuler": "euler3d"
}


def normalize_model_tag(tag: str) -> str:
    """The MODELS key a model tag names, ignoring case, "-", "_" and
    surrounding blanks."""
    t = tag.strip().lower().replace("-", "").replace("_", "")
    t = MODEL_ALIASES.get(t, t)
    if t not in MODELS:
        raise ConfigError(f"unknown model tag {tag!r}; expected one of {tuple(MODELS)}")
    return t


# pairs per work unit of a pairwise sum, and per block of the neighbour
# search: each array of a unit takes 256 KiB, and a run of a few hundred
# particles has a unit for every thread
PAIR_BLOCK = 2**15


def _run_chunks(fn, n: int, rows: int, threads: int = 1) -> list:
    """fn over the blocks (i0, i1) of ``rows`` rows (the last may be shorter)
    that cover rows 0..n, in row order; the boundaries depend on n and rows
    only, never on threads.
    """
    chunks = [(s, min(s + rows, n)) for s in range(0, n, rows)]
    workers = min(threads, len(chunks))
    if workers <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def _pair_units(n: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Work units of an n-particle pair sum that hold each pair once.

    The particles are cut into contiguous tiles of equal size (the last one
    may be shorter), about sqrt(PAIR_BLOCK) each, and a unit is a pair of
    tiles (I, J >= I) in row-major order.  The boundaries depend on n and
    PAIR_BLOCK only.
    """
    tiles = -(-n // math.isqrt(PAIR_BLOCK))
    side = -(-n // tiles)
    edges = [(s, min(s + side, n)) for s in range(0, n, side)]
    return [(ti, tj) for a, ti in enumerate(edges) for tj in edges[a:]]


def _displacements(x: np.ndarray, rows, sources, out: np.ndarray) -> np.ndarray:
    """The source-major tile out[..., j, i] = x[..., i0 + i] - x[..., j0 + j]
    of the rows (i0, i1) against the sources (j0, j1), for x of shape
    (..., N): the rows copied, then the sources subtracted in place, which
    gives the bytes of the broadcast subtraction in less time.  ``out``
    should be C-contiguous; numpy copies a strided one for the subtraction.
    """
    (i0, i1), (j0, j1) = rows, sources
    np.copyto(out, x[..., None, i0:i1])
    return np.subtract(out, x[..., j0:j1, None], out=out)


def _unit_order_sum(unit_fn, units, n: int, threads: int = 1) -> np.ndarray:
    """The (..., n) pair sum over ``units``: unit_fn(u) returns unit u's
    row partial sums, (..., I), and its source partial sums, (..., J) or
    None.

    Each unit is a chunk of its own, and the partial sums are added in unit
    order, so the result does not depend on the thread count.
    """
    parts = _run_chunks(lambda c: unit_fn(c[0]), len(units), 1, threads)
    total = np.zeros(parts[0][0].shape[:-1] + (n,))
    for ((i0, i1), (j0, j1)), (rows, sources) in zip(units, parts):
        total[..., i0:i1] += rows
        if sources is not None:
            total[..., j0:j1] += sources
    return total


# -expm1(-x) rounds to exactly 1.0 once exp(-x) < 2^-54, x > 54 ln 2 = 37.43;
# 40 leaves a margin for the rounding of expm1 itself
REG_SATURATED = 40.0


def _reg_factor(r2: np.ndarray, delta: float, out: np.ndarray, least: float):
    """Minus the blob factor, exp(-|y|^2 / delta^2) - 1, of a tile, written
    into ``out``.  It is -1.0 without regularization, and -1.0 as well where
    every pair of the tile lies past ``REG_SATURATED`` (``least`` is the
    tile's smallest |y|^2), which gives the bytes the full factor would.  The
    test multiplies by delta^2, so a delta whose square underflows saturates.
    """
    if delta == 0.0 or least > REG_SATURATED * delta * delta:
        return -1.0
    np.divide(r2, -(delta * delta), out=out)
    return np.expm1(out, out=out)


# the Levi-Civita symbol: (a x b)_k = EPS3[k, i, j] a_i b_j
EPS3 = np.zeros((3, 3, 3))
EPS3[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
EPS3[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -1.0
# index of the 3D strain component y_a y_b among the a <= b pairs
SYM3 = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def pair_weights(model: Model, state: ParticleState, need_grad: bool):
    """rho and the weight rows W_c of the pair sums sum_j W_cj k(X_i - X_j),
    in groups (..., rows, N): w rho (w G omega0 in 3D), then for a
    transported gradient w grad theta on the path, (w b2, -w b1).  G may
    carry leading jet axes; rho and the groups then are jets.
    """
    rho = model.density(state)
    w = state.weights
    if model.dim == 3:
        return rho, [w * np.swapaxes(rho, -1, -2)]
    rows = [w * rho[..., None, :]]
    if need_grad and model.transported:
        b1, b2 = _brackets_2d(state)
        rows.append(w * np.stack([b2, -b1], axis=-2))
    return rho, rows


def read_velocity(model: Model, sums, need_grad: bool, vorticity=None):
    """u and grad u (or None) from the (component, weight row, particle)
    sums of the velocity kernel's components, then the strain's (2D e11,
    e12; 3D the six y_a y_b), against the rows of ``pair_weights``.  Half
    of ``vorticity`` (a value per particle in 2D, a vector in 3D) rotates
    grad u where given.
    """
    grad_u = None
    if model.dim == 3:
        # u = sum_j (w omega)_j x K(Y_ij)
        u = np.einsum("kca,acn->nk", EPS3, sums[:3])
        if need_grad:
            # s (z Y^T + Y z^T) with z = Y x (w omega)_j, plus the local
            # rotation by half the Cauchy vorticity
            g = np.einsum("kac,amcn->nkm", EPS3, sums[3:][SYM3])
            rot = np.einsum("kim,ni->nkm", EPS3, vorticity)
            grad_u = g + g.transpose(0, 2, 1) + 0.5 * rot
    else:
        u = sums[:2, 0].T
        if need_grad and model.transported:
            # the velocity kernel against w grad theta: an outer product
            grad_u = np.moveaxis(sums[:2, 1:], 2, 0)
        elif need_grad:
            a, b = sums[2, 0], sums[3, 0]
            grad_u = np.stack([a, b, b, -a], axis=-1).reshape(-1, 2, 2)
            if vorticity is not None:
                # local rotation, half the carried vorticity value
                grad_u = grad_u + 0.5 * vorticity[:, None, None] * ROT90
    return u, grad_u


def evaluate_rhs(
    spec: ModelSpec, state: ParticleState, threads: int = 1, need_grad: bool = True
):
    """Velocity, velocity gradient (if requested), and the W rate.

    Returns (u, grad_u, w_dot); grad_u is the Eulerian gradient along the
    path, i.e. the matrix that left-multiplies G in dG/dt = (grad u) G.

    Every pair sum is sum_j W_cj k(X_i - X_j) over the weight rows W_c of
    ``pair_weights`` and kernel components k, formed once per unordered pair
    on the ``_pair_units`` tiles (see README, "Pair sums").
    """
    model = MODELS[spec.model]
    delta = spec.regularization_delta
    need_grad = need_grad and spec.evolve_gradients
    if model.dim == 3 and delta == 0.0:
        raise ConfigError("euler3d requires a positive regularization delta")
    dens, groups = pair_weights(model, state, need_grad)
    # C order for the matrix products; the 3D rows come out of a transpose
    W = np.ascontiguousarray(np.concatenate(groups))
    d = model.dim

    def components(y, r2, f, a, b, k):
        """Write each kernel component on a tile into k in turn, and yield k
        with the factor c and the parity p by which it gives the component:
        K = c k, K(-y) = p K(y); every one vanishes at y = 0.  ``f`` is
        ``_reg_factor``'s minus the blob factor; r2, a and b are overwritten.
        """
        if d == 3:
            # K = y f / (4 pi |y|^3), with the sign of f in the denominator
            np.multiply(r2, -4.0 * math.pi, out=b)
            np.multiply(b, np.sqrt(r2, out=k), out=b)
            kr = np.divide(f, b, out=a)
            for c in y:
                yield np.multiply(c, kr, out=k), 1.0, -1.0
            if need_grad:
                # s y_a y_b with s = 3 f / (8 pi |y|^5) = 1.5 kr / |y|^2
                s = np.divide(kr, r2, out=b)
                for i in range(3):
                    sy = np.multiply(s, y[i], out=r2)
                    for j in range(i, 3):
                        yield np.multiply(sy, y[j], out=k), 1.5, 1.0
            return
        # minus 2 pi |y|^2, times |y| for the perp-Riesz kernel
        np.multiply(r2, -TWO_PI, out=b)
        if model.transported:
            np.multiply(b, np.sqrt(r2, out=k), out=b)
        strain = need_grad and not model.transported
        if strain:
            # s = f / (2 pi |y|^4)
            s = np.divide(f, np.multiply(b, r2, out=k), out=r2)
        radial = np.divide(f, b, out=a)
        yield np.multiply(y[1], radial, out=k), -1.0, -1.0
        yield np.multiply(y[0], radial, out=k), 1.0, -1.0
        if strain:
            # traceless symmetric strain kernel [[e11, e12], [e12, -e11]]
            # over r^4, regularized
            np.multiply(y[0], y[1], out=k)
            yield np.multiply(k, s, out=k), 2.0, 1.0
            np.multiply(y[1], y[1], out=k)
            np.subtract(k, np.multiply(y[0], y[0], out=b), out=k)
            yield np.multiply(k, s, out=k), 1.0, 1.0

    cols = np.ascontiguousarray(state.positions.T)
    units = _pair_units(state.n)
    side = units[0][0][1]  # the first tile is the largest
    # one scratch block per worker thread and call; a shorter tile takes views
    local = threading.local()

    def unit_sums(u):
        (i0, i1), (j0, j1) = units[u]
        if not hasattr(local, "block"):
            local.block = np.empty((d + 4) * side * side)
        # a C-contiguous (d + 4, J, I) view, also of a shorter tile
        shape = (j1 - j0, i1 - i0)
        tiles = local.block[: (d + 4) * shape[0] * shape[1]]
        tiles = tiles.reshape((d + 4,) + shape)
        y, (r2, a, b, k) = tiles[:d], tiles[d:]
        # source-major: y[c, j, i] = X[i0 + i, c] - X[j0 + j, c]
        _displacements(cols, (i0, i1), (j0, j1), out=y)
        np.multiply(y[0], y[0], out=r2)
        for c in y[1:]:
            r2 += np.multiply(c, c, out=k)
        # a diagonal unit sums all of I x I into its rows; lifting |y|^2 of
        # the self pairs keeps their components at 0
        diagonal = i0 == j0
        if diagonal:
            np.fill_diagonal(r2, 1.0)
        # with the self pairs lifted, any zero is a collision
        least = r2.min()
        if least == 0.0:
            raise NumericalFailureError("coincident particles in pairwise sum")
        f = _reg_factor(r2, delta, a, least)
        rows, sources = [], []
        for kc, c, parity in components(y, r2, f, a, b, k):
            rows.append(c * (W[:, j0:j1] @ kc))
            if not diagonal:
                sources.append(c * parity * (W[:, i0:i1] @ kc.T))
        return np.stack(rows), np.stack(sources) if sources else None

    # (component, weight row, particle)
    total = _unit_order_sum(unit_sums, units, state.n, threads)
    u, grad_u = read_velocity(model, total, need_grad, dens)
    w_dot = None if model.w_rate is None else model.w_rate(state)

    if not np.all(np.isfinite(u)) or (
        grad_u is not None and not np.all(np.isfinite(grad_u))
    ):
        raise NumericalFailureError("non-finite right-hand side")
    return u, grad_u, w_dot


def velocity(spec: ModelSpec, state: ParticleState, threads: int = 1) -> np.ndarray:
    u, _, _ = evaluate_rhs(spec, state, threads=threads, need_grad=False)
    return u


def rk4_step(
    spec: ModelSpec,
    state: ParticleState,
    dt: float,
    threads: int = 1,
    rhs0: Optional[tuple] = None,
) -> ParticleState:
    """Classical four-stage step for the coupled (X, G, W) system.

    ``rhs0`` is ``evaluate_rhs(spec, state)`` when the caller already has it;
    it then serves as the first stage instead of being recomputed.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")

    def rhs(s: ParticleState, evaluated=None):
        u, grad_u, w_dot = evaluated or evaluate_rhs(spec, s, threads=threads)
        g_dot = None
        if grad_u is not None:
            g_dot = np.einsum("nij,njk->nik", grad_u, s.grads)
        return u, g_dot, w_dot

    def advanced(base: ParticleState, rates, factor: float) -> ParticleState:
        u, g_dot, w_dot = rates
        kw = {"positions": base.positions + factor * u, "t": base.t + factor}
        if g_dot is not None:
            kw["grads"] = base.grads + factor * g_dot
        if w_dot is not None:
            kw["boussinesq_w"] = base.boussinesq_w + factor * w_dot
        return base.replace(**kw)

    k1 = rhs(state, rhs0)
    k2 = rhs(advanced(state, k1, dt / 2.0))
    k3 = rhs(advanced(state, k2, dt / 2.0))
    k4 = rhs(advanced(state, k3, dt))

    def combine(parts):
        vals = [p for p in parts if p is not None]
        if not vals:
            return None
        a, b, c, d = parts
        return (a + 2.0 * b + 2.0 * c + d) * (dt / 6.0)

    du = combine([k[0] for k in (k1, k2, k3, k4)])
    dg = combine([k[1] for k in (k1, k2, k3, k4)])
    dw = combine([k[2] for k in (k1, k2, k3, k4)])
    kw = {"positions": state.positions + du, "t": state.t + dt}
    if dg is not None:
        kw["grads"] = state.grads + dg
    if dw is not None:
        kw["boussinesq_w"] = state.boussinesq_w + dw
    new = state.replace(**kw)
    if not np.all(np.isfinite(new.positions)):
        raise NumericalFailureError("non-finite positions after RK4 step")
    return new


# -- diagnostics --------------------------------------------------------------


@dataclass
class DiagnosticsRecord:
    t: float
    chord_arc_min: float
    chord_arc_max: float
    lambda_bound: float
    grad_u_sup: float
    det_grad_max_dev: float
    hamiltonian: Optional[float] = None
    momentum: Optional[tuple[float, float]] = None
    angular_impulse: Optional[float] = None


# labels per cell that the neighbour search's cell size aims at
CELL_OCCUPANCY = 4


def _k_smallest(d2: np.ndarray, cand: np.ndarray, k: int):
    """Per row, the k candidates smallest by (d2, index), with their d2.

    Takes one minimum at a time and overwrites its d2 with inf; for the k
    <= 4 used here that is faster than sorting the rows.
    """
    picks, dists = [], []
    for _ in range(k):
        best = d2.min(axis=1)
        pick = np.where(d2 == best[:, None], cand, np.iinfo(cand.dtype).max).min(axis=1)
        d2[cand == pick[:, None]] = np.inf
        picks.append(pick)
        dists.append(best)
    return np.stack(picks, axis=1), np.stack(dists, axis=1)


def nearest_neighbor_pairs(
    labels: np.ndarray, k: int = 1, threads: int = 1
) -> np.ndarray:
    """Pairs (i, j) joining each label to its k nearest other labels.

    Row i's neighbours are the k smallest by (squared distance, index); the
    result has n * k rows, ``pairs[i * k + c] = (i, c-th neighbour of i)``.
    A uniform cell list gives each row the labels of its 3^d adjacent cells.
    Every other label is farther than one cell size, so a row whose k-th
    candidate lies within that is exact; any other row is searched again over
    all labels.  Squared distances are formed as in a brute-force scan, so
    for k = 1 the result is that scan's argmin.
    """
    n, d = labels.shape
    if not 1 <= k < n:
        raise ValueError(f"k must lie in 1..{n - 1}, got {k}")
    lo = labels.min(axis=0)
    span = labels.max(axis=0) - lo
    live = span > 0
    size = 1.0
    if live.any():
        size = float(np.prod(span[live]) * CELL_OCCUPANCY / n) ** (1.0 / live.sum())
        # at most n + 1 cells per axis, so a cell key fits an int64
        size = max(size, float(span.max()) / n)
    cell = np.floor((labels - lo) / size).astype(np.int64)
    # a one-cell border on each side keeps every adjacent cell's key distinct
    stride = np.cumprod(np.concatenate([[1], cell.max(axis=0)[:-1] + 3]))
    key = (cell + 1) @ stride
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True, return_counts=True)
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d))) @ stride
    slots = np.arange(count.max())
    # binning rounds (x - lo) / size; the margin keeps the shell test safe
    shell = (0.999 * size) ** 2

    def near(rng):
        i0, i1 = rng
        adj = key[i0:i1, None] + offsets
        pos = np.minimum(np.searchsorted(cells, adj), len(cells) - 1)
        filled = np.where(cells[pos] == adj, count[pos], 0)
        ok = (slots < filled[..., None]).reshape(i1 - i0, -1)
        cand = order[(start[pos][..., None] + slots).reshape(i1 - i0, -1) * ok]
        d2 = np.sum((labels[i0:i1, None, :] - np.take(labels, cand, 0)) ** 2, axis=-1)
        d2[~ok | (cand == np.arange(i0, i1)[:, None])] = np.inf
        return _k_smallest(d2, cand, k)

    width = len(offsets) * len(slots)
    nbr, far = np.empty((n, k), dtype=np.intp), np.arange(n)
    # a row with more candidate slots than labels is cheaper scanned in full
    if width < n:
        rows = max(1, PAIR_BLOCK // width)
        found = _run_chunks(near, n, rows, threads)
        nbr = np.concatenate([f[0] for f in found])
        far = np.flatnonzero(np.concatenate([f[1][:, -1] for f in found]) > shell)
    if far.size:

        def brute(rng):
            i = far[rng[0]:rng[1]]
            d2 = np.sum((labels[i, None, :] - labels[None, :, :]) ** 2, axis=-1)
            d2[np.arange(len(i)), i] = np.inf
            return _k_smallest(d2, np.broadcast_to(np.arange(n), d2.shape), k)[0]

        rows = max(1, PAIR_BLOCK // n)
        nbr[far] = np.concatenate(_run_chunks(brute, far.size, rows, threads))
    return np.stack([np.repeat(np.arange(n), k), nbr.reshape(-1)], axis=-1)


def sampled_pairs(
    neighbors: np.ndarray, n: int, sample_pairs: int, seed: int
) -> np.ndarray:
    """``neighbors`` followed by ``sample_pairs`` seeded uniform draws of pairs
    among n labels, self pairs dropped."""
    pairs = [neighbors]
    if sample_pairs > 0:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=sample_pairs)
        j = rng.integers(0, n, size=sample_pairs)
        keep = i != j
        pairs.append(np.stack([i[keep], j[keep]], axis=-1))
    return np.concatenate(pairs, axis=0)


def chord_arc_sample(
    labels: np.ndarray, neighbors: np.ndarray, sample_pairs: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``chord_arc`` compares, ``neighbors`` and then the seeded
    draws of ``sampled_pairs``, with their label distances |a_i - a_j|.
    Labels never move, so one sample serves a whole run."""
    pairs = sampled_pairs(neighbors, len(labels), sample_pairs, seed)
    return pairs, np.linalg.norm(labels[pairs[:, 0]] - labels[pairs[:, 1]], axis=-1)


def chord_arc(
    state: ParticleState,
    sample_pairs: int = 2048,
    seed: int = 0,
    sample: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[float, float]:
    """Extremes of |a_i - a_j| / |X_i - X_j| over sampled and neighbor pairs.

    ``sample`` is ``chord_arc_sample`` of the state's labels when the caller
    already has it; otherwise the label neighbours and ``sample_pairs``
    seeded draws are formed here.
    """
    n = state.n
    if n < 2:
        raise ConfigError("chord-arc needs at least 2 particles")
    if sample is None:
        neighbors = nearest_neighbor_pairs(state.labels)
        sample = chord_arc_sample(state.labels, neighbors, sample_pairs, seed)
    pairs, da = sample
    dx = np.linalg.norm(
        state.positions[pairs[:, 0]] - state.positions[pairs[:, 1]], axis=-1
    )
    if np.any(dx == 0.0):
        return (float(np.min(da[dx > 0] / dx[dx > 0])) if np.any(dx > 0) else np.inf,
                np.inf)
    ratios = da / dx
    return float(np.min(ratios)), float(np.max(ratios))


def operator_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norms of a batch of 2x2 or 3x3 matrices."""
    d = mats.shape[-1]
    if d == 2:
        fro2 = np.sum(mats * mats, axis=(-2, -1))
        det = mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
        gap = np.sqrt(np.maximum(fro2 * fro2 - 4.0 * det * det, 0.0))
        return np.sqrt((fro2 + gap) / 2.0)
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def grad_u_sup(grad_u: np.ndarray) -> float:
    """Discrete sup norm of the grad u from ``evaluate_rhs``: the largest
    spectral norm over the particles."""
    return float(np.max(operator_norms(grad_u)))


def lambda_accumulate(grad_u_history, times) -> float:
    """exp of the trapezoid-rule integral of the grad-u sup history.

    ``times`` are the sample times; they need not be evenly spaced.
    """
    hist = np.asarray(grad_u_history, dtype=float)
    if np.any(hist < 0):
        raise ValueError("grad_u history must be nonnegative")
    if len(hist) < 2:
        return 1.0
    return float(np.exp(np.trapezoid(hist, x=np.asarray(times, dtype=float))))


def invariants_euler2d(state: ParticleState) -> tuple[float, np.ndarray, float]:
    """Point-vortex Hamiltonian, linear momentum, and angular impulse."""
    if state.omega0 is None:
        raise ConfigError("point-vortex invariants need omega0 circulations")
    gamma = state.weights * state.omega0
    X = state.positions
    diff = X[:, None, :] - X[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    iu = np.triu_indices(state.n, k=1)
    h = -np.sum(gamma[iu[0]] * gamma[iu[1]] * np.log(dist[iu])) / (2.0 * TWO_PI)
    p = gamma @ X
    ang = float(np.sum(gamma * np.sum(X * X, axis=-1)))
    return float(h), p, ang


def incompressibility_residual(state: ParticleState) -> float:
    """max_i |det G_i - 1|."""
    if state.grads is None:
        raise ConfigError("no gradients evolved")
    return float(np.max(np.abs(np.linalg.det(state.grads) - 1.0)))


def make_point_vortex_state(positions, circulations) -> ParticleState:
    """Point-vortex configuration: unit weights, circulations as omega0."""
    positions = np.asarray(positions, dtype=float)
    circs = np.asarray(circulations, dtype=float)
    n = len(positions)
    return ParticleState(
        dim=2,
        labels=positions.copy(),
        positions=positions.copy(),
        weights=np.ones(n),
        grads=identity_grads(n, 2),
        omega0=circs,
        boussinesq_w=np.zeros(n),
        t=0.0,
    )
