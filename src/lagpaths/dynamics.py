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
(3D).  All pairwise reductions use a fixed per-row summation order, so
results are bitwise independent of the worker-thread count.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
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
    # p in K = y_perp / (2 pi |y|^p): 3 for the SQG perp-Riesz kernel, whose
    # derivative is not integrable, so grad theta0 is transported instead;
    # 2 for Biot-Savart, whose gradient is the strain kernel plus rho R / 2
    radial_power: int
    label_field: Optional[str]  # init_grid field an inline scalar scenario fills
    # rho of each particle; linear in G, so it also maps G jets to rho jets
    # (in 3D the carried Cauchy vorticity G omega0, a vector)
    density: Callable[[ParticleState], np.ndarray]
    w_rate: Optional[Callable[[ParticleState], np.ndarray]] = None  # Boussinesq dW/dt


MODELS: dict[str, Model] = {
    "sqg": Model(
        dim=2, kernel="perp_riesz", closed=True, taylor=True, radial_power=3,
        label_field="theta0", density=lambda s: _carried(s, "theta0"),
    ),
    "euler2d": Model(
        dim=2, kernel="biot_savart_2d", closed=True, taylor=True, radial_power=2,
        label_field="gamma_data", density=lambda s: _carried(s, "omega0"),
    ),
    "ipm": Model(
        dim=2, kernel="biot_savart_2d", closed=False, taylor=True, radial_power=2,
        label_field="theta0", density=lambda s: -_brackets_2d(s)[1],
    ),
    # omega0 + W; without omega0 data the fluid starts at rest
    "boussinesq2d": Model(
        dim=2, kernel="biot_savart_2d", closed=False, taylor=False, radial_power=2,
        label_field="theta0",
        density=lambda s: (0.0 if s.omega0 is None else s.omega0) + s.boussinesq_w,
        w_rate=lambda s: _brackets_2d(s)[1],
    ),
    "euler3d": Model(
        dim=3, kernel="biot_savart_3d", closed=False, taylor=False, radial_power=3,
        label_field=None,
        density=lambda s: np.einsum(
            "nij,nj->ni", _carried(s, "grads"), _carried(s, "omega0")
        ),
    ),
}

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


# pairs per block of a pairwise sum: each array of a block takes 256 KiB,
# and a run of a few hundred particles has a block for every thread
PAIR_BLOCK = 2**15


def _run_chunks(fn, n: int, threads: int = 1, budget: Optional[int] = None) -> list:
    """fn over row blocks (i0, i1) of an n-row pairwise sum, in row order.

    Each block has about budget (default ``PAIR_BLOCK``) / n rows, so the
    boundaries depend on n and budget only, never on threads.
    """
    rows = max(1, min(n, (budget or PAIR_BLOCK) // max(n, 1)))
    chunks = [(s, min(s + rows, n)) for s in range(0, n, rows)]
    workers = min(threads, len(chunks))
    if workers <= 1:
        return [fn(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def _reg_factor(r2: np.ndarray, delta: float) -> np.ndarray | float:
    if delta == 0.0:
        return 1.0
    return -np.expm1(-r2 / (delta * delta))


def _pair_block(cols, i0: int, i1: int):
    """Displacements X_i - X_j from every source j to the target rows i0:i1.

    Source-major: component k is a C-contiguous (sources, rows) array with
    Y[k][j, i - i0] = X[i, k] - X[j, k].  Returns the components, |y|^2 with
    the self pairs lifted to 1, and the index of the self pairs.
    """
    Y = [x[None, i0:i1] - x[:, None] for x in cols]
    # y0^2 + y1^2, and (y0^2 + y2^2) + y1^2 in 3D: the einsum kernels' order
    r2 = Y[0] * Y[0]
    for y in Y[:0:-1]:
        r2 += y * y
    self_pairs = (np.arange(i0, i1), np.arange(i1 - i0))
    r2[self_pairs] = 1.0
    # with the self pairs lifted, any zero is a collision
    if not r2.all():
        raise NumericalFailureError("coincident particles in pairwise sum")
    return Y, r2, self_pairs


def _source_dot(spec: str, a, b) -> np.ndarray:
    """``np.einsum(spec, a, b)``, where spec sums over the sources j of the
    (sources, rows) block b and keeps the rows i last.

    einsum reads each array once and adds the sources in index order, one
    at a time, except on a one-column block, which it sums as a contiguous
    vector, pairwise; there the products are summed by cumsum, which never
    does.
    """
    if b.shape[1] > 1:
        return np.einsum(spec, a, b)
    inputs, out = spec.split("->")
    p = np.einsum(f"{inputs}->{out[:-1]}j{out[-1]}", a, b)
    return np.cumsum(p, axis=-2)[..., -1, :]


def evaluate_rhs(
    spec: ModelSpec, state: ParticleState, threads: int = 1, need_grad: bool = True
):
    """Velocity, velocity gradient (if requested), and the W rate.

    Returns (u, grad_u, w_dot); grad_u is the Eulerian gradient along the
    path, i.e. the matrix that left-multiplies G in dG/dt = (grad u) G.
    """
    model = MODELS[spec.model]
    w = state.weights
    delta = spec.regularization_delta
    need_grad = need_grad and spec.evolve_gradients
    transported = model.radial_power == 3  # grad theta0 rides along (SQG)

    if model.dim == 3:
        u, grad_u = _rhs_euler3d(spec, state, threads, need_grad)
    else:
        cols = list(state.positions.T)
        dens = model.density(state)
        # source weights: w rho, and for SQG's gradient w grad theta on the
        # path, (w b2, -w b1)
        W = [w * dens]
        if need_grad and transported:
            b1, b2 = _brackets_2d(state)
            W += [w * b2, w * -b1]
        W = np.stack(W)

        def chunk_fn(rng):
            (y0, y1), r2, self_pairs = _pair_block(cols, *rng)
            f = _reg_factor(r2, delta)
            rp = TWO_PI * r2  # 2 pi |y|^p
            if transported:
                rp = rp * np.sqrt(r2)
            radial = f / rp
            k = (-y1 * radial, y0 * radial)
            for c in k:
                c[self_pairs] = 0.0
            sums = [_source_dot("cj,ji->ci", W, c) for c in k]  # (len(W), rows)
            u_chunk = np.stack([row[0] for row in sums], axis=-1)
            if not need_grad:
                return u_chunk, None
            if transported:
                g = [row[m] for row in sums for m in (1, 2)]
            else:
                # traceless symmetric strain kernel [[e11, e12], [e12, -e11]]
                # over r^4, regularized
                s = f / (TWO_PI * r2 * r2)
                e11 = 2.0 * y0 * y1 * s
                e12 = (y1**2 - y0**2) * s
                e11[self_pairs] = e12[self_pairs] = 0.0
                a, b = (_source_dot("j,ji->i", W[0], e) for e in (e11, e12))
                g = [a, b, b, -a]
            return u_chunk, np.stack(g, axis=-1).reshape(-1, 2, 2)

        parts = _run_chunks(chunk_fn, state.n, threads)
        u = np.concatenate([p[0] for p in parts], axis=0)
        grad_u = None
        if need_grad:
            grad_u = np.concatenate([p[1] for p in parts], axis=0)
            if not transported:
                # local vorticity rotation, half the carried vorticity value
                grad_u = grad_u + 0.5 * dens[:, None, None] * ROT90
    w_dot = None if model.w_rate is None else model.w_rate(state)

    if not np.all(np.isfinite(u)) or (
        grad_u is not None and not np.all(np.isfinite(grad_u))
    ):
        raise NumericalFailureError("non-finite right-hand side")
    return u, grad_u, w_dot


def _rhs_euler3d(spec, state, threads, need_grad):
    cols = list(state.positions.T)
    delta = spec.regularization_delta
    if delta == 0.0:
        raise ConfigError("euler3d requires a positive regularization delta")
    wvec = MODELS[spec.model].density(state)  # Cauchy vorticity
    ww = [c[:, None] for c in (state.weights[:, None] * wvec).T]

    def chunk_fn(rng):
        Y, r2, self_pairs = _pair_block(cols, *rng)
        f = _reg_factor(r2, delta)
        r = np.sqrt(r2)
        inv_r3 = f / (4.0 * math.pi * r2 * r)
        # (w_j omega_j) x Y_ij, component by component as np.cross forms it
        cross = [
            ww[(k + 1) % 3] * Y[(k + 2) % 3] - ww[(k + 2) % 3] * Y[(k + 1) % 3]
            for k in range(3)
        ]
        for c in cross:
            c[self_pairs] = 0.0
        u_chunk = np.stack(
            [_source_dot("ji,ji->i", c, inv_r3) for c in cross], axis=-1
        )
        if not need_grad:
            return u_chunk, None
        s = 3.0 * f / (8.0 * math.pi * r2 * r2 * r)
        zxw = [-c for c in cross]  # (Y x omega_j), weights already folded in
        sz = [s * z for z in zxw]
        sy = [s * y for y in Y]
        # s (zxw Y^T + Y zxw^T), each product formed as (s a) b
        g = [
            _source_dot("ji,ji->i", sz[k], Y[m])
            + _source_dot("ji,ji->i", sy[k], zxw[m])
            for k in range(3)
            for m in range(3)
        ]
        return u_chunk, np.stack(g, axis=-1).reshape(-1, 3, 3)

    parts = _run_chunks(chunk_fn, state.n, threads)
    u = np.concatenate([p[0] for p in parts], axis=0)
    grad_u = None
    if need_grad:
        grad_u = np.concatenate([p[1] for p in parts], axis=0)
        grad_u = grad_u + 0.5 * _cross_matrix(wvec)
    return u, grad_u


def _cross_matrix(v: np.ndarray) -> np.ndarray:
    """Batched matrix [v]_x with [v]_x b = v x b."""
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


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
        found = _run_chunks(near, n, threads, budget=rows * n)
        nbr = np.concatenate([f[0] for f in found])
        far = np.flatnonzero(np.concatenate([f[1][:, -1] for f in found]) > shell)
    if far.size:

        def brute(rng):
            i = far[rng[0]:rng[1]]
            d2 = np.sum((labels[i, None, :] - labels[None, :, :]) ** 2, axis=-1)
            d2[np.arange(len(i)), i] = np.inf
            return _k_smallest(d2, np.broadcast_to(np.arange(n), d2.shape), k)[0]

        rows = max(1, PAIR_BLOCK // n)
        nbr[far] = np.concatenate(
            _run_chunks(brute, far.size, threads, budget=rows * far.size)
        )
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


def chord_arc(
    state: ParticleState,
    sample_pairs: int = 2048,
    seed: int = 0,
    neighbors: Optional[np.ndarray] = None,
) -> tuple[float, float]:
    """Extremes of |a_i - a_j| / |X_i - X_j| over sampled and neighbor pairs.

    ``neighbors`` is ``nearest_neighbor_pairs(state.labels)`` when the caller
    already has it; labels do not move, so one search serves a whole run.
    """
    n = state.n
    if n < 2:
        raise ConfigError("chord-arc needs at least 2 particles")
    if neighbors is None:
        neighbors = nearest_neighbor_pairs(state.labels)
    pairs = sampled_pairs(neighbors, n, sample_pairs, seed)
    da = np.linalg.norm(state.labels[pairs[:, 0]] - state.labels[pairs[:, 1]], axis=-1)
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
