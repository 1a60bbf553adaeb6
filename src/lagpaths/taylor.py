"""High-order time-Taylor machinery for particle trajectories.

Two independent routes produce the same trajectory jets:

* ``time_jets_oracle``: expands d^n/dt^n K(X_i - X_j) with the multivariate
  Faa di Bruno formula, using exact symbolic kernel derivatives evaluated at
  the current displacements.  Cost grows with the partition sets, so order
  and particle count are capped.
* ``time_jets_fast``: propagates jets order by order through the kernel with
  Cauchy-product arithmetic, one new coefficient per pair and order
  (``jets.KernelStream``); reaches order ~25 and large particle counts.  It
  takes its weight rows and its read-out of u and grad u from ``dynamics``,
  as ``evaluate_rhs`` does.

Their agreement is the package's main cross-validation of the combinatorial
layer against plain power-series calculus.

On top of the jets sit radius-of-analyticity estimators (ratio and root
tests), a Cauchy-envelope fit |c_n| <= C / R^n, a Taylor time stepper, and
the explicit rigorous lower bound on the radius assembled from the displayed
constants of the underlying estimates (chord-arc parameter, kernel constant,
Holder data norms).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .combinatorics import mi_factorial, multi_indices_up_to, partitions_by_alpha
from .dynamics import (
    FAST_MAX_ORDER,
    MODELS,
    ModelSpec,
    ParticleState,
    _displacements,
    _pair_units,
    _unit_order_sum,
    chord_arc_sample,
    evaluate_rhs,
    nearest_neighbor_pairs,
    operator_norms,
    pair_weights,
    read_velocity,
)
from .errors import ConfigError, NumericalFailureError
from .jets import Jet, KernelStream, mul_step
from .kernels import KernelExpr, catalog, regularize

ORACLE_MAX_ORDER = 8
ORACLE_MAX_PARTICLES = 64
# time_jets_fast: the bytes of pair-jet history and kernel tiles the units of
# one expansion may keep across orders
JET_CACHE_BYTES = 64 * 2**20


@dataclass
class TrajectoryJets:
    """Per-particle normalized time-Taylor coefficients of the map."""

    x_coeffs: np.ndarray  # (order+1, N, d)
    g_coeffs: Optional[np.ndarray] = None  # (order+1, N, d, d)

    @property
    def order(self) -> int:
        return self.x_coeffs.shape[0] - 1

    @property
    def n_particles(self) -> int:
        return self.x_coeffs.shape[1]

    def positions_at(self, h: float) -> np.ndarray:
        return Jet(self.x_coeffs).evaluate(h)

    def grads_at(self, h: float) -> Optional[np.ndarray]:
        return None if self.g_coeffs is None else Jet(self.g_coeffs).evaluate(h)


def _regularized(spec: ModelSpec, k: KernelExpr) -> KernelExpr:
    """The model kernel k, times the blob factor when the spec has a delta."""
    if spec.regularization_delta > 0:
        k = regularize(k, spec.regularization_delta)
    return k


def ensure_taylor_model(spec: ModelSpec) -> None:
    """Refuse what the jets cannot expand: a model without them, or a delta
    whose blob Gaussian rate 1 / delta^2 (a float in the stream) overflows."""
    if not MODELS[spec.model].taylor:
        covered = ", ".join(tag for tag, row in MODELS.items() if row.taylor)
        raise ConfigError(
            f"Taylor stepping covers {covered}; {spec.model} uses the reference "
            "integrator"
        )
    delta = spec.regularization_delta
    if delta > 0 and 1 / Fraction(delta) ** 2 > sys.float_info.max:
        raise ConfigError(
            "Taylor jets need regularization_delta 0 or at least "
            f"{sys.float_info.max ** -0.5:.4g}, so that 1 / delta^2 is a float"
        )


# -- Faa di Bruno oracle ------------------------------------------------------


def time_jets_oracle(
    spec: ModelSpec, state: ParticleState, order: int
) -> TrajectoryJets:
    """Trajectory jets via exact kernel derivatives and partition sums.

    Builds d^(n+1) X_i = sum_j w_j rho_j d^n/dt^n [K(X_i - X_j)] inductively,
    expanding the time derivative of the composition with the multivariate
    Faa di Bruno formula over the exact symbolic kernel derivatives.
    """
    if order > ORACLE_MAX_ORDER:
        raise ConfigError(f"oracle order capped at {ORACLE_MAX_ORDER}")
    if state.n > ORACLE_MAX_PARTICLES:
        raise ConfigError(f"oracle particle count capped at {ORACLE_MAX_PARTICLES}")
    model = MODELS[spec.model]
    if not model.closed:
        raise ConfigError("the oracle route needs a time-independent density")
    dens = model.density(state)
    expr = _regularized(spec, catalog(model.kernel).velocity_kernel)
    d = state.dim
    n_pts = state.n
    w_rho = state.weights * dens

    xj = np.zeros((order + 1, n_pts, d))
    xj[0] = state.positions
    u, _, _ = evaluate_rhs(spec, state, need_grad=False)
    if order >= 1:
        xj[1] = u

    # exact kernel derivatives evaluated at the frozen displacements
    disp = state.positions[:, None, :] - state.positions[None, :, :]
    flat = disp.reshape(-1, d)
    diag = np.eye(n_pts, dtype=bool).reshape(-1)
    flat_safe = flat.copy()
    flat_safe[diag] = 1.0
    off_r2 = np.sum(flat[~diag] ** 2, axis=-1)
    if np.any(off_r2 == 0.0):
        raise NumericalFailureError("coincident particles in oracle jets")
    deriv_vals: dict[tuple, np.ndarray] = {}
    for alpha in multi_indices_up_to(order - 1, d) if order >= 2 else []:
        try:
            vals = expr.derive_multi(alpha).evaluate(flat_safe)  # (N*N, d)
        except OverflowError as exc:  # powers of the rate 1 / delta^2
            raise ConfigError(
                f"oracle jets at order {order} need a larger regularization_delta "
                f"than {spec.regularization_delta:g}: an exact kernel derivative's "
                "coefficients exceed the float range"
            ) from exc
        vals[diag] = 0.0
        deriv_vals[alpha] = vals.reshape(n_pts, n_pts, d)

    for n in range(1, order):
        # normalized displacement jets up to order n
        yj = xj[: n + 1, :, None, :] - xj[: n + 1, None, :, :]
        total = np.zeros((n_pts, n_pts, d))
        for alpha, partitions in partitions_by_alpha(n, d).items():
            inner = np.zeros((n_pts, n_pts))
            for part in partitions:
                term = np.ones((n_pts, n_pts))
                weight = 1.0
                for k, l in zip(part.ks, part.ls):
                    weight /= mi_factorial(k)
                    for axis, ki in enumerate(k):
                        for _ in range(ki):
                            term = term * yj[l, :, :, axis]
                inner += weight * term
            total += deriv_vals[alpha] * inner[:, :, None]
        xj[n + 1] = np.einsum("j,ijk->ik", w_rho, total) / (n + 1)
    if not np.all(np.isfinite(xj)):
        raise NumericalFailureError("non-finite jet coefficients")
    return TrajectoryJets(xj)


# -- jet propagation ----------------------------------------------------------


def _jet_kernels(spec: ModelSpec, with_gradients: bool):
    """(need_g, keep, stream layout) of a generic expansion; keep says that
    a pair sum multiplies the kernel by a jet, so reads its history."""
    model = MODELS[spec.model]
    need_g = with_gradients or not model.closed
    entry = catalog(model.kernel)
    comps = _regularized(spec, entry.velocity_kernel).comps
    if need_g:
        comps += _regularized(spec, entry.gradient_kernel).comps
    keep = need_g and (model.transported or not model.closed)
    return need_g, keep, KernelStream(comps)


@lru_cache(maxsize=2)  # an expansion's tiles have at most two sizes
def _triangle(side: int):
    """The pairs j > i of a diagonal tile, (jj, ii), and their flat cells
    jj * side + ii, shared by the diagonal units of one side."""
    jj, ii = np.tril_indices(side, -1)
    tri = jj, ii, jj * side + ii
    for a in tri:
        a.flags.writeable = False  # shared across units and expansions
    return tri


class _JetUnit:
    """One work unit of ``time_jets_fast``: its rows (i0, i1) against its
    sources (j0, j1), each unordered pair once (on the diagonal j > i).

    It owns what it streams through, ``arrays``: a ``KernelStream``, the
    displacement jets y and the kernel tiles, and ``nbytes`` counts them.  A
    ``kept`` unit holds them across orders; any other builds them per order.
    """

    def __init__(self, unit, layout, dim, order, keep):
        (i0, i1), (j0, j1) = self.rows, self.sources = unit
        self.layout, self.dim, self.order, self.keep = layout, dim, order, keep
        self.diagonal = i0 == j0
        self.shape = self.batch = (j1 - j0, i1 - i0)
        if self.diagonal:
            self.tri = _triangle(i1 - i0)
            self.batch = self.tri[0].shape
        self.kept, self.arrays = False, None
        self.nbytes = 8 * sum(map(math.prod, self._shapes(order)))

    def _shapes(self, length: int):
        """The shapes, over ``length`` coefficients, of the stream's histories,
        of y and of the kernel tiles: every coefficient where a pair sum reads
        the kernel jets, else a diagonal unit's current one and no other."""
        coeffs = length if self.keep else int(self.diagonal)
        return ((length * self.layout.histories,) + self.batch,
                (length, self.dim) + self.batch,
                (len(self.layout.unique), coeffs) + self.shape)

    def advance(self, xt: np.ndarray, n: int):
        """Write displacement coefficient n, y[q, :, j, i] = X_i^(q) - X_j^(q)
        from xt, (n + 1, d, N), and push it (a fresh stream takes 0..n).
        Returns coefficient n's kernel tile, (unique, J, I), and the arrays."""
        arrays = self.arrays
        if arrays is None:
            _, y, tiles = self._shapes(self.order if self.kept else n + 1)
            arrays = KernelStream(self.layout.unique), np.empty(y), np.zeros(tiles)
            if self.kept:
                self.arrays = arrays
        stream, y, tiles = arrays
        m = stream.n
        if self.diagonal:
            jj, ii, flat = self.tri
            x = xt[m:, :, self.rows[0] : self.rows[1]]
            np.subtract(x.take(ii, axis=2), x.take(jj, axis=2), out=y[m : n + 1])
        else:
            _displacements(xt[m:], self.rows, self.sources, out=y[m : n + 1])
        for q in range(m, n + 1):
            if not self.diagonal:
                k = stream.push(y, out=tiles[:, q] if self.keep else None)
            else:
                k = stream.push(y)  # (unique, pairs)
                if self.keep or q == n:
                    cell = tiles[:, q if self.keep else 0]
                    cell.reshape(len(k), -1)[:, flat] = k
                    k = cell
        return k, arrays


def time_jets_fast(
    spec: ModelSpec,
    state: ParticleState,
    order: int,
    with_gradients: bool = False,
    threads: int = 1,
) -> TrajectoryJets:
    """Trajectory jets via order-by-order jet propagation through the kernel.

    Gradients are carried when requested, and always for models whose
    density moves with G (ipm: the bracket -{theta0, X_2}).

    Each work unit (``_JetUnit``) streams its pair jets on its source-major
    tile, each unordered pair once (see README, "Jet routes"); only
    coefficient n of each pair sum and of G' = (grad u) G is formed at order
    n, from the unit's kernel tiles with matrix products.  Units keep their
    streams while their summed ``nbytes`` stay within ``JET_CACHE_BYTES``;
    the rest rebuild theirs at every order.
    """
    if order > FAST_MAX_ORDER:
        raise ConfigError(f"fast jets capped at order {FAST_MAX_ORDER}")
    ensure_taylor_model(spec)
    model = MODELS[spec.model]
    need_g, keep, layout = _jet_kernels(spec, with_gradients)
    d = state.dim
    n_pts = state.n
    # K(X_j - X_i) = parity K(X_i - X_j): one push serves both particles
    parity = np.array([c.parity for c in layout.unique], dtype=float)
    pairs = _pair_units(n_pts)
    units = [_JetUnit(unit, layout, d, order, keep) for unit in pairs]
    # units within the budget keep their arrays across orders; the rest
    # rebuild them from coefficient 0 at every order
    for unit, held in zip(units, np.cumsum([unit.nbytes for unit in units])):
        unit.kept = bool(held <= JET_CACHE_BYTES)

    xj = np.zeros((order + 1, n_pts, d))
    xj[0] = state.positions
    gj = m_hist = None
    if need_g:
        if state.grads is None:
            raise ConfigError("gradient jets need an evolved-gradient state")
        gj = np.zeros((order + 1, n_pts, d, d))
        gj[0] = state.grads
        m_hist = np.zeros((order, n_pts, d, d))  # jets of M = grad u; G' = M G

    for n in range(order):
        xt = np.ascontiguousarray(np.moveaxis(xj[: n + 1], 2, 1))  # (n + 1, d, N)
        # G jets map to density and bracket jets, (n + 1, N); the weight
        # rows as jets, a constant group as one coefficient: (length, m, N)
        g_state = state.replace(grads=gj[: n + 1]) if need_g else state
        rho, wr = pair_weights(model, g_state, need_g)
        wr = [a.reshape((-1,) + a.shape[-2:]) for a in wr]

        def unit_sums(u):
            (i0, i1), (j0, j1) = pairs[u]
            # a rebuilding unit's fresh arrays stay bound through its sums:
            # dropped first, they faulted in more pages (README, Jet routes)
            k, (stream, y, tiles) = units[u].advance(xt, n)
            # coefficient n of sum_j wr_j k(X_i - X_j) for each row i and of
            # sum_i wr_i k(X_j - X_i) for each source j, (unique, m, tile): a
            # constant weight's product with k, a jet weight's Cauchy product
            # with the kernel jets, summed over (q, j) in one matrix product
            rows, sources = [], []
            for a in wr:
                if len(a) == 1:
                    rows.append(a[0, :, j0:j1] @ k)
                    sources.append(k @ a[0, :, i0:i1].T)
                    continue
                a = a[n::-1]
                kq = tiles[:, : n + 1]
                cj = np.moveaxis(a[..., j0:j1], 1, 0).reshape(a.shape[1], -1)
                rows.append(cj @ kq.reshape(len(kq), -1, i1 - i0))
                sources.append((kq @ np.swapaxes(a[..., i0:i1], 1, 2)).sum(axis=1))
            sources = np.swapaxes(np.concatenate(sources, axis=2), 1, 2)
            return np.concatenate(rows, axis=1), parity[:, None, None] * sources

        total = _unit_order_sum(unit_sums, pairs, n_pts, threads)
        # the local rotation takes coefficient n of the density; a constant
        # density is a one-coefficient jet
        r = np.atleast_2d(rho)
        u_n, m_n = read_velocity(model, total, need_g, r[n] if n < len(r) else None)
        xj[n + 1] = u_n / (n + 1)

        if need_g:
            m_hist[n] = m_n
            # coefficient n of sum_k M_ak G_kc
            g_n = sum(
                mul_step(m_hist[:, :, :, k, None], gj[:, :, None, k], n)
                for k in range(d)
            )
            gj[n + 1] = g_n / (n + 1)

    if not np.all(np.isfinite(xj)) or (need_g and not np.all(np.isfinite(gj))):
        raise NumericalFailureError("non-finite jet coefficients")
    return TrajectoryJets(xj, gj)


# -- radius estimation and envelope fitting -----------------------------------


@dataclass
class RadiusEstimate:
    per_particle_ratio: np.ndarray
    per_particle_root: np.ndarray
    aggregate_ratio: float  # the radius; falls back on the root estimate
    aggregate_root: float
    growing: bool = False  # estimates increase with order: no finite radius


_TINY = 1e-300


def _or_inf(x: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(x), np.inf, x)


def _tail_estimates(seqs: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Ratio- and root-test radius of each column of seqs, NaN where none.

    The ratio estimate is the median of c_n / c_(n+1) over n in [half,
    order); the root estimate is 1 / max c_n**(1/n) over n >= half.
    Coefficients below the column's double-precision noise floor carry no
    tail information (rotating solutions produce exact zeros in single
    components) and are left out.
    """
    order = seqs.shape[0] - 1
    floor = seqs.max(axis=0) * 1e-14 + _TINY
    num, den = seqs[half:order], seqs[half + 1 :]
    valid = (num > floor) & (den > floor)
    cols = np.arange(seqs.shape[1])
    k = valid.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.sort(np.where(valid, num / den, np.inf), axis=0)
        mid, low = q[k // 2, cols], q[np.maximum(k - 1, 0) // 2, cols]
        # np.median's operations: the middle entry, or the mean of the two
        ratio = np.where(k % 2 == 1, mid, (low + mid) / 2.0)
        tail = seqs[half:]
        nz = tail > floor
        roots = tail ** (1.0 / np.arange(half, order + 1))[:, None]
        root = 1.0 / np.max(np.where(nz, roots, -np.inf), axis=0)
    return np.where(k > 0, ratio, np.nan), np.where(np.any(nz, axis=0), root, np.nan)


def estimate_radius(jets: TrajectoryJets) -> RadiusEstimate:
    """Ratio- and root-test radius estimates from the top half of the orders."""
    order = jets.order
    if order < 4:
        raise ConfigError("radius estimation needs order >= 4")
    n_pts, d = jets.n_particles, jets.x_coeffs.shape[2]
    half = order // 2
    norms = np.linalg.norm(jets.x_coeffs, axis=2)  # (order+1, N)
    comp_ratio, comp_root = _tail_estimates(
        np.abs(jets.x_coeffs).reshape(order + 1, -1), half
    )
    comp_ratio = comp_ratio.reshape(n_pts, d)
    comp_root = comp_root.reshape(n_pts, d)
    norm_ratio, norm_root = _tail_estimates(norms, half)
    # a particle whose components all oscillate through zeros falls back on
    # the vector norm (and on its root estimate when no component has one)
    has_ratio = ~np.all(np.isnan(comp_ratio), axis=1)
    has_root = ~np.all(np.isnan(comp_root), axis=1)
    ratio_pp = np.where(
        has_ratio, np.min(_or_inf(comp_ratio), axis=1), _or_inf(norm_ratio)
    )
    root_pp = np.where(
        has_ratio | has_root, np.min(_or_inf(comp_root), axis=1), _or_inf(norm_root)
    )
    # no ratio pair clears the noise floor when the coefficients span more
    # than 14 decades; the root estimate still reads such a tail
    ratio_pp = np.where(np.isinf(ratio_pp), root_pp, ratio_pp)
    # growth diagnostic on the smooth vector-norm ratio sequences
    growing_flags = np.zeros(0, dtype=bool)
    if order > 10:
        live = norms[:, np.all(norms[half + 1 :] > _TINY, axis=0)]
        nr = live[half:-1] / live[half + 1 :]
        growing_flags = np.all(np.diff(nr, axis=0) > 0, axis=0)

    return RadiusEstimate(
        per_particle_ratio=ratio_pp,
        per_particle_root=root_pp,
        aggregate_ratio=float(np.min(ratio_pp)),
        aggregate_root=float(np.min(root_pp)),
        growing=bool(growing_flags.size and growing_flags.all()),
    )


def fit_cauchy(jets: TrajectoryJets) -> tuple[float, float, bool]:
    """Fit the envelope |c_n| <= C (1/R)^n over all particles and components.

    The slope comes from least squares on the per-order coefficient maxima;
    C is then lifted so the envelope dominates every order, and `satisfied`
    reports whether it does (not on non-finite data).  With fewer than two
    nonzero orders n >= 1 there is no slope: R = inf and C = 0, an envelope
    that is 0 at every n >= 1, satisfied only if all of them are 0.
    """
    if jets.order < 4:
        raise ConfigError("envelope fitting needs order >= 4")
    mags = np.abs(jets.x_coeffs).reshape(jets.x_coeffs.shape[0], -1)
    per_order_max = mags.max(axis=1)  # includes n = 0
    ns = np.arange(1, jets.order + 1)
    data = per_order_max[1:]
    pos = data > 0
    if np.count_nonzero(pos) < 2:
        return 0.0, math.inf, bool(np.all(data == 0.0))
    slope, intercept = np.polyfit(ns[pos], np.log(data[pos]), 1)
    R = float(np.exp(-slope))
    C = float(np.max(data[pos] * R ** ns[pos]))
    C = max(C, float(np.exp(intercept)))
    envelope = C * (1.0 / R) ** ns
    satisfied = bool(
        np.all(np.isfinite(data)) and np.all(data <= envelope * (1.0 + 1e-9))
    )
    return C, R, satisfied


def taylor_step(
    spec: ModelSpec,
    state: ParticleState,
    order: int,
    safety: float,
    h_cap: float,
    threads: int = 1,
    jets: Optional[TrajectoryJets] = None,
) -> tuple[ParticleState, dict]:
    """One adaptive Taylor step: expand, estimate the radius, advance.

    The step is safety * min(radius estimate, cap); the expansion is redone
    from scratch at the new time on the next call (analyticity is local).
    A step at or below 2^-52 safety * cap, which would stall the run, raises
    ``NumericalFailureError``.
    ``jets`` is that expansion at ``state`` (gradient jets included when
    ``spec.evolve_gradients``) when the caller already has it.
    """
    if not 0.0 < safety < 1.0:
        raise ConfigError("safety must lie in (0, 1)")
    ensure_taylor_model(spec)
    if jets is None:
        jets = time_jets_fast(
            spec, state, order, with_gradients=spec.evolve_gradients, threads=threads
        )
    est = estimate_radius(jets)
    radius = est.aggregate_ratio
    h = safety * min(radius, h_cap)
    if not (np.isfinite(h) and h > np.finfo(float).eps * safety * h_cap):
        raise NumericalFailureError("taylor step size degenerate")
    new_positions = jets.positions_at(h)
    if not np.all(np.isfinite(new_positions)):
        raise NumericalFailureError("non-finite positions after Taylor step")
    kw = {"positions": new_positions, "t": state.t + h}
    if jets.g_coeffs is not None:
        kw["grads"] = jets.grads_at(h)
    report = {
        "h": float(h),
        "radius_estimate": float(radius),
        "order": order,
        "truncation_indicator": float(
            np.max(np.abs(jets.x_coeffs[-1])) * h**order
        ),
        "growing_estimates": est.growing,
    }
    return state.replace(**kw), report


# -- Holder statistics and the explicit radius bound --------------------------


@dataclass
class HolderStats:
    gamma: float
    lam: float
    theta_seminorm: float
    theta_l1: float
    grad_theta_seminorm: float
    grad_theta_l1: float
    grad_theta_linf: float
    theta_linf: float = 0.0
    map_norm: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")
        if not 1.0 < self.lam <= 1.5:
            raise ConfigError("lambda must lie in (1, 3/2]")


def holder_stats(
    state: ParticleState,
    gamma: float,
    lam: float = 1.5,
    sample_pairs: int = 4096,
    seed: int = 0,
) -> HolderStats:
    """Discrete Holder/Lebesgue statistics of the label data.

    Seminorms maximize difference quotients over each label's four nearest
    neighbours plus a seeded random pair sample; they are lower-bound
    estimators of the continuum seminorms.
    """
    if state.theta0 is None or state.grad_theta0 is None:
        raise ConfigError("holder statistics need theta0 and grad_theta0")
    labels = state.labels
    pairs, dist = chord_arc_sample(
        labels, nearest_neighbor_pairs(labels, min(4, state.n - 1)), sample_pairs, seed
    )
    dgam = dist**gamma

    dtheta = np.abs(state.theta0[pairs[:, 0]] - state.theta0[pairs[:, 1]])
    theta_semi = float(np.max(dtheta / dgam))
    dgrad = np.linalg.norm(
        state.grad_theta0[pairs[:, 0]] - state.grad_theta0[pairs[:, 1]], axis=-1
    )
    grad_semi = float(np.max(dgrad / dgam))

    grad_mag = np.linalg.norm(state.grad_theta0, axis=-1)
    displacement = float(np.max(np.linalg.norm(state.positions - labels, axis=-1)))
    if state.grads is not None:
        gnorm = float(np.max(operator_norms(state.grads)))
        dg = operator_norms(
            state.grads[pairs[:, 0]] - state.grads[pairs[:, 1]]
        )
        g_semi = float(np.max(dg / dgam))
    else:
        gnorm, g_semi = 1.0, 0.0

    return HolderStats(
        gamma=gamma,
        lam=lam,
        theta_seminorm=theta_semi,
        theta_l1=float(np.sum(state.weights * np.abs(state.theta0))),
        grad_theta_seminorm=grad_semi,
        grad_theta_l1=float(np.sum(state.weights * grad_mag)),
        grad_theta_linf=float(np.max(grad_mag)),
        theta_linf=float(np.max(np.abs(state.theta0))),
        map_norm=displacement + gnorm + g_semi,
    )


def paper_radius_bound(stats: HolderStats, c_k: float = 32.0):
    """Rigorous radius of analyticity from the explicit constants only.

    C1 = 27 * lambda * C_K; C0 is the max of every constraint whose
    prefactor is pinned down explicitly.  Constraint families that only fix
    C0 up to an unspecified constant are listed as not enforced rather than
    guessed, so the result stays a true (if loose) bound for the enforced
    set.  The analyticity radius of the Cauchy envelope
    n! (1/2 choose n) C0^n C1^(n-1) is R = 1 / (C0 * C1).
    """
    g, lam = stats.gamma, stats.lam
    c1 = 27.0 * lam * c_k
    constraints = [
        ("map_norm", stats.map_norm, True),
        (
            "scalar_data",
            2.0 * (8.0 * lam**2 * (1.0 / g + lam) * stats.theta_seminorm
                   + stats.theta_l1),
            True,
        ),
        (
            "gradient_data",
            8.0
            * (8.0 * (1.0 / g + lam) * lam**2 * stats.grad_theta_seminorm
               + stats.grad_theta_l1)
            / c1**2,
            True,
        ),
        (
            "singular_nearfield",
            160.0 * math.pi / g / c_k**2 * stats.grad_theta_seminorm,
            True,
        ),
        (
            "singular_farfield",
            16.0 * 288.0 * math.pi / (1.0 - g) * 4.0 ** (g - 1.0)
            * stats.grad_theta_seminorm,
            True,
        ),
        (
            "outer_nearfield",
            8.0 * (16.0 * math.pi) ** (g / 2.0)
            * (stats.grad_theta_l1 + stats.grad_theta_linf),
            True,
        ),
        ("dual_norm_tail", float("nan"),
         False),  # constant left implicit in the source estimate
        ("boundary_flux", float("nan"),
         False),  # 'sufficiently large', no displayed value
    ]
    c0 = max(value for _, value, enforced in constraints if enforced)
    r_paper = 1.0 / (c0 * c1)
    provenance = [
        {
            "constraint": name,
            "value": None if not enforced else value,
            "enforced": enforced,
            "note": None if enforced else "not enforced -- paper constant implicit",
        }
        for name, value, enforced in constraints
    ]
    return c1, c0, r_paper, provenance
