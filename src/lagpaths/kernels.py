"""Closed symbolic algebra for the singular convolution kernels.

Every kernel used by the particle dynamics (and every spatial derivative of
it, to any order) is a finite sum of terms of the form

    coeff * pi**pi_pow * y**mono * |y|**(-rpow) * exp(-grate*|y|**2)

with exact rational ``coeff`` and ``grate``.  The class of such sums is
closed under partial differentiation, so arbitrary-order derivatives needed
by the bound verification and by the Faa di Bruno oracle are exact term
rewrites, never finite differences.  A kernel holds its coefficients as
integers over one denominator, so a rewrite is integer arithmetic.  Pi is
carried symbolically; floats only appear in ``KernelTerm.coeff_float`` and
``evaluate``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import SingularEvaluationError

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class KernelTerm:
    coeff: Fraction
    pi_pow: int
    mono: MultiIndex
    rpow: int
    grate: Fraction

    def coeff_float(self) -> float:
        return float(self.coeff) * math.pi**self.pi_pow


# A kernel stores each term as a row (mono, rpow, grate index, pi_pow, num):
# its sort key, with the Gaussian rate given by its index in the kernel's
# ascending rates, then its integer coefficient over the kernel's
# denominator.
Row = tuple[MultiIndex, int, int, int, int]


def _canonical(
    dim: int, rows: Iterable[Row], den: int, grates: tuple[Fraction, ...]
) -> "ScalarKernel":
    """Normal form: last-axis monomial power < 2, then merge equal keys.

    Monomials are reduced modulo the relation y_d**2 = |y|**2 - sum_{i<d} y_i**2,
    which makes representations unique; without it, equal expressions such as
    the strain entries written with '|y|**2' absorbed or expanded would not
    compare equal term by term.  The rows come out sorted with nonzero
    numerators, only the rates they use are kept, and the denominator is
    reduced by the gcd of all numerators, so equal kernels have equal fields.
    """
    work = list(rows)
    merged: dict[tuple, int] = {}
    while work:
        mono, rpow, g, pi_pow, num = work.pop()
        if mono and mono[-1] >= 2:
            low = mono[:-1] + (mono[-1] - 2,)
            work.append((low, rpow - 2, g, pi_pow, num))
            for i in range(len(low) - 1):
                up = low[:i] + (low[i] + 2,) + low[i + 1:]
                work.append((up, rpow, g, pi_pow, -num))
        else:
            key = (mono, rpow, g, pi_pow)
            merged[key] = merged.get(key, 0) + num
    keys = sorted(k for k, num in merged.items() if num)
    used = sorted({k[2] for k in keys})
    if len(used) < len(grates):
        index = {g: i for i, g in enumerate(used)}
        grates = tuple(grates[g] for g in used)
        merged = {(m, r, index[g], p): merged[m, r, g, p] for m, r, g, p in keys}
        keys = list(merged)
    divisor = math.gcd(den, *(merged[k] for k in keys)) if keys else den
    out = tuple(k + (merged[k] // divisor,) for k in keys)
    return ScalarKernel(dim, out, den // divisor, grates)


@dataclass(frozen=True)
class ScalarKernel:
    """One scalar component: a canonical sum of terms over R^dim.

    The terms are kept as integer ``rows`` over the common denominator
    ``den``, with Gaussian rates from ``grates`` (see ``Row``), so that
    derivatives and sums are integer arithmetic; ``terms`` gives them as
    exact ``KernelTerm``s.
    """

    dim: int
    rows: tuple[Row, ...]
    den: int = 1
    grates: tuple[Fraction, ...] = ()
    # derive_multi's results by multi-index; not part of the value
    _derived: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def build(dim: int, terms: Iterable[KernelTerm]) -> "ScalarKernel":
        terms = list(terms)
        grates = tuple(sorted({Fraction(t.grate) for t in terms}))
        index = {q: g for g, q in enumerate(grates)}
        den = math.lcm(*(t.coeff.denominator for t in terms))
        rows = [
            (
                t.mono,
                t.rpow,
                index[t.grate],
                t.pi_pow,
                t.coeff.numerator * (den // t.coeff.denominator),
            )
            for t in terms
        ]
        return _canonical(dim, rows, den, grates)

    @staticmethod
    def zero(dim: int) -> "ScalarKernel":
        return ScalarKernel(dim, ())

    @cached_property
    def terms(self) -> tuple[KernelTerm, ...]:
        """The terms in canonical order, with exact coefficients."""
        return tuple(
            KernelTerm(Fraction(num, self.den), pi_pow, mono, rpow, self.grates[g])
            for mono, rpow, g, pi_pow, num in self.rows
        )

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def parity(self) -> Optional[int]:
        """s in K(-y) = s K(y): 1 when every term's monomial degree is even,
        -1 when every one is odd, None for a mix."""
        signs = {(-1) ** sum(row[0]) for row in self.rows} or {1}
        return signs.pop() if len(signs) == 1 else None

    def _rebased(self, den: int, grates: tuple[Fraction, ...]) -> list[Row]:
        """The rows over a multiple ``den`` of the denominator and a
        superset ``grates`` of the rates."""
        scale = den // self.den
        index = [grates.index(q) for q in self.grates]
        return [(m, r, index[g], p, num * scale) for m, r, g, p, num in self.rows]

    def __add__(self, other: "ScalarKernel") -> "ScalarKernel":
        den = math.lcm(self.den, other.den)
        grates = tuple(sorted(set(self.grates) | set(other.grates)))
        rows = self._rebased(den, grates) + other._rebased(den, grates)
        return _canonical(self.dim, rows, den, grates)

    def __neg__(self) -> "ScalarKernel":
        rows = tuple((m, r, g, p, -num) for m, r, g, p, num in self.rows)
        return ScalarKernel(self.dim, rows, self.den, self.grates)

    def __sub__(self, other: "ScalarKernel") -> "ScalarKernel":
        return self + (-other)

    def derive(self, axis: int) -> "ScalarKernel":
        """Exact partial derivative along axis (0-based).

        The new denominator is the old one times the lcm of the rates'
        denominators, so each rate's factor -2q is an integer over it.
        """
        scale = math.lcm(*(q.denominator for q in self.grates))
        gauss = [-2 * q.numerator * (scale // q.denominator) for q in self.grates]
        new: list[Row] = []
        for mono, rpow, g, pi_pow, num in self.rows:
            power = mono[axis]
            up = mono[:axis] + (power + 1,) + mono[axis + 1:]
            # monomial power rule
            if power:
                down = mono[:axis] + (power - 1,) + mono[axis + 1:]
                new.append((down, rpow, g, pi_pow, num * power * scale))
            # |y|**(-p) -> -p * y_axis * |y|**(-p-2)
            if rpow:
                new.append((up, rpow + 2, g, pi_pow, -num * rpow * scale))
            # exp(-q|y|**2) -> -2q * y_axis * exp(-q|y|**2)
            if gauss[g]:
                new.append((up, rpow, g, pi_pow, num * gauss[g]))
        return _canonical(self.dim, new, self.den * scale, self.grates)

    def derive_multi(self, alpha: MultiIndex) -> "ScalarKernel":
        """d^alpha of the kernel, one ``derive`` step from alpha minus its
        last nonzero axis; every result is kept for the kernel's lifetime."""
        alpha = tuple(alpha)
        axes = [axis for axis, count in enumerate(alpha) if count]
        if not axes:
            return self
        out = self._derived.get(alpha)
        if out is None:
            last = axes[-1]
            lower = alpha[:last] + (alpha[last] - 1,) + alpha[last + 1:]
            out = self._derived[alpha] = self.derive_multi(lower).derive(last)
        return out

    def times_gaussian(self, rate: Fraction) -> "ScalarKernel":
        grates = tuple(q + rate for q in self.grates)
        return ScalarKernel(self.dim, self.rows, self.den, grates)

    def evaluate(self, y) -> np.ndarray:
        """Evaluate at y != 0; y is a ``SampleSet`` or an array of shape
        (..., dim).

        The terms accumulate in the fixed canonical term order.
        """
        s = y if isinstance(y, SampleSet) else SampleSet(y)
        if s.dim != self.dim:
            raise ValueError(f"expected last axis {self.dim}, got {s.y.shape}")
        rates = [float(q) for q in self.grates]
        total = np.zeros(s.r2.shape)
        for mono, rpow, g, pi_pow, num in self.rows:
            # the float of KernelTerm.coeff_float: num / den is correctly rounded
            v = num / self.den * math.pi**pi_pow
            for i, e in enumerate(mono):
                if e:
                    v = v * s.power(i, e)
            if rpow:
                v = v * s.radial(rpow)
            if rates[g]:
                v = v * s.gaussian(rates[g])
            total += v
        return total


class SampleSet:
    """Points y of shape (..., dim), none at 0, with the factors kernel
    terms draw on: the powers y_i**e, the radial factors |y|**-p and the
    Gaussians exp(-q |y|**2).  Each factor is formed once, on first use, and
    kept, so every kernel and derivative evaluated on one set shares them.
    """

    def __init__(self, y):
        self.y = np.asarray(y, dtype=float)
        self.dim = self.y.shape[-1]
        self.r2 = np.sum(self.y * self.y, axis=-1)
        if np.any(self.r2 == 0.0):
            raise SingularEvaluationError("kernel evaluated at y = 0")
        self._factors: dict[tuple, np.ndarray] = {}

    def _factor(self, key: tuple, make) -> np.ndarray:
        out = self._factors.get(key)
        if out is None:
            out = self._factors[key] = make()
        return out

    def power(self, axis: int, e: int) -> np.ndarray:
        return self._factor(("y", axis, e), lambda: self.y[..., axis] ** e)

    def radial(self, p: int) -> np.ndarray:
        r = self._factor(("r",), lambda: np.sqrt(self.r2))
        return self._factor(("r", p), lambda: r ** (-float(p)))

    def gaussian(self, rate: float) -> np.ndarray:
        return self._factor(("g", rate), lambda: np.exp(-rate * self.r2))


@dataclass(frozen=True)
class KernelExpr:
    """A scalar-, vector-, or matrix-shaped bundle of ScalarKernels."""

    dim: int
    shape: tuple[int, ...]
    comps: tuple[ScalarKernel, ...]

    @staticmethod
    def scalar(comp: ScalarKernel) -> "KernelExpr":
        return KernelExpr(comp.dim, (), (comp,))

    @staticmethod
    def vector(comps: list[ScalarKernel]) -> "KernelExpr":
        return KernelExpr(comps[0].dim, (len(comps),), tuple(comps))

    @staticmethod
    def matrix(rows: list[list[ScalarKernel]]) -> "KernelExpr":
        comps = tuple(itertools.chain.from_iterable(rows))
        return KernelExpr(rows[0][0].dim, (len(rows), len(rows[0])), comps)

    @staticmethod
    def from_array(dim: int, arr: np.ndarray) -> "KernelExpr":
        return KernelExpr(dim, arr.shape, tuple(arr.reshape(-1)))

    def component(self, *idx: int) -> ScalarKernel:
        flat = 0
        for i, n in zip(idx, self.shape):
            flat = flat * n + i
        return self.comps[flat]

    def derive(self, axis: int) -> "KernelExpr":
        return KernelExpr(
            self.dim, self.shape, tuple(c.derive(axis) for c in self.comps)
        )

    def derive_multi(self, alpha: MultiIndex) -> "KernelExpr":
        return KernelExpr(
            self.dim, self.shape, tuple(c.derive_multi(alpha) for c in self.comps)
        )

    def __add__(self, other: "KernelExpr") -> "KernelExpr":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return KernelExpr(
            self.dim,
            self.shape,
            tuple(a + b for a, b in zip(self.comps, other.comps)),
        )

    def __sub__(self, other: "KernelExpr") -> "KernelExpr":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return KernelExpr(
            self.dim,
            self.shape,
            tuple(a - b for a, b in zip(self.comps, other.comps)),
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def times_gaussian(self, rate: Fraction) -> "KernelExpr":
        return KernelExpr(
            self.dim, self.shape, tuple(c.times_gaussian(rate) for c in self.comps)
        )

    def evaluate(self, y):
        """Evaluate all components on one ``SampleSet`` (or an array of
        shape (*batch, dim)); returns shape (*batch, *self.shape)."""
        s = y if isinstance(y, SampleSet) else SampleSet(y)
        vals = [c.evaluate(s) for c in self.comps]
        if not self.shape:
            return vals[0]
        return np.stack(vals, axis=-1).reshape(s.r2.shape + self.shape)


class KernelCatalogEntry(NamedTuple):
    velocity_kernel: KernelExpr
    gradient_kernel: KernelExpr


def _t(coeff, pi_pow, mono, rpow, grate=Fraction(0)) -> KernelTerm:
    return KernelTerm(Fraction(coeff), pi_pow, tuple(mono), rpow, Fraction(grate))


def _sq(dim, *terms) -> ScalarKernel:
    return ScalarKernel.build(dim, terms)


def sqg_velocity_kernel() -> KernelExpr:
    """Perp Riesz kernel y_perp / (2 pi |y|^3)."""
    return KernelExpr.vector(
        [
            _sq(2, _t(Fraction(-1, 2), -1, (0, 1), 3)),
            _sq(2, _t(Fraction(1, 2), -1, (1, 0), 3)),
        ]
    )


def biot_savart_2d_kernel() -> KernelExpr:
    """2D Biot-Savart kernel y_perp / (2 pi |y|^2)."""
    return KernelExpr.vector(
        [
            _sq(2, _t(Fraction(-1, 2), -1, (0, 1), 2)),
            _sq(2, _t(Fraction(1, 2), -1, (1, 0), 2)),
        ]
    )


def strain_2d_kernel() -> KernelExpr:
    """Symmetric traceless 2x2 strain kernel of the 2D Biot-Savart law.

    Entries [[2 y1 y2, y2^2 - y1^2], [y2^2 - y1^2, -2 y1 y2]] / (2 pi |y|^4);
    identical to the full gradient of the Biot-Savart kernel away from 0.
    """
    half = Fraction(1, 2)
    e11 = _sq(2, _t(2 * half, -1, (1, 1), 4))
    e12 = _sq(2, _t(half, -1, (0, 2), 4), _t(-half, -1, (2, 0), 4))
    e22 = _sq(2, _t(-2 * half, -1, (1, 1), 4))
    return KernelExpr.matrix([[e11, e12], [e12, e22]])


def biot_savart_3d_kernel() -> KernelExpr:
    """Radial factor y / (4 pi |y|^3) of the 3D Biot-Savart law.

    The velocity is the cross product of the vorticity vector with this
    kernel: u(x) = sum w * omega x K(x - y).
    """
    q = Fraction(1, 4)
    return KernelExpr.vector(
        [
            _sq(3, _t(q, -1, (1, 0, 0), 3)),
            _sq(3, _t(q, -1, (0, 1, 0), 3)),
            _sq(3, _t(q, -1, (0, 0, 1), 3)),
        ]
    )


def strain_3d_kernel() -> KernelExpr:
    """Rank-3 strain kernel: component [i, j, m] multiplies vorticity omega_m.

    S_ij(x) = (3 / 8 pi) * ((x cross omega)_i x_j + (x cross omega)_j x_i) / |x|^5,
    expanded over the basis vectors e_m.
    """
    c = Fraction(3, 8)
    # (x cross e_m)_i as monomial coefficients: cross[m][i] = (sign, mono axis)
    cross = {
        (0, 1): (1, 2),  # (x X e_1)_2 = +x3
        (0, 2): (-1, 1),  # (x X e_1)_3 = -x2
        (1, 0): (-1, 2),
        (1, 2): (1, 0),
        (2, 0): (1, 1),
        (2, 1): (-1, 0),
    }
    comps = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for m in range(3):
                terms = []
                if (m, i) in cross:
                    sgn, axis = cross[(m, i)]
                    mono = [0, 0, 0]
                    mono[axis] += 1
                    mono[j] += 1
                    terms.append(_t(sgn * c, -1, mono, 5))
                if (m, j) in cross:
                    sgn, axis = cross[(m, j)]
                    mono = [0, 0, 0]
                    mono[axis] += 1
                    mono[i] += 1
                    terms.append(_t(sgn * c, -1, mono, 5))
                comps[i, j, m] = ScalarKernel.build(3, terms)
    return KernelExpr.from_array(3, comps)


# velocity and gradient kernel builders of each catalog kernel, by name; the
# perp-Riesz gradient kernel is the velocity kernel, applied to grad theta0
_CATALOG = {
    "perp_riesz": (sqg_velocity_kernel, sqg_velocity_kernel),
    "biot_savart_2d": (biot_savart_2d_kernel, strain_2d_kernel),
    "biot_savart_3d": (biot_savart_3d_kernel, strain_3d_kernel),
}


@lru_cache(maxsize=None)
def catalog(name: str) -> KernelCatalogEntry:
    """Velocity and gradient kernels of one catalog kernel, in exact form."""
    if name not in _CATALOG:
        raise ValueError(f"unknown kernel {name!r}; expected one of {tuple(_CATALOG)}")
    velocity, gradient = _CATALOG[name]
    return KernelCatalogEntry(velocity(), gradient())


def split_gaussian(expr: KernelExpr) -> tuple[KernelExpr, KernelExpr]:
    """Split into expr * exp(-|y|^2) and expr * (1 - exp(-|y|^2)).

    The outer part is represented as the two term groups, so inner + outer
    reproduces expr identically after canonical cancellation.
    """
    if any(q for c in expr.comps for q in c.grates):
        raise ValueError("split_gaussian expects a Gaussian-free expression")
    inner = expr.times_gaussian(Fraction(1))
    outer = expr - inner
    return inner, outer


def decompose_kin() -> tuple[KernelExpr, KernelExpr]:
    """Stream-function split of the Gaussian-localized perp-Riesz kernel.

    Returns (k1, k2) with k1 = -exp(-|y|^2) / (2 pi |y|) scalar and
    k2 = -y_perp exp(-|y|^2) / (pi |y|), so that the rotated gradient
    (-d/dy2, d/dy1) of k1 plus k2 equals the localized kernel exactly in the
    term algebra.
    """
    k1 = KernelExpr.scalar(_sq(2, _t(Fraction(-1, 2), -1, (0, 0), 1, 1)))
    k2 = KernelExpr.vector(
        [
            _sq(2, _t(1, -1, (0, 1), 1, 1)),
            _sq(2, _t(-1, -1, (1, 0), 1, 1)),
        ]
    )
    return k1, k2


def regularize(expr: KernelExpr, delta: float) -> KernelExpr:
    """Multiply by the analytic cutoff (1 - exp(-|y|^2 / delta^2))."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    rate = Fraction(1) / (Fraction(delta) * Fraction(delta))
    return expr - expr.times_gaussian(rate)


def bound_samples(
    n: int, dim: int, seed: int, rmin: float = 1e-3, rmax: float = 10.0
) -> np.ndarray:
    """Log-uniform radii in [rmin, rmax] with uniformly random directions."""
    rng = np.random.default_rng(seed)
    radii = np.exp(rng.uniform(np.log(rmin), np.log(rmax), size=n))
    vecs = rng.normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs * radii[:, None]


def verify_derivative_bound(
    expr: KernelExpr,
    c_k: float,
    power_offset: int,
    max_order: int,
    samples: np.ndarray,
    gaussian_decay: bool = True,
) -> dict:
    """Worst-case ratio of |d^alpha expr| to the claimed derivative envelope.

    For every multi-index |alpha| <= max_order the exact derivative is
    evaluated on the samples and compared against

        c_k**|alpha| * |alpha|! * |y|**(-(|alpha| + power_offset))

    times exp(-|y|^2/2) when gaussian_decay is set.  Reports the worst ratio
    per order; the envelope holds on the sample set iff every ratio <= 1.
    """
    pts = SampleSet(samples)  # every derivative shares its factors
    r = np.linalg.norm(pts.y, axis=-1)
    decay = np.exp(-(r**2) / 2.0) if gaussian_decay else 1.0
    worst: dict[int, float] = {}
    for order in range(max_order + 1):
        envelope = c_k**order * math.factorial(order) * r ** (-(order + power_offset))
        envelope = envelope * decay  # times 1.0 is exact
        ratios = []
        for alpha in itertools.product(range(order + 1), repeat=expr.dim):
            if sum(alpha) != order:
                continue
            vals = expr.derive_multi(alpha).evaluate(pts)
            mag = np.abs(vals).reshape(len(r), -1).max(axis=1)
            ratios.append(np.max(mag / envelope))
        # np.max keeps a NaN that the builtin max would skip
        worst[order] = float(np.max(ratios))
    worst_ratio = float(np.max(list(worst.values())))
    return {
        "c_k": c_k,
        "power_offset": power_offset,
        "gaussian_decay": gaussian_decay,
        "worst_ratio_per_order": worst,
        "worst_ratio": worst_ratio,
        "passed": bool(np.isfinite(worst_ratio) and worst_ratio <= 1.0),
    }


def circle_mean(expr: KernelExpr, radius: float, quad_points: int):
    """Mean of expr over the circle (2D) or sphere (3D) of given radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if quad_points < 8:
        raise ValueError("need at least 8 quadrature points")
    if expr.dim == 2:
        theta = 2.0 * np.pi * np.arange(quad_points) / quad_points
        pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        vals = expr.evaluate(pts)
        return np.mean(vals, axis=0)
    # 3D: Gauss-Legendre in cos(polar angle) x uniform azimuth, which is
    # exact for the polynomial-over-radial integrands of the catalog
    n_pol, n_az = quad_points, 2 * quad_points
    mu, wts = np.polynomial.legendre.leggauss(n_pol)
    phi = 2.0 * np.pi * np.arange(n_az) / n_az
    mm, pp = np.meshgrid(mu, phi, indexing="ij")
    sin_t = np.sqrt(1.0 - mm**2)
    pts = radius * np.stack(
        [sin_t * np.cos(pp), sin_t * np.sin(pp), mm], axis=-1
    )
    w = np.broadcast_to(wts[:, None], mm.shape)
    vals = expr.evaluate(pts.reshape(-1, 3)).reshape(mm.shape + expr.shape)
    wb = w.reshape(w.shape + (1,) * len(expr.shape))
    return (vals * wb).sum(axis=(0, 1)) / w.sum()
