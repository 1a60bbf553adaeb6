"""Truncated univariate Taylor-series (jet) arithmetic in the time variable.

A jet stores normalized coefficients: ``coeffs[n]`` is the n-th derivative
divided by n!.  Normalization keeps the entries geometrically bounded where
raw derivatives grow factorially, which is what lets double precision reach
order ~20.  Power and exponential are computed by the standard O(N^2)
recurrences rather than repeated symbolic differentiation.  Each recurrence
is written once, as the step that forms coefficient n from the ones below
it (``mul_step``, ``pow_step``, ``exp_step``): the full-jet functions loop
over it, and ``KernelStream`` takes one step per new coefficient.

Coefficient arrays carry the order on axis 0; trailing axes (vector
components, particle-pair batches) broadcast through every operation, so the
same kernels serve both the scalar public API and the batched fast
propagator in ``taylor``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularEvaluationError
from .kernels import KernelExpr, ScalarKernel


def mul_step(a, b, n: int) -> np.ndarray:
    """Coefficient n of the Cauchy product of the coefficient sequences a, b."""
    out = a[0] * b[n] + 0.0  # a sum from +0, so a zero sum is +0
    for k in range(1, n + 1):
        out += a[k] * b[n - k]
    return out


def pow_step(u, p, exponent: float, n: int) -> np.ndarray:
    """Coefficient n of u**exponent from p, the coefficients below n."""
    if n == 0:
        if np.any(u[0] <= 0.0):
            raise SingularEvaluationError("jet power needs a positive leading term")
        return u[0] ** exponent
    acc = np.zeros_like(u[0])
    for k in range(1, n + 1):
        acc += ((exponent + 1.0) * k - n) * u[k] * p[n - k]
    return acc / (n * u[0])


def exp_step(u, e, n: int, rate: float = 1.0) -> np.ndarray:
    """Coefficient n of exp(rate u) from e, the coefficients below n."""
    if n == 0:
        return np.exp(rate * u[0])
    acc = np.zeros_like(u[0])
    for k in range(1, n + 1):
        acc += rate * k * u[k] * e[n - k]
    return acc / n


def mul_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated at the common order; trailing axes broadcast."""
    if a.shape[0] != b.shape[0]:
        raise ValueError("jet order mismatch")
    out = np.empty((a.shape[0],) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for n in range(a.shape[0]):
        out[n] = mul_step(a, b, n)
    return out


def pow_coeffs(u: np.ndarray, exponent: float) -> np.ndarray:
    """Coefficients of u**exponent; requires positive leading coefficient."""
    out = np.zeros_like(u)
    for n in range(u.shape[0]):
        out[n] = pow_step(u, out, exponent, n)
    return out


def exp_coeffs(u: np.ndarray, rate: float = 1.0) -> np.ndarray:
    """Coefficients of exp(rate u)."""
    out = np.zeros_like(u)
    for n in range(u.shape[0]):
        out[n] = exp_step(u, out, n, rate)
    return out


@dataclass(frozen=True)
class Jet:
    """Normalized truncated Taylor series with scalar or vector coefficients."""

    coeffs: np.ndarray  # (order+1, *shape)

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[1:]

    def evaluate(self, h: float) -> np.ndarray:
        """Horner evaluation of the polynomial at time offset h."""
        acc = np.array(self.coeffs[-1], copy=True)
        for n in range(self.order - 1, -1, -1):
            acc = acc * h + self.coeffs[n]
        return acc


class KernelStream:
    """Scalar kernels on a displacement jet, one time coefficient per push.

    This is Taylor-mode propagation: coefficient n of every kept series
    comes from the coefficients below n, so a push costs O(n) where
    rebuilding the jets costs O(n^2).  A component is a sum over its
    monomials Y of c Y * R: the Cauchy product of Y with its radial series
    R = sum r |y|^-p exp(-q |y|^2), whose first r is 1, times c.  A
    regularized kernel's series is B_p = P_p - P_p * G, with P_p = |y|^-p
    and G its Gaussian.  The steps are those of ``mul_coeffs``,
    ``pow_coeffs`` and ``exp_coeffs`` in a fixed order, so coefficient n is
    bitwise what the same association of full jets gives.

    Components equal or opposite to an earlier one are evaluated once:
    ``unique`` holds the evaluated ones and ``slots`` maps each requested
    component to (unique index, sign).  ``kept`` holds the coefficients
    pushed so far of |y|^2, each power, each Gaussian, each other radial
    series (series that differ by a constant are one) and each monomial of
    degree 2 or more: ``histories`` lists of arrays of the batch shape.  A
    Gaussian that is 0.0 on every pair at coefficient 0 is 0.0 at every
    order, so its later coefficients are that array, not computed.
    """

    def __init__(self, comps: tuple[ScalarKernel, ...]):
        self.unique: list[ScalarKernel] = []
        slots = []
        for comp in comps:
            for sign, probe in ((1.0, comp), (-1.0, -comp)):
                if probe in self.unique:
                    slots.append((self.unique.index(probe), sign))
                    break
            else:
                slots.append((len(self.unique), 1.0))
                self.unique.append(comp)
        self.slots = tuple(slots)
        # per component, its terms (c, factors, key): c times the Cauchy
        # product of y over the factor axes with the series kept at key, a
        # series being its terms (r, p, q) in the kernel's canonical order
        self._reads, used = [], []
        for comp in self.unique:
            groups: dict[tuple, list] = {}
            for t in comp.terms:
                groups.setdefault((t.mono, t.pi_pow), []).append(t)
            reads = []
            for (mono, _), ts in groups.items():
                s = tuple(
                    (float(t.coeff / ts[0].coeff), t.rpow, float(t.grate)) for t in ts
                )
                f = tuple(i for i, e in enumerate(mono) for _ in range(e))
                (_, p, q), key = s[0], ("r", s)
                if len(s) == 1 and bool(p) != bool(q):
                    key = ("p", p) if p else ("g", q)  # a power or Gaussian itself
                reads.append((ts[0].coeff_float(), f, key))
                used += [("p", p) for _, p, _ in s if p]
                used += [("g", q) for _, _, q in s if q]
                used += [key] + [("y", f[:k]) for k in range(2, len(f) + 1)]
            self._reads.append(reads)
        # in push order: the powers and Gaussians, then what reads them
        used.sort(key=lambda key: key[0] not in "pg")
        self.kept = {("nsq", None): []} | {key: [] for key in used}
        self.histories = len(self.kept)
        self.n = 0

    def _radial(self, s, n: int) -> np.ndarray:
        """Coefficient n of the radial series s, its terms summed from +0."""
        kept, acc = self.kept, 0.0
        for r, p, q in s:
            if p and q:
                v = mul_step(kept["p", p], kept["g", q], n)
            elif p or q:
                v = kept[("p", p) if p else ("g", q)][n]
            else:
                v = np.full(kept["nsq", None][0].shape, float(n == 0))
            # r v is exact for r = 1 and r = -1
            acc = acc + v if r == 1.0 else acc - v if r == -1.0 else acc + r * v
        return acc

    def push(self, y: np.ndarray, out=None) -> np.ndarray:
        """Coefficient n of every unique component, n the coefficients pushed.

        y holds displacement coefficients 0..n (or more) on axis 0 and the
        components on axis 1; the result has the unique components on axis 0
        and y's batch axes after them.  It is written into ``out`` where
        given (zeroed first, so the bytes are those of a fresh result).
        """
        n, kept = self.n, self.kept
        ys = [y[:, i] for i in range(y.shape[1])]
        nsq = mul_step(ys[0], ys[0], n)
        for yi in ys[1:]:
            nsq = nsq + mul_step(yi, yi, n)
        if n == 0 and np.any(nsq == 0.0):
            raise SingularEvaluationError("zero displacement at jet order 0")
        kept["nsq", None].append(nsq)
        for (kind, v), hist in kept.items():
            if kind == "p":
                hist.append(pow_step(kept["nsq", None], hist, -v / 2.0, n))
            elif kind == "g" and n and not hist[0].any():
                hist.append(hist[0])  # 0.0 on every pair, so at every order
            elif kind == "g":
                # past -max, -q |y|^2 rounds to -inf, whose exp is the limit 0
                with np.errstate(over="ignore" if n == 0 else None):
                    hist.append(exp_step(kept["nsq", None], hist, n, -v))
            elif kind == "r":
                hist.append(self._radial(v, n))
            elif kind == "y":
                prev = ys[v[0]] if len(v) == 2 else kept["y", v[:-1]]
                hist.append(mul_step(prev, ys[v[-1]], n))
        if out is None:
            out = np.zeros((len(self.unique),) + nsq.shape)
        else:
            out[...] = 0.0
        for u, reads in enumerate(self._reads):
            for c, f, key in reads:
                if not f:
                    out[u] += c * kept[key][n]
                    continue
                mono = ys[f[0]] if len(f) == 1 else kept["y", f]
                out[u] += c * mul_step(mono, kept[key], n)
        self.n += 1
        return out

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Values of the unique components (axis 0) as the requested ones."""
        return np.stack(
            [values[i] if sign > 0 else 0.0 - values[i] for i, sign in self.slots]
        )


def kernel_on_jet(expr: KernelExpr, y: Jet) -> Jet:
    """Evaluate a kernel expression on a displacement jet.

    ``y`` has components on axis 1 (and optional batch axes after that); the
    result carries the expression's shape in place of the component axis.
    Radial powers go through the squared norm, |y|**(-p) = (|y|^2)**(-p/2),
    so only the leading displacement must be nonzero.
    """
    if y.shape[0] != expr.dim:
        raise ValueError(f"kernel dimension {expr.dim} vs jet components {y.shape[0]}")
    stream = KernelStream(expr.comps)
    n1 = y.coeffs.shape[0]
    coeffs = np.stack([stream.expand(stream.push(y.coeffs)) for _ in range(n1)])
    if not expr.shape:
        return Jet(coeffs[:, 0])
    return Jet(coeffs.reshape((n1,) + expr.shape + coeffs.shape[2:]))
