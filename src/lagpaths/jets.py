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


def exp_step(u, e, n: int) -> np.ndarray:
    """Coefficient n of exp(u) from e, the coefficients below n."""
    if n == 0:
        return np.exp(u[0])
    acc = np.zeros_like(u[0])
    for k in range(1, n + 1):
        acc += k * u[k] * e[n - k]
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


def exp_coeffs(u: np.ndarray) -> np.ndarray:
    """Coefficients of exp(u)."""
    out = np.zeros_like(u)
    for n in range(u.shape[0]):
        out[n] = exp_step(u, out, n)
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

    def __add__(self, other: "Jet") -> "Jet":
        if self.order != other.order:
            raise ValueError("jet order mismatch")
        return Jet(self.coeffs + other.coeffs)

    def __sub__(self, other: "Jet") -> "Jet":
        if self.order != other.order:
            raise ValueError("jet order mismatch")
        return Jet(self.coeffs - other.coeffs)

    def __mul__(self, other: "Jet") -> "Jet":
        return Jet(mul_coeffs(self.coeffs, other.coeffs))

    def evaluate(self, h: float) -> np.ndarray:
        """Horner evaluation of the polynomial at time offset h."""
        acc = np.array(self.coeffs[-1], copy=True)
        for n in range(self.order - 1, -1, -1):
            acc = acc * h + self.coeffs[n]
        return acc


class KernelStream:
    """Scalar kernels on a displacement jet, one time coefficient per push.

    This is Taylor-mode propagation: coefficient n of |y|^2, of its powers
    and Gaussians, and of every product stage of every term comes from the
    coefficients below n, so a push costs O(n) where rebuilding the jets
    costs O(n^2).  The steps are those of ``mul_coeffs``, ``pow_coeffs`` and
    ``exp_coeffs`` in the same order, so coefficient n is bitwise what the
    full-jet evaluation gives.  Two shortcuts change no value: the zero
    coefficients of a term's constant are not multiplied in, and a term
    with a negative constant runs as the negation of its positive twin
    (rounding is symmetric in sign; every consumer is a sum from +0, which
    drops the sign of a zero), so the regularized twins K and -K e share
    their stages.

    Components equal or opposite to an earlier one are evaluated once:
    ``unique`` holds the evaluated ones and ``slots`` maps each requested
    component to (unique index, sign).  Kept per pushed coefficient are
    |y|^2, one power per radial exponent, one Gaussian per rate and every
    stage of two or more factors that a longer stage extends: ``histories``
    arrays of the batch shape.  y itself and one-factor stages are
    recomputed each push.
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
        # a term is (negated, stage key); a key is (|c|, factor, ...) with the
        # factors ("y", axis), ("p", rpow), ("g", grate) in multiplication order
        self._terms = []
        for comp in self.unique:
            terms = []
            for t in comp.terms:
                c = t.coeff_float()
                key = (abs(c),)
                key += tuple(("y", i) for i, e in enumerate(t.mono) for _ in range(e))
                key += (("p", t.rpow),) if t.rpow else ()
                key += (("g", t.grate),) if t.grate else ()
                terms.append((c < 0, key))
            self._terms.append(terms)
        keys = {key for terms in self._terms for _, key in terms}
        factors = {f for key in keys for f in key[1:] if f[0] != "y"}
        self._nsq: list[np.ndarray] = []
        self._factors = {f: [] for f in factors}
        stored = {key[:k] for key in keys for k in range(3, len(key))}
        self._stages = {key: [] for key in sorted(stored, key=len)}  # parents first
        self.histories = 1 + len(self._factors) + len(self._stages)
        self.n = 0

    def push(self, y: np.ndarray) -> np.ndarray:
        """Coefficient n of every unique component, n the coefficients pushed.

        y holds displacement coefficients 0..n (or more) on axis 0 and the
        components on axis 1; the result has the unique components on axis 0
        and y's batch axes after them.
        """
        n = self.n
        ys = [y[:, i] for i in range(y.shape[1])]
        nsq = mul_step(ys[0], ys[0], n)
        for yi in ys[1:]:
            nsq = nsq + mul_step(yi, yi, n)
        if n == 0 and np.any(nsq == 0.0):
            raise SingularEvaluationError("zero displacement at jet order 0")
        self._nsq.append(nsq)
        for (kind, v), hist in self._factors.items():
            if kind == "p":
                hist.append(pow_step(self._nsq, hist, -v / 2.0, n))
            else:
                hist.append(exp_step(_Scaled(-float(v), self._nsq), hist, n))

        def factor(f):
            return ys[f[1]] if f[0] == "y" else self._factors[f]

        def seq(key):  # coefficients 0..n of a stage
            if len(key) > 2:
                return self._stages[key]
            return _Scaled(key[0], factor(key[1]))

        def coeff(key):  # coefficient n of a stage
            if key in self._stages:
                return self._stages[key][n]
            if len(key) == 1:
                return key[0] if n == 0 else 0.0
            if len(key) == 2:
                return key[0] * factor(key[1])[n]
            return mul_step(seq(key[:-1]), factor(key[-1]), n)

        for key, hist in self._stages.items():
            hist.append(mul_step(seq(key[:-1]), factor(key[-1]), n))
        out = np.zeros((len(self.unique),) + nsq.shape)
        for u, terms in enumerate(self._terms):
            for negated, key in terms:
                if negated:
                    out[u] -= coeff(key)
                else:
                    out[u] += coeff(key)
        self.n += 1
        return out

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Values of the unique components (axis 0) as the requested ones."""
        return np.stack(
            [values[i] if sign > 0 else 0.0 - values[i] for i, sign in self.slots]
        )


class _Scaled:
    """The sequence c * seq[k], each entry formed where it is read."""

    def __init__(self, c: float, seq):
        self.c, self.seq = c, seq

    def __getitem__(self, k: int) -> np.ndarray:
        return self.c * self.seq[k]


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
