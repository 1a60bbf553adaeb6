"""Truncated univariate Taylor-series (jet) arithmetic in the time variable.

A jet stores normalized coefficients: ``coeffs[n]`` is the n-th derivative
divided by n!.  Normalization keeps the entries geometrically bounded where
raw derivatives grow factorially, which is what lets double precision reach
order ~20.  Power and exponential are computed by the standard O(N^2)
recurrences rather than repeated symbolic differentiation.

Coefficient arrays carry the order on axis 0; trailing axes (vector
components, particle-pair batches) broadcast through every operation, so the
same kernels serve both the scalar public API and the batched fast
propagator in ``taylor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import SingularEvaluationError
from .kernels import KernelExpr

ArrayLike = Union[np.ndarray, list, tuple, float]


def mul_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product truncated at the common order; trailing axes broadcast."""
    if a.shape[0] != b.shape[0]:
        raise ValueError("jet order mismatch")
    n1 = a.shape[0]
    shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros((n1,) + shape)
    for n in range(n1):
        for k in range(n + 1):
            out[n] += a[k] * b[n - k]
    return out


def pow_coeffs(u: np.ndarray, exponent: float) -> np.ndarray:
    """Coefficients of u**exponent; requires positive leading coefficient."""
    if np.any(u[0] <= 0.0):
        raise SingularEvaluationError("jet power needs a positive leading term")
    out = np.zeros_like(u)
    out[0] = u[0] ** exponent
    for n in range(1, u.shape[0]):
        acc = np.zeros_like(u[0])
        for k in range(1, n + 1):
            acc += ((exponent + 1.0) * k - n) * u[k] * out[n - k]
        out[n] = acc / (n * u[0])
    return out


def exp_coeffs(u: np.ndarray) -> np.ndarray:
    """Coefficients of exp(u)."""
    out = np.zeros_like(u)
    out[0] = np.exp(u[0])
    for n in range(1, u.shape[0]):
        acc = np.zeros_like(u[0])
        for k in range(1, n + 1):
            acc += k * u[k] * out[n - k]
        out[n] = acc / n
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

    @staticmethod
    def from_coeffs(coeffs: ArrayLike) -> "Jet":
        return Jet(np.array(coeffs, dtype=float))

    @staticmethod
    def constant(value: ArrayLike, order: int) -> "Jet":
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((order + 1,) + value.shape)
        coeffs[0] = value
        return Jet(coeffs)

    @staticmethod
    def variable(value: float, order: int) -> "Jet":
        """The jet of t -> value + t."""
        coeffs = np.zeros(order + 1)
        coeffs[0] = value
        if order >= 1:
            coeffs[1] = 1.0
        return Jet(coeffs)

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

    def scale(self, factor: float) -> "Jet":
        return Jet(self.coeffs * factor)

    def component(self, i: int) -> "Jet":
        return Jet(self.coeffs[:, i])

    def truncated(self, order: int) -> "Jet":
        return Jet(self.coeffs[: order + 1])

    def evaluate(self, h: float) -> np.ndarray:
        """Horner evaluation of the polynomial at time offset h."""
        acc = np.array(self.coeffs[-1], copy=True)
        for n in range(self.order - 1, -1, -1):
            acc = acc * h + self.coeffs[n]
        return acc

    def derivative_shift(self) -> "Jet":
        """The jet of the time derivative, one order shorter."""
        n = np.arange(1, self.coeffs.shape[0])
        n = n.reshape((-1,) + (1,) * (self.coeffs.ndim - 1))
        return Jet(self.coeffs[1:] * n)


def jet_norm_sq(v: Jet) -> Jet:
    """Sum of squared components of a vector jet (components on axis 1)."""
    if not v.shape:
        raise ValueError("norm_sq expects a vector jet")
    acc = mul_coeffs(v.coeffs[:, 0], v.coeffs[:, 0])
    for i in range(1, v.shape[0]):
        acc = acc + mul_coeffs(v.coeffs[:, i], v.coeffs[:, i])
    return Jet(acc)


def jet_pow_real(u: Jet, exponent: float) -> Jet:
    return Jet(pow_coeffs(u.coeffs, exponent))


def jet_exp(u: Jet) -> Jet:
    return Jet(exp_coeffs(u.coeffs))


def kernel_on_jet(expr: KernelExpr, y: Jet) -> Jet:
    """Evaluate a kernel expression on a displacement jet.

    ``y`` has components on axis 1 (and optional batch axes after that); the
    result carries the expression's shape in place of the component axis.
    Radial powers go through the squared norm, |y|**(-p) = (|y|^2)**(-p/2),
    so only the leading displacement must be nonzero.
    """
    if y.shape[0] != expr.dim:
        raise ValueError(f"kernel dimension {expr.dim} vs jet components {y.shape[0]}")
    nsq = jet_norm_sq(y).coeffs
    if np.any(nsq[0] == 0.0):
        raise SingularEvaluationError("zero displacement at jet order 0")
    batch = nsq.shape[1:]
    n1 = y.coeffs.shape[0]

    pow_cache: dict[int, np.ndarray] = {}
    gauss_cache: dict = {}
    comp_out = []
    for comp in expr.comps:
        total = np.zeros((n1,) + batch)
        for t in comp.terms:
            val = np.full((n1,) + batch, 0.0)
            val[0] = t.coeff_float()
            for i, e in enumerate(t.mono):
                for _ in range(e):
                    val = mul_coeffs(val, y.coeffs[:, i])
            if t.rpow:
                if t.rpow not in pow_cache:
                    pow_cache[t.rpow] = pow_coeffs(nsq, -t.rpow / 2.0)
                val = mul_coeffs(val, pow_cache[t.rpow])
            if t.grate:
                if t.grate not in gauss_cache:
                    gauss_cache[t.grate] = exp_coeffs(-float(t.grate) * nsq)
                val = mul_coeffs(val, gauss_cache[t.grate])
            total += val
        comp_out.append(total)
    if not expr.shape:
        return Jet(comp_out[0])
    stacked = np.stack(comp_out, axis=1)
    return Jet(stacked.reshape((n1,) + expr.shape + batch))
