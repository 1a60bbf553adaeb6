"""Reference formulas that several test modules check the package against.

None of these runs in a command: each is a closed form, a textbook
expansion or a small solver that gives the tests an independent value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable, Mapping, Sequence

import numpy as np

from lagpaths.combinatorics import (
    MultiIndex,
    _series_pair,
    mi_factorial,
    mi_order,
    partitions_by_alpha,
)
from lagpaths.dynamics import chord_arc, chord_arc_sample, nearest_neighbor_pairs
from lagpaths.jets import Jet, mul_coeffs


def faa_di_bruno_multi(
    h_derivs: Mapping[MultiIndex, object],
    g_derivs: Sequence[Sequence],
    n: int,
):
    """n-th derivative of h(g(x)) for vector-valued g, scalar h.

    ``h_derivs[alpha]`` is the partial derivative of h of multi-order alpha
    evaluated at g(x0), required for every 1 <= |alpha| <= n;
    ``g_derivs[l][i]`` is the l-th derivative of component i of g at x0,
    for l = 1..n.  Values may be Fractions or floats; the convention 0**0 = 1
    applies inside the partition products.  The partitions are summed in the
    order of ``partitions_by_alpha``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    d = len(g_derivs[1])
    total = None
    for alpha, partitions in partitions_by_alpha(n, d).items():
        try:
            h_val = h_derivs[alpha]
        except KeyError as exc:
            raise KeyError(f"missing h derivative for multi-index {alpha}") from exc
        inner = None
        for part in partitions:
            term = Fraction(1)
            for k, l in zip(part.ks, part.ls):
                denom = mi_factorial(k) * factorial(l) ** mi_order(k)
                term = term / denom
                for i, ki in enumerate(k):
                    if ki:
                        term = term * g_derivs[l][i] ** ki
            inner = term if inner is None else inner + term
        if inner is not None:
            contrib = h_val * inner
            total = contrib if total is None else total + contrib
    if total is None:
        raise ValueError("no admissible multi-index: check n >= 1")
    return factorial(n) * total


@lru_cache(maxsize=None)
def series_coefficients(m: int) -> tuple[Fraction, Fraction]:
    """The non-negative coefficient pair (a_m, b_m) the identity sums use.

    a_m = 2*(m+1)*(-1)**m*(1/2 choose m+1) generates (1-t)**(-1/2);
    b_m = (-1)**(m-1)*(1/2 choose m) generates 2-(1-t)**(1/2).
    """
    a_m, b_m = _series_pair(m)
    return Fraction(*a_m), Fraction(*b_m)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """The Cauchy product of two jets, truncated at their common order."""
    return Jet(mul_coeffs(a.coeffs, b.coeffs))


def ode1d_testbed(rhs: Callable[[Jet], Jet], g0: float, order: int) -> Jet:
    """Taylor coefficients of the solution of g' = rhs(g), g(0) = g0."""
    coeffs = np.zeros(order + 1)
    coeffs[0] = g0
    for n in range(order):
        val = rhs(Jet(coeffs[: n + 1]))
        coeffs[n + 1] = val.coeffs[n] / (n + 1)
    return Jet(coeffs)


def corotation_closed_form(t: float) -> np.ndarray:
    """Exact two_vortex positions at time t (midpoint (1/2, 0), Omega = 1/pi)."""
    omega = 1.0 / math.pi
    mid = np.array([0.5, 0.0])
    arm = 0.5 * np.array([math.cos(omega * t), math.sin(omega * t)])
    return np.stack([mid - arm, mid + arm])


def sampled_chord_arc(state, sample_pairs: int, seed: int) -> tuple[float, float]:
    """``chord_arc`` over the label neighbours and ``sample_pairs`` seeded
    draws of pairs, the sample a run forms once from its labels."""
    neighbors = nearest_neighbor_pairs(state.labels)
    sample = chord_arc_sample(state.labels, neighbors, sample_pairs, seed)
    return chord_arc(state, sample)
