"""Fused pairwise jet propagation for the gradient-free perp kernels.

The generic propagation in ``taylor.time_jets_fast`` streams every Cauchy
product through full-size numpy temporaries, which is memory-bound on large
particle counts.  This module compiles the whole per-pair recurrence
(squared norm, inverse radial power, Gaussian cutoff, perp contraction) into
one kernel that keeps the per-pair coefficient arrays in registers/L1.

Only the kernels of the form  c * y_perp * |y|^(-p) * (1 - exp(-|y|^2/d^2))
are covered (perp-Riesz p = 3, 2D Biot-Savart p = 2), which is exactly the
closed X-only dynamics.  Results are cross-checked against the generic jet
route in the test suite; the parallel loop is over target particles with a
sequential source reduction, so output is bitwise independent of the thread
count.  Without numba, ``_propagate`` stays plain Python: too slow for real
runs, but the test suite still checks the recurrence that way.
"""

from __future__ import annotations

import numpy as np

try:
    import numba

    HAVE_NUMBA = True
    prange = numba.prange
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False
    prange = range


def _propagate(xj, wrho, coeff, half_p, inv_d2, order):
    """The recurrence, in place on xj; plain Python until compiled below."""
    n_pts = xj.shape[1]
    for n in range(order):
        m = n + 1  # coefficients 0..n are valid
        un = np.zeros((n_pts, 2))
        for i in prange(n_pts):
            y1 = np.empty(m)
            y2 = np.empty(m)
            s = np.empty(m)
            p = np.empty(m)
            e = np.empty(m)
            f = np.empty(m)
            acc1 = 0.0
            acc2 = 0.0
            for j in range(n_pts):
                if j == i:
                    continue
                for k in range(m):
                    y1[k] = xj[k, i, 0] - xj[k, j, 0]
                    y2[k] = xj[k, i, 1] - xj[k, j, 1]
                # squared norm jet
                for k in range(m):
                    acc = 0.0
                    for l in range(k + 1):
                        acc += y1[l] * y1[k - l] + y2[l] * y2[k - l]
                    s[k] = acc
                # inverse radial power jet: p = s**(-half_p)
                p[0] = s[0] ** (-half_p)
                for k in range(1, m):
                    acc = 0.0
                    for l in range(1, k + 1):
                        acc += ((1.0 - half_p) * l - k) * s[l] * p[k - l]
                    p[k] = acc / (k * s[0])
                if inv_d2 > 0.0:
                    # Gaussian cutoff jet and f = p * (1 - e)
                    e[0] = np.exp(-s[0] * inv_d2)
                    for k in range(1, m):
                        acc = 0.0
                        for l in range(1, k + 1):
                            acc += l * (-s[l] * inv_d2) * e[k - l]
                        e[k] = acc / k
                    for k in range(m):
                        acc = p[k]
                        for l in range(k + 1):
                            acc -= p[l] * e[k - l]
                        f[k] = acc
                else:
                    for k in range(m):
                        f[k] = p[k]
                # coefficient n of  (-y2, y1) * f
                c1 = 0.0
                c2 = 0.0
                for l in range(m):
                    c1 -= y2[l] * f[n - l]
                    c2 += y1[l] * f[n - l]
                acc1 += wrho[j] * c1
                acc2 += wrho[j] * c2
            un[i, 0] = acc1
            un[i, 1] = acc2
        for i in range(n_pts):
            xj[n + 1, i, 0] = coeff * un[i, 0] / (n + 1)
            xj[n + 1, i, 1] = coeff * un[i, 1] / (n + 1)


if HAVE_NUMBA:
    _propagate = numba.njit(parallel=True, cache=True)(_propagate)


def propagate_perp_kernel_jets(
    positions: np.ndarray,
    wrho: np.ndarray,
    order: int,
    radial_power: int,
    delta: float,
    threads: int = 1,
) -> np.ndarray:
    """X-jets for dX/dt = sum_j wrho_j y_perp |y|^(-p) reg(y) / (2 pi)."""
    if not HAVE_NUMBA:
        raise RuntimeError("numba is not available")
    n_pts = len(positions)
    xj = np.zeros((order + 1, n_pts, 2))
    xj[0] = positions
    inv_d2 = 0.0 if delta == 0.0 else 1.0 / (delta * delta)
    prev = numba.get_num_threads()
    numba.set_num_threads(max(1, threads))
    try:
        _propagate(xj, wrho, 1.0 / (2.0 * np.pi), radial_power / 2.0, inv_d2, order)
    finally:
        numba.set_num_threads(prev)
    return xj
