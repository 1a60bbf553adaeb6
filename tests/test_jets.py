"""Jet arithmetic checks, including the Faa di Bruno cross-oracle."""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagpaths.combinatorics import (
    binomial_half,
    double_factorial,
    faa_di_bruno_multi,
    multi_indices_up_to,
    series_coefficients,
    sign_pow,
)
from lagpaths.errors import SingularEvaluationError
from lagpaths.jets import (
    Jet,
    jet_exp,
    jet_norm_sq,
    jet_pow_real,
    kernel_on_jet,
)
from lagpaths.kernels import (
    KernelExpr,
    KernelTerm,
    ScalarKernel,
    catalog,
    regularize,
    split_gaussian,
    sqg_velocity_kernel,
)


def test_mul_small_example():
    a = Jet.from_coeffs([1.0, 1.0, 0.0])
    b = Jet.from_coeffs([1.0, -1.0, 0.0])
    np.testing.assert_allclose((a * b).coeffs, [1.0, 0.0, -1.0])


def test_scale_by_zero():
    a = Jet.from_coeffs([3.0, -2.0, 5.0])
    assert np.all(a.scale(0.0).coeffs == 0.0)


coeff_lists = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=5, max_size=5
)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_mul_commutative_and_associative(xs, ys, zs):
    a, b, c = (Jet.from_coeffs(v) for v in (xs, ys, zs))
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, atol=1e-14)
    np.testing.assert_allclose(
        ((a * b) * c).coeffs, (a * (b * c)).coeffs, atol=1e-13
    )


def test_norm_sq_examples():
    v = Jet.from_coeffs([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])  # (t, 0)
    np.testing.assert_allclose(jet_norm_sq(v).coeffs, [0.0, 0.0, 1.0])
    c = Jet.constant([3.0, 4.0], order=2)
    np.testing.assert_allclose(jet_norm_sq(c).coeffs, [25.0, 0.0, 0.0])


def test_norm_sq_matches_mul_expansion():
    rng = np.random.default_rng(0)
    v = Jet(rng.normal(size=(6, 3)))
    direct = jet_norm_sq(v).coeffs
    recomputed = sum(
        (v.component(i) * v.component(i)).coeffs for i in range(3)
    )
    np.testing.assert_allclose(direct, recomputed, atol=1e-14)


def test_pow_real_binomial():
    u = Jet.variable(1.0, order=2)  # 1 + t
    w = jet_pow_real(u, -0.5)
    np.testing.assert_allclose(w.coeffs, [1.0, -0.5, 0.375], atol=1e-15)
    # coefficients of (1 - t)^(1/2) are -b_j for j >= 1
    u = Jet.from_coeffs([1.0, -1.0] + [0.0] * 11)
    w = jet_pow_real(u, 0.5)
    for j in range(1, 13):
        b_j = float(series_coefficients(j)[1])
        np.testing.assert_allclose(w.coeffs[j], -b_j, rtol=1e-14)


def test_pow_real_trivial_exponents():
    rng = np.random.default_rng(1)
    u = Jet(np.concatenate([[2.0], rng.normal(size=7)]))
    np.testing.assert_allclose(jet_pow_real(u, 1.0).coeffs, u.coeffs, atol=1e-14)
    np.testing.assert_allclose(
        jet_pow_real(u, 2.0).coeffs, (u * u).coeffs, rtol=1e-13
    )


def test_pow_real_rejects_nonpositive_lead():
    with pytest.raises(SingularEvaluationError):
        jet_pow_real(Jet.from_coeffs([0.0, 1.0]), 0.5)


def test_exp_examples():
    u = Jet.variable(0.0, order=3)
    np.testing.assert_allclose(
        jet_exp(u).coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], atol=1e-15
    )
    z = Jet.constant(0.0, order=4)
    np.testing.assert_allclose(jet_exp(z).coeffs, [1.0, 0, 0, 0, 0], atol=1e-16)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_exp_additivity(xs, ys):
    u, v = Jet.from_coeffs(xs), Jet.from_coeffs(ys)
    lhs = jet_exp(u + v).coeffs
    rhs = (jet_exp(u) * jet_exp(v)).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-13 * np.exp(np.abs(xs[0] + ys[0])))


def test_closed_form_series_to_order_15():
    n = 15
    # geometric: 1/(1-t)
    geo = jet_pow_real(Jet.from_coeffs([1.0, -1.0] + [0.0] * (n - 1)), -1.0)
    np.testing.assert_allclose(geo.coeffs, np.ones(n + 1), rtol=1e-13)
    # binomial: (1+t)^(1/2)
    bino = jet_pow_real(Jet.variable(1.0, order=n), 0.5)
    expected = [1.0] + [
        float(sign_pow(j - 1) * binomial_half(j)) * (-1.0) ** (j - 1)
        for j in range(1, n + 1)
    ]
    np.testing.assert_allclose(bino.coeffs, expected, rtol=1e-13)
    # exponential
    expo = jet_exp(Jet.variable(0.0, order=n))
    np.testing.assert_allclose(
        expo.coeffs, [1.0 / factorial(k) for k in range(n + 1)], rtol=1e-13
    )


def test_reciprocal_sqrt_series_derivatives():
    """(1-2t)^(-1/2): n-th derivative is (2n-1)!! and matches the half-binomial form."""
    n_max = 12
    f = jet_pow_real(Jet.from_coeffs([1.0, -2.0] + [0.0] * (n_max - 1)), -0.5)
    for n in range(1, n_max + 1):
        deriv = f.coeffs[n] * factorial(n)
        np.testing.assert_allclose(deriv, float(double_factorial(2 * n - 1)), rtol=1e-12)
        closed = -factorial(n + 1) * binomial_half(n + 1) * Fraction(-2) ** (n + 1)
        np.testing.assert_allclose(deriv, float(closed), rtol=1e-12)


def test_kernel_on_jet_constant_displacement():
    y = Jet.constant([1.0, 0.0], order=4)
    out = kernel_on_jet(sqg_velocity_kernel(), y)
    expected = np.zeros((5, 2))
    expected[0] = [0.0, 1.0 / (2.0 * math.pi)]
    np.testing.assert_allclose(out.coeffs, expected, atol=1e-16)


def test_kernel_on_jet_geometric():
    inv_r = KernelExpr.scalar(
        ScalarKernel.build(2, [KernelTerm(Fraction(1), 0, (0, 0), 1, Fraction(0))])
    )
    y = Jet(np.zeros((6, 2)))
    y.coeffs[0, 0] = 1.0
    y.coeffs[1, 0] = 1.0  # y = (1 + t, 0)
    out = kernel_on_jet(inv_r, y)
    np.testing.assert_allclose(out.coeffs, [1, -1, 1, -1, 1, -1], rtol=1e-13)


def test_kernel_on_jet_rejects_zero_displacement():
    y = Jet(np.zeros((3, 2)))
    y.coeffs[1, 0] = 1.0
    with pytest.raises(SingularEvaluationError):
        kernel_on_jet(sqg_velocity_kernel(), y)


def _poly_jet(rng, order, dim, base_scale=1.5):
    """Random polynomial displacement jet with a safely nonzero base point."""
    coeffs = rng.normal(size=(order + 1, dim)) * 0.3
    base = rng.normal(size=dim)
    base *= base_scale / np.linalg.norm(base)
    coeffs[0] = base
    return Jet(coeffs)


def test_kernel_on_jet_agrees_with_faa_di_bruno():
    """Primary cross-oracle: jet propagation vs the multivariate formula."""
    rng = np.random.default_rng(202)
    exprs = [
        (sqg_velocity_kernel(), 6),
        (catalog("euler2d").velocity_kernel, 6),
        (catalog("euler2d").gradient_kernel, 6),
        (split_gaussian(sqg_velocity_kernel())[0], 6),
        (regularize(sqg_velocity_kernel(), 0.5), 6),
        (catalog("euler3d").velocity_kernel, 4),
        (catalog("euler3d").gradient_kernel, 3),
    ]
    for expr, n_max in exprs:
        y = _poly_jet(rng, n_max, expr.dim)
        out = kernel_on_jet(expr, y)
        y0 = y.coeffs[0]
        g_derivs = [y.coeffs[l] * factorial(l) for l in range(n_max + 1)]
        for flat, comp in enumerate(expr.comps):
            h_derivs = {
                alpha: float(
                    ScalarKernel.derive_multi(comp, alpha).evaluate(y0)
                )
                for alpha in multi_indices_up_to(n_max, expr.dim)
            }
            for n in range(1, n_max + 1):
                fdb = faa_di_bruno_multi(h_derivs, g_derivs, n) / factorial(n)
                jet_val = out.coeffs[(n,) + np.unravel_index(flat, expr.shape or (1,))]
                if expr.shape == ():
                    jet_val = out.coeffs[n]
                np.testing.assert_allclose(jet_val, fdb, rtol=1e-10, atol=1e-13)


def test_kernel_on_jet_batched_matches_single():
    rng = np.random.default_rng(7)
    expr = sqg_velocity_kernel()
    jets = [_poly_jet(rng, 5, 2) for _ in range(4)]
    batched = Jet(np.stack([j.coeffs for j in jets], axis=-1))
    out_b = kernel_on_jet(expr, batched)
    for m, j in enumerate(jets):
        np.testing.assert_allclose(
            out_b.coeffs[..., m], kernel_on_jet(expr, j).coeffs, atol=1e-14
        )


def test_derivative_shift():
    j = Jet.from_coeffs([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(j.derivative_shift().coeffs, [2.0, 6.0, 12.0])


def test_evaluate_horner():
    j = Jet.from_coeffs([1.0, 1.0, 0.5, 1.0 / 6.0])
    np.testing.assert_allclose(j.evaluate(0.1), sum(0.1**n / factorial(n) for n in range(4)))
