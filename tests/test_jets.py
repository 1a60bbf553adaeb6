"""Jet arithmetic checks, including the Faa di Bruno cross-oracle."""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    KernelStream,
    exp_coeffs,
    kernel_on_jet,
    mul_coeffs,
    pow_coeffs,
)
from lagpaths.kernels import (
    KernelExpr,
    KernelTerm,
    ScalarKernel,
    biot_savart_2d_kernel,
    catalog,
    regularize,
    split_gaussian,
    sqg_velocity_kernel,
    strain_2d_kernel,
)


# jet constructors and whole-jet functions that only these tests need; the
# package streams its jets one coefficient at a time


def _jet(coeffs) -> Jet:
    return Jet(np.array(coeffs, dtype=float))


def _constant(value, order: int) -> Jet:
    value = np.asarray(value, dtype=float)
    coeffs = np.zeros((order + 1,) + value.shape)
    coeffs[0] = value
    return Jet(coeffs)


def _variable(value: float, order: int) -> Jet:
    """The jet of t -> value + t."""
    coeffs = np.zeros(order + 1)
    coeffs[0] = value
    if order >= 1:
        coeffs[1] = 1.0
    return Jet(coeffs)


def _derivative_shift(j: Jet) -> Jet:
    """The jet of the time derivative, one order shorter."""
    n = np.arange(1, j.coeffs.shape[0])
    n = n.reshape((-1,) + (1,) * (j.coeffs.ndim - 1))
    return Jet(j.coeffs[1:] * n)


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


def test_mul_small_example():
    a = _jet([1.0, 1.0, 0.0])
    b = _jet([1.0, -1.0, 0.0])
    np.testing.assert_allclose((a * b).coeffs, [1.0, 0.0, -1.0])


def test_scale_by_zero():
    a = _jet([3.0, -2.0, 5.0])
    assert np.all((a * _constant(0.0, a.order)).coeffs == 0.0)


coeff_lists = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=5, max_size=5
)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_mul_commutative_and_associative(xs, ys, zs):
    a, b, c = (_jet(v) for v in (xs, ys, zs))
    np.testing.assert_allclose((a * b).coeffs, (b * a).coeffs, atol=1e-14)
    np.testing.assert_allclose(
        ((a * b) * c).coeffs, (a * (b * c)).coeffs, atol=1e-13
    )


def test_norm_sq_examples():
    v = _jet([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])  # (t, 0)
    np.testing.assert_allclose(jet_norm_sq(v).coeffs, [0.0, 0.0, 1.0])
    c = _constant([3.0, 4.0], order=2)
    np.testing.assert_allclose(jet_norm_sq(c).coeffs, [25.0, 0.0, 0.0])


def test_norm_sq_matches_mul_expansion():
    rng = np.random.default_rng(0)
    v = Jet(rng.normal(size=(6, 3)))
    direct = jet_norm_sq(v).coeffs
    recomputed = sum(
        (Jet(v.coeffs[:, i]) * Jet(v.coeffs[:, i])).coeffs for i in range(3)
    )
    np.testing.assert_allclose(direct, recomputed, atol=1e-14)


def test_pow_real_binomial():
    u = _variable(1.0, order=2)  # 1 + t
    w = jet_pow_real(u, -0.5)
    np.testing.assert_allclose(w.coeffs, [1.0, -0.5, 0.375], atol=1e-15)
    # coefficients of (1 - t)^(1/2) are -b_j for j >= 1
    u = _jet([1.0, -1.0] + [0.0] * 11)
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
        jet_pow_real(_jet([0.0, 1.0]), 0.5)


def test_exp_examples():
    u = _variable(0.0, order=3)
    np.testing.assert_allclose(
        jet_exp(u).coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0], atol=1e-15
    )
    z = _constant(0.0, order=4)
    np.testing.assert_allclose(jet_exp(z).coeffs, [1.0, 0, 0, 0, 0], atol=1e-16)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_exp_additivity(xs, ys):
    u, v = _jet(xs), _jet(ys)
    lhs = jet_exp(u + v).coeffs
    rhs = (jet_exp(u) * jet_exp(v)).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-13 * np.exp(np.abs(xs[0] + ys[0])))


def test_closed_form_series_to_order_15():
    n = 15
    # geometric: 1/(1-t)
    geo = jet_pow_real(_jet([1.0, -1.0] + [0.0] * (n - 1)), -1.0)
    np.testing.assert_allclose(geo.coeffs, np.ones(n + 1), rtol=1e-13)
    # binomial: (1+t)^(1/2)
    bino = jet_pow_real(_variable(1.0, order=n), 0.5)
    expected = [1.0] + [
        float(sign_pow(j - 1) * binomial_half(j)) * (-1.0) ** (j - 1)
        for j in range(1, n + 1)
    ]
    np.testing.assert_allclose(bino.coeffs, expected, rtol=1e-13)
    # exponential
    expo = jet_exp(_variable(0.0, order=n))
    np.testing.assert_allclose(
        expo.coeffs, [1.0 / factorial(k) for k in range(n + 1)], rtol=1e-13
    )


def test_reciprocal_sqrt_series_derivatives():
    """(1-2t)^(-1/2): n-th derivative is (2n-1)!! and matches the half-binomial form."""
    n_max = 12
    f = jet_pow_real(_jet([1.0, -2.0] + [0.0] * (n_max - 1)), -0.5)
    for n in range(1, n_max + 1):
        deriv = f.coeffs[n] * factorial(n)
        np.testing.assert_allclose(deriv, float(double_factorial(2 * n - 1)), rtol=1e-12)
        closed = -factorial(n + 1) * binomial_half(n + 1) * Fraction(-2) ** (n + 1)
        np.testing.assert_allclose(deriv, float(closed), rtol=1e-12)


def test_kernel_on_jet_constant_displacement():
    y = _constant([1.0, 0.0], order=4)
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
        (catalog("biot_savart_2d").velocity_kernel, 6),
        (catalog("biot_savart_2d").gradient_kernel, 6),
        (split_gaussian(sqg_velocity_kernel())[0], 6),
        (regularize(sqg_velocity_kernel(), 0.5), 6),
        (catalog("biot_savart_3d").velocity_kernel, 4),
        (catalog("biot_savart_3d").gradient_kernel, 3),
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


def _full_jet_kernel(expr, y):
    """Every order at once through mul_coeffs, pow_coeffs and exp_coeffs."""
    nsq = jet_norm_sq(y).coeffs
    n1 = y.coeffs.shape[0]
    comp_out = []
    for comp in expr.comps:
        total = np.zeros(nsq.shape)
        for t in comp.terms:
            val = np.zeros(nsq.shape)
            val[0] = t.coeff_float()
            for i, e in enumerate(t.mono):
                for _ in range(e):
                    val = mul_coeffs(val, y.coeffs[:, i])
            if t.rpow:
                val = mul_coeffs(val, pow_coeffs(nsq, -t.rpow / 2.0))
            if t.grate:
                val = mul_coeffs(val, exp_coeffs(-float(t.grate) * nsq))
            total += val
        comp_out.append(total)
    stacked = np.stack(comp_out, axis=1)
    return stacked.reshape((n1,) + expr.shape + nsq.shape[1:])


@pytest.mark.parametrize("batch", [(), (5,), (3, 4)])
def test_kernel_stream_bitwise_equals_full_jet_evaluation(batch):
    # shared stages, sign-folded twins and deduplicated components must not
    # move a single bit: the taylor route's outputs are byte-compared
    rng = np.random.default_rng(31)
    exprs = [
        regularize(sqg_velocity_kernel(), 0.125),
        regularize(strain_2d_kernel(), 0.3),
        catalog("biot_savart_3d").gradient_kernel,
        regularize(biot_savart_2d_kernel(), 0.5).derive_multi((1, 2)),
        split_gaussian(sqg_velocity_kernel())[1],
    ]
    for expr in exprs:
        for order in (0, 1, 7):
            coeffs = rng.normal(size=(order + 1, expr.dim) + batch)
            coeffs[0, 0] += 2.0
            got = kernel_on_jet(expr, Jet(coeffs)).coeffs
            want = _full_jet_kernel(expr, Jet(coeffs))
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [(5, 7), (21,)], ids=["tile", "triangle"])
def test_kernel_stream_push_into_out_is_bitwise_a_plain_push(batch):
    # the jet route pushes a tile unit into its kept kernel tiles
    # (unique, order, J, I) and a diagonal unit's packed pairs into a buffer
    rng = np.random.default_rng(5)
    comps = regularize(strain_2d_kernel(), 0.3).comps + sqg_velocity_kernel().comps
    order = 6
    y = rng.normal(size=(order, 2) + batch)
    y[0, 0] += 2.0
    plain, into = KernelStream(comps), KernelStream(comps)
    # NaN where out is not zeroed first
    tiles = np.full((len(into.unique), order) + batch, np.nan)
    for q in range(order):
        want = plain.push(y)
        got = into.push(y, out=tiles[:, q])
        assert np.shares_memory(got, tiles)
        assert got.tobytes() == want.tobytes() == tiles[:, q].tobytes()


def test_kernel_stream_evaluates_equal_components_once():
    # the strain matrix is [[e11, e12], [e12, -e11]]
    strain = KernelStream(regularize(strain_2d_kernel(), 0.5).comps)
    assert len(strain.unique) == 2
    assert strain.slots == ((0, 1.0), (1, 1.0), (1, 1.0), (0, -1.0))
    # SQG transports grad theta0 with the velocity kernel itself
    sqg = regularize(sqg_velocity_kernel(), 0.5)
    stream = KernelStream(sqg.comps + sqg.comps)
    assert len(stream.unique) == 2
    # |y|^2, |y|^-3, the Gaussian and the two pre-Gaussian stages y_perp |y|^-3
    assert stream.histories == 5


_QUARTERS = st.integers(-4, 4).map(lambda k: Fraction(k, 4))


def _sympy_kernel_series(numer, p, delta, path, order):
    """Coefficients of numer(y) |y|^-p (1 - exp(-|y|^2 / delta^2)) / (2 pi)
    along the polynomial path y(t), by sympy's exact power-series ring."""
    from sympy import QQ
    from sympy.polys.ring_series import rs_exp, rs_mul, rs_nth_root, rs_pow
    from sympy.polys.rings import ring

    _, t = ring("t", QQ)
    prec = order + 1
    ys = [sum(QQ(c.numerator, c.denominator) * t**k for k, c in enumerate(axis))
          for axis in path]
    r2 = ys[0] ** 2 + ys[1] ** 2
    r20 = r2.coeff(1)
    rate = QQ(1) / QQ(Fraction(delta) ** 2)
    radial = rs_pow(rs_nth_root(r2 / r20, 2, t, prec), -p, t, prec)  # (r2/r20)^(-p/2)
    a = rs_mul(numer(*ys), radial, t, prec)
    b = rs_mul(a, rs_exp(-rate * (r2 - r20), t, prec), t, prec)
    gauss0 = math.exp(-float(rate) * float(r20))
    scale = float(r20) ** (-p / 2.0) / (2.0 * math.pi)
    return np.array([
        scale * (float(a.get((n,), 0)) - gauss0 * float(b.get((n,), 0)))
        for n in range(prec)
    ])


@settings(max_examples=20, deadline=None)
@given(
    order=st.integers(1, 6),
    base=st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
    tail=st.lists(st.tuples(_QUARTERS, _QUARTERS), min_size=6, max_size=6),
    delta=st.sampled_from([0.5, 1.0, 2.0]),
)
# y1 = y2: the strain entry y2^2 - y1^2 is identically zero along the path
@example(order=1, base=(1, 1), tail=[(Fraction(0), Fraction(0))] * 6, delta=0.5)
def test_kernel_on_jet_matches_sympy_series(order, base, tail, delta):
    """Third oracle: closed-form kernels composed with polynomial paths."""
    path = [[Fraction(b, 2)] + [c[i] for c in tail[:order]] for i, b in enumerate(base)]
    y = Jet(np.array(path, dtype=float).T)
    cases = [
        (sqg_velocity_kernel(), 3, [lambda y1, y2: -y2, lambda y1, y2: y1]),
        (biot_savart_2d_kernel(), 2, [lambda y1, y2: -y2, lambda y1, y2: y1]),
        (strain_2d_kernel(), 4, [
            lambda y1, y2: 2 * y1 * y2, lambda y1, y2: y2**2 - y1**2,
            lambda y1, y2: y2**2 - y1**2, lambda y1, y2: -2 * y1 * y2,
        ]),
    ]
    for expr, p, numers in cases:
        got = kernel_on_jet(regularize(expr, delta), y).coeffs.reshape(order + 1, -1)
        wants = [_sympy_kernel_series(numer, p, delta, path, order) for numer in numers]
        # an identically zero entry is computed as a difference of terms of
        # the kernel's size, so its floor comes from the whole kernel
        kernel_max = max(np.max(np.abs(want)) for want in wants)
        for flat, want in enumerate(wants):
            floor = np.max(np.abs(want)) if np.any(want) else kernel_max
            np.testing.assert_allclose(got[:, flat], want, rtol=1e-10, atol=1e-10 * floor)


def test_derivative_shift():
    j = _jet([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(_derivative_shift(j).coeffs, [2.0, 6.0, 12.0])


def test_evaluate_horner():
    j = _jet([1.0, 1.0, 0.5, 1.0 / 6.0])
    np.testing.assert_allclose(j.evaluate(0.1), sum(0.1**n / factorial(n) for n in range(4)))
