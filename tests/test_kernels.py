"""Term-algebra and numerical checks for the kernel catalog."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from lagpaths.errors import SingularEvaluationError
from lagpaths.kernels import (
    KernelExpr,
    KernelTerm,
    ScalarKernel,
    biot_savart_2d_kernel,
    bound_samples,
    catalog,
    circle_mean,
    decompose_kin,
    perp_grad,
    regularize,
    split_gaussian,
    sqg_velocity_kernel,
    strain_2d_kernel,
    strain_3d_kernel,
    verify_derivative_bound,
)

F = Fraction
TWO_PI = 2.0 * math.pi


def _scalar(dim, *terms):
    return KernelExpr.scalar(ScalarKernel.build(dim, terms))


def test_derive_radial_power():
    inv_r = _scalar(2, KernelTerm(F(1), 0, (0, 0), 1, F(0)))
    d1 = inv_r.derive(0)
    assert d1.comps[0].terms == (KernelTerm(F(-1), 0, (1, 0), 3, F(0)),)


def test_derive_monomial():
    y1 = _scalar(2, KernelTerm(F(1), 0, (1, 0), 0, F(0)))
    assert y1.derive(0).comps[0].terms == (KernelTerm(F(1), 0, (0, 0), 0, F(0)),)
    assert y1.derive(1).is_zero()


def test_gradient_of_biot_savart_is_strain_kernel():
    """The exact y-gradient of the 2D Biot-Savart kernel, entry by entry."""
    bs = biot_savart_2d_kernel()
    strain = strain_2d_kernel()
    for i in range(2):
        for k in range(2):
            grad_ik = bs.comps[i].derive(k)
            # strain entries carry |y|^(-4) with mixed monomials; compare
            # after canonicalization via subtraction
            assert (grad_ik - strain.component(i, k)).is_zero()


def test_evaluate_catalog_points():
    np.testing.assert_allclose(
        sqg_velocity_kernel().evaluate(np.array([1.0, 0.0])),
        [0.0, 1.0 / TWO_PI],
        atol=1e-16,
    )
    np.testing.assert_allclose(
        catalog("sqg").velocity_kernel.evaluate(np.array([0.0, 1.0])),
        [-1.0 / TWO_PI, 0.0],
        atol=1e-16,
    )
    np.testing.assert_allclose(
        catalog("euler2d").velocity_kernel.evaluate(np.array([1.0, 0.0])),
        [0.0, 1.0 / TWO_PI],
        atol=1e-16,
    )
    np.testing.assert_allclose(
        strain_2d_kernel().evaluate(np.array([1.0, 0.0])),
        np.array([[0.0, -1.0], [-1.0, 0.0]]) / TWO_PI,
        atol=1e-16,
    )
    inner, _ = split_gaussian(sqg_velocity_kernel())
    np.testing.assert_allclose(
        inner.evaluate(np.array([1.0, 0.0])),
        [0.0, math.exp(-1.0) / TWO_PI],
        rtol=1e-15,
    )


def test_evaluate_rejects_origin():
    with pytest.raises(SingularEvaluationError):
        sqg_velocity_kernel().evaluate(np.array([0.0, 0.0]))


def test_catalog_homogeneity():
    rng = np.random.default_rng(5)
    for model in ("sqg", "euler2d", "euler3d"):
        entry = catalog(model)
        y = rng.normal(size=entry.velocity_kernel.dim)
        base = entry.velocity_kernel.evaluate(y)
        for s in (2.0, 1.0 / 3.0):
            scaled = entry.velocity_kernel.evaluate(s * y)
            np.testing.assert_allclose(
                scaled, s**entry.singularity_order * base, rtol=1e-13
            )
    # gradient kernels: 2D strain is homogeneous of degree -2, 3D of -3
    y = rng.normal(size=2)
    for s in (2.0, 1.0 / 3.0):
        np.testing.assert_allclose(
            strain_2d_kernel().evaluate(s * y),
            s**-2.0 * strain_2d_kernel().evaluate(y),
            rtol=1e-13,
        )
    y3 = rng.normal(size=3)
    for s in (2.0, 1.0 / 3.0):
        np.testing.assert_allclose(
            strain_3d_kernel().evaluate(s * y3),
            s**-3.0 * strain_3d_kernel().evaluate(y3),
            rtol=1e-13,
        )


def test_catalog_rejects_unknown_tag():
    with pytest.raises(ValueError):
        catalog("navier")


def test_strain_3d_matches_direct_formula():
    rng = np.random.default_rng(11)
    K = strain_3d_kernel()
    for _ in range(5):
        x = rng.normal(size=3)
        w = rng.normal(size=3)
        contracted = K.evaluate(x) @ w  # shape (3,3,3) @ (3,)
        cx = np.cross(x, w)
        direct = (
            3.0
            / (8.0 * math.pi)
            * (np.outer(cx, x) + np.outer(x, cx))
            / np.linalg.norm(x) ** 5
        )
        np.testing.assert_allclose(contracted, direct, rtol=1e-12, atol=1e-14)


def test_split_gaussian_partition_of_unity():
    k = sqg_velocity_kernel()
    inner, outer = split_gaussian(k)
    assert (inner + outer - k).is_zero()
    y = np.array([0.3, 0.4])
    np.testing.assert_allclose(
        inner.evaluate(y) + outer.evaluate(y), k.evaluate(y), atol=1e-14
    )


def test_split_gaussian_inner_decay():
    inner, _ = split_gaussian(sqg_velocity_kernel())
    y = np.array([3.0, 0.0])
    mag = np.linalg.norm(inner.evaluate(y))
    assert mag <= math.exp(-9.0) / (TWO_PI * 9.0) * 3.0


def test_split_gaussian_outer_behavior_at_origin():
    # perp-Riesz kernel: (1 - exp(-|y|^2)) |y|^(-2) = O(1), so the outer part
    # stays bounded near 0 with limiting magnitude 1/(2 pi)
    _, outer = split_gaussian(sqg_velocity_kernel())
    ts = np.array([1e-2, 1e-3, 1e-4])
    pts = np.stack([ts, np.zeros_like(ts)], axis=-1)
    mags = np.linalg.norm(outer.evaluate(pts), axis=-1)
    np.testing.assert_allclose(mags, 1.0 / TWO_PI, rtol=1e-3)
    # the less singular Biot-Savart kernel loses a full power: outer ~ |y|
    _, outer_bs = split_gaussian(biot_savart_2d_kernel())
    mags_bs = np.linalg.norm(outer_bs.evaluate(pts), axis=-1)
    np.testing.assert_allclose(mags_bs / ts, 1.0 / TWO_PI, rtol=1e-3)


def test_decompose_kin_identity_and_values():
    k1, k2 = decompose_kin("sqg")
    inner, _ = split_gaussian(sqg_velocity_kernel())
    assert (perp_grad(k1) + k2 - inner).is_zero()
    np.testing.assert_allclose(
        k1.evaluate(np.array([1.0, 0.0])), -math.exp(-1.0) / TWO_PI, rtol=1e-15
    )
    np.testing.assert_allclose(
        k2.evaluate(np.array([1.0, 0.0])),
        [0.0, -math.exp(-1.0) / math.pi],
        rtol=1e-15,
    )


def test_mixed_partials_commute_exactly():
    exprs = [
        sqg_velocity_kernel(),
        biot_savart_2d_kernel(),
        strain_2d_kernel(),
        split_gaussian(sqg_velocity_kernel())[0],
    ]
    for expr in exprs:
        for i, j in itertools.permutations(range(2), 2):
            assert (expr.derive(i).derive(j) - expr.derive(j).derive(i)).is_zero()
    K3 = strain_3d_kernel()
    assert (K3.derive(0).derive(2) - K3.derive(2).derive(0)).is_zero()


def test_derivative_closure_against_finite_differences():
    rng = np.random.default_rng(42)
    exprs = [
        sqg_velocity_kernel(),
        strain_2d_kernel(),
        split_gaussian(biot_savart_2d_kernel())[0],
    ]
    for expr in exprs:
        current = expr
        for depth in range(6):
            axis = int(rng.integers(0, 2))
            nxt = current.derive(axis)
            r = rng.uniform(0.5, 2.0)
            ang = rng.uniform(0, TWO_PI)
            y = r * np.array([math.cos(ang), math.sin(ang)])
            h = 1e-6
            step = np.zeros(2)
            step[axis] = h
            fd = (current.evaluate(y + step) - current.evaluate(y - step)) / (2 * h)
            exact = nxt.evaluate(y)
            scale = np.max(np.abs(exact)) + 1.0
            np.testing.assert_allclose(exact, fd, atol=2e-6 * scale)
            current = nxt


def test_circle_means_vanish():
    kernels_2d = {
        "sqg": sqg_velocity_kernel(),
        "euler2d": biot_savart_2d_kernel(),
        "strain": strain_2d_kernel(),
    }
    for name, k in kernels_2d.items():
        inner, outer = split_gaussian(k)
        for expr in (k, inner, outer):
            for radius in (0.5, 1.0, 2.0):
                mean = circle_mean(expr, radius, 64)
                assert np.max(np.abs(mean)) < 1e-12, (name, radius)
    # the tight cases quoted for the plain kernels
    assert np.max(np.abs(circle_mean(sqg_velocity_kernel(), 1.0, 64))) < 1e-15
    inner, _ = split_gaussian(sqg_velocity_kernel())
    assert np.max(np.abs(circle_mean(inner, 0.5, 64))) < 1e-15


def test_sphere_mean_vanishes_for_3d_kernels():
    biot_savart_3d = catalog("euler3d").velocity_kernel
    assert np.max(np.abs(circle_mean(biot_savart_3d, 1.0, 24))) < 1e-12
    assert np.max(np.abs(circle_mean(strain_3d_kernel(), 1.0, 24))) < 1e-12


def test_derivative_bound_quick():
    samples = bound_samples(150, 2, seed=3)
    inner, outer = split_gaussian(sqg_velocity_kernel())
    rep_in = verify_derivative_bound(inner, 32.0, 2, 3, samples, gaussian_decay=True)
    assert rep_in["passed"], rep_in
    rep_out = verify_derivative_bound(outer, 32.0, 0, 3, samples, gaussian_decay=False)
    assert rep_out["passed"], rep_out
    # order 0 of the inner kernel: |K_in| |y|^2 e^{|y|^2/2} <= 1/(2 pi)
    assert rep_in["worst_ratio_per_order"][0] <= 1.0 / TWO_PI + 1e-12


def test_derivative_bound_fails_with_small_constant():
    samples = bound_samples(150, 2, seed=4)
    inner, _ = split_gaussian(sqg_velocity_kernel())
    rep = verify_derivative_bound(inner, 1.0, 2, 3, samples, gaussian_decay=True)
    assert not rep["passed"]
    assert rep["worst_ratio"] > 1.0


def test_derivative_bound_fails_on_non_finite_ratio():
    # a NaN constant gives a finite order-0 ratio (nan**0 == 1) and NaN
    # ratios above it, which must not be dropped as smaller than 1
    samples = bound_samples(50, 2, seed=4)
    inner, _ = split_gaussian(sqg_velocity_kernel())
    rep = verify_derivative_bound(inner, math.nan, 2, 2, samples, gaussian_decay=True)
    assert math.isfinite(rep["worst_ratio_per_order"][0])
    assert math.isnan(rep["worst_ratio"])
    assert not rep["passed"]


def test_regularize_bounded_at_origin():
    reg = regularize(biot_savart_2d_kernel(), 0.1)
    ts = np.array([1e-3, 1e-4, 1e-5])
    pts = np.stack([ts, np.zeros_like(ts)], axis=-1)
    mags = np.linalg.norm(reg.evaluate(pts), axis=-1)
    assert np.all(mags[1:] < mags[:-1])  # vanishes in the limit
    assert mags[-1] < 1e-3


def test_regularize_far_field_unchanged():
    delta = 0.05
    reg = regularize(sqg_velocity_kernel(), delta)
    y = np.array([10 * delta, 0.0])
    np.testing.assert_allclose(
        reg.evaluate(y), sqg_velocity_kernel().evaluate(y), rtol=1e-14
    )


@pytest.mark.parametrize("model", ["sqg", "euler2d", "euler3d"])
@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_catalog_components_have_one_parity(model, delta):
    """K(-y) = parity K(y) for every component the jet route streams."""
    entry = catalog(model)
    y = bound_samples(64, entry.velocity_kernel.dim, seed=2)
    for expr in (entry.velocity_kernel, entry.gradient_kernel):
        if delta:
            expr = regularize(expr, delta)
        for comp in expr.comps:
            assert comp.parity in (1, -1)
            assert np.array_equal(comp.evaluate(-y), comp.parity * comp.evaluate(y))


def test_mixed_parity_has_none():
    def t(mono):
        return KernelTerm(Fraction(1), 0, mono, 2, Fraction(0))

    assert ScalarKernel.build(2, [t((1, 0)), t((0, 1))]).parity == -1
    assert ScalarKernel.build(2, [t((1, 0)), t((0, 0))]).parity is None
    assert ScalarKernel.zero(2).parity == 1
