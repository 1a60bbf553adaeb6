"""Term-algebra and numerical checks for the kernel catalog."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagpaths import cli
from lagpaths.dynamics import MODELS
from lagpaths.errors import SingularEvaluationError
from lagpaths.kernels import (
    KernelExpr,
    KernelTerm,
    SampleSet,
    ScalarKernel,
    biot_savart_2d_kernel,
    bound_samples,
    catalog,
    circle_mean,
    decompose_kin,
    regularize,
    split_gaussian,
    sqg_velocity_kernel,
    strain_2d_kernel,
    strain_3d_kernel,
    verify_derivative_bound,
)
from lagpaths.scenarios import seeded_sqg_cloud

F = Fraction
TWO_PI = 2.0 * math.pi


def _scalar(dim, *terms):
    return KernelExpr.scalar(ScalarKernel.build(dim, terms))


def derive(expr: KernelExpr, axis: int) -> KernelExpr:
    """Exact partial derivative of every component along axis (0-based)."""
    return KernelExpr(expr.dim, expr.shape, tuple(c.derive(axis) for c in expr.comps))


def component(expr: KernelExpr, *idx: int) -> ScalarKernel:
    """The component at index idx of the expression's shape."""
    flat = 0
    for i, n in zip(idx, expr.shape):
        flat = flat * n + i
    return expr.comps[flat]


def is_zero(k: KernelExpr | ScalarKernel) -> bool:
    """No term left in any component after canonical cancellation."""
    comps = k.comps if isinstance(k, KernelExpr) else (k,)
    return not any(c.rows for c in comps)


def perp_grad(expr: KernelExpr) -> KernelExpr:
    """Rotated gradient (-d/dy2, d/dy1) of a scalar 2D expression."""
    if expr.shape != () or expr.dim != 2:
        raise ValueError("perp_grad needs a scalar 2D expression")
    s = expr.comps[0]
    return KernelExpr.vector([-s.derive(1), s.derive(0)])


def test_derive_radial_power():
    inv_r = _scalar(2, KernelTerm(F(1), 0, (0, 0), 1, F(0)))
    d1 = derive(inv_r, 0)
    assert d1.comps[0].terms == (KernelTerm(F(-1), 0, (1, 0), 3, F(0)),)


def test_derive_monomial():
    y1 = _scalar(2, KernelTerm(F(1), 0, (1, 0), 0, F(0)))
    assert derive(y1, 0).comps[0].terms == (KernelTerm(F(1), 0, (0, 0), 0, F(0)),)
    assert is_zero(derive(y1, 1))


def test_gradient_of_biot_savart_is_strain_kernel():
    """The exact y-gradient of the 2D Biot-Savart kernel, entry by entry."""
    bs = biot_savart_2d_kernel()
    strain = strain_2d_kernel()
    for i in range(2):
        for k in range(2):
            grad_ik = bs.comps[i].derive(k)
            # strain entries carry |y|^(-4) with mixed monomials; compare
            # after canonicalization via subtraction
            assert is_zero(grad_ik - component(strain, i, k))


def test_evaluate_catalog_points():
    np.testing.assert_allclose(
        sqg_velocity_kernel().evaluate(np.array([1.0, 0.0])),
        [0.0, 1.0 / TWO_PI],
        atol=1e-16,
    )
    sqg, euler2d = (catalog(MODELS[m].kernel) for m in ("sqg", "euler2d"))
    np.testing.assert_allclose(
        sqg.velocity_kernel.evaluate(np.array([0.0, 1.0])),
        [-1.0 / TWO_PI, 0.0],
        atol=1e-16,
    )
    np.testing.assert_allclose(
        euler2d.velocity_kernel.evaluate(np.array([1.0, 0.0])),
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


def _catalog_kernels(dim):
    """Every catalog kernel of a dimension: whole, regularized, and as the
    two parts of its Gaussian split; in 2D also the stream-function split."""
    out = []
    for name in ("perp_riesz", "biot_savart_2d", "biot_savart_3d"):
        for expr in catalog(name):
            if expr.dim == dim:
                out += [expr, regularize(expr, 0.3), *split_gaussian(expr)]
    return out + list(decompose_kin()) if dim == 2 else out


@pytest.mark.parametrize("dim", [2, 3])
def test_shared_sample_set_gives_the_bytes_of_plain_arrays(dim):
    """One SampleSet serves every kernel and derivative up to order 3, its
    factors formed by whichever comes first; each value has the bytes of
    ``evaluate`` on the plain array."""
    y = bound_samples(40, dim, seed=11)
    shared = SampleSet(y)
    for expr in _catalog_kernels(dim):
        for alpha in itertools.product(range(4), repeat=dim):
            if sum(alpha) <= 3:
                deriv = expr.derive_multi(alpha)
                got, want = deriv.evaluate(shared), deriv.evaluate(y)
                assert got.shape == want.shape == (40,) + expr.shape
                assert got.tobytes() == want.tobytes(), (expr.shape, alpha)
                # and the bytes of the former evaluation, one np.full per term
                for k, comp in enumerate(deriv.comps):
                    ref = _reference_evaluate(comp.terms, y)
                    assert got.reshape(40, -1)[:, k].tobytes() == ref.tobytes()


def test_zero_sample_raises_on_every_route():
    y = bound_samples(8, 2, seed=1)
    y[3] = 0.0
    expr = sqg_velocity_kernel()
    for evaluate in (
        lambda: SampleSet(y),
        lambda: expr.evaluate(y),
        lambda: expr.comps[0].evaluate(y),
        lambda: verify_derivative_bound(expr, 32.0, 0, 2, y),
    ):
        with pytest.raises(SingularEvaluationError):
            evaluate()


def test_catalog_homogeneity():
    rng = np.random.default_rng(5)
    # velocity kernels: perp-Riesz of degree -2, Biot-Savart -1 (2D), -2 (3D)
    for model, degree in (("sqg", -2), ("euler2d", -1), ("euler3d", -2)):
        entry = catalog(MODELS[model].kernel)
        y = rng.normal(size=entry.velocity_kernel.dim)
        base = entry.velocity_kernel.evaluate(y)
        for s in (2.0, 1.0 / 3.0):
            scaled = entry.velocity_kernel.evaluate(s * y)
            np.testing.assert_allclose(scaled, s**degree * base, rtol=1e-13)
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
    # the catalog is keyed by kernel, not by model
    with pytest.raises(ValueError):
        catalog("sqg")


def _written_strain_2d() -> list[ScalarKernel]:
    """The 2D strain entries as term lists, row-major:
    [[2 y1 y2, y2^2 - y1^2], [y2^2 - y1^2, -2 y1 y2]] / (2 pi |y|^4)."""
    def t(c, mono):
        return KernelTerm(F(c), -1, mono, 4, F(0))

    e11 = ScalarKernel.build(2, [t(1, (1, 1))])
    e12 = ScalarKernel.build(2, [t(F(1, 2), (0, 2)), t(F(-1, 2), (2, 0))])
    e22 = ScalarKernel.build(2, [t(-1, (1, 1))])
    return [e11, e12, e12, e22]


def _written_strain_3d() -> list[ScalarKernel]:
    """Component [i, j, m], flat in (i, j, m) order, as the term list of
    (3 / 8 pi) ((x cross e_m)_i x_j + (x cross e_m)_j x_i) / |x|^5."""
    # (x cross e_m)_i = sign * x_axis, keyed by (m, i)
    cross = {
        (0, 1): (1, 2), (0, 2): (-1, 1), (1, 0): (-1, 2),
        (1, 2): (1, 0), (2, 0): (1, 1), (2, 1): (-1, 0),
    }
    comps = []
    for i, j, m in itertools.product(range(3), repeat=3):
        terms = []
        for a, b in ((i, j), (j, i)):
            if (m, a) in cross:
                sign, axis = cross[m, a]
                mono = [0, 0, 0]
                mono[axis] += 1
                mono[b] += 1
                terms.append(KernelTerm(sign * F(3, 8), -1, tuple(mono), 5, F(0)))
        comps.append(ScalarKernel.build(3, terms))
    return comps


def test_strain_kernels_are_the_derived_gradients():
    # the derived strain kernels are, term for term, the written ones
    for kernel, written in (
        (strain_2d_kernel(), _written_strain_2d()),
        (strain_3d_kernel(), _written_strain_3d()),
    ):
        assert len(kernel.comps) == len(written)
        for got, want in zip(kernel.comps, written):
            assert got == want


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
    assert is_zero(inner + outer - k)
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
    k1, k2 = decompose_kin()
    inner, _ = split_gaussian(sqg_velocity_kernel())
    assert is_zero(perp_grad(k1) + k2 - inner)
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
            assert is_zero(derive(derive(expr, i), j) - derive(derive(expr, j), i))
    K3 = strain_3d_kernel()
    assert is_zero(derive(derive(K3, 0), 2) - derive(derive(K3, 2), 0))


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
            nxt = derive(current, axis)
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
    biot_savart_3d = catalog(MODELS["euler3d"].kernel).velocity_kernel
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
    entry = catalog(MODELS[model].kernel)
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


# -- the former Fraction term algebra, kept as an exact reference -------------


def _reference_canonical(terms):
    work = list(terms)
    reduced = []
    while work:
        t = work.pop()
        if t.mono and t.mono[-1] >= 2:
            mono = list(t.mono)
            mono[-1] -= 2
            work.append(
                KernelTerm(t.coeff, t.pi_pow, tuple(mono), t.rpow - 2, t.grate)
            )
            for i in range(len(mono) - 1):
                other = list(mono)
                other[i] += 2
                work.append(
                    KernelTerm(-t.coeff, t.pi_pow, tuple(other), t.rpow, t.grate)
                )
        else:
            reduced.append(t)
    merged = {}
    for t in reduced:
        key = (t.mono, t.rpow, t.grate, t.pi_pow)
        merged[key] = merged.get(key, Fraction(0)) + t.coeff
    return tuple(
        KernelTerm(c, k[3], k[0], k[1], k[2]) for k, c in sorted(merged.items()) if c != 0
    )


def _reference_derive(terms, axis):
    new = []
    for t in terms:
        if t.mono[axis] > 0:
            mono = list(t.mono)
            mono[axis] -= 1
            new.append(
                KernelTerm(t.coeff * t.mono[axis], t.pi_pow, tuple(mono), t.rpow, t.grate)
            )
        if t.rpow != 0:
            mono = list(t.mono)
            mono[axis] += 1
            new.append(
                KernelTerm(-t.coeff * t.rpow, t.pi_pow, tuple(mono), t.rpow + 2, t.grate)
            )
        if t.grate != 0:
            mono = list(t.mono)
            mono[axis] += 1
            new.append(
                KernelTerm(-2 * t.grate * t.coeff, t.pi_pow, tuple(mono), t.rpow, t.grate)
            )
    return _reference_canonical(new)


def _reference_derivatives(comp, max_order):
    """Terms of every d^alpha comp with |alpha| <= max_order, by alpha, each
    one step from alpha minus its last nonzero axis."""
    out = {(0,) * comp.dim: comp.terms}
    for order in range(1, max_order + 1):
        for alpha in itertools.product(range(order + 1), repeat=comp.dim):
            if sum(alpha) == order:
                last = max(i for i, a in enumerate(alpha) if a)
                lower = alpha[:last] + (alpha[last] - 1,) + alpha[last + 1:]
                out[alpha] = _reference_derive(out[lower], last)
    return out


def _reference_evaluate(terms, y):
    """The batched evaluation, term by term from the exact terms."""
    r2 = np.sum(y * y, axis=-1)
    r = np.sqrt(r2)
    total = np.zeros(r2.shape)
    for t in terms:
        v = np.full(r2.shape, t.coeff_float())
        for i, e in enumerate(t.mono):
            if e:
                v = v * y[..., i] ** e
        if t.rpow:
            v = v * r ** (-float(t.rpow))
        if t.grate:
            v = v * np.exp(-float(t.grate) * r2)
        total += v
    return total


def _assert_derivatives_match_reference(expr, max_order):
    y = bound_samples(16, expr.dim, seed=4)
    refs = [_reference_derivatives(comp, max_order) for comp in expr.comps]
    for alpha in refs[0]:
        got = expr.derive_multi(alpha).comps
        for comp, ref in zip(got, refs):
            assert comp.terms == ref[alpha], alpha
            assert np.array_equal(comp.evaluate(y), _reference_evaluate(ref[alpha], y))


@pytest.mark.parametrize("label", sorted(cli.suite_kernels()))
def test_suite_kernel_derivatives_match_fraction_reference(label):
    """The integer derivatives give the terms of the former Fraction algebra,
    in the same order, and evaluate to the same bits."""
    expr = cli.suite_kernels()[label]
    _assert_derivatives_match_reference(expr, 5)


def test_oracle_kernel_derivatives_match_fraction_reference():
    """The regularized SQG kernel of the Faa di Bruno oracle, to order 8."""
    _, spec = seeded_sqg_cloud()
    expr = regularize(sqg_velocity_kernel(), spec.regularization_delta)
    _assert_derivatives_match_reference(expr, 8)
    # built from its terms in reverse, with two Gaussian rates and |y|^2 terms
    terms = expr.comps[0].derive_multi((2, 1)).terms[::-1]
    assert ScalarKernel.build(2, terms).terms == _reference_canonical(terms)


def test_strain_3d_derivatives_match_fraction_reference():
    """The 3D strain kernel of the suite's measured constant, to order 3."""
    expr = strain_3d_kernel()
    _assert_derivatives_match_reference(expr, 3)


def _sympy_catalog_kernel(model, gradient):
    """(symbols, |y|, components) of a catalog kernel, written out from the
    model formulas in sympy, independently of the term algebra."""
    import sympy as sp

    kernel = MODELS[model].kernel
    dim = 3 if kernel == "biot_savart_3d" else 2
    y = sp.symbols(f"y1:{dim + 1}", real=True)
    r = sp.sqrt(sum(v**2 for v in y))
    if kernel == "perp_riesz":  # velocity and gradient kernel: y_perp / (2 pi |y|^3)
        return y, r, [-y[1] / (2 * sp.pi * r**3), y[0] / (2 * sp.pi * r**3)]
    if dim == 2 and not gradient:
        return y, r, [-y[1] / (2 * sp.pi * r**2), y[0] / (2 * sp.pi * r**2)]
    if dim == 2:
        a, b = 2 * y[0] * y[1], y[1] ** 2 - y[0] ** 2
        return y, r, [c / (2 * sp.pi * r**4) for c in (a, b, b, -a)]
    if not gradient:
        return y, r, [v / (4 * sp.pi * r**3) for v in y]
    vec = sp.Matrix(y)
    cross = [vec.cross(sp.Matrix([int(k == m) for k in range(3)])) for m in range(3)]
    return y, r, [
        sp.Rational(3, 8) * (cross[m][i] * y[j] + cross[m][j] * y[i]) / (sp.pi * r**5)
        for i in range(3)
        for j in range(3)
        for m in range(3)
    ]


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(tuple(MODELS)),
    gradient=st.booleans(),
    delta=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
# strain_3d[0, 0, 0] is identically zero
@example(model="euler3d", gradient=True, delta=0.5, seed=0, data=None)
def test_derive_multi_matches_sympy(model, gradient, delta, seed, data):
    """Independent oracle: d^alpha of a catalog component, regularized or
    not, against sympy.diff of its closed form evaluated at 40 digits."""
    import mpmath
    import sympy as sp

    y, r, comps = _sympy_catalog_kernel(model, gradient)
    dim = len(y)
    if data is None:
        index, alpha = 0, (1, 1, 1)
    else:
        index = data.draw(st.integers(0, len(comps) - 1), label="component")
        alpha = data.draw(
            st.tuples(*[st.integers(0, 4)] * dim).filter(lambda a: sum(a) <= 4),
            label="alpha",
        )
    entry = catalog(MODELS[model].kernel)
    expr = entry.gradient_kernel if gradient else entry.velocity_kernel
    closed = comps[index]
    if delta:
        expr = regularize(expr, delta)
        closed = closed * (1 - sp.exp(-(r**2) / sp.Rational(delta) ** 2))
    axes = [v for v, a in zip(y, alpha) for _ in range(a)]
    exact = sp.diff(closed, *axes) if axes else closed
    pts = bound_samples(8, dim, seed=seed, rmin=0.5, rmax=4.0)
    got = expr.comps[index].derive_multi(alpha).evaluate(pts)
    if exact == 0:
        # the exact algebra cancels every term of an identically zero entry
        assert np.array_equal(got, np.zeros(len(pts)))
        return
    f = sp.lambdify(y, exact, "mpmath")
    with mpmath.workdps(40):
        want = np.array([float(f(*map(mpmath.mpf, p))) for p in pts])
    # the floor covers points where the derivative crosses zero
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
