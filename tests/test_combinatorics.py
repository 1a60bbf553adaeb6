"""Exact checks for the partition sets, Faa di Bruno formulas, and identities."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

import numpy as np
import pytest

from lagpaths.combinatorics import (
    PartitionMulti,
    S_n_identity,
    binomial_half,
    check_factorial_bound,
    convolution_identity,
    enumerate_partitions_1d,
    enumerate_partitions_multi,
    magic_identity_1d,
    magic_identity_multi,
    mi_order,
    multi_indices_up_to,
    partitions_by_alpha,
    sign_pow,
)
from reference import faa_di_bruno_multi, series_coefficients

F = Fraction


# exact references that only these tests need


def faa_di_bruno_1d(h_derivs: Sequence, g_derivs: Sequence, n: int):
    """n-th derivative of h(g(x)) from the derivative lists of h and g.

    ``h_derivs[k]`` is h^(k) evaluated at g(x0) and ``g_derivs[j]`` is
    g^(j)(x0); both lists run from index 0 to at least n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = h_derivs[0] * 0  # zero in the value type
    n_fact = factorial(n)
    for k in range(1, n + 1):
        inner = None
        for part in enumerate_partitions_1d(n, k):
            weight = Fraction(n_fact, 1)
            for kj in part.k:
                weight /= factorial(kj)
            term = weight
            for j, kj in enumerate(part.k, start=1):
                if kj:
                    term = term * (g_derivs[j] / factorial(j)) ** kj
            inner = term if inner is None else inner + term
        if inner is not None:
            total = total + h_derivs[k] * inner
    return total


def truncated_series_product(
    coeffs_list: Sequence[Sequence[Fraction]], order: int
) -> list[Fraction]:
    """Coefficients of the product of exact power series, truncated at order."""
    prod = [Fraction(1)] + [Fraction(0)] * order
    for coeffs in coeffs_list:
        new = [Fraction(0)] * (order + 1)
        for i, ci in enumerate(prod):
            if ci == 0:
                continue
            for j in range(order + 1 - i):
                cj = coeffs[j] if j < len(coeffs) else Fraction(0)
                if cj:
                    new[i + j] += ci * cj
        prod = new
    return prod


def test_binomial_half_values():
    assert binomial_half(0) == F(-1)
    assert binomial_half(1) == F(1, 2)
    assert binomial_half(2) == F(-1, 8)
    # direct product (1/2)(-1/2)(-3/2)/3!
    assert binomial_half(3) == F(1, 2) * F(-1, 2) * F(-3, 2) / 6
    assert binomial_half(3) == F(1, 16)


def test_binomial_half_sign_convention():
    for j in range(0, 30):
        assert (-1) ** (j - 1) * binomial_half(j) >= 0


def test_factorial_bound_examples():
    assert check_factorial_bound(2) == (F(1, 4), F(1, 4), True)
    assert check_factorial_bound(3) == (F(3, 8), F(3, 8), True)
    assert check_factorial_bound(5)[2] is True


def test_factorial_bound_range():
    for j in range(2, 31):
        lhs, rhs, equal = check_factorial_bound(j)
        assert equal, (j, lhs, rhs)


def test_factorial_bound_rejects_small_j():
    with pytest.raises(ValueError):
        check_factorial_bound(1)


def _brute_partitions_1d(n):
    """Independent enumeration over the whole box {0..n}^n, by part count k."""
    box = np.indices((n + 1,) * n, dtype=np.int16).reshape(n, -1)
    sizes = np.arange(1, n + 1, dtype=np.int16) @ box
    out = {k: set() for k in range(1, n + 1)}
    for vec in box[:, sizes == n].T.tolist():
        out[sum(vec)].add(tuple(vec))
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_partitions_1d_match_brute_force(n):
    brute = _brute_partitions_1d(n)
    for k in range(1, n + 1):
        got = {p.k for p in enumerate_partitions_1d(n, k)}
        assert got == brute[k]


def test_partitions_1d_examples():
    assert [p.k for p in enumerate_partitions_1d(3, 2)] == [(1, 1, 0)]
    n = 6
    only = enumerate_partitions_1d(n, 1)
    assert [p.k for p in only] == [tuple([0] * (n - 1) + [1])]
    allones = enumerate_partitions_1d(n, n)
    assert [p.k for p in allones] == [tuple([n] + [0] * (n - 1))]


def test_partitions_1d_constraints_hold():
    for n in range(1, 9):
        for k in range(1, n + 1):
            for p in enumerate_partitions_1d(n, k):
                assert sum((j + 1) * kj for j, kj in enumerate(p.k)) == n
                assert sum(p.k) == k


def _brute_partitions_multi(n, alpha):
    """Independent enumeration: all s, all increasing l-tuples, all k-tuples."""
    subs = np.array(
        [k for k in itertools.product(*(range(a + 1) for a in alpha)) if sum(k) > 0],
        dtype=np.int16,
    ).reshape(-1, len(alpha))
    found = set()
    for s in range(1, n + 1):
        # every k-tuple, one column each; keep those that sum to alpha
        picks = np.indices((len(subs),) * s, dtype=np.int16).reshape(s, -1)
        fits = (sum(subs[p] for p in picks) == alpha).all(axis=-1)
        picks = picks[:, fits]
        orders = subs.sum(axis=1)[picks]
        for ls in itertools.combinations(range(1, n + 1), s):
            for col in np.flatnonzero(np.array(ls) @ orders == n):
                ks = tuple(map(tuple, subs[picks[:, col]].tolist()))
                found.add((ks, ls))
    return found


@pytest.mark.parametrize("d", [1, 2, 3])
def test_partitions_multi_match_brute_force(d):
    for n in range(1, 6):
        for alpha in multi_indices_up_to(n, d):
            by_s = enumerate_partitions_multi(n, alpha)
            got = {(p.ks, p.ls) for parts in by_s.values() for p in parts}
            assert got == _brute_partitions_multi(n, alpha), (n, alpha)


def test_partitions_multi_examples():
    by_s = enumerate_partitions_multi(1, (1, 0))
    assert by_s[1] == [PartitionMulti(((1, 0),), (1,))]
    assert all(not by_s[s] for s in range(2, 2))

    by_s = enumerate_partitions_multi(2, (1, 0))
    flat = [p for parts in by_s.values() for p in parts]
    assert flat == [PartitionMulti(((1, 0),), (2,))]

    by_s = enumerate_partitions_multi(2, (2, 0))
    flat = [p for parts in by_s.values() for p in parts]
    assert flat == [PartitionMulti(((2, 0),), (1,))]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_partitions_multi_constraints_hold(d):
    for n in range(1, 11):
        for alpha in multi_indices_up_to(n, d):
            for s, parts in enumerate_partitions_multi(n, alpha).items():
                for p in parts:
                    assert len(p.ks) == s
                    assert all(mi_order(k) > 0 for k in p.ks)
                    assert all(a < b for a, b in zip(p.ls, p.ls[1:]))
                    assert tuple(map(sum, zip(*p.ks))) == alpha
                    assert sum(mi_order(k) * l for k, l in zip(p.ks, p.ls)) == n


def test_partitions_by_alpha_consistent_with_per_alpha():
    for n in (3, 5):
        for d in (1, 2):
            grouped = partitions_by_alpha(n, d)
            for alpha in multi_indices_up_to(n, d):
                by_s = enumerate_partitions_multi(n, alpha)
                flat = tuple(
                    itertools.chain.from_iterable(by_s[s] for s in sorted(by_s))
                )
                assert grouped.get(alpha, ()) == flat


# the (n, d) range of the identity suite: d = 1 to n = 15, d = 2 and 3 to n = 10
_SUITE_RANGE = [(n, 1) for n in range(1, 16)] + [
    (n, d) for d in (2, 3) for n in range(1, 11)
]


def _coloured_partition_numbers(n_max, d):
    """[t^n] prod_l (1 - t^l)^(-d) for n = 0..n_max, by integer series steps."""
    coeffs = [1] + [0] * n_max
    for l in range(1, n_max + 1):
        for _ in range(d):  # multiply by 1 / (1 - t^l)
            for i in range(l, n_max + 1):
                coeffs[i] += coeffs[i - l]
    return coeffs


def test_partition_counts_match_generating_function():
    """Each l carries a multi-index k_l >= 0 of weight t^(l |k_l|), and the
    C(m + d - 1, d - 1) multi-indices of order m make (1 - t^l)^(-d)."""
    counts = {d: _coloured_partition_numbers(15, d) for d in (1, 2, 3)}
    assert counts[1][:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    for n, d in _SUITE_RANGE:
        total = sum(len(parts) for parts in partitions_by_alpha(n, d).values())
        assert total == counts[d][n], (n, d)
    for n in range(1, 16):
        total = sum(len(enumerate_partitions_1d(n, k)) for k in range(1, n + 1))
        assert total == counts[1][n], n


def test_magic_identity_multi_matches_generating_function():
    """sum_k (c t^l)^|k| x^k / k! = exp(c t^l sum_i x_i) turns the signed sum
    into sum_m (-d)^m [t^n] S(t)^m with S(t) = sum_l binomial_half(l) t^l."""
    series = [F(0)] + [binomial_half(l) for l in range(1, 16)]
    for n, d in _SUITE_RANGE:
        expected = sum(
            (-d) ** m * truncated_series_product([series] * m, n)[n]
            for m in range(1, n + 1)
        )
        assert magic_identity_multi(n, d)[0] == expected, (n, d)


def _reference_enumerate(n, d):
    """The former per-alpha search: one depth-first search for every alpha."""

    def sub_multi_indices(alpha):
        ranges = [range(a + 1) for a in alpha]
        return [k for k in itertools.product(*ranges) if sum(k) > 0]

    def per_alpha(alpha):
        by_s = {s: [] for s in range(1, n + 1)}

        def extend(parts, rem_alpha, rem_n, l_min):
            if sum(rem_alpha) == 0:
                if rem_n == 0 and parts:
                    ks = tuple(p[0] for p in parts)
                    ls = tuple(p[1] for p in parts)
                    by_s[len(parts)].append(PartitionMulti(ks, ls))
                return
            if rem_n < l_min:
                return
            for l in range(l_min, rem_n + 1):
                for k in sub_multi_indices(rem_alpha):
                    cost = sum(k) * l
                    if cost > rem_n:
                        continue
                    rem2 = tuple(a - b for a, b in zip(rem_alpha, k))
                    parts.append((k, l))
                    extend(parts, rem2, rem_n - cost, l + 1)
                    parts.pop()

        extend([], tuple(alpha), n, 1)
        for s in by_s:
            by_s[s].sort(key=lambda p: (p.ls, p.ks))
        return by_s

    out = {}
    for alpha in multi_indices_up_to(n, d):
        by_s = per_alpha(alpha)
        flat = tuple(itertools.chain.from_iterable(by_s[s] for s in sorted(by_s)))
        if flat:
            out[alpha] = flat
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_partitions_by_alpha_matches_per_alpha_reference(d):
    """Same keys in the same order, same partitions in the same order."""
    for n in range(1, 8):
        got = partitions_by_alpha(n, d)
        assert list(got.items()) == list(_reference_enumerate(n, d).items()), n


def test_faa_di_bruno_1d_examples():
    # f = exp(t**2): h = exp with all derivatives 1 at g(0) = 0, g = t**2
    h = [F(1)] * 3
    g = [F(0), F(0), F(2)]
    assert faa_di_bruno_1d(h, g, 2) == F(2)

    # composition with the identity returns g's own derivative
    n = 5
    rng = random.Random(7)
    g = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]
    h = [F(0), F(1)] + [F(0)] * (n - 1)
    assert faa_di_bruno_1d(h, g, n) == g[n]

    # f = g**2 with g(0) = 1, g' = 1: f'' = 2*(g'**2 + g*g'') = 2
    h = [F(1), F(2), F(2)]  # y**2 and derivatives at y = 1
    g = [F(1), F(1), F(0)]
    assert faa_di_bruno_1d(h, g, 2) == F(2)


def test_faa_di_bruno_multi_cubic_product():
    # h(y1, y2) = y1*y2, g(t) = (t, t**2) gives f(t) = t**3, so f'''(0) = 6
    g0 = (F(0), F(0))
    h_derivs = {}
    for alpha in multi_indices_up_to(3, 2):
        if alpha == (1, 1):
            h_derivs[alpha] = F(1)
        elif alpha == (1, 0):
            h_derivs[alpha] = g0[1]
        elif alpha == (0, 1):
            h_derivs[alpha] = g0[0]
        else:
            h_derivs[alpha] = F(0)
    g_derivs = [
        (F(0), F(0)),
        (F(1), F(0)),
        (F(0), F(2)),
        (F(0), F(0)),
    ]
    assert faa_di_bruno_multi(h_derivs, g_derivs, 3) == F(6)


def test_faa_di_bruno_multi_constant_inner():
    h_derivs = {alpha: F(3) for alpha in multi_indices_up_to(4, 2)}
    g_derivs = [(F(5), F(7))] + [(F(0), F(0))] * 4
    for n in range(1, 5):
        assert faa_di_bruno_multi(h_derivs, g_derivs, n) == F(0)


def test_faa_di_bruno_multi_missing_derivative_raises():
    with pytest.raises(KeyError):
        faa_di_bruno_multi({}, [(F(0),), (F(1),)], 1)


def test_faa_di_bruno_d1_agrees_with_1d():
    rng = random.Random(123)
    for n in range(1, 9):
        h = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n + 1)]
        g = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n + 1)]
        h_multi = {(k,): h[k] for k in range(1, n + 1)}
        g_multi = [(gj,) for gj in g]
        assert faa_di_bruno_multi(h_multi, g_multi, n) == faa_di_bruno_1d(h, g, n)


# -- exact polynomial oracle for compositions --------------------------------


def _poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_pow(p, k):
    out = [F(1)]
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def _mpoly_diff(coeffs: dict, axis: int) -> dict:
    out = {}
    for mono, c in coeffs.items():
        if mono[axis] == 0:
            continue
        new = list(mono)
        new[axis] -= 1
        out[tuple(new)] = out.get(tuple(new), F(0)) + c * mono[axis]
    return {m: c for m, c in out.items() if c != 0}


def _mpoly_eval(coeffs: dict, point) -> Fraction:
    total = F(0)
    for mono, c in coeffs.items():
        term = c
        for x, e in zip(point, mono):
            term *= x**e
        total += term
    return total


@pytest.mark.parametrize("d", [1, 2, 3])
def test_faa_di_bruno_multi_vs_polynomial_expansion(d):
    """Exact n-th derivatives of random polynomial compositions, n <= 8."""
    rng = random.Random(1000 + d)
    for trial in range(4):
        # random multivariate h of degree <= 2 per variable, random g of deg <= 4
        h = {}
        for mono in itertools.product(range(3), repeat=d):
            h[mono] = F(rng.randint(-4, 4))
        g = [
            [F(rng.randint(-3, 3)) for _ in range(5)]
            for _ in range(d)
        ]
        # exact composition f(t) = h(g(t)) by polynomial arithmetic
        f = [F(0)]
        for mono, c in h.items():
            term = [c]
            for i, e in enumerate(mono):
                term = _poly_mul(term, _poly_pow(g[i], e))
            f = [
                (f[k] if k < len(f) else F(0)) + (term[k] if k < len(term) else F(0))
                for k in range(max(len(f), len(term)))
            ]
        g0 = tuple(gi[0] for gi in g)
        for n in range(1, 9):
            h_derivs = {}
            for alpha in multi_indices_up_to(n, d):
                dcoeffs = h
                for axis, e in enumerate(alpha):
                    for _ in range(e):
                        dcoeffs = _mpoly_diff(dcoeffs, axis)
                h_derivs[alpha] = _mpoly_eval(dcoeffs, g0)
            g_derivs = [
                tuple(
                    factorial(l) * (gi[l] if l < len(gi) else F(0)) for gi in g
                )
                for l in range(n + 1)
            ]
            expected = factorial(n) * (f[n] if n < len(f) else F(0))
            got = faa_di_bruno_multi(h_derivs, g_derivs, n)
            assert got == expected, (d, trial, n)


def test_magic_identity_1d_small_values():
    assert magic_identity_1d(1) == (F(-1, 2), F(-1, 2), True)
    assert magic_identity_1d(2) == (F(3, 8), F(3, 8), True)


def test_magic_identity_1d_range():
    for n in range(1, 16):
        lhs, rhs, equal = magic_identity_1d(n)
        assert equal, (n, lhs, rhs)


def test_magic_identity_multi_d1_matches_1d():
    for n in range(1, 13):
        lhs, rhs, ratio = magic_identity_multi(n, 1)
        assert ratio == 1
        assert (lhs, rhs) == magic_identity_1d(n)[:2]


def test_magic_identity_multi_d2_discrepancy():
    lhs, rhs, ratio = magic_identity_multi(1, 2)
    assert lhs == F(-1)
    assert rhs == F(-1, 2)
    assert ratio == 2


def test_magic_identity_multi_higher_d_ratios_are_finite():
    for d in (2, 3):
        for n in range(1, 6):
            lhs, rhs, ratio = magic_identity_multi(n, d)
            assert rhs != 0
            assert ratio == lhs / rhs


def test_series_coefficients():
    assert series_coefficients(0) == (F(1), F(1))
    assert series_coefficients(1) == (F(1, 2), F(1, 2))
    assert series_coefficients(3) == (F(5, 16), F(1, 16))
    for m in range(25):
        a_m, b_m = series_coefficients(m)
        assert a_m >= 0 and b_m >= 0


def test_S_n_identity_examples_and_range():
    triple, closed, equal, bound = S_n_identity(1)
    assert (triple, closed, equal, bound) == (F(3, 2), F(3, 2), True, True)
    for n in range(1, 41):
        _, _, equal, bound = S_n_identity(n)
        assert equal and bound, n


def test_S_n_generating_function_cross_check():
    """Coefficient n of (1-t)**(-1/2) * (2-(1-t)**(1/2))**2 equals the triple sum."""
    order = 20
    a_series = [series_coefficients(m)[0] for m in range(order + 1)]
    b_series = [series_coefficients(m)[1] for m in range(order + 1)]
    prod = truncated_series_product([a_series, b_series, b_series], order)
    for n in range(1, order + 1):
        assert prod[n] == S_n_identity(n)[0], n


def test_convolution_identity_range():
    for m in range(1, 41):
        lhs, rhs, equal = convolution_identity(m)
        assert equal, (m, lhs, rhs)


def test_convolution_identity_examples():
    assert convolution_identity(1) == (F(1), F(1), True)
    assert convolution_identity(30)[2] is True
    # the displayed closed form misses the constant of the generating
    # function at m = 0: the true convolution value is a_0*b_0 = 1, while
    # 4*(m+1)*(-1)**m*(1/2 choose m+1) evaluates to 2 there
    lhs, rhs, equal = convolution_identity(0)
    assert lhs == F(1)
    assert rhs == F(2)
    assert equal is False


# -- the former Fraction implementations, kept as exact references ------------


@lru_cache(maxsize=None)
def _reference_binomial_half(j):
    if j == 0:
        return F(-1)
    num = F(1)
    for i in range(j):
        num *= F(1, 2) - i
    return num / factorial(j)


@lru_cache(maxsize=None)
def _reference_series_coefficients(m):
    a_m = 2 * (m + 1) * sign_pow(m) * _reference_binomial_half(m + 1)
    b_m = sign_pow(m - 1) * _reference_binomial_half(m)
    return a_m, b_m


def _reference_magic_identity_1d(n):
    lhs = F(0)
    for k in range(1, n + 1):
        for part in enumerate_partitions_1d(n, k):
            weight = F((-1) ** k * factorial(k))
            for kj in part.k:
                weight /= factorial(kj)
            term = weight
            for j, kj in enumerate(part.k, start=1):
                if kj:
                    term *= _reference_binomial_half(j) ** kj
            lhs += term
    rhs = 2 * (n + 1) * _reference_binomial_half(n + 1)
    return lhs, rhs, lhs == rhs


def _reference_magic_identity_multi(n, d):
    lhs = F(0)
    for alpha, partitions in partitions_by_alpha(n, d).items():
        order = mi_order(alpha)
        outer = F((-1) ** order * factorial(order))
        inner = F(0)
        for part in partitions:
            term = F(1)
            for k, l in zip(part.ks, part.ls):
                term *= _reference_binomial_half(l) ** mi_order(k)
                for ki in k:
                    term /= factorial(ki)
            inner += term
        lhs += outer * inner
    rhs = 2 * (n + 1) * _reference_binomial_half(n + 1)
    return lhs, rhs, lhs / rhs


def _reference_S_n_identity(n):
    triple = F(0)
    for r in range(n + 1):
        for m in range(r + 1):
            a_m, _ = _reference_series_coefficients(m)
            _, b_rm = _reference_series_coefficients(r - m)
            _, b_nr = _reference_series_coefficients(n - r)
            triple += a_m * b_rm * b_nr
    closed = (
        F(16 * n - 10, 2 * n - 1) * (n + 1) * (-1) ** n
        * _reference_binomial_half(n + 1)
    )
    bound = 8 * (n + 1) * (-1) ** n * _reference_binomial_half(n + 1)
    return triple, closed, triple == closed, triple <= bound


def _reference_convolution_identity(m):
    lhs = F(0)
    for i in range(m + 1):
        a_i, _ = _reference_series_coefficients(i)
        _, b_mi = _reference_series_coefficients(m - i)
        lhs += a_i * b_mi
    rhs = 4 * (-1) ** m * (m + 1) * _reference_binomial_half(m + 1)
    return lhs, rhs, lhs == rhs


def _assert_same(got, want, case):
    """Equal values of equal types, entry by entry."""
    assert got == want, case
    assert [type(v) for v in got] == [type(v) for v in want], case


def test_partition_sums_match_fraction_reference():
    """The integer sums over one common denominator give the reduced
    Fractions of the former per-term Fraction sums, over the suite's range."""
    for n in range(1, 16):
        _assert_same(magic_identity_1d(n), _reference_magic_identity_1d(n), n)
    for n, d in _SUITE_RANGE:
        _assert_same(
            magic_identity_multi(n, d), _reference_magic_identity_multi(n, d), (n, d)
        )


def test_coefficient_sums_match_fraction_reference():
    for n in range(1, 41):
        _assert_same(S_n_identity(n), _reference_S_n_identity(n), n)
    for m in range(0, 41):
        _assert_same(convolution_identity(m), _reference_convolution_identity(m), m)
        _assert_same(series_coefficients(m), _reference_series_coefficients(m), m)
        assert binomial_half(m) == _reference_binomial_half(m)
