"""Exact combinatorics for high derivatives of compositions.

Everything here is exact; floating point is deliberately not used, so that
the identity checks are exact claims rather than approximations.  The
identity sums run on Python integers over one common denominator per call
and return reduced `fractions.Fraction` values.

The central objects are the partition sets indexing Faa di Bruno expansions:

* ``P(n, k)``   : 1D partitions, vectors (k_1,...,k_n) with sum(j*k_j) = n and
  sum(k_j) = k.
* ``P_s(n, a)`` : multivariate partitions, s nonzero multi-indices k_i summing
  to ``a`` together with strictly increasing positive integers l_i such that
  sum(|k_i| * l_i) = n.

On top of these sit the "magic" identities that collapse signed partition
sums of half-integer binomials into closed form, and the coefficient
identities (S_n, convolution) used to control products of such sums.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from typing import Mapping, NamedTuple, Sequence

MultiIndex = tuple[int, ...]


class Partition1D(NamedTuple):
    """A vector (k_1,...,k_n) with sum(j*k_j) = n and sum(k_j) = k_count."""

    k: tuple[int, ...]
    n: int
    k_count: int


class PartitionMulti(NamedTuple):
    """Element of P_s(n, alpha): multi-indices ks with strictly increasing ls."""

    ks: tuple[MultiIndex, ...]
    ls: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.ks)


def sign_pow(k: int) -> int:
    """(-1)**k as an exact integer, valid for negative k as well."""
    return -1 if k % 2 else 1


def mi_order(alpha: MultiIndex) -> int:
    """|alpha| = sum of the components."""
    return sum(alpha)


def mi_factorial(alpha: MultiIndex) -> int:
    """alpha! = product of the component factorials."""
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out


def multi_indices_up_to(n: int, d: int) -> list[MultiIndex]:
    """All multi-indices alpha of dimension d with 1 <= |alpha| <= n."""
    out = [
        alpha
        for alpha in itertools.product(range(n + 1), repeat=d)
        if 1 <= sum(alpha) <= n
    ]
    out.sort()
    return out


def _half_binomial(j: int) -> tuple[int, int]:
    """(1/2 choose j) as integers (num, den), with (1/2 choose 0) = -1.

    For j >= 1, (1/2 choose j) = (-1)**(j-1) * C(2j, j) / (4**j * (2j - 1));
    the pair is not reduced.
    """
    if j < 0:
        raise ValueError("j must be a non-negative integer")
    if j == 0:
        return -1, 1
    return sign_pow(j - 1) * comb(2 * j, j), 4**j * (2 * j - 1)


@lru_cache(maxsize=None)
def binomial_half(j: int) -> Fraction:
    """Half-integer binomial (1/2 choose j), with (1/2 choose 0) = -1.

    The nonstandard value at j = 0 makes (-1)**(j-1) * binomial_half(j) >= 0
    for every j >= 0, which is what the signed partition sums below rely on.
    """
    return Fraction(*_half_binomial(j))


def _exact_div(num: int, den: int) -> int:
    """num / den for a den known to divide num."""
    quot, rest = divmod(num, den)
    assert rest == 0, f"{den} does not divide {num}"
    return quot


def _partition_denominator(n: int) -> int:
    """4**n * n! * prod_{l <= n} (2l - 1)**(n // l).

    A common denominator of every term of the order-n partition sums below.
    A term is a product of (1/2 choose l)**m over pairs with sum(l * m) = n,
    divided by factorials of parts of the m.  So its 4**l factors multiply
    to 4**n; each l appears once with m <= n // l; and the factorials divide
    (sum m)!, which divides n! (a multinomial coefficient is an integer).
    """
    den = 4**n * factorial(n)
    for l in range(1, n + 1):
        den *= (2 * l - 1) ** (n // l)
    return den


def double_factorial(m: int) -> int:
    """m!! with the empty products (-1)!! = 1 and 0!! = 1."""
    if m < -1:
        raise ValueError("double factorial defined for m >= -1 here")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def check_factorial_bound(j: int) -> tuple[Fraction, Fraction, bool]:
    """Check j! * (-1)**(j-1) * (1/2 choose j) == (2j-3)!! / 2**j for j >= 2."""
    if j < 2:
        raise ValueError("the factorial identity is stated for j >= 2")
    lhs = factorial(j) * (-1) ** (j - 1) * binomial_half(j)
    rhs = Fraction(double_factorial(2 * j - 3), 2**j)
    return lhs, rhs, lhs == rhs


def enumerate_partitions_1d(n: int, k: int) -> list[Partition1D]:
    """The set P(n, k), ordered lexicographically on the k-vector."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if k > n:
        return []
    found: list[Partition1D] = []

    def extend(j: int, vec: list[int], rem_n: int, rem_k: int) -> None:
        if rem_k == 0:
            if rem_n == 0:
                found.append(Partition1D(tuple(vec) + (0,) * (n - len(vec)), n, k))
            return
        if rem_k * j > rem_n:  # every remaining part has size >= j
            return
        # parts of size j: k_j can be 0..min(rem_n//j, rem_k)
        for kj in range(min(rem_n // j, rem_k) + 1):
            vec.append(kj)
            extend(j + 1, vec, rem_n - j * kj, rem_k - kj)
            vec.pop()

    extend(1, [], n, k)
    found.sort(key=lambda p: p.k)
    return found


def enumerate_partitions_multi(
    n: int, alpha: MultiIndex
) -> dict[int, list[PartitionMulti]]:
    """All sets P_s(n, alpha) for s = 1..n, keyed by s.

    Returns empty lists when |alpha| > n.  Within each s the ordering is
    deterministic (lexicographic in the (ls, ks) encoding).  A view of
    `partitions_by_alpha(n, len(alpha))`, so the first call for an (n, d)
    enumerates and caches the partitions of every alpha of that order and
    dimension, not only those of this alpha.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if mi_order(alpha) < 1:
        raise ValueError("alpha must have positive order")
    by_s: dict[int, list[PartitionMulti]] = {s: [] for s in range(1, n + 1)}
    for part in partitions_by_alpha(n, len(alpha)).get(tuple(alpha), ()):
        by_s[part.s].append(part)
    return by_s


@lru_cache(maxsize=None)
def partitions_by_alpha(
    n: int, d: int
) -> dict[MultiIndex, tuple[PartitionMulti, ...]]:
    """All multivariate partitions for order n in dimension d, keyed by alpha.

    One depth-first search finds every P_s(n, alpha) at once.  Parts (k, l)
    come in strictly increasing l, and a part is taken only if what it leaves
    of n is 0 or can still pay for a part with a larger l, so every node of
    the search reaches a leaf.  Keys follow `multi_indices_up_to` order and
    each tuple is sorted by (s, ls, ks): `faa_di_bruno_multi` and
    `taylor.time_jets_oracle` sum floats in this order.

    Cached because the Faa di Bruno evaluations reuse the same index sets for
    every particle pair and every kernel component.
    """
    by_order: list[list[MultiIndex]] = [[] for _ in range(n + 1)]
    for k in multi_indices_up_to(n, d):
        by_order[mi_order(k)].append(k)
    groups: dict[MultiIndex, list[PartitionMulti]] = {}
    ks: list[MultiIndex] = []
    ls: list[int] = []

    def extend(rem_n: int, l_min: int) -> None:
        for l in range(l_min, rem_n + 1):
            for order in range(1, rem_n // l + 1):
                rest = rem_n - order * l
                if 0 < rest <= l:  # too little left for a part with l' > l
                    continue
                for k in by_order[order]:
                    ks.append(k)
                    ls.append(l)
                    if rest:
                        extend(rest, l + 1)
                    else:
                        part = PartitionMulti(tuple(ks), tuple(ls))
                        groups.setdefault(tuple(map(sum, zip(*ks))), []).append(part)
                    ks.pop()
                    ls.pop()

    extend(n, 1)
    return {
        alpha: tuple(sorted(groups[alpha], key=lambda p: (p.s, p.ls, p.ks)))
        for alpha in sorted(groups)
    }


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
    applies inside the partition products.
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


def magic_identity_1d(n: int) -> tuple[Fraction, Fraction, bool]:
    """Signed 1D partition sum of half-binomials against its closed form.

    lhs = sum over k and P(n,k) of (-1)**k * k!/prod(k_j!) * prod (1/2 choose j)**k_j,
    rhs = 2*(n+1)*(1/2 choose n+1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    den = _partition_denominator(n)
    half = [_half_binomial(j) for j in range(n + 1)]
    total = 0
    for k in range(1, n + 1):
        for part in enumerate_partitions_1d(n, k):
            num, part_den = sign_pow(k) * factorial(k), 1
            for j, kj in enumerate(part.k, start=1):
                if kj:
                    num *= half[j][0] ** kj
                    part_den *= half[j][1] ** kj * factorial(kj)
            total += num * _exact_div(den, part_den)
    lhs = Fraction(total, den)
    rhs = 2 * (n + 1) * binomial_half(n + 1)
    return lhs, rhs, lhs == rhs


def magic_identity_multi(
    n: int, d: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Multivariate analogue of the signed partition sum, reported not asserted.

    Returns (lhs, rhs, lhs/rhs).  For d = 1 the ratio is 1 for every n tested;
    for d >= 2 the two sides genuinely differ (already at n = 1, d = 2 the
    left side is -1 against -1/2), so callers archive the ratio instead of
    asserting equality.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    den = _partition_denominator(n)
    half = [_half_binomial(l) for l in range(n + 1)]
    total = 0
    for alpha, partitions in partitions_by_alpha(n, d).items():
        order = mi_order(alpha)
        inner = 0
        for part in partitions:
            num, part_den = 1, 1
            for k, l in zip(part.ks, part.ls):
                m = mi_order(k)
                num *= half[l][0] ** m
                part_den *= half[l][1] ** m * mi_factorial(k)
            inner += num * _exact_div(den, part_den)
        total += sign_pow(order) * factorial(order) * inner
    lhs = Fraction(total, den)
    rhs = 2 * (n + 1) * binomial_half(n + 1)
    return lhs, rhs, lhs / rhs


def _series_pair(m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(a_m, b_m) of `series_coefficients` as integer (num, den) pairs."""
    if m < 0:
        raise ValueError("m must be non-negative")
    num, den = _half_binomial(m + 1)
    a_m = (2 * (m + 1) * sign_pow(m) * num, den)
    num, den = _half_binomial(m)
    return a_m, (sign_pow(m - 1) * num, den)


def _series_numerators(n: int) -> list[tuple[list[int], int]]:
    """a_0..a_n and b_0..b_n, each series as integer numerators over its
    least common denominator: [(a numerators, den), (b numerators, den)]."""
    out = []
    for pairs in zip(*map(_series_pair, range(n + 1))):
        den = lcm(*(d for _, d in pairs))
        out.append(([num * (den // d) for num, d in pairs], den))
    return out


@lru_cache(maxsize=None)
def series_coefficients(m: int) -> tuple[Fraction, Fraction]:
    """The non-negative coefficient pair (a_m, b_m).

    a_m = 2*(m+1)*(-1)**m*(1/2 choose m+1) generates (1-t)**(-1/2);
    b_m = (-1)**(m-1)*(1/2 choose m) generates 2-(1-t)**(1/2).
    """
    a_m, b_m = _series_pair(m)
    return Fraction(*a_m), Fraction(*b_m)


def S_n_identity(n: int) -> tuple[Fraction, Fraction, bool, bool]:
    """Triple coefficient sum S_n against its closed form and its bound.

    S_n = sum over 0 <= m <= r <= n of a_m * b_{r-m} * b_{n-r}; the closed
    form is 4*a_n - b_n = (16n-10)/(2n-1) * (n+1)*(-1)**n*(1/2 choose n+1),
    and the bound is S_n <= 8*(n+1)*(-1)**n*(1/2 choose n+1) = 4*a_n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    (a, a_den), (b, b_den) = _series_numerators(n)
    total = 0
    for r in range(n + 1):
        for m in range(r + 1):
            total += a[m] * b[r - m] * b[n - r]
    triple = Fraction(total, a_den * b_den * b_den)
    closed = (
        Fraction(16 * n - 10, 2 * n - 1)
        * (n + 1)
        * (-1) ** n
        * binomial_half(n + 1)
    )
    bound = 8 * (n + 1) * (-1) ** n * binomial_half(n + 1)
    return triple, closed, triple == closed, triple <= bound


def convolution_identity(m: int) -> tuple[Fraction, Fraction, bool]:
    """Coefficient convolution sum against 4*(-1)**m*(m+1)*(1/2 choose m+1).

    lhs = sum_{i=0}^{m} a_i * b_{m-i} = 2*a_m for m >= 1.  At m = 0 the two
    sides genuinely differ (lhs = 1, rhs = 2): the product generating function
    (1-t)**(-1/2) * (2-(1-t)**(1/2)) = 2*(1-t)**(-1/2) - 1 carries a constant
    that only affects the 0-th coefficient.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    (a, a_den), (b, b_den) = _series_numerators(m)
    total = sum(a[i] * b[m - i] for i in range(m + 1))
    lhs = Fraction(total, a_den * b_den)
    rhs = 4 * (-1) ** m * (m + 1) * binomial_half(m + 1)
    return lhs, rhs, lhs == rhs
