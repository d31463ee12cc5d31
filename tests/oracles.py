"""Reference forms the tests hold the library to.

Each is an independent route to a value the package computes another way:
the Riordan tables' column recurrence in Fraction arithmetic, the
composition and partition sums behind those tables (their cost grows
exponentially in n), the second-kind Stirling weights summed term by term,
the inverse series zeta of theta, series composition by Horner's rule, the
classical Krawtchouk family as a product of two binomial series, and
polynomials as plain lists of Fractions.  None of them is part of the
library, and no module of ``degenkraw`` imports this one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from degenkraw.combinat import GrowingTable, kappa, stirling2
from degenkraw.series import TSeries, XPoly, as_fraction, expm1_series, gen_binomial


# ---------------------------------------------------------------------------
# compositions and partial Bell polynomials
# ---------------------------------------------------------------------------

def compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Ordered m-tuples of positive integers summing to n, lexicographic by first part.

    Yields exactly binom(n-1, m-1) tuples; empty for m > n (not an error),
    and for m == 0 only n == 0 produces the empty tuple.
    """
    if n < 0 or m < 0:
        raise ValueError("compositions requires nonnegative arguments")
    if m == 0:
        if n == 0:
            yield ()
        return
    if m > n:
        return
    if m == 1:
        yield (n,)
        return
    for first in range(1, n - m + 2):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def _bell_multiplicities(n: int, k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Multiplicity patterns ((part, count), ...) with sum(count)=k, sum(part*count)=n."""

    def rec(remaining_n, remaining_k, max_part):
        if remaining_k == 0:
            if remaining_n == 0:
                yield ()
            return
        # parts are at least 1, so remaining_n >= remaining_k must hold
        for part in range(min(max_part, remaining_n - remaining_k + 1), 0, -1):
            for count in range(1, remaining_n // part + 1):
                if count > remaining_k:
                    break
                for rest in rec(remaining_n - part * count, remaining_k - count, part - 1):
                    yield ((part, count),) + rest

    yield from rec(n, k, n - k + 1 if k else 0)


def bell_partial_by_partitions(n: int, k: int, xs: Sequence):
    """B_{n,k}(x_1, ..., x_{n-k+1}) summed over integer partitions, the
    reference form the tests hold ``bell_partial`` to.

    Sum over nonnegative multiplicities (i_1, ..., i_{n-k+1}) with
    sum i_j = k and sum j*i_j = n of
    n!/(i_1!...i_{n-k+1}!) * prod (x_j/j!)^{i_j}.
    """
    if not 0 <= k <= n:
        raise ValueError("bell_partial requires 0 <= k <= n")
    if k == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    if len(xs) < n - k + 1:
        raise ValueError(f"bell_partial needs {n - k + 1} arguments, got {len(xs)}")
    nfact = math.factorial(n)
    total = None
    for pattern in _bell_multiplicities(n, k):
        weight = Fraction(nfact)
        term = None
        for part, count in pattern:
            weight /= math.factorial(count) * math.factorial(part) ** count
            for _ in range(count):
                term = xs[part - 1] if term is None else term * xs[part - 1]
        term = weight if term is None else weight * term
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


def riordan_by_fractions(x: Callable[[int], object], size: int | None = None) -> GrowingTable:
    """Rows of the exponential Riordan array [1, X] by the column recurrence
    B_{n,k} = sum_{i=1}^{n-k+1} binom(n-1, i-1) x(i) B_{n-i,k-1}, run in
    Fraction (or XPoly) arithmetic term by term: the reference that
    ``riordan_triangle``, grown as integer numerators over one row
    denominator, is held to, rows, None entries and entry types alike."""

    def next_row(rows):
        n = len(rows)
        if n == 0:
            return (Fraction(1),)
        known = n if size is None else min(n, size)
        xs = [None] + [x(i) for i in range(1, known + 1)]
        row = [Fraction(0)]
        for k in range(1, n + 1):
            if n - k + 1 > known:
                row.append(None)
                continue
            acc = None
            for i in range(1, n - k + 2):
                term = math.comb(n - 1, i - 1) * xs[i] * rows[n - i][k - 1]
                acc = term if acc is None else acc + term
            row.append(acc)
        return tuple(row)

    return GrowingTable(next_row)


# ---------------------------------------------------------------------------
# composition sums: the reference forms of varpi, varrho and rho
# ---------------------------------------------------------------------------

def varpi_by_compositions(m: int, n: int, q) -> Fraction:
    """sum over compositions i_1+...+i_m = n of
    (-1)^{n+m} n! prod (1 - q^{i_j}) / i_j; the reference form of ``varpi``."""
    if m < 0 or n < 0 or m > n:
        raise ValueError("varpi requires 0 <= m <= n")
    q = as_fraction(q)
    if m == 0:
        return Fraction(1 if n == 0 else 0)
    sign = Fraction((-1) ** (n + m) * math.factorial(n))
    total = Fraction(0)
    for comp in compositions(n, m):
        prod = Fraction(1)
        for i in comp:
            prod *= (1 - q**i) / i
        total += prod
    return sign * total


def varrho_by_compositions(m: int, k: int, q) -> Fraction:
    """sum over compositions i_1+...+i_m = k of
    k!/(i_1!...i_m!) prod kappa_{i_j}; the reference form of ``varrho``."""
    if m < 0 or k < 0 or m > k:
        raise ValueError("varrho requires 0 <= m <= k")
    q = as_fraction(q)
    if m == 0:
        return Fraction(1 if k == 0 else 0)
    total = Fraction(0)
    for comp in compositions(k, m):
        prod = Fraction(1)
        for i in comp:
            prod *= kappa(i, q) / math.factorial(i)
        total += prod
    return math.factorial(k) * total


def rho_by_compositions(m: int, k: int, q, r, variant: str = "corrected") -> Fraction:
    """(-1)^{k+m} T times q^k r^m (corrected) or q^m (literal), where
    T = k! * sum over l_1+...+l_m = k of prod 1/l_i; the reference form of
    ``rho_scaling``."""
    if variant not in ("literal", "corrected"):
        raise ValueError(f"unknown rho variant {variant!r}")
    if m < 0 or k < 0 or m > k:
        raise ValueError("rho requires 0 <= m <= k")
    q, r = as_fraction(q), as_fraction(r)
    if m == 0:
        return Fraction(1 if k == 0 else 0)
    total = Fraction(0)
    for comp in compositions(k, m):
        prod = Fraction(1)
        for l in comp:
            prod /= l
        total += prod
    total *= math.factorial(k) * Fraction((-1) ** (k + m))
    if variant == "corrected":
        return total * q**k * r**m
    return total * q**m


def stirling2_weight_by_fractions(n: int, k: int, q) -> Fraction:
    """sum_{j=k}^{n} binom(j-1,k-1) q^(j-k)/p^j j! S(n,j) / k!, p = 1 - q, summed
    term by term in Fraction arithmetic, and delta_{n,0} at k = 0: the
    reference that ``polys.stirling2_weight``, one integer sum per weight, is
    held to."""
    if k == 0:
        return int(n == 0)
    q = as_fraction(q)
    p = 1 - q
    w = sum(
        math.comb(j - 1, k - 1) * q ** (j - k) / p**j * math.factorial(j) * stirling2(n, j)
        for j in range(k, n + 1)
    )
    return w / math.factorial(k)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class FracPoly:
    """A dense polynomial as a plain list of Fractions, lowest degree first
    with no trailing zeros: the reference that ``XPoly``, stored as integer
    numerators over one denominator, is held to.  Evaluation sums c_i v^i
    term by term, not by Horner's rule."""

    def __init__(self, coeffs=()):
        self.coeffs = [Fraction(c) for c in coeffs]
        while self.coeffs and self.coeffs[-1] == 0:
            self.coeffs.pop()

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return FracPoly((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))

    def __neg__(self):
        return FracPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, FracPoly):
            return FracPoly(c * other for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FracPoly(out)

    def __truediv__(self, scalar):
        if scalar == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return FracPoly(c / scalar for c in self.coeffs)

    def __pow__(self, n: int):
        result = FracPoly([1])
        for _ in range(n):
            result = result * self
        return result

    def __call__(self, value):
        total = FracPoly() if isinstance(value, FracPoly) else Fraction(0)
        for i, c in enumerate(self.coeffs):
            total = total + value**i * c
        return total

    def derivative(self):
        return FracPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def scale_arg(self, z):
        return FracPoly(c * Fraction(z) ** i for i, c in enumerate(self.coeffs))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def zeta_series(q: Fraction, order: int) -> TSeries:
    """Taylor series of (e^z - 1)/(1 - q e^z), the inverse of theta.

    Written as w/(p - q*w) with w = e^z - 1 and p = 1 - q so the constant
    term of the denominator is the unit p.
    """
    q = as_fraction(q)
    p = 1 - q
    w = expm1_series(order)
    denom = TSeries.one(order) - (q / p) * w
    return (w * denom.reciprocal()) * (Fraction(1) / p)


def exp_series(order: int) -> TSeries:
    """Taylor series of e^t."""
    return TSeries([Fraction(1, math.factorial(k)) for k in range(order + 1)], order)


def falling_factorial(v, n: int):
    """Classical falling factorial v(v-1)...(v-n+1); scalar or XPoly argument."""
    return gen_binomial(v, n) * math.factorial(n)


def compose(outer: TSeries, inner: TSeries) -> TSeries:
    """outer(inner(t)) truncated at the shared order; inner(0) must be 0."""
    outer._check(inner)
    if not inner.coeffs[0] == 0:
        raise ValueError("composition requires inner constant term 0")
    result = TSeries([outer.coeffs[outer.order]], outer.order)
    for k in range(outer.order - 1, -1, -1):
        result = result * inner + outer.coeffs[k]
    return result


def classical_by_series(p, r, n_max: int) -> tuple:
    """n! [t^n] (1+t)^x (1+qt)^(-x-r) for n <= n_max, q = 1 - p, from the
    product of the two binomial series; the reference form of ``classical_K``
    and, at r = 0, of the bracket factorials."""
    p, r = as_fraction(p), as_fraction(r)
    q = 1 - p
    x = XPoly.x()
    a = TSeries([gen_binomial(x, n) for n in range(n_max + 1)], n_max)
    b = TSeries([gen_binomial(-x - r, n) * q**n for n in range(n_max + 1)], n_max)
    return tuple((a * b).derivative_list())
