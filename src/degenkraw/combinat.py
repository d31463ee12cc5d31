"""Exact combinatorial kernels.

Stirling numbers of both kinds, partial Bell triangles, degenerate
falling factorials, and the named coefficient families that drive the
polynomial identities: eta (log-quotient Taylor numbers), kappa (its
inverse series), epsilon (coefficients of ((1+t)/(1+qt))^x) and the
bracket factorials [y]_n, the triangles of theta and zeta (the weights of
the two basis changes), and the two variants of the scaling weights rho.
epsilon and the bracket factorials are one table per q, the associated
sequence of theta ([x]_n = n! epsilon_n(x)) and the classical Krawtchouk
family at r = 0, grown by its three-term recurrence (``classical_rows``).

The canonical definition of every coefficient family is its generating
series.  One core computes them: the exponential Riordan array [1, X] of a
series X(z) = sum_j x_j z^j / j!, whose entry (n, k) is n! [z^n] X^k / k!,
the partial Bell polynomial B_{n,k}(x_1, x_2, ...).  ``theta_triangle`` and
``zeta_triangle`` are that array for X = theta and zeta, one table per q;
``bell_triangle`` (read by faa_derivative) builds a fresh one per call from
its exact argument vector.  The array grows each row fraction-free, as
integer numerators over one row denominator (the content and primitive
part of Knuth, TAOCP vol. 2, 4.5.1), and makes one Fraction per entry.
Every table grows on demand in time polynomial in n.
"""

from __future__ import annotations

import math
import operator
import threading
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import lru_cache

from .series import TSeries, XPoly, as_fraction, gen_binomial, log1p_scaled_series

# Tables of each kind (one per q) kept at once; each holds every row grown
# so far.
_TABLES = 32


class GrowingTable:
    """Entries t[0], t[1], ... of a table whose next entry is a function of
    the entries before it.  Each entry is computed once, in order, and kept.

    Growth holds a lock, so concurrent readers see exactly the entries a
    sequential reader would.
    """

    __slots__ = ("_next", "_entries", "_lock")

    def __init__(self, next_entry: Callable[[list], object]):
        self._next = next_entry
        self._entries: list = []
        self._lock = threading.Lock()

    def __getitem__(self, n: int):
        if len(self._entries) <= n:
            with self._lock:
                while len(self._entries) <= n:
                    self._entries.append(self._next(self._entries))
        return self._entries[n]


# ---------------------------------------------------------------------------
# Stirling numbers (triangular tables, grown on demand)
# ---------------------------------------------------------------------------

def _next_c1_row(row: tuple) -> tuple:
    """Row m+1 of the unsigned Stirling numbers of the first kind from row m:
    c(m+1, k) = c(m, k-1) + m c(m, k)."""
    m = len(row) - 1
    return tuple(a + m * b for a, b in zip((0,) + row, row + (0,)))


def _next_s2_row(row: tuple) -> tuple:
    # S(m+1, k) = S(m, k-1) + k S(m, k)
    return tuple(a + k * b for k, (a, b) in enumerate(zip((0,) + row, row + (0,))))


def _stirling_rows(step: Callable[[tuple], tuple]) -> GrowingTable:
    """Rows 0, 1, ... of a Stirling triangle with T(0, 0) = 1, each grown by `step`."""
    return GrowingTable(lambda rows: step(rows[-1]) if rows else (1,))


_S2_ROWS = _stirling_rows(_next_s2_row)
_C1_ROWS = _stirling_rows(_next_c1_row)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k): set partitions of n into k blocks.

    Generating function: (e^z - 1)^k = k! sum_{n>=k} S(n,k) z^n/n!.
    """
    if n < 0 or k < 0:
        raise ValueError("Stirling arguments must be nonnegative")
    if k > n:
        return 0
    return _S2_ROWS[n][k]


def stirling1_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind c(n,k) = |s(n,k)|."""
    if n < 0 or k < 0:
        raise ValueError("Stirling arguments must be nonnegative")
    if k > n:
        return 0
    return _C1_ROWS[n][k]


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k).

    Convention: log(1+z)^k = k! sum_{n>=k} s(n,k) z^n/n!, equivalently
    x(x-1)...(x-n+1) = sum_k s(n,k) x^k.
    """
    c = stirling1_unsigned(n, k)
    return c if (n - k) % 2 == 0 else -c


# ---------------------------------------------------------------------------
# the exponential Riordan array [1, X]: partial Bell triangles
# ---------------------------------------------------------------------------

def _split(v) -> tuple:
    """(numerator, denominator) of an exact Riordan argument: an int or a
    Fraction splits into two integers, an XPoly stays whole over 1."""
    return (v, 1) if isinstance(v, XPoly) else (v.numerator, v.denominator)


def riordan_triangle(x: Callable[[int], object], size: int | None = None) -> GrowingTable:
    """Rows of the exponential Riordan array [1, X], X(z) = sum_{j>=1} x(j) z^j / j!.

    Row n holds n! [z^n] X(z)^k / k! = B_{n,k}(x(1), x(2), ...) for
    k = 0..n, grown by the column recurrence
    B_{n,k} = sum_{i=1}^{n-k+1} binom(n-1, i-1) x(i) B_{n-i,k-1}
    on numerators over one row denominator D_n = lcm_i(d_i D_{n-i}), d_i the
    denominator of x(i) (an XPoly argument is its own numerator over 1).
    The first N rows cost O(N^3) integer (or XPoly) operations and O(N^2)
    Fraction normalizations: entry k is its numerator times 1/D_n, an XPoly
    if the numerator is one.  With `size` only x(1)..x(size) exist; an entry
    that would need a later argument is None.
    """
    args = []  # (numerator, denominator) of x(1), x(2), ...
    dens = []  # the row denominators D_0, D_1, ...
    cols = []  # cols[k]: numerators of B_{k,k}, B_{k+1,k}, ... over their D_n

    def next_row(rows):
        n = len(rows)
        if n == 0:
            dens.append(1)
            cols.append([1])
            return (Fraction(1),)
        known = n if size is None else min(n, size)
        while len(args) < known:
            args.append(_split(x(len(args) + 1)))
        den = math.lcm(*(d * dens[n - i] for i, (_, d) in enumerate(args[:known], 1)))
        # weights[n - i] = binom(n-1, i-1) x(i) D_n / (d_i D_{n-i}), None past `known`,
        # so column k-1 of rows k-1..n-1 meets weights[k-1:] in order
        weights = [None] * (n - known) + [
            math.comb(n - 1, i - 1) * (den // (args[i - 1][1] * dens[n - i])) * args[i - 1][0]
            for i in range(known, 0, -1)
        ]
        nums = [0] + [
            sum(map(operator.mul, cols[k - 1], weights[k - 1 :])) if n - k < known else None
            for k in range(1, n + 1)
        ]
        cols.append([])
        for col, v in zip(cols, nums):
            col.append(v)
        dens.append(den)
        inv = Fraction(1, den)
        return tuple(None if v is None else v * inv for v in nums)

    return GrowingTable(next_row)


def bell_triangle(xs: Sequence) -> GrowingTable:
    """The partial Bell triangle of one exact argument vector (ints,
    Fractions, XPoly values): row n holds B_{n,k}(xs) for k = 0..n.

    Each call builds a fresh table; any other argument raises TypeError.
    """
    xs = tuple(xs)
    if not all(isinstance(v, (int, Fraction, XPoly)) for v in xs):
        raise TypeError("Bell triangles take exact arguments: ints, Fractions or XPoly values")
    return riordan_triangle(lambda j: xs[j - 1], len(xs))


def faa_derivative(outer_derivs: Sequence, inner_derivs: Sequence, n_max: int) -> list:
    """Derivatives 0..n_max of a composition phi(psi(t)) at a point.

    outer_derivs[k] = phi^{(k)} evaluated at psi(t0); inner_derivs[j] =
    psi^{(j)}(t0) for j >= 1 (index 0 is ignored).  Entry n is
    sum_{k=0}^{n} outer_derivs[k] * B_{n,k}(psi', psi'', ...), summed from its
    k = 0 term; every row comes from one Bell triangle of inner_derivs[1 : n_max + 1].
    """
    if n_max < 0:
        raise ValueError("derivative order must be nonnegative")
    if len(outer_derivs) < n_max + 1:
        raise ValueError("need outer derivatives through order n_max")
    if n_max >= 1 and len(inner_derivs) < n_max + 1:
        raise ValueError("need inner derivatives through order n_max")
    rows = bell_triangle(inner_derivs[1 : n_max + 1])
    return [
        sum(map(operator.mul, outer_derivs[1:], rows[n][1:]), outer_derivs[0] * rows[n][0])
        for n in range(n_max + 1)
    ]


# ---------------------------------------------------------------------------
# degenerate falling factorial
# ---------------------------------------------------------------------------

def deg_falling(beta, k: int, lam) -> Fraction:
    """Degenerate falling factorial (beta)_{k,lam} = prod_{j<k} (beta - j*lam); 1 at k=0."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    beta, lam = as_fraction(beta), as_fraction(lam)
    out = Fraction(1)
    for j in range(k):
        out *= beta - j * lam
    return out


# ---------------------------------------------------------------------------
# generating series for the coefficient families
# ---------------------------------------------------------------------------

def theta_series(q: Fraction, order: int) -> TSeries:
    """Taylor series of log((1+z)/(1+qz))."""
    return log1p_scaled_series(1, order) - log1p_scaled_series(q, order)


def binomial_sum(n: int, a: Callable[[int], object], b: Callable[[int], object]):
    """sum_{k=0}^{n} binom(n,k) a(n-k) b(k), the binomial convolution behind
    every Appell and Sheffer identity.  It starts from its k = 0 term, so the
    terms may lie in any ring (Fraction, XPoly, TSeries) with no zero given."""
    total = a(n) * b(0)
    for k in range(1, n + 1):
        total = total + math.comb(n, k) * a(n - k) * b(k)
    return total


def classical_rows(q: Fraction, r: Fraction) -> GrowingTable:
    """C_n = n! [t^n] (1+t)^x (1+qt)^(-x-r) for n = 0, 1, ..., p = 1 - q.  The
    series G solves (1+t)(1+qt) G' = (p x - q r - q r t) G, so C_0 = 1 and
    C_{n+1} = (p x - q r - (1+q) n) C_n - q n (n-1+r) C_{n-1}: the three-term
    recurrence of the classical Krawtchouk (Meixner-type) family, O(N^2)
    coefficient operations for the first N members."""
    lead = XPoly((-q * r, 1 - q))  # p x - q r

    def next_member(done):
        n = len(done) - 1  # at n = 0 the weight q n (n-1+r) of C_{n-1} is 0
        if n < 0:
            return XPoly.const(1)
        return (lead - (1 + q) * n) * done[n] - q * n * (n - 1 + r) * done[n - 1]

    return GrowingTable(next_member)


@lru_cache(maxsize=_TABLES)
def _bracket_table(q: Fraction) -> GrowingTable:
    """[y]_n = n! [t^n] ((1+t)/(1+qt))^y, the associated sequence of theta: the
    classical rows at r = 0, read by ``bracket_y`` as they are and by ``epsilon``
    divided by n!.  They read no Riordan table and no binomial sum, so the routes
    built on them stay independent of ``theta_triangle`` and ``epsilon_closed``."""
    return classical_rows(q, Fraction(0))


@lru_cache(maxsize=_TABLES)
def _kappa_table(q: Fraction) -> GrowingTable:
    """kappa_0, kappa_1, ... from (p - q w) zeta = w with w = e^z - 1, whose
    coefficients n! [z^n] w are 1 for n >= 1:
    kappa_n = (1 + q sum_{i=1}^{n-1} binom(n,i) kappa_{n-i}) / p."""
    p = 1 - q

    def next_kappa(done):
        n = len(done)
        if n == 0:
            return Fraction(0)
        return (1 + q * sum(math.comb(n, i) * done[n - i] for i in range(1, n))) / p

    return GrowingTable(next_kappa)


def eta(k: int, q) -> Fraction:
    """Taylor numbers of log((1+z)/(1+qz)): eta_0 = 0 and for k >= 1
    eta_k = (-1)^{k+1} (k-1)! (1 - q^k)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    q = as_fraction(q)
    if k == 0:
        return Fraction(0)
    return Fraction((-1) ** (k + 1) * math.factorial(k - 1)) * (1 - q**k)


def kappa(k: int, q) -> Fraction:
    """Taylor numbers of (e^z - 1)/(1 - q e^z): kappa_k = k! [z^k] zeta(z)."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return _kappa_table(as_fraction(q))[k]


def epsilon(k: int, q) -> XPoly:
    """Coefficient of t^k in ((1+t)/(1+qt))^x, as an exact polynomial in x."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return _bracket_table(as_fraction(q))[k] / math.factorial(k)


def epsilon_closed(k: int, q, variant: str = "derived") -> XPoly:
    """Closed binomial forms for epsilon_k, kept for auditing.

    variant="derived": sum_j (-1)^j binom(x, k-j) binom(x+j-1, j) q^j,
    which matches the series definition.
    variant="printed": the alternate form with binom(x+j-1, k-j) in place
    of binom(x+j-1, j); evaluated so the audit can report its residual.
    """
    if variant not in ("derived", "printed"):
        raise ValueError(f"unknown epsilon variant {variant!r}")
    q = as_fraction(q)
    x = XPoly.x()
    total = XPoly()
    for j in range(k + 1):
        second = gen_binomial(x + (j - 1), j if variant == "derived" else k - j)
        total = total + Fraction((-1) ** j) * q**j * gen_binomial(x, k - j) * second
    return total


def bracket_y(n: int, q) -> XPoly:
    """Bracket factorial [y]_n = sum_k binom(n,k) q^k (y)_{n-k} (-y)_k = n! epsilon_n(y).

    Returned as a polynomial in the translation variable; equals
    n! [z^n] exp(y * log((1+z)/(1+qz))), grown by ``classical_rows`` at r = 0."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _bracket_table(as_fraction(q))[n]


# ---------------------------------------------------------------------------
# basis-change and scaling weights
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_TABLES)
def theta_triangle(q: Fraction) -> GrowingTable:
    """Exponential Riordan array [1, theta]: row n holds n! [z^n] theta^k / k!
    = B_{n,k}(eta_1, eta_2, ...) for k = 0..n."""
    return riordan_triangle(lambda j: eta(j, q))


@lru_cache(maxsize=_TABLES)
def zeta_triangle(q: Fraction) -> GrowingTable:
    """Exponential Riordan array [1, zeta]: row n holds n! [z^n] zeta^k / k!
    = B_{n,k}(kappa_1, kappa_2, ...) for k = 0..n."""
    return riordan_triangle(lambda j: kappa(j, q))


def rho_scaling(m: int, k: int, q, r, variant: str = "corrected") -> Fraction:
    """Scaling-expansion weight rho(m, k), in the literal and corrected variants.

    Both share k! [t^k] log(1+t)^m = m! s(k, m) (signed Stirling numbers of
    the first kind).  The corrected variant q^k r^m m! s(k, m) equals
    k! [t^k] (r log(1+qt))^m and is what the scaling identity requires; the
    literal variant q^m m! s(k, m) is kept for the audit.
    """
    if variant not in ("literal", "corrected"):
        raise ValueError(f"unknown rho variant {variant!r}")
    if m < 0 or k < 0 or m > k:
        raise ValueError("rho requires 0 <= m <= k")
    q, r = as_fraction(q), as_fraction(r)
    weight = math.factorial(m) * stirling1(k, m)
    if variant == "corrected":
        return weight * q**k * r**m
    return weight * q**m
