"""Exact polynomial and truncated power-series arithmetic.

Every canonical computation in this package runs over arbitrary-precision
rationals (`fractions.Fraction`).  Two value types live here:

* ``XPoly``   dense univariate polynomials, stored as integer numerators
  over one denominator; their Fraction ``coeffs`` are built on first read,
* ``TSeries`` truncated formal power series of a fixed order N whose
  coefficients are Fractions or ``XPoly`` values; a polynomial in x and y
  is a series in y over ``XPoly`` (the addition identities).

Series arithmetic never consults coefficients beyond the truncation order,
so two pipelines that share an order are comparable coefficient by
coefficient with no tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class NonInvertibleSeries(ArithmeticError):
    """Raised when a series has no multiplicative inverse (constant term not a unit)."""


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'a/b' strings to Fraction; a bool is none of them."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

class XPoly:
    """Dense polynomial in one variable over the rationals.

    Stored as integer numerators ``_num``, lowest degree first with no
    trailing zeros, over one positive denominator ``_den``, in lowest terms:
    ``gcd(_den, *_num) == 1``.  The zero polynomial is ``()`` over 1 and
    reports degree -1.  Arithmetic runs on the integers with one gcd per
    result; ``coeffs``, the tuple of Fractions, is built on first read and
    kept.  The form is canonical, so ``==`` compares it directly.
    Instances are immutable and hashable.
    """

    __slots__ = ("_num", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: list, den: int) -> None:
        """Store num/den, den positive, in lowest terms."""
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num)
        if g != 1:
            num, den = [a // g for a in num], den // g
        object.__setattr__(self, "_num", tuple(num))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _of(cls, num: list, den: int) -> "XPoly":
        self = object.__new__(cls)
        self._set(num, den)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("XPoly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the stored form, not through __setattr__
        return XPoly._of, (self._num, self._den)

    @property
    def coeffs(self) -> tuple:
        try:
            return self._coeffs
        except AttributeError:
            cs = tuple(Fraction(a, self._den) for a in self._num)
            object.__setattr__(self, "_coeffs", cs)
            return cs

    @classmethod
    def const(cls, c) -> "XPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "XPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def coeff(self, i: int) -> Fraction:
        return Fraction(self._num[i], self._den) if 0 <= i < len(self._num) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        return self.coeff(self.degree)

    def is_zero(self) -> bool:
        return not self._num

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = XPoly.const(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        a, da, b, db = self._num, self._den, other._num, other._den
        if len(a) < len(b):
            a, da, b, db = b, db, a, da
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        out = [c * ma for c in a]
        for i, c in enumerate(b):
            out[i] += c * mb
        return XPoly._of(out, da * ma)

    __radd__ = __add__

    def __neg__(self):
        return XPoly._of([-a for a in self._num], self._den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, XPoly) else XPoly.const(-as_fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return XPoly._of([a * other.numerator for a in self._num], self._den * other.denominator)
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return XPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b, i):
                    out[j] += c * d
        return XPoly._of(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1 / as_fraction(scalar))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = XPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = XPoly.const(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __call__(self, value):
        """Evaluate by Horner's rule; `value` may be a scalar or an XPoly, and
        the result lies in its ring, a constant polynomial's too."""
        cs = self.coeffs
        if len(cs) <= 1:
            return 0 * value + self.coeff(0)
        result = cs[-1]
        for c in reversed(cs[:-1]):
            result = result * value + c
        return result

    def derivative(self) -> "XPoly":
        return XPoly._of([i * a for i, a in enumerate(self._num)][1:], self._den)

    def scale_arg(self, z) -> "XPoly":
        """Substitute x -> z*x for a scalar z."""
        z = as_fraction(z)
        d = max(self.degree, 0)
        zn, zd = z.numerator, z.denominator
        return XPoly._of([a * zn**i * zd ** (d - i) for i, a in enumerate(self._num)], self._den * zd**d)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# generalized binomial coefficients
# ---------------------------------------------------------------------------

def gen_binomial(v, n: int):
    """Generalized binomial coefficient v(v-1)...(v-n+1)/n!.

    `v` may be a Fraction (result Fraction) or an XPoly (result XPoly of
    degree n).  n must be nonnegative.
    """
    if n < 0:
        raise ValueError("binomial order must be nonnegative")
    if isinstance(v, (int, str)):
        v = as_fraction(v)
    result = XPoly.const(1) if isinstance(v, XPoly) else Fraction(1)
    for i in range(n):
        result = result * (v - i)
    return result / math.factorial(n)


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

def _unit_inverse(c):
    """Multiplicative inverse of a coefficient-ring unit, or raise."""
    if isinstance(c, XPoly):
        if c.degree != 0:
            raise NonInvertibleSeries("constant term is not a unit of the coefficient ring")
        return XPoly.const(Fraction(1) / c.coeff(0))
    if isinstance(c, int):
        c = Fraction(c)
    if c == 0:
        raise NonInvertibleSeries("series has zero constant term")
    return 1 / c


class TSeries:
    """Formal power series truncated at a fixed order N (terms t^0 .. t^N).

    Coefficients are Fractions or XPoly values; binary operations require
    both operands to share the order.  All arithmetic
    ignores coefficients beyond index N, so results are exact modulo t^{N+1}.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        cs = [as_fraction(c) if isinstance(c, int) else c for c in coeffs]
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be nonnegative")
        if len(cs) < order + 1:
            cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs[: order + 1]))

    def __setattr__(self, name, value):
        raise AttributeError("TSeries is immutable")

    def __reduce__(self):
        return TSeries, (self.coeffs, self.order)

    @classmethod
    def one(cls, order: int) -> "TSeries":
        return cls([Fraction(1)], order)

    def coeff(self, k: int):
        return self.coeffs[k]

    def _check(self, other: "TSeries"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} != {other.order}")

    def __add__(self, other):
        if isinstance(other, TSeries):
            self._check(other)
            return TSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], self.order)
        cs = list(self.coeffs)
        cs[0] = cs[0] + other
        return TSeries(cs, self.order)

    __radd__ = __add__

    def __neg__(self):
        return TSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, TSeries):
            self._check(other)
            return TSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return TSeries([c * other for c in self.coeffs], self.order)
        self._check(other)
        n = self.order
        out = []
        for k in range(n + 1):
            acc = self.coeffs[0] * other.coeffs[k]
            for i in range(1, k + 1):
                acc = acc + self.coeffs[i] * other.coeffs[k - i]
            out.append(acc)
        return TSeries(out, n)

    def __rmul__(self, other):
        return TSeries([other * c for c in self.coeffs], self.order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TSeries([other], self.order)
        if not isinstance(other, TSeries):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def reciprocal(self) -> "TSeries":
        """Inverse series: self * result == 1 through order N."""
        inv0 = _unit_inverse(self.coeffs[0])
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = self.coeffs[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out.append(-(inv0 * acc))
        return TSeries(out, self.order)

    def log1(self) -> "TSeries":
        """log of a series with constant term 1 (zero constant term result).

        Solves a * (log a)' = a' coefficient by coefficient, so the whole
        computation stays in the coefficient ring.
        """
        if not self.coeffs[0] == 1:
            raise ValueError("log requires constant term 1")
        out = [Fraction(0) * self.coeffs[0]]
        for n in range(1, self.order + 1):
            acc = n * self.coeffs[n]
            for k in range(1, n):
                acc = acc - (n - k) * (self.coeffs[k] * out[n - k])
            out.append(acc / n)
        return TSeries(out, self.order)

    def exp(self) -> "TSeries":
        """exp of a series with zero constant term (solves f' = u' f)."""
        if not self.coeffs[0] == 0:
            raise ValueError("exp requires zero constant term")
        out = [self.coeffs[0] + 1]
        for n in range(1, self.order + 1):
            acc = self.coeffs[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + k * (self.coeffs[k] * out[n - k])
            out.append(acc / n)
        return TSeries(out, self.order)

    def fracpow(self, e) -> "TSeries":
        """self**e for rational e, via exp(e * log(self)); constant term must be 1."""
        if not self.coeffs[0] == 1:
            raise ValueError("fractional power requires constant term 1")
        e = as_fraction(e)
        return (self.log1() * e).exp()

    def derivative_list(self):
        """Derivatives at 0: [k! * coeff_k for k = 0..N]."""
        return [math.factorial(k) * c for k, c in enumerate(self.coeffs)]

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self.coeffs[: min(self.order, 6) + 1])
        return f"TSeries(order={self.order}, [{shown}{', ...' if self.order > 6 else ''}])"


# ---------------------------------------------------------------------------
# stock series
# ---------------------------------------------------------------------------

def expm1_series(order: int) -> TSeries:
    """Taylor series of e^t - 1 (zero constant term)."""
    return TSeries([Fraction(0)] + [Fraction(1, math.factorial(k)) for k in range(1, order + 1)], order)


def log1p_scaled_series(c, order: int) -> TSeries:
    """Taylor series of log(1 + c*t) for rational c."""
    c = as_fraction(c)
    out = [Fraction(0)]
    for k in range(1, order + 1):
        out.append(Fraction((-1) ** (k + 1), k) * c**k)
    return TSeries(out, order)
