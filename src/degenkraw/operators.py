"""Chaos expansions over the K basis, scaling, and translation operators.

A polynomial is represented by its finite vector of coefficients against
the family K_0, K_1, ...; since deg K_n = n with leading coefficient p^n,
the basis change to monomials is triangular and exactly invertible.  The
scaling operator substitutes x -> z*x and the translation operator
substitutes x -> x+y; both also admit expansions in terms of the epsilon
coefficients and the bracket factorials, evaluated here so they can be
held to exact agreement with plain substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinat import binomial_sum, bracket_y, deg_falling, rho_scaling
from .config import Params
from .polys import K_series, P_series
from .series import XPoly, as_fraction


@dataclass(frozen=True)
class ChaosVector:
    """Coefficients phi_n of phi(x) = sum_n phi_n K_n(x); trailing zeros trimmed."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def make(cls, values) -> "ChaosVector":
        cs = [as_fraction(v) for v in values]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else Fraction(0)


def chaos_to_poly(v: ChaosVector, params: Params) -> XPoly:
    """Expand a chaos vector into the monomial basis."""
    if not v.coeffs:
        return XPoly()
    basis = K_series(params, v.degree).members
    acc = XPoly()
    for n, c in enumerate(v.coeffs):
        acc = acc + c * basis[n]
    return acc


def poly_to_chaos(p: XPoly, params: Params) -> ChaosVector:
    """Resolve a polynomial against the K basis by back substitution.

    Always solvable: the system is triangular with diagonal p^n != 0.
    """
    if p.is_zero():
        return ChaosVector.make(())
    basis = K_series(params, p.degree).members
    residue = p
    out = [Fraction(0)] * (p.degree + 1)
    for n in range(p.degree, -1, -1):
        c = residue.coeff(n) / basis[n].leading
        out[n] = c
        if c:
            residue = residue - c * basis[n]
    if not residue.is_zero():
        raise AssertionError("triangular solve left a nonzero residue")
    return ChaosVector.make(out)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def scale_substitution(v: ChaosVector, z, params: Params) -> ChaosVector:
    """The scaling operator as plain substitution x -> z*x (the canonical route)."""
    return poly_to_chaos(chaos_to_poly(v, params).scale_arg(as_fraction(z)), params)


def scaled_member(n: int, z, params: Params, variant: str = "corrected") -> XPoly:
    """K_n(z*x) via the epsilon/rho expansion
    n! sum_k epsilon_{n-k}(z x) sum_m rho(m,k) (-beta)_{m,lam} / (m! k!),
    the binomial convolution sum_k binom(n,k) [z x]_{n-k} W_k with
    W_k = sum_m rho(m,k) (-beta)_{m,lam} / m!.

    With the corrected rho weights this reproduces K_n with x scaled; the
    literal weights are evaluated for the audit.
    """
    z = as_fraction(z)
    q, r = params.q, params.r
    weights = [
        sum(
            rho_scaling(m, k, q, r, variant)
            * deg_falling(-params.beta, m, params.lam)
            / math.factorial(m)
            for m in range(k + 1)
        )
        for k in range(n + 1)
    ]
    return binomial_sum(n, lambda j: bracket_y(j, q).scale_arg(z), weights.__getitem__)


def scale_expansion(v: ChaosVector, z, params: Params, variant: str = "corrected") -> ChaosVector:
    """The scaling operator through the epsilon/rho expansion, back in the K basis."""
    if variant not in ("corrected", "literal"):
        raise ValueError(f"unknown scaling variant {variant!r}")
    acc = XPoly()
    for n, c in enumerate(v.coeffs):
        if c:
            acc = acc + c * scaled_member(n, z, params, variant)
    return poly_to_chaos(acc, params)


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------

def translate(v: ChaosVector, y, params: Params) -> ChaosVector:
    """The translation operator x -> x+y through the bracket factorials:

    coefficient of K_k becomes sum_{n>=k} binom(n,k) phi_n [y]_{n-k}.
    Agrees exactly with substitution into the monomial basis.
    """
    y = as_fraction(y)
    if not v.coeffs:
        return v
    top = v.degree
    brackets = [bracket_y(m, params.q)(y) for m in range(top + 1)]
    out = []
    for k in range(top + 1):
        acc = Fraction(0)
        for n in range(k, top + 1):
            acc += math.comb(n, k) * v.coeffs[n] * brackets[n - k]
        out.append(acc)
    return ChaosVector.make(out)


def translation_series_residuals(params: Params, y, order: int) -> list[XPoly]:
    """Order-by-order residuals of the statement that translation acts on the
    normalized exponential kernel as multiplication by e^(yz):

    P_n(x+y) - sum_k binom(n,k) y^(n-k) P_k(x)  for  n = 0..order.

    All-zero residuals verify the identity through the given order.
    """
    y = as_fraction(y)
    fam = P_series(params, order).members
    shift = XPoly((y, 1))  # substitute x -> x + y
    return [m(shift) - binomial_sum(n, lambda j: y**j, fam.__getitem__) for n, m in enumerate(fam)]
