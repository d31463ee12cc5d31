"""The degenerate Krawtchouk polynomial family K_n and its Appell companion P_n.

The canonical definitions are generating series:

    sum_n K_n(x) t^n / n!  =  ((1+t)/(1+qt))^x / (1 + lam*r*log(1+qt))^(beta/lam)
    sum_n P_n(x) z^n / n!  =  e^(x z) / L(z),

with L the measure's Laplace transform.  P is an Appell sequence
(P_n' = n P_{n-1}); K is the same sequence pushed through the substitution
z = theta(t), which makes it Sheffer in x: its lowering operator is
zeta(d/dx), zeta = theta^{-1}, so zeta(D) K_n = n K_{n-1} (acceptance
2c), and its derivative rule picks up the theta coefficients (see
test_polys).  Every other construction here (coefficient recurrence,
basis changes through the Riordan tables, the double Stirling sum,
partial Bell polynomial formulas) is an independent route to the same
members, and the tests hold all routes to exact rational equality.  A basis
change is a triangular sum sum_{k<=n} w(n,k) b_k (``_triangular_sums``); the
epsilon and Bell routes, the addition identities and the monomial expansion
are binomial convolutions sum_k binom(n,k) a_{n-k} b_k (``combinat.binomial_sum``).
Member n reads series terms and arguments through index n only, so every
route builds to order n_max.
Routes suffixed "literal" evaluate alternate printed forms whose residuals
the audit reports; they are not expected to match.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .combinat import (
    _C1_ROWS,
    _TABLES,
    binomial_sum,
    bracket_y,
    classical_rows,
    deg_falling,
    faa_derivative,
    stirling2,
    theta_series,
    theta_triangle,
    zeta_triangle,
)
from .config import Params, deg_exp_series, exact_moments, laplace_series
from .series import FrozenValue, TSeries, XPoly, as_fraction, log1p_scaled_series

K_ROUTES = (
    "series",
    "epsilon",
    "from-p",
    "bell-corrected",
    "bell-literal",
    "stirling-oracle",
    "stirling-literal",
)
P_ROUTES = ("p-series", "p-bell", "p-from-k", "p-stirling2")


class PolyFamily(FrozenValue):
    """A finite Appell-style family: members[n] has degree n, members[0] == 1."""

    _fields = ("members", "route")

    def __init__(self, members: tuple[XPoly, ...], route: str):
        super().__init__(members, route)
        if not self.route.endswith("literal"):
            if self.members[:1] != (1,):  # an empty family has no member 0
                raise ValueError(f"route {self.route}: member 0 must be 1")
            for n, m in enumerate(self.members):
                if m.degree != n:
                    raise ValueError(f"route {self.route}: member {n} has degree {m.degree}")

    def __getitem__(self, n: int) -> XPoly:
        return self.members[n]


# ---------------------------------------------------------------------------
# coefficient data
# ---------------------------------------------------------------------------

def xi_series(params: Params, order: int) -> TSeries:
    """Series of r*log(1+qt)."""
    return params.r * log1p_scaled_series(params.q, order)


def xi_derivs(n_max: int, params: Params) -> list[Fraction]:
    """Derivatives at 0 of r*log(1+qt): value r (-1)^(m-1) (m-1)! q^m for m >= 1."""
    out = [Fraction(0)]
    for m in range(1, n_max + 1):
        out.append(params.r * Fraction((-1) ** (m - 1) * math.factorial(m - 1)) * params.q**m)
    return out


def deg_exp_xi_series(params: Params, order: int) -> TSeries:
    """Series of (1 + lam*r*log(1+qt))^(beta/lam), the generating denominator."""
    return deg_exp_series(xi_series(params, order), params)


def mu_coeffs(n_max: int, params: Params) -> list[Fraction]:
    """Derivatives mu_k at 0 of the generating denominator, via the
    composition-derivative formula with outer derivatives (beta)_{j,lam}."""
    outer = [deg_falling(params.beta, j, params.lam) for j in range(n_max + 1)]
    inner = xi_derivs(n_max, params)
    return faa_derivative(outer, inner, n_max)


def c_coeffs(n_max: int, params: Params) -> list[Fraction]:
    """Normalized coefficients of the reciprocal denominator.

    c_0 = 1 and c_n = -sum_{i=1}^{n} binom(n,i) r^{-i} mu_i c_{n-i};
    equivalently n! r^{-n} times the n-th coefficient of the reciprocal
    series (the dual route checked by the tests).  Fraction-free: c_n = C_n / D^n,
    C_n = -sum_i binom(n,i) w_i C_{n-i} with integers w_i = D^i r^{-i} mu_i.
    """
    scaled = [params.r**-i * m for i, m in enumerate(mu_coeffs(n_max, params))]
    den = math.lcm(*(s.denominator for s in scaled))
    w = [s.numerator * den**i // s.denominator for i, s in enumerate(scaled)]
    C = [1]
    for n in range(1, n_max + 1):
        C.append(-sum(math.comb(n, i) * w[i] * C[n - i] for i in range(1, n + 1)))
    return [Fraction(c, den**n) for n, c in enumerate(C)]


def _triangular_sums(weight, basis) -> tuple[XPoly, ...]:
    """members[n] = sum_{k<=n} weight(n, k) * basis[k] for each n < len(basis):
    the assembly of the basis changes, whose weights are not binomial."""
    members = []
    for n in range(len(basis)):
        acc = XPoly()
        for k in range(n + 1):
            acc = acc + weight(n, k) * basis[k]
        members.append(acc)
    return tuple(members)


def _bell_sums(args, basis) -> tuple[XPoly, ...]:
    """members[n] = sum_k binom(n,k) A_{n-k} basis[k] for each n < len(basis), with
    A_j = sum_i (-1)^i i! B_{j,i}(args), the composition derivative with the
    outer derivatives (-1)^i i! of 1/y at y = 1."""
    outer = [(-1) ** i * math.factorial(i) for i in range(len(basis))]
    consts = faa_derivative(outer, args, len(basis) - 1)
    return tuple(binomial_sum(n, consts.__getitem__, basis.__getitem__) for n in range(len(basis)))


# ---------------------------------------------------------------------------
# the K family, five ways
# ---------------------------------------------------------------------------

# Only the canonical series routes keep their families (the last _TABLES
# (parameter point, n_max) pairs), because the other routes, the identities
# and the operators read them again; every other route builds afresh.

@lru_cache(maxsize=_TABLES)
def K_series(params: Params, n_max: int) -> PolyFamily:
    """Canonical route: n! times the t^n coefficient of the generating series,
    exp(x theta(t)) over its denominator, truncated at order n_max."""
    omega_x = (theta_series(params.q, n_max) * XPoly.x()).exp()  # ((1+t)/(1+qt))^x
    psi = omega_x * deg_exp_xi_series(params, n_max).reciprocal()
    return PolyFamily(tuple(psi.derivative_list()), "series")


def K_epsilon(params: Params, n_max: int) -> PolyFamily:
    """Assembly from the coefficient recurrence, a binomial convolution over
    the bracket factorials [x]_k = k! epsilon_k(x):
    K_n = sum_k binom(n,k) r^(n-k) c_{n-k} [x]_k."""
    consts = [params.r**j * c for j, c in enumerate(c_coeffs(n_max, params))]
    brackets = [bracket_y(k, params.q) for k in range(n_max + 1)]
    members = tuple(
        binomial_sum(n, consts.__getitem__, brackets.__getitem__) for n in range(n_max + 1)
    )
    return PolyFamily(members, "epsilon")


def K_from_P(params: Params, n_max: int) -> PolyFamily:
    """Basis change from the Appell companions: K_n = sum_m T(n,m) P_m, with
    T(n,m) = n! [z^n] theta^m / m! (the paper's varpi(m,n)/m!), read from
    ``theta_triangle``."""
    rows = theta_triangle(params.q)
    members = _triangular_sums(lambda n, m: rows[n][m], P_series(params, n_max).members)
    return PolyFamily(members, "from-p")


def K_bell(params: Params, n_max: int, variant: str = "corrected") -> PolyFamily:
    """Partial-Bell-polynomial route through the values at 0 and the
    bracket factorials: K_n = sum_k binom(n,k) A_{n-k} [x]_k with
    A_j = sum_i (-1)^i i! B_{j,i}(args), the composition derivative with the
    outer derivatives (-1)^i i! of 1/y at y = 1.

    variant="corrected" feeds the denominator derivatives mu_j (the
    arguments the derivation actually produces); variant="literal" feeds
    the measure's moments instead, as the alternate printed form does.
    """
    if variant not in ("corrected", "literal"):
        raise ValueError(f"unknown K_bell variant {variant!r}")
    if variant == "corrected":
        args = mu_coeffs(n_max, params)
    else:
        args = exact_moments(params, n_max)
    members = _bell_sums(args, [bracket_y(k, params.q) for k in range(n_max + 1)])
    return PolyFamily(members, f"bell-{variant}")


def stirling_transition(n: int, k: int, q, upper: str = "plus") -> Fraction:
    """Double Stirling sum sum_j (-1)^(k-j) sum_m binom(n,m) s(m,j) s(n-m,k-j) q^(n-m).

    upper="plus" runs the inner sum to n-k+j (the bounds forced by the
    supports of the Stirling numbers): since theta = log(1+t) - log(1+qt),
    it is the binomial convolution of the Stirling columns of the two logs
    and equals n! [z^n] theta^k / k!.  upper="minus" runs it to n-k-j, the
    alternate printed bound kept for the audit.  Each term is (-1)^(n-j)
    c(m,j) c(n-m,k-j) over the unsigned rows c(m, .), read once per call; the
    integer terms are summed per power of q, and evaluated once in q.
    """
    if upper not in ("plus", "minus"):
        raise ValueError(f"unknown bound variant {upper!r}")
    q = as_fraction(q)
    rows = [_C1_ROWS[m] for m in range(n + 1)]
    by_power = [0] * (n + 1)  # by_power[e]: integer coefficient of q^e, e = n - m
    for j in range(k + 1):
        hi = n - k + j if upper == "plus" else n - k - j
        sign = -1 if (n - j) % 2 else 1
        for m in range(j, hi + 1):
            by_power[n - m] += sign * math.comb(n, m) * rows[m][j] * rows[n - m][k - j]
    num, den = q.numerator, q.denominator
    return Fraction(sum(c * num**e * den ** (n - e) for e, c in enumerate(by_power)), den**n)


def K_stirling(params: Params, n_max: int, variant: str = "oracle") -> PolyFamily:
    """Expansion of K_n over the companions with the double Stirling sum as
    weights: K_n = sum_k stirling_transition(n, k) P_k.

    variant="oracle" runs the inner sum to its support bound n-k+j, which
    gives n! [z^n] theta^k / k! without reading the [1, theta] table;
    variant="literal" uses the printed inner bound n-k-j.
    """
    if variant not in ("oracle", "literal"):
        raise ValueError(f"unknown K_stirling variant {variant!r}")
    upper = "plus" if variant == "oracle" else "minus"
    members = _triangular_sums(
        lambda n, k: stirling_transition(n, k, params.q, upper), P_series(params, n_max).members
    )
    return PolyFamily(members, f"stirling-{variant}")


def classical_K(p, r, n_max: int) -> PolyFamily:
    """Classical Krawtchouk family: n! [t^n] (1+t)^x (1+qt)^(-x-r), exact for
    rational r, grown by its three-term recurrence (``combinat.classical_rows``)."""
    rows = classical_rows(1 - as_fraction(p), as_fraction(r))
    return PolyFamily(tuple(rows[n] for n in range(n_max + 1)), "classical")


# ---------------------------------------------------------------------------
# the companion Appell family P, four ways
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_TABLES)
def P_series(params: Params, n_max: int) -> PolyFamily:
    """Canonical route: n! [z^n] of e^(xz) times the reciprocal Laplace series,
    truncated at order n_max."""
    x = XPoly.x()
    exz = TSeries([x**n / math.factorial(n) for n in range(n_max + 1)], n_max)
    series = exz * laplace_series(params, n_max).reciprocal()
    return PolyFamily(tuple(series.derivative_list()), "p-series")


def P_bell(params: Params, n_max: int) -> PolyFamily:
    """Bell-polynomial route: P_n = sum_k binom(n,k) [sum_i (-1)^i i! B_{n-k,i}(M)] x^k,
    with M the exact moment vector."""
    x = XPoly.x()
    members = _bell_sums(exact_moments(params, n_max), [x**k for k in range(n_max + 1)])
    return PolyFamily(members, "p-bell")


def P_from_K(params: Params, n_max: int) -> PolyFamily:
    """Inverse basis change: P_n = sum_m Z(n,m) K_m, with
    Z(n,m) = n! [z^n] zeta^m / m! (the paper's varrho(m,n)/m!), read from
    ``zeta_triangle``."""
    rows = zeta_triangle(params.q)
    members = _triangular_sums(lambda n, m: rows[n][m], K_series(params, n_max).members)
    return PolyFamily(members, "p-from-k")


def stirling2_weight(n: int, k: int, q) -> Fraction:
    """Weight of K_k in the second-kind-Stirling expansion of P_n, p = 1 - q:
    sum_{j=k}^{n} binom(j-1,k-1) q^(j-k)/p^j j! S(n,j) / k! for k >= 1, and
    delta_{n,0} at k = 0, which the series power zeta^0 = 1 gives.  With
    q = a/b and p = c/d, the sum times b^(n-k) c^n is one integer sum whose
    summand j is binom(j-1,k-1) j! S(n,j) a^(j-k) b^(n-j) d^j c^(n-j), taken
    as binom(j-1,k-1) j! S(n,j) (ad)^(j-k) (bc)^(n-j) with d^k factored out."""
    if k == 0:
        return int(n == 0)
    q = as_fraction(q)
    p = 1 - q
    a, b, c, d = q.numerator, q.denominator, p.numerator, p.denominator
    total = sum(
        math.comb(j - 1, k - 1) * math.factorial(j) * stirling2(n, j)
        * (a * d) ** (j - k) * (b * c) ** (n - j)
        for j in range(k, n + 1)
    )
    return Fraction(total * d**k, b ** (n - k) * c**n * math.factorial(k))


def P_from_K_stirling2(params: Params, n_max: int) -> PolyFamily:
    """Second-kind-Stirling route: P_n = sum_k stirling2_weight(n, k) K_k, the
    weights n! [z^n] zeta^k / k! written as sums of Stirling numbers S(n, j)."""
    members = _triangular_sums(
        lambda n, k: stirling2_weight(n, k, params.q), K_series(params, n_max).members
    )
    return PolyFamily(members, "p-stirling2")


# ---------------------------------------------------------------------------
# monomial expansion and addition identities
# ---------------------------------------------------------------------------

def monomial_from_K(params: Params, n_max: int) -> list[XPoly]:
    """x^n for n = 0..n_max rebuilt from the K family through the companion
    basis: sum_k binom(n,k) M(n-k) P_k(x), with M the moments and
    P_k = sum_m Z(k,m) K_m the members of ``P_from_K``."""
    companions = P_from_K(params, n_max).members
    moments = exact_moments(params, n_max)
    return [binomial_sum(n, moments.__getitem__, companions.__getitem__) for n in range(n_max + 1)]


def _in_y(coeffs, n: int) -> TSeries:
    """The series in y of order n with these coefficients, lowest first; it
    raises rather than truncate, so no residual term can be dropped."""
    if len(coeffs) > n + 1:
        raise ValueError(f"degree {len(coeffs) - 1} in y exceeds the series order {n}")
    return TSeries(coeffs, n)


def _shifted(m: XPoly, n: int) -> TSeries:
    """m(x+y) as a series in y of order n over XPoly, by Taylor's formula:
    the coefficient of y^j is m^(j)(x) / j!."""
    derivatives = [m]
    for _ in range(m.degree):
        derivatives.append(derivatives[-1].derivative())
    return _in_y([d / math.factorial(j) for j, d in enumerate(derivatives)], n)


def addition_P3(params: Params, n_max: int, variant: str = "corrected") -> list[TSeries]:
    """Residuals of the three-fold addition identity for n = 0..n_max,

    K_n(x+y) - sum_{k+l+m=n} n!/(k!l!m!) K_k(x) K_l(y) mu_m,

    each a series in y of order n whose coefficient j is the XPoly in x that
    multiplies y^j.  The corrected reading pairs the second factor with y;
    the literal variant repeats x there (as the alternate printed form
    does) and is nonzero in general.  Zero residual means the identity holds.
    """
    if variant not in ("corrected", "literal"):
        raise ValueError(f"unknown P3 variant {variant!r}")
    k_fam = K_series(params, n_max)
    mu = mu_coeffs(n_max, params)
    # pairs[j] = sum_k binom(j,k) K_k(x) K_{j-k}(second), a series in y of order j
    pairs = []
    for j in range(n_max + 1):
        if variant == "corrected":
            seconds = [_in_y(m.coeffs, j) for m in k_fam.members[: j + 1]]
        else:
            seconds = [TSeries([m], j) for m in k_fam.members[: j + 1]]
        pairs.append(binomial_sum(j, seconds.__getitem__, k_fam.__getitem__))
    return [
        _shifted(m, n) - binomial_sum(n, lambda j: _in_y(pairs[j].coeffs, n), mu.__getitem__)
        for n, m in enumerate(k_fam.members)
    ]


def addition_P4(params: Params, n_max: int) -> list[TSeries]:
    """Residuals of K_n(x+y) - sum_k binom(n,k) K_k(x) [y]_{n-k} for
    n = 0..n_max, each a series in y of order n over XPoly; zero when the
    bracket-factorial addition identity holds."""
    k_fam = K_series(params, n_max)
    brackets = [bracket_y(j, params.q).coeffs for j in range(n_max + 1)]
    return [
        _shifted(m, n) - binomial_sum(n, lambda j: _in_y(brackets[j], n), k_fam.__getitem__)
        for n, m in enumerate(k_fam.members)
    ]


# ---------------------------------------------------------------------------
# route dispatch
# ---------------------------------------------------------------------------

# route name -> builder(params, n_max)
_ROUTES = {
    "series": K_series,
    "epsilon": K_epsilon,
    "from-p": K_from_P,
    "bell-corrected": lambda params, n_max: K_bell(params, n_max, "corrected"),
    "bell-literal": lambda params, n_max: K_bell(params, n_max, "literal"),
    "stirling-oracle": lambda params, n_max: K_stirling(params, n_max, "oracle"),
    "stirling-literal": lambda params, n_max: K_stirling(params, n_max, "literal"),
    "p-series": P_series,
    "p-bell": P_bell,
    "p-from-k": P_from_K,
    "p-stirling2": P_from_K_stirling2,
    "classical": lambda params, n_max: classical_K(params.p, params.r, n_max),
}


def family(params: Params, n_max: int, route: str) -> PolyFamily:
    """Build a family by route name (see K_ROUTES and P_ROUTES)."""
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return _ROUTES[route](params, n_max)
