"""The degenerate Pascal measure.

The measure depends on rational parameters (lambda < 0, beta > 0,
0 < p < 1, q = 1 - p, r > 0).  Its mass at n is the n-th Taylor
coefficient at w = 0 of

    w  |->  (1 + lam * u(w))^(beta/lam),     u(w) = r*log(p/(1 - q*w)),

which is the unique reading consistent with the Laplace transform, the
Gamma-mixture representation, normalization, and the classical limit.
The alternate closed-form pmf q^n/n! (beta)_{n,lam} (1+lam*r*log p)^(beta/lam - n)
does not normalize to 1; it is retained (``literal_*``) so the audit can
measure its deviation.

Everything transcendental runs in mpmath at a configurable number of
decimal digits; the Laplace-transform Taylor series, and hence every
moment, is exactly rational and is computed over Fraction.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath import mp

from .combinat import deg_falling, stirling1_unsigned, stirling2
from .series import TSeries, as_fraction, expm1_series, gen_binomial

DEFAULT_DIGITS = 60
_GUARD_DIGITS = 15


class DomainError(ValueError):
    """Raised when an evaluation point leaves the real domain of a formula."""


@dataclass(frozen=True)
class Params:
    """Model parameters; all exact rationals.

    Invariants: lam < 0, beta > 0, 0 < p < 1, q = 1 - p, r > 0.  Under
    these, 1 + lam*r*log(p) > 1 automatically (lam and log p are both
    negative).
    """

    lam: Fraction
    beta: Fraction
    p: Fraction
    q: Fraction
    r: Fraction

    @classmethod
    def make(cls, lam, beta, p, r) -> "Params":
        lam, beta, p, r = map(as_fraction, (lam, beta, p, r))
        return cls(lam=lam, beta=beta, p=p, q=1 - p, r=r)

    def __post_init__(self):
        if not self.lam < 0:
            raise ValueError("lambda must be negative")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0 < self.p < 1:
            raise ValueError("p must lie in (0, 1)")
        if self.q != 1 - self.p:
            raise ValueError("q must equal 1 - p")
        if not self.r > 0:
            raise ValueError("r must be positive")


def to_mpf(x):
    """Convert Fraction/int/float/str to mpf at the current precision."""
    return mpmath.mpmathify(x)


# ---------------------------------------------------------------------------
# degenerate exponential
# ---------------------------------------------------------------------------

def deg_exp(z, params: Params, digits: int = DEFAULT_DIGITS):
    """(1 + lam*z)^(beta/lam) for a real argument; requires 1 + lam*z > 0."""
    with mp.workdps(digits + _GUARD_DIGITS):
        base = 1 + to_mpf(params.lam) * to_mpf(z)
        if base <= 0:
            raise DomainError("degenerate exponential undefined: 1 + lambda*z <= 0")
        return mpmath.power(base, to_mpf(params.beta / params.lam))


def deg_exp_series(u: TSeries, params: Params) -> TSeries:
    """(1 + lam*u(t))^(beta/lam) as an exact series; u must have zero constant term."""
    if not u.coeff(0) == 0:
        raise ValueError("series argument must vanish at 0")
    return (params.lam * u + 1).fracpow(params.beta / params.lam)


# ---------------------------------------------------------------------------
# classical Pascal pmf
# ---------------------------------------------------------------------------

def classical_pmf(n: int, p, r, digits: int = DEFAULT_DIGITS):
    """Pascal (negative binomial) mass p^r binom(-r, n) (-q)^n.

    Exact Fraction when r is a positive integer, mpf otherwise.
    """
    if n < 0:
        raise ValueError("support is the nonnegative integers")
    p, r = as_fraction(p), as_fraction(r)
    q = 1 - p
    combinatorial = gen_binomial(-r, n) * (-q) ** n
    if r.denominator == 1:
        return p**r.numerator * combinatorial
    with mp.workdps(digits + _GUARD_DIGITS):
        return mpmath.power(to_mpf(p), to_mpf(r)) * to_mpf(combinatorial)


# ---------------------------------------------------------------------------
# exact Laplace-transform series and moments
# ---------------------------------------------------------------------------

def laplace_series(params: Params, order: int) -> TSeries:
    """Exact Taylor series in z of the measure's Laplace transform.

    Uses r*log(p/(1 - q*e^z)) = -r*log(1 - (q/p)(e^z - 1)), whose inner
    series has rational coefficients and zero constant term.
    """
    v = (params.q / params.p) * expm1_series(order)
    arg = -params.r * (TSeries.one(order) - v).log1()
    return deg_exp_series(arg, params)


def exact_moments(params: Params, m_max: int) -> list[Fraction]:
    """Moments 0..m_max of the measure, as exact rationals (m! times series coefficients)."""
    series = laplace_series(params, m_max)
    return [math.factorial(m) * series.coeff(m) for m in range(m_max + 1)]


# ---------------------------------------------------------------------------
# the measure model
# ---------------------------------------------------------------------------

@dataclass
class MeasureModel:
    """Degenerate Pascal measure at a parameter point, with numeric caches.

    ``precision`` is the number of working decimal digits for every
    transcendental evaluation (at least 40).  The pmf support cutoff is
    chosen adaptively so a computed geometric tail bound drops below
    10^-(precision/2).
    """

    params: Params
    precision: int = DEFAULT_DIGITS
    _phi: list = field(default_factory=list, repr=False)
    _series_cache: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self):
        if self.precision < 40:
            raise ValueError("precision must be at least 40 digits")

    # -- helpers ------------------------------------------------------------

    def _dps(self):
        return mp.workdps(self.precision + _GUARD_DIGITS)

    def _log_p(self):
        return mpmath.log(to_mpf(self.params.p))

    def _base_a(self):
        # a = 1 + lam * r * log p  (> 1 under the parameter invariants)
        return 1 + to_mpf(self.params.lam) * to_mpf(self.params.r) * self._log_p()

    def _phi_weights(self, jmax: int) -> list:
        """w_j = r^j (beta)_{j,lam} a^(beta/lam - j), extended on demand."""
        if len(self._phi) <= jmax:
            with self._lock, self._dps():
                a = self._base_a()
                if not self._phi:
                    self._phi.append(mpmath.power(a, to_mpf(self.params.beta / self.params.lam)))
                while len(self._phi) <= jmax:
                    j = len(self._phi) - 1
                    step = to_mpf(self.params.r) * to_mpf(self.params.beta - j * self.params.lam) / a
                    self._phi.append(self._phi[-1] * step)
        return self._phi

    # -- canonical pmf -------------------------------------------------------

    def pmf(self, n: int):
        """Canonical mass at n: the n-th Taylor coefficient of the measure's
        generating function, evaluated through the composition-derivative
        formula (1/n!) sum_j phi^(j)(r log p) B_{n,j}(u'(0), ..., u^(n-j+1)(0)).

        With u^(m)(0) = r q^m (m-1)!, the Bell factor collapses by
        homogeneity to q^n r^j c(n,j) with c the unsigned Stirling numbers
        of the first kind, which is what makes large supports affordable.
        """
        if n < 0:
            raise ValueError("support is the nonnegative integers")
        w = self._phi_weights(n)
        with self._dps():
            q = to_mpf(self.params.q)
            acc = mp.mpf(0)
            for j in range(n + 1):
                acc += to_mpf(stirling1_unsigned(n, j)) * w[j]
            return acc * q**n / to_mpf(math.factorial(n))

    def pgf(self, x):
        """Probability generating function sum_n pmf(n) x^n, for 0 <= x < the
        singular point (see ``singularity``)."""
        with self._dps():
            x = to_mpf(x)
            denom = 1 - to_mpf(self.params.q) * x
            if denom <= 0:
                raise DomainError("generating function undefined: q*x >= 1")
            arg = to_mpf(self.params.r) * mpmath.log(to_mpf(self.params.p) / denom)
            base = 1 + to_mpf(self.params.lam) * arg
            if base <= 0:
                raise DomainError("generating function undefined: past the singularity")
            return mpmath.power(base, to_mpf(self.params.beta / self.params.lam))

    def singularity(self):
        """Radius of convergence of the mass generating function:
        w* = (1 - p e^(1/(lam r)))/q, always in (1, 1/q)."""
        with self._dps():
            ex = mpmath.e ** (1 / (to_mpf(self.params.lam) * to_mpf(self.params.r)))
            return (1 - to_mpf(self.params.p) * ex) / to_mpf(self.params.q)

    def _tail_anchor(self):
        # evaluation point three quarters of the way to the singularity
        return 1 + mp.mpf(3) / 4 * (self.singularity() - 1)

    def tail_bound(self, cutoff: int, m: int):
        """Upper bound for sum_{n > cutoff} n^m pmf(n).

        For any x0 below the singular point, pmf(n) <= pgf(x0) x0^(-n); the
        summands n^m x0^(-n) past the cutoff shrink by at least
        rho = e^(m/(cutoff+1)) / x0 per step, so once rho < 1 the tail is
        below pgf(x0) (cutoff+1)^m x0^(-(cutoff+1)) / (1 - rho).
        """
        with self._dps():
            x0 = self._tail_anchor()
            amplitude = self.pgf(x0)
            n0 = mp.mpf(cutoff + 1)
            rho = mpmath.e ** (mp.mpf(m) / n0) / x0
            if rho >= 1:
                return mpmath.inf
            return amplitude * n0**m * x0 ** (-n0) / (1 - rho)

    def adaptive_cutoff(self, m_max: int = 0) -> int:
        """Smallest support cutoff whose tail bound is below 10^-(precision/2)."""
        with self._dps():
            target = mpmath.power(10, -mp.mpf(self.precision) / 2)
            log_x0 = mpmath.log(self._tail_anchor())
            n = max(8, int(mpmath.ceil(m_max / log_x0)) + 1)
            while self.tail_bound(n, m_max) >= target:
                n += max(4, n // 8)
            return n

    def truncated_moment_sums(self, m_max: int) -> tuple[list, int]:
        """One pass over the adaptive support: returns ([sum n^m pmf(n)]_{m<=m_max}, cutoff).

        Streams the unsigned-Stirling rows so nothing quadratic in the
        cutoff is retained.
        """
        cutoff = self.adaptive_cutoff(m_max)
        w = self._phi_weights(cutoff)
        with mp.workdps(self.precision + 2 * _GUARD_DIGITS):
            q = to_mpf(self.params.q)
            sums = [mp.mpf(0) for _ in range(m_max + 1)]
            row = [1]  # unsigned Stirling row c(0, .)
            factor = mp.mpf(1)  # q^n / n!
            for n in range(cutoff + 1):
                term = mp.mpf(0)
                for j, c in enumerate(row):
                    if c:
                        term += to_mpf(c) * w[j]
                term *= factor
                npow = mp.mpf(1)
                for m in range(m_max + 1):
                    sums[m] += term * npow
                    npow *= n
                nxt = [0] * (n + 2)
                for j, c in enumerate(row):
                    if c:
                        nxt[j + 1] += c
                        nxt[j] += n * c
                row = nxt
                factor *= q / (n + 1)
            return sums, cutoff

    # -- literal (closed-form) pmf and moments --------------------------------

    def literal_pmf(self, n: int):
        """Alternate closed-form mass q^n/n! (beta)_{n,lam} a^(beta/lam - n), a = 1+lam*r*log p.

        Does not normalize to 1; see ``literal_mass``.
        """
        if n < 0:
            raise ValueError("support is the nonnegative integers")
        with self._dps():
            a = self._base_a()
            val = to_mpf(self.params.q) ** n / to_mpf(math.factorial(n))
            val *= to_mpf(deg_falling(self.params.beta, n, self.params.lam))
            return val * mpmath.power(a, to_mpf(self.params.beta / self.params.lam) - n)

    def literal_mass(self):
        """Closed-form total mass of the literal pmf: (1 + lam*(r*log p + q))^(beta/lam)."""
        with self._dps():
            arg = to_mpf(self.params.r) * self._log_p() + to_mpf(self.params.q)
            base = 1 + to_mpf(self.params.lam) * arg
            if base <= 0:
                raise DomainError("literal mass undefined for these parameters")
            return mpmath.power(base, to_mpf(self.params.beta / self.params.lam))

    def literal_moment_sums(self, m_max: int) -> list:
        """Direct sums sum_n n^m literal_pmf(n) for m = 0..m_max (oracle for literal_moment).

        The term ratio tends to |lam| q / a, so the series only converges
        when that limit is below 1.
        """
        with mp.workdps(self.precision + 2 * _GUARD_DIGITS):
            ratio_limit = abs(to_mpf(self.params.lam)) * to_mpf(self.params.q) / self._base_a()
            if ratio_limit >= 1:
                raise DomainError("the literal pmf series diverges for these parameters")
            sums = [mp.mpf(0) for _ in range(m_max + 1)]
            target = mpmath.power(10, -mp.mpf(self.precision))
            n = 0
            while True:
                term = self.literal_pmf(n)
                npow = mp.mpf(1)
                for m in range(m_max + 1):
                    sums[m] += term * npow
                    npow *= n
                # geometric domination kicks in quickly; stop on a tiny term
                if n > 8 and abs(term) * mp.mpf(n) ** m_max < target:
                    return sums
                n += 1

    def literal_moment(self, m: int):
        """The closed-form moment with second-kind Stirling weights:

        a^(beta/lam) sum_{k=1}^{m} S(m,k) x^k (beta)_{k,lam} (1+lam*x)^(beta/lam - k),
        x = q/a, a = 1 + lam*r*log p.  Only defined for m >= 1.
        """
        if m < 1:
            raise ValueError("the closed-form moment is defined for m >= 1 only")
        with self._dps():
            a = self._base_a()
            x = to_mpf(self.params.q) / a
            inner_base = 1 + to_mpf(self.params.lam) * x
            if inner_base <= 0:
                raise DomainError("literal moment undefined for these parameters")
            expo = to_mpf(self.params.beta / self.params.lam)
            acc = mp.mpf(0)
            for k in range(1, m + 1):
                acc += (
                    to_mpf(stirling2(m, k))
                    * x**k
                    * to_mpf(deg_falling(self.params.beta, k, self.params.lam))
                    * mpmath.power(inner_base, expo - k)
                )
            return mpmath.power(a, expo) * acc

    # -- Laplace transform ----------------------------------------------------

    def laplace(self, z):
        """Numeric Laplace transform (1 + lam*r*log(p/(1-q e^z)))^(beta/lam); |q e^z| < 1."""
        with self._dps():
            z = to_mpf(z)
            qez = to_mpf(self.params.q) * mpmath.e**z
            if abs(qez) >= 1:
                raise DomainError("Laplace transform undefined: |q e^z| >= 1")
            arg = to_mpf(self.params.r) * mpmath.log(to_mpf(self.params.p) / (1 - qez))
            base = 1 + to_mpf(self.params.lam) * arg
            if base <= 0:
                raise DomainError("Laplace transform undefined: base <= 0")
            return mpmath.power(base, to_mpf(self.params.beta / self.params.lam))

    def laplace_series(self, order: int) -> TSeries:
        if order not in self._series_cache:
            self._series_cache[order] = laplace_series(self.params, order)
        return self._series_cache[order]

    def moment_exact(self, m: int) -> Fraction:
        """m-th moment as an exact rational: m! times the Laplace series coefficient."""
        if m < 0:
            raise ValueError("moment order must be nonnegative")
        return math.factorial(m) * self.laplace_series(max(m, 8)).coeff(m)

    # -- Gamma mixture ---------------------------------------------------------

    def _mixing_law(self):
        """(shape, scale, norm) of the mixing law: shape -beta/lam, scale -lam
        and the density's normalizer norm = gamma(shape) * scale^shape."""
        with self._dps():
            shape = -to_mpf(self.params.beta / self.params.lam)
            scale = -to_mpf(self.params.lam)
            return shape, scale, mpmath.gamma(shape) * scale**shape

    def _density(self, s, law):
        # at the model's precision, also inside quadrature, which raises the
        # working precision by 20 bits: the audit's residuals show the difference
        with self._dps():
            s = to_mpf(s)
            if s <= 0:
                raise DomainError("the mixing density lives on s > 0")
            shape, scale, norm = law
            return s ** (shape - 1) * mpmath.e ** (-s / scale) / norm

    def mixture_density(self, s):
        """Gamma density with shape -beta/lam and scale -lam (the mixing law)."""
        return self._density(s, self._mixing_law())

    def gamma_laplace(self, x):
        """Numeric integral of e^{-s x} against the mixing density."""
        law = self._mixing_law()
        shape, scale, _ = law
        with self._dps():
            x = to_mpf(x)
            mean = shape * scale
            return mpmath.quad(
                lambda s: mpmath.e ** (-s * x) * self._density(s, law),
                [0, mean, mpmath.inf],
            )

    def mixture_pmfs(self, ns) -> list:
        """Canonical masses at each n of ``ns``, reconstructed by quadrature
        against the mixing density; the independent oracle for ``pmf``.

        Each mass integrates the Pascal mass at n with rate parameter r*s
        over the Gamma mixing law.  All the integrals share one interval and
        one working precision, so they visit the same nodes; the n-free part
        of the integrand (loggamma(r*s), r*s*log p and the density) is kept
        per node for the length of the call.
        """
        ns = list(ns)
        if any(n < 0 for n in ns):
            raise ValueError("support is the nonnegative integers")
        law = self._mixing_law()
        shape, scale, _ = law
        with self._dps():
            q = to_mpf(self.params.q)
            logp = self._log_p()
            logq = mpmath.log(q)
            r = to_mpf(self.params.r)
            mean = shape * scale
            nodes = {}  # s -> (loggamma(r*s), r*s*log p, density at s)

            def n_free(s):
                if s not in nodes:
                    rs = r * s
                    nodes[s] = (mpmath.loggamma(rs), rs * logp, self._density(s, law))
                return nodes[s]

            def mass(n):
                lognfact = mpmath.loggamma(n + 1)

                def integrand(s):
                    if s <= 0:
                        return mp.mpf(0)
                    lg, rslogp, density = n_free(s)
                    lognb = mpmath.loggamma(n + r * s) - lg - lognfact + rslogp + n * logq
                    return mpmath.e**lognb * density

                return mpmath.quad(integrand, [0, mean, mpmath.inf])

            return [mass(n) for n in ns]

    def mixture_pmf(self, n: int):
        """Canonical mass at n by quadrature; see ``mixture_pmfs``."""
        return self.mixture_pmfs([n])[0]

    # -- joint normalized-exponential functional -------------------------------

    def joint_laplace(self, s, t):
        """Expectation of the product of two normalized generating kernels.

        Closed form:
        e_lam^beta[ r log( p(1+qt)(1+qs) / ((1+qt)(1+qs) - q(1+t)(1+s)) ) ]
        divided by e_lam^beta(r log(1+qt)) * e_lam^beta(r log(1+qs)).
        Not a function of the product s*t, which is the non-orthogonality
        phenomenon this package demonstrates.
        """
        with self._dps():
            s, t = to_mpf(s), to_mpf(t)
            q = to_mpf(self.params.q)
            p = to_mpf(self.params.p)
            r = to_mpf(self.params.r)
            fs, ft = 1 + q * s, 1 + q * t
            if fs <= 0 or ft <= 0:
                raise DomainError("joint functional undefined: 1 + q*arg <= 0")
            denom_arg = fs * ft - q * (1 + s) * (1 + t)
            if denom_arg <= 0:
                raise DomainError("joint functional undefined: composite log argument <= 0")
            num = deg_exp(r * mpmath.log(p * fs * ft / denom_arg), self.params, self.precision)
            den = deg_exp(r * mpmath.log(ft), self.params, self.precision) * deg_exp(
                r * mpmath.log(fs), self.params, self.precision
            )
            return num / den

    def joint_laplace_oracle(self, s, t):
        """Truncated double-sum oracle sum_k Psi(s,k) Psi(t,k) pmf(k).

        pmf(k) <= pgf(x0) x0^(-k) for the tail anchor x0, so the tail past
        K is below pgf(x0) rho^K / (1 - rho) with rho = w_s w_t / x0,
        provided the kernels' product w_s w_t stays under x0.
        """
        with self._dps():
            s, t = to_mpf(s), to_mpf(t)
            q = to_mpf(self.params.q)
            r = to_mpf(self.params.r)
            w_prod = ((1 + s) / (1 + q * s)) * ((1 + t) / (1 + q * t))
            x0 = self._tail_anchor()
            rho = abs(w_prod) / x0
            if rho >= 1:
                raise DomainError("no geometric tail control at these points")
            big_c = self.pgf(x0)
            den = deg_exp(r * mpmath.log(1 + q * s), self.params, self.precision) * deg_exp(
                r * mpmath.log(1 + q * t), self.params, self.precision
            )
            target = mpmath.power(10, -mp.mpf(self.precision) / 2)
            acc = mp.mpf(0)
            g = mp.mpf(1)
            k = 0
            while big_c * rho**k / (1 - rho) >= target:
                acc += g * self.pmf(k)
                g *= w_prod
                k += 1
            return acc / den
