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
decimal digits, in private contexts of fixed precision (``_context``), so
nothing here reads or sets mpmath's global precision.  The
Laplace-transform Taylor series, and hence every moment, is exactly
rational and is computed over Fraction (``Params`` and the exact series
live in ``config``, which does not import mpmath, and are re-exported
here).

The hot kernels give every bit of the mpf expressions they replace.  The
Stirling-weighted sum behind ``pmf`` and ``truncated_moment_sums`` runs on
Python ints: it rounds each exact product and each exact partial sum to
the working precision, ties to even, as mpf's correctly rounded multiply
and add do.  The moment loop around it and the quadrature integrands run
on raw ``mpmath.libmp`` tuples and call the libmp functions that mpf's own
operators call, with the same arguments in the same order.

The Gamma-mixture integrals run through ``_integrate``, a tanh-sinh driver
with the bits of ``mpmath.quad`` that evaluates only the nodes whose term
can change a bit, on node tables (``_standard_nodes``, ``_nodes``); no
model context changes precision after it is built.  It relies on mpmath's
private tanh-sinh rule (``ctx._tanh_sinh``: ``calc_nodes`` on the node
table's own context, ``transform_nodes``, ``guess_degree``,
``estimate_error``) and on ``mpf_sum``'s drop rule (see ``_integrate``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from mpmath import MPContext
from mpmath.libmp import bitcount, fone, from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_e
from mpmath.libmp import mpf_exp, mpf_log, mpf_loggamma, mpf_mul, mpf_mul_int, mpf_neg, mpf_sub

from .combinat import _C1_ROWS, _TABLES, GrowingTable, _next_c1_row, deg_falling, stirling2
# the exact side of the model and DomainError live in config, free of mpmath;
# re-exported here
from .config import DomainError, Params, deg_exp_series, exact_moments, laplace_series
from .series import FrozenValue

DEFAULT_DIGITS = 60
_GUARD_DIGITS = 15
_QUAD_EXTRA_BITS = 20  # mpmath.quad calls the integrand this far above the working precision
_TOP_SLACK = 64  # bits a term w * f * density with f <= 1 may reach above top(w) + top(density)
_COMPARE_DIGITS = 10  # digits over the model's precision at which printed comparisons run


def _context(digits=None, *, prec=None):
    """A private mpmath context at ``digits`` decimal digits or ``prec`` bits,
    whose precision nothing here changes.  mpf arithmetic rounds in the left
    operand's context, so a value enters a context only through its exact
    ``convert``."""
    ctx = MPContext()
    if prec is None:
        ctx.dps = digits
    else:
        ctx.prec = prec
    return ctx


def _nstr(num: MPContext, x, digits: int = 20) -> str:
    """x rounded to the precision of the context num, then printed to `digits` digits."""
    return num.nstr(num.mpf(x), digits, strip_zeros=False)


# ---------------------------------------------------------------------------
# kernels bit for bit equal to the mpf expressions they replace
# ---------------------------------------------------------------------------

def _round_even(man, exp, prec):
    """man * 2**exp for an int man > 0, rounded to prec bits, ties to even,
    as an (int, exponent) pair."""
    shift = man.bit_length() - prec
    if shift <= 0:
        return man, exp
    low = man & ((1 << shift) - 1)
    man >>= shift
    half = 1 << (shift - 1)
    if low > half or (low == half and man & 1):
        man += 1  # may carry to 2**prec, which is still exact
    return man, exp + shift


def _stirling_dot(row, w, prec):
    """sum_j row[j] * w[j] at ``prec`` bits, as a raw libmp tuple.

    Requires ints c >= 0, the (man, exp) pairs of mpfs w_j > 0 (Params gives
    r > 0, beta - j*lam > 0 and a > 1).  Each exact product c * w_j, then
    each exact partial sum, is rounded to nearest, ties to even, as
    ``mpf_mul_int`` and ``mpf_add`` round on either backend: the bits of
    ``acc += ctx.convert(c) * w[j]``, as ``convert`` takes an int exactly.
    A zero c would add an exact zero; it is skipped.
    """
    man = exp = 0
    for c, (wman, wexp) in zip(row, w):
        if c:
            tman, texp = _round_even(c * wman, wexp, prec)
            shift = exp - texp
            if shift >= 0:
                man, exp = _round_even((man << shift) + tman, texp, prec)
            else:
                man, exp = _round_even(man + (tman << -shift), exp, prec)
    return from_man_exp(man, exp)


@lru_cache(maxsize=_TABLES)
def _standard_nodes(prec: int) -> GrowingTable:
    """Entry d: the raw (x, w) tanh-sinh nodes of degree d + 1 on [-1, 1] for
    a ``prec``-bit quadrature, shared by every model (raw, as an mpf rounds in
    its own context).  The rule's context is this table's alone: calc_nodes
    raises its precision while it runs, under the table's lock."""
    calc = _context(prec=prec + _QUAD_EXTRA_BITS)._tanh_sinh.calc_nodes
    return GrowingTable(lambda done: [(x._mpf_, w._mpf_) for x, w in calc(len(done) + 1, prec)])


@lru_cache(maxsize=_TABLES)
def _log_e(prec: int, rnd: str):
    # log(e) rounded as mpf_pow rounds it for e ** y; at most precisions not exactly 1
    return mpf_log(mpf_e(prec, rnd), prec + 10, rnd)


def _e_pow_raw(yval, ctx):
    """``(ctx.e ** y)._mpf_`` for a raw libmp tuple y, bit for bit.

    Unless y is an integer or a half-integer, mpf_pow computes
    exp(y * log(e)) with log(e) rounded at ctx's precision plus 10 bits;
    this keeps that logarithm per precision instead of recomputing it at
    every call.
    """
    if yval[2] >= -1:  # integer or half-integer y: mpf_pow's other branches
        return (ctx.e ** ctx.make_mpf(yval))._mpf_
    prec, rnd = ctx._prec_rounding
    return mpf_exp(mpf_mul(yval, _log_e(prec, rnd)), prec, rnd)


def _sum_term(man, exp, x, limit):
    """Add a finite raw mpf x to the exact sum man * 2**exp as ``mpf_sum``
    adds it, with ``limit`` its 2*prec: a term more than ``limit`` bits below
    the sum's lowest bit is dropped, and a sum more than ``limit`` bits below
    the term is replaced by it.  Returns the new (man, exp)."""
    sign, xman, xexp, xbc = x
    if not xman:
        return man, exp
    if sign:
        xman = -xman
    delta = xexp - exp
    if delta >= 0:
        if delta > limit and (not man or delta - bitcount(abs(man)) > limit):
            return xman, xexp
        return man + (xman << delta), exp
    if -delta - xbc > limit:
        return (man, exp) if man else (xman, xexp)
    return (man << -delta) + xman, xexp


# ---------------------------------------------------------------------------
# the measure model
# ---------------------------------------------------------------------------

class MeasureModel(FrozenValue):
    """Degenerate Pascal measure at a parameter point, with numeric caches.

    ``precision`` is the number of working decimal digits for every
    transcendental evaluation (at least 40).  The pmf support cutoff is
    chosen adaptively so a computed geometric tail bound drops below
    10^-(precision/2).  Models compare equal by point and precision; the
    contexts, and the caches and constants computed once on first use, take
    no part.

    It computes in private contexts: ``_num`` at ``precision +
    _GUARD_DIGITS`` digits, ``_wide`` 15 digits higher for the support sums
    and ``_quad`` ``_QUAD_EXTRA_BITS`` bits higher for quadrature.  It
    returns their mpfs; a caller at another precision converts them.
    ``compare``, ``_COMPARE_DIGITS`` digits over ``precision``, is the
    context in which callers compare and print the model's values.
    """

    _fields = ("params", "precision")

    def __init__(self, params: Params, precision: int = DEFAULT_DIGITS):
        if precision < 40:
            raise ValueError("precision must be at least 40 digits")
        super().__init__(params, precision)
        num = _context(precision + _GUARD_DIGITS)
        self.__dict__.update(
            _num=num,
            _wide=_context(precision + 2 * _GUARD_DIGITS),
            _quad=_context(prec=num.prec + _QUAD_EXTRA_BITS),
            _phi=GrowingTable(self._next_phi),
            compare=_context(precision + _COMPARE_DIGITS),
        )

    # -- helpers ------------------------------------------------------------

    @cached_property
    def _log_p(self):
        num = self._num
        return num.log(num.convert(self.params.p))

    @cached_property
    def _a(self):
        # a = 1 + lam * r * log p  (> 1 under the parameter invariants)
        num = self._num
        return 1 + num.convert(self.params.lam) * num.convert(self.params.r) * self._log_p

    def _next_phi(self, done: list):
        # w_0 = a^(beta/lam), w_{j+1} = w_j * r (beta - j*lam) / a
        p, num = self.params, self._num
        if not done:
            return num.power(self._a, num.convert(p.beta / p.lam))
        j = len(done) - 1
        return done[-1] * (num.convert(p.r) * num.convert(p.beta - j * p.lam) / self._a)

    def _deg_exp(self, z):
        """The degenerate exponential (1 + lam*z)^(beta/lam) of a real z, in the
        model's context; requires 1 + lam*z > 0."""
        p, num = self.params, self._num
        base = 1 + num.convert(p.lam) * num.convert(z)
        if base <= 0:
            raise DomainError("degenerate exponential undefined: 1 + lambda*z <= 0")
        return num.power(base, num.convert(p.beta / p.lam))

    def _phi_weights(self, jmax: int) -> list:
        """w_j = r^j (beta)_{j,lam} a^(beta/lam - j) for j = 0..jmax."""
        return [self._phi[j] for j in range(jmax + 1)]

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
        num = self._num
        w = [v._mpf_[1:3] for v in self._phi_weights(n)]
        acc = num.make_mpf(_stirling_dot(_C1_ROWS[n], w, num.prec))
        return acc * num.convert(self.params.q) ** n / num.convert(math.factorial(n))

    def pgf(self, x):
        """Probability generating function sum_n pmf(n) x^n, for 0 <= x < the
        singular point (see ``singularity``)."""
        num = self._num
        x = num.convert(x)
        denom = 1 - num.convert(self.params.q) * x
        if denom <= 0:
            raise DomainError("generating function undefined: q*x >= 1")
        arg = num.convert(self.params.r) * num.log(num.convert(self.params.p) / denom)
        return self._deg_exp(arg)

    def singularity(self):
        """Radius of convergence of the mass generating function:
        w* = (1 - p e^(1/(lam r)))/q, always in (1, 1/q)."""
        num = self._num
        ex = num.e ** (1 / (num.convert(self.params.lam) * num.convert(self.params.r)))
        return (1 - num.convert(self.params.p) * ex) / num.convert(self.params.q)

    @cached_property
    def _tail_anchor(self):
        """(x0, pgf(x0)) for x0 three quarters of the way to the singularity."""
        x0 = 1 + self._num.mpf(3) / 4 * (self.singularity() - 1)
        return x0, self.pgf(x0)

    def tail_bound(self, cutoff: int, m: int):
        """Upper bound for sum_{n > cutoff} n^m pmf(n).

        For any x0 below the singular point, pmf(n) <= pgf(x0) x0^(-n); the
        summands n^m x0^(-n) past the cutoff shrink by at least
        rho = e^(m/(cutoff+1)) / x0 per step, so once rho < 1 the tail is
        below pgf(x0) (cutoff+1)^m x0^(-(cutoff+1)) / (1 - rho).
        """
        num = self._num
        x0, amplitude = self._tail_anchor
        n0 = num.mpf(cutoff + 1)
        rho = num.e ** (num.mpf(m) / n0) / x0
        if rho >= 1:
            return num.inf
        return amplitude * n0**m * x0 ** (-n0) / (1 - rho)

    def adaptive_cutoff(self, m_max: int = 0) -> int:
        """Smallest support cutoff whose tail bound is below 10^-(precision/2)."""
        num = self._num
        target = num.power(10, -num.mpf(self.precision) / 2)
        log_x0 = num.log(self._tail_anchor[0])
        n = max(8, int(num.ceil(m_max / log_x0)) + 1)
        while self.tail_bound(n, m_max) >= target:
            n += max(4, n // 8)
        return n

    def truncated_moment_sums(self, m_max: int) -> tuple[list, int]:
        """One pass over the adaptive support: returns ([sum n^m pmf(n)]_{m<=m_max}, cutoff).

        Streams the unsigned-Stirling rows with the step that grows
        combinat's table, so nothing quadratic in the cutoff is retained.
        The arithmetic runs on raw libmp tuples in the wide context, one
        call per mpf operation: term = dot * factor, sums[m] += term * npow,
        npow *= n and factor *= q / (n + 1).
        """
        cutoff = self.adaptive_cutoff(m_max)
        w = [v._mpf_[1:3] for v in self._phi_weights(cutoff)]
        wide = self._wide
        prec, rnd = wide._prec_rounding
        q = wide.convert(self.params.q)._mpf_
        sums = [fzero] * (m_max + 1)
        row = (1,)  # unsigned Stirling row c(0, .)
        factor = fone  # q^n / n!
        for n in range(cutoff + 1):
            term = mpf_mul(_stirling_dot(row, w, prec), factor, prec, rnd)
            npow = fone
            for m in range(m_max + 1):
                sums[m] = mpf_add(sums[m], mpf_mul(term, npow, prec, rnd), prec, rnd)
                npow = mpf_mul_int(npow, n, prec, rnd)
            row = _next_c1_row(row)
            factor = mpf_mul(factor, mpf_div(q, from_int(n + 1), prec, rnd), prec, rnd)
        return [wide.make_mpf(v) for v in sums], cutoff

    # -- literal (closed-form) pmf and moments --------------------------------

    def literal_pmf(self, n: int):
        """Alternate closed-form mass q^n/n! (beta)_{n,lam} a^(beta/lam - n), a = 1+lam*r*log p.

        Does not normalize to 1; see ``literal_mass``.
        """
        if n < 0:
            raise ValueError("support is the nonnegative integers")
        p, num = self.params, self._num
        val = num.convert(p.q) ** n / num.convert(math.factorial(n))
        val *= num.convert(deg_falling(p.beta, n, p.lam))
        return val * num.power(self._a, num.convert(p.beta / p.lam) - n)

    def literal_mass(self):
        """Closed-form total mass of the literal pmf: (1 + lam*(r*log p + q))^(beta/lam)."""
        num = self._num
        return self._deg_exp(num.convert(self.params.r) * self._log_p + num.convert(self.params.q))

    def literal_moment_sums(self, m_max: int) -> list:
        """Direct sums sum_n n^m literal_pmf(n) for m = 0..m_max (oracle for literal_moment).

        The term ratio tends to |lam| q / a, so the series only converges
        when that limit is below 1.
        """
        p, wide = self.params, self._wide
        # a at this precision, not the model's
        a = 1 + wide.convert(p.lam) * wide.convert(p.r) * wide.log(wide.convert(p.p))
        ratio_limit = abs(wide.convert(p.lam)) * wide.convert(p.q) / a
        if ratio_limit >= 1:
            raise DomainError("the literal pmf series diverges for these parameters")
        sums = [wide.mpf(0) for _ in range(m_max + 1)]
        target = wide.power(10, -wide.mpf(self.precision))
        n = 0
        while True:
            term = wide.convert(self.literal_pmf(n))
            npow = wide.mpf(1)
            for m in range(m_max + 1):
                sums[m] += term * npow
                npow *= n
            # geometric domination kicks in quickly; stop on a tiny term
            if n > 8 and abs(term) * wide.mpf(n) ** m_max < target:
                return sums
            n += 1

    def literal_moment(self, m: int):
        """The closed-form moment with second-kind Stirling weights:

        a^(beta/lam) sum_{k=1}^{m} S(m,k) x^k (beta)_{k,lam} (1+lam*x)^(beta/lam - k),
        x = q/a, a = 1 + lam*r*log p.  Only defined for m >= 1.
        """
        if m < 1:
            raise ValueError("the closed-form moment is defined for m >= 1 only")
        p, num = self.params, self._num
        x = num.convert(p.q) / self._a
        inner_base = 1 + num.convert(p.lam) * x
        if inner_base <= 0:
            raise DomainError("literal moment undefined for these parameters")
        expo = num.convert(p.beta / p.lam)
        acc = num.mpf(0)
        for k in range(1, m + 1):
            acc += (
                num.convert(stirling2(m, k))
                * x**k
                * num.convert(deg_falling(p.beta, k, p.lam))
                * num.power(inner_base, expo - k)
            )
        return num.power(self._a, expo) * acc

    # -- exact moments ---------------------------------------------------------

    def moment_exact(self, m: int) -> Fraction:
        """m-th moment as an exact rational: m! times the Laplace series coefficient."""
        if m < 0:
            raise ValueError("moment order must be nonnegative")
        return math.factorial(m) * laplace_series(self.params, max(m, 8)).coeff(m)

    # -- Gamma mixture ---------------------------------------------------------

    @cached_property
    def _law(self):
        """(shape, scale, norm, mean) of the mixing law: shape -beta/lam, scale
        -lam, the density's normalizer norm = gamma(shape) * scale^shape and
        the mean shape * scale."""
        num = self._num
        shape = -num.convert(self.params.beta / self.params.lam)
        scale = -num.convert(self.params.lam)
        return shape, scale, num.gamma(shape) * scale**shape, shape * scale

    def mixture_density(self, s):
        """Gamma density with shape -beta/lam and scale -lam (the mixing law)."""
        # at the model's precision, also at the quadrature's nodes, which
        # carry 20 more bits: the audit's residuals show the difference
        num = self._num
        s = num.convert(s)
        if s <= 0:
            raise DomainError("the mixing density lives on s > 0")
        shape, scale, norm, _ = self._law
        return s ** (shape - 1) * num.make_mpf(_e_pow_raw((-s / scale)._mpf_, num)) / norm

    @cached_property
    def _nodes(self):
        """Node tables of [0, mean] and [mean, inf]: entry d holds the raw
        (s, w, density) triples of degree d + 1, from the standard nodes."""
        quad = self._quad
        standard, mean = _standard_nodes(self._num.prec), quad.convert(self._law[3])

        def interval(a, b):
            def next_nodes(done):
                nodes = [(quad.make_mpf(x), quad.make_mpf(w)) for x, w in standard[len(done)]]
                nodes = quad._tanh_sinh.transform_nodes(nodes, a, b)
                return [(s._mpf_, w._mpf_, self.mixture_density(s)._mpf_) for s, w in nodes]
            return GrowingTable(next_nodes)

        return interval(0, mean), interval(mean, quad.inf)

    def _integrate(self, f, bounded=True):
        """``mpmath.quad(f(s) * density(s), [0, mean, inf])`` at the model's
        precision, bit for bit; f takes and returns raw libmp tuples.

        It reads nodes and densities from ``_nodes``, calls the quadrature
        context's rule for ``guess_degree`` and ``estimate_error``, and
        repeats quad's eps/8, precision raise, degree loop and step sum; no
        precision changes, so threads may share a model.  The node sum runs
        fdot's exact products through ``mpf_sum``'s accumulation
        (``_sum_term``), which drops a term more than 2*prec bits below the
        running sum's lowest bit.  ``bounded`` promises 0 < f <= 1 (a Pascal
        mass, or e^(-s x) with x >= 0), so a term is below 2^(top(w) +
        top(density) + 3) with top(v) = exp + bc, rounding included; a node
        whose bound plus ``_TOP_SLACK`` bits lies that far down is skipped.
        """
        num, quad = self._num, self._quad
        prec, eps, rule = num.prec, num.eps / 8, quad._tanh_sinh
        qprec, rnd = quad._prec_rounding
        limit = 2 * qprec
        total = quad.zero
        for table in self._nodes:
            results = []
            for degree in range(1, rule.guess_degree(prec) + 1):
                man = exp = 0
                for s, w, density in table[degree - 1]:
                    if bounded and man and exp - limit > (
                        w[2] + w[3] + density[2] + density[3] + _TOP_SLACK
                    ):
                        continue  # mpf_sum would drop the term, whatever f(s)
                    fd = mpf_mul(f(s), density, qprec, rnd)
                    man, exp = _sum_term(man, exp, mpf_mul(w, fd), limit)
                h = quad.mpf(2) ** (-degree)
                step = results[-1] / (h * 2) if results else quad.zero
                step += quad.make_mpf(from_man_exp(man, exp, qprec, rnd))
                results.append(h * step)
                if degree > 1 and rule.estimate_error(results, prec, eps) <= eps:
                    break
            total += results[-1]
        return +num.convert(total)

    def gamma_laplaces(self, xs) -> list:
        """Numeric integral of e^{-s x} against the mixing density at each x of
        ``xs``, sharing the node densities.

        The transform (1 - lam*x)^(beta/lam) diverges unless 1 - lam*x > 0."""
        num, quad = self._num, self._quad
        qprec, rnd = quad._prec_rounding

        def transform(x):  # e ** (-s * x), one libmp call per mpf operation
            return self._integrate(
                lambda s: _e_pow_raw(mpf_mul(mpf_neg(s, qprec, rnd), x._mpf_, qprec, rnd), quad),
                bounded=x >= 0,
            )

        xs = [num.convert(x) for x in xs]
        if any(1 - num.convert(self.params.lam) * x <= 0 for x in xs):
            raise DomainError("mixing-law Laplace transform undefined: 1 - lambda*x <= 0")
        return [transform(x) for x in xs]

    def mixture_pmfs(self, ns) -> list:
        """Canonical masses at each n of ``ns``, reconstructed by quadrature
        against the mixing density; the independent oracle for ``pmf``.

        Each mass integrates the Pascal mass at n with rate parameter r*s
        over the Gamma mixing law, on raw libmp tuples.  The n-free part of
        the Pascal mass (r*s, r*s*log p and, once an n >= 1 mass needs it,
        loggamma(r*s)) is kept per node for the length of the call.
        """
        ns = list(ns)
        if any(n < 0 for n in ns):
            raise ValueError("support is the nonnegative integers")
        num, quad = self._num, self._quad
        prec, rnd = num._prec_rounding
        qprec = prec + _QUAD_EXTRA_BITS
        logq = num.log(num.convert(self.params.q))._mpf_
        logp, r = self._log_p._mpf_, num.convert(self.params.r)._mpf_
        nodes = {}  # s._mpf_ -> [r*s, r*s*log p, loggamma(r*s) or None]

        def node(s):
            v = nodes.get(s)
            if v is None:
                rs = mpf_mul(r, s, qprec, rnd)
                v = nodes[s] = [rs, mpf_mul(rs, logp, qprec, rnd), None]
            return v

        def mass(n):
            if not n:  # loggamma(r*s + 0) - loggamma(r*s), loggamma(1), 0*log q: exact 0s
                return self._integrate(lambda s: _e_pow_raw(node(s)[1], quad))
            lognfact = mpf_loggamma(from_int(n + 1), prec, rnd)
            nlogq = mpf_mul_int(logq, n, qprec, rnd)

            def pascal(s):
                v = node(s)
                rs, rslogp, lg = v
                if lg is None:
                    lg = v[2] = mpf_loggamma(rs, qprec, rnd)
                y = mpf_loggamma(mpf_add(rs, from_int(n), qprec, rnd), qprec, rnd)
                y = mpf_sub(mpf_sub(y, lg, qprec, rnd), lognfact, qprec, rnd)
                y = mpf_add(mpf_add(y, rslogp, qprec, rnd), nlogq, qprec, rnd)
                return _e_pow_raw(y, quad)

            return self._integrate(pascal)

        return [mass(n) for n in ns]

    # -- joint normalized-exponential functional -------------------------------

    def joint_laplace(self, s, t):
        """Expectation of the product of two normalized generating kernels.

        Closed form:
        e_lam^beta[ r log( p(1+qt)(1+qs) / ((1+qt)(1+qs) - q(1+t)(1+s)) ) ]
        divided by e_lam^beta(r log(1+qt)) * e_lam^beta(r log(1+qs)).
        Not a function of the product s*t, which is the non-orthogonality
        phenomenon this package demonstrates.
        """
        num = self._num
        s, t = num.convert(s), num.convert(t)
        q = num.convert(self.params.q)
        p = num.convert(self.params.p)
        r = num.convert(self.params.r)
        fs, ft = 1 + q * s, 1 + q * t
        den = self._kernel_normalizer(fs, ft)
        denom_arg = fs * ft - q * (1 + s) * (1 + t)
        if denom_arg <= 0:
            raise DomainError("joint functional undefined: composite log argument <= 0")
        return self._deg_exp(r * num.log(p * fs * ft / denom_arg)) / den

    def _kernel_normalizer(self, fs, ft):
        """e_lam^beta(r log fs) * e_lam^beta(r log ft) for fs = 1+qs and ft = 1+qt,
        the normalizer of the two generating kernels, in the model's context."""
        num = self._num
        r = num.convert(self.params.r)
        if fs <= 0 or ft <= 0:
            raise DomainError("joint functional undefined: 1 + q*arg <= 0")
        return self._deg_exp(r * num.log(fs)) * self._deg_exp(r * num.log(ft))

    def joint_laplace_oracle(self, s, t):
        """Truncated double-sum oracle sum_k Psi(s,k) Psi(t,k) pmf(k).

        pmf(k) <= pgf(x0) x0^(-k) for the tail anchor x0, so the tail past
        K is below pgf(x0) rho^K / (1 - rho) with rho = w_s w_t / x0,
        provided the kernels' product w_s w_t stays under x0.
        """
        num = self._num
        s, t = num.convert(s), num.convert(t)
        q = num.convert(self.params.q)
        w_prod = ((1 + s) / (1 + q * s)) * ((1 + t) / (1 + q * t))
        x0, big_c = self._tail_anchor
        rho = abs(w_prod) / x0
        if rho >= 1:
            raise DomainError("no geometric tail control at these points")
        den = self._kernel_normalizer(1 + q * s, 1 + q * t)
        target = num.power(10, -num.mpf(self.precision) / 2)
        acc = num.mpf(0)
        g = num.mpf(1)
        k = 0
        while big_c * rho**k / (1 - rho) >= target:
            acc += g * self.pmf(k)
            g *= w_prod
            k += 1
        return acc / den
