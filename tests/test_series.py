"""Polynomial and truncated-series arithmetic."""

import copy
import math
import pickle
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from mpmath import mp

from degenkraw.audit import _xy_terms
from degenkraw.combinat import bell_partial, epsilon, faa_derivative, theta_series
from degenkraw.series import (
    NonInvertibleSeries,
    TSeries,
    XPoly,
    gen_binomial,
    log1p_scaled_series,
)

from oracles import FracPoly, compose, exp_series, zeta_series

N = 12


def rand_series(rng, order, lo=-4, hi=4, unit=False, zero_const=False):
    coeffs = [F(rng.randint(lo, hi), rng.randint(1, 5)) for _ in range(order + 1)]
    if unit:
        coeffs[0] = F(1)
    if zero_const:
        coeffs[0] = F(0)
    return TSeries(coeffs, order)


class TestXPoly:
    def test_normalization_and_degree(self):
        assert XPoly((1, 2, 0, 0)).coeffs == (F(1), F(2))
        assert XPoly(()).degree == -1
        assert XPoly((0,)).is_zero()
        with pytest.raises(TypeError):
            XPoly((True, False, True))  # a bool is not a rational, not 1 + x^2
        with pytest.raises(TypeError):
            TSeries([True, False, True], 2)  # nor 1 + t^2

    def test_ring_ops(self):
        x = XPoly.x()
        p = (x + 1) * (x - 1)
        assert p == XPoly((-1, 0, 1))
        assert p - p == 0
        assert (x**3).derivative() == 3 * x**2
        with pytest.raises(ValueError):
            x**-1

    def test_values_immutable(self):
        p = XPoly((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = ()
        s = TSeries([1, 2], 4)
        with pytest.raises(AttributeError):
            s.order = 2

    def test_eval_and_substitution(self):
        p = XPoly((1, -2, 3))
        assert p(F(1, 2)) == 1 - 1 + F(3, 4)
        assert p.scale_arg(F(2)) == XPoly((1, -4, 12))
        # substituting another polynomial composes, a constant one included:
        # the value lies in the argument's ring
        assert (XPoly.x() ** 2)(XPoly((1, 1))) == XPoly((1, 2, 1))
        for c in (XPoly(), XPoly.const(F(3, 2))):
            got = c(XPoly((1, 1)))
            assert isinstance(got, XPoly) and got == XPoly.const(c.coeff(0))

    def test_gen_binomial(self):
        x = XPoly.x()
        assert gen_binomial(F(7, 2), 0) == 1
        assert gen_binomial(x, 2) == XPoly((0, F(-1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            gen_binomial(x, -1)

    def test_geometric_pascal_identity(self):
        # binom(-r, n) (-q)^n with r=1 collapses to q^n
        q = F(2, 5)
        for n in range(8):
            assert gen_binomial(F(-1), n) * (-q) ** n == q**n

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            XPoly((1, 2)) / 0

    def test_repr_pins_the_printed_form(self):
        cases = {
            (): "0",
            (0, -1): "-1*x",
            (0, 1): "x",
            (0, 0, 1): "x^2",
            (0, 0, -1): "-1*x^2",
            (1, 0, 0, 5): "1 + 5*x^3",
            (F(-1, 2), 0, 1): "-1/2 + x^2",
            (3, 1, F(-2, 3)): "3 + x - 2/3*x^2",
        }
        assert {c: repr(XPoly(c)) for c in cases} == cases

    def test_xy_terms_pins_the_printed_residual(self):
        # the audit prints an addition residual, a series in y over XPoly, this way
        residual = TSeries([XPoly((F(-1, 2), 0, 1)), XPoly((0, -1)), XPoly((3, F(2, 3)))], 2)
        assert _xy_terms(residual) == "-1/2 + 3*y^2 - 1*x*y + 2/3*x*y^2 + 1*x^2"
        assert _xy_terms(TSeries([XPoly(), XPoly()], 1)) == "0"


def _assert_normal(p: XPoly):
    """XPoly's stored form: integer numerators with no trailing zero over a
    positive denominator, in lowest terms; zero is () over 1."""
    assert all(type(a) is int for a in p._num) and type(p._den) is int
    assert p._den > 0
    assert not p._num or p._num[-1] != 0
    assert math.gcd(p._den, *p._num) == 1


def _held(got, ref: FracPoly):
    """`got` is an XPoly in its stored form with the reference's coefficients."""
    assert isinstance(got, XPoly)
    _assert_normal(got)
    assert got.coeffs == tuple(ref.coeffs) and all(type(c) is F for c in got.coeffs)
    assert got.degree == len(ref.coeffs) - 1
    same = XPoly(ref.coeffs)
    assert got == same and hash(got) == hash(same)


# large and pairwise coprime denominators: two Mersenne primes, 3^40, 10^18
_DENOMINATORS = st.sampled_from([1, 2, 3, 6, 7, 2**31 - 1, 2**61 - 1, 3**40, 10**18])
_RATIONALS = st.builds(F, st.integers(-(10**20), 10**20), _DENOMINATORS)
_SCALARS = st.one_of(st.integers(-(10**6), 10**6), _RATIONALS)
_COEFFS = st.lists(st.one_of(st.just(0), _RATIONALS), max_size=7)


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
)
@given(_COEFFS, _COEFFS, _COEFFS, st.booleans(), _SCALARS, _SCALARS.filter(bool), st.integers(0, 3))
def test_xpoly_holds_to_the_fraction_list_reference(a, b, tail, cancel, s, d, k):
    ra = FracPoly(a)
    # with `cancel`, b is -a plus a lower tail, so a + b loses a's top terms
    # and, for an empty tail, is zero: () over 1
    rb = -ra + FracPoly(tail[: max(len(ra.coeffs) - 1, 0)]) if cancel else FracPoly(b)
    pa, pb, rs = XPoly(a), XPoly(rb.coeffs), FracPoly([s])
    for got, ref in [
        (pa, ra),
        (pb, rb),
        (pa + pb, ra + rb),
        (pa - pb, ra - rb),
        (pa * pb, ra * rb),
        (-pa, -ra),
        (pa - pa, FracPoly()),
        (pa + s, ra + rs),
        (s + pa, ra + rs),
        (pa - s, ra - rs),
        (s - pa, rs - ra),
        (pa * s, ra * F(s)),
        (s * pa, ra * F(s)),
        (pa * 0, FracPoly()),
        (pa / d, ra / F(d)),
        (pa**k, ra**k),
        (pa.derivative(), ra.derivative()),
        (pa.scale_arg(s), ra.scale_arg(s)),
        (pa(pb), ra(rb)),
    ]:
        _held(got, ref)
    assert pa(s) == ra(F(s))
    assert (pa == pb) == (ra.coeffs == rb.coeffs)
    assert (pa == s) == (ra.coeffs == rs.coeffs)
    assert XPoly(list(a) + [0, 0]) == pa and hash(XPoly(list(a) + [0, 0])) == hash(pa)


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_survive_pickling_and_copying(copier):
    # an immutable value is rebuilt from its stored form, never through the
    # __setattr__ that refuses every write
    values = [
        XPoly((F(3, 4), 0, F(-5, 2**61 - 1))),
        XPoly(),
        TSeries([1, F(-1, 3), F(2, 7)], 4),
        TSeries([XPoly((1, F(1, 2))), XPoly(), 3], 2),
    ]
    for value in values:
        got = copier(value)
        assert type(got) is type(value)
        assert got == value and hash(got) == hash(value)
        assert got.coeffs == value.coeffs
    _assert_normal(copier(values[0]))


class TestSeriesArithmetic:
    def test_mul_difference_of_squares(self):
        a = TSeries([1, 1], 2)
        b = TSeries([1, -1], 2)
        assert a * b == TSeries([1, 0, -1], 2)

    def test_mul_identity(self):
        rng = random.Random(7)
        a = rand_series(rng, N)
        assert a * TSeries.one(N) == a

    def test_mul_exp_squared(self):
        # coefficients of e^t * e^t are 2^k/k! (expand the Cauchy product by hand)
        e = exp_series(5)
        sq = e * e
        for k in range(6):
            assert sq.coeff(k) == F(2**k, math.factorial(k))

    def test_scalar_equality_and_zero(self):
        # a scalar is the constant series, as for XPoly; over XPoly too
        assert TSeries([F(3, 2)], 3) == F(3, 2) and TSeries([2, 1], 3) != 2
        zero = TSeries([XPoly(), XPoly()], 1)
        assert zero == 0 and zero.is_zero()
        assert not TSeries([0, XPoly.x()], 1).is_zero()

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TSeries.one(3) * TSeries.one(4)

    def test_reciprocal(self):
        assert TSeries.one(N).reciprocal() == TSeries.one(N)
        geo = TSeries([1, 1], 3).reciprocal()
        assert geo == TSeries([1, -1, 1, -1], 3)
        with pytest.raises(NonInvertibleSeries):
            TSeries([0, 1], 3).reciprocal()

    def test_reciprocal_needs_unit_constant_in_poly_ring(self):
        # a series over XPoly with a non-constant leading coefficient has no inverse
        with pytest.raises(NonInvertibleSeries):
            TSeries([XPoly.x(), XPoly.const(1)], 3).reciprocal()

    def test_reciprocal_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(20):
            a = rand_series(rng, N)
            if a.coeff(0) == 0:
                continue
            assert a * a.reciprocal() == TSeries.one(N)

    def test_reciprocal_of_deg_exp_like_series(self):
        # roundtrip through a composite series at order 12
        from degenkraw.measure import deg_exp_series, Params

        params = Params.make("-1/2", "2", "3/5", "3")
        xi = F(3) * log1p_scaled_series(params.q, 12)
        e = deg_exp_series(xi, params)
        assert e * e.reciprocal() == TSeries.one(12)

    def test_log1(self):
        assert TSeries.one(N).log1() == TSeries([0], N)
        mercator = TSeries([1, 1], 4).log1()
        assert mercator == TSeries([0, 1, F(-1, 2), F(1, 3), F(-1, 4)], 4)
        with pytest.raises(ValueError):
            TSeries([2, 1], 4).log1()

    def test_log_quotient_termwise(self):
        # log(1+t) - log(1+qt) at q=1/2: coefficients (1 - q^k)(-1)^(k+1)/k
        q = F(1, 2)
        diff = TSeries([1, 1], 3).log1() - TSeries([1, q], 3).log1()
        assert diff == TSeries([0, 1 - q, -(1 - q**2) / 2, (1 - q**3) / 3], 3)

    def test_fracpow(self):
        a = TSeries([1, 1], 2)
        assert a.fracpow(0) == TSeries.one(2)
        assert a.fracpow(-1) == a.reciprocal()
        assert a.fracpow(F(1, 2)) == TSeries([1, F(1, 2), F(-1, 8)], 2)
        with pytest.raises(ValueError):
            TSeries([2, 1], 2).fracpow(F(1, 2))

    def test_fracpow_exponent_additivity(self):
        rng = random.Random(13)
        for _ in range(10):
            a = rand_series(rng, 8, unit=True)
            e1 = F(rng.randint(-6, 6), rng.randint(1, 4))
            e2 = F(rng.randint(-6, 6), rng.randint(1, 4))
            assert a.fracpow(e1 + e2) == a.fracpow(e1) * a.fracpow(e2)

    def test_log_of_power_scales(self):
        rng = random.Random(17)
        for _ in range(10):
            a = rand_series(rng, 8, unit=True)
            e = F(rng.randint(-5, 5), rng.randint(1, 3))
            assert a.fracpow(e).log1() == e * a.log1()

    def test_compose_constant_inner(self):
        f = TSeries([3, 1, 4], 5)
        assert compose(f, TSeries([0], 5)) == TSeries([3], 5)
        with pytest.raises(ValueError):
            compose(f, TSeries([1, 1], 5))

    def test_compose_inverse_pair(self):
        q = F(1, 2)
        th, ze = theta_series(q, 10), zeta_series(q, 10)
        assert compose(ze, th) == TSeries([0, 1], 10)
        assert compose(th, ze) == TSeries([0, 1], 10)

    def test_compose_exp_with_x_theta_matches_product(self):
        # exp(x*theta(t)) must equal the product (1+t)^x (1+qt)^(-x), whose
        # coefficients are the epsilon_k
        q = F(2, 5)
        order = 8
        composed = compose(exp_series(order), theta_series(q, order) * XPoly.x())
        assert composed == TSeries([epsilon(k, q) for k in range(order + 1)], order)

    def test_compose_matches_faa_di_bruno(self):
        rng = random.Random(19)
        for _ in range(5):
            f = rand_series(rng, 10)
            g = rand_series(rng, 10, zero_const=True)
            comp = compose(f, g)
            fk = f.derivative_list()
            gk = g.derivative_list()
            assert [math.factorial(n) * comp.coeff(n) for n in range(11)] == faa_derivative(fk, gk, 10)

    def test_compose_coefficient_via_bell(self):
        # coefficient n of f(g) equals (1/n!) sum_k f_k k! B_nk(g-derivatives)
        rng = random.Random(23)
        f = rand_series(rng, 8)
        g = rand_series(rng, 8, zero_const=True)
        comp = compose(f, g)
        gk = g.derivative_list()
        for n in range(9):
            acc = F(0)
            for k in range(n + 1):
                acc += f.coeff(k) * math.factorial(k) * bell_partial(n, k, gk[1:])
            assert comp.coeff(n) == acc / math.factorial(n)


class TestRealPrecision:
    def test_real_reproduces_rationals(self):
        # D-digit arithmetic tracks an exact rational pipeline to 10^-(D-10)
        digits = 60
        rng = random.Random(29)
        with mp.workdps(digits):
            for _ in range(20):
                a = F(rng.randint(-999, 999), rng.randint(1, 999))
                b = F(rng.randint(1, 999), rng.randint(1, 999))
                exact = (a * b + a / b - b) ** 3
                approx = (
                    mpmath.mpmathify(a) * mpmath.mpmathify(b)
                    + mpmath.mpmathify(a) / mpmath.mpmathify(b)
                    - mpmath.mpmathify(b)
                ) ** 3
                if exact:
                    rel = abs(approx - mpmath.mpmathify(exact)) / abs(mpmath.mpmathify(exact))
                    assert rel <= mpmath.mpf(10) ** -(digits - 10)
