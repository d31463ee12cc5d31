"""Measure-side checks: pmf variants, Laplace transform, moments, mixture."""

import math
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp

from degenkraw.combinat import bell_partial, deg_falling
from degenkraw.measure import (
    DomainError,
    MeasureModel,
    Params,
    classical_pmf,
    deg_exp,
    deg_exp_series,
    to_mpf,
)
from degenkraw.series import TSeries

from conftest import SET_C


def mpf10(e):
    return mpmath.mpf(10) ** e


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Params.make("1/2", 1, "1/2", 1)  # lambda must be negative
        with pytest.raises(ValueError):
            Params.make(-1, 0, "1/2", 1)
        with pytest.raises(ValueError):
            Params.make(-1, 1, "3/2", 1)
        with pytest.raises(ValueError):
            Params.make(-1, 1, "1/2", 0)

    def test_q_is_complement(self):
        p = Params.make("-1/2", 2, "3/5", 3)
        assert p.q == F(2, 5)


class TestDegExp:
    def test_at_zero(self, params):
        with mp.workdps(50):
            assert deg_exp(0, params) == 1

    def test_geometric_case(self):
        # lambda=-1, beta=1 collapses to 1/(1-z)
        params = Params.make(-1, 1, "1/2", 1)
        with mp.workdps(50):
            for z in (F(1, 3), F(-2), F(9, 10)):
                got = deg_exp(z, params)
                assert abs(got - 1 / (1 - to_mpf(z))) < mpf10(-45)

    def test_domain_error(self):
        params = Params.make(-1, 1, "1/2", 1)
        with pytest.raises(DomainError):
            deg_exp(2, params)

    def test_series_coefficients_are_degenerate_factorials(self, params):
        series = deg_exp_series(TSeries.x(10), params)
        for k in range(11):
            expected = deg_falling(params.beta, k, params.lam) / math.factorial(k)
            assert series.coeff(k) == expected


class TestClassicalPmf:
    def test_integer_rate_exact(self):
        assert classical_pmf(0, F(3, 5), F(3)) == F(27, 125)
        # r=1 is the geometric law p q^n
        for n in range(6):
            assert classical_pmf(n, F(3, 5), F(1)) == F(3, 5) * F(2, 5) ** n

    def test_normalization(self):
        total = sum(classical_pmf(n, F(3, 5), F(3)) for n in range(200))
        assert abs(1 - total) < F(1, 10**30)

    def test_non_integer_rate_numeric(self):
        with mp.workdps(50):
            val = classical_pmf(0, F(1, 2), F(5, 2))
            assert abs(val - mpmath.power(mpmath.mpf(1) / 2, mpmath.mpf(5) / 2)) < mpf10(-45)


class TestCanonicalPmf:
    def test_positive(self, params):
        model = MeasureModel(params)
        assert all(model.pmf(n) > 0 for n in range(30))

    def test_matches_generic_bell_formula(self, params):
        # independent route: same composition-derivative formula, but with the
        # generic partial-Bell evaluator instead of the Stirling collapse
        model = MeasureModel(params)
        with mp.workdps(70):
            a = 1 + to_mpf(params.lam) * to_mpf(params.r) * mpmath.log(to_mpf(params.p))
            inner = [mp.mpf(0)] + [
                to_mpf(params.r) * to_mpf(params.q) ** m * math.factorial(m - 1)
                for m in range(1, 12)
            ]
            for n in range(11):
                acc = mp.mpf(0)
                for j in range(n + 1):
                    phi_j = to_mpf(deg_falling(params.beta, j, params.lam)) * mpmath.power(
                        a, to_mpf(params.beta / params.lam) - j
                    )
                    acc += phi_j * bell_partial(n, j, inner[1:])
                expected = acc / math.factorial(n)
                assert abs(model.pmf(n) - expected) < mpf10(-50)

    def test_partial_sums_monotone_to_one(self, params):
        model = MeasureModel(params)
        with mp.workdps(70):
            sums, cutoff = model.truncated_moment_sums(0)
            assert sums[0] <= 1
            assert 1 - sums[0] < mpf10(-20)
            assert model.tail_bound(cutoff, 0) < mpf10(-30)

    def test_classical_limit(self):
        # beta=1: canonical pmf approaches the classical Pascal pmf linearly in lam
        p, r = F(3, 5), F(3)
        with mp.workdps(60):
            gaps = []
            for k in (4, 5, 6):
                model = MeasureModel(Params.make(F(-1, 10**k), 1, p, r))
                gap = max(
                    abs(model.pmf(n) - to_mpf(classical_pmf(n, p, r))) for n in range(11)
                )
                gaps.append(gap)
            assert gaps[2] < 10 * mpf10(-6)
            for a, b in zip(gaps, gaps[1:]):
                assert 8 < a / b < 12

    def test_mixture_quadrature_oracle(self, params):
        model = MeasureModel(params)
        with mp.workdps(70):
            for n, mass in zip(range(11), model.mixture_pmfs(range(11))):
                assert abs(mass - model.pmf(n)) < mpf10(-15)

    def test_mixture_batch_is_bit_identical(self):
        # the per-node table shared by a batch changes no bit of any mass,
        # whatever order the masses are asked for in
        model = MeasureModel(SET_C, 40)
        ns = list(range(0, 11, 2))
        single = [model.mixture_pmf(n)._mpf_ for n in ns]
        assert [m._mpf_ for m in model.mixture_pmfs(ns)] == single
        assert [m._mpf_ for m in model.mixture_pmfs(ns[::-1])] == single[::-1]

    def test_mixture_batch_rejects_negative_n(self, set_a):
        with pytest.raises(ValueError):
            MeasureModel(set_a).mixture_pmfs([-1])


class TestLiteralPmf:
    def test_value_at_zero(self, params):
        model = MeasureModel(params)
        with mp.workdps(70):
            a = 1 + to_mpf(params.lam) * to_mpf(params.r) * mpmath.log(to_mpf(params.p))
            expected = mpmath.power(a, to_mpf(params.beta / params.lam))
            assert abs(model.literal_pmf(0) - expected) < mpf10(-50)

    def test_mass_resummation(self, params):
        model = MeasureModel(params)
        with mp.workdps(70):
            sums = model.literal_moment_sums(0)
            assert abs(sums[0] - model.literal_mass()) < mpf10(-30)

    def test_classical_limit(self):
        # the closed form limits to p^r q^n / n! as lam -> 0 (beta=1): the
        # degenerate-exponential factor tends to p^r and (1)_{n,lam} to 1.
        # Note the extra 1/n! against the true Pascal mass.
        p, r = F(3, 5), F(3)
        lam = F(-1, 10**6)
        model = MeasureModel(Params.make(lam, 1, p, r))
        with mp.workdps(60):
            for n in range(8):
                limit = to_mpf(p**3 * F(2, 5) ** n) / math.factorial(n)
                rel = abs(model.literal_pmf(n) / limit - 1)
                assert rel < 100 * abs(to_mpf(lam))

    def test_literal_moment_matches_resummation(self, params):
        model = MeasureModel(params)
        with mp.workdps(70):
            sums = model.literal_moment_sums(6)
            for m in range(1, 7):
                lm = model.literal_moment(m)
                assert abs(sums[m] - lm) / max(abs(lm), mp.mpf(1)) < mpf10(-20)

    def test_literal_moment_rejects_zero(self, set_a):
        with pytest.raises(ValueError):
            MeasureModel(set_a).literal_moment(0)

    def test_literal_first_moment_closed_form(self, params):
        # resummation gives q*beta*(1 + lam(r log p + q))^(beta/lam - 1)
        model = MeasureModel(params)
        with mp.workdps(70):
            arg = to_mpf(params.r) * mpmath.log(to_mpf(params.p)) + to_mpf(params.q)
            expected = (
                to_mpf(params.q)
                * to_mpf(params.beta)
                * mpmath.power(1 + to_mpf(params.lam) * arg, to_mpf(params.beta / params.lam) - 1)
            )
            assert abs(model.literal_moment(1) - expected) < mpf10(-45)


class TestLaplaceAndMoments:
    def test_laplace_at_zero(self, params):
        model = MeasureModel(params)
        with mp.workdps(60):
            assert abs(model.laplace(0) - 1) < mpf10(-50)

    def test_laplace_series_linear_coefficient(self, params):
        model = MeasureModel(params)
        expected = params.beta * params.r * params.q / params.p
        assert model.moment_exact(1) == expected

    def test_laplace_matches_pmf_sum(self, params):
        model = MeasureModel(params)
        with mp.workdps(70):
            z = mp.mpf(-1)
            direct = model.laplace(z)
            total = mp.mpf(0)
            for n in range(model.adaptive_cutoff(0) + 1):
                total += model.pmf(n) * mpmath.e ** (z * n)
            assert abs(direct - total) < mpf10(-20)

    def test_moment_zero_is_one(self, params):
        assert MeasureModel(params).moment_exact(0) == 1

    def test_moments_match_truncated_sums(self, params):
        model = MeasureModel(params)
        with mp.workdps(70):
            sums, _ = model.truncated_moment_sums(8)
            for m in range(9):
                exact = to_mpf(model.moment_exact(m))
                assert abs(sums[m] - exact) / max(abs(exact), mp.mpf(1)) < mpf10(-20)

    def test_laplace_domain_errors(self, set_a):
        model = MeasureModel(set_a)
        with pytest.raises(DomainError):
            model.laplace(10)  # q e^z >= 1

    def test_moments_via_mixture_expectation(self, set_a):
        # first moment another way: E over the mixing law of r*S*q/p
        model = MeasureModel(set_a)
        with mp.workdps(50):
            mean_s = mpmath.quad(
                lambda s: s * model.mixture_density(s), [0, 4, mpmath.inf]
            )
            assert abs(mean_s - to_mpf(set_a.beta)) < mpf10(-15)
            first = to_mpf(set_a.r * set_a.q / set_a.p) * mean_s
            assert abs(first - to_mpf(model.moment_exact(1))) < mpf10(-14)


class TestMixtureDensity:
    def test_normalized(self, params):
        model = MeasureModel(params)
        with mp.workdps(60):
            total = mpmath.quad(model.mixture_density, [0, 1, mpmath.inf])
            assert abs(total - 1) < mpf10(-15)

    def test_laplace_of_density(self, params):
        model = MeasureModel(params)
        with mp.workdps(60):
            for s in (F(1, 2), F(1), F(2)):
                got = model.gamma_laplace(s)
                expected = mpmath.power(
                    1 - to_mpf(params.lam) * to_mpf(s), to_mpf(params.beta / params.lam)
                )
                assert abs(got - expected) < mpf10(-15)

    def test_domain(self, set_a):
        with pytest.raises(DomainError):
            MeasureModel(set_a).mixture_density(0)


class TestJointFunctional:
    def test_symmetry(self, set_a):
        model = MeasureModel(set_a)
        with mp.workdps(60):
            a = model.joint_laplace(F(1, 10), F(1, 5))
            b = model.joint_laplace(F(1, 5), F(1, 10))
            assert abs(a - b) < mpf10(-50)

    def test_double_sum_oracle(self, set_a):
        model = MeasureModel(set_a)
        with mp.workdps(60):
            closed = model.joint_laplace(F(1, 10), F(1, 5))
            oracle = model.joint_laplace_oracle(F(1, 10), F(1, 5))
            assert abs(closed - oracle) < mpf10(-15)

    def test_not_a_function_of_the_product(self, set_a):
        model = MeasureModel(set_a)
        with mp.workdps(60):
            a = model.joint_laplace(F(1, 10), F(1, 5))
            b = model.joint_laplace(F(1, 50), F(1))
            assert abs(a - b) > mpf10(-6)
