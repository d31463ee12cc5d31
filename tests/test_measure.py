"""Measure-side checks: pmf variants, Laplace transform, moments, mixture."""

import math
import random
import re
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp
from mpmath import mpmathify as to_mpf
from mpmath.ctx_iv import MPIntervalContext

from degenkraw import measure
from degenkraw.combinat import bell_triangle, deg_falling, stirling1_unsigned
from degenkraw.measure import (
    _GUARD_DIGITS,
    DomainError,
    MeasureModel,
    Params,
    _e_pow_raw,
    deg_exp_series,
)
from degenkraw.series import TSeries

from conftest import ALL_SETS, SET_C
from oracles import classical_pmf, deg_exp_by_fresh_context


def mpf10(e):
    return mpmath.mpf(10) ** e


# The mpf-object loops that pmf and truncated_moment_sums ran before the raw
# libmp kernel: oracles for its bits, term for term.

def _pmf_by_mpf_terms(model, n):
    w = model._phi_weights(n)
    with mp.workdps(model.precision + _GUARD_DIGITS):
        q = to_mpf(model.params.q)
        acc = mp.mpf(0)
        for j in range(n + 1):
            acc += to_mpf(stirling1_unsigned(n, j)) * w[j]
        return acc * q**n / to_mpf(math.factorial(n))


def _moment_sums_by_mpf_terms(model, m_max):
    cutoff = model.adaptive_cutoff(m_max)
    w = model._phi_weights(cutoff)
    with mp.workdps(model.precision + 2 * _GUARD_DIGITS):
        q = to_mpf(model.params.q)
        sums = [mp.mpf(0) for _ in range(m_max + 1)]
        row = [1]
        factor = mp.mpf(1)
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


# The mpf-object integrands of the Gamma-mixture quadratures before the raw
# libmp kernels, integrated by the same quad call: oracles for their bits.

def _quad_by_mpf_terms(model, f):
    # the mixing density at the model's precision, also inside quad
    p = model.params
    with mp.workdps(model.precision + _GUARD_DIGITS):
        shape, scale = -to_mpf(p.beta / p.lam), -to_mpf(p.lam)
        norm = mpmath.gamma(shape) * scale**shape

        def integrand(s):
            with mp.workdps(model.precision + _GUARD_DIGITS):
                density = s ** (shape - 1) * mpmath.e ** (-s / scale) / norm
            return f(s) * density

        return mpmath.quad(integrand, [0, shape * scale, mpmath.inf])


def _mixture_pmf_by_mpf_terms(model, n):
    with mp.workdps(model.precision + _GUARD_DIGITS):
        logp = mpmath.log(to_mpf(model.params.p))
        logq = mpmath.log(to_mpf(model.params.q))
        r = to_mpf(model.params.r)
        lognfact = mpmath.loggamma(n + 1)

        def pascal(s):
            lg = mpmath.loggamma(r * s)
            return mpmath.e ** (mpmath.loggamma(n + r * s) - lg - lognfact + r * s * logp + n * logq)

        return _quad_by_mpf_terms(model, pascal)


def _gamma_laplace_by_mpf_terms(model, x):
    with mp.workdps(model.precision + _GUARD_DIGITS):
        x = to_mpf(x)
        return _quad_by_mpf_terms(model, lambda s: mpmath.e ** (-s * x))


def _node_entries(model):
    # entries built in the model's node tables of [0, mean] and [mean, inf]
    return [len(table._entries) for table in model._nodes]


def _bits(values):
    return [v._mpf_ for v in values]


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
        with pytest.raises(TypeError):
            Params.make(-1, True, "1/2", True)  # not beta = r = 1
        with pytest.raises(TypeError):
            Params.make(-1, 1, "1/2", False)

    def test_q_is_complement(self):
        p = Params.make("-1/2", 2, "3/5", 3)
        assert p.q == F(2, 5)

    def test_q_is_derived(self):
        # q is no field, so no Params can hold a q other than 1 - p
        assert list(Params._fields) == ["lam", "beta", "p", "r"]
        for p in ("3/5", "1/7", "999/1000"):
            assert Params.make(-1, 1, p, 1).q == 1 - F(p)
        with pytest.raises(TypeError):
            Params(F(-1), F(1), F(3, 5), F(1), q=F(2, 5))


class TestDegExp:
    def test_at_zero(self, params):
        with mp.workdps(50):
            assert MeasureModel(params)._deg_exp(0) == 1

    def test_geometric_case(self):
        # lambda=-1, beta=1 collapses to 1/(1-z)
        params = Params.make(-1, 1, "1/2", 1)
        with mp.workdps(50):
            model = MeasureModel(params)
            for z in (F(1, 3), F(-2), F(9, 10)):
                got = model._deg_exp(z)
                assert abs(got - 1 / (1 - to_mpf(z))) < mpf10(-45)

    def test_domain_error(self):
        params = Params.make(-1, 1, "1/2", 1)
        with pytest.raises(DomainError):
            MeasureModel(params)._deg_exp(2)

    @pytest.mark.parametrize("digits", [40, 60, 120])
    @pytest.mark.parametrize("name", list(ALL_SETS))
    def test_model_context_keeps_the_bits(self, name, digits):
        # the model's own context has the precision of the one the reference
        # builds per call, so every bit, and every domain error, is the same:
        # rational arguments across the domain's edge, and model-context mpfs
        # such as the ones pgf and joint_laplace pass
        params = ALL_SETS[name]
        model = MeasureModel(params, digits)
        num = model._num
        args = [F(k, 7) for k in range(-40, 41)]
        args += [3 * num.log(num.convert(F(k, 5))) for k in range(1, 28)]
        errors = 0
        for z in args:
            try:
                want = deg_exp_by_fresh_context(z, params, digits)
            except DomainError as exc:
                with pytest.raises(DomainError, match=re.escape(str(exc))):
                    model._deg_exp(z)
                errors += 1
                continue
            got = model._deg_exp(z)
            assert got._mpf_ == want._mpf_ and got.context is num, z
        assert 0 < errors < len(args)

    def test_series_coefficients_are_degenerate_factorials(self, params):
        series = deg_exp_series(TSeries([0, 1], 10), params)
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
        # generic partial-Bell evaluator instead of the Stirling collapse; the
        # Bell values are exact, of the rational inner derivatives r q^m (m-1)!
        model = MeasureModel(params)
        inner = [params.r * params.q**m * math.factorial(m - 1) for m in range(1, 12)]
        rows = bell_triangle(inner)
        with mp.workdps(70):
            a = 1 + to_mpf(params.lam) * to_mpf(params.r) * mpmath.log(to_mpf(params.p))
            for n in range(11):
                acc = mp.mpf(0)
                for j in range(n + 1):
                    phi_j = to_mpf(deg_falling(params.beta, j, params.lam)) * mpmath.power(
                        a, to_mpf(params.beta / params.lam) - j
                    )
                    acc += phi_j * to_mpf(rows[n][j])
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
        single = [model.mixture_pmfs([n])[0]._mpf_ for n in ns]
        assert [m._mpf_ for m in model.mixture_pmfs(ns)] == single
        assert [m._mpf_ for m in model.mixture_pmfs(ns[::-1])] == single[::-1]

    def test_mixture_batch_rejects_negative_n(self, set_a):
        with pytest.raises(ValueError):
            MeasureModel(set_a).mixture_pmfs([-1])

    def test_zero_mass_calls_no_loggamma(self, monkeypatch):
        # loggamma(r*s + 0) - loggamma(r*s), loggamma(1) and 0*log q are exact
        # zeros, so the n = 0 mass integrates e ** (r*s*log p) alone; the
        # per-node loggamma(r*s) arrives with the first n >= 1 mass
        calls = []
        loggamma = measure.mpf_loggamma
        monkeypatch.setattr(
            measure, "mpf_loggamma", lambda *args: calls.append(args) or loggamma(*args)
        )
        model = MeasureModel(ALL_SETS["B"], 40)
        model.mixture_pmfs([0])
        assert calls == []
        model.mixture_pmfs([1])
        assert calls

    def test_zero_mass_against_its_enclosure(self):
        # pmf(0) = a^(beta/lam), enclosed at 100 digits: pmf(0) is good to
        # its 60 digits on both sets, and so is set A's n = 0 quadrature,
        # but set B's never converges (shape -beta/lam = 1/2, a density
        # ~ s^(-1/2)) and stays about 1e-40 off.  Recorded, not fixed: a fix
        # changes the audit's printed residuals.
        iv = MPIntervalContext()  # a private context: mpmath.iv keeps its precision
        iv.dps = 100
        gaps = {}
        for name in ("A", "B"):
            p = ALL_SETS[name]
            lam, beta, prob, r = (iv.mpf(str(v)) for v in (p.lam, p.beta, p.p, p.r))
            enclosure = (1 + lam * r * iv.log(prob)) ** (beta / lam)
            model = MeasureModel(p, 60)
            with mp.workdps(100):
                lo, hi = mp.mpf(enclosure.a), mp.mpf(enclosure.b)
                for kind, value in (("pmf", model.pmf(0)), ("mix", model.mixture_pmfs([0])[0])):
                    gaps[name, kind] = max(lo - value, value - hi, 0)
        assert mpf10(-42) <= gaps["B", "mix"] <= mpf10(-38)
        for key in (("A", "mix"), ("A", "pmf"), ("B", "pmf")):
            assert gaps[key] < mpf10(-70), key


class TestModelConstants:
    def test_equality_is_point_and_precision(self, set_a):
        # the caches hold only values of (point, precision), so they take no
        # part in equality, before or after they grow
        model, twin = MeasureModel(set_a, 40), MeasureModel(set_a, 40)
        assert model == twin
        model.pmf(12)
        model.adaptive_cutoff(2)
        model.gamma_laplaces([F(1, 2)])  # fills the node tables
        assert model == twin and twin == model
        assert model != MeasureModel(set_a, 41)
        assert model != MeasureModel(SET_C, 40)
        assert repr(model) == repr(twin)

    def test_constants_computed_once(self, set_a, monkeypatch):
        # the tail anchor's pgf value and the mixing law's gamma value are
        # computed once per model, not at every step of the cutoff search
        pgf_points, gamma_args = [], []
        pgf = MeasureModel.pgf
        monkeypatch.setattr(
            MeasureModel, "pgf", lambda self, x: pgf_points.append(x) or pgf(self, x)
        )
        model = MeasureModel(set_a, 40)
        gamma = model._num.gamma
        monkeypatch.setattr(model._num, "gamma", lambda z: gamma_args.append(z) or gamma(z))
        model.adaptive_cutoff(4)
        model.tail_bound(50, 2)
        for s in (F(1, 2), F(2)):
            model.mixture_density(s)
        assert len(pgf_points) == 1 and len(gamma_args) == 1


class TestLibmpKernels:
    """The raw libmp kernels give the bits of the mpf expressions they replace."""

    @pytest.mark.parametrize("digits", [40, 60, 120, 200])
    @pytest.mark.parametrize("outer", [None, 300], ids=["bare", "outer300"])
    def test_pmf_is_bit_identical(self, params, digits, outer):
        # row 60's Stirling entries reach 270 bits, wider than the 186-bit
        # working precision at 40 digits; an outer precision must not leak in
        model = MeasureModel(params, digits)
        with mp.workdps(outer or mp.dps):
            got = _bits(model.pmf(n) for n in range(61))
            assert got == _bits(_pmf_by_mpf_terms(model, n) for n in range(61))

    @pytest.mark.parametrize(
        "digits, name",
        [pytest.param(d, name, id=f"{d}-{name}") for name in ALL_SETS for d in (40, 60)]
        + [pytest.param(120, "C", id="120-C")],  # the benchmark's precision
    )
    @pytest.mark.parametrize("outer", [None, 300], ids=["bare", "outer300"])
    def test_moment_sums_are_bit_identical(self, name, digits, outer):
        model = MeasureModel(ALL_SETS[name], digits)
        with mp.workdps(outer or mp.dps):
            for m_max in (0, 3, 8):  # the cutoff grows with m_max
                sums, cutoff = model.truncated_moment_sums(m_max)
                expected, expected_cutoff = _moment_sums_by_mpf_terms(model, m_max)
                assert cutoff == expected_cutoff
                assert _bits(sums) == _bits(expected)

    @pytest.mark.parametrize(
        "digits, name, ns, xs",
        [pytest.param(40, name, [0, 2, 7], [F(1, 2), F(2)], id=name) for name in ALL_SETS]
        # the audit's own calls; the node sum's drop threshold 2*prec moves with digits
        + [
            pytest.param(60, name, range(11), [F(1, 2), F(1), F(2)], id=f"60-{name}")
            for name in ALL_SETS
        ],
    )
    def test_quadratures_are_bit_identical(self, digits, name, ns, xs):
        model = MeasureModel(ALL_SETS[name], digits)
        expected = _bits(_mixture_pmf_by_mpf_terms(model, n) for n in ns)
        assert _bits(model.mixture_pmfs(ns)) == expected
        expected = _bits(_gamma_laplace_by_mpf_terms(model, x) for x in xs)
        assert _bits(model.gamma_laplaces(xs)) == expected

    @pytest.mark.parametrize("bits", [50, 200, 700])
    def test_e_pow_is_bit_identical(self, bits):
        rng = random.Random(20261018 + bits)
        with mp.workprec(bits):
            special = [0, 1, mp.mpf(1) / 2, 3, "1e-30", "123.456", 10**5]
            ys = [mp.mpf(v) * sign for v in special for sign in (1, -1)]
            ys += [mpmath.inf, -mpmath.inf, mpmath.nan, mp.mpf(7) / 2, mp.mpf(-5) / 4]
            for _ in range(200):  # magnitudes from 2^-bits to 2^9, either sign
                man = rng.getrandbits(bits) * rng.choice((1, -1))
                ys.append(mpmath.ldexp(mp.mpf(man), rng.randint(-2 * bits, -bits + 9)))
            for y in ys:
                assert _e_pow_raw(y._mpf_, mp) == (mpmath.e**y)._mpf_, y


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
            assert abs(model.pgf(mpmath.exp(0)) - 1) < mpf10(-50)

    def test_laplace_series_linear_coefficient(self, params):
        model = MeasureModel(params)
        expected = params.beta * params.r * params.q / params.p
        assert model.moment_exact(1) == expected

    def test_laplace_matches_pmf_sum(self, params):
        model = MeasureModel(params)
        with mp.workdps(70):
            z = mp.mpf(-1)
            direct = model.pgf(mpmath.exp(z))
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
            model.pgf(mpmath.exp(10))  # q e^z >= 1

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
                got = model.gamma_laplaces([s])[0]
                expected = mpmath.power(
                    1 - to_mpf(params.lam) * to_mpf(s), to_mpf(params.beta / params.lam)
                )
                assert abs(got - expected) < mpf10(-15)

    def test_laplace_batch_is_bit_identical(self):
        # the node tables, densities included, shared by a batch change no bit of
        # any transform, whatever order the points are asked for in
        model = MeasureModel(SET_C, 40)
        xs = [F(1, 2), F(1), F(2)]
        single = [model.gamma_laplaces([x])[0]._mpf_ for x in xs]
        assert [v._mpf_ for v in model.gamma_laplaces(xs)] == single
        assert [v._mpf_ for v in model.gamma_laplaces(xs[::-1])] == single[::-1]

    def test_node_densities_shared_across_quadratures(self):
        # mixture_pmfs fills the model's node tables, densities included,
        # first; the transforms that then read them keep every bit of a fresh
        # model's and build no entry the masses had not built
        model = MeasureModel(SET_C, 40)
        model.mixture_pmfs(range(4))
        filled = _node_entries(model)
        xs = [F(1, 2), F(1), F(2)]
        fresh = MeasureModel(SET_C, 40)
        assert _bits(model.gamma_laplaces(xs)) == _bits(fresh.gamma_laplaces(xs))
        assert min(filled) > 0 and _node_entries(model) == filled == _node_entries(fresh)

    def test_domain(self, set_a):
        with pytest.raises(DomainError):
            MeasureModel(set_a).mixture_density(0)

    def test_laplace_domain(self, set_a):
        # (1 - lam*x)^(beta/lam) diverges unless 1 - lam*x > 0, that is x > -2
        # on set A; the batch is refused before any quadrature runs
        model = MeasureModel(set_a, 40)
        for x in (-2, F(-5, 2), -3):
            with pytest.raises(DomainError, match=r"1 - lambda\*x <= 0"):
                model.gamma_laplaces([F(1, 2), x])
        assert _node_entries(model) == [0, 0]
        # inside, e^(-s x) > 1 lets no node be skipped: near the edge, at
        # x = -19/10, skipping by the x >= 0 bound would change bits; the
        # values keep quad's bits and the closed form (1 + x/2)^(-4)
        for x in (F(-1), F(-19, 10)):
            got = model.gamma_laplaces([x])[0]
            assert got._mpf_ == _gamma_laplace_by_mpf_terms(model, x)._mpf_
            assert abs(got / to_mpf((1 + x / 2) ** -4) - 1) < mpf10(-15)


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


class TestSampler:
    def test_draws_are_not_copied(self, set_a):
        # numpy's Poisson draw is already int64: the mixing, rate and draw
        # arrays are the most that are alive at once, with no fourth copy
        import tracemalloc

        import numpy as np

        from degenkraw.sampling import sample

        count = 1_000_000
        model = MeasureModel(set_a)
        tracemalloc.start()
        try:
            draws = sample(count, 1, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert draws.dtype == np.int64 and draws.shape == (count,)
        assert peak < 3.5 * count * 8
