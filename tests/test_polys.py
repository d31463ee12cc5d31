"""Polynomial families: construction routes, identities, limits."""

import copy
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_SETS
from degenkraw.combinat import bracket_y, epsilon, eta, stirling1, theta_series, theta_triangle
from degenkraw.measure import Params, exact_moments, laplace_series
from degenkraw.polys import (
    K_ROUTES,
    P_ROUTES,
    K_bell,
    K_epsilon,
    K_from_P,
    K_series,
    K_stirling,
    P_bell,
    P_from_K,
    P_from_K_stirling2,
    P_series,
    _in_y,
    _shifted,
    addition_P3,
    addition_P4,
    c_coeffs,
    classical_K,
    deg_exp_xi_series,
    family,
    monomial_from_K,
    mu_coeffs,
    stirling2_weight,
    stirling_transition,
    xi_derivs,
    xi_series,
)
from degenkraw.series import TSeries, XPoly
from oracles import (
    c_coeffs_by_fractions,
    classical_by_series,
    compose,
    stirling2_weight_by_fractions,
    stirling_transition_by_calls,
)


class TestCoefficientData:
    def test_xi_derivs_closed_form(self, params):
        # m! [t^m] r log(1+qt) equals the closed derivative values
        order = 10
        series = xi_series(params, order)
        derivs = xi_derivs(order, params)
        assert derivs[0] == 0
        assert derivs[1] == params.r * params.q
        assert derivs[2] == -params.r * params.q**2
        for m in range(order + 1):
            assert derivs[m] == math.factorial(m) * series.coeff(m)

    def test_mu_low_orders(self, params):
        mu = mu_coeffs(2, params)
        assert mu[0] == 1
        assert mu[1] == params.beta * params.r * params.q
        expected2 = (
            params.beta * (params.beta - params.lam) * params.r**2 * params.q**2
            - params.beta * params.r * params.q**2
        )
        assert mu[2] == expected2

    def test_mu_dual_route(self, params):
        # composition-derivative values against the series derivatives
        order = 10
        series_route = deg_exp_xi_series(params, order).derivative_list()
        assert mu_coeffs(order, params) == series_route

    @pytest.mark.parametrize(
        "point",
        [*ALL_SETS.values(), Params.make("-3/7", "5/3", "2/9", "7/4")],
        ids=[*ALL_SETS, "D"],
    )
    def test_denominator_is_laplace_of_theta(self, point):
        # D = L o theta (Roman, The Umbral Calculus, 1984, ch. 2): since
        # p / (1 - q e^theta(t)) = 1 + qt, the measure's Laplace transform at
        # theta is K's generating denominator, the tie between laplace_series
        # and deg_exp_xi_series that no route states
        order = 14
        got = compose(laplace_series(point, order), theta_series(point.q, order))
        assert got == deg_exp_xi_series(point, order)

    def test_c_frozen_values(self, params):
        c = c_coeffs(2, params)
        q, b, lam, r = params.q, params.beta, params.lam, params.r
        assert c[0] == 1
        assert c[1] == -q * b
        assert c[2] == 2 * q**2 * b**2 - (b - lam) * b * q**2 + b * q**2 / r

    def test_c_dual_route(self, params):
        order = 10
        recip = deg_exp_xi_series(params, order).reciprocal()
        series_route = [
            math.factorial(n) * params.r**-n * recip.coeff(n) for n in range(order + 1)
        ]
        assert c_coeffs(order, params) == series_route

    def test_c_holds_to_the_fraction_recurrence(self, params):
        # integer numerators over powers of one denominator against the
        # recurrence in Fraction arithmetic, also at a point whose lam, beta,
        # p and r have coprime denominators
        for point in (params, Params.make("-7/3", "5/11", "1/13", "9/4")):
            for n_max in (0, 1, 24):
                got = c_coeffs(n_max, point)
                want = c_coeffs_by_fractions(mu_coeffs(n_max, point), point.r)
                assert got == want and all(type(c) is F for c in got), n_max

    def test_mu_reads_one_bell_triangle(self, set_a, monkeypatch):
        # every mu_k through the order comes from one composition-derivative
        # call, so one Bell triangle of the inner derivatives
        import degenkraw.combinat as cb

        built = []
        original = cb.bell_triangle
        monkeypatch.setattr(cb, "bell_triangle", lambda xs: built.append(xs) or original(xs))
        mu_coeffs(24, set_a)
        assert len(built) == 1

    def test_coeff_table_invariants(self, params):
        assert c_coeffs(8, params)[0] == 1
        assert mu_coeffs(8, params)[0] == 1
        xi = xi_derivs(8, params)
        for m in range(1, 9):
            assert xi[m] == params.r * F((-1) ** (m - 1) * math.factorial(m - 1)) * params.q**m


class TestKFamily:
    def test_first_members(self, params):
        fam = K_series(params, 2)
        p, q, b, r = params.p, params.q, params.beta, params.r
        assert fam[0] == 1
        assert fam[1] == XPoly((-b * r * q, p))

    def test_k1_from_assembly(self, params):
        # n=1 assembly: r*c_1 + epsilon_1 reweighted = p x - beta r q
        c = c_coeffs(1, params)
        expected = params.r * c[1] * epsilon(0, params.q) + epsilon(1, params.q)
        assert K_series(params, 1)[1] == expected

    def test_cross_construction_equality(self, params):
        n_max = 12
        base = K_series(params, n_max)
        assert K_epsilon(params, n_max).members == base.members
        assert K_from_P(params, n_max).members == base.members
        n_bell = 10
        assert K_bell(params, n_bell).members == base.members[: n_bell + 1]
        assert K_stirling(params, n_bell).members == base.members[: n_bell + 1]

    def test_generating_function_regression(self, params):
        # sum K_n t^n/n! reproduces the generating series coefficient-wise,
        # with ((1+t)/(1+qt))^x read from the epsilon table rather than
        # built as exp(x theta(t)), as K_series builds it
        order = 8
        fam = K_series(params, order)
        omega_x = TSeries([epsilon(k, params.q) for k in range(order + 1)], order)
        psi = omega_x * deg_exp_xi_series(params, order).reciprocal()
        for n in range(order + 1):
            got = psi.coeff(n)
            got = got if isinstance(got, XPoly) else XPoly.const(got)
            assert fam[n] == math.factorial(n) * got

    def test_series_route_reads_no_bracket_table(self, monkeypatch):
        # the canonical route builds ((1+t)/(1+qt))^x as exp(x theta(t)), so
        # it stays independent of the epsilon/bracket table that the epsilon
        # and bell-corrected routes read: with that table disabled it still
        # builds.  A point no other test uses keeps every cache cold.
        import degenkraw.combinat as cb

        def disabled(*args):
            raise AssertionError("the series route read the bracket table")

        monkeypatch.setattr(cb, "_bracket_table", disabled)
        params = Params.make("-5/6", "7/3", "3/8", "2/5")
        series = K_series(params, 12)
        with pytest.raises(AssertionError):
            K_epsilon(params, 12)
        monkeypatch.undo()
        assert series.members == K_epsilon(params, 12).members

    def test_sympy_series_matches(self, params):
        # a third route, from outside the package: SymPy expands the
        # generating function itself, without TSeries, for n <= 6
        import sympy

        x, t = sympy.symbols("x t")
        lam, beta, q, r = (
            sympy.Rational(v.numerator, v.denominator)
            for v in (params.lam, params.beta, params.q, params.r)
        )
        gf = ((1 + t) / (1 + q * t)) ** x / (1 + lam * r * sympy.log(1 + q * t)) ** (beta / lam)
        expansion = sympy.series(gf, t, 0, 7).removeO()
        fam = K_series(params, 6)
        for n in range(7):
            member = sympy.Poly(sympy.expand(sympy.factorial(n) * expansion.coeff(t, n)), x)
            coeffs = member.all_coeffs()
            assert all(c.is_Rational for c in coeffs), n
            assert XPoly(F(int(c.p), int(c.q)) for c in reversed(coeffs)) == fam[n], n

    def test_leading_coefficient(self, params):
        fam = K_series(params, 10)
        for n in range(11):
            assert fam[n].leading == params.p**n

    def test_derivative_rule(self, params):
        # x-derivatives follow the log-quotient weights, one order down:
        # K_n' = sum_{j>=1} n!/(n-j)! (eta_j/j!) K_{n-j}
        fam = K_series(params, 12)
        for n in range(1, 13):
            acc = XPoly()
            for j in range(1, n + 1):
                w = F(math.factorial(n), math.factorial(n - j)) * eta(j, params.q) / math.factorial(j)
                acc = acc + w * fam[n - j]
            assert fam[n].derivative() == acc

    def test_literal_variants_diverge(self, set_a):
        base = K_series(set_a, 4)
        assert K_bell(set_a, 4, "literal").members != base.members
        assert K_stirling(set_a, 4, "literal").members != base.members

    def test_route_dispatch(self, set_a):
        for route in ("series", "epsilon", "from-p", "bell-corrected", "stirling-oracle"):
            assert family(set_a, 6, route).members == K_series(set_a, 6).members
        for route in K_ROUTES + P_ROUTES + ("classical",):
            assert family(set_a, 3, route).route == route
        with pytest.raises(ValueError):
            family(set_a, 4, "nope")

    @pytest.mark.parametrize("route", K_ROUTES + P_ROUTES + ("classical",))
    def test_negative_order_raises_value_error(self, set_a, route):
        # a family needs member 0, whichever construction it takes
        with pytest.raises(ValueError):
            family(set_a, -1, route)


class TestPFamily:
    def test_first_members(self, params):
        fam = P_series(params, 2)
        m1 = params.beta * params.r * params.q / params.p
        assert fam[0] == 1
        assert fam[1] == XPoly((-m1, 1))

    def test_route_equality(self, params):
        n_max = 10
        base = P_series(params, n_max)
        assert P_bell(params, n_max).members == base.members
        assert P_from_K(params, n_max).members == base.members
        assert P_from_K_stirling2(params, 8).members == base.members[:9]

    def test_appell_derivative(self, params):
        fam = P_series(params, 12)
        for n in range(1, 13):
            assert fam[n].derivative() == n * fam[n - 1]

    def test_constant_terms_match_bell_sums(self, params):
        # value at 0 equals the alternating Bell sum over moments
        from degenkraw.combinat import bell_triangle

        rows = bell_triangle(exact_moments(params, 11)[1:])
        fam = P_series(params, 10)
        for n in range(11):
            acc = F(0)
            for k in range(n + 1):
                acc += F((-1) ** k * math.factorial(k)) * rows[n][k]
            assert fam[n](F(0)) == acc

    def test_stirling2_route_leading_term(self, params):
        # the K_n weight in P_n is n! S(n,n)/p^n / n! = p^-n
        n = 5
        fam_k = K_series(params, n)
        fam_p = P_from_K_stirling2(params, n)
        diff = fam_p[n] - fam_k[n] / params.p**n
        assert diff.degree < n

    def test_stirling2_weights_hold_to_the_fraction_sum(self, params):
        # one integer sum per weight against the Fraction sum term by term
        for n in range(25):
            for k in range(n + 1):
                got = stirling2_weight(n, k, params.q)
                want = stirling2_weight_by_fractions(n, k, params.q)
                assert got == want and type(got) is type(want)

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_family_survives_pickling_and_copying(self, set_a, copier):
        # so a family can be handed to a process pool or deep-copied
        fam = K_series(set_a, 24)
        got = copier(fam)
        assert got == fam and hash(got) == hash(fam)
        assert got.route == "series" and all(type(m) is XPoly for m in got.members)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.builds(
        lambda u, den: F(u % (den - 1) + 1, den),
        st.integers(0, 2**70),
        st.sampled_from([2, 3, 10, 7**5, 3**40, 2**61 - 1]),
    ),
    st.integers(0, 20),
    st.integers(0, 20),
)
def test_stirling2_weight_holds_at_any_q(q, n, k):
    k = min(k, n)
    got = stirling2_weight(n, k, q)
    want = stirling2_weight_by_fractions(n, k, q)
    assert got == want and type(got) is type(want)


class TestBasisChanges:
    def test_k_from_p_low_order(self, params):
        # varpi(1,1)/1! P_1 + varpi(0,1) P_0 = p(x - m1) = px - beta r q
        p_fam = P_series(params, 1)
        got = (1 - params.q) * p_fam[1]
        assert got == K_series(params, 1)[1]

    def test_p_from_k_roundtrip(self, params):
        n_max = 8
        k_fam = K_series(params, n_max)
        p_fam = P_from_K(params, n_max)
        # apply the forward change, varpi(m, n)/m! = n! [z^n] theta^m / m!, to
        # the recovered companions: must give K back
        rows = theta_triangle(params.q)
        for n in range(n_max + 1):
            acc = XPoly()
            for m in range(n + 1):
                acc = acc + rows[n][m] * p_fam[m]
            assert acc == k_fam[n]

    def test_monomials(self, params):
        assert monomial_from_K(params, 10) == [XPoly([0] * n + [1]) for n in range(11)]

    def test_monomial_n1_assembly(self, set_a):
        # K_1/p + M(1): the varrho(1,1)=1/p weight is what restores x exactly
        k1 = K_series(set_a, 1)[1]
        m1 = exact_moments(set_a, 1)[1]
        assert k1 / set_a.p + m1 == XPoly.x()


class TestAdditionIdentities:
    def test_p3_corrected_zero(self, params):
        residuals = addition_P3(params, 8, "corrected")
        assert len(residuals) == 9
        assert all(res.is_zero() for res in residuals)

    def test_p3_literal_nonzero(self, params):
        res = addition_P3(params, 1, "literal")[1]
        assert not res.is_zero()
        # residual is p(y - x) at n=1: -p*x times y^0, p times y^1
        assert res == TSeries([XPoly((0, -params.p)), XPoly((params.p,))], 1)

    @pytest.mark.parametrize(
        "name, n, text",
        [
            ("A", 1, "3/5*y - 3/5*x"),
            ("A", 2, "-93/25*y + 9/25*y^2 + 93/25*x + 18/25*x*y - 27/25*x^2"),
            ("A", 3, "2178/125*y - 513/125*y^2 + 27/125*y^3 - 2178/125*x - 1026/125*x*y"
                     " + 81/125*x*y^2 + 1539/125*x^2 + 81/125*x^2*y - 189/125*x^3"),
            ("B", 2, "-1*y + 1/4*y^2 + 1*x + 1/2*x*y - 3/4*x^2"),
            ("B", 3, "77/32*y - 21/16*y^2 + 1/8*y^3 - 77/32*x - 21/8*x*y + 3/8*x*y^2"
                     " + 63/16*x^2 + 3/8*x^2*y - 7/8*x^3"),
            ("C", 2, "-203/50*y + 49/100*y^2 + 203/50*x + 49/50*x*y - 147/100*x^2"),
            ("C", 3, "308021/16000*y - 10437/2000*y^2 + 343/1000*y^3 - 308021/16000*x"
                     " - 10437/1000*x*y + 1029/1000*x*y^2 + 31311/2000*x^2"
                     " + 1029/1000*x^2*y - 2401/1000*x^3"),
        ],
    )
    def test_p3_literal_residual_text(self, name, n, text):
        # the audit prints the literal residual as its terms c*x^i*y^j in
        # (i, j) order; these are the strings of the bivariate class it replaced
        from degenkraw.audit import _xy_terms

        assert _xy_terms(addition_P3(ALL_SETS[name], n, "literal")[n]) == text

    def test_lift_into_y_never_truncates(self):
        # a series in y of order n holds degree n at most: a higher degree
        # raises instead of dropping the terms past y^n
        cubic = XPoly((1, 2, 3, 4))
        assert _in_y(cubic.coeffs, 3) == TSeries([1, 2, 3, 4], 3)
        assert _shifted(cubic, 3).coeffs[3] == 4
        with pytest.raises(ValueError):
            _in_y(cubic.coeffs, 2)
        with pytest.raises(ValueError):
            _shifted(cubic, 2)

    def test_p4_zero(self, params):
        residuals = addition_P4(params, 10)
        assert len(residuals) == 11
        assert all(res.is_zero() for res in residuals)

    def test_identity_sides_read_no_binomial_sum(self, monkeypatch):
        # the canonical families and the Taylor shift K_n(x+y), one side of
        # every addition, translation and monomial check, never call the
        # binomial kernel: with it disabled they still build, and the
        # kernel's side fails
        import degenkraw.combinat as cb
        import degenkraw.operators as ops
        import degenkraw.polys as polys

        def disabled(*args):
            raise AssertionError("the binomial kernel was read")

        for module in (cb, polys, ops):
            monkeypatch.setattr(module, "binomial_sum", disabled)
        params = Params.make("-5/3", "4/7", "5/9", "7/4")
        k = K_series.__wrapped__(params, 6)
        P_series.__wrapped__(params, 6)
        _shifted(k[6], 6)
        with pytest.raises(AssertionError):
            addition_P4(params, 6)

    def test_p4_y_zero_specialization(self, params):
        from degenkraw.combinat import bracket_y

        assert bracket_y(0, params.q)(F(0)) == 1
        for m in range(1, 8):
            assert bracket_y(m, params.q)(F(0)) == 0


def _stirling_transition_by_terms(n, k, q, upper):
    """The double Stirling sum as printed, one Fraction product per term: the
    reference form ``stirling_transition`` is held to."""
    total = F(0)
    for j in range(k + 1):
        hi = n - k + j if upper == "plus" else n - k - j
        for m in range(j, hi + 1):
            total += (
                F((-1) ** (k - j))
                * math.comb(n, m)
                * stirling1(m, j)
                * stirling1(n - m, k - j)
                * q ** (n - m)
            )
    return total


class TestStirlingTransition:
    def test_corrected_bound_matches_series_powers(self, params):
        from degenkraw.combinat import theta_series

        n_max = 8
        theta = theta_series(params.q, n_max)
        power = TSeries.one(n_max)
        rows = theta_triangle(params.q)
        for k in range(n_max + 1):
            for n in range(n_max + 1):
                oracle = math.factorial(n) * power.coeff(n) / math.factorial(k)
                assert (rows[n][k] if k <= n else 0) == oracle
                assert stirling_transition(n, k, params.q, "plus") == oracle
            power = power * theta

    @pytest.mark.parametrize("upper", ["plus", "minus"])
    def test_matches_term_by_term_sum(self, params, upper):
        for n in range(13):
            for k in range(13):
                assert stirling_transition(n, k, params.q, upper) == _stirling_transition_by_terms(
                    n, k, params.q, upper
                ), (n, k)

    @pytest.mark.parametrize("upper", ["plus", "minus"])
    def test_row_reads_hold_to_the_stirling1_calls(self, params, upper):
        # the unsigned rows, read once per call with one folded sign, against
        # one signed stirling1 call per factor
        for n in range(25):
            for k in range(n + 1):
                got = stirling_transition(n, k, params.q, upper)
                want = stirling_transition_by_calls(n, k, params.q, upper)
                assert got == want and type(got) is type(want), (n, k)

    def test_literal_bound_diverges(self, set_a):
        assert stirling_transition(1, 1, set_a.q, "minus") != stirling_transition(
            1, 1, set_a.q, "plus"
        )

    def test_oracle_route_reads_no_theta_table(self, monkeypatch):
        # the oracle route must stay independent of from-p: with the
        # [1, theta] table disabled it still builds.  A point no
        # other test uses keeps every family cache cold.
        import degenkraw.combinat as cb
        import degenkraw.polys as polys

        def disabled(*args):
            raise AssertionError("the oracle route read the [1, theta] table")

        for module in (cb, polys):
            monkeypatch.setattr(module, "theta_triangle", disabled)
        params = Params.make("-3/4", "5/2", "2/7", "5/4")
        oracle = K_stirling(params, 12, "oracle")
        with pytest.raises(AssertionError):
            K_from_P(params, 12)
        monkeypatch.undo()
        assert oracle.members == K_series(params, 12).members


class TestPolynomialCost:
    def test_canonical_routes_never_enumerate(self):
        # the composition and partition sums are test oracles only, in
        # tests/oracles.py: no degenkraw module defines or imports an
        # enumerator, the oracles or sympy, and every canonical route builds.
        # A point no other test uses keeps every cache cold.
        import ast
        from pathlib import Path

        import degenkraw
        from degenkraw.operators import scaled_member

        enumerators = {
            "compositions", "_bell_multiplicities", "bell_partial_by_partitions",
            "varpi_by_compositions", "varrho_by_compositions", "rho_by_compositions",
        }
        for path in Path(degenkraw.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    assert node.name not in enumerators, (path.name, node.name)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = {a.name for a in node.names} | {getattr(node, "module", None)}
                    assert not names & enumerators, (path.name, names)
                    assert not any(
                        name and name.split(".")[0] in ("oracles", "tests", "sympy") for name in names
                    ), (path.name, names)
        params = Params.make("-2/3", "3/2", "5/9", "4/3")
        n_max = 12
        k_base, p_base = K_series(params, n_max), P_series(params, n_max)
        for route in K_ROUTES + P_ROUTES:
            if route.endswith("literal"):
                continue
            base = p_base if route.startswith("p-") else k_base
            assert family(params, n_max, route).members == base.members, route
        for n in range(n_max + 1):
            assert scaled_member(n, F(2), params) == k_base[n].scale_arg(F(2))

    def test_routes_agree_at_n_max_24(self, set_a):
        # the basis changes and Bell routes at an n_max their composition
        # and partition sums could not reach in test time
        n_max = 24
        k_base, p_base = K_series(set_a, n_max), P_series(set_a, n_max)
        for route in ("from-p", "bell-corrected", "epsilon"):
            assert family(set_a, n_max, route).members == k_base.members, route
        assert family(set_a, n_max, "p-from-k").members == p_base.members


class TestClassicalFamily:
    def test_low_members(self):
        p, r = F(3, 5), F(3)
        fam = classical_K(p, r, 2)
        q = 1 - p
        assert fam[0] == 1
        assert fam[1] == XPoly((-q * r, p))

    def test_recurrence_matches_series_product(self, params):
        # the three-term recurrence against the product of the binomial series
        # (1+t)^x and (1+qt)^(-x-r)
        fam = classical_K(params.p, params.r, 16)
        assert fam.members == classical_by_series(params.p, params.r, 16)

    def test_r_zero_member_is_the_bracket_table(self):
        # at r = 0 the family is ((1+t)/(1+qt))^x: the bracket factorials
        p = F(4, 7)
        fam = classical_K(p, 0, 16)
        assert fam.members == classical_by_series(p, 0, 16)
        assert fam.members == tuple(bracket_y(n, 1 - p) for n in range(17))

    def test_degenerate_limit(self):
        p, r = F(3, 5), F(3)
        classic = classical_K(p, r, 6)
        errs = []
        for k in (4, 5, 6):
            degen = K_series(Params.make(F(-1, 10**k), 1, p, r), 6)
            worst = F(0)
            for n in range(7):
                for i in range(n + 1):
                    a, b = degen[n].coeff(i), classic[n].coeff(i)
                    err = abs(a - b) / abs(b) if b else abs(a)
                    worst = max(worst, err)
            errs.append(worst)
        assert errs[2] < F(1, 10**4)
        for hi, lo in zip(errs, errs[1:]):
            assert F(9) < hi / lo < F(11)


def _integral(poly: XPoly, moments) -> F:
    """The exact integral of `poly` against the measure whose moments are given."""
    return sum(poly.coeff(i) * moments[i] for i in range(poly.degree + 1))


class TestCenteringAndGram:
    """Exact forms of the non-orthogonality that acceptance criterion 10 and
    the audit's joint-product-dependence show in floating point."""

    @pytest.mark.parametrize(
        "point",
        [*ALL_SETS.values(), Params.make("-3/7", "5/3", "2/9", "7/4")],
        ids=[*ALL_SETS, "D"],
    )
    def test_members_past_zero_integrate_to_zero(self, point):
        # row and column 0 of the Gram matrix are delta: integral K_n dmu = [n == 0]
        moments, fam = exact_moments(point, 12), K_series(point, 12)
        assert [_integral(fam[n], moments) for n in range(13)] == [1] + [0] * 12

    def test_gram_entries_on_set_a(self):
        # G_mn = integral K_m K_n dmu; G_12 = 4.032 is criterion 10's number
        params = ALL_SETS["A"]
        moments, fam = exact_moments(params, 4), K_series(params, 2)
        gram = {(m, n): _integral(fam[m] * fam[n], moments) for m, n in ((1, 1), (1, 2), (2, 2))}
        assert gram == {(1, 1): F(96, 25), (1, 2): F(504, 125), (2, 2): F(26976, 625)}
