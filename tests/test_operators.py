"""Chaos expansions, scaling, and translation operators."""

import random
from fractions import Fraction as F

from degenkraw.operators import (
    ChaosVector,
    chaos_to_poly,
    poly_to_chaos,
    scale_expansion,
    scale_substitution,
    scaled_member,
    translate,
    translation_series_residuals,
)
from degenkraw.polys import K_series
from degenkraw.series import XPoly


def rand_vector(rng, top=10):
    return ChaosVector.make(
        [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, top + 1))]
    )


class TestBasisChange:
    def test_constant(self, params):
        v = ChaosVector.make([1])
        assert chaos_to_poly(v, params) == XPoly((1,))

    def test_roundtrip_random(self, params):
        rng = random.Random(31)
        for _ in range(12):
            v = rand_vector(rng)
            assert poly_to_chaos(chaos_to_poly(v, params), params) == v

    def test_monomial_x(self, params):
        # invert K_1 = p x - beta r q: phi_1 = 1/p, phi_0 = beta r q / p
        got = poly_to_chaos(XPoly.x(), params)
        assert got.coeffs == (
            params.beta * params.r * params.q / params.p,
            1 / params.p,
        )

    def test_trailing_zeros_trimmed(self):
        assert ChaosVector.make([1, 0, 0]).coeffs == (F(1),)


class TestScaling:
    def test_identity_and_collapse(self, params):
        rng = random.Random(37)
        v = rand_vector(rng)
        assert scale_substitution(v, F(1), params) == v
        collapsed = scale_substitution(v, F(0), params)
        value_at_zero = chaos_to_poly(v, params)(F(0))
        assert chaos_to_poly(collapsed, params) == XPoly.const(value_at_zero)

    def test_substitution_is_ring_substitution(self, params):
        rng = random.Random(41)
        for _ in range(6):
            v = rand_vector(rng, top=6)
            z = F(rng.randint(-5, 5), rng.randint(1, 4))
            lhs = chaos_to_poly(scale_substitution(v, z, params), params)
            assert lhs == chaos_to_poly(v, params).scale_arg(z)

    def test_composition_law(self, params):
        rng = random.Random(43)
        for _ in range(6):
            v = rand_vector(rng, top=6)
            z1 = F(rng.randint(-4, 4), rng.randint(1, 3))
            z2 = F(rng.randint(-4, 4), rng.randint(1, 3))
            lhs = scale_substitution(scale_substitution(v, z1, params), z2, params)
            assert lhs == scale_substitution(v, z1 * z2, params)

    def test_expansion_matches_substitution(self, params):
        for deg in range(9):
            basis_vec = ChaosVector.make([0] * deg + [1])
            for z in (F(2), F(1, 3), F(-1)):
                assert scale_expansion(basis_vec, z, params) == scale_substitution(
                    basis_vec, z, params
                )

    def test_k0_fixed_by_both_variants(self, params):
        v = ChaosVector.make([1])
        for variant in ("corrected", "literal"):
            assert scale_expansion(v, F(2), params, variant) == v

    def test_literal_weights_diverge(self, set_a):
        base = K_series(set_a, 2)
        assert scaled_member(1, F(2), set_a, "literal") != base[1].scale_arg(F(2))

    def test_scaled_member_low_order(self, params):
        # K_1(zx) = p z x - beta r q
        z = F(5, 7)
        expected = XPoly((-params.beta * params.r * params.q, params.p * z))
        assert scaled_member(1, z, params) == expected


class TestTranslation:
    def test_identity_at_zero(self, params):
        rng = random.Random(47)
        v = rand_vector(rng)
        assert translate(v, F(0), params) == v

    def test_group_law(self, params):
        rng = random.Random(53)
        for _ in range(6):
            v = rand_vector(rng, top=8)
            y1 = F(rng.randint(-4, 4), rng.randint(1, 3))
            y2 = F(rng.randint(-4, 4), rng.randint(1, 3))
            assert translate(translate(v, y1, params), y2, params) == translate(
                v, y1 + y2, params
            )

    def test_matches_polynomial_substitution(self, params):
        rng = random.Random(59)
        for _ in range(6):
            v = rand_vector(rng, top=8)
            y = F(rng.randint(-4, 4), rng.randint(1, 3))
            shifted = chaos_to_poly(v, params)(XPoly((y, 1)))
            shifted = shifted if isinstance(shifted, XPoly) else XPoly.const(shifted)
            assert translate(v, y, params) == poly_to_chaos(shifted, params)

    def test_linear_in_argument(self, params):
        rng = random.Random(61)
        u, v = rand_vector(rng, top=5), rand_vector(rng, top=5)
        y = F(3, 4)
        top = max(u.degree, v.degree) + 1
        combo = ChaosVector.make(
            [2 * u.coeff(n) - 3 * v.coeff(n) for n in range(top)]
        )
        lhs = translate(combo, y, params)
        tu, tv = translate(u, y, params), translate(v, y, params)
        rhs = ChaosVector.make(
            [2 * tu.coeff(n) - 3 * tv.coeff(n) for n in range(max(tu.degree, tv.degree) + 1)]
        )
        assert lhs == rhs

    def test_kernel_multiplication_identity(self, params):
        # translation multiplies the normalized exponential kernel by e^(yz),
        # order by order through 12
        residues = translation_series_residuals(params, F(2, 7), 12)
        assert all(r.is_zero() for r in residues)
