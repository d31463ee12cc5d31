"""Property tests over the valid parameter space, beyond the sets A, B and C:
every canonical route builds the canonical members, and the addition,
translation and monomial identities hold exactly, at random rational points
with small denominators."""

from fractions import Fraction as F

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from degenkraw.config import Params
from degenkraw.operators import translation_series_residuals
from degenkraw.polys import (
    K_ROUTES,
    P_ROUTES,
    K_series,
    P_series,
    addition_P3,
    addition_P4,
    family,
    monomial_from_K,
)
from degenkraw.series import XPoly

CANONICAL_K = [r for r in K_ROUTES if not r.endswith("literal")]
# no shrinking: a failure is reported at the first failing point, already
# small, instead of after minutes of shrinking the exact route builds
PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    phases=[Phase.explicit, Phase.generate],
)


def _positive():
    return st.builds(F, st.integers(1, 6), st.integers(1, 4))


@st.composite
def _points(draw):
    """A valid point: lam < 0, beta > 0, 0 < p < 1, r > 0."""
    den = draw(st.integers(2, 6))
    p = F(draw(st.integers(1, den - 1)), den)
    return Params.make(-draw(_positive()), draw(_positive()), p, draw(_positive()))


@PROPERTY
@given(_points(), st.integers(0, 5))
def test_canonical_routes_build_the_series_members(params, n_max):
    k, p = K_series(params, n_max).members, P_series(params, n_max).members
    for route in CANONICAL_K:
        assert family(params, n_max, route).members == k, route
    for route in P_ROUTES:
        assert family(params, n_max, route).members == p, route


@PROPERTY
@given(_points(), st.integers(0, 5), st.builds(F, st.integers(-6, 6), st.integers(1, 4)))
def test_identity_residuals_vanish(params, n, y):
    assert addition_P3(n, params).is_zero()
    assert addition_P4(n, params).is_zero()
    assert all(res.is_zero() for res in translation_series_residuals(params, y, n))
    assert monomial_from_K(n, params) == XPoly([0] * n + [1])
