"""Property tests over the valid parameter space, beyond the sets A, B and C:
every canonical route builds the canonical members, the classical family and
the bracket factorials match their reference constructions, the series routes'
members and the identities' values do not depend on the truncation order,
and the addition, translation, monomial and lowering identities hold
exactly, at random rational points with small denominators.  ``polys``
exits 0 on a valid point and 2, with one line of error and no traceback, on
a point with one field out of its range or of the wrong type."""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from degenkraw.cli import main
from degenkraw.combinat import bracket_y, epsilon_closed, theta_triangle
from degenkraw.config import Params
from degenkraw.operators import translation_series_residuals
from degenkraw.polys import (
    K_ROUTES,
    P_ROUTES,
    K_series,
    P_series,
    _shifted,
    addition_P3,
    addition_P4,
    classical_K,
    family,
    monomial_from_K,
)
from degenkraw.series import XPoly
from oracles import classical_by_series

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
@given(_points(), st.integers(0, 5))
def test_series_members_do_not_depend_on_n_max(params, n_max):
    # member n reads the series through order n only, so the family
    # truncated at n_max is the head of the one truncated at n_max + 3
    for route in ("series", "p-series", "classical"):
        head = family(params, n_max + 3, route).members[: n_max + 1]
        assert family(params, n_max, route).members == head, route


@PROPERTY
@given(_points(), st.integers(0, 8))
def test_recurrence_tables_match_their_references(params, n):
    # the classical family's three-term recurrence against the binomial series
    # product, and its r = 0 member, the bracket factorials, against the
    # closed binomial form and the row of the [1, theta] table
    members = classical_K(params.p, params.r, n).members
    assert members == classical_by_series(params.p, params.r, n)
    q = params.q
    assert bracket_y(n, q) == math.factorial(n) * epsilon_closed(n, q, "derived")
    assert bracket_y(n, q) == XPoly(theta_triangle(q)[n])


@PROPERTY
@given(_points(), st.integers(0, 5), st.builds(F, st.integers(-6, 6), st.integers(1, 4)))
def test_identity_residuals_vanish(params, n, y):
    # every identity returns one value for each n' <= n
    assert all(res.is_zero() for res in addition_P3(params, n))
    assert all(res.is_zero() for res in addition_P4(params, n))
    assert all(res.is_zero() for res in translation_series_residuals(params, y, n))
    assert monomial_from_K(params, n) == [XPoly([0] * k + [1]) for k in range(n + 1)]


@PROPERTY
@given(_points(), st.integers(0, 5))
def test_identities_through_n_are_heads(params, n):
    # value n' reads the families through n' only, so the values through n
    # are the head of those through n + 3; the literal P3 residuals are
    # nonzero from n' = 1 on, so the heads compare more than zeros
    literal = addition_P3(params, n, "literal")
    assert [res.order for res in literal] == list(range(n + 1))
    assert literal == addition_P3(params, n + 3, "literal")[: n + 1]
    assert monomial_from_K(params, n) == monomial_from_K(params, n + 3)[: n + 1]


@PROPERTY
@given(_points(), st.integers(0, 5), st.builds(F, st.integers(-6, 6), st.integers(1, 4)))
def test_taylor_shift_is_substitution(params, n, y0):
    # the left side K_n(x+y) of both addition identities, a series in y by
    # Taylor's formula, summed at y = y0 is K_n(x + y0) by Horner's rule
    member = K_series(params, n)[n]
    shifted = _shifted(member, n)
    assert sum(c * y0**j for j, c in enumerate(shifted.coeffs)) == member(XPoly((y0, 1)))


@PROPERTY
@given(_points(), st.integers(1, 5))
def test_lowering_rule_difference_form(params, n):
    # zeta(D) K_n = n K_{n-1} as K_n(x+1) - K_n(x) = n (K_{n-1}(x) - q K_{n-1}(x+1));
    # acceptance 2c checks it on the sets A, B and C only
    fam, step = K_series(params, n), XPoly((1, 1))  # x + 1
    assert fam[n](step) - fam[n] == n * (fam[n - 1] - params.q * fam[n - 1](step))


def _nonnegative():
    return st.builds(F, st.integers(0, 6), st.integers(1, 4))


# values out of each rational field's range
_OUT_OF_RANGE = {
    "lambda": _nonnegative(),
    "beta": _nonnegative().map(lambda f: -f),
    "p": st.one_of(_nonnegative().map(lambda f: -f), _nonnegative().map(lambda f: 1 + f)),
    "r": _nonnegative().map(lambda f: -f),
}


@st.composite
def _config_fields(draw):
    """(fields of a config file, whether they are valid): a valid point, or one
    whose rational field is out of range or a bool, or whose integer field is a
    float or a bool."""
    params = draw(_points())
    fields = {
        "lambda": str(params.lam),
        "beta": str(params.beta),
        "p": str(params.p),
        "r": str(params.r),
        "n_max": draw(st.integers(0, 5)),
    }
    spoilt = draw(st.sampled_from((None, *_OUT_OF_RANGE, "n_max", "seed")))
    if spoilt in _OUT_OF_RANGE:
        fields[spoilt] = draw(st.one_of(_OUT_OF_RANGE[spoilt].map(str), st.booleans()))
    elif spoilt is not None:
        fields[spoilt] = draw(st.one_of(st.floats(-5, 5), st.booleans()))
    return fields, spoilt is None


@PROPERTY
@given(_config_fields(), st.sampled_from(K_ROUTES + P_ROUTES + ("classical",)))
def test_polys_exits_0_or_2_without_a_traceback(fields_valid, route):
    fields, valid = fields_valid
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "params.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fields, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["polys", "--params", path, "--route", route])
    if valid:
        assert (code, err.getvalue()) == (0, "")
        assert len(json.loads(out.getvalue())["rows"]) == fields["n_max"] + 1
    else:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
