"""Property tests: the quadrature driver's node sum accumulates raw mpfs as
libmp's mpf_sum does, drop rule included, and a node it skips holds a term
that mpf_sum would drop."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import fone, from_man_exp, fzero, mpf_mul, mpf_neg, mpf_sum

from degenkraw.measure import _TOP_SLACK, _sum_term


def _mantissas(bits):
    return st.integers(2 ** (bits - 1), 2**bits - 1)


@st.composite
def _sums(draw):
    """(prec, terms): up to 12 terms of either sign, zeros, exact
    cancellations, and exponent steps of about 2*prec either way, counted
    from either end of the term, next to small steps."""
    prec = draw(st.integers(53, 1000))
    limit = 2 * prec
    terms, exp = [], draw(st.integers(-3000, 3000))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["gap", "near", "zero", "cancel"]))
        if kind == "zero":
            terms.append(fzero)
        elif kind == "cancel" and terms:
            terms.append(mpf_neg(terms[-1]))
        else:
            widths = st.sampled_from([1, 2, prec, prec + 1])
            bits = draw(st.one_of(widths, st.integers(1, 3 * prec)))
            man = draw(_mantissas(bits))
            if kind == "gap":
                step = limit + draw(st.integers(-3, 3)) + draw(st.sampled_from([0, bits, -bits]))
                exp += draw(st.sampled_from([1, -1])) * step
            else:
                exp += draw(st.integers(-64, 64))
            terms.append(from_man_exp(-man if draw(st.booleans()) else man, exp))
    return prec, terms


def _accumulate(terms, prec):
    man = exp = 0
    for x in terms:
        man, exp = _sum_term(man, exp, x, 2 * prec)
    return man, exp


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_sums(), st.sampled_from("nfcdu"))
def test_node_sum_is_mpf_sum(case, rnd):
    # the driver rounds to nearest; the directed modes also see a kept or
    # dropped term far below half an ulp
    prec, terms = case
    man, exp = _accumulate(terms, prec)
    assert from_man_exp(man, exp, prec, rnd) == mpf_sum(terms, prec, rnd)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_sums(), st.data())
def test_skipped_nodes_change_no_bit(case, data):
    # the driver skips a node when exp - 2*prec > top(w) + top(density) + slack,
    # top(v) = exp + bc; then w * round(f * density) with 0 < f <= 1 is a term
    # mpf_sum drops, and so does _sum_term
    prec, terms = case
    man, exp = _accumulate(terms, prec)
    assume(man)
    bits = st.integers(1, prec + 1)
    f = data.draw(st.one_of(st.just(fone), bits.flatmap(
        lambda b: st.tuples(_mantissas(b), st.integers(-b - 200, -b))
    ).map(lambda me: from_man_exp(*me))))
    density = from_man_exp(data.draw(bits.flatmap(_mantissas)), data.draw(st.integers(-500, 500)))
    w = data.draw(bits.flatmap(_mantissas))
    bound = exp - 2 * prec - 1 - data.draw(st.integers(0, 3))  # the highest a skip allows
    w = from_man_exp(w, bound - _TOP_SLACK - w.bit_length() - density[2] - density[3])
    assert w[2] + w[3] + density[2] + density[3] + _TOP_SLACK <= bound
    term = mpf_mul(w, mpf_mul(f, density, prec, "n"))
    assert mpf_sum(terms + [term], prec, "n") == mpf_sum(terms, prec, "n")
    assert _sum_term(man, exp, term, 2 * prec) == (man, exp)
