"""Property test: the fused integer kernel behind ``pmf`` and the moment sums
rounds every product and every partial sum as libmp's mpf_mul_int and
mpf_add do, tie for tie, at any precision."""

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, mpf_add, mpf_mul_int

from degenkraw.measure import _stirling_dot


def _by_libmp_chain(row, w, prec):
    acc = fzero
    for c, wj in zip(row, w):
        acc = mpf_add(acc, mpf_mul_int(wj, c, prec, "n"), prec, "n")
    return acc


def _ints_of_bits(bits):
    # odd, so the libmp tuple keeps all the bits; the sampled ends give
    # 100...01 and the all-ones mantissa, which carries into the next binade
    low, high = 2 ** (bits - 1) + 1, 2**bits - 1
    if bits == 1:
        return st.just(1)
    return st.one_of(st.sampled_from([low, high]), st.integers(low, high)).map(lambda m: m | 1)


@st.composite
def _cases(draw):
    prec = draw(st.integers(53, 1000))
    n = draw(st.integers(1, 12))
    # c = 1 times a (prec+1)-bit mantissa is an exact tie; close exponents
    # make ties in the sums
    stirling = st.one_of(st.sampled_from([0, 1]), st.integers(1, 6000).flatmap(_ints_of_bits))
    row = draw(st.lists(stirling, min_size=n, max_size=n))
    mantissa = st.sampled_from([1, prec, prec + 1]).flatmap(_ints_of_bits)
    exponent = st.one_of(st.integers(-2, 2), st.integers(-6000, 6000))
    w = [from_man_exp(draw(mantissa), draw(exponent)) for _ in range(n)]
    return prec, row, w


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_cases(), st.sampled_from([None, 300]))
def test_stirling_dot_rounds_as_the_libmp_chain(case, outer):
    prec, row, w = case
    with mp.workdps(outer or mp.dps), mp.workprec(prec):
        got = _stirling_dot(row, [wj[1:3] for wj in w], prec)
    assert got == _by_libmp_chain(row, w, prec)
