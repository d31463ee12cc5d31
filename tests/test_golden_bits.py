"""Golden bits of the mpmath and numpy parts that printed bytes rest on.

The quadrature residuals that ``audit`` prints rest on mpmath's tanh-sinh
nodes, which the package reads from ``_standard_nodes``, and on the
integrand's ``mpf_exp`` and ``mpf_loggamma``; the ``sample`` histogram rests
on numpy's Gamma and Poisson generators.  The digests below were taken with
mpmath 1.3.0 and the draws with numpy 2.4.6; a failure means the installed
library computes other bits, so the printed residuals or counts may move
with them.
"""

import hashlib

import mpmath
import numpy
import pytest
from mpmath.libmp import from_man_exp, mpf_exp, mpf_loggamma

from degenkraw.measure import MeasureModel, _standard_nodes
from degenkraw.sampling import sample

from conftest import SET_A, SET_B

# sha256 of the standard nodes of degrees 1..guess_degree(prec), at the model
# precision of 40 and 60 digits (186 and 252 bits: 8 and 9 degrees)
NODE_DIGESTS = {
    40: "509b4b393855fab1cf69b481005f840064768bad5846cb331938d59f364e9e2f",
    60: "ce6b6906f8adcf5f6f35152866f79825964cb3b96b70b2d32846bccb1c72b52e",
}


def _mpf_digest(values):
    # raw (sign, man, exp, bc) tuples; int() reads a gmpy mantissa as an int
    digest = hashlib.sha256()
    for sign, man, exp, bc in values:
        digest.update(f"{sign} {int(man)} {exp} {bc};".encode())
    return digest.hexdigest()


def _node_digest(entries):
    return _mpf_digest(v for entry in entries for node in entry for v in node)


@pytest.mark.parametrize("digits", sorted(NODE_DIGESTS))
def test_standard_nodes_digest(digits):
    model = MeasureModel(SET_A, digits)
    prec = model._num.prec
    degrees = model._quad._tanh_sinh.guess_degree(prec)
    table = _standard_nodes(prec)
    got = _node_digest(table[d] for d in range(degrees))
    assert got == NODE_DIGESTS[digits], (
        f"the tanh-sinh nodes moved: mpmath {mpmath.__version__} computes other "
        f"standard nodes at {prec} bits (degrees 1..{degrees}) than mpmath 1.3.0, "
        "on which the digest and the printed quadrature residuals were established"
    )


# sha256 of mpf_exp and mpf_loggamma, rounded to nearest, at the dyadic
# arguments man * 2^exp below, at the quadrature precision of the 40- and
# 60-digit models (206 and 272 bits), where the mixture integrand calls them
KERNELS = {
    "mpf_exp": (mpf_exp, [(3, -1), (-7, -2), (13, 3), (1, -10), (-45, -5), (201, -3)]),
    "mpf_loggamma": (mpf_loggamma, [(3, -1), (13, 3), (1, -10), (201, -3)]),
}
KERNEL_DIGESTS = {
    (40, "mpf_exp"): "9d829d93980a3c9caa9ff531e7d832dfca1a4d055b14769ee5c8801d6015b0a4",
    (40, "mpf_loggamma"): "00a9111101823ac1b2765c1fc8bc490cb397581c092b364cf0c63152da1e4df1",
    (60, "mpf_exp"): "9819afe91a8e78dfc25647a77ad5286befe2becfa753470b21b46823dd6d12de",
    (60, "mpf_loggamma"): "51fe166a86992642155b43e8b2116b8298bfb41fd064e34979f4e76060d78e14",
}


@pytest.mark.parametrize("digits, name", sorted(KERNEL_DIGESTS))
def test_integrand_kernel_digest(digits, name):
    prec = MeasureModel(SET_A, digits)._quad.prec
    kernel, args = KERNELS[name]
    got = _mpf_digest(kernel(from_man_exp(*arg), prec, "n") for arg in args)
    assert got == KERNEL_DIGESTS[digits, name], (
        f"{name} moved: mpmath {mpmath.__version__} rounds other bits at {prec} bits "
        "than mpmath 1.3.0, on which the digest and the printed quadrature "
        "residuals were established"
    )


# the first twelve draws at seed 42
FIRST_DRAWS = {
    "A": [2, 4, 4, 1, 5, 0, 11, 5, 17, 1, 2, 7],
    "B": [1, 1, 15, 0, 0, 0, 0, 0, 0, 1, 2, 0],
}


@pytest.mark.parametrize("name, params", [("A", SET_A), ("B", SET_B)], ids=["A", "B"])
def test_first_draws(name, params):
    got = sample(12, 42, MeasureModel(params, 40)).tolist()
    assert got == FIRST_DRAWS[name], (
        f"the sampler's draws moved: numpy {numpy.__version__} draws {got} at seed 42 "
        f"on set {name}; numpy 2.4.6 drew the pinned ones, on which the printed "
        "sample histograms were established"
    )
