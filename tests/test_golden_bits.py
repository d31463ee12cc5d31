"""Golden bits of the mpmath parts that printed bytes rest on.

The quadrature residuals that ``audit`` prints rest on mpmath's tanh-sinh
nodes, which the package reads from ``_standard_nodes``.  The digests below
were taken with mpmath 1.3.0; a failure means the installed mpmath computes
other nodes, so the printed residuals may move with them.
"""

import hashlib

import mpmath
import pytest

from degenkraw.measure import MeasureModel, _standard_nodes

from conftest import SET_A

# sha256 of the standard nodes of degrees 1..guess_degree(prec), at the model
# precision of 40 and 60 digits (186 and 252 bits: 8 and 9 degrees)
NODE_DIGESTS = {
    40: "509b4b393855fab1cf69b481005f840064768bad5846cb331938d59f364e9e2f",
    60: "ce6b6906f8adcf5f6f35152866f79825964cb3b96b70b2d32846bccb1c72b52e",
}


def _node_digest(entries):
    # raw (sign, man, exp, bc) tuples; int() reads a gmpy mantissa as an int
    digest = hashlib.sha256()
    for entry in entries:
        for node in entry:
            for sign, man, exp, bc in node:
                digest.update(f"{sign} {int(man)} {exp} {bc};".encode())
    return digest.hexdigest()


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
