"""Seeded Monte Carlo sampler for the degenerate Pascal measure.

The draw follows the mixture representation directly: S is Gamma with
shape -beta/lam and scale -lam, then X | S is Pascal with rate r*S via
the Gamma-Poisson construction (Lambda Gamma-distributed with shape r*S
and scale q/p, X Poisson(Lambda)).  Sampling the chain rather than
inverting the pmf gives a statistical check of the pmf that shares no
code with it.

Randomness comes from two PCG64 generators spawned from one seed via
``numpy.random.SeedSequence``: stream 0 serves both Gamma stages, stream
1 the Poisson stage.  A fixed seed therefore reproduces the exact sample
vector on any platform running the same numpy generation code.
"""

from __future__ import annotations

import numpy as np

from .measure import MeasureModel


def sample(count: int, seed: int, model: MeasureModel) -> np.ndarray:
    """Draw `count` variates; deterministic given (count, seed)."""
    if count < 1:
        raise ValueError("count must be positive")
    gamma_rng, poisson_rng = (
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(seed).spawn(2)
    )
    p = model.params
    shape = float(-p.beta / p.lam)
    scale = float(-p.lam)
    mix = gamma_rng.gamma(shape, scale, size=count)
    rate = gamma_rng.gamma(float(p.r) * mix, float(p.q / p.p))
    # the Poisson draw is already int64: keep the dtype guarantee without a copy
    return poisson_rng.poisson(rate).astype(np.int64, copy=False)


def histogram(draws: np.ndarray) -> dict[int, int]:
    """Counts per support point, as a plain dict keyed by n."""
    values, counts = np.unique(np.asarray(draws), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def _tv_from_counts(counts: dict[int, int], total: int, pmfs: list[float]) -> float:
    """Total-variation distance between the empirical law of ``total`` draws,
    given by their ``counts``, and the pmf at 0 .. max draw.

    The pmf mass beyond that range enters as leftover probability, so the
    result is the exact TV of the empirical measure against the
    truncation-free law up to the model's tail tolerance.
    """
    acc = 0.0
    pmf_mass = 0.0
    for n, pn in enumerate(pmfs):
        pmf_mass += pn
        acc += abs(counts.get(n, 0) / total - pn)
    return 0.5 * (acc + max(0.0, 1.0 - pmf_mass))
