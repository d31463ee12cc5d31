"""The required exact audit checks, each against a seeded defect.

Each case patches one exact kernel with ``monkeypatch`` at a seam the
routes and identities read by name, runs every exact check (those that
declare no tolerance) through ``Check.entry`` on a fresh ``RunContext`` on
set A at n_max 4, and names the required checks the defect flips: exactly
those read "mismatch".  The informational checks keep reading "mismatch".
Every cache of the exact layer is cleared before and after each case, so
no family or table built with the true kernel hides the defect, and none
built with the defect outlives it.  On the same cleared caches, the last
two tests count the families that the identity and exact checks build.
"""

import json

import pytest

from degenkraw import combinat, config, measure, polys
from degenkraw.audit import CHECKS, RunContext
from degenkraw.cli import cmd_audit
from degenkraw.config import config_from_dict
from degenkraw.series import TSeries

SET_A = {"lambda": "-1/2", "beta": "2", "p": "3/5", "r": "3"}
EXACT = [check for check in CHECKS if check.tol is None]

# the required exact checks that no defect of the earlier census reached
TARGETS = {
    "k-route-stirling-oracle", "p-route-bell", "p-route-from-k", "p-route-stirling2",
    "p1-basis-change", "p2-monomial", "stirling-transition-corrected",
    "denominator-derivatives", "laplace-linear-coefficient",
}


@pytest.fixture(autouse=True)
def fresh_exact_caches():
    def clear():
        for module in (combinat, config, polys):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                    value.cache_clear()

    clear()
    yield
    clear()


def off_by_one_at(original, index):
    """`original` with 1 added to the value at argument tuple `index`."""
    return lambda *args: original(*args) + (args[: len(index)] == index)


def seed_eta(monkeypatch):
    # eta_2 wrong: the [1, theta] table, read by from-p and the Stirling check
    monkeypatch.setattr(combinat, "eta", off_by_one_at(combinat.eta, (2,)))


def seed_kappa(monkeypatch):
    # kappa_2 wrong: the [1, zeta] table, read by p-from-k and the monomial expansion
    monkeypatch.setattr(combinat, "kappa", off_by_one_at(combinat.kappa, (2,)))


def seed_brackets(monkeypatch):
    # [y]_2 wrong: the bracket table, read by epsilon, the epsilon and Bell
    # routes, P4 and the scaling weights; off by int(1), since XPoly refuses
    # the bool that off_by_one_at adds
    original = combinat._bracket_table

    def table(q):
        rows = original(q)
        return combinat.GrowingTable(lambda done: rows[len(done)] + int(len(done) == 2))

    monkeypatch.setattr(combinat, "_bracket_table", table)


def seed_bell(monkeypatch):
    # B_{2,1} wrong in every Bell triangle of an argument vector, as the
    # composition derivatives behind mu and the Bell routes read it; off by
    # int(1), as for the brackets
    original = combinat.bell_triangle

    def triangle(xs):
        rows = original(xs)
        return combinat.GrowingTable(
            lambda done: tuple(
                b + int((len(done), k) == (2, 1)) for k, b in enumerate(rows[len(done)])
            )
        )

    monkeypatch.setattr(combinat, "bell_triangle", triangle)


def seed_stirling1(monkeypatch):
    # s(3, 2) wrong in the double Stirling sum
    monkeypatch.setattr(polys, "stirling1", off_by_one_at(polys.stirling1, (3, 2)))


def seed_stirling2(monkeypatch):
    # S(3, 2) wrong in the second-kind route
    monkeypatch.setattr(polys, "stirling2", off_by_one_at(polys.stirling2, (3, 2)))


def seed_moments(monkeypatch):
    # the second exact moment wrong, as the Bell routes and the monomial expansion read it
    original = polys.exact_moments

    def moments(params, m_max):
        return [v + (m == 2) for m, v in enumerate(original(params, m_max))]

    monkeypatch.setattr(polys, "exact_moments", moments)


def seed_laplace(monkeypatch):
    # the transform's linear coefficient wrong, as the measure reads it
    original = measure.laplace_series

    def series(params, order):
        value = original(params, order)
        return value + TSeries([0, 1], value.order)

    monkeypatch.setattr(measure, "laplace_series", series)


def seed_xi(monkeypatch):
    # the second derivative of r*log(1+qt) wrong, as the denominator derivatives read it
    original = polys.xi_derivs

    def derivs(n_max, params):
        return [v + (m == 2) for m, v in enumerate(original(n_max, params))]

    monkeypatch.setattr(polys, "xi_derivs", derivs)


# seam -> the required checks its defect flips
CASES = {
    seed_eta: {"k-route-from-p", "p1-basis-change", "stirling-transition-corrected"},
    seed_kappa: {"p-route-from-k", "p2-monomial"},
    seed_brackets: {
        "epsilon-closed-derived", "k-route-epsilon", "k-route-bell-corrected", "p4-addition",
        "scaling-weights",
    },
    seed_bell: {
        "coefficient-recurrence", "denominator-derivatives", "k-route-bell-corrected",
        "k-route-epsilon", "p-route-bell", "p3-addition",
    },
    seed_stirling1: {"k-route-stirling-oracle", "stirling-transition-corrected"},
    seed_stirling2: {"p-route-stirling2"},
    seed_moments: {"p-route-bell", "p2-monomial"},
    seed_laplace: {"laplace-linear-coefficient"},
    seed_xi: {
        "denominator-derivatives", "coefficient-recurrence", "k-route-epsilon",
        "k-route-bell-corrected", "p3-addition",
    },
}


def test_every_target_is_flipped():
    assert TARGETS <= set().union(*CASES.values())
    assert TARGETS <= {check.formula_id for check in EXACT if check.required}


@pytest.mark.parametrize("seed", CASES, ids=[seed.__name__[5:] for seed in CASES])
def test_seeded_defect_flips_named_checks(seed, monkeypatch):
    seed(monkeypatch)
    ctx = RunContext.of(config_from_dict({**SET_A, "n_max": 4, "precision_digits": 40}))
    entries = [check.entry(ctx) for check in EXACT]
    flipped = {e.formula_id for e in entries if e.required and e.status == "mismatch"}
    assert flipped == CASES[seed]
    assert all(e.status == "mismatch" for e in entries if not e.required)


def test_true_kernels_flip_nothing():
    ctx = RunContext.of(config_from_dict({**SET_A, "n_max": 4, "precision_digits": 40}))
    for check in EXACT:
        assert check.entry(ctx).passed == check.required, check.formula_id


def test_seeded_exact_defect_fails_the_audit(monkeypatch):
    seed_stirling2(monkeypatch)
    text, code = cmd_audit(config_from_dict({**SET_A, "n_max": 4, "precision_digits": 40}))
    report = json.loads(text)
    assert code == 1
    assert report["summary"]["required_failures"] == 1
    failed = [e for e in report["rows"] if e["formula_id"] == "p-route-stirling2"]
    assert failed[0]["status"] == "mismatch"
    assert failed[0]["residual"].startswith("n=3: ")


def test_identity_checks_build_each_family_once(monkeypatch):
    # P2, P3 and P4 each read one family through their top order, not one per
    # n: at n_max 10 the companions are built once, and K_series misses its
    # cache only at the orders of P3's two readings, 8 and 1
    ctx = RunContext.of(config_from_dict({**SET_A, "n_max": 10}))
    identities = {"p2-monomial", "p3-addition", "p3-addition-literal", "p4-addition"}
    built = []
    original = polys.P_from_K
    monkeypatch.setattr(polys, "P_from_K", lambda *args: built.append(args) or original(*args))
    misses = polys.K_series.cache_info().misses
    entries = [check.entry(ctx) for check in CHECKS if check.formula_id in identities]
    assert len(entries) == 4 and all(e.passed == e.required for e in entries)
    assert len(built) == 1
    assert polys.K_series.cache_info().misses - misses <= 2


@pytest.mark.parametrize("n_max, misses", [(0, 3), (1, 2), (10, 3)])
def test_k_series_misses_per_exact_run(n_max, misses):
    # the quoted examples read the run's own family when it reaches order 2;
    # at n_max 10 the misses are the run's order and P3's readings at 8 and 1,
    # and at n_max 0 and 1 the examples still need a family through order 2
    ctx = RunContext.of(config_from_dict({**SET_A, "n_max": n_max, "precision_digits": 40}))
    for check in EXACT:
        check.entry(ctx)
    assert polys.K_series.cache_info().misses == misses
