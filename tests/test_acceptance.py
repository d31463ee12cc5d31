"""Acceptance suite.

One test per criterion, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s``).  Exact criteria run at zero
tolerance over Fraction; numeric criteria state their tolerance inline.

Criterion 2c checks the Appell lowering rule of the main family.  The
x-derivative acts on the K generating series e^{x theta(t)}/L(theta(t))
as multiplication by theta(t), not t, so the lowering operator of K is
zeta(d/dx) with zeta = theta^{-1} = (e^z - 1)/(1 - q e^z):
zeta(D) K_n = n K_{n-1}, equivalently the difference form
K_n(x+1) - K_n(x) = n (K_{n-1}(x) - q K_{n-1}(x+1)).  The plain rule
d/dx K_n = n K_{n-1} is false (already at n=1: K_1 = p x - beta r q, so
K_1' - K_0 = -q); 2c pins that counterexample so a change making K
Appell in the plain d/dx sense fails it.  The eta-weighted derivative
rule K_n' = sum_j n!/(n-j)! (eta_j/j!) K_{n-j} is verified in test_polys.
"""

import json
import math
import time
from fractions import Fraction as F

import mpmath
from mpmath import mp
from mpmath import mpmathify as to_mpf

from degenkraw.cli import cmd_audit
from degenkraw.config import config_from_dict
from degenkraw.measure import MeasureModel, Params
from degenkraw.operators import (
    ChaosVector,
    scale_expansion,
    scale_substitution,
    translate,
    translation_series_residuals,
)
from degenkraw.polys import (
    K_bell,
    K_epsilon,
    K_from_P,
    K_series,
    K_stirling,
    P_bell,
    P_from_K,
    P_from_K_stirling2,
    P_series,
    addition_P3,
    addition_P4,
    classical_K,
    monomial_from_K,
)
from degenkraw.sampling import sample, tv_distance
from degenkraw.series import XPoly

from conftest import ALL_SETS, SET_A
from oracles import zeta_series


def report(num: str, name: str, ok: bool) -> bool:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def mpf10(e):
    return mpmath.mpf(10) ** e


def test_criterion1_cross_construction_exactness():
    t0 = time.monotonic()
    ok = True
    for params in ALL_SETS.values():
        base = K_series(params, 10)
        ok &= K_epsilon(params, 10).members == base.members
        ok &= K_from_P(params, 10).members == base.members
        ok &= K_bell(params, 10, "corrected").members == base.members
        ok &= K_stirling(params, 10, "oracle").members == base.members
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30
    assert report("1", f"five K routes exact, n<=10, sets A/B/C, {elapsed:.1f}s", ok)


def test_criterion2a_companion_routes_exact():
    ok = True
    for params in ALL_SETS.values():
        base = P_series(params, 8)
        ok &= P_bell(params, 8).members == base.members
        ok &= P_from_K(params, 8).members == base.members
        ok &= P_from_K_stirling2(params, 8).members == base.members
    assert report("2a", "four P routes exact, n<=8, sets A/B/C", ok)


def test_criterion2b_appell_derivative_companion():
    ok = True
    for params in ALL_SETS.values():
        fam = P_series(params, 12)
        ok &= all(fam[n].derivative() == n * fam[n - 1] for n in range(1, 13))
    assert report("2b", "d/dx P_n = n P_{n-1}, n<=12, exact", ok)


def test_criterion2c_appell_derivative_main_family():
    # lowering operator zeta(D) = sum_k zeta_k D^k; see module docstring
    ok = True
    step = XPoly((1, 1))  # x + 1
    for params in ALL_SETS.values():
        fam = K_series(params, 12)
        zeta = zeta_series(params.q, 12)
        for n in range(1, 13):
            lowered, deriv = XPoly(), fam[n]
            for k in range(1, n + 1):
                deriv = deriv.derivative()
                lowered = lowered + zeta.coeff(k) * deriv
            ok &= lowered == n * fam[n - 1]
            ok &= fam[n](step) - fam[n] == n * (fam[n - 1] - params.q * fam[n - 1](step))
        strict_gap = fam[1].derivative() - fam[0]  # the plain d/dx rule at n=1
        ok &= strict_gap == -params.q and not strict_gap.is_zero()
    assert report(
        "2c",
        "zeta(D) K_n = n K_{n-1} and its difference form, n<=12, exact; "
        "d/dx rule fails at n=1 (K_1'-K_0=-q)",
        ok,
    )


def test_criterion3_combinatorial_identities():
    ok = True
    for params in ALL_SETS.values():
        ok &= K_from_P(params, 10).members == K_series(params, 10).members  # P1
        ok &= monomial_from_K(params, 10) == [XPoly([0] * n + [1]) for n in range(11)]  # P2
        ok &= all(res.is_zero() for res in addition_P3(params, 8, "corrected"))  # P3
        ok &= all(res.is_zero() for res in addition_P4(params, 10))  # P4
    assert report("3", "P1/P2 n<=10, P3 n<=8, P4 n<=10, zero tolerance", ok)


def test_criterion4_measure_consistency():
    ok = True
    for params in ALL_SETS.values():
        model = MeasureModel(params)
        with mp.workdps(70):
            sums, _ = model.truncated_moment_sums(8)
            ok &= bool(sums[0] <= 1 and 1 - sums[0] < mpf10(-20))
            for m in range(9):
                exact = to_mpf(model.moment_exact(m))
                ok &= bool(abs(sums[m] - exact) / max(abs(exact), mp.mpf(1)) < mpf10(-20))
            for n, mass in zip(range(11), model.mixture_pmfs(range(11))):
                ok &= bool(abs(mass - model.pmf(n)) < mpf10(-15))
    assert report("4", "mass in [1-1e-20,1]; moments 1e-20; mixture 1e-15; sets A/B/C", ok)


def test_criterion5_mixture_laplace_identity():
    ok = True
    for params in ALL_SETS.values():
        model = MeasureModel(params)
        with mp.workdps(70):
            for s in (F(1, 2), F(1), F(2)):
                lhs = model.gamma_laplace(s)
                rhs = mpmath.power(
                    1 - to_mpf(params.lam) * to_mpf(s), to_mpf(params.beta / params.lam)
                )
                ok &= bool(abs(lhs - rhs) < mpf10(-15))
    assert report("5", "mixing-density transform equals (1-lam s)^(beta/lam), 1e-15", ok)


def test_criterion6_monte_carlo():
    t0 = time.monotonic()
    model = MeasureModel(SET_A)
    draws = sample(1_000_000, 42, model)
    tv = tv_distance(draws, model)
    mean_exact = float(model.moment_exact(1))
    var_exact = float(model.moment_exact(2) - model.moment_exact(1) ** 2)
    se = math.sqrt(var_exact / len(draws))
    offset = abs(float(draws.mean()) - mean_exact) / se
    elapsed = time.monotonic() - t0
    ok = tv < 0.005 and offset < 5 and elapsed < 60
    assert report(
        "6", f"10^6 draws: TV={tv:.5f}<0.005, mean offset {offset:.2f} SE, {elapsed:.1f}s", ok
    )


def test_criterion7_classical_limit():
    p, r = SET_A.p, SET_A.r
    classic = classical_K(p, r, 6)
    errs = []
    for k in (4, 5, 6):
        degen = K_series(Params.make(F(-1, 10**k), 1, p, r), 6)
        worst = F(0)
        for n in range(7):
            for i in range(n + 1):
                a, b = degen[n].coeff(i), classic[n].coeff(i)
                worst = max(worst, abs(a - b) / abs(b) if b else abs(a))
        errs.append(worst)
    ok = errs[2] < F(1, 10**4)
    for hi, lo in zip(errs, errs[1:]):
        ok &= F(9) < hi / lo < F(11)
    assert report(
        "7",
        f"lam=-1e-6 matches classical within {float(errs[2]):.2e}<=1e-4; linear in lam",
        ok,
    )


def test_criterion8_operators():
    ok = True
    for params in ALL_SETS.values():
        for deg in range(9):
            vec = ChaosVector.make([0] * deg + [1])
            for z in (F(2), F(1, 3), F(-1)):
                ok &= scale_expansion(vec, z, params, "corrected") == scale_substitution(
                    vec, z, params
                )
        v = ChaosVector.make([F(1, 2), F(-2), F(3, 7), 0, F(5)])
        for y1, y2 in ((F(1, 3), F(1, 6)), (F(-2, 5), F(7, 5))):
            ok &= translate(translate(v, y1, params), y2, params) == translate(
                v, y1 + y2, params
            )
        ok &= all(res.is_zero() for res in translation_series_residuals(params, F(2, 7), 12))
    assert report(
        "8", "scaling expansion exact (N<=8, z in {2,1/3,-1}); translation laws; order 12", ok
    )


def test_criterion9_audit_completeness():
    config = config_from_dict({})  # defaults are set A
    text, code = cmd_audit(config)
    doc = json.loads(text)
    keys = {(row["formula_id"], row["variant"]) for row in doc["rows"]}
    expected_pairs = [
        ("epsilon-closed-printed", "printed"),
        ("pmf-literal-mass", "literal"),
        ("moment-literal-gap", "literal"),
        ("example-c2", "printed"),
        ("example-k1", "printed"),
        ("example-k2", "printed"),
        ("stirling-transition-literal", "literal"),
        ("bell-arguments", "literal"),
        ("scaling-weights-literal", "literal"),
    ]
    ok = code == 0
    ok &= all(pair in keys for pair in expected_pairs)
    ok &= len({row["formula_id"] for row in doc["rows"]}) == len(doc["rows"])
    canonical = [row for row in doc["rows"] if row["variant"] in ("canonical", "corrected")]
    exact_kinds = [row for row in canonical if row["status"] == "exact-match"]
    ok &= all(row["status"] in ("exact-match", "match-within-tol") for row in canonical)
    ok &= len(exact_kinds) >= 15
    text2, code2 = cmd_audit(config)
    ok &= text2 == text and code2 == code
    assert report(
        "9",
        f"audit: {len(doc['rows'])} entries, every literal pair present, deterministic, exit 0",
        ok,
    )


def test_criterion10_non_orthogonality():
    model = MeasureModel(SET_A)
    with mp.workdps(70):
        closed = model.joint_laplace(F(1, 10), F(1, 5))
        oracle = model.joint_laplace_oracle(F(1, 10), F(1, 5))
        spread = abs(closed - model.joint_laplace(F(1, 50), F(1)))
        ok = bool(abs(closed - oracle) < mpf10(-15)) and bool(spread > mpf10(-6))
    assert report(
        "10",
        f"joint functional vs double sum 1e-15; equal-product spread {float(spread):.3e}>1e-6",
        ok,
    )
