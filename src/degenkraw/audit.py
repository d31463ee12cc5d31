"""Formula audit and property checks: every alternate closed form against
its canonical oracle.

Each entry compares one quantity computed two ways.  Required entries are
canonical identities the library guarantees; a failing required entry is
a genuine defect and flips the exit code.  Informational entries evaluate
the literal (alternate printed) forms whose disagreement with the
canonical definitions is a finding to report, not a failure: their
expected status is "mismatch" and the residual records the gap exactly.

Statuses: "exact-match" for rational identities, "match-within-tol" for
numeric checks against a stated tolerance, "mismatch" otherwise.

Every entry is declared once, in ``CHECKS``.  ``run_audit`` evaluates them
all; ``verify_property`` runs the property named in ``VERIFY``, which
either evaluates audit checks or is one of the checks only ``verify`` runs
(limit, scaling, translation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import mpmath
from mpmath import mp

from .combinat import epsilon, epsilon_closed
from .config import Config, ConfigError
from .measure import MeasureModel, Params, to_mpf
from .operators import (
    ChaosVector,
    scale_expansion,
    scale_substitution,
    scaled_member,
    translate,
    translation_series_residuals,
)
from .polys import (
    K_series,
    P_series,
    PolyFamily,
    XPoly,
    addition_P3,
    addition_P4,
    c_coeffs,
    classical_K,
    deg_exp_xi_series,
    family,
    monomial_from_K,
    mu_coeffs,
    stirling_transition,
    theta_power_weights,
)


@dataclass(frozen=True)
class AuditEntry:
    formula_id: str
    anchor: str
    variant: str
    status: str
    residual: str
    notes: str
    required: bool

    @property
    def passed(self) -> bool:
        return self.status in ("exact-match", "match-within-tol")


@dataclass
class AuditReport:
    entries: list[AuditEntry] = field(default_factory=list)

    def add(self, entry: AuditEntry):
        if any(e.formula_id == entry.formula_id for e in self.entries):
            raise ValueError(f"duplicate audit entry {entry.formula_id}")
        self.entries.append(entry)

    @property
    def required_ok(self) -> bool:
        return all(e.passed for e in self.entries if e.required)

    @property
    def exit_code(self) -> int:
        return 0 if self.required_ok else 1

    def to_rows(self) -> list[dict]:
        return [
            {
                "formula_id": e.formula_id,
                "anchor": e.anchor,
                "variant": e.variant,
                "status": e.status,
                "residual": e.residual,
                "notes": e.notes,
            }
            for e in sorted(self.entries, key=lambda e: e.formula_id)
        ]


def _nstr(x, digits: int = 20) -> str:
    return mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)


# ---------------------------------------------------------------------------
# printed example values (worked-example variants kept for comparison)
# ---------------------------------------------------------------------------

def example_c2_printed(params) -> Fraction:
    """The quoted second coefficient 2 q^2 b^2 / r - b q^2 / r + (1 - b/l) l b q^2."""
    q, b, l, r = params.q, params.beta, params.lam, params.r
    return 2 * q**2 * b**2 / r - b * q**2 / r + (1 - b / l) * l * b * q**2


def example_K1_printed(params) -> XPoly:
    """The quoted first member x - beta*r*q/p."""
    return XPoly((-params.beta * params.r * params.q / params.p, Fraction(1)))


def example_K2_printed(params) -> XPoly:
    """The quoted second member
    x^2 - (2 r q beta / p + (1-q^2)/p^2) x + (r^2/p^2) * c2_printed."""
    q, b, p, r = params.q, params.beta, params.p, params.r
    return XPoly(
        (
            r**2 / p**2 * example_c2_printed(params),
            -(2 * r * q * b / p + (1 - q**2) / p**2),
            Fraction(1),
        )
    )


# ---------------------------------------------------------------------------
# the check registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunContext:
    """What the checks of one run share: the parameter point, the family
    size, the numeric model and the canonical main family."""

    params: Params
    n_max: int
    model: MeasureModel
    base: PolyFamily

    @classmethod
    def of(cls, config: Config) -> "RunContext":
        model = MeasureModel(config.params, config.precision_digits)
        return cls(config.params, config.n_max, model, K_series(config.params, config.n_max))

    def workdps(self):
        """Working precision of every check: ten guard digits over the model's."""
        return mp.workdps(self.model.precision + 10)

    @cached_property
    def moment_sums(self) -> tuple[list, int]:
        """Truncated support sums of n^m pmf(n) for m <= 8, and their cutoff."""
        return self.model.truncated_moment_sums(8)


@dataclass(frozen=True)
class Check:
    """One audit entry; ``run`` returns its (status, residual, notes)."""

    formula_id: str
    anchor: str
    variant: str
    required: bool
    run: Callable[[RunContext], tuple[str, str, str]]

    def entry(self, ctx: RunContext) -> AuditEntry:
        status, residual, notes = self.run(ctx)
        return AuditEntry(
            self.formula_id, self.anchor, self.variant, status, residual, notes, self.required
        )


def _first_gap(indices, lhs, rhs):
    """(i, lhs(i) - rhs(i)) at the first index where the two sides differ, or None."""
    for i in indices:
        a, b = lhs(i), rhs(i)
        if a != b:
            return i, a - b
    return None


def _gap(a, b):
    """(a - b,) when a and b differ (elementwise for lists), or None."""
    if a == b:
        return None
    return ([x - y for x, y in zip(a, b)] if isinstance(a, list) else a - b,)


def _exact(gap, residual: str, notes: str):
    """Outcome of an exact comparison: `gap` is None when it holds, else the
    tuple that `residual` formats."""
    if gap is None:
        return "exact-match", "0", notes
    return "mismatch", residual.format(*gap), notes


def _within(gap, tol_exponent: int, notes: str):
    """Outcome of a numeric comparison against the tolerance 10^-tol_exponent."""
    ok = bool(gap < mpmath.mpf(10) ** -tol_exponent)
    status = "match-within-tol" if ok else "mismatch"
    return status, _nstr(gap), f"{notes} tolerance 1e-{tol_exponent}"


def _family_gap(a: PolyFamily, b: PolyFamily):
    """(n, a_n - b_n) at the first member where two families differ, or None."""
    return _first_gap(range(a.n_max + 1), a.__getitem__, b.__getitem__)


# -- exact families and identities -------------------------------------------

def _main_route(route: str, notes: str):
    """The main family by `route` against the generating series; "{n}" in
    `notes` stands for n_max."""

    def run(c: RunContext):
        fam = family(c.params, c.n_max, route)
        return _exact(_family_gap(c.base, fam), "n={0}: {1}", notes.format(n=c.n_max))

    return run


def _companion_route(route: str):
    """A companion route against the companions' generating series, n <= 8."""

    def run(c: RunContext):
        top = min(8, c.n_max)
        gap = _family_gap(P_series(c.params, top), family(c.params, top, route))
        return _exact(gap, "n={0}: {1}", f"member-wise rational equality through n={top}")

    return run


def _p2_monomial(c: RunContext):
    gap = _first_gap(
        range(c.n_max + 1),
        lambda n: monomial_from_K(n, c.params),
        lambda n: XPoly([0] * n + [1]),
    )
    return _exact(gap, "fails at n={0}", "")


def _p3_gap(c: RunContext, variant: str):
    """First nonzero three-fold addition residual for n <= min(8, n_max)."""
    return _first_gap(
        range(min(8, c.n_max) + 1), lambda n: addition_P3(n, c.params, variant), lambda n: 0
    )


def _p3_addition(c: RunContext):
    notes = f"residual held identically zero through n={min(8, c.n_max)}"
    return _exact(_p3_gap(c, "corrected"), "nonzero residual at n={0}", notes)


def _p3_addition_literal(c: RunContext):
    gap = _first_gap((1,), lambda n: addition_P3(n, c.params, "literal"), lambda n: 0)
    return _exact(gap, "n={0}: {1}", "expected divergence of the literal reading; recorded")


def _p4_addition(c: RunContext):
    gap = _first_gap(range(c.n_max + 1), lambda n: addition_P4(n, c.params), lambda n: 0)
    return _exact(gap, "nonzero residual at n={0}", "")


def _epsilon_closed(variant: str, residual: str, notes: str):
    """The binomial closed form against the series coefficients, k <= max(10, n_max);
    "{k}" in `notes` stands for that bound."""

    def run(c: RunContext):
        q, top = c.params.q, max(10, c.n_max)
        gap = _first_gap(
            range(top + 1), lambda k: epsilon_closed(k, q, variant), lambda k: epsilon(k, q)
        )
        return _exact(gap, residual, notes.format(k=top))

    return run


def _stirling_transition(upper: str, residual: str, notes: str):
    """The double Stirling sum against n![z^n] theta^k / k!, k <= n <= n_max."""

    def run(c: RunContext):
        weights = theta_power_weights(c.params.q, c.n_max)
        gap = _first_gap(
            [(n, k) for n in range(c.n_max + 1) for k in range(n + 1)],
            lambda nk: stirling_transition(*nk, c.params.q, upper),
            lambda nk: weights[nk[1]][nk[0]],
        )
        return _exact(gap, residual, notes)

    return run


def _example_c2(c: RunContext):
    c2 = c_coeffs(2, c.params)[2]
    gap = _gap(example_c2_printed(c.params), c2)
    return _exact(gap, "{0}", f"recurrence gives {c2}; quoted value recorded")


def _example_member(n: int, printed):
    """A quoted member against K_n; members do not depend on n_max."""

    def run(c: RunContext):
        gap = _gap(printed(c.params), K_series(c.params, 2)[n])
        notes = "canonical member from the generating series; quoted value recorded"
        return _exact(gap, "{0}", notes)

    return run


def _coefficient_recurrence(c: RunContext):
    recip = deg_exp_xi_series(c.params, c.n_max + 2).reciprocal()
    series_c = [
        math.factorial(n) * c.params.r**-n * recip.coeff(n) for n in range(c.n_max + 1)
    ]
    return _exact(_gap(series_c, c_coeffs(c.n_max, c.params)), "{0}", "")


def _denominator_derivatives(c: RunContext):
    series_mu = deg_exp_xi_series(c.params, c.n_max).derivative_list()
    return _exact(_gap(series_mu, mu_coeffs(c.n_max, c.params)), "{0}", "")


def _scaling_weights(variant: str, residual: str, notes: str):
    """K_n(2x) by the epsilon/rho expansion against substitution, n <= min(6, n_max)."""

    def run(c: RunContext):
        z = Fraction(2)
        gap = _first_gap(
            range(min(6, c.n_max) + 1),
            lambda n: scaled_member(n, z, c.params, variant),
            lambda n: c.base[n].scale_arg(z),
        )
        return _exact(gap, residual, notes)

    return run


# -- measure-side checks ---------------------------------------------------------

def _laplace_linear(c: RunContext):
    p = c.params
    return _exact(_gap(c.model.moment_exact(1), p.beta * p.r * p.q / p.p), "{0}", "")


def _pmf_normalization(c: RunContext):
    sums, cutoff = c.moment_sums
    mass_gap = abs(1 - sums[0])
    ok = bool(sums[0] <= 1 and mass_gap < mpmath.mpf(10) ** -20)
    notes = f"cutoff {cutoff}; tail bound below 1e-{c.model.precision // 2}"
    return ("match-within-tol" if ok else "mismatch"), _nstr(mass_gap), notes


def _moment_oracle(c: RunContext):
    sums, _ = c.moment_sums
    worst = mp.mpf(0)
    for m in range(9):
        exact_m = to_mpf(c.model.moment_exact(m))
        rel = abs(sums[m] - exact_m) / max(abs(exact_m), mp.mpf(1))
        worst = max(worst, rel)
    return _within(worst, 20, "largest relative gap;")


def _literal_internal_consistency(c: RunContext):
    model = c.model
    lit_sums = model.literal_moment_sums(6)
    worst = abs(lit_sums[0] - model.literal_mass()) / model.literal_mass()
    for m in range(1, 7):
        lm = model.literal_moment(m)
        worst = max(worst, abs(lit_sums[m] - lm) / max(abs(lm), mp.mpf(1)))
    notes = "the literal chain must at least agree with itself;"
    return _within(worst, model.precision // 2, notes)


def _pmf_literal_mass(c: RunContext):
    gap = c.model.literal_mass() - 1
    status = "mismatch" if abs(gap) > mpmath.mpf(10) ** -30 else "match-within-tol"
    return status, _nstr(gap), "expected nonzero; the literal pmf does not normalize"


def _moment_literal_gap(c: RunContext):
    gaps = []
    for m in range(1, 5):
        lm = c.model.literal_moment(m)
        em = to_mpf(c.model.moment_exact(m))
        gaps.append(abs(lm - em) / abs(em))
    status = "mismatch" if max(gaps) > mpmath.mpf(10) ** -30 else "match-within-tol"
    residual = "[" + ", ".join(_nstr(g, 8) for g in gaps) + "]"
    return status, residual, "expected nonzero relative gaps; recorded per m"


def _mixture_consistency(c: RunContext):
    ns = range(min(10, c.n_max) + 1)
    worst = mp.mpf(0)
    for n, mass in zip(ns, c.model.mixture_pmfs(ns)):
        worst = max(worst, abs(mass - c.model.pmf(n)))
    return _within(worst, 15, f"n <= {min(10, c.n_max)};")


def _gamma_mixing_transform(c: RunContext):
    lam, beta = c.params.lam, c.params.beta
    worst = mp.mpf(0)
    for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
        lhs = c.model.gamma_laplace(s)
        rhs = mpmath.power(1 - to_mpf(lam) * to_mpf(s), to_mpf(beta / lam))
        worst = max(worst, abs(lhs - rhs))
    return _within(worst, 15, "s in {1/2, 1, 2};")


def _joint_functional_oracle(c: RunContext):
    model, s, t = c.model, Fraction(1, 10), Fraction(1, 5)
    sym_gap = abs(model.joint_laplace(s, t) - model.joint_laplace(t, s))
    oracle_gap = abs(model.joint_laplace(s, t) - model.joint_laplace_oracle(s, t))
    return _within(max(sym_gap, oracle_gap), 15, "includes the symmetry gap;")


def _joint_product_dependence(c: RunContext):
    model = c.model
    spread = abs(
        model.joint_laplace(Fraction(1, 10), Fraction(1, 5))
        - model.joint_laplace(Fraction(1, 50), Fraction(1))
    )
    status = "match-within-tol" if spread > mpmath.mpf(10) ** -6 else "mismatch"
    return status, _nstr(spread), "values must differ: the functional is not a function of s*t"


CHECKS = (
    *(
        Check(f"k-route-{route}", "main family: generating-series route vs " + route,
              "canonical", True, _main_route(route, "member-wise rational equality through n={n}"))
        for route in ("epsilon", "from-p", "bell-corrected", "stirling-oracle")
    ),
    *(
        Check(f"p-route-{route}", "companion family: generating-series route vs " + route,
              "canonical", True, _companion_route("p-" + route))
        for route in ("bell", "from-k", "stirling2")
    ),
    Check("p1-basis-change", "K_n as a varpi-weighted sum of companions",
          "canonical", True, _main_route("from-p", "")),
    Check("p2-monomial", "x^n from the K family with varrho weights and moments",
          "canonical", True, _p2_monomial),
    Check("p3-addition", "three-fold addition identity, second factor in y",
          "corrected", True, _p3_addition),
    Check("p3-addition-literal", "three-fold addition identity, second factor repeated in x",
          "literal", False, _p3_addition_literal),
    Check("p4-addition", "bracket-factorial addition identity",
          "canonical", True, _p4_addition),
    Check("epsilon-closed-derived", "binomial closed form with inner index j",
          "derived", True, _epsilon_closed(
              "derived", "fails at k={0}", "checked against series coefficients through k={k}")),
    Check("epsilon-closed-printed", "binomial closed form with inner index k-j",
          "printed", False, _epsilon_closed(
              "printed", "first failing k={0}: {1}",
              "expected divergence of the printed index; recorded")),
    Check("stirling-transition-corrected", "double Stirling sum, inner bound n-k+j",
          "corrected", True, _stirling_transition(
              "plus", "fails at (n,k)={0}", "equals n![z^n] theta^k / k! from exact series powers")),
    Check("stirling-transition-literal", "double Stirling sum, inner bound n-k-j",
          "literal", False, _stirling_transition(
              "minus", "first failing (n,k)={0}: {1}",
              "expected divergence of the printed inner bound; recorded")),
    Check("bell-arguments",
          "Bell-route constants fed with raw moments instead of denominator derivatives",
          "literal", False, _main_route(
              "bell-literal", "expected divergence of the literal arguments; recorded")),
    Check("stirling-route", "K from companions with printed double-sum bounds",
          "literal", False, _main_route(
              "stirling-literal", "expected divergence of the printed bounds; recorded")),
    Check("example-c2", "worked-example value of the second recurrence coefficient",
          "printed", False, _example_c2),
    Check("example-k1", "worked-example member 1 of the main family",
          "printed", False, _example_member(1, example_K1_printed)),
    Check("example-k2", "worked-example member 2 of the main family",
          "printed", False, _example_member(2, example_K2_printed)),
    Check("coefficient-recurrence", "recurrence coefficients vs reciprocal-series coefficients",
          "canonical", True, _coefficient_recurrence),
    Check("denominator-derivatives", "composition-derivative formula vs series derivatives",
          "canonical", True, _denominator_derivatives),
    Check("scaling-weights", "epsilon/rho expansion of K_n(z x) with corrected weights",
          "corrected", True, _scaling_weights(
              "corrected", "fails at n={0}", "checked at z=2; substitution is the oracle")),
    Check("scaling-weights-literal", "epsilon/rho expansion with printed weights (q^m, no r powers)",
          "literal", False, _scaling_weights(
              "literal", "first failing n={0}: {1}",
              "expected divergence of the printed weights; recorded")),
    Check("laplace-linear-coefficient", "first Taylor coefficient of the transform equals beta*r*q/p",
          "canonical", True, _laplace_linear),
    Check("pmf-normalization", "canonical masses sum to one over the adaptive support",
          "canonical", True, _pmf_normalization),
    Check("moment-oracle", "exact rational moments vs truncated support sums, m <= 8",
          "canonical", True, _moment_oracle),
    Check("literal-internal-consistency",
          "closed-form literal mass/moments vs literal pmf resummation",
          "canonical", True, _literal_internal_consistency),
    Check("pmf-literal-mass", "total mass of the literal closed-form pmf vs 1",
          "literal", False, _pmf_literal_mass),
    Check("moment-literal-gap", "literal closed-form moments vs canonical moments, m = 1..4",
          "literal", False, _moment_literal_gap),
    Check("mixture-consistency", "quadrature against the Gamma mixing law vs canonical pmf",
          "canonical", True, _mixture_consistency),
    Check("gamma-mixing-transform",
          "numeric transform of the mixing density vs (1 - lam*s)^(beta/lam)",
          "canonical", True, _gamma_mixing_transform),
    Check("joint-functional-oracle",
          "closed-form joint functional vs truncated double sum at (1/10, 1/5)",
          "canonical", True, _joint_functional_oracle),
    Check("joint-product-dependence", "joint functional at two pairs with equal product st",
          "canonical", True, _joint_product_dependence),
)


def run_audit(config: Config) -> AuditReport:
    ctx = RunContext.of(config)
    report = AuditReport()
    with ctx.workdps():
        for check in CHECKS:
            report.add(check.entry(ctx))
    return report


# ---------------------------------------------------------------------------
# verify: single properties
# ---------------------------------------------------------------------------

def _audit_property(prefixes: tuple[str, ...], detail):
    """A property that holds when every audit check whose formula_id starts
    with one of `prefixes` passes; `detail(ctx)` describes the pass, and a
    failure names the first failing formula_id and its residual."""
    checks = [check for check in CHECKS if check.formula_id.startswith(prefixes)]

    def run(c: RunContext, variant: str):
        for check in checks:
            entry = check.entry(c)
            if not entry.passed:
                return False, f"{entry.formula_id}: {entry.residual}"
        return True, detail(c)

    return run


def _verify_p3(c: RunContext, variant: str):
    gap = _p3_gap(c, variant)
    if gap is not None:
        return False, f"variant={variant}: nonzero residual at n={gap[0]}"
    return True, f"variant={variant}: zero residual through n={min(8, c.n_max)}"


def classical_limit_max_error(p, r, lam, n_max: int = 6) -> Fraction:
    """Largest relative coefficient error between the degenerate family at
    (beta=1, lam) and the classical family, through degree n_max; exact."""
    degen = K_series(Params.make(lam, 1, p, r), n_max)
    classic = classical_K(p, r, n_max)
    worst = Fraction(0)
    for n in range(n_max + 1):
        for i in range(n + 1):
            a, b = degen[n].coeff(i), classic[n].coeff(i)
            err = abs(a - b) / abs(b) if b else abs(a)
            worst = max(worst, err)
    return worst


def _verify_limit(c: RunContext, variant: str):
    p, r = c.params.p, c.params.r
    errs = [classical_limit_max_error(p, r, Fraction(-1, 10**k)) for k in (4, 5, 6)]
    if errs[2] >= Fraction(1, 10**4):
        return False, f"relative error at lam=-1e-6 is {float(errs[2]):.3e} >= 1e-4"
    for a, b in zip(errs, errs[1:]):
        ratio = a / b
        if not Fraction(9) <= ratio <= Fraction(11):
            return False, f"error ratio {float(ratio):.3f} not linear in lambda"
    return True, (
        "max relative errors "
        + ", ".join(f"{float(e):.3e}" for e in errs)
        + " at lam=-1e-4,-1e-5,-1e-6; decade ratios within [9, 11]"
    )


def _verify_scaling(c: RunContext, variant: str):
    params = c.params
    zs = (Fraction(2), Fraction(1, 3), Fraction(-1))
    for deg in range(9):
        basis_vec = ChaosVector.make([0] * deg + [1])
        for z in zs:
            if scale_expansion(basis_vec, z, params, variant) != scale_substitution(basis_vec, z, params):
                return False, f"variant={variant}: mismatch at basis degree {deg}, z={z}"
    v = ChaosVector.make([Fraction(3, 7), Fraction(-2), Fraction(5, 3), 0, Fraction(1, 9)])
    for z1, z2 in ((Fraction(2), Fraction(1, 3)), (Fraction(-1), Fraction(5, 2))):
        lhs = scale_substitution(scale_substitution(v, z1, params), z2, params)
        if lhs != scale_substitution(v, z1 * z2, params):
            return False, f"composition law fails at z={z1},{z2}"
    return True, "expansion equals substitution for basis degrees <= 8, z in {2, 1/3, -1}; composition law holds"


def _verify_translation(c: RunContext, variant: str):
    params = c.params
    v = ChaosVector.make([Fraction(1, 2), Fraction(2), 0, Fraction(-3, 5), Fraction(7)])
    pairs = ((Fraction(1, 3), Fraction(2, 3)), (Fraction(-1, 2), Fraction(5, 4)))
    for y1, y2 in pairs:
        if translate(translate(v, y1, params), y2, params) != translate(v, y1 + y2, params):
            return False, f"group law fails at y={y1},{y2}"
    resid = translation_series_residuals(params, Fraction(2, 7), 12)
    if not all(rp.is_zero() for rp in resid):
        return False, "kernel multiplication identity fails within order 12"
    return True, "group law exact; e^(yz) kernel action verified through order 12"


# property -> runner(ctx, variant) returning (passed, detail); only the
# VARIANT_PROPERTIES read the variant
VERIFY = {
    "p1": _audit_property(
        ("p1-basis-change",), lambda c: f"exact member equality through n={c.n_max}"
    ),
    "p2": _audit_property(("p2-monomial",), lambda c: f"x^n rebuilt exactly for n<={c.n_max}"),
    "p3": _verify_p3,
    "p4": _audit_property(("p4-addition",), lambda c: f"zero residual through n={c.n_max}"),
    "cross": _audit_property(
        ("k-route-", "p-route-"),
        lambda c: f"5 main routes (n<={c.n_max}) and 4 companion routes "
        f"(n<={min(8, c.n_max)}) agree exactly",
    ),
    "normalization": _audit_property(
        ("pmf-normalization", "moment-oracle"),
        lambda c: f"mass within 1e-20 of 1 (cutoff {c.moment_sums[1]}); "
        "moments m<=8 within 1e-20 relative",
    ),
    "limit": _verify_limit,
    "scaling": _verify_scaling,
    "translation": _verify_translation,
}
PROPERTIES = tuple(VERIFY)
VARIANT_PROPERTIES = ("p3", "scaling")


def verify_property(config: Config, prop: str, variant: str = "corrected"):
    """Run one property; returns (passed, detail).

    Raises ConfigError for a variant other than "corrected" on a property
    that has no such variant, rather than checking the canonical form.
    """
    if prop not in VERIFY:
        raise ValueError(f"unknown property {prop!r}")
    if variant != "corrected" and prop not in VARIANT_PROPERTIES:
        raise ConfigError(
            f"variant {variant!r} exists only for properties "
            f"{' and '.join(VARIANT_PROPERTIES)}, not {prop}"
        )
    ctx = RunContext.of(config)
    with ctx.workdps():
        return VERIFY[prop](ctx, variant)
