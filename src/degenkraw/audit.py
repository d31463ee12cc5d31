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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from mpmath import MPContext

from .combinat import epsilon, epsilon_closed, theta_triangle
from .config import PROPERTIES, VARIANT_PROPERTIES, Config, ConfigError, Params
from .measure import _COMPARE_DIGITS, MeasureModel, _context, _nstr
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
    size, the numeric model, the canonical main family and the context of
    every numeric comparison, ``_COMPARE_DIGITS`` digits over the model's
    precision.  A model value enters it through ``num.convert``."""

    params: Params
    n_max: int
    model: MeasureModel
    base: PolyFamily
    num: MPContext

    @classmethod
    def of(cls, config: Config) -> "RunContext":
        model = MeasureModel(config.params, config.precision_digits)
        base = K_series(config.params, config.n_max)
        num = _context(model.precision + _COMPARE_DIGITS)
        return cls(config.params, config.n_max, model, base, num)

    @cached_property
    def moment_sums(self) -> tuple[list, int]:
        """Truncated support sums of n^m pmf(n) for m <= 8, and their cutoff."""
        sums, cutoff = self.model.truncated_moment_sums(8)
        return [self.num.convert(v) for v in sums], cutoff


@dataclass(frozen=True)
class Check:
    """One audit entry; ``run`` returns (gap, notes).  An exact check's gap
    is None when its sides agree, else the tuple that ``residual`` formats.
    A numeric check declares ``tol``, the k of its tolerance 10^-k (or k as a
    function of the run), and its ``_judge`` rule; "{tol}" in its notes is k."""

    formula_id: str
    anchor: str
    variant: str
    required: bool
    run: Callable[[RunContext], tuple]
    residual: str = "n={0}: {1}"
    tol: int | Callable[[RunContext], int] | None = None
    rule: str = "below"

    def tolerance(self, ctx: RunContext) -> int:
        return self.tol(ctx) if callable(self.tol) else self.tol

    def entry(self, ctx: RunContext) -> AuditEntry:
        gap, notes = self.run(ctx)
        if self.tol is None:
            status = "exact-match" if gap is None else "mismatch"
            residual = "0" if gap is None else self.residual.format(*gap)
        else:
            k = self.tolerance(ctx)
            status, residual = _judge(ctx.num, gap, k, self.rule)
            notes = notes.replace("{tol}", str(k))
        return AuditEntry(
            self.formula_id, self.anchor, self.variant, status, residual, notes, self.required
        )


def _judge(num: MPContext, gap, k: int, rule: str) -> tuple[str, str]:
    """Status and residual of a numeric gap by `rule`: "below", |gap| < 10^-k;
    "under", 0 <= gap < 10^-k, printed unsigned (a truncated sum of positive
    terms falls short of its total); "apart", |gap| >= 10^-k (two values that
    must differ).  A list is judged by its largest entry, printed to 8 digits."""
    worst = max(gap) if isinstance(gap, list) else gap
    inside = abs(worst) < num.mpf(10) ** -k
    ok = {"below": inside, "under": inside and worst >= 0, "apart": not inside}[rule]
    if isinstance(gap, list):
        residual = "[" + ", ".join(_nstr(num, g, 8) for g in gap) + "]"
    else:
        residual = _nstr(num, abs(gap) if rule == "under" else gap)
    return ("match-within-tol" if ok else "mismatch"), residual


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


def _family_gap(a: PolyFamily, b: PolyFamily):
    """(n, a_n - b_n) at the first member where two families differ, or None."""
    return _first_gap(range(len(a.members)), a.__getitem__, b.__getitem__)


# -- exact families and identities -------------------------------------------

def _main_route(route: str, notes: str):
    """The main family by `route` against the generating series; "{n}" in
    `notes` stands for n_max."""

    def run(c: RunContext):
        return _family_gap(c.base, family(c.params, c.n_max, route)), notes.format(n=c.n_max)

    return run


def _companion_route(route: str):
    """A companion route against the companions' generating series, n <= 8."""

    def run(c: RunContext):
        top = min(8, c.n_max)
        gap = _family_gap(P_series(c.params, top), family(c.params, top, route))
        return gap, f"member-wise rational equality through n={top}"

    return run


def _first_nonzero(residuals: list):
    """(n, residuals[n]) at the first nonzero residual, or None."""
    return _first_gap(range(len(residuals)), residuals.__getitem__, lambda n: 0)


def _p2_monomial(c: RunContext):
    monomials = monomial_from_K(c.params, c.n_max)
    gap = _first_gap(range(c.n_max + 1), monomials.__getitem__, lambda n: XPoly([0] * n + [1]))
    return gap, ""


def _p3_gap(c: RunContext, variant: str):
    """First nonzero three-fold addition residual for n <= min(8, n_max)."""
    return _first_nonzero(addition_P3(c.params, min(8, c.n_max), variant))


def _p3_addition(c: RunContext):
    return _p3_gap(c, "corrected"), f"residual held identically zero through n={min(8, c.n_max)}"


def _xy_terms(residual) -> str:
    """An addition residual, a series in y over XPoly, as its terms c*x^i*y^j
    in (i, j) order."""

    def power(var, e):
        return "" if e == 0 else var if e == 1 else f"{var}^{e}"

    terms = sorted(
        ((i, j), c) for j, p in enumerate(residual.coeffs) for i, c in enumerate(p.coeffs) if c
    )
    parts = []
    for (i, j), c in terms:
        mono = "*".join(s for s in (power("x", i), power("y", j)) if s)
        parts.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _p3_addition_literal(c: RunContext):
    gap = _first_nonzero(addition_P3(c.params, 1, "literal"))
    notes = "expected divergence of the literal reading; recorded"
    return gap and (gap[0], _xy_terms(gap[1])), notes


def _p4_addition(c: RunContext):
    return _first_nonzero(addition_P4(c.params, c.n_max)), ""


def _epsilon_closed(variant: str, notes: str):
    """The binomial closed form against the series coefficients, k <= max(10, n_max);
    "{k}" in `notes` stands for that bound."""

    def run(c: RunContext):
        q, top = c.params.q, max(10, c.n_max)
        gap = _first_gap(
            range(top + 1), lambda k: epsilon_closed(k, q, variant), lambda k: epsilon(k, q)
        )
        return gap, notes.format(k=top)

    return run


def _stirling_transition(upper: str, notes: str):
    """The double Stirling sum against n![z^n] theta^k / k!, k <= n <= n_max."""

    def run(c: RunContext):
        rows = theta_triangle(c.params.q)
        gap = _first_gap(
            [(n, k) for n in range(c.n_max + 1) for k in range(n + 1)],
            lambda nk: stirling_transition(*nk, c.params.q, upper),
            lambda nk: rows[nk[0]][nk[1]],
        )
        return gap, notes

    return run


def _example_c2(c: RunContext):
    c2 = c_coeffs(2, c.params)[2]
    return _gap(example_c2_printed(c.params), c2), f"recurrence gives {c2}; quoted value recorded"


def _example_member(n: int, printed):
    """A quoted member against K_n, read from the run's own family when it
    reaches order 2; members do not depend on n_max."""

    def run(c: RunContext):
        gap = _gap(printed(c.params), K_series(c.params, max(2, c.n_max))[n])
        return gap, "canonical member from the generating series; quoted value recorded"

    return run


def _coefficient_recurrence(c: RunContext):
    recip = deg_exp_xi_series(c.params, c.n_max).reciprocal()
    series_c = [
        math.factorial(n) * c.params.r**-n * recip.coeff(n) for n in range(c.n_max + 1)
    ]
    return _gap(series_c, c_coeffs(c.n_max, c.params)), ""


def _denominator_derivatives(c: RunContext):
    series_mu = deg_exp_xi_series(c.params, c.n_max).derivative_list()
    return _gap(series_mu, mu_coeffs(c.n_max, c.params)), ""


def _scaling_weights(variant: str, notes: str):
    """K_n(2x) by the epsilon/rho expansion against substitution, n <= min(6, n_max)."""

    def run(c: RunContext):
        z = Fraction(2)
        gap = _first_gap(
            range(min(6, c.n_max) + 1),
            lambda n: scaled_member(n, z, c.params, variant),
            lambda n: c.base[n].scale_arg(z),
        )
        return gap, notes

    return run


# -- measure-side checks ---------------------------------------------------------

def _laplace_linear(c: RunContext):
    p = c.params
    return _gap(c.model.moment_exact(1), p.beta * p.r * p.q / p.p), ""


def _pmf_normalization(c: RunContext):
    sums, cutoff = c.moment_sums
    return 1 - sums[0], f"cutoff {cutoff}; tail bound below 1e-{c.model.precision // 2}"


def _moment_oracle(c: RunContext):
    sums, num = c.moment_sums[0], c.num
    exact = [num.convert(c.model.moment_exact(m)) for m in range(9)]
    worst = max(abs(s - e) / max(abs(e), num.mpf(1)) for s, e in zip(sums, exact))
    return worst, "largest relative gap; tolerance 1e-{tol}"


def _literal_internal_consistency(c: RunContext):
    model, num = c.model, c.num
    lit_sums = [num.convert(v) for v in model.literal_moment_sums(6)]
    mass = num.convert(model.literal_mass())
    worst = abs(lit_sums[0] - mass) / mass
    for m in range(1, 7):
        lm = num.convert(model.literal_moment(m))
        worst = max(worst, abs(lit_sums[m] - lm) / max(abs(lm), num.mpf(1)))
    return worst, "the literal chain must at least agree with itself; tolerance 1e-{tol}"


def _pmf_literal_mass(c: RunContext):
    gap = c.num.convert(c.model.literal_mass()) - 1
    return gap, "expected nonzero; the literal pmf does not normalize"


def _moment_literal_gap(c: RunContext):
    num, gaps = c.num, []
    for m in range(1, 5):
        lm = num.convert(c.model.literal_moment(m))
        em = num.convert(c.model.moment_exact(m))
        gaps.append(abs(lm - em) / abs(em))
    return gaps, "expected nonzero relative gaps; recorded per m"


def _mixture_consistency(c: RunContext):
    ns, num = range(min(10, c.n_max) + 1), c.num
    pairs = zip(ns, c.model.mixture_pmfs(ns))
    worst = max(abs(num.convert(mass) - num.convert(c.model.pmf(n))) for n, mass in pairs)
    return worst, f"n <= {min(10, c.n_max)}; tolerance 1e-{{tol}}"


def _gamma_mixing_transform(c: RunContext):
    lam, beta, num = c.params.lam, c.params.beta, c.num
    ss = (Fraction(1, 2), Fraction(1), Fraction(2))
    lhs = c.model.gamma_laplaces(ss)
    rhs = [num.power(1 - num.convert(lam) * num.convert(s), num.convert(beta / lam)) for s in ss]
    worst = max(abs(num.convert(a) - b) for a, b in zip(lhs, rhs))
    return worst, "s in {1/2, 1, 2}; tolerance 1e-{tol}"


def _joint_functional_oracle(c: RunContext):
    model, num, s, t = c.model, c.num, Fraction(1, 10), Fraction(1, 5)
    value = num.convert(model.joint_laplace(s, t))
    sym_gap = abs(value - num.convert(model.joint_laplace(t, s)))
    oracle_gap = abs(value - num.convert(model.joint_laplace_oracle(s, t)))
    return max(sym_gap, oracle_gap), "includes the symmetry gap; tolerance 1e-{tol}"


def _joint_product_dependence(c: RunContext):
    model, num = c.model, c.num
    spread = abs(
        num.convert(model.joint_laplace(Fraction(1, 10), Fraction(1, 5)))
        - num.convert(model.joint_laplace(Fraction(1, 50), Fraction(1)))
    )
    return spread, "values must differ: the functional is not a function of s*t"


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
          "canonical", True, _p2_monomial, "fails at n={0}"),
    Check("p3-addition", "three-fold addition identity, second factor in y",
          "corrected", True, _p3_addition, "nonzero residual at n={0}"),
    Check("p3-addition-literal", "three-fold addition identity, second factor repeated in x",
          "literal", False, _p3_addition_literal),
    Check("p4-addition", "bracket-factorial addition identity",
          "canonical", True, _p4_addition, "nonzero residual at n={0}"),
    Check("epsilon-closed-derived", "binomial closed form with inner index j",
          "derived", True, _epsilon_closed(
              "derived", "checked against series coefficients through k={k}"), "fails at k={0}"),
    Check("epsilon-closed-printed", "binomial closed form with inner index k-j",
          "printed", False, _epsilon_closed(
              "printed", "expected divergence of the printed index; recorded"),
          "first failing k={0}: {1}"),
    Check("stirling-transition-corrected", "double Stirling sum, inner bound n-k+j",
          "corrected", True, _stirling_transition(
              "plus", "equals n![z^n] theta^k / k! from exact series powers"),
          "fails at (n,k)={0}"),
    Check("stirling-transition-literal", "double Stirling sum, inner bound n-k-j",
          "literal", False, _stirling_transition(
              "minus", "expected divergence of the printed inner bound; recorded"),
          "first failing (n,k)={0}: {1}"),
    Check("bell-arguments",
          "Bell-route constants fed with raw moments instead of denominator derivatives",
          "literal", False, _main_route(
              "bell-literal", "expected divergence of the literal arguments; recorded")),
    Check("stirling-route", "K from companions with printed double-sum bounds",
          "literal", False, _main_route(
              "stirling-literal", "expected divergence of the printed bounds; recorded")),
    Check("example-c2", "worked-example value of the second recurrence coefficient",
          "printed", False, _example_c2, "{0}"),
    Check("example-k1", "worked-example member 1 of the main family",
          "printed", False, _example_member(1, example_K1_printed), "{0}"),
    Check("example-k2", "worked-example member 2 of the main family",
          "printed", False, _example_member(2, example_K2_printed), "{0}"),
    Check("coefficient-recurrence", "recurrence coefficients vs reciprocal-series coefficients",
          "canonical", True, _coefficient_recurrence, "{0}"),
    Check("denominator-derivatives", "composition-derivative formula vs series derivatives",
          "canonical", True, _denominator_derivatives, "{0}"),
    Check("scaling-weights", "epsilon/rho expansion of K_n(z x) with corrected weights",
          "corrected", True, _scaling_weights(
              "corrected", "checked at z=2; substitution is the oracle"), "fails at n={0}"),
    Check("scaling-weights-literal", "epsilon/rho expansion with printed weights (q^m, no r powers)",
          "literal", False, _scaling_weights(
              "literal", "expected divergence of the printed weights; recorded"),
          "first failing n={0}: {1}"),
    Check("laplace-linear-coefficient", "first Taylor coefficient of the transform equals beta*r*q/p",
          "canonical", True, _laplace_linear, "{0}"),
    Check("pmf-normalization", "canonical masses sum to one over the adaptive support",
          "canonical", True, _pmf_normalization, tol=20, rule="under"),
    Check("moment-oracle", "exact rational moments vs truncated support sums, m <= 8",
          "canonical", True, _moment_oracle, tol=20),
    Check("literal-internal-consistency",
          "closed-form literal mass/moments vs literal pmf resummation",
          "canonical", True, _literal_internal_consistency, tol=lambda c: c.model.precision // 2),
    Check("pmf-literal-mass", "total mass of the literal closed-form pmf vs 1",
          "literal", False, _pmf_literal_mass, tol=30),
    Check("moment-literal-gap", "literal closed-form moments vs canonical moments, m = 1..4",
          "literal", False, _moment_literal_gap, tol=30),
    Check("mixture-consistency", "quadrature against the Gamma mixing law vs canonical pmf",
          "canonical", True, _mixture_consistency, tol=15),
    Check("gamma-mixing-transform",
          "numeric transform of the mixing density vs (1 - lam*s)^(beta/lam)",
          "canonical", True, _gamma_mixing_transform, tol=15),
    Check("joint-functional-oracle",
          "closed-form joint functional vs truncated double sum at (1/10, 1/5)",
          "canonical", True, _joint_functional_oracle, tol=15),
    Check("joint-product-dependence", "joint functional at two pairs with equal product st",
          "canonical", True, _joint_product_dependence, tol=6, rule="apart"),
)


def run_audit(config: Config) -> list[AuditEntry]:
    """Every entry of ``CHECKS`` at `config`, sorted by formula_id."""
    ids = sorted(check.formula_id for check in CHECKS)
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ValueError(f"duplicate audit entry {a}")
    ctx = RunContext.of(config)
    return sorted((check.entry(ctx) for check in CHECKS), key=lambda e: e.formula_id)


# ---------------------------------------------------------------------------
# verify: single properties
# ---------------------------------------------------------------------------

def _audit_property(prefixes: tuple[str, ...], detail):
    """A property that holds when every audit check whose formula_id starts
    with one of `prefixes` passes; `detail(ctx, *checks)` describes the pass,
    and a failure names the first failing formula_id and its residual."""
    checks = [check for check in CHECKS if check.formula_id.startswith(prefixes)]

    def run(c: RunContext, variant: str):
        for check in checks:
            entry = check.entry(c)
            if not entry.passed:
                return False, f"{entry.formula_id}: {entry.residual}"
        return True, detail(c, *checks)

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
# VARIANT_PROPERTIES (declared in config) read the variant
VERIFY = {
    "p1": _audit_property(
        ("p1-basis-change",), lambda c, *_: f"exact member equality through n={c.n_max}"
    ),
    "p2": _audit_property(("p2-monomial",), lambda c, *_: f"x^n rebuilt exactly for n<={c.n_max}"),
    "p3": _verify_p3,
    "p4": _audit_property(("p4-addition",), lambda c, *_: f"zero residual through n={c.n_max}"),
    "cross": _audit_property(
        ("k-route-", "p-route-"),
        lambda c, *_: f"5 main routes (n<={c.n_max}) and 4 companion routes "
        f"(n<={min(8, c.n_max)}) agree exactly",
    ),
    "normalization": _audit_property(
        ("pmf-normalization", "moment-oracle"),
        lambda c, mass, moments: f"mass within 1e-{mass.tolerance(c)} of 1 "
        f"(cutoff {c.moment_sums[1]}); moments m<=8 within 1e-{moments.tolerance(c)} relative",
    ),
    "limit": _verify_limit,
    "scaling": _verify_scaling,
    "translation": _verify_translation,
}
# the CLI takes its --property choices from config without importing this
# module; the two lists must name the same properties in the same order
if tuple(VERIFY) != PROPERTIES:
    raise ImportError(
        f"audit.VERIFY names {tuple(VERIFY)}, config.PROPERTIES names {PROPERTIES}"
    )


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
    return VERIFY[prop](RunContext.of(config), variant)
