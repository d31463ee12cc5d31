"""The nine numeric audit checks, each against a seeded defect.

Each test patches one measure quantity with ``monkeypatch``, runs its check
through ``Check.entry`` on set A at 40 digits and n_max 4, and reads the
status.  Every entry gets a fresh ``RunContext``, so no cached quantity of
an earlier model hides the defect.  The required checks must read
"mismatch"; the literal checks, which read "mismatch" on the true model,
must read "match-within-tol" once the canonical value is seeded.  Last, a
defect in the one degenerate exponential runs through the whole audit to its
exit code.
"""

import json
from fractions import Fraction

import pytest

from degenkraw.audit import CHECKS, RunContext, _judge
from degenkraw.cli import cmd_audit
from degenkraw.config import config_from_dict
from degenkraw.measure import MeasureModel, _context

SET_A = {"lambda": "-1/2", "beta": "2", "p": "3/5", "r": "3"}
SET_B = {"lambda": "-1", "beta": "1/2", "p": "1/2", "r": "1"}
BY_ID = {check.formula_id: check for check in CHECKS}
NUMERIC = [check.formula_id for check in CHECKS if check.tol is not None]


def entry(formula_id, point=SET_A):
    config = config_from_dict({**point, "n_max": 4, "precision_digits": 40})
    return BY_ID[formula_id].entry(RunContext.of(config))


def off_by(monkeypatch, name, rel):
    """Patch MeasureModel.name so that each value it returns is 1 + rel times
    the true one (entry by entry for a list)."""
    original, factor = getattr(MeasureModel, name), 1 + rel

    def patched(self, *args):
        value = original(self, *args)
        return [v * factor for v in value] if isinstance(value, list) else value * factor

    monkeypatch.setattr(MeasureModel, name, patched)


def test_nine_checks_declare_a_tolerance():
    # one test below per numeric check, named after its formula_id
    tested = {name[5:].replace("_", "-") for name in globals() if name.startswith("test_")}
    assert len(NUMERIC) == 9 and set(NUMERIC) <= tested


def test_pmf_normalization(monkeypatch):
    # a mass sum above 1 by 1e-40 fails, and its residual is printed unsigned
    original = MeasureModel.truncated_moment_sums

    def overshoot(self, m_max):
        sums, cutoff = original(self, m_max)
        return [Fraction(10**40 + 1, 10**40)] + sums[1:], cutoff

    monkeypatch.setattr(MeasureModel, "truncated_moment_sums", overshoot)
    result = entry("pmf-normalization")
    assert result.status == "mismatch"
    assert not result.residual.startswith("-")
    assert float(result.residual) == pytest.approx(1e-40, rel=1e-6)


def test_moment_oracle(monkeypatch):
    off_by(monkeypatch, "moment_exact", Fraction(1, 10**18))
    assert entry("moment-oracle").status == "mismatch"


def test_literal_internal_consistency(monkeypatch):
    off_by(monkeypatch, "literal_mass", Fraction(1, 10**15))
    assert entry("literal-internal-consistency").status == "mismatch"


def test_pmf_literal_mass(monkeypatch):
    assert entry("pmf-literal-mass").status == "mismatch"
    monkeypatch.setattr(MeasureModel, "literal_mass", lambda self: Fraction(1))
    assert entry("pmf-literal-mass").status == "match-within-tol"


def test_moment_literal_gap(monkeypatch):
    assert entry("moment-literal-gap").status == "mismatch"
    monkeypatch.setattr(MeasureModel, "literal_moment", lambda self, m: self.moment_exact(m))
    result = entry("moment-literal-gap")
    assert result.status == "match-within-tol"
    assert result.residual.startswith("[0.0")


def test_mixture_consistency(monkeypatch):
    off_by(monkeypatch, "mixture_pmfs", Fraction(1, 10**10))
    assert entry("mixture-consistency").status == "mismatch"


def test_gamma_mixing_transform(monkeypatch):
    off_by(monkeypatch, "gamma_laplaces", Fraction(1, 10**14))
    assert entry("gamma-mixing-transform").status == "mismatch"


def test_joint_functional_oracle(monkeypatch):
    off_by(monkeypatch, "joint_laplace_oracle", Fraction(1, 10**12))
    assert entry("joint-functional-oracle").status == "mismatch"


def test_joint_product_dependence(monkeypatch):
    # the inverted check: a functional of s*t alone must fail it
    original = MeasureModel.joint_laplace
    monkeypatch.setattr(MeasureModel, "joint_laplace", lambda self, s, t: original(self, s * t, 1))
    result = entry("joint-product-dependence")
    assert result.status == "mismatch"
    assert result.residual.startswith("0.0")


def audit_statuses(point=SET_A):
    """(exit code, formula_id -> status) of the whole audit at 40 digits and n_max 4."""
    text, code = cmd_audit(config_from_dict({**point, "n_max": 4, "precision_digits": 40}))
    return code, {row["formula_id"]: row["status"] for row in json.loads(text)["rows"]}


@pytest.mark.parametrize(
    "rel, flipped",
    [
        (Fraction(1, 10**12), {"joint-functional-oracle", "literal-internal-consistency"}),
        (Fraction(1, 10**18), {"literal-internal-consistency"}),
    ],
    ids=["1e-12", "1e-18"],
)
def test_seeded_deg_exp_defect_fails_the_audit(monkeypatch, rel, flipped):
    # pgf, literal_mass and the joint functional all read _deg_exp; an exact
    # relative factor (a float 1 + 1e-18 is 1.0) flips exactly the required
    # checks named, and the audit exits 1 on them alone: every other entry
    # reads as on the true model, where every required one passes
    true_code, true_statuses = audit_statuses()
    assert true_code == 0
    off_by(monkeypatch, "_deg_exp", rel)
    code, statuses = audit_statuses()
    assert code == 1
    assert statuses.keys() == true_statuses.keys()
    assert {f for f, status in statuses.items() if status != true_statuses[f]} == flipped
    assert {statuses[f] for f in flipped} == {"mismatch"}
    assert flipped <= {check.formula_id for check in CHECKS if check.required}


@pytest.mark.parametrize(
    "rule, gap, status",
    [
        ("below", "-1e-21", "match-within-tol"),
        ("below", "1e-20", "mismatch"),  # exactly at the tolerance fails
        ("under", "1e-21", "match-within-tol"),
        ("under", "-1e-21", "mismatch"),
        ("apart", "1e-20", "match-within-tol"),  # exactly at the tolerance passes
        ("apart", "-1e-21", "mismatch"),
    ],
)
def test_judge_rules(rule, gap, status):
    num = _context(30)
    tol = num.mpf(10) ** -20
    value = tol if gap == "1e-20" else num.mpf(gap)
    assert _judge(num, value, 20, rule)[0] == status


def test_judge_prints_under_unsigned_and_lists_by_entry():
    num = _context(30)
    assert _judge(num, num.mpf("-2e-25"), 20, "under") == ("mismatch", "2.0000000000000000000e-25")
    assert _judge(num, [num.mpf("0.5"), num.mpf("2e-31")], 30, "below") == (
        "mismatch", "[0.50000000, 2.0000000e-31]"
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="on set B at 40 digits the rounded mass sum exceeds 1 by 3.3e-57, "
    "below the true tail of 3.4e-57; a rounding bound (ROADMAP item 2) is the fix",
)
def test_pmf_normalization_set_b_at_40_digits():
    assert entry("pmf-normalization", SET_B).passed
