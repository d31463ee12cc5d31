"""Value semantics of the frozen records: ``Params``, ``Config``,
``PolyFamily``, ``ChaosVector``, ``AuditEntry``, ``MeasureModel``, ``Check``
and ``RunContext``.

Each is held to what a frozen dataclass gives: equal fields make equal
objects with equal hashes (so one ``lru_cache`` entry), objects of two
classes are never equal, assignment raises, and a round trip through
pickle, copy or deepcopy keeps ``==`` and ``hash``.  A model, a check and
a run context hold mpmath contexts, locks or closures, so none of them is
pickled, and a run context, whose ``num`` compares by identity, is held
to the assignment test only.  Every validation error of the constructors
fires with its type.
"""

import copy
import pickle
from fractions import Fraction as F
from functools import lru_cache

import pytest

from degenkraw.audit import AuditEntry, Check, RunContext
from degenkraw.config import Config, ConfigError, Params
from degenkraw.measure import MeasureModel
from degenkraw.operators import ChaosVector
from degenkraw.polys import PolyFamily
from degenkraw.series import XPoly


def _records():
    """Two independently built, equal instances of each picklable class."""

    def build():
        params = Params.make("-1/2", 2, "3/5", 3)
        return [
            params,
            Config(params, 10, None, 60, 42, "json"),
            PolyFamily((XPoly((1,)), XPoly((F(1, 2), F(3, 5)))), "series"),
            ChaosVector.make((1, "2/3", 0)),
            AuditEntry("moment-oracle", "anchor", "canonical", "exact-match", "0", "", True),
        ]

    return list(zip(build(), build()))


def _unpicklable_records():
    """Two equal instances of each class that holds a context or a closure."""

    def runner(ctx):
        return None, ""

    def build():
        return [
            MeasureModel(Params.make("-1/2", 2, "3/5", 3), 40),
            Check("k-route-x", "anchor", "canonical", True, runner, tol=5),
        ]

    return list(zip(build(), build()))


RECORDS = _records()
IDS = [type(a).__name__ for a, _ in RECORDS]
VALUES = RECORDS + _unpicklable_records()
VALUE_IDS = [type(a).__name__ for a, _ in VALUES]


@pytest.mark.parametrize("pair", VALUES, ids=VALUE_IDS)
def test_equal_fields_give_equal_objects_and_hashes(pair):
    a, b = pair
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).startswith(type(a).__name__ + "(")


@pytest.mark.parametrize("pair", VALUES, ids=VALUE_IDS)
def test_equal_objects_share_one_cache_entry(pair):
    calls = []

    @lru_cache(maxsize=None)
    def build(value):
        calls.append(value)
        return len(calls)

    a, b = pair
    assert build(a) == build(b) == 1
    assert build.cache_info().currsize == 1


def test_objects_of_different_classes_are_unequal():
    values = [a for a, _ in VALUES]
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            assert a != b and b != a
    # a record never equals the tuple of its fields, nor a subclass
    # instance with the same fields
    params = values[0]
    assert params != (params.lam, params.beta, params.p, params.r)

    class Point(Params):
        pass

    assert Point(*params._values()) != params and params != Point(*params._values())


def test_different_fields_give_unequal_objects():
    params = Params.make("-1/2", 2, "3/5", 3)
    assert params != Params.make("-1/2", 2, "3/5", 4)
    assert Config(params, 10, None, 60, 42, "json") != Config(params, 10, None, 60, 42, "csv")
    assert Config(params, 10, None, 60, 42, "json") == Config(params, 10, 16, 60, 42, "json")
    members = (XPoly((1,)),)
    assert PolyFamily(members, "series") != PolyFamily(members, "p-series")
    assert ChaosVector.make((1, 2)) != ChaosVector.make((1, 3))
    entry = ("moment-oracle", "anchor", "canonical", "exact-match", "0", "", True)
    assert AuditEntry(*entry) != AuditEntry(*entry[:3], "mismatch", *entry[4:])
    assert MeasureModel(params, 40) != MeasureModel(params, 41)


# a run context joins the assignment test only: its num, the model's compare,
# is an mpmath context, which compares by identity
RUN_CONTEXT = RunContext.of(Config(Params.make("-1/2", 2, "3/5", 3), 2, None, 40, 0, "csv"))


@pytest.mark.parametrize(
    "a", [a for a, _ in VALUES] + [RUN_CONTEXT], ids=VALUE_IDS + ["RunContext"]
)
def test_assignment_raises(a):
    field = a._fields[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is before


def test_q_stays_derived_after_first_read():
    params = Params.make("-1/2", 2, "3/5", 3)
    assert params.q == F(2, 5)
    with pytest.raises(AttributeError):
        params.q = F(1, 2)
    assert params.q == F(2, 5)
    assert params == Params.make("-1/2", 2, "3/5", 3)  # the cached q is no field


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("pair", RECORDS, ids=IDS)
def test_records_survive_pickling_and_copying(pair, copier):
    a, _ = pair
    got = copier(a)
    assert type(got) is type(a)
    assert got == a and hash(got) == hash(a)
    assert got._values() == a._values()
    with pytest.raises(AttributeError):
        setattr(got, a._fields[0], None)


def test_params_validation():
    good = dict(lam=F(-1), beta=F(1), p=F(1, 2), r=F(1))
    for field, bad, message in [
        ("lam", F(1, 2), "lambda must be negative"),
        ("beta", F(0), "beta must be positive"),
        ("p", F(3, 2), r"p must lie in \(0, 1\)"),
        ("p", F(0), r"p must lie in \(0, 1\)"),
        ("r", F(0), "r must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            Params(**{**good, field: bad})
    with pytest.raises(TypeError):
        Params(F(-1), F(1), F(1, 2))
    with pytest.raises(TypeError):
        Params(**good, q=F(1, 2))


def test_config_validation():
    params = Params.make(-1, 1, "1/2", 1)
    good = dict(
        params=params, n_max=10, series_order=None, precision_digits=60, seed=0,
        output_format="json",
    )
    assert Config(**good).series_order == 16
    assert Config(**{**good, "n_max": 20}).series_order == 22
    for field, bad, message in [
        ("series_order", 11, "series_order must be at least n_max"),
        ("precision_digits", 39, "precision_digits must be at least 40"),
        ("output_format", "xml", "output_format must be 'csv' or 'json'"),
        ("n_max", -1, "n_max and seed must be nonnegative"),
        ("seed", -1, "n_max and seed must be nonnegative"),
    ]:
        with pytest.raises(ConfigError, match=message):
            Config(**{**good, field: bad})
    with pytest.raises(TypeError):
        Config(params, 10, None, 60, 0)


def test_poly_family_validation():
    one, x = XPoly((1,)), XPoly((0, 1))
    for members in [(), (x,)]:
        with pytest.raises(ValueError, match="route series: member 0 must be 1"):
            PolyFamily(members, "series")
    with pytest.raises(ValueError, match="route series: member 1 has degree 2"):
        PolyFamily((one, x * x), "series")
    # a literal route is not checked
    assert PolyFamily((x,), "bell-literal")[0] == x
