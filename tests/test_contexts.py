"""Precision is a property of each model: every mpmath number the package
computes lives in a private context of fixed precision, so concurrent
callers get the bits of a sequential run and mpmath's global precision is
never read or set."""

import ast
import sys
import threading
from pathlib import Path

import pytest
from mpmath import mp

import degenkraw
from degenkraw.measure import MeasureModel, _standard_nodes
from degenkraw.polys import K_series

from conftest import SET_A, SET_B


def _in_threads(jobs, timeout=300):
    """Run each job in a thread of its own, switching threads every
    microsecond; returns the jobs' results in order."""
    results, errors = [None] * len(jobs), []

    def run(i, job):
        try:
            results[i] = job()
        except Exception as exc:  # re-raised below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i, job)) for i, job in enumerate(jobs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]
    return results


def _bits(values):
    return [v._mpf_ for v in values]


def test_models_in_threads_give_sequential_bits():
    # two threads at 40 digits and two at 200, each building its own model
    # five times; with one process-wide precision, each thread's pmf would
    # round at whatever precision another thread had just set
    def job(digits):
        return [_bits(map(MeasureModel(SET_A, digits).pmf, range(60))) for _ in range(5)]

    digits = (40, 200, 40, 200)
    expected = {d: job(d) for d in set(digits)}
    got = _in_threads([lambda d=d: job(d) for d in digits])
    differ = sum(
        a != b for d, runs in zip(digits, got) for run, ref in zip(runs, expected[d])
        for a, b in zip(run, ref)
    )
    assert differ == 0
    assert mp.dps == 15


@pytest.mark.parametrize("params", [SET_A, SET_B], ids=["A", "B"])
def test_one_model_shared_by_threads_gives_sequential_bits(params):
    # the guard that the quadrature needs no per-model lock: the threads
    # share the model's node tables, densities included, which grow under
    # their own locks, and no context of the model changes precision
    expected = _bits(MeasureModel(params, 60).mixture_pmfs(range(4)))
    model = MeasureModel(params, 60)
    got = _in_threads([lambda: _bits(model.mixture_pmfs(range(4)))] * 3)
    assert got == [expected] * 3
    assert mp.dps == 15


def test_node_table_shared_by_threads_gives_sequential_bits():
    # every model at one precision reads one standard-node table, whose own
    # context raises its precision while it computes an entry; here four
    # threads start from empty tables, two at 40 digits and two at 60
    def job(digits):
        model = MeasureModel(SET_B, digits)
        return _bits(model.mixture_pmfs(range(3))) + _bits(model.gamma_laplaces([1]))

    digits = (40, 60, 40, 60)
    _standard_nodes.cache_clear()
    expected = {d: job(d) for d in set(digits)}
    _standard_nodes.cache_clear()
    got = _in_threads([lambda d=d: job(d) for d in digits])
    assert got == [expected[d] for d in digits]
    assert mp.dps == 15


def test_lazy_coefficients_read_by_threads_equal_a_sequential_read():
    # an XPoly builds its tuple of Fractions on first read and keeps it; four
    # threads read the members of one freshly built family at once, two from
    # each end, so several may build the same member's tuple
    expected = [m.coeffs for m in K_series(SET_A, 24).members]
    K_series.cache_clear()
    members = K_series(SET_A, 24).members
    assert not any(hasattr(m, "_coeffs") for m in members)  # none read yet

    def read(step):
        return {n: members[n].coeffs for n in range(len(members))[::step]}

    got = _in_threads([lambda: read(1), lambda: read(-1)] * 2)
    assert got == [dict(enumerate(expected))] * 4


# the one function allowed to set a context's precision, in measure.py
_FACTORY = "_context"


def test_no_module_touches_mpmath_global_state():
    # every module reaches mpmath through MPContext instances and libmp only;
    # no precision is switched, and only the factory sets one, on a new context
    allowed = {"MPContext", "libmp"}
    switches = {"workdps", "workprec", "extradps", "extraprec"}
    factories = []
    for path in sorted(Path(degenkraw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {"mpmath"}
        inside_factory = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == _FACTORY:
                factories.append(path.name)
                inside_factory |= {id(n) for n in ast.walk(node)}
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    head, _, rest = alias.name.partition(".")
                    if head == "mpmath":
                        assert not rest or rest.split(".")[0] in allowed, (path.name, alias.name)
                        aliases.add(alias.asname or head)
        for node in ast.walk(tree):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.ImportFrom) and node.module == "mpmath":
                assert {alias.name for alias in node.names} <= allowed, where
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath."):
                assert node.module.split(".")[1] in allowed, where
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    assert node.attr in allowed, where
                assert node.attr not in switches, where
            elif isinstance(node, ast.Name):
                assert node.id not in switches, where
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for part in ast.walk(target):
                        if isinstance(part, ast.Attribute) and part.attr in ("prec", "dps"):
                            assert id(node) in inside_factory, where
    assert factories == ["measure.py"]
