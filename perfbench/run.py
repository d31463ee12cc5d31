"""Benchmark of the degenkraw CLI: fixed lists of invocations, one process each.

    python3 perfbench/run.py --workload {audit,families,measure} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the repository root is the parent of this directory.
Each workload is a fixed list of ``degenkraw`` invocations (see WORKLOADS)
run one after another, each in a fresh interpreter with PYTHONPATH=src, so
a closed loop with a single client.  The list is repeated, round robin,
until S seconds have passed and every invocation ran at least twice.  Each
time metric is summed over the list, so it estimates one pass of it: wall
and CPU time take each invocation's fastest repeat, set-up time its median
repeat.  Peak RSS is the largest of all children.

``--seed`` is the ``--seed`` of the ``sample`` invocations and the only
random input.  Every execution passes through the correctness gates in
``check``; one that fails any gate counts in ``failed``.

With ``--trace 1`` the untraced loop is followed by one traced pass, which
records spans around the layers in ``layers.TARGETS`` and reports
per-layer metrics plus the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Lines before it give the machine facts and a per-invocation
table.  Spans and child reports stay in ``.perfbench_work/`` at the root.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PARAMS = "perfbench/params/{}.json"
SEED = "{seed}"

# A run ends no later than this after it starts, whatever --seconds says.
DEADLINE_S = 165.0

# sample gates: the offset of the empirical mean is a z-score; the TV
# distance is held to a multiple of its expectation under exact sampling,
# 0.5 * sum_n sqrt(2 p_n (1 - p_n) / (pi N)) (each count is near normal)
SAMPLE_MAX_MEAN_OFFSET_SE = 5.0
SAMPLE_MAX_TV_OVER_EXPECTED = 2.5
# moments gate: the audit's relative tolerance for the moment oracle
MOMENT_REL_TOL = Fraction(1, 10**20)

# routes of the K family; the others in the workload are P routes or classical
K_ROUTES = ("series", "epsilon", "from-p", "bell-corrected", "stirling-oracle")


def _polys(route: str, n_max: int) -> tuple[str, list[str]]:
    return f"polys:{route}:{n_max}", [
        "polys", "--params", PARAMS.format("A"), "--route", route,
        "--n-max", str(n_max), "--order", str(n_max + 2),
    ]


# Within a workload the slowest invocations come first: a run's last, partial
# pass of the list then gives them one more repeat.
WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    "audit": [
        (f"audit:{s}", ["audit", "--params", PARAMS.format(s)]) for s in "BA"
    ],
    "families": [_polys(r, 15) for r in ("from-p", "p-from-k")]
    + [
        _polys(r, 24)
        for r in (
            "bell-corrected", "epsilon", "p-bell", "p-stirling2",
            "classical", "series", "stirling-oracle", "p-series",
        )
    ],
    "measure": [
        (f"moments:{s}:{d}", ["moments", "--params", PARAMS.format(s), "--digits", str(d)])
        for s, d in (("A", 200), ("B", 120), ("A", 120))
    ]
    + [
        (f"sample:{s}", ["sample", "--params", PARAMS.format(s), "--count", "4000000",
                         "--seed", SEED])
        for s in "BA"
    ]
    + [("moments:C:120", ["moments", "--params", PARAMS.format("C"), "--digits", "120"])],
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# executing one invocation
# ---------------------------------------------------------------------------

@dataclass
class Execution:
    inv_id: str
    argv: list[str]
    traced: bool
    code: int | None = None
    wall_s: float = math.nan
    cpu_s: float = math.nan
    rss_mb: float = math.nan
    setup_s: float = math.nan
    stdout: bytes = b""
    stderr: bytes = b""
    report: dict = field(default_factory=dict)
    doc: dict | None = None
    rows: dict | None = None  # polys rows by n: (degree, coefficients)
    errors: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def execute(inv_id: str, argv: list[str], traced: bool, serial: int, timeout: float) -> Execution:
    """Spawn one child, wait for it with wait4, and collect its rusage and report."""
    ex = Execution(inv_id, argv, traced)
    stem = WORK / f"{serial:05d}"
    out_path, err_path, report_path = (stem.with_suffix(s) for s in (".out", ".err", ".json"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    fds = [os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for p in (out_path, err_path)]
    try:
        start_ns = time.monotonic_ns()
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, str(HERE / "child.py"), str(start_ns), str(report_path),
             "1" if traced else "0", inv_id, "--", *argv],
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, fds[0], 1),
                (os.POSIX_SPAWN_DUP2, fds[1], 2),
            ],
        )
    finally:
        for fd in fds:
            os.close(fd)
    # the child stays unreaped until wait4, so its pid cannot be reused
    # before the kill
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    ex.wall_s = time.perf_counter() - t0
    ex.code = os.waitstatus_to_exitcode(status)
    ex.cpu_s = usage.ru_utime + usage.ru_stime
    ex.rss_mb = usage.ru_maxrss / 1024.0
    ex.stdout = out_path.read_bytes()
    ex.stderr = err_path.read_bytes()
    if report_path.exists():
        ex.report = json.loads(report_path.read_text(encoding="utf-8"))
        ex.setup_s = ex.report.get("setup_s", math.nan)
    return ex


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

def _rows_by_n(doc: dict) -> dict:
    return {r["n"]: (r["degree"], r["coefficients"]) for r in doc["rows"]}


class Checker:
    """The correctness gates; a failed gate appends to the execution's errors."""

    def __init__(self, digests: dict, seeded: set, seed: int):
        self.digests = digests  # recorded stdout sha256 of each seed-free invocation
        self.seeded = seeded  # invocations whose stdout depends on --seed
        self.seed = seed
        self.seen: dict[str, str] = {}  # invocation -> digest of its first execution

    def check(self, ex: Execution) -> None:
        errs = ex.errors
        if ex.code != 0:
            errs.append(f"exit code {ex.code}: {ex.stderr.decode(errors='replace')[-300:]!r}")
            return
        if math.isnan(ex.setup_s):
            errs.append("child wrote no set-up report")
        digest = ex.digest
        first = self.seen.setdefault(ex.inv_id, digest)
        if digest != first:
            errs.append(f"stdout differs between executions ({digest[:12]} vs {first[:12]})")
        if ex.inv_id not in self.seeded and digest != self.digests.get(ex.inv_id):
            errs.append(f"stdout sha256 {digest} is not the recorded {self.digests.get(ex.inv_id)}")
        try:
            ex.doc = json.loads(ex.stdout)
        except json.JSONDecodeError as exc:
            errs.append(f"stdout is not JSON: {exc}")
            return
        command = ex.argv[0]
        try:
            if ex.doc["command"] != command:
                errs.append(f"stdout is for command {ex.doc['command']!r}")
            elif command == "polys":  # rows are compared across routes at the end
                ex.rows = _rows_by_n(ex.doc)
            else:
                getattr(self, "_check_" + command)(ex, ex.doc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            errs.append(f"malformed {command} output: {exc!r}")

    @staticmethod
    def check_routes(executions) -> None:
        """Every K route's rows equal the series rows, every P route's the p-series rows."""
        refs = {}
        routes = {}
        for ex in executions:
            if ex.argv[0] == "polys":
                routes[id(ex)] = route = ex.argv[ex.argv.index("--route") + 1]
                if route in ("series", "p-series") and ex.rows is not None and not ex.errors:
                    refs.setdefault(route, ex.rows)
        for ex in executions:
            route = routes.get(id(ex))
            if route in (None, "series", "p-series", "classical") or ex.rows is None:
                continue  # references, and classical, a different family: digests only
            ref_route = "series" if route in K_ROUTES else "p-series"
            ref = refs.get(ref_route)
            if ref is None:
                ex.errors.append(f"no {ref_route} rows to compare route {route} against")
                continue
            bad = [n for n, row in ex.rows.items() if ref.get(n) != row]
            if bad:
                ex.errors.append(f"route {route} rows differ from {ref_route} at n={bad[:5]}")

    def _check_audit(self, ex: Execution, doc: dict) -> None:
        summary = doc["summary"]
        if summary.get("result") != "ok" or summary.get("required_failures") != 0:
            ex.errors.append(f"audit summary {summary}")

    def _check_moments(self, ex: Execution, doc: dict) -> None:
        bad = [
            row["m"] for row in doc["rows"]
            if Fraction(row["abs_gap"]) > MOMENT_REL_TOL * abs(Fraction(row["canonical"]))
        ]
        if bad:
            ex.errors.append(f"moments m={bad} have abs_gap above 1e-20 relative")

    def _check_sample(self, ex: Execution, doc: dict) -> None:
        summary = doc["summary"]
        count = int(summary["count"])
        if summary["seed"] != self.seed:
            ex.errors.append(f"sample seed {summary['seed']} is not {self.seed}")
        if sum(int(r["count"]) for r in doc["rows"]) != count:
            ex.errors.append("histogram counts do not add up to --count")
        offset = float(summary["mean_offset_in_se"])
        if not offset <= SAMPLE_MAX_MEAN_OFFSET_SE:
            ex.errors.append(f"mean_offset_in_se {offset} above {SAMPLE_MAX_MEAN_OFFSET_SE}")
        expected = 0.5 * sum(
            math.sqrt(2 * p * (1 - p) / (math.pi * count))
            for p in (float(r["pmf"]) for r in doc["rows"])
        )
        tv = float(summary["tv_distance"])
        if not tv <= SAMPLE_MAX_TV_OVER_EXPECTED * expected:
            ex.errors.append(
                f"tv_distance {tv} above {SAMPLE_MAX_TV_OVER_EXPECTED} x expected {expected:.3g}"
            )


# ---------------------------------------------------------------------------
# the loop and its metrics
# ---------------------------------------------------------------------------

def run_loop(invocations, traced: bool, seconds: float, passes: int, deadline: float,
             checker: Checker, serial: Iterator[int]) -> list[Execution]:
    """Round robin over the list until `seconds` passed and `passes` passes ended."""
    done: list[Execution] = []
    start = time.perf_counter()
    i = 0
    while True:
        inv_id, argv = invocations[i % len(invocations)]
        ex = execute(inv_id, argv, traced, next(serial), deadline - time.perf_counter())
        checker.check(ex)
        done.append(ex)
        i += 1
        now = time.perf_counter()
        if now >= deadline:
            break
        if i >= passes * len(invocations) and now - start >= seconds:
            break
    return done


def per_invocation(executions, value, agg=statistics.median) -> dict[str, float]:
    """agg (by default the median) over repeats of value(execution), per invocation."""
    groups: dict[str, list[float]] = {}
    for ex in executions:
        groups.setdefault(ex.inv_id, []).append(value(ex))
    return {k: agg(v) for k, v in groups.items()}


def end_to_end(executions) -> dict[str, float]:
    """Times of one pass of the list; see the README for why wall and CPU take the fastest repeat."""
    return {
        "wall_s": sum(per_invocation(executions, lambda e: e.wall_s, min).values()),
        "cpu_s": sum(per_invocation(executions, lambda e: e.cpu_s, min).values()),
        "setup_s": sum(per_invocation(executions, lambda e: e.setup_s).values()),
        "peak_rss_mb": max(e.rss_mb for e in executions),
    }


# per-layer metrics: (metric, unit) -> how to read it from one trace summary
def per_layer_spec() -> list[tuple[str, str, object]]:
    spec = []

    def layer(name, *fields):
        for f in fields:
            unit = "s" if f == "self_s" else "count"
            spec.append((f"{name}.{f}", unit, lambda t, n=name, f=f: t["layers"][n][f]))

    def cached(name):
        # a function that is no longer an lru_cache reads 0 lookups
        spec.append((f"{name}.cache_lookups", "count",
                     lambda t, n=name: sum(t["caches"].get(n, {}).values())))
        spec.append((f"{name}.cache_hits", "count",
                     lambda t, n=name: t["caches"].get(n, {}).get("hits", 0)))

    for m in ("mul", "reciprocal", "log1", "fracpow", "compose"):
        layer(f"series.TSeries.{m}", "calls", "self_s")
    layer("series.XPoly.mul", "calls", "self_s")
    layer("series.gen_binomial", "self_s")
    for f in ("varpi", "varrho", "rho_scaling"):
        layer(f"combinat.{f}", "calls", "self_s")
        cached(f"combinat.{f}")
    spec.append(("combinat.compositions.yielded", "count", lambda t: t["compositions_yielded"]))
    for f in ("bell_partial", "faa_derivative", "bracket_y", "epsilon"):
        layer(f"combinat.{f}", "calls", "self_s")
    for f in ("K_series", "K_epsilon", "K_from_P", "K_bell", "K_stirling", "P_series",
              "P_bell", "P_from_K", "P_from_K_stirling2", "classical_K"):
        layer(f"polys.{f}", "self_s")
        cached(f"polys.{f}")
    for f in ("monomial_from_K", "addition_P3", "addition_P4", "mu_coeffs", "c_coeffs"):
        layer(f"polys.{f}", "self_s")
    layer("operators.scaled_member", "self_s")
    layer("operators.translate", "self_s")
    layer("measure.mixture_pmf", "calls", "self_s")
    layer("measure.mixture_density", "calls")
    layer("measure.gamma_laplace", "self_s")
    layer("measure.joint_laplace_oracle", "self_s")
    layer("measure.pmf", "calls", "self_s")
    layer("measure.truncated_moment_sums", "self_s")
    spec.append(("measure.support_cutoff", "count", lambda t: t["cutoff_total"]))
    layer("measure.adaptive_cutoff", "self_s")
    layer("measure.tail_bound", "calls")
    layer("measure.literal_moment_sums", "self_s")
    layer("measure.laplace_series", "self_s")
    layer("sampling.sample", "self_s")
    layer("sampling.histogram", "self_s")
    layer("sampling.tv_distance", "self_s")
    spec.append(("sampling.tv_distance.pmf_calls", "count",
                 lambda t: t["edges"].get("sampling.tv_distance>measure.pmf", 0)))
    layer("audit.run_audit", "self_s")
    layer("verify.verify_property", "self_s")
    layer("cli", "self_s")
    layer("config.load_config", "self_s")
    return spec


def layer_metrics(traced: list[Execution]) -> dict[str, dict]:
    """Per-layer values summed over the list (per-invocation medians of any repeats)."""
    metrics = {}
    for name, unit, read in per_layer_spec():
        total = sum(per_invocation(traced, lambda e: read(e.report["trace"])).values())
        metrics[name] = {"value": total, "unit": unit}
    # every cache_hit_ratio is given with its base, the cache_lookups metric
    for name in list(metrics):
        if name.endswith(".cache_hits"):
            stem = name[: -len(".cache_hits")]
            base = metrics[stem + ".cache_lookups"]["value"]
            hits = metrics.pop(name)["value"]
            metrics[stem + ".cache_hit_ratio"] = {
                "value": hits / base if base else 0.0, "unit": "ratio"
            }
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def machine_facts() -> dict:
    import mpmath
    import mpmath.libmp
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def print_table(title: str, executions) -> None:
    print(f"# {title}: invocation, repeats, wall s (fastest, median), cpu s (fastest),"
          " median setup s, max rss MB, failed")
    groups: dict[str, list[Execution]] = {}
    for ex in executions:
        groups.setdefault(ex.inv_id, []).append(ex)
    for inv_id, exs in groups.items():
        print(
            f"  {inv_id:24s} {len(exs):2d} {min(e.wall_s for e in exs):8.3f} "
            f"{statistics.median(e.wall_s for e in exs):8.3f} {min(e.cpu_s for e in exs):8.3f} "
            f"{statistics.median(e.setup_s for e in exs):6.3f} "
            f"{max(e.rss_mb for e in exs):7.1f} {sum(1 for e in exs if e.errors)}"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "degenkraw" / "cli.py").is_file():
        print(f"error: no degenkraw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.chdir(ROOT)  # the invocations name their --params files from the root
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    invocations = [
        (inv_id, [a.replace(SEED, str(args.seed)) for a in argv])
        for inv_id, argv in WORKLOADS[args.workload]
    ]
    seeded = {inv_id for inv_id, argv in WORKLOADS[args.workload] if SEED in argv}
    checker = Checker(digests, seeded, args.seed)
    serial = itertools.count(1)
    print("machine " + json.dumps(machine_facts()))

    plain = run_loop(invocations, False, args.seconds, 2, deadline, checker, serial)
    # traced executions share the Checker's first digest of each invocation
    # with the untraced ones, so tracing provably changes no output
    traced = run_loop(invocations, True, 0, 1, deadline, checker, serial) if args.trace else []
    executions = plain + traced
    for ex in traced:
        if ex.code == 0 and "trace" not in ex.report:
            ex.errors.append("traced child wrote no trace summary")
    checker.check_routes(executions)

    print_table(f"{args.workload} untraced", plain)
    metrics = {k: {"value": v, "unit": u} for (k, u), v in
               zip(END_TO_END, end_to_end(plain).values())}
    result_metrics = metrics
    if args.trace:
        print_table(f"{args.workload} traced", traced)
        ok = [e for e in traced if not e.errors]
        for ex in ok:
            if ex.report["trace"]["missing"]:
                print(f"# layers not found in {ex.inv_id}: {ex.report['trace']['missing']}")
            used = {k: v for k, v in ex.report["trace"]["caches"].items() if v["hits"] or v["misses"]}
            print(f"# caches {ex.inv_id} " + json.dumps(used))
        traced_e2e = end_to_end(traced)
        for (k, u), v in zip(END_TO_END, traced_e2e.values()):
            print(f"# traced {k} = {v:.4f} {u}")
        result_metrics = layer_metrics(ok)
        result_metrics["trace.overhead_s"] = {
            "value": traced_e2e["wall_s"] - metrics["wall_s"]["value"], "unit": "s"
        }

    failed = [e for e in executions if e.errors]
    (WORK / "executions.json").write_text(json.dumps([
        {"invocation": e.inv_id, "traced": e.traced, "code": e.code, "wall_s": e.wall_s,
         "cpu_s": e.cpu_s, "setup_s": e.setup_s, "rss_mb": e.rss_mb, "errors": e.errors}
        for e in executions
    ], indent=1), encoding="utf-8")
    for ex in failed:
        for err in ex.errors:
            print(f"# FAILED {ex.inv_id}{' (traced)' if ex.traced else ''}: {err}")
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.4f} {m['unit']}")
    print(f"# ops_failed/ops_attempted = {len(failed)}/{len(executions)}")
    print(f"# run took {time.perf_counter() - t_start:.1f} s")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(executions),
        "failed": len(failed),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
