"""Command-line interface.

Subcommands:
  polys    emit one family (chosen route) as exact coefficient rows
  moments  canonical exact moments, literal values, and the sum oracle
  sample   seeded Monte Carlo histogram against the exact pmf
  audit    run every canonical identity and literal comparison
  verify   run a single named property check

Outputs are deterministic: the same config produces byte-identical text.
Rationals print as "num/den" in lowest terms; floating columns carry a
fixed digit count.  Invalid configuration, and a parameter point where a
requested formula leaves its real domain, exit with code 2; a failing
canonical audit entry exits with code 1.

Each subcommand imports what it runs inside its ``cmd_*`` function, so
``polys`` loads only the exact modules: no mpmath, numpy or audit and no
chaos operators (``degenkraw.operators``).  Only ``sample`` loads numpy,
and with it ``inspect``; no subcommand loads ``dataclasses``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .config import PROPERTIES, Config, ConfigError, DomainError, load_config
from .polys import K_ROUTES, P_ROUTES, family

_ALL_ROUTES = K_ROUTES + P_ROUTES + ("classical",)


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--params", metavar="FILE", default=None, help="JSON config file")
    sp.add_argument("--n-max", type=int, default=None, dest="n_max")
    sp.add_argument("--order", type=int, default=None, help="series truncation order")
    sp.add_argument("--digits", type=int, default=None, help="working decimal digits")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--format", choices=("csv", "json"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenkraw",
        description="Exact computations and formula audits for the degenerate "
        "Pascal measure and its Krawtchouk-Appell polynomial families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("polys", help="emit polynomial family coefficients")
    _add_common(sp)
    sp.add_argument("--route", choices=_ALL_ROUTES, default="series")

    sp = sub.add_parser("moments", help="emit canonical/literal/oracle moment table")
    _add_common(sp)
    sp.add_argument("--m-max", type=int, default=8, dest="m_max")

    sp = sub.add_parser("sample", help="seeded Monte Carlo histogram")
    _add_common(sp)
    sp.add_argument("--count", type=int, default=1_000_000)

    sp = sub.add_parser("audit", help="run the full formula audit")
    _add_common(sp)

    sp = sub.add_parser("verify", help="run one property check")
    _add_common(sp)
    sp.add_argument("--property", choices=PROPERTIES, required=True, dest="prop")
    sp.add_argument("--variant", choices=("corrected", "literal"), default="corrected")

    return parser


# (argparse dest, config field) of each flag that overrides the config file
_FLAG_FIELDS = (
    ("n_max", "n_max"),
    ("order", "series_order"),
    ("digits", "precision_digits"),
    ("seed", "seed"),
    ("format", "output_format"),
)


def _config_from_args(args) -> Config:
    flags = {field: getattr(args, dest) for dest, field in _FLAG_FIELDS}
    overrides = {field: value for field, value in flags.items() if value is not None}
    return load_config(args.params, overrides)


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _render(config: Config, command: str, rows: list[dict], summary: dict | None = None) -> str:
    if config.output_format == "json":
        doc = {"command": command, "config": config.as_dict(), "rows": rows}
        if summary is not None:
            doc["summary"] = summary
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            flat = {
                k: (" ".join(v) if isinstance(v, list) else v) for k, v in row.items()
            }
            writer.writerow(flat)
    if summary is not None:
        for key, value in summary.items():
            buf.write(f"# {key}={value}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_polys(config: Config, route: str) -> str:
    fam = family(config.params, config.n_max, route)
    rows = [
        {
            "route": fam.route,
            "n": n,
            "degree": fam[n].degree,
            "coefficients": [str(c) for c in fam[n].coeffs] or ["0"],
        }
        for n in range(config.n_max + 1)
    ]
    return _render(config, "polys", rows)


def cmd_moments(config: Config, m_max: int) -> str:
    if m_max < 0:
        raise ConfigError("m_max must be nonnegative")
    from .measure import MeasureModel, _nstr

    model = MeasureModel(config.params, config.precision_digits)
    num = model.compare
    # the literal column leaves its domain before any sum is worth running
    literal = [""] + [_nstr(num, model.literal_moment(m), 25) for m in range(1, m_max + 1)]
    sums, cutoff = model.truncated_moment_sums(m_max)
    rows = []
    for m in range(m_max + 1):
        canonical = model.moment_exact(m)
        oracle = num.convert(sums[m])
        gap = abs(num.convert(canonical) - oracle)
        rows.append(
            {
                "m": m,
                "canonical": str(canonical),
                "literal": literal[m],
                "oracle": _nstr(num, oracle, 25),
                "abs_gap": _nstr(num, gap, 8),
            }
        )
    return _render(config, "moments", rows, {"support_cutoff": cutoff})


def cmd_sample(config: Config, count: int) -> str:
    if count < 1:
        raise ConfigError("count must be positive")
    from .measure import MeasureModel
    from .sampling import _tv_from_counts, histogram, sample

    model = MeasureModel(config.params, config.precision_digits)
    draws = sample(count, config.seed, model)
    counts = histogram(draws)
    rows = []
    pmfs = [float(model.pmf(n)) for n in range(max(counts) + 1)]
    for n, pn in enumerate(pmfs):
        c = counts.get(n, 0)
        # a drawn value always has positive mass; the guard only protects
        # against float underflow at absurd support points
        spread = math.sqrt(count * pn * (1 - pn)) or float("inf")
        rows.append(
            {
                "n": n,
                "count": c,
                "empirical_freq": f"{c / count:.8f}",
                "pmf": f"{pn:.12f}",
                "std_residual": f"{(c - count * pn) / spread:.4f}",
            }
        )
    mean_exact = model.moment_exact(1)
    var_exact = model.moment_exact(2) - mean_exact**2
    se = math.sqrt(float(var_exact) / count)
    emp_mean = float(draws.mean())
    summary = {
        "count": count,
        "seed": config.seed,
        "tv_distance": f"{_tv_from_counts(counts, count, pmfs):.8f}",
        "empirical_mean": f"{emp_mean:.8f}",
        "exact_mean": str(mean_exact),
        "mean_se": f"{se:.8f}",
        "mean_offset_in_se": f"{abs(emp_mean - float(mean_exact)) / se:.4f}",
    }
    return _render(config, "sample", rows, summary)


def cmd_audit(config: Config) -> tuple[str, int]:
    from .audit import run_audit

    entries = run_audit(config)
    failures = sum(1 for e in entries if e.required and not e.passed)
    rows = [{k: v for k, v in vars(e).items() if k != "required"} for e in entries]
    summary = {
        "entries": len(rows),
        "required_failures": failures,
        "result": "canonical-invariant-failure" if failures else "ok",
    }
    return _render(config, "audit", rows, summary), 1 if failures else 0


def cmd_verify(config: Config, prop: str, variant: str) -> tuple[str, int]:
    from .audit import verify_property

    passed, detail = verify_property(config, prop, variant)
    return f"{prop}: {'PASS' if passed else 'FAIL'} ({detail})\n", 0 if passed else 1


# subcommand -> (config, args) -> (stdout text, exit code)
_COMMANDS = {
    "polys": lambda config, args: (cmd_polys(config, args.route), 0),
    "moments": lambda config, args: (cmd_moments(config, args.m_max), 0),
    "sample": lambda config, args: (cmd_sample(config, args.count), 0),
    "audit": lambda config, args: cmd_audit(config),
    "verify": lambda config, args: cmd_verify(config, args.prop, args.variant),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = _COMMANDS[args.command](_config_from_args(args), args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
