"""CLI surface: config handling, output formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from mpmath import mp

import degenkraw
from degenkraw.audit import CHECKS, PROPERTIES, Check, RunContext, run_audit
from degenkraw.cli import cmd_audit, cmd_moments, cmd_polys, cmd_sample, cmd_verify, main
from degenkraw.config import ConfigError, config_from_dict, load_config

SET_A_DICT = {
    "lambda": "-1/2",
    "beta": "2",
    "p": "3/5",
    "r": "3",
    "n_max": 10,
    "series_order": 16,
    "precision_digits": 60,
    "seed": 42,
    "output_format": "json",
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(SET_A_DICT))
    return str(path)


def small_config(**over):
    data = {**SET_A_DICT, **over}
    return config_from_dict(data)


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.params.p == F(3, 5)
        assert cfg.n_max == 10
        assert cfg.output_format == "json"

    def test_file_plus_overrides(self, config_file):
        cfg = load_config(config_file, {"n_max": 4, "output_format": "csv"})
        assert cfg.n_max == 4
        assert cfg.output_format == "csv"
        assert cfg.params.lam == F(-1, 2)

    def test_model_param_override_revalidates(self, config_file):
        cfg = load_config(config_file, {"p": "1/2"})
        assert cfg.params.q == F(1, 2)
        with pytest.raises(ConfigError):
            load_config(config_file, {"p": "2"})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"lambda": "1/2"})
        with pytest.raises(ConfigError):
            config_from_dict({"series_order": 5})  # < n_max + 2
        with pytest.raises(ConfigError):
            config_from_dict({"precision_digits": 20})
        with pytest.raises(ConfigError):
            config_from_dict({"output_format": "xml"})
        with pytest.raises(ConfigError):
            config_from_dict({"unknown_key": 1})
        with pytest.raises(ConfigError):
            config_from_dict({"p": "not-a-number"})
        # int() would truncate a float and read a bool as 0 or 1: each would
        # run another point; as_fraction rejects a bool in a rational field
        for bad in (
            {"n_max": 10.7},
            {"n_max": 10.0},
            {"n_max": True},
            {"n_max": "10.7"},
            {"seed": 3.5},
            {"seed": False},
            {"series_order": 16.0},
            {"series_order": None},
            {"precision_digits": 60.5},
            {"beta": True},
            {"r": True},
            {"beta": 1.5},
        ):
            with pytest.raises(ConfigError):
                config_from_dict(bad)

    def test_integer_strings_accepted(self):
        cfg = config_from_dict({"n_max": "4", "seed": "3", "series_order": "20", "beta": 2})
        assert (cfg.n_max, cfg.seed, cfg.series_order, cfg.params.beta) == (4, 3, 20, 2)

    def test_default_order_follows_n_max(self, config_file, capsys):
        # unset by file and flags, series_order is max(16, n_max + 2); an
        # order that is set stays as given and is still validated
        assert config_from_dict({}).series_order == 16
        assert config_from_dict({"n_max": 20}).series_order == 22
        assert load_config(None, {"n_max": 14}).series_order == 16
        assert load_config(None, {"n_max": 15}).series_order == 17
        assert load_config(None, {"n_max": 15, "p": "1/2"}).series_order == 17
        assert load_config(None, {"n_max": 15, "series_order": 30}).series_order == 30
        with pytest.raises(ConfigError):
            load_config(None, {"n_max": 15, "series_order": 16})
        with pytest.raises(ConfigError):
            load_config(config_file, {"n_max": 15})  # the file sets 16
        assert main(["polys", "--n-max", "15"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["series_order"] == 17 and len(doc["rows"]) == 16
        assert main(["polys", "--n-max", "15", "--order", "16"]) == 2
        assert "series_order must be at least n_max + 2" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": "1"}')
        code = main(["polys", "--params", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        bad.write_text('{"n_max": 10.7, "beta": true}')
        assert main(["polys", "--params", str(bad)]) == 2
        assert "'beta'" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["polys", "--params", "/nonexistent/x.json"]) == 2

    # valid points where the literal pmf series diverges, so the literal
    # moment and the audit's literal resummation leave their domain; at
    # p = 1/10 the audit first sums 1461 support points for its canonical
    # moment checks (about 50 s on a 2-core machine), so it runs at p = 1/2,
    # where the same literal check fails within a second
    @pytest.mark.parametrize(
        "argv, p",
        [(["moments", "--m-max", "1", "--digits", "40"], "1/10"), (["audit"], "1/2")],
        ids=["moments", "audit"],
    )
    def test_domain_error_exits_2(self, tmp_path, capsys, argv, p):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"lambda": "-10", "beta": "1", "p": p, "r": "1/100"}))
        assert main(argv + ["--params", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback

    def test_moments_checks_literal_domain_before_sums(self, tmp_path, capsys, monkeypatch):
        # the literal column's domain is known without the support sums, which
        # at this point run 1461 support points before the literal fails
        from degenkraw.measure import MeasureModel

        def no_sums(self, m_max):
            raise AssertionError("the moment sums ran before the literal domain check")

        monkeypatch.setattr(MeasureModel, "truncated_moment_sums", no_sums)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"lambda": "-10", "beta": "1", "p": "1/10", "r": "1/100"}))
        assert main(["moments", "--digits", "40", "--params", str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: literal moment undefined for these parameters\n")


class TestPolysCommand:
    def test_csv_rows(self):
        out = cmd_polys(small_config(output_format="csv", n_max=2), "series")
        lines = out.strip().splitlines()
        assert lines[0] == "route,n,degree,coefficients"
        assert lines[1] == "series,0,0,1"
        assert lines[2] == "series,1,1,-12/5 3/5"

    def test_single_row_at_n_max_zero(self):
        out = cmd_polys(small_config(output_format="csv", n_max=0, series_order=16), "series")
        assert out.strip().splitlines()[1:] == ["series,0,0,1"]

    def test_epsilon_route_identical_bytes(self):
        cfg = small_config(output_format="csv", n_max=8)
        a = cmd_polys(cfg, "series").replace("series", "ROUTE")
        b = cmd_polys(cfg, "epsilon").replace("epsilon", "ROUTE")
        assert a == b

    def test_json_roundtrip(self):
        out = cmd_polys(small_config(n_max=4), "series")
        doc = json.loads(out)
        assert doc["command"] == "polys"
        k1 = doc["rows"][1]
        assert [F(c) for c in k1["coefficients"]] == [F(-12, 5), F(3, 5)]
        assert k1["degree"] == 1

    def test_csv_reparse_exact(self):
        out = cmd_polys(small_config(output_format="csv", n_max=6), "series")
        rows = list(csv.DictReader(io.StringIO(out)))
        from degenkraw.polys import K_series

        fam = K_series(small_config().params, 6)
        for row in rows:
            n = int(row["n"])
            coeffs = [F(c) for c in row["coefficients"].split(" ")]
            assert coeffs == list(fam[n].coeffs)

    def test_p_routes_exposed(self):
        out = cmd_polys(small_config(n_max=3), "p-series")
        doc = json.loads(out)
        assert doc["rows"][1]["coefficients"] == ["-4", "1"]

    def test_classical_route(self):
        out = cmd_polys(small_config(n_max=2), "classical")
        doc = json.loads(out)
        assert doc["rows"][1]["coefficients"] == ["-6/5", "3/5"]

    def test_order_headroom_does_not_change_members(self):
        lo = json.loads(cmd_polys(small_config(n_max=6, series_order=8), "series"))
        hi = json.loads(cmd_polys(small_config(n_max=6, series_order=24), "series"))
        assert lo["rows"] == hi["rows"]

    def test_via_main(self, config_file, capsys):
        assert main(["polys", "--params", config_file, "--n-max", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 3


class TestMomentsCommand:
    def test_table_contents(self):
        out = cmd_moments(small_config(n_max=4), 4)
        doc = json.loads(out)
        rows = doc["rows"]
        assert rows[0]["canonical"] == "1"
        assert rows[0]["literal"] == ""
        assert rows[1]["canonical"] == "4"
        for row in rows:
            assert F(row["abs_gap"].strip()) < F(1, 10**20) or float(row["abs_gap"]) < 1e-20

    def test_determinism(self):
        cfg = small_config(n_max=4)
        assert cmd_moments(cfg, 3) == cmd_moments(cfg, 3)


class TestSampleCommand:
    def test_histogram_and_summary(self):
        out = cmd_sample(small_config(n_max=4), 20000)
        doc = json.loads(out)
        assert doc["summary"]["exact_mean"] == "4"
        assert float(doc["summary"]["tv_distance"]) < 0.05
        total = sum(r["count"] for r in doc["rows"])
        assert total == 20000

    def test_same_seed_same_bytes(self):
        cfg = small_config(n_max=4)
        assert cmd_sample(cfg, 5000) == cmd_sample(cfg, 5000)

    def test_summary_tv_is_tv_distance(self):
        # the command takes the TV from the histogram and pmf floats of its
        # rows; it must print the TV a bincount of the draws gives
        from degenkraw.measure import MeasureModel
        from degenkraw.sampling import sample
        from oracles import tv_distance_by_bincount

        cfg = small_config(n_max=4)
        doc = json.loads(cmd_sample(cfg, 5000))
        model = MeasureModel(cfg.params, cfg.precision_digits)
        draws = sample(5000, cfg.seed, model)
        assert doc["summary"]["tv_distance"] == f"{tv_distance_by_bincount(draws, model):.8f}"

    def test_seed_changes_output(self):
        a = cmd_sample(small_config(n_max=4), 5000)
        b = cmd_sample(small_config(n_max=4, seed=43), 5000)
        assert a != b


class TestAuditCommand:
    def test_exit_zero_and_required_entries(self):
        text, code = cmd_audit(small_config(n_max=6))
        assert code == 0
        doc = json.loads(text)
        ids = {(r["formula_id"], r["variant"]) for r in doc["rows"]}
        assert len({r["formula_id"] for r in doc["rows"]}) == len(doc["rows"])
        # one entry per literal-vs-canonical comparison pair
        for expected in [
            ("epsilon-closed-printed", "printed"),
            ("pmf-literal-mass", "literal"),
            ("moment-literal-gap", "literal"),
            ("example-c2", "printed"),
            ("example-k1", "printed"),
            ("example-k2", "printed"),
            ("stirling-transition-literal", "literal"),
            ("bell-arguments", "literal"),
            ("scaling-weights-literal", "literal"),
            ("p3-addition-literal", "literal"),
        ]:
            assert expected in ids
        statuses = {r["formula_id"]: r["status"] for r in doc["rows"] if r["variant"] == "canonical"}
        assert set(statuses.values()) <= {"exact-match", "match-within-tol"}

    def test_literal_entries_report_mismatch(self):
        text, _ = cmd_audit(small_config(n_max=6))
        doc = json.loads(text)
        by_key = {(r["formula_id"], r["variant"]): r for r in doc["rows"]}
        assert by_key[("pmf-literal-mass", "literal")]["status"] == "mismatch"
        assert by_key[("example-c2", "printed")]["status"] == "mismatch"
        assert by_key[("p4-addition", "canonical")]["status"] == "exact-match"
        assert by_key[("p4-addition", "canonical")]["residual"] == "0"

    def test_deterministic_bytes(self):
        cfg = small_config(n_max=6, output_format="csv")
        a, _ = cmd_audit(cfg)
        b, _ = cmd_audit(cfg)
        assert a == b
        # the set-A audit bytes are part of the CLI contract
        assert hashlib.sha256(a.encode()).hexdigest() == (
            "9acf311b4e97b0098285e069c959283af7c798ab4fbd711d57df7a2425814175"
        )

    @pytest.mark.parametrize(
        "formula_id, residual",
        [
            ("mixture-consistency", "1.0363402266113333550e-76"),
            ("gamma-mixing-transform", "2.1227011414937737334e-72"),
        ],
    )
    def test_quadrature_residuals(self, formula_id, residual):
        # set A at n_max 6: round-off-level gaps, so a change of working
        # precision inside the quadrature shows here, under the check's name
        ctx = RunContext.of(small_config(n_max=6))
        (check,) = [c for c in CHECKS if c.formula_id == formula_id]
        assert check.entry(ctx).residual == residual

    def test_each_measure_quantity_once(self, monkeypatch):
        # joint-functional-oracle evaluates joint_laplace(s, t) once (three
        # _deg_exp calls per joint_laplace, two for the oracle's normalizer)
        # and literal-internal-consistency evaluates literal_mass once.  The
        # tail anchor is warmed first, so its pgf is not counted.
        import degenkraw.measure as measure

        ctx = RunContext.of(small_config(n_max=2))
        ctx.model._tail_anchor
        counts = {"deg_exp": 0, "literal_mass": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            measure.MeasureModel, "_deg_exp", counted("deg_exp", measure.MeasureModel._deg_exp)
        )
        monkeypatch.setattr(
            measure.MeasureModel, "literal_mass",
            counted("literal_mass", measure.MeasureModel.literal_mass),
        )
        checks = {c.formula_id: c for c in CHECKS}
        checks["joint-functional-oracle"].entry(ctx)
        assert counts["deg_exp"] == 8
        checks["literal-internal-consistency"].entry(ctx)
        assert counts["literal_mass"] == 1

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_small_n_max(self, n_max):
        text, code = cmd_audit(small_config(n_max=n_max, output_format="csv"))
        assert code == 0
        assert text.endswith("# entries=35\n# required_failures=0\n# result=ok\n")

    def test_via_main_exit_code(self, config_file, capsys):
        assert main(["audit", "--params", config_file, "--n-max", "6"]) == 0
        capsys.readouterr()


def _stub_check(formula_id, required, status):
    variant = "canonical" if required else "literal"
    gap = None if status == "exact-match" else (0,)
    return Check(formula_id, "", variant, required, lambda ctx: (gap, ""), "{0}")


class TestAuditEntries:
    def test_exit_code_flips_only_on_required_failure(self, monkeypatch):
        cfg = small_config(n_max=0, output_format="csv")
        checks = (_stub_check("b", False, "mismatch"), _stub_check("a", True, "exact-match"))
        monkeypatch.setattr("degenkraw.audit.CHECKS", checks)
        text, code = cmd_audit(cfg)
        assert code == 0
        assert [line[:2] for line in text.splitlines()[1:3]] == ["a,", "b,"]  # sorted
        assert text.endswith("# entries=2\n# required_failures=0\n# result=ok\n")
        monkeypatch.setattr("degenkraw.audit.CHECKS", checks + (_stub_check("c", True, "mismatch"),))
        text, code = cmd_audit(cfg)
        assert code == 1
        assert text.endswith("# required_failures=1\n# result=canonical-invariant-failure\n")

    def test_duplicate_formula_id_rejected(self, monkeypatch):
        check = _stub_check("a", True, "exact-match")
        checks = (check, _stub_check("b", True, "exact-match"), check)
        monkeypatch.setattr("degenkraw.audit.CHECKS", checks)
        with pytest.raises(ValueError, match="duplicate audit entry a"):
            run_audit(small_config(n_max=0))


# each subcommand on cheap arguments, with the overrides its flags make and
# the matching cmd_* call
MAIN_CASES = {
    "polys": (["--route", "epsilon", "--n-max", "3"], {"n_max": 3},
              lambda cfg: (cmd_polys(cfg, "epsilon"), 0)),
    "moments": (["--m-max", "2", "--format", "csv"], {"output_format": "csv"},
                lambda cfg: (cmd_moments(cfg, 2), 0)),
    "sample": (["--count", "1000", "--seed", "7"], {"seed": 7},
               lambda cfg: (cmd_sample(cfg, 1000), 0)),
    "audit": (["--n-max", "1", "--digits", "40"], {"n_max": 1, "precision_digits": 40},
              cmd_audit),
    "verify": (["--property", "p3", "--variant", "literal", "--order", "20"],
               {"series_order": 20}, lambda cfg: cmd_verify(cfg, "p3", "literal")),
}


@pytest.mark.parametrize("command", list(MAIN_CASES))
def test_main_prints_what_the_command_returns(config_file, capsys, command):
    flags, overrides, run = MAIN_CASES[command]
    code = main([command, "--params", config_file] + flags)
    assert (capsys.readouterr().out, code) == run(load_config(config_file, overrides))


# stdout of `verify --n-max 8` on set A: part of the CLI contract, byte for byte
VERIFY_LINES = {
    "p1": "p1: PASS (exact member equality through n=8)",
    "p2": "p2: PASS (x^n rebuilt exactly for n<=8)",
    "p3": "p3: PASS (variant=corrected: zero residual through n=8)",
    "p4": "p4: PASS (zero residual through n=8)",
    "cross": "cross: PASS (5 main routes (n<=8) and 4 companion routes (n<=8) agree exactly)",
    "normalization": "normalization: PASS (mass within 1e-20 of 1 (cutoff 275); "
    "moments m<=8 within 1e-20 relative)",
    "limit": "limit: PASS (max relative errors 5.425e-04, 5.426e-05, 5.426e-06 "
    "at lam=-1e-4,-1e-5,-1e-6; decade ratios within [9, 11])",
    "scaling": "scaling: PASS (expansion equals substitution for basis degrees <= 8, "
    "z in {2, 1/3, -1}; composition law holds)",
    "translation": "translation: PASS (group law exact; e^(yz) kernel action verified "
    "through order 12)",
}
LITERAL_FAIL_LINES = {
    "p3": "p3: FAIL (variant=literal: nonzero residual at n=1)",
    "scaling": "scaling: FAIL (variant=literal: mismatch at basis degree 1, z=2)",
}


class TestVerifyCommand:
    @pytest.mark.parametrize("prop", list(VERIFY_LINES))
    def test_all_properties_pass(self, config_file, capsys, prop):
        assert main(["verify", "--params", config_file, "--property", prop, "--n-max", "8"]) == 0
        assert capsys.readouterr().out == VERIFY_LINES[prop] + "\n"

    def test_properties_follow_registry(self):
        assert PROPERTIES == tuple(VERIFY_LINES)

    @pytest.mark.parametrize("prop", list(LITERAL_FAIL_LINES))
    def test_literal_variants_fail(self, config_file, capsys, prop):
        argv = ["verify", "--params", config_file, "--property", prop, "--variant", "literal"]
        assert main(argv + ["--n-max", "8"]) == 1
        assert capsys.readouterr().out == LITERAL_FAIL_LINES[prop] + "\n"

    @pytest.mark.parametrize("prop", [p for p in VERIFY_LINES if p not in LITERAL_FAIL_LINES])
    def test_variant_rejected_where_undefined(self, config_file, capsys, prop):
        argv = ["verify", "--params", config_file, "--property", prop, "--variant", "literal"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p3 and scaling" in captured.err

    def test_broken_route_fails_naming_formula_id(self, config_file, capsys, monkeypatch):
        from degenkraw import polys

        def broken(params, n_max):
            members = list(polys.K_series(params, n_max).members)
            members[1] = members[1] + 1
            return polys.PolyFamily(tuple(members), "from-p")

        monkeypatch.setitem(polys._ROUTES, "from-p", broken)
        argv = ["verify", "--params", config_file, "--n-max", "8", "--property"]
        assert main(argv + ["p1"]) == 1
        assert capsys.readouterr().out == "p1: FAIL (p1-basis-change: n=1: -1)\n"
        assert main(argv + ["cross"]) == 1
        assert capsys.readouterr().out == "cross: FAIL (k-route-from-p: n=1: -1)\n"


# degenkraw.__all__: the exact names and the lazily imported floating-point ones
PUBLIC_NAMES = [
    "ChaosVector", "Config", "ConfigError", "DomainError", "K_bell",
    "K_epsilon", "K_from_P", "K_series", "K_stirling", "MeasureModel",
    "NonInvertibleSeries", "P_bell", "P_from_K", "P_from_K_stirling2", "P_series",
    "Params", "PolyFamily", "TSeries", "XPoly", "addition_P3", "addition_P4",
    "bracket_y", "c_coeffs", "chaos_to_poly", "classical_K", "combinat", "config",
    "deg_exp_series", "deg_falling", "epsilon", "epsilon_closed", "eta",
    "exact_moments", "faa_derivative", "family", "gen_binomial", "kappa",
    "laplace_series", "load_config", "measure", "monomial_from_K", "mu_coeffs",
    "operators", "poly_to_chaos", "polys", "rho_scaling", "sample", "sampling",
    "scale_expansion", "scale_substitution", "series", "stirling1", "stirling2",
    "translate", "xi_derivs",
]

# run in a fresh interpreter: the test process already holds mpmath and numpy
_IMPORTS_CHILD = """
import contextlib, io, json, sys
from degenkraw.cli import main
from degenkraw.polys import K_ROUTES, P_ROUTES

heavy = (
    "mpmath", "numpy", "sympy", "degenkraw.audit", "dataclasses", "inspect",
    "degenkraw.operators",
)
loaded = {"import": [m for m in heavy if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    for route in K_ROUTES + P_ROUTES + ("classical",):
        assert main(["polys", "--n-max", "3", "--route", route]) == 0
    loaded["polys"] = [m for m in heavy if m in sys.modules]
    assert main(["moments", "--m-max", "2"]) == 0
    loaded["moments"] = [m for m in heavy if m in sys.modules]

import degenkraw
loaded["lazy"] = [
    degenkraw.sample.__module__, degenkraw.MeasureModel.__module__, degenkraw.translate.__module__
]
loaded["all"] = sorted(degenkraw.__all__)
print(json.dumps(loaded))
"""


class TestStartupImports:
    def test_subcommands_import_only_what_they_run(self):
        src = str(Path(degenkraw.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        done = subprocess.run(
            [sys.executable, "-c", _IMPORTS_CHILD],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout)
        assert loaded["import"] == []
        assert loaded["polys"] == []
        assert "numpy" not in loaded["moments"]
        assert loaded["lazy"] == ["degenkraw.sampling", "degenkraw.measure", "degenkraw.operators"]
        assert loaded["all"] == PUBLIC_NAMES

    def test_exact_path_imports_no_typing(self):
        # the exact modules take their annotation names from collections.abc;
        # -S keeps site (and whatever its .pth hooks import) out of the count
        src = str(Path(degenkraw.__file__).resolve().parents[1])
        child = "import sys, degenkraw.cli; print('typing' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-S", "-c", child],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["polys", "--n-max", "4"],
            ["moments", "--m-max", "2"],
            ["sample", "--count", "1000"],
            ["audit", "--n-max", "1"],
            ["verify", "--property", "normalization", "--n-max", "4"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_subcommands_leave_mpmath_precision_alone(self, config_file, capsys, argv):
        assert mp.dps == 15
        assert main(argv[:1] + ["--params", config_file] + argv[1:]) == 0
        capsys.readouterr()
        assert mp.dps == 15
