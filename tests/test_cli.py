"""CLI surface: config handling, output formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
from fractions import Fraction as F

import pytest

from degenkraw.audit import CHECKS, PROPERTIES, RunContext
from degenkraw.cli import cmd_audit, cmd_moments, cmd_polys, cmd_sample, main
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

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": "1"}')
        code = main(["polys", "--params", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        assert main(["polys", "--params", "/nonexistent/x.json"]) == 2


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
        with ctx.workdps():
            assert check.entry(ctx).residual == residual

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_small_n_max(self, n_max):
        text, code = cmd_audit(small_config(n_max=n_max, output_format="csv"))
        assert code == 0
        assert text.endswith("# entries=35\n# required_failures=0\n# result=ok\n")

    def test_via_main_exit_code(self, config_file, capsys):
        assert main(["audit", "--params", config_file, "--n-max", "6"]) == 0
        capsys.readouterr()


class TestAuditReportContract:
    def test_exit_code_flips_only_on_required_failure(self):
        from degenkraw.audit import AuditEntry, AuditReport

        rep = AuditReport()
        rep.add(AuditEntry("a", "", "canonical", "exact-match", "0", "", True))
        rep.add(AuditEntry("b", "", "literal", "mismatch", "1/2", "", False))
        assert rep.exit_code == 0
        rep.add(AuditEntry("c", "", "canonical", "mismatch", "1/3", "", True))
        assert rep.exit_code == 1

    def test_duplicate_formula_variant_rejected(self):
        from degenkraw.audit import AuditEntry, AuditReport

        rep = AuditReport()
        rep.add(AuditEntry("a", "", "canonical", "exact-match", "0", "", True))
        with pytest.raises(ValueError):
            rep.add(AuditEntry("a", "", "canonical", "exact-match", "0", "", True))


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

        def broken(params, n_max, order):
            members = list(polys.K_series(params, n_max).members)
            members[1] = members[1] + 1
            return polys.PolyFamily(params, n_max, tuple(members), "from-p")

        monkeypatch.setitem(polys._ROUTES, "from-p", broken)
        argv = ["verify", "--params", config_file, "--n-max", "8", "--property"]
        assert main(argv + ["p1"]) == 1
        assert capsys.readouterr().out == "p1: FAIL (p1-basis-change: n=1: -1)\n"
        assert main(argv + ["cross"]) == 1
        assert capsys.readouterr().out == "cross: FAIL (k-route-from-p: n=1: -1)\n"
