"""Command-line interface: exit codes, report formats, determinism."""

import json
import re

import pytest

from curved_rs.cli import main

DS_CFG = """
[coords]
names = t, r, theta, phi

[metric]
g00 = 1 - r^2/alpha^2
g11 = -(1 - r^2/alpha^2)^(-1)
g22 = -r^2
g33 = -r^2 * sin(theta)^2

[params]
alpha = 1.0

[domain]
r > 0.001
r < alpha - 0.001
theta > 0.001
theta < pi - 0.001

[sampling]
t = -1.0, 1.0
r = 0.15, 0.7
theta = 0.5, 2.6
phi = 0.3, 5.9
"""


COMMANDS = ("identities", "gauge", "constraints")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(text: str) -> str:
    return re.sub(r'"runtime_s": [0-9.e+-]+', '"runtime_s": 0', text)


class TestExitCodes:
    def test_unknown_preset_is_config_error(self, capsys):
        code, _, err = run(["identities", "--metric", "nosuch"], capsys)
        assert code == 2
        assert "unknown preset" in err

    def test_bad_param_is_config_error(self, capsys):
        code, _, err = run(
            ["identities", "--metric", "schwarzschild", "--param", "M=x"],
            capsys)
        assert code == 2

    def test_negative_param_is_config_error(self, capsys):
        code, _, err = run(
            ["identities", "--metric", "schwarzschild", "--param", "M=-1"],
            capsys)
        assert code == 2

    def test_missing_metric_file(self, capsys):
        code, _, err = run(
            ["identities", "--metric-file", "/nonexistent.cfg"], capsys)
        assert code == 2

    def test_usage_error(self, capsys):
        code, _, _ = run(["identities", "--points"], capsys)
        assert code == 2

    def test_unknown_tolerance_check_is_config_error(self, capsys):
        for command in COMMANDS:
            code, _, err = run(
                [command, "--metric", "minkowski_cartesian", "--points", "2",
                 "--tolerance", "no_such_check=1e-3"], capsys)
            assert code == 2, command
            assert "no_such_check" in err
            assert "eq_1_7_derivative_chain" in err

    def test_gauge_rejects_mass_and_charge(self, capsys):
        # the gauge criterion is the massless, uncharged equation
        for flag in ("--mass", "--charge"):
            code, _, err = run(
                ["gauge", "--metric", "minkowski_cartesian", "--points", "2",
                 flag, "3"], capsys)
            assert code == 2
            assert flag in err

    def test_negative_mass_is_config_error(self, capsys):
        code, _, err = run(
            ["identities", "--metric", "minkowski_cartesian", "--points", "2",
             "--mass", "-1"], capsys)
        assert code == 2
        assert "--mass" in err

    def test_check_failure_exit_one(self, capsys):
        for command, metric, check in (
            ("identities", "minkowski_cartesian", "eq_1_7_derivative_chain"),
            ("constraints", "anti_de_sitter_static", "eq_1_6_gamma_contraction"),
            ("gauge", "frw_dust", "eq_2_8c_gauge_criterion"),
        ):
            code, out, _ = run(
                [command, "--metric", metric, "--points", "2",
                 "--tolerance", f"{check}=1e-30"],
                capsys)
            assert code == 1, command
            assert "FAIL" in out


class TestIdentitiesCommand:
    def test_schwarzschild_json(self, capsys):
        code, out, _ = run(
            ["identities", "--metric", "schwarzschild", "--param", "M=1",
             "--points", "4", "--seed", "42", "--format", "json"],
            capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 2
        assert report["command"] == "identities"
        assert report["passed"] is True
        assert report["environment"]["metric"] == "schwarzschild"
        assert report["environment"]["seed"] == 42

    def test_determinism_byte_identical(self, capsys):
        for command in COMMANDS:
            args = [command, "--metric", "minkowski_cartesian", "--points",
                    "3", "--seed", "42", "--format", "json"]
            _, out1, _ = run(args, capsys)
            _, out2, _ = run(args, capsys)
            assert strip_timing(out1) == strip_timing(out2), command

    def test_metric_file_path(self, capsys, tmp_path):
        cfg = tmp_path / "ds.cfg"
        cfg.write_text(DS_CFG)
        code, out, _ = run(
            ["identities", "--metric-file", str(cfg), "--points", "3",
             "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["environment"]["config_hash"]

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, stdout, _ = run(
            ["identities", "--metric", "minkowski_cartesian", "--points", "2",
             "--format", "json", "--output", str(out_path)], capsys)
        assert code == 0
        assert stdout == ""
        assert json.loads(out_path.read_text())["passed"] is True

    def test_schema_golden(self, capsys, tmp_path):
        # key layout of the JSON report is a stable contract, shared by
        # every command; gauge and constraints add their own keys
        extras = {"identities": [], "gauge": ["points_table", "verdict"],
                  "constraints": ["mass_scan"]}
        for command in COMMANDS:
            metric = ("anti_de_sitter_static" if command == "constraints"
                      else "minkowski_cartesian")
            code, out, _ = run(
                [command, "--metric", metric, "--points", "2",
                 "--seed", "1", "--format", "json"], capsys)
            report = json.loads(out)
            assert report["schema_version"] == 2
            assert report["command"] == command
            assert sorted(report.keys()) == sorted([
                "checks", "command", "environment", "kind", "passed",
                "runtime_s", "schema_version"] + extras[command])
            assert sorted(report["environment"].keys()) == [
                "charge", "config_hash", "curvature_class", "mass", "metric",
                "params", "points", "seed", "stencil_policy"]
            assert sorted(report["checks"][0].keys()) == [
                "expect", "id", "max_rel_error", "note", "passed", "points",
                "runtime_s", "tag", "tolerance"]
            if command == "gauge":
                assert sorted(report["points_table"][0].keys()) == [
                    "einstein_norm", "index", "max_rel_error"]
            if command == "constraints":
                assert sorted(report["mass_scan"].keys()) == [
                    "scalar", "table", "zero_crossing"]

    @pytest.mark.parametrize(
        "metric", ["frw_dust", "schwarzschild", "anti_de_sitter_static"])
    def test_commands_share_check_results(self, capsys, metric):
        # gauge and constraints are views over the registry: each check
        # entry equals the identities entry of the same id
        def checks(command):
            code, out, _ = run(
                [command, "--metric", metric, "--points", "3", "--seed", "5",
                 "--format", "json"], capsys)
            out = json.loads(out)["checks"]
            for c in out:
                del c["runtime_s"]
            return {c["id"]: c for c in out}

        suite = checks("identities")
        gauge = checks("gauge")
        constraints = checks("constraints")
        assert len(gauge) == 1
        assert sorted(constraints) == [
            "eq_1_11a_constraint_reduction", "eq_1_6_gamma_contraction"]
        for cid, entry in {**gauge, **constraints}.items():
            assert entry == suite[cid], cid


class TestGaugeCommand:
    def test_vacuum_verdict(self, capsys):
        code, out, _ = run(
            ["gauge", "--metric", "schwarzschild", "--points", "4"], capsys)
        assert code == 0
        assert "gauge-symmetric region" in out

    def test_nonvacuum_verdict(self, capsys):
        code, out, _ = run(
            ["gauge", "--metric", "frw_dust", "--points", "4"], capsys)
        assert code == 0
        assert "no gauge symmetry (G != 0)" in out

    def test_flat_zero_residuals(self, capsys):
        code, out, _ = run(
            ["gauge", "--metric", "minkowski_cartesian", "--points", "3",
             "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "gauge-symmetric region"
        assert [c["id"] for c in report["checks"]] == [
            "eq_2_7b_massless_gradient"]
        for row in report["points_table"]:
            assert row["einstein_norm"] < 1e-7
            assert row["max_rel_error"] < 1e-6

    def test_dichotomy_visible_in_table(self, capsys):
        code, out, _ = run(
            ["gauge", "--metric", "frw_dust", "--points", "3",
             "--format", "json"], capsys)
        report = json.loads(out)
        assert [c["id"] for c in report["checks"]] == [
            "eq_2_8c_gauge_criterion"]
        rows = report["points_table"]
        assert [row["index"] for row in rows] == [0, 1, 2]
        for row in rows:
            assert row["einstein_norm"] > 1e-3
            assert row["max_rel_error"] < 1e-4
        worst = max(row["max_rel_error"] for row in rows)
        assert report["checks"][0]["max_rel_error"] == worst


class TestConstraintsCommand:
    def test_positive_scalar_zero_crossing(self, capsys):
        code, out, _ = run(
            ["constraints", "--metric", "anti_de_sitter_static",
             "--param", "alpha=1", "--points", "4", "--format", "json"],
            capsys)
        assert code == 0
        report = json.loads(out)
        scan = report["mass_scan"]
        assert scan["scalar"] == pytest.approx(12.0, rel=1e-6)
        assert scan["zero_crossing"] == pytest.approx(1.0, abs=1e-6)

    def test_negative_scalar_no_crossing(self, capsys):
        code, out, _ = run(
            ["constraints", "--metric", "de_sitter_static",
             "--param", "alpha=1", "--points", "4", "--format", "json"],
            capsys)
        assert code == 0
        report = json.loads(out)
        assert report["mass_scan"]["scalar"] == pytest.approx(-12.0, rel=1e-6)
        assert report["mass_scan"]["zero_crossing"] is None

    def test_flat_constraints(self, capsys):
        code, out, _ = run(
            ["constraints", "--metric", "minkowski_cartesian", "--points",
             "3", "--mass", "0", "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        by_id = {c["id"]: c for c in report["checks"]}
        assert by_id["eq_1_6_gamma_contraction"]["max_rel_error"] < 1e-7
        assert by_id["eq_1_11a_constraint_reduction"]["passed"]
        assert report["mass_scan"] is None
