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
        code, _, err = run(
            ["identities", "--metric", "minkowski_cartesian", "--points", "2",
             "--tolerance", "no_such_check=1e-3"], capsys)
        assert code == 2
        assert "no_such_check" in err
        assert "eq_1_7_derivative_chain" in err

    def test_negative_mass_is_config_error(self, capsys):
        code, _, err = run(
            ["identities", "--metric", "minkowski_cartesian", "--points", "2",
             "--mass", "-1"], capsys)
        assert code == 2
        assert "--mass" in err

    def test_check_failure_exit_one(self, capsys):
        code, out, _ = run(
            ["identities", "--metric", "minkowski_cartesian", "--points", "2",
             "--tolerance", "eq_1_7_derivative_chain=1e-30"],
            capsys)
        assert code == 1
        assert "FAIL" in out


class TestIdentitiesCommand:
    def test_schwarzschild_json(self, capsys):
        code, out, _ = run(
            ["identities", "--metric", "schwarzschild", "--param", "M=1",
             "--points", "4", "--seed", "42", "--format", "json"],
            capsys)
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["command"] == "identities"
        assert report["passed"] is True
        assert report["environment"]["metric"] == "schwarzschild"
        assert report["environment"]["seed"] == 42

    def test_determinism_byte_identical(self, capsys):
        args = ["identities", "--metric", "minkowski_cartesian", "--points",
                "3", "--seed", "42", "--format", "json"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert strip_timing(out1) == strip_timing(out2)

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
        # key layout of the JSON report is a stable contract
        code, out, _ = run(
            ["identities", "--metric", "minkowski_cartesian", "--points", "2",
             "--seed", "1", "--format", "json"], capsys)
        report = json.loads(out)
        assert sorted(report.keys()) == [
            "checks", "command", "environment", "kind", "passed",
            "runtime_s", "schema_version"]
        assert sorted(report["environment"].keys()) == [
            "charge", "config_hash", "curvature_class", "mass", "metric",
            "params", "points", "seed", "stencil_policy"]
        assert sorted(report["checks"][0].keys()) == [
            "expect", "id", "max_rel_error", "note", "passed", "points",
            "runtime_s", "tag", "tolerance"]


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
        for row in report["points_table"]:
            assert row["einstein_norm"] < 1e-7
            assert row["residual_norm"] < 1e-6

    def test_dichotomy_visible_in_table(self, capsys):
        code, out, _ = run(
            ["gauge", "--metric", "frw_dust", "--points", "3",
             "--format", "json"], capsys)
        report = json.loads(out)
        for row in report["points_table"]:
            assert row["einstein_norm"] > 1e-3
            assert row["match_rel_error"] < 1e-4


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
        assert report["contraction_identity_error"] < 1e-7
        assert report["mass_scan"] is None
