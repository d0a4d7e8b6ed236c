"""Command-line interface: exit codes, report formats, determinism."""

import argparse
import json
import re
from pathlib import Path

import pytest

from curved_rs import cli
from curved_rs.cli import build_parser, main
from curved_rs.identity_suite import CONSTRAINT_CHECKS, GAUGE_CHECKS, REGISTRY

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


#: documents whose sampling box lies outside the domain: by a [domain]
#: line, and by components that overflow a float everywhere in the box
OUTSIDE_CFG = """
[coords]
names = t, r, theta, phi
[metric]
g00 = 1
g11 = -1
g22 = -r^2
g33 = -r^2 * sin(theta)^2
[domain]
r > 10
[sampling]
t = -1, 1
r = 1, 2
theta = 0.5, 2.5
phi = 0.3, 5.9
"""
OVERFLOW_CFG = """
[coords]
names = t, x, y, z
[metric]
g00 = 1 + exp(x)
g11 = -1
g22 = -1
g33 = -1
[sampling]
t = -1, 1
x = 710, 800
y = -1, 1
z = -1, 1
"""
#: below x = 709.78 exp(x) is finite (up to 1e308): such draws are outside
#: the domain by ``spacetimes.COMPONENT_LIMIT`` instead of overflowing later
LARGE_CFG = OVERFLOW_CFG.replace("x = 710, 800", "x = 700, 800")
#: Minkowski on the unit box, and from it a box with an infinite bound, a
#: metric of the wrong signature, and one whose determinant underflows to
#: 0 on the whole box
FLAT_CFG = OVERFLOW_CFG.replace("1 + exp(x)", "1").replace("x = 710, 800",
                                                            "x = -1, 1")
INFINITE_BOX_CFG = FLAT_CFG.replace("t = -1, 1", "t = -2, 1e309")
SIGNATURE_CFG = FLAT_CFG.replace("g00 = 1", "g00 = -1")
SINGULAR_CFG = FLAT_CFG.replace("g11 = -1", "g11 = -exp(-800*t)").replace(
    "t = -1, 1", "t = 1, 2")
#: eta scaled by 1e-4, a regular metric whose det g is 1e-16; eta with x
#: rescaled, regular although det g is 1e-15 of max |g_ab|^4; and a metric
#: with g00 = 0, which is singular at any scale
SCALED_ETA_CFG = re.sub(r"(g\d\d = -?)1\n", r"\g<1>1e-4\n", FLAT_CFG)
ANISOTROPIC_CFG = FLAT_CFG.replace("g11 = -1\n", "g11 = -1e5\n")
ZERO_G00_CFG = FLAT_CFG.replace("g00 = 1", "g00 = 0")
#: eta scaled by 1e-6 on the unit box
TINY_ETA_CFG = re.sub(r"(g\d\d = -?)1\n", r"\g<1>1e-6\n", FLAT_CFG)

COMMANDS = ("identities", "gauge", "constraints")
#: the checks each command runs
COMMAND_CHECKS = {"identities": tuple(d.id for d in REGISTRY),
                  "gauge": GAUGE_CHECKS, "constraints": CONSTRAINT_CHECKS}


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
        assert "unknown preset 'nosuch'; available: minkowski_cartesian" in err

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
            assert all(check in err for check in COMMAND_CHECKS[command])

    @pytest.mark.parametrize("command, check", [
        ("gauge", "eq_1_7_derivative_chain"),
        ("constraints", "eq_2_7b_massless_gradient"),
    ])
    def test_tolerance_of_another_commands_check_is_config_error(
            self, capsys, command, check):
        # a registered check the command does not run: the override would
        # change nothing
        code, _, err = run(
            [command, "--metric", "schwarzschild", "--points", "1",
             "--tolerance", f"{check}=0"], capsys)
        assert code == 2
        assert check in err
        assert all(own in err for own in COMMAND_CHECKS[command])

    @pytest.mark.parametrize("command, check, applicable", [
        ("identities", "eq_1_12_flat_reduction", "eq_1_13_vacuum_constraint"),
        ("gauge", "eq_2_8c_gauge_criterion", "eq_2_7b_massless_gradient"),
    ])
    def test_tolerance_of_an_inapplicable_check_is_config_error(
            self, capsys, command, check, applicable):
        # Schwarzschild is Ricci-flat and not eta, so the check does not
        # run there and the override would change nothing
        code, out, err = run(
            [command, "--metric", "schwarzschild", "--points", "2",
             "--tolerance", f"{check}=0"], capsys)
        assert (code, out) == (2, "")
        assert check in err and "ricci_flat" in err
        assert applicable in err

    def test_gauge_rejects_mass_and_charge(self, capsys):
        # the gauge criterion is the massless equation, and no command
        # couples the field to a potential
        for command, flag in (("gauge", "--mass"), ("gauge", "--charge"),
                              ("identities", "--charge"),
                              ("constraints", "--charge")):
            code, _, err = run(
                [command, "--metric", "minkowski_cartesian", "--points", "2",
                 flag, "3"], capsys)
            assert code == 2, command
            assert flag in err

    @pytest.mark.parametrize("args", [
        ["identities", "--seed", "-1"],
        ["identities", "--metric", "schwarzschild", "--param", "foo=1"],
        ["identities", "--metric", "frw_dust", "--param", "alpha=2"],
        ["identities", "--metric", "schwarzschild", "--param", "M=nan"],
        ["identities", "--metric", "schwarzschild", "--param", "M=inf"],
        ["gauge", "--metric", "de_sitter_static", "--param", "alpha=nan"],
        ["identities", "--mass", "nan"],
        ["identities", "--mass", "inf"],
        ["identities", "--metric", "de_sitter_static", "--param", "foo=1"],
        ["identities", "--metric", "anti_de_sitter_static", "--param", "M=3"],
        ["identities", "--metric-file", "{cfg}", "--param", "alpha=5"],
        ["identities", "--tolerance", "eq_1_3_hermiticity=-1"],
        ["identities", "--tolerance", "eq_1_3_hermiticity=nan"],
        ["identities", "--metric-file", "{outside}"],
        ["identities", "--metric-file", "{overflow}"],
        ["identities", "--metric-file", "{large}", "--seed", "1"],
        ["identities", "--metric-file", "{large}", "--seed", "2"],
        ["identities", "--metric-file", "{large}", "--seed", "3"],
        ["identities", "--metric", "schwarzschild", "--param", "M=1e308"],
        ["identities", "--metric-file", "{infinite_box}"],
        ["identities", "--metric-file", "{signature}"],
        ["identities", "--metric-file", "{singular}"],
        ["identities", "--metric", "frw_dust", "--param", "a0=1e-300"],
        ["identities", "--metric-file", "{zero_g00}"],
        ["identities", "--metric", "schwarzschild", "--mass", "1e200"],
        ["constraints", "--metric", "schwarzschild", "--mass", "1e200"],
        ["identities", "--metric", "schwarzschild", "--param", "M=1",
         "--param", "M=2"],
        ["identities", "--tolerance", "eq_1_3_hermiticity=1e-3",
         "--tolerance", "eq_1_3_hermiticity=1e-5"],
    ])
    def test_bad_input_is_config_error(self, capsys, tmp_path, args):
        for key, text in (("cfg", DS_CFG), ("outside", OUTSIDE_CFG),
                          ("overflow", OVERFLOW_CFG), ("large", LARGE_CFG),
                          ("infinite_box", INFINITE_BOX_CFG),
                          ("signature", SIGNATURE_CFG),
                          ("singular", SINGULAR_CFG),
                          ("zero_g00", ZERO_G00_CFG)):
            (tmp_path / f"{key}.cfg").write_text(text)
            args = [a.replace(f"{{{key}}}", str(tmp_path / f"{key}.cfg"))
                    for a in args]
        code, out, err = run(args + ["--points", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_unwritable_output_is_config_error(self, capsys, tmp_path):
        # a missing directory and a directory: a usage error naming the path
        for path in (tmp_path / "missing" / "report.json", tmp_path):
            code, out, err = run(["identities", "--points", "2", "--output",
                                  str(path)], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: cannot write '{path}'")

    @pytest.mark.parametrize("text", [SCALED_ETA_CFG, ANISOTROPIC_CFG],
                             ids=["scaled_eta", "anisotropic"])
    def test_singular_bound_is_relative_to_the_metric_scale(self, capsys,
                                                            tmp_path, text):
        # |det g| = 1e-16 is singular only for a metric of order one, and
        # rescaling one coordinate leaves a regular metric regular
        assert "g33 = -1e-4\n" in SCALED_ETA_CFG
        assert "g11 = -1e5\n" in ANISOTROPIC_CFG
        path = tmp_path / "metric.cfg"
        path.write_text(text)
        for command in COMMANDS:
            code, out, err = run([command, "--metric-file", str(path),
                                  "--points", "2"], capsys)
            assert (code, err) == (0, ""), command
            assert "overall: pass" in out

    def test_a_large_schwarzschild_mass_is_not_singular(self, capsys):
        # at M = 1000 (r from 3000 to 8000) det g = -r^4 sin^2(theta) is
        # below 1e-16 of max |g_ab|^4 = r^8, yet the metric is regular
        for command in COMMANDS:
            code, out, err = run([command, "--metric", "schwarzschild",
                                  "--param", "M=1000", "--points", "2"],
                                 capsys)
            assert code != 2 and err == "", (command, err)
            assert "overall:" in out

    def test_a_rescaled_metric_passes_the_nested_checks(self, capsys,
                                                        tmp_path):
        # g = 1e-6 eta: the nested checks take exact derivatives, so their
        # errors do not grow with the metric's inverse scale (1.10c read
        # 1.1e-2 against 1e-4 when it differenced the inner derivative)
        assert "g22 = -1e-6\n" in TINY_ETA_CFG
        path = tmp_path / "metric.cfg"
        path.write_text(TINY_ETA_CFG)
        code, out, err = run(["identities", "--metric-file", str(path)],
                             capsys)
        assert (code, err) == (0, "")
        assert "overall: pass" in out

    def test_transform_gates_do_not_grow_with_the_metric_scale(self, capsys):
        # at M = 300 (r from 900 to 2400) the blocks reach about 1e3; 2.3 to
        # 2.6 measure their deviations relative to the blocks' size (2.6
        # read 3.6 times its tolerance in absolute terms)
        code, out, err = run(["identities", "--metric", "schwarzschild",
                              "--param", "M=300"], capsys)
        assert (code, err) == (0, "")
        assert "overall: pass" in out

    def test_negative_mass_is_config_error(self, capsys):
        code, _, err = run(
            ["identities", "--metric", "minkowski_cartesian", "--points", "2",
             "--mass", "-1"], capsys)
        assert code == 2
        assert err.startswith("error: mass must be >= 0")

    @pytest.mark.parametrize("command", ("identities", "constraints"))
    def test_mass_whose_products_overflow_is_config_error(self, capsys,
                                                          command):
        """At m = 1e154 the operator products overflow to NaN (1.7 and
        1.11a failed with exit 1); m^2 is bounded at 1e300, and every
        check still passes at m = 1e150."""
        base = [command, "--metric", "schwarzschild", "--points", "2"]
        code, out, err = run(base + ["--mass", "1e154"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: mass must be >= 0") and "1e+300" in err
        code, out, err = run(base + ["--mass", "1e150"], capsys)
        assert (code, err) == (0, "")

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
        assert report["schema_version"] == 3
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
            assert report["schema_version"] == 3
            assert report["command"] == command
            assert sorted(report.keys()) == sorted([
                "checks", "command", "environment", "kind", "passed",
                "runtime_s", "schema_version"] + extras[command])
            assert sorted(report["environment"].keys()) == [
                "config_hash", "curvature_class", "mass", "metric", "params",
                "points", "seed", "stencil_policy"]
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


#: for every option of every command: the arguments of the run it is
#: compared with, and those that give the option a non-default value
#: ("{cfg}" is a metric document)
FLAG_CHANGES = {
    "--metric": ([], ["--metric", "frw_dust"]),
    "--metric-file": ([], ["--metric-file", "{cfg}"]),
    "--param": (["--metric", "schwarzschild"], ["--param", "M=1.5"]),
    "--points": (["--metric", "schwarzschild"], ["--points", "3"]),
    "--seed": (["--metric", "schwarzschild"], ["--seed", "4"]),
    "--mass": (["--metric", "schwarzschild"], ["--mass", "2.5"]),
    # per command: an override may name only the command's own checks
    "--tolerance": {
        command: (["--metric", "schwarzschild"],
                  ["--tolerance", f"{check}=0.5"])
        for command, check in (("identities", "eq_1_6_gamma_contraction"),
                               ("gauge", "eq_2_7b_massless_gradient"),
                               ("constraints", "eq_1_6_gamma_contraction"))},
}
#: options that choose only how the report is written
OUTPUT_FLAGS = ("--format", "--output")


def test_the_parser_is_built_once(monkeypatch):
    """``main`` builds its parser on the first call and keeps it."""
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert main(["identities", "--metric", "no_such_preset"]) == 2
        assert main(["nonsense"]) == 2
        assert main(["gauge", "--metric", "no_such_preset"]) == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def _command_options():
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            option = max(action.option_strings, key=len)
            if option != "--help" and option not in OUTPUT_FLAGS:
                yield command, option


@pytest.mark.parametrize("command, option", list(_command_options()))
def test_every_physics_flag_reaches_the_results(capsys, tmp_path, command,
                                                option):
    """An option that moves no check's error or tolerance is a silent
    no-op; one that this table does not know fails here."""
    assert option in FLAG_CHANGES, f"{command} {option} is not in the table"
    entry = FLAG_CHANGES[option]
    base, change = entry[command] if isinstance(entry, dict) else entry
    cfg = tmp_path / "ds.cfg"
    cfg.write_text(DS_CFG)

    def outcome(extra):
        args = [command, "--points", "1", "--seed", "3", "--format", "json"]
        code, out, _ = run(
            args + base + [a.replace("{cfg}", str(cfg)) for a in extra],
            capsys)
        assert code in (0, 1), extra
        return {c["id"]: (c["max_rel_error"], c["tolerance"])
                for c in json.loads(out)["checks"]}

    assert outcome(change) != outcome([])


@pytest.mark.parametrize("seed", [42, 7])
def test_anti_de_sitter_document_passes(capsys, seed):
    # the document of the anti_de_sitter_static preset gets the same exact
    # curvature; with finite-difference metric derivatives 1.11a read
    # 2.45e-6 (seed 42) and 1.47e-6 (seed 7) against 1e-6 here
    document = (Path(__file__).resolve().parent.parent / "perfbench"
                / "documents" / "anti_de_sitter.metric")
    code, out, _ = run(["identities", "--metric-file", str(document),
                        "--seed", str(seed), "--format", "json"], capsys)
    report = json.loads(out)
    assert code == 0, [c for c in report["checks"] if not c["passed"]]
    errors = {c["id"]: c["max_rel_error"] for c in report["checks"]}
    assert errors["eq_1_11a_constraint_reduction"] < 1e-10
