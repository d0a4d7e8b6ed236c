"""Command-line interface: identity suites, the gauge criterion, and
constraint scans, with text or JSON reports.

Exit codes: 0 all expectations met, 1 check failure, 2 usage or
configuration error, 3 infrastructure error.  All randomness flows from
--seed; reports embed it (plus the metric and stencil policy) for replay.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import identity_suite as suite_mod
from .errors import (ConfigError, CurvedRSError, InvalidParameter, ParseError,
                     SignatureError, SingularMetric)
from .spacetimes import load_preset, parse_metric_config, spec_from_config

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INFRASTRUCTURE = 3

TITLES = {
    "identities": "identity suite",
    "gauge": "gauge criterion",
    "constraints": "constraint checks",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curved-rs",
        description="verification suites for the curved-space spin-3/2 "
                    "wave operator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("identities", "run the registered identity checks"),
        ("gauge", "evaluate the gradient-solution gauge criterion"),
        ("constraints", "evaluate constraint residuals and the mass scan"),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group()
        src.add_argument("--metric", help="preset name, e.g. schwarzschild")
        src.add_argument("--metric-file", help="metric configuration file")
        p.add_argument("--param", action="append", default=[],
                       metavar="NAME=VALUE", help="preset parameter")
        p.add_argument("--points", type=int, default=20)
        p.add_argument("--seed", type=int, default=42)
        if name != "gauge":  # the gauge criterion is massless
            p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--tolerance", action="append", default=[],
                       metavar="CHECK=TOL", help="per-check tolerance override")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report to this path")
    return parser


def _parse_kv(pairs, what) -> dict:
    out = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise ConfigError(f"{what} '{pair}' is not NAME=VALUE")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{what} '{key}' is given more than once")
        try:
            out[key] = float(value)
        except ValueError:
            raise ConfigError(f"{what} '{pair}' has a non-numeric value")
    return out


def _resolve_metric(args):
    if args.metric_file:
        if args.param:
            raise ConfigError(
                "--param does not apply to --metric-file; a document's "
                "parameters live in its [params] section"
            )
        try:
            with open(args.metric_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read '{args.metric_file}': {exc}")
        cfg = parse_metric_config(text, name=args.metric_file)
        return spec_from_config(cfg)
    params = _parse_kv(args.param, "parameter")
    return load_preset(args.metric or "minkowski_cartesian", **params)


def _emit(report_dict, args) -> None:
    if args.format == "json":
        payload = json.dumps(report_dict, indent=2, sort_keys=True)
    else:
        payload = _render(report_dict)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write '{args.output}': {exc}")
    else:
        print(payload)


def _render_gauge(report: dict) -> list:
    lines = [f"{'point':<7} {'|G|':>11} {'max rel err':>12}"]
    for row in report["points_table"]:
        lines.append(f"{row['index']:<7} {row['einstein_norm']:>11.3e} "
                     f"{row['max_rel_error']:>12.3e}")
    return lines + [f"verdict: {report['verdict']}"]


def _render_mass_scan(scan: dict) -> list:
    lines = [f"{'mass':>8} {'bracket':>14}"]
    lines += [f"{m:>8.3f} {b:>14.6e}" for m, b in scan["table"]]
    if scan["zero_crossing"] is None:
        lines.append(f"no real zero crossing (scalar curvature "
                     f"{scan['scalar']:.6f} <= 0)")
    else:
        lines.append(f"bracket zero crossing at m = "
                     f"{scan['zero_crossing']:.8f} (scalar curvature "
                     f"{scan['scalar']:.6f})")
    return lines


def _render(report: dict) -> str:
    env = report["environment"]
    lines = [
        f"{TITLES[report['command']]} on {env['metric']} "
        f"(class {env['curvature_class']}, seed {env['seed']}, "
        f"{env['points']} points, mass {env['mass']})",
        f"{'check':<34} {'tag':<6} {'expect':<8} {'max rel err':>12} "
        f"{'tolerance':>10} {'status':>8}",
        "-" * 84,
    ]
    for c in report["checks"]:
        status = "pass" if c["passed"] else "FAIL"
        lines.append(
            f"{c['id']:<34} {c['tag']:<6} {c['expect']:<8} "
            f"{c['max_rel_error']:>12.3e} {c['tolerance']:>10.1e} {status:>8}"
        )
    lines.append("-" * 84)
    if "points_table" in report:
        lines += _render_gauge(report)
    if report.get("mass_scan"):
        lines += _render_mass_scan(report["mass_scan"])
    lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'} "
                 f"({report['runtime_s']:.2f} s)")
    return "\n".join(lines)


def run_command(args) -> int:
    """Run one command and emit its report: every command is a view over
    ``identity_suite.run_suite``."""
    spec = _resolve_metric(args)
    common = dict(
        n_points=args.points,
        seed=args.seed,
        tolerance_overrides=_parse_kv(args.tolerance, "tolerance override"),
    )
    if args.command == "gauge":
        report = suite_mod.run_gauge(spec, **common)
    else:
        run = (suite_mod.run_suite if args.command == "identities"
               else suite_mod.run_constraints)
        report = run(spec, mass=args.mass, **common)
    payload = report.to_dict()
    payload["command"] = args.command
    _emit(payload, args)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built on the first."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return run_command(args)
    except (ConfigError, ParseError, InvalidParameter, SignatureError,
            SingularMetric) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CurvedRSError as exc:
        print(f"infrastructure error: {exc}", file=sys.stderr)
        return EXIT_INFRASTRUCTURE
    except Exception as exc:  # noqa: BLE001 - report and map to exit code
        print(f"infrastructure error: {exc!r}", file=sys.stderr)
        return EXIT_INFRASTRUCTURE


if __name__ == "__main__":
    sys.exit(main())
