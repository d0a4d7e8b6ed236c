"""Command-line interface: identity suites, the gauge criterion, and
constraint scans, with text or JSON reports.

Exit codes: 0 all expectations met, 1 check failure, 2 usage or
configuration error, 3 infrastructure error.  All randomness flows from
--seed; reports embed it (plus the metric and stencil policy) for replay.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import gauge as gauge_mod
from . import identity_suite as suite_mod
from . import rs_operator as rso
from .errors import ConfigError, CurvedRSError, InvalidParameter, ParseError
from .fields import BISPINOR, fixture_family
from .geometry import curvature
from .numerics import STENCIL_POLICY
from .spacetimes import PRESET_NAMES, load_preset, parse_metric_config, spec_from_config

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INFRASTRUCTURE = 3

SCHEMA_VERSION = suite_mod.SCHEMA_VERSION


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
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--charge", type=float, default=0.0)
        p.add_argument("--tolerance", action="append", default=[],
                       metavar="CHECK=TOL", help="per-check tolerance override")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write the report to this path")
    return parser


def _parse_kv(pairs, what, cast=float) -> dict:
    out = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise ConfigError(f"{what} '{pair}' is not NAME=VALUE")
        try:
            out[key.strip()] = cast(value)
        except ValueError:
            raise ConfigError(f"{what} '{pair}' has a non-numeric value")
    return out


def _resolve_metric(args):
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    if args.mass < 0:
        raise ConfigError("--mass must be >= 0")
    if args.metric_file:
        try:
            with open(args.metric_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read '{args.metric_file}': {exc}")
        cfg = parse_metric_config(text, name=args.metric_file)
        return spec_from_config(cfg)
    name = args.metric or "minkowski_cartesian"
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset '{name}'; available: {', '.join(PRESET_NAMES)}"
        )
    params = _parse_kv(args.param, "parameter")
    return load_preset(name, **params)


def _emit(report_dict, text_renderer, args) -> None:
    if args.format == "json":
        payload = json.dumps(report_dict, indent=2, sort_keys=True)
    else:
        payload = text_renderer(report_dict)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _render_identities(report: dict) -> str:
    env = report["environment"]
    lines = [
        f"identity suite on {env['metric']} "
        f"(class {env['curvature_class']}, seed {env['seed']}, "
        f"{env['points']} points)",
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
    lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'} "
                 f"({report['runtime_s']:.2f} s)")
    return "\n".join(lines)


def cmd_identities(args) -> int:
    spec = _resolve_metric(args)
    overrides = _parse_kv(args.tolerance, "tolerance override")
    report = suite_mod.run_suite(
        spec,
        n_points=args.points,
        seed=args.seed,
        mass=args.mass,
        charge=args.charge,
        tolerance_overrides=overrides,
    )
    payload = report.to_dict()
    payload["command"] = "identities"
    _emit(payload, _render_identities, args)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


def _render_gauge(report: dict) -> str:
    env = report["environment"]
    lines = [
        f"gauge criterion on {env['metric']} (seed {env['seed']}, "
        f"{env['points']} points)",
        f"{'point':<7} {'|G|':>11} {'|residual|':>12} {'|predicted|':>12} "
        f"{'match rel':>11}",
        "-" * 58,
    ]
    for row in report["points_table"]:
        match = (f"{row['match_rel_error']:.3e}"
                 if row["match_rel_error"] is not None else "-")
        lines.append(
            f"{row['index']:<7} {row['einstein_norm']:>11.3e} "
            f"{row['residual_norm']:>12.3e} {row['predicted_norm']:>12.3e} "
            f"{match:>11}"
        )
    lines.append("-" * 58)
    lines.append(f"verdict: {report['verdict']}")
    lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'} "
                 f"({report['runtime_s']:.2f} s)")
    return "\n".join(lines)


def cmd_gauge(args) -> int:
    t0 = time.perf_counter()
    spec = _resolve_metric(args)
    points = suite_mod.sample_points(spec, args.points, args.seed)
    met_class = suite_mod.classify_metric(spec, points[:4])
    psis = fixture_family(args.seed + 2, 2, BISPINOR, spec.sample_box)
    table = []
    worst_zero = 0.0
    worst_match = 0.0
    max_einstein = 0.0
    for idx, x in enumerate(points):
        bundle = curvature(spec, x)
        e_norm = float(np.max(np.abs(bundle.einstein)))
        max_einstein = max(max_einstein, e_norm)
        res_norm = pred_norm = 0.0
        match = None
        for psi in psis:
            direct, predicted = gauge_mod.gauge_criterion(psi, spec, x)
            scale = gauge_mod.residual_scale(psi, spec, x)
            res_norm = max(res_norm, float(np.max(np.abs(direct))))
            pred_norm = max(pred_norm, float(np.max(np.abs(predicted))))
            worst_zero = max(worst_zero, float(np.max(np.abs(direct))) / scale)
            if float(np.max(np.abs(predicted))) > 1e-10:
                err = float(
                    np.max(np.abs(direct - predicted))
                    / np.max(np.abs(predicted))
                )
                match = max(match or 0.0, err)
                worst_match = max(worst_match, err)
        table.append({
            "index": idx,
            "einstein_norm": e_norm,
            "residual_norm": res_norm,
            "predicted_norm": pred_norm,
            "match_rel_error": match,
        })
    gauge_symmetric = max_einstein <= 1e-5
    if gauge_symmetric:
        verdict = "gauge-symmetric region"
        passed = worst_zero <= suite_mod.TOL_GAUGE_ZERO
    else:
        verdict = "no gauge symmetry (G != 0)"
        passed = worst_match <= suite_mod.TOL_GAUGE_MATCH and worst_match > 0
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "gauge_criterion",
        "command": "gauge",
        "environment": {
            "metric": spec.name,
            "params": dict(sorted(spec.params.items())),
            "config_hash": (spec.chart_id.split(":", 1)[1]
                            if spec.chart_id.startswith("config:") else None),
            "seed": args.seed,
            "points": args.points,
            "mass": 0.0,
            "charge": 0.0,
            "stencil_policy": STENCIL_POLICY,
            "curvature_class": met_class.describe(),
        },
        "points_table": table,
        "max_einstein_norm": max_einstein,
        "worst_zero_ratio": worst_zero,
        "worst_match_error": worst_match,
        "verdict": verdict,
        "passed": passed,
        "runtime_s": round(time.perf_counter() - t0, 6),
    }
    _emit(report, _render_gauge, args)
    return EXIT_OK if passed else EXIT_CHECK_FAILURE


def _render_constraints(report: dict) -> str:
    env = report["environment"]
    lines = [
        f"constraint checks on {env['metric']} (seed {env['seed']}, "
        f"mass {env['mass']})",
        f"max gamma-contraction identity error: "
        f"{report['contraction_identity_error']:.3e}",
        f"max algebraic-constraint reduction error: "
        f"{report['constraint_reduction_error']:.3e}",
    ]
    scan = report["mass_scan"]
    if scan is not None:
        lines.append("")
        lines.append(f"{'mass':>8} {'bracket':>14}")
        for m, b in scan["table"]:
            lines.append(f"{m:>8.3f} {b:>14.6e}")
        if scan["zero_crossing"] is not None:
            lines.append(
                f"bracket zero crossing at m = {scan['zero_crossing']:.8f} "
                f"(scalar curvature {scan['scalar']:.6f})"
            )
        else:
            lines.append(
                f"no real zero crossing (scalar curvature "
                f"{scan['scalar']:.6f} <= 0)"
            )
    lines.append(f"overall: {'pass' if report['passed'] else 'FAIL'} "
                 f"({report['runtime_s']:.2f} s)")
    return "\n".join(lines)


def _bisect(fn, lo, hi, tol=1e-12, iters=200):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if abs(hi - lo) < tol:
            return mid
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def cmd_constraints(args) -> int:
    t0 = time.perf_counter()
    spec = _resolve_metric(args)
    points = suite_mod.sample_points(spec, args.points, args.seed)
    mass = rso.MassParam(args.mass)
    fixtures = fixture_family(args.seed + 1, 3, "vector_bispinor",
                              spec.sample_box)
    worst_contraction = 0.0
    worst_reduction = 0.0
    for x in points:
        for fld in fixtures:
            lhs, rhs = rso.contraction_identity(fld, spec, x, mass,
                                                charge=args.charge)
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)),
                        np.max(np.abs(fld(x))), 1e-30)
            worst_contraction = max(
                worst_contraction, float(np.max(np.abs(lhs - rhs)) / scale)
            )
            chain = rso.chain_rhs_algebraic(fld, spec, x, mass,
                                            charge=args.charge)
            c2 = rso.constraint_two_residual(fld, spec, x, mass,
                                             charge=args.charge)
            scale = max(np.max(np.abs(chain)), np.max(np.abs(c2)),
                        np.max(np.abs(fld(x))), 1e-30)
            worst_reduction = max(
                worst_reduction, float(np.max(np.abs(chain - c2)) / scale)
            )

    # the Einstein-space bracket 1/2 (R/12 - m^2), scanned over mass
    met_class = suite_mod.classify_metric(spec, points[:4])
    scan = None
    if met_class.einstein_space and abs(met_class.scalar) > 1e-6:
        scalar = float(np.mean([curvature(spec, x).scalar for x in points[:4]]))

        def bracket(m):
            return 0.5 * (scalar / 12.0 - m * m)

        grid = [round(0.25 * i, 4) for i in range(9)]
        table = [(m, bracket(m)) for m in grid]
        crossing = None
        if scalar > 0:
            hi = max(2.0, 2.0 * np.sqrt(scalar / 12.0))
            crossing = float(_bisect(bracket, 0.0, hi))
        scan = {
            "scalar": scalar,
            "table": table,
            "zero_crossing": crossing,
        }

    passed = (worst_contraction <= suite_mod.TOL_CONTRACTION
              and worst_reduction <= suite_mod.TOL_FIRST_ORDER)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "constraints",
        "command": "constraints",
        "environment": {
            "metric": spec.name,
            "params": dict(sorted(spec.params.items())),
            "config_hash": (spec.chart_id.split(":", 1)[1]
                            if spec.chart_id.startswith("config:") else None),
            "seed": args.seed,
            "points": args.points,
            "mass": args.mass,
            "charge": args.charge,
            "stencil_policy": STENCIL_POLICY,
            "curvature_class": met_class.describe(),
        },
        "contraction_identity_error": worst_contraction,
        "constraint_reduction_error": worst_reduction,
        "mass_scan": scan,
        "passed": passed,
        "runtime_s": round(time.perf_counter() - t0, 6),
    }
    _emit(report, _render_constraints, args)
    return EXIT_OK if passed else EXIT_CHECK_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "identities":
            return cmd_identities(args)
        if args.command == "gauge":
            return cmd_gauge(args)
        if args.command == "constraints":
            return cmd_constraints(args)
        raise ConfigError(f"unknown command '{args.command}'")
    except (ConfigError, ParseError, InvalidParameter) as exc:
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
