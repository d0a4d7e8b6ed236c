"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and never loosened at runtime.
"""

import json
import re
import time

import numpy as np
import pytest

from curved_rs import identity_suite as suite
from curved_rs import rs_operator as rso
from curved_rs import spacetimes
from curved_rs.cli import main as cli_main
from curved_rs.errors import InvalidTransform
from curved_rs.fields import (
    BISPINOR,
    fixture_family,
    flat_rs_plane_wave,
    polynomial_field,
    trig_field,
)
from curved_rs.gauge import (
    C0,
    gauge_criterion,
    gradient_residual,
)
from curved_rs.geometry import curvature
from curved_rs.spacetimes import parse_metric_config, spec_from_config
from curved_rs.spin_frame import (
    build_frame,
    connection_curvature,
    gamma_set_at,
    spinor_commutator_curvature,
)

from conftest import first_constraint, frame_at
from oracles import fit_prediction_constant

ALL_PRESETS = [
    ("minkowski_cartesian", {}),
    ("minkowski_spherical", {}),
    ("schwarzschild", {"M": 1.0}),
    ("de_sitter_static", {"alpha": 1.0}),
    ("anti_de_sitter_static", {"alpha": 1.0}),
    ("frw_dust", {"a0": 1.0}),
]

SCHW_CFG = """
[coords]
names = t, r, theta, phi
[metric]
g00 = 1 - 2*M/r
g11 = -(1 - 2*M/r)^(-1)
g22 = -r^2
g33 = -r^2 * sin(theta)^2
[params]
M = 1.0
[domain]
r > 2*M + 0.001
theta > 0.001
theta < pi - 0.001
[sampling]
t = -1.0, 1.0
r = 3.0, 8.0
theta = 0.5, 2.6
phi = 0.3, 5.9
"""


def verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {label}: {status} {detail}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def _suite_ctx(spec, n_points, seed=42):
    points = suite.sample_points(spec, n_points, seed)
    met_class = suite.classify_metric(
        build_frame(spec, [x.coords for x in points[:4]]))
    return suite.SuiteContext(
        spec=spec,
        points=points,
        seed=seed,
        mass=rso.MassParam(1.0),
        met_class=met_class,
        vb_fixtures=fixture_family(seed + 1, 5, "vector_bispinor",
                                   spec.sample_box),
        sp_fixtures=fixture_family(seed + 2, 3, BISPINOR, spec.sample_box),
    )


ALGEBRAIC_RUNNERS = [
    suite._chk_hermiticity,        # (1.3)
    suite._chk_clifford,           # (1.5) line 1
    suite._chk_sigma_tetrad,       # (1.5) line 2
    suite._chk_triple_gamma,       # (1.5) line 3
    suite._chk_sigma_commutator,   # the commutation relation
    suite._chk_s_inverse,          # (2.4)
    suite._chk_beta_dual_forms,    # (2.6c)
]


def test_criterion_1_algebraic_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for name, params in ALL_PRESETS:
        ctx = _suite_ctx(spacetimes.load_preset(name, **params), 20)
        for runner in ALGEBRAIC_RUNNERS:
            _, errs = runner(ctx)
            worst = np.maximum(worst, np.max(errs))
    elapsed = time.perf_counter() - t0
    verdict(1, "algebraic identity suite",
            worst < 1e-10 and elapsed < 5.0,
            f"max rel err {worst:.2e}, runtime {elapsed:.2f} s")


def test_criterion_2_transformation_theorem():
    worst = 0.0
    for name in ("minkowski_cartesian", "schwarzschild", "de_sitter_static"):
        spec = spacetimes.load_preset(name)
        for x in suite.sample_points(spec, 6, 42):
            gs = gamma_set_at(spec, x)
            alphas, beta = rso.build_alpha_beta(gs)
            tr = rso.transform_CS(alphas, beta, gs, -1.0 / 3.0, -1.0, 2.0)
            alpha_t, beta_t = rso.tilde_closed_form(gs)
            worst = max(worst, np.max(np.abs(tr.beta_tilde.blocks
                                             - beta_t.blocks)))
            for nu in range(4):
                worst = max(worst, np.max(np.abs(
                    tr.alpha_tilde[nu].blocks - alpha_t[nu].blocks)))
    spec = spacetimes.load_preset("minkowski_cartesian")
    gs = gamma_set_at(spec, spec.point(0, 0, 0, 0))
    alphas, beta = rso.build_alpha_beta(gs)
    rejected = False
    try:
        rso.transform_CS(alphas, beta, gs, 0.5, 0.5, 1.0)
    except InvalidTransform:
        rejected = True
    verdict(2, "transformation theorem",
            worst < 1e-12 and rejected,
            f"max block err {worst:.2e}, invalid (a,b,c) rejected: {rejected}")


def test_criterion_3_curvature_commutator_law():
    worst_preset = 0.0
    for name in ("schwarzschild", "de_sitter_static"):
        spec = spacetimes.load_preset(name)
        for x in suite.sample_points(spec, 20, 42):
            frame = frame_at(spec, x)
            alg = spinor_commutator_curvature(frame)
            fd = connection_curvature(frame)
            scale = max(np.max(np.abs(alg)), 1e-3)
            worst_preset = max(worst_preset,
                               float(np.max(np.abs(alg - fd)) / scale))
    # a document read from text gets the same exact curvature and band
    spec_doc = spec_from_config(parse_metric_config(SCHW_CFG))
    worst_doc = 0.0
    for x in suite.sample_points(spec_doc, 6, 42):
        frame = frame_at(spec_doc, x)
        alg = spinor_commutator_curvature(frame)
        fd = connection_curvature(frame)
        scale = max(np.max(np.abs(alg)), 1e-3)
        worst_doc = max(worst_doc, float(np.max(np.abs(alg - fd)) / scale))
    verdict(3, "curvature-commutator law",
            worst_preset < 1e-8 and worst_doc < 1e-8,
            f"presets {worst_preset:.2e}, document {worst_doc:.2e}")


def test_criterion_4_constraint_operator_identities():
    # coefficient fixed by the gamma-algebra oracle before the test
    mink = spacetimes.load_preset("minkowski_cartesian")
    fld = trig_field(9, box=mink.sample_box)
    num = den = 0.0j
    for x in suite.sample_points(mink, 5, 42):
        frame = frame_at(mink, x)
        res = rso.rs_residual(frame, *rso.covariant_rows(fld, frame),
                              rso.MassParam(1.0))[0]
        lhs = np.einsum("sij,sj->i", frame.gammas.gamma_up[0], res)
        chi = first_constraint(fld, frame, rso.MassParam(1.0))[0]
        num += np.vdot(chi, lhs)
        den += np.vdot(chi, chi)
    coefficient_ok = abs(num / den - 2.0 / 3.0) < 1e-10

    worst_first = worst_second = 0.0
    mass = rso.MassParam(1.0)
    for name in ("minkowski_cartesian", "schwarzschild", "de_sitter_static",
                 "frw_dust"):
        spec = spacetimes.load_preset(name)
        fixtures = fixture_family(43, 5, "vector_bispinor", spec.sample_box)
        points = suite.sample_points(spec, 10, 42)
        for f in fixtures:
            for x in points:
                frame = frame_at(spec, x)
                lhs, rhs = rso.contraction_identity(
                    frame, *rso.covariant_rows(f, frame), mass)
                scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)),
                            np.max(np.abs(f(x))))
                worst_first = max(worst_first,
                                  float(np.max(np.abs(lhs - rhs)) / scale))
                jet = rso.covariant_jet(f, frame)
                lhs2 = rso.derivative_chain(frame, jet.d, jet.dd, jet.psi,
                                            jet.dpsi, mass)
                psi = f.at(frame)
                rhs2 = rso.chain_rhs(frame, psi, mass,
                                     rso.curvature_commutator(frame, psi))
                scale2 = max(np.max(np.abs(lhs2)), np.max(np.abs(rhs2)),
                             np.max(np.abs(f(x))))
                worst_second = max(worst_second,
                                   float(np.max(np.abs(lhs2 - rhs2)) / scale2))
    verdict(4, "constraint operator identities",
            coefficient_ok and worst_first < 1e-7 and worst_second < 1e-4,
            f"coefficient 2/3 confirmed: {coefficient_ok}, "
            f"first-order {worst_first:.2e}, chains {worst_second:.2e}")


def test_criterion_5_flat_reduction():
    mink = spacetimes.load_preset("minkowski_cartesian")
    points = suite.sample_points(mink, 8, 42)
    frame = build_frame(mink, [x.coords for x in points])
    worst_res = worst_match = 0.0
    for boost in (0.0, 0.4, 0.9):
        wave = flat_rs_plane_wave(1.0, boost)
        rep = rso.flat_reduction_check(
            frame, *rso.covariant_rows(wave, frame), rso.MassParam(1.0))
        assert rep["constraints_satisfied"].all()
        worst_res = np.maximum(worst_res, np.max(rep["max_rs_residual"]))
        worst_match = np.maximum(
            worst_match, np.max(rep["max_match_error"] / rep["scale"]))
    verdict(5, "flat reduction",
            worst_res < 1e-8 and worst_match < 1e-10,
            f"residual {worst_res:.2e}, operator match {worst_match:.2e}")


def test_criterion_6_einstein_space_factor():
    mass = rso.MassParam(1.0)
    worst = 0.0
    # bracket equality on both constant-curvature presets
    for name in ("de_sitter_static", "anti_de_sitter_static"):
        spec = spacetimes.load_preset(name, alpha=1.0)
        fld = polynomial_field(5, box=spec.sample_box)
        for x in suite.sample_points(spec, 6, 42):
            frame = frame_at(spec, x)
            phi = np.einsum("rij,rj->i", frame.gammas.gamma_up[0], fld(x))
            if np.max(np.abs(phi)) < 1e-10:
                continue  # vacuous point
            c2 = rso.constraint_two(frame, fld.at(frame), mass)[0]
            factor = rso.einstein_space_factor(frame, mass)[0]
            scale = max(np.max(np.abs(c2)), np.max(np.abs(phi)))
            worst = max(worst,
                        float(np.max(np.abs(c2 - factor * phi)) / scale))
    # the bracket 1/2 (R/12 - m^2) has its real zero crossing on the
    # positive-scalar member of the constant-curvature family, which in the
    # package's curvature convention is the anti-de Sitter preset (R = +12
    # at alpha = 1); located by bisection on the measured factor
    ads = spacetimes.load_preset("anti_de_sitter_static", alpha=1.0)
    x0 = suite.sample_points(ads, 1, 42)[0]
    scalar = curvature(ads, x0).scalar
    frame0 = frame_at(ads, x0)
    lo, hi = 0.0, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if rso.einstein_space_factor(frame0, rso.MassParam(mid))[0].real > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    expected = float(np.sqrt(scalar / 12.0))
    root_ok = abs(root - 1.0) < 1e-6 and abs(root - expected) < 1e-6
    verdict(6, "Einstein-space factor",
            worst < 1e-6 and root_ok,
            f"bracket equality {worst:.2e}, zero crossing at m = {root:.8f} "
            f"(= sqrt(R/12) with R = {scalar:+.6f})")


def test_criterion_7_gauge_dichotomy():
    worst_zero = 0.0
    for name in ("minkowski_cartesian", "minkowski_spherical", "schwarzschild"):
        spec = spacetimes.load_preset(name)
        psis = fixture_family(44, 2, BISPINOR, spec.sample_box)
        for x in suite.sample_points(spec, 8, 42):
            frame = frame_at(spec, x)
            for psi in psis:
                direct, predicted = gauge_criterion(psi, frame)
                scale = gradient_residual(psi, frame)[1][0]
                worst_zero = max(
                    worst_zero, float(np.max(np.abs(direct)) / scale))
    frw = spacetimes.load_preset("frw_dust", a0=1.0)
    psis = fixture_family(45, 2, BISPINOR, frw.sample_box)
    worst_match = 0.0
    nonzero_everywhere = True
    for x in suite.sample_points(frw, 8, 42):
        for psi in psis:
            direct, predicted = gauge_criterion(psi, frame_at(frw, x))
            denom = float(np.max(np.abs(predicted)))
            if denom <= 1e-10:
                nonzero_everywhere = False
                continue
            worst_match = max(
                worst_match, float(np.max(np.abs(direct - predicted)) / denom))
    verdict(7, "gauge dichotomy",
            worst_zero < 1e-5 and nonzero_everywhere and worst_match < 1e-4,
            f"Ricci-flat residual {worst_zero:.2e} (rel to field scale), "
            f"dust match {worst_match:.2e}")


def test_criterion_8_determinism(capsys, tmp_path):
    args = ["identities", "--metric", "schwarzschild", "--param", "M=1",
            "--points", "4", "--seed", "42", "--format", "json"]
    assert cli_main(args + ["--output", str(tmp_path / "a.json")]) == 0
    assert cli_main(args + ["--output", str(tmp_path / "b.json")]) == 0
    strip = lambda t: re.sub(r'"runtime_s": [0-9.e+-]+', "", t)
    a = (tmp_path / "a.json").read_text()
    b = (tmp_path / "b.json").read_text()
    ok = strip(a) == strip(b) and json.loads(a)["passed"]
    verdict(8, "determinism", ok,
            "byte-identical reports apart from timing fields")


def test_criterion_9_parser_and_config_path():
    cfg = parse_metric_config(SCHW_CFG)
    round_trip = parse_metric_config(cfg.serialize())
    rt_ok = (round_trip.components == cfg.components
             and round_trip.domain == cfg.domain
             and round_trip.params == cfg.params
             and round_trip.sampling == cfg.sampling)
    spec_cfg = spec_from_config(cfg)
    preset = spacetimes.load_preset("schwarzschild", M=1.0)
    worst = 0.0
    for x in suite.sample_points(preset, 6, 42):
        xc = spec_cfg.point(*x.coords)
        b_pre = curvature(preset, x)
        b_cfg = curvature(spec_cfg, xc)
        scale = max(float(np.max(np.abs(b_pre.riemann_lower))), 1e-6)
        worst = max(worst, float(np.max(np.abs(
            b_cfg.riemann_lower - b_pre.riemann_lower)) / scale))
    verdict(9, "parser round-trip and config cross-validation",
            rt_ok and worst < 1e-10,
            f"round-trip ASTs identical: {rt_ok}, curvature mismatch "
            f"{worst:.2e}")


def test_gauge_constant_calibration_regression():
    # the frozen prediction constant is reproduced by fresh fits on three
    # independent non-vacuum geometries
    for name in ("frw_dust", "de_sitter_static", "anti_de_sitter_static"):
        spec = spacetimes.load_preset(name)
        psi = polynomial_field(60, kind=BISPINOR, box=spec.sample_box)
        x = suite.sample_points(spec, 1, 13)[0]
        assert fit_prediction_constant(psi, frame_at(spec, x)) == pytest.approx(
            C0, abs=1e-6)
