"""Row batches of the frame -> blocks -> D_nu stack: a frame equals the
per-point geometry, a batch equals its row loop, the gates still see the
shared frames, and the work counts of the nested chains stay pinned."""

import dataclasses
import sys
import types

import numpy as np
import pytest

from curved_rs import fields, gauge, geometry, identity_suite, spin_frame
from curved_rs import rs_operator as rso
from curved_rs.errors import OutOfDomain
from curved_rs.fields import (
    BISPINOR,
    VECTOR_BISPINOR,
    FieldSampler,
    gamma_traceless_field,
    polynomial_field,
    trig_field,
)
from curved_rs.geometry import Point, christoffel
from curved_rs.identity_suite import build_context, run_suite
from curved_rs.rs_operator import MassParam
from curved_rs.spacetimes import PRESET_NAMES, load_preset
from curved_rs.spin_frame import (
    Frame,
    build_frame,
    gamma_set_at,
    spin_connection,
)

from conftest import points_of

MASS = MassParam(1.0)

def _rows(spec, n=3):
    return np.stack([p.coords for p in points_of(spec, n, seed=77)])


def _rows_sampler(fn, kind, name):
    """A sampler whose rows all go through one call of ``fn``."""
    return FieldSampler(fn, kind, name=name, batch=fn)


def _wrapped_samplers(spec):
    box = spec.sample_box
    vb = trig_field(31, box=box)
    sp = polynomial_field(32, BISPINOR, box=box)
    return {
        "residual": _rows_sampler(
            lambda x: rso.rs_residual(vb, spec, x, MASS), VECTOR_BISPINOR,
            "residual"),
        "first_constraint": _rows_sampler(
            lambda x: rso.divergence_combo(vb, spec, x, MASS), BISPINOR,
            "first-constraint"),
        "gradient": gauge.gradient_sampler(sp, spec, nested=True),
        "gamma_traceless": gamma_traceless_field(33, spec, box=box),
    }


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batch_equals_row_loop(name):
    spec = load_preset(name)
    coords = _rows(spec)
    for label, sampler in _wrapped_samplers(spec).items():
        assert sampler.batch is not None, label
        batch = sampler.at(coords, spec.chart_id)
        loop = np.stack([sampler(Point(c, spec.chart_id)) for c in coords])
        assert batch.shape == loop.shape, label
        assert np.max(np.abs(batch - loop)) <= 1e-13 * np.max(np.abs(loop)), label


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_single_point_is_row_of_the_batch(name):
    """Each row of a frame (Dirac matrices, metric, tetrad, Christoffels,
    connection, operator blocks) equals the per-point path exactly."""
    spec = load_preset(name)
    frame = build_frame(spec, _rows(spec))
    alpha, beta = rso.frame_blocks(frame)
    for i, c in enumerate(frame.coords):
        x = Point(c, spec.chart_id)
        assert np.array_equal(frame.christoffel[i], christoffel(spec, x))
        assert np.array_equal(frame.connection[i],
                              spin_connection(spec, x))
        row, gs = frame.gamma_set(i), gamma_set_at(spec, x)
        for key in ("gamma_flat", "gamma5", "gamma_up", "gamma_down",
                    "sigma_curved", "eps_upper", "eps_lower"):
            assert np.array_equal(getattr(row, key), getattr(gs, key)), key
        for key in ("g_lower", "g_upper", "det_g"):
            assert np.array_equal(getattr(row.metric, key),
                                  getattr(gs.metric, key)), key
        for key in ("e_lower", "e_upper"):
            assert np.array_equal(getattr(row.tetrad, key),
                                  getattr(gs.tetrad, key)), key
        alphas, beta_one = rso.build_alpha_beta(gs)
        assert np.array_equal(beta_one.blocks, beta[i])
        for nu in range(4):
            assert np.array_equal(alphas[nu].blocks, alpha[i, nu])


def _frame_arrays(frame):
    gs, row = frame.gammas, frame.gamma_set(0)
    out = {"coords": frame.coords, "christoffel": frame.christoffel,
           "connection": frame.connection}
    for prefix, g in (("gammas", gs), ("row", row)):
        for key in ("gamma_flat", "gamma5", "gamma_up", "gamma_down",
                    "sigma_curved", "eps_upper", "eps_lower"):
            out[f"{prefix}.{key}"] = getattr(g, key)
        for key in ("g_lower", "g_upper", "det_g"):
            out[f"{prefix}.metric.{key}"] = getattr(g.metric, key)
        for key in ("e_lower", "e_upper"):
            out[f"{prefix}.tetrad.{key}"] = getattr(g.tetrad, key)
    alpha, beta = rso.frame_blocks(frame)
    out["alpha"], out["beta"] = alpha, beta
    return out


def test_frame_arrays_are_read_only(schwarzschild):
    """A frame is shared by every check on its rows, so no caller may
    change it: writes raise and the values stay."""
    frame = build_frame(schwarzschild, _rows(schwarzschild))
    for label, array in _frame_arrays(frame).items():
        if np.ndim(array) == 0:  # a row's det_g is a plain float
            continue
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 99.0
        assert np.array_equal(array, before), label
    for obj, attr in ((frame, "coords"), (frame.gammas, "gamma_up"),
                      (frame.metric, "g_lower"),
                      (frame.gammas.tetrad, "e_lower")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, attr, None)


def test_one_row_outside_the_domain_raises(schwarzschild):
    coords = _rows(schwarzschild)
    coords[1, 1] = 1.5  # inside the horizon r = 2M
    samplers = _wrapped_samplers(schwarzschild)
    for label, sampler in samplers.items():
        with pytest.raises(OutOfDomain):
            sampler.at(coords, schwarzschild.chart_id)
    with pytest.raises(OutOfDomain):
        rso.covariant_derivative(trig_field(3), schwarzschild, coords)
    frame = build_frame(schwarzschild, coords)
    for name in ("metric", "gammas", "christoffel", "connection"):
        with pytest.raises(OutOfDomain):
            getattr(frame, name)


@pytest.mark.parametrize("name", ("schwarzschild", "frw_dust"))
def test_batched_first_order_checks_equal_the_per_point_path(name):
    """1.2a and 1.6 run each fixture over the whole context frame; their
    values and errors equal the point-by-point evaluation."""
    spec = load_preset(name)
    ctx = build_context(spec, 4, seed=13, mass=1.0)
    for fld in ctx.vb_fixtures:
        res = rso.rs_residual(fld, spec, ctx.frame, ctx.mass)
        lhs, rhs = rso.contraction_identity(fld, spec, ctx.frame, ctx.mass)
        for i, x in enumerate(ctx.points):
            one = rso.rs_residual(fld, spec, x, ctx.mass)
            assert np.max(np.abs(res[i] - one)) <= 1e-13 * np.max(np.abs(one))
            l1, r1 = rso.contraction_identity(fld, spec, x, ctx.mass)
            for a, b in ((lhs[i], l1), (rhs[i], r1)):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    for runner in (identity_suite._chk_operator_form,
                   identity_suite._chk_gamma_contraction):
        _, batched = runner(ctx)
        per_point = max(runner(dataclasses.replace(ctx, points=[x]))[1]
                        for x in ctx.points)
        assert abs(batched - per_point) <= 1e-13, runner.__name__


def test_rows_must_be_n_by_4(schwarzschild):
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        rso.covariant_derivative(trig_field(3), schwarzschild, np.zeros(4))


# ---------------------------------------------------------------------------
# negative controls: break the shared batched path, the gates must fail
# ---------------------------------------------------------------------------


def _verdicts(spec, checks):
    rep = run_suite(spec, n_points=2, seed=5, only=checks)
    verdicts = {c.id: c.passed for c in rep.checks}
    assert set(verdicts) == set(checks)
    return verdicts


def test_perturbed_block_coefficient_fails_the_operator_gates(
        schwarzschild, monkeypatch):
    checks = ("eq_1_2a_operator_form", "eq_1_6_gamma_contraction",
              "eq_1_7_derivative_chain")
    assert all(_verdicts(schwarzschild, checks).values())
    monkeypatch.setattr(rso, "THIRD", rso.THIRD * (1.0 + 1e-3))
    assert not any(_verdicts(schwarzschild, checks).values())


def test_connection_dropped_on_batched_rows_fails_the_nested_gates(
        schwarzschild, monkeypatch):
    """The inner derivatives of 1.7 and 2.7b run on the rows of the outer
    stencil frame; without the connection there, both gates fail."""
    checks = ("eq_1_7_derivative_chain", "eq_2_7b_massless_gradient")
    assert all(_verdicts(schwarzschild, checks).values())
    original = rso._covariant_rows

    def without_connection_on_rows(field, frame, base_step, richardson,
                                   include_spin=True, stencil_budget=None):
        return original(field, frame, base_step, richardson,
                        include_spin and len(frame.coords) == 1,
                        stencil_budget)

    monkeypatch.setattr(rso, "_covariant_rows", without_connection_on_rows)
    assert not any(_verdicts(schwarzschild, checks).values())


def test_connection_dropped_everywhere(schwarzschild, frw_dust, monkeypatch):
    """With no spin connection at any level 1.7 fails on Schwarzschild and
    2.8c on dust.  2.7b cannot see it: without a connection the massless
    residual of a gradient field, eps^{r nu s mu} gamma_mu D_nu d_s psi,
    vanishes identically (eps antisymmetrizes d_nu d_s and the symmetric
    Christoffels), so the gauge obstruction only shows where 2.8c runs."""
    monkeypatch.setattr(
        spin_frame, "spin_connection",
        lambda spec, x: np.zeros(np.shape(x.coords)[:-1] + (4, 4, 4)))
    assert not any(_verdicts(schwarzschild,
                             ("eq_1_7_derivative_chain",)).values())
    assert not any(_verdicts(frw_dust, ("eq_2_8c_gauge_criterion",)).values())


def _scaled(fn, factor=1.0 + 1e-3):
    return lambda spec, x: fn(spec, x) * factor


def _patch_everywhere(monkeypatch, module, name, replacement):
    """Replace ``module.name`` in every package module binding it."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith("curved_rs")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, replacement)


# The mutations below act where the geometry is computed.


def test_flipped_eps_sign_fails_the_volume_tensor_gates(schwarzschild,
                                                         monkeypatch):
    checks = ("eq_1_5_triple_gamma", "eq_2_5_transform_expansion",
              "eq_2_6_tilde_closed_form", "eq_2_6c_beta_dual_forms")
    assert all(_verdicts(schwarzschild, checks).values())
    monkeypatch.setattr(geometry, "EPS_SIGN", -geometry.EPS_SIGN)
    assert not any(_verdicts(load_preset("schwarzschild"), checks).values())


def test_scaled_connection_fails_the_connection_gates(schwarzschild, frw_dust,
                                                      monkeypatch):
    checks = ("eq_1_4_covariant_constancy", "eq_1_8e_commutator_curvature",
              "eq_1_9_commutator_decomposition", "eq_1_7_derivative_chain",
              "eq_2_7b_massless_gradient")
    assert all(_verdicts(schwarzschild, checks).values())
    assert all(_verdicts(frw_dust, ("eq_2_8c_gauge_criterion",)).values())
    _patch_everywhere(monkeypatch, spin_frame, "spin_connection",
                      _scaled(spin_frame.spin_connection))
    assert not any(_verdicts(load_preset("schwarzschild"), checks).values())
    assert not any(_verdicts(load_preset("frw_dust"),
                             ("eq_2_8c_gauge_criterion",)).values())


def test_scaled_christoffels_fail_the_christoffel_gates(schwarzschild,
                                                        frw_dust, monkeypatch):
    """Scaled where they are computed, the Christoffels of every layer
    (frames, connections, curvature) move together.  1.9 cannot see that:
    its curvature side is built from the same Christoffels, and the
    commutator decomposition holds for any connection."""
    checks = ("eq_1_4_covariant_constancy", "eq_1_7_derivative_chain",
              "metric_compatibility")
    assert all(_verdicts(schwarzschild, checks).values())
    assert all(_verdicts(frw_dust, ("eq_1_10c_curvature_bridge",)).values())
    _patch_everywhere(monkeypatch, geometry, "christoffel",
                      _scaled(geometry.christoffel))
    assert not any(_verdicts(load_preset("schwarzschild"), checks).values())
    assert not any(_verdicts(load_preset("frw_dust"),
                             ("eq_1_10c_curvature_bridge",)).values())


def test_scaled_frame_christoffels_fail_the_nested_gates(schwarzschild,
                                                         frw_dust, monkeypatch):
    """Scaled only where frames (and connections) read them, the
    Christoffels no longer match the curvature, and 1.9 fails too."""
    checks = ("eq_1_4_covariant_constancy", "eq_1_9_commutator_decomposition",
              "eq_1_7_derivative_chain")
    assert all(_verdicts(schwarzschild, checks).values())
    assert all(_verdicts(frw_dust, ("eq_1_10c_curvature_bridge",)).values())
    original = spin_frame.christoffel
    monkeypatch.setattr(spin_frame, "christoffel",
                        lambda spec, x: original(spec, x) * (1.0 + 1e-3))
    assert not any(_verdicts(load_preset("schwarzschild"), checks).values())
    assert not any(_verdicts(load_preset("frw_dust"),
                             ("eq_1_10c_curvature_bridge",)).values())


def test_flipped_eps_det_sign_fails_the_determinant_gate(frw_dust,
                                                         anti_de_sitter,
                                                         monkeypatch):
    """On Schwarzschild the flip is an equivalent mutant: on a vacuum both
    the raw contraction and its determinant expansion vanish, so their
    sign cannot be seen."""
    check = ("eps_determinant_contraction",)
    for spec in (frw_dust, anti_de_sitter):
        assert all(_verdicts(spec, check).values())
    monkeypatch.setattr(gauge, "EPS_DET_SIGN", -gauge.EPS_DET_SIGN)
    for name in ("frw_dust", "anti_de_sitter_static"):
        assert not any(_verdicts(load_preset(name), check).values())


def _scale_frame_ricci(monkeypatch):
    """Scale the Ricci tensor alone in the curvature that frames fill, which
    every check reads; the curvature class is measured apart from frames,
    so the same checks apply."""
    original = spin_frame.curvature

    def scaled_ricci(spec, x):
        b = original(spec, x)
        return dataclasses.replace(b, ricci=b.ricci * (1.0 + 1e-3))

    monkeypatch.setattr(spin_frame, "curvature", scaled_ricci)


def test_scaled_ricci_fails_the_constraint_gates(frw_dust, anti_de_sitter,
                                                 monkeypatch):
    """The Ricci tensor scaled where the frames the operator layer reads
    fill their curvature: the constraint no longer matches the chain's
    curvature form, nor the Einstein-space factor."""
    reduction = ("eq_1_11a_constraint_reduction",)
    both = reduction + ("eq_1_14b_constraint_factor",)
    assert all(_verdicts(frw_dust, reduction).values())
    assert all(_verdicts(anti_de_sitter, both).values())
    _scale_frame_ricci(monkeypatch)
    assert not any(_verdicts(load_preset("frw_dust"), reduction).values())
    assert not any(_verdicts(load_preset("anti_de_sitter_static"),
                             both).values())


def test_scaled_ricci_fails_the_ricci_gates(frw_dust, anti_de_sitter,
                                            monkeypatch):
    """The same mutant: the Ricci tensor no longer is the contraction of
    the Riemann tensor (1.10b) nor R/4 g on an Einstein space (1.14a)."""
    sigma_ricci = ("eq_1_10b_sigma_ricci",)
    both = sigma_ricci + ("eq_1_14a_einstein_space",)
    assert all(_verdicts(frw_dust, sigma_ricci).values())
    assert all(_verdicts(anti_de_sitter, both).values())
    _scale_frame_ricci(monkeypatch)
    assert not any(_verdicts(load_preset("frw_dust"), sigma_ricci).values())
    assert not any(_verdicts(load_preset("anti_de_sitter_static"),
                             both).values())


def test_scaled_tetrad_leg_fails_the_vacuum_constraint(schwarzschild,
                                                       monkeypatch):
    """One leg of the tetrad scaled in the Dirac matrices the
    gamma-traceless fixtures are projected with: they are no longer
    traceless for the operator's matrices."""
    check = ("eq_1_13_vacuum_constraint",)
    assert all(_verdicts(schwarzschild, check).values())
    original = fields.build_frame

    def scaled_leg(spec, coords, chart_id=None):
        gs = original(spec, coords, chart_id).gammas
        e_upper = gs.tetrad.e_upper.copy()
        e_upper[:, 1] *= 1.0 + 1e-3
        return types.SimpleNamespace(gammas=spin_frame.curved_gammas(
            spin_frame.Tetrad(gs.tetrad.e_lower, e_upper), gs.metric))

    monkeypatch.setattr(fields, "build_frame", scaled_leg)
    assert not any(_verdicts(load_preset("schwarzschild"), check).values())


# ---------------------------------------------------------------------------
# work counts of the nested chains
# ---------------------------------------------------------------------------


def _count_at(monkeypatch, fields):
    """Rows of each ``at`` call on the given samplers."""
    calls = []
    original = FieldSampler.at

    def counting_at(self, coords, chart_id=""):
        if any(self is f for f in fields):
            rows = coords.coords if isinstance(coords, Frame) else coords
            calls.append(len(rows))
        return original(self, coords, chart_id)

    monkeypatch.setattr(FieldSampler, "at", counting_at)
    return calls


def _count_calls(monkeypatch, module, name):
    """Calls of ``module.name`` through every package module binding it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    _patch_everywhere(monkeypatch, module, name, counting)
    return calls


def test_derivative_chain_samples_its_fixture_once(schwarzschild,
                                                   monkeypatch):
    """1.7 at one point: one ``at`` call over the stencil of stencils gives
    both the residual and the first constraint."""
    fld = trig_field(41, box=schwarzschild.sample_box)
    calls = _count_at(monkeypatch, [fld])
    x = points_of(schwarzschild, 1, seed=9)[0]
    rso.derivative_chain(fld, schwarzschild, x, MASS)
    assert calls == [17 * 17]


def test_contraction_identity_samples_its_fixture_once(schwarzschild,
                                                       monkeypatch):
    """1.6 at one point: both sides share one D_nu Psi."""
    fld = trig_field(42, box=schwarzschild.sample_box)
    calls = _count_at(monkeypatch, [fld])
    x = points_of(schwarzschild, 1, seed=9)[0]
    rso.contraction_identity(fld, schwarzschild, x, MASS)
    assert calls == [9]


def test_derivative_chain_shares_one_frame_across_fixtures(schwarzschild,
                                                           monkeypatch):
    """1.7 at one point with 5 fixtures: the context frame and one
    outer-stencil frame, each filled once (the Christoffels by the frame,
    by its connection and by its curvature).  Per fixture the curvature
    form and the scale sample the point, and one ``at`` call samples the
    stencil of stencils.  A second run builds and fills nothing."""
    ctx = build_context(schwarzschild, 1, seed=9, mass=1.0)
    assert len(ctx.vb_fixtures) == 5
    at_calls = _count_at(monkeypatch, ctx.vb_fixtures)
    frames = _count_calls(monkeypatch, spin_frame, "build_frame")
    connections = _count_calls(monkeypatch, spin_frame, "spin_connection")
    christoffels = _count_calls(monkeypatch, geometry, "christoffel")
    _, err = identity_suite._chk_derivative_chain(ctx)
    assert err <= identity_suite.TOL_SECOND_ORDER
    assert at_calls == [1, 1, 17 * 17] * 5
    assert (len(frames), len(connections), len(christoffels)) == (2, 1, 3)
    identity_suite._chk_derivative_chain(ctx)
    assert (len(frames), len(connections), len(christoffels)) == (2, 1, 3)


def test_massless_gradient_takes_one_outer_derivative(schwarzschild,
                                                      monkeypatch):
    """2.7b at one point with 3 fixtures: per fixture one batched inner
    derivative over the 17 rows of the point's outer-stencil frame; the
    outer derivative differences those rows, with no further call."""
    calls = []
    original = rso.covariant_derivative

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(rso, "covariant_derivative", counting)
    monkeypatch.setattr(gauge, "covariant_derivative", counting)
    rep = run_suite(schwarzschild, n_points=1, seed=3,
                    only=("eq_2_7b_massless_gradient",))
    assert len(rep.ctx.sp_fixtures) == 3
    assert rep.checks[0].passed
    assert len(calls) == 3


@pytest.mark.parametrize("name, traceless_frames",
                         [("schwarzschild", 4), ("frw_dust", 0)])
def test_suite_shares_one_outer_frame_per_point(name, traceless_frames,
                                                monkeypatch):
    """One suite at 20 points builds the context frame and one outer-stencil
    frame per point, which 1.7, 1.8e, 1.9, 1.10c and 2.7b or 2.8c share;
    only the gamma-traceless fixtures of 1.13 (two, each sampled twice)
    project with frames of their own.  The metric is evaluated once per
    frame row and order used: orders 0-2 on the context rows, 0-1 on the
    17 rows of each outer frame; besides, orders 0-2 on the 6 points the
    curvature class is measured on, order 0 at the 8 shifted points of
    each point's covariant-constancy check and on the fixtures' frames."""
    spec = load_preset(name)
    evals = {0: 0, 1: 0, 2: 0}
    original = spec.component_fn

    def counting(x, order=0):
        evals[order] += 1
        return original(x, order)

    spec.component_fn = counting
    frames = _count_calls(monkeypatch, spin_frame, "build_frame")
    rep = run_suite(spec, n_points=20, seed=42)
    n, rows, classified = 20, 17, identity_suite.CLASS_POINT_CAP
    assert rep.passed
    assert len(frames) == 1 + n + traceless_frames
    assert all(rep.ctx.frame.outer(i).coords.shape == (rows, 4)
               for i in range(n))
    assert len(frames) == 1 + n + traceless_frames  # no frame built again
    assert evals == {
        0: n + n * rows + classified + 8 * n + traceless_frames * n,
        1: n + n * rows + classified,
        2: n + classified,
    }
