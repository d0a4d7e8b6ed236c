"""Row batches of the frame -> blocks -> D_nu stack: a frame equals the
per-point geometry, a batch equals its row loop, the gates still see the
shared frames, and the work counts of the nested chains stay pinned."""

import dataclasses
import functools
import sys
import types

import numpy as np
import pytest

from curved_rs import (
    fields,
    gauge,
    geometry,
    identity_suite,
    numerics,
    spin_frame,
)
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

from conftest import first_constraint, frame_at, points_of

MASS = MassParam(1.0)

def _rows(spec, n=3):
    return np.stack([p.coords for p in points_of(spec, n, seed=77)])


def _rows_sampler(spec, fn, kind, name):
    """A sampler whose rows all go through one call of ``fn`` on their
    frame; a Point is a one-row frame."""

    def batch(rows):
        return fn(build_frame(spec, rows))

    return FieldSampler(lambda x: fn(frame_at(spec, x))[0], kind, name=name,
                        batch=batch)


def _wrapped_samplers(spec):
    box = spec.sample_box
    vb = trig_field(31, box=box)
    sp = polynomial_field(32, BISPINOR, box=box)
    return {
        "residual": _rows_sampler(
            spec, lambda frame: rso.rs_residual(
                frame, *rso.covariant_rows(vb, frame), MASS),
            VECTOR_BISPINOR, "residual"),
        "first_constraint": _rows_sampler(
            spec, lambda frame: first_constraint(vb, frame, MASS), BISPINOR,
            "first-constraint"),
        "gradient": gauge.gradient_sampler(sp, spec),
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
    """Each row of a frame's arrays (Dirac matrices, metric, tetrad,
    Christoffels, connection, operator blocks) equals the per-point path
    exactly, and so do the block matrices built on the frame's gammas."""
    spec = load_preset(name)
    frame = build_frame(spec, _rows(spec))
    alpha, beta = rso.frame_blocks(frame)
    rows = frame.gammas
    alphas_rows, beta_rows = rso.build_alpha_beta(rows)
    for i, c in enumerate(frame.coords):
        x = Point(c, spec.chart_id)
        assert np.array_equal(frame.christoffel[i], christoffel(spec, x))
        assert np.array_equal(frame.connection[i],
                              spin_connection(spec, x))
        gs = gamma_set_at(spec, x)
        for key in ("gamma_flat", "gamma5"):
            assert np.array_equal(getattr(rows, key), getattr(gs, key)), key
        for key in ("gamma_up", "gamma_down", "sigma_curved", "eps_upper",
                    "eps_lower"):
            assert np.array_equal(getattr(rows, key)[i], getattr(gs, key)), key
        for key in ("g_lower", "g_upper", "det_g"):
            assert np.array_equal(getattr(rows.metric, key)[i],
                                  getattr(gs.metric, key)), key
        for key in ("e_lower", "e_upper"):
            assert np.array_equal(getattr(rows.tetrad, key)[i],
                                  getattr(gs.tetrad, key)), key
        alphas, beta_one = rso.build_alpha_beta(gs)
        assert np.array_equal(beta_one.blocks, beta[i])
        assert np.array_equal(beta_rows.blocks[i], beta[i])
        for nu in range(4):
            assert np.array_equal(alphas[nu].blocks, alpha[i, nu])
            assert np.array_equal(alphas_rows[nu].blocks[i], alpha[i, nu])


def _frame_arrays(frame):
    gs = frame.gammas
    out = {"coords": frame.coords, "christoffel": frame.christoffel,
           "connection": frame.connection}
    for key in ("gamma_flat", "gamma5", "gamma_up", "gamma_down",
                "sigma_curved", "eps_upper", "eps_lower"):
        out[f"gammas.{key}"] = getattr(gs, key)
    for key in ("g_lower", "g_upper", "det_g"):
        out[f"gammas.metric.{key}"] = getattr(gs.metric, key)
    for key in ("e_lower", "e_upper"):
        out[f"gammas.tetrad.{key}"] = getattr(gs.tetrad, key)
    alpha, beta = rso.frame_blocks(frame)
    out["alpha"], out["beta"] = alpha, beta
    alphas, beta = rso.build_alpha_beta(gs)
    out["build_alpha_beta.alpha"] = alphas[0].blocks
    out["build_alpha_beta.beta"] = beta.blocks
    return out


def test_frame_arrays_are_read_only(schwarzschild):
    """A frame is shared by every check on its rows, so no caller may
    change it: writes raise and the values stay."""
    frame = build_frame(schwarzschild, _rows(schwarzschild))
    for label, array in _frame_arrays(frame).items():
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
    frame = build_frame(schwarzschild, coords)
    with pytest.raises(OutOfDomain):
        rso.covariant_derivative(trig_field(3), frame)
    for name in ("metric", "gammas", "christoffel", "connection"):
        with pytest.raises(OutOfDomain):
            getattr(frame, name)


@pytest.mark.parametrize("name", ("schwarzschild", "frw_dust"))
def test_batched_first_order_checks_equal_the_per_point_path(name):
    """1.2a and 1.6 run each fixture over the whole context frame, 1.4 and
    the algebraic checks run once over its rows, and the nested checks
    once over the stacked outer frame of the context or chain frame; their
    values and errors equal the point-by-point evaluation."""
    spec = load_preset(name)
    ctx = build_context(spec, 4, seed=13, mass=1.0)
    for fld in ctx.vb_fixtures:
        rows = rso.covariant_rows(fld, ctx.frame)
        res = rso.rs_residual(ctx.frame, *rows, ctx.mass)
        lhs, rhs = rso.contraction_identity(ctx.frame, *rows, ctx.mass)
        for i, x in enumerate(ctx.points):
            frame = frame_at(spec, x)
            one_rows = rso.covariant_rows(fld, frame)
            one = rso.rs_residual(frame, *one_rows, ctx.mass)[0]
            assert np.max(np.abs(res[i] - one)) <= 1e-13 * np.max(np.abs(one))
            l1, r1 = (a[0] for a in rso.contraction_identity(
                frame, *one_rows, ctx.mass))
            for a, b in ((lhs[i], l1), (rhs[i], r1)):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    runners = [identity_suite._chk_operator_form,
               identity_suite._chk_gamma_contraction]
    row_checks = COVARIANT_CONSTANCY + ALGEBRAIC_ROW_CHECKS + NESTED_CHECKS
    runners += [d.runner for d in identity_suite.REGISTRY
                if d.id in row_checks]
    assert len(runners) == 2 + len(row_checks)
    for runner in runners:
        # 2.7b and 2.8c return one error per point
        batched = np.max(runner(ctx)[1])
        per_point = max(np.max(runner(dataclasses.replace(ctx, points=[x]))[1])
                        for x in ctx.points)
        assert abs(batched - per_point) <= 1e-13, runner.__name__


def test_row_partial4_is_the_partial4_of_each_row(schwarzschild):
    """``partial4`` on (n, 4) rows with one step per row equals the
    one-point ``partial4`` of each row, under both step policies."""
    coords = _rows(schwarzschild, 4)

    def gamma_up(x):
        return gamma_set_at(schwarzschild, x).gamma_up

    def at_point(c):
        return gamma_up(Point(c, schwarzschild.chart_id))

    for mu in range(4):
        for nested in (False, True):
            rows = numerics.partial4(gamma_up, coords, mu, nested)
            assert rows.shape == (4, 4, 4, 4)
            for i, c in enumerate(coords):
                one = numerics.partial4(at_point, c, mu, nested)
                assert np.max(np.abs(rows[i] - one)) <= 1e-13 * max(
                    1.0, np.max(np.abs(one)))


def test_rows_must_be_n_by_4(schwarzschild):
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        build_frame(schwarzschild, np.zeros(4))


def test_pathed_contractions_equal_the_plain_einsum(frw_dust, monkeypatch):
    """Each two-operand contraction over rows that carries ``PAIRWISE`` (one
    batched matmul) equals its plain ``einsum`` to 1e-14 relative, on the
    170 rows of an outer frame (the nested commutator and 1.8e's connection
    curvature on its 10 centres); 1.4's error moves by at most 1e-14."""
    ctx = build_context(frw_dust, 10, seed=21, mass=1.0)
    frame, outer = ctx.frame, ctx.frame.outer
    vb, sp = ctx.vb_fixtures[0], ctx.sp_fixtures[0]
    psi, chi = vb.at(outer), sp.at(outer)
    rng = np.random.default_rng(3)
    d_vb = rng.standard_normal(psi.shape[:1] + (4,) + psi.shape[1:]) + 0j
    d_sp = rng.standard_normal(chi.shape[:1] + (4,) + chi.shape[1:]) + 0j
    assert len(outer.coords) == 170

    def contractions():
        return [
            rso._connect(outer, VECTOR_BISPINOR, d_vb, psi),
            rso._connect(outer, BISPINOR, d_sp, chi),
            rso.rs_residual(outer, d_vb, psi, MASS),
            rso.curvature_commutator(outer, psi)[0],
            spin_frame.spinor_commutator_curvature(outer),
            identity_suite._sigma_commutator_defect(
                outer.gammas.sigma_curved, outer.metric.g_upper),
            gauge.epsilon_contraction_check(outer)["raw"],
            rso.second_covariant_comm(frame, rso.nested_rows(vb, frame)[1]),
            spin_frame.connection_curvature_fd(frame),
        ]

    pathed = contractions()
    constancy = identity_suite._chk_covariant_constancy(ctx)[1]
    _patch_everywhere(monkeypatch, numerics, "PAIRWISE", False)
    for a, b in zip(pathed, contractions(), strict=True):
        assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))
    assert abs(identity_suite._chk_covariant_constancy(ctx)[1]
               - constancy) <= 1e-14


@pytest.mark.parametrize("rows", (None, 1, 20))
def test_fixed_paths_are_the_paths_numpy_picks(schwarzschild, frw_dust, rows,
                                               monkeypatch):
    """The multi-operand einsums carry the path ``optimize=True`` finds on
    every call; with the search put back, their values and the errors of
    1.10b and 1.2a stay bit-identical, at one point and on 1 and 20 rows."""
    if rows is None:
        gs = gamma_set_at(schwarzschild, points_of(schwarzschild, 1)[0])
    else:
        gs = build_frame(schwarzschild, _rows(schwarzschild, rows)).gammas
    ctx = build_context(frw_dust, rows or 1, seed=8, mass=1.0)

    def values():
        gd, gu, g_up = gs.gamma_down, gs.gamma_up, gs.metric.g_upper
        printed = rso.transform_printed(gs, 0.25, -0.125, 0.7)
        return [*rso._alpha_beta_rows(gd, gu, g_up), rso.eps_gamma(gs),
                rso.beta_tilde_eps_form(gs).blocks,
                *(m.blocks for m in printed[1] + printed[3]),
                identity_suite._chk_sigma_ricci_contraction(ctx)[1],
                identity_suite._chk_operator_form(ctx)[1]]

    fixed = values()
    for name in ("_TRIPLE_PATH", "_EPS_GAMMA_PATH", "_EPS_GAMMA_GAMMA_PATH"):
        monkeypatch.setattr(rso, name, True)
    monkeypatch.setattr(identity_suite, "_SIGMA_RICCI_PATH", True)
    monkeypatch.setattr(identity_suite, "_TERM_PATH", True)
    for a, b in zip(fixed, values(), strict=True):
        assert np.array_equal(a, b)


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
    """The 1/3 of the operator blocks perturbed: the blocks no longer match
    the term-by-term operator, the trace of beta, nor the printed forms of
    the C/S transform, which are built without the blocks."""
    checks = ("eq_1_2a_operator_form", "eq_1_6_gamma_contraction",
              "eq_1_7_derivative_chain", "eq_2_2_block_assembly",
              "eq_2_3_transform_stages", "eq_2_5_transform_expansion",
              "eq_2_6_tilde_closed_form")
    assert all(_verdicts(schwarzschild, checks).values())
    monkeypatch.setattr(rso, "THIRD", rso.THIRD * (1.0 + 1e-3))
    assert not any(_verdicts(schwarzschild, checks).values())


def test_dense_layout_mutant_fails_the_block_assembly(schwarzschild,
                                                      monkeypatch):
    """``@`` goes through the dense 16x16 form; a dense layout without the
    r/s, i/j interleave (and the matching reshape back, so that the round
    trip still holds) makes a wrong product, which 2.2's explicit block
    contraction catches."""
    check = ("eq_2_2_block_assembly",)
    assert all(_verdicts(schwarzschild, check).values())

    def flat_dense(self):
        return self.blocks.reshape(self.blocks.shape[:-4] + (16, 16))

    def flat_from_dense(cls, dense):
        dense = np.asarray(dense, dtype=complex)
        return cls(dense.reshape(dense.shape[:-2] + (4, 4, 4, 4)))

    monkeypatch.setattr(rso.BlockMatrix16, "to_dense", flat_dense)
    monkeypatch.setattr(rso.BlockMatrix16, "from_dense",
                        classmethod(flat_from_dense))
    assert not any(_verdicts(schwarzschild, check).values())


def test_connection_dropped_on_batched_rows_fails_the_nested_gates(
        schwarzschild, monkeypatch):
    """The inner derivatives of 1.7 and 2.7b run on the rows of the outer
    stencil frame; with a zero connection there (and only there), both
    gates fail."""
    checks = ("eq_1_7_derivative_chain", "eq_2_7b_massless_gradient")
    assert all(_verdicts(schwarzschild, checks).values())
    original = spin_frame.Frame.outer.func

    def without_connection(self):
        outer = original(self)
        outer.__dict__["connection"] = np.zeros((len(outer.coords), 4, 4, 4),
                                                dtype=complex)
        return outer

    prop = functools.cached_property(without_connection)
    prop.__set_name__(Frame, "outer")
    monkeypatch.setattr(Frame, "outer", prop)
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


#: the checks that run their algebra once over the context frame's rows
ALGEBRAIC_ROW_CHECKS = (
    "eq_1_3_hermiticity", "eq_1_5_clifford", "eq_1_5_sigma_split",
    "eq_1_5_triple_gamma", "sigma_commutator", "eq_2_2_block_assembly",
    "eq_2_3_transform_stages", "eq_2_4_s_inverse",
    "eq_2_5_transform_expansion", "eq_2_6_tilde_closed_form",
    "eq_2_6c_beta_dual_forms")


#: 1.4, which differences Dirac matrices built apart from the frame
COVARIANT_CONSTANCY = ("eq_1_4_covariant_constancy",)


#: the checks that take nested differences over a stacked outer frame
NESTED_CHECKS = (
    "eq_1_7_derivative_chain", "eq_1_8e_commutator_curvature",
    "eq_1_9_commutator_decomposition", "eq_1_10c_curvature_bridge",
    "eq_2_7b_massless_gradient", "eq_2_8c_gauge_criterion")


def test_rolled_outer_rows_fail_the_nested_gates(schwarzschild, frw_dust,
                                                 monkeypatch):
    """The outer frame stacks its centres' stencils centre by centre.  With
    its rows rolled by one stencil, each of two centres differences its
    neighbour's stencil, and every nested gate fails."""
    # 2.7b applies on Ricci-flat metrics, 2.8c on the others
    applicable = {"schwarzschild": NESTED_CHECKS[:-1],
                  "frw_dust": NESTED_CHECKS[:-2] + NESTED_CHECKS[-1:]}
    for spec in (schwarzschild, frw_dust):
        assert all(_verdicts(spec, applicable[spec.name]).values())
    original = spin_frame.Frame.outer.func

    def rolled(self):
        outer = original(self)
        return build_frame(self.spec, np.roll(outer.coords, 17, axis=0),
                           self.chart_id)

    prop = functools.cached_property(rolled)
    prop.__set_name__(Frame, "outer")
    monkeypatch.setattr(Frame, "outer", prop)
    for name, checks in applicable.items():
        assert not any(_verdicts(load_preset(name), checks).values()), name


def test_rolled_gamma_rows_fail_the_covariant_constancy(schwarzschild,
                                                         monkeypatch):
    """1.4 differences the rows ``gamma_set_at`` returns for the shifted
    rows against the frame's rows; rolled by one row, each point
    differences its neighbour's Dirac matrices, and 1.4 fails."""
    assert all(_verdicts(schwarzschild, COVARIANT_CONSTANCY).values())
    original = identity_suite.gamma_set_at

    def rolled(spec, x, flat=None):
        gs = original(spec, x, flat)
        return dataclasses.replace(gs, gamma_up=np.roll(gs.gamma_up, 1,
                                                        axis=0))

    monkeypatch.setattr(identity_suite, "gamma_set_at", rolled)
    assert not any(_verdicts(schwarzschild, COVARIANT_CONSTANCY).values())


def test_phased_tetrad_leg_fails_the_algebraic_gates(schwarzschild, frw_dust,
                                                     monkeypatch):
    """One tetrad leg times a phase where every tetrad is built: the Dirac
    matrices are no longer gamma^0-Hermitian, nor a Clifford basis of the
    metric, every block identity built on them fails, and so does 1.4."""
    checks = ALGEBRAIC_ROW_CHECKS + COVARIANT_CONSTANCY
    for spec in (schwarzschild, frw_dust):
        assert all(_verdicts(spec, checks).values())
    original = spin_frame.build_tetrad

    def phased_leg(m):
        t = original(m)
        e_upper = t.e_upper.astype(complex)
        e_upper[..., 1] *= np.exp(1e-3j)
        return spin_frame.Tetrad(t.e_lower, e_upper)

    monkeypatch.setattr(spin_frame, "build_tetrad", phased_leg)
    for name in ("schwarzschild", "frw_dust"):
        verdicts = _verdicts(load_preset(name), checks)
        assert not any(verdicts.values()), name


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
    frame = frame_at(schwarzschild, x)
    rso.derivative_chain(frame, *rso.nested_rows(fld, frame)[1:], MASS)
    assert calls == [17 * 17]


def test_contraction_identity_samples_its_fixture_once(schwarzschild,
                                                       monkeypatch):
    """1.6 at one point: both sides share one D_nu Psi."""
    fld = trig_field(42, box=schwarzschild.sample_box)
    calls = _count_at(monkeypatch, [fld])
    x = points_of(schwarzschild, 1, seed=9)[0]
    frame = frame_at(schwarzschild, x)
    rso.contraction_identity(frame, *rso.covariant_rows(fld, frame), MASS)
    assert calls == [9]


def test_derivative_chain_shares_one_frame_across_fixtures(schwarzschild,
                                                           monkeypatch):
    """1.7 at one point with 5 fixtures: the chain frame and its outer
    frame, each filled once.  The Christoffels are filled by the outer
    frame and its connection (the inner derivatives), and by the chain
    frame, its connection (the outer derivative) and its curvature (the
    curvature form).  Per fixture one ``at`` call samples the stencil of
    stencils, whose centre is the point for the curvature form and the
    scale.  A second run builds, fills and samples nothing."""
    ctx = build_context(schwarzschild, 1, seed=9, mass=1.0)
    assert len(ctx.vb_fixtures) == 5
    at_calls = _count_at(monkeypatch, ctx.vb_fixtures)
    frames = _count_calls(monkeypatch, spin_frame, "build_frame")
    connections = _count_calls(monkeypatch, spin_frame, "spin_connection")
    christoffels = _count_calls(monkeypatch, geometry, "christoffel")
    _, err = identity_suite._chk_derivative_chain(ctx)
    assert err <= identity_suite.TOL_SECOND_ORDER
    assert at_calls == [17 * 17] * 5
    assert (len(frames), len(connections), len(christoffels)) == (2, 2, 5)
    identity_suite._chk_derivative_chain(ctx)
    assert (len(frames), len(connections), len(christoffels)) == (2, 2, 5)
    assert at_calls == [17 * 17] * 5


def test_chain_checks_sample_each_fixture_once(frw_dust, monkeypatch):
    """At 20 points 1.11a reads its 3 fixtures from the context's one pass
    over the stencils of its rows (20 rows x 9 points, one call per
    fixture of the stack of 5), and hands that psi to both of its sides.
    1.7 samples each of its 5 once, over the stencils of stencils of the
    outer frame of the 10 chain points (170 rows x 17 points), whose
    centres give its curvature form and scale; 1.9 and 1.10c read the same
    pass and sample nothing."""
    ctx = build_context(frw_dust, 20, seed=42, mass=1.0)
    calls = _count_at(monkeypatch, ctx.vb_fixtures)
    identity_suite._chk_constraint_reduction(ctx)
    assert calls == [20 * 9] * 5
    calls.clear()
    identity_suite._chk_derivative_chain(ctx)
    assert calls == [170 * 17] * 5
    identity_suite._chk_commutator_decomposition(ctx)
    identity_suite._chk_curvature_bridge(ctx)
    assert calls == [170 * 17] * 5


def test_gamma_contraction_samples_each_fixture_once(frw_dust, monkeypatch):
    """At 20 points 1.6 samples each of its 5 fixtures once, over the
    stencils of the context rows (20 rows x 9 points); its scale is the
    field on the centre rows of that call."""
    ctx = build_context(frw_dust, 20, seed=42, mass=1.0)
    calls = _count_at(monkeypatch, ctx.vb_fixtures)
    identity_suite._chk_gamma_contraction(ctx)
    assert calls == [20 * 9] * 5


def test_operator_form_samples_each_fixture_once(frw_dust, monkeypatch):
    """At 20 points 1.2a samples each of its 5 fixtures once, over the
    stencils of the context rows: the block side (one ``rs_residual`` over
    the stack) and the term-by-term side read one D_nu Psi and the field
    on its centre rows."""
    ctx = build_context(frw_dust, 20, seed=42, mass=1.0)
    calls = _count_at(monkeypatch, ctx.vb_fixtures)
    residuals = _count_calls(monkeypatch, rso, "rs_residual")
    _, err = identity_suite._chk_operator_form(ctx)
    assert err <= identity_suite.TOL_ALGEBRAIC
    assert calls == [20 * 9] * 5
    assert len(residuals) == 1


def test_suite_builds_each_frames_blocks_once(schwarzschild, monkeypatch):
    """One suite at 20 points forms the operator blocks of two row sets,
    each once: the context frame (shared by ``rs_residual`` and
    ``SuiteContext.blocks``) and the outer frame of the 10 chain points
    (1.7)."""
    rows = []
    original = rso._alpha_beta_rows

    def counting(gd, gu, g_up):
        rows.append(len(gd))
        return original(gd, gu, g_up)

    _patch_everywhere(monkeypatch, rso, "_alpha_beta_rows", counting)
    rep = run_suite(schwarzschild, n_points=20, seed=42)
    assert rep.passed
    assert sorted(rows) == [20, 170]


def test_suite_builds_the_context_blocks_once(schwarzschild, monkeypatch):
    """2.2, 2.3 and 2.5 (``generic_transform``) and 2.6 share the context's
    operator blocks: one ``build_alpha_beta`` call per suite."""
    calls = _count_calls(monkeypatch, rso, "build_alpha_beta")
    rep = run_suite(schwarzschild, n_points=4, seed=42)
    assert rep.passed
    assert len(calls) == 1


def test_massless_gradient_takes_one_outer_derivative(schwarzschild,
                                                      monkeypatch):
    """2.7b at one point with 3 fixtures: per fixture one batched inner
    derivative over the 17 rows of the outer frame; the outer derivative
    differences those rows, with no further call."""
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
                         [("schwarzschild", 2), ("frw_dust", 0)])
def test_suite_shares_one_outer_frame_per_point(name, traceless_frames,
                                                monkeypatch):
    """One suite at n = 20 points builds 4 frames besides the two
    gamma-traceless fixture frames of 1.13 (Ricci-flat metrics only):
    the context frame and its outer frame, which 1.8e and 2.7b or 2.8c
    share, and the frame of the c = 10 chain points and its outer frame,
    which 1.7, 1.9 and 1.10c share.  An outer frame has 17 rows per row.
    Each jet evaluates an order it uses in one call over all of its rows,
    and the metric is evaluated once per jet row and order used:
      order 0: n + 17 n + c + 17 c + 6 + 8 n + 2n per fixture frame,
      order 1: n + 17 n + c + 17 c + 6,
      order 2: n + c + 6,
    with orders 0-2 on the 6 points the curvature class is measured on
    and order 0 at the 8 shifted points of each point's 1.4."""
    spec = load_preset(name)
    evals = {0: 0, 1: 0, 2: 0}
    calls = []  # (order, rows) per call, holding the rows so ids stay unique
    original = spec.component_fn

    def counting(x, order=0):
        evals[order] += len(x)
        calls.append((order, x))
        return original(x, order)

    spec.component_fn = counting
    frames = _count_calls(monkeypatch, spin_frame, "build_frame")
    rep = run_suite(spec, n_points=20, seed=42)
    n, rows, classified = 20, 17, identity_suite.CLASS_POINT_CAP
    chain = identity_suite.SECOND_ORDER_POINT_CAP
    assert rep.passed
    assert len(frames) == 4 + traceless_frames
    assert rep.ctx.frame.outer.coords.shape == (n * rows, 4)
    assert rep.ctx.chain_frame.outer.coords.shape == (chain * rows, 4)
    assert len(frames) == 4 + traceless_frames  # no frame built again
    assert evals == {
        0: (n + n * rows + chain + chain * rows + classified + 8 * n
            + traceless_frames * n),
        1: n + n * rows + chain + chain * rows + classified,
        2: n + chain + classified,
    }
    per_jet = [(order, id(rows)) for order, rows in calls]
    assert len(per_jet) == len(set(per_jet))


@pytest.mark.parametrize("name", ("schwarzschild", "frw_dust"))
def test_suite_samples_each_fixture_in_two_passes(name, monkeypatch):
    """One suite at n = 20 points samples each of its 5 vector-bispinor
    fixtures twice, in the two passes over the fixture stack: over the
    stencils of the context rows (9 n rows; 1.2a, 1.6, 1.11a and 1.14b)
    and over the stencils of stencils of the c = 10 chain points' outer
    frame (17 * 17 c rows; 1.7, 1.9 and 1.10c).  The field on the rows
    themselves comes from the stencil centres."""
    fixtures = []
    original = identity_suite.fixture_family

    def recording(seed, count, kind=VECTOR_BISPINOR, box=None):
        family = original(seed, count, kind, box)
        if kind == VECTOR_BISPINOR:
            fixtures.extend(family)
        return family

    monkeypatch.setattr(identity_suite, "fixture_family", recording)
    calls = _count_at(monkeypatch, fixtures)
    rep = run_suite(load_preset(name), n_points=20, seed=42)
    n, chain = 20, identity_suite.SECOND_ORDER_POINT_CAP
    assert rep.passed
    assert len(fixtures) == identity_suite.FIXTURE_COUNT == 5
    assert calls == [9 * n] * 5 + [17 * 17 * chain] * 5
