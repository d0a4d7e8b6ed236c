"""Row batches of the frame -> blocks -> D_nu stack: a frame equals the
per-point geometry, a batch equals its row loop, the gates still see the
shared frames, and the work counts of the nested chains stay pinned."""

import dataclasses
import functools
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
    GammaSet,
    build_frame,
    gamma_set_at,
    spin_connection,
)

from conftest import (GAMMA_PRODUCTS, first_constraint, frame_at,
                      patch_everywhere, points_of)
from oracles import (central_difference, omega_spin_connection,
                     stencil_sampler)

MASS = MassParam(1.0)

def _rows(spec, n=3):
    return np.stack([p.coords for p in points_of(spec, n, seed=77)])


def _rows_sampler(spec, fn, kind, name):
    """A sampler whose rows all go through one call of ``fn`` on their
    frame; a Point is a one-row frame."""
    return stencil_sampler(lambda rows: fn(build_frame(spec, rows)), kind,
                           name)


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
        batch = sampler.at(coords)
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
    rows = frame.gammas
    alpha, beta = rows.alpha, rows.beta
    alphas_rows, beta_rows = rso.build_alpha_beta(rows)
    for i, c in enumerate(frame.coords):
        x = Point(c, spec.chart_id)
        assert np.array_equal(frame.christoffel[i], christoffel(spec, x))
        assert np.array_equal(frame.connection[i],
                              spin_connection(spec, x))
        gs = gamma_set_at(spec, x)
        for key in ("gamma_flat", "gamma5"):
            assert np.array_equal(getattr(rows, key), getattr(gs, key)), key
        for key in ("gamma_up",) + GAMMA_PRODUCTS:
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
    for key in ("gamma_flat", "gamma5", "gamma_up", *GAMMA_PRODUCTS):
        out[f"gammas.{key}"] = getattr(gs, key)
    for key in ("g_lower", "g_upper", "det_g"):
        out[f"gammas.metric.{key}"] = getattr(gs.metric, key)
    for key in ("e_lower", "e_upper"):
        out[f"gammas.tetrad.{key}"] = getattr(gs.tetrad, key)
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
            sampler.at(coords)
    frame = build_frame(schwarzschild, coords)
    with pytest.raises(OutOfDomain):
        rso.covariant_derivative(trig_field(3), frame)
    for name in ("metric", "gammas", "christoffel", "connection"):
        with pytest.raises(OutOfDomain):
            getattr(frame, name)


@pytest.mark.parametrize("name", ("schwarzschild", "frw_dust"))
def test_batched_first_order_checks_equal_the_per_point_path(name):
    """1.2a and 1.6 run each fixture over the whole context frame, 1.4, the
    algebraic checks and the nested checks run once over its rows; their
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
        batched = np.max(runner(ctx)[1])
        per_point = max(np.max(runner(dataclasses.replace(ctx, points=[x]))[1])
                        for x in ctx.points)
        assert abs(batched - per_point) <= 1e-13, runner.__name__


def test_row_partial4_is_the_partial4_of_each_row(schwarzschild):
    """``partial4`` on (n, 4) rows with one step per row equals the
    one-point ``partial4`` of each row, on every axis."""
    coords = _rows(schwarzschild, 4)

    def gamma_up(rows):
        return gamma_set_at(schwarzschild, rows).gamma_up

    rows = numerics.partial4(gamma_up, coords)
    assert rows.shape == (4, 4, 4, 4, 4)
    for i, c in enumerate(coords):
        one = numerics.partial4(gamma_up, c)
        assert one.shape == (4, 4, 4, 4)
        assert np.max(np.abs(rows[i] - one)) <= 1e-13 * max(
            1.0, np.max(np.abs(one)))


@pytest.mark.parametrize("n", (None, 1, 20), ids=("point", "1", "20"))
def test_partial4_is_the_central_difference_oracle(frw_dust, n):
    """``partial4`` equals the tests' ``central_difference`` at the one
    step ``fd_step(x, STEP_FIRST)``, bit for bit, on 1 and 20 rows and at
    one point (the oracle's one row)."""
    coords = _rows(frw_dust, n or 1)

    def gamma_up(rows):
        return gamma_set_at(frw_dust, rows).gamma_up

    want = central_difference(gamma_up, coords,
                              numerics.fd_step(coords, numerics.STEP_FIRST))
    if n is None:
        coords, want = coords[0], want[0]
    assert np.array_equal(numerics.partial4(gamma_up, coords), want)


def test_rows_must_be_n_by_4(schwarzschild):
    with pytest.raises(ValueError, match=r"\(n, 4\)"):
        build_frame(schwarzschild, np.zeros(4))


#: numpy's own pairwise path for a two-operand ``einsum``
PAIRWISE_PATH = ("einsum_path", (0, 1))


def _pairwise_einsum(subscripts, a, b):
    return np.einsum(subscripts, a, b, optimize=PAIRWISE_PATH)


def test_contractions_equal_the_pairwise_einsum(frw_dust, monkeypatch):
    """Every two-operand contraction over rows goes through
    ``numerics.contract``, which equals ``einsum`` on numpy's pairwise
    path to the bit: with that ``einsum`` in its place, the values built
    on it (the second-order jets, the connection derivative and what is
    built on them among them) on 170 rows, and 1.4's error, are
    unchanged."""
    ctx = build_context(frw_dust, 10, seed=21, mass=1.0)
    rows = build_frame(frw_dust, _rows(frw_dust, 170))
    vb, sp = ctx.vb_fixtures[0], ctx.sp_fixtures[0]
    psi, chi = vb.at(rows), sp.at(rows)
    rng = np.random.default_rng(3)
    d_vb = rng.standard_normal(psi.shape[:1] + (4,) + psi.shape[1:]) + 0j
    d_sp = rng.standard_normal(chi.shape[:1] + (4,) + chi.shape[1:]) + 0j

    def contractions():
        fresh = build_frame(frw_dust, rows.coords)
        vb_jet = rso.covariant_jet(vb, fresh)
        sp_jet = rso.covariant_jet(sp, fresh)
        return [
            rso._connect(fresh, VECTOR_BISPINOR, d_vb, psi),
            rso._connect(fresh, BISPINOR, d_sp, chi),
            rso.rs_residual(fresh, d_vb, psi, MASS),
            rso.curvature_commutator(fresh, psi)[0],
            spin_frame.spinor_commutator_curvature(fresh),
            identity_suite._sigma_commutator_defect(
                fresh.gammas.sigma_curved, fresh.metric.g_upper),
            gauge.epsilon_contraction_check(fresh)["raw"],
            *vb_jet, *sp_jet,
            rso.second_covariant_comm(fresh, vb_jet.d, vb_jet.dd),
            spin_frame.connection_derivative(fresh),
            spin_frame.connection_curvature(fresh),
        ]

    planned = contractions()
    constancy = identity_suite._chk_covariant_constancy(ctx)[1]
    patch_everywhere(monkeypatch, numerics, "contract", _pairwise_einsum)
    for a, b in zip(planned, contractions(), strict=True):
        assert np.array_equal(a, b)
    ctx = dataclasses.replace(ctx, points=ctx.points)  # a fresh frame
    assert np.array_equal(identity_suite._chk_covariant_constancy(ctx)[1],
                          constancy)


def _optimal(subscripts, *operands):
    return np.einsum(subscripts, *operands, optimize=True)


def _recording(monkeypatch, module) -> dict:
    """The results of ``module``'s ``contract`` calls, in call order, by
    subscripts."""
    steps = {}

    def recording(subscripts, a, b):
        out = numerics.contract(subscripts, a, b)
        steps.setdefault(subscripts, []).append(out)
        return out

    monkeypatch.setattr(module, "contract", recording)
    return steps


@pytest.mark.parametrize("rows", (None, 1, 20))
def test_pairwise_steps_equal_the_optimal_einsum(schwarzschild, frw_dust,
                                                 rows, monkeypatch):
    """Each contraction of three or more operands is written as the
    pairwise steps of the path numpy picks (``optimize=True``), with the
    intermediate subscripts that path makes, and equals that ``einsum`` to
    the bit, at one point and on 1 and 20 rows: the gamma triple of the
    operator blocks and of the printed transform, i gamma5 eps gamma,
    beta~'s eps form, 1.10b's left side, the two three-operand terms of
    1.2a and each term of 2.8b's determinant."""
    if rows is None:
        gs = gamma_set_at(schwarzschild, points_of(schwarzschild, 1)[0])
    else:
        gs = build_frame(schwarzschild, _rows(schwarzschild, rows)).gammas
    gd, gu = gs.gamma_down, gs.gamma_up
    triple = _optimal("...rij,...njk,...skl->...nrsil", gd, gu, gu)
    assert np.array_equal(spin_frame.gamma_triple(gs), triple)
    assert np.array_equal(gs.eps_gamma, 1j * _optimal(
        "ij,...rnsm,...mjk->...nrsik", gs.gamma5, gs.eps_mixed, gd))
    assert np.array_equal(rso.beta_tilde_eps_form(gs).blocks, 0.5j * _optimal(
        "ij,...rnsm,...mjk,...nkl->...rsil", gs.gamma5, gs.eps_mixed, gd,
        gd))

    def blocks():
        """The operator blocks of a fresh GammaSet and the printed
        transform's alphas, which read the triple."""
        fresh = dataclasses.replace(gs)
        printed = rso.transform_printed(fresh, 0.25, -0.125, 0.7)
        return [fresh.alpha, fresh.beta,
                *(m.blocks for m in printed[1] + printed[3])]

    formed = blocks()
    patch_everywhere(monkeypatch, spin_frame, "gamma_triple",
                     lambda _: triple.copy())
    for a, b in zip(formed, blocks(), strict=True):
        assert np.array_equal(a, b)

    ctx = build_context(frw_dust, rows or 1, seed=8, mass=1.0)
    frame, d = ctx.frame, ctx.fixture_rows.d
    gs, bundle = frame.gammas, frame.curvature
    steps = _recording(monkeypatch, identity_suite)
    identity_suite._chk_sigma_ricci_contraction(ctx)
    identity_suite._chk_operator_form(ctx)
    assert np.array_equal(steps["xaij,xabjk->xbik"][0], _optimal(
        "xaij,xmnjk,xmnab->xbik", gs.gamma_up, gs.sigma_curved,
        bundle.riemann_lower))
    assert np.array_equal(steps["xsij,xj...->xsi..."][0], _optimal(
        "xsij,xnb,xnbj...->xsi...", gs.gamma_down, gs.metric.g_upper, d))
    assert np.array_equal(steps["xaij,xaj...->xi..."][0], _optimal(
        "xaij,xbjk,xabk...->xi...", gs.gamma_up, gs.gamma_up, d))

    steps = _recording(monkeypatch, gauge)
    gauge.epsilon_contraction_check(frame)
    g_up = frame.metric.g_upper
    for k, (_, (first, second)) in enumerate(gauge._DET_TERMS):
        three = (f"{first.split('->')[0]},{second.split(',')[0]}"
                 f"->{second.split('->')[1]}")
        # the k-th term's second step, among the terms sharing it
        nth = [t[1][1] for t in gauge._DET_TERMS[:k]].count(second)
        assert np.array_equal(steps[second][nth], _optimal(
            three, bundle.riemann_lower, g_up, g_up))


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
    patch_everywhere(monkeypatch, spin_frame, "THIRD",
                     spin_frame.THIRD * (1.0 + 1e-3))
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
    """The nested chains of 1.7 and 2.7b differentiate the connection term
    with the frame's exact d_mu Gamma_al; with that derivative set to zero
    (and only that), both gates fail."""
    checks = ("eq_1_7_derivative_chain", "eq_2_7b_massless_gradient")
    assert all(_verdicts(schwarzschild, checks).values())
    monkeypatch.setattr(
        spin_frame, "connection_derivative",
        lambda frame: np.zeros((len(frame.coords), 4, 4, 4, 4), dtype=complex))
    assert not any(_verdicts(schwarzschild, checks).values())


def test_scaled_connection_derivative_fails_the_commutator_curvature(
        schwarzschild, frw_dust, monkeypatch):
    """1.8e builds the connection curvature from the frame's exact
    d_mu Gamma_al; scaled by 1 + 1e-6, it no longer matches the spinor
    curvature of the Riemann tensor."""
    check = ("eq_1_8e_commutator_curvature",)
    for spec in (schwarzschild, frw_dust):
        assert all(_verdicts(spec, check).values())
    original = spin_frame.connection_derivative
    monkeypatch.setattr(spin_frame, "connection_derivative",
                        lambda frame: original(frame) * (1.0 + 1e-6))
    for name in ("schwarzschild", "frw_dust"):
        assert not any(_verdicts(load_preset(name), check).values()), name


def test_connection_is_the_omega_form_bit_for_bit():
    """The connection from the Christoffel term alone equals the former
    form, which also carried the tetrad's derivatives through omega
    (``oracles.omega_spin_connection``), bit for bit, on every preset, on
    20 rows and at single Points, for five seeds: for the diagonal tetrad
    that term is diagonal in (a, b), which sigma^{ab} annihilates."""
    for name in PRESET_NAMES:
        spec = load_preset(name)
        for seed in range(1, 6):
            points = points_of(spec, 20, seed=seed)
            rows = np.stack([x.coords for x in points])
            assert np.array_equal(spin_connection(spec, rows),
                                  omega_spin_connection(spec, rows)), name
            for x in points[:2]:
                assert np.array_equal(spin_connection(spec, x),
                                      omega_spin_connection(spec, x)), name


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


#: the checks that read second derivatives: of the fields (the jets'
#: d_mu d_nu) and of the connection (``Frame.dconnection``)
NESTED_CHECKS = (
    "eq_1_7_derivative_chain", "eq_1_8e_commutator_curvature",
    "eq_1_9_commutator_decomposition", "eq_1_10c_curvature_bridge",
    "eq_2_7b_massless_gradient", "eq_2_8c_gauge_criterion")


def test_rolled_outer_rows_fail_the_nested_gates(schwarzschild, frw_dust,
                                                 monkeypatch):
    """The outer derivatives of the nested checks are exact: d_mu of the
    Christoffel term reads the curvature's d_mu Gamma^s_ab, and
    ``Frame.dconnection`` is built from it.  With those rows rolled by one
    row where frames fill their curvature (the Riemann tensor left as it
    is), each of two points reads its neighbour's, and every nested gate
    fails.  The fields' second derivatives enter these identities only
    symmetrized in (mu, nu), so they are not what the gates guard (see
    ``test_scaled_closed_form_jets_fail_the_nested_gates``)."""
    # 2.7b applies on Ricci-flat metrics, 2.8c on the others
    applicable = {"schwarzschild": NESTED_CHECKS[:-1],
                  "frw_dust": NESTED_CHECKS[:-2] + NESTED_CHECKS[-1:]}
    for spec in (schwarzschild, frw_dust):
        assert all(_verdicts(spec, applicable[spec.name]).values())
    original = spin_frame.curvature

    def rolled(spec, x):
        b = original(spec, x)
        return dataclasses.replace(
            b, dchristoffel=np.roll(b.dchristoffel, 1, axis=0))

    monkeypatch.setattr(spin_frame, "curvature", rolled)
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
    patch_everywhere(monkeypatch, spin_frame, "spin_connection",
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
    patch_everywhere(monkeypatch, geometry, "christoffel",
                     _scaled(geometry.christoffel))
    assert not any(_verdicts(load_preset("schwarzschild"), checks).values())
    assert not any(_verdicts(load_preset("frw_dust"),
                             ("eq_1_10c_curvature_bridge",)).values())


def _patch_closed_form_jets(monkeypatch, mutate):
    """Every closed-form sampler built from now on (each family builds
    its ``FieldSampler`` in ``fields``) returns its exact jet through
    ``mutate(out, order)``."""
    original = fields.FieldSampler

    def mutated(jet, kind, name):
        return original(lambda coords, order: mutate(jet(coords, order), order),
                        kind, name)

    monkeypatch.setattr(fields, "FieldSampler", mutated)


#: the nested checks that read the fixtures' second-order jets
JET_CHECKS = ("eq_1_7_derivative_chain", "eq_1_9_commutator_decomposition",
              "eq_1_10c_curvature_bridge")


def test_scaled_closed_form_jets_fail_the_nested_gates(schwarzschild,
                                                      frw_dust, monkeypatch):
    """Every exact jet's mixed second derivatives d_mu d_nu, mu < nu,
    scaled by 1 + 1e-3 where the closed forms are built (as an index
    mix-up or an unsymmetrized coefficient would): d_mu D_nu Psi no longer
    is the derivative of a field, and 1.7, 1.9 and 1.10c fail on both
    metrics (at 20 points, seed 42: 8.8x and 40x, 8.5x and 17x, 13x and
    40x their tolerance on Schwarzschild and dust)."""
    for spec in (schwarzschild, frw_dust):
        assert all(_verdicts(spec, JET_CHECKS).values())
    upper = 1.0 + 1e-3 * np.triu(np.ones((4, 4)), 1)

    def asymmetric(out, order):
        if order < 2:
            return out
        value, d, dd = out
        return value, d, dd * upper.reshape((4, 4) + (1,) * (dd.ndim - 3))

    _patch_closed_form_jets(monkeypatch, asymmetric)
    for name in ("schwarzschild", "frw_dust"):
        rep = run_suite(load_preset(name), n_points=20, seed=42,
                        only=JET_CHECKS)
        for check in rep.checks:
            assert check.max_rel_error > check.tolerance, (name, check.id)


def test_uniformly_scaled_jets_are_refereed_not_gated(schwarzschild,
                                                     monkeypatch):
    """Every exact jet's derivatives of both orders scaled by 1 + 1e-3: the
    nested identities hold for any jet whose second derivatives are
    symmetric (the d Psi and d d Psi terms cancel in pairs), so 1.7, 1.9
    and 1.10c stay at roundoff.  Such a jet is caught by the Richardson
    referee of ``tests/test_fields.py::TestExactJets`` instead."""

    def scaled(out, order):
        value, *derivatives = out
        return (value, *(d * (1.0 + 1e-3) for d in derivatives))

    _patch_closed_form_jets(monkeypatch, scaled)
    rep = run_suite(schwarzschild, n_points=20, seed=42, only=JET_CHECKS)
    for check in rep.checks:
        assert check.max_rel_error < 1e-6 * check.tolerance, check.id


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
    every check reads; the curvature class contracts the Riemann tensor
    itself, so the same checks apply."""
    original = spin_frame.curvature

    def scaled_ricci(spec, x):
        b = original(spec, x)
        return dataclasses.replace(b, ricci=b.ricci * (1.0 + 1e-3))

    monkeypatch.setattr(spin_frame, "curvature", scaled_ricci)


def test_scaled_ricci_keeps_the_curvature_class(anti_de_sitter, frw_dust,
                                                monkeypatch):
    """The class reads no Ricci tensor of the frame: under the mutant each
    preset keeps its class, and with it the checks that run."""
    intact = {spec.name: build_context(spec, 2, seed=5, mass=1.0).met_class
              for spec in (anti_de_sitter, frw_dust)}
    _scale_frame_ricci(monkeypatch)
    for name, met_class in intact.items():
        assert build_context(load_preset(name), 2, seed=5,
                             mass=1.0).met_class == met_class


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

    def scaled_leg(spec, coords):
        gs = original(spec, coords).gammas
        e_upper = gs.tetrad.e_upper.copy()
        e_upper[:, 1] *= 1.0 + 1e-3
        return types.SimpleNamespace(gammas=spin_frame.curved_gammas(
            spin_frame.Tetrad(gs.tetrad.e_lower, e_upper), gs.metric))

    monkeypatch.setattr(fields, "build_frame", scaled_leg)
    assert not any(_verdicts(load_preset("schwarzschild"), check).values())


# ---------------------------------------------------------------------------
# work counts of the nested chains
# ---------------------------------------------------------------------------


def _count_rows(monkeypatch, fields, method="jet"):
    """Rows of each ``jet`` (or ``at``) call on the given samplers."""
    calls = []
    original = getattr(FieldSampler, method)

    def counting(self, coords, *args, **kwargs):
        if any(self is f for f in fields):
            rows = coords.coords if isinstance(coords, Frame) else coords
            calls.append(len(rows))
        return original(self, coords, *args, **kwargs)

    monkeypatch.setattr(FieldSampler, method, counting)
    return calls


def _count_calls(monkeypatch, module, name):
    """Calls of ``module.name`` through every package module binding it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    patch_everywhere(monkeypatch, module, name, counting)
    return calls


def test_derivative_chain_samples_its_fixture_once(schwarzschild,
                                                   monkeypatch):
    """1.7 at one point: one exact second-order ``jet`` call on the point's
    row gives both the residual and the first constraint and their
    derivatives, and the field is sampled nowhere else."""
    fld = trig_field(41, box=schwarzschild.sample_box)
    calls = _count_rows(monkeypatch, [fld])
    at_calls = _count_rows(monkeypatch, [fld], "at")
    x = points_of(schwarzschild, 1, seed=9)[0]
    frame = frame_at(schwarzschild, x)
    jet = rso.covariant_jet(fld, frame)
    rso.derivative_chain(frame, jet.d, jet.dd, jet.psi, jet.dpsi, MASS)
    assert calls == [1]
    assert at_calls == []


def test_contraction_identity_samples_its_fixture_once(schwarzschild,
                                                       monkeypatch):
    """1.6 at one point: both sides share one D_nu Psi, from one exact
    ``jet`` call on the point's row."""
    fld = trig_field(42, box=schwarzschild.sample_box)
    calls = _count_rows(monkeypatch, [fld])
    x = points_of(schwarzschild, 1, seed=9)[0]
    frame = frame_at(schwarzschild, x)
    rso.contraction_identity(frame, *rso.covariant_rows(fld, frame), MASS)
    assert calls == [1]


def test_derivative_chain_shares_one_frame_across_fixtures(schwarzschild,
                                                           monkeypatch):
    """1.7 at one point with 5 fixtures: the context frame, filled once.
    The context is built with its frame and the frame's curvature, which
    the curvature class reads; the Christoffels are then filled by the
    frame and its connection (the curvature's Christoffel derivative feeds
    the connection derivative and the Christoffel term of d_mu D_nu Psi).
    Per fixture one ``jet`` call samples the point's row.  A second run
    builds, fills and samples nothing."""
    ctx = build_context(schwarzschild, 1, seed=9, mass=1.0)
    assert len(ctx.vb_fixtures) == 5
    at_calls = _count_rows(monkeypatch, ctx.vb_fixtures)
    frames = _count_calls(monkeypatch, spin_frame, "build_frame")
    connections = _count_calls(monkeypatch, spin_frame, "spin_connection")
    christoffels = _count_calls(monkeypatch, geometry, "christoffel")
    _, err = identity_suite._chk_derivative_chain(ctx)
    assert err <= identity_suite.TOL_SECOND_ORDER
    assert at_calls == [1] * 5
    assert (len(frames), len(connections), len(christoffels)) == (0, 1, 2)
    identity_suite._chk_derivative_chain(ctx)
    assert (len(frames), len(connections), len(christoffels)) == (0, 1, 2)
    assert at_calls == [1] * 5


def test_chain_checks_sample_each_fixture_once(frw_dust, monkeypatch):
    """At 20 points 1.11a reads its 5 fixtures from the context's one pass
    over its rows (20 rows, one second-order jet call per fixture of the
    stack of 5), and hands that psi to both of its sides.  1.7, 1.9 and
    1.10c read the same pass and sample nothing."""
    ctx = build_context(frw_dust, 20, seed=42, mass=1.0)
    calls = _count_rows(monkeypatch, ctx.vb_fixtures)
    identity_suite._chk_constraint_reduction(ctx)
    assert calls == [20] * 5
    identity_suite._chk_derivative_chain(ctx)
    identity_suite._chk_commutator_decomposition(ctx)
    identity_suite._chk_curvature_bridge(ctx)
    assert calls == [20] * 5


def test_wave_and_traceless_checks_sample_one_stack(minkowski, schwarzschild,
                                                   monkeypatch):
    """1.11b takes its two plane waves' D_nu Psi from one first-order jet
    of their ``FieldStack`` (one ``covariant_rows`` call), and 1.13 its two
    gamma-traceless fields' values from one order-0 jet of theirs; no
    field is sampled on its own."""
    stacks = []
    original = fields.FieldStack.jet

    def recording(self, coords, order=1):
        stacks.append((len(self.members), len(fields.rows_of(coords)), order))
        return original(self, coords, order)

    monkeypatch.setattr(fields.FieldStack, "jet", recording)
    ctx = build_context(minkowski, 20, seed=42, mass=1.0)
    _, errs = identity_suite._chk_divergence_form(ctx)
    assert np.max(errs) <= identity_suite.TOL_FLAT_REDUCTION
    assert stacks == [(2, 20, 1)]
    stacks.clear()
    ctx = build_context(schwarzschild, 20, seed=42, mass=1.0)
    _, errs = identity_suite._chk_vacuum_constraint(ctx)
    assert np.max(errs) <= identity_suite.TOL_FIRST_ORDER
    assert stacks == [(2, 20, 0)]


def test_gamma_contraction_samples_each_fixture_once(frw_dust, monkeypatch):
    """At 20 points 1.6 samples each of its 5 fixtures once, on the
    context rows (20 rows); its scale is the field's value from that
    call."""
    ctx = build_context(frw_dust, 20, seed=42, mass=1.0)
    calls = _count_rows(monkeypatch, ctx.vb_fixtures)
    identity_suite._chk_gamma_contraction(ctx)
    assert calls == [20] * 5


def test_operator_form_samples_each_fixture_once(frw_dust, monkeypatch):
    """At 20 points 1.2a samples each of its 5 fixtures once, on the
    context rows: the block side (one ``rs_residual`` over the stack) and
    the term-by-term side read one D_nu Psi and the field from that
    jet."""
    ctx = build_context(frw_dust, 20, seed=42, mass=1.0)
    calls = _count_rows(monkeypatch, ctx.vb_fixtures)
    residuals = _count_calls(monkeypatch, rso, "rs_residual")
    _, errs = identity_suite._chk_operator_form(ctx)
    assert np.max(errs) <= identity_suite.TOL_ALGEBRAIC
    assert calls == [20] * 5
    assert len(residuals) == 1


def _count_formations(monkeypatch, name):
    """Rows of each GammaSet whose cached product ``name`` is formed."""
    rows = []
    form = GammaSet.__dict__[name].func

    def counting(gs):
        rows.append(len(gs.gamma_down))
        return form(gs)

    prop = functools.cached_property(counting)
    prop.__set_name__(GammaSet, name)
    monkeypatch.setattr(GammaSet, name, prop)
    return rows


def test_suite_builds_each_frames_blocks_once(schwarzschild, monkeypatch):
    """One suite at 20 points forms the operator blocks of one row set,
    once: alpha^nu and beta on its 20-row context frame, which
    ``rs_residual`` (1.2a, 1.6, and 1.7 for the residual and its
    derivative), 2.2, 2.3 and 2.5 (``generic_transform``) and 2.6 all
    read."""
    alphas = _count_formations(monkeypatch, "alpha")
    betas = _count_formations(monkeypatch, "beta")
    rep = run_suite(schwarzschild, n_points=20, seed=42)
    assert rep.passed
    assert alphas == [20]
    assert betas == [20]


def test_suite_builds_the_context_blocks_once(schwarzschild, monkeypatch):
    """2.2, 2.3 and 2.5 (``generic_transform``) and 2.6 take their operator
    blocks from the context frame's GammaSet: every ``build_alpha_beta``
    call of a suite reads that one GammaSet."""
    seen = []
    original = rso.build_alpha_beta

    def recording(gs):
        seen.append(gs)
        return original(gs)

    patch_everywhere(monkeypatch, rso, "build_alpha_beta", recording)
    rep = run_suite(schwarzschild, n_points=4, seed=42)
    assert rep.passed
    assert seen
    assert all(gs is rep.ctx.frame.gammas for gs in seen)


def test_suite_forms_the_curvature_forms_once(frw_dust, monkeypatch):
    """One suite calls ``curvature_commutator`` and ``chain_rhs`` once
    each, on the whole fixture stack (``SuiteContext.curvature_forms``),
    which 1.7, 1.9 and 1.11a read."""
    calls = {"curvature_commutator": [], "chain_rhs": []}
    for name, seen in calls.items():
        original = getattr(rso, name)

        def counting(frame, psi, *rest, seen=seen, original=original):
            seen.append(psi.shape[-1])
            return original(frame, psi, *rest)

        monkeypatch.setattr(rso, name, counting)
    assert run_suite(frw_dust, n_points=20, seed=42).passed
    assert calls == {name: [identity_suite.FIXTURE_COUNT] for name in calls}


#: the checks on the vector-bispinor fixtures, which read
#: ``SuiteContext.fixture_rows`` and the curvature forms of its Psi
FIXTURE_CHECKS = ("eq_1_2a_operator_form", "eq_1_6_gamma_contraction",
                  "eq_1_7_derivative_chain", "eq_1_9_commutator_decomposition",
                  "eq_1_10c_curvature_bridge", "eq_1_11a_constraint_reduction",
                  "eq_1_14b_constraint_factor")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_fixture_checks_read_every_fixture(name):
    """NaN in any one fixture k of a context's ``fixture_rows`` gives a NaN
    error at every point of every check on the fixtures that applies to
    the metric: each check reads every fixture of the stack, and the
    curvature forms are formed on all of them."""
    spec = load_preset(name)
    for k in range(identity_suite.FIXTURE_COUNT):
        ctx = build_context(spec, 20, seed=3, mass=1.0)
        poisoned = [a.copy() for a in ctx.fixture_rows]
        for a in poisoned:
            a[..., k] = np.nan
        ctx.fixture_rows = rso.CovariantJet(*poisoned)
        run = [d for d in identity_suite.REGISTRY
               if d.id in FIXTURE_CHECKS and d.applies(ctx.met_class)]
        assert {d.id for d in run} >= set(FIXTURE_CHECKS[:6])
        finite = [d.id for d in run if not np.isnan(d.runner(ctx)[1]).all()]
        assert finite == [], k


def test_scaled_curvature_commutator_fails_the_curvature_form_gates(
        de_sitter, frw_dust, monkeypatch):
    """The curvature form of [D_al, D_be] Psi and its spinor curvature
    scaled by 1 + 1e-3 where they are formed: 1.9 compares the form with
    the antisymmetrised jet, and 1.7 and 1.11a read it through
    ``chain_rhs``; all three fail.  (Where the Ricci tensor vanishes, as
    on Schwarzschild, the chain's curvature terms do too, and only 1.9
    sees the mutant.)"""
    checks = ("eq_1_9_commutator_decomposition", "eq_1_7_derivative_chain",
              "eq_1_11a_constraint_reduction")
    for spec in (de_sitter, frw_dust):
        assert all(_verdicts(spec, checks).values())
    original = rso.curvature_commutator

    def scaled(frame, psi):
        return tuple(a * (1.0 + 1e-3) for a in original(frame, psi))

    monkeypatch.setattr(rso, "curvature_commutator", scaled)
    for name in ("de_sitter_static", "frw_dust"):
        assert not any(_verdicts(load_preset(name), checks).values()), name


def test_massless_gradient_takes_one_outer_derivative(schwarzschild,
                                                      monkeypatch):
    """2.7b at one point with 3 fixtures: per fixture the gradient field's
    first-order jet on the point's row is one ``covariant_derivative``
    call, which takes one exact second-order jet of psi there; no stencil
    row is sampled."""
    calls = []
    original = rso.covariant_derivative

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    jets = []
    original_jet = FieldSampler.jet

    def counting_jet(self, coords, order=1):
        jets.append((self.kind, len(coords.coords), order))
        return original_jet(self, coords, order)

    monkeypatch.setattr(rso, "covariant_derivative", counting)
    monkeypatch.setattr(gauge, "covariant_derivative", counting)
    monkeypatch.setattr(FieldSampler, "jet", counting_jet)
    rep = run_suite(schwarzschild, n_points=1, seed=3,
                    only=("eq_2_7b_massless_gradient",))
    assert len(rep.ctx.sp_fixtures) == 3
    assert rep.checks[0].passed
    assert len(calls) == 3
    assert jets == [(VECTOR_BISPINOR, 1, 1), (BISPINOR, 1, 2)] * 3


@pytest.mark.parametrize("name, traceless_frames",
                         [("schwarzschild", 2), ("frw_dust", 0)])
def test_suite_builds_no_frame_beyond_the_context(name, traceless_frames,
                                                  monkeypatch):
    """One suite at n = 20 points builds the context frame and, on
    Ricci-flat metrics, the two gamma-traceless fixture frames of 1.13; no
    frame has more rows than the context.  Each jet evaluates an order it
    uses in one call over all of its rows, and the metric is evaluated once
    per jet row and order used:
      order 0: n + 8 n + n per fixture frame,
      orders 1 and 2: n,
    with order 0 at the 8 shifted points of each point's 1.4.  The
    curvature class reads the context frame and evaluates nothing of its
    own."""
    spec = load_preset(name)
    evals = {0: 0, 1: 0, 2: 0}
    calls = []  # (order, rows) per call, holding the rows so ids stay unique
    original = spec.component_fn

    def counting(x, order=0):
        evals[order] += len(x)
        calls.append((order, x))
        return original(x, order)

    spec.component_fn = counting
    sizes = []
    original_build = spin_frame.build_frame

    def recording(spec, coords):
        frame = original_build(spec, coords)
        sizes.append(len(frame.coords))
        return frame

    patch_everywhere(monkeypatch, spin_frame, "build_frame", recording)
    rep = run_suite(spec, n_points=20, seed=42)
    n = 20
    assert rep.passed
    assert sizes == [n] * (1 + traceless_frames)
    assert evals == {0: n + 8 * n + traceless_frames * n, 1: n, 2: n}
    per_jet = [(order, id(rows)) for order, rows in calls]
    assert len(per_jet) == len(set(per_jet))


@pytest.mark.parametrize("name", ("schwarzschild", "frw_dust"))
def test_suite_samples_each_fixture_in_one_pass(name, monkeypatch):
    """One suite at n = 20 points samples each of its 5 vector-bispinor
    fixtures once, by one exact second-order jet call in the one pass over
    the fixture stack on the context rows, which 1.2a, 1.6, 1.7, 1.9,
    1.10c, 1.11a and 1.14b share.  No check samples a fixture's values
    apart from its jet."""
    fixtures = []
    original = identity_suite.fixture_family

    def recording(seed, count, kind=VECTOR_BISPINOR, box=None):
        family = original(seed, count, kind, box)
        if kind == VECTOR_BISPINOR:
            fixtures.extend(family)
        return family

    monkeypatch.setattr(identity_suite, "fixture_family", recording)
    calls = _count_rows(monkeypatch, fixtures)
    at_calls = _count_rows(monkeypatch, fixtures, "at")
    rep = run_suite(load_preset(name), n_points=20, seed=42)
    assert rep.passed
    assert len(fixtures) == identity_suite.FIXTURE_COUNT == 5
    assert calls == [20] * 5
    assert at_calls == []
