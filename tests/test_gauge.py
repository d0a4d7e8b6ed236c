"""Gradient solutions, the Einstein-tensor criterion, and the double-eps
contraction."""

import numpy as np
import pytest

from curved_rs.fields import (
    BISPINOR,
    plane_wave,
    polynomial_field,
    trig_field,
)
from curved_rs.gauge import (
    C0,
    epsilon_contraction_check,
    gauge_criterion,
    gradient_residual,
    gradient_sampler,
    massless_residual,
)
from curved_rs.geometry import curvature, eval_metric
from curved_rs.rs_operator import (covariant_derivative, covariant_jet,
                                   covariant_rows)
from curved_rs.spin_frame import build_frame, gamma_set_at, spin_connection

from conftest import frame_at, points_of
from oracles import (
    FitDegenerate,
    constant_field,
    fit_prediction_constant,
    stencil_sampler,
    unitary_transform_gammas,
)


class TestGradientField:
    def test_constant_bispinor_flat(self, minkowski):
        psi = constant_field(np.array([1.0, 2.0, 3.0, 4.0]), BISPINOR)
        out = covariant_derivative(
            psi, frame_at(minkowski, minkowski.point(0, 1, 2, 3)))
        assert np.max(np.abs(out)) < 1e-14

    def test_plane_wave_analytic(self, minkowski):
        k = np.array([0.8, -0.2, 0.3, 0.1])
        u = np.array([1.0, 1j, -0.5, 0.25])
        psi = plane_wave(k, u, BISPINOR)
        x = minkowski.point(0.4, 0.1, 0.2, -0.3)
        out = covariant_derivative(psi, frame_at(minkowski, x))[0]
        expected = 1j * np.einsum("b,s->bs", k, psi(x))
        assert np.max(np.abs(out - expected)) < 1e-8 * np.max(np.abs(expected))

    def test_constant_bispinor_curved_gives_connection_term(self, schwarzschild):
        values = np.array([1.0, -2.0, 0.5j, 1.5])
        psi = constant_field(values, BISPINOR)
        x = schwarzschild.point(0.0, 4.5, 1.2, 0.6)
        out = covariant_derivative(psi, frame_at(schwarzschild, x))[0]
        G = spin_connection(schwarzschild, x)
        expected = np.einsum("bij,j->bi", G, values)
        assert np.max(np.abs(out - expected)) < 1e-9


class TestMasslessResidual:
    def test_flat_gradient_exact_zero_structure(self, minkowski):
        # eps-antisymmetrized second partials cancel
        psi = polynomial_field(31, kind=BISPINOR, box=minkowski.sample_box)
        grad = gradient_sampler(psi, minkowski)
        for x in points_of(minkowski, 3):
            res = massless_residual(grad, frame_at(minkowski, x))
            assert np.max(np.abs(res)) < 1e-8

    def test_ricci_flat_gradient_within_budget(self, schwarzschild):
        psi = trig_field(32, kind=BISPINOR, box=schwarzschild.sample_box)
        grad = gradient_sampler(psi, schwarzschild)
        for x in points_of(schwarzschild, 4):
            frame = frame_at(schwarzschild, x)
            res = massless_residual(grad, frame)
            scale = gradient_residual(psi, frame)[1][0]
            assert np.max(np.abs(res)) < 1e-5 * scale

    def test_nonvacuum_gradient_not_a_solution(self, frw_dust):
        psi = polynomial_field(33, kind=BISPINOR, box=frw_dust.sample_box)
        grad = gradient_sampler(psi, frw_dust)
        frame = frame_at(frw_dust, frw_dust.point(1.0, 0.2, -0.3, 0.5))
        res = massless_residual(grad, frame)
        scale = gradient_residual(psi, frame)[1][0]
        assert np.max(np.abs(res)) > 1e-2 * scale

    def test_linearity(self, schwarzschild, rng):
        psis = [trig_field(s, kind=BISPINOR, box=schwarzschild.sample_box)
                for s in (41, 42)]
        c1, c2 = 0.7 - 0.2j, -1.3 + 0.4j
        combo = stencil_sampler(
            lambda rows: c1 * psis[0].at(rows) + c2 * psis[1].at(rows),
            BISPINOR)
        frame = frame_at(schwarzschild, schwarzschild.point(0.1, 5.0, 1.4, 1.0))
        direct_combo = massless_residual(
            gradient_sampler(combo, schwarzschild), frame)
        parts = [
            massless_residual(gradient_sampler(p, schwarzschild), frame)
            for p in psis
        ]
        # linearity is exact over the FD core; measure against the
        # derivative scale, not the (vanishing) residual
        scale = max(gradient_residual(p, frame)[1][0] for p in psis)
        assert np.max(np.abs(direct_combo - c1 * parts[0] - c2 * parts[1])) \
            < 1e-10 * scale


class TestGaugeCriterion:
    def test_minkowski_both_zero(self, minkowski):
        psi = polynomial_field(51, kind=BISPINOR, box=minkowski.sample_box)
        for x in points_of(minkowski, 3):
            direct, predicted = gauge_criterion(psi, frame_at(minkowski, x))
            assert np.max(np.abs(predicted)) < 1e-9
            assert np.max(np.abs(direct)) < 1e-7

    def test_schwarzschild_twenty_points(self, schwarzschild):
        psis = [polynomial_field(52, kind=BISPINOR, box=schwarzschild.sample_box),
                trig_field(53, kind=BISPINOR, box=schwarzschild.sample_box)]
        for x in points_of(schwarzschild, 20, seed=5):
            for psi in psis:
                frame = frame_at(schwarzschild, x)
                direct, predicted = gauge_criterion(psi, frame)
                scale = gradient_residual(psi, frame)[1][0]
                assert np.max(np.abs(direct)) < 1e-5 * scale
                assert np.max(np.abs(predicted)) < 1e-5 * scale

    def test_frw_matches_prediction(self, frw_dust):
        psi = polynomial_field(54, kind=BISPINOR, box=frw_dust.sample_box)
        for x in points_of(frw_dust, 5):
            direct, predicted = gauge_criterion(psi, frame_at(frw_dust, x))
            denom = np.max(np.abs(predicted))
            assert denom > 1e-6
            assert np.max(np.abs(direct - predicted)) < 1e-4 * denom

    @pytest.mark.parametrize("preset", ["de_sitter", "anti_de_sitter"])
    def test_einstein_presets_match_prediction(self, preset, request):
        spec = request.getfixturevalue(preset)
        psi = trig_field(55, kind=BISPINOR, box=spec.sample_box)
        for x in points_of(spec, 3):
            direct, predicted = gauge_criterion(psi, frame_at(spec, x))
            denom = np.max(np.abs(predicted))
            assert np.max(np.abs(direct - predicted)) < 1e-4 * denom

    def test_constant_regression(self, frw_dust):
        # the frozen constant is reproduced by a fresh fit
        psi = polynomial_field(56, kind=BISPINOR, box=frw_dust.sample_box)
        fitted = fit_prediction_constant(
            psi, frame_at(frw_dust, frw_dust.point(1.1, 0.2, 0.1, -0.4)))
        assert fitted == pytest.approx(C0, abs=1e-6)
        assert C0 == 0.5

    def test_fit_degenerate_on_flat(self, minkowski):
        psi = polynomial_field(57, kind=BISPINOR, box=minkowski.sample_box)
        with pytest.raises(FitDegenerate):
            fit_prediction_constant(
                psi, frame_at(minkowski, minkowski.point(0.1, 0.2, 0.3, 0.4)))

    def test_representation_independence(self, frw_dust, rng):
        # a constant unitary change of the flat representation conjugates
        # every bispinor object: the criterion pair built from rotated
        # pieces equals U (default pair), so every zero/nonzero verdict is
        # representation independent, with the rotated gradient field's
        # derivative from its first- or second-order stencil jet

        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(h)
        flat = unitary_transform_gammas(q)

        spec = frw_dust
        psi = polynomial_field(58, kind=BISPINOR, box=spec.sample_box)
        x = spec.point(1.2, 0.1, 0.3, -0.2)

        def rotated_pair(second_order):
            # gradient field of U psi with the rotated connection U G U+
            def grad_rot(rows):
                d = covariant_derivative(psi, build_frame(spec, rows))
                return np.einsum("ij,xbj->xbi", q, d)

            grad = stencil_sampler(grad_rot)
            gs = gamma_set_at(spec, x, flat=flat)
            g_rot = np.einsum("ij,ajk,kl->ail",
                              q, spin_connection(spec, x), q.conj().T)
            frame = frame_at(spec, x)
            raw = (covariant_jet(grad, frame).christ if second_order else
                   covariant_rows(grad, frame, include_spin=False)[0])[0]
            d = raw + np.einsum("nij,bj->nbi", g_rot, grad(spec.point(*x.coords)))
            eps_mixed = np.einsum("rl,lnsm->rnsm", gs.metric.g_lower,
                                  gs.eps_upper)
            direct = 1j * np.einsum("ij,rnsm,mjk,nsk->ri", gs.gamma5,
                                    eps_mixed, gs.gamma_down, d)
            bundle = curvature(spec, x)
            predicted = C0 * np.einsum(
                "rb,bij,j->ri", bundle.einstein, gs.gamma_up,
                q @ psi(x))
            return direct, predicted

        direct0, predicted0 = (a[0] for a in gauge_criterion(
            psi, frame_at(spec, x)))
        for second_order in (False, True):
            direct1, predicted1 = rotated_pair(second_order)
            assert np.max(np.abs(
                direct1 - np.einsum("ij,bj->bi", q, direct0))) \
                < 1e-8 * max(np.max(np.abs(direct0)), 1e-6)
            assert np.max(np.abs(predicted1
                                 - np.einsum("ij,bj->bi", q, predicted0))) \
                < 1e-10 * max(np.max(np.abs(predicted0)), 1e-6)
            # norms (hence verdicts) coincide
            assert np.linalg.norm(direct1) == pytest.approx(
                np.linalg.norm(direct0), rel=1e-8)


class TestEpsilonContraction:
    def test_flat_everything_zero(self, minkowski):
        rep = epsilon_contraction_check(
            frame_at(minkowski, minkowski.point(0.1, 0.2, 0.3, 0.4)))
        assert np.max(np.abs(rep["raw"])) < 1e-9
        assert np.max(np.abs(rep["det_expanded"])) < 1e-9

    def test_determinant_matches_raw(self, schwarzschild):
        for x in points_of(schwarzschild, 4):
            rep = epsilon_contraction_check(frame_at(schwarzschild, x))
            scale = max(np.max(np.abs(rep["raw"])), 1e-3)
            assert np.max(np.abs(rep["raw"] - rep["sign"]
                                 * rep["det_expanded"])) < 1e-8 * scale

    def test_reduces_to_einstein_combination(self, frw_dust, de_sitter):
        for spec in (frw_dust, de_sitter):
            for x in points_of(spec, 3):
                rep = epsilon_contraction_check(frame_at(spec, x))
                scale = max(np.max(np.abs(rep["raw"])), 1e-3)
                assert np.max(np.abs(
                    rep["raw"] - rep["einstein_combination"])) < 1e-8 * scale

    def test_de_sitter_einstein_tensor_shape(self, de_sitter):
        # on the Einstein presets G = -(R/4) g
        x = de_sitter.point(0.0, 0.5, 1.2, 0.9)
        b = curvature(de_sitter, x)
        g = eval_metric(de_sitter, x).g_lower
        assert np.max(np.abs(b.einstein + b.scalar / 4.0 * g)) < 1e-8
