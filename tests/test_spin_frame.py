"""Tetrads, position-dependent Dirac matrices, and the bispinor connection."""

import numpy as np
import pytest

from curved_rs.errors import SignatureError
from curved_rs.geometry import ETA, curvature, eval_metric
from curved_rs.numerics import partial4
from curved_rs.spin_frame import (
    GAMMA5,
    GAMMA_FLAT,
    SIGMA_FLAT,
    build_tetrad,
    connection_curvature,
    curved_gammas,
    gamma_set_at,
    spin_connection,
    spinor_commutator_curvature,
)

from conftest import frame_at, points_of
from oracles import unitary_transform_gammas


class TestFlatMatrices:
    def test_clifford_algebra(self):
        for a in range(4):
            for b in range(4):
                anti = GAMMA_FLAT[a] @ GAMMA_FLAT[b] + GAMMA_FLAT[b] @ GAMMA_FLAT[a]
                assert np.allclose(anti, 2.0 * ETA[a, b] * np.eye(4))

    def test_gamma5(self):
        assert np.allclose(GAMMA5, np.diag([-1, -1, 1, 1]))
        assert np.allclose(GAMMA5 @ GAMMA5, np.eye(4))
        for a in range(4):
            assert np.allclose(GAMMA5 @ GAMMA_FLAT[a] + GAMMA_FLAT[a] @ GAMMA5, 0)

    def test_sigma_traceless_antisymmetric(self):
        assert np.allclose(SIGMA_FLAT, -SIGMA_FLAT.transpose(1, 0, 2, 3))
        assert np.allclose(np.einsum("abii->ab", SIGMA_FLAT), 0)


class TestTetrad:
    def test_minkowski_identity(self, minkowski):
        m = eval_metric(minkowski, minkowski.point(0, 0, 0, 0))
        t = build_tetrad(m)
        assert np.allclose(t.e_lower, np.eye(4))
        assert np.allclose(t.e_upper, np.eye(4))

    def test_diagonal_rule_value(self, schwarzschild):
        m = eval_metric(schwarzschild, schwarzschild.point(0.0, 4.0, 1.0, 0.0))
        t = build_tetrad(m)
        assert t.e_lower[0, 0] == pytest.approx(np.sqrt(0.5))

    def test_reconstruction_and_duality(self, all_presets):
        for spec in all_presets:
            for x in points_of(spec, 3):
                m = eval_metric(spec, x)
                t = build_tetrad(m)
                rebuilt = np.einsum("am,ab,bn->mn", t.e_lower, ETA, t.e_lower)
                assert np.max(np.abs(rebuilt - m.g_lower)) < 1e-10 * max(
                    1.0, np.max(np.abs(m.g_lower)))
                assert np.allclose(
                    np.einsum("am,bm->ab", t.e_lower, t.e_upper), np.eye(4),
                    atol=1e-10)
                assert np.allclose(
                    np.einsum("am,an->mn", t.e_lower, t.e_upper), np.eye(4),
                    atol=1e-10)

    def test_euclidean_signature_rejected(self):
        from curved_rs.geometry import MetricAtPoint

        g = np.diag([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(SignatureError):
            build_tetrad(MetricAtPoint(g, np.linalg.inv(g), float(np.linalg.det(g))))

    def test_non_diagonal_metric_rejected(self):
        # every metric is diagonal; the diagonal gauge would be wrong on
        # any other, so the builder refuses it
        from curved_rs.geometry import MetricAtPoint

        g = np.diag([1.0, -1.0, -1.0, -1.0]).astype(float)
        g[1, 2] = g[2, 1] = 0.1
        m = MetricAtPoint(g, np.linalg.inv(g), float(np.linalg.det(g)))
        with pytest.raises(ValueError, match="diagonal"):
            build_tetrad(m)


class TestCurvedGammas:
    def test_minkowski_reduces_to_flat(self, minkowski):
        gs = gamma_set_at(minkowski, minkowski.point(0, 0, 0, 0))
        assert np.allclose(gs.gamma_up, GAMMA_FLAT)

    def test_anticommutator_everywhere(self, all_presets):
        for spec in all_presets:
            for x in points_of(spec, 3):
                gs = gamma_set_at(spec, x)
                anti = np.einsum("aij,bjk->abik", gs.gamma_up, gs.gamma_up)
                anti = anti + anti.transpose(1, 0, 2, 3)
                target = 2.0 * np.einsum(
                    "ab,ij->abij", gs.metric.g_upper, np.eye(4))
                assert np.max(np.abs(anti - target)) < 1e-10 * max(
                    1.0, np.max(np.abs(gs.metric.g_upper)))

    def test_gamma_contraction_is_four(self, de_sitter):
        for x in points_of(de_sitter, 3):
            gs = gamma_set_at(de_sitter, x)
            tr = np.einsum("aij,ajk->ik", gs.gamma_up, gs.gamma_down)
            assert np.max(np.abs(tr - 4.0 * np.eye(4))) < 1e-10

    def test_product_splits_into_metric_and_sigma(self, frw_dust):
        for x in points_of(frw_dust, 3):
            gs = gamma_set_at(frw_dust, x)
            prod = np.einsum("aij,bjk->abik", gs.gamma_up, gs.gamma_up)
            target = (
                np.einsum("ab,ij->abij", gs.metric.g_upper, np.eye(4))
                + 2.0 * gs.sigma_curved
            )
            assert np.max(np.abs(prod - target)) < 1e-12

    def test_triple_product_expansion(self, schwarzschild):
        for x in points_of(schwarzschild, 2):
            gs = gamma_set_at(schwarzschild, x)
            g_up = gs.metric.g_upper
            for a in range(4):
                for b in range(4):
                    for r in range(4):
                        lhs = gs.gamma_up[a] @ gs.gamma_up[b] @ gs.gamma_up[r]
                        rhs = (
                            gs.gamma_up[a] * g_up[b, r]
                            - gs.gamma_up[b] * g_up[a, r]
                            + gs.gamma_up[r] * g_up[a, b]
                            + 1j * gs.gamma5 @ np.einsum(
                                "s,sij->ij",
                                gs.eps_upper[a, b, r], gs.gamma_down)
                        )
                        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(
                            1.0, np.max(np.abs(lhs)))

    def test_hermiticity_relation(self, de_sitter):
        for x in points_of(de_sitter, 3):
            gs = gamma_set_at(de_sitter, x)
            g0 = gs.gamma_flat[0]
            for b in range(4):
                assert np.max(np.abs(
                    gs.gamma_up[b].conj().T - g0 @ gs.gamma_up[b] @ g0
                )) < 1e-12 * max(1.0, np.max(np.abs(gs.gamma_up)))

    def test_custom_representation_keeps_algebra(self, schwarzschild, rng):
        # a random unitary change of the flat representation
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(h)
        flat = unitary_transform_gammas(q)
        x = schwarzschild.point(0.0, 4.5, 1.2, 0.7)
        m = eval_metric(schwarzschild, x)
        gs = curved_gammas(build_tetrad(m), m, flat=flat)
        anti = np.einsum("aij,bjk->abik", gs.gamma_up, gs.gamma_up)
        anti = anti + anti.transpose(1, 0, 2, 3)
        target = 2.0 * np.einsum("ab,ij->abij", m.g_upper, np.eye(4))
        assert np.max(np.abs(anti - target)) < 1e-10


class TestSpinConnection:
    def test_flat_cartesian_vanishes(self, minkowski):
        G = spin_connection(minkowski, minkowski.point(0.3, 0.1, -0.2, 0.5))
        assert np.max(np.abs(G)) == 0.0
        assert G.shape == (4, 4, 4) and not G.flags.writeable

    def test_spherical_flat_nonzero_but_flat_curvature(self, minkowski_spherical):
        x = minkowski_spherical.point(0.0, 2.5, 1.1, 0.7)
        G = spin_connection(minkowski_spherical, x)
        assert np.max(np.abs(G[2])) > 1e-3  # Gamma_theta
        assert np.max(np.abs(G[3])) > 1e-3  # Gamma_phi
        fd = connection_curvature(frame_at(minkowski_spherical, x))
        assert np.max(np.abs(fd)) < 1e-7

    def test_traceless_and_hermiticity(self, all_presets):
        g0 = GAMMA_FLAT[0]
        for spec in all_presets:
            for x in points_of(spec, 2):
                G = spin_connection(spec, x)
                for a in range(4):
                    assert abs(np.trace(G[a])) < 1e-12 * max(
                        1.0, np.max(np.abs(G)))
                    herm = G[a].conj().T @ g0 + g0 @ G[a]
                    assert np.max(np.abs(herm)) < 1e-12 * max(
                        1.0, np.max(np.abs(G)))

    def test_covariant_constancy_of_gammas(self, schwarzschild, de_sitter):
        from curved_rs.geometry import christoffel

        for spec in (schwarzschild, de_sitter):
            for x in points_of(spec, 3):
                gam = christoffel(spec, x)
                gs = gamma_set_at(spec, x)
                G = spin_connection(spec, x)

                d = partial4(lambda rows: gamma_set_at(spec, rows).gamma_up,
                             x.coords)
                for s in range(4):
                    for r in range(4):
                        val = (
                            d[s, r]
                            + np.einsum("l,lij->ij", gam[r, s, :], gs.gamma_up)
                            + G[s] @ gs.gamma_up[r]
                            - gs.gamma_up[r] @ G[s]
                        )
                        assert np.max(np.abs(val)) < 1e-6

    def test_commutator_equals_curvature_form(self, schwarzschild, de_sitter):
        # d Gamma - d Gamma + [Gamma, Gamma] vs 1/2 sigma^{nu mu} R_{mu nu be al}
        for spec in (schwarzschild, de_sitter):
            for x in points_of(spec, 4):
                frame = frame_at(spec, x)
                alg = spinor_commutator_curvature(frame)[0]
                fd = connection_curvature(frame)[0]
                scale = max(np.max(np.abs(alg)), 1e-3)
                assert np.max(np.abs(alg - fd)) < 1e-8 * scale
                assert np.max(np.abs(alg + alg.transpose(1, 0, 2, 3))) < 1e-12

    def test_sigma_ricci_contraction(self, de_sitter):
        # -1/2 gamma^al sigma^{mu nu} R_{mu nu al be} = -1/2 gamma^nu R_{nu be}
        for x in points_of(de_sitter, 3):
            gs = gamma_set_at(de_sitter, x)
            b = curvature(de_sitter, x)
            lhs = -0.5 * np.einsum(
                "aij,mnjk,mnab->bik", gs.gamma_up, gs.sigma_curved,
                b.riemann_lower)
            rhs = -0.5 * np.einsum("nij,nb->bij", gs.gamma_up, b.ricci)
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(
                np.max(np.abs(rhs)), 1e-3)

    def test_sigma_commutator_relation(self, schwarzschild):
        x = schwarzschild.point(0.0, 5.0, 1.3, 2.0)
        gs = gamma_set_at(schwarzschild, x)
        for sig, g in ((SIGMA_FLAT, ETA), (gs.sigma_curved, gs.metric.g_upper)):
            comm = np.einsum("abij,mnjk->abmnik", sig, sig)
            comm = comm - comm.transpose(2, 3, 0, 1, 4, 5)
            target = (
                np.einsum("ma,nbij->abmnij", g, sig)
                - np.einsum("mb,naij->abmnij", g, sig)
                - np.einsum("na,mbij->abmnij", g, sig)
                + np.einsum("nb,maij->abmnij", g, sig)
            )
            assert np.max(np.abs(comm - target)) < 1e-12 * max(
                1.0, np.max(np.abs(g)))
