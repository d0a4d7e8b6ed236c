"""Operator assembly, residuals, constraints, and the C/S transformation."""

import numpy as np
import pytest

from curved_rs.errors import InvalidTransform
from curved_rs.fields import (
    BISPINOR,
    VECTOR_BISPINOR,
    flat_rs_plane_wave,
    gamma_traceless_field,
    plane_wave,
    polynomial_field,
    trig_field,
)
from curved_rs.geometry import christoffel
from curved_rs.numerics import STENCIL_POLICY, fd_step, partial4
from curved_rs.rs_operator import (
    BlockMatrix16,
    MassParam,
    bridge_commutator,
    build_alpha_beta,
    chain_rhs,
    constraint_two,
    contraction_identity,
    covariant_derivative,
    covariant_jet,
    covariant_rows,
    curvature_commutator,
    derivative_chain,
    einstein_space_factor,
    flat_reduction_check,
    gamma_pair_block,
    ricci_contraction,
    rs_residual,
    second_covariant_comm,
    tilde_closed_form,
    transform_CS,
    transform_printed,
    beta_tilde_eps_form,
)
from curved_rs.spin_frame import (THIRD, build_frame, gamma_set_at,
                                  spin_connection)

from conftest import first_constraint, frame_at, points_of
from oracles import apply_blocks, constant_field, richardson, stencil_sampler

MASS = MassParam(1.0)


def chain_pair(fld, frame):
    """1.7: the derivative chain and its curvature form."""
    jet = covariant_jet(fld, frame)
    psi = fld.at(frame)
    return (derivative_chain(frame, jet.d, jet.dd, jet.psi, jet.dpsi, MASS),
            chain_rhs(frame, psi, MASS, curvature_commutator(frame, psi)))


def commutator_pair(fld, frame):
    """1.9: [D_al, D_be] Psi from the second-order jet and its curvature
    form."""
    jet = covariant_jet(fld, frame)
    return (second_covariant_comm(frame, jet.d, jet.dd),
            curvature_commutator(frame, fld.at(frame))[0])


def bridge_pair(fld, frame):
    """1.10c: the bridge commutator and the Ricci contraction."""
    jet = covariant_jet(fld, frame)
    return (bridge_commutator(frame, jet.christ, jet.dchrist),
            ricci_contraction(frame, fld.at(frame)))


def residual_term_oracle(fld, spec, x, mass):
    """Term-by-term evaluation of the wave equation, independent of the
    block assembly."""
    gs = gamma_set_at(spec, x)
    d = covariant_derivative(fld, frame_at(spec, x))[0]
    psi = fld(x)
    gu, g_up = gs.gamma_up, gs.metric.g_upper
    t1 = np.einsum("aij,asj->si", gu, d) + mass.kappa * psi
    t2 = -(1.0 / 3.0) * (
        np.einsum("bij,sbj->si", gu, d)
        + np.einsum("sij,nb,nbj->si", gs.gamma_down, g_up, d)
    )
    inner = np.einsum("aij,bjk,abk->i", gu, gu, d) - mass.kappa * np.einsum(
        "bij,bj->i", gu, psi)
    t3 = (1.0 / 3.0) * np.einsum("sij,j->si", gs.gamma_down, inner)
    return t1 + t2 + t3


class TestMassParam:
    def test_default_kappa(self):
        m = MassParam(2.0)
        assert m.kappa == 2.0j
        assert m.kappa**2 == pytest.approx(-4.0)

    def test_override(self):
        m = MassParam(1.0, kappa=0.5)
        assert m.kappa == 0.5

    def test_negative_mass_rejected(self):
        for m in (-1.0, float("nan"), float("inf"), 1e200):
            with pytest.raises(ValueError):
                MassParam(m)

    def test_mass_squared_is_bounded(self):
        """m^2 <= 1e300: 1e150 is a mass, 1e151 (whose square still is
        finite) is not."""
        assert MassParam(1e150).m == 1e150
        with pytest.raises(ValueError, match=r"m\^2 <= 1e\+300"):
            MassParam(1e151)


class TestCovariantDerivative:
    def test_constant_bispinor_flat(self, minkowski):
        f = constant_field(np.array([1, 2j, -1, 0.5]), BISPINOR)
        d = covariant_derivative(
            f, frame_at(minkowski, minkowski.point(0, 0, 0, 0)))[0]
        assert np.max(np.abs(d)) < 1e-14

    def test_plane_wave_analytic(self, minkowski):
        k = np.array([0.7, -0.3, 0.2, 0.5])
        amp = np.arange(1, 17, dtype=complex).reshape(4, 4)
        f = plane_wave(k, amp, VECTOR_BISPINOR)
        x = minkowski.point(0.3, 0.1, -0.4, 0.2)
        d = covariant_derivative(f, frame_at(minkowski, x))[0]
        expected = 1j * np.einsum("n,bs->nbs", k, f(x))
        assert np.max(np.abs(d - expected)) < 1e-8 * np.max(np.abs(expected))

    def test_constant_field_curved_terms(self, schwarzschild):
        values = (np.arange(16) + 1j).reshape(4, 4)
        f = constant_field(values, VECTOR_BISPINOR)
        x = schwarzschild.point(0.0, 4.0, 1.2, 0.7)
        d = covariant_derivative(f, frame_at(schwarzschild, x))[0]
        gam = christoffel(schwarzschild, x)
        G = spin_connection(schwarzschild, x)
        expected = -np.einsum("lnb,li->nbi", gam, values) + np.einsum(
            "nij,bj->nbi", G, values)
        assert np.max(np.abs(d - expected)) < 1e-9



def stencil_oracle(field, spec, x, richardson_step=False):
    """Per-axis partial4 derivative (or, with ``richardson_step``, the
    Richardson derivative of ``oracles.richardson``) plus connection terms:
    the pre-batch evaluation of covariant_derivative."""
    if richardson_step:
        d = richardson(field.at, x.coords[None, :])[0][0]
    else:
        d = partial4(field.at, x.coords)
    value = field(x)
    G = spin_connection(spec, x)
    if field.kind == BISPINOR:
        return d + np.einsum("nij,j->ni", G, value)
    gam = christoffel(spec, x)
    return (d - np.einsum("lnb,li->nbi", gam, value)
            + np.einsum("nij,bj->nbi", G, value))


class TestBatchedStencil:
    def test_step_policy_table(self):
        """The one step, max(1e-5, 1e-5 |x|) per coordinate: ``partial4``
        calls its function once, on every row shifted along each x^mu
        alone, by that step, + and -, and the reports name it."""
        x = np.array([[0.5, 4.0, -2.5, 0.3], [3.0, 0.1, 0.2, -7.0]])
        h = fd_step(x, 1e-5)
        assert np.array_equal(h, 1e-5 * np.maximum(1.0, np.abs(x)))
        shifted = []

        def record(rows):
            shifted.append(rows.copy())
            return rows

        partial4(record, x)
        assert len(shifted) == 1 and shifted[0].shape == (16, 4)
        rows = shifted[0].reshape(2, 2, 4, 4)  # [row, sign, mu, coord]
        for mu in range(4):
            step = h[:, mu, None] * np.eye(4)[mu]
            assert np.array_equal(rows[:, 0, mu], x + step)
            assert np.array_equal(rows[:, 1, mu], x - step)
        assert STENCIL_POLICY == "central2(h=1e-5)"

    @pytest.mark.parametrize("kind", [VECTOR_BISPINOR, BISPINOR])
    @pytest.mark.parametrize("make", [polynomial_field, trig_field])
    @pytest.mark.parametrize("nested", [False, True])
    def test_matches_partial4_oracle(self, schwarzschild, kind, make, nested):
        """The exact covariant derivative against the per-axis oracle, with
        the one step of ``partial4`` or (``nested``) with the Richardson
        derivative of the tests' stencil adapter."""
        fld = make(21, kind, box=schwarzschild.sample_box)
        for x in points_of(schwarzschild, n=3):
            got = covariant_derivative(fld, frame_at(schwarzschild, x))[0]
            want = stencil_oracle(fld, schwarzschild, x, nested)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


class TestNestedRoundoff:
    """The nested chains take no finite difference.  With differences (a
    fine inner step) the identity suite's 1.7 chain on anti-de Sitter
    (suite seed 2135483339, fixture trig[2135483340001]) read 4.8e-5
    against its 1e-4 band, all of it roundoff; the exact jets hold these
    identities at roundoff."""

    @pytest.mark.parametrize("identity", [
        chain_pair, commutator_pair, bridge_pair,
    ], ids=["chain_1_7", "commutator_1_9", "bridge_1_10c"])
    def test_error_far_below_band(self, anti_de_sitter, identity):
        fld = trig_field(2135483340001, box=anti_de_sitter.sample_box)
        for x in points_of(anti_de_sitter, n=10, seed=2135483339):
            lhs, rhs = identity(fld, frame_at(anti_de_sitter, x))
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)),
                        np.max(np.abs(fld(x))))
            assert np.max(np.abs(lhs - rhs)) < 1e-7 * scale


class TestBlockMatrix:
    def test_dense_round_trip(self, rng):
        blocks = rng.standard_normal((4, 4, 4, 4)) + 1j * rng.standard_normal(
            (4, 4, 4, 4))
        m = BlockMatrix16(blocks)
        assert np.allclose(BlockMatrix16.from_dense(m.to_dense()).blocks, blocks)

    def test_product_matches_dense(self, rng):
        """``@`` against the block product written out as a loop,
        sum_l A[r, l] @ B[l, s] over the 4x4 blocks, which shares nothing
        with the dense layout ``@`` goes through."""
        a = BlockMatrix16(rng.standard_normal((4, 4, 4, 4))
                          + 1j * rng.standard_normal((4, 4, 4, 4)))
        b = BlockMatrix16(rng.standard_normal((4, 4, 4, 4))
                          + 1j * rng.standard_normal((4, 4, 4, 4)))
        ref = np.zeros((4, 4, 4, 4), dtype=complex)
        for r in range(4):
            for s in range(4):
                for l in range(4):
                    ref[r, s] += a.blocks[r, l] @ b.blocks[l, s]
        assert np.max(np.abs((a @ b).blocks - ref)) < 1e-13 * np.max(
            np.abs(ref))

    def test_apply_matches_dense(self, rng):
        a = BlockMatrix16(rng.standard_normal((4, 4, 4, 4)))
        psi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        direct = apply_blocks(a, psi)
        dense = (a.to_dense() @ psi.reshape(16)).reshape(4, 4)
        assert np.allclose(direct, dense)

    def test_associativity(self, rng):
        ms = [BlockMatrix16(rng.standard_normal((4, 4, 4, 4))) for _ in range(3)]
        lhs = ((ms[0] @ ms[1]) @ ms[2]).blocks
        rhs = (ms[0] @ (ms[1] @ ms[2])).blocks
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1, np.max(np.abs(lhs)))


def _frame_rows(spec, n=20):
    return build_frame(spec, [x.coords for x in points_of(spec, n, seed=41)])


class TestDenseBlockProducts:
    """``@`` is one dense (..., 16, 16) matmul; it must equal the block
    contraction sum_l A_rl B_ls on stacked frame rows and on one point."""

    @staticmethod
    def _assert_block_sum(a, b):
        ref = np.einsum("...rlij,...lsjk->...rsik", a.blocks, b.blocks)
        prod = (a @ b).blocks
        assert prod.shape == ref.shape
        assert np.max(np.abs(prod - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_product_is_the_block_sum_on_rows(self, schwarzschild):
        gs = _frame_rows(schwarzschild).gammas
        alphas, beta = build_alpha_beta(gs)
        assert beta.blocks.shape == (20, 4, 4, 4, 4)
        for al in alphas:
            self._assert_block_sum(al, beta)
        self._assert_block_sum(gamma_pair_block(gs, 0.7), alphas[2])
        # a single matrix against a stack broadcasts over the rows
        self._assert_block_sum(BlockMatrix16.identity() * 2.0, beta)

    def test_product_is_the_block_sum_at_a_point(self, schwarzschild):
        gs = gamma_set_at(schwarzschild, schwarzschild.point(0.3, 5.0, 1.1,
                                                             2.0))
        alphas, beta = build_alpha_beta(gs)
        self._assert_block_sum(alphas[1], beta)
        self._assert_block_sum(beta, gamma_pair_block(gs, -0.125))

    def test_dense_round_trip_on_rows(self, schwarzschild, rng):
        alphas, beta = build_alpha_beta(_frame_rows(
            schwarzschild).gammas)
        for m in (beta, alphas[3]):
            dense = m.to_dense()
            assert dense.shape == (20, 16, 16)
            assert np.array_equal(BlockMatrix16.from_dense(dense).blocks,
                                  m.blocks)
        dense = rng.standard_normal((16, 16)) + 1j * rng.standard_normal(
            (16, 16))
        assert np.array_equal(BlockMatrix16.from_dense(dense).to_dense(),
                              dense)

    def test_alpha_triple_path_equals_the_matmul_chain(self, schwarzschild):
        """The contraction path of gamma_r gamma^nu gamma^s leaves alpha
        bit-identical to the broadcast 4x4 matmul chain, so a point and
        its row of a frame agree exactly."""
        gs = _frame_rows(schwarzschild).gammas
        gd, gu, g_up = gs.gamma_down, gs.gamma_up, gs.metric.g_upper
        alpha = gs.alpha
        eye = np.eye(4)
        gd_r = gd[..., None, :, None, :, :]
        chain = eye[:, :, None, None] * gu[..., :, None, None, :, :]
        chain -= THIRD * eye[:, :, None, None, None] * gu[
            ..., None, None, :, :, :]
        chain -= THIRD * gd_r * g_up[..., :, None, :, None, None]
        triple = ((gd_r @ gu[..., :, None, None, :, :])
                  @ gu[..., None, None, :, :, :])
        triple *= THIRD
        chain += triple
        assert np.array_equal(alpha, chain)


class TestOperatorBlocks:
    def test_beta_trace(self, de_sitter):
        gs = gamma_set_at(de_sitter, de_sitter.point(0, 0.4, 1.2, 0.3))
        _, beta = build_alpha_beta(gs)
        trace = sum(beta.blocks[r, r] for r in range(4))
        assert np.max(np.abs(trace - (8.0 / 3.0) * np.eye(4))) < 1e-12

    def test_block_formula_spot_check(self, schwarzschild):
        x = schwarzschild.point(0.0, 4.0, 1.2, 0.7)
        gs = gamma_set_at(schwarzschild, x)
        alphas, beta = build_alpha_beta(gs)
        gd, gu, g_up = gs.gamma_down, gs.gamma_up, gs.metric.g_upper
        eye = np.eye(4)
        for nu in range(2):
            for r in range(4):
                for s in range(4):
                    expected = (
                        (gu[nu] if r == s else 0)
                        + (-gu[s] / 3.0 if r == nu else 0)
                        - gd[r] * g_up[nu, s] / 3.0
                        + gd[r] @ gu[nu] @ gu[s] / 3.0
                    )
                    assert np.allclose(alphas[nu].blocks[r, s], expected)
                    expected_b = (eye if r == s else 0) - gd[r] @ gu[s] / 3.0
                    assert np.allclose(beta.blocks[r, s], expected_b)

    @pytest.mark.parametrize("preset", ["minkowski", "schwarzschild"])
    def test_operator_equivalence(self, preset, request):
        spec = request.getfixturevalue(preset)
        tol = 1e-12 if preset == "minkowski" else 1e-9
        for seed in (3, 4):
            fld = polynomial_field(seed, box=spec.sample_box)
            for x in points_of(spec, 3):
                frame = frame_at(spec, x)
                blocks = rs_residual(frame, *covariant_rows(fld, frame),
                                     MASS)[0]
                terms = residual_term_oracle(fld, spec, x, MASS)
                scale = max(np.max(np.abs(blocks)), 1.0)
                assert np.max(np.abs(blocks - terms)) < tol * scale


class TestContractionIdentity:
    def test_coefficient_two_thirds(self, minkowski):
        # extract the proportionality constant between the gamma-contracted
        # residual and the divergence combination by a numeric fit
        fld = trig_field(9, box=minkowski.sample_box)
        num = den = 0.0j
        for x in points_of(minkowski, 5):
            frame = frame_at(minkowski, x)
            res = rs_residual(frame, *covariant_rows(fld, frame), MASS)[0]
            lhs = np.einsum("sij,sj->i", frame.gammas.gamma_up[0], res)
            chi = first_constraint(fld, frame, MASS)[0]
            num += np.vdot(chi, lhs)
            den += np.vdot(chi, chi)
        assert num / den == pytest.approx(2.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("preset", ["minkowski", "schwarzschild", "frw_dust"])
    def test_identity_for_arbitrary_fields(self, preset, request):
        spec = request.getfixturevalue(preset)
        for seed in (11, 12):
            fld = polynomial_field(seed, box=spec.sample_box)
            for x in points_of(spec, 3):
                frame = frame_at(spec, x)
                lhs, rhs = contraction_identity(
                    frame, *covariant_rows(fld, frame), MASS)
                scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
                assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale

    def test_solution_field_gives_zero(self, minkowski):
        wave = flat_rs_plane_wave(1.0, boost=0.5)
        for x in points_of(minkowski, 3):
            frame = frame_at(minkowski, x)
            lhs, _ = contraction_identity(
                frame, *covariant_rows(wave, frame), MASS)
            assert np.max(np.abs(lhs)) < 1e-9


class TestTransform:
    def test_invalid_parameters_rejected(self, minkowski):
        gs = gamma_set_at(minkowski, minkowski.point(0, 0, 0, 0))
        alphas, beta = build_alpha_beta(gs)
        with pytest.raises(InvalidTransform):
            transform_CS(alphas, beta, gs, 0.3, 0.3, 1.0)

    def test_constraint_satisfied_for_special_solution(self):
        a, b = -1.0 / 3.0, -1.0
        assert a + b + 4 * a * b == pytest.approx(0.0, abs=1e-15)

    def test_identity_transform(self, schwarzschild):
        x = schwarzschild.point(0.0, 4.5, 1.0, 0.3)
        gs = gamma_set_at(schwarzschild, x)
        alphas, beta = build_alpha_beta(gs)
        tr = transform_CS(alphas, beta, gs, 0.0, 0.0, 0.0)
        assert np.max(np.abs(tr.beta_tilde.blocks - beta.blocks)) < 1e-14
        for nu in range(4):
            assert np.max(np.abs(tr.alpha_tilde[nu].blocks
                                 - alphas[nu].blocks)) < 1e-14

    def test_s_inverse_identity(self, de_sitter):
        gs = gamma_set_at(de_sitter, de_sitter.point(0, 0.5, 1.2, 0.4))
        eye = BlockMatrix16.identity()
        for a in (0.25, -1.0 / 3.0, 1.0):
            b = -a / (1.0 + 4.0 * a)
            s, s_inv = gamma_pair_block(gs, a), gamma_pair_block(gs, b)
            assert (s @ s_inv - eye).max_abs() < 1e-12

    @pytest.mark.parametrize(
        "preset", ["minkowski", "schwarzschild", "de_sitter"])
    def test_special_solution_reproduces_closed_form(self, preset, request):
        spec = request.getfixturevalue(preset)
        for x in points_of(spec, 4):
            gs = gamma_set_at(spec, x)
            alphas, beta = build_alpha_beta(gs)
            tr = transform_CS(alphas, beta, gs, -1.0 / 3.0, -1.0, 2.0)
            alpha_t, beta_t = tilde_closed_form(gs)
            assert np.max(np.abs(tr.beta_tilde.blocks - beta_t.blocks)) < 1e-12
            for nu in range(4):
                assert np.max(np.abs(tr.alpha_tilde[nu].blocks
                                     - alpha_t[nu].blocks)) < 1e-12

    def test_printed_expansion_matches_blocks(self, schwarzschild):
        x = schwarzschild.point(0.0, 5.0, 1.4, 2.2)
        gs = gamma_set_at(schwarzschild, x)
        alphas, beta = build_alpha_beta(gs)
        for a, c in ((0.25, 0.7), (0.1, -0.4)):
            b = -a / (1.0 + 4.0 * a)
            tr = transform_CS(alphas, beta, gs, a, b, c)
            bp, ap, bt, at_ = transform_printed(gs, a, b, c)
            assert np.max(np.abs(tr.beta_prime.blocks - bp.blocks)) < 1e-12
            assert np.max(np.abs(tr.beta_tilde.blocks - bt.blocks)) < 1e-12
            for nu in range(4):
                assert np.max(np.abs(tr.alpha_prime[nu].blocks
                                     - ap[nu].blocks)) < 1e-12
                assert np.max(np.abs(tr.alpha_tilde[nu].blocks
                                     - at_[nu].blocks)) < 1e-12

    def test_beta_dual_forms(self, frw_dust):
        for x in points_of(frw_dust, 3):
            gs = gamma_set_at(frw_dust, x)
            _, beta_t = tilde_closed_form(gs)
            assert np.max(np.abs(beta_t.blocks
                                 - beta_tilde_eps_form(gs).blocks)) < 1e-12

    def test_flat_limit_constant_blocks(self, minkowski):
        values = [tilde_closed_form(
            gamma_set_at(minkowski, x))[0][1].blocks
            for x in points_of(minkowski, 3)]
        for v in values[1:]:
            assert np.array_equal(v, values[0])


class TestResidual:
    def test_plane_wave_solutions(self, minkowski):
        for boost in (0.0, 0.4, 1.1):
            wave = flat_rs_plane_wave(1.0, boost)
            for x in points_of(minkowski, 3):
                frame = frame_at(minkowski, x)
                res = rs_residual(frame, *covariant_rows(wave, frame), MASS)
                assert np.max(np.abs(res)) < 1e-8

    def test_constant_massless_field(self, minkowski):
        f = constant_field(np.ones((4, 4)), VECTOR_BISPINOR)
        frame = frame_at(minkowski, minkowski.point(0, 1, 2, 3))
        res = rs_residual(frame, *covariant_rows(f, frame), MassParam(0.0))
        assert np.max(np.abs(res)) < 1e-13


class TestConstraintTwo:
    def test_vacuum_traceless_field_vanishes(self, schwarzschild):
        fld = gamma_traceless_field(7, schwarzschild, box=schwarzschild.sample_box)
        for x in points_of(schwarzschild, 4):
            frame = frame_at(schwarzschild, x)
            c2 = constraint_two(frame, fld.at(frame), MASS)
            assert np.max(np.abs(c2)) < 1e-7 * max(
                1.0, np.max(np.abs(fld(x))))

    @pytest.mark.parametrize("preset,scalar", [("de_sitter", -12.0),
                                               ("anti_de_sitter", 12.0)])
    def test_einstein_space_factor(self, preset, scalar, request):
        spec = request.getfixturevalue(preset)
        fld = polynomial_field(5, box=spec.sample_box)
        for x in points_of(spec, 4):
            frame = frame_at(spec, x)
            phi = np.einsum("rij,rj->i", frame.gammas.gamma_up[0], fld(x))
            c2 = constraint_two(frame, fld.at(frame), MASS)[0]
            factor = einstein_space_factor(frame, MASS)[0]
            assert factor == pytest.approx(0.5 * (scalar / 12.0 - 1.0),
                                           rel=1e-5, abs=1e-6)
            assert np.max(np.abs(c2 - factor * phi)) < 1e-6 * max(
                np.max(np.abs(phi)), 1.0)

    def test_zero_crossing_on_positive_scalar_preset(self, anti_de_sitter):
        # the bracket 1/2 (R/12 - m^2) crosses zero at m = sqrt(R/12) = 1
        frame = frame_at(anti_de_sitter,
                         anti_de_sitter.point(0.0, 0.4, 1.3, 0.8))
        lo, hi = 0.5, 1.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if einstein_space_factor(frame, MassParam(mid))[0].real > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(1.0, abs=1e-6)

class TestDerivativeChain:
    def test_flat_within_budget(self, minkowski):
        fld = polynomial_field(3, box=minkowski.sample_box)
        for x in points_of(minkowski, 3):
            lhs, rhs = chain_pair(fld, frame_at(minkowski, x))
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) < 2e-6 * scale

    @pytest.mark.parametrize("preset", ["schwarzschild", "de_sitter",
                                        "frw_dust"])
    def test_curved_within_second_order_budget(self, preset, request):
        spec = request.getfixturevalue(preset)
        fld = trig_field(8, box=spec.sample_box)
        for x in points_of(spec, 3):
            lhs, rhs = chain_pair(fld, frame_at(spec, x))
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) < 1e-4 * scale

    @pytest.mark.parametrize("preset", ["schwarzschild", "frw_dust"])
    def test_commutator_decomposition_curved(self, preset, request):
        spec = request.getfixturevalue(preset)
        fld = polynomial_field(10, box=spec.sample_box)
        for x in points_of(spec, 2):
            lhs, rhs = commutator_pair(fld, frame_at(spec, x))
            scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)),
                        np.max(np.abs(fld(x))))
            assert np.max(np.abs(lhs - rhs)) < 1e-4 * scale

    def test_bridge_standalone(self, schwarzschild, frw_dust):
        for spec in (schwarzschild, frw_dust):
            fld = polynomial_field(14, box=spec.sample_box)
            for x in points_of(spec, 2):
                lhs, rhs = bridge_pair(fld, frame_at(spec, x))
                scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)),
                            np.max(np.abs(fld(x))))
                assert np.max(np.abs(lhs - rhs)) < 1e-4 * scale

    def test_reduction_matches_constraint_two(self, de_sitter):
        fld = polynomial_field(2, box=de_sitter.sample_box)
        for x in points_of(de_sitter, 3):
            frame = frame_at(de_sitter, x)
            psi = fld.at(frame)
            chain = chain_rhs(frame, psi, MASS,
                              curvature_commutator(frame, psi))
            c2 = constraint_two(frame, psi, MASS)
            scale = max(np.max(np.abs(chain)), np.max(np.abs(c2)), 1.0)
            assert np.max(np.abs(chain - c2)) < 1e-8 * scale


def frame_of(spec, n):
    return build_frame(spec, [x.coords for x in points_of(spec, n)])


class TestFlatReduction:
    def test_plane_wave_basis(self, minkowski):
        frame = frame_of(minkowski, 4)
        for boost in (0.0, 0.3):
            wave = flat_rs_plane_wave(1.0, boost)
            rep = flat_reduction_check(frame, *covariant_rows(wave, frame),
                                       MASS)
            assert rep["constraints_satisfied"].all()
            assert rep["reduction_matches"].all()
            assert np.max(rep["max_rs_residual"]) < 1e-8
            assert np.max(rep["max_dirac_residual"]) < 1e-8

    def test_violating_field_flagged(self, minkowski):
        fld = polynomial_field(21, box=minkowski.sample_box)
        frame = frame_of(minkowski, 3)
        rep = flat_reduction_check(frame, *covariant_rows(fld, frame), MASS)
        assert not rep["constraints_satisfied"].any()

    def test_zero_field(self, minkowski):
        fld = constant_field(np.zeros((4, 4)), VECTOR_BISPINOR)
        frame = frame_of(minkowski, 2)
        rep = flat_reduction_check(frame, *covariant_rows(fld, frame), MASS)
        assert np.array_equal(rep["max_rs_residual"], [0.0, 0.0])
        assert np.array_equal(rep["max_dirac_residual"], [0.0, 0.0])
        assert rep["reduction_matches"].all()


class TestMassZeroConsistency:
    def test_flat_gradient_annihilated_by_both(self, minkowski):
        from curved_rs.gauge import gradient_sampler, massless_residual

        psi = polynomial_field(17, kind=BISPINOR, box=minkowski.sample_box)
        grad = gradient_sampler(psi, minkowski)
        zero_mass = MassParam(0.0)
        for x in points_of(minkowski, 3):
            tilde_res = massless_residual(grad, frame_at(minkowski, x))
            assert np.max(np.abs(tilde_res)) < 1e-7

    def test_untransformed_massless_residual_on_gradient(self, schwarzschild):
        # Psi = S^-1 Psi~0 with Psi~0 a gradient field solves the original
        # massless equation wherever the metric is Ricci-flat
        psi = trig_field(18, kind=BISPINOR, box=schwarzschild.sample_box)

        def untransformed(rows):
            frame = build_frame(schwarzschild, rows)
            # inverse of I - (1/3) gg
            s_inv = gamma_pair_block(frame.gammas, -1.0)
            return apply_blocks(s_inv, covariant_derivative(psi, frame))

        fld = stencil_sampler(untransformed, VECTOR_BISPINOR, "gauge-orig")
        zero_mass = MassParam(0.0)
        for x in points_of(schwarzschild, 2):
            frame = frame_at(schwarzschild, x)
            d, value = covariant_rows(fld, frame)
            res = rs_residual(frame, d, value, zero_mass)
            scale = max(np.max(np.abs(d)), 1.0)
            assert np.max(np.abs(res)) < 1e-4 * scale
