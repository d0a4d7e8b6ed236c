"""Samplers, fixtures, and the smoothness registration probe."""

import numpy as np
import pytest

from curved_rs.fields import (
    BISPINOR,
    VECTOR_BISPINOR,
    FieldSampler,
    fixture_family,
    flat_rs_plane_wave,
    gamma_traceless_field,
    plane_wave,
    polynomial_field,
    trig_field,
)
from curved_rs.geometry import Point
from curved_rs.numerics import STEP_FIRST, fd_step
from curved_rs.spacetimes import PRESET_NAMES, load_preset
from curved_rs.spin_frame import (GAMMA_FLAT, build_frame, gamma_derivatives,
                                  gamma_set_at)

from conftest import points_of
from oracles import (STEP_OUTER, central_difference, check_smoothness,
                     constant_field, richardson, stencil_sampler)


def pt(*coords):
    return Point(np.array(coords, dtype=float))


class TestSamplers:
    def test_shape_enforcement(self):
        bad = stencil_sampler(lambda rows: np.zeros((len(rows), 3)), BISPINOR)
        with pytest.raises(ValueError):
            bad(pt(0, 0, 0, 0))

    def test_seed_determinism(self):
        a = polynomial_field(5)(pt(0.1, 0.2, 0.3, 0.4))
        b = polynomial_field(5)(pt(0.1, 0.2, 0.3, 0.4))
        c = polynomial_field(6)(pt(0.1, 0.2, 0.3, 0.4))
        assert np.array_equal(a, b)
        assert not np.allclose(a, c)

    def test_fixture_family_mixes_types(self):
        fam = fixture_family(3, 4, VECTOR_BISPINOR)
        assert len(fam) == 4
        assert {f.name.split("[")[0] for f in fam} == {"poly2", "trig"}

    def test_plane_wave_phase(self):
        k = np.array([0.5, 0.0, 0.0, -0.3])
        amp = np.ones(4, dtype=complex)
        f = plane_wave(k, amp, BISPINOR)
        x = pt(1.0, 2.0, 3.0, 4.0)
        assert np.allclose(f(x), np.exp(1j * (k @ x.coords)) * amp)


def _closed_form_fields(kind):
    shape = (4, 4) if kind == VECTOR_BISPINOR else (4,)
    amp = (np.arange(np.prod(shape)) + 0.5j).reshape(shape)
    box = [(-1.0, 1.0), (2.5, 9.0), (0.2, 2.9), (0.0, 6.0)]
    return [
        polynomial_field(3, kind),
        polynomial_field(4, kind, box=box),
        trig_field(7, kind),
        trig_field(8, kind, box=box),
        plane_wave([0.7, -0.3, 0.2, 0.5], amp, kind),
        constant_field(amp, kind),
    ]


#: the value shape of a sampler of each kind
SHAPES = {VECTOR_BISPINOR: (4, 4), BISPINOR: (4,)}


class TestBatchSampling:
    COORDS = np.random.default_rng(17).uniform(-2.0, 3.0, size=(9, 4))

    @pytest.mark.parametrize("kind", [VECTOR_BISPINOR, BISPINOR])
    def test_at_matches_stacked_calls(self, kind):
        for f in _closed_form_fields(kind):
            batch = f.at(self.COORDS)
            rows = np.stack([f(pt(*c)) for c in self.COORDS])
            assert batch.shape == (len(self.COORDS),) + SHAPES[kind]
            assert batch.dtype == complex
            scale = np.max(np.abs(rows))
            assert np.max(np.abs(batch - rows)) <= 1e-14 * scale, f.name

    def test_polynomial_matches_tensordot_reference(self):
        # the coefficient draws and the nested-tensordot evaluation of the
        # original implementation, kept as the reference
        box = [(-1.0, 1.0), (2.5, 9.0), (0.2, 2.9), (0.0, 6.0)]
        rng = np.random.default_rng(4)
        c0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        c1 = 0.5 * (rng.standard_normal((4, 4, 4))
                    + 1j * rng.standard_normal((4, 4, 4)))
        c2 = 0.25 * (rng.standard_normal((4, 4, 4, 4))
                     + 1j * rng.standard_normal((4, 4, 4, 4)))
        c2 = 0.5 * (c2 + np.swapaxes(c2, 0, 1))
        b = np.asarray(box)
        center, half = b.mean(axis=1), 0.5 * (b[:, 1] - b[:, 0])
        f = polynomial_field(4, box=box)
        for c in self.COORDS:
            u = (c - center) / half
            want = (c0 + np.tensordot(u, c1, axes=(0, 0)) + np.tensordot(
                u, np.tensordot(u, c2, axes=(0, 0)), axes=(0, 0)))
            assert np.max(np.abs(f(pt(*c)) - want)) <= 1e-13 * np.max(
                np.abs(want))

    def test_values_are_the_jets_order_zero_in_one_call(self):
        """``at`` and ``__call__`` are one order-0 call of the jet, on
        all rows, or on a Point's one row."""
        seen = []

        def jet(rows, order):
            seen.append((np.shape(rows), order))
            return (np.repeat(rows.sum(axis=1)[:, None], 4, axis=1),)

        f = FieldSampler(jet, BISPINOR)
        values = f.at(self.COORDS)
        assert values.shape == (len(self.COORDS), 4)
        assert values.dtype == complex
        assert np.array_equal(values[:, 0], self.COORDS.sum(axis=1))
        assert np.array_equal(f(pt(*self.COORDS[2])), values[2])
        assert seen == [((len(self.COORDS), 4), 0), ((1, 4), 0)]

    def test_at_shape_enforcement(self):
        bad_shape = FieldSampler(
            lambda rows, order: (np.zeros((len(rows), 3)),), BISPINOR)
        bad_rows = FieldSampler(
            lambda rows, order: (np.zeros((len(rows) + 1, 4)),), BISPINOR)
        for bad in (bad_shape, bad_rows):
            with pytest.raises(ValueError):
                bad.at(self.COORDS)


class TestSmoothness:
    def test_smooth_fixtures_pass(self):
        probes = [pt(0.1, -0.2, 0.3, 0.4), pt(1.0, 0.5, -0.5, 0.2)]
        for f in [polynomial_field(1), trig_field(2),
                  plane_wave([1, 0, 0, 0.5], np.ones((4, 4)))]:
            check_smoothness(f, probes)  # raises when not C^2

    def test_kinked_field_rejected(self):
        # x0 |x0| is C1 only: the convergence ratio at the kink is ~2
        def kink(rows):
            v = rows[:, 0] * np.abs(rows[:, 0])
            return np.repeat(v[:, None], 4, axis=1)

        f = stencil_sampler(kink, BISPINOR, name="kink")
        with pytest.raises(ValueError):
            check_smoothness(f, [pt(0.0, 0.2, 0.3, 0.1)])


class TestConstrainedFields:
    def test_rs_plane_wave_constraints(self):
        w = flat_rs_plane_wave(1.0, boost=0.6)
        x = pt(0.2, -0.1, 0.4, 0.3)
        psi = w(x)
        trace = np.einsum("aij,aj->i", GAMMA_FLAT, psi)
        assert np.max(np.abs(trace)) < 1e-10
        # every vector component varies, the t and z ones included
        assert np.min(np.max(np.abs(psi), axis=1)) > 1e-2

    def test_gamma_traceless_projection(self, schwarzschild):
        f = gamma_traceless_field(11, schwarzschild, box=schwarzschild.sample_box)
        x = schwarzschild.point(0.0, 5.0, 1.1, 0.4)
        gs = gamma_set_at(schwarzschild, x)
        trace = np.einsum("bij,bj->i", gs.gamma_up, f(x))
        assert np.max(np.abs(trace)) < 1e-12 * np.max(np.abs(f(x)))

    def test_traceless_jet_has_values_only(self, schwarzschild):
        """The gamma-traceless field's jet of order 0 is its values, bit
        for bit; any higher order raises a ValueError naming the field."""
        f = gamma_traceless_field(12, schwarzschild,
                                  box=schwarzschild.sample_box)
        rows = np.stack([p.coords for p in points_of(schwarzschild, 4)])
        (value,) = f.jet(rows, 0)
        assert np.array_equal(value, f.at(rows))
        for order in (1, 2):
            with pytest.raises(ValueError, match=r"traceless\[12\]"):
                f.jet(rows, order)

    def test_constant_field(self):
        f = constant_field(np.ones((4, 4)))
        assert np.array_equal(f(pt(0, 0, 0, 0)), f(pt(9, 9, 9, 9)))


class TestExactJets:
    """Finite differences referee the exact jets of the closed forms."""

    @staticmethod
    def assert_refereed(exact, f, rows, label):
        """``exact`` (d_mu of ``f`` on rows) equals the Richardson
        derivative within the Richardson gap, up to the roundoff of a
        difference quotient (64 eps |f| / h)."""
        rich, gap = richardson(f, rows)
        n = len(rows)
        h = np.min(fd_step(rows, STEP_OUTER) / 2, axis=1)
        err = np.max(np.abs(exact - rich).reshape(n, -1), axis=1)
        noise = 64 * np.finfo(float).eps * np.max(
            np.abs(f(rows)).reshape(n, -1), axis=1) / h
        bound = np.max(gap.reshape(n, -1), axis=1) + noise
        assert np.all(err <= bound), (label, err, bound)

    @staticmethod
    def families(spec, kind):
        """Every closed-form family, built for the spec's box as the suite
        builds its fixtures."""
        box = spec.sample_box
        shape = (4, 4) if kind == VECTOR_BISPINOR else (4,)
        amp = (np.arange(np.prod(shape)) + 0.5j).reshape(shape)
        half = 0.5 * np.diff(np.asarray(box), axis=1)[:, 0]
        return [polynomial_field(8, kind, box), trig_field(9, kind, box),
                plane_wave([0.7, -0.3, 0.2, 0.5] / half, amp, kind)]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("kind", [VECTOR_BISPINOR, BISPINOR])
    def test_jet_is_the_richardson_derivative(self, name, kind):
        """On rows of every preset's sampling box, each family's exact d_mu
        equals the Richardson derivative of its values within the
        Richardson gap; its value is the sampler's.  A derivative scaled by
        1 + 1e-3 exceeds the bound."""
        spec = load_preset(name)
        rows = np.stack([p.coords for p in points_of(spec, 6, seed=3)])
        shape = (4, 4) if kind == VECTOR_BISPINOR else (4,)
        for f in self.families(spec, kind):
            value, d = f.jet(rows)
            assert d.shape == (len(rows), 4) + shape, f.name
            assert np.array_equal(value, f.at(rows)), f.name
            self.assert_refereed(d, f.at, rows, f.name)
            if np.max(np.abs(d)) > 0:
                with pytest.raises(AssertionError):
                    self.assert_refereed(d * (1.0 + 1e-3), f.at, rows, f.name)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("kind", [VECTOR_BISPINOR, BISPINOR])
    def test_second_order_jet_is_the_richardson_derivative(self, name, kind):
        """Each family's exact d_mu d_nu equals the Richardson derivative of
        its exact d_nu within the Richardson gap, and the value and d_mu of
        the second-order jet are the first-order jet's, to the bit.  A
        second derivative scaled by 1 + 1e-3 exceeds the bound."""
        spec = load_preset(name)
        rows = np.stack([p.coords for p in points_of(spec, 6, seed=3)])
        shape = (4, 4) if kind == VECTOR_BISPINOR else (4,)
        for f in self.families(spec, kind):
            value, d, dd = f.jet(rows, 2)
            assert dd.shape == (len(rows), 4, 4) + shape, f.name
            first = f.jet(rows)
            assert np.array_equal(value, first[0]), f.name
            assert np.array_equal(d, first[1]), f.name
            assert np.array_equal(f.jet(rows, 0)[0], value), f.name
            self.assert_refereed(dd, lambda r: f.jet(r)[1], rows, f.name)
            if np.max(np.abs(dd)) > 0:
                with pytest.raises(AssertionError):
                    self.assert_refereed(dd * (1.0 + 1e-3),
                                         lambda r: f.jet(r)[1], rows, f.name)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_geometry_derivatives_are_the_richardson_derivatives(self, name):
        """On rows of every preset's sampling box, the curvature's exact
        d_mu Gamma^s_ab, the frame's d_mu Gamma_al (``dconnection``) and the
        derivatives of gamma^nu, gamma_nu and g^{nu s}
        (``gamma_derivatives``) equal the Richardson derivatives of frames
        built on the stencil rows, within the Richardson gap.  Where it
        does not vanish, d_mu Gamma_al scaled by 1 + 1e-6 exceeds the
        bound."""
        spec = load_preset(name)
        rows = np.stack([p.coords for p in points_of(spec, 6, seed=3)])
        frame = build_frame(spec, rows)

        def on_frames(read):
            return lambda r: read(build_frame(spec, r))

        exact = {
            "christoffel": (frame.curvature.dchristoffel,
                            on_frames(lambda f: f.christoffel)),
            "connection": (frame.dconnection,
                           on_frames(lambda f: f.connection)),
        }
        d_up, d_down, d_g_up = gamma_derivatives(frame)
        exact["gamma_up"] = (d_up, on_frames(lambda f: f.gammas.gamma_up))
        exact["gamma_down"] = (d_down,
                               on_frames(lambda f: f.gammas.gamma_down))
        exact["g_upper"] = (d_g_up, on_frames(lambda f: f.metric.g_upper))
        for label, (d, f) in exact.items():
            self.assert_refereed(d, f, rows, label)
        if np.max(np.abs(frame.dconnection)) > 0:
            with pytest.raises(AssertionError):
                self.assert_refereed(frame.dconnection * (1.0 + 1e-6),
                                     exact["connection"][1], rows, "scaled")

    def test_a_sampler_without_a_closed_form_takes_the_adapter(self):
        """A sampler built on values alone (``oracles.stencil_sampler``)
        differences them: to first order one central level at
        ``STEP_FIRST``; to second order the Richardson differences of its
        Richardson first-order jet, whose value and d_mu it keeps."""
        f = trig_field(10, BISPINOR)
        plain = stencil_sampler(f.at, BISPINOR, "plain")
        rows = TestBatchSampling.COORDS
        assert np.array_equal(plain.jet(rows, 0)[0], f.at(rows))
        got = plain.jet(rows, 1)
        assert np.array_equal(got[0], f.at(rows))
        assert np.array_equal(
            got[1], central_difference(f.at, rows, fd_step(rows, STEP_FIRST)))
        assert np.max(np.abs(got[1] - f.jet(rows)[1])) < 1e-6
        got = plain.jet(rows, 2)
        assert np.array_equal(got[0], f.at(rows))
        assert np.array_equal(got[1], richardson(f.at, rows)[0])
        assert np.max(np.abs(got[1] - f.jet(rows)[1])) < 1e-6
        assert np.max(np.abs(got[2] - f.jet(rows, 2)[2])) < 1e-5
        with pytest.raises(ValueError, match="order"):
            plain.jet(rows, 3)
