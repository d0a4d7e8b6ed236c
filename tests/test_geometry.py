"""Metric evaluation, exact metric derivatives and curvature, and the
volume tensor, cross-checked against closed forms, central differences and
the symbolic oracle."""

import numpy as np
import pytest

from curved_rs import geometry, spacetimes
from curved_rs.errors import OutOfDomain, SingularMetric
from curved_rs.geometry import (
    EPS_SIGN,
    covariant_metric_derivative,
    curvature,
    eval_metric,
    levi_civita,
    metric_derivatives,
)

from curved_rs.spin_frame import spin_connection

from conftest import points_of
from oracles import (components_at, guard_at, shifted, symbolic_curvature,
                     symbolic_metric)

#: a document whose metric degenerates at x = 0
DEGENERATE_CFG = """
[coords]
names = t, x, y, z
[metric]
g00 = x
g11 = -1
g22 = -1
g33 = -1
"""


class TestEvalMetric:
    def test_minkowski_components(self, minkowski):
        m = eval_metric(minkowski, minkowski.point(3.0, -1.0, 2.0, 0.5))
        assert np.allclose(m.g_lower, np.diag([1, -1, -1, -1]))
        assert m.det_g == pytest.approx(-1.0)

    def test_schwarzschild_g00_at_r4(self, schwarzschild):
        m = eval_metric(schwarzschild, schwarzschild.point(0.0, 4.0, np.pi / 2, 0.0))
        assert m.g_lower[0, 0] == pytest.approx(0.5)
        assert m.g_lower[1, 1] == pytest.approx(-2.0)

    def test_inverse_identity(self, all_presets):
        for spec in all_presets:
            for x in points_of(spec, 3):
                m = eval_metric(spec, x)
                assert np.allclose(m.g_lower @ m.g_upper, np.eye(4), atol=1e-12)
                assert m.det_g < 0

    def test_horizon_excluded(self, schwarzschild):
        with pytest.raises(OutOfDomain):
            eval_metric(schwarzschild, schwarzschild.point(0.0, 2.0, 1.0, 0.0))

    def test_singular_metric(self):
        spec = spacetimes.spec_from_config(
            spacetimes.parse_metric_config(DEGENERATE_CFG))
        with pytest.raises(SingularMetric):
            eval_metric(spec, spec.point(0.0, 0.0, 0.0, 0.0))

    def test_point_of_another_chart_is_an_error(self, schwarzschild):
        """A de Sitter point on Schwarzschild names both charts.  A Point
        without a chart evaluates, and so does a point of the same preset
        at another parameter, since a preset's chart id is its name."""
        x = spacetimes.load_preset("de_sitter_static").point(0, 3.0, 1.0, 0.2)
        with pytest.raises(ValueError,
                           match="'de_sitter_static'.*'schwarzschild'"):
            eval_metric(schwarzschild, x)
        bare = eval_metric(schwarzschild, geometry.Point(x.coords))
        light = spacetimes.load_preset("schwarzschild", M=0.5)
        other_m = eval_metric(schwarzschild, light.point(0, 3.0, 1.0, 0.2))
        assert np.array_equal(bare.g_lower, other_m.g_lower)
        assert bare.g_lower[0, 0] == pytest.approx(1.0 / 3.0)


class TestMetricDerivatives:
    def test_minkowski_zero(self, minkowski):
        dg = metric_derivatives(minkowski, minkowski.point(0.1, 0.2, 0.3, 0.4))
        assert np.max(np.abs(dg)) == 0.0

    def test_analytic_matches_fd(self, all_presets):
        # exact first and second derivatives agree with central differences
        # of the component map (of order 0 and 1), taken here as the
        # independent reference, to relative 1e-6 at random points
        for spec in all_presets:
            for x in points_of(spec, 4):
                for order in (1, 2):
                    exact = metric_derivatives(spec, x, order)
                    scale = max(np.max(np.abs(exact)), 1.0)
                    for mu in range(4):
                        h = 1e-5 * max(1.0, abs(x.coords[mu]))
                        fd = (components_at(spec, shifted(x, mu, h), order - 1)
                              - components_at(spec, shifted(x, mu, -h),
                                              order - 1)) / (2.0 * h)
                        assert np.max(np.abs(exact[mu] - fd)) <= 1e-6 * scale

    def test_frw_time_derivative_closed_form(self, frw_dust):
        # d/dt g_11 = -2 a adot with a = t^(2/3)
        t = 1.7
        x = frw_dust.point(t, 0.1, 0.2, 0.3)
        dg = metric_derivatives(frw_dust, x)
        a = t ** (2.0 / 3.0)
        adot = (2.0 / 3.0) * t ** (-1.0 / 3.0)
        assert dg[0, 1, 1] == pytest.approx(-2.0 * a * adot, rel=1e-12)

    def test_symmetry(self, schwarzschild):
        for x in points_of(schwarzschild, 3):
            dg = metric_derivatives(schwarzschild, x)
            assert np.allclose(dg, dg.transpose(0, 2, 1))

    def test_curvature_near_horizon_is_finite(self, schwarzschild):
        # 1e-3 outside the guard's band around the horizon: exact
        # derivatives need no room for a stencil, and the Kretschmann
        # scalar K = 48 M^2 / r^6 still holds
        r = 2.0 + 2e-3
        x = schwarzschild.point(0.0, r, 1.2, 0.5)
        b = curvature(schwarzschild, x)
        for a in (b.christoffel, b.riemann_lower, b.ricci, b.einstein):
            assert np.all(np.isfinite(a))
        m = eval_metric(schwarzschild, x)
        up = np.einsum("aA,bB,cC,dD,ABCD->abcd", m.g_upper, m.g_upper,
                       m.g_upper, m.g_upper, b.riemann_lower)
        k = float(np.einsum("abcd,abcd->", b.riemann_lower, up))
        assert k == pytest.approx(48.0 / r**6, rel=1e-8)

    def test_undefined_derivative_is_out_of_domain(self):
        # sqrt(x) is defined at x = 0, its derivative is not
        spec = spacetimes.spec_from_config(spacetimes.parse_metric_config(
            DEGENERATE_CFG.replace("g00 = x", "g00 = 1 + sqrt(x)")))
        x = spec.point(0.0, 0.0, 0.0, 0.0)
        assert guard_at(spec, x)
        with pytest.raises(OutOfDomain, match=r"d_x g00 = .*sqrt\(x\)"):
            metric_derivatives(spec, x)


class TestCurvature:
    def test_flat_everything_vanishes(self, minkowski, minkowski_spherical):
        for spec in (minkowski, minkowski_spherical):
            for x in points_of(spec, 4):
                b = curvature(spec, x)
                assert np.max(np.abs(b.riemann_lower)) < 1e-7
                assert np.max(np.abs(b.einstein)) < 1e-7

    @pytest.mark.parametrize("name", spacetimes.PRESET_NAMES)
    def test_against_symbolic_oracle(self, name):
        # exact derivatives leave roundoff only: 1e-10 relative to the
        # tensor's largest entry (or 1, on a flat chart)
        spec = spacetimes.load_preset(name)
        oracle = symbolic_curvature(*symbolic_metric(name))
        for x in points_of(spec, 4):
            b = curvature(spec, x)
            ref = oracle(x)
            for key in ("christoffel", "riemann_lower", "ricci", "einstein"):
                scale = max(np.max(np.abs(ref[key])), 1.0)
                assert np.max(np.abs(getattr(b, key) - ref[key])) <= 1e-10 * scale, key
            assert abs(b.scalar - float(ref["scalar"])) <= 1e-10 * max(abs(b.scalar), 1)

    def test_schwarzschild_ricci_flat(self, schwarzschild):
        for x in points_of(schwarzschild, 20, seed=7):
            b = curvature(schwarzschild, x)
            assert np.max(np.abs(b.ricci)) <= 1e-6 * np.max(np.abs(b.riemann_lower))

    def test_einstein_space_relation(self, de_sitter, anti_de_sitter):
        # R_ab = (R/4) g_ab on the constant-curvature presets; the scalar is
        # -12/alpha^2 (de Sitter) and +12/alpha^2 (anti-de Sitter) in this
        # package's sign convention
        for spec, expected_scalar in ((de_sitter, -12.0), (anti_de_sitter, 12.0)):
            for x in points_of(spec, 4):
                b = curvature(spec, x)
                g = eval_metric(spec, x).g_lower
                assert abs(b.scalar - expected_scalar) < 1e-5 * 12.0
                assert np.max(np.abs(b.ricci - b.scalar / 4.0 * g)) < 1e-6 * np.max(np.abs(b.ricci))

    def test_kretschmann_schwarzschild(self, schwarzschild):
        # K = R_abcd R^abcd = 48 M^2 / r^6, a coordinate-invariant freeze
        x = schwarzschild.point(0.0, 4.0, 1.1, 0.3)
        b = curvature(schwarzschild, x)
        m = eval_metric(schwarzschild, x)
        up = np.einsum("aA,bB,cC,dD,ABCD->abcd",
                       m.g_upper, m.g_upper, m.g_upper, m.g_upper,
                       b.riemann_lower)
        k = float(np.einsum("abcd,abcd->", b.riemann_lower, up))
        assert k == pytest.approx(48.0 / 4.0**6, rel=1e-7)

    def test_riemann_symmetries_and_bianchi(self, all_presets):
        for spec in all_presets:
            for x in points_of(spec, 2):
                r = curvature(spec, x).riemann_lower
                # flat charts leave only roundoff; floor the scale
                scale = max(np.max(np.abs(r)), 1e-3)
                assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) < 1e-6 * scale
                assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < 1e-6 * scale
                assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) < 1e-6 * scale
                cyc = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
                assert np.max(np.abs(cyc)) < 1e-6 * scale

    def test_christoffel_symmetric(self, frw_dust):
        for x in points_of(frw_dust, 3):
            gam = curvature(frw_dust, x).christoffel
            assert np.allclose(gam, gam.transpose(0, 2, 1))

    def test_metric_compatibility(self, all_presets):
        for spec in all_presets:
            for x in points_of(spec, 2):
                dev = covariant_metric_derivative(spec, x)
                assert np.max(np.abs(dev)) < 1e-7


FLAT_CFG = """
[coords]
names = t, x, y, z
[metric]
g00 = 1
g11 = -1
g22 = -1
g33 = -1
[sampling]
t = -1, 1
x = -1, 1
y = -1, 1
z = -1, 1
"""


class TestCachedArrays:
    def test_write_raises_and_cache_keeps_value(self, schwarzschild):
        x = points_of(schwarzschild, 1, seed=3)[0]
        before = curvature(schwarzschild, x).ricci[0, 0]
        with pytest.raises(ValueError):
            curvature(schwarzschild, x).ricci[0, 0] = 99
        assert curvature(schwarzschild, x).ricci[0, 0] == before
        # nor can a caller swap an array out of the shared bundle
        with pytest.raises(AttributeError):
            curvature(schwarzschild, x).ricci = np.zeros((4, 4))
        with pytest.raises(AttributeError):
            eval_metric(schwarzschild, x).g_lower = np.eye(4)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_every_cached_array_is_read_only(self, schwarzschild, analytic):
        # a preset (True) and a document read by spec_from_config (False)
        spec = (schwarzschild if analytic else spacetimes.spec_from_config(
            spacetimes.parse_metric_config(FLAT_CFG)))
        x = points_of(spec, 1, seed=3)[0]
        m = eval_metric(spec, x)
        b = curvature(spec, x)
        arrays = [m.g_lower, m.g_upper, metric_derivatives(spec, x),
                  metric_derivatives(spec, x, order=2),
                  geometry.christoffel(spec, x), b.christoffel,
                  b.riemann_lower, b.ricci, b.einstein,
                  spin_connection(spec, x)]
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 99


class TestLeviCivita:
    def test_minkowski_sign_and_magnitude(self, minkowski):
        m = eval_metric(minkowski, minkowski.point(0, 0, 0, 0))
        up, lo = levi_civita(m)
        assert up[0, 1, 2, 3] == pytest.approx(EPS_SIGN)
        assert lo[0, 1, 2, 3] == pytest.approx(-EPS_SIGN)
        assert abs(up[0, 1, 2, 3]) == pytest.approx(1.0)

    def test_repeated_index_vanishes(self, minkowski):
        m = eval_metric(minkowski, minkowski.point(0, 0, 0, 0))
        up, lo = levi_civita(m)
        assert up[0, 0, 2, 3] == 0.0
        assert lo[1, 3, 3, 0] == 0.0

    def test_total_antisymmetry(self, schwarzschild):
        m = eval_metric(schwarzschild, schwarzschild.point(0, 5.0, 1.0, 2.0))
        up, _ = levi_civita(m)
        assert np.allclose(up, -up.transpose(1, 0, 2, 3))
        assert np.allclose(up, -up.transpose(0, 1, 3, 2))
        assert np.allclose(up, -up.transpose(0, 2, 1, 3))

    def test_weight_scaling_schwarzschild(self, schwarzschild):
        theta = 1.1
        m = eval_metric(schwarzschild, schwarzschild.point(0.0, 4.0, theta, 0.0))
        up, lo = levi_civita(m)
        root = np.sqrt(-m.det_g)
        assert root == pytest.approx(16.0 * np.sin(theta), rel=1e-12)
        assert up[0, 1, 2, 3] == pytest.approx(EPS_SIGN / root)
        assert lo[0, 1, 2, 3] == pytest.approx(-EPS_SIGN * root)

    def test_lowering_consistency(self, de_sitter):
        # lowering all four indices of eps_upper with the metric gives eps_lower
        m = eval_metric(de_sitter, de_sitter.point(0.0, 0.5, 1.3, 0.4))
        up, lo = levi_civita(m)
        lowered = np.einsum("aA,bB,cC,dD,ABCD->abcd",
                            m.g_lower, m.g_lower, m.g_lower, m.g_lower, up)
        assert np.allclose(lowered, lo, atol=1e-12)

    def test_degenerate_rejected(self):
        m = geometry.MetricAtPoint(
            g_lower=np.diag([1.0, 1.0, -1.0, -1.0]),
            g_upper=np.diag([1.0, 1.0, -1.0, -1.0]),
            det_g=1.0,
        )
        with pytest.raises(SingularMetric):
            levi_civita(m)
