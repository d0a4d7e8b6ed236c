"""Preset catalog facts and the configuration-document path."""

import math
from pathlib import Path

import numpy as np
import pytest

from curved_rs import identity_suite, spacetimes
from curved_rs.errors import ConfigError, InvalidParameter, OutOfDomain, ParseError
from curved_rs.geometry import curvature, eval_metric
from curved_rs.spacetimes import (
    PRESET_DOCUMENTS,
    PRESET_NAMES,
    load_preset,
    parse_metric_config,
    spec_from_config,
)

from conftest import points_of
from oracles import guard_at

SCHW_CFG = """
# Schwarzschild exterior in the expression language
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


class TestPresets:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            load_preset("schwarzschild", M=-1.0)
        with pytest.raises(InvalidParameter):
            load_preset("de_sitter_static", alpha=0.0)
        with pytest.raises(InvalidParameter):
            load_preset("frw_dust", a0=-2.0)
        with pytest.raises(InvalidParameter):
            load_preset("nosuch")
        with pytest.raises(InvalidParameter):
            load_preset("minkowski_cartesian", M=1.0)
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(InvalidParameter, match="finite M > 0"):
                load_preset("schwarzschild", M=bad)

    def test_presets_are_their_documents(self):
        # a preset is its embedded document under the preset's chart id,
        # with the document's [params] overridden
        for name in PRESET_NAMES:
            cfg = parse_metric_config(PRESET_DOCUMENTS[name], name=name)
            spec = load_preset(name)
            assert (spec.name, spec.chart_id, spec.params) == (name, name, cfg.params)
        assert load_preset("schwarzschild", M=2.0).params == {"M": 2.0}

    def test_sampling_boxes(self):
        # the boxes are [sampling] expressions over the parameters, and the
        # same floats the presets have always sampled from
        theta = (0.5, math.pi - 0.5)
        phi = (0.3, 5.9)
        boxes = {
            ("minkowski_cartesian", ()): ((-2.0, 2.0),) * 4,
            ("minkowski_spherical", ()): ((-1.0, 1.0), (1.0, 5.0), theta, phi),
            ("schwarzschild", (("M", 1.7),)):
                ((-1.0, 1.0), (3.0 * 1.7, 8.0 * 1.7), theta, phi),
            ("de_sitter_static", (("alpha", 2.5),)):
                ((-1.0, 1.0), (0.15 * 2.5, 0.7 * 2.5), theta, phi),
            ("anti_de_sitter_static", (("alpha", 0.3),)):
                ((-1.0, 1.0), (0.15 * 0.3, 0.7 * 0.3), theta, phi),
            ("frw_dust", (("a0", 3.0),)): ((0.5, 2.0),) + ((-1.0, 1.0),) * 3,
        }
        for (name, params), box in boxes.items():
            spec = load_preset(name, **dict(params))
            assert spec.sample_box == box, name
            for x in identity_suite.sample_points(spec, 20, 3):
                assert guard_at(spec, x)

    def test_exact_derivatives_of_every_preset(self, all_presets):
        # structurally zero entries stay zero; the others are finite
        for spec in all_presets:
            x = identity_suite.sample_points(spec, 1, 5)[0]
            for order in (1, 2):
                d = spec.component_fn(x.coords[None], order)
                assert d.shape == (1,) + (4,) * (order + 2)
                assert np.all(np.isfinite(d))
            assert np.array_equal(d, d.swapaxes(1, 2))

    def test_schwarzschild_vacuum_at_20_points(self, schwarzschild):
        for x in points_of(schwarzschild, 20, seed=3):
            b = curvature(schwarzschild, x)
            assert np.max(np.abs(b.ricci)) < 1e-6 * np.max(np.abs(b.riemann_lower))

    def test_constant_curvature_scalars(self, de_sitter, anti_de_sitter):
        # |R| = 12/alpha^2; the sign follows the package convention
        # (negative for the de Sitter preset, positive for anti-de Sitter)
        for spec, sign in ((de_sitter, -1.0), (anti_de_sitter, +1.0)):
            for x in points_of(spec, 4):
                b = curvature(spec, x)
                assert b.scalar == pytest.approx(sign * 12.0, rel=1e-5)

    def test_frw_dust_is_nonvacuum(self, frw_dust):
        worst = 0.0
        for x in points_of(frw_dust, 6):
            b = curvature(frw_dust, x)
            worst = max(worst, float(np.max(np.abs(b.einstein))))
        assert worst > 1e-3

    def test_frw_dust_einstein_closed_form(self, frw_dust):
        # dust: only the time-time Einstein component survives,
        # G_00 = 4 / (3 t^2) for a = t^(2/3)
        t = 1.3
        b = curvature(frw_dust, frw_dust.point(t, 0.1, -0.2, 0.4))
        assert b.einstein[0, 0] == pytest.approx(4.0 / (3.0 * t**2), rel=1e-7)
        assert np.max(np.abs(b.einstein - np.diag(np.diag(b.einstein)))) < 1e-9
        assert np.max(np.abs(np.diag(b.einstein)[1:])) < 1e-7

    def test_guards(self, schwarzschild, de_sitter, frw_dust):
        assert not guard_at(schwarzschild, schwarzschild.point(0, 2.0, 1.0, 0))
        assert not guard_at(de_sitter, de_sitter.point(0, 1.0, 1.0, 0))
        assert not guard_at(frw_dust, frw_dust.point(0.0, 0, 0, 0))
        assert guard_at(schwarzschild, schwarzschild.point(0, 4.0, 1.0, 0))


class TestPresetParse:
    """A preset's document is parsed once per process; no spec a load
    returns reaches the shared parse."""

    def test_each_preset_is_parsed_once(self, monkeypatch):
        monkeypatch.setattr(spacetimes, "_PRESET_CONFIGS", {})
        parsed = []
        original = spacetimes.parse_metric_config

        def counting(text, name="config"):
            parsed.append(name)
            return original(text, name)

        monkeypatch.setattr(spacetimes, "parse_metric_config", counting)
        for params in ({}, {}, {"M": 2.5}):
            load_preset("schwarzschild", **params)
        for name in PRESET_NAMES:
            load_preset(name)
        assert parsed == ["schwarzschild"] + [
            name for name in PRESET_NAMES if name != "schwarzschild"]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_a_load_cannot_change_the_next(self, name):
        """A spec's parameters mutated after one load (and a load with
        other values) leave the next load as a freshly parsed document's
        spec."""
        doc = spec_from_config(parse_metric_config(PRESET_DOCUMENTS[name],
                                                   name=name))
        first = load_preset(name, **{k: 2.0 * v
                                     for k, v in doc.params.items()})
        first.params.clear()
        first.params["extra"] = 3.0
        spec = load_preset(name)
        assert spec.params == doc.params
        assert spec.sample_box == doc.sample_box
        rows = np.array([x.coords for x in points_of(doc, 4)])
        for order in range(3):
            assert np.array_equal(spec.component_fn(rows, order),
                                  doc.component_fn(rows, order))


class TestConfigParsing:
    def test_component_evaluation(self):
        cfg = parse_metric_config(SCHW_CFG)
        spec = spec_from_config(cfg)
        m = eval_metric(spec, spec.point(0.0, 4.0, np.pi / 2, 0.0))
        assert m.g_lower[0, 0] == pytest.approx(0.5)
        assert m.g_lower[1, 1] == pytest.approx(-2.0)

    def test_parse_error_carries_position(self):
        bad = SCHW_CFG.replace("g00 = 1 - 2*M/r", "g00 = 1 - 2*M/")
        with pytest.raises(ParseError) as err:
            parse_metric_config(bad)
        assert err.value.line == 7  # the g00 line of the document
        assert err.value.column == 15  # just past the dangling '/'
        assert "g00" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_metric_config("[wat]\nx = 1\n")

    def test_missing_component(self):
        broken = SCHW_CFG.replace("g33 = -r^2 * sin(theta)^2", "")
        with pytest.raises(ParseError):
            parse_metric_config(broken)

    def test_undefined_symbol_rejected(self):
        bad = SCHW_CFG.replace("g22 = -r^2", "g22 = -rr^2")
        with pytest.raises(ConfigError):
            parse_metric_config(bad)

    def test_round_trip_identical_asts(self):
        cfg = parse_metric_config(SCHW_CFG)
        again = parse_metric_config(cfg.serialize())
        assert again.components == cfg.components
        assert again.domain == cfg.domain
        assert again.params == cfg.params
        assert again.coord_names == cfg.coord_names
        assert again.content_hash() == cfg.content_hash()

    def test_sampling_bounds_are_expressions(self):
        text = SCHW_CFG.replace("r = 3.0, 8.0", "r = 3*M, 8*M").replace(
            "theta = 0.5, 2.6", "theta = 0.5, pi - 0.5")
        cfg = parse_metric_config(text)
        again = parse_metric_config(cfg.serialize())
        assert again.sampling == cfg.sampling
        assert "r = 3.0 * M, 8.0 * M" in cfg.serialize()
        box = spec_from_config(cfg).sample_box
        assert box[1] == (3.0, 8.0) and box[2] == (0.5, math.pi - 0.5)
        with pytest.raises(ConfigError, match="not parameters"):
            parse_metric_config(text.replace("r = 3*M", "r = 3*theta"))

    def test_shipped_documents_keep_their_hashes(self):
        # bounds written as numbers serialize as before
        documents = Path(__file__).resolve().parent.parent / "perfbench" / "documents"
        hashes = {p.stem: parse_metric_config(p.read_text()).content_hash()
                  for p in documents.glob("*.metric")}
        assert hashes == {"schwarzschild": "8faaaa9e5cb8d7c4",
                          "frw_dust": "fa3b1dd2fb7d743f",
                          "anti_de_sitter": "62e95ba91bbc0574"}

    def test_content_hash_tracks_content(self):
        cfg = parse_metric_config(SCHW_CFG)
        other = parse_metric_config(SCHW_CFG.replace("M = 1.0", "M = 2.0"))
        assert cfg.content_hash() != other.content_hash()


class TestSpecFromConfig:
    def test_cross_validation_against_preset(self, schwarzschild):
        spec_cfg = spec_from_config(parse_metric_config(SCHW_CFG))
        for x in points_of(schwarzschild, 5, seed=8):
            xc = spec_cfg.point(*x.coords)
            b_pre = curvature(schwarzschild, x)
            b_cfg = curvature(spec_cfg, xc)
            scale = max(np.max(np.abs(b_pre.riemann_lower)), 1e-6)
            assert np.max(np.abs(b_cfg.riemann_lower - b_pre.riemann_lower)) < 1e-5 * scale
            assert np.max(np.abs(b_cfg.ricci)) < 1e-5 * scale

    def test_constant_diagonal_is_flat(self):
        spec = spec_from_config(parse_metric_config(FLAT_CFG))
        b = curvature(spec, spec.point(0.1, 0.2, 0.3, 0.4))
        assert np.max(np.abs(b.riemann_lower)) < 1e-9
        assert np.max(np.abs(b.einstein)) < 1e-9

    def test_domain_guard_from_constraints(self):
        spec = spec_from_config(parse_metric_config(SCHW_CFG))
        assert not guard_at(spec, spec.point(0.0, 1.5, 1.0, 0.0))
        assert guard_at(spec, spec.point(0.0, 4.0, 1.0, 0.0))
        with pytest.raises(OutOfDomain):
            eval_metric(spec, spec.point(0.0, 1.5, 1.0, 0.0))

    def test_sampling_box_propagates(self):
        spec = spec_from_config(parse_metric_config(SCHW_CFG))
        assert spec.sample_box[1] == (3.0, 8.0)

    def test_missing_sampling_coord_rejected(self):
        bad = SCHW_CFG.replace("phi = 0.3, 5.9", "")
        with pytest.raises(ConfigError):
            spec_from_config(parse_metric_config(bad))
