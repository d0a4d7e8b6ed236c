"""The batch identity runner: coverage, determinism, classification."""

import dataclasses
import json

import numpy as np
import pytest

from curved_rs import fields
from curved_rs import identity_suite as suite
from curved_rs import spin_frame
from curved_rs.errors import ConfigError
from curved_rs.geometry import ETA
from curved_rs.spacetimes import (
    PRESET_NAMES,
    load_preset,
    parse_metric_config,
    spec_from_config,
)

from conftest import patch_everywhere
from oracles import guard_at

#: every equation family the registry must exercise (an id may refine a
#: family tag with a letter suffix, e.g. 1.14 -> eq_1_14a / eq_1_14b)
REQUIRED_TAGS = [
    "1.2a", "1.3", "1.4", "1.5", "1.6", "1.7", "1.8", "1.9", "1.10",
    "1.11a", "1.11b", "1.12", "1.13", "1.14", "2.2", "2.3", "2.4", "2.5",
    "2.6", "2.7", "2.8",
]


#: a flat Cartesian document whose metric is not eta
G00_4_DOCUMENT = """
[coords]
names = t, x, y, z
[metric]
g00 = 4
g11 = -1
g22 = -1
g33 = -1
[sampling]
t = -2, 2
x = -2, 2
y = -2, 2
z = -2, 2
"""


def strip_timing(payload: dict) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    lines = [ln for ln in text.splitlines() if '"runtime_s"' not in ln]
    return "\n".join(lines)


class TestRegistry:
    def test_ids_unique(self):
        ids = [d.id for d in suite.REGISTRY]
        assert len(ids) == len(set(ids))

    def test_every_required_tag_covered(self):
        tags = {d.tag for d in suite.REGISTRY}
        for req in REQUIRED_TAGS:
            assert any(t == req or t.startswith(req) for t in tags), req

    def test_no_orphan_tags(self):
        known = set(REQUIRED_TAGS)
        for tag in {d.tag for d in suite.REGISTRY}:
            assert any(tag == req or tag.startswith(req) for req in known), tag


class TestSampling:
    def test_deterministic_points(self, schwarzschild):
        a = suite.sample_points(schwarzschild, 8, 42)
        b = suite.sample_points(schwarzschild, 8, 42)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.coords, pb.coords)

    def test_points_in_domain(self, de_sitter):
        for p in suite.sample_points(de_sitter, 30, 7):
            assert guard_at(de_sitter, p)

    def test_missing_box_rejected(self, minkowski):
        import copy

        bare = copy.copy(minkowski)
        bare.sample_box = None
        with pytest.raises(ConfigError):
            suite.sample_points(bare, 3, 1)

    def test_box_outside_the_domain_rejected(self, schwarzschild):
        import copy

        inside_horizon = copy.copy(schwarzschild)
        inside_horizon.sample_box = ((-1, 1), (1.0, 1.5), (0.5, 2.5), (0, 1))
        with pytest.raises(ConfigError, match=r"\(1\.0, 1\.5\).*'schwarzschild'"):
            suite.sample_points(inside_horizon, 3, 1)


class TestClassification:
    def test_classes(self, minkowski, minkowski_spherical, schwarzschild,
                     de_sitter, frw_dust):
        def classify(spec):
            pts = suite.sample_points(spec, 4, 11)
            return suite.classify_metric(
                spin_frame.build_frame(spec, [x.coords for x in pts]))

        assert classify(minkowski).describe() == "flat"
        assert classify(minkowski).flat_cartesian
        spherical = classify(minkowski_spherical)
        assert spherical.describe() == "flat"
        assert not spherical.flat_cartesian
        assert classify(schwarzschild).describe() == "ricci_flat"
        ds = classify(de_sitter)
        assert ds.describe() == "einstein"
        assert not ds.ricci_flat
        frw = classify(frw_dust)
        assert frw.describe() == "generic"
        assert not frw.ricci_flat

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_class_reads_all_rows(self, name):
        """A context's class is measured on every row of its frame: the
        Riemann scale, the Christoffel norm and the deviation from eta are
        the largest over all rows, and the scalar curvature is the last
        row's."""
        ctx = suite.build_context(load_preset(name), 20, seed=3, mass=1.0)
        mc, frame = ctx.met_class, ctx.frame
        assert mc.riemann_scale == np.max(np.abs(
            frame.curvature.riemann_lower))
        assert mc.christoffel_norm == np.max(np.abs(frame.christoffel))
        assert mc.eta_dev == np.max(np.abs(frame.metric.g_lower - ETA))
        assert mc.scalar == pytest.approx(frame.curvature.scalar[-1],
                                          rel=1e-12, abs=1e-12)


class TestRunSuite:
    def test_minkowski_all_pass(self, minkowski):
        rep = suite.run_suite(minkowski, n_points=20, seed=42)
        assert rep.passed
        assert rep.curvature_class == "flat"
        # non-nested checks sit at exact-arithmetic level on flat space
        for c in rep.checks:
            if c.id in ("eq_1_3_hermiticity", "eq_1_5_clifford",
                        "eq_1_5_sigma_split", "eq_1_5_triple_gamma",
                        "sigma_commutator", "eq_2_4_s_inverse",
                        "eq_2_6c_beta_dual_forms", "eq_2_2_block_assembly"):
                assert c.max_rel_error < 1e-9

    def test_schwarzschild_passes(self, schwarzschild):
        rep = suite.run_suite(schwarzschild, n_points=20, seed=42)
        assert rep.passed, [(c.id, c.max_rel_error) for c in rep.checks
                            if not c.passed]
        ids = {c.id for c in rep.checks}
        assert "eq_2_7b_massless_gradient" in ids  # Ricci-flat branch
        assert "eq_2_8c_gauge_criterion" not in ids

    def test_frw_expect_nonzero_classification(self, frw_dust):
        rep = suite.run_suite(frw_dust, n_points=8, seed=42)
        assert rep.passed
        by_id = {c.id: c for c in rep.checks}
        crit = by_id["eq_2_8c_gauge_criterion"]
        assert crit.expect == "nonzero"
        assert crit.passed
        assert "eq_2_7b_massless_gradient" not in by_id

    def test_einstein_branch_runs_factor_checks(self, anti_de_sitter):
        rep = suite.run_suite(anti_de_sitter, n_points=8, seed=42)
        assert rep.passed, [(c.id, c.max_rel_error) for c in rep.checks
                            if not c.passed]
        assert rep.curvature_class == "einstein"
        by_id = {c.id: c for c in rep.checks}
        assert by_id["eq_1_14a_einstein_space"].passed
        factor = by_id["eq_1_14b_constraint_factor"]
        assert factor.passed
        assert factor.note.startswith("vacuous_points=")
        # the gauge criterion runs in its expect-nonzero branch here too
        assert by_id["eq_2_8c_gauge_criterion"].expect == "nonzero"

    def test_determinism_modulo_timing(self, schwarzschild):
        a = suite.run_suite(schwarzschild, n_points=4, seed=9).to_dict()
        b = suite.run_suite(schwarzschild, n_points=4, seed=9).to_dict()
        assert strip_timing(a) == strip_timing(b)

    def test_check_entry_is_asdict_without_point_errors(self, frw_dust):
        """Each check's report entry holds every field but the point
        errors, with the values and in the order ``asdict`` gives."""
        for check in suite.run_suite(frw_dust, n_points=4, seed=9).checks:
            want = dataclasses.asdict(check)
            del want["point_errors"]
            got = check.to_dict()
            assert got == want and list(got) == list(want)

    def test_seed_changes_report(self, minkowski):
        a = suite.run_suite(minkowski, n_points=4, seed=1).to_dict()
        b = suite.run_suite(minkowski, n_points=4, seed=2).to_dict()
        assert strip_timing(a) != strip_timing(b)

    def test_tolerance_override(self, minkowski):
        rep = suite.run_suite(
            minkowski, n_points=3, seed=4,
            tolerance_overrides={"eq_1_3_hermiticity": 1e-30},
        )
        by_id = {c.id: c for c in rep.checks}
        assert by_id["eq_1_3_hermiticity"].tolerance == 1e-30
        # zero error still passes an absurd tolerance on exact identities;
        # force a fail through a check with a nonzero numerical error
        rep2 = suite.run_suite(
            minkowski, n_points=3, seed=4,
            tolerance_overrides={"eq_1_7_derivative_chain": 1e-30},
        )
        assert not rep2.passed

    def test_only_and_overrides_name_checks_of_the_run(self, minkowski):
        # an unregistered ``only`` id would run no check and pass
        with pytest.raises(ConfigError, match="no_such_check"):
            suite.run_suite(minkowski, n_points=1, only=("no_such_check",))
        with pytest.raises(ConfigError, match="eq_1_7_derivative_chain.*"
                                              "its checks: eq_1_3_hermiticity$"):
            suite.run_suite(minkowski, n_points=1,
                            only=("eq_1_3_hermiticity",),
                            tolerance_overrides={"eq_1_7_derivative_chain": 1})

    def test_points_validation(self, minkowski):
        with pytest.raises(ConfigError):
            suite.run_suite(minkowski, n_points=0)

    def test_negative_seed_is_config_error(self, minkowski):
        # numpy's generator would raise a ValueError for it
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            suite.run_suite(minkowski, n_points=1, seed=-1)

    def test_config_metric_hash_in_report(self):
        text = """
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
        cfg = parse_metric_config(text, name="flat_cfg")
        spec = spec_from_config(cfg)
        rep = suite.run_suite(spec, n_points=3, seed=5)
        assert rep.to_dict()["environment"]["config_hash"] == cfg.content_hash()
        assert rep.passed

    def test_flat_reduction_applies_to_eta_only(self):
        """1.12 compares with plane waves built for eta.  A constant metric
        other than eta is flat and Cartesian: the suite runs clean without
        1.12, and 1.12 run on it anyway reads that metric and fails."""
        spec = spec_from_config(parse_metric_config(G00_4_DOCUMENT,
                                                    name="g00_4"))
        rep = suite.run_suite(spec, n_points=4, seed=5)
        assert rep.passed
        assert rep.ctx.met_class.flat_cartesian
        assert "eq_1_12_flat_reduction" not in {c.id for c in rep.checks}
        _, errs = suite._chk_flat_reduction(rep.ctx)
        assert np.max(errs) > suite.TOL_FLAT_REDUCTION

    def test_divergence_form_applies_to_eta_only(self):
        """1.11b differentiates the same plane waves: on the g00 = 4
        document the suite runs clean without it, and 1.11b run there
        anyway fails."""
        spec = spec_from_config(parse_metric_config(G00_4_DOCUMENT,
                                                    name="g00_4"))
        rep = suite.run_suite(spec, n_points=4, seed=5)
        assert rep.passed
        assert "eq_1_11b_divergence_form" not in {c.id for c in rep.checks}
        _, errs = suite._chk_divergence_form(rep.ctx)
        assert np.max(errs) > 1e3 * suite.TOL_FLAT_REDUCTION

    def test_scaled_time_derivative_fails_the_divergence_form(
            self, minkowski, monkeypatch):
        """The plane waves vary along t with every vector component
        nonzero, so a time derivative of their exact jet off by 1e-3
        breaks 1.11b."""
        check = ("eq_1_11b_divergence_form",)
        original = fields.FieldSampler

        def scaled_time_derivative(jet, kind, name):
            def scaled(coords, order):
                out = list(jet(coords, order))
                if order:
                    out[1] = out[1].copy()
                    out[1][:, 0] *= 1.0 + 1e-3
                return tuple(out)

            return original(scaled, kind, name)

        monkeypatch.setattr(fields, "FieldSampler", scaled_time_derivative)
        (result,) = suite.run_suite(minkowski, n_points=2, seed=5,
                                    only=check).checks
        assert result.max_rel_error > 1e3 * result.tolerance
        assert not result.passed

    def test_phased_tetrad_leg_fails_the_divergence_form(self, minkowski,
                                                         monkeypatch):
        """1.11b contracts the wave equation of plane waves with the
        frame's Dirac matrices.  One tetrad leg times a phase moves gamma^1,
        and the waves' gamma^a Psi_a no longer vanishes: 1.11b fails
        (error 5e-4 against 1e-8).

        Equivalent mutants, since the waves obey gamma^a Psi_a = 0 and
        d^a Psi_a = 0 exactly: the kappa convention of ``MassParam`` (kappa
        multiplies only gamma^a Psi_a in both gamma^r residual_r and the
        first constraint) and ``THIRD`` x (1 + 1e-3) (gamma^r alpha^nu_r^s
        is 2/3 g^{nu s} plus terms in gamma^a Psi_a)."""
        check = ("eq_1_11b_divergence_form",)
        (result,) = suite.run_suite(minkowski, n_points=2, seed=5,
                                    only=check).checks
        assert result.passed
        original = spin_frame.build_tetrad

        def phased_leg(m):
            t = original(m)
            e_upper = t.e_upper.astype(complex)
            e_upper[..., 1] *= np.exp(1e-3j)
            return spin_frame.Tetrad(t.e_lower, e_upper)

        monkeypatch.setattr(spin_frame, "build_tetrad", phased_leg)
        (result,) = suite.run_suite(minkowski, n_points=2, seed=5,
                                    only=check).checks
        assert result.max_rel_error > 1e3 * result.tolerance
        assert not result.passed


@pytest.mark.parametrize("name", ("schwarzschild", "frw_dust"))
def test_gauge_table_is_one_run_of_the_check(name, monkeypatch):
    """``run_gauge`` runs its check once, on the whole context; the table
    holds the check's per-point errors, and their maximum is its error."""
    contexts = []
    for desc in suite.REGISTRY:
        if desc.id in suite.GAUGE_CHECKS:
            def counting(ctx, runner=desc.runner):
                contexts.append(ctx)
                return runner(ctx)
            monkeypatch.setattr(desc, "runner", counting)
    rep = suite.run_gauge(load_preset(name), n_points=5, seed=5)
    (check,) = rep.checks
    assert len(contexts) == 1 and contexts[0] is rep.ctx
    assert len(rep.ctx.points) == 5
    table = rep.extra["points_table"]
    assert [row["max_rel_error"] for row in table] == check.point_errors
    assert max(check.point_errors) == check.max_rel_error


def test_every_runner_returns_one_error_per_point():
    """Each registered runner, on a preset whose class it applies to,
    returns one error per context point, and ``run_suite`` keeps them as
    the check's ``point_errors`` and folds them into its error."""
    contexts = [suite.build_context(load_preset(name), 3, seed=5, mass=1.0)
                for name in ("minkowski_cartesian", "schwarzschild",
                             "de_sitter_static", "frw_dust")]
    for desc in suite.REGISTRY:
        ctx = next(c for c in contexts if desc.applies(c.met_class))
        assert np.shape(desc.runner(ctx)[1]) == (3,), desc.id
    for ctx in contexts:
        for check in suite.run_suite(ctx.spec, n_points=3, seed=5).checks:
            assert len(check.point_errors) == 3, check.id
            assert check.max_rel_error == max(check.point_errors), check.id


@pytest.mark.parametrize("errors", [0.0, np.zeros(2), np.zeros((3, 1))],
                         ids=["float", "short", "column"])
def test_a_runner_without_one_error_per_point_is_an_error(
        schwarzschild, monkeypatch, errors):
    """A runner that folds its errors itself, or returns them in any shape
    but one per point, makes ``run_suite`` raise naming the check."""
    desc = next(d for d in suite.REGISTRY if d.id == "eq_1_3_hermiticity")
    monkeypatch.setattr(desc, "runner", lambda ctx: (len(ctx.points), errors))
    with pytest.raises(ValueError, match="eq_1_3_hermiticity"):
        suite.run_suite(schwarzschild, n_points=3, seed=5, only=(desc.id,))


class TestNaNErrors:
    def test_fold_propagates_nan(self):
        assert suite._worst() == 0.0
        assert suite._worst(0.5, 2.0, 1.0) == 2.0
        for errors in ((np.nan, 1.0), (1.0, np.nan), (1.0, np.nan, 3.0)):
            assert np.isnan(suite._worst(*errors))

    @pytest.mark.parametrize("check", ["eq_1_2a_operator_form",
                                       "eq_1_6_gamma_contraction",
                                       "eq_1_7_derivative_chain"])
    def test_nan_coefficient_fails_the_check(self, schwarzschild, check,
                                             monkeypatch):
        # a NaN in the operator blocks makes every error NaN; the check
        # must fail, not report 0.0
        patch_everywhere(monkeypatch, spin_frame, "THIRD", float("nan"))
        (result,) = suite.run_suite(schwarzschild, n_points=2, seed=5,
                                    only=(check,)).checks
        assert np.isnan(result.max_rel_error)
        assert not result.passed


@pytest.mark.parametrize("seed", range(12))
def test_eps_contraction_on_the_spherical_flat_chart(minkowski_spherical, seed):
    # with curvature from a Christoffel stencil this check read 5e-9 to
    # 2.5e-8 against 1e-8 here and failed 6 of these 12 seeds
    (result,) = suite.run_suite(minkowski_spherical, n_points=20, seed=seed,
                                only=("eps_determinant_contraction",)).checks
    assert result.passed
    assert result.max_rel_error < 1e-3 * result.tolerance
