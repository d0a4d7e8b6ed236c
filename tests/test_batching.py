"""Row batches of the frame -> blocks -> D_nu stack: a batch equals its row
loop, the gates still see the one batched path, and the work counts of the
nested chains stay pinned."""

import numpy as np
import pytest

from curved_rs import gauge
from curved_rs import rs_operator as rso
from curved_rs.errors import OutOfDomain
from curved_rs.fields import (
    BISPINOR,
    FieldSampler,
    gamma_traceless_field,
    polynomial_field,
    trig_field,
)
from curved_rs.geometry import ETA, MetricSpec, Point
from curved_rs.identity_suite import run_suite
from curved_rs.rs_operator import MassParam
from curved_rs.spacetimes import PRESET_NAMES, load_preset
from curved_rs.spin_frame import (
    SpinConnection,
    _diagonal_rows,
    gamma_set_at,
    gamma_sets,
)

from conftest import points_of

MASS = MassParam(1.0)

#: a constant symmetric perturbation that makes the metric non-diagonal
_SKEW = np.zeros((4, 4))
_SKEW[0, 1] = _SKEW[1, 0] = 0.1
_SKEW[1, 2] = _SKEW[2, 1] = 0.03
_SKEW[2, 3] = _SKEW[3, 2] = 0.05


def _skewed_metric(p):
    t, x, y, z = p.coords
    return (1.0 + 0.1 * x * x + 0.05 * y * z) * (ETA + (1.0 + 0.2 * t) * _SKEW)


#: a hand-built Lorentzian metric that is nowhere diagonal, so its tetrads
#: come from the batched eigen-decomposition
SKEWED = MetricSpec("skewed", _skewed_metric, chart_id="skewed",
                    sample_box=((-0.5, 0.5),) * 4)

SPEC_NAMES = tuple(PRESET_NAMES) + ("skewed",)


def _spec(name):
    return SKEWED if name == "skewed" else load_preset(name)


def _rows(spec, n=3):
    return np.stack([p.coords for p in points_of(spec, n, seed=77)])


def _wrapped_samplers(spec):
    box = spec.sample_box
    vb = trig_field(31, box=box)
    sp = polynomial_field(32, BISPINOR, box=box)
    return {
        "residual": rso.residual_sampler(vb, spec, MASS),
        "first_constraint": rso.first_constraint_sampler(vb, spec, MASS),
        "gradient": gauge.gradient_sampler(sp, spec, nested=True),
        "gamma_traceless": gamma_traceless_field(33, spec, box=box),
    }


def test_skewed_metric_takes_the_eigen_path():
    metrics = gamma_sets(SKEWED, _rows(SKEWED)).metric.g_lower
    assert not _diagonal_rows(metrics).any()


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_batch_equals_row_loop(name):
    spec = _spec(name)
    coords = _rows(spec)
    for label, sampler in _wrapped_samplers(spec).items():
        assert sampler.batch is not None, label
        batch = sampler.at(coords, spec.chart_id)
        loop = np.stack([sampler(Point(c, spec.chart_id)) for c in coords])
        assert batch.shape == loop.shape, label
        assert np.max(np.abs(batch - loop)) <= 1e-13 * np.max(np.abs(loop)), label


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_single_point_is_row_of_the_batch(name):
    spec = _spec(name)
    coords = _rows(spec)
    batch = gamma_sets(spec, coords)
    alpha, beta = rso._alpha_beta_rows(batch.gamma_down, batch.gamma_up,
                                       batch.metric.g_upper)
    for i, c in enumerate(coords):
        gs = gamma_set_at(spec, Point(c, spec.chart_id))
        for key in ("gamma_up", "gamma_down", "sigma_curved", "eps_upper",
                    "eps_lower"):
            assert np.array_equal(getattr(gs, key), getattr(batch, key)[i]), key
        assert np.array_equal(gs.tetrad.e_lower, batch.tetrad.e_lower[i])
        assert np.array_equal(gs.metric.g_upper, batch.metric.g_upper[i])
        assert gs.metric.det_g == batch.metric.det_g[i]
        alphas, beta_one = rso.build_alpha_beta(gs)
        assert np.array_equal(beta_one.blocks, beta[i])
        for nu in range(4):
            assert np.array_equal(alphas[nu].blocks, alpha[i, nu])


def test_one_row_outside_the_domain_raises(schwarzschild):
    coords = _rows(schwarzschild)
    coords[1, 1] = 1.5  # inside the horizon r = 2M
    samplers = _wrapped_samplers(schwarzschild)
    for label, sampler in samplers.items():
        with pytest.raises(OutOfDomain):
            sampler.at(coords, schwarzschild.chart_id)
    with pytest.raises(OutOfDomain):
        rso.covariant_derivative(trig_field(3), schwarzschild, coords)


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
    stencil; without the connection there, both gates fail."""
    checks = ("eq_1_7_derivative_chain", "eq_2_7b_massless_gradient")
    assert all(_verdicts(schwarzschild, checks).values())
    original = rso._covariant_rows

    def without_connection_on_rows(field, spec, coords, chart_id, em, charge,
                                   base_step, richardson, include_spin=True,
                                   stencil_budget=None):
        return original(field, spec, coords, chart_id, em, charge, base_step,
                        richardson, include_spin and len(coords) == 1,
                        stencil_budget)

    monkeypatch.setattr(rso, "_covariant_rows", without_connection_on_rows)
    assert not any(_verdicts(schwarzschild, checks).values())


def test_connection_dropped_everywhere(schwarzschild, frw_dust, monkeypatch):
    """With no spin connection at any level 1.7 fails on Schwarzschild and
    2.8c on dust.  2.7b cannot see it: without a connection the massless
    residual of a gradient field, eps^{r nu s mu} gamma_mu D_nu d_s psi,
    vanishes identically (eps antisymmetrizes d_nu d_s and the symmetric
    Christoffels), so the gauge obstruction only shows where 2.8c runs."""
    monkeypatch.setattr(rso, "spin_connection",
                        lambda spec, x: SpinConnection(np.zeros((4, 4, 4))))
    assert not any(_verdicts(schwarzschild,
                             ("eq_1_7_derivative_chain",)).values())
    assert not any(_verdicts(frw_dust, ("eq_2_8c_gauge_criterion",)).values())


# ---------------------------------------------------------------------------
# work counts of the nested chains
# ---------------------------------------------------------------------------


def test_derivative_chain_samples_its_fixture_twice(schwarzschild,
                                                    monkeypatch):
    """1.7 at one point: one ``at`` call for the residual's stencil of
    stencils, one for the first constraint's."""
    fld = trig_field(41, box=schwarzschild.sample_box)
    calls = []
    original = FieldSampler.at

    def counting_at(self, coords, chart_id=""):
        if self is fld:
            calls.append(len(coords))
        return original(self, coords, chart_id)

    monkeypatch.setattr(FieldSampler, "at", counting_at)
    x = points_of(schwarzschild, 1, seed=9)[0]
    rso.derivative_chain_check(fld, schwarzschild, x, MASS)
    assert calls == [17 * 17, 17 * 17]


def test_massless_gradient_takes_one_outer_derivative(schwarzschild,
                                                      monkeypatch):
    """2.7b at one point with 3 fixtures: per fixture one outer derivative
    and one batched inner derivative over the 17 outer rows."""
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
    assert len(calls) == 6
