"""The fixture axis: a ``FieldStack`` carries a trailing fixture axis
through the operator layer, each fixture of the stack equals that fixture
run alone, and each keeps its own scale in the errors."""

import numpy as np
import pytest

from curved_rs import identity_suite
from curved_rs import rs_operator as rso
from curved_rs.fields import (
    BISPINOR,
    VECTOR_BISPINOR,
    FieldSampler,
    FieldStack,
    polynomial_field,
    trig_field,
)
from curved_rs.identity_suite import build_context
from curved_rs.numerics import STEP_OUTER
from curved_rs.spacetimes import PRESET_NAMES, load_preset

#: how far a fixture of the stack may lie from it alone, relative to the
#: larger side; a stacked contraction sums in another order than a single
#: one, and moves its result in the last bits
BOUND = 1e-12
#: the same for 1.7's nested side, relative to the fixture's size: its outer
#: difference divides the last-bit moves of the stacked residual it
#: differences (held to ``BOUND`` above) by the outer step
NESTED_BOUND = BOUND / STEP_OUTER


def _close(stacked, single, label, bound=BOUND, scale=0.0):
    assert stacked.shape == single.shape, label
    err = np.max(np.abs(stacked - single))
    assert err <= bound * max(np.max(np.abs(single)), scale), (label, err)


def _sides(ctx):
    """The stacked sides of 1.2a, 1.6, 1.7, 1.9 and 1.10c, as the suite
    computes them from the context's two shared passes."""
    d, psi = ctx.fixture_rows
    christ, dn, psi_outer, centre = ctx.chain_rows
    frame, chain, mass = ctx.frame, ctx.chain_frame, ctx.mass
    return {
        "1.7 inner residual": rso.rs_residual(chain.outer, dn, psi_outer,
                                              mass),
        "1.2a blocks": rso.rs_residual(frame, d, psi, mass),
        "1.2a terms": identity_suite._term_by_term_residual(d, psi, frame,
                                                            mass),
        "1.6": rso.contraction_identity(frame, d, psi, mass),
        "1.7 nested": rso.derivative_chain(chain, dn, psi_outer, mass),
        "1.7 algebraic": rso.chain_rhs(chain, centre, mass),
        "1.9 nested": rso.second_covariant_comm(chain, dn),
        "1.9 algebraic": rso.curvature_commutator(chain, centre)[0],
        "1.10c nested": rso.bridge_commutator(chain, christ),
        "1.10c algebraic": rso.ricci_contraction(chain, centre),
    }


def _alone(fld, ctx):
    """The same sides for one sampler, from its own ``covariant_rows`` and
    ``nested_rows`` (no fixture axis)."""
    frame, chain, mass = ctx.frame, ctx.chain_frame, ctx.mass
    d, psi = rso.covariant_rows(fld, frame)
    christ, dn, psi_outer = rso.nested_rows(fld, chain)
    at_chain = fld.at(chain)
    return {
        "1.7 inner residual": rso.rs_residual(chain.outer, dn, psi_outer,
                                              mass),
        "1.2a blocks": rso.rs_residual(frame, d, psi, mass),
        "1.2a terms": identity_suite._term_by_term_residual(d, psi, frame,
                                                            mass),
        "1.6": rso.contraction_identity(frame, d, psi, mass),
        "1.7 nested": rso.derivative_chain(chain, dn, psi_outer, mass),
        "1.7 algebraic": rso.chain_rhs(chain, at_chain, mass),
        "1.9 nested": rso.second_covariant_comm(chain, dn),
        "1.9 algebraic": rso.curvature_commutator(chain, at_chain)[0],
        "1.10c nested": rso.bridge_commutator(chain, christ),
        "1.10c algebraic": rso.ricci_contraction(chain, at_chain),
    }


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_each_fixture_of_the_stack_equals_it_alone(name):
    """Every fixture slice of the stacked sides equals that fixture run on
    its own through the same functions, to 1e-12 relative; 1.7's nested
    side to 1e-8 of the fixture's size."""
    ctx = build_context(load_preset(name), 4, seed=11, mass=1.0)
    stacked = _sides(ctx)
    centre = ctx.chain_rows[3]
    for k, fld in enumerate(ctx.vb_fixtures):
        for label, single in _alone(fld, ctx).items():
            if label == "1.7 nested":
                _close(stacked[label][..., k], single, label, NESTED_BOUND,
                       np.max(np.abs(centre[..., k])))
            elif isinstance(single, tuple):  # 1.6: (lhs, rhs)
                for a, b in zip(stacked[label], single, strict=True):
                    _close(a[..., k], b, label)
            else:
                _close(stacked[label][..., k], single, label)


def test_nested_rows_are_each_forms_own_covariant_rows(schwarzschild):
    """The shared inner pass gives, to the bit, the Christoffel-only and the
    full D_nu Psi that ``covariant_rows`` gives on the outer frame, and the
    stencil centres give the field on the chain rows."""
    ctx = build_context(schwarzschild, 3, seed=4, mass=1.0)
    christ, d, psi, centre = ctx.chain_rows
    outer = ctx.chain_frame.outer
    for k, fld in enumerate(ctx.vb_fixtures):
        c1, p1 = rso.covariant_rows(fld, outer, nested=True,
                                    include_spin=False)
        d1, _ = rso.covariant_rows(fld, outer, nested=True)
        assert np.array_equal(christ[..., k], c1)
        assert np.array_equal(d[..., k], d1)
        assert np.array_equal(psi[..., k], p1)
        assert np.array_equal(centre[..., k], fld.at(ctx.chain_frame))


def test_a_stack_holds_one_kind(schwarzschild):
    box = schwarzschild.sample_box
    with pytest.raises(ValueError, match="one kind"):
        FieldStack((trig_field(1, box=box),
                    polynomial_field(2, BISPINOR, box=box)))
    stack = FieldStack((trig_field(1, box=box), trig_field(2, box=box)))
    rows = np.array([[0.1, 4.0, 1.0, 1.0], [0.2, 5.0, 1.5, 2.0]])
    values = stack.at(rows)
    assert values.shape == (2, 4, 4, 2)
    assert stack.kind == VECTOR_BISPINOR
    for k, fld in enumerate(stack.members):
        assert np.array_equal(values[..., k], fld.at(rows))


def _scaled(fld, factor):
    return FieldSampler(fld.fn, fld.kind, f"scaled({fld.name})",
                        lambda rows: factor * fld.at(rows))


def _noisy(fld, rel):
    """``fld`` with relative noise of size ``rel`` on every value: not
    smooth, so its nested differences amplify the noise by 1/h^2."""
    rng = np.random.default_rng(0)

    def batch(rows):
        values = fld.at(rows)
        return values * (1.0 + rel * rng.standard_normal(values.shape))

    return FieldSampler(fld.fn, fld.kind, f"noisy({fld.name})", batch)


@pytest.mark.parametrize("check", ["eq_1_7_derivative_chain",
                                   "eq_1_9_commutator_decomposition"])
def test_a_large_fixture_does_not_hide_a_small_ones_error(schwarzschild,
                                                          check):
    """Fixture 0 scaled by 1e8 and fixture 1 made rough (noise of 1e-9 of
    its size): each fixture is measured against its own size, so fixture 1
    fails the check.  Normalised over the whole stack, its error would
    fall 1e8-fold below the tolerance and the check would pass."""
    runner = next(d for d in identity_suite.REGISTRY if d.id == check)
    ctx = build_context(schwarzschild, 4, seed=5, mass=1.0)
    fixtures = list(ctx.vb_fixtures)
    fixtures[0] = _scaled(fixtures[0], 1e8)
    scaled = build_context(schwarzschild, 4, seed=5, mass=1.0)
    scaled.vb_fixtures = list(fixtures)
    assert runner.runner(scaled)[1] <= runner.tolerance
    fixtures[1] = _noisy(fixtures[1], 1e-9)
    ctx.vb_fixtures = fixtures
    assert runner.runner(ctx)[1] > runner.tolerance
