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
    FieldStack,
    polynomial_field,
    trig_field,
)
from curved_rs.identity_suite import build_context
from curved_rs.spacetimes import PRESET_NAMES, load_preset

from oracles import stencil_sampler

#: how far a fixture of the stack may lie from it alone, relative to the
#: larger side (or, for 1.7's nested side, whose terms nearly cancel, the
#: fixture's size); a stacked contraction sums in another order than a
#: single one, and moves its result in the last bits: it is one matmul
#: whose rows run over the fixtures, which the single one does not have
BOUND = 1e-12


def _vanishes(side, psi):
    """The side is below BOUND of the fixture's size: its entries are
    roundoff, as 1.7's algebraic side is on anti-de Sitter at m = 1, where
    its terms cancel."""
    return np.max(np.abs(side)) < BOUND * np.max(np.abs(psi))


def _close(stacked, single, label, scale=0.0):
    assert stacked.shape == single.shape, label
    err = np.max(np.abs(stacked - single))
    assert err <= BOUND * max(np.max(np.abs(single)), scale), (label, err)


def _sides(frame, rows, mass):
    """The sides of 1.2a, 1.6, 1.7, 1.9 and 1.10c from a ``CovariantJet``,
    as the suite computes them."""
    d, psi = rows.d, rows.psi
    return {
        "1.2a blocks": rso.rs_residual(frame, d, psi, mass),
        "1.2a terms": identity_suite._term_by_term_residual(d, psi, frame,
                                                            mass),
        "1.6": rso.contraction_identity(frame, d, psi, mass),
        "1.7 nested": rso.derivative_chain(frame, d, rows.dd, psi, rows.dpsi,
                                           mass),
        "1.7 algebraic": rso.chain_rhs(frame, psi, mass,
                                       rso.curvature_commutator(frame, psi)),
        "1.9 nested": rso.second_covariant_comm(frame, d, rows.dd),
        "1.9 algebraic": rso.curvature_commutator(frame, psi)[0],
        "1.10c nested": rso.bridge_commutator(frame, rows.christ,
                                              rows.dchrist),
        "1.10c algebraic": rso.ricci_contraction(frame, psi),
    }


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_each_fixture_of_the_stack_equals_it_alone(name):
    """Every fixture slice of the stacked sides equals that fixture run on
    its own through the same functions, from its own ``covariant_jet``
    (no fixture axis), to 1e-12 relative; 1.7's nested side, and its
    algebraic side where that vanishes (``_vanishes``), to 1e-12 of the
    fixture's size."""
    ctx = build_context(load_preset(name), 4, seed=11, mass=1.0)
    stacked = _sides(ctx.frame, ctx.fixture_rows, ctx.mass)
    psi = ctx.fixture_rows.psi
    for k, fld in enumerate(ctx.vb_fixtures):
        alone = _sides(ctx.frame, rso.covariant_jet(fld, ctx.frame), ctx.mass)
        for label, single in alone.items():
            if label == "1.7 nested" or (label == "1.7 algebraic"
                                         and _vanishes(single, psi[..., k])):
                _close(stacked[label][..., k], single, label,
                       scale=np.max(np.abs(psi[..., k])))
            elif isinstance(single, tuple):  # 1.6: (lhs, rhs)
                for a, b in zip(stacked[label], single, strict=True):
                    _close(a[..., k], b, label)
            else:
                _close(stacked[label][..., k], single, label)


def test_the_chain_vanishes_on_anti_de_sitter_alone():
    """The fixture-size floor of 1.7's algebraic side above reaches
    anti-de Sitter alone, every fixture of it; on every other preset the
    side keeps the bound relative to its own size."""
    floored = set()
    for name in PRESET_NAMES:
        ctx = build_context(load_preset(name), 4, seed=11, mass=1.0)
        psi = ctx.fixture_rows.psi
        side = rso.chain_rhs(ctx.frame, psi, ctx.mass,
                             rso.curvature_commutator(ctx.frame, psi))
        floored |= {(name, k) for k in range(psi.shape[-1])
                    if _vanishes(side[..., k], psi[..., k])}
    assert floored == {("anti_de_sitter_static", k)
                       for k in range(identity_suite.FIXTURE_COUNT)}


def test_nested_rows_are_each_forms_own_covariant_rows(schwarzschild):
    """The shared second-order pass gives, to the bit, the Christoffel-only
    and the full D_nu Psi that ``covariant_rows`` gives on the context
    rows, the field there, and each fixture's own ``covariant_jet``."""
    ctx = build_context(schwarzschild, 3, seed=4, mass=1.0)
    rows = ctx.fixture_rows
    for k, fld in enumerate(ctx.vb_fixtures):
        c1, p1 = rso.covariant_rows(fld, ctx.frame, include_spin=False)
        d1, _ = rso.covariant_rows(fld, ctx.frame)
        assert np.array_equal(rows.christ[..., k], c1)
        assert np.array_equal(rows.d[..., k], d1)
        assert np.array_equal(rows.psi[..., k], p1)
        assert np.array_equal(rows.psi[..., k], fld.at(ctx.frame))
        alone = rso.covariant_jet(fld, ctx.frame)
        assert np.array_equal(rows.dpsi[..., k], alone.dpsi)
        for stacked, single in zip(rows, alone, strict=True):
            assert stacked[..., k].shape == single.shape


def test_a_stack_holds_one_kind(schwarzschild):
    box = schwarzschild.sample_box
    with pytest.raises(ValueError, match="one kind"):
        FieldStack((trig_field(1, box=box),
                    polynomial_field(2, BISPINOR, box=box)))
    stack = FieldStack((trig_field(1, box=box), trig_field(2, box=box)))
    rows = np.array([[0.1, 4.0, 1.0, 1.0], [0.2, 5.0, 1.5, 2.0]])
    values, d, dd = stack.jet(rows, 2)
    assert values.shape == (2, 4, 4, 2)
    assert d.shape == (2, 4, 4, 4, 2)
    assert dd.shape == (2, 4, 4, 4, 4, 2)
    assert stack.kind == VECTOR_BISPINOR
    for k, fld in enumerate(stack.members):
        value_k, d_k, dd_k = fld.jet(rows, 2)
        assert np.array_equal(values[..., k], value_k)
        assert np.array_equal(values[..., k], fld.at(rows))
        assert np.array_equal(d[..., k], d_k)
        assert np.array_equal(d[..., k], fld.jet(rows)[1])
        assert np.array_equal(dd[..., k], dd_k)


def _scaled(fld, factor):
    return stencil_sampler(lambda rows: factor * fld.at(rows), fld.kind,
                           f"scaled({fld.name})")


def _noisy(fld, rel):
    """``fld`` with relative noise of size ``rel`` on every value: not
    smooth, so the Richardson differences of its second-order stencil jet
    amplify the noise by 1/h^2."""
    rng = np.random.default_rng(0)

    def values(rows):
        values = fld.at(rows)
        return values * (1.0 + rel * rng.standard_normal(values.shape))

    return stencil_sampler(values, fld.kind, f"noisy({fld.name})")


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
    assert np.max(runner.runner(scaled)[1]) <= runner.tolerance
    fixtures[1] = _noisy(fixtures[1], 1e-9)
    ctx.vb_fixtures = fixtures
    assert np.max(runner.runner(ctx)[1]) > runner.tolerance
