"""Batch runner executing every registered identity check at randomized
points of a metric, with per-check tolerances and a deterministic report.

Checks carry an equation tag (a stable id shared with the JSON report), a
tolerance, an expectation ("zero" holds everywhere / "nonzero" must be
violated by exactly the predicted amount), and a metric-applicability
filter driven by the numerically measured curvature class of the metric
(flat, Ricci-flat, Einstein, non-vacuum).  Identical inputs produce a
byte-identical report apart from the timing fields.  ``run_gauge`` and
``run_constraints`` run subsets of the registry through the same path and
add their own report keys.

The checks on the vector-bispinor fixtures run once over a
``fields.FieldStack`` of all of them, whose values carry a trailing
fixture axis through the operator layer's ``...`` contractions.  Each
context makes one pass over the stack, one exact second-order jet call per
fixture on the context rows (``SuiteContext.fixture_rows``), which every
check on the fixtures shares; the nested ones take no finite difference.
Every error is relative per (row, fixture) pair, so a large fixture
cannot hide a small one's error.  1.11b's and 1.12's plane waves and
1.13's gamma-traceless fields run the same way, each as one stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import gauge as gauge_mod
from . import rs_operator as rso
from .errors import ConfigError
from .fields import (
    BISPINOR,
    VECTOR_BISPINOR,
    FieldStack,
    fixture_family,
    flat_rs_plane_wave,
    polynomial_field,
)
from .geometry import (
    ETA,
    MetricSpec,
    Point,
    covariant_metric_derivative,
)
from .numerics import STENCIL_POLICY, contract, partial4
from .spin_frame import (
    IDENTITY_DENSE,
    SIGMA_FLAT,
    Frame,
    build_frame,
    connection_curvature,
    gamma_set_at,
)

SCHEMA_VERSION = 3

# default tolerance bands
TOL_ALGEBRAIC = 1e-10
TOL_TRANSFORM = 1e-12
TOL_FIRST_ORDER = 1e-6
TOL_SECOND_ORDER = 1e-4
TOL_CONTRACTION = 1e-7
TOL_GAUGE_ZERO = 1e-5
TOL_GAUGE_MATCH = 1e-4
TOL_CURVCOMM_ANALYTIC = 1e-8
#: read only by the benchmark's document check; delete with that reader
TOL_CURVCOMM_FD = 1e-5
TOL_EINSTEIN = 1e-5
TOL_FACTOR = 1e-6
TOL_FLAT_REDUCTION = 1e-8

FIXTURE_COUNT = 5
#: draws from the sampling box per asked point before sampling gives up
SAMPLE_DRAWS_PER_POINT = 1000

#: the checks behind the ``gauge`` and ``constraints`` commands
GAUGE_CHECKS = ("eq_2_7b_massless_gradient", "eq_2_8c_gauge_criterion")
CONSTRAINT_CHECKS = ("eq_1_6_gamma_contraction",
                     "eq_1_11a_constraint_reduction")


@dataclass
class MetricClass:
    """Numerically measured curvature class of a metric."""

    riemann_scale: float
    ricci_norm: float
    einstein_dev: float
    scalar: float
    christoffel_norm: float
    #: largest |g - eta| over the points
    eta_dev: float

    @property
    def is_flat(self) -> bool:
        return self.riemann_scale < 1e-6

    @property
    def flat_cartesian(self) -> bool:
        """Flat in a chart whose connection coefficients vanish, so that
        constant-coefficient plane waves solve the system."""
        return self.is_flat and self.christoffel_norm < 1e-10

    @property
    def is_eta(self) -> bool:
        """The metric is eta itself (|g - eta| <= 1e-12), which the flat
        plane waves of 1.11b and 1.12 are built for."""
        return self.flat_cartesian and self.eta_dev <= 1e-12

    @property
    def ricci_flat(self) -> bool:
        return self.ricci_norm <= 1e-5 * max(self.riemann_scale, 1e-3)

    @property
    def einstein_space(self) -> bool:
        return self.einstein_dev <= 1e-5 * max(self.riemann_scale, 1e-3)

    def describe(self) -> str:
        if self.is_flat:
            return "flat"
        if self.ricci_flat:
            return "ricci_flat"
        if self.einstein_space:
            return "einstein"
        return "generic"


@dataclass
class SuiteContext:
    spec: MetricSpec
    points: list
    seed: int
    mass: rso.MassParam
    met_class: MetricClass
    vb_fixtures: list
    sp_fixtures: list

    @cached_property
    def frame(self) -> Frame:
        """The frame of ``points``, shared by every check; a context made
        by ``replace(ctx, points=...)`` builds its own."""
        return build_frame(self.spec, [x.coords for x in self.points])

    @cached_property
    def projection_frame(self) -> Frame:
        """A frame of the context rows built apart from ``frame``: 1.13
        projects its gamma-traceless fields with its Dirac matrices, so
        that the operator checked on them is not checked by itself."""
        return build_frame(self.spec, self.frame.coords)

    @cached_property
    def fixtures(self) -> FieldStack:
        """The stack of ``vb_fixtures``."""
        return FieldStack(tuple(self.vb_fixtures))

    @cached_property
    def fixture_rows(self) -> rso.CovariantJet:
        """``covariant_jet`` of the fixture stack on the frame's rows: one
        second-order ``jet`` call per fixture, shared by every check on
        the fixtures."""
        return rso.covariant_jet(self.fixtures, self.frame)

    @cached_property
    def curvature_forms(self) -> tuple:
        """(commutator, chain): the curvature forms of the fixture stack on
        the frame's rows, from one ``curvature_commutator`` pass, which
        1.9 reads, and the ``chain_rhs`` of it, which 1.7 and 1.11a
        read."""
        psi = self.fixture_rows.psi
        commutator = rso.curvature_commutator(self.frame, psi)
        return (commutator[0],
                rso.chain_rhs(self.frame, psi, self.mass, commutator))

    @cached_property
    def generic_transform(self) -> tuple:
        """(``transform_CS``, ``transform_printed``) of the frame's blocks
        at ``_GENERIC_ABC``, which 2.3 and 2.5 compare stage by stage."""
        gs = self.frame.gammas
        return (rso.transform_CS(*rso.build_alpha_beta(gs), gs, *_GENERIC_ABC),
                rso.transform_printed(gs, *_GENERIC_ABC))


@dataclass
class CheckDescriptor:
    id: str
    tag: str
    tolerance: float
    expect: str  # "zero" | "nonzero"
    applies: Callable[[MetricClass], bool]
    runner: Callable[[SuiteContext], tuple]


@dataclass
class CheckResult:
    id: str
    tag: str
    tolerance: float
    expect: str
    points: int
    max_rel_error: float
    passed: bool
    runtime_s: float
    note: str = ""
    #: the check's error at each point, which ``max_rel_error`` folds (not
    #: reported)
    point_errors: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        """Every field but ``point_errors``, read field by field
        (``asdict`` would deep-copy the point errors first)."""
        return {k: v for k, v in vars(self).items() if k != "point_errors"}


@dataclass
class SuiteReport:
    """Checks run on one context; ``kind`` and ``extra`` (further top-level
    report keys) distinguish the commands built on the suite."""

    ctx: SuiteContext
    checks: list
    runtime_s: float
    kind: str = "identity_suite"
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def curvature_class(self) -> str:
        return self.ctx.met_class.describe()

    def to_dict(self) -> dict:
        spec = self.ctx.spec
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "environment": {
                "metric": spec.name,
                "params": dict(sorted(spec.params.items())),
                "config_hash": (spec.chart_id.split(":", 1)[1]
                                if spec.chart_id.startswith("config:")
                                else None),
                "seed": self.ctx.seed,
                "points": len(self.ctx.points),
                "mass": self.ctx.mass.m,
                "stencil_policy": STENCIL_POLICY,
                "curvature_class": self.curvature_class,
            },
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
            "runtime_s": self.runtime_s,
            **self.extra,
        }


def _worst(*errors) -> float:
    """The largest error (0.0 of none); NaN when any error is NaN.  The one
    fold of a check's point errors, in ``run_suite``: Python's ``max``
    keeps its first argument against a NaN, so a NaN error would pass its
    check."""
    worst = 0.0
    for err in errors:
        if not err <= worst:
            worst = float(err)
            if worst != worst:
                break
    return worst


def _row_max(a) -> np.ndarray:
    return np.max(np.abs(a).reshape(len(a), -1), axis=1)


def _fixture_max(a) -> np.ndarray:
    """``_row_max`` of each fixture of a stack [n, ..., F]: [n, F]."""
    return np.max(np.abs(a).reshape(len(a), -1, a.shape[-1]), axis=1)


def _row_rel(err, *scales) -> np.ndarray:
    """The errors [n] over the largest of 1e-300 and the scales (each [n]
    or a number)."""
    floor = 1e-300
    for s in scales:
        floor = np.maximum(floor, np.abs(s))
    return err / floor


def _max_row_rel(lhs, rhs, psi) -> np.ndarray:
    """Per row, the largest over fixtures of max|lhs - rhs| relative to the
    (row, fixture) pair's largest entry of lhs, rhs and psi (stacks
    [n, ..., F]), so that each fixture is measured against its own size."""
    scale = np.maximum(np.maximum(_fixture_max(lhs), _fixture_max(rhs)),
                       _fixture_max(psi))
    return np.max(_fixture_max(lhs - rhs) / np.maximum(scale, 1e-300), axis=1)


# ---------------------------------------------------------------------------
# check implementations
# ---------------------------------------------------------------------------


def _dagger(a):
    return np.swapaxes(a, -1, -2).conj()


def _chk_hermiticity(ctx):
    gs, G = ctx.frame.gammas, ctx.frame.connection
    g0, gu = gs.gamma_flat[0], gs.gamma_up
    errs = np.maximum(
        _row_rel(_row_max(_dagger(gu) - g0 @ gu @ g0), 1.0, _row_max(gu)),
        _row_rel(_row_max(_dagger(G) @ g0 + g0 @ G), 1.0, _row_max(G)))
    return len(ctx.points), errs


def _chk_covariant_constancy(ctx):
    """d_s gamma^r + Gamma^r_{s l} gamma^l + [Gamma_s, gamma^r] on the
    frame's rows, with d_s gamma^r differenced over Dirac matrices built
    apart from the frame (one ``gamma_set_at`` on all the shifted rows)."""
    frame = ctx.frame

    # d[x, s, r, i, j] = d_s gamma^r
    d = partial4(lambda rows: gamma_set_at(ctx.spec, rows).gamma_up,
                 frame.coords)
    gu, G = frame.gammas.gamma_up, frame.connection
    val = (d
           + contract("xrsl,xlij->xsrij", frame.christoffel, gu)
           + contract("xsij,xrjk->xsrik", G, gu)
           - contract("xrij,xsjk->xsrik", gu, G))
    errs = _row_rel(_row_max(val), 1.0, _row_max(gu))
    return len(ctx.points), errs


def _chk_clifford(ctx):
    gs = ctx.frame.gammas
    g_up, g5 = gs.metric.g_upper, gs.gamma5
    anti = contract("xaij,xbjk->xabik", gs.gamma_up, gs.gamma_up)
    anti = anti + np.swapaxes(anti, 1, 2)
    target = 2.0 * np.einsum("xab,ij->xabij", g_up, np.eye(4))
    trace = contract("xaij,xajk->xik", gs.gamma_up, gs.gamma_down)
    errs = np.maximum(
        _row_rel(_row_max(anti - target), 1.0, _row_max(g_up)),
        _row_rel(_row_max(trace - 4.0 * np.eye(4)), 4.0))
    flat = np.maximum(np.max(np.abs(g5 @ g5 - np.eye(4))),
                      np.max(np.abs(g5 @ gs.gamma_flat + gs.gamma_flat @ g5)))
    return len(ctx.points), np.maximum(errs, flat)


def _chk_sigma_tetrad(ctx):
    gs = ctx.frame.gammas
    g_up, sigma, e_up = gs.metric.g_upper, gs.sigma_curved, gs.tetrad.e_upper
    prod = contract("xaij,xbjk->xabik", gs.gamma_up, gs.gamma_up)
    target = np.einsum("xab,ij->xabij", g_up, np.eye(4)) + 2.0 * sigma
    tetrad_sigma = contract("xbn,xmbij->xmnij", e_up,
                            contract("xam,abij->xmbij", e_up, SIGMA_FLAT))
    errs = np.maximum(
        _row_rel(_row_max(prod - target), 1.0, _row_max(g_up)),
        _row_rel(_row_max(tetrad_sigma - sigma), 1.0, _row_max(sigma)))
    return len(ctx.points), errs


def _chk_triple_gamma(ctx):
    gs = ctx.frame.gammas
    gu, g_up = gs.gamma_up, gs.metric.g_upper
    eps_gd = contract("xabrs,xsij->xabrij", gs.eps_upper, gs.gamma_down)
    # every product gamma^a gamma^b gamma^r, indexed [x, a, b, r, i, j]
    lhs = contract("xabij,xrjk->xabrik",
                   contract("xaij,xbjk->xabik", gu, gu), gu)
    ga = gu[:, :, None, None]
    gb = gu[:, None, :, None]
    gr = gu[:, None, None, :]
    rhs = (ga * g_up[:, None, :, :, None, None]
           - gb * g_up[:, :, None, :, None, None]
           + gr * g_up[:, :, :, None, None, None]
           + 1j * contract("ij,xabrjk->xabrik", gs.gamma5, eps_gd))
    # each product relative to its own size
    errs = _row_rel(np.max(np.abs(lhs - rhs), axis=(-2, -1)), 1.0,
                    np.max(np.abs(lhs), axis=(-2, -1)))
    return len(ctx.points), _row_max(errs)


#: the independent index pairs (a, b), a < b, of an antisymmetric pair
_PAIRS = np.triu_indices(4, 1)


def _sigma_commutator_defect(sig, g):
    """[sigma^ab, sigma^mn] minus its metric form g^{ma} sigma^{nb}
    - g^{mb} sigma^{na} - g^{na} sigma^{mb} + g^{nb} sigma^{ma} on the 36
    independent blocks, indexed [..., p, q, i, k] with p = (a, b) and
    q = (m, n) the pairs of ``_PAIRS``, for sigma and the inverse metric on
    any leading axes.  Only the blocks sigma^{ab} with a < b are read: the
    form takes sigma^{ba} as -sigma^{ab} and sigma^{aa} as 0.  Where sigma
    is antisymmetric, which ``_chk_sigma_commutator`` checks apart, the
    defect is antisymmetric in (a, b) and in (m, n), so these blocks hold
    the largest entry of all 256."""
    a, b = _PAIRS
    upper = sig[..., a, b, :, :]
    full = np.zeros_like(sig)
    full[..., a, b, :, :] = upper
    full[..., b, a, :, :] = -upper
    prod = contract("...pij,...qjk->...pqik", upper, upper)
    a, b, m, n = a[:, None], b[:, None], a, b
    form = (g[..., m, a, None, None] * full[..., n, b, :, :]
            - g[..., m, b, None, None] * full[..., n, a, :, :]
            - g[..., n, a, None, None] * full[..., m, b, :, :]
            + g[..., n, b, None, None] * full[..., m, a, :, :])
    return prod - np.swapaxes(prod, -4, -3) - form


def _chk_sigma_commutator(ctx):
    """The commutator defect of flat sigma and of each row's, and each
    sigma's antisymmetry defect max |sigma^ab + sigma^ba| over every
    (a, b), a = b among them."""
    gs = ctx.frame.gammas
    sig, g_up = gs.sigma_curved, gs.metric.g_upper
    defect = _sigma_commutator_defect(SIGMA_FLAT, ETA)
    # |eta| = 1, so the flat defect is its own relative error
    flat = np.maximum(np.max(np.abs(defect)),
                      np.max(np.abs(SIGMA_FLAT + SIGMA_FLAT.swapaxes(0, 1))))
    errs = np.maximum(
        _row_rel(_row_max(_sigma_commutator_defect(sig, g_up)), 1.0,
                 _row_max(g_up)),
        _row_rel(_row_max(sig + sig.swapaxes(1, 2)), 1.0, _row_max(sig)))
    return len(ctx.points), np.maximum(errs, flat)


def _chk_commutator_curvature(ctx):
    alg = ctx.frame.spinor_curvature
    f = connection_curvature(ctx.frame)
    errs = _row_rel(_row_max(alg - f), _row_max(alg), _row_max(f), 1e-3)
    return len(ctx.points), errs


def _chk_commutator_decomposition(ctx):
    rows, (comm, _) = ctx.fixture_rows, ctx.curvature_forms
    return len(ctx.points), _max_row_rel(
        rso.second_covariant_comm(ctx.frame, rows.d, rows.dd), comm,
        rows.psi)


def _chk_sigma_ricci_contraction(ctx):
    gs, bundle = ctx.frame.gammas, ctx.frame.curvature
    # gamma^a sigma^{mn} R_{mnab}, sigma^{mn} R_{mnab} formed first
    sigma_r = contract("xmnjk,xmnab->xabjk", gs.sigma_curved,
                       bundle.riemann_lower)
    lhs = -0.5 * contract("xaij,xabjk->xbik", gs.gamma_up, sigma_r)
    rhs = -0.5 * contract("xnij,xnb->xbij", gs.gamma_up, bundle.ricci)
    errs = _row_rel(_row_max(lhs - rhs), _row_max(lhs), _row_max(rhs),
                    ctx.met_class.riemann_scale, 1e-3)
    return len(ctx.points), errs


def _chk_curvature_bridge(ctx):
    christ, dchrist, _, _, psi, _ = ctx.fixture_rows
    return len(ctx.points), _max_row_rel(
        rso.bridge_commutator(ctx.frame, christ, dchrist),
        rso.ricci_contraction(ctx.frame, psi), psi)


def _chk_gamma_contraction(ctx):
    d, psi = ctx.fixture_rows.d, ctx.fixture_rows.psi
    return len(ctx.points), _max_row_rel(*rso.contraction_identity(
        ctx.frame, d, psi, ctx.mass), psi)


def _chk_divergence_form(ctx):
    waves = FieldStack(tuple(flat_rs_plane_wave(ctx.mass.m or 1.0, boost)
                             for boost in (0.0, 0.4)))
    mass = rso.MassParam(ctx.mass.m or 1.0)
    # gamma.residual and (2/3) of the first constraint, from one D Psi
    d, psi = rso.covariant_rows(waves, ctx.frame)
    lhs, rhs = rso.contraction_identity(ctx.frame, d, psi, mass)
    errs = (np.maximum(_fixture_max(lhs), _fixture_max(1.5 * rhs))
            / np.maximum(_fixture_max(psi), 1e-6))
    return len(ctx.points), np.max(errs, axis=1)


def _chk_derivative_chain(ctx):
    _, _, d, dd, psi, dpsi = ctx.fixture_rows
    _, chain = ctx.curvature_forms
    return len(ctx.points), _max_row_rel(
        rso.derivative_chain(ctx.frame, d, dd, psi, dpsi, ctx.mass), chain,
        psi)


def _chk_constraint_reduction(ctx):
    chain, psi = ctx.curvature_forms[1], ctx.fixture_rows.psi
    return len(ctx.points), _max_row_rel(
        chain, rso.constraint_two(ctx.frame, psi, ctx.mass), psi)


def _chk_flat_reduction(ctx):
    """The sides of ``flat_reduction_check`` on three plane waves, one
    stack: the residual and its match error relative to the (row, wave)
    pair's largest entry of Psi and d Psi."""
    m = ctx.mass.m or 1.0
    waves = FieldStack(tuple(flat_rs_plane_wave(m, boost)
                             for boost in (0.0, 0.3, 0.8)))
    d, psi = rso.covariant_rows(waves, ctx.frame)
    rs, match, trace, div = map(_fixture_max, rso.flat_reduction_check(
        ctx.frame, d, psi, rso.MassParam(m)))
    size = np.maximum(_fixture_max(psi), _fixture_max(d))
    # a (row, wave) pair whose wave breaks the constraints fails outright
    satisfied = np.maximum(trace, div) <= 1e-8 * np.maximum(size, 1e-300)
    errs = np.maximum(_row_rel(np.maximum(rs, match), size, 1e-6),
                      np.where(satisfied, 0.0, 1.0))
    return len(ctx.points), np.max(errs, axis=1)


def _chk_vacuum_constraint(ctx):
    """The constraint on two polynomial fields made gamma-traceless with
    the projection frame's matrices: L_be - 1/4 gamma_be gamma^s L_s."""
    box = ctx.spec.sample_box
    fields = FieldStack(tuple(
        polynomial_field(ctx.seed * 7 + i, VECTOR_BISPINOR, box)
        for i in range(2)))
    kappa2 = max(1.0, abs(ctx.mass.kappa) ** 2)
    (raw,) = fields.jet(ctx.frame, 0)
    gs = ctx.projection_frame.gammas
    # plain einsum: on the stack it gives each field's projection alone, to
    # the bit
    trace = np.einsum("xsij,xsj...->xi...", gs.gamma_up, raw)
    psi = raw - 0.25 * np.einsum("xbij,xj...->xbi...", gs.gamma_down, trace)
    c2 = rso.constraint_two(ctx.frame, psi, ctx.mass)
    errs = _row_rel(_fixture_max(c2),
                    np.maximum(_fixture_max(psi), 1e-6) * kappa2)
    return len(ctx.points), np.max(errs, axis=1)


def _chk_einstein_space(ctx):
    bundle = ctx.frame.curvature
    dev = (bundle.ricci
           - bundle.scalar[:, None, None] / 4.0 * ctx.frame.metric.g_lower)
    errs = _row_rel(_row_max(dev), _row_max(bundle.ricci), 1e-3)
    return len(ctx.points), errs


def _chk_einstein_factor(ctx):
    frame = ctx.frame
    factor = rso.einstein_space_factor(frame, ctx.mass)
    psi = ctx.fixture_rows.psi
    phi = contract("xrij,xrj...->xi...", frame.gammas.gamma_up, psi)
    c2 = rso.constraint_two(frame, psi, ctx.mass)
    phi_max = _fixture_max(phi)
    # (row, fixture) pairs where gamma^r Psi_r vanishes test nothing
    empty = phi_max < 1e-8 * np.maximum(_fixture_max(psi), 1e-30)
    errs = _row_rel(_fixture_max(c2 - factor[:, None, None] * phi),
                    _fixture_max(c2), np.abs(factor)[:, None] * phi_max,
                    phi_max)
    return (len(ctx.points), np.max(np.where(empty, 0.0, errs), axis=1),
            f"vacuous_points={int(empty.sum())}")


def _term_by_term_residual(d, psi, frame, mass):
    """Independent evaluation of the wave equation on a frame's rows, term
    by term, from D_nu Psi and Psi there."""
    gs = frame.gammas
    gu, g_up = gs.gamma_up, gs.metric.g_upper
    t1 = contract("xaij,xasj...->xsi...", gu, d) + mass.kappa * psi
    # the three-operand terms contract d with g^{nb} and gamma^b first
    div = contract("xnb,xnbj...->xj...", g_up, d)
    t2 = -(1.0 / 3.0) * (
        contract("xbij,xsbj...->xsi...", gu, d)
        + contract("xsij,xj...->xsi...", gs.gamma_down, div)
    )
    slash = contract("xbjk,xabk...->xaj...", gu, d)
    inner = (contract("xaij,xaj...->xi...", gu, slash)
             - mass.kappa * contract("xbij,xbj...->xi...", gu, psi))
    t3 = (1.0 / 3.0) * contract("xsij,xj...->xsi...", gs.gamma_down, inner)
    return t1 + t2 + t3


def _chk_operator_form(ctx):
    d, psi = ctx.fixture_rows.d, ctx.fixture_rows.psi
    blocks = rso.rs_residual(ctx.frame, d, psi, ctx.mass)
    terms = _term_by_term_residual(d, psi, ctx.frame, ctx.mass)
    return len(ctx.points), _max_row_rel(blocks, terms, psi)


def _chk_block_assembly(ctx):
    alphas, beta = rso.build_alpha_beta(ctx.frame.gammas)
    trace = sum(beta.blocks[:, r, r] for r in range(4))
    # the block product against sum_l A_rl B_ls written out, independent of
    # the dense layout ``@`` goes through
    ref = contract("...rlij,...lsjk->...rsik", alphas[0].blocks, beta.blocks)
    errs = np.maximum(
        _row_max(trace - (8.0 / 3.0) * np.eye(4)),
        _row_rel(_row_max((alphas[0] @ beta).blocks - ref), _row_max(ref),
                 1.0))
    return len(ctx.points), errs


_GENERIC_ABC = (0.25, -0.125, 0.7)  # a + b + 4ab = 0


def _transform_errors(beta, beta_ref, alphas, alpha_refs) -> np.ndarray:
    """Per row: the largest deviation of the beta blocks and of each
    alpha^nu from its reference, relative to the larger of 1 and the
    reference's largest entry, so that the errors do not grow with the
    metric's scale."""
    return np.max([_row_rel(_row_max(block.to_dense() - ref.to_dense()),
                            _row_max(ref.to_dense()), 1.0)
                   for block, ref in zip([beta, *alphas],
                                         [beta_ref, *alpha_refs])], axis=0)


def _chk_transform_stages(ctx):
    tr, (bp, ap, _, _) = ctx.generic_transform
    errs = _transform_errors(tr.beta_prime, bp, tr.alpha_prime, ap)
    return len(ctx.points), errs


def _chk_s_inverse(ctx):
    """S S^-1 - 1 per row, relative to the larger of 1 and |S| |S^-1|
    (largest entries), which bounds the roundoff of the product."""
    gs = ctx.frame.gammas
    errs = []
    for a, b in [(-1.0 / 3.0, -1.0), (0.25, -0.125), (1.0, -0.2)]:
        s, s_inv = rso.gamma_pair_block(gs, a), rso.gamma_pair_block(gs, b)
        errs += [_row_rel(_row_max((s @ s_inv).to_dense() - IDENTITY_DENSE),
                          _row_max(s.to_dense()) * _row_max(s_inv.to_dense()),
                          1.0)]
    return len(ctx.points), np.max(errs, axis=0)


def _chk_transform_expansion(ctx):
    tr, (_, _, bt, at_) = ctx.generic_transform
    errs = _transform_errors(tr.beta_tilde, bt, tr.alpha_tilde, at_)
    return len(ctx.points), errs


def _chk_tilde_closed_form(ctx):
    gs = ctx.frame.gammas
    tr = rso.transform_CS(*rso.build_alpha_beta(gs), gs, -1.0 / 3.0, -1.0, 2.0)
    alpha_t, beta_t = rso.tilde_closed_form(gs)
    errs = _transform_errors(tr.beta_tilde, beta_t, tr.alpha_tilde, alpha_t)
    return len(ctx.points), errs


def _chk_beta_dual_forms(ctx):
    gs = ctx.frame.gammas
    _, beta_t = rso.tilde_closed_form(gs)
    eps_form = rso.beta_tilde_eps_form(gs)
    errs = _row_rel(_row_max(beta_t.to_dense() - eps_form.to_dense()),
                    _row_max(beta_t.to_dense()), 1.0)
    return len(ctx.points), errs


# 2.7b and 2.8c loop over the three bispinor fixtures: 2.8c's
# ``einstein_prediction`` samples psi point by point to feed the benchmark's
# ``fields.sampler`` span, and 2.7b takes its gradient fields alike; a stack
# waits for the benchmark's re-base (ROADMAP item 1).
def _chk_massless_gradient(ctx):
    errs = []
    for psi in ctx.sp_fixtures:
        res, d = gauge_mod.gradient_residual(psi, ctx.frame)
        errs.append(_row_rel(_row_max(res), _row_max(d)))
    # one error per point, NaN-propagating over the fixtures
    return len(ctx.points), np.maximum.reduce(errs)


def _chk_gauge_criterion_nonzero(ctx):
    errs = []
    for psi in ctx.sp_fixtures:
        direct, predicted = gauge_mod.gauge_criterion(psi, ctx.frame)
        pred_norm = _row_max(predicted)
        err = _row_rel(_row_max(direct - predicted), pred_norm)
        # a vanishing prediction misses the expected nonzero obstruction
        errs.append(np.where(pred_norm < 1e-10, 1.0, err))
    return len(ctx.points), np.maximum.reduce(errs)


def _chk_eps_determinant(ctx):
    raw, det, einstein = gauge_mod.epsilon_contraction_check(ctx.frame)
    scale = (_row_max(raw), _row_max(det), ctx.met_class.riemann_scale, 1e-3)
    errs = np.maximum(_row_rel(_row_max(raw - det), *scale),
                      _row_rel(_row_max(raw - einstein), *scale))
    return len(ctx.points), errs


def _chk_metric_compatibility(ctx):
    dev = covariant_metric_derivative(ctx.spec, ctx.frame)
    errs = _row_rel(_row_max(dev), _row_max(ctx.frame.metric.g_lower), 1.0)
    return len(ctx.points), errs


REGISTRY = [
    CheckDescriptor("eq_1_2a_operator_form", "1.2a", 1e-9, "zero",
                    lambda mc: True, _chk_operator_form),
    CheckDescriptor("eq_1_3_hermiticity", "1.3", TOL_ALGEBRAIC, "zero",
                    lambda mc: True, _chk_hermiticity),
    CheckDescriptor("eq_1_4_covariant_constancy", "1.4", TOL_FIRST_ORDER,
                    "zero", lambda mc: True, _chk_covariant_constancy),
    CheckDescriptor("eq_1_5_clifford", "1.5", TOL_ALGEBRAIC, "zero",
                    lambda mc: True, _chk_clifford),
    CheckDescriptor("eq_1_5_sigma_split", "1.5", TOL_ALGEBRAIC, "zero",
                    lambda mc: True, _chk_sigma_tetrad),
    CheckDescriptor("eq_1_5_triple_gamma", "1.5", TOL_ALGEBRAIC, "zero",
                    lambda mc: True, _chk_triple_gamma),
    CheckDescriptor("sigma_commutator", "1.8", TOL_ALGEBRAIC, "zero",
                    lambda mc: True, _chk_sigma_commutator),
    CheckDescriptor("eq_1_8e_commutator_curvature", "1.8",
                    TOL_CURVCOMM_ANALYTIC, "zero", lambda mc: True,
                    _chk_commutator_curvature),
    CheckDescriptor("eq_1_9_commutator_decomposition", "1.9",
                    TOL_SECOND_ORDER, "zero", lambda mc: True,
                    _chk_commutator_decomposition),
    CheckDescriptor("eq_1_10b_sigma_ricci", "1.10", TOL_FIRST_ORDER, "zero",
                    lambda mc: True, _chk_sigma_ricci_contraction),
    CheckDescriptor("eq_1_10c_curvature_bridge", "1.10", TOL_SECOND_ORDER,
                    "zero", lambda mc: True, _chk_curvature_bridge),
    CheckDescriptor("eq_1_6_gamma_contraction", "1.6", TOL_CONTRACTION,
                    "zero", lambda mc: True, _chk_gamma_contraction),
    CheckDescriptor("eq_1_11b_divergence_form", "1.11b", TOL_FLAT_REDUCTION,
                    "zero", lambda mc: mc.is_eta, _chk_divergence_form),
    CheckDescriptor("eq_1_7_derivative_chain", "1.7", TOL_SECOND_ORDER,
                    "zero", lambda mc: True, _chk_derivative_chain),
    CheckDescriptor("eq_1_11a_constraint_reduction", "1.11a",
                    TOL_FIRST_ORDER, "zero", lambda mc: True,
                    _chk_constraint_reduction),
    CheckDescriptor("eq_1_12_flat_reduction", "1.12", TOL_FLAT_REDUCTION,
                    "zero", lambda mc: mc.is_eta, _chk_flat_reduction),
    CheckDescriptor("eq_1_13_vacuum_constraint", "1.13", TOL_FIRST_ORDER,
                    "zero", lambda mc: mc.ricci_flat, _chk_vacuum_constraint),
    CheckDescriptor("eq_1_14a_einstein_space", "1.14", TOL_EINSTEIN, "zero",
                    lambda mc: (mc.einstein_space and not mc.is_flat
                                and not mc.ricci_flat),
                    _chk_einstein_space),
    CheckDescriptor("eq_1_14b_constraint_factor", "1.14", TOL_FACTOR, "zero",
                    lambda mc: (mc.einstein_space and not mc.ricci_flat
                                and abs(mc.scalar) > 0.1),
                    _chk_einstein_factor),
    CheckDescriptor("eq_2_2_block_assembly", "2.2", TOL_ALGEBRAIC, "zero",
                    lambda mc: True, _chk_block_assembly),
    CheckDescriptor("eq_2_3_transform_stages", "2.3", TOL_TRANSFORM, "zero",
                    lambda mc: True, _chk_transform_stages),
    CheckDescriptor("eq_2_4_s_inverse", "2.4", TOL_TRANSFORM, "zero",
                    lambda mc: True, _chk_s_inverse),
    CheckDescriptor("eq_2_5_transform_expansion", "2.5", TOL_TRANSFORM,
                    "zero", lambda mc: True, _chk_transform_expansion),
    CheckDescriptor("eq_2_6_tilde_closed_form", "2.6", TOL_TRANSFORM, "zero",
                    lambda mc: True, _chk_tilde_closed_form),
    CheckDescriptor("eq_2_6c_beta_dual_forms", "2.6c", TOL_TRANSFORM, "zero",
                    lambda mc: True, _chk_beta_dual_forms),
    CheckDescriptor("eq_2_7b_massless_gradient", "2.7b", TOL_GAUGE_ZERO,
                    "zero", lambda mc: mc.ricci_flat, _chk_massless_gradient),
    CheckDescriptor("eq_2_8c_gauge_criterion", "2.8c", TOL_GAUGE_MATCH,
                    "nonzero", lambda mc: not mc.ricci_flat,
                    _chk_gauge_criterion_nonzero),
    CheckDescriptor("eps_determinant_contraction", "2.8b",
                    TOL_CURVCOMM_ANALYTIC, "zero", lambda mc: True,
                    _chk_eps_determinant),
    CheckDescriptor("metric_compatibility", "1.8", TOL_FIRST_ORDER, "zero",
                    lambda mc: True, _chk_metric_compatibility),
]


def sample_points(spec: MetricSpec, n: int, seed: int) -> list:
    """Deterministic points inside the spec's sampling box: the first n of
    one generator's draws that pass the domain guard.  The draws are
    guarded a block at a time, n draws first and each next block twice
    the last, so a box inside the domain takes one guard call."""
    if spec.sample_box is None:
        raise ConfigError(
            f"metric '{spec.name}' has no sampling box; add a [sampling] "
            "section to the configuration"
        )
    rng = np.random.default_rng(seed)
    box = np.asarray(spec.sample_box, dtype=float)
    limit = SAMPLE_DRAWS_PER_POINT * n
    pts, drawn, block = [], 0, n
    while drawn < limit:
        draws = rng.uniform(box[:, 0], box[:, 1],
                            size=(min(block, limit - drawn), 4))
        drawn += len(draws)
        pts += [Point(c, spec.chart_id) for c in draws[spec.domain_guard(draws)]]
        if len(pts) >= n:
            return pts[:n]
        block *= 2
    raise ConfigError(
        f"only {len(pts)} of {limit} draws from the "
        f"sampling box {[tuple(b) for b in box.tolist()]} of metric "
        f"'{spec.name}' lie in its domain ({n} points asked for)")


def classify_metric(frame: Frame) -> MetricClass:
    """The curvature class measured on every row of a frame, from the
    frame's metric and Riemann tensor; ``scalar`` is the scalar curvature
    at the last row.  The Ricci tensor and scalar are contracted here from
    the Riemann tensor, not read from the frame's curvature: 1.10b checks
    the frame's Ricci tensor against that contraction in every class, and
    1.14a checks it against R/4 g, so a fault in it fails those checks
    instead of moving the class and with it the checks that run."""
    b, m = frame.curvature, frame.metric
    g, g_up, riemann = m.g_lower, m.g_upper, b.riemann_lower
    # R_sn = g^{rl} R_{rsln}, R = g^{sn} R_sn
    ricci = contract("xrl,xrsln->xsn", g_up, riemann)
    scalar = contract("xsn,xsn->x", g_up, ricci)
    dev = ricci - scalar[:, None, None] / 4.0 * g
    return MetricClass(float(np.max(np.abs(riemann))),
                       float(np.max(np.abs(ricci))), float(np.max(np.abs(dev))),
                       float(scalar[-1]),
                       float(np.max(np.abs(b.christoffel))),
                       float(np.max(np.abs(g - ETA))))


def build_context(spec: MetricSpec, n_points: int, seed: int,
                  mass: float) -> SuiteContext:
    """Points, fixtures and the context frame that every check runs on,
    with the curvature class measured on that frame."""
    if n_points < 1:
        raise ConfigError("points must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    ctx = SuiteContext(
        spec=spec,
        points=sample_points(spec, n_points, seed),
        seed=seed,
        mass=rso.MassParam(mass),
        met_class=None,
        vb_fixtures=fixture_family(seed + 1, FIXTURE_COUNT, VECTOR_BISPINOR,
                                   spec.sample_box),
        sp_fixtures=fixture_family(seed + 2, 3, BISPINOR, spec.sample_box),
    )
    ctx.met_class = classify_metric(ctx.frame)
    return ctx


def run_suite(
    spec: MetricSpec,
    n_points: int = 20,
    seed: int = 42,
    mass: float = 1.0,
    tolerance_overrides: Optional[dict] = None,
    only: Optional[tuple] = None,
) -> SuiteReport:
    """Execute every applicable registered check, each once over the
    context frame's rows, and aggregate the report.

    ``only`` restricts the run to the listed check ids.  An ``only`` id
    that is not registered, or a tolerance override for a check outside
    the run or inapplicable to the metric's measured curvature class, is a
    ConfigError naming the run's checks.  A runner returns
    (points, errors[, note]) with one error per context point, kept in
    ``CheckResult.point_errors`` and folded here, by ``_worst`` alone, into
    the check's error; errors of any other shape are a ValueError naming
    the check.  Check failures are recorded, not raised; infrastructure
    errors propagate with context.
    """
    overrides = tolerance_overrides or {}
    known = [d.id for d in REGISTRY]
    unknown = sorted(set(only or ()) - set(known))
    if unknown:
        raise ConfigError(f"unknown check(s) {', '.join(unknown)}; "
                          f"known checks: {', '.join(known)}")
    if only is not None:
        known = [k for k in known if k in only]
    outside = sorted(set(overrides) - set(known))
    if outside:
        raise ConfigError(
            f"tolerance override for check(s) {', '.join(outside)} outside "
            f"this run; its checks: {', '.join(known)}")
    invalid = sorted(k for k, v in overrides.items() if not 0 <= v < np.inf)
    if invalid:
        raise ConfigError(
            f"tolerance for {', '.join(invalid)} must be finite and >= 0")
    t0 = time.perf_counter()
    ctx = build_context(spec, n_points, seed, mass)
    run = [d for d in REGISTRY if d.id in known and d.applies(ctx.met_class)]
    idle = sorted(set(overrides) - {d.id for d in run})
    if idle:
        raise ConfigError(
            f"tolerance override for check(s) {', '.join(idle)} that do not "
            f"apply to curvature class {ctx.met_class.describe()}; its "
            f"checks: {', '.join(d.id for d in run)}")
    results = []
    for desc in run:
        tol = float(overrides.get(desc.id, desc.tolerance))
        t_check = time.perf_counter()
        out = desc.runner(ctx)
        if np.shape(out[1]) != (len(ctx.points),):
            raise ValueError(
                f"check {desc.id} returned errors of shape "
                f"{np.shape(out[1])}, not one per point "
                f"({len(ctx.points)},)")
        point_errors = [float(e) for e in out[1]]
        err = _worst(*point_errors)
        results.append(
            CheckResult(
                id=desc.id,
                tag=desc.tag,
                tolerance=tol,
                expect=desc.expect,
                points=out[0],
                max_rel_error=err,
                passed=bool(err <= tol),
                runtime_s=round(time.perf_counter() - t_check, 6),
                note=out[2] if len(out) > 2 else "",
                point_errors=point_errors,
            )
        )
    return SuiteReport(ctx=ctx, checks=results,
                       runtime_s=round(time.perf_counter() - t0, 6))


def run_gauge(spec: MetricSpec, n_points: int = 20, seed: int = 42,
              tolerance_overrides: Optional[dict] = None) -> SuiteReport:
    """The gauge criterion of the massless equation: (2.7b) on a
    Ricci-flat metric, (2.8c) elsewhere, with the table of each point's
    Einstein norm and error."""
    rep = run_suite(spec, n_points, seed, mass=0.0,
                    tolerance_overrides=tolerance_overrides,
                    only=GAUGE_CHECKS)
    (check,) = rep.checks
    einstein = _row_max(rep.ctx.frame.curvature.einstein)
    table = [
        {"index": i, "einstein_norm": float(norm), "max_rel_error": err}
        for i, (norm, err) in enumerate(zip(einstein, check.point_errors))
    ]
    verdict = ("gauge-symmetric region" if rep.ctx.met_class.ricci_flat
               else "no gauge symmetry (G != 0)")
    return replace(rep, kind="gauge_criterion",
                   extra={"verdict": verdict, "points_table": table})


def run_constraints(spec: MetricSpec, n_points: int = 20, seed: int = 42,
                    mass: float = 1.0,
                    tolerance_overrides: Optional[dict] = None) -> SuiteReport:
    """The constraint identities (1.6) and (1.11a), plus, on an Einstein
    space with R != 0, the bracket 1/2 (R/12 - m^2) scanned over mass with
    its real zero crossing m = sqrt(R/12)."""
    rep = run_suite(spec, n_points, seed, mass, tolerance_overrides,
                    only=CONSTRAINT_CHECKS)
    mc = rep.ctx.met_class
    scan = None
    if mc.einstein_space and abs(mc.scalar) > 1e-6:
        scan = {
            "scalar": mc.scalar,
            "table": [(m, 0.5 * (mc.scalar / 12.0 - m * m))
                      for m in (0.25 * i for i in range(9))],
            "zero_crossing": (float(np.sqrt(mc.scalar / 12.0))
                              if mc.scalar > 0 else None),
        }
    return replace(rep, kind="constraints", extra={"mass_scan": scan})
