"""Assembly and verification of the first-order vector-bispinor operator.

The wave operator acts on a 16-component field Psi_be (vector index x
bispinor index) as  (alpha^nu D_nu + kappa beta) Psi = 0  with 4x4 blocks

    (beta)_r^s    = delta_r^s - 1/3 gamma_r gamma^s,
    (alpha^nu)_r^s = gamma^nu delta_r^s - 1/3 gamma^s delta^nu_r
                     - 1/3 gamma_r g^{nu s} + 1/3 gamma_r gamma^nu gamma^s,

D_nu = nabla_nu + Gamma_nu.  The left C-multiplication and S
similarity (with S = I + a gamma gamma, S^-1 = I + b gamma gamma,
a + b + 4ab = 0) bring the operator to a closed form built from the
antisymmetric tensor; both routes are implemented and compared by tests.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTransform, StencilTooCoarse
from .fields import BISPINOR, VECTOR_BISPINOR, FieldSampler
from .geometry import MetricSpec, Point, curvature, eval_metric, riemann_mixed
from .numerics import (
    STEP_FIRST,
    STEP_OUTER,
    fd_step,
    nested_step,
    read_only,
)
from .spin_frame import (
    Frame,
    GammaSet,
    build_frame,
    gamma_set_at,
    spinor_commutator_curvature,
)


@dataclass
class MassParam:
    """Mass and the operator's mass factor kappa (default i*m)."""

    m: float
    kappa: complex = None

    def __post_init__(self):
        if not 0 <= self.m < np.inf:
            raise ValueError(f"mass must be finite and >= 0, got {self.m}")
        if self.kappa is None:
            self.kappa = 1j * self.m


class BlockMatrix16:
    """A 4x4 grid of 4x4 complex blocks acting on vector-bispinors.

    blocks[r, s, i, j]: r/s are the vector row/column, i/j the spinor ones.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = np.asarray(blocks, dtype=complex)
        if self.blocks.shape != (4, 4, 4, 4):
            raise ValueError("blocks must have shape (4, 4, 4, 4)")

    @classmethod
    def identity(cls):
        blocks = np.zeros((4, 4, 4, 4), dtype=complex)
        for r in range(4):
            blocks[r, r] = np.eye(4)
        return cls(blocks)

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense, dtype=complex).reshape(4, 4, 4, 4)
        return cls(dense.transpose(0, 2, 1, 3))

    def to_dense(self) -> np.ndarray:
        return self.blocks.transpose(0, 2, 1, 3).reshape(16, 16)

    def __matmul__(self, other):
        return BlockMatrix16(
            np.einsum("rlij,lsjk->rsik", self.blocks, other.blocks)
        )

    def __add__(self, other):
        return BlockMatrix16(self.blocks + other.blocks)

    def __sub__(self, other):
        return BlockMatrix16(self.blocks - other.blocks)

    def __mul__(self, scalar):
        return BlockMatrix16(self.blocks * scalar)

    __rmul__ = __mul__

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """(M Psi)_r = sum_s block(r, s) Psi_s."""
        return np.einsum("rsij,sj->ri", self.blocks, psi)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.blocks)))


#: the 1/3 of the operator blocks alpha^nu and beta
THIRD = 1.0 / 3.0

#: delta_r^s times the 4x4 identity, as blocks [r, s, i, j]
_IDENTITY_BLOCKS = np.einsum("rs,ij->rsij", np.eye(4), np.eye(4)).astype(complex)


def _gamma_pairs(gd: np.ndarray, gu: np.ndarray) -> np.ndarray:
    """gamma_r gamma^s as blocks [..., r, s, i, j] (any leading axes)."""
    return gd[..., :, None, :, :] @ gu[..., None, :, :, :]


def gamma_pair_block(gs: GammaSet, coeff: complex) -> BlockMatrix16:
    """I + coeff * gamma_r gamma^s as a block matrix."""
    return BlockMatrix16(
        _IDENTITY_BLOCKS + coeff * _gamma_pairs(gs.gamma_down, gs.gamma_up)
    )


def _alpha_beta_rows(gd: np.ndarray, gu: np.ndarray, g_up: np.ndarray):
    """The operator blocks on rows: gamma_al(x), gamma^al(x) (n, 4, 4, 4)
    and g^{al be}(x) (n, 4, 4) give alpha [n, nu, r, s, i, j] and
    beta [n, r, s, i, j]."""
    pair = _gamma_pairs(gd, gu)
    beta = _IDENTITY_BLOCKS - THIRD * pair
    eye = np.eye(4)
    # gamma_r gamma^nu gamma^s, indexed [n, nu, r, s, i, j]
    triple = (gd[:, None, :, None] @ gu[:, :, None, None]) @ gu[:, None, None, :]
    # gamma^nu delta_r^s - 1/3 (delta^nu_r gamma^s + gamma_r g^{nu s}
    # - gamma_r gamma^nu gamma^s)
    alpha = (
        eye[:, :, None, None] * gu[:, :, None, None]
        - THIRD * eye[:, :, None, None, None] * gu[:, None, None, :]
        - THIRD * gd[:, None, :, None] * g_up[:, :, None, :, None, None]
        + THIRD * triple
    )
    return alpha, beta


def build_alpha_beta(gs: GammaSet):
    """The operator blocks (alpha^nu, beta) at a point: row 0 of
    ``_alpha_beta_rows`` on the one point."""
    alpha, beta = _alpha_beta_rows(gs.gamma_down[None], gs.gamma_up[None],
                                   gs.metric.g_upper[None])
    return [BlockMatrix16(a) for a in alpha[0]], BlockMatrix16(beta[0])


#: operator blocks per frame, built on first use and dropped with the frame
_FRAME_BLOCKS = weakref.WeakKeyDictionary()


def frame_blocks(frame: Frame):
    """alpha [n, nu, r, s, i, j] and beta [n, r, s, i, j] on a frame's rows,
    built once per frame (read-only)."""
    blocks = _FRAME_BLOCKS.get(frame)
    if blocks is None:
        gs = frame.gammas
        blocks = tuple(map(read_only, _alpha_beta_rows(
            gs.gamma_down, gs.gamma_up, gs.metric.g_upper)))
        _FRAME_BLOCKS[frame] = blocks
    return blocks


#: rows +e_mu then -e_mu; scaled by the steps they give the stencil offsets
_PLUS_MINUS_AXES = np.stack([np.eye(4), -np.eye(4)])


def _frame(spec: MetricSpec, x):
    """(frame, single) for a Point, an (n, 4) array of chart coordinates of
    the spec's chart, or a Frame."""
    if isinstance(x, Frame):
        return x, False
    if isinstance(x, Point):
        return build_frame(spec, x.coords[None, :], x.chart_id), True
    return build_frame(spec, x), False


def _stencil(coords: np.ndarray, base_step: float, levels: int):
    """Central stencils around each row of ``coords``: the centre, then
    x +- h e_mu for each step level (h, and h/2 with two levels).

    Returns the stencil points (n, 1 + 8 levels, 4) and the steps
    (n, levels, 4)."""
    h = fd_step(coords, base_step)
    steps = np.stack([h, h / 2][:levels], axis=1)
    offsets = steps[:, :, None, :, None] * _PLUS_MINUS_AXES
    offsets = offsets.reshape(len(coords), -1, 4)
    centre = np.zeros((len(coords), 1, 4))
    return coords[:, None, :] + np.concatenate([centre, offsets], axis=1), steps


def _differences(values: np.ndarray, steps: np.ndarray, richardson: bool,
                 stencil_budget: float = None):
    """Centre value [n, ...] and d_mu [n, mu, ...] from the values
    [n, 1 + 8 levels, ...] a function takes on ``_stencil`` points."""
    n, levels = steps.shape[:2]
    value = values[:, 0]
    shape = value.shape[1:]
    pm = values[:, 1:].reshape((n, levels, 2, 4) + shape)
    d_levels = (pm[:, :, 0] - pm[:, :, 1]) / (2.0 * steps).reshape(
        steps.shape + (1,) * len(shape))
    if stencil_budget is not None:
        gaps = np.max(np.abs(d_levels[:, 0] - d_levels[:, 1]).reshape(n, 4, -1),
                      axis=2)
        over = np.argwhere(gaps > stencil_budget)
        if over.size:
            row, mu = over[0]
            raise StencilTooCoarse(
                f"Richardson levels differ by {gaps[row, mu]:.3e} along "
                f"x^{mu} (budget {stencil_budget:.3e})"
            )
    if richardson:
        return value, (4.0 * d_levels[:, 1] - d_levels[:, 0]) / 3.0
    return value, d_levels[:, 0]


def _connect(frame: Frame, kind: str, d, value, include_spin=True,
             rows=slice(None)):
    """D_nu from the partial derivatives d [n, nu, ...] and the values
    [n, ...] of a field on the rows ``rows`` of a frame: the Christoffel
    term on a vector index and the connection on the spinor index."""
    if include_spin:
        G = frame.connection[rows]
    if kind == BISPINOR:
        if include_spin:
            d = d + np.einsum("xnij,xj->xni", G, value)
    else:
        gam = frame.christoffel[rows]
        d = d - np.einsum("xlnb,xli->xnbi", gam, value)
        if include_spin:
            d = d + np.einsum("xnij,xbj->xnbi", G, value)
    return d


def _covariant_rows(field, frame: Frame, base_step, richardson,
                    include_spin=True, stencil_budget=None):
    """D_nu of a sampler on a frame's rows, and the field there:
    (d [n, nu, ...], value [n, ...]).  One ``field.at`` call samples every
    row's stencil; the geometry comes from the frame."""
    levels = 2 if richardson or stencil_budget is not None else 1
    points, steps = _stencil(frame.coords, base_step, levels)
    values = field.at(points.reshape(-1, 4), frame.chart_id)
    value, d = _differences(values.reshape(points.shape[:2] + values.shape[1:]),
                            steps, richardson, stencil_budget)
    return _connect(frame, field.kind, d, value, include_spin), value


def covariant_derivative(
    field: FieldSampler,
    spec: MetricSpec,
    x,
    base_step: float = STEP_FIRST,
    richardson: bool = False,
    include_spin: bool = True,
    stencil_budget: float = None,
) -> np.ndarray:
    """D_nu of a sampler at a Point ``x``, or on the rows of an (n, 4)
    coordinate array or a Frame.

    Vector-bispinor fields get the Christoffel term on the vector index
    and the bispinor connection on the spinor index; bispinor fields only
    the connection (they are coordinate scalars).  Returns [nu, be, s] or
    [nu, s], with a leading row axis for rows.  ``stencil_budget``
    (optional) raises StencilTooCoarse when the two Richardson levels
    disagree beyond it.
    """
    frame, single = _frame(spec, x)
    d, _ = _covariant_rows(field, frame, base_step, richardson, include_spin,
                           stencil_budget)
    return d[0] if single else d


def _residual(frame, d, psi, mass):
    """(alpha^nu D_nu + kappa beta) Psi on a frame's rows from D_nu Psi."""
    alpha, beta = frame_blocks(frame)
    return (mass.kappa * np.einsum("xrsij,xsj->xri", beta, psi)
            + np.einsum("xnrsij,xnsj->xri", alpha, d))


def _first_constraint(frame, d, psi, mass):
    """D_be Psi^be - (kappa/2) gamma_be Psi^be on a frame's rows."""
    div = np.einsum("xnb,xnbi->xi", frame.metric.g_upper, d)
    trace = np.einsum("xbij,xbj->xi", frame.gammas.gamma_up, psi)
    return div - 0.5 * mass.kappa * trace


def rs_residual(field: FieldSampler, spec: MetricSpec, x, mass: MassParam
                ) -> np.ndarray:
    """Left side of the wave equation at a Point, or on (n, 4) rows or a
    Frame: (alpha^nu D_nu + kappa beta) Psi."""
    frame, single = _frame(spec, x)
    d, psi = _covariant_rows(field, frame, STEP_FIRST, False)
    res = _residual(frame, d, psi, mass)
    return res[0] if single else res


def divergence_combo(field, spec, x, mass) -> np.ndarray:
    """The first-constraint combination D_be Psi^be - (kappa/2) gamma_be Psi^be
    at a Point, or on (n, 4) rows or a Frame."""
    frame, single = _frame(spec, x)
    d, psi = _covariant_rows(field, frame, STEP_FIRST, False)
    out = _first_constraint(frame, d, psi, mass)
    return out[0] if single else out


def contraction_identity(field, spec, x, mass):
    """gamma-contraction of the residual vs (2/3) of the first-constraint
    combination, at a Point or on rows or a Frame; equal for arbitrary
    smooth fields.  Both sides share one D_nu Psi."""
    frame, single = _frame(spec, x)
    d, psi = _covariant_rows(field, frame, STEP_FIRST, False)
    res = _residual(frame, d, psi, mass)
    lhs = np.einsum("xsij,xsj->xi", frame.gammas.gamma_up, res)
    rhs = (2.0 / 3.0) * _first_constraint(frame, d, psi, mass)
    return (lhs[0], rhs[0]) if single else (lhs, rhs)


def constraint_two_residual(field, spec, x, mass, gs=None):
    """The algebraic constraint:
    1/2 R_ab gamma^a Psi^b + (kappa^2/2 - R/12) gamma^r Psi_r.
    ``gs``: the Dirac matrices at ``x`` when the caller has them.
    """
    if gs is None:
        gs = gamma_set_at(spec, x)
    bundle = curvature(spec, x)
    psi = field(x)
    psi_up = np.einsum("bl,lj->bj", gs.metric.g_upper, psi)
    # einsum's summation order follows its operands' memory layout; a
    # C-ordered Ricci tensor keeps the reported errors fixed to the last bit
    ricci = np.ascontiguousarray(bundle.ricci)
    t1 = np.einsum("ab,aij,bj->i", 0.5 * ricci, gs.gamma_up, psi_up)
    phi = np.einsum("rij,rj->i", gs.gamma_up, psi)
    return t1 + (0.5 * mass.kappa**2 - bundle.scalar / 12.0) * phi


def einstein_space_factor(spec, x, mass) -> complex:
    """The scalar 1/2 (R/12 - m^2) multiplying gamma^r Psi_r when
    R_ab = (R/4) g_ab (uses kappa^2 = -m^2 under the default convention)."""
    bundle = curvature(spec, x)
    return 0.5 * (bundle.scalar / 12.0 + mass.kappa**2)


def stencil_frame(spec: MetricSpec, x: Point) -> Frame:
    """The frame of the outer stencil around ``x`` (outer step, both
    Richardson levels; row 0 is ``x``), on which nested chains take their
    inner derivatives; the fixtures checked at ``x`` share it."""
    points, _ = _stencil(x.coords[None, :], STEP_OUTER, 2)
    return build_frame(spec, points[0], x.chart_id)


def _outer_derivative(values, frame: Frame, stencil_budget=None):
    """(value, d_mu value) at the centre of a ``stencil_frame``, from the
    values [rows, ...] a quantity takes on its rows (outer step,
    Richardson); both keep a leading axis of length 1."""
    points, steps = _stencil(frame.coords[:1], STEP_OUTER, 2)
    if not np.array_equal(points[0], frame.coords):
        raise ValueError("the frame is not the outer stencil of its row 0")
    return _differences(values[None], steps, True, stencil_budget)


def second_covariant_comm(field, spec, x):
    """[D_al, D_be] Psi by nested differences, indexed [al, be, c, s]."""
    frame = stencil_frame(spec, x)
    inner = covariant_derivative(field, spec, frame, base_step=STEP_OUTER,
                                 richardson=True)
    v, dv = _outer_derivative(inner, frame)  # [1, nu, c, s], [1, mu, nu, c, s]
    v, dv = v[0], dv[0]
    gam = frame.christoffel[0]
    G = frame.connection[0]
    t = (
        dv
        - np.einsum("lmn,lcs->mncs", gam, v)
        - np.einsum("lmc,nls->mncs", gam, v)
        + np.einsum("mij,ncj->mnci", G, v)
    )
    return t - t.transpose(1, 0, 2, 3)


def commutator_decomposition(field, spec, x):
    """Nested-difference [D_al, D_be] Psi vs its curvature form
    (vector curvature + spinor curvature)."""
    lhs = second_covariant_comm(field, spec, x)
    m = eval_metric(spec, x)
    bundle = curvature(spec, x)
    rmix = riemann_mixed(bundle, m)
    dhat = spinor_commutator_curvature(spec, x)
    psi = field(x)
    # vector part: ( [nabla_a, nabla_b] Psi )_c = - R^l_{c a b} Psi_l
    rhs = -np.einsum("lcab,ls->abcs", rmix, psi)
    rhs = rhs + np.einsum("abij,cj->abci", dhat, psi)
    return lhs, rhs


def curvature_bridge(field, spec, x):
    """The standalone contraction
    -gamma^al (nabla_al nabla_be - nabla_be nabla_al) Psi^be
    = gamma^al Psi^nu R_{nu al}, with the left side by nested differences
    of Christoffel-only derivatives."""
    frame = stencil_frame(spec, x)
    inner = covariant_derivative(field, spec, frame, include_spin=False,
                                 base_step=STEP_OUTER, richardson=True)
    v, dv = _outer_derivative(inner, frame)
    v, dv = v[0], dv[0]
    gam = frame.christoffel[0]
    t = (
        dv
        - np.einsum("lmn,lcs->mncs", gam, v)
        - np.einsum("lmc,nls->mncs", gam, v)
    )
    gs = gamma_set_at(spec, x)
    g_up = gs.metric.g_upper
    w = np.einsum("nc,ancs->as", g_up, t - t.transpose(1, 0, 2, 3))
    lhs = -np.einsum("aij,aj->i", gs.gamma_up, w)
    bundle = curvature(spec, x)
    psi_up = np.einsum("nl,lj->nj", g_up, field(x))
    rhs = np.einsum("na,aij,nj->i", bundle.ricci, gs.gamma_up, psi_up)
    return lhs, rhs


def derivative_chain_check(field, spec, x, mass, stencil_budget=None):
    """D^s applied to the residual, minus the first-constraint part, vs the
    curvature form; an identity for arbitrary C^3 fields.

    Left side: D^s (residual)_s - (2/3) gamma^al D_al chi - kappa chi, with
    chi the first-constraint combination.  Right side:
    -D_{al be} gamma^al Psi^be + kappa^2/2 gamma^r Psi_r
    + 1/3 sigma^{al be} D_{al be} gamma^r Psi_r, with the commutator
    D_{al be} in its algebraic curvature form.

    ``x`` is a Point or its ``stencil_frame``, which the fields checked at
    one point share.  One inner D_nu Psi on the frame's rows (one ``at``
    call over the stencil of stencils) gives both the residual and chi
    there; their outer derivatives at the centre follow.
    """
    if isinstance(x, Frame):
        frame, x = x, Point(x.coords[0], x.chart_id)
    else:
        frame = stencil_frame(spec, x)
    d, psi = _covariant_rows(field, frame, *nested_step(True))
    res, dres = _outer_derivative(_residual(frame, d, psi, mass), frame,
                                  stencil_budget)
    chi, dchi = _outer_derivative(_first_constraint(frame, d, psi, mass),
                                  frame, stencil_budget)
    centre = slice(0, 1)
    dres = _connect(frame, VECTOR_BISPINOR, dres, res, rows=centre)[0]
    dchi = _connect(frame, BISPINOR, dchi, chi, rows=centre)[0]
    gs = frame.gamma_set(0)
    lhs = (
        np.einsum("nb,nbi->i", gs.metric.g_upper, dres)
        - (2.0 / 3.0) * np.einsum("aij,aj->i", gs.gamma_up, dchi)
        - mass.kappa * chi[0]
    )
    rhs = chain_rhs_algebraic(field, spec, x, mass, gs=gs)
    return lhs, rhs


def chain_rhs_algebraic(field, spec, x, mass, gs=None):
    """The curvature form of the derivative chain:
    -D_{al be} gamma^al Psi^be + kappa^2/2 gamma^r Psi_r
    + 1/3 sigma^{al be} D_{al be} gamma^r Psi_r, with the commutator in its
    algebraic form (vector curvature + spinor curvature).
    ``gs``: the Dirac matrices at ``x`` when the caller has them (a frame
    row)."""
    if gs is None:
        gs = gamma_set_at(spec, x)
    m = gs.metric
    bundle = curvature(spec, x)
    rmix = riemann_mixed(bundle, m)
    dhat = spinor_commutator_curvature(spec, x, gs)
    psi = field(x)
    # (D_{a m} Psi)_b = -R^l_{b a m} Psi_l + Dhat_{a m} Psi_b
    comm = -np.einsum("lbam,ls->ambs", rmix, psi) + np.einsum(
        "amij,bj->ambi", dhat, psi
    )
    contracted = np.einsum("mb,ambs->as", m.g_upper, comm)
    term1 = -np.einsum("aij,aj->i", gs.gamma_up, contracted)
    phi = np.einsum("rij,rj->i", gs.gamma_up, psi)
    term2 = 0.5 * mass.kappa**2 * phi
    d_on_phi = np.einsum("abij,j->abi", dhat, phi)
    term3 = (1.0 / 3.0) * np.einsum(
        "abij,abj->i", gs.sigma_curved, d_on_phi
    )
    return term1 + term2 + term3


# ---------------------------------------------------------------------------
# the C/S transformation and its closed form
# ---------------------------------------------------------------------------


@dataclass
class TransformResult:
    beta_prime: BlockMatrix16
    alpha_prime: list
    beta_tilde: BlockMatrix16
    alpha_tilde: list


def transform_CS(alphas, beta, gs: GammaSet, a: float, b: float, c: float
                 ) -> TransformResult:
    """Left-multiply by C = I + c gamma gamma, then conjugate by
    S = I + a gamma gamma with inverse I + b gamma gamma; requires
    a + b + 4ab = 0."""
    if abs(a + b + 4.0 * a * b) > 1e-12:
        raise InvalidTransform(
            f"a + b + 4ab = {a + b + 4 * a * b:.3e}, must vanish"
        )
    C = gamma_pair_block(gs, c)
    S = gamma_pair_block(gs, a)
    S_inv = gamma_pair_block(gs, b)
    beta_prime = C @ beta
    alpha_prime = [C @ al for al in alphas]
    return TransformResult(
        beta_prime=beta_prime,
        alpha_prime=alpha_prime,
        beta_tilde=S @ beta_prime @ S_inv,
        alpha_tilde=[S @ al @ S_inv for al in alpha_prime],
    )


def transform_printed(gs: GammaSet, a: float, b: float, c: float):
    """The expanded coefficient form of the transformed operator blocks.

    beta' = I - (c+1)/3 gamma gamma;
    beta~ = I + [b + (4b+1)(a - (4a+1)(c+1)/3)] gamma gamma;
    alpha'^nu and alpha~^nu with the printed coefficient groups (the
    epsilon term carries the common bracket B).
    """
    gd, gu = gs.gamma_down, gs.gamma_up
    g_up = gs.metric.g_upper
    beta_prime = gamma_pair_block(gs, -(c + 1.0) / 3.0)
    beta_tilde = gamma_pair_block(
        gs, b + (4.0 * b + 1.0) * (a - (4.0 * a + 1.0) * (c + 1.0) / 3.0)
    )

    B = (b + 1.0) / 3.0 + b * ((2.0 * c - 1.0) * (1.0 + 4.0 * a) / 3.0
                               + 2.0 * a)
    c_nu = 1.0 - B
    c_sig = (2.0 * b - 1.0) / 3.0 + B
    c_g = ((2.0 * c - 1.0) * (1.0 + 4.0 * a) / 3.0 + 2.0 * a) + B

    eps_mixed = np.einsum("rl,lnsm->rnsm", gs.metric.g_lower, gs.eps_upper)
    eps_term = 1j * np.einsum(
        "ij,rnsm,mjk->nrsik", gs.gamma5, eps_mixed, gd
    )

    alpha_prime = []
    alpha_tilde = []
    for nu in range(4):
        blocks_p = np.zeros((4, 4, 4, 4), dtype=complex)
        blocks_t = np.zeros((4, 4, 4, 4), dtype=complex)
        for r in range(4):
            blocks_p[r, r] += gu[nu]
            blocks_p[nu, r] += -gu[r] / 3.0
            blocks_t[r, r] += c_nu * gu[nu]
            blocks_t[nu, r] += c_sig * gu[r]
        blocks_p += (2.0 * c - 1.0) / 3.0 * np.einsum(
            "rij,s->rsij", gd, g_up[nu]
        )
        blocks_p += np.einsum("rij,jk,skl->rsil", gd, gu[nu], gu) / 3.0
        blocks_t += c_g * np.einsum("rij,s->rsij", gd, g_up[nu])
        blocks_t += B * eps_term[nu]
        alpha_prime.append(BlockMatrix16(blocks_p))
        alpha_tilde.append(BlockMatrix16(blocks_t))
    return beta_prime, alpha_prime, beta_tilde, alpha_tilde


def tilde_closed_form(gs: GammaSet):
    """The closed-form transformed blocks:
    (beta~)_r^s = delta - gamma_r gamma^s,
    (alpha~^nu)_r^s = i gamma5 eps_r^{nu s mu} gamma_mu."""
    beta_tilde = gamma_pair_block(gs, -1.0)
    eps_mixed = np.einsum("rl,lnsm->rnsm", gs.metric.g_lower, gs.eps_upper)
    blocks = 1j * np.einsum(
        "ij,rnsm,mjk->nrsik", gs.gamma5, eps_mixed, gs.gamma_down
    )
    alpha_tilde = [BlockMatrix16(blocks[nu]) for nu in range(4)]
    return alpha_tilde, beta_tilde


def beta_tilde_eps_form(gs: GammaSet) -> BlockMatrix16:
    """The dual form (beta~)_r^s = i/2 gamma5 eps_r^{nu s mu} gamma_mu gamma_nu."""
    eps_mixed = np.einsum("rl,lnsm->rnsm", gs.metric.g_lower, gs.eps_upper)
    blocks = 0.5j * np.einsum(
        "ij,rnsm,mjk,nkl->rsil",
        gs.gamma5, eps_mixed, gs.gamma_down, gs.gamma_down,
    )
    return BlockMatrix16(blocks)


# ---------------------------------------------------------------------------
# flat-space reduction
# ---------------------------------------------------------------------------


def flat_reduction_check(field: FieldSampler, mass: MassParam, points,
                         spec: MetricSpec = None) -> dict:
    """On Minkowski (Cartesian), fields obeying gamma^a Psi_a = 0 and
    d^a Psi_a = 0 must give a residual equal to four independent Dirac
    residuals (gamma^a d_a + kappa) Psi_c.  Returns a report dict."""
    from .geometry import ETA
    from .spacetimes import load_preset
    from .spin_frame import GAMMA_FLAT

    if spec is None:
        spec = load_preset("minkowski_cartesian")
    max_rs = max_dirac = max_match = 0.0
    max_tr = max_div = 0.0
    scale = 1e-300
    for x in points:
        psi = field(x)
        d = covariant_derivative(field, spec, x)
        rs = rs_residual(field, spec, x, mass)
        dirac = (
            np.einsum("aij,acj->ci", GAMMA_FLAT, d) + mass.kappa * psi
        )
        trace = np.einsum("aij,aj->i", GAMMA_FLAT, psi)
        div = np.einsum("ab,abj->j", ETA, d)
        scale = max(scale, float(np.max(np.abs(psi))),
                    float(np.max(np.abs(d))))
        max_rs = max(max_rs, float(np.max(np.abs(rs))))
        max_dirac = max(max_dirac, float(np.max(np.abs(dirac))))
        max_match = max(max_match, float(np.max(np.abs(rs - dirac))))
        max_tr = max(max_tr, float(np.max(np.abs(trace))))
        max_div = max(max_div, float(np.max(np.abs(div))))
    constraints_ok = max_tr <= 1e-8 * scale and max_div <= 1e-8 * scale
    return {
        "constraints_satisfied": constraints_ok,
        "reduction_matches": max_match <= 1e-10 * max(scale, 1.0),
        "max_rs_residual": max_rs,
        "max_dirac_residual": max_dirac,
        "max_match_error": max_match,
        "max_gamma_trace": max_tr,
        "max_divergence": max_div,
        "scale": scale,
    }
