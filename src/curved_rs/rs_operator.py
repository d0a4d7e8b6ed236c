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

Functions at ``x`` take a Point, (n, 4) coordinates or a Frame and return
one row per row; the nested-difference ones take a Point or an
outer-stencil frame (``Frame.outer``) and return the value at its row 0.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTransform
from .fields import BISPINOR, VECTOR_BISPINOR, FieldSampler
from .geometry import MetricSpec, riemann_mixed
from .numerics import (
    STEP_FIRST,
    STEP_OUTER,
    differences,
    nested_step,
    outer_derivative,
    read_only,
    stencil,
)
from .spin_frame import (
    Frame,
    GammaSet,
    as_frame,
    build_frame,
    outer_frame,
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
    points, steps = stencil(frame.coords, base_step, levels)
    values = field.at(points.reshape(-1, 4), frame.chart_id)
    value, d = differences(values.reshape(points.shape[:2] + values.shape[1:]),
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
    frame, single = as_frame(spec, x)
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
    frame, single = as_frame(spec, x)
    d, psi = _covariant_rows(field, frame, STEP_FIRST, False)
    res = _residual(frame, d, psi, mass)
    return res[0] if single else res


def divergence_combo(field, spec, x, mass) -> np.ndarray:
    """The first-constraint combination D_be Psi^be - (kappa/2) gamma_be Psi^be
    at a Point, or on (n, 4) rows or a Frame."""
    frame, single = as_frame(spec, x)
    d, psi = _covariant_rows(field, frame, STEP_FIRST, False)
    out = _first_constraint(frame, d, psi, mass)
    return out[0] if single else out


def contraction_identity(field, spec, x, mass):
    """gamma-contraction of the residual vs (2/3) of the first-constraint
    combination, at a Point or on rows or a Frame; equal for arbitrary
    smooth fields.  Both sides share one D_nu Psi."""
    frame, single = as_frame(spec, x)
    d, psi = _covariant_rows(field, frame, STEP_FIRST, False)
    res = _residual(frame, d, psi, mass)
    lhs = np.einsum("xsij,xsj->xi", frame.gammas.gamma_up, res)
    rhs = (2.0 / 3.0) * _first_constraint(frame, d, psi, mass)
    return (lhs[0], rhs[0]) if single else (lhs, rhs)


def constraint_two_residual(field, spec, x, mass):
    """The algebraic constraint
    1/2 R_ab gamma^a Psi^b + (kappa^2/2 - R/12) gamma^r Psi_r."""
    frame, single = as_frame(spec, x)
    gs, bundle = frame.gammas, frame.curvature
    psi = field.at(frame)
    psi_up = np.einsum("xbl,xlj->xbj", gs.metric.g_upper, psi)
    # einsum's summation order follows its operands' memory layout; a
    # C-ordered Ricci tensor keeps the reported errors fixed to the last bit
    ricci = np.ascontiguousarray(bundle.ricci)
    t1 = np.einsum("xab,xaij,xbj->xi", 0.5 * ricci, gs.gamma_up, psi_up)
    phi = np.einsum("xrij,xrj->xi", gs.gamma_up, psi)
    out = t1 + (0.5 * mass.kappa**2 - bundle.scalar[:, None] / 12.0) * phi
    return out[0] if single else out


def einstein_space_factor(spec, x, mass):
    """The scalar 1/2 (R/12 - m^2) multiplying gamma^r Psi_r when
    R_ab = (R/4) g_ab (uses kappa^2 = -m^2 under the default convention)."""
    frame, single = as_frame(spec, x)
    out = 0.5 * (frame.curvature.scalar / 12.0 + mass.kappa**2)
    return out[0] if single else out


def centre_covariant(values, frame: Frame, kind: str, stencil_budget=None):
    """(value, D_mu value) at row 0 of an outer-stencil frame from the
    values [rows, ...] a field of ``kind`` takes on its rows."""
    v, dv = outer_derivative(values, frame.coords, stencil_budget)
    return v[0], _connect(frame, kind, dv, v, rows=slice(0, 1))[0]


def _nested_commutator(field, spec, x, include_spin):
    """(outer-stencil frame, [D_al, D_be] Psi indexed [al, be, c, s] by
    nested differences at its row 0, the spin connection optional)."""
    frame = outer_frame(spec, x)
    inner = covariant_derivative(field, spec, frame, base_step=STEP_OUTER,
                                 richardson=True, include_spin=include_spin)
    v, dv = outer_derivative(inner, frame.coords)  # [1, nu, c, s], [1, mu, ...]
    v, dv, gam = v[0], dv[0], frame.christoffel[0]
    t = (dv - np.einsum("lmn,lcs->mncs", gam, v)
         - np.einsum("lmc,nls->mncs", gam, v))
    if include_spin:
        t = t + np.einsum("mij,ncj->mnci", frame.connection[0], v)
    return frame, t - t.transpose(1, 0, 2, 3)


def second_covariant_comm(field, spec, x):
    """[D_al, D_be] Psi by nested differences, indexed [al, be, c, s]."""
    return _nested_commutator(field, spec, x, True)[1]


def _curvature_commutator(frame: Frame, psi):
    """(algebraic [D_a, D_b] Psi_c on a frame's rows, spinor curvature)."""
    dhat = spinor_commutator_curvature(frame.spec, frame)
    rmix = riemann_mixed(frame.curvature, frame.metric)
    # (D_{a b} Psi)_c = -R^l_{c a b} Psi_l + Dhat_{a b} Psi_c
    return (-np.einsum("xlcab,xls->xabcs", rmix, psi)
            + np.einsum("xabij,xcj->xabci", dhat, psi)), dhat


def commutator_curvature(field, spec, x):
    """The curvature form of [D_al, D_be] Psi, indexed [al, be, c, s]: the
    vector plus the spinor curvature."""
    frame, single = as_frame(spec, x)
    comm, _ = _curvature_commutator(frame, field.at(frame))
    return comm[0] if single else comm


def commutator_decomposition(field, spec, x):
    """Nested-difference [D_al, D_be] Psi vs its curvature form."""
    return (second_covariant_comm(field, spec, x),
            commutator_curvature(field, spec, x))


def bridge_commutator(field, spec, x):
    """-gamma^al (nabla_al nabla_be - nabla_be nabla_al) Psi^be by nested
    differences of Christoffel-only derivatives."""
    frame, comm = _nested_commutator(field, spec, x, False)
    gs = frame.gamma_set(0)
    w = np.einsum("nc,ancs->as", gs.metric.g_upper, comm)
    return -np.einsum("aij,aj->i", gs.gamma_up, w)


def ricci_gamma_contraction(field, spec, x):
    """gamma^al Psi^nu R_{nu al}."""
    frame, single = as_frame(spec, x)
    psi_up = np.einsum("xnl,xlj->xnj", frame.metric.g_upper, field.at(frame))
    out = np.einsum("xna,xaij,xnj->xi", frame.curvature.ricci,
                    frame.gammas.gamma_up, psi_up)
    return out[0] if single else out


def curvature_bridge(field, spec, x):
    """The standalone contraction (bridge commutator, Ricci contraction):
    -gamma^al [nabla_al, nabla_be] Psi^be = gamma^al Psi^nu R_{nu al}."""
    return (bridge_commutator(field, spec, x),
            ricci_gamma_contraction(field, spec, x))


def derivative_chain(field, spec, x, mass, stencil_budget=None):
    """D^s (residual)_s - (2/3) gamma^al D_al chi - kappa chi, with chi the
    first-constraint combination.  One inner D_nu Psi on the outer-stencil
    frame's rows (one ``at`` call over the stencil of stencils) gives both
    the residual and chi there; their outer derivatives at row 0 follow.
    """
    frame = outer_frame(spec, x)
    d, psi = _covariant_rows(field, frame, *nested_step(True))
    res, dres = centre_covariant(_residual(frame, d, psi, mass), frame,
                                 VECTOR_BISPINOR, stencil_budget)
    chi, dchi = centre_covariant(_first_constraint(frame, d, psi, mass),
                                 frame, BISPINOR, stencil_budget)
    gs = frame.gamma_set(0)
    return (
        np.einsum("nb,nbi->i", gs.metric.g_upper, dres)
        - (2.0 / 3.0) * np.einsum("aij,aj->i", gs.gamma_up, dchi)
        - mass.kappa * chi
    )


def derivative_chain_check(field, spec, x, mass, stencil_budget=None):
    """The derivative chain vs its curvature form, an identity for any C^3
    field; ``stencil_budget`` as for ``numerics.differences``."""
    return (derivative_chain(field, spec, x, mass, stencil_budget),
            chain_rhs_algebraic(field, spec, x, mass))


def chain_rhs_algebraic(field, spec, x, mass):
    """The curvature form of the derivative chain:
    -D_{al be} gamma^al Psi^be + kappa^2/2 gamma^r Psi_r
    + 1/3 sigma^{al be} D_{al be} gamma^r Psi_r, with the commutator in its
    algebraic form (vector curvature + spinor curvature)."""
    frame, single = as_frame(spec, x)
    gs = frame.gammas
    psi = field.at(frame)
    comm, dhat = _curvature_commutator(frame, psi)
    contracted = np.einsum("xmb,xambs->xas", gs.metric.g_upper, comm)
    term1 = -np.einsum("xaij,xaj->xi", gs.gamma_up, contracted)
    phi = np.einsum("xrij,xrj->xi", gs.gamma_up, psi)
    term2 = 0.5 * mass.kappa**2 * phi
    d_on_phi = np.einsum("xabij,xj->xabi", dhat, phi)
    term3 = (1.0 / 3.0) * np.einsum(
        "xabij,xabj->xi", gs.sigma_curved, d_on_phi
    )
    out = term1 + term2 + term3
    return out[0] if single else out


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
    residuals (gamma^a d_a + kappa) Psi_c, at every point.  Returns a
    report dict."""
    from .geometry import ETA
    from .spacetimes import load_preset
    from .spin_frame import GAMMA_FLAT

    if spec is None:
        spec = load_preset("minkowski_cartesian")
    frame = build_frame(spec, [x.coords for x in points])
    d, psi = _covariant_rows(field, frame, STEP_FIRST, False)
    rs = _residual(frame, d, psi, mass)
    dirac = np.einsum("aij,xacj->xci", GAMMA_FLAT, d) + mass.kappa * psi
    max_rs, max_dirac, max_match, max_tr, max_div = (
        float(np.max(np.abs(a))) for a in (
            rs, dirac, rs - dirac, np.einsum("aij,xaj->xi", GAMMA_FLAT, psi),
            np.einsum("ab,xabj->xj", ETA, d)))
    scale = max(1e-300, float(np.max(np.abs(psi))), float(np.max(np.abs(d))))
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
