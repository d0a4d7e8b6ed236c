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

A field is sampled only through ``covariant_rows``, which gives D_nu Psi
and Psi on a frame's rows from the field's first-order jet (``fields``),
and ``covariant_jet``, which adds d_mu D_nu Psi exactly, from the field's
second-order jet and the frame's connection derivatives.  Every side of an
identity is a function of those rows and returns one row per frame row.  A field may be a
``fields.FieldStack``: its values, and everything computed from them, then
carry a trailing fixture axis, which every contraction on field values
passes through a trailing ``...`` (``"xnij,xj...->xni..."``).  One sampler
is the case without that axis, on the same code.
The block algebra works on any leading axes: given a frame's ``gammas``
instead of one point's GammaSet, it builds every row's blocks at once.
It forms no Dirac product of its own: the operator blocks alpha^nu and
beta, gamma_r gamma^s, eps_r^{nu s mu} and the closed-form
i gamma5 eps_r^{nu s mu} gamma_mu are read from the GammaSet, which forms
each once, and the gamma triple of ``transform_printed`` is
``spin_frame.gamma_triple``.  A block matrix stores its dense
(..., 16, 16) form, which the GammaSet's block arrays already lie in, so
every block product is one matmul with no layout copy.  Every other contraction of two operands is
``numerics.contract``, one batched matmul planned once per subscripts;
one of more operands is written as its pairwise steps:
``beta_tilde_eps_form`` as the path numpy's search picks for it, and the
Ricci terms of ``constraint_two`` and ``ricci_contraction`` with
R_ab gamma^a formed first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidTransform
from .fields import BISPINOR, VECTOR_BISPINOR, FieldSampler, FieldStack
from .geometry import ETA, riemann_mixed
from .numerics import contract
from .spin_frame import (GAMMA_FLAT, IDENTITY_DENSE, THIRD, Frame, GammaSet,
                         block_view, dense_view, gamma_derivatives,
                         gamma_triple, new_blocks)


#: the largest m^2 a mass may have: every check passes at m^2 = 1e306,
#: while at m^2 = 1e308 the operator products overflow to NaN
MASS_SQUARED_MAX = 1e300


@dataclass
class MassParam:
    """Mass and the operator's mass factor kappa = i*m."""

    m: float

    def __post_init__(self):
        m = float(self.m)
        if not (m >= 0 and m * m <= MASS_SQUARED_MAX):
            raise ValueError(f"mass must be >= 0 with m^2 <= "
                             f"{MASS_SQUARED_MAX:g}, got {self.m}")

    @property
    def kappa(self) -> complex:
        return 1j * self.m


class BlockMatrix16:
    """A 4x4 grid of 4x4 complex blocks acting on vector-bispinors, or a
    stack of them on any leading axes (a frame's rows).

    The matrix holds one array, its dense form [..., 4 r + i, 4 s + j]
    (r/s the vector row/column, i/j the spinor ones): ``to_dense`` returns
    it and ``from_dense`` wraps one, neither with a copy, and ``blocks``
    [..., r, s, i, j] is a view of it.  Built from blocks that lie in the
    dense form's memory order, as a GammaSet's do, the matrix is a view of
    them.  A product is one (..., 16, 16) matmul of the dense forms, and
    ``max_abs`` (the largest entry over the whole stack) reads them too.
    """

    __slots__ = ("_dense",)

    def __init__(self, blocks):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.shape[-4:] != (4, 4, 4, 4):
            raise ValueError("blocks must have shape (..., 4, 4, 4, 4)")
        self._dense = dense_view(blocks)

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense, dtype=complex)
        if dense.shape[-2:] != (16, 16):
            raise ValueError(f"a dense form must have shape (..., 16, 16), "
                             f"got {dense.shape}")
        matrix = cls.__new__(cls)
        matrix._dense = dense
        return matrix

    def to_dense(self) -> np.ndarray:
        return self._dense

    @property
    def blocks(self) -> np.ndarray:
        return block_view(self._dense)

    def __matmul__(self, other):
        return BlockMatrix16.from_dense(self.to_dense() @ other.to_dense())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._dense)))


def _per_nu(blocks) -> list:
    """The four BlockMatrix16 of blocks [..., nu, r, s, i, j] held in the
    dense form's memory order: views of their dense form."""
    dense = dense_view(blocks)
    return [BlockMatrix16.from_dense(dense[..., nu, :, :]) for nu in range(4)]


def gamma_pair_block(gs: GammaSet, coeff: complex) -> BlockMatrix16:
    """I + coeff * gamma_r gamma^s as a block matrix (on the GammaSet's
    leading axes), formed in its dense form."""
    return BlockMatrix16.from_dense(IDENTITY_DENSE
                                    + coeff * dense_view(gs.pairs))


def build_alpha_beta(gs: GammaSet):
    """The operator blocks (alpha^nu for nu = 0..3, beta) of a GammaSet, at
    a point or on every row of a frame's ``gammas`` (each block matrix then
    carries the row axis): views of its read-only ``alpha`` and ``beta``."""
    return _per_nu(gs.alpha), BlockMatrix16.from_dense(dense_view(gs.beta))


def _spin_term(frame: Frame, kind: str, value):
    """Gamma_nu on the spinor index of a field's values [n, ...] on a
    frame's rows, indexed [n, nu, ...]."""
    sub = "xnij,xj...->xni..." if kind == BISPINOR else "xnij,xbj...->xnbi..."
    return contract(sub, frame.connection, value)


def _connect(frame: Frame, kind: str, d, value, include_spin=True):
    """D_nu from the partial derivatives d [n, nu, ...] and the values
    [n, ...] of a field on a frame's rows: the Christoffel term on a
    vector index, then the connection on the spinor index."""
    if kind == VECTOR_BISPINOR:
        d = d - contract("xlnb,xli...->xnbi...", frame.christoffel, value)
    return d + _spin_term(frame, kind, value) if include_spin else d


def covariant_rows(field, frame: Frame, include_spin=True):
    """D_nu of a sampler or a ``FieldStack`` on a frame's rows, and the
    field there: (d [n, nu, ...], value [n, ...]), from one ``field.jet``
    call on the rows; the geometry comes from the frame."""
    value, d = field.jet(frame)
    return _connect(frame, field.kind, d, value, include_spin), value


class CovariantJet(NamedTuple):
    """C_nu Psi (the Christoffel term alone), D_nu Psi and Psi on a frame's
    rows [n, nu, ...] and [n, ...], each with its d_mu [n, mu, ...]."""

    christ: np.ndarray
    dchrist: np.ndarray
    d: np.ndarray
    dd: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray


def covariant_jet(field, frame: Frame) -> CovariantJet:
    """The ``CovariantJet`` of a sampler or a ``FieldStack`` on a frame's
    rows from one ``field.jet(frame, 2)`` call; D_nu Psi adds the spin term
    as ``_connect`` does, and so equals ``covariant_rows``'s to the bit."""
    psi, dpsi, ddpsi = field.jet(frame, 2)
    christ = _connect(frame, field.kind, dpsi, psi, include_spin=False)
    b = "b" if field.kind == VECTOR_BISPINOR else ""
    dchrist = ddpsi
    if b:
        dchrist = (ddpsi - contract("xmlnb,xli...->xmnbi...",
                                    frame.curvature.dchristoffel, psi)
                   - contract("xlnb,xmli...->xmnbi...", frame.christoffel,
                              dpsi))
    dspin = (contract(f"xmnij,x{b}j...->xmn{b}i...", frame.dconnection, psi)
             + contract(f"xnij,xm{b}j...->xmn{b}i...", frame.connection,
                        dpsi))
    return CovariantJet(christ, dchrist,
                        christ + _spin_term(frame, field.kind, psi),
                        dchrist + dspin, psi, dpsi)


def covariant_derivative(field: FieldSampler | FieldStack, frame: Frame,
                         order: int = 1):
    """D_nu of a sampler on a frame's rows: the Christoffel term on a
    vector index and the bispinor connection on the spinor index.  Returns
    [n, nu, be, s] or [n, nu, s] (and the fixture axis of a stack); with
    ``order`` 2 the pair (D_nu Psi, d_mu D_nu Psi) of ``covariant_jet``."""
    if order == 1:
        return covariant_rows(field, frame)[0]
    return covariant_jet(field, frame)[2:4]


def _first_constraint(frame, d, psi, mass):
    """D_be Psi^be - (kappa/2) gamma_be Psi^be on a frame's rows."""
    div = contract("xnb,xnbi...->xi...", frame.metric.g_upper, d)
    trace = contract("xbij,xbj...->xi...", frame.gammas.gamma_up, psi)
    return div - 0.5 * mass.kappa * trace


def rs_residual(frame: Frame, d, psi, mass: MassParam) -> np.ndarray:
    """Left side of the wave equation on a frame's rows,
    (alpha^nu D_nu + kappa beta) Psi, from D_nu Psi and Psi there
    (``covariant_rows``)."""
    gs = frame.gammas
    return (mass.kappa * contract("xrsij,xsj...->xri...", gs.beta, psi)
            + contract("xnrsij,xnsj...->xri...", gs.alpha, d))


def contraction_identity(frame: Frame, d, psi, mass):
    """(lhs, rhs) on a frame's rows from D_nu Psi and Psi there: the
    gamma-contraction of the residual, equal for any smooth field to (2/3)
    D_be Psi^be - (kappa/2) gamma_be Psi^be."""
    res = rs_residual(frame, d, psi, mass)
    lhs = contract("xsij,xsj...->xi...", frame.gammas.gamma_up, res)
    return lhs, (2.0 / 3.0) * _first_constraint(frame, d, psi, mass)


def constraint_two(frame: Frame, psi, mass):
    """The algebraic constraint
    1/2 R_ab gamma^a Psi^b + (kappa^2/2 - R/12) gamma^r Psi_r on a frame's
    rows from the field values psi [n, be, s] there."""
    gs, bundle = frame.gammas, frame.curvature
    psi_up = contract("xbl,xlj...->xbj...", gs.metric.g_upper, psi)
    # 1/2 R_ab gamma^a formed first
    ricci_gamma = contract("xab,xaij->xbij", 0.5 * bundle.ricci, gs.gamma_up)
    t1 = contract("xbij,xbj...->xi...", ricci_gamma, psi_up)
    phi = contract("xrij,xrj...->xi...", gs.gamma_up, psi)
    factor = 0.5 * mass.kappa**2 - bundle.scalar / 12.0
    return t1 + factor.reshape(factor.shape + (1,) * (phi.ndim - 1)) * phi


def einstein_space_factor(frame: Frame, mass):
    """The scalar 1/2 (R/12 - m^2) multiplying gamma^r Psi_r when
    R_ab = (R/4) g_ab, per row (uses kappa^2 = -m^2)."""
    return 0.5 * (frame.curvature.scalar / 12.0 + mass.kappa**2)


def second_covariant_comm(frame: Frame, d, dd, include_spin=True):
    """[D_al, D_be] Psi indexed [x, al, be, c, s] on a frame's rows from
    D_nu Psi d and its d_mu dd (``covariant_jet``); ``include_spin`` False
    gives the Christoffel-only commutator, of the Christoffel-only d, dd."""
    gam = frame.christoffel
    t = (dd - contract("xlmn,xlcs...->xmncs...", gam, d)
         - contract("xlmc,xnls...->xmncs...", gam, d))
    if include_spin:
        t = t + contract("xmij,xncj...->xmnci...", frame.connection, d)
    return t - t.swapaxes(1, 2)


def curvature_commutator(frame: Frame, psi):
    """The curvature form of [D_al, D_be] Psi on a frame's rows from the
    field values psi [n, be, s] there, indexed [x, al, be, c, s] (the
    vector plus the spinor curvature), and the spinor curvature."""
    dhat = frame.spinor_curvature
    rmix = riemann_mixed(frame.curvature, frame.metric)
    # (D_{a b} Psi)_c = -R^l_{c a b} Psi_l + Dhat_{a b} Psi_c
    comm = (-contract("xlcab,xls...->xabcs...", rmix, psi)
            + contract("xabij,xcj...->xabci...", dhat, psi))
    return comm, dhat


def bridge_commutator(frame: Frame, christ, dchrist):
    """-gamma^al (nabla_al nabla_be - nabla_be nabla_al) Psi^be on a
    frame's rows from the Christoffel-only derivatives christ and dchrist
    of ``covariant_jet``; equal to ``ricci_contraction``."""
    comm = second_covariant_comm(frame, christ, dchrist, include_spin=False)
    w = contract("xnc,xancs...->xas...", frame.metric.g_upper, comm)
    return -contract("xaij,xaj...->xi...", frame.gammas.gamma_up, w)


def ricci_contraction(frame: Frame, psi):
    """gamma^al Psi^nu R_{nu al} on a frame's rows from the field values
    psi [n, be, s] there."""
    psi_up = contract("xnl,xlj...->xnj...", frame.metric.g_upper, psi)
    # R_na gamma^a formed first
    ricci_gamma = contract("xna,xaij->xnij", frame.curvature.ricci,
                           frame.gammas.gamma_up)
    return contract("xnij,xnj...->xi...", ricci_gamma, psi_up)


def derivative_chain(frame: Frame, d, dd, psi, dpsi, mass):
    """D^s (residual)_s - (2/3) gamma^al D_al chi - kappa chi on a frame's
    rows, with chi the first-constraint combination; equal to
    ``chain_rhs`` for any C^3 field.  From D_nu Psi, d_mu D_nu Psi, Psi and
    d_mu Psi (``covariant_jet``) the residual and chi are differentiated by
    the product rule, with the exact derivatives of gamma^nu, gamma_nu and
    g^{nu s} (``gamma_derivatives``): nothing assumes that the blocks are
    covariantly constant, which 1.4 checks."""
    gu, gd = frame.gammas.gamma_up, frame.gammas.gamma_down
    g_up, kappa = frame.metric.g_upper, mass.kappa
    d_gu, d_gd, d_g_up = gamma_derivatives(frame)

    # residual_r = gamma^nu D_nu Psi_r - 1/3 p_r + 1/3 gamma_r x + kappa Psi_r
    # with p_nu = gamma^s D_nu Psi_s, x = gamma^nu p_nu - q - kappa b,
    # q = g^{nu s} D_nu Psi_s and b = gamma^s Psi_s; chi = q - kappa/2 b
    p = contract("xsij,xnsj...->xni...", gu, d)
    dp = (contract("xmsij,xnsj...->xmni...", d_gu, d)
          + contract("xsij,xmnsj...->xmni...", gu, dd))
    dq = (contract("xmns,xnsi...->xmi...", d_g_up, d)
          + contract("xns,xmnsi...->xmi...", g_up, dd))
    db = (contract("xmsij,xsj...->xmi...", d_gu, psi)
          + contract("xsij,xmsj...->xmi...", gu, dpsi))
    x = (contract("xnij,xnj...->xi...", gu, p)
         - contract("xns,xnsi...->xi...", g_up, d)
         - kappa * contract("xsij,xsj...->xi...", gu, psi))
    dx = (contract("xmnij,xnj...->xmi...", d_gu, p)
          + contract("xnij,xmnj...->xmi...", gu, dp) - dq - kappa * db)
    dres = (contract("xmnij,xnrj...->xmri...", d_gu, d)
            + contract("xnij,xmnrj...->xmri...", gu, dd) - THIRD * dp
            + THIRD * (contract("xmrij,xj...->xmri...", d_gd, x)
                       + contract("xrij,xmj...->xmri...", gd, dx))
            + kappa * dpsi)
    chi = _first_constraint(frame, d, psi, mass)
    dres = _connect(frame, VECTOR_BISPINOR, dres,
                    rs_residual(frame, d, psi, mass))
    dchi = _connect(frame, BISPINOR, dq - 0.5 * kappa * db, chi)
    return (contract("xnb,xnbi...->xi...", g_up, dres)
            - (2.0 / 3.0) * contract("xaij,xaj...->xi...", gu, dchi)
            - kappa * chi)


def chain_rhs(frame: Frame, psi, mass, commutator):
    """The curvature form of the derivative chain on a frame's rows from
    the field values psi [n, be, s] there:
    -D_{al be} gamma^al Psi^be + kappa^2/2 gamma^r Psi_r
    + 1/3 sigma^{al be} D_{al be} gamma^r Psi_r, with the commutator in its
    algebraic form (vector curvature + spinor curvature): the pair
    ``curvature_commutator(frame, psi)``."""
    gs = frame.gammas
    comm, dhat = commutator
    contracted = contract("xmb,xambs...->xas...", gs.metric.g_upper, comm)
    term1 = -contract("xaij,xaj...->xi...", gs.gamma_up, contracted)
    phi = contract("xrij,xrj...->xi...", gs.gamma_up, psi)
    term2 = 0.5 * mass.kappa**2 * phi
    d_on_phi = contract("xabij,xj...->xabi...", dhat, phi)
    term3 = (1.0 / 3.0) * contract("xabij,xabj...->xi...",
                                   gs.sigma_curved, d_on_phi)
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
    if not all(map(math.isfinite, (a, b, c))):
        raise InvalidTransform(f"a, b and c must be finite, got {a}, {b}, "
                               f"{c}")
    if not abs(a + b + 4.0 * a * b) <= 1e-12:
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
    """The expanded coefficient form of the transformed operator blocks (on
    the GammaSet's leading axes).

    beta' = I - (c+1)/3 gamma gamma;
    beta~ = I + [b + (4b+1)(a - (4a+1)(c+1)/3)] gamma gamma;
    alpha'^nu and alpha~^nu with the printed coefficient groups (the
    epsilon term carries the common bracket B).
    """
    gd, gu = gs.gamma_down, gs.gamma_up
    beta_prime = gamma_pair_block(gs, -(c + 1.0) / 3.0)
    beta_tilde = gamma_pair_block(
        gs, b + (4.0 * b + 1.0) * (a - (4.0 * a + 1.0) * (c + 1.0) / 3.0)
    )

    B = (b + 1.0) / 3.0 + b * ((2.0 * c - 1.0) * (1.0 + 4.0 * a) / 3.0
                               + 2.0 * a)
    c_nu = 1.0 - B
    c_sig = (2.0 * b - 1.0) / 3.0 + B
    c_g = ((2.0 * c - 1.0) * (1.0 + 4.0 * a) / 3.0 + 2.0 * a) + B

    # the terms of blocks [..., nu, r, s, i, j]: gamma^nu delta_r^s,
    # delta^nu_r gamma^s and gamma_r g^{nu s}
    eye = np.eye(4)
    nu_rs = eye[:, :, None, None] * gu[..., :, None, None, :, :]
    nu_r_s = eye[:, :, None, None, None] * gu[..., None, None, :, :, :]
    r_nu_s = gd[..., None, :, None, :, :] * gs.metric.g_upper[
        ..., :, None, :, None, None]
    # each sum formed in place, left to right, in the dense memory order
    alpha_prime, alpha_tilde = (new_blocks(gu.shape[:-3] + (4,))
                                for _ in range(2))
    np.subtract(nu_rs, nu_r_s / 3.0, out=alpha_prime)
    alpha_prime += (2.0 * c - 1.0) / 3.0 * r_nu_s
    alpha_prime += gamma_triple(gs) / 3.0
    np.multiply(c_nu, nu_rs, out=alpha_tilde)
    alpha_tilde += c_sig * nu_r_s
    alpha_tilde += c_g * r_nu_s
    alpha_tilde += B * gs.eps_gamma
    return beta_prime, _per_nu(alpha_prime), beta_tilde, _per_nu(alpha_tilde)


def tilde_closed_form(gs: GammaSet):
    """The closed-form transformed blocks (on the GammaSet's leading axes):
    (beta~)_r^s = delta - gamma_r gamma^s,
    (alpha~^nu)_r^s = i gamma5 eps_r^{nu s mu} gamma_mu."""
    return _per_nu(gs.eps_gamma), gamma_pair_block(gs, -1.0)


def beta_tilde_eps_form(gs: GammaSet) -> BlockMatrix16:
    """The dual form (beta~)_r^s = i/2 gamma5 eps_r^{nu s mu} gamma_mu gamma_nu."""
    gd = gs.gamma_down
    g5_gd = contract("ij,...mjk->...ikm", gs.gamma5, gd)
    g5_gd_gd = contract("...nkl,...ikm->...ilmn", gd, g5_gd)
    return BlockMatrix16(0.5j * contract("...rnsm,...ilmn->...rsil",
                                         gs.eps_mixed, g5_gd_gd))


# ---------------------------------------------------------------------------
# flat-space reduction
# ---------------------------------------------------------------------------


def flat_reduction_check(frame: Frame, d, psi, mass: MassParam) -> dict:
    """On Minkowski (Cartesian), fields obeying gamma^a Psi_a = 0 and
    d^a Psi_a = 0 must give a residual equal to four independent Dirac
    residuals (gamma^a d_a + kappa) Psi_c, on every row of the frame, whose
    metric the residual reads, from D_nu Psi and Psi there.  Returns a
    report dict of per-row values [n]: the largest entry of the residual
    and of its difference from the Dirac residuals, and their ``scale``.
    ``constraints_satisfied`` holds where the largest entries of
    gamma^a Psi_a and d^a Psi_a are at most 1e-8 of the scale."""
    rs = rs_residual(frame, d, psi, mass)
    dirac = contract("aij,xacj->xci", GAMMA_FLAT, d) + mass.kappa * psi
    max_rs, max_match, max_tr, max_div, max_psi, max_d = (
        np.max(np.abs(a).reshape(len(a), -1), axis=1) for a in (
            rs, rs - dirac, contract("aij,xaj->xi", GAMMA_FLAT, psi),
            contract("ab,xabj->xj", ETA, d), psi, d))
    scale = np.maximum(np.maximum(max_psi, max_d), 1e-300)
    constraints_ok = (max_tr <= 1e-8 * scale) & (max_div <= 1e-8 * scale)
    return {
        "constraints_satisfied": constraints_ok,
        "max_rs_residual": max_rs,
        "max_match_error": max_match,
        "scale": scale,
    }
