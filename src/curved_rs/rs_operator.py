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
and Psi on a frame's rows: ``covariant_derivative`` keeps the first, and
``nested_rows`` takes the inner derivative of the nested chains on the
rows of the frame's one stacked outer frame (``Frame.outer``).  Every
side of an identity is a function of those sampled rows and returns one
row per frame row.  A field may be a ``fields.FieldStack``: its values, and
everything computed from them, then carry a trailing fixture axis, which
every contraction on field values passes through a trailing ``...``
(``"xnij,xj...->xni..."``).  One sampler is the case without that axis,
on the same code.
The block algebra works on any leading axes: given a frame's ``gammas``
instead of one point's GammaSet, it builds every row's blocks at once.
Every block product is one dense (..., 16, 16) matmul.  The
multi-operand einsums (the gamma triples of ``_alpha_beta_rows`` and
``transform_printed``, ``eps_gamma`` and ``beta_tilde_eps_form``) carry
the fixed contraction path numpy would pick for them, so each runs as
pairwise products instead of one nested loop over every index, without a
path search on every call; the two-operand contractions over a frame's
rows (``rs_residual``, ``_connect`` and the commutator terms) carry
``PAIRWISE`` and run as batched matmuls.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTransform
from .fields import BISPINOR, VECTOR_BISPINOR, FieldSampler, FieldStack
from .geometry import ETA, riemann_mixed
from .numerics import (
    PAIRWISE,
    differences,
    outer_derivative,
    read_only,
    stencil,
)
from .spin_frame import (GAMMA_FLAT, Frame, GammaSet,
                         spinor_commutator_curvature)


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
    """A 4x4 grid of 4x4 complex blocks acting on vector-bispinors, or a
    stack of them on any leading axes (a frame's rows).

    blocks[..., r, s, i, j]: r/s are the vector row/column, i/j the spinor
    ones; the dense form is [..., 4 r + i, 4 s + j].  A product is one
    (..., 16, 16) matmul of the dense forms.  ``max_abs`` is the largest
    entry over the whole stack.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = np.asarray(blocks, dtype=complex)
        if self.blocks.shape[-4:] != (4, 4, 4, 4):
            raise ValueError("blocks must have shape (..., 4, 4, 4, 4)")

    @classmethod
    def identity(cls):
        return cls(_IDENTITY_BLOCKS)

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense, dtype=complex)
        return cls(dense.reshape(dense.shape[:-2] + (4, 4, 4, 4))
                   .swapaxes(-3, -2))

    def to_dense(self) -> np.ndarray:
        b = self.blocks
        return b.swapaxes(-3, -2).reshape(b.shape[:-4] + (16, 16))

    def __matmul__(self, other):
        return BlockMatrix16.from_dense(self.to_dense() @ other.to_dense())

    def __add__(self, other):
        return BlockMatrix16(self.blocks + other.blocks)

    def __sub__(self, other):
        return BlockMatrix16(self.blocks - other.blocks)

    def __mul__(self, scalar):
        return BlockMatrix16(self.blocks * scalar)

    __rmul__ = __mul__

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """(M Psi)_r = sum_s block(r, s) Psi_s."""
        return np.einsum("...rsij,...sj->...ri", self.blocks, psi)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.blocks)))


#: the 1/3 of the operator blocks alpha^nu and beta
THIRD = 1.0 / 3.0

#: the contraction paths numpy picks (``optimize=True``) for the gamma
#: triple gamma_r gamma^nu gamma^s, for i gamma5 eps gamma and for
#: i/2 gamma5 eps gamma gamma, at one point and on 1 to 340 rows alike
_TRIPLE_PATH = ("einsum_path", (0, 1), (0, 1))
_EPS_GAMMA_PATH = ("einsum_path", (0, 2), (0, 1))
_EPS_GAMMA_GAMMA_PATH = ("einsum_path", (0, 2), (1, 2), (0, 1))

#: delta_r^s times the 4x4 identity, as blocks [r, s, i, j]
_IDENTITY_BLOCKS = read_only(
    np.einsum("rs,ij->rsij", np.eye(4), np.eye(4)).astype(complex))


def _per_nu(blocks) -> list:
    """The four BlockMatrix16 of blocks [..., nu, r, s, i, j]."""
    return [BlockMatrix16(blocks[..., nu, :, :, :, :]) for nu in range(4)]


def _gamma_pairs(gd: np.ndarray, gu: np.ndarray) -> np.ndarray:
    """gamma_r gamma^s as blocks [..., r, s, i, j] (any leading axes)."""
    return gd[..., :, None, :, :] @ gu[..., None, :, :, :]


def gamma_pair_block(gs: GammaSet, coeff: complex) -> BlockMatrix16:
    """I + coeff * gamma_r gamma^s as a block matrix (on the GammaSet's
    leading axes)."""
    return BlockMatrix16(
        _IDENTITY_BLOCKS + coeff * _gamma_pairs(gs.gamma_down, gs.gamma_up)
    )


def _alpha_beta_rows(gd: np.ndarray, gu: np.ndarray, g_up: np.ndarray):
    """The operator blocks on any leading axes: gamma_al(x), gamma^al(x)
    [..., 4, 4, 4] and g^{al be}(x) [..., 4, 4] give alpha
    [..., nu, r, s, i, j] and beta [..., r, s, i, j]."""
    pair = _gamma_pairs(gd, gu)
    beta = _IDENTITY_BLOCKS - THIRD * pair
    eye = np.eye(4)
    # gamma^nu delta_r^s - 1/3 (delta^nu_r gamma^s + gamma_r g^{nu s}
    # - gamma_r gamma^nu gamma^s), indexed [..., nu, r, s, i, j]: summed in
    # place, with the triple product formed last, so that at most one
    # temporary of alpha's size is held beside it
    alpha = eye[:, :, None, None] * gu[..., :, None, None, :, :]
    alpha -= THIRD * eye[:, :, None, None, None] * gu[..., None, None, :, :, :]
    alpha -= (THIRD * gd[..., None, :, None, :, :]
              * g_up[..., :, None, :, None, None])
    triple = np.einsum("...rij,...njk,...skl->...nrsil", gd, gu, gu,
                       optimize=_TRIPLE_PATH)
    triple *= THIRD
    alpha += triple
    return alpha, beta


def build_alpha_beta(gs: GammaSet | Frame):
    """The operator blocks (alpha^nu for nu = 0..3, beta) at a point, on
    every row of a frame's ``gammas``, or on a frame's rows from the blocks
    ``frame_blocks`` keeps for it (each block matrix then carries the row
    axis); read-only, since a suite context shares them."""
    if isinstance(gs, Frame):
        alpha, beta = frame_blocks(gs)
    else:
        alpha, beta = map(read_only, _alpha_beta_rows(
            gs.gamma_down, gs.gamma_up, gs.metric.g_upper))
    return _per_nu(alpha), BlockMatrix16(beta)


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


def _spin_term(frame: Frame, kind: str, value):
    """Gamma_nu on the spinor index of a field's values [n, ...] on a
    frame's rows, indexed [n, nu, ...]."""
    sub = "xnij,xj...->xni..." if kind == BISPINOR else "xnij,xbj...->xnbi..."
    return np.einsum(sub, frame.connection, value, optimize=PAIRWISE)


def _connect(frame: Frame, kind: str, d, value, include_spin=True):
    """D_nu from the partial derivatives d [n, nu, ...] and the values
    [n, ...] of a field on a frame's rows: the Christoffel term on a
    vector index, then the connection on the spinor index."""
    if kind == VECTOR_BISPINOR:
        d = d - np.einsum("xlnb,xli...->xnbi...", frame.christoffel, value,
                          optimize=PAIRWISE)
    return d + _spin_term(frame, kind, value) if include_spin else d


def covariant_rows(field, frame: Frame, nested=False, include_spin=True):
    """D_nu of a sampler or a ``FieldStack`` on a frame's rows, and the
    field there: (d [n, nu, ...], value [n, ...]).  One ``field.at`` call
    samples every row's stencil (``numerics.stencil``); the geometry comes
    from the frame.  The value is a copy, so that a caller who keeps it
    does not keep the values of the whole stencil."""
    points, steps = stencil(frame.coords, nested)
    values = field.at(points.reshape(-1, 4), frame.chart_id)
    value, d = differences(values.reshape(points.shape[:2] + values.shape[1:]),
                           steps)
    return _connect(frame, field.kind, d, value, include_spin), value.copy()


def covariant_derivative(field: FieldSampler | FieldStack, frame: Frame,
                         nested: bool = False) -> np.ndarray:
    """D_nu of a sampler on a frame's rows.

    Vector-bispinor fields get the Christoffel term on the vector index
    and the bispinor connection on the spinor index; bispinor fields only
    the connection (they are coordinate scalars).  Returns [n, nu, be, s]
    or [n, nu, s] (and the fixture axis of a stack).  ``nested`` picks the
    nested step policy of ``numerics``, for a derivative that feeds another
    one.
    """
    return covariant_rows(field, frame, nested)[0]


def _first_constraint(frame, d, psi, mass):
    """D_be Psi^be - (kappa/2) gamma_be Psi^be on a frame's rows."""
    div = np.einsum("xnb,xnbi...->xi...", frame.metric.g_upper, d)
    trace = np.einsum("xbij,xbj...->xi...", frame.gammas.gamma_up, psi)
    return div - 0.5 * mass.kappa * trace


def rs_residual(frame: Frame, d, psi, mass: MassParam) -> np.ndarray:
    """Left side of the wave equation on a frame's rows,
    (alpha^nu D_nu + kappa beta) Psi, from D_nu Psi and Psi there
    (``covariant_rows``)."""
    alpha, beta = frame_blocks(frame)
    return (mass.kappa * np.einsum("xrsij,xsj...->xri...", beta, psi,
                                   optimize=PAIRWISE)
            + np.einsum("xnrsij,xnsj...->xri...", alpha, d,
                        optimize=PAIRWISE))


def contraction_identity(frame: Frame, d, psi, mass):
    """(lhs, rhs) on a frame's rows from D_nu Psi and Psi there: the
    gamma-contraction of the residual, equal for any smooth field to (2/3)
    D_be Psi^be - (kappa/2) gamma_be Psi^be."""
    res = rs_residual(frame, d, psi, mass)
    lhs = np.einsum("xsij,xsj...->xi...", frame.gammas.gamma_up, res)
    return lhs, (2.0 / 3.0) * _first_constraint(frame, d, psi, mass)


def constraint_two(frame: Frame, psi, mass):
    """The algebraic constraint
    1/2 R_ab gamma^a Psi^b + (kappa^2/2 - R/12) gamma^r Psi_r on a frame's
    rows from the field values psi [n, be, s] there."""
    gs, bundle = frame.gammas, frame.curvature
    psi_up = np.einsum("xbl,xlj...->xbj...", gs.metric.g_upper, psi)
    # einsum's summation order follows its operands' memory layout; a
    # C-ordered Ricci tensor keeps the reported errors fixed to the last bit
    ricci = np.ascontiguousarray(bundle.ricci)
    t1 = np.einsum("xab,xaij,xbj...->xi...", 0.5 * ricci, gs.gamma_up,
                   psi_up)
    phi = np.einsum("xrij,xrj...->xi...", gs.gamma_up, psi)
    factor = 0.5 * mass.kappa**2 - bundle.scalar / 12.0
    return t1 + factor.reshape(factor.shape + (1,) * (phi.ndim - 1)) * phi


def einstein_space_factor(frame: Frame, mass):
    """The scalar 1/2 (R/12 - m^2) multiplying gamma^r Psi_r when
    R_ab = (R/4) g_ab, per row (uses kappa^2 = -m^2 under the default
    convention)."""
    return 0.5 * (frame.curvature.scalar / 12.0 + mass.kappa**2)


def centre_covariant(values, frame: Frame, kind: str):
    """(value, D_mu value) on a frame's rows from the values [n * 17, ...]
    a field of ``kind`` (or a stack of them) takes on the rows of its outer
    frame."""
    v, dv = outer_derivative(values, frame.coords)
    return v, _connect(frame, kind, dv, v)


def nested_rows(field, frame: Frame):
    """The inner derivative the nested chains share, on the rows of a
    frame's outer frame (nested step policy), in both forms:
    (Christoffel-only D_nu Psi, D_nu Psi, Psi), from one ``at`` call over
    every outer row's stencil.  The full form adds the connection term to
    the Christoffel-only one, as ``_connect`` does, so each equals its own
    ``covariant_rows`` to the bit.  ``derivative_chain`` and
    ``second_covariant_comm`` read the full form, ``bridge_commutator``
    the Christoffel-only one."""
    outer = frame.outer
    christ, psi = covariant_rows(field, outer, nested=True,
                                 include_spin=False)
    return christ, christ + _spin_term(outer, field.kind, psi), psi


def second_covariant_comm(frame: Frame, d, include_spin=True):
    """[D_al, D_be] Psi indexed [x, al, be, c, s] on a frame's rows by
    nested differences of the inner D_nu Psi d on its outer frame's rows
    (``nested_rows``); ``include_spin`` False drops the spin connection
    (the Christoffel-only commutator, from the Christoffel-only d)."""
    # [x, nu, c, s], [x, mu, nu, c, s]
    v, dv = outer_derivative(d, frame.coords)
    gam = frame.christoffel
    t = (dv - np.einsum("xlmn,xlcs...->xmncs...", gam, v, optimize=PAIRWISE)
         - np.einsum("xlmc,xnls...->xmncs...", gam, v, optimize=PAIRWISE))
    if include_spin:
        t = t + np.einsum("xmij,xncj...->xmnci...", frame.connection, v,
                          optimize=PAIRWISE)
    return t - t.swapaxes(1, 2)


def curvature_commutator(frame: Frame, psi):
    """The curvature form of [D_al, D_be] Psi on a frame's rows from the
    field values psi [n, be, s] there, indexed [x, al, be, c, s] (the
    vector plus the spinor curvature), and the spinor curvature."""
    dhat = spinor_commutator_curvature(frame)
    rmix = riemann_mixed(frame.curvature, frame.metric)
    # (D_{a b} Psi)_c = -R^l_{c a b} Psi_l + Dhat_{a b} Psi_c
    comm = (-np.einsum("xlcab,xls...->xabcs...", rmix, psi, optimize=PAIRWISE)
            + np.einsum("xabij,xcj...->xabci...", dhat, psi,
                        optimize=PAIRWISE))
    return comm, dhat


def bridge_commutator(frame: Frame, christ):
    """-gamma^al (nabla_al nabla_be - nabla_be nabla_al) Psi^be on a
    frame's rows by nested differences of the Christoffel-only inner
    derivative christ of ``nested_rows``; equal to ``ricci_contraction``."""
    comm = second_covariant_comm(frame, christ, include_spin=False)
    w = np.einsum("xnc,xancs...->xas...", frame.metric.g_upper, comm)
    return -np.einsum("xaij,xaj...->xi...", frame.gammas.gamma_up, w)


def ricci_contraction(frame: Frame, psi):
    """gamma^al Psi^nu R_{nu al} on a frame's rows from the field values
    psi [n, be, s] there."""
    psi_up = np.einsum("xnl,xlj...->xnj...", frame.metric.g_upper, psi)
    return np.einsum("xna,xaij,xnj...->xi...", frame.curvature.ricci,
                     frame.gammas.gamma_up, psi_up)


def derivative_chain(frame: Frame, d, psi, mass):
    """D^s (residual)_s - (2/3) gamma^al D_al chi - kappa chi on a frame's
    rows, with chi the first-constraint combination; equal to
    ``chain_rhs`` for any C^3 field.  D_nu Psi and Psi on the rows of the
    outer frame (``nested_rows``) give both the residual and chi there;
    their outer derivatives at the frame's rows follow.
    """
    outer = frame.outer
    _, dres = centre_covariant(rs_residual(outer, d, psi, mass), frame,
                               VECTOR_BISPINOR)
    chi, dchi = centre_covariant(_first_constraint(outer, d, psi, mass),
                                 frame, BISPINOR)
    return (np.einsum("xnb,xnbi...->xi...", frame.metric.g_upper, dres)
            - (2.0 / 3.0) * np.einsum("xaij,xaj...->xi...",
                                      frame.gammas.gamma_up, dchi)
            - mass.kappa * chi)


def chain_rhs(frame: Frame, psi, mass):
    """The curvature form of the derivative chain on a frame's rows from
    the field values psi [n, be, s] there:
    -D_{al be} gamma^al Psi^be + kappa^2/2 gamma^r Psi_r
    + 1/3 sigma^{al be} D_{al be} gamma^r Psi_r, with the commutator in its
    algebraic form (vector curvature + spinor curvature)."""
    gs = frame.gammas
    comm, dhat = curvature_commutator(frame, psi)
    contracted = np.einsum("xmb,xambs...->xas...", gs.metric.g_upper, comm)
    term1 = -np.einsum("xaij,xaj...->xi...", gs.gamma_up, contracted)
    phi = np.einsum("xrij,xrj...->xi...", gs.gamma_up, psi)
    term2 = 0.5 * mass.kappa**2 * phi
    d_on_phi = np.einsum("xabij,xj...->xabi...", dhat, phi)
    term3 = (1.0 / 3.0) * np.einsum(
        "xabij,xabj...->xi...", gs.sigma_curved, d_on_phi
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


def _eps_mixed(gs: GammaSet) -> np.ndarray:
    """eps_r^{nu s mu}, indexed [..., r, nu, s, mu]."""
    return np.einsum("...rl,...lnsm->...rnsm", gs.metric.g_lower, gs.eps_upper)


def eps_gamma(gs: GammaSet) -> np.ndarray:
    """i gamma5 eps_r^{nu s mu} gamma_mu as blocks [..., nu, r, s, i, k]."""
    return 1j * np.einsum("ij,...rnsm,...mjk->...nrsik", gs.gamma5,
                          _eps_mixed(gs), gs.gamma_down,
                          optimize=_EPS_GAMMA_PATH)


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
    alpha_prime = (
        nu_rs - nu_r_s / 3.0 + (2.0 * c - 1.0) / 3.0 * r_nu_s
        + np.einsum("...rij,...njk,...skl->...nrsil", gd, gu, gu,
                    optimize=_TRIPLE_PATH) / 3.0
    )
    alpha_tilde = (c_nu * nu_rs + c_sig * nu_r_s + c_g * r_nu_s
                   + B * eps_gamma(gs))
    return beta_prime, _per_nu(alpha_prime), beta_tilde, _per_nu(alpha_tilde)


def tilde_closed_form(gs: GammaSet):
    """The closed-form transformed blocks (on the GammaSet's leading axes):
    (beta~)_r^s = delta - gamma_r gamma^s,
    (alpha~^nu)_r^s = i gamma5 eps_r^{nu s mu} gamma_mu."""
    return _per_nu(eps_gamma(gs)), gamma_pair_block(gs, -1.0)


def beta_tilde_eps_form(gs: GammaSet) -> BlockMatrix16:
    """The dual form (beta~)_r^s = i/2 gamma5 eps_r^{nu s mu} gamma_mu gamma_nu."""
    return BlockMatrix16(0.5j * np.einsum(
        "ij,...rnsm,...mjk,...nkl->...rsil",
        gs.gamma5, _eps_mixed(gs), gs.gamma_down, gs.gamma_down,
        optimize=_EPS_GAMMA_GAMMA_PATH,
    ))


# ---------------------------------------------------------------------------
# flat-space reduction
# ---------------------------------------------------------------------------


def flat_reduction_check(frame: Frame, d, psi, mass: MassParam) -> dict:
    """On Minkowski (Cartesian), fields obeying gamma^a Psi_a = 0 and
    d^a Psi_a = 0 must give a residual equal to four independent Dirac
    residuals (gamma^a d_a + kappa) Psi_c, on every row of the frame, whose
    metric the residual reads, from D_nu Psi and Psi there.  Returns a
    report dict."""
    rs = rs_residual(frame, d, psi, mass)
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
