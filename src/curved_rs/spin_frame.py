"""Orthonormal tetrads, Dirac matrices, and the bispinor connection.

The flat matrices use the chirality (Weyl) representation with signature
(+,-,-,-): gamma^0 has off-diagonal identity blocks, gamma^k off-diagonal
Pauli blocks with opposite signs, and gamma5 = i g0 g1 g2 g3 = diag(-I, I).
sigma^{ab} = [gamma^a, gamma^b]/4; position-dependent matrices are tetrad
contractions gamma^al(x) = e_(a)^al gamma^a.

The bispinor connection is Gamma_al = 1/2 sigma^{ab} e_(a)^nu (nabla_al
e_(b)nu); with it the position-dependent gammas are covariantly constant:
d_s gamma^r + Gamma^r_{s l} gamma^l + [Gamma_s, gamma^r] = 0.

A ``GammaSet`` is the one place where products of the position-dependent
Dirac matrices are formed: it is built with gamma^al and the metric, and
forms gamma_al, sigma^{al be}, the volume tensor, gamma_r gamma^s,
i gamma5 eps_r^{nu s mu} gamma_mu and the operator blocks alpha^nu and
beta each on first read, once.  The triple gamma_r gamma^nu gamma^s
(``gamma_triple``) is formed, not kept, by alpha^nu and by the printed
form of the transformed blocks.  A ``Frame``
holds all of this for a set of rows and is the one place where geometry
is kept and shared; functions of a Point or (n, 4) rows keep nothing, and
the two connection curvatures take a Frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SignatureError
from .geometry import (
    ETA,
    CurvatureBundle,
    MetricAtPoint,
    MetricJet,
    MetricSpec,
    Point,
    as_rows,
    christoffel,
    curvature,
    eval_metric,
    levi_civita,
    metric_jet,
)
from .numerics import contract, read_only

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def _weyl_gammas() -> np.ndarray:
    g = np.zeros((4, 4, 4), dtype=complex)
    g[0, :2, 2:] = np.eye(2)
    g[0, 2:, :2] = np.eye(2)
    for k in range(3):
        g[k + 1, :2, 2:] = _PAULI[k]
        g[k + 1, 2:, :2] = -_PAULI[k]
    return g


GAMMA_FLAT = read_only(_weyl_gammas())
GAMMA5 = read_only(
    1j * GAMMA_FLAT[0] @ GAMMA_FLAT[1] @ GAMMA_FLAT[2] @ GAMMA_FLAT[3])

#: sigma^{ab} = [gamma^a, gamma^b]/4, frame indices raised with eta
SIGMA_FLAT = 0.25 * (
    np.einsum("aij,bjk->abik", GAMMA_FLAT, GAMMA_FLAT)
    - np.einsum("bij,ajk->abik", GAMMA_FLAT, GAMMA_FLAT)
)


#: SIGMA_FLAT as a matrix [(a, b), (i, j)]
_SIGMA_MATRIX = read_only(SIGMA_FLAT.reshape(16, 16))

#: the 1/3 of the operator blocks alpha^nu and beta
THIRD = 1.0 / 3.0

#: delta_r^s times the 4x4 identity, as blocks [r, s, i, j]
IDENTITY_BLOCKS = read_only(
    np.einsum("rs,ij->rsij", np.eye(4), np.eye(4)).astype(complex))


@dataclass(frozen=True)
class Tetrad:
    """Orthonormal frame: e_lower[a, al] = e^(a)_al, e_upper[a, al] = e_(a)^al."""

    e_lower: np.ndarray
    e_upper: np.ndarray


@dataclass(frozen=True)
class GammaSet:
    """Flat and position-dependent Dirac matrices (in a ``Frame``, each
    position-dependent array has a leading row axis).

    gamma_al, the products of the position-dependent matrices, the
    volume tensor and the operator blocks are formed on first read, at
    most once per GammaSet, and are read-only: every block builder reads
    them here instead of forming its own."""

    gamma_flat: np.ndarray  # [a, i, j]
    gamma5: np.ndarray
    gamma_up: np.ndarray  # gamma^al(x), [al, i, j]
    metric: MetricAtPoint
    tetrad: Tetrad

    @cached_property
    def gamma_down(self) -> np.ndarray:
        """gamma_al(x) = g_{al be} gamma^be(x), [..., al, i, j]."""
        return read_only(np.einsum("...mn,...nij->...mij",
                                   self.metric.g_lower, self.gamma_up))

    @cached_property
    def sigma_curved(self) -> np.ndarray:
        """sigma^{al be}(x) = [gamma^al, gamma^be]/4, [..., al, be, i, j]."""
        gu = self.gamma_up
        prod = gu[..., :, None, :, :] @ gu[..., None, :, :, :]
        return read_only(0.25 * (prod - np.swapaxes(prod, -4, -3)))

    @cached_property
    def eps_upper(self) -> np.ndarray:
        """eps^{abcd}(x), [..., a, b, c, d]."""
        return read_only(levi_civita(self.metric)[0])

    @cached_property
    def eps_mixed(self) -> np.ndarray:
        """eps_r^{nu s mu}(x), [..., r, nu, s, mu]."""
        return read_only(np.einsum("...rl,...lnsm->...rnsm",
                                   self.metric.g_lower, self.eps_upper))

    @cached_property
    def pairs(self) -> np.ndarray:
        """gamma_r gamma^s as blocks [..., r, s, i, j]."""
        return read_only(self.gamma_down[..., :, None, :, :]
                         @ self.gamma_up[..., None, :, :, :])

    @cached_property
    def eps_gamma(self) -> np.ndarray:
        """i gamma5 eps_r^{nu s mu} gamma_mu as blocks [..., nu, r, s, i, k]:
        the closed-form blocks alpha~^nu, gamma5 gamma_mu formed first."""
        g5_gd = contract("ij,...mjk->...ikm", self.gamma5, self.gamma_down)
        return read_only(1j * contract("...rnsm,...ikm->...nrsik",
                                       self.eps_mixed, g5_gd))

    @cached_property
    def beta(self) -> np.ndarray:
        """The operator block beta = delta_r^s - 1/3 gamma_r gamma^s,
        [..., r, s, i, j]."""
        return read_only(IDENTITY_BLOCKS - THIRD * self.pairs)

    @cached_property
    def alpha(self) -> np.ndarray:
        """The operator blocks alpha^nu, [..., nu, r, s, i, j]."""
        gd, gu, g_up = self.gamma_down, self.gamma_up, self.metric.g_upper
        eye = np.eye(4)
        # gamma^nu delta_r^s - 1/3 (delta^nu_r gamma^s + gamma_r g^{nu s}
        # - gamma_r gamma^nu gamma^s): summed in place, with the triple
        # product formed last, so that at most one temporary of alpha's
        # size is held beside it
        alpha = eye[:, :, None, None] * gu[..., :, None, None, :, :]
        alpha -= (THIRD * eye[:, :, None, None, None]
                  * gu[..., None, None, :, :, :])
        alpha -= (THIRD * gd[..., None, :, None, :, :]
                  * g_up[..., :, None, :, None, None])
        triple = gamma_triple(self)
        triple *= THIRD
        alpha += triple
        return read_only(alpha)


def gamma_triple(gs: GammaSet) -> np.ndarray:
    """gamma_r gamma^nu gamma^s as blocks [..., nu, r, s, i, l], the pair
    gamma_r gamma^nu formed first; a new array on every call."""
    pair = contract("...rij,...njk->...iknr", gs.gamma_down, gs.gamma_up)
    return contract("...skl,...iknr->...nrsil", gs.gamma_up, pair)


_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def _tetrad_rows(g: np.ndarray):
    """(e^(a)_al, e_(a)^al) of a diagonal metric (4, 4), or of a stack
    (n, 4, 4): the diagonal-positive gauge e^(a)_al = sqrt(|g_al al|) delta.
    Raises SignatureError unless every metric has signs (+,-,-,-)."""
    if g[..., _OFF_DIAGONAL].any():
        raise ValueError("tetrads are built for diagonal metrics only")
    d = np.diagonal(g, axis1=-2, axis2=-1)
    bad = ~((d[..., 0] > 0) & (d[..., 1:] < 0).all(axis=-1))
    if bad.any():
        raise SignatureError(
            f"diagonal metric with signs {np.sign(d[bad][0])} is not (+,-,-,-)"
        )
    root = np.sqrt(np.abs(d))
    return root[..., :, None] * np.eye(4), (1.0 / root)[..., :, None] * np.eye(4)


def build_tetrad(m: MetricAtPoint) -> Tetrad:
    """Tetrad with e^(a)_al eta_ab e^(b)_be = g_{al be}, at a point or on
    rows."""
    return Tetrad(*map(read_only, _tetrad_rows(m.g_lower)))


def curved_gammas(t: Tetrad, m: MetricAtPoint, flat: np.ndarray = None) -> GammaSet:
    """Position-dependent Dirac matrices from a tetrad, at one point or,
    when tetrad and metric carry a leading row axis, on every row
    (read-only)."""
    if flat is None:
        gamma_flat, gamma5 = GAMMA_FLAT, GAMMA5
    else:
        gamma_flat = flat
        gamma5 = 1j * flat[0] @ flat[1] @ flat[2] @ flat[3]
    gamma_up = np.einsum("...am,aij->...mij", t.e_upper, gamma_flat)
    return GammaSet(
        gamma_flat=gamma_flat,
        gamma5=gamma5,
        gamma_up=read_only(gamma_up),
        metric=m,
        tetrad=t,
    )


class Frame(MetricJet):
    """The geometry of an (n, 4) row set of chart coordinates, shared by
    everything evaluated on those rows: the metric jet it extends, the
    Dirac matrices with their tetrad (``gammas``), the Christoffels, the
    curvature and the connection, each with a leading row axis.  Each is
    filled on first use by one call of the geometry function of its name;
    every array is read-only; code that needs one row indexes them.
    ``dconnection`` is d_mu Gamma_al, indexed [x, mu, al, i, j], filled
    the same way by ``connection_derivative``.  Build frames with
    ``build_frame``.
    """

    @cached_property
    def gammas(self) -> GammaSet:
        return curved_gammas(build_tetrad(self.metric), self.metric)

    @cached_property
    def christoffel(self) -> np.ndarray:
        return christoffel(self.spec, self)

    @cached_property
    def curvature(self) -> CurvatureBundle:
        return curvature(self.spec, self)

    @cached_property
    def connection(self) -> np.ndarray:
        return spin_connection(self.spec, self)

    @cached_property
    def dconnection(self) -> np.ndarray:
        return connection_derivative(self)


def build_frame(spec: MetricSpec, coords) -> Frame:
    """The frame of an (n, 4) array of chart coordinates of the spec's
    chart."""
    return Frame(spec, as_rows(coords))


def gamma_set_at(spec: MetricSpec, x: Point | np.ndarray,
                 flat: np.ndarray = None) -> GammaSet:
    """The Dirac matrices at a Point, or on every row of (n, 4) chart
    coordinates of the spec's chart (each array then with a leading row
    axis), by the same tetrad and gamma builders as ``Frame.gammas`` but
    without a frame: nothing is kept for the rows."""
    m = eval_metric(spec, x)
    return curved_gammas(build_tetrad(m), m, flat)


def _sigma_contraction(omega) -> np.ndarray:
    """1/2 sigma^{ab} omega_{..., al ab}, indexed [..., al, i, j], as one
    (..., 16) @ (16, 16) matmul over (a, b) (read-only)."""
    conn = omega.reshape(omega.shape[:-2] + (16,)) @ _SIGMA_MATRIX
    return read_only(0.5 * conn.reshape(conn.shape[:-1] + (4, 4)))


def spin_connection(spec: MetricSpec, x) -> np.ndarray:
    """Gamma_al = 1/2 sigma^{ab} e_(a)^nu (nabla_al e_(b)nu), indexed
    [al, i, j], at a Point or on rows (read-only).  For the diagonal tetrad
    d_al e^(b)_nu is diagonal in (b, nu), so its term in omega_{al ab} is
    diagonal in (a, b), which sigma^{ab} annihilates: the connection is
    -1/2 sigma^{ab} e_(a)^n Gamma^l_{al n} eta_bc e^(c)_l."""
    jet = metric_jet(spec, x)
    tet = build_tetrad(eval_metric(spec, jet))
    # [al, b, n] = Gamma^l_{al n} eta_bc e^(c)_l
    ge = np.einsum("...lkn,...bl->...kbn", christoffel(spec, jet),
                   ETA @ tet.e_lower)
    # omega[al, a, b] = -e_(a)^n Gamma^l_{al n} eta_bc e^(c)_l
    return _sigma_contraction(
        -np.einsum("...an,...kbn->...kab", tet.e_upper, ge))


def connection_derivative(frame: Frame) -> np.ndarray:
    """d_mu Gamma_al, indexed [x, mu, al, i, j], on a frame's rows
    (read-only): ``spin_connection``'s sigma contraction of the
    curvature's exact d_mu Gamma^l_{al n}.  The tetrad's derivatives drop
    out of it (they carry d_mu(e_b / e_a), whose parts cancel between
    (a, b) and (b, a))."""
    tet = frame.gammas.tetrad
    # [x, a, mu, l, al] = e_(a)^n d_mu Gamma^l_{al n}
    dgam = contract("xan,xmlkn->xamlk", tet.e_upper,
                    frame.curvature.dchristoffel)
    return _sigma_contraction(-contract("xamlk,xbl->xmkab", dgam,
                                        ETA @ tet.e_lower))


def gamma_derivatives(frame: Frame):
    """(d_mu gamma^nu, d_mu gamma_nu) [x, mu, nu, i, j] and d_mu g^{nu s}
    [x, mu, nu, s] on a frame's rows: the diagonal tetrad gives gamma^nu and
    gamma_nu proportional to |g_nu nu|^(-1/2) and |g_nu nu|^(1/2), so their
    d_mu are -1/2 and +1/2 of (d_mu g_nu nu) / g_nu nu times themselves."""
    m, gs, dg = frame.metric, frame.gammas, frame.order(1)
    rate = (np.diagonal(dg, axis1=-2, axis2=-1)
            / np.diagonal(m.g_lower, axis1=-2, axis2=-1)[:, None, :])
    rate = 0.5 * rate[..., None, None]
    g_up = m.g_upper[:, None]
    return (-rate * gs.gamma_up[:, None], rate * gs.gamma_down[:, None],
            -(g_up @ dg @ g_up))


def spinor_commutator_curvature(frame: Frame) -> np.ndarray:
    """The curvature acting on the bispinor index: 1/2 sigma^{nu mu}(x)
    R_{mu nu be al}(x) on every row of a frame, returned as
    Dhat[x, al, be] (4x4 complex each), antisymmetric in (al, be)."""
    return 0.5 * contract("xnmij,xmnba->xabij", frame.gammas.sigma_curved,
                          frame.curvature.riemann_lower)


def connection_curvature(frame: Frame) -> np.ndarray:
    """Independent construction of the connection curvature on a frame,
    F[x, al, be] = d_al Gamma_be - d_be Gamma_al + [Gamma_al, Gamma_be],
    from the frame's connection and its exact derivative."""
    # G[x, al, i, j], dG[x, mu, al, i, j] = d_mu Gamma_al
    G, dG = frame.connection, frame.dconnection
    comm = (contract("xaij,xbjk->xabik", G, G)
            - contract("xbij,xajk->xabik", G, G))
    return dG - dG.transpose(0, 2, 1, 3, 4) + comm
