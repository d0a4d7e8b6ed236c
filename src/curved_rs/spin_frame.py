"""Orthonormal tetrads, Dirac matrices, and the bispinor connection.

The flat matrices use the chirality (Weyl) representation with signature
(+,-,-,-): gamma^0 has off-diagonal identity blocks, gamma^k off-diagonal
Pauli blocks with opposite signs, and gamma5 = i g0 g1 g2 g3 = diag(-I, I).
sigma^{ab} = [gamma^a, gamma^b]/4; position-dependent matrices are tetrad
contractions gamma^al(x) = e_(a)^al gamma^a.

The bispinor connection is Gamma_al = 1/2 sigma^{ab} e_(a)^nu (nabla_al
e_(b)nu); with it the position-dependent gammas are covariantly constant:
d_s gamma^r + Gamma^r_{s l} gamma^l + [Gamma_s, gamma^r] = 0.

A ``Frame`` holds all of this for a set of rows and is the one place
where geometry is kept and shared; functions of one Point keep nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    metric_derivatives,
    metric_jet,
)
from .numerics import STEP_OUTER, differences, read_only, stencil

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


def unitary_transform_gammas(u: np.ndarray) -> np.ndarray:
    """Flat gammas in an equivalent representation: U gamma^a U^dagger."""
    return np.einsum("ij,ajk,kl->ail", u, GAMMA_FLAT, u.conj().T)


@dataclass(frozen=True)
class Tetrad:
    """Orthonormal frame: e_lower[a, al] = e^(a)_al, e_upper[a, al] = e_(a)^al."""

    e_lower: np.ndarray
    e_upper: np.ndarray


@dataclass(frozen=True)
class GammaSet:
    """Flat and position-dependent Dirac matrices plus the volume tensor
    (in a ``Frame``, each position-dependent array has a leading row
    axis)."""

    gamma_flat: np.ndarray  # [a, i, j]
    gamma5: np.ndarray
    gamma_up: np.ndarray  # gamma^al(x), [al, i, j]
    gamma_down: np.ndarray  # gamma_al(x)
    sigma_curved: np.ndarray  # sigma^{al be}(x), [al, be, i, j]
    eps_upper: np.ndarray
    eps_lower: np.ndarray
    metric: MetricAtPoint
    tetrad: Tetrad


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
    gamma_down = np.einsum("...mn,...nij->...mij", m.g_lower, gamma_up)
    prod = gamma_up[..., :, None, :, :] @ gamma_up[..., None, :, :, :]
    sigma = 0.25 * (prod - np.swapaxes(prod, -4, -3))
    eps_upper, eps_lower = map(read_only, levi_civita(m))
    return GammaSet(
        gamma_flat=gamma_flat,
        gamma5=gamma5,
        gamma_up=read_only(gamma_up),
        gamma_down=read_only(gamma_down),
        sigma_curved=read_only(sigma),
        eps_upper=eps_upper,
        eps_lower=eps_lower,
        metric=m,
        tetrad=t,
    )


#: the GammaSet arrays that carry a frame's row axis (besides metric, tetrad)
_ROW_ARRAYS = ("gamma_up", "gamma_down", "sigma_curved", "eps_upper",
               "eps_lower")


class Frame(MetricJet):
    """The geometry of an (n, 4) row set of chart coordinates, shared by
    everything evaluated on those rows: the metric jet it extends, the
    Dirac matrices with their tetrad (``gammas``), the Christoffels, the
    curvature and the connection, each with a leading row axis.  Each is
    filled on first use by one call of the geometry function of its name;
    every array is read-only.  ``outer(i)``, the outer-stencil frame of row
    i, is built once and kept, so every nested derivative at that row
    shares it.  Build frames with ``build_frame``.
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

    def gamma_set(self, i: int) -> GammaSet:
        """The Dirac matrices at row ``i`` (read-only views); equal to
        ``gamma_set_at`` at that point."""
        gs = self.gammas
        m, t = gs.metric, gs.tetrad
        return replace(
            gs,
            metric=MetricAtPoint(m.g_lower[i], m.g_upper[i], float(m.det_g[i])),
            tetrad=Tetrad(t.e_lower[i], t.e_upper[i]),
            **{k: getattr(gs, k)[i] for k in _ROW_ARRAYS},
        )

    @cached_property
    def _outer(self) -> dict:
        return {}

    def outer(self, i: int) -> "Frame":
        """The frame of the outer stencil around row ``i`` (outer step, both
        Richardson levels; its row 0 is row ``i``)."""
        if i not in self._outer:
            points, _ = stencil(self.coords[i:i + 1], STEP_OUTER, 2)
            self._outer[i] = build_frame(self.spec, points[0], self.chart_id)
        return self._outer[i]


def build_frame(spec: MetricSpec, coords, chart_id: str = None) -> Frame:
    """The frame of an (n, 4) array of chart coordinates (of the spec's
    chart unless ``chart_id`` says otherwise)."""
    return Frame(spec, as_rows(coords),
                 spec.chart_id if chart_id is None else chart_id)


def as_frame(spec: MetricSpec, x):
    """(frame, single) for a Point (a one-row frame), (n, 4) coordinates of
    the spec's chart, or a Frame."""
    if isinstance(x, Frame):
        return x, False
    if isinstance(x, Point):
        return build_frame(spec, x.coords[None, :], x.chart_id), True
    return build_frame(spec, x), False


def outer_frame(spec: MetricSpec, x) -> Frame:
    """The outer-stencil frame around a Point; one (``Frame.outer``) as it
    is."""
    return x if isinstance(x, Frame) else as_frame(spec, x)[0].outer(0)


def gamma_set_at(spec: MetricSpec, x: Point, flat: np.ndarray = None) -> GammaSet:
    """The Dirac matrices at one point, by the same tetrad and gamma
    builders as ``Frame.gammas``."""
    m = eval_metric(spec, x)
    return curved_gammas(build_tetrad(m), m, flat)


def _tetrad_derivatives(tet: Tetrad, dg: np.ndarray) -> np.ndarray:
    """d_mu e^(a)_al, indexed [mu, a, al], of the diagonal tetrad: the chain
    rule on sqrt(eta_aa g_aa) with the exact metric derivatives dg."""
    d = np.diagonal(dg, axis1=-2, axis2=-1)
    e = np.diagonal(tet.e_lower, axis1=-2, axis2=-1)[..., None, :]
    return (np.diag(ETA) * d / (2.0 * e))[..., :, :, None] * np.eye(4)


def spin_connection(spec: MetricSpec, x) -> np.ndarray:
    """Gamma_al = 1/2 sigma^{ab} e_(a)^nu (nabla_al e_(b)nu), indexed
    [al, i, j], at a Point or on rows (read-only)."""
    jet = metric_jet(spec, x)
    tet = build_tetrad(eval_metric(spec, jet))
    de = _tetrad_derivatives(tet, metric_derivatives(spec, jet))
    gam = christoffel(spec, jet)
    # frame indices lowered with eta: E[b, nu] = eta_bc e^(c)_nu
    e_dn = ETA @ tet.e_lower
    de_dn = np.einsum("ba,...mac->...mbc", ETA, de)
    # omega[al, a, b] = e_(a)^nu (d_al E[b,nu] - Gamma^l_{al nu} E[b,l])
    nabla_e = de_dn - np.einsum("...lan,...bl->...abn", gam, e_dn)
    omega = np.einsum("...an,...mbn->...mab", tet.e_upper, nabla_e)
    return read_only(0.5 * np.einsum("abij,...mab->...mij", SIGMA_FLAT, omega))


def spinor_commutator_curvature(spec: MetricSpec, x) -> np.ndarray:
    """The curvature acting on the bispinor index: 1/2 sigma^{nu mu}(x)
    R_{mu nu be al}(x), returned as Dhat[al, be] (4x4 complex each),
    antisymmetric in (al, be); at a Point, or on every row of a Frame."""
    frame, single = as_frame(spec, x)
    out = 0.5 * np.einsum("xnmij,xmnba->xabij", frame.gammas.sigma_curved,
                          frame.curvature.riemann_lower)
    return out[0] if single else out


def connection_curvature_fd(spec: MetricSpec, x) -> np.ndarray:
    """Independent construction of the connection curvature,
    F[al, be] = d_al Gamma_be - d_be Gamma_al + [Gamma_al, Gamma_be],
    with the derivative taken by Richardson differences of the connection
    on each row's outer-stencil frame; at a Point, or on every row of a
    Frame."""
    frame, single = as_frame(spec, x)
    _, steps = stencil(frame.coords, STEP_OUTER, 2)
    values = np.stack([frame.outer(i).connection
                       for i in range(len(frame.coords))])
    # G[x, al, i, j], dG[x, mu, al, i, j] = d_mu Gamma_al
    G, dG = differences(values, steps, True)
    comm = (np.einsum("xaij,xbjk->xabik", G, G)
            - np.einsum("xbij,xajk->xabik", G, G))
    out = dG - dG.transpose(0, 2, 1, 3, 4) + comm
    return out[0] if single else out
