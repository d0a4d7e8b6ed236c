"""Orthonormal tetrads, Dirac matrices, and the bispinor connection.

The flat matrices use the chirality (Weyl) representation with signature
(+,-,-,-): gamma^0 has off-diagonal identity blocks, gamma^k off-diagonal
Pauli blocks with opposite signs, and gamma5 = i g0 g1 g2 g3 = diag(-I, I).
sigma^{ab} = [gamma^a, gamma^b]/4; position-dependent matrices are tetrad
contractions gamma^al(x) = e_(a)^al gamma^a.

The bispinor connection is Gamma_al = 1/2 sigma^{ab} e_(a)^nu (nabla_al
e_(b)nu); with it the position-dependent gammas are covariantly constant:
d_s gamma^r + Gamma^r_{s l} gamma^l + [Gamma_s, gamma^r] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import SignatureError
from .geometry import (
    ETA,
    MetricAtPoint,
    MetricSpec,
    Point,
    christoffel,
    curvature,
    eval_metric,
    levi_civita,
    metric_derivatives,
)
from .numerics import STEP_FIRST, fd_step, partial4, read_only

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


_OFF_DIAGONAL = 1.0 - np.eye(4)


def _diagonal_rows(g: np.ndarray) -> np.ndarray:
    """Which metrics of a (..., 4, 4) stack are diagonal."""
    a = np.abs(g)
    off = (a * _OFF_DIAGONAL).max(axis=(-2, -1))
    return off <= 1e-12 * np.maximum(1.0, a.max(axis=(-2, -1)))


def _tetrad_rows(g: np.ndarray, g_inv: np.ndarray):
    """(e^(a)_al, e_(a)^al) for an (n, 4, 4) stack of metrics and inverses.

    Diagonal rows get the diagonal-positive gauge e^(a)_al =
    sqrt(|g_al al|) delta; the others an eigen-decomposition whose
    eigenvectors have a positive largest-magnitude entry.  Raises
    SignatureError unless every metric has exactly one positive
    eigendirection.
    """
    diag = _diagonal_rows(g)
    d = np.diagonal(g, axis1=1, axis2=2)
    bad = diag & ~((d[:, 0] > 0) & (d[:, 1:] < 0).all(axis=1))
    if bad.any():
        raise SignatureError(
            f"diagonal metric with signs {np.sign(d[bad][0])} is not (+,-,-,-)"
        )
    # non-diagonal rows get 1 here and their eigen-tetrads below
    root = np.sqrt(np.where(diag[:, None], np.abs(d), 1.0))
    e_lower = root[:, :, None] * np.eye(4)
    e_upper = (1.0 / root)[:, :, None] * np.eye(4)
    rest = ~diag
    if rest.any():
        evals, evecs = np.linalg.eigh(g[rest])
        order = np.argsort(evals, axis=1)[:, ::-1]  # the positive one first
        evals = np.take_along_axis(evals, order, axis=1)
        evecs = np.take_along_axis(evecs, order[:, None, :], axis=2)
        bad = ~((evals[:, 0] > 0) & (evals[:, 1:] < 0).all(axis=1))
        if bad.any():
            raise SignatureError(
                f"metric eigenvalues {evals[bad][0]} are not (+,-,-,-)"
            )
        pivot = np.argmax(np.abs(evecs), axis=1)
        lead = np.take_along_axis(evecs, pivot[:, None, :], axis=1)
        evecs = np.where(lead < 0, -evecs, evecs)
        e_rest = np.sqrt(np.abs(evals))[:, :, None] * evecs.transpose(0, 2, 1)
        e_lower[rest] = e_rest
        e_upper[rest] = ETA @ e_rest @ g_inv[rest]
    return e_lower, e_upper


def build_tetrad(m: MetricAtPoint) -> Tetrad:
    """Tetrad with e^(a)_al eta_ab e^(b)_be = g_{al be}: row 0 of
    ``_tetrad_rows`` on the one metric."""
    e_lower, e_upper = _tetrad_rows(m.g_lower[None], m.g_upper[None])
    return Tetrad(e_lower=e_lower[0], e_upper=e_upper[0])


def curved_gammas(t: Tetrad, m: MetricAtPoint, flat: np.ndarray = None) -> GammaSet:
    """Position-dependent Dirac matrices from a tetrad, at one point or,
    when tetrad and metric carry a leading row axis, on every row."""
    if flat is None:
        gamma_flat, gamma5 = GAMMA_FLAT, GAMMA5
    else:
        gamma_flat = flat
        gamma5 = 1j * flat[0] @ flat[1] @ flat[2] @ flat[3]
    gamma_up = np.einsum("...am,aij->...mij", t.e_upper, gamma_flat)
    gamma_down = np.einsum("...mn,...nij->...mij", m.g_lower, gamma_up)
    prod = gamma_up[..., :, None, :, :] @ gamma_up[..., None, :, :, :]
    sigma = 0.25 * (prod - np.swapaxes(prod, -4, -3))
    eps_upper, eps_lower = levi_civita(m)
    return GammaSet(
        gamma_flat=gamma_flat,
        gamma5=gamma5,
        gamma_up=gamma_up,
        gamma_down=gamma_down,
        sigma_curved=sigma,
        eps_upper=eps_upper,
        eps_lower=eps_lower,
        metric=m,
        tetrad=t,
    )


#: the GammaSet arrays that carry a frame's row axis (besides metric, tetrad)
_ROW_ARRAYS = ("gamma_up", "gamma_down", "sigma_curved", "eps_upper",
               "eps_lower")


@dataclass(frozen=True, eq=False)
class Frame:
    """The geometry of an (n, 4) row set of chart coordinates, shared by
    everything evaluated on those rows: metric, Dirac matrices with their
    tetrad (``gammas``, each array with a leading row axis), Christoffels
    and connections (n, 4, 4, 4).

    Each is computed once, on first use, and every array is read-only.
    Rows go through ``eval_metric``, ``christoffel`` and ``spin_connection``,
    so their domain guards, caches and singular-metric checks run per row.
    Build frames with ``build_frame``.
    """

    spec: MetricSpec
    coords: np.ndarray
    chart_id: str

    def _per_row(self, fn) -> list:
        return [fn(self.spec, Point(c, self.chart_id)) for c in self.coords]

    @cached_property
    def metric(self) -> MetricAtPoint:
        rows = self._per_row(eval_metric)
        return MetricAtPoint(
            g_lower=read_only(np.array([m.g_lower for m in rows])),
            g_upper=read_only(np.array([m.g_upper for m in rows])),
            det_g=read_only(np.array([m.det_g for m in rows])),
        )

    @cached_property
    def gammas(self) -> GammaSet:
        m = self.metric
        t = Tetrad(*map(read_only, _tetrad_rows(m.g_lower, m.g_upper)))
        gs = curved_gammas(t, m)
        for k in _ROW_ARRAYS:
            read_only(getattr(gs, k))
        return gs

    @cached_property
    def christoffel(self) -> np.ndarray:
        return read_only(np.stack(self._per_row(christoffel)))

    @cached_property
    def connection(self) -> np.ndarray:
        return read_only(np.stack(self._per_row(spin_connection)))

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


def build_frame(spec: MetricSpec, coords, chart_id: str = None) -> Frame:
    """The frame of an (n, 4) array of chart coordinates (of the spec's
    chart unless ``chart_id`` says otherwise)."""
    coords = np.array(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 4:
        raise ValueError(f"rows must have shape (n, 4), got {coords.shape}")
    return Frame(spec, read_only(coords),
                 spec.chart_id if chart_id is None else chart_id)


def gamma_set_at(spec: MetricSpec, x: Point, flat: np.ndarray = None) -> GammaSet:
    """The Dirac matrices at one point, by the same tetrad and gamma
    builders as ``Frame.gammas``."""
    m = eval_metric(spec, x)
    return curved_gammas(build_tetrad(m), m, flat)


def tetrad_field(spec: MetricSpec, x: Point) -> np.ndarray:
    """e^(a)_al as a smooth field (diagonal gauge on diagonal metrics)."""
    return build_tetrad(eval_metric(spec, x)).e_lower


def _tetrad_derivatives(spec: MetricSpec, x: Point) -> np.ndarray:
    """d_mu e^(a)_al, indexed [mu, a, al].

    Diagonal metrics use the chain rule on sqrt(eta_aa g_aa) with the
    spec's metric derivatives (analytic when available); the general case
    falls back to finite differences of the tetrad field.
    """
    m = eval_metric(spec, x)
    if _diagonal_rows(m.g_lower):
        dg = metric_derivatives(spec, x)
        e_diag = np.sqrt(np.abs(np.diag(m.g_lower)))
        out = np.zeros((4, 4, 4))
        for mu in range(4):
            for a in range(4):
                out[mu, a, a] = ETA[a, a] * dg[mu, a, a] / (2.0 * e_diag[a])
        return out
    return np.stack(
        [
            partial4(
                lambda c: tetrad_field(spec, Point(c, spec.chart_id)),
                x.coords,
                mu,
                fd_step(x.coords[mu], STEP_FIRST),
            )
            for mu in range(4)
        ],
        axis=0,
    )


def spin_connection(spec: MetricSpec, x: Point) -> np.ndarray:
    """Gamma_al = 1/2 sigma^{ab} e_(a)^nu (nabla_al e_(b)nu), indexed
    [al, i, j] (read-only)."""
    return _spin_connection_cached(spec, tuple(x.coords))


@lru_cache(maxsize=65536)
def _spin_connection_cached(spec, coords):
    x = Point(np.array(coords), spec.chart_id)
    m = eval_metric(spec, x)
    tet = build_tetrad(m)
    de = _tetrad_derivatives(spec, x)  # [mu, a, al] of e^(a)_al
    gam = christoffel(spec, x)
    # frame indices lowered with eta: E[b, nu] = eta_bc e^(c)_nu
    e_dn = ETA @ tet.e_lower
    de_dn = np.einsum("ba,mac->mbc", ETA, de)
    # omega[al, a, b] = e_(a)^nu (d_al E[b,nu] - Gamma^l_{al nu} E[b,l])
    nabla_e = de_dn - np.einsum("lan,bl->abn", gam, e_dn)
    omega = np.einsum("an,mbn->mab", tet.e_upper, nabla_e)
    return read_only(0.5 * np.einsum("abij,mab->mij", SIGMA_FLAT, omega))


def spinor_commutator_curvature(spec: MetricSpec, x: Point,
                                gs: GammaSet = None) -> np.ndarray:
    """The curvature acting on the bispinor index: 1/2 sigma^{nu mu}(x)
    R_{mu nu be al}(x), returned as Dhat[al, be] (4x4 complex each),
    antisymmetric in (al, be).  ``gs``: the Dirac matrices at ``x`` when
    the caller has them (a frame row)."""
    bundle = curvature(spec, x)
    if gs is None:
        gs = gamma_set_at(spec, x)
    return 0.5 * np.einsum(
        "nmij,mnba->abij", gs.sigma_curved, bundle.riemann_lower
    )


def connection_curvature_fd(spec: MetricSpec, x: Point) -> np.ndarray:
    """Independent construction of the connection curvature,
    F[al, be] = d_al Gamma_be - d_be Gamma_al + [Gamma_al, Gamma_be],
    with the derivative taken by Richardson differences of the connection
    field."""
    from .numerics import STEP_OUTER

    def gamma_at(c):
        return _spin_connection_cached(spec, tuple(c))

    dG = np.stack(
        [
            partial4(gamma_at, x.coords, mu, fd_step(x.coords[mu], STEP_OUTER),
                     richardson=True)
            for mu in range(4)
        ],
        axis=0,
    )  # dG[mu, al, i, j] = d_mu Gamma_al
    G = gamma_at(x.coords)
    comm = np.einsum("aij,bjk->abik", G, G) - np.einsum("bij,ajk->abik", G, G)
    return dG - dG.transpose(1, 0, 2, 3) + comm
