"""Metric evaluation and curvature objects at a spacetime point.

Conventions (pinned once, verified by the test suite):

* signature (+,-,-,-), geometric units;
* Christoffel  Gamma^s_ab = 1/2 g^{sr} (d_a g_rb + d_b g_ra - d_r g_ab);
* Riemann      R^r_{s mu nu} = d_mu Gamma^r_{nu s} - d_nu Gamma^r_{mu s}
               + Gamma^r_{mu l} Gamma^l_{nu s} - Gamma^r_{nu l} Gamma^l_{mu s};
* Ricci        R_{s nu} = R^l_{s l nu},  scalar R = g^{s nu} R_{s nu}.

With these choices the static de Sitter preset has R = -12/alpha^2 and the
static anti-de Sitter preset has R = +12/alpha^2; vacuum presets are
Ricci-flat.  The totally antisymmetric tensor carries the factor
sqrt(-det g); its global sign EPS_SIGN is fixed by the triple-product
identity of the position-dependent Dirac matrices (see spin_frame) and
frozen here with a regression test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Callable, Optional

import numpy as np

from .errors import OutOfDomain, SingularMetric
from .numerics import read_only

#: global sign of the antisymmetric tensor: eps^{0123} = EPS_SIGN / sqrt(-g)
EPS_SIGN = -1.0

#: permutation signs of 4 indices, PERM4[a,b,c,d] in {-1, 0, +1}
PERM4 = np.zeros((4, 4, 4, 4))
for _perm in permutations(range(4)):
    _inv = sum(
        1 for i in range(4) for j in range(i + 1, 4) if _perm[i] > _perm[j]
    )
    PERM4[_perm] = -1.0 if _inv % 2 else 1.0

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass
class Point:
    """A chart point: four coordinates plus the chart's identifier."""

    coords: np.ndarray
    chart_id: str = ""

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (4,):
            raise ValueError("a point needs exactly 4 coordinates")

    def shifted(self, mu: int, dh: float) -> "Point":
        c = self.coords.copy()
        c[mu] += dh
        return Point(c, self.chart_id)


@dataclass(eq=False)
class MetricSpec:
    """A spacetime metric: component map with its exact derivatives, and
    the guard delimiting the chart's validity domain.  Specs are built from
    metric documents (see ``spacetimes``).

    ``component_fn(p, order=0)`` maps a Point to the 4x4 symmetric matrix
    g_ab (order 0), to d_mu g_ab indexed [mu, a, b] (order 1) or to
    d_mu d_nu g_ab indexed [mu, nu, a, b] (order 2).  ``sample_box`` is the
    per-coordinate (lo, hi) box used by randomized suites; it must lie
    strictly inside the domain.
    """

    name: str
    component_fn: Callable[..., np.ndarray]
    domain_guard: Callable[[Point], bool]
    chart: tuple = ("x0", "x1", "x2", "x3")
    chart_id: str = ""
    params: dict = field(default_factory=dict)
    sample_box: Optional[tuple] = None

    def point(self, *coords) -> Point:
        return Point(np.array(coords, dtype=float), self.chart_id)

    def contains(self, x: Point) -> bool:
        return bool(self.domain_guard(x))


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric, inverse and determinant evaluated at one point (or, in a
    batch of points, stacked along a leading row axis)."""

    g_lower: np.ndarray
    g_upper: np.ndarray
    det_g: float


@dataclass(frozen=True)
class CurvatureBundle:
    """Christoffel symbols and curvature tensors at one point.

    ``christoffel`` is Gamma^s_{ab} indexed [s, a, b]; ``riemann_lower`` is
    the fully lowered R_{r s mu nu}.
    """

    christoffel: np.ndarray
    riemann_lower: np.ndarray
    ricci: np.ndarray
    scalar: float
    einstein: np.ndarray


# Each cached builder guards the domain on the first use of a point (its
# own or, through the metric, its inputs'); a cache hit is a point that
# passed, so it skips the guard.


def _point_in_domain(spec: MetricSpec, coords: tuple) -> Point:
    x = Point(np.array(coords), spec.chart_id)
    if not spec.contains(x):
        raise OutOfDomain(
            f"point {np.array2string(x.coords, precision=6)} is outside the "
            f"domain of metric '{spec.name}'"
        )
    return x


@lru_cache(maxsize=65536)
def _metric_cached(spec: MetricSpec, coords: tuple) -> MetricAtPoint:
    x = _point_in_domain(spec, coords)
    g = np.asarray(spec.component_fn(x), dtype=float)
    det = float(np.linalg.det(g))
    if abs(det) < 1e-14:
        raise SingularMetric(f"|det g| = {abs(det):.3e} at {coords}")
    return MetricAtPoint(g_lower=read_only(g), g_upper=read_only(np.linalg.inv(g)),
                         det_g=det)


def eval_metric(spec: MetricSpec, x: Point) -> MetricAtPoint:
    """Metric, inverse and determinant at ``x``; guards the domain."""
    return _metric_cached(spec, tuple(x.coords))


def metric_derivatives(spec: MetricSpec, x: Point, order: int = 1) -> np.ndarray:
    """The exact d_mu g_ab at ``x``, indexed [mu, a, b] (``order`` 1), or
    d_mu d_nu g_ab, indexed [mu, nu, a, b] (``order`` 2)."""
    return _metric_derivs_cached(spec, tuple(x.coords), order)


@lru_cache(maxsize=65536)
def _metric_derivs_cached(spec, coords, order):
    x = _point_in_domain(spec, coords)
    return read_only(np.asarray(spec.component_fn(x, order), dtype=float))


def christoffel(spec: MetricSpec, x: Point) -> np.ndarray:
    """Gamma^s_{ab} at ``x``, indexed [s, a, b]."""
    return _christoffel_cached(spec, tuple(x.coords))


@lru_cache(maxsize=65536)
def _christoffel_cached(spec, coords):
    m = _metric_cached(spec, coords)
    dg = _metric_derivs_cached(spec, coords, 1)
    # Gamma^s_ab = 1/2 g^{sr} (dg[a,r,b] + dg[b,r,a] - dg[r,a,b])
    return read_only(0.5 * np.einsum(
        "sr,arb->sab", m.g_upper, dg + np.einsum("arb->bra", dg) - np.einsum("arb->rab", dg)
    ))


def curvature(spec: MetricSpec, x: Point) -> CurvatureBundle:
    """Full curvature bundle at ``x``, from the exact first and second
    metric derivatives: with d_mu g^{sr} = -g^{sk} (d_mu g_kl) g^{lr},
    d_mu Gamma^s_ab = -g^{sk} d_mu g_kl Gamma^l_ab
    + 1/2 g^{sr} d_mu (d_a g_rb + d_b g_ra - d_r g_ab)."""
    return _curvature_cached(spec, tuple(x.coords))


@lru_cache(maxsize=16384)
def _curvature_cached(spec, coords):
    m = _metric_cached(spec, coords)
    gam = _christoffel_cached(spec, coords)
    dg = _metric_derivs_cached(spec, coords, 1)
    ddg = _metric_derivs_cached(spec, coords, 2)
    dterms = (np.einsum("marb->mrab", ddg) + np.einsum("mbra->mrab", ddg)
              - ddg)  # [mu, r, a, b] = d_mu (d_a g_rb + d_b g_ra - d_r g_ab)
    # [mu, s, a, b] = d_mu Gamma^s_ab
    dgam = (0.5 * np.einsum("sr,mrab->msab", m.g_upper, dterms)
            - np.einsum("sk,mkl,lab->msab", m.g_upper, dg, gam))

    # R^r_{s mu nu}
    r_up = (
        np.einsum("mrns->rsmn", dgam)
        - np.einsum("nrms->rsmn", dgam)
        + np.einsum("rml,lns->rsmn", gam, gam)
        - np.einsum("rnl,lms->rsmn", gam, gam)
    )
    riemann_lower = np.einsum("rl,lsmn->rsmn", m.g_lower, r_up)
    ricci = np.einsum("lsln->sn", r_up)
    scalar = float(np.einsum("sn,sn->", m.g_upper, ricci))
    einstein = ricci - 0.5 * scalar * m.g_lower
    return CurvatureBundle(
        christoffel=gam,
        riemann_lower=read_only(riemann_lower),
        ricci=read_only(ricci),
        scalar=scalar,
        einstein=read_only(einstein),
    )


def riemann_mixed(bundle: CurvatureBundle, m: MetricAtPoint) -> np.ndarray:
    """R^r_{s mu nu} from the stored lowered tensor."""
    return np.einsum("rl,lsmn->rsmn", m.g_upper, bundle.riemann_lower)


def levi_civita(metric: MetricAtPoint):
    """The antisymmetric tensor at a point: (eps_upper, eps_lower).

    eps^{0123} = EPS_SIGN / sqrt(-g), eps_{0123} = -EPS_SIGN sqrt(-g);
    indices of either are raised/lowered consistently by the metric.  A
    metric stacked along a leading row axis gets one tensor per row.
    """
    det = np.asarray(metric.det_g, dtype=float)
    bad = (det >= 0) | (np.abs(det) < 1e-14)
    if bad.any():
        raise SingularMetric(
            f"need a Lorentzian metric, det g = {det[bad].flat[0]:.3e}"
        )
    root = np.sqrt(-det)[..., None, None, None, None]
    eps_upper = EPS_SIGN / root * PERM4
    eps_lower = -EPS_SIGN * root * PERM4
    return eps_upper, eps_lower


def covariant_metric_derivative(spec: MetricSpec, x: Point) -> np.ndarray:
    """nabla_mu g_ab, which must vanish; exposed for the compatibility test."""
    dg = metric_derivatives(spec, x)
    gam = christoffel(spec, x)
    g = eval_metric(spec, x).g_lower
    return (
        dg
        - np.einsum("lma,lb->mab", gam, g)
        - np.einsum("lmb,al->mab", gam, g)
    )
