"""Metric evaluation and curvature at a spacetime point or on (n, 4) rows.

Every function takes a Point, an (n, 4) coordinate array or a
``MetricJet``, and does its tensor algebra once over the row axis (a Point
has none).  Nothing is kept between calls but what a jet keeps.

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
from functools import cached_property
from itertools import permutations
from typing import Callable, Optional

import numpy as np

from .errors import OutOfDomain, SingularMetric
from .numerics import contract, read_only

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


@dataclass(eq=False)
class MetricSpec:
    """A spacetime metric: component map with its exact derivatives, and
    the guard delimiting the chart's validity domain.  Specs are built from
    metric documents (see ``spacetimes``).

    Both callables take (n, 4) rows of chart coordinates, and only rows:
    ``component_fn(rows, order=0)`` gives the 4x4 symmetric g_ab of each
    row (order 0), d_mu g_ab indexed [x, mu, a, b] (order 1) or
    d_mu d_nu g_ab indexed [x, mu, nu, a, b] (order 2);
    ``domain_guard(rows)`` gives a bool per row.  ``MetricJet`` and
    ``identity_suite.sample_points`` are their callers.  ``chart_id``
    names the chart (a document's carries its config hash), and
    ``sample_box`` is the per-coordinate (lo, hi) box used by randomized
    suites; it must lie strictly inside the domain.
    """

    name: str
    component_fn: Callable[..., np.ndarray]
    domain_guard: Callable[..., np.ndarray]
    chart_id: str = ""
    params: dict = field(default_factory=dict)
    sample_box: Optional[tuple] = None

    def point(self, *coords) -> Point:
        return Point(np.array(coords, dtype=float), self.chart_id)


@dataclass(frozen=True)
class MetricAtPoint:
    """Metric, inverse and determinant evaluated at one point (or, in a
    batch of points, stacked along a leading row axis)."""

    g_lower: np.ndarray
    g_upper: np.ndarray
    det_g: float


@dataclass(frozen=True)
class CurvatureBundle:
    """Christoffel symbols and curvature tensors at one point (or on rows,
    each with a leading row axis and the scalar an array).

    ``christoffel`` is Gamma^s_{ab} indexed [s, a, b] and ``dchristoffel``
    its d_mu, [mu, s, a, b]; ``riemann_lower`` is the lowered R_{r s mu nu}.
    """

    christoffel: np.ndarray
    dchristoffel: np.ndarray
    riemann_lower: np.ndarray
    ricci: np.ndarray
    scalar: float
    einstein: np.ndarray


def _singular(g: np.ndarray, det) -> np.ndarray:
    """Per metric: |det g| at most 1e-14 of prod_a max_b |g_ab|, which
    bounds |det g| up to a factor 16 (Hadamard's inequality) and is
    prod |g_aa| for a diagonal metric, so that rescaling the metric or
    one coordinate of a diagonal metric leaves the test unchanged."""
    return np.abs(det) <= 1e-14 * np.abs(g).max(axis=-1).prod(axis=-1)


def as_rows(coords) -> np.ndarray:
    """An (n, 4) array of chart coordinates as floats: ``coords`` itself
    where it is one, so a caller that keeps the rows copies them."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 4:
        raise ValueError(f"rows must have shape (n, 4), got {coords.shape}")
    return coords


@dataclass(frozen=True, eq=False)
class MetricJet:
    """The metric of a spec and its derivatives at one point (``coords`` of
    shape (4,)) or on (n, 4) rows: one guard call checks every row, and
    one call per order evaluates it on every row, on first use, for
    everything built on the jet.  ``spin_frame.Frame`` is the jet of a row
    set."""

    spec: MetricSpec
    coords: np.ndarray
    _orders: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _rows(self) -> np.ndarray:
        """The coordinates as (n, 4) rows, all guarded in one call."""
        rows = self.coords.reshape(-1, 4)
        inside = np.asarray(self.spec.domain_guard(rows))
        if not inside.all():
            raise OutOfDomain(
                f"point {np.array2string(rows[np.argmin(inside)], precision=6)}"
                f" is outside the domain of metric '{self.spec.name}'"
            )
        return rows

    def order(self, k: int) -> np.ndarray:
        """g_ab (``k`` 0), d_mu g_ab (1) or d_mu d_nu g_ab (2), read-only."""
        if k not in self._orders:
            values = self.spec.component_fn(self._rows, k)
            self._orders[k] = read_only(
                values if self.coords.ndim == 2 else values[0])
        return self._orders[k]

    @cached_property
    def metric(self) -> MetricAtPoint:
        g = self.order(0)
        det = np.linalg.det(g)
        if _singular(g, det).any():
            raise SingularMetric(f"|det g| = {np.min(np.abs(det)):.3e} at "
                                 f"{self.coords.tolist()}")
        return MetricAtPoint(
            g_lower=g, g_upper=read_only(np.linalg.inv(g)),
            det_g=read_only(det) if det.ndim else float(det))


def metric_jet(spec: MetricSpec, x) -> MetricJet:
    """``x`` as a jet: a Point or (n, 4) rows wrapped, a jet as it is.  A
    Point whose ``chart_id`` is set and differs from the spec's is a
    ValueError naming both charts; a Point without one evaluates on any
    spec.  A preset's chart id is its name for every parameter value, so
    this catches a point of another chart, not of another parameter."""
    if isinstance(x, MetricJet):
        return x
    if isinstance(x, Point):
        if x.chart_id and x.chart_id != spec.chart_id:
            raise ValueError(f"a point of chart '{x.chart_id}' evaluated on "
                             f"chart '{spec.chart_id}'")
        return MetricJet(spec, x.coords)
    return MetricJet(spec, read_only(as_rows(x).copy()))


def eval_metric(spec: MetricSpec, x) -> MetricAtPoint:
    """Metric, inverse and determinant; guards the domain."""
    return metric_jet(spec, x).metric


def metric_derivatives(spec: MetricSpec, x, order: int = 1) -> np.ndarray:
    """The exact d_mu g_ab, indexed [mu, a, b] (``order`` 1), or
    d_mu d_nu g_ab, indexed [mu, nu, a, b] (``order`` 2)."""
    return metric_jet(spec, x).order(order)


def christoffel(spec: MetricSpec, x) -> np.ndarray:
    """Gamma^s_{ab}, indexed [s, a, b]."""
    jet = metric_jet(spec, x)
    dg = jet.order(1)
    # Gamma^s_ab = 1/2 g^{sr} (dg[a,r,b] + dg[b,r,a] - dg[r,a,b])
    return read_only(0.5 * np.einsum(
        "...sr,...arb->...sab", jet.metric.g_upper,
        dg + np.einsum("...arb->...bra", dg) - np.einsum("...arb->...rab", dg)
    ))


def curvature(spec: MetricSpec, x) -> CurvatureBundle:
    """Full curvature bundle from the exact first and second metric
    derivatives: with
    d_mu g^{sr} = -g^{sk} (d_mu g_kl) g^{lr},
    d_mu Gamma^s_ab = -g^{sk} d_mu g_kl Gamma^l_ab
    + 1/2 g^{sr} d_mu (d_a g_rb + d_b g_ra - d_r g_ab)."""
    jet = metric_jet(spec, x)
    m = jet.metric
    gam = christoffel(spec, jet)
    dg, ddg = jet.order(1), jet.order(2)
    dterms = (np.einsum("...marb->...mrab", ddg)
              + np.einsum("...mbra->...mrab", ddg)
              - ddg)  # [mu, r, a, b] = d_mu (d_a g_rb + d_b g_ra - d_r g_ab)
    # [mu, s, a, b] = d_mu Gamma^s_ab
    dgam = (0.5 * np.einsum("...sr,...mrab->...msab", m.g_upper, dterms)
            - contract("...msl,...lab->...msab",
                       contract("...sk,...mkl->...msl", m.g_upper, dg), gam))

    # R^r_{s mu nu}
    r_up = (
        np.einsum("...mrns->...rsmn", dgam)
        - np.einsum("...nrms->...rsmn", dgam)
        + np.einsum("...rml,...lns->...rsmn", gam, gam)
        - np.einsum("...rnl,...lms->...rsmn", gam, gam)
    )
    riemann_lower = np.einsum("...rl,...lsmn->...rsmn", m.g_lower, r_up)
    ricci = np.einsum("...lsln->...sn", r_up)
    scalar = np.einsum("...sn,...sn->...", m.g_upper, ricci)
    einstein = ricci - 0.5 * scalar[..., None, None] * m.g_lower
    return CurvatureBundle(
        christoffel=gam,
        dchristoffel=read_only(dgam),
        riemann_lower=read_only(riemann_lower),
        ricci=read_only(ricci),
        scalar=read_only(scalar) if scalar.ndim else float(scalar),
        einstein=read_only(einstein),
    )


def riemann_mixed(bundle: CurvatureBundle, m: MetricAtPoint) -> np.ndarray:
    """R^r_{s mu nu} from the stored lowered tensor."""
    return np.einsum("...rl,...lsmn->...rsmn", m.g_upper, bundle.riemann_lower)


def levi_civita(metric: MetricAtPoint):
    """The antisymmetric tensor at a point: (eps_upper, eps_lower).

    eps^{0123} = EPS_SIGN / sqrt(-g), eps_{0123} = -EPS_SIGN sqrt(-g);
    indices of either are raised/lowered consistently by the metric.  A
    metric stacked along a leading row axis gets one tensor per row.
    """
    det = np.asarray(metric.det_g, dtype=float)
    bad = (det >= 0) | _singular(metric.g_lower, det)
    if bad.any():
        raise SingularMetric(
            f"need a Lorentzian metric, det g = {det[bad].flat[0]:.3e}"
        )
    root = np.sqrt(-det)[..., None, None, None, None]
    eps_upper = EPS_SIGN / root * PERM4
    eps_lower = -EPS_SIGN * root * PERM4
    return eps_upper, eps_lower


def covariant_metric_derivative(spec: MetricSpec, x) -> np.ndarray:
    """nabla_mu g_ab, which must vanish; exposed for the compatibility
    check."""
    jet = metric_jet(spec, x)
    gam = christoffel(spec, jet)
    g = jet.metric.g_lower
    return (
        jet.order(1)
        - np.einsum("...lma,...lb->...mab", gam, g)
        - np.einsum("...lmb,...al->...mab", gam, g)
    )
