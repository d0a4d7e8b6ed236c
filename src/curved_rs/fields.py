"""Closed-form field samplers and the fixture catalog.

A sampler wraps a smooth map from chart points to a vector-bispinor
(a (4, 4) complex array indexed [vector, spinor]) or to a bispinor
(a (4,) complex array).  Fixture families are polynomial and trigonometric
fields with seeded coefficients; a fixed seed gives a bit-identical field.

A ``FieldStack`` samples several samplers of one kind together: its values
carry a trailing fixture axis, (n, *shape, F), which the operator layer
carries through every contraction (``rs_operator``), so that a check runs
once over all of its fixtures.  A single sampler's values are the case
without that axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import ETA, MetricSpec, Point
from .numerics import STEP_FIRST, fd_step
from .spin_frame import GAMMA_FLAT, Frame, build_frame

VECTOR_BISPINOR = "vector_bispinor"
BISPINOR = "bispinor"

_SHAPES = {VECTOR_BISPINOR: (4, 4), BISPINOR: (4,)}


@dataclass
class FieldSampler:
    """A smooth closed-form field; stateless.

    ``__call__`` samples one Point.  ``at(coords)`` samples many: it takes
    an (n, 4) array of chart coordinates or a Frame and returns the
    (n, *shape) complex values, row i being the value at row i.  Samplers
    with a vectorized ``batch`` (the closed-form families and the package's
    wrapped samplers: residual, first constraint, gradient, gamma-traceless)
    answer in one call and are handed a Frame as it is; the others call
    ``fn`` once per row, at Points carrying ``chart_id`` (or the frame's).
    Both paths check the returned shape.
    """

    fn: Callable[[Point], np.ndarray]
    kind: str
    name: str = "field"
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x: Point) -> np.ndarray:
        value = np.asarray(self.fn(x), dtype=complex)
        self._check(value.shape, _SHAPES[self.kind])
        return value

    def at(self, coords, chart_id: str = "") -> np.ndarray:
        if isinstance(coords, Frame):
            rows, chart_id = coords.coords, coords.chart_id
        else:
            rows = coords = np.asarray(coords, dtype=float)
        if self.batch is None:
            return np.stack([self(Point(c, chart_id)) for c in rows])
        values = np.asarray(self.batch(coords), dtype=complex)
        self._check(values.shape, (len(rows),) + _SHAPES[self.kind])
        return values

    def _check(self, got, expected):
        if got != expected:
            raise ValueError(
                f"sampler '{self.name}' returned shape {got}, "
                f"expected {expected}"
            )

    def shape(self):
        return _SHAPES[self.kind]


@dataclass(frozen=True)
class FieldStack:
    """Samplers of one kind sampled together.  ``at`` takes what
    ``FieldSampler.at`` takes and returns the (n, *shape, F) values of the F
    members, member k's at [..., k]: each member's ``at`` is called once
    and written into one preallocated array, so no member's values are held
    beside the stack."""

    members: tuple

    def __post_init__(self):
        if len({m.kind for m in self.members}) != 1:
            raise ValueError("a field stack needs samplers of one kind")

    @property
    def kind(self) -> str:
        return self.members[0].kind

    def at(self, coords, chart_id: str = "") -> np.ndarray:
        n = len(coords.coords if isinstance(coords, Frame) else coords)
        out = np.empty((n,) + _SHAPES[self.kind] + (len(self.members),),
                       dtype=complex)
        for k, member in enumerate(self.members):
            out[..., k] = member.at(coords, chart_id)
        return out


def _closed_form(batch, kind: str, name: str) -> FieldSampler:
    """A sampler whose single-point path is its batch on one row, and whose
    batch reads a frame's coordinates."""
    return FieldSampler(
        lambda x: batch(x.coords[None, :])[0], kind, name,
        lambda rows: batch(rows.coords if isinstance(rows, Frame) else rows))


def check_smoothness(sampler: FieldSampler, points, min_ratio: float = 3.0):
    """Second-order convergence probe: halving the step must shrink the
    difference between central-difference levels by roughly 4x.

    Returns the worst observed shrink ratio; raises ValueError if it drops
    below ``min_ratio`` (a sampler that is not C^2 at the probe points).
    """
    worst = np.inf
    for x in points:
        # roundoff of a difference quotient at step h is ~ eps |f| / h; a
        # gap below a multiple of it means the central difference is exact
        # (constant, linear or quadratic along x^mu)
        noise = 64 * np.finfo(float).eps * max(1.0, np.max(np.abs(sampler(x))))
        for mu in range(4):
            h = fd_step(x.coords[mu], 100 * STEP_FIRST)

            def diff(hh):
                return (
                    sampler(x.shifted(mu, hh)) - sampler(x.shifted(mu, -hh))
                ) / (2 * hh)

            d1, d2, d4 = diff(h), diff(h / 2), diff(h / 4)
            coarse = float(np.max(np.abs(d1 - d2)))
            fine = float(np.max(np.abs(d2 - d4)))
            if coarse < noise / h:
                continue
            ratio = coarse / max(fine, 1e-300)
            worst = min(worst, ratio)
    if worst < min_ratio:
        raise ValueError(
            f"sampler '{sampler.name}' does not converge at 2nd order "
            f"(shrink ratio {worst:.2f})"
        )
    return worst


def _box_frame(box):
    """Center and half-width per coordinate, for conditioning polynomials."""
    if box is None:
        return np.zeros(4), np.ones(4)
    box = np.asarray(box, dtype=float)
    center = 0.5 * (box[:, 0] + box[:, 1])
    half = np.maximum(0.5 * (box[:, 1] - box[:, 0]), 1e-6)
    return center, half


def _complex_normal(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def polynomial_field(seed: int, kind: str = VECTOR_BISPINOR, box=None,
                     degree: int = 2) -> FieldSampler:
    """Quadratic (by default) polynomial field with seeded coefficients.

    Evaluated as the monomial basis [1, u, u (x) u] of the box-scaled
    coordinates u (width 1, 5 or 21 by degree) times one coefficient matrix.
    """
    rng = np.random.default_rng(seed)
    center, half = _box_frame(box)
    base = _SHAPES[kind]
    width = int(np.prod(base))
    coeffs = [_complex_normal(rng, base).reshape(1, width)]
    if degree >= 1:
        coeffs.append(_complex_normal(rng, (4,) + base, 0.5).reshape(4, width))
    if degree >= 2:
        c2 = _complex_normal(rng, (4, 4) + base, 0.25)
        c2 = 0.5 * (c2 + np.swapaxes(c2, 0, 1))
        coeffs.append(c2.reshape(16, width))
    matrix = np.concatenate(coeffs)

    def batch(coords):
        u = (coords - center) / half
        terms = [np.ones((len(u), 1))]
        if degree >= 1:
            terms.append(u)
        if degree >= 2:
            terms.append((u[:, :, None] * u[:, None, :]).reshape(-1, 16))
        return (np.concatenate(terms, axis=1) @ matrix).reshape((-1,) + base)

    return _closed_form(batch, kind, f"poly{degree}[{seed}]")


def trig_field(seed: int, kind: str = VECTOR_BISPINOR, box=None) -> FieldSampler:
    """Sine/cosine field; wavenumbers scaled to the sampling box."""
    rng = np.random.default_rng(seed)
    center, half = _box_frame(box)
    base = _SHAPES[kind]
    u1 = _complex_normal(rng, base)
    u2 = _complex_normal(rng, base)
    k1 = rng.uniform(0.3, 1.2, size=4) / half
    k2 = rng.uniform(0.3, 1.2, size=4) / half

    def batch(coords):
        w = coords - center
        return (np.multiply.outer(np.cos(w @ k1), u1)
                + np.multiply.outer(np.sin(w @ k2), u2))

    return _closed_form(batch, kind, f"trig[{seed}]")


def constant_field(values, kind: str = VECTOR_BISPINOR) -> FieldSampler:
    values = np.asarray(values, dtype=complex)

    def batch(coords):
        return np.repeat(values[None], len(coords), axis=0)

    return _closed_form(batch, kind, "constant")


def plane_wave(k, amplitude, kind: str = VECTOR_BISPINOR) -> FieldSampler:
    """amplitude * exp(i k_a x^a); ``k`` is the covector k_a."""
    k = np.asarray(k, dtype=float)
    amplitude = np.asarray(amplitude, dtype=complex)

    def batch(coords):
        return np.multiply.outer(np.exp(1j * (coords @ k)), amplitude)

    return _closed_form(batch, kind, "plane_wave")


def gamma_traceless_field(seed: int, spec: MetricSpec, box=None) -> FieldSampler:
    """A smooth vector-bispinor with gamma^be(x) Psi_be = 0 pointwise.

    Projects a seeded polynomial field with the Dirac matrices of the
    MetricSpec ``spec``: Psi_be = L_be - (1/4) gamma_be(x) gamma^s(x) L_s.
    """
    raw = polynomial_field(seed, VECTOR_BISPINOR, box)

    def batch(rows):
        coords = rows.coords if isinstance(rows, Frame) else rows
        lam = raw.at(coords, spec.chart_id)
        # projected with its own Dirac matrices, never those of a caller's
        # frame, so that an operator checked on it is not checked by itself
        gs = build_frame(spec, coords).gammas
        trace = np.einsum("xsij,xsj->xi", gs.gamma_up, lam)
        return lam - 0.25 * np.einsum("xbij,xj->xbi", gs.gamma_down, trace)

    return _closed_form(batch, VECTOR_BISPINOR, f"traceless[{seed}]")


def fixture_family(seed: int, count: int, kind: str = VECTOR_BISPINOR,
                   box=None) -> list:
    """Deterministic list of smooth fixtures, alternating families."""
    out = []
    for i in range(count):
        sub = seed * 1000 + i
        if i % 2 == 0:
            out.append(polynomial_field(sub, kind, box))
        else:
            out.append(trig_field(sub, kind, box))
    return out


# ---------------------------------------------------------------------------
# flat-space plane-wave solutions
# ---------------------------------------------------------------------------


def _null_space(a: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Columns spanning ker(a), via SVD."""
    u, s, vh = np.linalg.svd(a)
    cutoff = rtol * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def flat_rs_plane_wave(mass: float, boost: float = 0.0) -> FieldSampler:
    """A plane-wave solution of the full flat-space system.

    Psi_c = A[c, i] exp(i k.x) with k on the mass shell
    (k = (omega, 0, 0, k3), omega^2 - k3^2 = mass^2) and the amplitude the
    sum of a basis of the null space of the stacked 24 x 16 system: the
    Dirac equation (i gamma k + kappa) A_c = 0 on each vector component,
    gamma^a A_a = 0 and k^a A_a = 0.  Every component then varies, along
    t and z.
    """
    omega = np.hypot(mass, boost)
    k = np.array([omega, 0.0, 0.0, boost])
    dirac = 1j * np.einsum("a,aij->ij", k, GAMMA_FLAT) + 1j * mass * np.eye(4)
    system = np.concatenate([
        np.kron(np.eye(4), dirac),            # rows (c, j): Dirac on A_c
        np.concatenate(GAMMA_FLAT, axis=1),   # rows j: gamma^a A_a
        np.kron(ETA @ k, np.eye(4)),          # rows i: k^a A_a
    ])
    ns = _null_space(system)
    if ns.shape[1] == 0:
        raise ValueError(f"no constrained plane wave for mass={mass}")
    return plane_wave(k, ns.sum(axis=1).reshape(4, 4), VECTOR_BISPINOR)
