"""Closed-form field samplers and the fixture catalog.

A sampler wraps a smooth map from chart points to a vector-bispinor
(a (4, 4) complex array indexed [vector, spinor]) or to a bispinor
(a (4,) complex array).  Fixture families are polynomial and trigonometric
fields with seeded coefficients; a fixed seed gives a bit-identical field.

A sampler is its jet: one callable ``jet(rows_or_frame, order)`` that
returns, on (n, 4) rows or a Frame's rows, the values and, up to ``order``
(at most 2), their d_mu and d_mu d_nu.  Values alone (``at``, and
``__call__`` on one Point) are its order 0, so they form no derivative.
The closed-form families (polynomials, trigonometric fields and plane
waves, and so the flat plane-wave solutions) differentiate their closed
form exactly (forward mode); the gradient field of ``gauge`` takes its
jet from psi's; the gamma-traceless field has values only.  Nothing here
takes a finite difference.

A ``FieldStack`` takes the jets of several samplers of one kind together:
its arrays carry a trailing fixture axis, (n, *shape, F), which the
operator layer carries through every contraction (``rs_operator``), so
that a check runs once over all of its fixtures.  A single sampler's
arrays are the case without that axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ETA, MetricSpec, Point
from .spin_frame import GAMMA_FLAT, Frame, build_frame

VECTOR_BISPINOR = "vector_bispinor"
BISPINOR = "bispinor"

_SHAPES = {VECTOR_BISPINOR: (4, 4), BISPINOR: (4,)}


def rows_of(coords) -> np.ndarray:
    """The (n, 4) chart coordinates of rows or of a Frame."""
    return coords.coords if isinstance(coords, Frame) else np.asarray(
        coords, dtype=float)


@dataclass
class FieldSampler:
    """A smooth field given by its jet; stateless.

    ``jet_fn(rows_or_frame, order)`` returns the tuple that ``jet`` checks
    and returns.  ``at(coords)`` takes an (n, 4) array of chart
    coordinates or a Frame and returns the (n, *shape) complex values,
    row i being the value at row i; ``__call__`` samples one Point.  Both
    are the jet's order 0.
    """

    jet_fn: Callable[..., tuple]
    kind: str
    name: str = "field"

    def __call__(self, x: Point) -> np.ndarray:
        return self.at(x.coords[None, :])[0]

    def at(self, coords) -> np.ndarray:
        return self.jet(coords, 0)[0]

    def jet(self, coords, order=1) -> tuple:
        """(value [n, *shape], d_mu value [n, 4, *shape], d_mu d_nu value
        [n, 4, 4, *shape]) up to ``order`` on what ``at`` takes."""
        if order not in (0, 1, 2):
            raise ValueError(f"jet order must be 0, 1 or 2, got {order}")
        out = tuple(np.asarray(a, dtype=complex)
                    for a in self.jet_fn(coords, order))
        n = len(rows_of(coords))
        for k, a in enumerate(out):
            self._check(a.shape, (n,) + (4,) * k + _SHAPES[self.kind])
        return out

    def _check(self, got, expected):
        if got != expected:
            raise ValueError(
                f"sampler '{self.name}' returned shape {got}, "
                f"expected {expected}"
            )


@dataclass(frozen=True)
class FieldStack:
    """Samplers of one kind sampled together.  ``jet`` takes what
    ``FieldSampler.jet`` takes and returns the (n, *shape, F) values and
    the (n, 4, *shape, F) and (n, 4, 4, *shape, F) derivatives of the F
    members, member k's at [..., k]: each member's ``jet`` is called once
    and written into preallocated arrays, so no member's arrays are held
    beside the stack."""

    members: tuple

    def __post_init__(self):
        if len({m.kind for m in self.members}) != 1:
            raise ValueError("a field stack needs samplers of one kind")

    @property
    def kind(self) -> str:
        return self.members[0].kind

    def jet(self, coords, order=1) -> tuple:
        n = len(rows_of(coords))
        shape = _SHAPES[self.kind] + (len(self.members),)
        out = tuple(np.empty((n,) + (4,) * k + shape, dtype=complex)
                    for k in range(order + 1))
        for k, member in enumerate(self.members):
            for stacked, a in zip(out, member.jet(coords, order), strict=True):
                stacked[..., k] = a
        return out


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


def polynomial_field(seed: int, kind: str = VECTOR_BISPINOR,
                     box=None) -> FieldSampler:
    """Quadratic polynomial field with seeded coefficients.

    Evaluated as the monomial basis [1, u, u (x) u] of the box-scaled
    coordinates u (width 21) times one coefficient matrix; the basis and
    its four d/du_mu, stacked, take one product for the jet, and the basis
    alone for the values.  d_mu d_nu is the constant
    2 c_{mu nu} / (h_mu h_nu) (quadratic coefficients c, half-widths h).
    """
    rng = np.random.default_rng(seed)
    center, half = _box_frame(box)
    base = _SHAPES[kind]
    width = int(np.prod(base))
    c0 = _complex_normal(rng, base).reshape(1, width)
    c1 = _complex_normal(rng, (4,) + base, 0.5).reshape(4, width)
    c2 = _complex_normal(rng, (4, 4) + base, 0.25)
    c2 = 0.5 * (c2 + np.swapaxes(c2, 0, 1))
    matrix = np.concatenate([c0, c1, c2.reshape(16, width)])
    dd = 2.0 * c2 / np.outer(half, half).reshape((4, 4) + (1,) * len(base))

    def jet(coords, order):
        u = (rows_of(coords) - center) / half
        n = len(u)
        # [x, 0] the basis, [x, 1 + mu] its d/du_mu
        terms = np.zeros((n, 5 if order else 1, len(matrix)))
        terms[:, 0, 0] = 1.0
        terms[:, 0, 1:5] = u
        terms[:, 0, 5:] = (u[:, :, None] * u[:, None, :]).reshape(n, 16)
        if not order:
            return ((terms[:, 0] @ matrix).reshape((n,) + base),)
        terms[:, 1:, 1:5] = np.eye(4)
        # d(u_a u_b)/du_mu = delta_mu_a u_b + u_a delta_mu_b
        du = np.eye(4)[:, :, None] * u[:, None, None, :]
        terms[:, 1:, 5:] = (du + du.swapaxes(-1, -2)).reshape(n, 4, 16)
        out = terms @ matrix
        return (out[:, 0].reshape((n,) + base),
                (out[:, 1:] / half[:, None]).reshape((n, 4) + base),
                np.broadcast_to(dd, (n,) + dd.shape))[:order + 1]

    return FieldSampler(jet, kind, f"poly2[{seed}]")


def trig_field(seed: int, kind: str = VECTOR_BISPINOR, box=None) -> FieldSampler:
    """Sine/cosine field; wavenumbers scaled to the sampling box."""
    rng = np.random.default_rng(seed)
    center, half = _box_frame(box)
    base = _SHAPES[kind]
    u1 = _complex_normal(rng, base)
    u2 = _complex_normal(rng, base)
    k1 = rng.uniform(0.3, 1.2, size=4) / half
    k2 = rng.uniform(0.3, 1.2, size=4) / half
    kk1, kk2 = np.outer(k1, k1), np.outer(k2, k2)

    def jet(coords, order):
        w = rows_of(coords) - center
        p1, p2 = w @ k1, w @ k2
        value = (np.multiply.outer(np.cos(p1), u1)
                 + np.multiply.outer(np.sin(p2), u2))
        if not order:
            return (value,)
        d = (np.multiply.outer(-np.sin(p1)[:, None] * k1, u1)
             + np.multiply.outer(np.cos(p2)[:, None] * k2, u2))
        # d_mu d_nu is -k k times each term
        dd = (np.multiply.outer(-np.cos(p1)[:, None, None] * kk1, u1)
              - np.multiply.outer(np.sin(p2)[:, None, None] * kk2, u2))
        return (value, d, dd)[:order + 1]

    return FieldSampler(jet, kind, f"trig[{seed}]")


def plane_wave(k, amplitude, kind: str = VECTOR_BISPINOR) -> FieldSampler:
    """amplitude * exp(i k_a x^a); ``k`` is the covector k_a."""
    k = np.asarray(k, dtype=float)
    amplitude = np.asarray(amplitude, dtype=complex)

    def jet(coords, order):
        phase = np.exp(1j * (rows_of(coords) @ k))
        out = [np.multiply.outer(phase, amplitude)]
        for _ in range(order):  # each d_mu multiplies by i k_mu
            out.append(np.multiply.outer(1j * k, out[-1]).swapaxes(0, 1))
        return tuple(out)

    return FieldSampler(jet, kind, "plane_wave")


def gamma_traceless_field(seed: int, spec: MetricSpec, box=None) -> FieldSampler:
    """A smooth vector-bispinor with gamma^be(x) Psi_be = 0 pointwise.

    Projects a seeded polynomial field with the Dirac matrices of the
    MetricSpec ``spec``: Psi_be = L_be - (1/4) gamma_be(x) gamma^s(x) L_s.
    It has values only: its jet raises ValueError beyond order 0.
    """
    raw = polynomial_field(seed, VECTOR_BISPINOR, box)
    name = f"traceless[{seed}]"

    def jet(rows, order):
        if order:
            raise ValueError(f"sampler '{name}' has values only, "
                             f"no jet of order {order}")
        coords = rows_of(rows)
        lam = raw.at(coords)
        # projected with its own Dirac matrices, never those of a caller's
        # frame, so that an operator checked on it is not checked by itself
        gs = build_frame(spec, coords).gammas
        trace = np.einsum("xsij,xsj->xi", gs.gamma_up, lam)
        return (lam - 0.25 * np.einsum("xbij,xj->xbi", gs.gamma_down, trace),)

    return FieldSampler(jet, VECTOR_BISPINOR, name)


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
