"""Finite-difference stencils and the shared step policy.

Every finite difference takes one of two step policies, and callers choose
between them only through a ``nested`` switch:

* ``nested=False``: one level at ``STEP_FIRST``, for first derivatives of
  quantities without a closed-form jet (samplers without one, Dirac
  matrices); metric derivatives, the closed-form field families' jets and
  the connection's derivatives are exact.
* ``nested=True``: two levels, ``STEP_OUTER`` and its half, combined by
  Richardson, for both levels of the second-order jet of a sampler
  without a closed form; the larger step keeps the inner noise from being
  amplified.

All stencils are 2nd-order central differences; Richardson extrapolation
(one halving) upgrades them to 4th order.  ``stencil`` and
``differences`` serve every row-batched derivative that samples all its
stencil points in one call; ``differences`` extrapolates exactly when the
stencil has two levels.  ``stencil_jet`` is the one adapter that gives a
function of rows without a closed-form jet its (value, derivative) on
rows; it takes values with any trailing axes.  ``partial4`` takes one axis
of a function of one point, or of (n, 4) rows with one step per row.

``PAIRWISE`` is the contraction path of a two-operand ``einsum`` over a
frame's rows: numpy then runs it as one batched matmul on BLAS instead of
a nested loop over every index.
"""

from __future__ import annotations

import numpy as np

STEP_FIRST = 1e-5
STEP_OUTER = 1e-4


#: human-readable id of the stencil policy, embedded in reports
STENCIL_POLICY = "central2(h1=1e-5,h2=1e-4,richardson=1)"

#: ``einsum(..., optimize=PAIRWISE)`` contracts its two operands in one
#: batched matmul; at a single point it costs more than the plain loop
PAIRWISE = ("einsum_path", (0, 1))


def fd_step(coord, base: float):
    """Per-coordinate step: ``base * max(1, |coord|)`` (elementwise on
    arrays)."""
    return base * np.maximum(1.0, np.abs(coord))


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` with writes disabled, for arrays shared by every caller."""
    a.setflags(write=False)
    return a


def partial4(f, coords, mu, nested=False):
    """Central-difference d/dx^mu of an array-valued function of 4 coords,
    at one point, or on (n, 4) rows with one step per row: ``f`` then takes
    the shifted rows and returns one value per row; ``nested`` as for
    ``stencil``."""
    coords = np.asarray(coords, dtype=float)

    def estimate(hh):
        xp = coords.copy()
        xm = coords.copy()
        xp[..., mu] += hh
        xm[..., mu] -= hh
        diff = np.asarray(f(xp)) - np.asarray(f(xm))
        step = 2.0 * np.asarray(hh)
        return diff / step.reshape(step.shape + (1,) * (diff.ndim - step.ndim))

    h = fd_step(coords[..., mu], STEP_OUTER if nested else STEP_FIRST)
    if not nested:
        return estimate(h)
    return (4.0 * estimate(h / 2.0) - estimate(h)) / 3.0


#: rows +e_mu then -e_mu; scaled by the steps they give the stencil offsets
_PLUS_MINUS_AXES = np.stack([np.eye(4), -np.eye(4)])


def stencil(coords: np.ndarray, nested=False):
    """Central stencils around each row of ``coords``: the centre, then
    x +- h e_mu for each step level (h = ``fd_step(x, STEP_FIRST)``, or
    h = ``fd_step(x, STEP_OUTER)`` and h/2 when ``nested``).

    Returns the stencil points (n, 1 + 8 levels, 4) and the steps
    (n, levels, 4)."""
    h = fd_step(coords, STEP_OUTER if nested else STEP_FIRST)
    steps = np.stack([h, h / 2] if nested else [h], axis=1)
    offsets = steps[:, :, None, :, None] * _PLUS_MINUS_AXES
    offsets = offsets.reshape(len(coords), -1, 4)
    centre = np.zeros((len(coords), 1, 4))
    return coords[:, None, :] + np.concatenate([centre, offsets], axis=1), steps


def differences(values: np.ndarray, steps: np.ndarray):
    """Centre value [n, ...] and d_mu [n, mu, ...] from the values
    [n, 1 + 8 levels, ...] a function takes on ``stencil`` points,
    Richardson-extrapolated when the stencil has two levels."""
    n, levels = steps.shape[:2]
    value = values[:, 0]
    shape = value.shape[1:]
    pm = values[:, 1:].reshape((n, levels, 2, 4) + shape)
    d_levels = pm[:, :, 0] - pm[:, :, 1]
    d_levels /= (2.0 * steps).reshape(steps.shape + (1,) * len(shape))
    if levels == 2:
        return value, (4.0 * d_levels[:, 1] - d_levels[:, 0]) / 3.0
    return value, d_levels[:, 0]


def stencil_jet(f, coords: np.ndarray, nested=False):
    """(value [n, ...], d_mu value [n, mu, ...]) at the rows ``coords`` of
    a function ``f`` of (m, 4) rows, from one call of ``f`` on every row's
    ``stencil`` (``nested`` picks the step policy).  The value is a copy,
    so that a caller who keeps it does not keep the values of the whole
    stencil."""
    points, steps = stencil(coords, nested)
    values = f(points.reshape(-1, 4))
    value, d = differences(values.reshape(points.shape[:2] + values.shape[1:]),
                           steps)
    return value.copy(), d


def thread_count() -> int:
    """Worker count of the engine: always 1, every check runs serially."""
    return 1
