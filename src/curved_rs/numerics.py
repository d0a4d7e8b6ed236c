"""Finite-difference stencils and the shared step policy.

Two step bases are used throughout the package:

* ``STEP_FIRST`` for first derivatives of closed-form quantities
  (field samplers, Dirac matrices); metric derivatives are exact.
* ``STEP_OUTER`` for derivatives of quantities that are themselves
  finite-difference built (residual fields, spin connections), and with
  Richardson for the inner derivatives of such nested chains.  The larger
  step keeps the inner-stencil noise from being amplified.

All stencils are 2nd-order central differences; Richardson extrapolation
(one halving) upgrades them to 4th order where requested.  ``stencil`` and
``differences`` serve every row-batched derivative; ``partial4`` one of a
function of one point.
"""

from __future__ import annotations

import numpy as np

from .errors import StencilTooCoarse

STEP_FIRST = 1e-5
STEP_OUTER = 1e-4


def nested_step(nested: bool):
    """(base step, richardson) of a derivative: ``(STEP_OUTER, True)`` when
    the derivative is itself differentiated again or differentiates a
    finite-difference built field (``nested``), else ``(STEP_FIRST,
    False)``."""
    return (STEP_OUTER, True) if nested else (STEP_FIRST, False)


#: human-readable id of the stencil policy, embedded in reports
STENCIL_POLICY = "central2(h1=1e-5,h2=1e-4,richardson=1)"


def fd_step(coord, base: float):
    """Per-coordinate step: ``base * max(1, |coord|)`` (elementwise on
    arrays)."""
    return base * np.maximum(1.0, np.abs(coord))


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` with writes disabled, for arrays shared by every caller."""
    a.setflags(write=False)
    return a


def partial4(f, coords, mu, h, richardson=False):
    """Central-difference d/dx^mu of an array-valued function of 4 coords."""

    def estimate(hh):
        xp = np.array(coords, dtype=float)
        xm = np.array(coords, dtype=float)
        xp[mu] += hh
        xm[mu] -= hh
        return (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * hh)

    if not richardson:
        return estimate(h)
    return (4.0 * estimate(h / 2.0) - estimate(h)) / 3.0


#: rows +e_mu then -e_mu; scaled by the steps they give the stencil offsets
_PLUS_MINUS_AXES = np.stack([np.eye(4), -np.eye(4)])


def stencil(coords: np.ndarray, base_step: float, levels: int):
    """Central stencils around each row of ``coords``: the centre, then
    x +- h e_mu for each step level (h, and h/2 with two levels).

    Returns the stencil points (n, 1 + 8 levels, 4) and the steps
    (n, levels, 4)."""
    h = fd_step(coords, base_step)
    steps = np.stack([h, h / 2][:levels], axis=1)
    offsets = steps[:, :, None, :, None] * _PLUS_MINUS_AXES
    offsets = offsets.reshape(len(coords), -1, 4)
    centre = np.zeros((len(coords), 1, 4))
    return coords[:, None, :] + np.concatenate([centre, offsets], axis=1), steps


def differences(values: np.ndarray, steps: np.ndarray, richardson: bool,
                stencil_budget: float = None):
    """Centre value [n, ...] and d_mu [n, mu, ...] from the values
    [n, 1 + 8 levels, ...] a function takes on ``stencil`` points;
    StencilTooCoarse when the step levels differ by over ``stencil_budget``."""
    n, levels = steps.shape[:2]
    value = values[:, 0]
    shape = value.shape[1:]
    pm = values[:, 1:].reshape((n, levels, 2, 4) + shape)
    d_levels = (pm[:, :, 0] - pm[:, :, 1]) / (2.0 * steps).reshape(
        steps.shape + (1,) * len(shape))
    if stencil_budget is not None:
        gaps = np.max(np.abs(d_levels[:, 0] - d_levels[:, 1]).reshape(n, 4, -1),
                      axis=2)
        over = np.argwhere(gaps > stencil_budget)
        if over.size:
            row, mu = over[0]
            raise StencilTooCoarse(
                f"Richardson levels differ by {gaps[row, mu]:.3e} along "
                f"x^{mu} (budget {stencil_budget:.3e})"
            )
    if richardson:
        return value, (4.0 * d_levels[:, 1] - d_levels[:, 0]) / 3.0
    return value, d_levels[:, 0]


def outer_derivative(values: np.ndarray, coords: np.ndarray,
                     stencil_budget: float = None):
    """(value, d_mu value) at row 0 of the outer-stencil rows ``coords``,
    from the values [rows, ...] a quantity takes on them (outer step,
    Richardson); both keep a leading axis of length 1."""
    points, steps = stencil(coords[:1], STEP_OUTER, 2)
    if not np.array_equal(points[0], coords):
        raise ValueError("the rows are not the outer stencil of their row 0")
    return differences(values[None], steps, True, stencil_budget)


def thread_count() -> int:
    """Worker count of the engine: always 1, every check runs serially."""
    return 1
