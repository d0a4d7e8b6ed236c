"""The one finite-difference step, and shared array helpers.

Metric derivatives, the fields' jets and the connection's derivatives are
exact, so one quantity is still differenced: the Dirac matrices that 1.4
builds apart from the frame.  ``partial4`` takes that d/dx^mu by a
2nd-order central difference at the step ``fd_step(x, STEP_FIRST)`` =
``max(1e-5, 1e-5 |x|)``, on one point or on (n, 4) rows with one step per
row.

``PAIRWISE`` is the contraction path of a two-operand ``einsum`` over a
frame's rows: numpy then runs it as one batched matmul on BLAS instead of
a nested loop over every index.
"""

from __future__ import annotations

import numpy as np

STEP_FIRST = 1e-5

#: human-readable id of the step policy, embedded in reports
STENCIL_POLICY = "central2(h=1e-5)"

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


def partial4(f, coords, mu):
    """Central-difference d/dx^mu at ``fd_step(x^mu, STEP_FIRST)`` of an
    array-valued function of 4 coords, at one point, or on (n, 4) rows with
    one step per row: ``f`` then takes the shifted rows and returns one
    value per row."""
    coords = np.asarray(coords, dtype=float)
    h = fd_step(coords[..., mu], STEP_FIRST)
    xp = coords.copy()
    xm = coords.copy()
    xp[..., mu] += h
    xm[..., mu] -= h
    diff = np.asarray(f(xp)) - np.asarray(f(xm))
    step = 2.0 * np.asarray(h)
    return diff / step.reshape(step.shape + (1,) * (diff.ndim - step.ndim))


def thread_count() -> int:
    """Worker count of the engine: always 1, every check runs serially."""
    return 1
