"""Finite-difference stencils and the shared step policy.

Two step bases are used throughout the package:

* ``STEP_FIRST`` for first derivatives of closed-form quantities
  (field samplers, Dirac matrices); metric derivatives are exact.
* ``STEP_OUTER`` for derivatives of quantities that are themselves
  finite-difference built (residual fields, spin connections), and with
  Richardson for the inner derivatives of such nested chains.  The larger
  step keeps the inner-stencil noise from being amplified.

All stencils are 2nd-order central differences; Richardson extrapolation
(one halving) upgrades them to 4th order where requested.
"""

from __future__ import annotations

import numpy as np

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
    """``a`` with writes disabled, for arrays a cache hands to every caller."""
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


def thread_count() -> int:
    """Worker count of the engine: always 1, every check runs serially."""
    return 1
