"""The one finite-difference step, the one contraction path, and shared
array helpers.

Metric derivatives, the fields' jets and the connection's derivatives are
exact, so one quantity is still differenced: the Dirac matrices that 1.4
builds apart from the frame.  ``partial4`` takes d/dx^mu along all four
axes by a 2nd-order central difference at the step
``fd_step(x, STEP_FIRST)`` = ``max(1e-5, 1e-5 |x|)`` per coordinate, on
one point or on (n, 4) rows, from one call of the differenced function on
the 8 n shifted rows (4 axes x 2 signs per row).

``contract`` is the one path for a two-operand contraction over rows: one
``np.matmul`` on transposed and reshaped views of its operands, planned
once per (subscripts, ndim, ndim).  A contraction of three or more
operands is written as its pairwise steps.
"""

from __future__ import annotations

import math

import numpy as np

STEP_FIRST = 1e-5

#: human-readable id of the step policy, embedded in reports
STENCIL_POLICY = "central2(h=1e-5)"

#: ``contract``'s plans by (subscripts, a.ndim, b.ndim); each holds index
#: tuples only
_PLANS = {}


def fd_step(coord, base: float):
    """Per-coordinate step: ``base * max(1, |coord|)`` (elementwise on
    arrays)."""
    return base * np.maximum(1.0, np.abs(coord))


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` with writes disabled, for arrays shared by every caller."""
    a.setflags(write=False)
    return a


def partial4(f, coords):
    """Central-difference d/dx^mu along all four axes at
    ``fd_step(x, STEP_FIRST)``, at one point (4,) or on (n, 4) rows with
    one step per row and axis: ``d[..., mu, ...]``.  ``f`` is called once,
    on the 8 shifted rows of every row, stacked (row, sign, axis) with the
    + shifts first, and returns one value per shifted row."""
    coords = np.asarray(coords, dtype=float)
    rows = coords.reshape(-1, 4)
    h = fd_step(rows, STEP_FIRST)
    shifts = h[:, None, :] * np.eye(4)
    shifted = np.stack([rows[:, None] + shifts, rows[:, None] - shifts], 1)
    values = np.asarray(f(shifted.reshape(-1, 4)))
    values = values.reshape((len(rows), 2, 4) + values.shape[1:])
    step = (2.0 * h).reshape(h.shape + (1,) * (values.ndim - 3))
    d = (values[:, 0] - values[:, 1]) / step
    return d.reshape(coords.shape[:-1] + d.shape[1:])


def thread_count() -> int:
    """Worker count of the engine: always 1, every check runs serially."""
    return 1


def _plan(subscripts: str, ndim_a: int, ndim_b: int) -> tuple:
    """Axis permutations of b, a and the product, and the group lengths
    that fold them into one matmul (see ``contract``)."""
    inputs, out = subscripts.split("->")
    terms = inputs.split(",") + [out]
    # each "..." spelled out as digit labels, aligned to the right
    spans = [ndim - len(t) + 3 if "..." in t else 0
             for t, ndim in zip(terms, (ndim_a, ndim_b))]
    width = max(spans)
    ta, tb, out = (t.replace("...", "0123456789"[width - span:width])
                   for t, span in zip(terms, spans + [width]))
    if (len(ta), len(tb)) != (ndim_a, ndim_b):
        raise ValueError(f"'{subscripts}' does not match operands of "
                         f"{ndim_a} and {ndim_b} axes")
    if any(len(set(t)) < len(t) for t in (ta, tb, out)):
        raise ValueError(f"'{subscripts}' repeats an index within a term")
    if (set(ta) ^ set(tb)) - set(out) or set(out) - set(ta) - set(tb):
        raise ValueError(f"'{subscripts}': every summed index must be in "
                         "both operands and every output index in one")
    # numpy's roles: b's kept axes are the matmul rows, a's its columns
    batch = [ix for ix in tb if ix in ta and ix in out]
    summed = [ix for ix in tb if ix in ta and ix not in out]
    rows = [ix for ix in tb if ix not in ta]
    cols = [ix for ix in ta if ix not in tb]
    produced = batch + rows + cols
    return (tuple(map(tb.index, batch + rows + summed)),
            tuple(map(ta.index, batch + summed + cols)),
            (len(batch), len(rows), len(summed)),
            tuple(map(produced.index, out)))


def contract(subscripts: str, a, b) -> np.ndarray:
    """``np.einsum(subscripts, a, b)`` as one ``np.matmul``: b's axes
    transposed to (batch, kept, summed) and a's to (batch, summed, kept),
    each group folded into one axis, the product unfolded and transposed
    to the output.  These are the roles numpy's own pairwise path
    (``("einsum_path", (0, 1))``) gives the operands, so the result equals
    that ``np.einsum`` to the bit.  ``...`` stands for the same axes in every term, aligned to
    the right.  An index summed over must be in both operands, and no
    index may repeat within a term (else ValueError)."""
    key = (subscripts, np.ndim(a), np.ndim(b))
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _plan(*key)
    b_axes, a_axes, (n_batch, n_rows, n_summed), out_axes = plan
    left = np.transpose(b, b_axes)
    right = np.transpose(a, a_axes)
    lead = left.shape[:n_batch + n_rows]
    tail = right.shape[n_batch + n_summed:]
    batch = (math.prod(lead[:n_batch]),) if n_batch else ()
    summed = math.prod(left.shape[n_batch + n_rows:])
    ab = np.matmul(
        left.reshape(batch + (math.prod(lead[n_batch:]), summed)),
        right.reshape(batch + (summed, math.prod(tail))))
    return ab.reshape(lead + tail).transpose(out_axes)
