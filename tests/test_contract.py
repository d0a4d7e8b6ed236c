"""``numerics.contract``: a two-operand contraction as one matmul, planned
once per (subscripts, ndim, ndim), equal to numpy's pairwise ``einsum``
to the bit."""

import numpy as np
import pytest

from curved_rs import numerics
from curved_rs.numerics import contract

PAIRWISE_PATH = ("einsum_path", (0, 1))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("subscripts, shape_a, shape_b", [
    # a trailing "..." that is empty, and that holds one axis
    ("xnij,xj...->xni...", (7, 4, 4, 4), (7, 4)),
    ("xnij,xj...->xni...", (7, 4, 4, 4), (7, 4, 5)),
    # a leading "..." in both operands, empty and of one axis
    ("...rlij,...lsjk->...rsik", (4, 4, 4, 4), (4, 4, 4, 4)),
    ("...rlij,...lsjk->...rsik", (3, 4, 4, 4, 4), (3, 4, 4, 4, 4)),
    # an operand without a row axis, first or second
    ("aij,xacj->xci", (4, 4, 4), (6, 4, 4, 4)),
    ("xaij,jk->xaik", (6, 4, 4, 4), (4, 4)),
    # one row, and no summed index left to fold
    ("xab,xb->xa", (1, 3, 3), (1, 3)),
    ("xmrij,xj...->xmri...", (2, 4, 4, 4, 4), (2, 4, 3)),
    # three summed indices and a rank-7 operand
    ("xabns,xrnsabt->xrt", (5, 4, 4, 4, 4), (5, 4, 4, 4, 4, 4, 4)),
])
def test_equals_the_pairwise_einsum(subscripts, shape_a, shape_b):
    rng = np.random.default_rng(5)
    a, b = _complex(rng, shape_a), _complex(rng, shape_b)
    out = contract(subscripts, a, b)
    expected = np.einsum(subscripts, a, b, optimize=PAIRWISE_PATH)
    assert out.shape == expected.shape
    assert np.array_equal(out, expected)
    plain = np.einsum(subscripts, a, b)
    assert np.max(np.abs(out - plain)) <= 1e-13 * np.max(np.abs(plain))


def test_plan_is_made_once_per_subscripts_and_ndims(monkeypatch):
    """A second call with operands of the same ndim, whatever their sizes,
    reuses the plan; another ndim makes a plan of its own."""
    made = []
    plan = numerics._plan

    def counting(*key):
        made.append(key)
        return plan(*key)

    monkeypatch.setattr(numerics, "_PLANS", {})
    monkeypatch.setattr(numerics, "_plan", counting)
    sub = "xnij,xj...->xni..."
    rng = np.random.default_rng(1)
    for rows, fixtures in ((3, 2), (8, 5), (1, 1)):
        contract(sub, _complex(rng, (rows, 4, 4, 4)),
                 _complex(rng, (rows, 4, fixtures)))
    contract(sub, _complex(rng, (3, 4, 4, 4)), _complex(rng, (3, 4)))
    assert made == [(sub, 4, 3), (sub, 4, 2)]
    assert all(isinstance(ix, int) for part in numerics._PLANS[(sub, 4, 3)]
               for ix in part)


@pytest.mark.parametrize("subscripts, shape_a, shape_b, message", [
    # j is summed, but only b carries it
    ("xa,xaj->x", (2, 3), (2, 3, 3),
     "every summed index must be in both operands"),
    ("xaa,xa->x", (2, 3, 3), (2, 3), "repeats an index"),
    ("xab,xb->xc", (2, 3, 3), (2, 3), "every output index in one"),
    ("xab,xb->xa", (2, 3), (2, 3), "does not match operands"),
])
def test_contractions_it_does_not_plan_raise(subscripts, shape_a, shape_b,
                                             message):
    with pytest.raises(ValueError, match=message):
        contract(subscripts, np.ones(shape_a), np.ones(shape_b))
