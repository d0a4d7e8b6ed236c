"""Gradient-type solutions of the massless equation and the
Einstein-tensor triviality criterion.

Substituting the gradient field Psi0_be = (nabla_be + Gamma_be) psi into
the transformed massless equation leaves a purely algebraic obstruction
proportional to the Einstein tensor contracted with gamma psi:

    residual_r = C0 * (R_rb - 1/2 R g_rb) gamma^b(x) psi(x).

C0 is a representation-independent constant, calibrated once by a
least-squares fit at one non-vacuum point (the fit is kept in the tests,
which refit it) and frozen below with a regression test.  Where the
Einstein tensor vanishes (flat space, Schwarzschild), gradient fields
solve the massless equation; where it does not (the dust preset), they
fail by exactly the predicted amount.  Functions that evaluate take a
Frame and, like those of ``rs_operator``, return one row per frame row
of the sides of an identity, not its error.
The gradient field is a sampler like any other, given by its jet alone:
D_nu psi with d_mu D_nu psi, from psi's second-order jet and the frame's
exact connection derivative, on a frame's own rows (raw rows, and the
one row of a Point, become a frame there, the one place in this module
where they do), and the massless residual takes D_mu of it there.  No
finite difference is taken.
"""

from __future__ import annotations

import numpy as np

from .fields import VECTOR_BISPINOR, FieldSampler
from .geometry import MetricSpec, Point
from .numerics import contract
from .rs_operator import covariant_derivative, covariant_rows
from .spin_frame import Frame, build_frame

#: frozen proportionality constant of the Einstein-tensor prediction
C0 = 0.5


def gradient_sampler(psi: FieldSampler, spec: MetricSpec) -> FieldSampler:
    """The gradient field as a sampler: its jet is ``covariant_derivative``
    of psi to one order more, on a Frame or on the frame it builds of raw
    rows, all rows in one call; it goes to first order."""

    def jet(rows, order):
        if order > 1:
            raise ValueError("a gradient field's jet goes to first order")
        frame = rows if isinstance(rows, Frame) else build_frame(spec, rows)
        out = covariant_derivative(psi, frame, order + 1)
        return out if order else (out,)

    return FieldSampler(jet, VECTOR_BISPINOR, name=f"gradient({psi.name})")


def _massless(field: FieldSampler, frame: Frame):
    """(massless residual, the D_nu Psi~_s it contracts)."""
    d, _ = covariant_rows(field, frame)
    # the closed-form blocks alpha~^nu = i gamma5 eps_r^{nu s mu} gamma_mu
    return contract("xnrsik,xnsk->xri", frame.gammas.eps_gamma, d), d


def massless_residual(field: FieldSampler, frame: Frame) -> np.ndarray:
    """i gamma5 eps_r^{nu s mu}(x) gamma_mu(x) [nabla_nu + Gamma_nu] Psi~_s
    on a frame's rows, from the field's first-order jet there: exact for
    a gradient field of a closed-form psi."""
    return _massless(field, frame)[0]


def gradient_residual(psi: FieldSampler, frame: Frame):
    """(massless residual of the gradient field of psi, the D_nu Psi~_s it
    contracts), both from one first-order jet of the gradient field."""
    return _massless(gradient_sampler(psi, frame.spec), frame)


def einstein_prediction(psi: FieldSampler, frame: Frame,
                        constant: complex = C0) -> np.ndarray:
    """constant * G_rb gamma^b(x) psi(x) on a frame's rows."""
    # psi point by point: the suite's one FieldSampler.__call__, which
    # perfbench traces as ``fields.sampler`` (``FieldSampler.at`` untraced)
    values = np.stack([psi(Point(c, frame.spec.chart_id)) for c in frame.coords])
    gamma_psi = contract("xbij,xj->xbi", frame.gammas.gamma_up, values)
    return constant * contract("xrb,xbi->xri", frame.curvature.einstein,
                               gamma_psi)


def gauge_criterion(psi: FieldSampler, frame: Frame):
    """(direct, predicted) residual pair on a frame's rows.

    direct    = massless residual of the gradient field of psi;
    predicted = C0 * G_rb gamma^b(x) psi(x) with the frozen constant.
    Both vanish precisely where the Einstein tensor (contracted with
    gamma psi) does.
    """
    direct = massless_residual(gradient_sampler(psi, frame.spec), frame)
    return direct, einstein_prediction(psi, frame)


#: global sign between the raw double-eps contraction and its determinant
#: expansion in the single-tensor convention (frozen, regression-tested)
EPS_DET_SIGN = -1.0

#: the 3x3 Kronecker/metric determinant that replaces eps_r^{ns mu}
#: eps^{abt}_mu, term by term: (sign, (R_{abns} contracted with the term's
#: Kronecker delta and its first g^{..}, that contracted with its second
#: g^{..})); the last two terms carry delta^t_r and contract to a number
#: per row
_DET_TERMS = (
    (1.0, ("xrbns,xnb->xrs", "xst,xrs->xrt")),  # delta^a_r g^{nb} g^{st}
    (-1.0, ("xrbns,xsb->xrn", "xnt,xrn->xrt")),  # delta^a_r g^{nt} g^{sb}
    (-1.0, ("xarns,xna->xrs", "xst,xrs->xrt")),  # delta^b_r g^{na} g^{st}
    (1.0, ("xarns,xsa->xrn", "xnt,xrn->xrt")),  # delta^b_r g^{nt} g^{sa}
    (1.0, ("xabns,xna->xbs", "xsb,xbs->x")),  # delta^t_r g^{na} g^{sb}
    (-1.0, ("xabns,xnb->xas", "xsa,xas->x")),  # delta^t_r g^{nb} g^{sa}
)


def epsilon_contraction_check(frame: Frame):
    """Three sides of the double-eps curvature contraction, per frame row:
    (raw, EPS_DET_SIGN * det_expanded, 4 G_r^t) with

    ``raw[r, t]``          = R_{ab ns} eps_r^{ns mu} eps^{abt}_mu;
    ``det_expanded[r, t]`` = the same with the eps product replaced by its
                             3x3 Kronecker/metric determinant, each term
                             contracted with R_{abns} on its own;
    4 G_r^t, what the contraction reduces to.

    With indices raised and lowered by one metric the three are equal.
    """
    m, gs, bundle = frame.metric, frame.gammas, frame.curvature

    eps_first = contract("xrl,xlnsm->xrnsm", m.g_lower, gs.eps_upper)
    eps_last = contract("xabtl,xlm->xabtm", gs.eps_upper, m.g_lower)
    prod = contract("xrnsm,xabtm->xrnsabt", eps_first, eps_last)
    raw = contract("xabns,xrnsabt->xrt", bundle.riemann_lower, prod)

    g_up = m.g_upper
    terms = [sign * contract(second, g_up,
                             contract(first, bundle.riemann_lower, g_up))
             for sign, (first, second) in _DET_TERMS]
    trace = terms[4] + terms[5]
    det_expanded = (terms[0] + terms[1] + terms[2] + terms[3]
                    + trace[:, None, None] * np.eye(4))
    einstein_mixed = contract("xrb,xbt->xrt", bundle.einstein, g_up)
    return raw, EPS_DET_SIGN * det_expanded, 4.0 * einstein_mixed
