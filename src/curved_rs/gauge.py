"""Gradient-type solutions of the massless equation and the
Einstein-tensor triviality criterion.

Substituting the gradient field Psi0_be = (nabla_be + Gamma_be) psi into
the transformed massless equation leaves a purely algebraic obstruction
proportional to the Einstein tensor contracted with gamma psi:

    residual_r = C0 * (R_rb - 1/2 R g_rb) gamma^b(x) psi(x).

C0 is a representation-independent constant, calibrated once by a fit at
one non-vacuum point and frozen below with a regression test.  Where the
Einstein tensor vanishes (flat space, Schwarzschild), gradient fields
solve the massless equation; where it does not (the dust preset), they
fail by exactly the predicted amount.  Functions at ``x`` take a Point,
(n, 4) coordinates or a Frame, like those of ``rs_operator``.
"""

from __future__ import annotations

import numpy as np

from .errors import FitDegenerate
from .fields import VECTOR_BISPINOR, FieldSampler
from .geometry import MetricSpec, Point
from .numerics import nested_step
from .rs_operator import centre_covariant, covariant_derivative
from .spin_frame import as_frame

#: frozen proportionality constant of the Einstein-tensor prediction
C0 = 0.5


def gradient_field(psi: FieldSampler, spec: MetricSpec, x: Point) -> np.ndarray:
    """Psi0_be = (d_be + Gamma_be) psi at ``x`` (psi is a coordinate scalar,
    so no Christoffel term appears)."""
    return covariant_derivative(psi, spec, x)


def gradient_sampler(psi: FieldSampler, spec: MetricSpec,
                     nested: bool = False) -> FieldSampler:
    """The gradient field as a sampler; ``at`` takes all its rows in one
    ``covariant_derivative`` call, on a Frame with the frame's geometry.

    ``nested=True`` selects the coarser inner step (with Richardson), which
    keeps inner roundoff from being amplified when the sampler feeds a
    second derivative.
    """
    base_step, richardson = nested_step(nested)

    def gradient(x):
        return covariant_derivative(psi, spec, x, base_step=base_step,
                                    richardson=richardson)

    return FieldSampler(gradient, VECTOR_BISPINOR,
                        name=f"gradient({psi.name})", batch=gradient)


def _eps_contraction(gs, d: np.ndarray) -> np.ndarray:
    """i gamma5 eps_r^{nu s mu}(x) gamma_mu(x) d[nu, s]."""
    eps_mixed = np.einsum("...rl,...lnsm->...rnsm", gs.metric.g_lower,
                          gs.eps_upper)
    return 1j * np.einsum(
        "ij,...rnsm,...mjk,...nsk->...ri", gs.gamma5, eps_mixed,
        gs.gamma_down, d
    )


def _massless(field: FieldSampler, spec: MetricSpec, x, outer: bool):
    """(massless residual, the D_nu Psi~_s it contracts); ``outer=True``
    samples the field on each row's outer-stencil frame, which a gradient
    field also takes its inner derivative on."""
    frame, single = as_frame(spec, x)
    if outer:
        d = np.stack([
            centre_covariant(field.at(frame.outer(i)), frame.outer(i),
                             field.kind)[1]
            for i in range(len(frame.coords))])
    else:
        d = covariant_derivative(field, spec, frame)
    res = _eps_contraction(frame.gammas, d)
    return (res[0], d[0]) if single else (res, d)


def massless_residual(field: FieldSampler, spec: MetricSpec, x,
                      outer: bool = False) -> np.ndarray:
    """i gamma5 eps_r^{nu s mu}(x) gamma_mu(x) [nabla_nu + Gamma_nu] Psi~_s.

    ``outer=True`` selects the coarser Richardson step policy for fields
    that are themselves finite-difference built (gradient fields).
    """
    return _massless(field, spec, x, outer)[0]


def gradient_residual(psi: FieldSampler, spec: MetricSpec, x):
    """(massless residual of the gradient field of psi, its scale), both
    from one outer derivative of the gradient field; the scale is the
    magnitude of the derivative entries feeding the residual, the
    yardstick against which 'the residual cancels' is measured (per row
    on rows)."""
    res, d = _massless(gradient_sampler(psi, spec, nested=True), spec, x,
                       True)
    scale = np.maximum(np.max(np.abs(d), axis=(-3, -2, -1)), 1e-300)
    return res, float(scale) if scale.ndim == 0 else scale


def einstein_prediction(psi: FieldSampler, spec: MetricSpec, x,
                        constant: complex = C0) -> np.ndarray:
    """constant * G_rb gamma^b(x) psi(x)."""
    frame, single = as_frame(spec, x)
    # psi point by point: a run on one point then repeats the prediction of
    # a run on many to the last bit, which a batched sampler need not do
    values = np.stack([psi(Point(c, frame.chart_id)) for c in frame.coords])
    out = constant * np.einsum(
        "xrb,xbij,xj->xri", frame.curvature.einstein, frame.gammas.gamma_up,
        values
    )
    return out[0] if single else out


def gauge_criterion(psi: FieldSampler, spec: MetricSpec, x):
    """(direct, predicted) residual pair.

    direct    = massless residual of the gradient field of psi;
    predicted = C0 * G_rb gamma^b(x) psi(x) with the frozen constant.
    Both vanish precisely where the Einstein tensor (contracted with
    gamma psi) does.
    """
    direct = massless_residual(gradient_sampler(psi, spec, nested=True),
                               spec, x, outer=True)
    return direct, einstein_prediction(psi, spec, x)


def fit_prediction_constant(psi: FieldSampler, spec: MetricSpec, x: Point
                            ) -> complex:
    """Least-squares fit of the constant in front of the Einstein-tensor
    prediction at one point; FitDegenerate if the point is vacuous."""
    direct = massless_residual(gradient_sampler(psi, spec, nested=True),
                               spec, x, outer=True)
    unit = einstein_prediction(psi, spec, x, constant=1.0)
    norm = float(np.sum(np.abs(unit) ** 2))
    if norm < 1e-16:
        raise FitDegenerate(
            "Einstein-tensor prediction vanishes at the fit point; "
            "pick a non-vacuum point with gamma psi != 0"
        )
    return complex(np.sum(direct * unit.conj()) / norm)


#: global sign between the raw double-eps contraction and its determinant
#: expansion in the single-tensor convention (frozen, regression-tested)
EPS_DET_SIGN = -1.0


def epsilon_contraction_check(spec: MetricSpec, x) -> dict:
    """Two routes to the double-eps curvature contraction.

    ``raw[r, t]``           = R_{ab ns} eps_r^{ns mu} eps^{abt}_mu;
    ``det_expanded[r, t]``  = the same with the eps product replaced by
                              its 3x3 Kronecker/metric determinant;
    ``einstein_combination`` = 4 G_r^t, what the contraction reduces to.

    With indices raised and lowered by one metric the raw contraction
    equals EPS_DET_SIGN times the determinant expansion.
    """
    frame, single = as_frame(spec, x)
    m, gs, bundle = frame.metric, frame.gammas, frame.curvature

    eps_first = np.einsum("xrl,xlnsm->xrnsm", m.g_lower, gs.eps_upper)
    eps_last = np.einsum("xabtl,xlm->xabtm", gs.eps_upper, m.g_lower)
    prod = np.einsum("xrnsm,xabtm->xrnsabt", eps_first, eps_last)
    raw = np.einsum("xabns,xrnsabt->xrt", bundle.riemann_lower, prod)

    g_up = m.g_upper
    delta = np.eye(4)
    det = (
        np.einsum("ar,xnb,xst->xrnsabt", delta, g_up, g_up)
        - np.einsum("ar,xnt,xsb->xrnsabt", delta, g_up, g_up)
        - np.einsum("br,xna,xst->xrnsabt", delta, g_up, g_up)
        + np.einsum("br,xnt,xsa->xrnsabt", delta, g_up, g_up)
        + np.einsum("tr,xna,xsb->xrnsabt", delta, g_up, g_up)
        - np.einsum("tr,xnb,xsa->xrnsabt", delta, g_up, g_up)
    )
    det_expanded = np.einsum("xabns,xrnsabt->xrt", bundle.riemann_lower, det)
    einstein_mixed = np.einsum("xrb,xbt->xrt", bundle.einstein, g_up)
    out = {"raw": raw, "det_expanded": det_expanded,
           "einstein_combination": 4.0 * einstein_mixed}
    return {**{k: v[0] if single else v for k, v in out.items()},
            "sign": EPS_DET_SIGN}
