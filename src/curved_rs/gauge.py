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
fail by exactly the predicted amount.
"""

from __future__ import annotations

import numpy as np

from .errors import FitDegenerate
from .fields import VECTOR_BISPINOR, FieldSampler
from .geometry import MetricSpec, Point, curvature, eval_metric
from .numerics import nested_step
from .rs_operator import covariant_derivative
from .spin_frame import gamma_set_at

#: frozen proportionality constant of the Einstein-tensor prediction
C0 = 0.5


def gradient_field(psi: FieldSampler, spec: MetricSpec, x: Point) -> np.ndarray:
    """Psi0_be = (d_be + Gamma_be) psi at ``x`` (psi is a coordinate scalar,
    so no Christoffel term appears)."""
    return covariant_derivative(psi, spec, x)


def gradient_sampler(psi: FieldSampler, spec: MetricSpec,
                     nested: bool = False) -> FieldSampler:
    """The gradient field as a sampler; ``at`` takes all its rows in one
    ``covariant_derivative`` call.

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


def _eps_contraction(spec: MetricSpec, x: Point, d: np.ndarray) -> np.ndarray:
    """i gamma5 eps_r^{nu s mu}(x) gamma_mu(x) d[nu, s] at ``x``."""
    gs = gamma_set_at(spec, x)
    eps_mixed = np.einsum("rl,lnsm->rnsm", gs.metric.g_lower, gs.eps_upper)
    return 1j * np.einsum(
        "ij,rnsm,mjk,nsk->ri", gs.gamma5, eps_mixed, gs.gamma_down, d
    )


def massless_residual(field: FieldSampler, spec: MetricSpec, x: Point,
                      outer: bool = False) -> np.ndarray:
    """i gamma5 eps_r^{nu s mu}(x) gamma_mu(x) [nabla_nu + Gamma_nu] Psi~_s.

    ``outer=True`` selects the coarser Richardson step policy for fields
    that are themselves finite-difference built (gradient fields).
    """
    base_step, richardson = nested_step(outer)
    d = covariant_derivative(field, spec, x, base_step=base_step,
                             richardson=richardson)
    return _eps_contraction(spec, x, d)


def gradient_residual(psi: FieldSampler, spec: MetricSpec, x: Point):
    """(massless residual of the gradient field of psi, its scale), both
    from one outer derivative of the gradient field; the scale is the
    magnitude of the derivative entries feeding the residual, the
    yardstick against which 'the residual cancels' is measured."""
    base_step, richardson = nested_step(True)
    d = covariant_derivative(gradient_sampler(psi, spec, nested=True), spec,
                             x, base_step=base_step, richardson=richardson)
    return _eps_contraction(spec, x, d), max(float(np.max(np.abs(d))), 1e-300)


def einstein_prediction(psi: FieldSampler, spec: MetricSpec, x: Point,
                        constant: complex = C0) -> np.ndarray:
    """constant * G_rb gamma^b(x) psi(x)."""
    gs = gamma_set_at(spec, x)
    bundle = curvature(spec, x)
    return constant * np.einsum(
        "rb,bij,j->ri", bundle.einstein, gs.gamma_up, psi(x)
    )


def gauge_criterion(psi: FieldSampler, spec: MetricSpec, x: Point):
    """(direct, predicted) residual pair at ``x``.

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


def epsilon_contraction_check(spec: MetricSpec, x: Point) -> dict:
    """Two routes to the double-eps curvature contraction.

    ``raw[r, t]``           = R_{ab ns} eps_r^{ns mu} eps^{abt}_mu;
    ``det_expanded[r, t]``  = the same with the eps product replaced by
                              its 3x3 Kronecker/metric determinant;
    ``einstein_combination`` = 4 G_r^t, what the contraction reduces to.

    With indices raised and lowered by one metric the raw contraction
    equals EPS_DET_SIGN times the determinant expansion.
    """
    m = eval_metric(spec, x)
    gs = gamma_set_at(spec, x)
    bundle = curvature(spec, x)

    eps_first = np.einsum("rl,lnsm->rnsm", m.g_lower, gs.eps_upper)
    eps_last = np.einsum("abtl,lm->abtm", gs.eps_upper, m.g_lower)
    prod = np.einsum("rnsm,abtm->rnsabt", eps_first, eps_last)
    raw = np.einsum("abns,rnsabt->rt", bundle.riemann_lower, prod)

    g_up = m.g_upper
    delta = np.eye(4)
    det = (
        np.einsum("ar,nb,st->rnsabt", delta, g_up, g_up)
        - np.einsum("ar,nt,sb->rnsabt", delta, g_up, g_up)
        - np.einsum("br,na,st->rnsabt", delta, g_up, g_up)
        + np.einsum("br,nt,sa->rnsabt", delta, g_up, g_up)
        + np.einsum("tr,na,sb->rnsabt", delta, g_up, g_up)
        - np.einsum("tr,nb,sa->rnsabt", delta, g_up, g_up)
    )
    det_expanded = np.einsum("abns,rnsabt->rt", bundle.riemann_lower, det)
    einstein_mixed = np.einsum("rb,bt->rt", bundle.einstein, g_up)
    return {
        "raw": raw,
        "det_expanded": det_expanded,
        "einstein_combination": 4.0 * einstein_mixed,
        "sign": EPS_DET_SIGN,
    }
