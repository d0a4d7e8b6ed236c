#!/usr/bin/env python3
"""Gradient solutions of the massless equation: where they work and where
they fail.

For an arbitrary smooth bispinor psi, the gradient field
Psi0_be = (nabla_be + Gamma_be) psi is fed into the transformed massless
equation.  The residual is purely algebraic: C0 (R_rb - R/2 g_rb)
gamma^b psi.  On Ricci-flat backgrounds (here: Schwarzschild) it vanishes
to stencil precision -- the massless field has gauge freedom there.  On
the dust universe the Einstein tensor is nonzero and the residual matches
the prediction point by point.
"""

import numpy as np

from curved_rs import spacetimes
from curved_rs.fields import polynomial_field
from curved_rs.gauge import gauge_criterion, gradient_residual
from curved_rs.geometry import curvature
from curved_rs.identity_suite import sample_points

for name in ("schwarzschild", "frw_dust"):
    spec = spacetimes.load_preset(name)
    psi = polynomial_field(7, kind="bispinor", box=spec.sample_box)
    print(f"\n=== {name} ===")
    print(f"{'point':<28} {'|G|':>10} {'|residual|':>12} {'|predicted|':>12} "
          f"{'match':>10}")
    for x in sample_points(spec, 5, seed=3):
        direct, predicted = gauge_criterion(psi, spec, x)
        e_norm = float(np.max(np.abs(curvature(spec, x).einstein)))
        res = float(np.max(np.abs(direct)))
        pred = float(np.max(np.abs(predicted)))
        if pred > 1e-10:
            match = f"{np.max(np.abs(direct - predicted)) / pred:.2e}"
        else:
            match = "-"
        label = np.array2string(x.coords, precision=2, suppress_small=True)
        print(f"{label:<28} {e_norm:>10.2e} {res:>12.3e} {pred:>12.3e} "
              f"{match:>10}")
    if name == "schwarzschild":
        x = sample_points(spec, 1, seed=3)[0]
        print(f"(residuals above sit at ~1e-11 of the derivative scale "
              f"{gradient_residual(psi, spec, x)[1]:.2f})")

print("""
Verdict: gradient fields solve the massless equation exactly where the
Einstein tensor vanishes, and fail by the predicted algebraic amount where
it does not.""")
