#!/usr/bin/env python3
"""Walk through the preset catalog and print what the curvature machinery
sees: Ricci tensor norm, scalar curvature, Einstein tensor norm, and the
measured curvature class at randomized points.

The vacuum presets come out Ricci-flat, the static constant-curvature
presets satisfy R_ab = (R/4) g_ab (scalar -12/alpha^2 for de Sitter and
+12/alpha^2 for anti-de Sitter in this package's sign convention), and the
dust universe has a genuinely nonzero Einstein tensor.
"""

import numpy as np

from curved_rs import spacetimes
from curved_rs.geometry import curvature
from curved_rs.identity_suite import classify_metric, sample_points
from curved_rs.spin_frame import build_frame

PRESETS = [
    ("minkowski_cartesian", {}),
    ("minkowski_spherical", {}),
    ("schwarzschild", {"M": 1.0}),
    ("de_sitter_static", {"alpha": 1.0}),
    ("anti_de_sitter_static", {"alpha": 1.0}),
    ("frw_dust", {"a0": 1.0}),
]

print(f"{'preset':<24} {'|Ricci|':>10} {'R':>10} {'|G|':>10} {'class':>12}")
print("-" * 72)
for name, params in PRESETS:
    spec = spacetimes.load_preset(name, **params)
    points = sample_points(spec, 6, seed=20)
    ricci = max(np.max(np.abs(curvature(spec, x).ricci)) for x in points)
    einstein = max(np.max(np.abs(curvature(spec, x).einstein)) for x in points)
    scalar = curvature(spec, points[0]).scalar
    met_class = classify_metric(build_frame(spec, [x.coords for x in points]))
    print(f"{name:<24} {ricci:>10.2e} {scalar:>10.3f} {einstein:>10.2e} "
          f"{met_class.describe():>12}")

print()
print("Schwarzschild exterior, radial profile of the Kretschmann scalar")
print("(the coordinate-invariant 48 M^2 / r^6):")
spec = spacetimes.load_preset("schwarzschild", M=1.0)
for r in (3.0, 4.0, 6.0, 9.0):
    x = spec.point(0.0, r, np.pi / 2, 0.0)
    b = curvature(spec, x)
    from curved_rs.geometry import eval_metric

    m = eval_metric(spec, x)
    up = np.einsum("aA,bB,cC,dD,ABCD->abcd", m.g_upper, m.g_upper,
                   m.g_upper, m.g_upper, b.riemann_lower)
    k = float(np.einsum("abcd,abcd->", b.riemann_lower, up))
    print(f"  r = {r:4.1f}:  K = {k:.8f}   (closed form {48 / r**6:.8f})")
