#!/usr/bin/env python3
"""Bring your own metric: the configuration-document route.

Writes the Schwarzschild exterior as a config document, parses it,
round-trips it through the canonical serializer, and cross-validates its
curvature against the schwarzschild preset, itself an embedded document
(both get exact metric derivatives from the expression language).  The
same spec object then drives the identity suite.
"""

import numpy as np

from curved_rs import spacetimes
from curved_rs.geometry import curvature
from curved_rs.identity_suite import run_suite, sample_points

DOCUMENT = """
# Schwarzschild exterior, M = 1
[coords]
names = t, r, theta, phi

[metric]
g00 = 1 - 2*M/r
g11 = -(1 - 2*M/r)^(-1)
g22 = -r^2
g33 = -r^2 * sin(theta)^2

[params]
M = 1.0

[domain]
r > 2*M + 0.001
theta > 0.001
theta < pi - 0.001

[sampling]
t = -1.0, 1.0
r = 3*M, 8*M
theta = 0.5, 2.6
phi = 0.3, 5.9
"""

cfg = spacetimes.parse_metric_config(DOCUMENT, name="schwarzschild_config")
print(f"parsed config, content hash {cfg.content_hash()}")
again = spacetimes.parse_metric_config(cfg.serialize())
print(f"serialize -> parse reproduces the ASTs: {again.components == cfg.components}")

spec_cfg = spacetimes.spec_from_config(cfg)
spec_pre = spacetimes.load_preset("schwarzschild", M=1.0)

print("\ncross-validation against the schwarzschild preset:")
worst = 0.0
for x in sample_points(spec_pre, 5, seed=6):
    xc = spec_cfg.point(*x.coords)
    b_cfg = curvature(spec_cfg, xc)
    b_pre = curvature(spec_pre, x)
    scale = np.max(np.abs(b_pre.riemann_lower))
    worst = max(worst, float(
        np.max(np.abs(b_cfg.riemann_lower - b_pre.riemann_lower)) / scale))
print(f"  max relative Riemann mismatch over 5 points: {worst:.2e}")

print("\nidentity suite on the config metric:")
report = run_suite(spec_cfg, n_points=5, seed=42)
for c in report.checks:
    mark = "pass" if c.passed else "FAIL"
    print(f"  {c.id:<36} {c.max_rel_error:10.2e}  {mark}")
print(f"overall: {'pass' if report.passed else 'FAIL'}")
