#!/usr/bin/env python3
"""The algebraic constraint on constant-curvature backgrounds.

Where R_ab = (R/4) g_ab, the algebraic constraint collapses to a single
scalar bracket multiplying gamma^r Psi_r:

    1/2 (R/12 - m^2)  [gamma^r Psi_r] = 0.

For generic mass this forces gamma^r Psi_r = 0; the bracket itself has a
real zero crossing only where the scalar curvature is positive -- the
anti-de Sitter preset in this package's conventions -- at m = sqrt(R/12).
The constraint and the bracket are evaluated over a frame of sample
points, one row per point.
"""

import numpy as np

from curved_rs import spacetimes
from curved_rs.fields import polynomial_field
from curved_rs.identity_suite import sample_points
from curved_rs.rs_operator import MassParam, constraint_two, einstein_space_factor
from curved_rs.spin_frame import build_frame

for name in ("de_sitter_static", "anti_de_sitter_static"):
    spec = spacetimes.load_preset(name, alpha=1.0)
    frame = build_frame(spec, [x.coords for x in sample_points(spec, 4, seed=4)])
    psi = polynomial_field(5, box=spec.sample_box).at(frame)
    phi = np.einsum("xrij,xrj->xi", frame.gammas.gamma_up, psi)

    print(f"\n=== {name} (alpha = 1), {len(frame.coords)} points ===")
    scalar = frame.curvature.scalar[0]
    print(f"scalar curvature R = {scalar:+.6f}")
    print(f"{'mass':>6} {'bracket':>14} {'|constraint - bracket*gammaPsi|':>32}")
    for m in (0.0, 0.5, 1.0, 1.5):
        mass = MassParam(m)
        factor = einstein_space_factor(frame, mass)
        c2 = constraint_two(frame, psi, mass)
        dev = float(np.max(np.abs(c2 - factor[:, None] * phi)))
        print(f"{m:>6.2f} {factor[0].real:>14.6f} {dev:>32.2e}")
    if scalar > 0:
        print(f"real zero crossing at m = sqrt(R/12) = {np.sqrt(scalar / 12):.8f}")
    else:
        print("no real zero crossing (R <= 0): the constraint forces "
              "gamma^r Psi_r = 0 at every mass")
