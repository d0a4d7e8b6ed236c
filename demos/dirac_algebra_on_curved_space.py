#!/usr/bin/env python3
"""Position-dependent Dirac matrices on a black-hole background.

Builds the tetrad and the matrices gamma^al(x) at a Schwarzschild point and
checks, numerically, the algebra they must satisfy there: the Clifford
relation with the inverse metric, the contraction gamma^al gamma_al = 4,
the sigma-matrix split, the triple-product expansion with the volume
tensor, and the covariant constancy of gamma^al(x) under the bispinor
connection.
"""

import numpy as np

from curved_rs import spacetimes
from curved_rs.geometry import christoffel
from curved_rs.numerics import partial4
from curved_rs.spin_frame import gamma_set_at, spin_connection

spec = spacetimes.load_preset("schwarzschild", M=1.0)
x = spec.point(0.0, 4.0, 1.2, 0.7)
gs = gamma_set_at(spec, x)
g_up = gs.metric.g_upper

print(f"point: r = {x.coords[1]}, theta = {x.coords[2]}")
print(f"tetrad e^(0)_0 = {gs.tetrad.e_lower[0, 0]:.6f} (= sqrt(1 - 2M/r))")
print()

anti = np.einsum("aij,bjk->abik", gs.gamma_up, gs.gamma_up)
anti = anti + anti.transpose(1, 0, 2, 3)
target = 2.0 * np.einsum("ab,ij->abij", g_up, np.eye(4))
print(f"|gamma gamma + gamma gamma - 2 g^ab|  = {np.max(np.abs(anti - target)):.2e}")

tr = np.einsum("aij,ajk->ik", gs.gamma_up, gs.gamma_down)
print(f"|gamma^al gamma_al - 4 I|             = {np.max(np.abs(tr - 4 * np.eye(4))):.2e}")

prod = np.einsum("aij,bjk->abik", gs.gamma_up, gs.gamma_up)
split = np.einsum("ab,ij->abij", g_up, np.eye(4)) + 2 * gs.sigma_curved
print(f"|gamma gamma - g - 2 sigma|           = {np.max(np.abs(prod - split)):.2e}")

worst = 0.0
for a in range(4):
    for b in range(4):
        for r in range(4):
            lhs = gs.gamma_up[a] @ gs.gamma_up[b] @ gs.gamma_up[r]
            rhs = (gs.gamma_up[a] * g_up[b, r] - gs.gamma_up[b] * g_up[a, r]
                   + gs.gamma_up[r] * g_up[a, b]
                   + 1j * gs.gamma5 @ np.einsum(
                       "s,sij->ij", gs.eps_upper[a, b, r], gs.gamma_down))
            worst = max(worst, np.max(np.abs(lhs - rhs)))
print(f"triple-product expansion (volume term included)   = {worst:.2e}")

# covariant constancy: d gamma + Christoffel term + [connection, gamma] = 0
gam = christoffel(spec, x)
G = spin_connection(spec, x)


# d[s, r] = d_s gamma^r, from the Dirac matrices of the 8 shifted points
d = partial4(lambda rows: gamma_set_at(spec, rows).gamma_up, x.coords)
worst = 0.0
for s in range(4):
    for r in range(4):
        val = (d[s, r] + np.einsum("l,lij->ij", gam[r, s, :], gs.gamma_up)
               + G[s] @ gs.gamma_up[r] - gs.gamma_up[r] @ G[s])
        worst = max(worst, np.max(np.abs(val)))
print(f"covariant constancy of gamma^al(x)    = {worst:.2e}")
print()
print("connection matrices Gamma_t and Gamma_r (4x4 complex):")
with np.printoptions(precision=4, suppress=True):
    print(G[0])
    print(G[1])
