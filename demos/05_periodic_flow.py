"""Time-periodic flow as a fixed point of the history-integral map.

For a single forced mode with the advection switched off, the map has the
closed-form periodic response of a damped oscillator; with advection on
and a small amplitude, Picard iteration contracts geometrically and the
solution returns to itself after one period under an independent
exponential-integrator re-simulation.
"""

import math

import numpy as np

from stokeslab import (
    Grid,
    periodicity_check,
    picard_solve,
    random_solenoidal_force,
    single_mode_force,
    weighted_report,
)

grid = Grid(3, 32, 16.0)
T = 2.0 * math.pi

# linear oracle
force = single_mode_force(T)
sol = picard_solve(force, grid, M=32, tol=1e-10, max_iter=5, linear_only=True)
kappa = (math.pi / grid.L) ** 2
omega = 2 * math.pi / T
k1 = 2 * math.pi / (2 * grid.L)
x3 = grid.coords()[2]
worst = max(
    np.abs(sol.snapshots[m][0] - np.cos(k1 * x3)
           * (kappa * math.cos(omega * t) + omega * math.sin(omega * t))
           / (kappa**2 + omega**2)).max()
    for m, t in enumerate(sol.node_times)
)
print(f"linear single-mode run: node error vs closed form {worst:.2e}")

# nonlinear small-data fixed point
eps = 0.02
force = random_solenoidal_force(T, seed=42, amplitude=eps)
sol = picard_solve(force, grid, M=16, tol=1e-8, max_iter=20)
print(f"\nPicard: converged in {sol.iterations} iterations, "
      f"residual history {['%.1e' % r for r in sol.residual_history]}")

defect = periodicity_check(sol, steps=128)
print(f"one-period re-simulation defect: {defect:.2e}")

rep = weighted_report(sol, q1=2.0, q2=2.0, s=1.0)
print(f"weighted diagnostics: sup_t(|<x> u|_2 + |<x> grad u|_2) = "
      f"{rep['sup_u_norm']:.4f}, response ratio to |f|_s: {rep['ratio']:.4e}")
