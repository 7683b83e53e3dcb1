"""Tour of the grid layer: transforms, calculus, weighted norms.

The cube [-L, L]^3 carries N samples per axis at cell midpoints, so plain
sums times h^3 are midpoint quadrature and the FFT sees the standard
periodic layout.
"""

import numpy as np

from stokeslab import (
    Field,
    Grid,
    divergence,
    gradient,
    integrate,
)
from stokeslab.corpus import random_smooth_field

grid = Grid(n=3, N=64, L=8.0)
print(f"grid: {grid}, spacing h = {grid.h}")

f = random_smooth_field(grid, seed=1)
sp = grid.spectral()          # the grid's real-FFT layer (half spectrum)
F = sp.forward(f.data)
print(f"Parseval check: physical {integrate(f, 2):.12f} vs spectral {sp.l2(F):.12f}")

# spectral calculus: div(grad) of a mode agrees with -|k|^2 times the mode
k = 2 * np.pi / (2 * grid.L)
mode = Field(grid, np.broadcast_to(np.sin(3 * k * grid.coords()[0]), grid.shape))
lap = divergence(gradient(mode))
print(f"div grad vs -|k|^2: max error {np.abs(lap.data + (3*k)**2 * mode.data).max():.2e}")

# weighted Lebesgue norms: the Gaussian has closed-form unweighted L^2 norm
gauss = Field(grid, np.exp(-grid.radius_sq()))
print(f"||exp(-|x|^2)||_L2 = {integrate(gauss, 2):.10f}  "
      f"(exact {(np.pi/2)**0.75:.10f})")
print(f"same norm with weight <x>^1: {integrate(gauss, 2, 1.0):.10f}")
