"""The exterior-domain toolkit at desk scale.

A right inverse of the divergence on the annulus D_R = {R < |x| < R+1}
with exact support containment, and the cut-off-plus-correction extension
turning a field solenoidal outside a ball into a globally solenoidal one
that agrees with the input far out.
"""

import numpy as np

from stokeslab import Grid, bogovskii_apply, curl, divergence_defect, solenoidal_extension
from stokeslab.exterior import annulus_dipole, shell_potential

R = 2.0
grid = Grid(3, 96, 8.0)

# divergence data: a dipole-type derivative of a radial bump, mean-zero
f = annulus_dipole(grid, R)

B = bogovskii_apply(f, R)
r = np.sqrt(grid.radius_sq())
outside = (r <= R) | (r >= R + 1.0)
print(f"div B = f relative error: {divergence_defect(B, f):.4f}")
print(f"samples outside closure(D_R) identically zero: "
      f"{bool(np.all(B.data[:, outside] == 0.0))}")

# solenoidal extension of a curl field living outside |x| = 1
R = 1.0
u0 = curl(shell_potential(grid, R))
v0, info = solenoidal_extension(u0, R)
far = r >= R + 3.0
print(f"\nextension: global divergence defect {info['div_v0_rel']:.4f}")
print(f"v0 == u0 beyond |x| = R+3: {bool(np.array_equal(v0.data[:, far], u0.data[:, far]))}")
