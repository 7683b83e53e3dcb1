"""Exact point-wise spherical synthesis on scipy's harmonics, the reference
for the annulus solver's sphere stage.

scipy.special.sph_harm_y(l, m, theta, phi) is sph_legendre_p(l, m, theta)
e^(i m phi); the Legendre part depends on theta only, so it is evaluated
once per distinct theta, for every l and m at once.
"""

import numpy as np
from scipy.special import sph_legendre_p_all


def random_coef(rng, lmax):
    """coef[l, m], 0 <= m <= l, of a white random real expansion: zero for
    m > l and real at m = 0.  The -m terms are (-1)^m conj(coef[l, m])."""
    coef = rng.standard_normal((lmax + 1,) * 2) + 1j * rng.standard_normal((lmax + 1,) * 2)
    ell, m = np.indices(coef.shape)
    coef[m > ell] = 0.0
    coef[:, 0] = coef[:, 0].real
    return coef


def poisson_coef(coef):
    """The expansion of Phi with Laplace-Beltrami Phi = the expansion less
    its mean: coef[l, m] / (-l (l + 1)), the l = 0 term dropped."""
    ell = np.arange(len(coef))[:, None]
    return np.divide(coef, -ell * (ell + 1.0), out=np.zeros_like(coef), where=ell > 0)


def synth_at(coef, theta, phi):
    """A stack coef (K, lmax + 1, lmax + 1) of expansions and their surface
    gradients as Cartesian components at the points given by the flat arrays
    theta, phi: shapes (K, points) and (K, 3, points).  One Legendre table
    serves the stack.

    On the poles (theta exactly 0 or pi) (1/sin) d/dphi is its limit, with
    P_l^m / sin(theta) -> +-dP_l^m/dtheta (which is 0 unless m = 1).
    """
    lmax = coef.shape[-1] - 1
    rows, at = np.unique(theta, return_inverse=True)
    p, dp = (x[:, :lmax + 1] for x in sph_legendre_p_all(lmax, lmax, rows, diff_n=1))
    sin_t = np.sin(rows)
    north, south = rows == 0.0, rows == np.pi
    sin_t[north | south] = 1.0
    over_sin = p / sin_t
    over_sin[..., north], over_sin[..., south] = dp[..., north], -dp[..., south]
    m = np.arange(lmax + 1)
    w = np.where(m > 0, 2.0, 1.0) * coef           # the -m terms are the conjugates
    turn = np.exp(1j * m * phi[:, None])
    val, dth, dph = (np.sum(np.einsum("klm,lmu->kum", w * f, q)[:, at] * turn, axis=-1).real
                     for f, q in [(1.0, p), (1.0, dp), (1j * m, over_sin)])
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    return val, np.stack([ct * cp * dth - sp * dph, ct * sp * dth + cp * dph, -st * dth], axis=1)
