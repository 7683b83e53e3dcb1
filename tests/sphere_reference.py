"""Exact point-wise spherical synthesis, the reference for the annulus
solver's double Fourier grid."""

import numpy as np


def synth_at(sph, coef, theta, phi):
    """Evaluate a stack coef (K, lmax+1, lmax+1) of real expansions of the
    _SphereSolver sph at the points given by the flat arrays theta, phi.

    Returns (value, d/dtheta, (1/sin)d/dphi), each of shape (K, points); the
    m > 0 terms count twice, standing in for their -m partners.  One
    Legendre block of shape (lmax + 1 - m) x points per m, so the cost grows
    like lmax^2 x points.
    """
    mu, sin_t = np.cos(theta), np.sin(theta)
    K = coef.shape[0]
    val, dth, dph = np.zeros((3, K) + theta.shape)
    for m in range(sph.lmax + 1):
        G, dP = sph._legendre_block(m, mu, sin_t)
        ab = np.concatenate([coef[:, m, m:].real, coef[:, m, m:].imag])   # (2K, lmax+1-m)
        a, b = np.split(ab @ G, 2)
        da, db = np.split(ab @ dP, 2)
        w = 1.0 if m == 0 else 2.0
        c, s = w * np.cos(m * phi), w * np.sin(m * phi)
        val += (sin_t if m else 1.0) * (a * c - b * s)
        dth += da * c - db * s
        dph -= m * (a * s + b * c)
    return val, dth, dph
