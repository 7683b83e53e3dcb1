"""Full-spectrum complex-FFT references, independent of the package's
real-transform spectral layer."""

import numpy as np


def wavenumbers(grid):
    """Full-layout meshgrid wavenumber arrays in FFT (wrapped) order."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)
    return np.meshgrid(*([k1] * grid.n), indexing="ij")


def curl(grid, A):
    """Curl of the n = 3 vector samples A by per-component complex transforms."""
    k = wavenumbers(grid)
    Ah = [np.fft.fftn(A[j]) for j in range(3)]
    return np.stack([
        np.fft.ifftn(1j * (k[1] * Ah[2] - k[2] * Ah[1])).real,
        np.fft.ifftn(1j * (k[2] * Ah[0] - k[0] * Ah[2])).real,
        np.fft.ifftn(1j * (k[0] * Ah[1] - k[1] * Ah[0])).real,
    ])


def dealias_mask(grid):
    """Full-layout 2/3-rule mask: every |frequency index| below N/3."""
    keep = np.abs(np.fft.fftfreq(grid.N) * grid.N) < grid.N / 3.0
    return np.logical_and.reduce(np.meshgrid(*([keep] * grid.n), indexing="ij"))


def leray(grid, vh):
    """Full-layout Leray projection of vector coefficients vh; the zero mode
    and every Nyquist plane are dropped."""
    k = wavenumbers(grid)
    ksq = sum(kk**2 for kk in k)
    dot = sum(kk * v for kk, v in zip(k, vh)) / np.where(ksq == 0.0, 1.0, ksq)
    out = np.stack([v - kk * dot for kk, v in zip(k, vh)])
    for j in range(grid.n):
        out[(slice(None),) * (j + 1) + (grid.N // 2,)] = 0.0
    out[(slice(None),) + (0,) * grid.n] = 0.0
    return out


def advection(grid, u, form="advective"):
    """Samples of -P(u . grad u) at n = 3, 2/3-rule de-aliased, by full complex
    transforms.  form="advective" sums u_j d_j u_i in physical space (one
    inverse transform per derivative, 9 in all); form="divergence" contracts
    the transformed products u_i u_j with i k_j."""
    k = wavenumbers(grid)
    if form == "advective":
        uh = [np.fft.fftn(u[i]) for i in range(3)]
        conv = [sum(u[j] * np.fft.ifftn(1j * k[j] * uh[i]).real for j in range(3))
                for i in range(3)]
        ch = np.stack([np.fft.fftn(c) for c in conv])
    else:
        ch = np.stack([sum(1j * k[j] * np.fft.fftn(u[i] * u[j]) for j in range(3))
                       for i in range(3)])
    return np.fft.ifftn(leray(grid, -ch * dealias_mask(grid)), axes=(1, 2, 3)).real
