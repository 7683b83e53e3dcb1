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
