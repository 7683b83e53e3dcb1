"""Test references for the kernels that stream one component, one
quadrature node or one slab at a time.

Each formula here is the batched form the package used before its kernel
was rewritten to hold fewer full-grid temporaries.  The streamed kernels
keep every reduction in the same order, so the tests compare against these
with np.array_equal, not with a tolerance.  traced_peak is the memory
measure of the guards that keep the streaming from coming undone.  apply
is the spectral multiplier operator of the tests, input held through the
inverse transform, which the package's corpus field no longer does.
"""

import tracemalloc

import numpy as np
from scipy import fft

from stokeslab.grid import Field


def traced_peak(call, unit):
    """Peak traced memory of call(), in units of unit bytes.  A first call,
    untraced, builds the grid's cached arrays (wavenumbers, |x|^2)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / unit
    finally:
        tracemalloc.stop()


def apply(sp, data, mult):
    """Samples of the multiplier operator mult(xi) applied to data."""
    return sp.inverse(sp.forward(data) * mult)


def curl(grid, data):
    """The curl from the whole vector spectrum, all three components at once."""
    sp = grid.spectral()
    a, k = sp.forward(data), sp.k
    ch = np.stack([k[1] * a[2] - k[2] * a[1], k[2] * a[0] - k[0] * a[2],
                   k[0] * a[1] - k[1] * a[0]])
    return sp.inverse(1j * ch)


def divergence(grid, data):
    """The divergence from the whole vector spectrum."""
    sp = grid.spectral()
    return sp.inverse(sp.div(sp.forward(data)))


def power(sp, hat):
    """Parseval power per mode, the squares of every leading slice summed at once."""
    shape = hat.shape[-sp.n:]
    total = np.square(np.abs(hat)).reshape((-1,) + shape).sum(axis=0)
    return total * (sp._pw[:shape[-1]] * sp._scale)


def integrate(f, q, weight=None):
    """The weighted L^q norm with |f|^2 summed over the component axis at once."""
    terms = np.sum(f.data**2, axis=0) if f.is_vector else np.abs(f.data)
    terms **= 0.5 * q if f.is_vector else q
    if weight is not None and float(weight) != 0.0:
        terms *= (1.0 + f.grid.radius_sq()) ** (0.5 * (float(weight) * q))
    return float((np.sum(terms) * f.grid.cell_volume) ** (1.0 / q))


def ray_integral(sample_f, R, r, u, n_rad=24):
    """int_R^r f(rho u) rho^2 drho with every node's samples stacked, shape (3, n_rad, ...)."""
    t, w = (a.reshape((-1,) + (1,) * (u.ndim - 1))
            for a in np.polynomial.legendre.leggauss(n_rad))
    half = 0.5 * (r - R)
    rho = R + half * (t + 1.0)
    return np.sum(w * rho**2 * sample_f(rho * u[:, None]), axis=0) * half


def spline_refinement(data, window):
    """The prefiltered 2x refinement with each axis refined whole, then cut to window."""
    for ax in range(3):
        N = data.shape[ax]
        gain = 6.0 / (2.0 + np.cos(np.pi * np.arange(N // 2 + 1) / N))
        gain[N // 2] *= 0.5
        hat = fft.rfft(data, axis=ax)
        hat *= gain.reshape((-1,) + (1,) * (2 - ax))
        data = fft.irfft(hat, n=2 * N, axis=ax)[(slice(None),) * ax + (window,)]
    return data


def convolve_even(grid, data, kernel):
    """The 2N-lattice convolution with the whole padded spectrum and the whole
    mirrored kernel spectrum (the block's DCT-I indexed by min(m, 2N - m))."""
    n, N = grid.n, grid.N
    mirror = np.concatenate([np.arange(N + 1), np.arange(N - 1, 0, -1)])
    spectrum = fft.dctn(kernel, type=1)[np.ix_(*([mirror] * (n - 1)), np.arange(N + 1))]
    hat = fft.rfft(data, n=2 * N, axis=-1)
    for ax in range(-2, -n - 1, -1):
        hat = fft.fft(hat, n=2 * N, axis=ax)
    hat *= spectrum
    for ax in range(-n, -1):
        hat = fft.ifft(hat, axis=ax, overwrite_x=True)[
            (Ellipsis, slice(0, N)) + (slice(None),) * (-1 - ax)]
    return np.ascontiguousarray(fft.irfft(hat, n=2 * N, axis=-1)[..., :N])


def random_smooth_field(grid, seed, components=1, k0=1.5):
    """The corpus field with every profile, envelope and low-pass step a new array."""
    rng = np.random.default_rng(seed)
    sp = grid.spectral()
    profile = np.exp(-sp.ksq / (2.0 * k0**2))
    envelope = np.exp(-grid.radius_sq() / (grid.L / 5.5) ** 2)
    idx_sq = sum(i**2 for i in sp.index)
    lowpass = np.exp(-((np.sqrt(idx_sq) / (0.4 * grid.N)) ** 16))
    shape = grid.shape if components == 1 else (components,) + grid.shape
    smooth = apply(sp, rng.standard_normal(shape), profile)
    data = apply(sp, smooth * envelope, lowpass)
    scale = integrate(Field(grid, data), 2)
    return data / scale if scale > 0 else data
