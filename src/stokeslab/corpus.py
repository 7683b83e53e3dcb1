"""Seeded corpora of smooth, rapidly decaying fields for property sweeps.

All randomness flows through numpy's default PCG64 generator seeded
explicitly, so a (seed, grid) pair pins every corpus field bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid, integrate

PRNG_ID = "numpy.random.default_rng (PCG64)"


def random_smooth_field(
    grid: Grid,
    seed: int,
    components: int = 1,
    k0: float = 1.5,
) -> Field:
    """Band-limited random field under a Gaussian spatial envelope.

    White noise is filtered with the spectral profile exp(-|xi|^2/(2 k0^2)),
    multiplied by exp(-|x|^2/sigma^2) with sigma = L/5.5, pushed through a
    steep low-pass below the Nyquist plane, and scaled to unit L^2 norm.
    Boundary samples sit around 1e-5 of the peak; weighted norms are stable
    under domain doubling to ~1e-8 relative.
    """
    rng = np.random.default_rng(seed)
    sp = grid.spectral()
    shape = grid.shape if components == 1 else (components,) + grid.shape
    # each factor is built in place and each array dropped after its last
    # use; a / (-b) and -a / b are the same float, so the bits are kept
    profile = sp.ksq / (-2.0 * k0**2)
    np.exp(profile, out=profile)
    envelope = grid.radius_sq() / -((grid.L / 5.5) ** 2)
    np.exp(envelope, out=envelope)
    # steep low-pass applied after enveloping: the envelope product regrows
    # Nyquist-plane content where real-FFT derivative identities degrade
    lowpass = sum(i**2 for i in sp.index)
    np.sqrt(lowpass, out=lowpass)
    lowpass /= 0.4 * grid.N
    lowpass **= 16
    np.exp(np.negative(lowpass, out=lowpass), out=lowpass)
    # each transform's input is dropped before its product and its inverse
    hat = sp.forward(rng.standard_normal(shape))
    hat *= profile
    del profile
    data = sp.inverse(hat)
    del hat
    data *= envelope
    del envelope
    hat = sp.forward(data)
    del data
    hat *= lowpass
    del lowpass
    data = sp.inverse(hat)
    del hat
    f = Field(grid, data)
    scale = integrate(f, 2)
    if scale > 0:
        data /= scale
    return f


def corpus_seeds(base_seed: int, size: int):
    """Child seeds derived from one base seed, reproducibly."""
    return [int(s) for s in np.random.SeedSequence(base_seed).generate_state(size)]

