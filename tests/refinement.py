"""Fourier refinement of a grid field, for refinement studies in the tests."""

from scipy import fft

from stokeslab.grid import Field, Grid


def refine_field(f: Field, factor: int = 2) -> Field:
    """The same band-limited function sampled on a factor-times finer grid.

    Trigonometric interpolation, one grid axis at a time: the real
    half-spectrum along the axis is scaled by factor, its Nyquist bin is
    halved (the even-N bin splits into a +/- pair on the finer grid), and
    the inverse transform to factor * N samples pads it with zeros.  This is
    the Fourier resampling of refinement studies where coarse and fine runs
    must see one underlying function, and the plain refinement that the
    annulus field sampler's prefiltered one is checked against.
    """
    if factor < 2:
        raise ValueError(f"refinement factor must be >= 2, got {factor}")
    g = f.grid
    data = f.data
    for ax in range(data.ndim - g.n, data.ndim):
        hat = fft.rfft(data, axis=ax)
        hat *= factor
        hat[(slice(None),) * ax + (g.N // 2,)] *= 0.5
        data = fft.irfft(hat, n=factor * g.N, axis=ax)
    return Field(Grid(g.n, factor * g.N, g.L), data)
