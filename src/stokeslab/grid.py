"""Periodic truncation of R^n with spectral calculus and weighted quadrature.

All fields live on a uniform grid over the cube [-L, L]^n with N samples
per axis.  Sample points sit at x_i = -L + i*h (h = 2L/N), i.e. at the
midpoints of a shifted cell partition, so a plain sum times h^n realizes
the midpoint rule and the cube center 0 is a sample point.  The frequency
set per axis is {2*pi*k/(2L) : k = -N/2, ..., N/2 - 1}.

All spectral work goes through one layer per grid, Grid.spectral(): scipy.fft
real transforms over the last n axes, batched over leading axes (components,
time nodes), in the rfftn half-spectrum layout.  It builds broadcastable
wavenumbers k and |xi|^2 (ksq) on first use.  It provides forward/inverse
(inverse consumes its input), project (Leray), power (Parseval) and its
root l2, grad/div coefficients and gradient_magnitude.

The layer owns the 2/3 rule.  The band is every mode with all |frequency
index| < N/3, a box of c = ceil(N/3) nonnegative indices per axis; band()
cuts it out of a half spectrum, from_band() zero-fills it back, and
band_k / band_ksq hold its wavenumbers.  forward_band and inverse_band are
the transform pair on the band, pruned: along each full axis the complex
pass runs only over the lines that hold or feed band data (Markel 1971).
Every convolution kernel is even, held as its first-octant block on the
offsets {0..K}^n (Grid.offset_sq).  Its real spectrum is even too, and
even_spectrum gives it the same way, as a block (a DCT-I); times_even
multiplies by it through mirrored views of that block.  convolve_even
convolves on the doubled 2N lattice (K = N), and it streams: the rfft and
the final irfft run one slab of the first axis at a time, and between them
each plane of the half axis takes its complex passes, its product and its
inverse passes on its own, so no array holds the 2N-lattice spectrum or the
mirrored kernel spectrum.  Every line is still transformed whole, in the
batched axis order, with the one product, so the output is bit for bit that
of the batched passes.

This module is the package's one import site of scipy.fft, and it imports
it on the first transform, inside fft_backend(): a process that never
transforms (the closed-form weight commands) never loads it.  fft_backend()
hands the backend to the spectral layer, to the one-axis transforms of the
annulus field sampler, the sphere solver and the periodic resolvent, and to
the CLI's --threads workers context.

Nyquist policy: the frequency index N/2 has no conjugate partner on an
even grid.  First-derivative multipliers i xi_j vanish on the Nyquist plane
of axis j (the layer's k_j is zero there), which is what the real part of
a complex transform gives.  |xi|^2 keeps its true value there, so the
Laplacian and the heat multiplier act on those planes.  The projection
drops every Nyquist plane and the zero mode, which keeps it an exact
idempotent with divergence-free output on rough data; band-limited fields
are unaffected.
"""

from __future__ import annotations

import functools
import itertools
import os
import struct

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "Spectral",
    "gradient",
    "gradient_magnitude",
    "divergence",
    "curl",
    "integrate",
    "save_field",
    "load_field",
]


class Grid:
    """Uniform periodic grid on [-L, L]^n.

    Parameters
    ----------
    n : spatial dimension, >= 3 (compute path exercised at n = 3)
    N : even number of samples per axis, >= 8
    L : half-extent of the cube, > 0, such that the cell volume h^n,
        h = 2L/N, is a normal (not subnormal) positive finite float
    """

    def __init__(self, n: int = 3, N: int = 64, L: float = 16.0):
        n, N, L = int(n), int(N), float(L)
        if n < 3:
            raise ValueError(f"dimension n must be >= 3, got {n}")
        if N < 8 or N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {N}")
        if not 0 < L < np.inf:
            raise ValueError(f"L must be positive and finite, got {L}")
        self.n = n
        self.N = N
        self.L = L
        self.h = 2.0 * L / N
        try:
            self.cell_volume = self.h**n
        except OverflowError:
            self.cell_volume = np.inf
        if not np.finfo(float).tiny <= self.cell_volume < np.inf:
            raise ValueError(f"cell volume h^n = ({self.h:g})^{n} at L = {L:g}, N = {N} "
                             f"is not a normal positive finite float")
        self.axis = -L + self.h * np.arange(N)
        self._coords = None
        self._r_sq = None
        self._spectral = None

    @property
    def shape(self):
        return (self.N,) * self.n

    def coords(self):
        """Coordinates per axis as broadcastable arrays, like Spectral.k: axis j
        has shape N along dimension j and 1 along the others."""
        if self._coords is None:
            self._coords = np.meshgrid(*([self.axis] * self.n), indexing="ij", sparse=True)
        return self._coords

    def spectral(self) -> "Spectral":
        """The grid's spectral layer, built on first use."""
        if self._spectral is None:
            self._spectral = Spectral(self)
        return self._spectral

    def radius_sq(self):
        """|x|^2 measured from the cube center."""
        if self._r_sq is None:
            self._r_sq = sum(xi**2 for xi in self.coords())
        return self._r_sq

    def offset_sq(self, K: int):
        """|h d|^2 over the first-octant offsets d in {0..K}^n, no wrap."""
        off = self.h * np.arange(K + 1)
        return sum(o**2 for o in np.meshgrid(*([off] * self.n), indexing="ij", sparse=True))

    def __repr__(self):
        return f"Grid(n={self.n}, N={self.N}, L={self.L})"


class Spectral:
    """Batched real-FFT calculus on one grid (see the module docstring).

    Coefficient arrays have shape (...,) + self.shape; vector operations
    take the component axis right before the n grid axes.
    """

    def __init__(self, grid: Grid):
        n, N = grid.n, grid.N
        self.grid = grid
        self.n = n
        self.axes = tuple(range(-n, 0))
        self.shape = (N,) * (n - 1) + (N // 2 + 1,)
        tail = (slice(None),) * n
        self._comp = [(Ellipsis, j) + tail for j in range(n)]
        self._nyquist = [(Ellipsis, N // 2) + (slice(None),) * (n - 1 - j)
                         for j in range(n)]
        self._zero = (Ellipsis,) + (0,) * n

    # wavenumber arrays are built on first use, so a layer that only
    # transforms (fractional_integral's convolve_even) never holds them

    def _xi(self, zero_nyquist=False, band=False):
        """Angular frequencies per axis as broadcastable arrays, the half axis last;
        on the band's lines only if band."""
        N, h, fft = self.grid.N, self.grid.h, fft_backend()
        full, half = 2.0 * np.pi * fft.fftfreq(N, d=h), 2.0 * np.pi * fft.rfftfreq(N, d=h)
        if zero_nyquist:
            full[N // 2] = half[-1] = 0.0
        if band:
            c, pieces = self._band_pieces
            full, half = np.concatenate([full[s] for _, s in pieces]), half[:c]
        return np.meshgrid(*([full] * (self.n - 1)), half, indexing="ij", sparse=True)

    @functools.cached_property
    def ksq(self):
        """|xi|^2, broadcastable like the coefficient arrays."""
        return sum(x**2 for x in self._xi())

    @functools.cached_property
    def _ksq_safe(self):
        return np.where(self.ksq == 0.0, 1.0, self.ksq)

    @functools.cached_property
    def k(self):
        """Derivative wavenumbers per axis: zero at index N/2 (the Nyquist policy)."""
        return self._xi(zero_nyquist=True)

    @functools.cached_property
    def index(self):
        """|frequency index| per axis, broadcastable like k."""
        N, fft = self.grid.N, fft_backend()
        full, half = np.abs(fft.fftfreq(N) * N), fft.rfftfreq(N) * N
        return np.meshgrid(*([full] * (self.n - 1)), half, indexing="ij", sparse=True)

    @functools.cached_property
    def _pw(self):
        """Parseval weights of the half axis: interior modes stand for two."""
        pw = np.full(self.grid.N // 2 + 1, 2.0)
        pw[0] = pw[-1] = 1.0
        return pw

    @functools.cached_property
    def _scale(self):
        """Physical measure of one squared coefficient, h^n / N^n."""
        g = self.grid
        return g.cell_volume / g.N**g.n

    def forward(self, data):
        """rfftn over the grid axes, batched over leading axes."""
        return fft_backend().rfftn(data, axes=self.axes)

    def inverse(self, hat):
        """irfftn back to real samples on the grid, bit for bit; consumes hat:
        the complex passes run in its buffer (scipy's multi-axis irfftn
        copies it first), then the half axis's irfft and one 1/N^n multiply."""
        fft = fft_backend()
        hat = fft.ifftn(hat, axes=self.axes[:-1], norm="forward", overwrite_x=True)
        out = fft.irfft(hat, n=self.grid.N, axis=-1, norm="forward")
        out *= 1.0 / self.grid.N**self.n
        return out

    def grad(self, hat):
        """Coefficients of the gradient, derivative axis first."""
        out = np.empty((self.n,) + hat.shape, dtype=complex)
        for j, kj in enumerate(self.k):
            np.multiply(hat, 1j * kj, out=out[j])
        return out

    def _dot(self, hat):
        acc = self.k[0] * hat[self._comp[0]]
        for j in range(1, self.n):
            acc += self.k[j] * hat[self._comp[j]]
        return acc

    def div(self, hat):
        """Coefficients of the divergence of a vector field."""
        return 1j * self._dot(hat)

    def project(self, hat):
        """Leray projection I - xi xi^T/|xi|^2 in place; zero mode and
        Nyquist planes are dropped."""
        dot = self._dot(hat)
        dot /= self._ksq_safe
        for kj, c in zip(self.k, self._comp):
            hat[c] -= kj * dot
        for plane in self._nyquist:
            hat[plane] = 0.0
        hat[self._zero] = 0.0
        return hat

    def l2(self, hat) -> float:
        """Physical L^2 norm from half-spectrum coefficients (Parseval)."""
        return float(np.sqrt(np.sum(self.power(hat))))

    def power(self, hat):
        """Parseval power per mode of a half spectrum or of its band, summed
        over leading axes, one at a time: its total is the squared physical
        L^2 norm.  hat may also be an iterable of spectra, such as one
        component's transform at a time.  The band keeps the first indices
        of the half axis, so it takes the first Parseval weights."""
        if isinstance(hat, np.ndarray):
            hat = hat.reshape((-1,) + hat.shape[-self.n:])
        total = None
        for part in hat:
            sq = np.abs(part)
            np.square(sq, out=sq)
            if total is None:
                total = sq
            else:
                total += sq
        return total * (self._pw[:total.shape[-1]] * self._scale)

    def gradient_magnitude(self, hat):
        """Pointwise |grad u| (Frobenius norm for vectors), one derivative axis
        at a time, so only that axis's derivatives are held; the squares are
        summed in the order of a batched Jacobian (derivative axis, then
        component)."""
        acc = 0.0
        for kj in self.k:
            d = self.inverse(hat * (1j * kj))
            np.square(d, out=d)
            for row in d.reshape((-1,) + self.grid.shape):
                acc += row
        return np.sqrt(acc, out=acc)

    # -- the 2/3 band ------------------------------------------------------

    @functools.cached_property
    def _band_pieces(self):
        """c = ceil(N/3), the count of indices 0 <= k < N/3, and the two pieces
        of a full axis in the band: (band slice, half-spectrum slice) of the
        indices 0..c-1 and of -(c-1)..-1."""
        N = self.grid.N
        c = (N + 2) // 3
        return c, ((slice(0, c), slice(0, c)), (slice(c, None), slice(N - c + 1, None)))

    def _band_boxes(self):
        """(band index, half-spectrum index) of each of the band's 2^(n-1) boxes."""
        c, pieces = self._band_pieces
        for combo in itertools.product(pieces, repeat=self.n - 1):
            yield ((Ellipsis,) + tuple(b for b, _ in combo) + (slice(None),),
                   (Ellipsis,) + tuple(h for _, h in combo) + (slice(0, c),))

    def band(self, hat):
        """The 2/3 band of half-spectrum coefficients, leading axes kept: per
        axis the indices 0..c-1, then -(c-1)..-1 on the full axes."""
        c = self._band_pieces[0]
        out = np.empty(hat.shape[:-self.n] + (2 * c - 1,) * (self.n - 1) + (c,),
                       dtype=complex)
        for b, h in self._band_boxes():
            out[b] = hat[h]
        return out

    def from_band(self, band):
        """The half spectrum that equals band on the 2/3 band and is zero elsewhere."""
        hat = np.zeros(band.shape[:-self.n] + self.shape, dtype=complex)
        for b, h in self._band_boxes():
            hat[h] = band[b]
        return hat

    @functools.cached_property
    def band_k(self):
        """Wavenumbers per axis on the band (no Nyquist index lies in it)."""
        return self._xi(band=True)

    @functools.cached_property
    def band_ksq(self):
        """|xi|^2 on the band."""
        return sum(x**2 for x in self.band_k)

    def _band_pass(self, wide, ax, transform):
        """transform (fft or ifft) along axis ax, in place, over the lines of
        wide (the half axis cut to the band) whose indices on the full axes
        after ax lie in the band."""
        pieces = [h for _, h in self._band_pieces[1]]
        for lines in itertools.product(pieces, repeat=-2 - ax):
            transform(wide[(Ellipsis, slice(None)) + lines + (slice(None),)],
                      axis=ax, overwrite_x=True)

    def forward_band(self, data):
        """band(forward(data)), pruned: the rfft, then along each full axis
        from the last the complex pass over the lines the band reads."""
        fft = fft_backend()
        hat = fft.rfft(data, axis=-1)
        for ax in range(-2, -self.n - 1, -1):
            self._band_pass(hat[..., :self._band_pieces[0]], ax, fft.fft)
        return self.band(hat)

    def inverse_band(self, band):
        """inverse(from_band(band)), pruned: along each full axis from the
        first the complex pass over the lines that hold band data, then the
        irfft."""
        fft, hat = fft_backend(), self.from_band(band)
        for ax in range(-self.n, -1):
            self._band_pass(hat[..., :self._band_pieces[0]], ax, fft.ifft)
        return fft.irfft(hat, n=self.grid.N, axis=-1)

    # -- even kernels ------------------------------------------------------

    def even_spectrum(self, block):
        """The real spectrum of the even extension of a {0..K}^n block onto the
        2K lattice, as its first-octant block: the block's DCT-I (Martucci
        1994), the spectrum at the frequency indices {0..K}^n.  The spectrum
        is even as well; times_even multiplies by the whole of it."""
        return fft_backend().dctn(block, type=1)

    def times_even(self, hat, spectrum):
        """hat *= an even spectrum given by its first-octant block, in place.

        On each of the last spectrum.ndim axes, hat holds either the block's
        indices 0..K or the 2K of a full axis of the 2K lattice, where index m
        reads the block at min(m, 2K - m).  Each piece multiplies by a view of
        the block, so the mirrored spectrum is never built."""
        pieces = [[(slice(None), slice(None))] if size == width else
                  [(slice(0, width), slice(None)), (slice(width, None), slice(-2, 0, -1))]
                  for size, width in zip(hat.shape[-spectrum.ndim:], spectrum.shape)]
        for combo in itertools.product(*pieces):
            hat[(Ellipsis,) + tuple(h for h, _ in combo)] *= spectrum[tuple(b for _, b in combo)]
        return hat

    def convolve_even(self, data, kernel):
        """The linear (non-periodic) convolution out_i = sum_j K(i - j) data_j
        over i, j in [0, N)^n, for a kernel even in each offset component;
        kernel holds K at the offsets {0..N}^n.

        The sum is the circular convolution on the 2N lattice of the
        zero-padded data and the wrapped kernel: for i, j in [0, N) the index
        (i - j) mod 2N is never N, so K(N) is never read and the circular sum
        is the linear one exactly.  The wrapped kernel is the even extension of
        the block, whose 2N-point spectrum is even_spectrum(kernel).  The
        transforms run one axis at a time and are pruned (Markel 1971): on the
        way in over only the lines that hold data, on the way out keeping only
        the first N outputs of each axis, one slab or one plane of the half
        axis at a time (the module docstring states the rule).
        """
        n, N, fft = self.n, self.grid.N, fft_backend()
        if kernel.shape != (N + 1,) * n:
            raise ValueError(f"kernel block shape {kernel.shape} is not the "
                             f"{(N + 1,) * n} of the offsets {{0..{N}}}^{n}")
        hat = np.empty(data.shape[:-1] + (N + 1,), dtype=complex)
        for row, line in zip(hat, data):  # the rfft one slab at a time
            row[...] = fft.rfft(line, n=2 * N, axis=-1)
        spectrum = self.even_spectrum(kernel)
        for m in range(N + 1):            # one plane of the half axis at a time
            plane = hat[..., m]
            for ax in range(-1, -n, -1):
                plane = fft.fft(plane, n=2 * N, axis=ax)
            self.times_even(plane, spectrum[..., m])
            for ax in range(1 - n, 0):    # in place, then a view of the first N outputs
                plane = fft.ifft(plane, axis=ax, overwrite_x=True)[
                    (Ellipsis, slice(0, N)) + (slice(None),) * (-1 - ax)]
            hat[..., m] = plane
        del spectrum
        out = np.empty(hat.shape[:-1] + (N,))
        for row, line in zip(out, hat):   # the irfft one slab at a time
            row[...] = fft.irfft(line, n=2 * N, axis=-1)[..., :N]
        return out


def fft_backend():
    """The transform backend, scipy.fft, imported on the first call: a process
    that never transforms never loads it.  This is the package's one import
    site of it: the spectral layer, the one-axis transforms outside it and
    the CLI's --threads workers context go through here."""
    from scipy import fft
    return fft


class Field:
    """Scalar or vector samples on a grid, components-first layout.

    data has shape grid.shape for a scalar field and (grid.n,) + grid.shape
    for a vector field.  Samples must be finite.
    """

    def __init__(self, grid: Grid, data):
        data = np.asarray(data, dtype=float)
        if data.shape == grid.shape:
            components = 1
        elif data.shape == (grid.n,) + grid.shape:
            components = grid.n
        else:
            raise ValueError(
                f"data shape {data.shape} does not match grid {grid.shape} "
                f"as scalar or {grid.n}-vector"
            )
        # every sample is finite exactly when the min and the max are (NaN
        # propagates through both); neither needs a full-size temporary
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise ValueError("field samples must be finite")
        self.grid = grid
        self.data = data
        self.components = components

    @property
    def is_vector(self) -> bool:
        return self.components > 1

    def magnitude(self):
        """Pointwise Euclidean magnitude (|f| for scalars)."""
        if self.is_vector:
            return np.sqrt(np.sum(self.data**2, axis=0))
        return np.abs(self.data)

    def __sub__(self, other):
        return Field(self.grid, self.data - other.data)

    def __repr__(self):
        kind = "vector" if self.is_vector else "scalar"
        return f"Field({kind}, {self.grid!r})"


def gradient(f: Field) -> Field:
    """Spectral gradient of a scalar field, multiplier i*xi."""
    if f.is_vector:
        raise ValueError("gradient expects a scalar field")
    sp = f.grid.spectral()
    return Field(f.grid, sp.inverse(sp.grad(sp.forward(f.data))))


def gradient_magnitude(f: Field) -> Field:
    """Pointwise |grad f|; for a vector field the Frobenius norm of its Jacobian."""
    sp = f.grid.spectral()
    return Field(f.grid, sp.gradient_magnitude(sp.forward(f.data)))


def divergence(v: Field) -> Field:
    """Spectral divergence of a vector field."""
    if not v.is_vector:
        raise ValueError("divergence expects a vector field")
    sp = v.grid.spectral()

    def term(j):
        hat = sp.forward(v.data[j])
        hat *= sp.k[j]
        return hat

    # k_j times one transformed component at a time, summed in place in the
    # order of Spectral.div, so no vector spectrum is held
    acc = term(0)
    for j in range(1, v.grid.n):
        acc += term(j)
    acc *= 1j
    return Field(v.grid, sp.inverse(acc))


def curl(v: Field) -> Field:
    """Spectral curl of a vector field at n = 3."""
    g = v.grid
    if g.n != 3 or not v.is_vector:
        raise ValueError("curl expects a vector field at n = 3")
    sp = g.spectral()
    k0, k1, k2 = sp.k

    def inverse(ch):
        ch *= 1j
        return sp.inverse(ch)

    # one output component at a time; each component's spectrum a_m is made
    # just before its first use and dropped after its last
    out = np.empty(v.data.shape)
    a1, a2 = sp.forward(v.data[1]), sp.forward(v.data[2])
    out[0] = inverse(k1 * a2 - k2 * a1)
    a0 = sp.forward(v.data[0])
    ch = k2 * a0 - k0 * a2
    del a2
    out[1] = inverse(ch)
    ch = k0 * a1 - k1 * a0
    del a0, a1
    out[2] = inverse(ch)
    return Field(g, out)


def integrate(f: Field, q: float, weight=None) -> float:
    """Weighted Lebesgue norm (sum |f|^q w^q h^n)^(1/q), finite q >= 1.

    weight is None (w = 1) or a finite exponent s (w = <x>^s, not evaluated
    at s = 0).  A weighted sum that overflows is a ValueError naming q and
    the weight exponent.
    """
    q = float(q)
    if not 1.0 <= q < np.inf:
        raise ValueError(f"Lebesgue index q must be finite and >= 1, got {q}")
    if weight is not None and not np.isfinite(weight):
        raise ValueError(f"weight exponent must be finite, got {weight}")
    # an overflow here is reported below, as a non-finite sum
    with np.errstate(over="ignore", invalid="ignore"):
        if f.is_vector:
            # |f|^2 summed one component at a time, in the order of a sum over axis 0
            terms = np.square(f.data[0])
            for comp in f.data[1:]:
                terms += np.square(comp)
            terms **= 0.5 * q
        else:
            terms = np.abs(f.data)
            terms **= q       # in place: one full-size temporary, not two
        if weight is not None and float(weight) != 0.0:
            w = 1.0 + f.grid.radius_sq()       # the weight in one full-size temporary
            w **= 0.5 * (float(weight) * q)
            terms *= w
        total = np.sum(terms) * f.grid.cell_volume
    if not np.isfinite(total):
        raise ValueError(f"the L^q norm at q = {q} with weight exponent {weight} "
                         f"overflows: its weighted sum is not finite")
    return float(total ** (1.0 / q))


# Flat binary field format: little-endian header (n, N int64, L float64,
# components int64) followed by row-major float64 samples.
_HEADER = struct.Struct("<qqdq")


def save_field(f: Field, path) -> None:
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(g.n, g.N, g.L, f.components))
        fh.write(np.ascontiguousarray(f.data, dtype="<f8"))     # the buffer, no bytes copy


def load_field(path) -> Field:
    """Read a field binary; the file length must match its header exactly."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"{path}: {size} bytes is shorter than the field header")
        n, N, L, components = _HEADER.unpack(fh.read(_HEADER.size))
        data_bytes = size - _HEADER.size
        # checked before N**n or a Grid is built: N >= 8, so < log8(data_bytes) axes fit
        if not 0 < 3 * n <= data_bytes.bit_length():
            raise ValueError(f"{path}: {data_bytes} data bytes cannot hold n = {n} axes")
        if components not in (1, n):
            raise ValueError(f"{path}: header gives {components} components at n = {n}")
        count = components * N**n
        if data_bytes != 8 * count:
            raise ValueError(f"{path}: {data_bytes} data bytes, header (n={n}, N={N}, "
                             f"components={components}) needs {8 * count}")
        grid = Grid(n=n, N=N, L=L)
        shape = grid.shape if components == 1 else (components,) + grid.shape
        data = np.empty(shape, dtype="<f8")      # the samples are read straight into it
        if fh.readinto(data) != 8 * count:
            raise ValueError(f"{path}: file ended before its {8 * count} data bytes")
    return Field(grid, data)
