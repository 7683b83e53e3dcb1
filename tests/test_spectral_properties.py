"""Property tests over random grids and seeds: the spectral layer's identities,
its pruned band transforms, even-kernel spectra and convolution, the periodic
solver's advection term and the field binary round trip."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from stokeslab.grid import (
    Field, Grid, divergence, gradient, integrate, load_field, save_field,
)
from stokeslab.periodic import _advection, _advection_table
from stokeslab.semigroup import decay_harness, leray_project

import fft_reference
from streamed_kernels import apply

# small grids keep the whole module near one second; derandomized so that a
# run is reproducible
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def grids(draw):
    n = draw(st.sampled_from([3, 4]))
    N = draw(st.sampled_from([8, 10, 12, 16] if n == 3 else [8, 10]))
    L = draw(st.floats(min_value=0.5, max_value=20.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return Grid(n, N, L), np.random.default_rng(seed)


def _band_limited(g, rng, components=None):
    shape = g.shape if components is None else (components,) + g.shape
    sp = g.spectral()
    return sp.inverse_band(sp.forward_band(rng.standard_normal(shape)))


@PROPERTY
@given(grids())
def test_project_idempotent_and_divergence_free(case):
    g, rng = case
    v = Field(g, rng.standard_normal((g.n,) + g.shape))
    pv = leray_project(v)
    ppv = leray_project(pv)
    scale = np.abs(pv.data).max()
    assert np.abs(ppv.data - pv.data).max() <= 1e-12 * scale
    kmax = np.sqrt(g.spectral().ksq.max())
    assert integrate(divergence(pv), 2) <= 1e-12 * kmax * integrate(pv, 2)


@PROPERTY
@given(grids())
def test_parseval_on_half_spectrum(case):
    g, rng = case
    f = Field(g, rng.standard_normal((g.n,) + g.shape))
    sp = g.spectral()
    assert abs(sp.l2(sp.forward(f.data)) / integrate(f, 2) - 1.0) <= 1e-12


@PROPERTY
@given(grids())
def test_transform_roundtrip(case):
    g, rng = case
    data = rng.standard_normal((2,) + g.shape)
    sp = g.spectral()
    assert np.abs(sp.inverse(sp.forward(data)) - data).max() <= 1e-12 * np.abs(data).max()


@PROPERTY
@given(grids())
def test_div_grad_is_laplacian_band_limited(case):
    g, rng = case
    f = Field(g, _band_limited(g, rng))
    sp = g.spectral()
    lhs = divergence(gradient(f)).data
    rhs = apply(sp, f.data, -sp.ksq)          # the Laplacian's multiplier
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


@PROPERTY
@given(grids(), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_heat_semigroup_law(case, a, b):
    g, rng = case
    f = _band_limited(g, rng, components=g.n)
    sp = g.spectral()
    lhs = apply(sp, f, np.exp(-(a + b) * sp.ksq))
    rhs = apply(sp, apply(sp, f, np.exp(-a * sp.ksq)), np.exp(-b * sp.ksq))
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(f).max()


@PROPERTY
@given(grids(), st.booleans())
def test_gradient_magnitude_matches_batched_formula(case, vector):
    # one derivative axis at a time adds the same squared rows in the same
    # order as one inverse transform of the whole Jacobian
    g, rng = case
    sp = g.spectral()
    hat = sp.forward(rng.standard_normal(((g.n,) if vector else ()) + g.shape))
    d = sp.inverse(sp.grad(hat))
    np.square(d, out=d)
    assert np.array_equal(sp.gradient_magnitude(hat),
                          np.sqrt(d.reshape((-1,) + g.shape).sum(axis=0)))


@PROPERTY
@given(grids(), st.booleans())
def test_field_binary_roundtrip(case, vector):
    g, rng = case
    f = Field(g, rng.standard_normal(((g.n,) if vector else ()) + g.shape))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.field")
        save_field(f, path)
        back = load_field(path)
    assert (back.grid.n, back.grid.N, back.grid.L) == (g.n, g.N, g.L)
    assert np.array_equal(back.data, f.data)


@PROPERTY
@given(st.integers(min_value=4, max_value=20).map(lambda half: 2 * half),
       st.floats(min_value=0.5, max_value=20.0), st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([(), (2,), (2, 3)]))
def test_pruned_band_pair_matches_full_transforms(N, L, seed, lead):
    # inverse_band is the inverse of the zero-filled half spectrum and
    # forward_band the band of the forward transform, batched over leading axes
    g = Grid(3, N, L)
    sp = g.spectral()
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(lead + g.shape)
    full = sp.forward(data)
    band = sp.band(full)
    c = (N + 2) // 3
    assert band.shape == lead + (2 * c - 1, 2 * c - 1, c)
    fb = sp.forward_band(data)
    assert np.abs(fb - band).max() <= 1e-13 * np.abs(band).max()
    ref = sp.inverse(sp.from_band(band))
    out = sp.inverse_band(band)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
    # the zero fill keeps the band and nothing else
    assert np.array_equal(sp.band(sp.from_band(band)), band)
    assert abs(sp.l2(sp.from_band(band)) / sp.l2(band) - 1.0) <= 1e-14


@PROPERTY
@given(st.integers(min_value=4, max_value=20).map(lambda half: 2 * half),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_even_kernel_convolution_matches_the_doubled_grid(N, seed):
    # convolve_even is the padded product on the 2N grid, inverse(forward(pad)
    # * forward(wrapped kernel)) cropped to the first N slots, where the
    # wrapped kernel is the even extension of the (N + 1)^3 block
    g = Grid(3, N, 1.0)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(g.shape)
    block = rng.standard_normal((N + 1,) * 3)
    mirror = np.concatenate([np.arange(N + 1), np.arange(N - 1, 0, -1)])
    doubled = Grid(3, 2 * N, 2.0).spectral()
    pad = np.zeros(doubled.grid.shape)
    pad[:N, :N, :N] = data
    hat = doubled.forward(pad) * doubled.forward(block[np.ix_(mirror, mirror, mirror)])
    ref = doubled.inverse(hat)[:N, :N, :N]
    out = g.spectral().convolve_even(data, block)
    assert out.shape == g.shape and out.flags.c_contiguous
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


@PROPERTY
@given(st.integers(min_value=4, max_value=20).map(lambda half: 2 * half),
       st.floats(min_value=0.5, max_value=20.0), st.integers(min_value=0, max_value=2**32 - 1))
def test_even_spectrum_is_the_transform_of_the_mirrored_block(N, L, seed):
    # at K = N/2 the even extension of the block is a kernel on the N grid
    # itself; even_spectrum is the first-octant block of its half spectrum,
    # which mirrors to the whole of it
    sp = Grid(3, N, L).spectral()
    block = np.random.default_rng(seed).standard_normal((N // 2 + 1,) * 3)
    mirror = np.concatenate([np.arange(N // 2 + 1), np.arange(N // 2 - 1, 0, -1)])
    ref = sp.forward(block[np.ix_(mirror, mirror, mirror)])
    spec = sp.even_spectrum(block)
    assert spec.shape == block.shape and spec.dtype == float
    spec = spec[np.ix_(mirror, mirror, np.arange(N // 2 + 1))]
    assert spec.shape == sp.shape
    assert np.abs(spec - ref).max() <= 1e-13 * np.abs(ref).max()
    # times_even multiplies by the mirrored spectrum without building it
    hat = sp.forward(np.random.default_rng(seed + 1).standard_normal(sp.grid.shape))
    assert np.array_equal(sp.times_even(hat.copy(), sp.even_spectrum(block)), hat * spec)


def _band_limited_solenoidal(g, rng):
    sp = g.spectral()
    return sp.inverse_band(sp.band(sp.project(sp.forward(rng.standard_normal((3,) + g.shape)))))


@PROPERTY
@given(st.sampled_from([8, 10, 12, 16, 20, 32]), st.floats(min_value=0.5, max_value=20.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_divergence_form_matches_advective_form(N, L, seed):
    # on projected data band-limited by the 2/3 rule, div(u (x) u) = u . grad u
    # and both products alias only into masked modes; the reference sums the
    # advective form on the full complex grid with its own mask and projection
    g = Grid(3, N, L)
    sp = g.spectral()
    u = _band_limited_solenoidal(g, np.random.default_rng(seed))
    ref = fft_reference.advection(g, u)
    out = sp.inverse_band(_advection(sp, _advection_table(sp), u))
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@PROPERTY
@given(st.sampled_from([8, 10, 12, 16, 20]), st.floats(min_value=0.5, max_value=20.0),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_nonlinearity_takes_every_mode_of_rough_input(N, L, seed):
    # a solenoidal field with content outside the band enters the advection
    # term untruncated: its products match the full-grid divergence form,
    # and truncating the input to the band changes the result
    g = Grid(3, N, L)
    sp = g.spectral()
    u = leray_project(Field(g, np.random.default_rng(seed).standard_normal((3,) + g.shape)))
    ref = fft_reference.advection(g, u.data, form="divergence")
    table = _advection_table(sp)
    out = sp.inverse_band(_advection(sp, table, u.data))
    scale = np.abs(ref).max()
    assert np.abs(out - ref).max() <= 1e-13 * scale
    truncated = sp.inverse_band(_advection(sp, table, sp.inverse_band(sp.forward_band(u.data))))
    assert np.abs(truncated - ref).max() >= 1e-3 * scale


@PROPERTY
@given(st.integers(min_value=4, max_value=16).map(lambda half: 2 * half),
       st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0, 1]),
       st.lists(st.floats(min_value=0.01, max_value=64.0), min_size=2, max_size=6,
                unique=True))
def test_parseval_decay_route_matches_real_space_norm(N, seed, alpha_order, times):
    # rough data: the projection's dropped Nyquist planes are what make the
    # |xi|^2-weighted power the gradient's power
    g = Grid(3, N, 6.0)
    sp = g.spectral()
    u0 = Field(g, np.random.default_rng(seed).standard_normal((3,) + g.shape))
    ladder = sorted(times)
    series, _, _ = decay_harness(u0, 2.0, 2.0, 0.0, 0.0, alpha_order, ladder)
    base = sp.project(sp.forward(u0.data))
    for t, value in zip(ladder, series.values):
        prop = base * np.exp(-t * sp.ksq)
        evolved = sp.inverse(prop) if alpha_order == 0 else sp.gradient_magnitude(prop)
        ref = integrate(Field(g, evolved), 2.0, 0.0)
        assert abs(value / ref - 1.0) <= 1e-13
