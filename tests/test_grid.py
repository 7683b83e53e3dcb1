import struct

import numpy as np
import pytest

from stokeslab.grid import (
    Field,
    Grid,
    curl,
    divergence,
    gradient,
    gradient_magnitude,
    integrate,
    load_field,
    save_field,
)
from stokeslab.corpus import random_smooth_field

import fft_reference


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(2, 64, 16.0)
    with pytest.raises(ValueError):
        Grid(3, 63, 16.0)
    with pytest.raises(ValueError):
        Grid(3, 4, 16.0)
    with pytest.raises(ValueError):
        Grid(3, 64, 0.0)


def test_frequency_set():
    g = Grid(3, 16, 4.0)
    k1 = np.sort(np.unique(fft_reference.wavenumbers(g)[0]))
    expected = np.sort(2 * np.pi * np.arange(-8, 8) / 8.0)
    assert np.allclose(k1, expected, atol=1e-14)


def test_field_shape_and_finiteness():
    g = Grid(3, 8, 1.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros((4, 8, 8)))
    bad = np.zeros(g.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)
    v = Field(g, np.zeros((3, 8, 8, 8)))
    assert v.is_vector


def test_constant_spectral_mass_at_zero():
    g = Grid(3, 16, 2.0)
    c = g.spectral().forward(Field(g, np.full(g.shape, 3.7)).data)
    assert abs(c[0, 0, 0] - 3.7 * g.N**3) < 1e-9
    c[0, 0, 0] = 0.0
    assert np.abs(c).max() < 1e-9


def test_single_cosine_mode_two_coefficients():
    g = Grid(3, 32, 4.0)
    x1 = g.coords()[0]
    F = g.spectral().forward(Field(g, np.cos(2 * np.pi * x1 / (2 * g.L))).data)
    mags = np.abs(F)
    peak = mags.max()
    big = mags > 1e-12 * peak
    assert big.sum() == 2
    assert mags[1, 0, 0] == pytest.approx(peak)
    assert mags[-1, 0, 0] == pytest.approx(peak)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_roundtrip_and_parseval(seed):
    g = Grid(3, 32, 8.0)
    f = random_smooth_field(g, seed)
    sp = g.spectral()
    F = sp.forward(f.data)
    back = sp.inverse(F)
    assert np.abs(back - f.data).max() <= 1e-12 * np.abs(f.data).max()
    assert sp.l2(F) == pytest.approx(integrate(f, 2), rel=1e-12)


def test_gradient_of_constant_is_zero():
    g = Grid(3, 16, 2.0)
    grad = gradient(Field(g, np.full(g.shape, 2.5)))
    assert np.abs(grad.data).max() < 1e-12


def test_divergence_of_curl_form_vanishes():
    g = Grid(3, 32, 8.0)
    psi = random_smooth_field(g, 7)
    gp = gradient(psi)
    v = Field(g, np.stack([gp.data[1], -gp.data[0], np.zeros(g.shape)]))
    rel = integrate(divergence(v), 2) / integrate(Field(g, np.sqrt(np.sum(gp.data**2, 0))), 2)
    assert rel < 1e-10


def test_gradient_sin_mode_analytic():
    g = Grid(3, 32, 4.0)
    k = 2 * np.pi / (2 * g.L)
    x1 = g.coords()[0]
    grad = gradient(Field(g, np.sin(k * x1)))
    exact = k * np.cos(k * x1)
    assert np.abs(grad.data[0] - exact).max() < 1e-10
    assert np.abs(grad.data[1:]).max() < 1e-12


def test_div_grad_is_laplacian_band_limited():
    # exact identity on band-limited data (both sides act below the Nyquist plane)
    g = Grid(3, 32, 8.0)
    x1, x2, _ = g.coords()
    k = 2 * np.pi / (2 * g.L)
    f = Field(g, np.sin(3 * k * x1) * np.cos(2 * k * x2) + 0.5 * np.cos(5 * k * x2))
    sp = g.spectral()
    lhs = divergence(gradient(f)).data
    rhs = sp.apply(f.data, -sp.ksq)             # the Laplacian's multiplier
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_gradient_divergence_adjoint():
    g = Grid(3, 32, 8.0)
    f = random_smooth_field(g, 21)
    v = random_smooth_field(g, 22, components=3)
    # L^2 inner products on the grid
    lhs = np.sum(gradient(f).data * v.data) * g.cell_volume
    rhs = -np.sum(f.data * divergence(v).data) * g.cell_volume
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_integrate_constant_cube():
    g = Grid(3, 8, 1.0)
    val = integrate(Field(g, np.ones(g.shape)), 2)
    assert val == pytest.approx(np.sqrt(8.0), abs=1e-14)


def test_integrate_gaussian_unweighted():
    # integral of exp(-2|x|^2) over R^3 is (pi/2)^(3/2)
    g = Grid(3, 64, 8.0)
    f = Field(g, np.exp(-g.radius_sq()))
    assert integrate(f, 2, 0.0) == pytest.approx((np.pi / 2) ** 0.75, rel=1e-6)


def test_integrate_gaussian_weighted_radial_oracle():
    # oracle: sqrt( int_0^inf exp(-2 r^2) (1+r^2) 4 pi r^2 dr ) by 1-d quadrature
    from scipy.integrate import quad

    oracle = np.sqrt(
        quad(lambda r: np.exp(-2 * r * r) * (1 + r * r) * 4 * np.pi * r * r, 0, 20)[0]
    )
    assert oracle == pytest.approx(1.856132316303657, rel=1e-12)
    g = Grid(3, 64, 8.0)
    f = Field(g, np.exp(-g.radius_sq()))
    assert integrate(f, 2, 1.0) == pytest.approx(oracle, rel=1e-4)


def test_integrate_rejects_small_q():
    # the domain is q >= 1: L^1 is the smallest index the weighted report needs
    g = Grid(3, 8, 1.0)
    f = Field(g, np.ones(g.shape))
    assert integrate(f, 1.0) == pytest.approx(8.0, abs=1e-14)
    with pytest.raises(ValueError):
        integrate(f, 0.5)


def test_integrate_rejects_infinite_q_and_non_finite_weight():
    g = Grid(3, 8, 1.0)
    f = Field(g, np.ones(g.shape))
    for q in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and >= 1"):
            integrate(f, q)
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="weight exponent must be finite"):
            integrate(f, 2.0, s)


def test_grid_rejects_non_finite_extent():
    for L in (np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            Grid(3, 8, L)


def test_quadrature_consistency_under_refinement():
    # C^1 bump: midpoint error must shrink by at least ~4x per h-halving
    from scipy.integrate import quad

    exact_sq = quad(lambda r: (1 - r * r / 9.0) ** 4 * 4 * np.pi * r * r, 0, 3.0)[0]
    exact = np.sqrt(exact_sq)
    errs = []
    for N in (16, 32, 64):
        g = Grid(3, N, 8.0)
        f = Field(g, np.maximum(0.0, 1 - g.radius_sq() / 9.0) ** 2)
        errs.append(abs(integrate(f, 2) - exact))
    assert errs[1] <= 0.3 * errs[0] + 1e-14
    assert errs[2] <= 0.3 * errs[1] + 1e-14


def test_quadrature_volume_exact():
    g = Grid(3, 10, 2.5)
    assert g.cell_volume * g.N**3 == pytest.approx((2 * g.L) ** 3, rel=1e-15)


def test_field_binary_roundtrip(tmp_path):
    g = Grid(3, 16, 4.0)
    f = random_smooth_field(g, 33, components=3)
    path = tmp_path / "field.bin"
    save_field(f, path)
    back = load_field(path)
    assert (back.grid.n, back.grid.N, back.grid.L) == (g.n, g.N, g.L)
    assert np.array_equal(back.data, f.data)
    # header layout: little-endian int64 n, int64 N, float64 L, int64 components
    raw = path.read_bytes()
    n, N, L, comps = struct.unpack("<qqdq", raw[:32])
    assert (n, N, L, comps) == (3, 16, 4.0, 3)
    assert len(raw) == 32 + 3 * 16**3 * 8


def test_generic_dimension_four():
    # the compute path is exercised at n = 3; the grid layer stays generic
    g = Grid(4, 12, 2.0)
    assert integrate(Field(g, np.ones(g.shape)), 2) == pytest.approx(4.0**2)
    f = random_smooth_field(g, 3)
    sp = g.spectral()
    back = sp.inverse(sp.forward(f.data))
    assert np.abs(back - f.data).max() <= 1e-12


@pytest.mark.parametrize("cut", [0, 10, 31])
def test_load_field_rejects_short_header(tmp_path, cut):
    g = Grid(3, 8, 1.0)
    path = tmp_path / "field.bin"
    save_field(Field(g, np.ones(g.shape)), path)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="header"):
        load_field(path)


def test_load_field_rejects_truncated_samples(tmp_path):
    g = Grid(3, 8, 1.0)
    path = tmp_path / "field.bin"
    save_field(Field(g, np.ones(g.shape)), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="data bytes"):
        load_field(path)


def test_load_field_rejects_trailing_bytes(tmp_path):
    g = Grid(3, 8, 1.0)
    path = tmp_path / "field.bin"
    save_field(Field(g, np.ones(g.shape)), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="data bytes"):
        load_field(path)


@pytest.mark.parametrize("components", [0, 2, 4])
def test_load_field_rejects_component_count(tmp_path, components):
    g = Grid(3, 8, 1.0)
    path = tmp_path / "field.bin"
    save_field(Field(g, np.ones(g.shape)), path)
    raw = path.read_bytes()
    path.write_bytes(struct.pack("<qqdq", 3, 8, 1.0, components) + raw[32:])
    with pytest.raises(ValueError, match=f"header gives {components} components"):
        load_field(path)


def test_curl_matches_full_spectrum_reference():
    # reference: per-component complex transforms on the full spectrum
    g = Grid(3, 16, 4.0)
    A = random_smooth_field(g, 11, components=3).data
    ref = fft_reference.curl(g, A)
    out = curl(Field(g, A)).data
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    assert integrate(divergence(Field(g, out)), 2) <= 1e-12 * integrate(Field(g, out), 2)


def test_gradient_magnitude_matches_componentwise_gradients():
    g = Grid(3, 16, 4.0)
    v = random_smooth_field(g, 12, components=3)
    ref = np.sqrt(sum(
        gradient(Field(g, v.data[j])).magnitude() ** 2 for j in range(3)
    ))
    assert np.abs(gradient_magnitude(v).data - ref).max() <= 1e-12 * ref.max()
    f = Field(g, v.data[0])
    assert np.abs(gradient_magnitude(f).data - gradient(f).magnitude()).max() <= 1e-14
