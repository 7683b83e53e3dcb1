import re
import struct
import time

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
from stokeslab.semigroup import fractional_integral

import fft_reference
import streamed_kernels as batched
from streamed_kernels import apply, traced_peak


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


def test_coordinates_are_broadcastable_axes():
    # three axes of N floats, not three dense N^3 arrays; the radial tables
    # built from them are bit for bit the sums over dense meshgrids
    g = Grid(3, 128, 8.0)
    x = g.coords()
    assert [a.shape for a in x] == [(128, 1, 1), (1, 128, 1), (1, 1, 128)]
    assert sum(a.size for a in x) == 3 * 128
    dense = np.meshgrid(*([g.axis] * 3), indexing="ij")
    assert np.array_equal(g.radius_sq(), sum(d**2 for d in dense))
    d1 = g.h * np.arange(g.N // 2 + 1)
    off_sq = g.offset_sq(g.N // 2)
    assert off_sq.shape == (g.N // 2 + 1,) * 3
    assert np.array_equal(off_sq, sum(d**2 for d in np.meshgrid(d1, d1, d1, indexing="ij")))


def test_single_cosine_mode_two_coefficients():
    g = Grid(3, 32, 4.0)
    x1 = np.broadcast_to(g.coords()[0], g.shape)
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
    assert sp.l2(F) == pytest.approx(integrate(f, 2), rel=1e-12)
    back = sp.inverse(F)        # consumes F
    assert np.abs(back - f.data).max() <= 1e-12 * np.abs(f.data).max()


@pytest.mark.parametrize("n, N", [(3, 8), (3, 24), (3, 32), (3, 48), (3, 64), (3, 96),
                                  (3, 100), (3, 128), (4, 12)])
def test_inverse_is_irfftn_bit_for_bit(n, N):
    # the complex passes in the input's buffer, the irfft of the half axis
    # and one 1/N^n multiply give scipy's irfftn exactly, scalar and vector
    from scipy import fft

    sp = Grid(n, N, 4.0).spectral()
    rng = np.random.default_rng(N)
    for lead in ((), (n,)):
        hat = sp.forward(rng.standard_normal(lead + sp.grid.shape))
        ref = fft.irfftn(hat, s=sp.grid.shape, axes=sp.axes)
        assert np.array_equal(sp.inverse(hat), ref)


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
    grad = gradient(Field(g, np.broadcast_to(np.sin(k * x1), g.shape)))
    exact = k * np.cos(k * x1)
    assert np.abs(grad.data[0] - exact).max() < 1e-10
    assert np.abs(grad.data[1:]).max() < 1e-12


def test_div_grad_is_laplacian_band_limited():
    # exact identity on band-limited data (both sides act below the Nyquist plane)
    g = Grid(3, 32, 8.0)
    x1, x2, _ = g.coords()
    k = 2 * np.pi / (2 * g.L)
    f = Field(g, np.broadcast_to(np.sin(3 * k * x1) * np.cos(2 * k * x2)
                                 + 0.5 * np.cos(5 * k * x2), g.shape))
    sp = g.spectral()
    lhs = divergence(gradient(f)).data
    rhs = apply(sp, f.data, -sp.ksq())          # the Laplacian's multiplier
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


def test_grid_rejects_a_cell_volume_that_is_not_a_positive_finite_float():
    # h^3 overflows (it raised OverflowError), underflows to zero or is subnormal
    for L in (1e300, 1e-300, 1e-103):
        with pytest.raises(ValueError, match="cell volume"):
            Grid(3, 8, L)
    for L in (1e100, 16.0, 1e-100):
        g = Grid(3, 8, L)
        assert g.cell_volume == (2.0 * L / 8) ** 3


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


@pytest.mark.parametrize("header, data_bytes",
                         [((10**7, 8, 4.0, 1), 64), ((3, 2**40, 1.0, 1), 4096)],
                         ids=["n-1e7", "N-2**40"])
def test_load_field_refuses_a_header_the_file_cannot_hold(tmp_path, header, data_bytes):
    # the file length is checked first: N**n costs time that grows with n (h = 1,
    # so Grid would accept n = 10**7), and Grid holds an array of N samples
    path = tmp_path / "field.bin"
    path.write_bytes(struct.pack("<qqdq", *header) + bytes(data_bytes))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"{data_bytes} data bytes"):
        load_field(path)
    assert time.perf_counter() - t0 < 0.05


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


def test_only_the_spectral_layer_imports_scipy_fft():
    # transforms have one owner: every other module reaches the backend
    # through grid (the spectral layer or fft_backend), and grid
    # imports it in one place, inside fft_backend, so no module loads it
    # at import time
    import ast
    import pathlib

    def sites(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope += (node.name,)
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
        else:
            names = []
        if any(name == "scipy.fft" or name.startswith("scipy.fft.") for name in names):
            yield ".".join(scope)
        for child in ast.iter_child_nodes(node):
            yield from sites(child, scope)

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "stokeslab"
    found = [(path.name, site) for path in sorted(src.glob("*.py"))
             for site in sites(ast.parse(path.read_text()), ())]
    assert found == [("grid.py", "fft_backend")]


def test_only_even_spectrum_names_dctn():
    # every even kernel's spectrum comes from one routine: dctn is named
    # nowhere in src/ outside Spectral.even_spectrum
    import ast
    import pathlib

    def sites(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope += (node.name,)
        if "dctn" in (getattr(node, "attr", None), getattr(node, "id", None),
                      getattr(node, "name", None)):
            yield ".".join(scope)
        for child in ast.iter_child_nodes(node):
            yield from sites(child, scope)

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "stokeslab"
    found = [(path.name, site) for path in sorted(src.glob("*.py"))
             for site in sites(ast.parse(path.read_text()), ())]
    assert found == [("grid.py", "Spectral.even_spectrum")]


def _vector_fields():
    # smooth fields on an even and a non-power-of-two grid, and one with
    # signed zeros and tiny values mixed in, where a reordered sum would show
    for N, L, seed in [(16, 4.0, 1), (24, 3.3, 2), (32, 8.0, 3)]:
        g = Grid(3, N, L)
        yield random_smooth_field(g, seed, components=3)
    v = random_smooth_field(Grid(3, 16, 5.0), 4, components=3)
    v.data[:, ::3] *= -1e-300
    v.data[1, :, ::5] = -0.0
    yield v


def test_streamed_curl_and_divergence_are_the_batched_formulas():
    for v in _vector_fields():
        assert np.array_equal(curl(v).data, batched.curl(v.grid, v.data))
        assert np.array_equal(divergence(v).data, batched.divergence(v.grid, v.data))


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("weight", [None, 1.5, -2.0])
def test_streamed_vector_integrate_is_the_batched_formula(q, weight):
    for v in _vector_fields():
        assert integrate(v, q, weight) == batched.integrate(v, q, weight)


def test_power_of_a_component_stream_is_the_batched_power():
    for v in _vector_fields():
        sp = v.grid.spectral()
        hat = sp.forward(v.data)
        ref = batched.power(sp, hat)
        assert np.array_equal(sp.power(hat), ref)
        assert np.array_equal(sp.power(sp.forward(c) for c in v.data), ref)
        assert np.array_equal(sp.power(hat[1]), batched.power(sp, hat[1]))


def test_save_field_writes_the_array_buffer(tmp_path):
    # a C-ordered field and a transposed view: the bytes after the header are
    # tobytes() of the contiguous little-endian array either way
    g = Grid(3, 16, 4.0)
    v = random_smooth_field(g, 8, components=3)
    for data in (v.data, v.data[0].T):
        path = tmp_path / "field.bin"
        save_field(Field(g, data), path)
        expected = np.ascontiguousarray(data, dtype="<f8").tobytes()
        assert path.read_bytes()[32:] == expected


@pytest.mark.parametrize("components", [1, 3])
def test_load_field_reads_into_the_array_it_returns(components, tmp_path):
    # the samples go straight into the returned array: no bytes object and
    # no copy of it, so the traced peak is one field (two at the frombuffer
    # copy); the array owns its memory and is writable
    g = Grid(3, 64, 8.0)
    f = random_smooth_field(g, 9, components=components)
    path = tmp_path / "field.bin"
    save_field(f, path)
    back = load_field(path)
    assert np.array_equal(back.data, f.data)
    assert back.data.flags.owndata and back.data.flags.writeable
    assert traced_peak(lambda: load_field(path), f.data.nbytes) <= 1.1


@pytest.mark.parametrize("name, bound", [("curl", 3.0), ("divergence", 0.8),
                                         ("integrate", 0.75)])
def test_vector_kernels_stream_their_full_grid_temporaries(name, bound):
    # peaks in units of one vector field at N = 64; the batched kernels
    # measured 4.09 (curl), 1.74 (divergence) and 1.33 (integrate), the
    # streamed ones 2.74, 0.71 and 0.67
    g = Grid(3, 64, 8.0)
    v = random_smooth_field(g, 10, components=3)
    call = {"curl": lambda: curl(v), "divergence": lambda: divergence(v),
            "integrate": lambda: integrate(v, 2)}[name]
    assert traced_peak(call, v.data.nbytes) <= bound


def _even_kernel_cases():
    # every N of the list, powers of two or not, at n = 3 and one n = 4 grid;
    # data and kernel blocks with signed zeros and tiny values mixed in
    for n, N in [(3, 8), (3, 16), (3, 24), (3, 40), (3, 96), (4, 8)]:
        g = Grid(n, N, 3.0)
        rng = np.random.default_rng(N + n)
        data, kernel = rng.standard_normal(g.shape), rng.standard_normal((N + 1,) * n)
        kernel[::3] *= 1e-300
        kernel[:, ::4] = -0.0
        data[..., ::5] *= -1e-310
        yield g, data, kernel


def test_streamed_even_convolution_is_the_batched_formula():
    for g, data, kernel in _even_kernel_cases():
        out = g.spectral().convolve_even(data, kernel)
        assert out.flags.c_contiguous
        assert np.array_equal(out, batched.convolve_even(g, data, kernel))


def test_convolve_even_refuses_a_kernel_block_of_another_shape():
    g = Grid(3, 8, 2.0)
    data = np.ones(g.shape)
    for shape in [(10, 10, 10), (9, 9, 8), (9, 9), (8, 8, 8)]:
        with pytest.raises(ValueError, match=re.escape(f"{shape} is not the (9, 9, 9)")):
            g.spectral().convolve_even(data, np.ones(shape))


@pytest.mark.parametrize("N, L, seed, components",
                         [(8, 2.0, 1, 1), (16, 4.0, 2, 3), (24, 3.3, 3, 1), (40, 6.0, 4, 3),
                          (96, 5.0, 5, 1), (24, 3.3, 6, 3)])
def test_corpus_field_built_in_place_is_the_batched_formula(N, L, seed, components):
    g = Grid(3, N, L)
    f = random_smooth_field(g, seed, components=components)
    assert np.array_equal(f.data, batched.random_smooth_field(g, seed, components))
    # the weight <x>^(sq) of integrate is one temporary raised in place
    for q in (1.0, 2.0, 6.0):
        for weight in (None, 0.5, 1.5, -2.0):
            assert integrate(f, q, weight) == batched.integrate(f, q, weight)


@pytest.mark.parametrize("name, bound", [("convolve_even", 3.6), ("fractional_integral", 4.7),
                                         ("random_smooth_field", 5.4),
                                         ("random_smooth_field_vector", 4.1)])
def test_scalar_kernels_stream_their_full_grid_temporaries(name, bound):
    # peaks in units of one field (a vector field for the vector corpus) at
    # N = 64; the batched kernels measured 13.30 (convolve_even), 15.42
    # (fractional_integral), 6.58 and 4.88 (random_smooth_field, scalar and
    # vector), the streamed ones 3.32, 4.37, 5.06 and 3.71 (the corpus
    # field's tighter bounds below)
    g = Grid(3, 64, 5.0)
    f = random_smooth_field(g, 11)
    kernel = np.random.default_rng(11).standard_normal((g.N + 1,) * 3)
    call, unit = {
        "convolve_even": (lambda: g.spectral().convolve_even(f.data, kernel), 1),
        "fractional_integral": (lambda: fractional_integral(f, 1.0), 1),
        "random_smooth_field": (lambda: random_smooth_field(g, 12), 1),
        "random_smooth_field_vector": (lambda: random_smooth_field(g, 12, components=3), 3),
    }[name]
    assert traced_peak(call, unit * f.data.nbytes) <= bound


@pytest.mark.parametrize("components, bound", [(1, 4.2), (3, 2.9)])
def test_corpus_field_drops_each_transform_input(components, bound):
    # in units of one field of the corpus's shape at N = 64: 5.06 (scalar)
    # and 3.71 (vector) while each multiplier's input was held through its
    # inverse transform, 4.06 and 2.71 with each input dropped
    g = Grid(3, 64, 5.0)
    unit = components * random_smooth_field(g, 11).data.nbytes
    assert traced_peak(lambda: random_smooth_field(g, 12, components), unit) <= bound
