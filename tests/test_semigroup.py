import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import fftconvolve, resample

from stokeslab.grid import Field, Grid, gradient, integrate
from stokeslab.corpus import corpus_seeds, random_smooth_field
from stokeslab.semigroup import (
    decay_harness,
    fit_power_law,
    fractional_integral,
    heat_kernel_field,
    leray_project,
    predicted_exponent,
    write_decay_csv,
)
from stokeslab.weights import admissible_range

from refinement import refine_field
from streamed_kernels import apply

# The heat semigroup is the spectral multiplier exp(-t |xi|^2):
# apply(sp, data, np.exp(-t * sp.ksq)); the Stokes semigroup is the same
# multiplier after the Leray projection.


def test_heat_kernel_point_values():
    # the origin (index N/2 on every axis) and h e1 are lattice points
    g = Grid(3, 16, 4.0)
    o = g.N // 2
    t = 1.0 / (4.0 * np.pi)
    assert heat_kernel_field(g, t).data[o, o, o] == pytest.approx(1.0, rel=1e-14)
    t = (g.h / 2.0) ** 2                # |h e1|^2 / (4t) = 1
    expected = (4 * np.pi * t) ** -1.5 * np.exp(-1.0)
    assert heat_kernel_field(g, t).data[o + 1, o, o] == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        heat_kernel_field(g, 0.0)


def test_heat_kernel_unit_mass():
    g = Grid(3, 64, 12.0)
    total = np.sum(heat_kernel_field(g, 1.0).data) * g.cell_volume
    assert abs(total - 1.0) < 1e-10


def test_heat_apply_gaussian_semigroup():
    # evolving the kernel at t0 for time t gives the kernel at t0 + t
    g = Grid(3, 64, 16.0)
    sp = g.spectral()
    t0, t = 1.0, 1.5
    evolved = apply(sp, heat_kernel_field(g, t0).data, np.exp(-t * sp.ksq))
    target = heat_kernel_field(g, t0 + t).data
    rel = np.abs(evolved - target).max() / target.max()
    assert rel < 1e-8


def test_heat_apply_mode_eigenvalue():
    g = Grid(3, 32, 8.0)
    k = 2 * np.pi * 2 / (2 * g.L)
    f = Field(g, np.broadcast_to(np.cos(k * g.coords()[0]), g.shape))
    sp = g.spectral()
    out = apply(sp, f.data, np.exp(-0.8 * sp.ksq))
    assert np.abs(out - np.exp(-0.8 * k * k) * f.data).max() < 1e-12


def test_heat_semigroup_law():
    g = Grid(3, 32, 8.0)
    sp = g.spectral()
    f = random_smooth_field(g, 9).data
    for a in (0.1, 0.5, 1.0):
        for b in (0.1, 0.5, 1.0):
            lhs = apply(sp, f, np.exp(-(a + b) * sp.ksq))
            rhs = apply(sp, apply(sp, f, np.exp(-a * sp.ksq)), np.exp(-b * sp.ksq))
            assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()


def test_heat_l2_contraction():
    g = Grid(3, 32, 8.0)
    sp = g.spectral()
    for seed in corpus_seeds(3, 4):
        f = random_smooth_field(g, seed)
        n0 = integrate(f, 2)
        for t in (0.1, 1.0, 8.0):
            evolved = Field(g, apply(sp, f.data, np.exp(-t * sp.ksq)))
            assert integrate(evolved, 2) <= n0 * (1 + 1e-13)


def test_heat_mass_conservation():
    g = Grid(3, 32, 8.0)
    sp = g.spectral()
    f = random_smooth_field(g, 4).data
    for t in (0.5, 2.0):
        assert apply(sp, f, np.exp(-t * sp.ksq)).mean() == pytest.approx(f.mean(), abs=1e-14)


def test_leray_annihilates_gradients():
    g = Grid(3, 32, 8.0)
    gr = gradient(random_smooth_field(g, 5))
    out = leray_project(gr)
    assert integrate(out, 2) <= 1e-10 * integrate(gr, 2)


def test_leray_keeps_solenoidal_mode():
    g = Grid(3, 32, 8.0)
    k = 2 * np.pi / (2 * g.L)
    data = np.zeros((3,) + g.shape)
    data[0] = np.cos(3 * k * g.coords()[2])    # e1 amplitude, wavevector along e3
    v = Field(g, data)
    out = leray_project(v)
    assert np.abs(out.data - v.data).max() < 1e-12


def test_leray_idempotent_and_selfadjoint():
    g = Grid(3, 32, 8.0)
    v = random_smooth_field(g, 6, components=3)
    w = random_smooth_field(g, 7, components=3)
    pv = leray_project(v)
    ppv = leray_project(pv)
    assert np.abs(ppv.data - pv.data).max() <= 1e-12 * np.abs(pv.data).max()
    # L^2 inner products on the grid, summed over components
    lhs = np.sum(pv.data * w.data) * g.cell_volume
    pw = leray_project(w)
    rhs = np.sum(v.data * pw.data) * g.cell_volume
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_leray_output_solenoidal():
    from stokeslab.grid import divergence

    g = Grid(3, 32, 8.0)
    v = random_smooth_field(g, 8, components=3)
    pv = leray_project(v)
    scale = np.sqrt(sum(integrate(gradient(Field(g, pv.data[j])), 2) ** 2 for j in range(3)))
    assert integrate(divergence(pv), 2) <= 1e-10 * scale


def test_stokes_equals_heat_on_solenoidal():
    g = Grid(3, 32, 8.0)
    v = leray_project(random_smooth_field(g, 10, components=3))
    sp = g.spectral()
    heat = np.exp(-0.7 * sp.ksq)
    a = apply(sp, leray_project(v).data, heat)
    b = apply(sp, v.data, heat)
    assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_stokes_kills_gradients_all_t():
    g = Grid(3, 32, 8.0)
    sp = g.spectral()
    gr = gradient(random_smooth_field(g, 11))
    for t in (0.0, 0.5, 2.0):
        stokes = Field(g, apply(sp, leray_project(gr).data, np.exp(-t * sp.ksq)))
        assert integrate(stokes, 2) <= 1e-10 * integrate(gr, 2)


def test_projection_commutes_with_heat():
    g = Grid(3, 32, 8.0)
    sp = g.spectral()
    v = random_smooth_field(g, 12, components=3)
    heat = np.exp(-0.3 * sp.ksq)
    a = leray_project(Field(g, apply(sp, v.data, heat))).data
    b = apply(sp, leray_project(v).data, heat)
    assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


# d/dx_j of the heat evolution is the multiplier i xi_j exp(-t |xi|^2)


def test_gradient_apply_antisymmetry_and_mode():
    g = Grid(3, 32, 8.0)
    sp = g.spectral()
    gauss = np.exp(-g.radius_sq())
    out = apply(sp, gauss, 1j * sp.k[0] * np.exp(-0.5 * sp.ksq))
    flipped = out[::-1]                 # x -> -x on axis 0 up to the grid shift
    assert np.abs(np.roll(flipped, 1, axis=0) + out).max() < 1e-10
    k = 2 * np.pi * 3 / (2 * g.L)
    mode = np.broadcast_to(np.cos(k * g.coords()[1]), g.shape)
    t = 0.4
    dy = apply(sp, mode, 1j * sp.k[1] * np.exp(-t * sp.ksq))
    assert np.abs(dy - (-k * np.exp(-t * k * k) * np.sin(k * g.coords()[1]))).max() < 1e-11


def test_gradient_apply_smoothing_bound():
    # sup_kappa (t kappa)^(1/2) e^(-t kappa) = (2e)^(-1/2) bounds the ratio
    g = Grid(3, 32, 16.0)
    sp = g.spectral()
    cap = (2 * np.e) ** -0.5
    for seed in corpus_seeds(31, 3):
        u = random_smooth_field(g, seed)
        n0 = integrate(u, 2)
        for t in (0.25, 1.0, 4.0):
            grad_sq = sum(
                integrate(Field(g, apply(sp, u.data, 1j * sp.k[j] * np.exp(-t * sp.ksq))), 2) ** 2
                for j in range(3)
            )
            assert np.sqrt(t * grad_sq) / n0 <= cap * (1 + 1e-10)


def _fractional_integral_reference(f, lam):
    # the linear convolution on the (2N - 1)^n offset lattice with
    # scipy.signal.fftconvolve, kept as the oracle of the 2N-lattice version
    g = f.grid
    n = g.n
    h = g.h
    off = h * (np.arange(2 * g.N - 1) - (g.N - 1))
    off_sq = sum(o**2 for o in np.meshgrid(*([off] * n), indexing="ij"))
    with np.errstate(divide="ignore"):
        ker = np.where(off_sq > 0, off_sq ** (0.5 * (lam - n)), 0.0) * h**n
    near = np.argwhere(off_sq <= (3.0 * h) ** 2)
    sub = (np.arange(7) + 0.5) / 7.0 - 0.5
    sub_pts = np.stack(np.meshgrid(*([sub * h] * n), indexing="ij"), -1).reshape(-1, n)
    for idx in near:
        y0 = h * (idx - (g.N - 1))
        r_sq = np.sum((y0 + sub_pts) ** 2, axis=1)
        if np.all(r_sq > 0):
            ker[tuple(idx)] = np.mean(r_sq ** (0.5 * (lam - n))) * h**n
    msub = 15
    hs = h / msub
    subc = hs * (np.arange(msub) - (msub - 1) / 2.0)
    rc_sq = sum(c**2 for c in np.meshgrid(*([subc] * n), indexing="ij")).ravel()
    ball_radius = (hs**n * math.gamma(n / 2.0 + 1.0)) ** (1.0 / n) / math.sqrt(math.pi)
    sphere_area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    cell = float(np.sum(rc_sq[rc_sq > 0] ** (0.5 * (lam - n)))) * hs**n
    cell += sphere_area * ball_radius**lam / lam
    ker[(g.N - 1,) * n] = cell
    return fftconvolve(f.data, ker, mode="same")


def _assert_matches_reference(f, lam, rtol):
    ref = _fractional_integral_reference(f, lam)
    got = fractional_integral(f, lam).data
    assert np.abs(got - ref).max() <= rtol * np.abs(ref).max()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(range(8, 25, 2)), st.floats(min_value=0.5, max_value=20.0),
       st.floats(min_value=0.05, max_value=2.95), st.integers(min_value=0, max_value=2**32 - 1))
def test_fractional_integral_matches_linear_convolution(N, L, lam, seed):
    # the circular convolution on the 2N lattice is the linear one exactly
    g = Grid(3, N, L)
    f = Field(g, np.random.default_rng(seed).standard_normal(g.shape))
    _assert_matches_reference(f, lam, 1e-12)


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_fractional_integral_matches_linear_convolution_at_cli_grid(lam):
    g = Grid(3, 96, 5.0)
    _assert_matches_reference(random_smooth_field(g, 20260809), lam, 1e-12)


def test_fractional_integral_gaussian_oracle():
    # I_2 of exp(-|y|^2) at the origin equals 4 pi * int r e^{-r^2} dr = 2 pi
    g = Grid(3, 96, 5.0)
    conv = fractional_integral(Field(g, np.exp(-g.radius_sq())), 2.0)
    center = (g.N // 2,) * 3
    assert abs(conv.data[center] - 2 * np.pi) / (2 * np.pi) < 1e-3


def test_fractional_integral_positive():
    g = Grid(3, 48, 8.0)
    f = Field(g, np.exp(-g.radius_sq()))
    out = fractional_integral(f, 1.5)
    assert out.data.min() >= 0.0


def test_fractional_integral_rejects_bad_order():
    g = Grid(3, 16, 4.0)
    f = Field(g, np.exp(-g.radius_sq()))
    for lam in (0.0, 3.0, -1.0):
        with pytest.raises(ValueError):
            fractional_integral(f, lam)


def test_fractional_integral_builds_no_doubled_grid_and_holds_no_wavenumbers(monkeypatch):
    # the padded convolution is a method of the field's own spectral layer:
    # no Grid(n, 2N, 2L) is built, and the layer only transforms, so it holds
    # no |xi|^2, wavenumber, index, Parseval or de-aliasing arrays
    g = Grid(3, 16, 4.0)
    f = Field(g, np.exp(-g.radius_sq()))
    built, grids = [], []
    spectral, init = Grid.spectral, Grid.__init__

    def recording(grid):
        built.append(spectral(grid))
        return built[-1]

    def counting(grid, *args, **kwargs):
        grids.append(grid)
        init(grid, *args, **kwargs)

    monkeypatch.setattr(Grid, "spectral", recording)
    monkeypatch.setattr(Grid, "__init__", counting)
    fractional_integral(f, 1.0)
    assert grids == []
    assert [sp.grid for sp in built] == [g]
    lazy = {"ksq", "_ksq_safe", "k", "index", "_pw", "_band_pieces", "band_k", "band_ksq"}
    assert lazy.isdisjoint(vars(built[0]))


def test_fractional_two_weight_ratio_stable():
    # lam = n(1/p - 1/q) with p = 2, q = 6; same function on both grids
    coarse = random_smooth_field(Grid(3, 48, 8.0), 17)
    fine = refine_field(coarse)
    ratios = []
    for f in (coarse, fine):
        out = fractional_integral(f, 1.0)
        ratios.append(integrate(out, 6.0, 0.5) / integrate(f, 2.0, 0.5))
    assert abs(ratios[1] / ratios[0] - 1.0) < 0.05


@pytest.mark.parametrize("N, lead", [(16, (3,)), (64, ())])
def test_refine_field_matches_fourier_resampling(N, lead):
    g = Grid(3, N, 4.0)
    f = Field(g, np.random.default_rng(N).standard_normal(lead + g.shape))
    with pytest.raises(ValueError):
        refine_field(f, 1)
    for factor in (2, 3):
        ref = f.data
        for ax in range(len(lead), len(lead) + 3):
            ref = resample(ref, factor * N, axis=ax)
        got = refine_field(f, factor).data
        if factor == 2:
            assert np.array_equal(got, ref)
        else:
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_heat_kernel_dominated_by_riesz_kernel():
    # E_t(x) <= C |x|^(lam-n) t^(-lam/2) with the smallest such C: with
    # a = n - lam and y = |x|^2 / t, E_t |x|^a t^(lam/2) = (4 pi)^(-n/2)
    # y^(a/2) e^(-y/4), whose sup (2a/e)^(a/2) is taken at y = 2a
    g = Grid(3, 48, 12.0)
    lam = 1.5
    a = 3 - lam
    C = (2.0 * a / math.e) ** (a / 2.0) / (4.0 * math.pi) ** 1.5
    r = np.sqrt(g.radius_sq())
    mask = r > 0
    for t in (1.0, 4.0):
        E = heat_kernel_field(g, t).data
        bound = C * r[mask] ** (lam - 3) * t ** (-lam / 2.0)
        assert np.all(E[mask] <= bound * (1 + 1e-12))


# Riesz bound: the weighted norm of grad f against that of (-Laplace)^(1/2) f,
# the multiplier |xi|


def test_riesz_ratio_unweighted_is_one():
    g = Grid(3, 32, 8.0)
    sp = g.spectral()
    f = random_smooth_field(g, 19)
    half = Field(g, apply(sp, f.data, np.sqrt(sp.ksq)))
    assert integrate(gradient(f), 2.0) / integrate(half, 2.0) == pytest.approx(1.0, abs=1e-10)


def test_riesz_ratio_weighted_corpus():
    g = Grid(3, 48, 16.0)
    sp = g.spectral()
    ratios = []
    for seed in corpus_seeds(5, 5):
        f = random_smooth_field(g, seed)
        half = Field(g, apply(sp, f.data, np.sqrt(sp.ksq)))
        ratios.append(integrate(gradient(f), 2.0, 1.0) / integrate(half, 2.0, 1.0))
    assert max(ratios) < 1.2


def test_fit_power_law_exact():
    t = np.geomspace(1.0, 64.0, 9)
    fit = fit_power_law(t, t**-1.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_harness_rejections():
    g = Grid(3, 16, 8.0)
    u = random_smooth_field(g, 2, components=3)
    with pytest.raises(ValueError):
        decay_harness(u, 4.0, 2.0, 0.0, 0.0, 0, [1.0, 2.0])     # p > q
    with pytest.raises(ValueError):
        decay_harness(u, 2.0, 2.0, 2.0, 0.0, 0, [1.0, 2.0])     # s too large
    with pytest.raises(ValueError):
        decay_harness(u, 2.0, 2.0, 1.0, -2.0, 0, [1.0, 2.0])    # s0 below -n/q


def test_decay_harness_window_is_the_admissible_range():
    # the window (-n/q, n(1 - 1/p)) is weights.admissible_range's, which names q
    u = random_smooth_field(Grid(3, 16, 8.0), 2, components=3)
    lo, hi = admissible_range(3.0, 3)[0], admissible_range(2.0, 3)[1]
    with pytest.raises(ValueError, match=re.escape(f"window ({lo:.3f}, {hi:.3f})")):
        decay_harness(u, 2.0, 3.0, hi, 0.0, 0, [1.0, 2.0])
    with pytest.raises(ValueError, match="q must be finite"):
        decay_harness(u, 2.0, np.inf, 0.0, 0.0, 0, [1.0, 2.0])


def test_decay_harness_rejects_scalar_field():
    g = Grid(3, 16, 8.0)
    u = random_smooth_field(g, 2, components=1)
    with pytest.raises(ValueError, match="vector field"):
        decay_harness(u, 2.0, 2.0, 0.0, 0.0, 0, [1.0, 2.0])


@pytest.mark.parametrize("ladder, message", [
    ([1.0, np.nan], "positive finite times"),
    ([1.0, np.inf], "positive finite times"),
    ([0.0, 1.0], "positive finite times"),
    ([1.0, 1.0, 2.0], "strictly increasing"),
])
def test_decay_harness_ladder_checks(ladder, message):
    u = random_smooth_field(Grid(3, 16, 8.0), 2, components=3)
    with pytest.raises(ValueError, match=message):
        decay_harness(u, 2.0, 2.0, 0.0, 0.0, 0, ladder)


@pytest.mark.parametrize("alpha_order", [0, 1])
def test_decay_harness_zero_field_on_the_parseval_route(alpha_order):
    # q = 2, s0 = 0 sums the power spectrum; a zero field still gives zero norms
    u = Field(Grid(3, 16, 8.0), np.zeros((3, 16, 16, 16)))
    with pytest.raises(ValueError, match="values must be positive"):
        decay_harness(u, 2.0, 2.0, 0.0, 0.0, alpha_order, [1.0, 2.0])


def test_decay_harness_envelope_is_the_csv_envelope(tmp_path):
    u = random_smooth_field(Grid(3, 16, 8.0), 3, components=3)
    series, fit, compliance = decay_harness(u, 2.0, 4.0, 1.0, 0.0, 0, np.geomspace(1, 8, 4))
    t = series.t
    rate = t ** (-(3 / 2.0) * (1 / 2.0 - 1 / 4.0)) * (1.0 + t) ** -0.5
    assert np.allclose(series.envelope, series.values[0] / rate[0] * rate, rtol=1e-14)
    assert compliance == np.max(series.values / series.envelope)
    path = tmp_path / "decay.csv"
    write_decay_csv(path, series, fit)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:5]
    assert [float(r[2]) for r in rows] == list(series.envelope)


def test_decay_harness_weighted_case():
    g = Grid(3, 48, 16.0)
    u = random_smooth_field(g, 77, components=3)
    ladder = np.geomspace(1.0, 64.0, 9)
    series, fit, compliance = decay_harness(u, 2.0, 2.0, 1.0, 0.0, 0, ladder)
    assert compliance <= 1.05
    assert fit.slope <= predicted_exponent(3, 2.0, 2.0, 1.0, 0.0, 0) + 0.1
    assert np.all(np.diff(series.t) > 0)


def test_decay_csv_roundtrip(tmp_path):
    g = Grid(3, 32, 16.0)
    u = random_smooth_field(g, 78, components=3)
    series, fit, _ = decay_harness(u, 2.0, 6.0, 0.0, 0.0, 0, np.geomspace(1, 16, 5))
    path = tmp_path / "decay.csv"
    write_decay_csv(path, series, fit)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "norm", "predicted_envelope", "ratio"]
    assert len(rows) >= 7
    back = np.array([[float(c) for c in row] for row in rows[1:6]])
    assert np.array_equal(back[:, 0], series.t)
    assert np.array_equal(back[:, 1], series.values)


def test_leray_idempotent_for_rough_data_any_dimension():
    # full-spectrum input: unpaired Nyquist planes are dropped, so a second
    # application changes nothing and the output is exactly solenoidal
    from stokeslab.grid import divergence

    for n, N in ((3, 16), (4, 12)):
        g = Grid(n, N, 2.0)
        rng = np.random.default_rng(0)
        v = Field(g, rng.standard_normal((n,) + g.shape))
        pv = leray_project(v)
        ppv = leray_project(pv)
        assert np.abs(ppv.data - pv.data).max() <= 1e-12
        gscale = np.sqrt(
            sum(integrate(gradient(Field(g, pv.data[j])), 2) ** 2 for j in range(n))
        )
        assert integrate(divergence(pv), 2) <= 1e-12 * gscale
