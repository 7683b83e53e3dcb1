import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokeslab.grid import Field, Grid, curl, divergence, gradient_magnitude, integrate
from stokeslab.exterior import (
    annulus_dipole,
    bogovskii_apply,
    divergence_defect,
    shell_potential,
    solenoidal_extension,
    _OVERSAMPLE,
    _FieldSampler,
    _SphereSolver,
    _cut_off,
    _periodic_spline,
    _ray_integral,
    _sphere_at,
    _smoothstep7,
    _spline_refinement,
)
from stokeslab.corpus import random_smooth_field

import fft_reference
import streamed_kernels as batched
from streamed_kernels import traced_peak
from refinement import refine_field
from sphere_reference import synth_at


def radial_test_data(grid, rc0=2.5, wd=0.4):
    """f = s'(r) + 2 s(r)/r for a radial bump s; the solution is s(r) x/|x|."""
    r = np.sqrt(grid.radius_sq())
    t = (r - rc0) / wd
    s = np.where(np.abs(t) < 1, (1 - t**2) ** 3, 0.0)
    sd = np.where(np.abs(t) < 1, -6 * t * (1 - t**2) ** 2 / wd, 0.0)
    rs = np.maximum(r, 1e-300)
    f = Field(grid, np.where(np.abs(t) < 1, sd + 2 * s / rs, 0.0))
    exact = np.stack([s * xi / rs for xi in grid.coords()])
    return f, exact


def test_annulus_spec_validation():
    g = Grid(3, 32, 8.0)
    for R in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="inner radius must be positive"):
            annulus_dipole(g, R)
    with pytest.raises(ValueError, match="n = 3 only"):
        annulus_dipole(Grid(4, 8, 8.0), 2.0)
    with pytest.raises(ValueError, match="margin"):
        annulus_dipole(g, 7.5)
    annulus_dipole(g, 2.0)
    # the extension's exterior radius is refused as an inner radius is, and
    # its shell D_{R+2} needs the margin
    u0 = curl(shell_potential(g, 1.0))
    for check in (lambda R: shell_potential(g, R), lambda R: solenoidal_extension(u0, R)):
        with pytest.raises(ValueError, match="inner radius must be positive"):
            check(0.0)
        with pytest.raises(ValueError, match="margin"):
            check(4.5)


def test_annulus_dipole_support_and_mean():
    g = Grid(3, 64, 8.0)
    R = 2.0
    f = annulus_dipole(g, R)
    t = (np.sqrt(g.radius_sq()) - (R + 0.5)) / 0.35
    assert np.all(f.data[np.abs(t) >= 1.0] == 0.0)
    assert np.any(f.data != 0.0)
    assert abs(np.sum(f.data)) * g.cell_volume <= 1e-12 * integrate(f, 1)


def test_shell_potential_curl_is_solenoidal():
    g = Grid(3, 64, 8.0)
    R = 1.0
    u0 = curl(shell_potential(g, R))
    rel = integrate(divergence(u0), 2) / integrate(gradient_magnitude(u0), 2)
    assert rel <= 1e-12


@pytest.mark.parametrize("build, R", [(annulus_dipole, 6.5), (shell_potential, 4.5)],
                         ids=["dipole", "potential"])
def test_annulus_builders_check_their_shell_first(build, R, monkeypatch):
    # D_R for the dipole (R + 2 > L), the extension's D_{R+2} for the potential
    # (R + 4 > L); nothing is evaluated before the check
    def refuse(self):
        raise AssertionError("radius_sq called before the annulus check")

    monkeypatch.setattr(Grid, "radius_sq", refuse)
    with pytest.raises(ValueError, match="exceeds L"):
        build(Grid(3, 16, 8.0), R)


def test_cutoff_plateaus_and_support():
    g = Grid(3, 64, 8.0)
    R = 1.0
    u0 = random_smooth_field(g, 3, components=3)
    phi, fb = _cut_off(u0, R)
    r = np.sqrt(g.radius_sq())
    assert np.all(phi[r <= R + 2.0] == 1.0)
    assert np.all(phi[r >= R + 3.0] == 0.0)
    assert np.all((0.0 <= phi) & (phi <= 1.0))
    # (grad phi) . u0 lives on the open transition shell only
    shell = (r > R + 2.0) & (r < R + 3.0)
    assert np.all(fb[~shell] == 0.0)
    assert np.any(fb[shell] != 0.0)


def test_smoothstep_pair_is_the_masked_value_and_derivative():
    # one clip gives both; the derivative used to be masked to 0 outside (0, 1)
    t = np.concatenate([np.linspace(-1.0, 2.0, 3001), [0.0, 1.0, np.nextafter(0.0, 1.0),
                                                      np.nextafter(1.0, 0.0)]])
    tc = np.clip(t, 0.0, 1.0)
    value = tc**4 * (35.0 - 84.0 * tc + 70.0 * tc * tc - 20.0 * tc**3)
    slope = np.where((t > 0.0) & (t < 1.0),
                     tc**3 * (140.0 - 420.0 * tc + 420.0 * tc * tc - 140.0 * tc**3), 0.0)
    s, ds = _smoothstep7(t)
    assert np.array_equal(s, value) and np.array_equal(ds, slope)
    assert np.array_equal(np.signbit(ds), np.signbit(slope))


def test_sphere_solver_identities():
    sph = _SphereSolver(n_theta=32, n_phi=64, lmax=20)
    # analysis of Y_10 = sqrt(3/4pi) cos(theta)
    vals = np.sqrt(3 / (4 * np.pi)) * sph.mu[:, None] * np.ones((1, sph.n_phi))
    c = sph.analyze(vals)
    assert c[0, 1] == pytest.approx(1.0, abs=1e-12)
    # the derivative rows against finite differences: in theta across rows,
    # in phi by turning the expansion, c_lm -> c_lm e^(i m eps)
    rng = np.random.default_rng(5)
    coef = np.zeros((21, 21), dtype=complex)
    for m in range(0, 3):
        for ell in range(max(1, m), 6):
            coef[m, ell] = rng.standard_normal() + 1j * rng.standard_normal()
    th = np.array([0.4, 1.1, 2.0, 2.8])
    _, dth, dph = sph.synth_rows(coef, th, 16)
    eps = 1e-6
    vp, vm = (sph.synth_rows(coef, th + s * eps, 16)[0] for s in (1, -1))
    assert np.abs((vp - vm) / (2 * eps) - dth).max() < 1e-7
    turn = np.exp(1j * eps * np.arange(21))[:, None]
    vp, vm = (sph.synth_rows(coef * turn ** s, th, 16)[0] for s in (1, -1))
    assert np.abs((vp - vm) / (2 * eps) / np.sin(th)[:, None] - dph).max() < 1e-7


def random_real_coef(rng, lmax):
    """coef[m, l] of a random real expansion: zero for l < m, real at m = 0."""
    coef = rng.standard_normal((lmax + 1, lmax + 1)) + 1j * rng.standard_normal((lmax + 1,) * 2)
    m, ell = np.indices(coef.shape)
    coef[ell < m] = 0.0
    coef[0] = coef[0].real
    return coef


def test_sphere_synthesis_matches_full_harmonic_sum():
    # the double Fourier grid's rows, theta_j = pi j / n from pole to pole by
    # 2n longitudes, against the full sum of scipy's harmonics
    from scipy.special import sph_harm_y

    lmax = 12
    n = _OVERSAMPLE * (lmax + 1)
    sph = _SphereSolver(n_theta=16, n_phi=32, lmax=lmax)
    rng = np.random.default_rng(11)
    coef = random_real_coef(rng, lmax)
    rows = np.pi * np.arange(n + 1) / n
    ph = np.pi * np.arange(2 * n) / n

    def reference(th, ph):
        # the full sum over -l <= m <= l with c_{l,-m} = (-1)^m conj(c_{l,m}):
        # value, d/dtheta and d/dphi
        th, ph = np.meshgrid(th, ph, indexing="ij")
        ref = np.zeros((3,) + th.shape, dtype=complex)
        for m in range(-lmax, lmax + 1):
            for ell in range(abs(m), lmax + 1):
                c = coef[m, ell] if m >= 0 else (-1) ** m * np.conj(coef[-m, ell])
                y, dy = sph_harm_y(ell, m, th, ph, diff_n=1)   # d/dtheta, d/dphi last
                ref += c * np.stack([y, dy[..., 0], dy[..., 1]])
        assert np.abs(ref.imag).max() < 1e-12 * np.abs(ref.real).max()
        ref = ref.real
        ref[2] /= np.sin(th)
        return ref

    got = sph.synth_rows(coef, rows, 2 * n)
    assert got.shape == (3, n + 1, 2 * n)
    ref = reference(rows[1:-1], ph)
    for k in range(3):
        assert np.abs(got[k, 1:-1] - ref[k]).max() <= 1e-12 * np.abs(ref[k]).max()
    # at the poles the value is the sum itself, and the surface gradient is
    # the limit along each meridian, by Richardson extrapolation from
    # theta = d, 2d away from the pole
    d = 1e-6
    for j, pole, inward in [(0, 0.0, 1.0), (-1, np.pi, -1.0)]:
        with np.errstate(divide="ignore", invalid="ignore"):
            value = reference(np.array([pole]), ph)[0, 0]
        assert np.abs(got[0, j] - value).max() <= 1e-12 * np.abs(value).max()
        near = [reference(np.array([pole + i * d * inward]), ph)[:, 0] for i in (1, 2)]
        limit = 2.0 * near[0] - near[1]
        for k in (1, 2):
            assert np.abs(got[k, j] - limit[k]).max() <= 1e-8 * np.abs(limit[k]).max()


def test_sphere_gradient_is_single_valued_at_the_poles():
    # read at either pole from every longitude, the Cartesian gradient is one
    # vector: the (theta, phi) frame turns with phi, the components do not
    sph = _SphereSolver(n_theta=32, n_phi=64, lmax=20)
    rng = np.random.default_rng(12)
    coef = random_real_coef(rng, 20)
    ph = rng.uniform(0.0, 2 * np.pi, 9)
    for pole in (0.0, np.pi):
        value, grad = _sphere_at(sph, coef, np.full(9, pole), ph)
        assert np.abs(value - value[0]).max() <= 1e-12 * np.abs(value).max()
        assert np.abs(grad - grad[:, :1]).max() <= 1e-12 * np.abs(grad).max()
        assert np.abs(grad[2]).max() <= 1e-12 * np.abs(grad).max()


def test_sphere_analysis_inverts_synthesis():
    sph = _SphereSolver(n_theta=32, n_phi=64, lmax=20)
    coef = random_real_coef(np.random.default_rng(3), 20)
    vals = sph.synth_rows(coef, np.arccos(sph.mu), sph.n_phi)[0]
    back = sph.analyze(vals)
    assert np.abs(back - coef).max() <= 1e-12 * np.abs(coef).max()


def test_periodic_spline_is_the_grid_wrap_prefilter():
    # the spectral prefilter of the double Fourier grid against scipy's
    # periodic one, on both axis parities
    from scipy.ndimage import spline_filter

    for shape in [(20, 36), (21, 15)]:
        values = np.random.default_rng(13).standard_normal(shape)
        ref = spline_filter(values, order=3, mode="grid-wrap")
        assert np.abs(_periodic_spline(values) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.fixture(scope="module")
def exact_on_annulus():
    """A white random mass expansion m at lmax 40, its Poisson potential Phi
    as the solver forms it, and their exact point-wise values on the 40,670
    points of D_2 at N = 128, L = 8: m and grad_S Phi, Cartesian."""
    g = Grid(3, 128, 8.0)
    _, P = annulus_points(g, 2.0)
    pr = np.sqrt(np.sum(P**2, axis=0))
    theta = np.arccos(np.clip(P[2] / pr, -1.0, 1.0))
    phi = np.mod(np.arctan2(P[1], P[0]), 2.0 * np.pi)
    sph = _SphereSolver()
    coef = random_real_coef(np.random.default_rng(40), 40)
    coef[0, 0] = 0.0
    val, dth, dph = synth_at(sph, np.stack([coef, coef / sph.eig]), theta, phi)
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    grad = np.stack([ct * cp * dth[1] - sp * dph[1], ct * sp * dth[1] + cp * dph[1],
                     -st * dth[1]])
    return sph, coef, theta, phi, val[0], grad


def double_fourier_errors(exact, over):
    """Largest errors of m and grad_S Phi read off the double Fourier grid, as
    shares of their maxima."""
    sph, coef, theta, phi, m_ref, grad_ref = exact
    m, grad = _sphere_at(sph, coef, theta, phi, over=over)
    return (np.abs(m - m_ref).max() / np.abs(m_ref).max(),
            np.abs(grad - grad_ref).max() / np.abs(grad_ref).max())


def test_double_fourier_points_within_error_budget(exact_on_annulus):
    # the module docstring's budget at oversampling 4: 5e-4 of the maximum
    # (measured 3.1e-4 for m and 1.5e-4 for grad_S Phi)
    assert _OVERSAMPLE == 4
    assert max(double_fourier_errors(exact_on_annulus, _OVERSAMPLE)) <= 5e-4


def test_double_fourier_error_is_fourth_order(exact_on_annulus):
    # a cubic spline's error falls 16x when the grid step halves (measured
    # 16x for m and 18x for grad_S Phi)
    coarse = double_fourier_errors(exact_on_annulus, 4)
    fine = double_fourier_errors(exact_on_annulus, 8)
    for c, f in zip(coarse, fine):
        assert f <= c / 10.0


def annulus_points(grid, R):
    """The annulus mask and its points, components first, as bogovskii_apply takes them."""
    r = np.sqrt(grid.radius_sq())
    inside = (r > R) & (r < R + 1.0)
    return inside, grid.axis[np.stack(np.nonzero(inside))]


def test_annulus_points_by_index_are_the_dense_mask_gather():
    # bogovskii_apply reads its points as grid.axis[nonzero(inside)]: the
    # values and the C order of the mask gather from dense coordinate arrays
    g = Grid(3, 128, 8.0)
    inside, P = annulus_points(g, 2.0)
    dense = np.meshgrid(*([g.axis] * 3), indexing="ij")
    assert np.array_equal(P, np.stack([x[inside] for x in dense]))


def sampler_points(grid, R):
    """Every point bogovskii_apply samples: sphere-grid rays and annulus rays."""
    sph = _SphereSolver()
    rho = R + 0.5 * (np.polynomial.legendre.leggauss(24)[0] + 1.0)
    st = sph.sin_t[:, None]
    dirs = np.stack(np.broadcast_arrays(st * np.cos(sph.phi), st * np.sin(sph.phi),
                                        sph.mu[:, None]))
    _, P = annulus_points(grid, R)
    pr = np.sqrt(np.sum(P**2, axis=0))
    rho_p = R + (pr - R) * (rho[:, None] - R)
    return [(rho[:, None, None] * dirs[:, None]).reshape(3, -1),
            (rho_p * (P / pr)[:, None]).reshape(3, -1)]


def spline_filter_samples(f, points):
    """The sampler's values from the plain refinement and scipy's periodic
    cubic-spline prefilter over the whole refined grid."""
    from scipy.ndimage import map_coordinates, spline_filter

    fine = refine_field(f)
    coeffs = spline_filter(fine.data, order=3, mode="grid-wrap")
    return map_coordinates(coeffs, (points + fine.grid.L) / fine.grid.h, order=3,
                           mode="grid-wrap", prefilter=False)


def check_sampler(g, R, side):
    """The sampler of D_R's ball has side fine samples per axis, its
    coefficients are that window of the whole period's, and its values are
    those of scipy's prefilter to rounding."""
    f = random_smooth_field(g, 17)
    sampler = _FieldSampler(f, R + 1.0)
    assert sampler.coeffs.shape == (side,) * 3
    window = np.arange(sampler.lo, sampler.lo + side) % (2 * g.N)
    whole = _spline_refinement(f.data, slice(None))
    assert np.array_equal(sampler.coeffs, whole[np.ix_(window, window, window)])
    for points in sampler_points(g, R):
        ref = spline_filter_samples(f, points)
        assert np.abs(sampler(points) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_windowed_sampler_matches_full_grid():
    # the ball's index box plus two fine samples per side: 37 of 128 fine
    # samples per axis at N = 64, L = 16; at L = 8 (extend's inner annulus)
    # 69 of 128, 37 of 64 and 21 of 32
    for N, L, side in [(64, 16.0, 37), (64, 8.0, 69), (32, 8.0, 37), (16, 8.0, 21)]:
        check_sampler(Grid(3, N, L), 3.0, side)


def test_sampler_without_room_for_a_window_is_the_full_grid_path():
    # the ball reaches within two fine samples of the cube's faces, so the
    # window wraps round the period: 33 of 32 fine samples per axis at
    # N = 16 and 19 of 16 at N = 8 (L = 8, R = 6)
    for N, side in [(16, 33), (8, 19)]:
        check_sampler(Grid(3, N, 8.0), 6.0, side)


def full_grid_builders(g, R, R_ext, u0):
    """annulus_dipole(g, R), shell_potential(g, R_ext) and _cut_off(u0, R_ext)
    by their formulas over every grid point."""
    r = np.sqrt(g.radius_sq())
    (X, Y, Z), u = g.coords(), u0.data
    t = np.clip((r - (R + 0.5)) / 0.35, -1.0, 1.0)
    ds = -8.0 * t * (1.0 - t * t) ** 3 / 0.35
    dipole = ds * X / np.maximum(r, 1e-300)
    t = np.clip(r - (R_ext + 2.0), -1.0, 1.0)
    prof = (1.0 - t * t) ** 3
    potential = np.stack([-Y * prof, X * prof, np.zeros_like(prof)])
    s, ds = _smoothstep7(r - (R_ext + 2.0))
    dp = -ds / np.where(r > 0, r, 1.0)
    fb = dp * X * u[0] + dp * Y * u[1] + dp * Z * u[2]
    return dipole, potential, 1.0 - s, fb


@pytest.mark.parametrize("N, L, R, R_ext", [
    (64, 8.0, 2.0, 1.0), (128, 8.0, 2.0, 1.0), (100, 7.3, 2.0, 1.0),
    (20, 6.4, 3.63, 1.0), (20, 6.0, 2.0, 0.8),
])
def test_shell_builders_are_the_full_grid_formulas(N, L, R, R_ext):
    # the profiles are evaluated on their shells only; every sample, the
    # grid points on the shells' edges included, is the full-grid one.  On
    # the last two grids a sample with |t| < 1 has |x|^2 just outside the
    # shell's radii squared (the dipole's at R = 3.63, the potential's at
    # R = 0.8), which the mask's widening keeps
    g = Grid(3, N, L)
    u0 = random_smooth_field(g, 5, components=3)
    dipole, potential, phi, fb = full_grid_builders(g, R, R_ext, u0)
    assert np.array_equal(annulus_dipole(g, R).data, dipole)
    assert np.array_equal(shell_potential(g, R_ext).data, potential)
    got_phi, got_fb = _cut_off(u0, R_ext)
    assert np.array_equal(got_phi, phi) and np.array_equal(got_fb, fb)


def test_streamed_ray_integral_is_the_stacked_quadrature():
    # node by node in Gauss order, against all 24 nodes' samples stacked:
    # a scalar end radius on the sphere grid, per-point radii at the annulus
    g = Grid(3, 32, 8.0)
    R = 2.0
    sample_f = _FieldSampler(random_smooth_field(g, 21), R + 1.0)
    sph = _SphereSolver()
    st = sph.sin_t[:, None]
    dirs = np.stack(np.broadcast_arrays(st * np.cos(sph.phi), st * np.sin(sph.phi),
                                        sph.mu[:, None]))
    assert np.array_equal(_ray_integral(sample_f, R, R + 1.0, dirs),
                          batched.ray_integral(sample_f, R, R + 1.0, dirs))
    _, P = annulus_points(g, R)
    pr = np.sqrt(np.sum(P**2, axis=0))
    assert np.array_equal(_ray_integral(sample_f, R, pr, P / pr),
                          batched.ray_integral(sample_f, R, pr, P / pr))


def test_slab_refinement_is_the_whole_axis_refinement():
    # a window inside the period, one that wraps round it, and the whole period
    for N, L, R, seed in [(32, 8.0, 2.0, 22), (16, 8.0, 6.0, 23), (24, 5.0, 1.0, 24)]:
        g = Grid(3, N, L)
        f = random_smooth_field(g, seed)
        lo = _FieldSampler(f, R + 1.0).lo
        for window in (np.arange(lo, 2 * N - lo + 1) % (2 * N), slice(None)):
            assert np.array_equal(_spline_refinement(f.data, window),
                                  batched.spline_refinement(f.data, window))


@pytest.mark.parametrize("name, bound", [("bogovskii_apply", 1.6),
                                         ("solenoidal_extension", 2.6)])
def test_exterior_tools_stream_their_full_grid_temporaries(name, bound):
    # peaks in units of one vector field at N = 64 (extend's grid at half
    # size): the batched code measured 2.35 and 4.53, the streamed 1.42 and 2.38
    g = Grid(3, 64, 8.0)
    f = annulus_dipole(g, 2.0)
    u0 = curl(shell_potential(g, 1.0))
    call = {"bogovskii_apply": lambda: bogovskii_apply(f, 2.0),
            "solenoidal_extension": lambda: solenoidal_extension(u0, 1.0)}[name]
    assert traced_peak(call, u0.data.nbytes) <= bound


def test_bogovskii_zero_input():
    g = Grid(3, 32, 8.0)
    out = bogovskii_apply(Field(g, np.zeros(g.shape)), 2.0)
    assert np.all(out.data == 0.0)


def test_bogovskii_radial_oracle():
    g = Grid(3, 64, 8.0)
    f, exact = radial_test_data(g)
    B = bogovskii_apply(f, 2.0, mean_rtol=0.5 * g.h)
    err = np.sqrt(np.sum((B.data - exact) ** 2) / np.sum(exact**2))
    assert err < 0.2


def test_bogovskii_divergence_and_support():
    g = Grid(3, 64, 8.0)
    R = 2.0
    f = annulus_dipole(g, R)
    B = bogovskii_apply(f, R)
    assert divergence_defect(B, f) < 0.45
    r = np.sqrt(g.radius_sq())
    outside = (r <= R) | (r >= R + 1.0)
    assert np.all(B.data[:, outside] == 0.0)


def test_bogovskii_rejects_nonzero_mean():
    g = Grid(3, 32, 8.0)
    r = np.sqrt(g.radius_sq())
    data = np.where((r > 2.0) & (r < 3.0), 1.0, 0.0)
    with pytest.raises(ValueError, match="mean"):
        bogovskii_apply(Field(g, data), 2.0)


def test_bogovskii_rejects_misplaced_support():
    g = Grid(3, 32, 8.0)
    r = np.sqrt(g.radius_sq())
    data = np.where(r < 1.0, 1.0, 0.0)
    data -= data.mean()
    with pytest.raises(ValueError, match="vanish"):
        bogovskii_apply(Field(g, data), 2.0)


def test_bogovskii_annulus_is_open_at_both_radii():
    # h = 0.5, so index 16 + 2x is the coordinate x: the grid points
    # (2, 0, 0) and (3, 0, 0) lie on |x| = R and |x| = R + 1 exactly,
    # outside the open annulus; (2.5, 0, 0) lies inside
    g = Grid(3, 32, 8.0)
    for edge in (20, 22):
        data = np.zeros(g.shape)
        data[edge, 16, 16] = 1.0
        data[21, 16, 16] = -1.0
        with pytest.raises(ValueError, match="vanish"):
            bogovskii_apply(Field(g, data), 2.0)


def test_bogovskii_rejects_vector_input():
    g = Grid(3, 32, 8.0)
    with pytest.raises(ValueError):
        bogovskii_apply(Field(g, np.zeros((3,) + g.shape)), 2.0)


def test_bogovskii_negative_order_identity():
    # applying the solver to div g for compactly supported g stays L^2-bounded
    g = Grid(3, 64, 8.0)
    r = np.sqrt(g.radius_sq())
    t = (r - 2.5) / 0.35
    bump = np.where(np.abs(t) < 1, (1 - t * t) ** 4, 0.0)
    f = annulus_dipole(g, 2.0)      # equals div(bump e1)
    B = bogovskii_apply(f, 2.0)
    ratio = integrate(B, 2) / np.sqrt(np.sum(bump**2) * g.cell_volume)
    assert ratio < 1.5


def test_bogovskii_w12_bound_stable():
    from stokeslab.grid import gradient

    vals = []
    for N in (48, 96):
        g = Grid(3, N, 8.0)
        f = annulus_dipole(g, 2.0)
        B = bogovskii_apply(f, 2.0)
        grad_sq = sum(integrate(gradient(Field(g, B.data[j])), 2) ** 2 for j in range(3))
        w12 = np.sqrt(integrate(B, 2) ** 2 + grad_sq)
        vals.append(w12 / integrate(f, 2))
    assert abs(vals[1] / vals[0] - 1.0) < 0.15


# bogovskii_apply's identities over draws of grid and input: a few solves
# each, derandomized so that a run is reproducible
SOLVER_PROPERTY = settings(max_examples=3, deadline=None, derandomize=True, database=None)
annulus_draws = st.tuples(st.sampled_from([32, 48]), st.integers(0, 2**32 - 1))


def random_annulus_data(g, rng, R=2.0):
    """A mean-zero random field times the bump (1 - t^2)^4 of annulus_dipole:
    supported strictly inside D_R, with no symmetry."""
    t = np.clip((np.sqrt(g.radius_sq()) - (R + 0.5)) / 0.35, -1.0, 1.0)
    bump = (1.0 - t * t) ** 4
    data = rng.standard_normal(g.shape) * bump
    data -= bump * (np.sum(data) / np.sum(bump))
    return Field(g, data)


@SOLVER_PROPERTY
@given(annulus_draws)
def test_bogovskii_is_linear(draw):
    N, seed = draw
    g, rng = Grid(3, N, 6.0), np.random.default_rng(seed)
    f, h = random_annulus_data(g, rng), random_annulus_data(g, rng)
    a, b = rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
    Bf, Bh = bogovskii_apply(f, 2.0).data, bogovskii_apply(h, 2.0).data
    combined = bogovskii_apply(Field(g, a * f.data + b * h.data), 2.0).data
    scale = max(abs(a) * np.abs(Bf).max(), abs(b) * np.abs(Bh).max())
    assert np.abs(combined - (a * Bf + b * Bh)).max() <= 1e-13 * scale


@SOLVER_PROPERTY
@given(annulus_draws)
def test_bogovskii_is_equivariant_under_z_reflection(draw):
    # z -> -z takes grid index k to N - k (mod N) and the sphere grid to
    # itself; B of the reflected input is the reflected B, its z-component
    # negated
    N, seed = draw
    g = Grid(3, N, 6.0)
    f = random_annulus_data(g, np.random.default_rng(seed))

    def reflect(data):
        return np.roll(data[..., ::-1], 1, axis=-1)

    B = bogovskii_apply(f, 2.0).data
    expected = reflect(B) * np.array([1.0, 1.0, -1.0])[:, None, None, None]
    B_reflected = bogovskii_apply(Field(g, reflect(f.data)), 2.0).data
    assert np.abs(B_reflected - expected).max() <= 1e-13 * np.abs(B).max()


@SOLVER_PROPERTY
@given(annulus_draws)
def test_bogovskii_is_equivariant_under_quarter_turn_about_z(draw):
    # (x, y) -> (-y, x) takes the sample at index (j, N - j', k) to (j', j, k)
    # (indices mod N) and the sphere grid to itself; B of the rotated input
    # is B rotated as a vector
    N, seed = draw
    g = Grid(3, N, 6.0)
    f = random_annulus_data(g, np.random.default_rng(seed))

    def rotate(data):
        return np.swapaxes(np.roll(data[..., :, ::-1, :], 1, axis=-2), -3, -2)

    B = bogovskii_apply(f, 2.0).data
    expected = np.stack([-rotate(B[1]), rotate(B[0]), rotate(B[2])])
    B_rotated = bogovskii_apply(Field(g, rotate(f.data)), 2.0).data
    assert np.abs(B_rotated - expected).max() <= 1e-13 * np.abs(B).max()


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(annulus_draws, st.floats(0.5, 2.5), st.floats(0.0, 3.0))
def test_support_and_far_field_are_exact(draw, R, extra):
    # B vanishes exactly off the closed annulus, and the extension equals u0
    # exactly for |x| >= R + 3, over draws of grid, radius and data
    N, seed = draw
    g = Grid(3, N, R + 4.0 + extra)
    r = np.sqrt(g.radius_sq())
    B = bogovskii_apply(random_annulus_data(g, np.random.default_rng(seed), R), R)
    assert np.any(B.data != 0.0)
    assert np.all(B.data[:, (r <= R) | (r >= R + 1.0)] == 0.0)
    u0 = curl(random_smooth_field(g, seed, components=3))
    v0, _ = solenoidal_extension(u0, R)
    far = r >= R + 3.0
    assert np.array_equal(v0.data[:, far], u0.data[:, far])


def test_extension_far_field_identity():
    # data supported beyond |x| = R+3 passes through bitwise
    g = Grid(3, 48, 12.0)
    R = 2.0
    r = np.sqrt(g.radius_sq())
    t = (r - 6.5) / 1.0
    prof = np.where(np.abs(t) < 1, (1 - t * t) ** 3, 0.0)
    X, Y, _ = g.coords()
    A = np.stack([-Y * prof, X * prof, np.zeros(g.shape)])
    u0 = Field(g, fft_reference.curl(g, A))
    v0, _ = solenoidal_extension(u0, R)
    far = r >= R + 3.0
    assert np.array_equal(v0.data[:, far], u0.data[:, far])
    # inside, only the spectral ringing of the compactly supported data remains
    inside = r <= R + 2.0
    assert np.abs(v0.data[:, inside]).max() < 1e-4 * np.abs(u0.data).max()


def test_extension_divergence_refines():
    R = 1.0
    defects = []
    for N in (48, 96):
        g = Grid(3, N, 8.0)
        u0 = Field(g, fft_reference.curl(g, shell_potential(g, R).data))
        _, info = solenoidal_extension(u0, R)
        defects.append(info["div_v0_rel"])
    assert defects[1] <= 0.6 * defects[0]


def test_extend_meets_the_benchmark_gate():
    # the benchmark's annulus gate also bounds extend's div_v0_rel at N = 128,
    # which criterion 6 does not (it checks the 128/64 ratio); the input is
    # the CLI's, the package's curl of shell_potential.  It reads 0.0899
    g = Grid(3, 128, 8.0)
    _, info = solenoidal_extension(curl(shell_potential(g, 1.0)), 1.0)
    assert info["div_v0_rel"] <= 0.1


def test_extension_rejects_nonsolenoidal():
    g = Grid(3, 32, 8.0)
    r = np.sqrt(g.radius_sq())
    data = np.stack([np.exp(-((r - 4.0) ** 2)), np.zeros(g.shape), np.zeros(g.shape)])
    with pytest.raises(ValueError, match="solenoidal"):
        solenoidal_extension(Field(g, data), 1.0)


def test_vanishing_data_has_no_relative_defect():
    # on a coarse wide grid no sample falls in the annulus, so the data are 0
    g = Grid(3, 8, 100.0)
    f = annulus_dipole(g, 2.0)
    assert np.all(f.data == 0.0)
    B = bogovskii_apply(f, 2.0)
    with pytest.raises(ValueError, match="vanishes"):
        divergence_defect(B, f)
    with pytest.raises(ValueError, match="vanishes"):
        solenoidal_extension(Field(g, np.zeros((3,) + g.shape)), 1.0)


def test_extension_weighted_inflation():
    g = Grid(3, 64, 8.0)
    R = 1.0
    u0 = Field(g, fft_reference.curl(g, shell_potential(g, R).data))
    v0, _ = solenoidal_extension(u0, R)
    w = (1.0 + g.radius_sq()) ** 0.5
    nv = np.sqrt(np.sum((v0.magnitude() * w) ** 2) * g.cell_volume)
    nu = np.sqrt(np.sum((u0.magnitude() * w) ** 2) * g.cell_volume)
    assert nv / nu <= 3.0
