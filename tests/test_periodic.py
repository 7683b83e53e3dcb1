import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stokeslab.grid import Field, Grid, gradient, integrate
from stokeslab.corpus import random_smooth_field
from stokeslab.semigroup import decay_harness, leray_project
from stokeslab import periodic
from stokeslab.periodic import (
    ContractionError,
    PeriodicForce,
    periodicity_check,
    picard_solve,
    random_solenoidal_force,
    single_mode_force,
    weighted_report,
    _PAIRS,
    _SLOT,
    _advection,
    _advection_table,
    _integrand,
    _resolve_periodic,
)

import fft_reference

T = 2.0 * math.pi


def small_grid():
    return Grid(3, 32, 16.0)


def test_force_is_exactly_periodic():
    force = random_solenoidal_force(T, seed=1, amplitude=0.5)
    # the time factor goes through t mod T, so reduced arguments agree bitwise
    assert force.factor(0.3) == force.factor(0.3 % T)
    # shifted by whole periods the argument only drifts at roundoff level
    a = force.factor(0.3)
    b = force.factor(0.3 + 5 * T)
    assert abs(a - b) <= 1e-13 * abs(a)


def test_force_amplitude_scales_norms():
    sp = small_grid().spectral()
    force = single_mode_force(T, amplitude=1.0)
    doubled = dataclasses.replace(force, amplitude=2.0)
    # the integrand at t = 0 (time factor 1) is the forcing spectrum alone
    assert np.array_equal(_integrand(doubled, sp, True)(None, 0.0),
                          2.0 * _integrand(force, sp, True)(None, 0.0))


def test_picard_config_validation():
    # the settings are refused before the force's profile is ever evaluated
    force = PeriodicForce(T=T, profile=None)
    with pytest.raises(ValueError, match="node count M must be even and >= 8"):
        picard_solve(force, small_grid(), M=6)
    with pytest.raises(ValueError, match="node count M must be even and >= 8"):
        picard_solve(force, small_grid(), M=9)
    with pytest.raises(ValueError, match="tolerance must be positive and finite, got 0.0"):
        picard_solve(force, small_grid(), tol=0.0)
    with pytest.raises(ValueError, match="iteration cap max_iter must be >= 1, got 0"):
        picard_solve(force, small_grid(), max_iter=0)
    # ahead of the period checks: T (M - 1) overflows here too
    with pytest.raises(ValueError, match="tolerance"):
        picard_solve(PeriodicForce(T=1e10, profile=None), small_grid(), M=10**300, tol=0.0)
    with pytest.raises(ValueError, match="too long"):
        picard_solve(PeriodicForce(T=1e10, profile=None), small_grid(), M=10**300)
    with pytest.raises(ValueError):
        PeriodicForce(T=0.0, profile=None)


# The advection term -P(u . grad u), 2/3-rule de-aliased, as samples:
# sp.inverse_band(_advection(sp, _advection_table(sp), u))


def test_nonlinearity_zero():
    g = small_grid()
    sp = g.spectral()
    out = sp.inverse_band(_advection(sp, _advection_table(sp), np.zeros((3,) + g.shape)))
    assert np.all(out == 0.0)


@pytest.mark.parametrize("N", [16, 32, 48])
def test_advection_table_is_the_explicit_projector_formula(N):
    # the table takes its projector from Spectral.project; against
    # P_il = delta_il - k_i k_l / |k|^2 (zero at k = 0) written out
    sp = Grid(3, N, 7.3).spectral()
    k, ksq = sp.band_k, sp.band_ksq
    inv = np.divide(1.0, ksq, out=np.zeros_like(ksq), where=ksq > 0.0)
    want = np.zeros((3, len(_PAIRS)) + ksq.shape)
    for i in range(3):
        for l, slots in enumerate(_SLOT):
            for kj, p in zip(k, slots):
                want[i, p] += (float(i == l) - k[i] * k[l] * inv) * kj
    want = np.repeat(want, 2, axis=-1)
    got = _advection_table(sp)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_nonlinearity_mode_arithmetic():
    # two solenoidal cosine modes: the advection lives on sums/differences of
    # the wavevectors; the zero mode is removed by the projection convention
    g = small_grid()
    k0 = 2 * np.pi / (2 * g.L)
    X, Y, Z = g.coords()
    data = np.zeros((3,) + g.shape)
    data[0] = np.cos(2 * k0 * Z)
    data[1] = np.cos(3 * k0 * X)
    sp = g.spectral()
    B = sp.inverse_band(_advection(sp, _advection_table(sp), data))
    Bh = np.fft.fftn(B, axes=(1, 2, 3))
    peak0 = np.abs(Bh).max()
    assert abs(Bh[:, 0, 0, 0]).max() <= 1e-16 * peak0
    allowed = np.zeros(g.shape, dtype=bool)
    for ix in (-3, 3, 0):
        for iz in (-2, 2, 0):
            allowed[ix, 0, iz] = True
    peak = np.abs(Bh).max()
    assert peak > 0
    assert np.abs(Bh[:, ~allowed]).max() <= 1e-10 * peak


def test_nonlinearity_output_solenoidal_and_mean_zero():
    from stokeslab.grid import divergence

    g = small_grid()
    sp = g.spectral()
    u = leray_project(random_smooth_field(g, 6, components=3))
    B = Field(g, sp.inverse_band(_advection(sp, _advection_table(sp), u.data)))
    assert B.data.mean() == pytest.approx(0.0, abs=1e-16)
    scale = np.sqrt(sum(integrate(gradient(Field(g, B.data[j])), 2) ** 2 for j in range(3)))
    assert integrate(divergence(B), 2) <= 1e-10 * scale


def test_nonlinearity_weighted_hoelder_bound():
    # |u . grad u| <= |u| |grad u| pointwise makes the weighted product bound
    # exact on the grid; the projected term is recorded against the corpus max
    g = small_grid()
    sp = g.spectral()
    s = 0.5
    for seed in (1, 2, 3):
        u = leray_project(random_smooth_field(g, seed, components=3))
        B = Field(g, sp.inverse_band(_advection(sp, _advection_table(sp), u.data)))
        nu = integrate(u, 2.0, s)
        grmag = np.sqrt(
            sum(gradient(Field(g, u.data[j])).magnitude() ** 2 for j in range(3))
        )
        ngr = integrate(Field(g, grmag), 2.0, s)
        w = (1.0 + g.radius_sq()) ** s
        raw = np.zeros(g.shape)
        for i in range(3):
            acc = np.zeros(g.shape)
            for j in range(3):
                acc += u.data[j] * gradient(Field(g, u.data[i])).data[j]
            raw += acc**2
        n_raw = np.sum(np.sqrt(raw) * w) * g.cell_volume
        n_proj = np.sum(B.magnitude() * w) * g.cell_volume
        assert n_raw <= nu * ngr * (1 + 1e-12)
        assert n_proj <= 2.5 * nu * ngr


def test_zero_force_fixed_point():
    g = small_grid()
    force = single_mode_force(T, amplitude=0.0)
    sol = picard_solve(force, g, M=8)
    assert sol.converged
    assert sol.iterations == 1
    assert np.all(sol.snapshots == 0.0)


@pytest.mark.parametrize("period, rtol", [
    pytest.param(2.0 * math.pi, 1e-13, id="T-2pi"),
    pytest.param(1e-5, 1e-8, id="T-1e-5"),
])
def test_linear_single_mode_matches_ode_solution(period, rtol):
    # a single harmonic is its own node interpolant, so the resolve gives the
    # closed-form damped-oscillator response at every node, at any period
    g = small_grid()
    sol = picard_solve(single_mode_force(period), g, M=16, linear_only=True)
    kappa = (math.pi / g.L) ** 2
    omega = 2 * math.pi / period
    k1 = 2 * math.pi / (2 * g.L)
    x3 = g.coords()[2]
    amp = 1.0 / math.hypot(kappa, omega)
    for m, t in enumerate(sol.node_times):
        exact = np.zeros((3,) + g.shape)
        exact[0] = np.cos(k1 * x3) * (kappa * math.cos(omega * t)
                                      + omega * math.sin(omega * t)) / (kappa**2 + omega**2)
        assert np.abs(sol.snapshots[m] - exact).max() <= rtol * amp


def test_poincare_map_translation_equivariance():
    # shifting the forcing by T/2 shifts the node values by M/2 slots exactly;
    # the shift turns cos(2 pi t / T) into its negative, i.e. amplitude -1.
    # One Picard iteration from u = 0 applies the map once: H[0]
    g = small_grid()
    cfg = dict(M=16, tol=1.0, max_iter=1, linear_only=True)
    base = single_mode_force(T)
    shifted = dataclasses.replace(base, amplitude=-1.0)
    out_base = picard_solve(base, g, **cfg).snapshots
    out_shift = picard_solve(shifted, g, **cfg).snapshots
    rolled = np.roll(out_base, -cfg["M"] // 2, axis=0)
    assert np.abs(out_shift - rolled).max() <= 1e-12 * np.abs(out_base).max()


def test_node_refinement_converges_for_nonharmonic_forcing():
    # time profile exp(sin(w t)) has a full harmonic series; the node error
    # against the harmonic-series solution must at least halve when M doubles.
    # The forcing is not of the cos(w t) form, so its node data goes straight
    # to the history-integral resolve.
    g = Grid(3, 16, 16.0)
    sp = g.spectral()
    omega = 2 * math.pi / T
    k1 = 2 * math.pi / (2 * g.L)
    kappa = (math.pi / g.L) ** 2
    x3 = np.cos(k1 * g.coords()[2])
    # oracle: harmonic expansion of exp(sin), resolved far beyond both M values
    nh = 128
    tt = T * np.arange(nh) / nh
    ck = np.fft.fft(np.exp(np.sin(omega * tt))) / nh
    freqs = np.fft.fftfreq(nh, d=1.0 / nh)

    def exact_profile(t):
        resp = ck / (kappa + 1j * freqs * omega)
        return float(np.sum(resp * np.exp(1j * freqs * omega * t)).real)

    errs = []
    for M in (8, 16):
        times = T * np.arange(M) / M
        data = np.zeros((M, 3) + g.shape)
        for m, t in enumerate(times):
            data[m, 0] = x3 * math.exp(math.sin(omega * t))
        nodes = sp.inverse_band(_resolve_periodic(sp.forward_band(data), sp, T))
        err = max(
            np.abs(nodes[m][0] - exact_profile(t) * x3).max()
            for m, t in enumerate(times)
        )
        errs.append(err)
    assert errs[1] <= 0.5 * errs[0] + 1e-14


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_nyquist_node_mode_resolves_as_cosine(axis):
    # node data (-1)^m is cos(Omega t) at Omega = pi M / T, whose history
    # integral at the nodes is kappa / (kappa^2 + Omega^2) times the data in
    # every orientation of the spatial mode
    g = small_grid()
    sp = g.spectral()
    M = 16
    omega = math.pi * M / T
    k = math.pi / g.L
    kappa = k**2
    data = np.zeros((M, 3) + g.shape)
    for m in range(M):
        data[m, (axis + 1) % 3] = (-1) ** m * np.cos(k * g.coords()[axis])
    nodes = sp.inverse_band(_resolve_periodic(sp.forward_band(data), sp, T))
    expected = kappa / (kappa**2 + omega**2) * data
    assert np.abs(nodes - expected).max() <= 1e-12 * np.abs(expected).max()


def test_outside_contraction_regime_raises():
    g = small_grid()
    force = random_solenoidal_force(T, seed=42, amplitude=2000.0)
    with pytest.raises(ContractionError) as err:
        picard_solve(force, g, M=8, tol=1e-8, max_iter=30)
    assert err.value.growth_factor > 0


def test_non_finite_residual_raises():
    force = random_solenoidal_force(T, seed=42, amplitude=1e200)
    with pytest.raises(ContractionError, match="not finite") as err:
        picard_solve(force, small_grid(), M=8, tol=1e-8, max_iter=30)
    assert len(err.value.history) <= 2


def test_nonlinear_solve_contracts_and_is_solenoidal():
    from stokeslab.grid import divergence

    g = small_grid()
    force = random_solenoidal_force(T, seed=42, amplitude=0.02)
    sol = picard_solve(force, g, M=8, tol=1e-8, max_iter=30)
    assert sol.converged
    assert sol.iterations <= 20
    hist = sol.residual_history
    assert all(hist[i + 1] < hist[i] for i in range(1, len(hist) - 1))
    for m in range(8):
        u = sol.snapshot(m)
        assert u.data.mean() == pytest.approx(0.0, abs=1e-15)
        scale = np.sqrt(
            sum(integrate(gradient(Field(g, u.data[j])), 2) ** 2 for j in range(3))
        )
        if scale > 0:
            assert integrate(divergence(u), 2) <= 1e-8 * scale


def test_nonlinear_contraction_factor_below_half():
    g = small_grid()
    force = random_solenoidal_force(T, seed=42, amplitude=0.02)
    sol = picard_solve(force, g, M=8, tol=1e-10, max_iter=30)
    hist = sol.residual_history
    assert all(hist[i + 1] <= 0.5 * hist[i] for i in range(len(hist) - 1))


def test_periodicity_check_zero_solution():
    g = small_grid()
    force = single_mode_force(T, amplitude=0.0)
    sol = picard_solve(force, g, M=8)
    assert periodicity_check(sol, steps=32) == 0.0


def test_periodicity_check_linear_single_mode():
    g = small_grid()
    force = single_mode_force(T)
    sol = picard_solve(force, g, M=16, tol=1e-10, max_iter=5, linear_only=True)
    assert periodicity_check(sol, steps=512) <= 1e-6


def test_periodicity_defect_counts_u0_outside_the_band():
    # forcing and advection live on the 2/3 band, so the march never touches
    # the rest of u(0): a start with no band content returns nothing of it
    g = Grid(3, 16, 16.0)
    force = single_mode_force(T, amplitude=0.0)
    sol = picard_solve(force, g, M=8)
    k = 6 * math.pi / g.L               # index 6 >= 16/3, outside the band
    sol.snapshots[0, 0] = 1e-3 * np.cos(k * g.coords()[2])
    assert periodicity_check(sol, steps=4) == pytest.approx(1.0, rel=1e-12)


def test_periodicity_check_rejects_nonsolenoidal_start():
    g = Grid(3, 16, 16.0)
    force = single_mode_force(T, amplitude=0.0)
    sol = picard_solve(force, g, M=8)
    # a gradient field is as far from solenoidal as a field can be
    phi = random_smooth_field(g, seed=3, components=1)
    sol.snapshots[0] = gradient(phi).data
    with pytest.raises(ValueError, match="not solenoidal"):
        periodicity_check(sol, steps=4)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([12, 16, 20]), st.sampled_from([8, 12, 16]), st.floats(1.0, 10.0),
       st.floats(4.0, 16.0), st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
def test_picard_fixed_point_returns_under_etdrk4(N, M, period, L, eps, seed):
    # over random grids, node counts, periods and forces, the fixed point
    # returns to itself under the independent ETDRK4 march of one period;
    # 64 steps leave ETDRK4's own fourth-order error near 1e-7
    force = random_solenoidal_force(period, seed, amplitude=eps)
    sol = picard_solve(force, Grid(3, N, L), M=M)
    assert sol.converged
    assert periodicity_check(sol, steps=64) <= 1e-6


def _per_stage_march(sol, steps):
    """Reference ETDRK4 march on the full complex grid: it transforms, masks
    and projects the forcing amplitude cos(2 pi t / T) profile at all four
    stage times of every step, and takes the advection term from the
    advective-form reference; returns the periodicity defect."""
    g, force = sol.grid, sol.force
    omega = 2.0 * math.pi / force.T
    profile = force.profile(g).data
    mask = fft_reference.dealias_mask(g)
    fftn = lambda a: np.fft.fftn(a, axes=(1, 2, 3))
    dt = force.T / steps
    Ldt = -sum(k**2 for k in fft_reference.wavenumbers(g)) * dt
    zc = Ldt[..., None] + np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    E, E2 = np.exp(Ldt), np.exp(Ldt / 2.0)
    zeta = dt * ((np.exp(zc / 2.0) - 1.0) / zc).mean(axis=-1)
    alph = dt * ((-4.0 - zc + np.exp(zc) * (4.0 - 3.0 * zc + zc**2)) / zc**3).mean(axis=-1)
    beta = dt * ((2.0 + zc + np.exp(zc) * (-2.0 + zc)) / zc**3).mean(axis=-1)
    gamm = dt * ((-4.0 - 3.0 * zc - zc**2 + np.exp(zc) * (4.0 - zc)) / zc**3).mean(axis=-1)

    def rhs(uh, t):
        f = fftn(force.amplitude * math.cos(omega * (t % force.T)) * profile) * mask
        u = np.fft.ifftn(uh, axes=(1, 2, 3)).real
        return fft_reference.leray(g, f) + fftn(fft_reference.advection(g, u))

    start = uh = fftn(sol.snapshots[0])
    t = 0.0
    for _ in range(steps):
        N1 = rhs(uh, t)
        a = E2 * uh + zeta * N1
        N2 = rhs(a, t + dt / 2.0)
        b = E2 * uh + zeta * N2
        N3 = rhs(b, t + dt / 2.0)
        c = E2 * a + zeta * (2.0 * N3 - N1)
        N4 = rhs(c, t + dt)
        uh = E * uh + alph * N1 + 2.0 * beta * (N2 + N3) + gamm * N4
        t += dt
    return np.linalg.norm(uh - start) / np.linalg.norm(start)


def _counting(force):
    """The force with a profile that records each grid it is evaluated on."""
    calls = []

    def profile(grid):
        calls.append(grid)
        return force.profile(grid)

    return dataclasses.replace(force, profile=profile), calls


def test_periodicity_check_one_profile_evaluation():
    g = Grid(3, 16, 16.0)
    base = random_solenoidal_force(T, seed=42, amplitude=0.5)
    force, calls = _counting(base)
    sol = picard_solve(base, g, M=8, tol=1e-10, max_iter=30)
    steps = 12
    defect = periodicity_check(dataclasses.replace(sol, force=force), steps=steps)
    assert len(calls) == 1
    ref = _per_stage_march(sol, steps)
    assert abs(defect - ref) <= 1e-12 * ref


def test_each_entry_point_evaluates_the_profile_once():
    g = Grid(3, 16, 16.0)
    force, calls = _counting(random_solenoidal_force(T, seed=42, amplitude=0.5))
    sol = picard_solve(force, g, M=8, tol=1e-10, max_iter=30)
    assert len(calls) == 1
    periodicity_check(sol, steps=4)
    assert len(calls) == 2
    weighted_report(sol, 2.0, 2.0, 1.0)
    assert len(calls) == 3


def test_advection_table_is_built_once_per_solve(monkeypatch):
    builds = []
    build = periodic._advection_table
    monkeypatch.setattr(periodic, "_advection_table", lambda sp: builds.append(sp) or build(sp))
    g = Grid(3, 16, 16.0)
    force = random_solenoidal_force(T, seed=42, amplitude=0.5)
    sol = picard_solve(force, g, M=8, tol=1e-10, max_iter=30)
    assert sol.iterations > 1
    assert len(builds) == 1
    periodicity_check(sol, steps=4)
    assert len(builds) == 2
    linear = picard_solve(force, g, M=8, linear_only=True)
    periodicity_check(linear, steps=4)
    assert len(builds) == 2


def test_no_spectral_layer_outlives_its_solve(monkeypatch):
    # a grid holds no array but its axis, and every spectral layer a call
    # builds dies by reference counting once its caller drops what the call
    # returned: no cache and no reference cycle keeps one for the collector
    layers, spectral = [], Grid.spectral

    def recording(grid):
        layer = spectral(grid)
        layers.append(weakref.ref(layer))
        return layer

    monkeypatch.setattr(Grid, "spectral", recording)
    grid = Grid(3, 16, 16.0)
    gc.disable()
    try:
        u0 = random_smooth_field(grid, 3, components=3)
        assert integrate(u0, 2.0, 1.0) > 0.0
        decay_harness(leray_project(u0), 2.0, 6.0, 0.5, 0.5, 0, [1.0, 2.0, 4.0])
        sol = picard_solve(random_solenoidal_force(T, seed=42, amplitude=0.5), grid, M=8,
                           tol=1e-10, max_iter=30)
        periodicity_check(sol, steps=4)
        assert len(layers) > 5
        assert [k for k, v in vars(grid).items() if isinstance(v, np.ndarray)] == ["axis"]
        del u0, sol
        assert [layer() for layer in layers] == [None] * len(layers)
    finally:
        gc.enable()


def test_weighted_ratio_stable_under_amplitude_halving():
    g = small_grid()
    ratios = []
    for eps in (0.02, 0.01):
        force = random_solenoidal_force(T, seed=9, amplitude=eps)
        sol = picard_solve(force, g, M=8, tol=1e-9, max_iter=20)
        ratios.append(weighted_report(sol, 2.0, 2.0, 1.0)["ratio"])
    assert abs(ratios[0] / ratios[1] - 1.0) <= 0.05


def test_weighted_report_zero_case_not_applicable():
    g = small_grid()
    force = single_mode_force(T, amplitude=0.0)
    sol = picard_solve(force, g, M=8)
    rep = weighted_report(sol, 2.0, 2.0, 1.0)
    assert not rep["applicable"]
    assert math.isnan(rep["ratio"])


def test_weighted_report_force_norm_homogeneous():
    g = small_grid()
    f1 = random_solenoidal_force(T, seed=9, amplitude=0.01)
    f2 = dataclasses.replace(f1, amplitude=0.02)
    sol = picard_solve(f1, g, M=8, tol=1e-8, max_iter=20)
    r1 = weighted_report(sol, 2.0, 2.0, 1.0)
    r2 = weighted_report(dataclasses.replace(sol, force=f2), 2.0, 2.0, 1.0)
    assert r2["force_norm"] == pytest.approx(2.0 * r1["force_norm"], rel=1e-13)


def test_weighted_report_force_norm_is_the_sup_over_nodes():
    # the sup over the nodes of |<x>^{2s} f(t_m)| in both component norms,
    # from amplitude cos(w t_m) profile, is the norm of |amplitude| profile
    g = small_grid()
    s = 1.0
    force = random_solenoidal_force(T, seed=9, amplitude=-0.01)
    sol = picard_solve(force, g, M=8, max_iter=5, linear_only=True)
    rep = weighted_report(sol, 2.0, 2.0, s)
    assert rep["q12"] != rep["q22_star"]
    profile = force.profile(g).data
    node_sup = 0.0
    for t in sol.node_times:
        f = Field(g, force.amplitude * math.cos(2.0 * math.pi * t / T) * profile)
        for q in (rep["q12"], rep["q22_star"]):
            node_sup = max(node_sup, integrate(f, q, 2.0 * s))
    assert node_sup > 0.0
    assert rep["force_norm"] == pytest.approx(node_sup, rel=1e-13)
