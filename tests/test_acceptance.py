"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Grids are stated per criterion; everything is
seeded and deterministic.
"""

import dataclasses
import math

import numpy as np
import pytest

from stokeslab.grid import Field, Grid, divergence, gradient, integrate
from stokeslab.corpus import corpus_seeds, random_smooth_field
from stokeslab.exterior import (
    annulus_dipole,
    bogovskii_apply,
    divergence_defect,
    shell_potential,
    solenoidal_extension,
)
from stokeslab.semigroup import (
    decay_harness,
    heat_kernel_field,
    leray_project,
    predicted_exponent,
)
from stokeslab.weights import (
    RadialWeight,
    aq_check,
    feasibility,
    feasibility_scan,
    sobolev_embedding_ratio,
)
from stokeslab.periodic import (
    periodicity_check,
    picard_solve,
    random_solenoidal_force,
    single_mode_force,
)

import fft_reference
from refinement import refine_field

BASE_SEED = 20260809


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_heat_kernel_normalization():
    # quadrature of the kernel over the cube must equal 1 within 1e-10;
    # L = 20 keeps the Gaussian tail below the tolerance for t up to 4
    g = Grid(3, 80, 20.0)
    worst = 0.0
    for t in (0.25, 1.0, 4.0):
        total = float(np.sum(heat_kernel_field(g, t).data) * g.cell_volume)
        worst = max(worst, abs(total - 1.0))
    _report(1, "heat kernel unit mass", worst < 1e-10, f"max defect {worst:.2e}")


def test_criterion_02_semigroup_decay_compliance():
    g = Grid(3, 64, 16.0)
    ladder = np.geomspace(1.0, 64.0, 9)
    cases = [
        (2.0, 2.0, 1.0, 0.0, 0),
        (2.0, 6.0, 0.0, 0.0, 0),
        (2.0, 2.0, 0.0, 0.0, 1),
        (2.0, 4.0, 1.0, 0.0, 0),
    ]
    worst_comp, worst_gap = 0.0, -np.inf
    for seed in corpus_seeds(BASE_SEED, 10):
        u0 = random_smooth_field(g, seed, components=3)
        for (p, q, s, s0, a) in cases:
            _, fit, compliance = decay_harness(u0, p, q, s, s0, a, ladder)
            worst_comp = max(worst_comp, compliance)
            worst_gap = max(worst_gap, fit.slope - predicted_exponent(3, p, q, s, s0, a))
    ok = worst_comp <= 1.05 and worst_gap <= 0.1
    _report(2, "two-weight decay envelope", ok,
            f"max compliance {worst_comp:.4f}, max slope gap {worst_gap:.3f}")


def test_criterion_03_leray_projection():
    g = Grid(3, 32, 16.0)
    worst_idem, worst_sol, worst_grad = 0.0, 0.0, 0.0
    for seed in corpus_seeds(BASE_SEED + 1, 10):
        v = random_smooth_field(g, seed, components=3)
        pv = leray_project(v)
        ppv = leray_project(pv)
        scale = integrate(pv, 2)
        worst_idem = max(worst_idem, integrate(ppv - pv, 2) / scale)
        gscale = np.sqrt(sum(integrate(gradient(Field(g, pv.data[j])), 2) ** 2 for j in range(3)))
        worst_sol = max(worst_sol, integrate(divergence(pv), 2) / gscale)
        grad = gradient(Field(g, v.data[0]))
        worst_grad = max(worst_grad, integrate(leray_project(grad), 2) / integrate(grad, 2))
    ok = worst_idem <= 1e-10 and worst_sol <= 1e-10 and worst_grad <= 1e-10
    _report(3, "projection idempotent/solenoidal/kills gradients", ok,
            f"defects {worst_idem:.1e} {worst_sol:.1e} {worst_grad:.1e}")


def test_criterion_04_muckenhoupt_separation():
    verdicts = {}
    for alpha in (-3.0, -2.0, 0.0, 2.0):
        verdicts[alpha] = aq_check(RadialWeight(alpha), 2.0).verdict
    ok = (
        verdicts[-2.0] == "finite"
        and verdicts[0.0] == "finite"
        and verdicts[2.0] == "finite"
        and verdicts[-3.0] == "diverging"
    )
    _report(4, "A_q verdicts separate -n < a < n(q-1)", ok, str(verdicts))


def test_criterion_05_bogovskii_contract():
    # f = d/dx1 of a radial bump supported strictly inside the annulus
    R = 2.0
    defects, support_ok = {}, True
    for N in (64, 128):
        g = Grid(3, N, 8.0)
        f = annulus_dipole(g, R)
        B = bogovskii_apply(f, R)
        defects[N] = divergence_defect(B, f)
        r = np.sqrt(g.radius_sq())
        outside = (r <= R) | (r >= R + 1.0)
        support_ok = support_ok and bool(np.all(B.data[:, outside] == 0.0))
    ratio = defects[128] / defects[64]
    ok = defects[128] <= 0.1 and ratio <= 0.6 and support_ok
    _report(5, "annulus divergence solve", ok,
            f"err(128) {defects[128]:.3f}, ratio {ratio:.2f}, support exact {support_ok}")


def test_criterion_06_solenoidal_extension():
    R = 1.0
    defects, far_ok = {}, True
    for N in (64, 128):
        g = Grid(3, N, 8.0)
        r = np.sqrt(g.radius_sq())
        u0 = Field(g, fft_reference.curl(g, shell_potential(g, R).data))
        v0, info = solenoidal_extension(u0, R)
        defects[N] = info["div_v0_rel"]
        far = r >= R + 3.0
        far_ok = far_ok and bool(np.array_equal(v0.data[:, far], u0.data[:, far]))
    ratio = defects[128] / defects[64]
    ok = ratio <= 0.6 and far_ok
    _report(6, "solenoidal extension", ok,
            f"div defect {defects[64]:.3f} -> {defects[128]:.3f} (ratio {ratio:.2f}), "
            f"far field exact {far_ok}")


def test_criterion_07_linear_poincare_oracle():
    g = Grid(3, 32, 16.0)
    T = 2.0 * math.pi
    force = single_mode_force(T)
    sol = picard_solve(force, g, M=32, tol=1e-10, max_iter=5, linear_only=True)
    kappa = (math.pi / g.L) ** 2
    omega = 2.0 * math.pi / T
    k1 = 2.0 * math.pi / (2.0 * g.L)
    x3 = g.coords()[2]
    amp = 1.0 / math.sqrt(kappa**2 + omega**2)
    worst = 0.0
    for m, t in enumerate(sol.node_times):
        exact = np.cos(k1 * x3) * (
            kappa * math.cos(omega * t) + omega * math.sin(omega * t)
        ) / (kappa**2 + omega**2)
        worst = max(worst, float(np.abs(sol.snapshots[m][0] - exact).max()) / amp)
    _report(7, "linear history-integral map vs closed form", worst <= 1e-6,
            f"max node error {worst:.2e}")


def test_criterion_08_nonlinear_fixed_point():
    g = Grid(3, 32, 16.0)
    T = 2.0 * math.pi
    base = random_solenoidal_force(T, BASE_SEED)

    # calibrate the amplitude so the first iterate has unit-norm 1e-2
    probe = picard_solve(base, g, M=16, tol=1.0, max_iter=1)
    first_norm = max(
        float(np.sqrt(np.sum(probe.snapshots[m] ** 2) * g.cell_volume))
        for m in range(16)
    )
    eps = 1e-2 / first_norm

    ratios = []
    sol = None
    for fac in (1.0, 0.5, 0.25):
        force = dataclasses.replace(base, amplitude=eps * fac)
        s = picard_solve(force, g, M=16, tol=1e-8, max_iter=20)
        assert s.converged
        nrm = max(
            float(np.sqrt(np.sum(s.snapshots[m] ** 2) * g.cell_volume))
            for m in range(16)
        )
        ratios.append(nrm / (eps * fac))
        if fac == 1.0:
            sol = s
            iters = s.iterations
            res = s.residual_history[-1]
    defect = periodicity_check(sol, steps=256)
    spread = max(ratios) / min(ratios) - 1.0
    ok = iters <= 20 and res <= 1e-8 and defect <= 1e-5 and spread <= 0.02
    _report(8, "nonlinear fixed point", ok,
            f"iters {iters}, residual {res:.1e}, periodicity {defect:.1e}, "
            f"linear-response spread {spread:.2%}")


def test_criterion_09_feasibility_checker():
    window = feasibility(5, 4.0, 3.0)
    ok_example = (
        abs(window.lo - 1.0 / 3.0) < 1e-12 and abs(window.hi - 25.0 / 24.0) < 1e-12
    )
    total, nonempty, widest = feasibility_scan(3, 0.01)
    ok_scan = nonempty == 0
    _report(9, "hypothesis window", ok_example and ok_scan,
            f"(5,4,3) -> ({window.lo:.4f}, {window.hi:.4f}); n=3 scan: "
            f"{nonempty}/{total} nonempty (documented finding)")


def test_criterion_10_weighted_embedding():
    coarse_grid = Grid(3, 48, 16.0)
    coarse, fine = 0.0, 0.0
    for seed in corpus_seeds(BASE_SEED + 2, 5):
        f = random_smooth_field(coarse_grid, seed)
        coarse = max(coarse, sobolev_embedding_ratio(f, 2.0, 1.0))
        fine = max(fine, sobolev_embedding_ratio(refine_field(f), 2.0, 1.0))
    drift = abs(fine / coarse - 1.0)
    _report(10, "weighted Sobolev embedding ratio", drift <= 0.1,
            f"corpus max {coarse:.3f} -> {fine:.3f} (drift {drift:.2%})")
