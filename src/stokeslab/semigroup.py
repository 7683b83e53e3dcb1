"""Heat kernel samples, Leray projection, fractional integrals and the
two-weight decay-rate harness.

The semigroup acts by the spectral multiplier exp(-t |xi|^2); on solenoidal
mean-zero fields this is the Stokes evolution of the truncated whole space.
The decay harness records weighted norms along a time ladder, fits the
log-log slope, and compares the series against the predicted envelope
    t^(-(n/2)(1/p - 1/q) - |a|/2) (1 + t)^(-(s - s0)/2)
scaled to touch the first sample.  The unweighted L^2 cases (q = 2,
s0 = 0) are exact Parseval sums over the half spectrum with no inverse
transform: the projection drops the Nyquist planes, the only modes where
|xi|^2 differs from the squared derivative wavenumbers, so the gradient's
power is |xi|^2 times the field's.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, integrate
from .weights import admissible_range

__all__ = [
    "heat_kernel_field",
    "leray_project",
    "fractional_integral",
    "DecaySeries",
    "ExponentFit",
    "fit_power_law",
    "predicted_exponent",
    "decay_harness",
    "write_decay_csv",
]


def heat_kernel_field(grid: Grid, t: float) -> Field:
    """Samples of the heat kernel (4 pi t)^(-n/2) exp(-|x|^2 / (4t)); t > 0."""
    if not t > 0:
        raise ValueError(f"heat kernel needs t > 0, got {t}")
    return Field(grid, (4.0 * np.pi * t) ** (-grid.n / 2.0)
                 * np.exp(-grid.radius_sq() / (4.0 * t)))


def leray_project(v: Field) -> Field:
    """Projection onto solenoidal fields, multiplier I - xi xi^T/|xi|^2, zero mode -> 0.

    Nyquist planes are dropped as well (see the grid module's Nyquist
    policy); band-limited fields are unaffected.
    """
    if not v.is_vector:
        raise ValueError("Leray projection expects a vector field")
    sp = v.grid.spectral()
    return Field(v.grid, sp.inverse(sp.project(sp.forward(v.data))))


def fractional_integral(f: Field, lam: float) -> Field:
    """Convolution with |y|^(lam - n) by direct quadrature on the offset lattice.

    out(x_i) = sum_j K(x_i - x_j) f(x_j) over the N^n samples (no periodic
    wrap), with K(y) = |y|^(lam - n) h^n at the offsets y = h d.  Cells with
    |y| <= 3h take the mean of the kernel over a 7^n sub-grid instead of
    its midpoint value; the singular cell at y = 0 is replaced by the exact
    integral of the kernel over the ball of equal volume.

    K depends only on each |d_j|, so it is the first-octant block on the
    offsets d in {0..N}^n (Grid.offset_sq), and the grid's spectral layer
    evaluates the sum exactly as a circular convolution on the 2N lattice of
    this even kernel, by a DCT-I and pruned padding (Spectral.convolve_even).
    """
    g = f.grid
    n, N = g.n, g.N
    if not 0.0 < lam < n:
        raise ValueError(f"fractional order must lie in (0, {n}), got {lam}")
    if f.is_vector:
        raise ValueError("fractional integral expects a scalar field")
    h = g.h
    off_sq = g.offset_sq(N)
    with np.errstate(divide="ignore"):
        ker = np.where(off_sq > 0, off_sq ** (0.5 * (lam - n)), 0.0)
    ker *= h**n
    # near-singular cells: replace midpoint values by sub-quadrature cell averages
    near = np.argwhere(off_sq <= (3.0 * h) ** 2)
    del off_sq
    sub = (np.arange(7) + 0.5) / 7.0 - 0.5
    sub_pts = np.stack(np.meshgrid(*([sub * h] * n), indexing="ij"), -1).reshape(-1, n)
    for idx in near:
        y0 = h * idx
        r_sq = np.sum((y0 + sub_pts) ** 2, axis=1)
        if np.all(r_sq > 0):
            ker[tuple(idx)] = np.mean(r_sq ** (0.5 * (lam - n))) * h**n
    # the singular cell: fine sub-quadrature, innermost sub-cell as the exact
    # kernel integral over the ball of equal volume
    msub = 15
    hs = h / msub
    subc = hs * (np.arange(msub) - (msub - 1) / 2.0)
    rc_sq = sum(c**2 for c in np.meshgrid(*([subc] * n), indexing="ij", sparse=True)).ravel()
    ball_radius = (hs**n * math.gamma(n / 2.0 + 1.0)) ** (1.0 / n) / math.sqrt(math.pi)
    sphere_area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    cell = float(np.sum(rc_sq[rc_sq > 0] ** (0.5 * (lam - n)))) * hs**n
    cell += sphere_area * ball_radius**lam / lam
    ker[(0,) * n] = cell
    if not np.all(np.isfinite(ker)):
        raise ValueError(f"the quadrature kernel |y|^(lam - n) h^n at lam = {lam} "
                         f"is not finite on the grid")
    return Field(g, g.spectral().convolve_even(f.data, ker))


@dataclass(frozen=True)
class DecaySeries:
    t: np.ndarray
    values: np.ndarray
    envelope: np.ndarray


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float


def fit_power_law(t, values) -> ExponentFit:
    """Least-squares fit of log(value) against log(t)."""
    lt = np.log(np.asarray(t, float))
    lv = np.log(np.asarray(values, float))
    A = np.vstack([lt, np.ones_like(lt)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, lv, rcond=None)
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    ss_res = float(np.sum((A @ np.array([slope, intercept]) - lv) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else max(0.0, 1.0 - ss_res / ss_tot)
    return ExponentFit(slope=float(slope), intercept=float(intercept), r_squared=r2)


def _envelope_exponents(n: int, p: float, q: float, s: float, s0: float, alpha_order: int):
    """Exponents (a, b) of the two-weight decay envelope t^a (1 + t)^b."""
    return -(n / 2.0) * (1.0 / p - 1.0 / q) - alpha_order / 2.0, -(s - s0) / 2.0


def predicted_exponent(n: int, p: float, q: float, s: float, s0: float, alpha_order: int) -> float:
    """Large-time log-log slope of the two-weight decay envelope."""
    a, b = _envelope_exponents(n, p, q, s, s0, alpha_order)
    return a + b


def decay_harness(
    u0: Field,
    p: float,
    q: float,
    s: float,
    s0: float,
    alpha_order: int,
    t_ladder,
):
    """Weighted decay study of the projected heat evolution of a vector field u0.

    u0 is Leray-projected once in spectral space and evolved by the heat
    multiplier at each ladder time; the series records the L^q norm with
    weight <x>^s0 of the evolved field (alpha_order 0) or of its gradient
    magnitude (alpha_order 1).  At q = 2, s0 = 0 each value is the Parseval
    sum of the evolved power spectrum instead (see the module docstring).
    Needs 1 < p <= q, -n/q < s0 <= s < n(1 - 1/p)
    and at least two distinct positive finite ladder times.

    Returns (DecaySeries, ExponentFit, bound_compliance), where the series
    carries the envelope t^a (1 + t)^b anchored at the first ladder point
    and the compliance is the max of series/envelope.  The fit runs over the
    ladder times t >= 1, or over the whole ladder when fewer than two are.
    """
    g = u0.grid
    n = g.n
    if not u0.is_vector:
        raise ValueError("decay harness expects a vector field")
    if not (1.0 < p <= q):
        raise ValueError(f"need 1 < p <= q, got p={p}, q={q}")
    lo_q, hi_p = admissible_range(q, n)[0], admissible_range(p, n)[1]
    if not (lo_q < s0 <= s < hi_p):
        raise ValueError(
            f"weight exponents outside the admissible window "
            f"({lo_q:.3f}, {hi_p:.3f}): s0={s0}, s={s}"
        )
    if alpha_order not in (0, 1):
        raise ValueError("derivative order must be 0 or 1")
    t_ladder = np.asarray(sorted(float(t) for t in t_ladder))
    if t_ladder.size < 2:
        raise ValueError(f"decay ladder needs at least two times for the fit, got {t_ladder.size}")
    if not np.all(np.isfinite(t_ladder) & (t_ladder > 0)):
        raise ValueError("decay ladder requires positive finite times")
    if not np.all(np.diff(t_ladder) > 0):
        raise ValueError("time ladder must be strictly increasing")

    sp = g.spectral()
    base, ksq = sp.project(sp.forward(u0.data)), sp.ksq()
    if q == 2.0 and s0 == 0.0:
        power = sp.power(base)
        if alpha_order == 1:
            power *= ksq
        with np.errstate(over="ignore"):        # e^(-t|k|^2) is 0 where t|k|^2 overflows
            values = np.array([math.sqrt(np.sum(power * np.exp(-2.0 * (t * ksq))))
                               for t in t_ladder])
    else:
        # the evolved field is dropped once its norm is taken, so it does not
        # live on through the next time's transform
        evolve = sp.inverse if alpha_order == 0 else sp.gradient_magnitude
        values = []
        for t in t_ladder:
            with np.errstate(over="ignore"):
                prop = base * np.exp(-t * ksq)
            values.append(integrate(Field(g, evolve(prop)), q, s0))
        values = np.asarray(values)
    if not np.all(values > 0):
        raise ValueError("decay series values must be positive")

    a, b = _envelope_exponents(n, p, q, s, s0, alpha_order)
    rate = t_ladder**a * (1.0 + t_ladder) ** b
    envelope = values[0] / rate[0] * rate
    compliance = float(np.max(values / envelope))
    fit_mask = t_ladder >= 1.0
    if fit_mask.sum() >= 2:
        fit = fit_power_law(t_ladder[fit_mask], values[fit_mask])
    else:
        fit = fit_power_law(t_ladder, values)
    return DecaySeries(t=t_ladder, values=values, envelope=envelope), fit, compliance


def write_decay_csv(path, series: DecaySeries, fit: ExponentFit) -> None:
    """CSV with columns t, norm, predicted_envelope, ratio; fit JSON footer."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "norm", "predicted_envelope", "ratio"])
        for t, v, e in zip(series.t, series.values, series.envelope):
            wr.writerow([repr(float(t)), repr(float(v)), repr(float(e)),
                         repr(float(v / e))])
        wr.writerow([])
        wr.writerow(["# fit", json.dumps({"slope": fit.slope,
                                          "intercept": fit.intercept,
                                          "r_squared": fit.r_squared})])
