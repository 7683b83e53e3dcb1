"""Muckenhoupt diagnostics for radial weights, exponent windows, maximal function.

The A_q checker evaluates the cube product
    (avg_Q w) (avg_Q w^(-1/(q-1)))^(q-1)
over a ladder of origin-anchored cubes by midpoint quadrature at two
resolutions.  Verdicts are heuristic by construction: a finite sample can
only observe a sup stabilizing or still growing.  A per-cube refinement
jump flags averages that keep changing under quadrature refinement, which
is how non-integrable local singularities (and the homogenization of huge
cubes) are caught; thresholds below were calibrated on the <x>^a family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Field, gradient_magnitude, integrate

__all__ = [
    "RadialWeight",
    "AqSample",
    "AqReport",
    "aq_check",
    "admissible_range",
    "maximal_function",
    "mollifier_sup",
    "HypothesisSet",
    "Interval",
    "feasibility",
    "feasibility_scan",
    "sobolev_embedding_ratio",
]

# verdict thresholds (see module docstring)
STABLE_GROWTH = 1.05       # sup growth over the last ladder step below this reads as settled
DIVERGING_GROWTH = 1.5     # sup growth over the last ladder step at or above this diverges
JUMP_DIVERGING = 0.17      # refinement jump marking a divergent cube average
JUMP_RESOLVED = 0.10       # refinement jump small enough to trust the cube
MAX_POINTS = 2**24         # largest quadrature or scan grid, checked before it is built
LOG_FORM_Q = 16.0          # above this q the cube product's second factor is taken in logs


@dataclass(frozen=True)
class RadialWeight:
    """Radial weight <x>^s (inhomogeneous) or |x|^s (homogeneous)."""

    s: float
    form: str = "inhomogeneous"

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError("weight exponent must be finite")
        if self.form not in ("inhomogeneous", "homogeneous"):
            raise ValueError(f"unknown weight form {self.form!r}")

    def values_r2(self, r_sq):
        """Weight values from |x|^2; the homogeneous form is +inf at 0 for s < 0."""
        if self.form == "inhomogeneous":
            return (1.0 + r_sq) ** (0.5 * self.s)
        with np.errstate(divide="ignore"):
            return np.where(
                r_sq > 0.0,
                r_sq ** (0.5 * self.s),
                np.inf if self.s < 0 else (0.0 if self.s > 0 else 1.0),
            )


@dataclass(frozen=True)
class AqSample:
    center: float          # offset along the first coordinate axis
    side: float
    product: float
    refinement_jump: float


@dataclass(frozen=True)
class AqReport:
    q: float
    weight: RadialWeight
    samples: tuple
    sup_estimate: float
    verdict: str


def _cube_points(n: int, m: int):
    """The midpoint rule on [-1/2, 1/2]^n with m points per axis, grouped by symmetry.

    Every cube center lies on the first axis, so the cube product depends on a
    midpoint u only through u1 and rho = u2^2 + ... + un^2 (Stroud 1971,
    symmetric cubature).  Returns (u1, u_sq, weights) over the distinct
    (u1, rho) pairs, u_sq = u1^2 + rho, each weight the pair's count over m^n:
    sum(weights * f(u1, u_sq)) is the midpoint mean of f in another summation
    order.  At n = 3, m = 64 that is 64 x 398 pairs instead of 262144 midpoints.
    """
    ax = (np.arange(m) + 0.5) / m - 0.5
    sq, sq_count = np.unique(ax**2, return_counts=True)
    rho, count = np.zeros(1), np.ones(1)
    for _ in range(n - 1):          # the rho multiset, one axis at a time
        rho, group = np.unique(rho[:, None] + sq, return_inverse=True)
        count = np.bincount(group.ravel(), weights=(count[:, None] * sq_count).ravel())
    u1 = np.repeat(ax, rho.size)
    u_sq = (ax[:, None] ** 2 + rho).ravel()
    return u1, u_sq, np.tile(count / float(m) ** n, m)


def _cube_product(w: RadialWeight, q: float, offset: float, side: float, u1, u_sq, weights):
    # |c e1 + side u|^2 expanded; offset is the center's coordinate on axis 1
    r_sq = offset**2 + 2.0 * offset * side * u1 + side**2 * u_sq
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = w.values_r2(r_sq)
        # both averages relative to the smallest value, whose factors cancel:
        # (low / vals)^(1/(q-1)) lies in (0, 1] and its average cannot
        # underflow to zero as q approaches 1
        low = vals.min()
        a1 = float(np.sum(weights * (vals / low)))      # pairwise, like np.mean
        if q <= LOG_FORM_Q:
            a2q = float(np.sum(weights * (low / vals) ** (1.0 / (q - 1.0)))) ** (q - 1.0)
        else:
            # each power lies within a few ulps of 1, and the (q-1)-th power of
            # their average amplifies that rounding: carry the distance from 1
            e = np.sum(weights * np.expm1(np.log(low / vals) / (q - 1.0)))
            a2q = float(np.exp((q - 1.0) * np.log1p(e)))
    if not (np.isfinite(a1) and np.isfinite(a2q)):
        return np.inf
    return a1 * a2q


def _check_dimension(n: int) -> None:
    if not n >= 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")


def aq_check(
    w: RadialWeight,
    q: float,
    cube_sides=None,
    centers=None,
    n: int = 3,
) -> AqReport:
    """Sampled Muckenhoupt A_q diagnostic for a radial weight.

    cube_sides must span at least three decades.  Each cube product is
    computed at m and 2m midpoints per axis, m = max(8, ceil(32768^(1/n)))
    (32 at n = 3), by the midpoint rule grouped by symmetry (_cube_points);
    the relative jump between the two is recorded alongside the refined
    product.  The verdict reads the largest jump and the growth of the
    running sup over the last ladder step: from the largest side strictly
    below the largest to the largest.

    Raises ValueError before any product when the fine cube has more than
    MAX_POINTS midpoints, or when a squared distance could overflow: every
    term of |c e1 + side u|^2 is at most (|c| + side max(1, sqrt(n)/2))^2,
    which must be finite.
    """
    if not 1.0 < q < np.inf:
        raise ValueError(f"Muckenhoupt index q must be finite and exceed 1, got {q}")
    _check_dimension(n)
    if cube_sides is None:
        cube_sides = [2.0**k for k in range(-3, 11)]
    cube_sides = sorted(float(s) for s in cube_sides)
    if cube_sides[0] <= 0:
        raise ValueError("cube sides must be positive")
    if cube_sides[-1] / cube_sides[0] < 1e3:
        raise ValueError("cube ladder must span at least three decades of side length")
    if centers is None:
        centers = [0.0, 1.0, 8.0, 64.0]
    if len(centers) == 0:
        raise ValueError("aq_check needs at least one cube center")

    m = max(8, int(np.ceil(32768 ** (1.0 / n))))
    if n > np.log2(MAX_POINTS) / np.log2(2 * m):      # in logs: a huge n costs nothing
        raise ValueError(f"the fine cube has (2m)^n = {2 * m}^{n} midpoints at n = {n}, "
                         f"more than {MAX_POINTS}")
    with np.errstate(over="ignore"):
        reach = (np.max(np.abs(np.asarray(centers, float)))
                 + cube_sides[-1] * max(1.0, 0.5 * np.sqrt(n)))
        if not np.isfinite(np.square(reach)):
            raise ValueError(f"cube side {cube_sides[-1]:g} reaches {reach:g} from the "
                             f"origin, whose square overflows")
    coarse = _cube_points(n, m)
    fine = _cube_points(n, 2 * m)

    samples = []
    max_jump = 0.0
    side_sups = []
    for side in cube_sides:
        best = 0.0
        for c in centers:
            p1 = _cube_product(w, q, c, side, *coarse)
            prod = _cube_product(w, q, c, side, *fine)
            jump = np.inf if np.isinf(p1) or np.isinf(prod) else abs(prod / p1 - 1.0)
            assert not np.isfinite(prod) or prod >= 1.0 - 1e-9, "Jensen violated"
            samples.append(AqSample(center=c, side=side, product=prod, refinement_jump=jump))
            max_jump = max(max_jump, jump)
            best = max(best, prod)
        side_sups.append(best)

    sides = np.array(cube_sides)
    running = np.maximum.accumulate(side_sups)
    prev = running[sides < sides[-1]][-1]
    # an infinite running sup grows without bound (inf / inf would be NaN)
    last_growth = running[-1] / prev if prev > 0 and np.isfinite(running[-1]) else np.inf

    if max_jump >= JUMP_DIVERGING or last_growth >= DIVERGING_GROWTH:
        verdict = "diverging"
    elif max_jump < JUMP_RESOLVED and last_growth < STABLE_GROWTH:
        verdict = "finite"
    else:
        verdict = "inconclusive"
    return AqReport(q=float(q), weight=w, samples=tuple(samples),
                    sup_estimate=float(running[-1]), verdict=verdict)


def admissible_range(q: float, n: int):
    """Open interval of s with <x>^(sq) in the A_q class: (-n/q, n(1-1/q))."""
    if not 1.0 < q < np.inf:
        raise ValueError(f"Lebesgue index q must be finite and exceed 1, got {q}")
    _check_dimension(n)
    return (-n / q, n * (1.0 - 1.0 / q))


def maximal_function(f: Field, radius_ladder=None) -> Field:
    """Centered maximal function approximated over a ladder of ball radii.

    Ball averages are circular convolutions with unit-mass lattice balls,
    first-octant blocks and so centrally symmetric; the result is a lower
    bound of the true maximal function that grows as the ladder refines.  The
    smallest radius h is the centre alone, so the output dominates |f|.
    """
    g = f.grid
    if radius_ladder is None:
        radius_ladder = np.geomspace(g.h, g.L, 24)
    radius_ladder = np.unique(np.concatenate([[g.h], np.asarray(radius_ladder, float)]))
    if radius_ladder[0] < g.h or radius_ladder[-1] > np.sqrt(g.n) * g.L:
        raise ValueError("radius ladder must live in [h, sqrt(n) L]")

    return _sup_of_averages(f, lambda off_sq, r: off_sq < r * r, radius_ladder)


def _sup_of_averages(f: Field, kernel, params) -> Field:
    """Sup over params of |f| circularly convolved with the even block kernel(offset_sq, p)
    on {0..N/2}^n at unit mass: its spectrum over the zero mode, the full-lattice mass."""
    g = f.grid
    sp, off_sq = g.spectral(), g.offset_sq(g.N // 2)
    Fm = sp.forward(f.magnitude())
    out = np.zeros(g.shape)
    for p in params:
        spec = sp.even_spectrum(kernel(off_sq, p))
        spec /= spec[(0,) * g.n]
        np.maximum(out, sp.inverse(sp.times_even(Fm.copy(), spec)), out=out)
    return Field(g, out)


def mollifier_sup(f: Field) -> Field:
    """sup over 12 Gaussian mollifications of |f| (discrete masses), widths
    geometric from h/2 to L/6."""
    g = f.grid
    widths = np.geomspace(g.h / 2.0, g.L / 6.0, 12)
    return _sup_of_averages(f, lambda off_sq, eps: np.exp(-off_sq / (2.0 * eps**2)), widths)


class Interval(NamedTuple):
    """Open interval (lo, hi); empty when lo >= hi.  The bounds are arrays
    when the interval stands for a whole grid of windows."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi


@dataclass(frozen=True)
class HypothesisSet:
    """Exponent bookkeeping for the periodic-solution hypotheses.

    q1 and q2 may be broadcastable arrays; every derived index and the
    window bounds are then computed elementwise.
    """

    n: int
    q1: float
    q2: float

    def __post_init__(self):
        if not np.all((1.0 < self.q1) & (self.q1 < self.n)):
            raise ValueError(f"need 1 < q1 < n, got q1={self.q1}, n={self.n}")
        if not np.all((self.n / 2.0 < self.q2) & (self.q2 < self.n)):
            raise ValueError(f"need n/2 < q2 < n, got q2={self.q2}, n={self.n}")

    @property
    def q12(self) -> float:
        return self.q1 * self.q2 / (self.q1 + self.q2)

    @property
    def q2_star(self) -> float:
        return self.n * self.q2 / (self.n - self.q2)

    @property
    def q22_star(self) -> float:
        q2s = self.q2_star
        return q2s * self.q2 / (q2s + self.q2)

    def s_window(self) -> Interval:
        lo = np.maximum(0.0, 2.0 - self.n / self.q2)
        hi = np.minimum(np.minimum(self.n * (1.0 - 1.0 / self.q1),
                                   (self.n / 2.0) * (1.0 - 1.0 / self.q12)),
                        (self.n / 2.0) * (1.0 - 1.0 / self.q22_star))
        return Interval(lo, hi)


def feasibility(n: int, q1: float, q2: float) -> Interval:
    """Open window of weight exponents s compatible with the hypotheses."""
    return HypothesisSet(n=n, q1=q1, q2=q2).s_window()


def feasibility_scan(n: int, step: float = 0.01):
    """Vectorized sweep of (q1, q2); returns (grid count, nonempty count, widest)."""
    if not 0 < step < np.inf:
        raise ValueError(f"scan step must be positive and finite, got {step}")
    starts = (1.0 + step, n / 2.0 + step)
    # np.arange's lengths, as floats: a tiny step or a huge n makes them inf
    sizes = [max(0.0, float(np.ceil((n - a) / step))) for a in starts]
    if not (sizes[0] and sizes[1]):
        raise ValueError(f"scan step {step} leaves no (q1, q2) grid points at n = {n}")
    if sizes[0] * sizes[1] > MAX_POINTS:
        raise ValueError(f"scan step {step} at n = {n} asks for {sizes[0]:g} x {sizes[1]:g} "
                         f"(q1, q2) grid points, more than {MAX_POINTS}")
    Q1, Q2 = np.meshgrid(*(np.arange(a, float(n), step) for a in starts),
                         indexing="ij", sparse=True)
    lo, hi = HypothesisSet(n=n, q1=Q1, q2=Q2).s_window()
    width = hi - lo
    return int(width.size), int(np.count_nonzero(width > 0.0)), float(width.max())


def sobolev_embedding_ratio(f: Field, q: float, s: float) -> float:
    """Ratio of the weighted L^{q*} norm of f to the weighted L^q norm of grad f."""
    g = f.grid
    if not 1.0 < q < g.n:
        raise ValueError(f"embedding requires 1 < q < n, got q={q}")
    q_star = g.n * q / (g.n - q)
    num = integrate(f, q_star, s)
    den = integrate(gradient_magnitude(f), q, s)
    if den < 1e-14:
        raise ValueError("gradient norm vanishes; embedding ratio undefined")
    return num / den
