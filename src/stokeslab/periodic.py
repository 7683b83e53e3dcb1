"""Time-periodic mild solutions of the truncated Navier-Stokes system.

The history-integral map

    H[u](t) = integral_{-infty}^t e^{-(t-tau)A} { B[u](tau) + P f(tau) } dtau

is evaluated on M uniform nodes per period.  The node data h(tau) is
identified with its trigonometric interpolant, for which the untruncated
integral is exact in closed form: each (spatial mode xi, temporal frequency
omega) coefficient is divided by |xi|^2 + i omega.  On even M the Nyquist
node mode (-1)^m is read as cos(Omega t), Omega = pi M / T, which is real
and mirror-symmetric; its history integral at the nodes is
|xi|^2 / (|xi|^4 + Omega^2) times the data.  The zero spatial mode
carries no decay on the torus and is projected out of forcing and solution
throughout.

The forcing is separable, f(t, x) = amplitude cos(2 pi t / T) profile(x).
_integrand(force, sp, linear_only) transforms and projects amplitude * profile
and builds the advection table once per solve; its h(uh, t) scales that
spectrum by the time factor and, unless linear_only, adds the advection term.
picard_solve evaluates h at the nodes, periodicity_check at the ETDRK4 stages.

Fixed points of the map are T-periodic mild solutions; picard_solve(force,
grid, M, tol, max_iter, linear_only) iterates from u = 0, records the largest
node residual of each iteration, stops once it is at most tol, and raises
ContractionError when it is not finite or has risen three times running; the
force's period and amplitude must be finite.  The PeriodicSolution carries its
force and model: periodicity_check(sol, steps) re-simulates one period by ETDRK4
(Cox & Matthews 2002), and weighted_report(sol, q1, q2, s) takes weighted norms.

Every spectrum the solver carries lies in the 2/3 band of the grid's
spectral layer (|frequency index| < N/3 on every axis; 21 x 21 x 11 modes
at N = 32 against 32 x 32 x 17 in the half spectrum), so the node spectra,
the forcing spectrum, the history-integral resolve and the whole ETDRK4
march are stored on the band and transformed by its pruned pair.

The advection term is one operator, _advection(sp, table, u): it takes
real velocity samples and returns the band spectrum of -P div(u (x) u),
which is -P(u . grad u) for solenoidal u.  It forms the six distinct
products u_i u_j, transforms them onto the band and contracts them with
the real table A[i, p] = _advection_table(sp) per band mode, which folds
the contraction -i sum_j k_j T_ij, the 2/3 rule and the Leray projection
together.  On data band-limited by the 2/3 rule this agrees with the
advective form to rounding.  Every velocity the solver produces is
projected, and periodicity_check rejects a start whose relative divergence
exceeds 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import random_smooth_field
from .grid import Field, Grid, fft_backend, gradient_magnitude, integrate
from .semigroup import leray_project
from .weights import HypothesisSet

__all__ = [
    "PeriodicForce",
    "PeriodicSolution",
    "single_mode_force",
    "random_solenoidal_force",
    "picard_solve",
    "periodicity_check",
    "weighted_report",
    "ContractionError",
]


class ContractionError(RuntimeError):
    """Raised when the fixed-point residuals stop contracting: the last
    residual is not finite, or it has risen three times running."""

    def __init__(self, history):
        self.history = history
        self.growth_factor = (history[-1] / max(history[-4], 1e-300) if len(history) > 3
                              else math.nan)
        what = (f"residual growth factor {self.growth_factor:.3f} over the last iterations"
                if math.isfinite(history[-1]) else f"residual {history[-1]} is not finite")
        super().__init__(f"outside contraction regime: {what}")


@dataclass(frozen=True)
class PeriodicForce:
    """The T-periodic forcing amplitude * cos(2 pi t / T) * profile(x)."""

    T: float
    profile: object          # callable grid -> vector Field, no time argument
    amplitude: float = 1.0

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"period T must be positive and finite, got {self.T}")
        if not math.isfinite(2.0 * math.pi / self.T):
            raise ValueError(f"period T = {self.T:g} is so small that 2 pi / T overflows")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"forcing amplitude must be finite, got {self.amplitude}")

    def factor(self, t):
        """The time factor cos(2 pi (t mod T) / T), elementwise over arrays."""
        return np.cos(2.0 * np.pi / self.T * np.mod(t, self.T))


@dataclass
class PeriodicSolution:
    grid: Grid
    force: PeriodicForce           # the force it solves for
    snapshots: np.ndarray          # (M, n) + grid.shape
    linear_only: bool              # its model: True drops the advection term
    converged: bool = False
    residual_history: list = field(default_factory=list)   # max node residual per iteration

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def node_times(self) -> np.ndarray:
        return _node_times(self.force.T, len(self.snapshots))

    def snapshot(self, m: int) -> Field:
        return Field(self.grid, self.snapshots[m])


def _node_times(T: float, M: int) -> np.ndarray:
    """The M uniform node times T m / M of one period."""
    return T * np.arange(M) / M


def single_mode_force(T: float, amplitude: float = 1.0) -> PeriodicForce:
    """The velocity cos(pi x_3 / L) cos(2 pi t / T) e_1.

    e_1 is orthogonal to the wavevector, so the mode is solenoidal and the
    Leray projection leaves it untouched.
    """
    def profile(grid):
        k = 2.0 * math.pi / (2.0 * grid.L)
        data = np.zeros((grid.n,) + grid.shape)
        data[0] = np.cos(k * grid.coords()[2])
        return Field(grid, data)

    return PeriodicForce(T=T, profile=profile, amplitude=amplitude)


def random_solenoidal_force(T: float, seed: int, amplitude: float = 1.0) -> PeriodicForce:
    """Seeded smooth solenoidal profile (corpus band k0 = 1) times cos(2 pi t / T)."""
    def profile(grid):
        return leray_project(random_smooth_field(grid, seed, components=grid.n, k0=1.0))

    return PeriodicForce(T=T, profile=profile, amplitude=amplitude)


# ---------------------------------------------------------------------------
# spectral helpers (the grid's real-FFT layer)
# ---------------------------------------------------------------------------


def _spectral(grid: Grid):
    if grid.n != 3:
        raise ValueError("the periodic solver runs at n = 3")
    return grid.spectral()


# the six distinct products u_i u_j, and the stack slot of (i, j) for each i, j
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_SLOT = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def _advection_table(sp):
    """The real A[i, p] on the band with -P div(T)_i = -i sum_p A[i, p] T_p for
    a symmetric tensor T of distinct entries T_p: the contraction
    sum_j k_j T_lj and the Leray projector folded together, laid out to act
    on band coefficients viewed as real pairs.  Column l of the projector is
    sp.project of the spectrum that holds e_l at every mode."""
    k = sp.band_k
    P = sp.band(sp.project(np.eye(3)[..., None, None, None] * np.ones(sp.shape))).real
    A = np.zeros((3, len(_PAIRS)) + P.shape[2:])
    for i in range(3):
        for l, slots in enumerate(_SLOT):
            for kj, p in zip(k, slots):
                A[i, p] += P[l, i] * kj
    del P       # before the repeat: the build then holds no more than A and its copy
    # each entry twice, for the real and the imaginary part of a coefficient
    return np.repeat(A, 2, axis=-1)


def _advection(sp, table, u):
    """Band spectrum of -P div(u (x) u), 2/3-rule de-aliased, from real
    velocity samples u of shape (3,) + grid.shape: six products, one pruned
    forward transform and one contraction with table = _advection_table(sp)."""
    uu = np.empty((len(_PAIRS),) + u.shape[1:])
    for p, (i, j) in enumerate(_PAIRS):
        np.multiply(u[i], u[j], out=uu[p])
    th = sp.forward_band(uu).view(float)
    out = np.einsum("ip...,p...->i...", table, th).view(complex)
    out *= -1j
    return out


# largest relative divergence accepted for a velocity fed to the advection term
_SOLENOIDAL_RTOL = 1e-8


def _integrand(force: PeriodicForce, sp, linear_only: bool):
    """h(uh, t) = force.factor(t) fh plus, unless linear_only, the advection term
    of the velocity with band spectrum uh; fh, the band spectrum of the projected
    amplitude * profile, and the advection table are built once, here."""
    with np.errstate(over="ignore", invalid="ignore"):
        fh = sp.band(sp.project(sp.forward(force.amplitude * force.profile(sp.grid).data)))
    if not np.all(np.isfinite(fh)):
        raise ValueError(f"forcing amplitude {force.amplitude:g} overflows the forcing spectrum")
    table = None if linear_only else _advection_table(sp)

    def h(uh, t):
        f = force.factor(t) * fh
        return f if linear_only else f + _advection(sp, table, sp.inverse_band(uh))
    return h


def _resolve_periodic(h_hats: np.ndarray, sp, T: float) -> np.ndarray:
    """Node values of the history integral for node data h (band spectra)."""
    M = h_hats.shape[0]
    fft = fft_backend()
    Hf = fft.fft(h_hats, axis=0)
    nu_omega = 2.0 * np.pi / T * fft.fftfreq(M) * M
    # 1 / (|xi|^2 + i omega), zero only at (xi, omega) = (0, 0): the zero
    # spatial mode stays at zero
    ksq = sp.band_ksq
    inv = np.zeros((M, 1) + ksq.shape, dtype=complex)
    np.divide(1.0, ksq + 1j * nu_omega[:, None, None, None, None], out=inv,
              where=ksq > 0.0)
    # the Nyquist node mode is cos(Omega t), whose sin part vanishes at the nodes
    inv[M // 2] = inv[M // 2].real
    Hf *= inv
    return fft.ifft(Hf, axis=0)


def check_picard_settings(M: int, tol: float, max_iter: int) -> None:
    """Refuse an odd M or one below 8, a tol not in (0, inf), a max_iter below 1."""
    if M < 8 or M % 2 != 0:
        raise ValueError("node count M must be even and >= 8")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError(f"iteration cap max_iter must be >= 1, got {max_iter}")


def picard_solve(force: PeriodicForce, grid: Grid, M: int = 16, tol: float = 1e-8,
                 max_iter: int = 40, linear_only: bool = False) -> PeriodicSolution:
    """Iterate u <- H[u] from u = 0 on M nodes until the node residuals settle;
    after check_picard_settings, a T too short for M (the top node frequency
    (2 pi/T)(M/2) overflows) or too long (T (M-1) overflows) is refused."""
    check_picard_settings(M, tol, max_iter)
    if not math.isfinite(2.0 * math.pi / force.T * (M // 2)):
        raise ValueError(f"period T = {force.T} is too short for M = {M} nodes: "
                         f"the top temporal frequency (2 pi/T)(M/2) overflows")
    if not math.isfinite(force.T * (M - 1)):
        raise ValueError(f"period T = {force.T} is too long for M = {M} nodes: "
                         f"the node time T (M-1) / M overflows before its division by M")
    sp = _spectral(grid)
    h = _integrand(force, sp, linear_only)
    times = _node_times(force.T, M)
    u_hats = np.zeros((M, 3) + sp.band_ksq.shape, dtype=complex)

    history = []
    for _ in range(max_iter):
        # the integrand at the nodes as band spectra
        h_hats = np.array([h(u, t) for u, t in zip(u_hats, times)])
        # a force far outside the contraction regime overflows the resolve or
        # the norms; the non-finite residual is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            new = _resolve_periodic(h_hats, sp, force.T)
            scale = max(max(sp.l2(a) for a in new), 1e-300)
            history.append(max(sp.l2(a - b) for a, b in zip(new, u_hats)) / scale)
        u_hats = new
        if history[-1] <= tol:
            break
        if not math.isfinite(history[-1]) or (
                len(history) >= 4 and history[-4] <= history[-3] <= history[-2] <= history[-1]):
            raise ContractionError(history)

    return PeriodicSolution(grid=grid, force=force, snapshots=sp.inverse_band(u_hats),
                            linear_only=linear_only, converged=history[-1] <= tol,
                            residual_history=history)


def periodicity_check(sol: PeriodicSolution, steps: int = 256) -> float:
    """March u(0) over one period with ETDRK4 under sol's force and model; compare to u(0).

    u(0) must be solenoidal (relative divergence at most 1e-8), since the
    advection term is evaluated in divergence form.  Returns the relative
    defect |u_marched(T) - u(0)| / |u(0)| in L^2 (zero when both vanish).
    The march runs on the 2/3 band; the part of u(0) outside it (rounding
    noise on a solver's snapshot) is never marched and enters the defect
    in quadrature.
    """
    if steps < 1:
        raise ValueError(f"periodicity check needs at least one time step, got {steps}")
    sp = _spectral(sol.grid)
    full = sp.forward(sol.snapshots[0])
    den = sp.l2(np.sqrt(sp.ksq()) * full)
    defect = sp.l2(sp.div(full)) / den if den > 0 else 0.0
    if defect > _SOLENOIDAL_RTOL:
        raise ValueError(f"u(0) is not solenoidal: relative divergence {defect:.3e}")
    u0_norm = sp.l2(full)
    start = sp.band(full)
    outside = sp.l2(full - sp.from_band(start))
    dt = sol.force.T / steps
    L = -sp.band_ksq

    # phi-function coefficients by contour averaging around L*dt
    ncirc = 32
    circ = np.exp(2j * np.pi * (np.arange(ncirc) + 0.5) / ncirc)
    zc = L[..., None] * dt + circ
    E = np.exp(L * dt)
    E2 = np.exp(L * dt / 2.0)
    zeta = dt * ((np.exp(zc / 2.0) - 1.0) / zc).mean(axis=-1)
    alph = dt * ((-4.0 - zc + np.exp(zc) * (4.0 - 3.0 * zc + zc**2)) / zc**3).mean(axis=-1)
    beta = dt * ((2.0 + zc + np.exp(zc) * (-2.0 + zc)) / zc**3).mean(axis=-1)
    gamm = dt * ((-4.0 - 3.0 * zc - zc**2 + np.exp(zc) * (4.0 - zc)) / zc**3).mean(axis=-1)

    h = _integrand(sol.force, sp, sol.linear_only)
    uh = start
    t = 0.0
    for _ in range(steps):
        N1 = h(uh, t)
        a = E2 * uh + zeta * N1
        N2 = h(a, t + dt / 2.0)
        b = E2 * uh + zeta * N2
        N3 = h(b, t + dt / 2.0)
        c = E2 * a + zeta * (2.0 * N3 - N1)
        N4 = h(c, t + dt)
        uh = E * uh + alph * N1 + 2.0 * beta * (N2 + N3) + gamm * N4
        t += dt

    if u0_norm == 0.0:
        return float(sp.l2(uh))
    return math.hypot(sp.l2(uh - start), outside) / u0_norm


def weighted_report(sol: PeriodicSolution, q1: float, q2: float, s: float) -> dict:
    """Weighted solution norms against the forcing norm of the smallness theory.

    Reports sup over nodes of |<x>^s u|_{q1} + |<x>^s grad u|_{q2}, the
    forcing size |f|_s = sup_t |<x>^{2s} f(t)| in the intersection norm
    (max of the two component norms), and their ratio.  |cos| peaks at the
    node t = 0, so |f|_s is the norm of |amplitude| * profile.
    """
    g = sol.grid
    hs = HypothesisSet(n=g.n, q1=q1, q2=q2)

    sup_u = max(integrate(u, q1, s) + integrate(gradient_magnitude(u), q2, s)
                for u in map(sol.snapshot, range(len(sol.snapshots))))

    f = Field(g, abs(sol.force.amplitude) * sol.force.profile(g).data)
    # the derived index q12 reaches down to L^1 for diagnostic pairs
    force_norm = max(integrate(f, hs.q12, 2.0 * s), integrate(f, hs.q22_star, 2.0 * s))

    applicable = force_norm > 0.0
    return {
        "q1": q1,
        "q2": q2,
        "s": s,
        "q12": hs.q12,
        "q22_star": hs.q22_star,
        "sup_u_norm": sup_u,
        "force_norm": force_norm,
        "ratio": sup_u / force_norm if applicable else float("nan"),
        "applicable": applicable,
    }
