"""Cut-off functions, the annulus divergence solver, and solenoidal extension.

The divergence solver realizes a right inverse of div on mean-zero data
over the annulus D_R = {R < |x| < R+1}: radial transport moves each ray's
mass across the shell, and a Poisson solve on the unit sphere (spherical
harmonics) redistributes the per-ray masses tangentially.  The output is
supported exactly in the closed annulus and the construction is second
order accurate in the grid spacing.  Everything here is n = 3 only.

The solver pays only for the annulus.  Its field sampler refines and
prefilters only the cube around the ball |x| <= R + 1 plus a fixed margin;
on a coarse grid that window is longer than the period and wraps round it.
One Gauss-Legendre ray quadrature gives both the per-ray masses on the
sphere grid and the partial ray integrals at the annulus points.  The
spherical synthesis at the annulus points runs its Legendre recursion and
matrix products only above the equator: the point set is symmetric under
z -> -z (grid index k pairs with N - k on the last axis), and the parity
of P_l^m gives the values below from the even and odd l + m sums above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .corpus import refine_block
from .grid import Field, Grid, divergence, integrate

__all__ = [
    "AnnulusSpec",
    "RadialCutoff",
    "bogovskii_apply",
    "solenoidal_extension",
    "divergence_defect",
]


@dataclass(frozen=True)
class AnnulusSpec:
    """Annulus D_R = {x : R < |x| < R + 1}."""

    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"annulus inner radius must be positive, got {self.R}")

    def validate_for(self, grid: Grid) -> None:
        if grid.n != 3:
            raise ValueError("annulus tools are implemented for n = 3 only")
        if not self.R + 2.0 <= grid.L:
            raise ValueError(
                f"annulus D_{self.R} needs margin >= 1 inside the cube: "
                f"R + 2 = {self.R + 2} exceeds L = {grid.L}"
            )


def _smoothstep7(t):
    """C^3 smoothstep: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    return t**4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t**3)


def _smoothstep7_d(t):
    tc = np.clip(t, 0.0, 1.0)
    return np.where(
        (t > 0.0) & (t < 1.0),
        tc**3 * (140.0 - 420.0 * tc + 420.0 * tc * tc - 140.0 * tc**3),
        0.0,
    )


class RadialCutoff:
    """Radial profile equal to 1 for |x| <= r_on, 0 for |x| >= r_off."""

    def __init__(self, r_on: float, r_off: float):
        if not r_off > r_on:
            raise ValueError("cutoff needs r_off > r_on")
        self.r_on = float(r_on)
        self.r_off = float(r_off)

    def profile(self, r):
        return 1.0 - _smoothstep7((r - self.r_on) / (self.r_off - self.r_on))

    def profile_d(self, r):
        return -_smoothstep7_d((r - self.r_on) / (self.r_off - self.r_on)) / (
            self.r_off - self.r_on
        )

    def field(self, grid: Grid) -> Field:
        return Field(grid, self.profile(np.sqrt(grid.radius_sq())))

    def gradient_field(self, grid: Grid) -> Field:
        """Analytic gradient, profile'(r) x/|x|."""
        r = np.sqrt(grid.radius_sq())
        rs = np.where(r > 0, r, 1.0)
        dp = self.profile_d(r) / rs
        return Field(grid, np.stack([dp * xi for xi in grid.coords()]))


# ---------------------------------------------------------------------------
# spherical harmonic helper (fully normalized, Condon-Shortley)
# ---------------------------------------------------------------------------


class _SphereSolver:
    """Poisson solve on the unit sphere via Gauss-Legendre x uniform grid.

    Expansions are of real functions, so c_{l,-m} = (-1)^m conj(c_{l,m}) and
    only m >= 0 is stored: coef[m, l], shape (lmax+1, lmax+1), zero for l < m.
    The analysis reads longitude modes m <= lmax, so lmax <= n_phi // 2.
    """

    def __init__(self, n_theta=64, n_phi=128, lmax=40):
        self.n_theta, self.n_phi, self.lmax = n_theta, n_phi, lmax
        mu, wgl = np.polynomial.legendre.leggauss(n_theta)
        self.mu = mu
        self.wgl = wgl
        self.sin_t = np.sqrt(1.0 - mu**2)
        self.theta = np.arccos(mu)
        self.phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        # eigenvalues -l(l+1) of the sphere Laplacian; l = 0 maps to inf so
        # that dividing by eig drops the constant mode
        ll = np.arange(lmax + 1, dtype=float)
        self.eig = np.where(ll > 0, -ll * (ll + 1.0), np.inf)

    def _legendre_block(self, m, mu, sin_t):
        """G and dP/dtheta for l = m..lmax (row i is l = m + i), normalized.

        G = P_l^m / sin(theta) for m >= 1 and G = P_l^0 for m = 0.  Both come
        from division-free recurrences, so they hold at the poles: G obeys
        the three-term recurrence of P_l^m, and dP/dtheta its derivative
        (dmu/dtheta = -sin theta); Schaeffer, Geochem. Geophys. Geosyst. 14
        (2013) 751.
        """
        G = np.empty((self.lmax + 1 - m,) + mu.shape)
        dP = np.empty_like(G)
        c = np.sqrt(1.0 / (4.0 * np.pi))
        for k in range(1, m + 1):
            c *= -np.sqrt((2.0 * k + 1.0) / (2.0 * k))
        G[0] = c * sin_t ** max(m - 1, 0)
        dP[0] = m * mu * G[0]
        sin_p = sin_t * sin_t if m else sin_t      # sin(theta) P_l^m = sin_p G_l
        if len(G) > 1:
            a = np.sqrt(2.0 * m + 3.0)
            G[1] = a * mu * G[0]
            dP[1] = a * (mu * dP[0] - sin_p * G[0])
        for i in range(2, len(G)):
            l = m + i
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            G[i] = a * (mu * G[i - 1] - b * G[i - 2])
            dP[i] = a * (mu * dP[i - 1] - sin_p * G[i - 1] - b * dP[i - 2])
        return G, dP

    def analyze(self, values):
        """Coefficients coef[m, l] of real values sampled on the (theta, phi) grid."""
        fk = scipy.fft.rfft(values, axis=1) * (2.0 * np.pi / self.n_phi)
        coef = np.zeros((self.lmax + 1, self.lmax + 1), dtype=complex)
        for m in range(self.lmax + 1):
            G, _ = self._legendre_block(m, self.mu, self.sin_t)
            P = G * self.sin_t if m else G
            coef[m, m:] = (P * self.wgl) @ fk[:, m]
        return coef

    def synth_at(self, coef, theta, phi, mirror=None):
        """Evaluate a stack coef (K, lmax+1, lmax+1) of real expansions at the
        points given by the flat arrays theta, phi.

        Returns (value, d/dtheta, (1/sin)d/dphi), each of shape (K, points);
        the m > 0 terms count twice, standing in for their -m partners.  An
        index array mirror appends one column per entry: the expansion at
        the reflected point (pi - theta[i], phi[i]) for i in mirror.  Since
        P_l^m(-mu) = (-1)^(l+m) P_l^m(mu), the sums E, O over even and odd
        l + m give value and phi-derivative E + O at a point and E - O at its
        reflection, and d/dtheta E' + O' and -(E' - O'); so the reflections
        cost no recursion and no matrix product.
        """
        mu = np.cos(theta)
        sin_t = np.sin(theta)
        K = coef.shape[0]
        # parts[p] holds (value, d/dtheta, (1/sin)d/dphi) over l + m = p mod 2
        parts = np.zeros((2, 3, K) + theta.shape)
        for m in range(self.lmax + 1):
            G, dP = self._legendre_block(m, mu, sin_t)
            ab = np.concatenate([coef[:, m, m:].real, coef[:, m, m:].imag])   # (2K, lmax+1-m)
            w = 1.0 if m == 0 else 2.0
            c, s = w * np.cos(m * phi), w * np.sin(m * phi)
            for p in (0, 1):
                a, b = np.split(ab[:, p::2] @ G[p::2], 2)
                da, db = np.split(ab[:, p::2] @ dP[p::2], 2)
                val, dth, dph = parts[p]
                val += (sin_t if m else 1.0) * (a * c - b * s)
                dth += da * c - db * s
                dph -= m * (a * s + b * c)
        even, odd = parts
        out = even + odd
        if mirror is not None:
            flip = (even - odd)[..., mirror]
            flip[1] *= -1.0
            out = np.concatenate([out, flip], axis=-1)
        return tuple(out)


def _equator_fold(inside):
    """Pair the points of a grid mask under z -> -z by grid index.

    The last grid axis is z, and index k mirrors to N - k.  A point with
    z < 0 whose mirror is also inside is a reflection; every other point is
    direct.  Returns (direct, src, order) over the points of inside in grid
    order: the boolean mask of direct points; the direct points that the
    reflections mirror, as indices among the direct points; and the column
    of each point in synth_at(..., theta[direct], phi[direct], mirror=src).
    Pairing by index and not by coordinates matters because x_k + x_(N-k) is
    a rounding error, not 0, on most grids.
    """
    N = inside.shape[-1]
    k = np.arange(N)
    refl = np.roll(inside[..., ::-1], 1, axis=-1)      # refl[..., k] = inside[..., (N-k) % N]
    mirrored = inside & refl & ((k >= 1) & (2 * k < N))
    n_direct = np.count_nonzero(inside) - np.count_nonzero(mirrored)
    pos = np.zeros(inside.shape, dtype=np.intp)
    pos[inside & ~mirrored] = np.arange(n_direct)
    pos[mirrored] = np.arange(n_direct, np.count_nonzero(inside))
    src = np.roll(pos[..., ::-1], 1, axis=-1)[mirrored]
    return ~mirrored[inside], src, pos[inside]


# ---------------------------------------------------------------------------
# the annulus divergence solver
# ---------------------------------------------------------------------------

# transition window of the radial mass-transport profile, inside (0, 1)
_TRANSPORT_LO = 0.15
_TRANSPORT_HI = 0.85
# Gauss-Legendre nodes of the ray quadrature _ray_integral
_N_RAD = 24
# relative divergence of u0 on the exterior region that still counts as zero
_DIV_RTOL = 1e-8
# fine samples between the sampled ball and the edge of the sampler's window
_WINDOW_MARGIN = 32


class _FieldSampler:
    """Point evaluation of a periodic grid field inside the ball |x| <= radius.

    The samples are first upsampled 2x by trigonometric interpolation (the
    fields are band-limited), then read off with a cubic spline; the spline
    coefficients are prepared once.  Only the cube around the ball plus
    _WINDOW_MARGIN fine samples per side is refined and prefiltered; on a
    coarse grid that window is longer than the period and wraps round it.
    The prefilter mirrors at the window's edges instead of wrapping; its
    recursion decays like (2 - sqrt 3)^d over d samples, so at the ball that
    changes the coefficients by about 0.268^32 ~ 5e-19 relative.
    """

    def __init__(self, f: Field, radius: float):
        from scipy.ndimage import spline_filter

        g = f.grid
        self.L = g.L
        self.h = g.h / 2.0
        Nf = 2 * g.N
        # fine indices of the ball's bounding box: edge and N_f - edge, so
        # the window is symmetric about x = 0 like the ball
        edge = int(np.floor((g.L - radius) / self.h))
        self.lo = edge - _WINDOW_MARGIN
        window = np.arange(self.lo, Nf - edge + _WINDOW_MARGIN + 1) % Nf
        fine = refine_block(f.data, g.n, 2, window)
        self.coeffs = spline_filter(fine, order=3, mode="mirror")

    def __call__(self, points):
        """Values at points given components first, shape (3, ...)."""
        from scipy.ndimage import map_coordinates

        return map_coordinates(self.coeffs, (points + self.L) / self.h - self.lo, order=3,
                               mode="mirror", prefilter=False)


def _ray_integral(sample_f, R, r, u):
    """int_R^r f(rho u) rho^2 drho along the unit vectors u, shape (3, ...), to
    the radii r (a scalar or an array of u's point shape), by Gauss-Legendre."""
    t, w = (a.reshape((-1,) + (1,) * (u.ndim - 1))
            for a in np.polynomial.legendre.leggauss(_N_RAD))
    half = 0.5 * (r - R)
    rho = R + half * (t + 1.0)                            # (n_rad, ...)
    return np.sum(w * rho**2 * sample_f(rho * u[:, None]), axis=0) * half


def bogovskii_apply(f: Field, spec: AnnulusSpec, mean_rtol: float = 1e-10) -> Field:
    """Solve div B = f on D_R with supp B inside closure(D_R), B = 0 elsewhere.

    f must be a scalar field supported in the annulus with grid mean at most
    mean_rtol times its L^1 norm (the mean-zero class); otherwise rejected.
    """
    grid = f.grid
    spec.validate_for(grid)
    if f.is_vector:
        raise ValueError("divergence data must be a scalar field")
    R = spec.R
    r = np.sqrt(grid.radius_sq())
    inside = (r > R) & (r < R + 1.0)
    if np.any(f.data[~inside] != 0.0):
        raise ValueError("f must vanish identically outside the open annulus")

    total = float(np.sum(f.data) * grid.cell_volume)
    l1 = integrate(f, 1)
    if l1 == 0.0:
        return Field(grid, np.zeros((3,) + grid.shape))
    if abs(total) > mean_rtol * l1:
        raise ValueError(
            f"annulus data is not mean-zero: grid mean {total:.3e} exceeds "
            f"{mean_rtol:.1e} * ||f||_L1 = {mean_rtol * l1:.3e}"
        )

    sph = _SphereSolver()
    sample_f = _FieldSampler(f, R + 1.0)

    # per-ray masses m(omega) = int_R^{R+1} f(rho omega) rho^2 drho on the sphere grid
    st = sph.sin_t[:, None]
    dirs = np.stack(np.broadcast_arrays(
        st * np.cos(sph.phi), st * np.sin(sph.phi), sph.mu[:, None]
    ))  # (3, n_theta, n_phi)
    m_grid = _ray_integral(sample_f, R, R + 1.0, dirs)

    # correct the (tiny) residual mean so the l=0 mode is exactly absent
    coef = sph.analyze(m_grid)
    coef[0, 0] = 0.0
    phi_coef = coef / sph.eig      # Laplace-Beltrami Phi = m on the sphere

    # annulus target points and their unit vectors
    P = np.stack([x[inside] for x in grid.coords()])
    pr = r[inside]
    rhat = P / pr
    theta_p = np.arccos(np.clip(rhat[2], -1.0, 1.0))
    phi_p = np.mod(np.arctan2(P[1], P[0]), 2.0 * np.pi)

    # m(omega) and the tangential gradient grad_S Phi in one synthesis pass;
    # the points below the equator are reflections of points above it
    direct, src, order = _equator_fold(inside)
    val, dth, dph = sph.synth_at(np.stack([coef, phi_coef]), theta_p[direct],
                                 phi_p[direct], mirror=src)
    m_p, dth, dph = val[0, order], dth[1, order], dph[1, order]

    width = _TRANSPORT_HI - _TRANSPORT_LO
    tt = (pr - (R + _TRANSPORT_LO)) / width
    M = _smoothstep7(tt)
    Md = _smoothstep7_d(tt) / width

    # radial part: (int_R^r f rho^2 - M(r) m(omega)) / r^2 along each ray
    F_p = _ray_integral(sample_f, R, pr, rhat)
    v_r = (F_p - M * m_p) / pr**2

    sin_tp = np.sin(theta_p)
    cos_tp = np.cos(theta_p)
    cph, sph_ = np.cos(phi_p), np.sin(phi_p)
    that = np.stack([cos_tp * cph, cos_tp * sph_, -sin_tp])
    phat = np.stack([-sph_, cph, np.zeros_like(cph)])

    # tangential part: (M'(r)/r) grad_S Phi
    tang = (Md / pr) * (dth * that + dph * phat)

    out = np.zeros((3,) + grid.shape)
    out[:, inside] = v_r * rhat + tang
    return Field(grid, out)


def divergence_defect(B: Field, f: Field) -> float:
    """Relative L^2 error over the whole grid of the spectral divergence of B against f."""
    norm = integrate(f, 2)
    if norm == 0.0:
        raise ValueError("divergence data vanishes on the grid: the relative defect is 0/0")
    return integrate(divergence(B) - f, 2) / norm


def solenoidal_extension(u0: Field, spec: AnnulusSpec):
    """Extend a field solenoidal outside B_R to a solenoidal field everywhere.

    Computes v0 = (1 - phi) u0 + B[(grad phi) . u0] with phi the cut-off equal
    to 1 inside |x| <= R+2 and 0 outside |x| >= R+3; the divergence correction
    lives on the annulus D_{R+2}.  Requires R + 4 <= L.  Returns (v0, info):
    info holds the annulus solve's divergence defect (bog_defect) and the
    global divergence of v0 relative to |u0| (pi/L) (div_v0_rel).
    """
    grid = u0.grid
    if not u0.is_vector:
        raise ValueError("solenoidal_extension expects a vector field")
    R = spec.R
    shell = AnnulusSpec(R + 2.0)
    shell.validate_for(grid)

    scale = integrate(u0, 2) * (np.pi / grid.L)
    if scale == 0.0:
        raise ValueError("u0 vanishes on the grid: its relative divergence is 0/0")
    r = np.sqrt(grid.radius_sq())
    div_u0 = divergence(u0)
    div_u0.data[r <= R] = 0.0          # the defect counts the exterior |x| > R only
    defect = integrate(div_u0, 2)
    if defect > _DIV_RTOL * scale:
        raise ValueError(
            f"u0 is not solenoidal on the exterior region: relative divergence "
            f"{defect / scale:.3e} exceeds {_DIV_RTOL:.1e}"
        )

    cut = RadialCutoff(R + 2.0, R + 3.0)
    phi = cut.field(grid).data
    gphi = cut.gradient_field(grid).data
    fb_data = np.sum(gphi * u0.data, axis=0)
    fb = Field(grid, fb_data)

    # mean-zero holds analytically; on the grid only to quadrature accuracy
    B = bogovskii_apply(fb, shell, mean_rtol=max(1e-10, 0.5 * grid.h))
    v0 = Field(grid, (1.0 - phi) * u0.data + B.data)
    return v0, {
        "bog_defect": divergence_defect(B, fb),
        "div_v0_rel": integrate(divergence(v0), 2) / scale,
    }
