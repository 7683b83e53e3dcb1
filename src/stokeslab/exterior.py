"""The annulus divergence solver and the cut-off solenoidal extension.

The divergence solver realizes a right inverse of div on mean-zero data
over the annulus D_R = {R < |x| < R+1}: radial transport moves each ray's
mass across the shell, and a Poisson solve on the unit sphere (spherical
harmonics) redistributes the per-ray masses tangentially.  The output is
supported exactly in the closed annulus and the construction is second
order accurate in the grid spacing.  Everything here is n = 3 only.

The solver pays only for the annulus.  Its field sampler refines only the
cube around the ball |x| <= R + 1 plus a fixed margin, and applies the
cubic-spline prefilter to the refinement's spectrum on the way, so the
window's spline coefficients are exactly those of the whole periodic grid;
where the ball comes within that margin of the cube's faces, the window is
longer than the period and wraps round it.
One Gauss-Legendre ray quadrature gives both the per-ray masses on the
sphere grid and the partial ray integrals at the annulus points.  The
masses' expansion m and the surface gradient of its Poisson potential Phi
reach the points through a double Fourier grid (Merilees, Atmosphere 11
(1973) 13; Townsend, Wilber & Wright, SIAM J. Sci. Comput. 38 (2016) C403):
rows theta_j = pi j / n, j = 0..n, by 2n longitudes, n = _OVERSAMPLE
(lmax + 1) = 4 * 41, synthesized for m and Phi by one Legendre recursion,
continued to theta in [0, 2 pi) by g(2 pi - theta, phi) = g(theta, phi + pi)
and read with scipy's periodic cubic spline (map_coordinates, mode
"grid-wrap", which prefilters); grad_S Phi as Cartesian components, which
are smooth at the poles.  Error budget against the exact synthesis at
lmax 40 on the 40,670 points of D_2 at N = 128, L = 8: 3.1e-4 of max|m|
and 1.5e-4 of max|grad_S Phi| for white random masses (the tests hold
5e-4), 3.3e-5 and 1.7e-6 for bogovskii-test's; doubling the oversampling
divides it by about 16.

Memory: work over the whole grid streams, one component, one quadrature
node or one slab at a time, so no step holds a vector of full-grid
temporaries beside its input and output.  The ray quadrature samples one
Gauss node's points at a time, the sampler refines one slab at a time into
its window block, the annulus mask takes |x| on the shell only, the sphere
stage builds, reads and drops one function's double Fourier grid at a
time, and the extension builds v0 in B's buffer.  Each streamed sum keeps
the order of the batched one, so the outputs are bit for bit those of the
batched formulas, which the tests keep.

annulus_dipole and shell_potential build the analytic test inputs of the
two tools; the CLI, the acceptance criteria, the tests and the demo share them.
They, and the extension's cut-off, evaluate their radial profiles on the
thin shell where these are nonzero only.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid, divergence, fft_backend, integrate

__all__ = [
    "bogovskii_apply",
    "solenoidal_extension",
    "divergence_defect",
    "annulus_dipole",
    "shell_potential",
]


def _check_annulus(grid: Grid, R: float) -> None:
    """Refuse an annulus D_R = {R < |x| < R + 1} that the tools cannot treat
    on grid: R must be positive, n = 3, and D_R needs margin >= 1 inside the
    cube."""
    if not R > 0:
        raise ValueError(f"annulus inner radius must be positive, got {R}")
    if grid.n != 3:
        raise ValueError("annulus tools are implemented for n = 3 only")
    if not R + 2.0 <= grid.L:
        raise ValueError(
            f"annulus D_{R} needs margin >= 1 inside the cube: "
            f"R + 2 = {R + 2} exceeds L = {grid.L}"
        )


def _smoothstep7(t):
    """C^3 smoothstep and its derivative: 0 for t <= 0, 1 for t >= 1.  The
    derivative polynomial vanishes exactly at both clipped ends."""
    t = np.clip(t, 0.0, 1.0)
    return (t**4 * (35.0 - 84.0 * t + 70.0 * t * t - 20.0 * t**3),
            t**3 * (140.0 - 420.0 * t + 420.0 * t * t - 140.0 * t**3))


def _shell(grid: Grid, lo: float, hi: float):
    """The grid points of the shell lo <= |x| <= hi, selected on radius_sq()
    with the bounds widened by 1e-12 relative, so that rounding in |x| drops
    no point where a profile on the open shell is nonzero: the mask, the
    points' coordinates per axis and their |x|."""
    r_sq = grid.radius_sq()
    mask = (r_sq >= (lo * (1.0 - 1e-12)) ** 2) & (r_sq <= (hi * (1.0 + 1e-12)) ** 2)
    return mask, grid.axis[np.stack(np.nonzero(mask))], np.sqrt(r_sq[mask])


def _cut_off(u0: Field, R: float):
    """The radial cut-off phi, 1 for |x| <= R+2 and 0 for |x| >= R+3, and
    (grad phi) . u0 with grad phi = phi'(r) x/|x|; both as arrays, evaluated
    on the transition shell only."""
    grid = u0.grid
    shell, (x0, x1, x2), r = _shell(grid, R + 2.0, R + 3.0)
    s, ds = _smoothstep7(r - (R + 2.0))
    dp = -ds / r
    u = u0.data[:, shell]
    phi = (grid.radius_sq() < (R + 2.0) ** 2).astype(float)
    phi[shell] = 1.0 - s
    fb = np.zeros(grid.shape)
    fb[shell] = dp * x0 * u[0] + dp * x1 * u[1] + dp * x2 * u[2]
    return phi, fb


def annulus_dipole(grid: Grid, R: float) -> Field:
    """bogovskii_apply's test input on D_R: the x1-derivative of the radial
    bump (1 - t^2)^4, t = (|x| - R - 1/2)/0.35, which lies strictly inside
    D_R.  It is div(bump e1), mean-zero by antisymmetry.  D_R is checked
    against the grid before anything is built."""
    _check_annulus(grid, R)
    shell, (x0, _, _), r = _shell(grid, R + 0.15, R + 0.85)
    t = np.clip((r - (R + 0.5)) / 0.35, -1.0, 1.0)
    ds = -8.0 * t * (1.0 - t * t) ** 3 / 0.35
    out = np.zeros(grid.shape)
    out[shell] = ds * x0 / r
    return Field(grid, out)


def shell_potential(grid: Grid, R: float) -> Field:
    """The vector potential (-y, x, 0) (1 - t^2)^3, t = |x| - R - 2, supported
    in R + 1 <= |x| <= R + 3: its curl is solenoidal_extension's test input
    for exterior radius R.  The extension's shell D_{R+2} is checked against
    the grid, and R itself must be positive, before anything is built."""
    _check_annulus(grid, R + 2.0 if R > 0 else R)
    shell, (X, Y, _), r = _shell(grid, R + 1.0, R + 3.0)
    t = np.clip(r - (R + 2.0), -1.0, 1.0)
    prof = (1.0 - t * t) ** 3
    out = np.zeros((3,) + grid.shape)
    out[0, shell], out[1, shell] = -Y * prof, X * prof
    return Field(grid, out)


# ---------------------------------------------------------------------------
# spherical harmonic helper (fully normalized, Condon-Shortley)
# ---------------------------------------------------------------------------

# theta intervals per degree on the double Fourier grid, pole to pole:
# n = _OVERSAMPLE (lmax + 1) (see the module docstring for its error budget)
_OVERSAMPLE = 4


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
        # the grid's unit vectors, shape (3, n_theta, n_phi)
        phi, st = 2.0 * np.pi * np.arange(n_phi) / n_phi, self.sin_t[:, None]
        self.dirs = np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi),
                                                 mu[:, None]))
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
        fk = fft_backend().rfft(values, axis=1) * (2.0 * np.pi / self.n_phi)
        coef = np.zeros((self.lmax + 1, self.lmax + 1), dtype=complex)
        for m in range(self.lmax + 1):
            G, _ = self._legendre_block(m, self.mu, self.sin_t)
            P = G * self.sin_t if m else G
            coef[m, m:] = (P * self.wgl) @ fk[:, m]
        return coef

    def synth_rows(self, coef, theta, n_phi):
        """A stack coef (K, lmax+1, lmax+1) of real expansions, their d/dtheta
        and their (1/sin)d/dphi on the rows theta by the longitudes
        2 pi k / n_phi: shape (3, K, rows, n_phi).  The Legendre recursion
        runs once per m over the rows for the whole stack, each expansion's
        product with it a vector-matrix product of its own; then one inverse
        rfft per row, where the m > 0 terms count twice for their -m partners."""
        mu, sin_t = np.cos(theta), np.sin(theta)
        spec = np.zeros((3, len(coef)) + theta.shape + (self.lmax + 1,), dtype=complex)
        for m in range(self.lmax + 1):
            G, dP = self._legendre_block(m, mu, sin_t)
            for k, c in enumerate(coef[:, m, m:]):
                v = c @ G
                spec[0, k, :, m] = v * sin_t if m else v
                spec[1, k, :, m] = c @ dP
                spec[2, k, :, m] = 1j * m * v
        return fft_backend().irfft(spec, n=n_phi, norm="forward")


def _sphere_at(sph, coef, theta, phi):
    """m, the expansion coef, and the surface gradient of its Poisson
    potential Phi (Laplace-Beltrami Phi = m, l = 0 dropped) as Cartesian
    components, at the points (theta, phi): shapes (points,) and (3, points).
    Read off the double Fourier grid of the module docstring with
    n = _OVERSAMPLE (lmax + 1), one function's grid at a time."""
    from scipy.ndimage import map_coordinates

    n = _OVERSAMPLE * (sph.lmax + 1)
    theta_j = np.pi * np.arange(n + 1) / n
    coords = np.stack([theta, phi]) * (n / np.pi)

    def at_points(rows):
        # the rows strictly between the poles, in reverse and turned half a
        # circle, continue theta past pi; map_coordinates takes the torus's
        # periodic cubic-spline coefficients itself
        torus = np.concatenate([rows, np.roll(rows[n - 1:0:-1], n, axis=1)])
        return map_coordinates(torus, coords, order=3, mode="grid-wrap")

    # m's rows and Phi's derivative rows from one recursion
    rows = sph.synth_rows(np.stack([coef, coef / sph.eig]), theta_j, 2 * n)
    value = at_points(rows[0, 0])
    dth, dph = rows[1:, 1]
    # grad_S = theta_hat d/dtheta + phi_hat (1/sin)d/dphi; its Cartesian
    # components are smooth at the poles, where the frame is not
    cos_t, sin_t = np.cos(theta_j)[:, None], np.sin(theta_j)[:, None]
    phi_k = np.pi * np.arange(2 * n) / n
    cos_p, sin_p = np.cos(phi_k), np.sin(phi_k)
    grad = np.stack([at_points(cos_t * cos_p * dth - sin_p * dph),
                     at_points(cos_t * sin_p * dth + cos_p * dph),
                     at_points(-sin_t * dth)])
    return value, grad


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
# fine samples between the sampled ball and the edge of the sampler's window:
# a cubic spline reads two coefficients either side of a point
_WINDOW_MARGIN = 2


def _spline_refinement(data, window):
    """Cubic B-spline coefficients of the 2x trigonometric refinement of a
    periodic 3-D array, on the fine indices window of every axis.

    Per axis the real half spectrum k = 0..N/2 is scaled by 2 (the
    refinement) times 3 / (2 + cos(pi k / N)), the inverse of the cubic
    B-spline's symbol on the 2N fine samples (Unser, Aldroubi & Eden, IEEE
    Trans. Signal Process. 41 (1993) 821); the Nyquist bin is halved, and
    the inverse transform to 2N samples pads it with zeros.  Each axis is
    cut to window right after it is refined, so the later axes transform
    only the lines that cross the window.  Every line is transformed whole,
    so the block is bit-identical to the same window of the whole grid's
    coefficients.
    """
    fft = fft_backend()
    for ax in range(3):
        N = data.shape[ax]
        gain = 6.0 / (2.0 + np.cos(np.pi * np.arange(N // 2 + 1) / N))
        gain[N // 2] *= 0.5
        keep = np.arange(2 * N)[window]
        out = np.empty(data.shape[:ax] + keep.shape + data.shape[ax + 1:])
        # one slab across another axis at a time, written into the window
        # block; each slab's lines along ax are still transformed whole
        across = 1 if ax == 0 else 0
        along = ax - (across < ax)          # ax within a slab
        for i in range(data.shape[across]):
            slab = (slice(None),) * across + (i,)
            hat = fft.rfft(data[slab], axis=along)
            hat *= gain.reshape((-1,) + (1,) * (1 - along))
            out[slab] = np.take(fft.irfft(hat, n=2 * N, axis=along), keep, axis=along)
        data = out
    return data


class _FieldSampler:
    """Point evaluation of a periodic grid field inside the ball |x| <= radius.

    The samples are upsampled 2x by trigonometric interpolation (the fields
    are band-limited) and read off with a cubic spline whose coefficients
    are prepared once, from the same spectrum (_spline_refinement).  Only
    the cube around the ball plus _WINDOW_MARGIN fine samples per side is
    refined; where the ball comes within that margin of the cube's faces,
    the window is longer than the period and wraps round it.
    """

    def __init__(self, f: Field, radius: float):
        g = f.grid
        self.L = g.L
        self.h = g.h / 2.0
        Nf = 2 * g.N
        # fine indices of the ball's bounding box: edge and N_f - edge, so
        # the window is symmetric about x = 0 like the ball
        edge = int(np.floor((g.L - radius) / self.h))
        self.lo = edge - _WINDOW_MARGIN
        window = np.arange(self.lo, Nf - edge + _WINDOW_MARGIN + 1) % Nf
        self.coeffs = _spline_refinement(f.data, window)

    def __call__(self, points):
        """Values at points given components first, shape (3, ...)."""
        from scipy.ndimage import map_coordinates

        return map_coordinates(self.coeffs, (points + self.L) / self.h - self.lo, order=3,
                               mode="mirror", prefilter=False)


def _ray_integral(sample_f, R, r, u):
    """int_R^r f(rho u) rho^2 drho along the unit vectors u, shape (3, ...), to
    the radii r (a scalar or an array of u's point shape), by Gauss-Legendre."""
    half = 0.5 * (r - R)
    total = None
    # one node at a time, summed in node order like a sum over a node axis
    for t, w in zip(*np.polynomial.legendre.leggauss(_N_RAD)):
        rho = R + half * (t + 1.0)
        term = w * np.square(rho) * sample_f(rho * u)
        if total is None:
            total = term
        else:
            total += term
    return total * half


def bogovskii_apply(f: Field, R: float, mean_rtol: float = 1e-10) -> Field:
    """Solve div B = f on D_R with supp B inside closure(D_R), B = 0 elsewhere.

    f must be a scalar field supported in the annulus with grid mean at most
    mean_rtol times its L^1 norm (the mean-zero class); otherwise rejected.
    """
    grid = f.grid
    _check_annulus(grid, R)
    if f.is_vector:
        raise ValueError("divergence data must be a scalar field")
    # the open annulus, with |x| taken on the closed shell's points only
    inside, P, pr = _shell(grid, R, R + 1.0)
    open_ = (pr > R) & (pr < R + 1.0)
    inside[inside] = open_
    P, pr = P[:, open_], pr[open_]
    stray = f.data != 0.0
    stray[inside] = False
    if np.any(stray):
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
    m_grid = _ray_integral(sample_f, R, R + 1.0, sph.dirs)

    # radial integrals int_R^r f rho^2 drho at the annulus points
    rhat = P / pr
    F_p = _ray_integral(sample_f, R, pr, rhat)
    del sample_f            # its window's coefficients are not needed past here

    # correct the (tiny) residual mean so the l=0 mode is exactly absent
    coef = sph.analyze(m_grid)
    coef[0, 0] = 0.0

    theta_p = np.arccos(np.clip(rhat[2], -1.0, 1.0))
    phi_p = np.mod(np.arctan2(P[1], P[0]), 2.0 * np.pi)
    # m(omega) and grad_S Phi at the points, off the double Fourier grid
    m_p, grad = _sphere_at(sph, coef, theta_p, phi_p)

    width = _TRANSPORT_HI - _TRANSPORT_LO
    tt = (pr - (R + _TRANSPORT_LO)) / width
    M, Md = _smoothstep7(tt)
    Md /= width

    # radial part: (int_R^r f rho^2 - M(r) m(omega)) / r^2 along each ray
    v_r = (F_p - M * m_p) / pr**2

    # tangential part: (M'(r)/r) grad_S Phi
    tang = (Md / pr) * grad

    out = np.zeros((3,) + grid.shape)
    out[:, inside] = v_r * rhat + tang
    return Field(grid, out)


def divergence_defect(B: Field, f: Field) -> float:
    """Relative L^2 error over the whole grid of the spectral divergence of B against f."""
    norm = integrate(f, 2)
    if norm == 0.0:
        raise ValueError("divergence data vanishes on the grid: the relative defect is 0/0")
    return integrate(divergence(B) - f, 2) / norm


def solenoidal_extension(u0: Field, R: float):
    """Extend a field solenoidal outside B_R to a solenoidal field everywhere.

    Computes v0 = (1 - phi) u0 + B[(grad phi) . u0] with phi the cut-off equal
    to 1 inside |x| <= R+2 and 0 outside |x| >= R+3; the divergence correction
    lives on the annulus D_{R+2}.  Requires 0 < R and R + 4 <= L.  Returns (v0, info):
    info holds the annulus solve's divergence defect (bog_defect) and the
    global divergence of v0 relative to |u0| (pi/L) (div_v0_rel).
    """
    grid = u0.grid
    if not u0.is_vector:
        raise ValueError("solenoidal_extension expects a vector field")
    _check_annulus(grid, R + 2.0 if R > 0 else R)     # the shell D_{R+2}; R > 0 too

    scale = integrate(u0, 2) * (np.pi / grid.L)
    if scale == 0.0:
        raise ValueError("u0 vanishes on the grid: its relative divergence is 0/0")
    # the defect counts the exterior |x| > R only
    defect = integrate(Field(grid, np.where(np.sqrt(grid.radius_sq()) > R,
                                            divergence(u0).data, 0.0)), 2)
    if defect > _DIV_RTOL * scale:
        raise ValueError(
            f"u0 is not solenoidal on the exterior region: relative divergence "
            f"{defect / scale:.3e} exceeds {_DIV_RTOL:.1e}"
        )

    phi, fb = _cut_off(u0, R)
    fb = Field(grid, fb)

    # mean-zero holds analytically; on the grid only to quadrature accuracy
    B = bogovskii_apply(fb, R + 2.0, mean_rtol=max(1e-10, 0.5 * grid.h))
    bog_defect = divergence_defect(B, fb)
    del fb
    # v0 = (1 - phi) u0 + B, built in B's buffer one component at a time
    np.subtract(1.0, phi, out=phi)
    for b, u in zip(B.data, u0.data):
        b += phi * u
    del phi
    v0 = Field(grid, B.data)
    return v0, {
        "bog_defect": bog_defect,
        "div_v0_rel": integrate(divergence(v0), 2) / scale,
    }
