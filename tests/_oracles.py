"""Independent numerical oracles.

Everything here is built from brute-force sums, adaptive quadrature, dense
linear algebra (the full Bloch steady state of one atom, with no weak-probe
approximation and with the Gamma_re that the library does not model), or
mpmath, and recomputes physical constants and thermodynamics from scratch;
none of it calls the closed-form code paths under test.  Oracle accuracy is
well beyond the comparison tolerances used in the tests (notes inline).
"""

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad

HBAR = 1.0545718176461565e-34
KB = 1.380649e-23
C_LIGHT = 299792458.0

# Panels for the Gaussian momentum integral, graded toward t = 0 where the
# Bose factor -ln(1 - u e^{-t^2}) is log-singular at u = 1.  Beyond t = 10
# the integrand is < e^{-100}.
T_MESH_EDGES = [0.0] + [10.0**k for k in range(-12, -1)] + [0.1, 0.3, 1.0, 2.0, 3.5, 5.0, 7.0, 10.0]


def gl_panels(edges, order=32):
    """Compound Gauss-Legendre rule over consecutive panels."""
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (hi + lo) + half * base_x)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def zeta_constant(nu, head=100_000):
    """Riemann zeta(nu) as a tail-bounded brute-force sum.

    Midpoint tail integral; the error is bounded by nu (L+1/2)^{-nu-1}/24,
    which is < 2e-14 already for nu = 3/2.
    """
    head_sum = math.fsum(float(l) ** -nu for l in range(1, head + 1))
    tail = (head + 0.5) ** (1.0 - nu) / (nu - 1.0)
    return head_sum + tail


def polylog_bruteforce(nu, alpha):
    """g_nu(e^-alpha) summed directly until the geometric tail is < 1e-17 relative."""
    if alpha == 0.0:
        return zeta_constant(nu)
    count = max(1000, int(80.0 / alpha))
    l = np.arange(1, count + 1, dtype=float)
    return float(np.sum(np.exp(-alpha * l) / l**nu))


def polylog_mp(nu, alpha):
    """mpmath g_nu(e^-alpha) as an mpf, with e^-alpha taken in mpmath to 30
    digits of alpha itself, which a small alpha would lose in f."""
    extra = max(0, int(-math.log10(alpha))) if 0.0 < alpha < 1.0 else 0
    with mpmath.workdps(30 + extra):
        return +mpmath.polylog(nu, mpmath.exp(-mpmath.mpf(alpha)))


def faddeeva_by_quadrature(y):
    """w(y) = (i/pi) Int e^{-t^2}/(y - t) dt for Im y > 0, split at Re y."""

    def integrand(t):
        return cmath.exp(-t * t) / (y - t)

    kwargs = dict(complex_func=True, epsabs=1e-14, epsrel=1e-13, limit=400)
    left = quad(integrand, -np.inf, y.real, **kwargs)[0]
    right = quad(integrand, y.real, np.inf, **kwargs)[0]
    return 1j / math.pi * (left + right)


def zeta_by_formula(fields, recoil):
    """(zeta, dzeta/domega) straight from the displayed definition."""
    delta2 = fields.detuning_g0_rad_s - fields.detuning_r0_rad_s
    gamma_ge = fields.gamma_ge_rad_s
    eit = (fields.omega_coupling_rad_s**2 / 4.0) / (gamma_ge * (fields.gamma_gr_rad_s + 1j * delta2))
    value = -(fields.detuning_g0_rad_s + recoil) / gamma_ge + 1j + 1j * eit
    d_domega = 1.0 / gamma_ge - (fields.omega_coupling_rad_s**2 / 4.0) / (
        gamma_ge * (fields.gamma_gr_rad_s + 1j * delta2) ** 2
    )
    return value, d_domega


@dataclass(frozen=True)
class BlochSteadyState:
    """Steady state of one momentum class; rho_eg etc. follow by Hermiticity."""

    rho_gg: float
    rho_rr: float
    rho_ee: float
    rho_ge: complex
    rho_re: complex
    rho_gr: complex

    @property
    def rho_eg(self):
        return self.rho_ge.conjugate()

    @property
    def trace(self):
        return self.rho_gg + self.rho_rr + self.rho_ee


def bloch_steady_oracle(fields, probe_rabi, detuning_g, detuning_r, gamma_re=None):
    """Steady state of the full Bloch equations of one momentum class.

    Solves the 9x9 linear system (populations + 6 coherences, trace row in
    place of the redundant rho_gg equation) with dense linear algebra; no
    weak-probe approximation.  gamma_re, the |r>-|e> coherence rate, defaults
    to Gamma_ge; to first order in the probe rho_eg does not depend on it.
    """
    g = probe_rabi
    om = fields.omega_coupling_rad_s
    gge = fields.gamma_ge_rad_s
    gre = gge if gamma_re is None else gamma_re
    ggr = fields.gamma_gr_rad_s
    # radiative case: the population decay of |e> and its branch rates
    # follow from the coherence rates, Gamma = Gamma_ge + Gamma_re
    gamma_total = gge + gre
    gamma_r = gre
    dg = detuning_g
    dr = detuning_r
    d2 = dg - dr

    # unknowns: [rho_gg, rho_rr, rho_ee, x_ge, x_eg, x_re, x_er, x_gr, x_rg]
    a = np.zeros((9, 9), dtype=complex)
    b = np.zeros(9, dtype=complex)
    a[0, 0] = a[0, 1] = a[0, 2] = 1.0  # trace
    b[0] = 1.0
    # d rho_rr = gamma_r rho_ee + i Om/2 (x_er - x_re)
    a[1, 2] = gamma_r
    a[1, 6] = 1j * om / 2.0
    a[1, 5] = -1j * om / 2.0
    # d rho_ee = -gamma rho_ee + i g/2 (x_ge - x_eg) + i Om/2 (x_re - x_er)
    a[2, 2] = -gamma_total
    a[2, 3] = 1j * g / 2.0
    a[2, 4] = -1j * g / 2.0
    a[2, 5] = 1j * om / 2.0
    a[2, 6] = -1j * om / 2.0
    # d x_ge = (i dg - Gge) x_ge + i g/2 (rho_ee - rho_gg) - i Om/2 x_gr
    a[3, 3] = 1j * dg - gge
    a[3, 2] = 1j * g / 2.0
    a[3, 0] = -1j * g / 2.0
    a[3, 7] = -1j * om / 2.0
    # conjugate
    a[4, 4] = -1j * dg - gge
    a[4, 2] = -1j * g / 2.0
    a[4, 0] = 1j * g / 2.0
    a[4, 8] = 1j * om / 2.0
    # d x_re = (i dr - Gre) x_re + i Om/2 (rho_ee - rho_rr) - i g/2 x_rg
    a[5, 5] = 1j * dr - gre
    a[5, 2] = 1j * om / 2.0
    a[5, 1] = -1j * om / 2.0
    a[5, 8] = -1j * g / 2.0
    # conjugate
    a[6, 6] = -1j * dr - gre
    a[6, 2] = -1j * om / 2.0
    a[6, 1] = 1j * om / 2.0
    a[6, 7] = 1j * g / 2.0
    # d x_gr = (i d2 - Ggr) x_gr + i g/2 x_er - i Om/2 x_ge
    a[7, 7] = 1j * d2 - ggr
    a[7, 6] = 1j * g / 2.0
    a[7, 3] = -1j * om / 2.0
    # conjugate
    a[8, 8] = -1j * d2 - ggr
    a[8, 5] = -1j * g / 2.0
    a[8, 4] = 1j * om / 2.0

    x = np.linalg.solve(a, b)
    return BlochSteadyState(
        rho_gg=float(x[0].real),
        rho_rr=float(x[1].real),
        rho_ee=float(x[2].real),
        rho_ge=complex(x[3]),
        rho_re=complex(x[5]),
        rho_gr=complex(x[7]),
    )


def _chi0(species):
    return 3.0 * species.wavelength_ge_m**3 / (32.0 * math.pi**3)


def _doppler_a(species, fields, temperature):
    return (
        math.sqrt(2.0 * KB * temperature / species.mass_kg)
        * fields.k_g_per_m
        / fields.gamma_ge_rad_s
    )


def _zeta_local(config):
    species, fields = config.species, config.fields
    recoil = HBAR * fields.k_g_per_m**2 / (2.0 * species.mass_kg)
    return zeta_by_formula(fields, recoil)


def _bose_log(alpha, t):
    """-ln(1 - u e^{-t^2}) of u = e^-alpha: -log1p(-x) of x = e^-alpha e^{-t^2}
    where x <= 1/2, which keeps its relative accuracy as x -> 0 (a product,
    since the sum alpha + t^2 would lose ulp(alpha) at large alpha), and
    -ln(-expm1(-(alpha + t^2))) above, where that sum is below ln 2: it holds
    1 - x to a few ulp however small alpha and t are, so alpha = 0 stays
    finite down to the smallest quadrature nodes.  The form
    -ln((1-u) + u(1-e^{-t^2})) of a float u loses about 1e-16/x of itself,
    and u itself rounds to 1 below alpha = 5e-17."""
    x = np.exp(-alpha) * np.exp(-t * t)
    small = x <= 0.5
    g = np.log(-np.expm1(-(alpha + t * t)), where=~small, out=np.zeros(small.shape))
    return -np.log1p(-x, where=small, out=g)


def _thermal_kernel(alpha, a_param, zv, zp, coeff):
    """(chi, dchi) of the thermal cloud in the state alpha = -ln u.

    chi  = coeff Int dt [-ln(1 - u e^{-t^2})] (-2 zeta)/(zeta^2 - A^2 t^2)
    dchi = coeff zeta' Int dt [-ln(...)] 2 (zeta^2 + A^2 t^2)/(zeta^2 - A^2 t^2)^2
    with coeff = chi0 (2 m K_B T / hbar^2)^{3/2} / (8 pi^2); the A -> 0 limit
    reproduces -chi0 (m K_B T / 2 pi hbar^2)^{3/2} g_{3/2}(u)/zeta.
    """
    t, w = gl_panels(T_MESH_EDGES)
    g = _bose_log(alpha, t)
    at2 = (a_param * t) ** 2
    denom = zv * zv - at2
    chi = coeff * np.sum(w * g * (-2.0 * zv / denom))
    dchi = coeff * zp * np.sum(w * g * 2.0 * (zv * zv + at2) / (denom * denom))
    return chi, dchi


def _invert_polylog(nu, target):
    """alpha = -ln f of the root of g_nu(e^-alpha) = target (0 where
    target >= zeta(nu)), solved in mpmath: f itself would round to 1 for
    every alpha below about 5e-17.  Newton's method on ln g_nu in
    x = sqrt(alpha) for nu < 2 and x = alpha otherwise, with
    dg_nu/dalpha = -g_{nu-1}, kept inside a bracket that starts as
    [0, a], a = ln(zeta(nu)/target) (g_nu(e^-alpha) <= zeta(nu) e^-alpha),
    and halves wherever a step would leave it.  It works at 40 digits plus
    twice the decades of a below 1: the e^-alpha it passes to mpmath then
    holds alpha, which near Tc is of order a^2 or above, to 1e-40 of itself."""
    power = 2 if nu < 2.0 else 1
    with mpmath.workdps(40):
        target = mpmath.mpf(target)
        if target >= mpmath.zeta(nu):
            return 0.0
        a = mpmath.log(mpmath.zeta(nu) / target)
    with mpmath.workdps(40 + 2 * max(0, int(-mpmath.log10(a)))):
        lo, hi = mpmath.mpf(0), a ** (mpmath.mpf(1) / power)
        x = hi
        for _ in range(200):
            z = mpmath.exp(-(x**power))
            g = mpmath.polylog(nu, z)
            if g > target:
                lo = x
            else:
                hi = x
            step = mpmath.log(g / target) * g / (mpmath.polylog(nu - 1, z) * power * x ** (power - 1))
            if abs(step) <= mpmath.mpf(10) ** -25 * x:
                return float((x + step) ** power)
            x = x + step if lo < x + step < hi else (lo + hi) / 2
    raise ArithmeticError("alpha oracle did not converge at target %r" % float(target))


def box_alpha_oracle(theta):
    """alpha = -ln f of the box fugacity at T/Tc = theta (0 at and below Tc)."""
    if theta <= 1.0:
        return 0.0
    return _invert_polylog(1.5, zeta_constant(1.5) * theta**-1.5)


def trap_alpha_oracle(theta):
    """alpha = -ln f of the trap fugacity at T/Tc = theta (0 at and below Tc)."""
    if theta <= 1.0:
        return 0.0
    return _invert_polylog(3.0, zeta_constant(3.0) * theta**-3.0)


def box_fugacity_oracle(theta):
    return math.exp(-box_alpha_oracle(theta))


def trap_fugacity_oracle(theta):
    return math.exp(-trap_alpha_oracle(theta))


def box_tc_oracle(species, number_density):
    return (
        2.0
        * math.pi
        * HBAR**2
        / (species.mass_kg * KB)
        * (number_density / zeta_constant(1.5)) ** (2.0 / 3.0)
    )


def trap_tc_oracle(species, trap):
    nu_bar = (trap.nu_z_rad_s * trap.nu_r_rad_s**2) ** (1.0 / 3.0)
    return HBAR * nu_bar * (trap.atom_count / zeta_constant(3.0)) ** (1.0 / 3.0) / KB


def chi_box_by_quadrature(config, temperature):
    """(chi, dchi) for the uniform gas by direct momentum quadrature."""
    species, fields = config.species, config.fields
    n = config.geometry.number_density_per_m3
    zv, zp = _zeta_local(config)
    chi0 = _chi0(species)
    theta = temperature / box_tc_oracle(species, n)
    alpha = box_alpha_oracle(theta)
    coeff = chi0 * (2.0 * species.mass_kg * KB * temperature / HBAR**2) ** 1.5 / (8.0 * math.pi**2)
    chi, dchi = _thermal_kernel(alpha, _doppler_a(species, fields, temperature), zv, zp, coeff)
    if theta < 1.0:
        n0 = n * (1.0 - theta**1.5)
        chi += -chi0 * n0 / zv
        dchi += chi0 * n0 * zp / (zv * zv)
    return chi, dchi


def chi_trap_point_by_quadrature(config, temperature, r):
    """(chi, dchi) at radial position r in the z = 0 plane of the trap."""
    species, fields, trap = config.species, config.fields, config.geometry
    zv, zp = _zeta_local(config)
    chi0 = _chi0(species)
    theta = temperature / trap_tc_oracle(species, trap)
    beta = 1.0 / (KB * temperature)
    alpha = trap_alpha_oracle(theta) + beta * species.mass_kg * trap.nu_r_rad_s**2 * r * r / 2.0
    coeff = chi0 * (2.0 * species.mass_kg * KB * temperature / HBAR**2) ** 1.5 / (8.0 * math.pi**2)
    chi, dchi = _thermal_kernel(alpha, _doppler_a(species, fields, temperature), zv, zp, coeff)
    if theta < 1.0:
        a0_r = math.sqrt(HBAR / (species.mass_kg * trap.nu_r_rad_s))
        a0_z = math.sqrt(HBAR / (species.mass_kg * trap.nu_z_rad_s))
        n_c = (
            trap.atom_count
            * (1.0 - theta**3)
            / (math.pi**1.5 * a0_r**2 * a0_z)
            * math.exp(-(r * r) / a0_r**2)
        )
        chi += -chi0 * n_c / zv
        dchi += chi0 * n_c * zp / (zv * zv)
    return chi, dchi


def _z_mesh_edges(a0_z, z_th, path_half_length_m):
    edges = {0.0, a0_z, 4.0 * a0_z, 6.0 * a0_z}
    edges.update(c * z_th for c in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0))
    edges = sorted(edges)
    if path_half_length_m < edges[-1]:
        edges = [e for e in edges if e < path_half_length_m] + [path_half_length_m]
    return edges


def mean_delay_by_quadrature(config, temperature, radius_m, path_half_length_m=math.inf):
    """Pinhole-averaged delay by direct (r, z, momentum) quadrature.

    Integrates the vacuum-subtracted inverse group velocity
    (2 pi Re chi + 2 pi omega Re dchi)/c over the line of sight -L < z < L
    (infinite by default; beyond 9 z_th the thermal density is below e^-40)
    and averages over the pinhole section; thermal and condensate densities
    both enter pointwise, so this shares nothing with the closed-form series.
    """
    species, fields, trap = config.species, config.fields, config.geometry
    m = species.mass_kg
    nu_r, nu_z = trap.nu_r_rad_s, trap.nu_z_rad_s
    zv, zp = _zeta_local(config)
    chi0 = _chi0(species)
    omega = 2.0 * math.pi * C_LIGHT / species.wavelength_ge_m
    theta = temperature / trap_tc_oracle(species, trap)
    alpha = trap_alpha_oracle(theta)
    beta = 1.0 / (KB * temperature)
    a_param = _doppler_a(species, fields, temperature)
    coeff = chi0 * (2.0 * m * KB * temperature / HBAR**2) ** 1.5 / (8.0 * math.pi**2)

    a0_r = math.sqrt(HBAR / (m * nu_r))
    a0_z = math.sqrt(HBAR / (m * nu_z))
    z_th = math.sqrt(KB * temperature / (m * nu_z**2))
    z_nodes, z_weights = gl_panels(_z_mesh_edges(a0_z, z_th, path_half_length_m))
    r_edges = sorted({0.0, radius_m} | {x for x in (a0_r, 3.0 * a0_r, radius_m / 2.0) if 0.0 < x < radius_m})
    r_nodes, r_weights = gl_panels(r_edges)

    t_nodes, t_weights = gl_panels(T_MESH_EDGES)
    at2 = (a_param * t_nodes) ** 2
    denom = zv * zv - at2
    kernels = np.column_stack(
        [
            t_weights * (-2.0 * zv / denom).real,
            t_weights * (-2.0 * zv / denom).imag,
            t_weights * (2.0 * (zv * zv + at2) / (denom * denom)).real,
            t_weights * (2.0 * (zv * zv + at2) / (denom * denom)).imag,
        ]
    )

    n0 = trap.atom_count * (1.0 - theta**3) if theta < 1.0 else 0.0
    phi_norm = 1.0 / (math.pi**1.5 * a0_r**2 * a0_z)

    mean = 0.0
    for start in range(0, r_nodes.size, 16):
        r = r_nodes[start : start + 16]
        w_r = r_weights[start : start + 16]
        potential = 0.5 * m * (nu_r**2 * r[:, None] ** 2 + nu_z**2 * z_nodes[None, :] ** 2)
        g = _bose_log((alpha + beta * potential)[:, :, None], t_nodes[None, None, :])
        h = g.reshape(-1, t_nodes.size) @ kernels
        chi = coeff * (h[:, 0] + 1j * h[:, 1])
        dchi = coeff * zp * (h[:, 2] + 1j * h[:, 3])
        if n0 > 0.0:
            n_c = n0 * phi_norm * np.exp(-(r[:, None] ** 2) / a0_r**2 - z_nodes[None, :] ** 2 / a0_z**2)
            n_c = n_c.reshape(-1)
            chi = chi - chi0 * n_c / zv
            dchi = dchi + chi0 * n_c * zp / (zv * zv)
        excess = (2.0 * math.pi * chi.real + 2.0 * math.pi * omega * dchi.real) / C_LIGHT
        delay_r = 2.0 * (excess.reshape(r.size, -1) * z_weights[None, :]).sum(axis=1)
        mean += np.sum(w_r * r * delay_r)
    return 2.0 * mean / radius_m**2
