"""Semiclassical response of the harmonically trapped ideal Bose gas.

Local susceptibility chi(r, z), per-ray probe delays Delta_t(r) through the
cloud, uniform pinhole averages over a circular section of radius R, cloud
sizes, and the experimental group velocity v_g = D_z / <Delta_t>.
All closed forms are first order in (A/zeta)^2 (Doppler width over
generalized linewidth), the regime of the underlying expansion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .box_gas import finite_response, gas_state, in_float_range, tc_trap, zeta_and_width
from .errors import DomainError
from .specfun import polylog
from .units_params import (
    C_M_S,
    HBAR_J_S,
    KB_J_PER_K,
    TWO_PI,
    HarmonicTrap,
    chi0,
    probe_omega,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_Z_GL_NODES, _Z_GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# below this c = beta m nu_r^2 R^2 / 2 the difference g(f) - g(f e^{-c})
# of the infinite-path average keeps fewer than about six digits
_MIN_SECTION_EXPONENT = 1e-9


@dataclass(frozen=True)
class PinholeSpec:
    """Illuminated circular section: fixed radius or the thermal radius
    R = sqrt(K_B T / m nu_r^2); path_half_length_m = inf selects the
    closed-form infinite path."""

    radius_mode: str
    radius_m: float = None
    path_half_length_m: float = math.inf

    def __post_init__(self):
        if self.radius_mode not in ("fixed", "thermal"):
            raise ValueError("radius_mode must be 'fixed' or 'thermal', got %r" % self.radius_mode)
        if self.radius_mode == "fixed" and not (self.radius_m is not None and self.radius_m > 0.0):
            raise DomainError("fixed pinhole requires radius_m > 0")
        if not self.path_half_length_m > 0.0:
            raise DomainError("path_half_length_m must be positive")


@dataclass(frozen=True)
class DelayResult:
    """Pinhole-averaged delay, cloud size, and their ratio v_g = D/<Delta t>."""

    mean_delay_s: float
    cloud_size_m: float
    group_velocity_m_s: float
    branch: str


def ground_state_size(species, nu):
    """Oscillator ground-state size a_0 = sqrt(hbar / m nu)."""
    return math.sqrt(HBAR_J_S / (species.mass_kg * nu))


def thermal_radius(species, trap, temperature):
    """Pinhole radius of the thermal mode, R = sqrt(K_B T / m nu_r^2)."""
    if not temperature > 0.0:
        raise DomainError("thermal pinhole radius undefined at T = %r" % temperature)
    return math.sqrt(KB_J_PER_K * temperature / (species.mass_kg * trap.nu_r_rad_s**2))


def _require_trap(geometry):
    if not isinstance(geometry, HarmonicTrap):
        raise ValueError("operation requires a harmonic-trap geometry")


def _cloud_size(species, trap, temperature, t_c):
    r_plus_sq = KB_J_PER_K * temperature / (species.mass_kg * trap.nu_z_rad_s**2)
    if temperature >= t_c:
        return math.sqrt(2.0 * r_plus_sq)
    theta3 = (temperature / t_c) ** 3
    a0z = ground_state_size(species, trap.nu_z_rad_s)
    return math.sqrt(2.0 * (theta3 * r_plus_sq + (1.0 - theta3) * a0z**2))


def cloud_size(config, temperature):
    """Axial cloud size D_z: sqrt(2 K_B T / m nu_z^2) above Tc, and
    sqrt(2) [ (T/Tc)^3 R_+^2 + (1-(T/Tc)^3) a_0z^2 ]^{1/2} below, with
    R_+^2 = K_B T/(m nu_z^2) so the two branches meet at Tc."""
    _require_trap(config.geometry)
    if temperature < 0.0:
        raise DomainError("temperature must be nonnegative, got %r" % temperature)
    return _cloud_size(config.species, config.geometry, temperature, tc_trap(config.species, config.geometry))


def _local_response(state, zv, a_param, r, z):
    """(chi, dchi/domega) at (r, z); r and z are floats or arrays that
    broadcast, and the result has their broadcast shape."""
    species = state.species
    trap = state.geometry
    temperature = state.temperature_k
    x0 = chi0(species)
    zval = zv.value
    dz_domega = zv.d_domega
    chi = 0.0 + 0.0j
    dchi = 0.0 + 0.0j
    if temperature > 0.0:
        mass = species.mass_kg
        beta = 1.0 / (KB_J_PER_K * temperature)
        potential = 0.5 * mass * (trap.nu_r_rad_s**2 * r**2 + trap.nu_z_rad_s**2 * z**2)
        u = state.fugacity.value * np.exp(-beta * potential)
        g32 = polylog(1.5, u)
        g52 = polylog(2.5, u)
        a_sq = a_param**2
        with in_float_range("the thermal density (m K_B T/2 pi hbar^2)^{3/2} g_{3/2}", temperature):
            lam = (mass * KB_J_PER_K * temperature / (TWO_PI * HBAR_J_S**2)) ** 1.5
            chi += -x0 * lam * (g32 / zval + 0.5 * g52 * a_sq / zval**3)
            dchi += x0 * lam * dz_domega * (g32 / zval**2 + 1.5 * g52 * a_sq / zval**4)
    if state.condensate_fraction > 0.0:
        a0r = ground_state_size(species, trap.nu_r_rad_s)
        a0z = ground_state_size(species, trap.nu_z_rad_s)
        n0 = (
            trap.atom_count
            * state.condensate_fraction
            * np.exp(-(r / a0r) ** 2 - (z / a0z) ** 2)
            / (math.pi**1.5 * a0r**2 * a0z)
        )
        chi += -x0 * n0 / zval
        dchi += x0 * n0 * dz_domega / zval**2
    return chi, dchi


def trap_response(state, fields, r):
    """Susceptibility of the trapped gas in the given state, in the plane
    z = 0 at radial distance r:
    -(chi0/zeta)(m K_B T/2 pi hbar^2)^{3/2} [g_{3/2}(f e^{-beta V}) +
    g_{5/2}(f e^{-beta V}) A^2/(2 zeta^2)] plus the condensate term below Tc."""
    _require_trap(state.geometry)
    if r < 0.0:
        raise DomainError("radial position must be nonnegative, got %r" % r)
    zv, a_param = zeta_and_width(state, fields)
    chi, dchi = _local_response(state, zv, a_param, r, 0.0)
    return finite_response(chi, dchi, state.temperature_k)


def chi_trap_local(config, temperature, r):
    """Susceptibility in the plane z = 0 at radial distance r (see trap_response)."""
    return trap_response(gas_state(config, temperature), config.fields, r)


def _z_panels(state, path_half_length_m):
    """Composite 16-point Gauss-Legendre rule on [0, L]: panel edges at
    a0_z, 4 a0_z, 6 a0_z (condensate) and (0.25 ... 9) z_th (thermal cloud),
    z_th = sqrt(K_B T / m nu_z^2), clipped to L and closed at L."""
    species = state.species
    a0z = ground_state_size(species, state.geometry.nu_z_rad_s)
    z_th = math.sqrt(KB_J_PER_K * state.temperature_k / (species.mass_kg * state.geometry.nu_z_rad_s**2))
    inner = {a0z, 4.0 * a0z, 6.0 * a0z}
    inner.update(c * z_th for c in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0))
    edges = np.array([0.0] + sorted(e for e in inner if 0.0 < e < path_half_length_m) + [path_half_length_m])
    half = 0.5 * np.diff(edges)
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _Z_GL_NODES
    return nodes.ravel(), (half[:, None] * _Z_GL_WEIGHTS).ravel()


def _finite_path_delays(state, zv, a_param, r, path_half_length_m):
    """Delays 2 int_0^L (1/v_g - 1/c) dz at the radii r (an array): the
    vacuum-subtracted 1/v_g - 1/c = (2 pi Re chi + 2 pi omega Re dchi/domega)/c
    on one (r, z) grid."""
    z, w = _z_panels(state, path_half_length_m)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        chi, dchi = _local_response(state, zv, a_param, r[:, None], z[None, :])
    excess = TWO_PI * (chi.real + probe_omega(state.species) * dchi.real) / C_M_S
    return 2.0 * (excess @ w)


def _delay_at_radius(state, zv, a_param, r, path_half_length_m):
    species = state.species
    trap = state.geometry
    temperature = state.temperature_k
    omega = probe_omega(species)
    if not math.isinf(path_half_length_m):
        return float(_finite_path_delays(state, zv, a_param, np.array([r]), path_half_length_m)[0])
    x0 = chi0(species)
    zval = zv.value
    delay = 0.0
    if temperature > 0.0:
        beta = 1.0 / (KB_J_PER_K * temperature)
        y_r = state.fugacity.value * math.exp(-0.5 * beta * species.mass_kg * trap.nu_r_rad_s**2 * r**2)
        g2 = polylog(2.0, y_r)
        g3 = polylog(3.0, y_r)
        kernel = zv.d_domega * (g2 / zval**2 + 1.5 * a_param**2 * g3 / zval**4)
        with in_float_range("the thermal column delay m (K_B T)^2/(hbar^3 nu_z)", temperature):
            delay += (
                (omega / C_M_S)
                * species.mass_kg
                * (KB_J_PER_K * temperature) ** 2
                / (HBAR_J_S**3 * trap.nu_z_rad_s)
                * x0
                * kernel.real
            )
    if state.condensate_fraction > 0.0:
        a0r = ground_state_size(species, trap.nu_r_rad_s)
        column = (
            trap.atom_count
            * state.condensate_fraction
            * math.exp(-(r / a0r) ** 2)
            / (math.pi * a0r**2)
        )
        delay += TWO_PI * (omega / C_M_S) * x0 * (zv.d_domega / zval**2).real * column
    return delay


def delay_at_radius(config, temperature, r, path_half_length_m=math.inf):
    """Probe delay accumulated along the line of sight at radius r (s).

    Infinite path: the closed form
    (omega/c)(m (K_B T)^2 / hbar^3 nu_z) chi0 Re{zeta'(omega)(g_2(y_r)/zeta^2
    + (3/2) A^2 g_3(y_r)/zeta^4)}, y_r = f e^{-beta m nu_r^2 r^2/2}, plus the
    condensate line integral below Tc.  Finite path: 2 int_0^L (1/v_g - 1/c) dz
    on composite 16-point Gauss-Legendre panels (see _z_panels); the L/c
    vacuum term is subtracted by construction.
    """
    _require_trap(config.geometry)
    if r < 0.0:
        raise DomainError("radial position must be nonnegative, got %r" % r)
    if not math.isinf(path_half_length_m) and not path_half_length_m > 0.0:
        raise DomainError("path_half_length_m must be positive")
    state = gas_state(config, temperature)
    zv, a_param = zeta_and_width(state, config.fields)
    return _delay_at_radius(state, zv, a_param, r, path_half_length_m)


def _condensate_section_factor(state, radius, path_half_length_m, fc_mode):
    """F_C: paper mode 2/(pi R^2); exact mode the closed Gaussian integral
    (1/(pi R^2))(1 - e^{-R^2/a0r^2}) erf(L/a0z)."""
    if fc_mode == "paper":
        return 2.0 / (math.pi * radius**2)
    species = state.species
    a0r = ground_state_size(species, state.geometry.nu_r_rad_s)
    a0z = ground_state_size(species, state.geometry.nu_z_rad_s)
    erf_term = 1.0 if math.isinf(path_half_length_m) else math.erf(path_half_length_m / a0z)
    return (1.0 - math.exp(-(radius / a0r) ** 2)) * erf_term / (math.pi * radius**2)


def trap_mean_delay(state, fields, pinhole, fc_mode="paper"):
    """Uniform average of the delay over the section of radius R in the
    given state: <Delta t> = (1/pi R^2) int_0^R 2 pi r Delta_t(r) dr, as a
    DelayResult.

    Infinite path, thermal part: the closed form
    2 pi (omega/c) chi0 ((K_B T)^3/(hbar^3 nu_z nu_r^2)) (1/(pi R^2))
    Re{zeta'(omega)([g_3(f)-g_3(f e^{-c})]/zeta^2
    + (3/2)(A^2/zeta^4)[g_4(f)-g_4(f e^{-c})])}, c = beta m nu_r^2 R^2/2;
    below Tc f = 1 plus the condensate term with the selected F_C mode.
    Finite path: the local response on one fixed grid, 64 Gauss-Legendre
    radii times the composite Gauss-Legendre z panels of delay_at_radius
    (vacuum-subtracted; the condensate enters pointwise, so fc_mode does not
    apply).

    Raises DomainError when the pinhole is so small (c < 1e-9) that the
    closed form loses its digits, or when the delay is zero, non-finite or
    so short that v_g = D_z/<Delta t> would reach c.
    """
    _require_trap(state.geometry)
    if fc_mode not in ("paper", "exact"):
        raise ValueError("fc_mode must be 'paper' or 'exact', got %r" % fc_mode)
    species = state.species
    trap = state.geometry
    temperature = state.temperature_k
    if pinhole.radius_mode == "thermal":
        radius = thermal_radius(species, trap, temperature)
    else:
        radius = pinhole.radius_m
    half_length = pinhole.path_half_length_m
    zv, a_param = zeta_and_width(state, fields)

    if not math.isinf(half_length):
        # average = (2/R^2) int_0^R r dt(r) dr on a fixed Gauss-Legendre rule
        r = 0.5 * radius * (_GL_NODES + 1.0)
        delay = float(np.sum(_GL_WEIGHTS * r * _finite_path_delays(state, zv, a_param, r, half_length))) / radius
    else:
        omega = probe_omega(species)
        x0 = chi0(species)
        zval = zv.value
        delay = 0.0
        if temperature > 0.0:
            f = state.fugacity.value
            beta = 1.0 / (KB_J_PER_K * temperature)
            exponent = 0.5 * beta * species.mass_kg * trap.nu_r_rad_s**2 * radius**2
            if exponent < _MIN_SECTION_EXPONENT:
                raise DomainError(
                    "pinhole radius R = %.3g m at T = %.3g K is too small for the "
                    "closed-form average (beta m nu_r^2 R^2/2 = %.3g < %g)"
                    % (radius, temperature, exponent, _MIN_SECTION_EXPONENT)
                )
            shrink = math.exp(-exponent)
            g3_diff = polylog(3.0, f) - polylog(3.0, f * shrink)
            g4_diff = polylog(4.0, f) - polylog(4.0, f * shrink)
            kernel = zv.d_domega * (g3_diff / zval**2 + 1.5 * a_param**2 * g4_diff / zval**4)
            with in_float_range("the thermal section delay (K_B T)^3/(hbar^3 nu_z nu_r^2 pi R^2)", temperature):
                delay += (
                    TWO_PI
                    * (omega / C_M_S)
                    * x0
                    * (KB_J_PER_K * temperature) ** 3
                    / (HBAR_J_S**3 * trap.nu_z_rad_s * trap.nu_r_rad_s**2)
                    / (math.pi * radius**2)
                    * kernel.real
                )
        if state.condensate_fraction > 0.0:
            section = _condensate_section_factor(state, radius, half_length, fc_mode)
            delay += (
                TWO_PI
                * (omega / C_M_S)
                * x0
                * (zv.d_domega / zval**2).real
                * trap.atom_count
                * state.condensate_fraction
                * section
            )

    d_z = _cloud_size(species, trap, temperature, state.t_c_k)
    # a negative delay is anomalous dispersion and comes back as v_g < 0
    if not (math.isfinite(delay) and (delay < 0.0 or d_z < C_M_S * delay)):
        raise DomainError(
            "pinhole radius R = %.3g m at T = %.3g K gives a mean delay of %.3g s "
            "over D_z = %.3g m, so v_g is not below c" % (radius, temperature, delay, d_z)
        )
    return DelayResult(
        mean_delay_s=delay,
        cloud_size_m=d_z,
        group_velocity_m_s=d_z / delay,
        branch="above" if temperature > state.t_c_k else "below",
    )


def mean_delay(config, temperature, pinhole, fc_mode="paper"):
    """Pinhole-averaged delay at the given temperature (see trap_mean_delay)."""
    return trap_mean_delay(gas_state(config, temperature), config.fields, pinhole, fc_mode=fc_mode)


def vg_trap(config, temperature, pinhole, fc_mode="paper"):
    """Experimental group velocity v_g = D_z / <Delta t> (m/s)."""
    return mean_delay(config, temperature, pinhole, fc_mode=fc_mode).group_velocity_m_s
