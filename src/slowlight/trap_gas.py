"""Semiclassical delays of the harmonically trapped ideal Bose gas.

Per-ray probe delays Delta_t(r) through the cloud, uniform pinhole averages
over a circular section of radius R, cloud sizes, and the experimental group
velocity v_g = D_z / <Delta t>.  The local susceptibility chi(r) in the
plane z = 0 is box_gas.GasResponse: the thermal cloud at any point is a box
gas in the local state alpha + beta V (alpha = -ln f of the fugacity f), so
every thermal response is the box Doppler kernel: at p = 0 for chi, at
p = 1/2 for a column, with the section factor for a pinhole average.  Every
delay integrates 1/v_g - 1/c = 2 pi (Re chi + omega Re dchi/domega)/c: the
pinhole average in closed form on either path, the line of sight in closed
form on an infinite path and, for a pinhole average only, on Gauss-Legendre
z panels of the same kernel on a finite one.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .box_gas import GasResponse, condensate_response, gas_state, thermal_response_series
from .errors import DomainError, in_float_range
from .units_params import C_M_S, KB_J_PER_K, TWO_PI, HarmonicTrap, ground_state_size, probe_omega

# below this c = beta m nu_r^2 R^2 / 2 the pinhole average's g(e^-alpha) - g(e^-(alpha+c))
# keeps fewer than about six digits where alpha < 2 (box_gas._tail_polylogs)
_MIN_SECTION_EXPONENT = 1e-9
# a finite path sums the kernel on _Z_POINTS-point Gauss-Legendre panels with
# edges at these multiples of z_th = sqrt(K_B T/m nu_z^2), refined toward
# z = 0 for the kernel's nearest branch point (_z_rule), which nears the axis
# just above Tc and for a narrow pinhole; on T/Tc in [0.1, 5] that keeps a
# path of 20 z_th within 3e-11 of the closed-form infinite one
_Z_EDGES = (1.0, 2.5, 5.0, 9.0)
_Z_POINTS = 10
_Z_FINEST = 1e-3


@dataclass(frozen=True)
class PinholeSpec:
    """Illuminated circular section: fixed radius or the thermal radius
    R = sqrt(K_B T / m nu_r^2), seen along the line of sight -L < z < L with
    L = path_half_length_m; L = inf selects the closed-form infinite path,
    a finite L the Gauss-Legendre z panels of trap_mean_delay."""

    radius_mode: str
    radius_m: float = None
    path_half_length_m: float = math.inf

    def __post_init__(self):
        if self.radius_mode not in ("fixed", "thermal"):
            raise ValueError("radius_mode must be 'fixed' or 'thermal', got %r" % self.radius_mode)
        if self.radius_mode == "thermal" and self.radius_m is not None:
            raise ValueError("a thermal pinhole takes its radius from T, got radius_m = %r" % self.radius_m)
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


def _thermal_size_sq(species, nu, temperature):
    """Squared thermal size R^2 = K_B T/(m nu^2) along the trap frequency nu (0 at T = 0), in the float range."""
    if temperature == 0.0:
        return 0.0
    try:
        size_sq = KB_J_PER_K * temperature / (species.mass_kg * nu**2)
    except ArithmeticError:  # nu^2 overflows or m nu^2 underflows to 0
        size_sq = math.nan
    return in_float_range(size_sq, "R^2 = K_B T/(m nu^2)", "T = %.3g K, nu = %.3g rad/s", temperature, nu)


def thermal_radius(species, trap, temperature):
    """Pinhole radius of the thermal mode, R = sqrt(K_B T / m nu_r^2)."""
    if not temperature > 0.0:
        raise DomainError("thermal pinhole radius undefined at T = %r" % temperature)
    return math.sqrt(_thermal_size_sq(species, trap.nu_r_rad_s, temperature))


def _require_trap(geometry):
    if not isinstance(geometry, HarmonicTrap):
        raise ValueError("operation requires a harmonic-trap geometry")


def cloud_size(state):
    """Axial cloud size D_z of the trapped gas in the given state:
    sqrt(2 K_B T / m nu_z^2) above Tc, and
    sqrt(2) [ (T/Tc)^3 R_+^2 + (1-(T/Tc)^3) a_0z^2 ]^{1/2} below, with
    R_+^2 = K_B T/(m nu_z^2) so the two branches meet at Tc."""
    _require_trap(state.geometry)
    species, trap, temperature, t_c = state.species, state.geometry, state.temperature_k, state.t_c_k
    r_plus_sq = _thermal_size_sq(species, trap.nu_z_rad_s, temperature)
    if temperature >= t_c:
        return math.sqrt(2.0 * r_plus_sq)
    theta3 = (temperature / t_c) ** 3
    a0z = ground_state_size(species, trap.nu_z_rad_s)
    return math.sqrt(2.0 * (theta3 * r_plus_sq + (1.0 - theta3) * a0z**2))


def _excess(chi, dchi, omega):
    """1/v_g - 1/c = 2 pi (Re chi + omega Re dchi/domega)/c of a dilute response."""
    return TWO_PI * (chi.real + omega * dchi.real) / C_M_S


@lru_cache(maxsize=None)
def _gauss_legendre(points):
    """Gauss-Legendre nodes and weights on [-1, 1] as float tuples, built on first use."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(points)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def _z_rule(z_th, alpha, path_half_length_m):
    """Composite _Z_POINTS-point Gauss-Legendre rule on [0, L] as (node, weight)
    pairs: panel edges at _Z_EDGES z_th and, for a kernel branch point at
    z = i z_th sqrt(2 alpha), alpha > 0, at z_th 4^-k while that is more
    than twice the larger of sqrt(2 alpha) and _Z_FINEST; clipped to L and
    closed at L, or at 9 z_th, beyond which the density is below e^-40."""
    nodes, weights = _gauss_legendre(_Z_POINTS)
    ladder = list(_Z_EDGES)
    finest = max(math.sqrt(2.0 * alpha), _Z_FINEST)
    while ladder[0] > 2.0 * finest:
        ladder.insert(0, ladder[0] / 4.0)
    end = min(path_half_length_m, _Z_EDGES[-1] * z_th)
    edges = [0.0] + [c * z_th for c in ladder if c * z_th < end] + [end]
    for lo, hi in zip(edges, edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for x, w in zip(nodes, weights):
            yield mid + half * x, half * w


def _path_delay(response, zv, alpha, section, column, path_half_length_m):
    """2 int_0^L (1/v_g - 1/c) dz of the thermal cloud in the state alpha in
    the plane z = 0 (with the section factor c) and of the condensate column
    density that an infinite path crosses, so the L/c vacuum term is
    subtracted by construction.

    Infinite L: the Doppler kernel at p = 1/2 times the column length
    sqrt(2 pi K_B T/m)/nu_z.  Finite L, only for a pinhole average (c > 0):
    the kernel at p = 0 of alpha + z^2/2 z_th^2, z_th^2 = K_B T/(m nu_z^2),
    summed over _z_rule, and the condensate column times erf(L/a0_z)."""
    species, temperature, a_param = response.species, response.temperature, response.a_param
    omega = probe_omega(species)
    delay = 0.0
    if temperature > 0.0:
        if math.isinf(path_half_length_m):
            length = math.sqrt(TWO_PI * KB_J_PER_K * temperature / species.mass_kg) / response.state.geometry.nu_z_rad_s
            s_w, s_wp = thermal_response_series(alpha, zv.value, a_param, 0.5, section, response.mode)
        else:
            z_th = math.sqrt(_thermal_size_sq(species, response.state.geometry.nu_z_rad_s, temperature))
            # g_nu(e^{-alpha-x}) branches at x = -alpha and g_nu(e^{-alpha-c-x}) at
            # x = -alpha - c, with x = z^2/2 z_th^2; at alpha = 0 the first is
            # z^(2 nu - 2), smooth on [0, L]
            length, s_w, s_wp = 2.0, 0j, 0j
            for z, weight in _z_rule(z_th, alpha or section, path_half_length_m):
                t = z / z_th
                s, s_p = thermal_response_series(alpha + 0.5 * t * t, zv.value, a_param, 0.0, section, response.mode)
                s_w += weight * s
                s_wp += weight * s_p
        delay += length * _excess(response.pref * s_w, response.pref * (zv.d_domega / a_param) * s_wp, omega)
    if column > 0.0:
        delay += _excess(*condensate_response(species, zv, column * math.erf(path_half_length_m / response.a0z)), omega)
    return delay


def delay_at_radius(state, fields, r):
    """Probe delay accumulated along the infinite line of sight at radius r
    (s) in the given state: 2 int_0^inf (1/v_g - 1/c) dz, the vacuum term
    subtracted by construction.

    The thermal part is the Doppler kernel of alpha_r = alpha + beta m nu_r^2 r^2/2
    at p = 1/2 (the z integral multiplies term l by l^-1/2), to first order
    (omega/c)(m (K_B T)^2 / hbar^3 nu_z) chi0
    Re{zeta'(omega)(g_2(e^-alpha_r)/zeta^2 + (3/2) A^2 g_3(e^-alpha_r)/zeta^4)}.  Below Tc
    the condensate column at r adds its term.
    """
    _require_trap(state.geometry)
    response = GasResponse(state, fields, r)
    zv = response.zeta_at()
    column = 0.0
    if state.condensate_fraction > 0.0:
        a0r = response.a0r
        column = state.geometry.atom_count * state.condensate_fraction * math.exp(-(r / a0r) ** 2) / (math.pi * a0r**2)
    delay = _path_delay(response, zv, response.alpha, 0.0, column, math.inf)
    if not math.isfinite(delay):
        raise DomainError("the delay at r = %.3g m is %r at T = %.3g K" % (r, delay, state.temperature_k))
    return delay


def trap_mean_delay(response, zv, pinhole, fc_mode="paper"):
    """Uniform average of the delay over the section of radius R, for the
    trap evaluator response (a GasResponse) at the zeta value zv of its zeta_at:
    <Delta t> = (1/pi R^2) int_0^R 2 pi r Delta_t(r) dr, as a DelayResult.

    Either path averages the thermal part in closed form: the Doppler kernel
    of delay_at_radius in the state alpha (0 below Tc) with the section factor
    (1 - e^{-lc})/(lc), c = beta m nu_r^2 R^2/2.  On an infinite path that is,
    to first order, 2 pi (omega/c) chi0 ((K_B T)^3/(hbar^3 nu_z nu_r^2)) (1/(pi R^2))
    Re{zeta'(omega)([g_3(e^-alpha)-g_3(e^-(alpha+c))]/zeta^2
    + (3/2)(A^2/zeta^4)[g_4(e^-alpha)-g_4(e^-(alpha+c))])}.  Below Tc the condensate adds
    its column with the section factor F_C: 2/(pi R^2) in fc_mode "paper",
    the Gaussian (1 - e^{-R^2/a0r^2})/(pi R^2) in fc_mode "exact" and on every
    finite path, where it is times erf(L/a0_z).  The response's mode
    "asymptotic" stops the kernel at A^2 on either path.

    Raises DomainError when pi R^2 or c leaves the float range, when the
    pinhole is so small (c < 1e-9) that g(e^-alpha) - g(e^-(alpha+c)) may lose its digits,
    or when the delay is zero, non-finite or so short that
    v_g = D_z/<Delta t> would reach c.
    """
    state = response.state
    _require_trap(state.geometry)
    if fc_mode not in ("paper", "exact"):
        raise ValueError("fc_mode must be 'paper' or 'exact', got %r" % fc_mode)
    species, trap, temperature = state.species, state.geometry, state.temperature_k
    if pinhole.radius_mode == "thermal":
        radius = thermal_radius(species, trap, temperature)
    else:
        radius = pinhole.radius_m
    half_length = pinhole.path_half_length_m
    where = "R = %.3g m, T = %.3g K"
    # a product, not radius**2, so that an overflow gives inf rather than raising
    radius_sq = radius * radius
    area = in_float_range(math.pi * radius_sq, "the pinhole section pi R^2", where, radius, temperature)

    exponent = 0.0
    if temperature > 0.0:
        exponent = 0.5 * response.beta * species.mass_kg * trap.nu_r_rad_s**2 * radius_sq
        in_float_range(exponent, "the section exponent beta m nu_r^2 R^2/2", where, radius, temperature)
        if exponent < _MIN_SECTION_EXPONENT:
            raise DomainError(
                "pinhole radius R = %.3g m at T = %.3g K is too small for the "
                "closed-form average (beta m nu_r^2 R^2/2 = %.3g < %g)"
                % (radius, temperature, exponent, _MIN_SECTION_EXPONENT)
            )
    column = 0.0
    if state.condensate_fraction > 0.0:
        if fc_mode == "paper" and math.isinf(half_length):
            section = 2.0
        else:
            x = radius / response.a0r
            section = 1.0 - math.exp(-x * x)
        column = trap.atom_count * state.condensate_fraction * (section / area)
    delay = _path_delay(response, zv, state.alpha, exponent, column, half_length)

    d_z = cloud_size(state)
    # a negative delay is anomalous dispersion and comes back as v_g < 0
    if not (math.isfinite(delay) and (delay < 0.0 or d_z < C_M_S * delay)):
        raise DomainError(
            "pinhole radius R = %.3g m at T = %.3g K gives a mean delay of %.3g s "
            "over D_z = %.3g m, so v_g is not below c" % (radius, temperature, delay, d_z)
        )
    return DelayResult(mean_delay_s=delay, cloud_size_m=d_z, group_velocity_m_s=d_z / delay)


def mean_delay(config, temperature, pinhole, fc_mode="paper"):
    """Pinhole-averaged delay at the given temperature (see trap_mean_delay).

    The one (config, temperature) convenience of the library, which builds
    the gas state and its GasResponse for trap_mean_delay: the README's quick
    start and the library call the benchmark times.  Every other response
    takes a GasState from gas_state."""
    response = GasResponse(gas_state(config, temperature), config.fields)
    return trap_mean_delay(response, response.zeta_at(), pinhole, fc_mode=fc_mode)
