"""Semiclassical response of the harmonically trapped ideal Bose gas.

Local susceptibility chi(r, z), per-ray probe delays Delta_t(r) through the
cloud, uniform pinhole averages over a circular section of radius R, cloud
sizes, and the experimental group velocity v_g = D_z / <Delta t>.
The thermal cloud at (r, z) is a box gas at the local fugacity f e^{-beta V},
so every thermal response is the box Doppler kernel: at p = 0 for chi, at
p = 1/2 for a column, with the section factor for a pinhole average.  Every
delay integrates 1/v_g - 1/c = 2 pi (Re chi + omega Re dchi/domega)/c; a
finite path does so on one fixed (r, z) Gauss-Legendre grid, where the
kernel's tail is one real weighted polylog_sum of the local fugacity.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .box_gas import TAIL_TABLE, GasResponse, condensate_response, gas_state, tail_terms, thermal_response
from .errors import DomainError, float_range_error, in_float_range
from .specfun import SQRT_PI, polylog_sum
from .units_params import C_M_S, KB_J_PER_K, TWO_PI, HarmonicTrap, ground_state_size, probe_omega

# below this c = beta m nu_r^2 R^2 / 2 the difference g(f) - g(f e^{-c})
# of the infinite-path average keeps fewer than about six digits
_MIN_SECTION_EXPONENT = 1e-9
# the finite path sums the kernel's large-|y| tail without the exact head;
# its remainder, about 9 c_4 |A/zeta|^8, exceeds 1e-6 below |zeta/A| = 10
_FINITE_PATH_MIN_RATIO = 10.0


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
    branch: str


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


def trap_response(state, fields, r=0.0, mode="exact"):
    """Susceptibility of the trapped gas in the given state, in the plane
    z = 0 at radial distance r: the box response at the local fugacity
    f e^{-beta V}, -(chi0/zeta)(m K_B T/2 pi hbar^2)^{3/2} [g_{3/2} +
    g_{5/2} A^2/(2 zeta^2) + ...] (mode "asymptotic" stops at A^2), plus the
    condensate term below Tc."""
    _require_trap(state.geometry)
    return GasResponse(state, fields, r, mode=mode)(fields.detuning_g0_rad_s)


@lru_cache(maxsize=None)
def _gauss_legendre(points):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _z_panels(response, path_half_length_m):
    """Composite 16-point Gauss-Legendre rule on [0, L]: panel edges at
    a0_z, 4 a0_z, 6 a0_z (condensate) and (0.25 ... 9) z_th (thermal cloud),
    z_th = sqrt(K_B T / m nu_z^2), clipped to L and closed at L."""
    import numpy as np

    gl_nodes, gl_weights = _gauss_legendre(16)
    state, a0z = response.state, response.a0z
    z_th = math.sqrt(_thermal_size_sq(state.species, state.geometry.nu_z_rad_s, state.temperature_k))
    inner = {a0z, 4.0 * a0z, 6.0 * a0z}
    inner.update(c * z_th for c in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0))
    edges = np.array([0.0] + sorted(e for e in inner if 0.0 < e < path_half_length_m) + [path_half_length_m])
    half = 0.5 * np.diff(edges)
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * gl_nodes
    return nodes.ravel(), (half[:, None] * gl_weights).ravel()


def _excess_inverse_speed(response, zv, r, z):
    """1/v_g - 1/c of the local response on the grid of the radii r and the
    heights z (1-D arrays): the kernel's large-|y| tail from l = 1, one
    polylog_sum of g_{k+3/2} of u = f e^{-beta m nu_r^2 r^2/2} e^{-beta m nu_z^2 z^2/2}
    with real weights fixed by the response's zeta and A, plus a multiple of the condensate
    density.  Without the exact head it needs |zeta/A| >= 10 in mode "exact".
    """
    import numpy as np

    state, a_param, mode = response.state, response.a_param, response.mode
    species, trap, temperature = state.species, state.geometry, state.temperature_k
    omega = probe_omega(species)
    if temperature > 0.0:
        z_over_a = zv.value / a_param
        if mode == "exact" and abs(z_over_a) < _FINITE_PATH_MIN_RATIO:
            raise DomainError(
                "the finite-path delay has no exact Doppler head and needs |zeta/A| >= 10, "
                "got |zeta/A| = %.3g" % abs(z_over_a)
            )
        half_beta_m = 0.5 * species.mass_kg * response.beta
        u = np.outer(
            state.fugacity.value * np.exp(-half_beta_m * trap.nu_r_rad_s**2 * r**2),
            np.exp(-half_beta_m * trap.nu_z_rad_s**2 * z**2),
        )
        pref = (1j / SQRT_PI) * response.pref
        pref_d = pref * zv.d_domega / a_param
        a_over_z = 1.0 / z_over_a
        terms = [
            (k + 1.5, _excess(pref * c * a_over_z**m, -pref_d * d * a_over_z**n, omega))
            for k, (c, d, m, n) in enumerate(TAIL_TABLE[: tail_terms(z_over_a, mode)])
        ]
        excess = polylog_sum(terms, u)
    else:
        excess = np.zeros((r.size, z.size))
    if state.condensate_fraction > 0.0:
        density_weight = _excess(*condensate_response(species, zv, response.peak), omega)
        excess += np.outer(density_weight * np.exp(-((r / response.a0r) ** 2)), np.exp(-((z / response.a0z) ** 2)))
    return excess


def _finite_path_delays(response, zv, r, path_half_length_m):
    """Delays 2 int_0^L (1/v_g - 1/c) dz at the radii r (an array), on the
    composite Gauss-Legendre z panels of _z_panels."""
    import numpy as np

    z, w = _z_panels(response, path_half_length_m)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return 2.0 * (_excess_inverse_speed(response, zv, r, z) @ w)
    except ArithmeticError as exc:
        raise float_range_error("the finite-path delay", "T = %.3g K" % response.temperature, exc) from exc


def _infinite_path_delay(response, zv, fugacity_value, section, condensate_column):
    """2 int_0^inf (1/v_g - 1/c) dz: the kernel at p = 1/2 (and section c)
    times the column length sqrt(2 pi K_B T/m)/nu_z, plus the condensate."""
    species, temperature = response.species, response.temperature
    omega = probe_omega(species)
    delay = 0.0
    if temperature > 0.0:
        length = math.sqrt(TWO_PI * KB_J_PER_K * temperature / species.mass_kg) / response.state.geometry.nu_z_rad_s
        thermal = thermal_response(response.pref, zv, response.a_param, fugacity_value, 0.5, section, response.mode)
        delay += length * _excess(*thermal, omega)
    if condensate_column > 0.0:
        delay += _excess(*condensate_response(species, zv, condensate_column), omega)
    return delay


def delay_at_radius(state, fields, r, path_half_length_m=math.inf):
    """Probe delay accumulated along the line of sight at radius r (s) in
    the given state.

    Infinite path: the Doppler kernel at p = 1/2 (the z integral multiplies
    term l by l^-1/2) of y_r = f e^{-beta m nu_r^2 r^2/2}, to first order
    (omega/c)(m (K_B T)^2 / hbar^3 nu_z) chi0 Re{zeta'(omega)(g_2(y_r)/zeta^2
    + (3/2) A^2 g_3(y_r)/zeta^4)}, plus the condensate line integral below
    Tc.  Finite path: 2 int_0^L (1/v_g - 1/c) dz on composite 16-point
    Gauss-Legendre panels (see _z_panels and _excess_inverse_speed); the L/c
    vacuum term is subtracted by construction.
    """
    _require_trap(state.geometry)
    if not path_half_length_m > 0.0:
        raise DomainError("path_half_length_m must be positive")
    response = GasResponse(state, fields, r)
    zv = response.zeta_at(fields.detuning_g0_rad_s)
    if not math.isinf(path_half_length_m):
        import numpy as np

        return float(_finite_path_delays(response, zv, np.array([r]), path_half_length_m)[0])
    trap = state.geometry
    column = 0.0
    if state.condensate_fraction > 0.0:
        a0r = response.a0r
        column = trap.atom_count * state.condensate_fraction * math.exp(-(r / a0r) ** 2) / (math.pi * a0r**2)
    delay = _infinite_path_delay(response, zv, response.fugacity_value, 0.0, column)
    if not math.isfinite(delay):
        raise DomainError("the delay at r = %.3g m is %r at T = %.3g K" % (r, delay, state.temperature_k))
    return delay


def trap_mean_delay(response, zv, pinhole, fc_mode="paper"):
    """Uniform average of the delay over the section of radius R, for the
    trap evaluator response (a GasResponse) at the zeta value zv of its zeta_at:
    <Delta t> = (1/pi R^2) int_0^R 2 pi r Delta_t(r) dr, as a DelayResult.

    Infinite path: the Doppler kernel at p = 1/2 with the section factor
    (1 - e^{-lc})/(lc), c = beta m nu_r^2 R^2/2, to first order
    2 pi (omega/c) chi0 ((K_B T)^3/(hbar^3 nu_z nu_r^2)) (1/(pi R^2))
    Re{zeta'(omega)([g_3(f)-g_3(f e^{-c})]/zeta^2
    + (3/2)(A^2/zeta^4)[g_4(f)-g_4(f e^{-c})])}; below Tc f = 1 plus the
    condensate term with the selected F_C mode.  Finite path: the local
    1/v_g - 1/c of delay_at_radius on 64 Gauss-Legendre radii, with the
    condensate density entering pointwise (fc_mode does not apply).
    The response's mode "asymptotic" stops the kernel at A^2 on either path.

    Raises DomainError when the pinhole is so small (c < 1e-9) that the
    closed form loses its digits, when a finite path in mode "exact" meets
    |zeta/A| < 10, or when the delay is zero, non-finite or so short that
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

    if not math.isinf(half_length):
        # average = (2/R^2) int_0^R r dt(r) dr on a fixed Gauss-Legendre rule
        nodes, weights = _gauss_legendre(64)
        r = 0.5 * radius * (nodes + 1.0)
        delays = _finite_path_delays(response, zv, r, half_length)
        delay = float((weights * r * delays).sum()) / radius
    else:
        exponent = 0.0
        if temperature > 0.0:
            exponent = 0.5 * response.beta * species.mass_kg * trap.nu_r_rad_s**2 * radius**2
            if exponent < _MIN_SECTION_EXPONENT:
                raise DomainError(
                    "pinhole radius R = %.3g m at T = %.3g K is too small for the "
                    "closed-form average (beta m nu_r^2 R^2/2 = %.3g < %g)"
                    % (radius, temperature, exponent, _MIN_SECTION_EXPONENT)
                )
        column = 0.0
        if state.condensate_fraction > 0.0:
            # F_C: paper mode 2/(pi R^2); exact mode the Gaussian integral (1/(pi R^2))(1 - e^{-R^2/a0r^2})
            section = (2.0 if fc_mode == "paper" else 1.0 - math.exp(-(radius / response.a0r) ** 2)) / (math.pi * radius**2)
            column = trap.atom_count * state.condensate_fraction * section
        delay = _infinite_path_delay(response, zv, state.fugacity.value, exponent, column)

    d_z = cloud_size(state)
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
    """Pinhole-averaged delay at the given temperature (see trap_mean_delay).

    The one (config, temperature) convenience of the library, which builds
    the gas state and its GasResponse for trap_mean_delay: the README's quick
    start and the library call the benchmark times.  Every other response
    takes a GasState from gas_state."""
    response = GasResponse(gas_state(config, temperature), config.fields)
    return trap_mean_delay(response, response.zeta_at(config.fields.detuning_g0_rad_s), pinhole, fc_mode=fc_mode)
