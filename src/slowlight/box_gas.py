"""Thermodynamic state of the ideal Bose gas, and susceptibility and group
velocity of the gas in a box.

The state at one temperature (Tc, fugacity, condensate fraction) serves
both geometries.  Above Tc the Doppler-averaged response of the thermal
cloud in a box is the series over l of f^l/l * w(sqrt(l) zeta / A), with
A = sqrt(2 K_B T/m) k_g/Gamma_ge the thermal Doppler width in linewidth
units; below Tc the f = 1 series plus the zero-momentum condensate term
-(chi0/zeta) n (1 - (T/Tc)^{3/2}).
"""

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eit_core import ComplexResponse, group_velocity_from_response, zeta
from .errors import DomainError, SeriesCapError, ValidityWarning
from .specfun import (
    SQRT_PI,
    ZETA_3,
    ZETA_3_2,
    Fugacity,
    faddeeva_w,
    faddeeva_w_prime,
    fugacity_from_temperature,
    polylog,
    polylog_tail,
)
from .units_params import (
    HBAR_J_S,
    KB_J_PER_K,
    AtomSpecies,
    Box,
    chi0,
    probe_omega,
    recoil_frequency,
)

_SERIES_CHUNK = 512
_SERIES_HEAD_MIN = 5000
_SERIES_CAP = 10**6
# the 4-term large-|y| tail is ~1e-13 accurate once |y| = sqrt(l)|zeta|/A >= 70
_TAIL_MIN_ABS_Y = 70.0
# uniform bounds on |w|, |dw/dy| in the upper half plane (for remainder bounds)
_W_BOUND = 1.0
_WPRIME_BOUND = 2.0
# relative size of the series remainder at which the sum stops
_SERIES_REL_TOL = 1e-12


@dataclass(frozen=True)
class GasState:
    """Thermodynamic state of the gas (box or trap) at one temperature.

    It holds only what the species, geometry and temperature fix; the
    responses take the light fields separately, so one state serves every
    detuning of a scan.
    """

    species: AtomSpecies
    geometry: object  # Box or HarmonicTrap
    temperature_k: float
    t_c_k: float
    fugacity: Fugacity
    condensate_fraction: float


def tc_box(species, number_density):
    """Condensation temperature Tc = (2 pi hbar^2 / m K_B)(n/g_{3/2}(1))^{2/3}."""
    if not number_density > 0.0:
        raise DomainError("number density must be positive, got %r" % number_density)
    return (
        2.0
        * math.pi
        * HBAR_J_S**2
        / (species.mass_kg * KB_J_PER_K)
        * (number_density / ZETA_3_2) ** (2.0 / 3.0)
    )


def tc_trap(species, trap):
    """K_B Tc = hbar (nu_z nu_r^2)^{1/3} (N / g_3(1))^{1/3}."""
    nu_bar = (trap.nu_z_rad_s * trap.nu_r_rad_s**2) ** (1.0 / 3.0)
    return HBAR_J_S * nu_bar * (trap.atom_count / ZETA_3) ** (1.0 / 3.0) / KB_J_PER_K


def doppler_width_param(species, fields, temperature):
    """A = sqrt(2 K_B T / m) k_g / Gamma_ge (thermal Doppler width over linewidth)."""
    speed = math.sqrt(2.0 * KB_J_PER_K * temperature / species.mass_kg)
    return speed * fields.k_g_per_m / fields.gamma_ge_rad_s


class in_float_range:
    """Context that turns an overflow, a division by zero or (under
    np.errstate) an invalid operation inside it into a DomainError that
    names the quantity and the temperature."""

    __slots__ = ("quantity", "temperature")

    def __init__(self, quantity, temperature):
        self.quantity = quantity
        self.temperature = temperature

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if kind is not None and issubclass(kind, ArithmeticError):
            raise DomainError(
                "%s leaves the floating-point range at T = %.3g K (%s)" % (self.quantity, self.temperature, exc)
            ) from exc
        return False


def finite_response(chi, dchi, temperature):
    """(chi, dchi/domega) as a ComplexResponse, or a DomainError naming the
    temperature when either is not finite."""
    chi, dchi = complex(chi), complex(dchi)
    if not (cmath.isfinite(chi) and cmath.isfinite(dchi)):
        raise DomainError(
            "the susceptibility chi = %r (dchi/domega = %r) is not finite at T = %.3g K"
            % (chi, dchi, temperature)
        )
    return ComplexResponse(chi=chi, dchi_domega=dchi)


def zeta_and_width(state, fields):
    """zeta of the fields and the Doppler width A at the state's temperature."""
    species = state.species
    with in_float_range("zeta", state.temperature_k):
        zv = zeta(fields, recoil_frequency(species, fields))
    return zv, doppler_width_param(species, fields, state.temperature_k)


def gas_state(config, temperature):
    """GasState at the given temperature (T = 0 allowed: pure condensate).

    The fugacity solves g_nu(f) = g_nu(1) (Tc/T)^nu and the condensate
    fraction is 1 - (T/Tc)^nu, with nu = 3/2 in a box and nu = 3 in a trap.
    A trapped gas warns where the semiclassical K_B T >> hbar nu fails.
    """
    if temperature < 0.0:
        raise DomainError("temperature must be nonnegative, got %r" % temperature)
    # a float, so that an overflow in the responses raises or gives inf, not
    # a numpy warning
    temperature = float(temperature)
    species = config.species
    geometry = config.geometry
    kind = config.geometry_kind
    if kind == "box":
        t_c, nu = tc_box(species, geometry.number_density_per_m3), 1.5
    else:
        t_c, nu = tc_trap(species, geometry), 3.0
    theta = temperature / t_c
    if temperature == 0.0:
        fugacity = Fugacity(1.0)
    else:
        fugacity = fugacity_from_temperature(kind, theta)
    if kind == "trap" and temperature > 0.0:
        nu_max = max(geometry.nu_r_rad_s, geometry.nu_z_rad_s)
        if KB_J_PER_K * temperature < 10.0 * HBAR_J_S * nu_max:
            warnings.warn(
                "semiclassical statistics assume K_B T >> hbar nu "
                "(K_B T / hbar nu_max = %.3g)" % (KB_J_PER_K * temperature / (HBAR_J_S * nu_max)),
                ValidityWarning,
                stacklevel=2,
            )
    return GasState(
        species=species,
        geometry=geometry,
        temperature_k=temperature,
        t_c_k=t_c,
        fugacity=fugacity,
        condensate_fraction=1.0 - theta**nu if theta < 1.0 else 0.0,
    )


def thermal_response_series(fugacity_value, zeta_value, a_param):
    """Doppler series of one thermal cloud: returns (S, S') with
    S = sum_l u^l/l w(sqrt(l) zeta/A) and S' = sum_l u^l/sqrt(l) w'(sqrt(l) zeta/A).

    Explicit chunks with exact w up to at least 5000 terms, then polylog
    tails of the large-|y| expansion; geometric early stop for u < 1.
    """
    u = fugacity_value
    z_over_a = zeta_value / a_param
    abs_ratio = abs(z_over_a)
    s_w = 0.0 + 0.0j
    s_wp = 0.0 + 0.0j
    l0 = 1
    while l0 <= _SERIES_CAP:
        hi = min(l0 + _SERIES_CHUNK - 1, _SERIES_CAP)
        l = np.arange(l0, hi + 1, dtype=float)
        y = np.sqrt(l) * z_over_a
        ul = u**l
        s_w += complex((ul / l * faddeeva_w(y)).sum())
        s_wp += complex((ul / np.sqrt(l) * faddeeva_w_prime(y)).sum())
        if u < 1.0:
            # remainder bounds from |w| <= 1, |w'| <= 2 on the upper half plane
            geom = u ** (hi + 1) / (1.0 - u)
            if (
                geom * _W_BOUND / (hi + 1) <= _SERIES_REL_TOL * abs(s_w)
                and geom * _WPRIME_BOUND / math.sqrt(hi + 1) <= _SERIES_REL_TOL * abs(s_wp)
            ):
                return s_w, s_wp
        if hi >= _SERIES_HEAD_MIN and math.sqrt(hi + 1) * abs_ratio >= _TAIL_MIN_ABS_Y:
            r = 1.0 / z_over_a  # A/zeta
            g32 = polylog_tail(1.5, u, hi)
            g52 = polylog_tail(2.5, u, hi)
            g72 = polylog_tail(3.5, u, hi)
            g92 = polylog_tail(4.5, u, hi)
            s_w += (1j / SQRT_PI) * (
                r * g32 + 0.5 * r**3 * g52 + 0.75 * r**5 * g72 + 1.875 * r**7 * g92
            )
            s_wp += (-1j / SQRT_PI) * (
                r**2 * g32 + 1.5 * r**4 * g52 + 3.75 * r**6 * g72 + 13.125 * r**8 * g92
            )
            return s_w, s_wp
        l0 = hi + 1
    raise SeriesCapError(
        "Doppler series not converged within %d terms (fugacity %.6g, |zeta/A| = %.3g)"
        % (_SERIES_CAP, u, abs_ratio)
    )


def thermal_series_prefactor(species, temperature, a_param):
    """P = i chi0 (2 m K_B T / hbar^2)^{3/2} / (8 pi A); chi_thermal = P*S."""
    return (
        1j
        * chi0(species)
        * (2.0 * species.mass_kg * KB_J_PER_K * temperature / HBAR_J_S**2) ** 1.5
        / (8.0 * math.pi * a_param)
    )


def _condensate_response(species, zeta_value, condensate_density):
    chi_c = -chi0(species) * condensate_density / zeta_value.value
    dchi_c = chi0(species) * condensate_density * zeta_value.d_domega / zeta_value.value**2
    return chi_c, dchi_c


def box_response(state, fields, mode="exact"):
    """Susceptibility of the box gas in the given state under the given fields.

    mode "exact" sums the Doppler series of the thermal cloud and adds the
    condensate; "asymptotic" is the closed-form expansion in (A/zeta)^2
    chi = -(n chi0/zeta)[1 + (T/Tc)^{3/2} (g_{5/2}(f)/(2 g_{3/2}(1))) (A/zeta)^2],
    with f = 1 below Tc (condensate term already folded in).
    """
    if not isinstance(state.geometry, Box):
        raise ValueError("box response requires a box geometry")
    if mode not in ("exact", "asymptotic"):
        raise ValueError("mode must be 'exact' or 'asymptotic', got %r" % mode)
    species = state.species
    temperature = state.temperature_k
    zv, a = zeta_and_width(state, fields)
    n = state.geometry.number_density_per_m3
    if mode == "asymptotic":
        x0 = chi0(species)
        if a > 0.0:
            ratio = abs(zv.value) / a
            if ratio < 5.0:
                raise DomainError(
                    "asymptotic expansion requires |zeta/A| >= 5, got |zeta/A| = %.3g" % ratio
                )
        theta = temperature / state.t_c_k
        correction = theta**1.5 * polylog(2.5, state.fugacity.value) / (2.0 * ZETA_3_2) * a**2
        chi = -n * x0 * (1.0 / zv.value + correction / zv.value**3)
        dchi = n * x0 * (1.0 / zv.value**2 + 3.0 * correction / zv.value**4) * zv.d_domega
        return finite_response(chi, dchi, temperature)
    chi = 0.0 + 0.0j
    dchi = 0.0 + 0.0j
    if temperature > 0.0:
        with in_float_range("the thermal prefactor chi0 (2 m K_B T/hbar^2)^{3/2}/(8 pi A)", temperature):
            pref = thermal_series_prefactor(species, temperature, a)
        s_w, s_wp = thermal_response_series(state.fugacity.value, zv.value, a)
        chi += pref * s_w
        dchi += pref * (zv.d_domega / a) * s_wp
    if state.condensate_fraction > 0.0:
        chi_c, dchi_c = _condensate_response(species, zv, n * state.condensate_fraction)
        chi += chi_c
        dchi += dchi_c
    return finite_response(chi, dchi, temperature)


def chi_box_exact(config, temperature):
    """Series susceptibility of the box gas (thermal series + condensate)."""
    return box_response(gas_state(config, temperature), config.fields)


def chi_box_asymptotic(config, temperature):
    """Closed-form expansion of chi_box_exact in powers of (A/zeta)^2."""
    return box_response(gas_state(config, temperature), config.fields, mode="asymptotic")


def vg_box(config, temperature, mode="exact"):
    """Group velocity of the probe in the box gas (m/s)."""
    resp = box_response(gas_state(config, temperature), config.fields, mode=mode)
    return group_velocity_from_response(resp, probe_omega(config.species))
