"""Optical response of a single three-level atom in the Lambda scheme.

A weak probe g couples |g>-|e>, a strong field Omega couples |r>-|e>.  The
linear-response coherence rho_eg, the dimensionless zeta parameter that the
gas susceptibilities are built from, and the group-velocity formula.  To
first order in g the response depends on the coherence rates Gamma_ge and
Gamma_gr only; the tests check it against the full Bloch steady state.
Pure-Python complex arithmetic; no numpy.
"""

import warnings
from dataclasses import dataclass

from .errors import DomainError, PoleError, UnphysicalDispersionError, ValidityWarning
from .units_params import C_M_S, TWO_PI, chi0

# relative half-width of the guard band around the EIT pole of zeta
_POLE_GUARD = 1e-6


@dataclass(frozen=True)
class ZetaValue:
    """zeta = -(Delta_g0+omega_R)/Gamma_ge + i + i(Omega^2/4)/(Gamma_ge(Gamma_gr+i(Delta_g0-Delta_r0)))
    and its probe-frequency derivative (chain rule with dDelta/domega = -1)."""

    value: complex
    d_domega: complex


@dataclass(frozen=True)
class ComplexResponse:
    """Susceptibility chi (dimensionless, Gaussian convention) and dchi/domega (s)."""

    chi: complex
    dchi_domega: complex


def _eit_denominator(fields, delta_two_photon):
    """Gamma_gr + i(Delta_g - Delta_r), guarded against the EIT pole."""
    denom = fields.gamma_gr_rad_s + 1j * delta_two_photon
    if fields.omega_coupling_rad_s > 0.0 and abs(denom) < _POLE_GUARD * fields.gamma_ge_rad_s:
        raise PoleError(
            "EIT term pole: |Gamma_gr + i(Delta_g - Delta_r)| = %.3e rad/s is within "
            "%.0e Gamma_ge of zero; use the transparency-limit path" % (abs(denom), _POLE_GUARD)
        )
    return denom


def zeta(fields, recoil, detuning_g0=None):
    """Dimensionless zeta of the gas response, with d zeta/d omega (s), at the
    probe detuning of the fields or, when given, at detuning_g0 (rad/s)."""
    gge = fields.gamma_ge_rad_s
    delta_g0 = fields.detuning_g0_rad_s if detuning_g0 is None else detuning_g0
    delta2 = delta_g0 - fields.detuning_r0_rad_s
    value = -(delta_g0 + recoil) / gge + 1j
    d_domega = 1.0 / gge + 0j
    omega_c = fields.omega_coupling_rad_s
    if omega_c > 0.0:
        denom = _eit_denominator(fields, delta2)
        value += 1j * (omega_c**2 / 4.0) / (gge * denom)
        d_domega -= (omega_c**2 / 4.0) / (gge * denom**2)
    return ZetaValue(value=value, d_domega=d_domega)


def coherence_steady_state(fields, probe_rabi):
    """Steady-state optical coherence rho_eg = -g/(2 Gamma_ge zeta), first
    order in the probe g, with zeta at zero recoil and the fields' Delta_g0, Delta_r0."""
    gge = fields.gamma_ge_rad_s
    if probe_rabi >= 0.1 * fields.omega_coupling_rad_s and probe_rabi >= 0.1 * gge:
        warnings.warn(
            "linear response assumes probe_rabi << Omega or << Gamma_ge "
            "(probe_rabi = %.3e rad/s)" % probe_rabi,
            ValidityWarning,
            stacklevel=2,
        )
    return -probe_rabi / (2.0 * gge * zeta(fields, 0.0).value)


def warn_if_dense(chi):
    """ValidityWarning, attributed to the caller's caller, when |chi| >= 0.1:
    the group velocity and the delays assume a dilute response, |chi| << 1."""
    if abs(chi) >= 0.1:
        warnings.warn(
            "|chi| = %.3g: beyond the dilute-response validity of the "
            "group-velocity formula" % abs(chi),
            ValidityWarning,
            stacklevel=3,
        )


def group_velocity_from_response(resp, probe_omega):
    """v_g = c / (1 + 2 pi Re chi + 2 pi omega Re dchi/domega) (m/s)."""
    warn_if_dense(resp.chi)
    denom = 1.0 + TWO_PI * resp.chi.real + TWO_PI * probe_omega * resp.dchi_domega.real
    if denom <= 0.0:
        raise UnphysicalDispersionError(
            "group-velocity denominator %.3e <= 0 (anomalous dispersion "
            "outside the formula's validity)" % denom
        )
    return C_M_S / denom


def transparency_limit_response(species, fields, number_density):
    """Response exactly at the transparency point in the Gamma_gr -> 0,
    two-photon-resonance limit: chi -> 0 while
    dchi/domega -> 4 n chi0 Gamma_ge / Omega^2 (real, temperature independent).
    """
    omega_c = fields.omega_coupling_rad_s
    if omega_c <= 0.0:
        raise DomainError("transparency limit requires a coupling field (Omega > 0)")
    slope = 4.0 * number_density * chi0(species) * fields.gamma_ge_rad_s / omega_c**2
    return ComplexResponse(chi=0j, dchi_domega=complex(slope))
