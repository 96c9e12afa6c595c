"""Optical response of a single three-level atom in the Lambda scheme.

A weak probe g couples |g>-|e>, a strong field Omega couples |r>-|e>.  The
linear-response coherence rho_eg, the dimensionless zeta parameter that the
gas susceptibilities are built from, the group-velocity formula, and a
dense-linear-algebra Bloch steady-state oracle for cross-checking.
"""

import warnings
from dataclasses import dataclass

import numpy as np

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


def _eit_denominator(fields, delta_two_photon):
    """Gamma_gr + i(Delta_g - Delta_r), guarded against the EIT pole."""
    denom = fields.gamma_gr_rad_s + 1j * delta_two_photon
    if fields.omega_coupling_rad_s > 0.0 and abs(denom) < _POLE_GUARD * fields.gamma_ge_rad_s:
        raise PoleError(
            "EIT term pole: |Gamma_gr + i(Delta_g - Delta_r)| = %.3e rad/s is within "
            "%.0e Gamma_ge of zero; use the transparency-limit path" % (abs(denom), _POLE_GUARD)
        )
    return denom


def zeta(fields, recoil):
    """Dimensionless zeta of the gas response, with d zeta/d omega (s)."""
    gge = fields.gamma_ge_rad_s
    delta_g0 = fields.detuning_g0_rad_s
    delta2 = delta_g0 - fields.detuning_r0_rad_s
    value = -(delta_g0 + recoil) / gge + 1j
    d_domega = 1.0 / gge + 0j
    omega_c = fields.omega_coupling_rad_s
    if omega_c > 0.0:
        denom = _eit_denominator(fields, delta2)
        value += 1j * (omega_c**2 / 4.0) / (gge * denom)
        d_domega -= (omega_c**2 / 4.0) / (gge * denom**2)
    return ZetaValue(value=value, d_domega=d_domega)


def coherence_steady_state(fields, probe_rabi, detuning_g, detuning_r):
    """Steady-state optical coherence rho_eg, first order in the probe.

    rho_eg = g/(2 Gamma_ge) / (Delta_g/Gamma_ge - i - i(Omega^2/4)/(Gamma_ge(Gamma_gr+i(Delta_g-Delta_r))))
    """
    gge = fields.gamma_ge_rad_s
    omega_c = fields.omega_coupling_rad_s
    if probe_rabi >= 0.1 * omega_c and probe_rabi >= 0.1 * gge:
        warnings.warn(
            "linear response assumes probe_rabi << Omega or << Gamma_ge "
            "(probe_rabi = %.3e rad/s)" % probe_rabi,
            ValidityWarning,
            stacklevel=2,
        )
    denominator = detuning_g / gge - 1j
    if omega_c > 0.0:
        eit = _eit_denominator(fields, detuning_g - detuning_r)
        denominator -= 1j * (omega_c**2 / 4.0) / (gge * eit)
    return probe_rabi / (2.0 * gge) / denominator


def bloch_steady_oracle(fields, probe_rabi, detuning_g, detuning_r):
    """Steady state of the full Bloch equations of one momentum class.

    Solves the 9x9 linear system (populations + 6 coherences, trace row in
    place of the redundant rho_gg equation) with dense linear algebra; no
    weak-probe approximation.
    """
    g = probe_rabi
    om = fields.omega_coupling_rad_s
    gge = fields.gamma_ge_rad_s
    gre = fields.gamma_re_rad_s
    ggr = fields.gamma_gr_rad_s
    # radiative case: Gamma_ge = Gamma_re = gamma/2, so the population decay
    # of |e> and its branch rates follow from the coherence rates
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
