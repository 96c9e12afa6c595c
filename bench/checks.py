"""Correctness checks of benchmark outputs against the test-suite oracles.

Every check compares one emitted number with the independent oracle in
``tests/_oracles.py`` at the tolerance of the test that compares the same
quantity:

* susceptibility vs ``chi_box_by_quadrature`` / ``chi_trap_point_by_quadrature``:
  1e-8 (``test_chi_box_exact_matches_quadrature``,
  ``test_chi_trap_local_matches_point_quadrature``, criterion 5b).  The trap
  form is first order in (A/zeta)^2, so off the EIT point, where |zeta| is
  of order 1, the tolerance widens to the 10 (A/|zeta|)^4 that
  ``test_asymptotic_matches_exact_when_doppler_small`` allows such a
  truncated form;
* asymptotic box susceptibility vs the same oracle: 1e-3
  (``test_asymptotic_matches_exact_when_doppler_small`` at the operating point);
* pinhole-averaged delay vs ``mean_delay_by_quadrature``: 1e-6
  (``test_mean_delay_matches_quadrature``, criterion 5c);
* fugacity vs ``box_fugacity_oracle`` / ``trap_fugacity_oracle``: 1e-11.  The
  solver tests hold the residual of g_nu(f) = g_nu(1) (Tc/T)^nu to 1e-12
  relative; since g_nu / (f dg_nu/df) = g_nu / g_{nu-1} <= 1 that bounds the
  relative error of f by 1e-12, and the CSV's 12 significant digits add up
  to 5e-12 of rounding.

Each check returns ``(ok, detail)``; callers count a failed check as a failed
operation and never drop the input that failed.
"""

import math
from dataclasses import replace

import _oracles as oracles

C_LIGHT = oracles.C_LIGHT

CHI_TOL = 1e-8
CHI_ASYMPTOTIC_TOL = 1e-3
DELAY_TOL = 1e-6
FUGACITY_TOL = 1e-11

# A finite path of half-length L reproduces the infinite-path oracle once the
# thermal density exp(-z^2/z_th^2), z_th = sqrt(2 K_B T / m nu_z^2), is gone:
# at L = 5 z_th the cut tail is ~e^-25 ~ 1e-11 of the delay.
COVERING_PATH_IN_THERMAL_LENGTHS = 5.0


def rel(a, b):
    return abs(a - b) / abs(b)


def _verdict(err, tol, what):
    return bool(err <= tol), "%s rel err %.2e (tol %.2e)" % (what, err, tol)


def thermal_length(config, temperature):
    """z_th = sqrt(2 K_B T / m nu_z^2), the axial thermal length of the trap."""
    m = config.species.mass_kg
    return math.sqrt(2.0 * oracles.KB * temperature / (m * config.geometry.nu_z_rad_s**2))


def thermal_pinhole_radius(config, temperature):
    """R = sqrt(K_B T / m nu_r^2), the radius ``--pinhole-thermal`` selects."""
    m = config.species.mass_kg
    return math.sqrt(oracles.KB * temperature / (m * config.geometry.nu_r_rad_s**2))


def tc(config, kind):
    if kind == "box":
        return oracles.box_tc_oracle(config.species, config.geometry.number_density_per_m3)
    return oracles.trap_tc_oracle(config.species, config.geometry)


def with_fields(config, coupling_gamma=None, detuning_rad_s=None):
    """The config the CLI builds from --omega-coupling-gamma and a chi detuning."""
    fields = config.fields
    if coupling_gamma is not None:
        fields = replace(fields, omega_coupling_rad_s=coupling_gamma * config.species.gamma_total_rad_s)
    if detuning_rad_s is not None:
        fields = replace(fields, detuning_g0_rad_s=detuning_rad_s)
    return replace(config, fields=fields)


def fugacity(kind, theta, value):
    oracle = oracles.box_fugacity_oracle(theta) if kind == "box" else oracles.trap_fugacity_oracle(theta)
    return _verdict(rel(value, oracle), FUGACITY_TOL, "%s fugacity at T/Tc=%.6g" % (kind, theta))


def truncation_tol(config, temperature):
    """10 (A/|zeta|)^4, A = sqrt(2 K_B T/m) k_g/Gamma_ge the Doppler width."""
    species, fields = config.species, config.fields
    doppler = math.sqrt(2.0 * oracles.KB * temperature / species.mass_kg) * fields.k_g_per_m / fields.gamma_ge_rad_s
    recoil = oracles.HBAR * fields.k_g_per_m**2 / (2.0 * species.mass_kg)
    zeta, _ = oracles.zeta_by_formula(fields, recoil)
    return 10.0 * (doppler / abs(zeta)) ** 4


def chi(config, kind, temperature, value, tol=CHI_TOL):
    """Susceptibility at the trap centre (r = 0) or of the uniform box gas."""
    if kind == "box":
        oracle, _ = oracles.chi_box_by_quadrature(config, temperature)
    else:
        oracle, _ = oracles.chi_trap_point_by_quadrature(config, temperature, 0.0)
        tol = max(tol, truncation_tol(config, temperature))
    return _verdict(rel(value, oracle), tol, "%s chi at T=%.6g K" % (kind, temperature))


def mean_delay(config, temperature, radius_m, value):
    oracle = oracles.mean_delay_by_quadrature(config, temperature, radius_m)
    return _verdict(rel(value, oracle), DELAY_TOL, "mean delay at T=%.6g K, R=%.3g m" % (temperature, radius_m))


def finite_positive(label, values):
    """Problems with values that must be finite and > 0 (empty when fine)."""
    return ["%s %s=%r not finite and positive" % (label, k, v) for k, v in values.items() if not (math.isfinite(v) and v > 0.0)]


def subluminal(label, v_g):
    if math.isfinite(v_g) and 0.0 < v_g < C_LIGHT:
        return []
    return ["%s group velocity %r outside (0, c)" % (label, v_g)]
