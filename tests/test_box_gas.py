"""Uniform gas: condensation thermodynamics and Doppler-averaged response."""

import math
from dataclasses import replace

import mpmath
import pytest

from slowlight import (
    C_M_S,
    HBAR_J_S,
    KB_J_PER_K,
    Box,
    DomainError,
    SeriesCapError,
    chi0,
    chi_box_asymptotic,
    chi_box_exact,
    doppler_width_param,
    gas_state,
    recoil_frequency,
    tc_box,
    thermal_response_series,
    vg_box,
    zeta,
)

from _configs import box_config, detuned_config, temperature_for_doppler_a, trap_config
from _oracles import chi_box_by_quadrature

CONFIG = box_config()
SPECIES = CONFIG.species
FIELDS = CONFIG.fields
DENSITY = CONFIG.geometry.number_density_per_m3
TC = tc_box(SPECIES, DENSITY)


def rel(a, b):
    return abs(a - b) / abs(b)


def test_tc_box_value_and_scalings():
    z32 = float(mpmath.zeta(1.5))
    formula = (2.0 * math.pi * HBAR_J_S**2 / (SPECIES.mass_kg * KB_J_PER_K)) * (DENSITY / z32) ** (2.0 / 3.0)
    assert rel(TC, formula) < 1e-14
    assert rel(TC, 170.2e-9) < 2e-3
    assert rel(tc_box(SPECIES, 8.0 * DENSITY), 4.0 * TC) < 1e-14
    heavy = replace(SPECIES, mass_kg=2.0 * SPECIES.mass_kg)
    assert rel(tc_box(heavy, DENSITY), TC / 2.0) < 1e-14
    with pytest.raises(DomainError):
        tc_box(SPECIES, 0.0)


def test_doppler_width_param():
    t = 1.5 * TC
    speed = math.sqrt(2.0 * KB_J_PER_K * t / SPECIES.mass_kg)
    assert doppler_width_param(SPECIES, FIELDS, t) == FIELDS.k_g_per_m * speed / FIELDS.gamma_ge_rad_s
    assert rel(doppler_width_param(SPECIES, FIELDS, 4.0 * t), 2.0 * doppler_width_param(SPECIES, FIELDS, t)) < 1e-15


def test_box_thermo_above_tc():
    t = 1.5 * TC
    th = gas_state(CONFIG, t)
    assert th.t_c_k == TC
    assert th.temperature_k == t
    assert th.condensate_fraction == 0.0
    # n lambda_T^3 = g_{3/2}(f): the fugacity solves the density equation
    g32 = float(mpmath.polylog(1.5, th.fugacity.value))
    target = float(mpmath.zeta(1.5)) * 1.5**-1.5
    assert rel(g32, target) < 1e-12


def test_box_thermo_below_tc():
    th = gas_state(CONFIG, 0.5 * TC)
    assert th.fugacity.value == 1.0
    assert th.condensate_fraction == 1.0 - 0.5**1.5
    assert gas_state(CONFIG, 0.0).condensate_fraction == 1.0


def test_box_thermo_errors():
    with pytest.raises(DomainError, match="temperature must be nonnegative"):
        gas_state(CONFIG, -1e-9)
    with pytest.raises(ValueError, match="requires a box geometry"):
        chi_box_exact(trap_config(), 1e-7)


def test_chi_box_exact_matches_quadrature():
    worst = 0.0
    for theta in (0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0):
        resp = chi_box_exact(CONFIG, theta * TC)
        chi_q, dchi_q = chi_box_by_quadrature(CONFIG, theta * TC)
        worst = max(worst, rel(resp.chi, chi_q), rel(resp.dchi_domega, dchi_q))
    assert worst < 1e-8


def test_chi_box_detuned_matches_quadrature():
    # zeta = i exactly: the response sits on the absorption resonance, where
    # the Doppler kernel is least forgiving; a probe wave number off 2 pi/lambda
    # must move the recoil shift and the Doppler width together
    for config in (detuned_config("box"), detuned_config("box", k_g_per_m=1.5 * FIELDS.k_g_per_m)):
        for a_target in (0.05, 0.18):
            t = temperature_for_doppler_a(config, a_target)
            resp = chi_box_exact(config, t)
            chi_q, dchi_q = chi_box_by_quadrature(config, t)
            assert rel(resp.chi, chi_q) < 1e-8
            assert rel(resp.dchi_domega, dchi_q) < 1e-8


def test_far_detuned_dispersive_limit():
    # probe far below resonance: Re chi -> +n chi_0 Gamma_ge / Delta, tiny absorption
    delta = 100.0 * FIELDS.gamma_ge_rad_s
    far = box_config(omega_coupling_rad_s=0.0, detuning_g0_rad_s=delta)
    resp = chi_box_exact(far, 1.5 * TC)
    expected = DENSITY * chi0(SPECIES) * FIELDS.gamma_ge_rad_s / (delta + recoil_frequency(SPECIES, FIELDS))
    assert resp.chi.real > 0.0
    assert rel(resp.chi.real, expected) < 0.02
    assert 0.0 < resp.chi.imag < 0.05 * resp.chi.real


def test_condensate_response_at_zero_temperature():
    resp = chi_box_exact(CONFIG, 0.0)
    z = zeta(FIELDS, recoil_frequency(SPECIES, FIELDS))
    assert rel(resp.chi, -DENSITY * chi0(SPECIES) / z.value) < 1e-14
    assert rel(resp.dchi_domega, DENSITY * chi0(SPECIES) * z.d_domega / z.value**2) < 1e-14


def test_asymptotic_matches_exact_when_doppler_small():
    # the closed-form expansion truncates at relative order (A/|zeta|)^4
    config = detuned_config("box")
    for a_target in (0.05, 0.1, 0.18):
        t = temperature_for_doppler_a(config, a_target)
        exact = chi_box_exact(config, t)
        asym = chi_box_asymptotic(config, t)
        difference = rel(asym.chi, exact.chi)
        assert difference < 10.0 * a_target**4
        # the truncation error is real: the two routes must not collapse
        assert difference > 1e-3 * a_target**4
    for theta in (1.2, 2.0, 3.0):
        exact = chi_box_exact(CONFIG, theta * TC)
        asym = chi_box_asymptotic(CONFIG, theta * TC)
        assert rel(asym.chi, exact.chi) < 1e-3
        assert rel(asym.dchi_domega, exact.dchi_domega) < 1e-3


def test_asymptotic_domain_guard():
    config = detuned_config("box")
    with pytest.raises(DomainError, match="asymptotic expansion requires"):
        chi_box_asymptotic(config, temperature_for_doppler_a(config, 0.25))


def test_chi_box_exact_at_vanishing_doppler_width_is_a_domain_error():
    # K_B T underflows, so A = 0 and the series prefactor divides by zero
    with pytest.raises(DomainError, match=r"thermal prefactor .* at T = 1e-307 K"):
        chi_box_exact(CONFIG, 1e-307)


def test_chi_box_exact_at_overflowing_temperature_is_a_domain_error():
    with pytest.raises(DomainError, match=r"chi = .* is not finite at T = 1e\+290 K"):
        chi_box_exact(CONFIG, 1e290)


def test_chi_continuous_at_tc():
    eps = 1e-11
    below = chi_box_exact(CONFIG, TC * (1.0 - eps))
    above = chi_box_exact(CONFIG, TC * (1.0 + eps))
    assert rel(below.chi, above.chi) < 1e-10
    assert rel(below.dchi_domega, above.dchi_domega) < 1e-10


def test_doppler_series_cap():
    with pytest.raises(SeriesCapError, match="Doppler series not converged"):
        thermal_response_series(1.0, 0.05j, 1.0)


def test_vg_box_dilute_limit():
    dilute = replace(CONFIG, geometry=Box(number_density_per_m3=1.0))
    v = vg_box(dilute, 2.0 * tc_box(SPECIES, 1.0))
    assert 1.0 - 1e-9 < v / C_M_S < 1.0


def test_vg_box_default_sweep():
    values = [vg_box(CONFIG, theta * TC) for theta in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0)]
    assert all(0.0 < v < C_M_S for v in values)
    # total density is fixed in a box, so the group velocity barely moves with T
    flat = [vg_box(CONFIG, theta * TC) for theta in (0.5, 1.0, 1.5, 2.0)]
    assert (max(flat) - min(flat)) / min(flat) < 0.05


def test_vg_box_modes():
    t = 1.5 * TC
    assert rel(vg_box(CONFIG, t, mode="asymptotic"), vg_box(CONFIG, t, mode="exact")) < 1e-3
    with pytest.raises(ValueError, match="mode must be 'exact' or 'asymptotic'"):
        vg_box(CONFIG, t, mode="bogus")
