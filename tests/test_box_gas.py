"""Uniform gas: condensation thermodynamics and Doppler-averaged response."""

import cmath
import math
from dataclasses import replace

import mpmath
import pytest
from scipy.special import wofz

import slowlight.box_gas

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
    faddeeva_w_prime,
    gas_state,
    recoil_frequency,
    tc_box,
    thermal_response_series,
    vg_box,
    zeta,
)
from slowlight.cli import main
from slowlight.specfun import W_LARGE_Y

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


def test_chi_box_exact_head_then_tail_matches_quadrature(monkeypatch):
    # a probe wave number 10-20x the sodium one brings |zeta/A| down to 12-37,
    # so the series sums one chunk of exact w before the large-|y| tail
    # (f = 1 below Tc, f = 0.964 at 1.2 Tc, which the geometric stop does not end).
    # 200-1000x brings it to 0.26-1.9: heads of 1536 to 72704 exact terms, on
    # both sides of the 2000 where polylog_tail turns from g_nu less the head
    # to Euler-Maclaurin (measured <= 3.7e-15; g_nu less the head throughout
    # reads 4.7e-13 at 1000x); there the geometric stop at 1.2 Tc ends the
    # series after ~750 terms, before the tail
    tails = []
    deep_starts = []
    polylog_tail = slowlight.box_gas.polylog_tail
    monkeypatch.setattr(
        slowlight.box_gas, "polylog_tail", lambda nu, f, l_start: tails.append(l_start) or polylog_tail(nu, f, l_start)
    )
    for scale, tolerance in ((10, 1e-8), (20, 1e-8), (200, 1e-13), (1000, 1e-13)):
        config = detuned_config("box", k_g_per_m=scale * 2.0 * math.pi / 589e-9)
        tc = tc_box(config.species, config.geometry.number_density_per_m3)
        for theta in (0.5, 1.001, 1.2):
            tails.clear()
            # the kernel caches its tail polylogs; count the tails of this call
            slowlight.box_gas._tail_polylogs.cache_clear()
            resp = chi_box_exact(config, theta * tc)
            assert bool(tails) == (scale < 200 or theta < 1.2), (scale, theta)
            assert not tails or min(tails) > 0, (scale, theta)
            if scale >= 200:
                deep_starts += tails
            chi_q, dchi_q = chi_box_by_quadrature(config, theta * tc)
            assert rel(resp.chi, chi_q) < tolerance, (scale, theta)
            assert rel(resp.dchi_domega, dchi_q) < tolerance, (scale, theta)
    assert min(deep_starts) < 2000 <= max(deep_starts)


def test_default_box_response_needs_no_faddeeva_terms(monkeypatch, capsys):
    # at the sodium EIT defaults |zeta/A| >= 150, so the large-|y| tail is the
    # whole Doppler series from l = 1
    calls = []
    for name in ("faddeeva_w", "faddeeva_w_prime"):
        exact = getattr(slowlight.box_gas, name)
        monkeypatch.setattr(slowlight.box_gas, name, lambda y, name=name, exact=exact: calls.append(name) or exact(y))
    for theta in (0.5, 1.0 + 1e-4, 2.0):
        chi_box_exact(CONFIG, theta * TC)
    assert main(["chi", "--geometry", "box", "--temperature-nk", "200"]) == 0
    capsys.readouterr()
    assert calls == []


def test_large_y_tail_coefficients_match_faddeeva():
    # the four-term expansions of w and w' that replace the exact terms from
    # |y| = 70 on; measured worst case 1.2e-14 for w and 1.03e-13 for w' (the
    # fifth w' term, 59/|y|^8), both at |y| = 70
    sqrt_pi = math.sqrt(math.pi)
    for modulus in (slowlight.box_gas._TAIL_MIN_ABS_Y, 150.0, 1e3, 1e4):
        for arg in (0.05, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi - 0.05):
            y = cmath.rect(modulus, arg)
            w_tail = (1j / sqrt_pi) * sum(c * y ** -(2 * k + 1) for k, c in enumerate(W_LARGE_Y[:4]))
            wp_tail = (-1j / sqrt_pi) * sum((2 * k + 1) * c * y ** -(2 * k + 2) for k, c in enumerate(W_LARGE_Y[:4]))
            assert rel(w_tail, complex(wofz(y))) <= 1e-13, y
            assert rel(wp_tail, faddeeva_w_prime(y)) <= 2e-13, y


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
