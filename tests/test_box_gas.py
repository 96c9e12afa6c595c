"""Uniform gas: condensation thermodynamics and Doppler-averaged response."""

import cmath
import math
import warnings
from dataclasses import replace

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import wofz

import slowlight.box_gas

from slowlight import (
    C_M_S,
    HBAR_J_S,
    KB_J_PER_K,
    Box,
    DomainError,
    GasResponse,
    SeriesCapError,
    ValidityWarning,
    chi0,
    doppler_width_param,
    faddeeva_w_prime,
    gas_state,
    group_velocity_from_response,
    probe_omega,
    recoil_frequency,
    tc_box,
    thermal_response_series,
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
OMEGA = probe_omega(SPECIES)


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
    g32 = float(mpmath.polylog(1.5, th.fugacity))
    target = float(mpmath.zeta(1.5)) * 1.5**-1.5
    assert rel(g32, target) < 1e-12


def test_box_thermo_below_tc():
    th = gas_state(CONFIG, 0.5 * TC)
    assert th.fugacity == 1.0
    assert th.condensate_fraction == 1.0 - 0.5**1.5
    assert gas_state(CONFIG, 0.0).condensate_fraction == 1.0


def test_box_thermo_errors():
    with pytest.raises(DomainError, match="temperature must be nonnegative"):
        gas_state(CONFIG, -1e-9)
    # a box has no position, so a radius there would be ignored
    state = gas_state(CONFIG, 1.5 * TC)
    for r in (1e-6, 1.0):
        with pytest.raises(ValueError, match="a box response has no position, got r = %r" % r):
            GasResponse(state, FIELDS, r)


def test_gas_state_refuses_a_non_finite_temperature(tmp_path, capsys):
    # T = inf would reach the responses as a nan chi, and T = nan would be
    # blamed on t_over_tc; both are refused by name in either geometry
    for config in (CONFIG, trap_config()):
        for temperature in (math.inf, math.nan):
            with pytest.raises(DomainError, match=r"temperature must be nonnegative and finite, got T = (inf|nan) K"):
                gas_state(config, temperature)
    # a sweep whose T = theta Tc overflows meets the same refusal
    path = tmp_path / "dense.cfg"
    path.write_text("geometry.kind = box\ngeometry.number_density_per_m3 = 1e300\n")
    argv = ["sweep", "--config", str(path), "--t-min", "1e307", "--t-max", "1.7e308", "--t-points", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "physics error: at t_over_tc=1e+307 (T=inf K): temperature must be nonnegative and finite, got T = inf K\n"
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(geometry=st.sampled_from(["box", "trap"]), theta=st.floats(min_value=0.0, max_value=1e300))
@example(geometry="box", theta=0.0)
@example(geometry="trap", theta=0.0)
@example(geometry="box", theta=1.0)
@example(geometry="trap", theta=1.0)
def test_gas_state_fugacity_is_a_float_in_the_unit_interval(geometry, theta):
    config = CONFIG if geometry == "box" else trap_config()
    t_c = gas_state(config, 0.0).t_c_k
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        state = gas_state(config, theta * t_c)
    assert type(state.fugacity) is float
    assert 0.0 <= state.fugacity <= 1.0
    if state.temperature_k <= t_c:
        assert state.fugacity == 1.0


def test_chi_box_exact_matches_quadrature():
    worst = 0.0
    for theta in (0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0):
        resp = GasResponse(gas_state(CONFIG, theta * TC), CONFIG.fields)()
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
            resp = GasResponse(gas_state(config, t), config.fields)()
            chi_q, dchi_q = chi_box_by_quadrature(config, t)
            assert rel(resp.chi, chi_q) < 1e-8
            assert rel(resp.dchi_domega, dchi_q) < 1e-8


def test_chi_box_exact_head_then_tail_matches_quadrature(monkeypatch):
    # a probe wave number 10-20x the sodium one brings |zeta/A| down to 12-37,
    # so the series sums one chunk of exact w before the large-|y| tail
    # (f = 1 below Tc, f = 0.964 at 1.2 Tc, which the geometric stop does not end).
    # 200-1000x brings it to 0.26-1.9: heads of 1536 to 72704 exact terms;
    # there the geometric stop at 1.2 Tc ends the series after ~750 terms,
    # before the tail.  Every head is a whole number of 512-term chunks, after
    # which polylog_tail's Euler-Maclaurin sum is within 2e-16 of g_nu
    tails = []
    heads = []
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
            resp = GasResponse(gas_state(config, theta * tc), config.fields)()
            assert bool(tails) == (scale < 200 or theta < 1.2), (scale, theta)
            heads += tails
            chi_q, dchi_q = chi_box_by_quadrature(config, theta * tc)
            assert rel(resp.chi, chi_q) < tolerance, (scale, theta)
            assert rel(resp.dchi_domega, dchi_q) < tolerance, (scale, theta)
    assert heads and all(head > 0 and head % 512 == 0 for head in heads), sorted(set(heads))


def test_default_box_response_needs_no_faddeeva_terms(monkeypatch, capsys):
    # at the sodium EIT defaults |zeta/A| >= 150, so the large-|y| tail is the
    # whole Doppler series from l = 1
    calls = []
    for name in ("faddeeva_w", "faddeeva_w_prime"):
        exact = getattr(slowlight.box_gas, name)
        monkeypatch.setattr(slowlight.box_gas, name, lambda y, name=name, exact=exact: calls.append(name) or exact(y))
    for theta in (0.5, 1.0 + 1e-4, 2.0):
        GasResponse(gas_state(CONFIG, theta * TC), CONFIG.fields)()
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
    resp = GasResponse(gas_state(far, 1.5 * TC), far.fields)()
    expected = DENSITY * chi0(SPECIES) * FIELDS.gamma_ge_rad_s / (delta + recoil_frequency(SPECIES, FIELDS))
    assert resp.chi.real > 0.0
    assert rel(resp.chi.real, expected) < 0.02
    assert 0.0 < resp.chi.imag < 0.05 * resp.chi.real


def test_condensate_response_at_zero_temperature():
    resp = GasResponse(gas_state(CONFIG, 0.0), CONFIG.fields)()
    z = zeta(FIELDS, recoil_frequency(SPECIES, FIELDS))
    assert rel(resp.chi, -DENSITY * chi0(SPECIES) / z.value) < 1e-14
    assert rel(resp.dchi_domega, DENSITY * chi0(SPECIES) * z.d_domega / z.value**2) < 1e-14


def test_asymptotic_matches_exact_when_doppler_small():
    # the closed-form expansion truncates at relative order (A/|zeta|)^4
    config = detuned_config("box")
    for a_target in (0.05, 0.1, 0.18):
        t = temperature_for_doppler_a(config, a_target)
        state = gas_state(config, t)
        exact = GasResponse(state, config.fields)()
        asym = GasResponse(state, config.fields, mode="asymptotic")()
        difference = rel(asym.chi, exact.chi)
        assert difference < 10.0 * a_target**4
        # the truncation error is real: the two routes must not collapse
        assert difference > 1e-3 * a_target**4
    for theta in (1.2, 2.0, 3.0):
        state = gas_state(CONFIG, theta * TC)
        exact = GasResponse(state, FIELDS)()
        asym = GasResponse(state, FIELDS, mode="asymptotic")()
        assert rel(asym.chi, exact.chi) < 1e-3
        assert rel(asym.dchi_domega, exact.dchi_domega) < 1e-3


def test_asymptotic_domain_guard():
    config = detuned_config("box")
    state = gas_state(config, temperature_for_doppler_a(config, 0.25))
    with pytest.raises(DomainError, match="asymptotic expansion requires"):
        GasResponse(state, config.fields, mode="asymptotic")()


def test_chi_box_exact_at_vanishing_doppler_width_is_a_domain_error():
    # K_B T underflows, so A = 0 and the series prefactor divides by zero
    with pytest.raises(DomainError, match=r"thermal prefactor .* at T = 1e-307 K"):
        GasResponse(gas_state(CONFIG, 1e-307), CONFIG.fields)()


def test_chi_box_exact_at_overflowing_temperature_is_a_domain_error():
    with pytest.raises(DomainError, match=r"chi = .* is not finite at T = 1e\+290 K"):
        GasResponse(gas_state(CONFIG, 1e290), CONFIG.fields)()


def test_chi_continuous_at_tc():
    eps = 1e-11
    below = GasResponse(gas_state(CONFIG, TC * (1.0 - eps)), CONFIG.fields)()
    above = GasResponse(gas_state(CONFIG, TC * (1.0 + eps)), CONFIG.fields)()
    assert rel(below.chi, above.chi) < 1e-10
    assert rel(below.dchi_domega, above.dchi_domega) < 1e-10


def test_doppler_series_cap(monkeypatch):
    # at u = 1 only the large-|y| tail ends the series; where no chunk within
    # the cap reaches |y| = 70 the kernel refuses before any Faddeeva term
    calls = []
    exact = slowlight.box_gas.faddeeva_w
    monkeypatch.setattr(slowlight.box_gas, "faddeeva_w", lambda y: calls.append(y) or exact(y))
    for section in (0.0, 0.5):
        with pytest.raises(SeriesCapError, match="Doppler series not converged within 1000000 terms"):
            thermal_response_series(1.0, 0.05j, 1.0, section=section)
    assert calls == []


def test_vg_box_dilute_limit():
    dilute = replace(CONFIG, geometry=Box(number_density_per_m3=1.0))
    v = group_velocity_from_response(GasResponse(gas_state(dilute, 2.0 * tc_box(SPECIES, 1.0)), FIELDS)(), OMEGA)
    assert 1.0 - 1e-9 < v / C_M_S < 1.0


def test_vg_box_default_sweep():
    values = [
        group_velocity_from_response(GasResponse(gas_state(CONFIG, theta * TC), FIELDS)(), OMEGA)
        for theta in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0)
    ]
    assert all(0.0 < v < C_M_S for v in values)
    # total density is fixed in a box, so the group velocity barely moves with T
    flat = [
        group_velocity_from_response(GasResponse(gas_state(CONFIG, theta * TC), FIELDS)(), OMEGA)
        for theta in (0.5, 1.0, 1.5, 2.0)
    ]
    assert (max(flat) - min(flat)) / min(flat) < 0.05


def test_vg_box_modes():
    state = gas_state(CONFIG, 1.5 * TC)
    asymptotic = group_velocity_from_response(GasResponse(state, FIELDS, mode="asymptotic")(), OMEGA)
    exact = group_velocity_from_response(GasResponse(state, FIELDS, mode="exact")(), OMEGA)
    assert rel(asymptotic, exact) < 1e-3
    with pytest.raises(ValueError, match="mode must be 'exact' or 'asymptotic'"):
        GasResponse(state, FIELDS, mode="bogus")()
