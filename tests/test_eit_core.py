"""Three-level linear response: zeta, steady states, group velocity."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from slowlight import (
    C_M_S,
    ComplexResponse,
    DomainError,
    PoleError,
    UnphysicalDispersionError,
    ValidityWarning,
    chi0,
    coherence_steady_state,
    dipole_moment_sq,
    group_velocity_from_response,
    hau_group_velocity,
    probe_omega,
    recoil_frequency,
    transparency_limit_response,
    zeta,
)

from _configs import trap_config
from _oracles import bloch_steady_oracle, zeta_by_formula

CONFIG = trap_config()
SPECIES = CONFIG.species
FIELDS = CONFIG.fields
GAMMA = SPECIES.gamma_total_rad_s
GAMMA_GE = FIELDS.gamma_ge_rad_s
RECOIL = recoil_frequency(SPECIES, FIELDS)


def rel(a, b):
    return abs(a - b) / abs(b)


def detuned(fields, d_g, d_r):
    """The fields at the probe and coupling detunings d_g, d_r (rad/s)."""
    return replace(fields, detuning_g0_rad_s=d_g, detuning_r0_rad_s=d_r)


def _draw_fields(rng, omega_lo=0.1):
    return replace(
        FIELDS,
        omega_coupling_rad_s=rng.uniform(omega_lo, 2.0) * GAMMA,
        detuning_g0_rad_s=rng.uniform(-3.0, 3.0) * GAMMA_GE,
        detuning_r0_rad_s=rng.uniform(-3.0, 3.0) * GAMMA_GE,
    )


def test_zeta_matches_displayed_formula():
    rng = np.random.default_rng(23)
    for _ in range(30):
        fields = _draw_fields(rng, omega_lo=0.0)
        z = zeta(fields, RECOIL)
        value, d_domega = zeta_by_formula(fields, RECOIL)
        assert rel(z.value, value) < 1e-14
        assert rel(z.d_domega, d_domega) < 1e-14


def test_zeta_derivative_by_finite_difference():
    # the probe frequency enters through Delta_g alone, d Delta_g/d omega = -1
    rng = np.random.default_rng(3)
    step = 0.3
    for _ in range(50):
        fields = _draw_fields(rng)
        z = zeta(fields, RECOIL)
        z_plus = zeta(replace(fields, detuning_g0_rad_s=fields.detuning_g0_rad_s - step), RECOIL)
        z_minus = zeta(replace(fields, detuning_g0_rad_s=fields.detuning_g0_rad_s + step), RECOIL)
        fd = (z_plus.value - z_minus.value) / (2.0 * step)
        assert rel(z.d_domega, fd) < 1e-6


def test_zeta_at_the_operating_point():
    z = zeta(FIELDS, RECOIL)
    # Delta_g = Delta_r = 0: Im zeta = 1 + Omega^2/(4 Gamma_ge Gamma_gr)
    expected_im = 1.0 + FIELDS.omega_coupling_rad_s**2 / (
        4.0 * GAMMA_GE * FIELDS.gamma_gr_rad_s
    )
    assert rel(z.value.imag, expected_im) < 1e-14
    assert rel(z.value.real, -RECOIL / GAMMA_GE) < 1e-14
    # steep EIT dispersion: zeta' is large, real, and negative there
    assert z.d_domega.real < -0.1
    assert abs(z.d_domega.imag) < 1e-16
    # and gives positive group delay: Re(zeta'/zeta^2) > 0
    assert (z.d_domega / z.value**2).real > 0.0


def test_zeta_pole_guard():
    on_pole = replace(FIELDS, gamma_gr_rad_s=0.0, detuning_g0_rad_s=0.2 * GAMMA, detuning_r0_rad_s=0.2 * GAMMA)
    with pytest.raises(PoleError, match="transparency-limit"):
        zeta(on_pole, RECOIL)
    near_pole = replace(FIELDS, gamma_gr_rad_s=1e-8 * GAMMA_GE)
    with pytest.raises(PoleError, match="EIT term pole"):
        zeta(near_pole, RECOIL)
    # a two-photon detuning above the guard radius is fine; with zero
    # dephasing the EIT term there is purely dispersive (real)
    off_pole = replace(FIELDS, gamma_gr_rad_s=0.0, detuning_r0_rad_s=100.0)
    z_off = zeta(off_pole, RECOIL).value
    assert z_off.imag == 1.0
    assert z_off.real < -1e3
    # without a coupling field there is no EIT term, hence no pole
    two_level = replace(FIELDS, omega_coupling_rad_s=0.0, gamma_gr_rad_s=0.0)
    assert zeta(two_level, RECOIL).value.imag == 1.0


def test_coherence_matches_bloch_steady_state():
    rng = np.random.default_rng(7)
    probe = 1e-8 * GAMMA
    worst = 0.0
    for _ in range(100):
        fields = _draw_fields(rng, omega_lo=0.2)
        d_g = rng.uniform(-2.0, 2.0) * GAMMA
        d_r = rng.uniform(-2.0, 2.0) * GAMMA
        analytic = coherence_steady_state(detuned(fields, d_g, d_r), probe)
        oracle = bloch_steady_oracle(fields, probe, d_g, d_r).rho_eg
        worst = max(worst, rel(analytic, oracle))
    assert worst < 1e-10


def test_coherence_does_not_depend_on_gamma_re():
    # the library has no Gamma_re: to first order in the probe rho_eg is the
    # same whatever the |r>-|e> coherence rate (same draws as above)
    rng = np.random.default_rng(7)
    probe = 1e-8 * GAMMA
    worst = 0.0
    for _ in range(100):
        fields = _draw_fields(rng, omega_lo=0.2)
        d_g = rng.uniform(-2.0, 2.0) * GAMMA
        d_r = rng.uniform(-2.0, 2.0) * GAMMA
        analytic = coherence_steady_state(detuned(fields, d_g, d_r), probe)
        for gamma_re in (GAMMA / 4.0, 1.5 * GAMMA):
            oracle = bloch_steady_oracle(fields, probe, d_g, d_r, gamma_re=gamma_re).rho_eg
            worst = max(worst, rel(analytic, oracle))
    assert worst < 1e-10


def test_coherence_linear_in_probe():
    probe = 1e-6 * GAMMA
    fields = detuned(FIELDS, 0.1 * GAMMA, -0.2 * GAMMA)
    one = coherence_steady_state(fields, probe)
    two = coherence_steady_state(fields, 2.0 * probe)
    assert rel(two, 2.0 * one) < 1e-14


def test_bloch_richardson_extrapolation_hits_linear_response():
    # rho_eg/g = c0 + c2 g^2 + O(g^4); (4 r(g/2) - r(g))/3 removes the g^2 term
    d_g, d_r = 0.3 * GAMMA, -0.2 * GAMMA
    g_1 = 1e-4 * GAMMA
    r_1 = bloch_steady_oracle(FIELDS, g_1, d_g, d_r).rho_eg / g_1
    r_2 = bloch_steady_oracle(FIELDS, g_1 / 2.0, d_g, d_r).rho_eg / (g_1 / 2.0)
    extrapolated = (4.0 * r_2 - r_1) / 3.0
    c_0 = coherence_steady_state(detuned(FIELDS, d_g, d_r), 1.0)
    assert rel(extrapolated, c_0) < 1e-12


def test_bloch_steady_state_is_physical():
    rng = np.random.default_rng(5)
    for _ in range(30):
        fields = _draw_fields(rng, omega_lo=0.2)
        probe = 0.05 * fields.omega_coupling_rad_s
        state = bloch_steady_oracle(fields, probe, rng.uniform(-2, 2) * GAMMA, rng.uniform(-2, 2) * GAMMA)
        for population in (state.rho_gg, state.rho_rr, state.rho_ee):
            assert abs(population.imag) < 1e-12
            assert -1e-12 < population.real < 1.0 + 1e-12
        assert abs(state.trace - 1.0) < 1e-12
        assert state.rho_eg == state.rho_ge.conjugate()
        # weak probe keeps nearly everything in |g>
        assert state.rho_gg.real > 0.9
        assert state.rho_ee.real < 0.01


def test_coherence_warns_for_strong_probe():
    with pytest.warns(ValidityWarning, match="linear response"):
        coherence_steady_state(detuned(FIELDS, 0.0, 0.0), 0.5 * FIELDS.omega_coupling_rad_s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coherence_steady_state(detuned(FIELDS, 0.0, 0.0), 1e-8 * GAMMA)


def test_transparency_limit_matches_hau_formula():
    n = 3.8e18
    resp = transparency_limit_response(SPECIES, FIELDS, n)
    assert resp.chi == 0j
    assert resp.dchi_domega.imag == 0.0
    expected_slope = 4.0 * n * chi0(SPECIES) * GAMMA_GE / FIELDS.omega_coupling_rad_s**2
    assert rel(resp.dchi_domega.real, expected_slope) < 1e-14
    omega = probe_omega(SPECIES)
    v_dispersion = group_velocity_from_response(resp, omega)
    v_hau = hau_group_velocity(omega, FIELDS.omega_coupling_rad_s, n, dipole_moment_sq(SPECIES, GAMMA_GE))
    assert rel(v_dispersion, v_hau) < 0.01
    with pytest.raises(DomainError, match="Omega > 0"):
        transparency_limit_response(SPECIES, replace(FIELDS, omega_coupling_rad_s=0.0), n)


def test_group_velocity_formula_and_guards():
    resp = ComplexResponse(chi=0.001 + 0.002j, dchi_domega=3e-8 + 1e-9j)
    omega = 1e6
    expected = C_M_S / (1.0 + 2.0 * math.pi * 0.001 + 2.0 * math.pi * omega * 3e-8)
    assert rel(group_velocity_from_response(resp, omega), expected) < 1e-14
    assert group_velocity_from_response(ComplexResponse(0j, 0j), omega) == C_M_S
    with pytest.warns(ValidityWarning, match="dilute-response"):
        group_velocity_from_response(ComplexResponse(0.2 + 0j, 0j), omega)
    with pytest.raises(UnphysicalDispersionError, match="denominator"):
        group_velocity_from_response(ComplexResponse(0j, complex(-1.0)), 1.0)
