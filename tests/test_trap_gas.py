"""Harmonic trap: thermodynamics, local response, pinhole-averaged delays."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from slowlight import (
    C_M_S,
    HBAR_J_S,
    KB_J_PER_K,
    DomainError,
    PinholeSpec,
    ValidityWarning,
    chi0,
    chi_trap_local,
    cloud_size,
    delay_at_radius,
    gas_state,
    ground_state_size,
    mean_delay,
    probe_omega,
    recoil_frequency,
    tc_trap,
    thermal_radius,
    vg_trap,
    zeta,
)

from _configs import box_config, detuned_config, fixed_pinhole, trap_config
from _oracles import chi_trap_point_by_quadrature, mean_delay_by_quadrature

CONFIG = trap_config()
SPECIES = CONFIG.species
TRAP = CONFIG.geometry
TC = tc_trap(SPECIES, TRAP)
PINHOLE = fixed_pinhole(15e-6)


def rel(a, b):
    return abs(a - b) / abs(b)


def test_tc_trap_value_and_scalings():
    nu_bar = (TRAP.nu_z_rad_s * TRAP.nu_r_rad_s**2) ** (1.0 / 3.0)
    formula = HBAR_J_S * nu_bar * (TRAP.atom_count / float(mpmath.zeta(3))) ** (1.0 / 3.0) / KB_J_PER_K
    assert rel(TC, formula) < 1e-14
    assert rel(tc_trap(SPECIES, replace(TRAP, atom_count=8.0 * TRAP.atom_count)), 2.0 * TC) < 1e-14
    isotropic = replace(TRAP, nu_z_rad_s=TRAP.nu_r_rad_s)
    assert rel(
        tc_trap(SPECIES, isotropic),
        HBAR_J_S * TRAP.nu_r_rad_s * (TRAP.atom_count / float(mpmath.zeta(3))) ** (1.0 / 3.0) / KB_J_PER_K,
    ) < 1e-14


def test_oscillator_and_thermal_sizes():
    nu = TRAP.nu_z_rad_s
    assert ground_state_size(SPECIES, nu) == math.sqrt(HBAR_J_S / (SPECIES.mass_kg * nu))
    t = 2.0 * TC
    assert thermal_radius(SPECIES, TRAP, t) == math.sqrt(KB_J_PER_K * t / (SPECIES.mass_kg * TRAP.nu_r_rad_s**2))
    assert rel(thermal_radius(SPECIES, TRAP, 4.0 * t), 2.0 * thermal_radius(SPECIES, TRAP, t)) < 1e-15
    with pytest.raises(DomainError, match="thermal pinhole radius undefined"):
        thermal_radius(SPECIES, TRAP, 0.0)


def test_trap_thermo_above_tc():
    t = 1.5 * TC
    th = gas_state(CONFIG, t)
    assert th.t_c_k == TC
    assert th.temperature_k == t
    assert th.condensate_fraction == 0.0
    # N (theta/Tc scaling): g_3(f) = g_3(1) theta^{-3}
    g3 = float(mpmath.polylog(3, th.fugacity.value))
    assert rel(g3, float(mpmath.zeta(3)) * 1.5**-3) < 1e-12


def test_trap_thermo_below_tc():
    th = gas_state(CONFIG, 0.5 * TC)
    assert th.fugacity.value == 1.0
    assert th.condensate_fraction == 1.0 - 0.5**3
    assert gas_state(CONFIG, 0.0).condensate_fraction == 1.0
    # the thermal prefactor identity behind the delay formulas:
    # (K_B T)^3/(hbar^3 nu_z nu_r^2) = N theta^3 / g_3(1)
    t = 2.0 * TC
    lhs = (KB_J_PER_K * t) ** 3 / (HBAR_J_S**3 * TRAP.nu_z_rad_s * TRAP.nu_r_rad_s**2)
    rhs = TRAP.atom_count * (t / TC) ** 3 / float(mpmath.zeta(3))
    assert rel(lhs, rhs) < 1e-12


def test_trap_thermo_semiclassical_warning():
    with pytest.warns(ValidityWarning, match="semiclassical statistics assume"):
        gas_state(CONFIG, 20e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gas_state(CONFIG, 0.5 * TC)


def test_cloud_size_branches():
    a0z = ground_state_size(SPECIES, TRAP.nu_z_rad_s)
    assert rel(cloud_size(CONFIG, 0.0), math.sqrt(2.0) * a0z) < 1e-15
    t = 432e-9
    above = math.sqrt(2.0 * KB_J_PER_K * t / (SPECIES.mass_kg * TRAP.nu_z_rad_s**2))
    assert rel(cloud_size(CONFIG, t), above) < 1e-15
    assert rel(above, 140.7e-6) < 1e-3
    eps = 1e-12
    assert rel(cloud_size(CONFIG, TC * (1.0 - eps)), cloud_size(CONFIG, TC * (1.0 + eps))) < 1e-10
    sizes = [cloud_size(CONFIG, theta * TC) for theta in (0.0, 0.3, 0.7, 1.0, 1.5, 2.0)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    with pytest.raises(DomainError):
        cloud_size(CONFIG, -1e-9)
    with pytest.raises(ValueError, match="requires a harmonic-trap geometry"):
        cloud_size(box_config(), 1e-7)


def test_pinhole_validation():
    with pytest.raises(ValueError, match="radius_mode must be 'fixed' or 'thermal'"):
        PinholeSpec(radius_mode="square", radius_m=1e-5)
    with pytest.raises(DomainError, match="fixed pinhole requires radius_m > 0"):
        PinholeSpec(radius_mode="fixed", radius_m=0.0)
    with pytest.raises(DomainError, match="path_half_length_m must be positive"):
        PinholeSpec(radius_mode="fixed", radius_m=1e-5, path_half_length_m=0.0)
    with pytest.raises(DomainError, match="thermal pinhole radius undefined"):
        mean_delay(CONFIG, 0.0, PinholeSpec(radius_mode="thermal", radius_m=None))
    # g(f) - g(f e^{-c}) loses its digits as R -> 0; a metre-wide section
    # averages the delay down until D_z/<Delta t> exceeds c
    for radius, reason in ((1e-11, "too small"), (1e-13, "too small"), (1.0, "v_g is not below c")):
        with pytest.raises(DomainError, match="pinhole radius R = %g m at T = .* K .*%s" % (radius, reason)):
            mean_delay(CONFIG, 1.5 * TC, fixed_pinhole(radius))


def test_chi_trap_local_matches_point_quadrature():
    # the last case moves the probe wave number off 2 pi/lambda: the recoil
    # shift in zeta and the Doppler width must both follow it
    long_k = trap_config(k_g_per_m=1.5 * CONFIG.fields.k_g_per_m)
    cases = (
        (CONFIG, 1.5 * TC, 0.0),
        (CONFIG, 0.8 * TC, 0.0),
        (CONFIG, 0.8 * TC, 3.8e-6),
        (long_k, 1.5 * TC, 0.0),
    )
    for config, t, r in cases:
        resp = chi_trap_local(config, t, r)
        chi_q, dchi_q = chi_trap_point_by_quadrature(config, t, r)
        assert rel(resp.chi, chi_q) < 1e-8
        assert rel(resp.dchi_domega, dchi_q) < 1e-8


def test_chi_trap_local_edges():
    # the gas is gone a meter from the axis
    far = chi_trap_local(CONFIG, 1.5 * TC, 1.0)
    assert far.chi == 0j
    assert far.dchi_domega == 0j
    with pytest.raises(DomainError, match="radial position must be nonnegative"):
        chi_trap_local(CONFIG, 1.5 * TC, -1e-6)
    with pytest.raises(ValueError, match="requires a harmonic-trap geometry"):
        chi_trap_local(box_config(), 1.5 * TC, 0.0)


def test_chi_trap_local_with_overflowing_coupling_is_a_domain_error():
    config = trap_config(omega_coupling_rad_s=1e210)
    with pytest.raises(DomainError, match=r"zeta leaves the floating-point range at T = 1\.5e-07 K"):
        chi_trap_local(config, 1.5e-7, 0.0)


def test_gas_state_far_above_tc_has_no_condensate():
    # theta^3 of a numpy float overflows; no RuntimeWarning may escape
    state = gas_state(CONFIG, np.float64(1e110) * TC)
    assert state.condensate_fraction == 0.0


def test_delay_at_radius():
    t = 2.0 * TC
    d_z = cloud_size(CONFIG, t)
    for r in (0.0, 10e-6):
        full = delay_at_radius(CONFIG, t, r)
        clipped = delay_at_radius(CONFIG, t, r, path_half_length_m=8.0 * d_z)
        assert rel(clipped, full) < 1e-6
    radii = (0.0, 10e-6, 30e-6, 60e-6)
    delays = [delay_at_radius(CONFIG, t, r) for r in radii]
    assert all(a > b for a, b in zip(delays, delays[1:]))
    assert delay_at_radius(CONFIG, t, 1.0) == 0.0
    with pytest.raises(DomainError, match="radial position must be nonnegative"):
        delay_at_radius(CONFIG, t, -1e-6)
    with pytest.raises(DomainError, match="path_half_length_m must be positive"):
        delay_at_radius(CONFIG, t, 0.0, path_half_length_m=-1.0)


def test_mean_delay_matches_quadrature():
    cases = (
        (0.8, CONFIG),
        (1.5, CONFIG),
        (2.0, detuned_config("trap")),
    )
    for theta, config in cases:
        t = theta * tc_trap(config.species, config.geometry)
        result = mean_delay(config, t, PINHOLE, fc_mode="exact")
        oracle = mean_delay_by_quadrature(config, t, PINHOLE.radius_m)
        assert rel(result.mean_delay_s, oracle) < 1e-6


def test_finite_path_mean_delay_matches_quadrature():
    # short paths (50 um to 3 z_th) and covering ones, below and above Tc,
    # fixed and thermal pinholes; the condensate enters pointwise, so fc_mode
    # does not apply
    for theta in (0.6, 1.4):
        t = theta * TC
        z_th = math.sqrt(KB_J_PER_K * t / (SPECIES.mass_kg * TRAP.nu_z_rad_s**2))
        for half_length, mode in ((50e-6, "fixed"), (z_th, "thermal"), (3.0 * z_th, "fixed"), (7.0 * z_th, "thermal")):
            pinhole = PinholeSpec(radius_mode=mode, radius_m=PINHOLE.radius_m if mode == "fixed" else None,
                                  path_half_length_m=half_length)
            radius = PINHOLE.radius_m if mode == "fixed" else thermal_radius(SPECIES, TRAP, t)
            result = mean_delay(CONFIG, t, pinhole)
            oracle = mean_delay_by_quadrature(CONFIG, t, radius, path_half_length_m=half_length)
            assert rel(result.mean_delay_s, oracle) < 1e-6, (theta, half_length / z_th, mode)


def test_mean_delay_thermal_pinhole():
    t = 2.0 * TC
    via_mode = mean_delay(CONFIG, t, PinholeSpec(radius_mode="thermal", radius_m=None))
    radius = thermal_radius(SPECIES, TRAP, t)
    assert via_mode.mean_delay_s == mean_delay(CONFIG, t, fixed_pinhole(radius)).mean_delay_s
    assert rel(via_mode.mean_delay_s, mean_delay_by_quadrature(CONFIG, t, radius)) < 1e-6


def test_mean_delay_scales_as_inverse_temperature():
    # for a pinhole much smaller than the cloud the delay follows 1/T
    radius = math.sqrt(2.0) * thermal_radius(SPECIES, TRAP, 2.0 * TC) / 20.0
    products = [
        theta * mean_delay(CONFIG, theta * TC, fixed_pinhole(radius)).mean_delay_s
        for theta in (2.0, 2.5, 3.0)
    ]
    assert (max(products) - min(products)) / min(products) < 0.05


def test_mean_delay_decreases_with_pinhole_radius():
    t = 2.0 * TC
    delays = [mean_delay(CONFIG, t, fixed_pinhole(r)).mean_delay_s for r in (5e-6, 10e-6, 15e-6, 25e-6)]
    assert all(a > b for a, b in zip(delays, delays[1:]))


def test_delay_and_vg_continuous_at_tc():
    eps = 1e-10
    below = mean_delay(CONFIG, TC * (1.0 - eps), PINHOLE)
    above = mean_delay(CONFIG, TC * (1.0 + eps), PINHOLE)
    assert rel(below.mean_delay_s, above.mean_delay_s) < 1e-8
    assert rel(below.group_velocity_m_s, above.group_velocity_m_s) < 1e-8


def test_delay_result_fields():
    for theta, branch in ((2.0, "above"), (0.5, "below")):
        result = mean_delay(CONFIG, theta * TC, PINHOLE)
        assert result.branch == branch
        assert result.cloud_size_m == cloud_size(CONFIG, theta * TC)
        assert result.group_velocity_m_s == result.cloud_size_m / result.mean_delay_s
        assert result.mean_delay_s > 0.0
        assert result.group_velocity_m_s < C_M_S
    assert vg_trap(CONFIG, 2.0 * TC, PINHOLE) == mean_delay(CONFIG, 2.0 * TC, PINHOLE).group_velocity_m_s


def test_condensate_limit_at_low_temperature():
    # T -> 0: pure condensate in the oscillator ground state, closed-form average
    radius = PINHOLE.radius_m
    with pytest.warns(ValidityWarning, match="semiclassical statistics"):
        result = mean_delay(CONFIG, 1e-9, PINHOLE, fc_mode="exact")
    z = zeta(CONFIG.fields, recoil_frequency(SPECIES, CONFIG.fields))
    a0r = ground_state_size(SPECIES, TRAP.nu_r_rad_s)
    section = (1.0 - math.exp(-((radius / a0r) ** 2))) / (math.pi * radius**2)
    omega = probe_omega(SPECIES)
    analytic = (
        (2.0 * math.pi / C_M_S)
        * chi0(SPECIES)
        * TRAP.atom_count
        * section
        * (omega * (z.d_domega / z.value**2).real - (1.0 / z.value).real)
    )
    assert rel(result.mean_delay_s, analytic) < 1e-8


def test_section_factor_modes():
    # the approximate condensate section factor doubles the exact one for
    # a pinhole much wider than the condensate; without a condensate the
    # modes coincide
    below = 0.5 * TC
    paper = mean_delay(CONFIG, below, PINHOLE, fc_mode="paper")
    exact = mean_delay(CONFIG, below, PINHOLE, fc_mode="exact")
    assert paper.mean_delay_s > exact.mean_delay_s
    above = 2.0 * TC
    assert (
        mean_delay(CONFIG, above, PINHOLE, fc_mode="paper").mean_delay_s
        == mean_delay(CONFIG, above, PINHOLE, fc_mode="exact").mean_delay_s
    )
    with pytest.raises(ValueError, match="fc_mode must be 'paper' or 'exact'"):
        mean_delay(CONFIG, above, PINHOLE, fc_mode="tf")
    with pytest.raises(ValueError, match="fc_mode must be 'paper' or 'exact'"):
        vg_trap(CONFIG, above, PINHOLE, fc_mode="tf")


def test_delay_scales_with_coupling_power():
    # on the transparency point the delay goes as 1/Omega^2
    strong = replace(
        CONFIG, fields=replace(CONFIG.fields, omega_coupling_rad_s=1.2 * SPECIES.gamma_total_rad_s)
    )
    t = 2.0 * TC
    ratio = mean_delay(strong, t, PINHOLE).mean_delay_s / mean_delay(CONFIG, t, PINHOLE).mean_delay_s
    assert rel(ratio, (0.56 / 1.2) ** 2) < 0.1
