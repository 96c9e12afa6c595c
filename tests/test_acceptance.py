"""Acceptance gate: one check per shipped claim, one report line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every report line;
without ``-s`` the lines still surface for any failing criterion.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
from scipy.special import wofz

from slowlight import (
    C_M_S,
    GasResponse,
    coherence_steady_state,
    dipole_moment_sq,
    faddeeva_w,
    gas_state,
    group_velocity_from_response,
    hau_group_velocity,
    ideal_t0_density,
    mean_delay,
    polylog,
    probe_omega,
    tc_box,
    tc_trap,
    tf_geometry,
    tf_t0_density,
    transparency_limit_response,
    ground_state_size,
    PinholeSpec,
)
from slowlight.specfun import SQRT_PI, W_LARGE_Y

from _configs import box_config, detuned_config, fixed_pinhole, temperature_for_doppler_a, trap_config
from _oracles import (
    bloch_steady_oracle,
    chi_box_by_quadrature,
    faddeeva_by_quadrature,
    mean_delay_by_quadrature,
    zeta_constant,
)

BOX = box_config()
TRAP = trap_config()
TC_BOX = tc_box(BOX.species, BOX.geometry.number_density_per_m3)
TC_TRAP = tc_trap(TRAP.species, TRAP.geometry)
PINHOLE = fixed_pinhole(15e-6)


def rel(a, b):
    return abs(a - b) / abs(b)


def _report(number, name, ok, detail):
    print("criterion %s %s: %s (%s)" % (number, "PASS" if ok else "FAIL", name, detail))
    assert ok, "criterion %s: %s (%s)" % (number, name, detail)


def test_criterion_1_trap_condensation_temperature():
    target = 432e-9
    measured = TC_TRAP
    deviation = rel(measured, target)
    _report(1, "trap Tc within 5% of 432 nK", deviation < 0.05,
            "measured %.2f nK, target 432 nK, off by %.1f%%" % (measured * 1e9, 100 * deviation))


def test_criterion_2_box_condensation_temperature():
    target = 154e-9
    measured = TC_BOX
    deviation = rel(measured, target)
    _report(2, "box Tc within 15% of 154 nK", deviation < 0.15,
            "measured %.2f nK, target 154 nK, off by %.1f%%" % (measured * 1e9, 100 * deviation))


def test_criterion_3_condensate_estimates():
    species, trap, fields = TRAP.species, TRAP.geometry, TRAP.fields
    n_atoms = 1e6
    geometry = tf_geometry(species, trap, n_atoms, 2.75e-9)
    omega = probe_omega(species)
    dipole_sq = dipole_moment_sq(species, fields.gamma_ge_rad_s)
    n_ideal = ideal_t0_density(species, trap, n_atoms)
    n_tf = tf_t0_density(n_atoms, geometry)
    checks = (
        ("a0_z", ground_state_size(species, trap.nu_z_rad_s), 4.7e-6, 0.05),
        ("a0_r", ground_state_size(species, trap.nu_r_rad_s), 2.4e-6, 0.05),
        ("n_ideal [cm^-3]", n_ideal * 1e-6, 8e15, 0.10),
        ("r_tf_z", geometry.r_tf_z_m, 47.4e-6, 0.02),
        ("r_tf_r", geometry.r_tf_r_m, 13.6e-6, 0.02),
        ("n_tf [cm^-3]", n_tf * 1e-6, 3e13, 0.15),
        ("vg_ideal", hau_group_velocity(omega, fields.omega_coupling_rad_s, n_ideal, dipole_sq), 0.03, 0.15),
        ("vg_tf", hau_group_velocity(omega, fields.omega_coupling_rad_s, n_tf, dipole_sq), 9.0, 0.15),
    )
    worst_name, worst_margin = None, -1.0
    ok = True
    for name, measured, target, tolerance in checks:
        deviation = rel(measured, target)
        ok = ok and deviation < tolerance
        if deviation / tolerance > worst_margin:
            worst_name, worst_margin = "%s %.4g vs %.4g (%.1f%% of %.0f%%)" % (
                name, measured, target, 100 * deviation, 100 * tolerance), deviation / tolerance
    _report(3, "T=0 ideal vs Thomas-Fermi estimates", ok, "tightest: " + worst_name)


def test_criterion_4_group_velocity_temperature_slope():
    thetas = np.linspace(1.2, 3.0, 7)
    slopes = {}
    for label, pinhole in (("fixed", PINHOLE), ("thermal", PinholeSpec(radius_mode="thermal"))):
        velocities = [mean_delay(TRAP, theta * TC_TRAP, pinhole).group_velocity_m_s for theta in thetas]
        slopes[label] = np.polyfit(np.log(thetas), np.log(velocities), 1)[0]
    ok = all(abs(slope - 1.5) < 0.1 for slope in slopes.values())
    _report(4, "v_g ~ T^1.5 above Tc for both pinholes", ok,
            "slopes fixed %.3f, thermal %.3f, target 1.5 +/- 0.1" % (slopes["fixed"], slopes["thermal"]))


def test_criterion_5a_coherence_vs_bloch():
    rng = np.random.default_rng(7)
    gamma = TRAP.species.gamma_total_rad_s
    probe = 1e-8 * gamma
    worst = 0.0
    for _ in range(100):
        fields = replace(
            TRAP.fields,
            omega_coupling_rad_s=rng.uniform(0.2, 2.0) * gamma,
            detuning_g0_rad_s=rng.uniform(-3.0, 3.0) * gamma / 2.0,
            detuning_r0_rad_s=rng.uniform(-3.0, 3.0) * gamma / 2.0,
        )
        d_g = rng.uniform(-2.0, 2.0) * gamma
        d_r = rng.uniform(-2.0, 2.0) * gamma
        at_draw = replace(fields, detuning_g0_rad_s=d_g, detuning_r0_rad_s=d_r)
        worst = max(worst, rel(coherence_steady_state(at_draw, probe),
                               bloch_steady_oracle(fields, probe, d_g, d_r).rho_eg))
    _report("5a", "linear coherence vs density-matrix oracle, 100 draws", worst < 1e-10,
            "worst relative difference %.3g, tolerance 1e-10" % worst)


def test_criterion_5b_box_series_vs_quadrature():
    worst = 0.0
    for theta in (0.3, 0.5, 0.7, 0.9, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0):
        resp = GasResponse(gas_state(BOX, theta * TC_BOX), BOX.fields)()
        chi_q, dchi_q = chi_box_by_quadrature(BOX, theta * TC_BOX)
        worst = max(worst, rel(resp.chi, chi_q), rel(resp.dchi_domega, dchi_q))
    _report("5b", "box Doppler series vs direct quadrature, 10 temperatures", worst < 1e-8,
            "worst relative difference %.3g, tolerance 1e-8" % worst)


def test_criterion_5c_trap_delay_vs_quadrature():
    detuned = detuned_config("trap")
    cases = ((0.5, detuned), (0.8, TRAP), (1.2, TRAP), (2.0, detuned), (3.0, detuned))
    worst = 0.0
    for theta, config in cases:
        t = theta * tc_trap(config.species, config.geometry)
        result = mean_delay(config, t, PINHOLE, fc_mode="exact")
        oracle = mean_delay_by_quadrature(config, t, PINHOLE.radius_m)
        worst = max(worst, rel(result.mean_delay_s, oracle))
    _report("5c", "trap mean delay vs (r,z,p) quadrature, 5 temperatures", worst < 1e-6,
            "worst relative difference %.3g, tolerance 1e-6" % worst)


def test_criterion_5d_asymptotic_vs_exact():
    config = detuned_config("box")  # |zeta| = 1 exactly
    worst_ratio = 0.0
    for a_param in (0.05, 0.1, 0.18):
        t = temperature_for_doppler_a(config, a_param)
        state = gas_state(config, t)
        difference = rel(GasResponse(state, config.fields, mode="asymptotic")().chi,
                         GasResponse(state, config.fields)().chi)
        worst_ratio = max(worst_ratio, difference / (10.0 * a_param**4))
    _report("5d", "first Doppler correction truncates at order (A/|zeta|)^4", worst_ratio < 1.0,
            "worst difference / bound = %.3g (bound 10 (A/|zeta|)^4)" % worst_ratio)


def test_criterion_6_special_functions():
    polylog_error = max(
        rel(polylog(1.5, 0.0), zeta_constant(1.5)),
        rel(polylog(3.0, 0.0), zeta_constant(3.0)),
        rel(polylog(1.5, 0.0), 2.612375),
        rel(polylog(3.0, 0.0), 1.202057),
    )
    rng = np.random.default_rng(17)
    points = rng.uniform(-8.0, 8.0, 100) + 1j * rng.uniform(0.05, 3.0, 100)
    faddeeva_error = max(rel(faddeeva_w(y), faddeeva_by_quadrature(y)) for y in points)
    radii = (10.0, 12.0, 30.0)
    angles = np.linspace(0.02 * math.pi, 0.98 * math.pi, 25)
    # the two-term large-|y| expansion i/(sqrt(pi) y) (c_0 + c_1/y^2) of the shipped coefficients
    c_0, c_1 = W_LARGE_Y[:2]
    two_term = [r * complex(math.cos(t), math.sin(t)) for r in radii for t in angles]
    asymptotic_error = max(rel((1j / (SQRT_PI * y)) * (c_0 + c_1 / (y * y)), wofz(y)) for y in two_term)
    ok = polylog_error < 5e-7 and faddeeva_error < 1e-10 and asymptotic_error < 1e-4
    _report(6, "polylog and Faddeeva against independent oracles", ok,
            "polylog %.3g (5e-7), faddeeva exact %.3g (1e-10), asymptotic %.3g (1e-4)"
            % (polylog_error, faddeeva_error, asymptotic_error))


def test_criterion_7_transparency_limit_group_velocity():
    density = BOX.geometry.number_density_per_m3
    species, fields = BOX.species, BOX.fields
    omega = probe_omega(species)
    resp = transparency_limit_response(species, fields, density)
    v_library = group_velocity_from_response(resp, omega)
    v_reference = hau_group_velocity(
        omega, fields.omega_coupling_rad_s, density, dipole_moment_sq(species, fields.gamma_ge_rad_s)
    )
    deviation = rel(v_library, v_reference)
    _report(7, "lossless-limit group velocity vs reference formula", deviation < 0.01,
            "v_g %.4g vs %.4g m/s, off by %.3g (tolerance 1%%)" % (v_library, v_reference, deviation))


def test_criterion_8_physical_invariants():
    problems = []
    # continuity across the condensation point
    eps = 1e-10
    below_box = GasResponse(gas_state(BOX, TC_BOX * (1 - eps)), BOX.fields)()
    above_box = GasResponse(gas_state(BOX, TC_BOX * (1 + eps)), BOX.fields)()
    if rel(below_box.chi, above_box.chi) > 1e-8:
        problems.append("box chi jumps at Tc")
    below = mean_delay(TRAP, TC_TRAP * (1 - eps), PINHOLE)
    above = mean_delay(TRAP, TC_TRAP * (1 + eps), PINHOLE)
    if rel(below.mean_delay_s, above.mean_delay_s) > 1e-8:
        problems.append("trap delay jumps at Tc")
    if rel(below.group_velocity_m_s, above.group_velocity_m_s) > 1e-8:
        problems.append("trap v_g jumps at Tc")
    # passivity: positive absorption whenever the dark state dephases
    rng = np.random.default_rng(13)
    gamma = BOX.species.gamma_total_rad_s
    for _ in range(20):
        fields = replace(
            BOX.fields,
            detuning_g0_rad_s=rng.uniform(-2.0, 2.0) * gamma,
            detuning_r0_rad_s=rng.uniform(-2.0, 2.0) * gamma,
        )
        resp = GasResponse(gas_state(BOX, rng.uniform(0.5, 2.5) * TC_BOX), fields)()
        if not resp.chi.imag > 0.0:
            problems.append("Im chi <= 0 at a random detuning")
            break
    # sweeps stay subluminal with positive delays
    omega = probe_omega(BOX.species)
    for theta in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0):
        v_g = group_velocity_from_response(GasResponse(gas_state(BOX, theta * TC_BOX), BOX.fields)(), omega)
        if not 0.0 < v_g < C_M_S:
            problems.append("box v_g outside (0, c) at theta=%g" % theta)
    for theta in (0.5, 0.8, 1.2, 2.0, 3.0):
        result = mean_delay(TRAP, theta * TC_TRAP, PINHOLE)
        if not result.mean_delay_s > 0.0:
            problems.append("trap delay <= 0 at theta=%g" % theta)
        if not result.group_velocity_m_s < C_M_S:
            problems.append("trap v_g >= c at theta=%g" % theta)
    # stronger coupling is faster at every temperature
    strong = replace(TRAP, fields=replace(TRAP.fields, omega_coupling_rad_s=1.2 * gamma))
    for theta in np.linspace(1.2, 3.0, 7):
        faster = mean_delay(strong, theta * TC_TRAP, PINHOLE).group_velocity_m_s
        if not faster > mean_delay(TRAP, theta * TC_TRAP, PINHOLE).group_velocity_m_s:
            problems.append("coupling ordering violated at theta=%g" % theta)
    _report(8, "continuity, passivity, subluminal sweeps, coupling ordering", not problems,
            "no violations" if not problems else "; ".join(problems))
