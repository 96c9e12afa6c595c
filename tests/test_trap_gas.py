"""Harmonic trap: thermodynamics, local response, pinhole-averaged delays."""

import cmath
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
    GasResponse,
    PhysicsError,
    PinholeSpec,
    ValidityWarning,
    chi0,
    cloud_size,
    delay_at_radius,
    gas_state,
    ground_state_size,
    mean_delay,
    probe_omega,
    recoil_frequency,
    tc_trap,
    thermal_radius,
    zeta,
)
from slowlight import trap_gas
from slowlight.cli import main

from _configs import box_config, detuned_config, fixed_pinhole, trap_config
from _oracles import _bose_log, chi_trap_point_by_quadrature, mean_delay_by_quadrature

CONFIG = trap_config()
SPECIES = CONFIG.species
TRAP = CONFIG.geometry
TC = tc_trap(SPECIES, TRAP)
PINHOLE = fixed_pinhole(15e-6)
# the two-level point with a probe wave number 10x the sodium one:
# |zeta/A| = 19.7 at 0.7 Tc and 13.5 at 1.5 Tc, where the (A/zeta)^4 terms of
# the Doppler kernel reach 1e-4 of the delay
SLOW = detuned_config("trap", k_g_per_m=10.0 * CONFIG.fields.k_g_per_m)


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


def test_ground_state_size_where_m_nu_underflows(tmp_path, capsys):
    # m nu = 1.2e-338 is subnormal, but a_0 = sqrt(hbar/m nu) = 9.4e151 m is
    # a normal float, so neither it nor a chi scan of such a trap is refused
    nu = 3.16e-313
    with mpmath.workdps(40):
        exact = mpmath.sqrt(mpmath.mpf(HBAR_J_S) / (mpmath.mpf(SPECIES.mass_kg) * mpmath.mpf(nu)))
    assert rel(ground_state_size(SPECIES, nu), float(exact)) < 1e-15
    path = tmp_path / "flat.cfg"
    path.write_text("geometry.kind = trap\ngeometry.nu_r_hz = 70\ngeometry.nu_z_rad = %r\ngeometry.atom_count = 8.3e6\n" % nu)
    assert main(["chi", "--temperature-nk", "200", "--config", str(path), "--d-points", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 3
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


def test_trap_thermo_above_tc():
    t = 1.5 * TC
    th = gas_state(CONFIG, t)
    assert th.t_c_k == TC
    assert th.temperature_k == t
    assert th.condensate_fraction == 0.0
    # N (theta/Tc scaling): g_3(f) = g_3(1) theta^{-3}
    g3 = float(mpmath.polylog(3, th.fugacity))
    assert rel(g3, float(mpmath.zeta(3)) * 1.5**-3) < 1e-12


def test_trap_thermo_below_tc():
    th = gas_state(CONFIG, 0.5 * TC)
    assert th.fugacity == 1.0
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
    assert rel(cloud_size(gas_state(CONFIG, 0.0)), math.sqrt(2.0) * a0z) < 1e-15
    t = 432e-9
    above = math.sqrt(2.0 * KB_J_PER_K * t / (SPECIES.mass_kg * TRAP.nu_z_rad_s**2))
    assert rel(cloud_size(gas_state(CONFIG, t)), above) < 1e-15
    assert rel(above, 140.7e-6) < 1e-3
    eps = 1e-12
    just_below = cloud_size(gas_state(CONFIG, TC * (1.0 - eps)))
    just_above = cloud_size(gas_state(CONFIG, TC * (1.0 + eps)))
    assert rel(just_below, just_above) < 1e-10
    sizes = [cloud_size(gas_state(CONFIG, theta * TC)) for theta in (0.0, 0.3, 0.7, 1.0, 1.5, 2.0)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    with pytest.raises(DomainError):
        cloud_size(gas_state(CONFIG, -1e-9))
    with pytest.raises(ValueError, match="requires a harmonic-trap geometry"):
        cloud_size(gas_state(box_config(), 1e-7))


def test_pinhole_validation():
    with pytest.raises(ValueError, match="radius_mode must be 'fixed' or 'thermal'"):
        PinholeSpec(radius_mode="square", radius_m=1e-5)
    with pytest.raises(DomainError, match="fixed pinhole requires radius_m > 0"):
        PinholeSpec(radius_mode="fixed", radius_m=0.0)
    # a thermal pinhole's radius comes from T, so a given radius would change nothing
    with pytest.raises(ValueError, match=r"thermal pinhole takes its radius from T, got radius_m = 1e-05"):
        PinholeSpec(radius_mode="thermal", radius_m=1e-5)
    with pytest.raises(DomainError, match="path_half_length_m must be positive"):
        PinholeSpec(radius_mode="fixed", radius_m=1e-5, path_half_length_m=0.0)
    with pytest.raises(DomainError, match="thermal pinhole radius undefined"):
        mean_delay(CONFIG, 0.0, PinholeSpec(radius_mode="thermal", radius_m=None))
    # g(f) - g(f e^{-c}) loses its digits as R -> 0; a metre-wide section
    # averages the delay down until D_z/<Delta t> exceeds c, on either path
    for half_length in (math.inf, 1e-4):
        for radius, reason in ((1e-11, "too small"), (1e-13, "too small"), (1.0, "v_g is not below c")):
            pinhole = PinholeSpec(radius_mode="fixed", radius_m=radius, path_half_length_m=half_length)
            with pytest.raises(DomainError, match="pinhole radius R = %g m at T = .* K .*%s" % (radius, reason)):
                mean_delay(CONFIG, 1.5 * TC, pinhole)


def test_oracle_bose_log_keeps_its_digits_at_small_fugacity():
    # -ln(1 - u e^{-t^2}) against 40-digit mpmath; written as
    # -ln((1-u) + u(1-e^{-t^2})) alone it loses about 1e-16/(u e^{-t^2}) of
    # itself: 5e-4 at u = 1e-9 and 0.1 at u = 1e-12 on these nodes
    t = np.array([1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.8, 1.0, 2.0, 3.0])
    for u in (1e-200, 1e-12, 1e-9, 1e-3, 0.3, 0.5, 0.7, 0.99, 1.0):
        for tv, value in zip(t, _bose_log(u, t)):
            with mpmath.workdps(40):
                exact = float(-mpmath.log1p(-mpmath.mpf(u) * mpmath.exp(-mpmath.mpf(tv) ** 2)))
            assert rel(value, exact) < 1e-15, (u, tv)


def test_chi_trap_local_matches_point_quadrature():
    # long_k moves the probe wave number off 2 pi/lambda: the recoil shift in
    # zeta and the Doppler width must both follow it; at 1000 Tc the fugacity
    # is 1.2e-9
    long_k = trap_config(k_g_per_m=1.5 * CONFIG.fields.k_g_per_m)
    cases = (
        (CONFIG, 1.5 * TC, 0.0),
        (CONFIG, 1000.0 * TC, 0.0),
        (CONFIG, 0.8 * TC, 0.0),
        (CONFIG, 0.8 * TC, 3.8e-6),
        (long_k, 1.5 * TC, 0.0),
        (SLOW, 0.7 * TC, 0.0),
        (SLOW, 1.5 * TC, 0.0),
    )
    for config, t, r in cases:
        resp = GasResponse(gas_state(config, t), config.fields, r)()
        chi_q, dchi_q = chi_trap_point_by_quadrature(config, t, r)
        assert rel(resp.chi, chi_q) < 1e-8
        assert rel(resp.dchi_domega, dchi_q) < 1e-8


def test_chi_trap_local_edges():
    # the gas is gone a meter from the axis
    state = gas_state(CONFIG, 1.5 * TC)
    far = GasResponse(state, CONFIG.fields, 1.0)()
    assert far.chi == 0j
    assert far.dchi_domega == 0j
    # the evaluator itself refuses a negative or nan radius, which would
    # otherwise give chi = 0 or a polylog domain error
    for r in (-1e-6, -1.0, math.nan):
        with pytest.raises(DomainError, match="radial position must be nonnegative"):
            GasResponse(state, CONFIG.fields, r)
    # r^2 overflows a float beyond about 1e154 m: a typed error, not an OverflowError
    for call in (
        lambda: GasResponse(state, CONFIG.fields, 1e200)(),
        lambda: delay_at_radius(state, CONFIG.fields, 1e200),
    ):
        with pytest.raises(DomainError, match=r"local density at r = 1e\+200 m leaves the floating"):
            call()
    # the trap's delays refuse a box evaluator
    box = box_config()
    in_box = GasResponse(gas_state(box, 1.5 * TC), box.fields)
    with pytest.raises(ValueError, match="requires a harmonic-trap geometry"):
        trap_gas.trap_mean_delay(in_box, in_box.zeta_at(), PINHOLE)
    with pytest.raises(ValueError, match="requires a harmonic-trap geometry"):
        delay_at_radius(in_box.state, box.fields, 0.0)


def test_chi_trap_local_with_overflowing_coupling_is_a_domain_error():
    config = trap_config(omega_coupling_rad_s=1e210)
    with pytest.raises(DomainError, match=r"zeta leaves the floating-point range at T = 1\.5e-07 K"):
        GasResponse(gas_state(config, 1.5e-7), config.fields, 0.0)()


def test_gas_state_far_above_tc_has_no_condensate():
    # theta^3 of a numpy float overflows; no RuntimeWarning may escape
    state = gas_state(CONFIG, np.float64(1e110) * TC)
    assert state.condensate_fraction == 0.0


def test_delay_at_radius():
    state = gas_state(CONFIG, 2.0 * TC)
    fields = CONFIG.fields
    radii = (0.0, 10e-6, 30e-6, 60e-6)
    delays = [delay_at_radius(state, fields, r) for r in radii]
    assert all(a > b for a, b in zip(delays, delays[1:]))
    assert delay_at_radius(state, fields, 1.0) == 0.0
    with pytest.raises(DomainError, match="radial position must be nonnegative"):
        delay_at_radius(state, fields, -1e-6)


def test_covering_finite_path_mean_delay_is_the_infinite_one():
    # 8 D_z is 11 z_th, past the 9 z_th where the z panels close; just above
    # Tc the branch point of g_nu at z = i z_th sqrt(2 alpha) nears the axis,
    # and the panels are refined toward it (measured worst 2.9e-13)
    for theta in (2.0, 1.0 + 1e-6):
        t = theta * TC
        half_length = 8.0 * cloud_size(gas_state(CONFIG, t))
        for radius in (3e-6, 15e-6):
            infinite = mean_delay(CONFIG, t, fixed_pinhole(radius)).mean_delay_s
            covering = PinholeSpec(radius_mode="fixed", radius_m=radius, path_half_length_m=half_length)
            assert rel(mean_delay(CONFIG, t, covering).mean_delay_s, infinite) < 1e-10, (theta, radius)


@pytest.mark.parametrize("temperature", [5e-324, 1e-310, 1e-300, 1e300])
def test_extreme_temperatures_give_finite_values_or_physics_errors(temperature):
    # at the tiny temperatures beta = 1/(K_B T) leaves the float range, and
    # every error says so; at 1e300 K the Doppler kernel is nan
    finite_path = PinholeSpec(radius_mode="fixed", radius_m=15e-6, path_half_length_m=1e-3)
    pinholes = (PINHOLE, PinholeSpec(radius_mode="thermal"), finite_path)
    fields = CONFIG.fields
    calls = [
        lambda: GasResponse(gas_state(CONFIG, temperature), fields, 0.0)(),
        lambda: delay_at_radius(gas_state(CONFIG, temperature), fields, 0.0),
        lambda: cloud_size(gas_state(CONFIG, temperature)),
        lambda: thermal_radius(SPECIES, TRAP, temperature),
    ]
    for pinhole in pinholes:
        calls.append(lambda pinhole=pinhole: mean_delay(CONFIG, temperature, pinhole))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for call in calls:
            try:
                result = call()
            except PhysicsError as exc:
                assert temperature > 1.0 or "leaves the floating-point range" in str(exc), exc
                continue
            if isinstance(result, trap_gas.DelayResult):
                result = (result.mean_delay_s, result.cloud_size_m, result.group_velocity_m_s)
            elif isinstance(result, float):
                result = (result,)
            else:
                result = (result.chi, result.dchi_domega)
            assert all(cmath.isfinite(value) for value in result), result


def test_mean_delay_matches_quadrature():
    cases = (
        (0.8, CONFIG),
        (1.5, CONFIG),
        (2.0, detuned_config("trap")),
        (0.7, SLOW),
        (1.5, SLOW),
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
    # and where the kernel's (A/zeta)^4 terms matter, |zeta/A| = 19.7 and 13.5
    for theta in (0.7, 1.5):
        t = theta * TC
        half_length = 3.0 * math.sqrt(KB_J_PER_K * t / (SPECIES.mass_kg * TRAP.nu_z_rad_s**2))
        result = mean_delay(SLOW, t, PinholeSpec(radius_mode="fixed", radius_m=PINHOLE.radius_m,
                                                 path_half_length_m=half_length))
        oracle = mean_delay_by_quadrature(SLOW, t, PINHOLE.radius_m, path_half_length_m=half_length)
        assert rel(result.mean_delay_s, oracle) < 1e-6, theta
    # and just below and above Tc, where the branch point of g_nu at
    # z = i z_th sqrt(2 alpha) nears the axis, to 1e-10
    for theta in (0.999, 1.001):
        t = theta * TC
        z_th = math.sqrt(KB_J_PER_K * t / (SPECIES.mass_kg * TRAP.nu_z_rad_s**2))
        for half_length in (0.3 * z_th, 3.0 * z_th):
            for radius in (3e-6, 15e-6):
                result = mean_delay(CONFIG, t, PinholeSpec(radius_mode="fixed", radius_m=radius,
                                                           path_half_length_m=half_length))
                oracle = mean_delay_by_quadrature(CONFIG, t, radius, path_half_length_m=half_length)
                assert rel(result.mean_delay_s, oracle) < 1e-10, (theta, half_length / z_th, radius)


def test_finite_path_keeps_the_exact_head_at_small_zeta_over_a():
    # at |zeta/A| = 4.5 and 2.25 the kernel's large-|y| tail alone would be
    # 0.79% and 11% off; both paths sum the exact Faddeeva head first
    t = 1.5 * TC
    finite = PinholeSpec(radius_mode="fixed", radius_m=PINHOLE.radius_m, path_half_length_m=1e-3)
    for scale in (30.0, 60.0):
        config = detuned_config("trap", k_g_per_m=scale * CONFIG.fields.k_g_per_m)
        oracle = mean_delay_by_quadrature(config, t, PINHOLE.radius_m, path_half_length_m=1e-3)
        assert rel(mean_delay(config, t, finite).mean_delay_s, oracle) < 1e-6, scale
        assert rel(mean_delay(config, t, PINHOLE).mean_delay_s, mean_delay_by_quadrature(config, t, PINHOLE.radius_m)) < 1e-6
        # L = 1 mm is 8.3 z_th, beyond which the cut density is e^-34
        assert rel(mean_delay(config, t, finite).mean_delay_s, mean_delay(config, t, PINHOLE).mean_delay_s) < 1e-12, scale


def test_expansion_only_paths_refuse_small_zeta_over_a():
    # the head-free two-term expansion refuses |zeta/A| < 5 in both the local
    # response and the delays
    t = 1.5 * TC
    finite = PinholeSpec(radius_mode="fixed", radius_m=PINHOLE.radius_m, path_half_length_m=1e-3)
    config = detuned_config("trap", k_g_per_m=60.0 * CONFIG.fields.k_g_per_m)
    state = gas_state(config, t)
    # the delays take their mode from the evaluator
    asymptotic = GasResponse(state, config.fields, mode="asymptotic")
    zv = asymptotic.zeta_at(config.fields.detuning_g0_rad_s)
    for call in (
        asymptotic,
        lambda: trap_gas.trap_mean_delay(asymptotic, zv, PINHOLE),
        lambda: trap_gas.trap_mean_delay(asymptotic, zv, finite),
    ):
        with pytest.raises(DomainError, match=r"asymptotic expansion requires \|zeta/A\| >= 5, got \|zeta/A\| = 2.25"):
            call()
    with pytest.raises(ValueError, match="mode must be 'exact' or 'asymptotic'"):
        GasResponse(state, config.fields, mode="series")


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
    for theta in (2.0, 0.5):
        result = mean_delay(CONFIG, theta * TC, PINHOLE)
        assert result.cloud_size_m == cloud_size(gas_state(CONFIG, theta * TC))
        assert result.group_velocity_m_s == result.cloud_size_m / result.mean_delay_s
        assert result.mean_delay_s > 0.0
        assert result.group_velocity_m_s < C_M_S


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


def test_delay_scales_with_coupling_power():
    # on the transparency point the delay goes as 1/Omega^2
    strong = replace(
        CONFIG, fields=replace(CONFIG.fields, omega_coupling_rad_s=1.2 * SPECIES.gamma_total_rad_s)
    )
    t = 2.0 * TC
    ratio = mean_delay(strong, t, PINHOLE).mean_delay_s / mean_delay(CONFIG, t, PINHOLE).mean_delay_s
    assert rel(ratio, (0.56 / 1.2) ** 2) < 0.1
