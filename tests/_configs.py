"""Shared experiment configurations for the test suite.

All tests run on the reference sodium parameters carried by the built-in
config document; helpers here build variants (box/trap geometry, field
overrides, the detuned two-level reference point) without going through
the CLI.
"""

from dataclasses import replace

from slowlight import KB_J_PER_K, PinholeSpec, load_config, recoil_frequency

DOC = """\
geometry.kind = trap
geometry.nu_r_hz = 70.0
geometry.nu_z_hz = 20.0
geometry.atom_count = 8.3e6
geometry.number_density_per_m3 = 3.8e18
"""


def box_config(**field_overrides):
    config = load_config(DOC, geometry_kind="box")
    if field_overrides:
        config = replace(config, fields=replace(config.fields, **field_overrides))
    return config


def trap_config(**field_overrides):
    config = load_config(DOC, geometry_kind="trap")
    if field_overrides:
        config = replace(config, fields=replace(config.fields, **field_overrides))
    return config


def detuned_config(kind="box", **field_overrides):
    """Two-level reference point: coupling off, probe on the recoil-shifted line.

    zeta is exactly i there, so Doppler averaging is exercised at |zeta| = 1
    instead of the huge |zeta| of the EIT operating point.  The recoil shift
    follows the probe wave number of the overridden fields.
    """
    build = box_config if kind == "box" else trap_config
    config = build(omega_coupling_rad_s=0.0, **field_overrides)
    recoil = recoil_frequency(config.species, config.fields)
    return replace(config, fields=replace(config.fields, detuning_g0_rad_s=-recoil))


def temperature_for_doppler_a(config, a_target):
    """Invert A = sqrt(2 K_B T / m) k_g / Gamma_ge for the temperature."""
    speed = a_target * config.fields.gamma_ge_rad_s / config.fields.k_g_per_m
    return speed * speed * config.species.mass_kg / (2.0 * KB_J_PER_K)


def fixed_pinhole(radius_m=15e-6):
    return PinholeSpec(radius_mode="fixed", radius_m=radius_m)
