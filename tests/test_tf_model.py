"""Zero-temperature condensate geometry: ideal oscillator vs Thomas-Fermi."""

import math
from dataclasses import replace

import pytest

from slowlight import (
    C_M_S,
    HBAR_J_S,
    DomainError,
    chi0,
    dipole_moment_sq,
    ground_state_size,
    hau_group_velocity,
    ideal_t0_density,
    probe_omega,
    tf_geometry,
    tf_t0_density,
)

from _configs import trap_config

CONFIG = trap_config()
SPECIES = CONFIG.species
TRAP = CONFIG.geometry
N_ATOMS = 1e6
SCATTERING_LENGTH_M = 2.75e-9


def rel(a, b):
    return abs(a - b) / abs(b)


def test_ideal_t0_density_formula():
    a0_r = ground_state_size(SPECIES, TRAP.nu_r_rad_s)
    a0_z = ground_state_size(SPECIES, TRAP.nu_z_rad_s)
    expected = N_ATOMS / (4.0 * math.pi / 3.0 * a0_r**2 * a0_z)
    assert rel(ideal_t0_density(SPECIES, TRAP, N_ATOMS), expected) < 1e-14
    # mean density scales linearly with atom number at fixed trap
    assert rel(ideal_t0_density(SPECIES, TRAP, 2.0 * N_ATOMS), 2.0 * expected) < 1e-14
    with pytest.raises(DomainError, match="atom count must be positive"):
        ideal_t0_density(SPECIES, TRAP, 0.0)


def test_tf_geometry_formulas():
    geom = tf_geometry(SPECIES, TRAP, N_ATOMS, SCATTERING_LENGTH_M)
    nu_ho = (TRAP.nu_r_rad_s**2 * TRAP.nu_z_rad_s) ** (1.0 / 3.0)
    a_ho = math.sqrt(HBAR_J_S / (SPECIES.mass_kg * nu_ho))
    mu = 0.5 * HBAR_J_S * nu_ho * (15.0 * N_ATOMS * SCATTERING_LENGTH_M / a_ho) ** 0.4
    assert rel(geom.chemical_potential_j, mu) < 1e-14
    for r_tf, nu in ((geom.r_tf_r_m, TRAP.nu_r_rad_s), (geom.r_tf_z_m, TRAP.nu_z_rad_s)):
        assert rel(r_tf, math.sqrt(2.0 * mu / (SPECIES.mass_kg * nu**2))) < 1e-14
    # tighter radial confinement -> smaller radial extent
    assert geom.r_tf_r_m < geom.r_tf_z_m


def test_tf_scaling_with_interactions():
    # mu ~ (N a_s)^{2/5}, so a_s -> 32 a_s multiplies mu by 4 and R_TF by 2
    base = tf_geometry(SPECIES, TRAP, N_ATOMS, SCATTERING_LENGTH_M)
    wide = tf_geometry(SPECIES, TRAP, N_ATOMS, 32.0 * SCATTERING_LENGTH_M)
    assert rel(wide.chemical_potential_j, 4.0 * base.chemical_potential_j) < 1e-12
    assert rel(wide.r_tf_r_m, 2.0 * base.r_tf_r_m) < 1e-12
    assert rel(wide.r_tf_z_m, 2.0 * base.r_tf_z_m) < 1e-12
    # the same factor through N at fixed a_s
    many = tf_geometry(SPECIES, TRAP, 32.0 * N_ATOMS, SCATTERING_LENGTH_M)
    assert rel(many.chemical_potential_j, 4.0 * base.chemical_potential_j) < 1e-12


def test_tf_t0_density():
    geom = tf_geometry(SPECIES, TRAP, N_ATOMS, SCATTERING_LENGTH_M)
    expected = N_ATOMS / (4.0 * math.pi / 3.0 * geom.r_tf_r_m**2 * geom.r_tf_z_m)
    assert rel(tf_t0_density(N_ATOMS, geom), expected) < 1e-14
    # repulsion spreads the cloud: far more dilute than the ideal ground state
    assert tf_t0_density(N_ATOMS, geom) < 0.01 * ideal_t0_density(SPECIES, TRAP, N_ATOMS)
    with pytest.raises(DomainError, match="atom count must be positive"):
        tf_t0_density(-1.0, geom)


def test_tf_geometry_validation():
    with pytest.raises(DomainError, match="atom count must be positive"):
        tf_geometry(SPECIES, TRAP, 0.0, SCATTERING_LENGTH_M)
    with pytest.raises(DomainError, match="scattering length must be positive"):
        tf_geometry(SPECIES, TRAP, N_ATOMS, 0.0)


def test_hau_group_velocity():
    omega = probe_omega(SPECIES)
    coupling = CONFIG.fields.omega_coupling_rad_s
    dsq = dipole_moment_sq(SPECIES, CONFIG.fields.gamma_ge_rad_s)
    n = 1e20
    v = hau_group_velocity(omega, coupling, n, dsq)
    assert rel(v, HBAR_J_S * C_M_S * coupling**2 / (8.0 * math.pi * omega * n * dsq)) < 1e-14
    # v_g ~ Omega^2 / n
    assert rel(hau_group_velocity(omega, 2.0 * coupling, n, dsq), 4.0 * v) < 1e-14
    assert rel(hau_group_velocity(omega, coupling, 2.0 * n, dsq), 0.5 * v) < 1e-14
    with pytest.raises(DomainError, match="density must be positive"):
        hau_group_velocity(omega, coupling, 0.0, dsq)
    with pytest.raises(DomainError, match="coupling Rabi frequency must be positive"):
        hau_group_velocity(omega, 0.0, n, dsq)


def test_dilution_slows_light_less():
    # at equal coupling the dilute Thomas-Fermi cloud carries a much faster
    # group velocity than the dense ideal-gas ground state would
    omega = probe_omega(SPECIES)
    coupling = CONFIG.fields.omega_coupling_rad_s
    dsq = dipole_moment_sq(SPECIES, CONFIG.fields.gamma_ge_rad_s)
    geom = tf_geometry(SPECIES, TRAP, N_ATOMS, SCATTERING_LENGTH_M)
    v_ideal = hau_group_velocity(omega, coupling, ideal_t0_density(SPECIES, TRAP, N_ATOMS), dsq)
    v_tf = hau_group_velocity(omega, coupling, tf_t0_density(N_ATOMS, geom), dsq)
    assert v_tf > 100.0 * v_ideal
