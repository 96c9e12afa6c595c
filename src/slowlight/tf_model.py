"""Zero-temperature condensate estimates: ideal-gas ground state vs the
Thomas-Fermi profile of the interacting gas, and the peak-density group
velocity v_g = hbar c Omega^2 / (8 pi omega n |d|^2) for either density."""

import math
from dataclasses import dataclass

from .errors import DomainError, float_range_error, in_float_range
from .units_params import HBAR_J_S, C_M_S, ground_state_size, mean_trap_frequency


@dataclass(frozen=True)
class TfGeometry:
    """Thomas-Fermi ellipsoid of an interacting condensate."""

    chemical_potential_j: float
    r_tf_r_m: float
    r_tf_z_m: float


def hau_group_velocity(probe_omega_rad_s, omega_coupling_rad_s, density_per_m3, dipole_sq):
    """v_g = hbar c Omega^2 / (8 pi omega n |d_ge|^2) (m/s); an Omega^2 or a
    denominator beyond the float range is a DomainError."""
    if not density_per_m3 > 0.0:
        raise DomainError("density must be positive, got %r" % density_per_m3)
    if not omega_coupling_rad_s > 0.0:
        raise DomainError("coupling Rabi frequency must be positive, got %r" % omega_coupling_rad_s)
    try:
        rabi_sq = omega_coupling_rad_s**2
    except OverflowError as exc:
        raise DomainError("Omega^2 overflows at Omega = %.3g rad/s" % omega_coupling_rad_s) from exc
    denominator = 8.0 * math.pi * probe_omega_rad_s * density_per_m3 * dipole_sq
    in_float_range(denominator, "8 pi omega n |d|^2", "n = %.3g m^-3, |d|^2 = %.3g", density_per_m3, dipole_sq)
    return HBAR_J_S * C_M_S * rabi_sq / denominator


def _mean_ellipsoid_density(quantity, n_atoms, r_radial, r_axial):
    """The density quantity, N over the volume (4 pi / 3) r_radial^2 r_axial, in the float range."""
    try:
        density = n_atoms / (4.0 * math.pi * r_radial**2 * r_axial / 3.0)
    except ArithmeticError as exc:  # the volume overflows or underflows to 0
        raise float_range_error(quantity, "N = %.3g" % n_atoms, exc) from exc
    return in_float_range(density, quantity, "N = %.3g (n = %.3g)", n_atoms, density)


def ideal_t0_density(species, trap, n_atoms):
    """Density scale N / (4 pi a_0z a_0r^2 / 3) of the ideal-gas ground state."""
    if not n_atoms > 0:
        raise DomainError("atom count must be positive, got %r" % n_atoms)
    a0_r = ground_state_size(species, trap.nu_r_rad_s)
    a0_z = ground_state_size(species, trap.nu_z_rad_s)
    return _mean_ellipsoid_density("the ideal-gas density", n_atoms, a0_r, a0_z)


def tf_geometry(species, trap, n_atoms, scattering_length_m):
    """Thomas-Fermi scales of the mean trap frequency nu_bar = (nu_z nu_r^2)^{1/3}:
    a_ho = sqrt(hbar/m nu_bar), mu = (hbar nu_bar/2)(15 N a_s/a_ho)^{2/5},
    R_j = sqrt(2 mu / m nu_j^2)."""
    if not n_atoms > 0:
        raise DomainError("atom count must be positive, got %r" % n_atoms)
    if not scattering_length_m > 0.0:
        raise DomainError("scattering length must be positive, got %r" % scattering_length_m)
    nu_bar = mean_trap_frequency(trap)
    a_ho = ground_state_size(species, nu_bar)
    mu = 0.5 * HBAR_J_S * nu_bar * (15.0 * n_atoms * scattering_length_m / a_ho) ** 0.4
    quantity = "the Thomas-Fermi scale"
    try:
        r_tf_r = math.sqrt(2.0 * mu / (species.mass_kg * trap.nu_r_rad_s**2))
        r_tf_z = math.sqrt(2.0 * mu / (species.mass_kg * trap.nu_z_rad_s**2))
    except ArithmeticError as exc:  # nu^2 overflows or m nu^2 underflows to 0
        raise float_range_error(quantity, "N = %.3g" % n_atoms, exc) from exc
    for value in (mu, r_tf_r, r_tf_z):
        in_float_range(value, quantity, "N = %.3g (mu = %.3g, R_r = %.3g, R_z = %.3g)", n_atoms, mu, r_tf_r, r_tf_z)
    return TfGeometry(chemical_potential_j=mu, r_tf_r_m=r_tf_r, r_tf_z_m=r_tf_z)


def tf_t0_density(n_atoms, geometry):
    """Density scale N / (4 pi R_z R_r^2 / 3) of the Thomas-Fermi ellipsoid."""
    if not n_atoms > 0:
        raise DomainError("atom count must be positive, got %r" % n_atoms)
    return _mean_ellipsoid_density("the Thomas-Fermi density", n_atoms, geometry.r_tf_r_m, geometry.r_tf_z_m)
