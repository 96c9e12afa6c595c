"""Zero-temperature condensate estimates: ideal-gas ground state vs the
Thomas-Fermi profile of the interacting gas, and the peak-density group
velocity v_g = hbar c Omega^2 / (8 pi omega n |d|^2) for either density."""

import math
from dataclasses import dataclass

from .errors import DomainError
from .units_params import HBAR_J_S, C_M_S


@dataclass(frozen=True)
class TfGeometry:
    """Thomas-Fermi ellipsoid of an interacting condensate."""

    chemical_potential_j: float
    r_tf_r_m: float
    r_tf_z_m: float
    nu_ho_rad_s: float
    a_ho_m: float
    scattering_length_m: float


def hau_group_velocity(probe_omega_rad_s, omega_coupling_rad_s, density_per_m3, dipole_sq):
    """v_g = hbar c Omega^2 / (8 pi omega n |d_ge|^2) (m/s); an Omega^2 beyond
    the float range is a DomainError."""
    if not density_per_m3 > 0.0:
        raise DomainError("density must be positive, got %r" % density_per_m3)
    if not omega_coupling_rad_s > 0.0:
        raise DomainError("coupling Rabi frequency must be positive, got %r" % omega_coupling_rad_s)
    try:
        rabi_sq = omega_coupling_rad_s**2
    except OverflowError as exc:
        raise DomainError("Omega^2 overflows at Omega = %.3g rad/s" % omega_coupling_rad_s) from exc
    return HBAR_J_S * C_M_S * rabi_sq / (8.0 * math.pi * probe_omega_rad_s * density_per_m3 * dipole_sq)


def _mean_ellipsoid_density(n_atoms, r_radial, r_axial):
    """N over the volume (4 pi / 3) r_radial^2 r_axial."""
    return n_atoms / (4.0 * math.pi * r_radial**2 * r_axial / 3.0)


def _require_in_range(n_atoms, quantity, **values):
    """Raise a DomainError unless every value is positive and finite."""
    if not all(0.0 < value < math.inf for value in values.values()):
        shown = ", ".join("%s = %.3g" % item for item in values.items())
        raise DomainError("%s leaves the floating-point range at N = %.3g (%s)" % (quantity, n_atoms, shown))


def ideal_t0_density(species, trap, n_atoms):
    """Density scale N / (4 pi a_0z a_0r^2 / 3) of the ideal-gas ground state."""
    if not n_atoms > 0:
        raise DomainError("atom count must be positive, got %r" % n_atoms)
    a0_r = math.sqrt(HBAR_J_S / (species.mass_kg * trap.nu_r_rad_s))
    a0_z = math.sqrt(HBAR_J_S / (species.mass_kg * trap.nu_z_rad_s))
    density = _mean_ellipsoid_density(n_atoms, a0_r, a0_z)
    _require_in_range(n_atoms, "the ideal-gas density", n=density)
    return density


def tf_geometry(species, trap, n_atoms, scattering_length_m):
    """Thomas-Fermi scales: nu_ho = (nu_r^2 nu_z)^{1/3},
    a_ho = sqrt(hbar/m nu_ho), mu = (hbar nu_ho/2)(15 N a_s/a_ho)^{2/5},
    R_j = sqrt(2 mu / m nu_j^2)."""
    if not n_atoms > 0:
        raise DomainError("atom count must be positive, got %r" % n_atoms)
    if not scattering_length_m > 0.0:
        raise DomainError("scattering length must be positive, got %r" % scattering_length_m)
    nu_ho = (trap.nu_r_rad_s**2 * trap.nu_z_rad_s) ** (1.0 / 3.0)
    a_ho = math.sqrt(HBAR_J_S / (species.mass_kg * nu_ho))
    mu = 0.5 * HBAR_J_S * nu_ho * (15.0 * n_atoms * scattering_length_m / a_ho) ** 0.4
    r_tf_r = math.sqrt(2.0 * mu / (species.mass_kg * trap.nu_r_rad_s**2))
    r_tf_z = math.sqrt(2.0 * mu / (species.mass_kg * trap.nu_z_rad_s**2))
    _require_in_range(n_atoms, "the Thomas-Fermi scale", mu=mu, R_r=r_tf_r, R_z=r_tf_z)
    return TfGeometry(
        chemical_potential_j=mu,
        r_tf_r_m=r_tf_r,
        r_tf_z_m=r_tf_z,
        nu_ho_rad_s=nu_ho,
        a_ho_m=a_ho,
        scattering_length_m=scattering_length_m,
    )


def tf_t0_density(n_atoms, geometry):
    """Density scale N / (4 pi R_z R_r^2 / 3) of the Thomas-Fermi ellipsoid."""
    if not n_atoms > 0:
        raise DomainError("atom count must be positive, got %r" % n_atoms)
    return _mean_ellipsoid_density(n_atoms, geometry.r_tf_r_m, geometry.r_tf_z_m)
