"""Slow light in an ultracold ideal Bose gas.

EIT susceptibility of a weak probe in a three-level Lambda medium, quantum
statistics of the ideal gas in a box or a harmonic trap, probe delays and
group velocities across the condensation transition, and zero-temperature
ideal-gas vs Thomas-Fermi estimates.
"""

from .box_gas import (
    GasResponse,
    GasState,
    doppler_width_param,
    gas_state,
    tc_box,
    tc_trap,
    thermal_response_series,
    thermal_series_prefactor,
)
from .eit_core import (
    ComplexResponse,
    ZetaValue,
    coherence_steady_state,
    group_velocity_from_response,
    transparency_limit_response,
    zeta,
)
from .errors import (
    ConfigError,
    DomainError,
    PhysicsError,
    PoleError,
    SeriesCapError,
    UnphysicalDispersionError,
    UsageError,
    ValidityWarning,
)
from .specfun import (
    faddeeva_w,
    faddeeva_w_prime,
    fugacity_from_temperature,
    polylog,
)
from .tf_model import (
    TfGeometry,
    hau_group_velocity,
    ideal_t0_density,
    tf_geometry,
    tf_t0_density,
)
from .trap_gas import (
    DelayResult,
    PinholeSpec,
    cloud_size,
    delay_at_radius,
    mean_delay,
    thermal_radius,
    trap_mean_delay,
)
from .units_params import (
    C_M_S,
    HBAR_J_S,
    KB_J_PER_K,
    AtomSpecies,
    Box,
    ExperimentConfig,
    FieldParams,
    HarmonicTrap,
    chi0,
    dipole_moment_sq,
    ground_state_size,
    load_config,
    probe_omega,
    recoil_frequency,
    serialize_config,
)

__version__ = "0.1.0"

__all__ = [
    "AtomSpecies",
    "Box",
    "C_M_S",
    "ComplexResponse",
    "ConfigError",
    "DelayResult",
    "DomainError",
    "ExperimentConfig",
    "FieldParams",
    "GasResponse",
    "GasState",
    "HBAR_J_S",
    "HarmonicTrap",
    "KB_J_PER_K",
    "PhysicsError",
    "PinholeSpec",
    "PoleError",
    "SeriesCapError",
    "TfGeometry",
    "UnphysicalDispersionError",
    "UsageError",
    "ValidityWarning",
    "ZetaValue",
    "chi0",
    "cloud_size",
    "coherence_steady_state",
    "delay_at_radius",
    "dipole_moment_sq",
    "doppler_width_param",
    "faddeeva_w",
    "faddeeva_w_prime",
    "fugacity_from_temperature",
    "gas_state",
    "ground_state_size",
    "group_velocity_from_response",
    "hau_group_velocity",
    "ideal_t0_density",
    "load_config",
    "mean_delay",
    "polylog",
    "probe_omega",
    "recoil_frequency",
    "serialize_config",
    "tc_box",
    "tc_trap",
    "tf_geometry",
    "tf_t0_density",
    "thermal_radius",
    "thermal_response_series",
    "thermal_series_prefactor",
    "transparency_limit_response",
    "trap_mean_delay",
    "zeta",
]
