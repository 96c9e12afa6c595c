"""Physical constants, experiment parameters and derived one-atom quantities.

Single source of truth for unit conventions.  Mechanics is SI throughout
(kg, m, s, J, K; all rates and frequencies in rad/s).  The susceptibility
chi is the Gaussian-convention dimensionless response (4*pi in the wave
equation, 2*pi in the group-velocity denominator), so n*chi0 is the
dimensionless expansion parameter of the medium.

Every dimensionful dataclass field carries its unit in the field name
(``mass_kg``, ``gamma_total_rad_s``, ``k_g_per_m``, ...).

Configuration documents are flat UTF-8 ``key = value`` files with dotted
keys and ``#`` comments.  Frequencies are accepted with either a ``_rad``
suffix (rad/s, stored as given) or a ``_hz`` suffix (multiplied by 2*pi on
load); everything else is plain SI.  Unknown keys are rejected.
"""

import math
from dataclasses import dataclass
import warnings

from .errors import ConfigError, ValidityWarning

# CODATA-2018 exact/defined values
HBAR_J_S = 1.0545718176461565e-34
KB_J_PER_K = 1.380649e-23
C_M_S = 2.99792458e8

TWO_PI = 2.0 * math.pi

# Default experiment: sodium D-line parameters of a slow-light measurement.
SODIUM_MASS_KG = 3.818e-26
SODIUM_WAVELENGTH_M = 589e-9
SODIUM_GAMMA_RAD_S = TWO_PI * 9.79e6

DEFAULT_GAMMA_GR_RAD_S = TWO_PI * 1000.0
DEFAULT_OMEGA_COUPLING_GAMMA = 0.56


@dataclass(frozen=True)
class AtomSpecies:
    """Atomic constants of the g-e optical transition.

    gamma_total is the radiative decay rate gamma of |e>.  It sets the field
    defaults (Gamma_ge = gamma/2, Omega = 0.56 gamma) and the unit of the
    CLI's detunings and couplings; how |e> branches to |g> and |r> does not
    enter the weak-probe response, so it is not configured.
    """

    mass_kg: float
    wavelength_ge_m: float
    gamma_total_rad_s: float

    def __post_init__(self):
        if not self.mass_kg > 0:
            raise ConfigError("species.mass_kg must be positive")
        if not self.wavelength_ge_m > 0:
            raise ConfigError("species.wavelength_ge_m must be positive")
        if not self.gamma_total_rad_s > 0:
            raise ConfigError("species.gamma_total_rad must be positive")


@dataclass(frozen=True)
class FieldParams:
    """Coupling field, detunings, probe wave number and coherence decay rates.

    omega_coupling is the Rabi frequency of the |r> -> |e> coupling beam;
    detuning_g0/detuning_r0 are the bare laser detunings Delta_j^0
    (omega_e - omega_j - omega_laser_j); gamma_ge/gamma_gr are the coherence
    loss rates of the probe and two-photon coherences (defaults:
    Gamma_ge = gamma/2, Gamma_gr limited by ground-state decoherence only).
    To first order in the probe no other rate of the Bloch equations enters
    the response, so none is configured.
    """

    omega_coupling_rad_s: float
    detuning_g0_rad_s: float
    detuning_r0_rad_s: float
    gamma_ge_rad_s: float
    gamma_gr_rad_s: float
    k_g_per_m: float

    def __post_init__(self):
        if not self.gamma_ge_rad_s > 0:
            raise ConfigError("fields.gamma_ge_rad must be positive")
        if not self.gamma_gr_rad_s >= 0.0:
            raise ConfigError("fields.gamma_gr_rad must be nonnegative")
        if not self.omega_coupling_rad_s >= 0.0:
            raise ConfigError("fields.omega_coupling_rad must be nonnegative")
        if not self.k_g_per_m > 0:
            raise ConfigError("fields.k_g_per_m must be positive")


@dataclass(frozen=True)
class Box:
    """Homogeneous gas in a box: only the number density matters."""

    number_density_per_m3: float

    def __post_init__(self):
        if not self.number_density_per_m3 > 0:
            raise ConfigError("geometry.number_density_per_m3 must be positive")


@dataclass(frozen=True)
class HarmonicTrap:
    """Cylindrically symmetric harmonic trap (radial nu_r, axial nu_z)."""

    nu_r_rad_s: float
    nu_z_rad_s: float
    atom_count: float

    def __post_init__(self):
        if not self.nu_r_rad_s > 0:
            raise ConfigError("geometry.nu_r_rad must be positive")
        if not self.nu_z_rad_s > 0:
            raise ConfigError("geometry.nu_z_rad must be positive")
        if not self.atom_count >= 1:
            raise ConfigError("geometry.atom_count must be at least 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description (immutable, thread-safe)."""

    species: AtomSpecies
    fields: FieldParams
    geometry: object  # Box or HarmonicTrap

    @property
    def geometry_kind(self):
        return "box" if isinstance(self.geometry, Box) else "trap"


def recoil_frequency(species, fields):
    """Recoil frequency omega_R = hbar k_g^2 / 2m (rad/s) of the probe wave number."""
    return HBAR_J_S * fields.k_g_per_m**2 / (2.0 * species.mass_kg)


def chi0(species):
    """One-atom susceptibility chi0 = 3 lambda^3 / 32 pi^3 (m^3)."""
    return 3.0 * species.wavelength_ge_m**3 / (32.0 * math.pi**3)


def probe_omega(species):
    """Angular frequency of the probe transition, omega = 2 pi c / lambda (rad/s)."""
    return TWO_PI * C_M_S / species.wavelength_ge_m


def dipole_moment_sq(species, gamma_ge_rad_s):
    """|d_ge|^2 derived from the one-atom susceptibility: hbar * Gamma_ge * chi0."""
    return HBAR_J_S * gamma_ge_rad_s * chi0(species)


# --------------------------------------------------------------------------
# configuration documents
# --------------------------------------------------------------------------

# schema: canonical key -> kind
#   "freq"  : accepted as <base>_rad or <base>_hz
#   "float" : plain SI number
_SPECIES_KEYS = {
    "species.mass_kg": "float",
    "species.wavelength_ge_m": "float",
    "species.gamma_total": "freq",
}
_FIELDS_KEYS = {
    "fields.omega_coupling": "freq",
    "fields.omega_coupling_gamma": "float",
    "fields.detuning_g0": "freq",
    "fields.detuning_r0": "freq",
    "fields.gamma_ge": "freq",
    "fields.gamma_gr": "freq",
    "fields.k_g_per_m": "float",
}
_GEOMETRY_KEYS = {
    "geometry.kind": "str",
    "geometry.number_density_per_m3": "float",
    "geometry.nu_r": "freq",
    "geometry.nu_z": "freq",
    "geometry.atom_count": "float",
}
_SCHEMA = {}
_SCHEMA.update(_SPECIES_KEYS)
_SCHEMA.update(_FIELDS_KEYS)
_SCHEMA.update(_GEOMETRY_KEYS)


def _parse_document(text):
    """Parse ``key = value`` lines into a {key: string} dict."""
    values = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, raw_line.strip()))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, raw_line.strip()))
        if key in values:
            raise ConfigError("line %d: duplicate key %s" % (lineno, key))
        values[key] = value
    return values


def _canonical_key(key):
    """Map a document key to (canonical schema key, rad/s multiplier)."""
    if key in _SCHEMA and _SCHEMA[key] != "freq":
        return key, 1.0
    if key.endswith("_rad"):
        base = key[: -len("_rad")]
        if _SCHEMA.get(base) == "freq":
            return base, 1.0
    if key.endswith("_hz"):
        base = key[: -len("_hz")]
        if _SCHEMA.get(base) == "freq":
            return base, TWO_PI
    return None, None


def _parse_float(key, text_value):
    try:
        value = float(text_value)
    except ValueError:
        raise ConfigError("%s: malformed number %r" % (key, text_value)) from None
    if math.isnan(value) or math.isinf(value):
        raise ConfigError("%s: malformed number %r" % (key, text_value))
    return value


def load_config(text, geometry_kind=None):
    """Build a validated ExperimentConfig from a config document.

    Missing optional keys take the defaults of the reference sodium
    experiment (resonant probe and coupling, Omega = 0.56 gamma,
    Gamma_ge = gamma/2, Gamma_gr = 2 pi x 1000 rad/s).
    ``geometry_kind`` ("box" or "trap") overrides geometry.kind, e.g. for a
    document that carries parameters for both geometries.
    """
    raw = _parse_document(text)

    parsed = {}
    unknown = []
    for key, text_value in raw.items():
        canonical, multiplier = _canonical_key(key)
        if canonical is None:
            unknown.append(key)
            continue
        if canonical in parsed:
            raise ConfigError("%s given more than once (rad/Hz variants conflict)" % canonical)
        if _SCHEMA[canonical] == "str":
            parsed[canonical] = text_value
        else:
            parsed[canonical] = _parse_float(key, text_value) * multiplier
    if unknown:
        raise ConfigError("unknown keys: %s" % ", ".join(sorted(unknown)))

    kind = geometry_kind or parsed.get("geometry.kind")
    if kind is None:
        raise ConfigError(
            "missing keys: geometry.kind (box|trap); box also needs "
            "geometry.number_density_per_m3, trap also needs geometry.nu_r_rad|_hz, "
            "geometry.nu_z_rad|_hz, geometry.atom_count"
        )
    if kind not in ("box", "trap"):
        raise ConfigError("geometry.kind must be 'box' or 'trap', got %r" % kind)

    # species (defaults: sodium)
    gamma_total = parsed.get("species.gamma_total", SODIUM_GAMMA_RAD_S)
    species = AtomSpecies(
        mass_kg=parsed.get("species.mass_kg", SODIUM_MASS_KG),
        wavelength_ge_m=parsed.get("species.wavelength_ge_m", SODIUM_WAVELENGTH_M),
        gamma_total_rad_s=gamma_total,
    )

    # fields (defaults: resonant, Omega = 0.56 gamma, Gamma_gr = 2 pi kHz)
    if "fields.omega_coupling" in parsed and "fields.omega_coupling_gamma" in parsed:
        raise ConfigError("fields.omega_coupling and fields.omega_coupling_gamma conflict")
    if "fields.omega_coupling" in parsed:
        omega_coupling = parsed["fields.omega_coupling"]
    else:
        omega_coupling = parsed.get("fields.omega_coupling_gamma", DEFAULT_OMEGA_COUPLING_GAMMA) * gamma_total
    field_params = FieldParams(
        omega_coupling_rad_s=omega_coupling,
        detuning_g0_rad_s=parsed.get("fields.detuning_g0", 0.0),
        detuning_r0_rad_s=parsed.get("fields.detuning_r0", 0.0),
        gamma_ge_rad_s=parsed.get("fields.gamma_ge", gamma_total / 2.0),
        gamma_gr_rad_s=parsed.get("fields.gamma_gr", DEFAULT_GAMMA_GR_RAD_S),
        k_g_per_m=parsed.get("fields.k_g_per_m", TWO_PI / species.wavelength_ge_m),
    )

    # geometry
    if kind == "box":
        missing = [k for k in ("geometry.number_density_per_m3",) if k not in parsed]
        if missing:
            raise ConfigError("missing keys: %s" % ", ".join(missing))
        geometry = Box(number_density_per_m3=parsed["geometry.number_density_per_m3"])
    else:
        missing = [
            k for k in ("geometry.nu_r", "geometry.nu_z", "geometry.atom_count") if k not in parsed
        ]
        if missing:
            raise ConfigError(
                "missing keys: %s" % ", ".join(m + ("_rad|_hz" if _SCHEMA[m] == "freq" else "") for m in missing)
            )
        geometry = HarmonicTrap(
            nu_r_rad_s=parsed["geometry.nu_r"],
            nu_z_rad_s=parsed["geometry.nu_z"],
            atom_count=parsed["geometry.atom_count"],
        )

    config = ExperimentConfig(species=species, fields=field_params, geometry=geometry)

    # The semiclassical trap treatment needs Gamma, Delta >> nu; checkable
    # already at configuration time (the K_B T >> hbar nu part is checked
    # where a temperature enters).
    if kind == "trap":
        nu_max = max(geometry.nu_r_rad_s, geometry.nu_z_rad_s)
        if field_params.gamma_ge_rad_s < 20.0 * nu_max:
            warnings.warn(
                "semiclassical treatment assumes Gamma_ge >> trap frequencies "
                "(Gamma_ge = %.3e rad/s, max nu = %.3e rad/s)"
                % (field_params.gamma_ge_rad_s, nu_max),
                ValidityWarning,
                stacklevel=2,
            )
    return config


def serialize_config(config):
    """Render an ExperimentConfig back into a config document.

    Floats are emitted with repr(), so load_config(serialize_config(c))
    reproduces every field bit-exactly.
    """
    lines = ["# experiment configuration (SI; *_rad keys are rad/s)"]
    lines.append("geometry.kind = %s" % config.geometry_kind)
    if isinstance(config.geometry, Box):
        lines.append("geometry.number_density_per_m3 = %r" % config.geometry.number_density_per_m3)
    else:
        lines.append("geometry.nu_r_rad = %r" % config.geometry.nu_r_rad_s)
        lines.append("geometry.nu_z_rad = %r" % config.geometry.nu_z_rad_s)
        lines.append("geometry.atom_count = %r" % config.geometry.atom_count)
    lines.append("species.mass_kg = %r" % config.species.mass_kg)
    lines.append("species.wavelength_ge_m = %r" % config.species.wavelength_ge_m)
    lines.append("species.gamma_total_rad = %r" % config.species.gamma_total_rad_s)
    lines.append("fields.omega_coupling_rad = %r" % config.fields.omega_coupling_rad_s)
    lines.append("fields.detuning_g0_rad = %r" % config.fields.detuning_g0_rad_s)
    lines.append("fields.detuning_r0_rad = %r" % config.fields.detuning_r0_rad_s)
    lines.append("fields.gamma_ge_rad = %r" % config.fields.gamma_ge_rad_s)
    lines.append("fields.gamma_gr_rad = %r" % config.fields.gamma_gr_rad_s)
    lines.append("fields.k_g_per_m = %r" % config.fields.k_g_per_m)
    return "\n".join(lines) + "\n"

