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

from .errors import ConfigError, DomainError, ValidityWarning

# CODATA-2018 exact/defined values
HBAR_J_S = 1.0545718176461565e-34
KB_J_PER_K = 1.380649e-23
C_M_S = 2.99792458e8

TWO_PI = 2.0 * math.pi


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
        _check_bounds(self, "species")


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
        _check_bounds(self, "fields")


@dataclass(frozen=True)
class Box:
    """Homogeneous gas in a box: only the number density matters."""

    number_density_per_m3: float

    def __post_init__(self):
        _check_bounds(self, "box")


@dataclass(frozen=True)
class HarmonicTrap:
    """Cylindrically symmetric harmonic trap (radial nu_r, axial nu_z)."""

    nu_r_rad_s: float
    nu_z_rad_s: float
    atom_count: float

    def __post_init__(self):
        _check_bounds(self, "trap")


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
    try:
        return HBAR_J_S * gamma_ge_rad_s * chi0(species)
    except OverflowError as exc:
        raise DomainError("chi0 = 3 lambda^3 / 32 pi^3 overflows at lambda = %.3g m" % species.wavelength_ge_m) from exc


# --------------------------------------------------------------------------
# configuration documents
# --------------------------------------------------------------------------

# The config format, one row per canonical key: (section, dataclass field,
# bound, default).  The section is the dataclass the key fills; the key with
# section None picks the geometry section, "box" or "trap".  A field named
# *_rad_s is a frequency, written <key>_rad (rad/s) or <key>_hz (times 2 pi);
# any other key is written as is.  The defaults are the sodium D line of a
# slow-light measurement; a key without one is required (geometry) or derived
# from other keys in load_config (fields).
# serialize_config writes the keys in this order.
_SCHEMA = {
    "geometry.kind": (None, None, None, None),
    "geometry.number_density_per_m3": ("box", "number_density_per_m3", "positive", None),
    "geometry.nu_r": ("trap", "nu_r_rad_s", "positive", None),
    "geometry.nu_z": ("trap", "nu_z_rad_s", "positive", None),
    "geometry.atom_count": ("trap", "atom_count", "at least 1", None),
    "species.mass_kg": ("species", "mass_kg", "positive", 3.818e-26),
    "species.wavelength_ge_m": ("species", "wavelength_ge_m", "positive", 589e-9),
    "species.gamma_total": ("species", "gamma_total_rad_s", "positive", TWO_PI * 9.79e6),
    "fields.omega_coupling": ("fields", "omega_coupling_rad_s", "nonnegative", None),
    "fields.omega_coupling_gamma": ("fields", None, None, 0.56),
    "fields.detuning_g0": ("fields", "detuning_g0_rad_s", None, 0.0),
    "fields.detuning_r0": ("fields", "detuning_r0_rad_s", None, 0.0),
    "fields.gamma_ge": ("fields", "gamma_ge_rad_s", "positive", None),
    "fields.gamma_gr": ("fields", "gamma_gr_rad_s", "nonnegative", TWO_PI * 1000.0),
    "fields.k_g_per_m": ("fields", "k_g_per_m", "positive", None),
}
# written so that nan breaks every bound
_BOUNDS = {
    "positive": lambda value: value > 0.0,
    "nonnegative": lambda value: value >= 0.0,
    "at least 1": lambda value: value >= 1.0,
}


def _written(key):
    """The key as serialize_config and the bound messages write it."""
    return key + "_rad" if key in _FREQUENCIES else key


def _listed(keys):
    return ", ".join(key + "_rad|_hz" if key in _FREQUENCIES else key for key in keys)


# everything below is derived from _SCHEMA once, at import
_FREQUENCIES = {key for key, row in _SCHEMA.items() if (row[1] or "").endswith("_rad_s")}
# document key -> (canonical key, factor to the field's unit)
_DOCUMENT_KEYS = {
    written: (key, factor)
    for key in _SCHEMA
    for written, factor in (((key + "_rad", 1.0), (key + "_hz", TWO_PI)) if key in _FREQUENCIES else ((key, 1.0),))
}
# section -> [(field, bound test, message)] in table order
_BOUNDED = {
    section: [
        (field, _BOUNDS[bound], "%s must be %s" % (_written(key), bound))
        for key, (row_section, field, bound, _) in _SCHEMA.items()
        if row_section == section and bound
    ]
    for section in ("species", "fields", "box", "trap")
}
_REQUIRED = {kind: [key for key, row in _SCHEMA.items() if row[0] == kind] for kind in ("box", "trap")}
_DEFAULTS = {key: row[3] for key, row in _SCHEMA.items() if row[3] is not None}
_SERIALIZED = [(section, field, _written(key)) for key, (section, field, _, _) in _SCHEMA.items() if field]


def _check_bounds(instance, section):
    """Raise the ConfigError of the first field of a section that breaks its bound."""
    for field, test, message in _BOUNDED[section]:
        if not test(getattr(instance, field)):
            raise ConfigError(message)


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


def _parse_float(key, text_value, factor):
    """The finite number of a document value, times the factor to rad/s."""
    try:
        value = float(text_value)
    except ValueError:
        raise ConfigError("%s: malformed number %r" % (key, text_value)) from None
    if not math.isfinite(value):
        raise ConfigError("%s: malformed number %r" % (key, text_value))
    if math.isinf(value * factor):
        raise ConfigError("%s: %s Hz overflows when converted to rad/s" % (key, text_value))
    return value * factor


def load_config(text, geometry_kind=None):
    """Build a validated ExperimentConfig from a config document.

    Missing optional keys take the defaults of the reference sodium
    experiment (resonant probe and coupling, Omega = 0.56 gamma,
    Gamma_ge = gamma/2, Gamma_gr = 2 pi x 1000 rad/s).
    ``geometry_kind`` ("box" or "trap") overrides geometry.kind, e.g. for a
    document that carries parameters for both geometries.
    """
    parsed = {}
    unknown = []
    for key, text_value in _parse_document(text).items():
        if key not in _DOCUMENT_KEYS:
            unknown.append(key)
            continue
        canonical, factor = _DOCUMENT_KEYS[key]
        if canonical in parsed:
            raise ConfigError("%s given more than once (rad/Hz variants conflict)" % canonical)
        parsed[canonical] = text_value if _SCHEMA[canonical][0] is None else _parse_float(key, text_value, factor)
    if unknown:
        raise ConfigError("unknown keys: %s" % ", ".join(sorted(unknown)))

    kind = geometry_kind or parsed.get("geometry.kind")
    if kind is None:
        raise ConfigError(
            "missing keys: geometry.kind (box|trap); box also needs %s, trap also needs %s"
            % (_listed(_REQUIRED["box"]), _listed(_REQUIRED["trap"]))
        )
    if kind not in _REQUIRED:
        raise ConfigError("geometry.kind must be 'box' or 'trap', got %r" % kind)

    values = dict(_DEFAULTS, **parsed)
    sections = {section: {} for section in _BOUNDED}
    for key, value in values.items():
        section, field = _SCHEMA[key][:2]
        if field:
            sections[section][field] = value
    species = AtomSpecies(**sections["species"])

    # the defaults that follow from other keys: Omega = 0.56 gamma,
    # Gamma_ge = gamma/2 and k_g = 2 pi / lambda
    if "fields.omega_coupling" in parsed and "fields.omega_coupling_gamma" in parsed:
        raise ConfigError("fields.omega_coupling and fields.omega_coupling_gamma conflict")
    gamma_total = species.gamma_total_rad_s
    fields = sections["fields"]
    fields.setdefault("omega_coupling_rad_s", values["fields.omega_coupling_gamma"] * gamma_total)
    fields.setdefault("gamma_ge_rad_s", gamma_total / 2.0)
    fields.setdefault("k_g_per_m", TWO_PI / species.wavelength_ge_m)
    field_params = FieldParams(**fields)

    missing = [key for key in _REQUIRED[kind] if key not in parsed]
    if missing:
        raise ConfigError("missing keys: %s" % _listed(missing))
    geometry = (Box if kind == "box" else HarmonicTrap)(**sections[kind])

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
    sections = {"species": config.species, "fields": config.fields, config.geometry_kind: config.geometry}
    lines = ["# experiment configuration (SI; *_rad keys are rad/s)", "geometry.kind = %s" % config.geometry_kind]
    lines += [
        "%s = %r" % (written, getattr(sections[section], field))
        for section, field, written in _SERIALIZED
        if section in sections
    ]
    return "\n".join(lines) + "\n"
