"""Constants, species helpers, config parsing, serialization."""

import math
import re
import warnings
from dataclasses import replace

import pytest

from slowlight import (
    C_M_S,
    HBAR_J_S,
    KB_J_PER_K,
    AtomSpecies,
    ConfigError,
    ValidityWarning,
    chi0,
    dipole_moment_sq,
    load_config,
    probe_omega,
    recoil_frequency,
    serialize_config,
)

from slowlight.units_params import _SCHEMA

from _configs import DOC, box_config, trap_config

TAU = 2.0 * math.pi

BOX_MIN = "geometry.kind = box\ngeometry.number_density_per_m3 = 3.8e18\n"
TRAP_MIN = (
    "geometry.kind = trap\n"
    "geometry.nu_r_hz = 70.0\n"
    "geometry.nu_z_hz = 20.0\n"
    "geometry.atom_count = 8.3e6\n"
)


def rel(a, b):
    return abs(a - b) / abs(b)


def _document(key, line):
    """A minimal document of the key's geometry whose line for the key is the given one."""
    base = TRAP_MIN if _SCHEMA[key][0] == "trap" else BOX_MIN
    kept = [old for old in base.splitlines() if old.split(" = ")[0] not in (key, key + "_rad", key + "_hz")]
    return "\n".join(kept + [line]) + "\n"


def _section(config, key):
    return {"species": config.species, "fields": config.fields}.get(_SCHEMA[key][0], config.geometry)


def _is_frequency(key):
    return (_SCHEMA[key][1] or "").endswith("_rad_s")


_FREQUENCY_KEYS = [key for key in _SCHEMA if _is_frequency(key)]
_BOUNDED_KEYS = [key for key, row in _SCHEMA.items() if row[2]]
# values just outside each bound; nan breaks every bound too, but a document cannot hold it
_BREAKING = {
    "positive": (0.0, -1.0, math.nan),
    "nonnegative": (-1e-300, -1.0, math.nan),
    "at least 1": (0.999, 0.0, math.nan),
}


def test_physical_constants():
    assert HBAR_J_S == 1.0545718176461565e-34
    assert KB_J_PER_K == 1.380649e-23
    assert C_M_S == 2.99792458e8


def test_sodium_defaults():
    species = load_config(BOX_MIN).species
    assert species.mass_kg == 3.818e-26
    assert species.wavelength_ge_m == 589e-9
    assert species.gamma_total_rad_s == TAU * 9.79e6


def test_species_helpers():
    config = load_config(BOX_MIN)
    species = config.species
    # recoil omega_R = hbar k^2 / 2m, about 2 pi x 25 kHz for the D line
    k = TAU / species.wavelength_ge_m
    assert recoil_frequency(species, config.fields) == HBAR_J_S * k**2 / (2.0 * species.mass_kg)
    assert rel(recoil_frequency(species, config.fields), TAU * 25.01e3) < 1e-3
    # the recoil follows the configured probe wave number
    long_k = load_config(BOX_MIN + "fields.k_g_per_m = %r\n" % (1.5 * k))
    assert rel(recoil_frequency(species, long_k.fields), 2.25 * recoil_frequency(species, config.fields)) < 1e-15
    # resonant cross-section scale chi_0 = 3 lambda^3 / 32 pi^3
    assert chi0(species) == 3.0 * species.wavelength_ge_m**3 / (32.0 * math.pi**3)
    assert rel(chi0(species), 6.178e-22) < 1e-3
    assert probe_omega(species) == TAU * C_M_S / species.wavelength_ge_m
    gamma_ge = species.gamma_total_rad_s / 2.0
    assert dipole_moment_sq(species, gamma_ge) == HBAR_J_S * gamma_ge * chi0(species)


def test_species_validation():
    with pytest.raises(ConfigError, match="mass_kg must be positive"):
        AtomSpecies(-1.0, 589e-9, 1.0)


def test_load_config_field_defaults():
    config = load_config(BOX_MIN)
    fields = config.fields
    gamma = config.species.gamma_total_rad_s
    assert fields.omega_coupling_rad_s == 0.56 * gamma
    assert fields.detuning_g0_rad_s == 0.0
    assert fields.detuning_r0_rad_s == 0.0
    assert fields.gamma_ge_rad_s == gamma / 2.0
    assert fields.gamma_gr_rad_s == TAU * 1000.0
    assert fields.k_g_per_m == TAU / 589e-9
    assert config.geometry.number_density_per_m3 == 3.8e18


def test_load_config_trap_geometry():
    config = load_config(TRAP_MIN)
    assert config.geometry.nu_r_rad_s == TAU * 70.0
    assert config.geometry.nu_z_rad_s == TAU * 20.0
    assert config.geometry.atom_count == 8.3e6


def test_rad_and_hz_suffixes_agree():
    rad_text = TRAP_MIN.replace("geometry.nu_r_hz = 70.0", "geometry.nu_r_rad = %r" % (TAU * 70.0))
    assert load_config(rad_text).geometry.nu_r_rad_s == load_config(TRAP_MIN).geometry.nu_r_rad_s
    detuned = load_config(BOX_MIN + "fields.detuning_g0_hz = -100.0\n")
    assert detuned.fields.detuning_g0_rad_s == -TAU * 100.0
    # every frequency key of the schema: _hz is 2 pi times _rad, the bare key is unknown
    assert len(_FREQUENCY_KEYS) == 8
    for key in _FREQUENCY_KEYS:
        field = _SCHEMA[key][1]
        hz = 77.0 if _SCHEMA[key][0] == "trap" else 1234.5
        from_hz = getattr(_section(load_config(_document(key, "%s_hz = %r" % (key, hz))), key), field)
        from_rad = getattr(_section(load_config(_document(key, "%s_rad = %r" % (key, TAU * hz))), key), field)
        assert from_hz == from_rad == TAU * hz, key
        with pytest.raises(ConfigError, match="unknown keys: %s$" % re.escape(key)):
            load_config(_document(key, "%s = %r" % (key, hz)))


def test_coupling_in_linewidth_units():
    config = load_config(BOX_MIN + "fields.omega_coupling_gamma = 1.2\n")
    assert config.fields.omega_coupling_rad_s == 1.2 * config.species.gamma_total_rad_s
    explicit = load_config(BOX_MIN + "fields.omega_coupling_rad = 1e7\n")
    assert explicit.fields.omega_coupling_rad_s == 1e7


def test_load_config_conflicts():
    with pytest.raises(ConfigError, match=re.escape("geometry.nu_r given more than once (rad/Hz variants conflict)")):
        load_config(TRAP_MIN + "geometry.nu_r_rad = 400.0\n")
    with pytest.raises(ConfigError, match="omega_coupling_gamma conflict"):
        load_config(BOX_MIN + "fields.omega_coupling_rad = 1e7\nfields.omega_coupling_gamma = 0.5\n")


def test_load_config_parse_errors():
    with pytest.raises(ConfigError, match=re.escape("line 2: expected 'key = value', got 'geometry.kind box'")):
        load_config("# header\ngeometry.kind box\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key geometry.kind"):
        load_config("geometry.kind = box\ngeometry.number_density_per_m3 = 1e18\ngeometry.kind = box\n")
    with pytest.raises(ConfigError, match="unknown keys: aaa.q, zzz.k"):
        load_config(BOX_MIN + "zzz.k = 1\naaa.q = 2\n")
    # keys that no result read were removed; old documents fail loudly
    for retired in (
        "fields.k_r_per_m = 1.0e7",
        "numerics.faddeeva_switch_radius = 10.0",
        "numerics.series_rel_tol = 1e-12",
        "numerics.quad_rel_tol = 1e-10",
        "numerics.bisection_tol = 1e-13",
        "species.gamma_g_rad = 3e7",
        "species.gamma_r_hz = 4.9e6",
        "fields.gamma_re_rad = 3e7",
    ):
        key = retired.split(" ")[0]
        with pytest.raises(ConfigError, match="unknown keys: %s$" % re.escape(key)):
            load_config(BOX_MIN + retired + "\n")
    with pytest.raises(ConfigError, match=re.escape("geometry.number_density_per_m3: malformed number 'abc'")):
        load_config("geometry.kind = box\ngeometry.number_density_per_m3 = abc\n")
    # an _hz value whose rad/s value overflows is refused, not stored as inf
    for key in ("geometry.nu_r", "species.gamma_total"):
        with pytest.raises(ConfigError, match=re.escape("%s_hz: 1e308 Hz overflows when converted to rad/s" % key)):
            load_config(_document(key, "%s_hz = 1e308" % key))


def test_field_validation():
    # nan compares false both ways, so each check is written as "not x >= 0"
    fields = load_config(BOX_MIN).fields
    for bad in (-1.0, math.nan):
        with pytest.raises(ConfigError, match="fields.omega_coupling_rad must be nonnegative"):
            replace(fields, omega_coupling_rad_s=bad)
        with pytest.raises(ConfigError, match="fields.gamma_gr_rad must be nonnegative"):
            replace(fields, gamma_gr_rad_s=bad)


@pytest.mark.parametrize("key", _BOUNDED_KEYS)
def test_every_schema_bound_is_enforced(key):
    section, field, bound, _ = _SCHEMA[key]
    written = key + "_rad" if _is_frequency(key) else key
    message = "^%s must be %s$" % (re.escape(written), bound)
    instance = _section(trap_config() if section == "trap" else box_config(), key)
    for bad in _BREAKING[bound]:
        # the dataclass checks the bound on its own, and a document meets the same check
        with pytest.raises(ConfigError, match=message):
            replace(instance, **{field: bad})
        if not math.isnan(bad):
            with pytest.raises(ConfigError, match=message):
                load_config(_document(key, "%s = %r" % (written, bad)))


def test_schema_bounds():
    # the bound of each key; one that no check enforces is unchecked input
    assert {key: _SCHEMA[key][2] for key in _BOUNDED_KEYS} == {
        "geometry.number_density_per_m3": "positive",
        "geometry.nu_r": "positive",
        "geometry.nu_z": "positive",
        "geometry.atom_count": "at least 1",
        "species.mass_kg": "positive",
        "species.wavelength_ge_m": "positive",
        "species.gamma_total": "positive",
        "fields.omega_coupling": "nonnegative",
        "fields.gamma_ge": "positive",
        "fields.gamma_gr": "nonnegative",
        "fields.k_g_per_m": "positive",
    }


def test_load_config_missing_keys():
    with pytest.raises(ConfigError, match=re.escape("missing keys: geometry.kind (box|trap)")):
        load_config("")
    with pytest.raises(ConfigError, match="geometry.kind must be 'box' or 'trap', got 'ring'"):
        load_config("geometry.kind = ring\n")
    with pytest.raises(ConfigError, match="missing keys: geometry.number_density_per_m3"):
        load_config("geometry.kind = box\n")
    with pytest.raises(ConfigError, match=re.escape("missing keys: geometry.nu_r_rad|_hz, geometry.nu_z_rad|_hz, geometry.atom_count")):
        load_config("geometry.kind = trap\n")


def test_geometry_kind_argument():
    # the kind can come from the caller instead of the text
    config = load_config("geometry.number_density_per_m3 = 1e18\n", geometry_kind="box")
    assert config.geometry.number_density_per_m3 == 1e18
    assert load_config(DOC, geometry_kind="trap").geometry.atom_count == 8.3e6
    assert load_config(DOC, geometry_kind="box").geometry.number_density_per_m3 == 3.8e18


def test_comments_and_whitespace_are_ignored():
    text = "\n# leading comment\n\n  geometry.kind = box  \n geometry.number_density_per_m3 = 2e18\n\n"
    assert load_config(text).geometry.number_density_per_m3 == 2e18


def test_geometry_validation():
    with pytest.raises(ConfigError, match="number_density_per_m3 must be positive"):
        load_config("geometry.kind = box\ngeometry.number_density_per_m3 = -1e18\n")
    with pytest.raises(ConfigError, match="atom_count must be at least 1"):
        load_config(TRAP_MIN.replace("atom_count = 8.3e6", "atom_count = 0.5"))
    with pytest.raises(ConfigError, match="nu_r_rad must be positive"):
        load_config(TRAP_MIN.replace("nu_r_hz = 70.0", "nu_r_hz = -70.0"))


def test_trap_linewidth_warning():
    # the local-response treatment needs Gamma_ge well above the trap frequencies
    with pytest.warns(ValidityWarning, match="semiclassical treatment assumes"):
        load_config(TRAP_MIN + "species.gamma_total_rad = 6000.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_config(TRAP_MIN)


def test_serialize_round_trip():
    for config in (box_config(), trap_config()):
        text = serialize_config(config)
        assert load_config(text) == config
        # and the text itself is stable under a second pass
        assert serialize_config(load_config(text)) == text
