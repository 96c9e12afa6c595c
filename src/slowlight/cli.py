"""Command-line interface.

Three subcommands:

* ``sweep`` -- temperature sweep of susceptibility, delay and group velocity
  over a T/Tc grid, written as CSV (12 significant digits, deterministic).
* ``chi``  -- probe-detuning scan of the susceptibility at one temperature.
* ``tf``   -- zero-temperature ideal-gas vs Thomas-Fermi estimates as JSON.

Exit status: 0 success, 1 configuration/usage/file errors, 2 physics errors
(poles, domain violations, series caps, unphysical dispersion).
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .box_gas import box_response, gas_state, tc_box, tc_trap
from .eit_core import group_velocity_from_response
from .errors import ConfigError, DomainError, PhysicsError, PoleError, UsageError
from .tf_model import hau_group_velocity, ideal_t0_density, tf_geometry, tf_t0_density
from .trap_gas import PinholeSpec, ground_state_size, trap_mean_delay, trap_response
from .units_params import C_M_S, Box, dipole_moment_sq, load_config, probe_omega

DEFAULT_CONFIG_TEXT = """\
# reference sodium slow-light experiment; carries parameters for both
# geometries, select with geometry.kind or the --geometry flag
geometry.kind = trap
geometry.nu_r_hz = 70.0
geometry.nu_z_hz = 20.0
geometry.atom_count = 8.3e6
geometry.number_density_per_m3 = 3.8e18
"""

_CSV_HEADER = (
    "t_over_tc,temperature_k,fugacity,re_chi,im_chi,mean_delay_s,cloud_size_m,group_velocity_m_s"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_config_options(parser):
    parser.add_argument("--config", metavar="PATH", help="config document (default: built-in sodium reference)")
    parser.add_argument(
        "--geometry",
        choices=("box", "trap"),
        help="override geometry.kind of the config document",
    )


def _load(args):
    """Read the config document, return (config, sha256 hex of the text)."""
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = DEFAULT_CONFIG_TEXT
    config = load_config(text, geometry_kind=args.geometry)
    return config, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _apply_omega_override(config, omega_coupling_gamma):
    if omega_coupling_gamma is None:
        return config
    fields = replace(
        config.fields,
        omega_coupling_rad_s=omega_coupling_gamma * config.species.gamma_total_rad_s,
    )
    return replace(config, fields=fields)


def _metadata_line(config_sha256):
    return "# config_sha256=%s tool_version=%s" % (config_sha256, __version__)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _theta_grid(args):
    if args.t_points < 2:
        raise UsageError("--t-points must be at least 2")
    if not args.t_min > 0.0:
        raise UsageError("--t-min must be positive")
    if not args.t_max > args.t_min:
        raise UsageError("--t-max must exceed --t-min")
    if args.t_scale == "log":
        return np.geomspace(args.t_min, args.t_max, args.t_points)
    return np.linspace(args.t_min, args.t_max, args.t_points)


def _pinhole_from_args(args):
    if args.pinhole_thermal:
        return PinholeSpec(radius_mode="thermal")
    radius_um = 15.0 if args.pinhole_radius_um is None else args.pinhole_radius_um
    if not radius_um > 0.0:
        raise UsageError("--pinhole-radius-um must be positive")
    return PinholeSpec(radius_mode="fixed", radius_m=radius_um * 1e-6)


def _annotate(exc, where):
    """The row's error as a PhysicsError that names the row; an arithmetic
    fault (overflow, division by zero) becomes a DomainError."""
    if isinstance(exc, PhysicsError):
        return type(exc)("at %s: %s" % (where, exc))
    return DomainError("at %s: %s: %s" % (where, type(exc).__name__, exc))


def _check_finite(row, where):
    if not all(math.isfinite(value) for value in row):
        raise DomainError("at %s: non-finite value in the row %r" % (where, row))


def cmd_sweep(args):
    config, digest = _load(args)
    config = _apply_omega_override(config, args.omega_coupling_gamma)
    thetas = _theta_grid(args)
    is_box = isinstance(config.geometry, Box)
    if is_box:
        t_c = tc_box(config.species, config.geometry.number_density_per_m3)
    else:
        t_c = tc_trap(config.species, config.geometry)
        pinhole = _pinhole_from_args(args)

    def _point(theta):
        temperature = theta * t_c
        where = "t_over_tc=%.6g (T=%.6g K)" % (theta, temperature)
        try:
            state = gas_state(config, temperature)
            if is_box:
                resp = box_response(state, config.fields, mode=args.mode)
                v_g = group_velocity_from_response(resp, probe_omega(config.species))
                row = (theta, temperature, state.fugacity.value, resp.chi.real, resp.chi.imag, 0.0, 0.0, v_g)
            else:
                resp = trap_response(state, config.fields, 0.0)
                delays = trap_mean_delay(state, config.fields, pinhole, fc_mode=args.fc_mode)
                row = (
                    theta,
                    temperature,
                    state.fugacity.value,
                    resp.chi.real,
                    resp.chi.imag,
                    delays.mean_delay_s,
                    delays.cloud_size_m,
                    delays.group_velocity_m_s,
                )
            if not 0.0 < row[-1] < C_M_S:
                raise DomainError("group velocity %.6g m/s is not in (0, c)" % row[-1])
        except (PhysicsError, ArithmeticError) as exc:
            raise _annotate(exc, where) from exc
        _check_finite(row, where)
        return row

    rows = [_point(theta) for theta in thetas]

    lines = [_metadata_line(digest), _CSV_HEADER]
    for row in rows:
        lines.append(",".join("%.11e" % value for value in row))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_chi(args):
    config, digest = _load(args)
    config = _apply_omega_override(config, args.omega_coupling_gamma)
    if args.d_points < 2:
        raise UsageError("--d-points must be at least 2")
    if not args.d_max > args.d_min:
        raise UsageError("--d-max-gamma must exceed --d-min-gamma")
    if args.temperature_nk < 0.0:
        raise UsageError("--temperature-nk must be nonnegative")
    temperature = args.temperature_nk * 1e-9
    gamma_total = config.species.gamma_total_rad_s
    detunings = np.linspace(args.d_min, args.d_max, args.d_points)
    try:
        state = gas_state(config, temperature)
    except (PhysicsError, ArithmeticError) as exc:
        raise _annotate(exc, "T=%.6g K" % temperature) from exc

    rows = []
    for d_gamma in detunings.tolist():
        fields = replace(config.fields, detuning_g0_rad_s=d_gamma * gamma_total)
        where = "detuning=%.6g gamma (T=%.6g K)" % (d_gamma, temperature)
        try:
            if isinstance(config.geometry, Box):
                resp = box_response(state, fields)
            else:
                resp = trap_response(state, fields, 0.0)
            chi = resp.chi
        except PoleError as exc:
            # Gamma_gr = 0 on the exact two-photon resonance is the
            # transparency limit: the singularity is removable and chi -> 0.
            if fields.gamma_gr_rad_s == 0.0 and fields.detuning_g0_rad_s == fields.detuning_r0_rad_s:
                chi = 0.0j
            else:
                raise _annotate(exc, where) from exc
        except (PhysicsError, ArithmeticError) as exc:
            raise _annotate(exc, where) from exc
        row = (d_gamma, d_gamma * gamma_total, chi.real, chi.imag)
        _check_finite(row, where)
        rows.append(row)

    lines = [_metadata_line(digest), "detuning_gamma,detuning_rad_s,re_chi,im_chi"]
    for row in rows:
        lines.append(",".join("%.11e" % value for value in row))
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_tf(args):
    config, _ = _load(args)
    config = _apply_omega_override(config, args.omega_coupling_gamma)
    if isinstance(config.geometry, Box):
        raise UsageError("tf requires a harmonic-trap geometry (use --geometry trap)")
    species = config.species
    trap = config.geometry
    n_atoms = trap.atom_count if args.atom_count is None else args.atom_count
    if not n_atoms > 0:
        raise UsageError("--atom-count must be positive")
    if not args.scattering_length_nm > 0.0:
        raise UsageError("--scattering-length-nm must be positive")

    omega = probe_omega(species)
    rabi = config.fields.omega_coupling_rad_s
    dipole_sq = dipole_moment_sq(species, config.fields.gamma_ge_rad_s)
    n_ideal = ideal_t0_density(species, trap, n_atoms)
    geometry = tf_geometry(species, trap, n_atoms, args.scattering_length_nm * 1e-9)
    n_tf = tf_t0_density(n_atoms, geometry)
    try:
        result = {
            "a0_r": ground_state_size(species, trap.nu_r_rad_s),
            "a0_z": ground_state_size(species, trap.nu_z_rad_s),
            "mu": geometry.chemical_potential_j,
            "n_ideal": n_ideal,
            "n_tf": n_tf,
            "r_tf_r": geometry.r_tf_r_m,
            "r_tf_z": geometry.r_tf_z_m,
            "vg_ideal": hau_group_velocity(omega, rabi, n_ideal, dipole_sq),
            "vg_tf": hau_group_velocity(omega, rabi, n_tf, dipole_sq),
        }
    except PhysicsError as exc:
        raise type(exc)("tf estimate: %s" % exc) from exc
    _write_text(args.output, json.dumps(result, sort_keys=True, indent=2) + "\n")
    return 0


def _build_parser():
    parser = _Parser(
        prog="slowlight",
        description="EIT susceptibility and slow-light group velocity of an ideal Bose gas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="temperature sweep (CSV)")
    _add_config_options(sweep)
    sweep.add_argument("--t-min", type=float, default=0.2, help="lowest T/Tc (default 0.2)")
    sweep.add_argument("--t-max", type=float, default=2.0, help="highest T/Tc (default 2.0)")
    sweep.add_argument("--t-points", type=int, default=50, help="grid size (default 50)")
    sweep.add_argument("--t-scale", choices=("linear", "log"), default="linear")
    sweep.add_argument(
        "--mode",
        choices=("exact", "asymptotic"),
        default="exact",
        help="box susceptibility: full series or first Doppler correction (trap rows always use the first-order local form)",
    )
    sweep.add_argument("--fc-mode", choices=("paper", "exact"), default="paper", help="condensate section factor")
    pin = sweep.add_mutually_exclusive_group()
    pin.add_argument("--pinhole-radius-um", type=float, help="fixed pinhole radius in um (default 15)")
    pin.add_argument("--pinhole-thermal", action="store_true", help="pinhole at the thermal radius sqrt(K_B T/m nu_r^2)")
    sweep.add_argument("--omega-coupling-gamma", type=float, help="override coupling Rabi frequency, in units of gamma")
    sweep.add_argument("--output", metavar="PATH", help="write CSV here instead of stdout")
    sweep.set_defaults(func=cmd_sweep)

    chi = sub.add_parser("chi", help="detuning scan of the susceptibility (CSV)")
    _add_config_options(chi)
    chi.add_argument("--temperature-nk", type=float, required=True, help="temperature in nK")
    chi.add_argument("--d-min-gamma", dest="d_min", type=float, default=-2.0, help="lowest probe detuning, in units of gamma")
    chi.add_argument("--d-max-gamma", dest="d_max", type=float, default=2.0, help="highest probe detuning, in units of gamma")
    chi.add_argument("--d-points", type=int, default=201, help="grid size (default 201)")
    chi.add_argument("--omega-coupling-gamma", type=float, help="override coupling Rabi frequency, in units of gamma")
    chi.add_argument("--output", metavar="PATH", help="write CSV here instead of stdout")
    chi.set_defaults(func=cmd_chi)

    tf = sub.add_parser("tf", help="T=0 ideal vs Thomas-Fermi estimates (JSON)")
    _add_config_options(tf)
    tf.add_argument("--atom-count", type=float, help="condensate atom number (default: geometry.atom_count)")
    tf.add_argument("--scattering-length-nm", type=float, default=2.75, help="s-wave scattering length in nm (default 2.75)")
    tf.add_argument("--omega-coupling-gamma", type=float, help="override coupling Rabi frequency, in units of gamma")
    tf.add_argument("--output", metavar="PATH", help="write JSON here instead of stdout")
    tf.set_defaults(func=cmd_tf)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code is None else int(exc.code)
    except (ConfigError, UsageError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except PhysicsError as exc:
        print("physics error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
