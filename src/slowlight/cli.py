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
import math
import re
import sys
from dataclasses import replace
from functools import lru_cache

from . import __version__
from .box_gas import GasResponse, gas_state, tc_box, tc_trap
from .eit_core import group_velocity_from_response, warn_if_dense
from .errors import ConfigError, DomainError, PhysicsError, PoleError, UsageError
from .tf_model import hau_group_velocity, ideal_t0_density, tf_geometry, tf_t0_density
from .trap_gas import PinholeSpec, trap_mean_delay
from .units_params import C_M_S, Box, dipole_moment_sq, ground_state_size, load_config, probe_omega

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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents: -1e-1 would read as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(message)


def _finite_float(text):
    """argparse type of every float flag: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return value


def _load(args):
    """The config document with --geometry and --omega-coupling-gamma
    applied, and the document's text."""
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = DEFAULT_CONFIG_TEXT
    config = load_config(text, geometry_kind=args.geometry)
    if args.omega_coupling_gamma is not None:
        rabi = args.omega_coupling_gamma * config.species.gamma_total_rad_s
        config = replace(config, fields=replace(config.fields, omega_coupling_rad_s=rabi))
    return config, text


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _linspace(start, stop, num):
    """np.linspace(start, stop, num).tolist() for num >= 2, in numpy's own
    arithmetic: start + i*step (i/div*delta for a step that underflows to 0),
    with the last point exactly stop."""
    div = num - 1
    step = (stop - start) / div
    return [start + (i * step if step else i / div * (stop - start)) for i in range(div)] + [stop]


def _theta_grid(args):
    if args.t_points < 2:
        raise UsageError("--t-points must be at least 2")
    if not args.t_min > 0.0:
        raise UsageError("--t-min must be positive")
    if not args.t_max > args.t_min:
        raise UsageError("--t-max must exceed --t-min")
    if args.t_scale == "log":
        import numpy as np

        return np.geomspace(args.t_min, args.t_max, args.t_points).tolist()
    return _linspace(args.t_min, args.t_max, args.t_points)


def _pinhole_from_args(args):
    if args.pinhole_thermal:
        return PinholeSpec(radius_mode="thermal")
    radius_um = 15.0 if args.pinhole_radius_um is None else args.pinhole_radius_um
    if not radius_um > 0.0:
        raise UsageError("--pinhole-radius-um must be positive")
    return PinholeSpec(radius_mode="fixed", radius_m=radius_um * 1e-6)


def _annotate(exc, where):
    """The error as a PhysicsError prefixed with where; an arithmetic fault
    (overflow, division by zero) becomes a DomainError."""
    if isinstance(exc, PhysicsError):
        return type(exc)("%s: %s" % (where, exc))
    return DomainError("%s: %s: %s" % (where, type(exc).__name__, exc))


def _write_csv(output, text, header, points, row, label):
    """Evaluate row(point) at every point and write the rows as CSV, under a
    metadata line and the header, to the output path (None: stdout).  A row
    that fails or is not finite raises a PhysicsError naming label(point),
    and nothing is written."""
    import hashlib

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    lines = ["# config_sha256=%s tool_version=%s" % (digest, __version__), header]
    row_format = ",".join(["%.11e"] * len(header.split(",")))
    for point in points:
        try:
            values = row(point)
            if not all(map(math.isfinite, values)):
                raise DomainError("non-finite value in the row %r" % (values,))
        except (PhysicsError, ArithmeticError) as exc:
            raise _annotate(exc, "at " + label(point)) from exc
        lines.append(row_format % values)
    _write_text(output, "\n".join(lines) + "\n")
    return 0


def cmd_sweep(args):
    config, text = _load(args)
    thetas = _theta_grid(args)
    is_box = isinstance(config.geometry, Box)
    if is_box:
        t_c = tc_box(config.species, config.geometry.number_density_per_m3)
    else:
        t_c = tc_trap(config.species, config.geometry)
        pinhole = _pinhole_from_args(args)

    def row(theta):
        temperature = theta * t_c
        state = gas_state(config, temperature)
        response = GasResponse(state, config.fields, mode=args.mode)
        # the response (at r = 0 in a trap) and the trap's mean delay share one evaluator and zeta
        zv = response.zeta_at()
        resp = response.at(zv)
        if is_box:
            delay = size = 0.0
            v_g = group_velocity_from_response(resp, probe_omega(config.species))
        else:
            warn_if_dense(resp.chi)
            delays = trap_mean_delay(response, zv, pinhole, fc_mode=args.fc_mode)
            delay, size, v_g = delays.mean_delay_s, delays.cloud_size_m, delays.group_velocity_m_s
        if not 0.0 < v_g < C_M_S:
            raise DomainError("group velocity %.6g m/s is not in (0, c)" % v_g)
        return (theta, temperature, math.exp(-state.alpha), resp.chi.real, resp.chi.imag, delay, size, v_g)

    return _write_csv(
        args.output, text, _CSV_HEADER, thetas, row, lambda theta: "t_over_tc=%.6g (T=%.6g K)" % (theta, theta * t_c)
    )


def cmd_chi(args):
    config, text = _load(args)
    if args.d_points < 2:
        raise UsageError("--d-points must be at least 2")
    if not args.d_max > args.d_min:
        raise UsageError("--d-max-gamma must exceed --d-min-gamma")
    if args.temperature_nk < 0.0:
        raise UsageError("--temperature-nk must be nonnegative")
    temperature = args.temperature_nk * 1e-9
    gamma_total = config.species.gamma_total_rad_s
    points = _linspace(args.d_min, args.d_max, args.d_points)

    def label(d_gamma):
        return "detuning=%.6g gamma (T=%.6g K)" % (d_gamma, temperature)

    # a fault of the state names T; one of the response, which every row meets, names the first row
    where = "T=%.6g K" % temperature
    try:
        state = gas_state(config, temperature)
        where = label(points[0])
        response = GasResponse(state, config.fields)
    except (PhysicsError, ArithmeticError) as exc:
        raise _annotate(exc, "at " + where) from exc

    def row(d_gamma):
        detuning = d_gamma * gamma_total
        try:
            chi = response(detuning).chi
        except PoleError:
            # Gamma_gr = 0 on the exact two-photon resonance is the
            # transparency limit: the singularity is removable and chi -> 0.
            if not (config.fields.gamma_gr_rad_s == 0.0 and detuning == config.fields.detuning_r0_rad_s):
                raise
            chi = 0.0j
        return (d_gamma, detuning, chi.real, chi.imag)

    return _write_csv(args.output, text, "detuning_gamma,detuning_rad_s,re_chi,im_chi", points, row, label)


def cmd_tf(args):
    config, _ = _load(args)
    if isinstance(config.geometry, Box):
        raise UsageError("tf requires a harmonic-trap geometry (use --geometry trap)")
    species = config.species
    trap = config.geometry
    n_atoms = trap.atom_count if args.atom_count is None else args.atom_count
    if not n_atoms > 0:
        raise UsageError("--atom-count must be positive")
    if not args.scattering_length_nm > 0.0:
        raise UsageError("--scattering-length-nm must be positive")

    try:
        omega = probe_omega(species)
        dipole_sq = dipole_moment_sq(species, config.fields.gamma_ge_rad_s)
        rabi = config.fields.omega_coupling_rad_s
        n_ideal = ideal_t0_density(species, trap, n_atoms)
        geometry = tf_geometry(species, trap, n_atoms, args.scattering_length_nm * 1e-9)
        n_tf = tf_t0_density(n_atoms, geometry)
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
        for key in ("vg_ideal", "vg_tf"):
            if not 0.0 < result[key] < C_M_S:
                raise DomainError("%s = %.6g m/s is not in (0, c)" % (key, result[key]))
    except (PhysicsError, ArithmeticError) as exc:
        raise _annotate(exc, "tf estimate") from exc
    import json

    _write_text(args.output, json.dumps(result, sort_keys=True, indent=2) + "\n")
    return 0


@lru_cache(maxsize=None)
def _build_parser():
    parser = _Parser(
        prog="slowlight",
        description="EIT susceptibility and slow-light group velocity of an ideal Bose gas",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="config document (default: built-in sodium reference)")
    shared.add_argument("--geometry", choices=("box", "trap"), help="override geometry.kind of the config document")
    shared.add_argument("--omega-coupling-gamma", type=_finite_float, help="override coupling Rabi frequency, in units of gamma")
    shared.add_argument("--output", metavar="PATH", help="write to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", parents=[shared], help="temperature sweep (CSV)")
    sweep.add_argument("--t-min", type=_finite_float, default=0.2, help="lowest T/Tc (default 0.2)")
    sweep.add_argument("--t-max", type=_finite_float, default=2.0, help="highest T/Tc (default 2.0)")
    sweep.add_argument("--t-points", type=int, default=50, help="grid size (default 50)")
    sweep.add_argument("--t-scale", choices=("linear", "log"), default="linear")
    sweep.add_argument(
        "--mode",
        choices=("exact", "asymptotic"),
        default="exact",
        help="Doppler kernel of the susceptibility and the trap delays: full series or first Doppler correction",
    )
    sweep.add_argument("--fc-mode", choices=("paper", "exact"), default="paper", help="condensate section factor")
    pin = sweep.add_mutually_exclusive_group()
    pin.add_argument("--pinhole-radius-um", type=_finite_float, help="fixed pinhole radius in um (default 15)")
    pin.add_argument("--pinhole-thermal", action="store_true", help="pinhole at the thermal radius sqrt(K_B T/m nu_r^2)")
    sweep.set_defaults(func=cmd_sweep)

    chi = sub.add_parser("chi", parents=[shared], help="detuning scan of the susceptibility (CSV)")
    chi.add_argument("--temperature-nk", type=_finite_float, required=True, help="temperature in nK")
    chi.add_argument("--d-min-gamma", dest="d_min", type=_finite_float, default=-2.0, help="lowest probe detuning, in units of gamma")
    chi.add_argument("--d-max-gamma", dest="d_max", type=_finite_float, default=2.0, help="highest probe detuning, in units of gamma")
    chi.add_argument("--d-points", type=int, default=201, help="grid size (default 201)")
    chi.set_defaults(func=cmd_chi)

    tf = sub.add_parser("tf", parents=[shared], help="T=0 ideal vs Thomas-Fermi estimates (JSON)")
    tf.add_argument("--atom-count", type=_finite_float, help="condensate atom number (default: geometry.atom_count)")
    tf.add_argument("--scattering-length-nm", type=_finite_float, default=2.75, help="s-wave scattering length in nm (default 2.75)")
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
