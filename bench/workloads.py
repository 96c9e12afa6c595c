"""The benchmark's workloads: seeded generators of CLI and library calls.

Loop type: closed loop with one client.  The client issues the next call only
after the previous one has returned; there is no think time and no
concurrency (``--jobs`` stays at its default of 1).

Inputs come in *cycles*.  A cycle is a fixed table of call categories (which
subcommand, which grid, which mode) in a seeded random order, with each
continuous parameter drawn once from each of as many equal-width bins as the
cycle has calls (``_bins``).  Every cycle therefore has the same mix of work,
so runs with different seeds measure the same thing, and a run always ends
on a whole cycle.  The seed changes the order and every continuous draw.

Distributions, by name, for later reference:

* ``wide grid``: 24 T/Tc points from U[0.2, 0.6] to U[2, 3];
* ``near-Tc grid``: 24 T/Tc points from 1 + 10^U[-4, -3] to that plus
  U[0.02, 0.1], i.e. packed just above Tc;
* ``coupling``: --omega-coupling-gamma from U[0.3, 1.0];
* ``pinhole``: fixed radius log-uniform in [5, 40] um, or the thermal radius;
* ``chi temperature``: T/Tc in [0.3, 3] of the geometry's own Tc, uniform
  within fixed bins (``_CHI_BINS``), over the default detuning grid of 201
  points in [-2, 2] gamma;
* ``tf draw``: N log-uniform in [1e6, 2e7], a_s from U[2, 3.5] nm;
* ``finite path``: T/Tc from U[0.3, 0.95] (below) or U[1.05, 3] (above),
  R log-uniform in [5, 40] um, half-length L log-uniform in
  [50 um, 3 z_th] (short) or U[5, 7] z_th (covering the thermal cloud),
  z_th = sqrt(2 K_B T / m nu_z^2).
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import slowlight
import slowlight.cli

import checks

SWEEP_POINTS = 24
CHI_DETUNINGS = (-2.0, 2.0, 201)
_TF_KEYS = ("a0_r", "a0_z", "mu", "n_ideal", "n_tf", "r_tf_r", "r_tf_z", "vg_ideal", "vg_tf")


def _bins(rng, n):
    """n draws in [0, 1), one from each of n equal bins, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_between(lo, hi, u):
    return lo * (hi / lo) ** u


def _fmt(x):
    return repr(float(x))


class Context:
    """Configs and critical temperatures the generators and checks share.

    Built from the CLI's built-in config document, the same one every
    generated CLI call uses; the critical temperatures come from the oracles.
    """

    def __init__(self):
        self.configs = {kind: slowlight.load_config(slowlight.cli.DEFAULT_CONFIG_TEXT, geometry_kind=kind)
                        for kind in ("box", "trap")}
        self.t_c = {kind: checks.tc(config, kind) for kind, config in self.configs.items()}


class Verdict:
    """What the checks found in one call's output."""

    def __init__(self):
        self.rows = 0
        self.problems = []
        self.oracle = []  # (check name, thunk returning (ok, detail))


class CliOp:
    """One ``slowlight.cli.main(argv)`` call with its output captured."""

    def __init__(self, label, argv):
        self.label = label
        self.argv = argv

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = slowlight.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def verify(self, result, ctx):
        code, out, err = result
        verdict = Verdict()
        if code != 0:
            verdict.problems.append("%s exited %r: %s" % (self.label, code, err.strip()[-300:]))
            return verdict
        try:
            self.check_output(out, ctx, verdict)
        except (ValueError, KeyError, IndexError) as exc:
            verdict.problems.append("%s output unreadable: %r" % (self.label, exc))
        return verdict


def _csv_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _grid_problem(label, column, expected):
    """The CSV's grid column must be the requested grid (12 digits printed)."""
    if len(column) != len(expected):
        return ["%s has %d rows, expected %d" % (label, len(column), len(expected))]
    scale = max(abs(float(x)) for x in expected)
    worst = max(abs(a - float(b)) for a, b in zip(column, expected)) / scale
    return [] if worst <= 1e-11 else ["%s grid column off by %.2e" % (label, worst)]


class SweepOp(CliOp):
    def __init__(self, kind, t_min, t_max, scale, coupling, mode=None, fc_mode=None, radius_um=None):
        self.kind, self.mode, self.fc_mode, self.radius_um = kind, mode, fc_mode, radius_um
        self.coupling = coupling
        argv = ["sweep", "--geometry", kind, "--t-min", _fmt(t_min), "--t-max", _fmt(t_max),
                "--t-points", str(SWEEP_POINTS), "--t-scale", scale,
                "--omega-coupling-gamma", _fmt(coupling)]
        if kind == "box":
            argv += ["--mode", mode]
        else:
            argv += ["--fc-mode", fc_mode]
            argv += ["--pinhole-thermal"] if radius_um is None else ["--pinhole-radius-um", _fmt(radius_um)]
        super().__init__(" ".join(argv), argv)
        space = np.geomspace if scale == "log" else np.linspace
        self.thetas = space(float(t_min), float(t_max), SWEEP_POINTS)

    def check_output(self, out, ctx, verdict):
        rows = _csv_rows(out)
        verdict.rows = len(rows)
        verdict.problems += _grid_problem(self.label, [r["t_over_tc"] for r in rows], self.thetas)
        config = checks.with_fields(ctx.configs[self.kind], coupling_gamma=self.coupling)
        for theta, row in zip(self.thetas, rows):
            theta = float(theta)
            temperature = theta * ctx.t_c[self.kind]
            where = "%s row T/Tc=%.6g" % (self.label, theta)
            if not all(math.isfinite(v) for v in row.values()):
                verdict.problems.append("%s has a non-finite value" % where)
                continue
            verdict.problems += checks.finite_positive(where, {
                "fugacity": row["fugacity"], "im_chi": row["im_chi"]})
            verdict.problems += checks.subluminal(where, row["group_velocity_m_s"])
            verdict.oracle.append(("fugacity", _thunk(checks.fugacity, self.kind, theta, row["fugacity"])))
            chi = complex(row["re_chi"], row["im_chi"])
            tol = checks.CHI_ASYMPTOTIC_TOL if self.mode == "asymptotic" else checks.CHI_TOL
            verdict.oracle.append(("chi", _thunk(checks.chi, config, self.kind, temperature, chi, tol)))
            if self.kind == "box":
                continue
            verdict.problems += checks.finite_positive(where, {
                "mean_delay_s": row["mean_delay_s"], "cloud_size_m": row["cloud_size_m"]})
            # paper-mode F_C = 2/(pi R^2) has no oracle below Tc; above Tc
            # there is no condensate and both modes are the same sum
            if self.fc_mode == "exact" or theta > 1.0:
                if self.radius_um is None:
                    radius = checks.thermal_pinhole_radius(config, temperature)
                else:
                    radius = float(self.radius_um) * 1e-6
                verdict.oracle.append(("delay", _thunk(checks.mean_delay, config, temperature, radius, row["mean_delay_s"])))


class ChiOp(CliOp):
    def __init__(self, kind, temperature_nk, coupling):
        self.kind, self.coupling = kind, coupling
        self.temperature_nk = float(temperature_nk)
        lo, hi, n = CHI_DETUNINGS
        argv = ["chi", "--geometry", kind, "--temperature-nk", _fmt(temperature_nk),
                "--d-min-gamma", _fmt(lo), "--d-max-gamma", _fmt(hi), "--d-points", str(n),
                "--omega-coupling-gamma", _fmt(coupling)]
        super().__init__(" ".join(argv), argv)
        self.detunings = np.linspace(lo, hi, n)

    def check_output(self, out, ctx, verdict):
        rows = _csv_rows(out)
        verdict.rows = len(rows)
        verdict.problems += _grid_problem(self.label, [r["detuning_gamma"] for r in rows], self.detunings)
        config = ctx.configs[self.kind]
        temperature = self.temperature_nk * 1e-9
        gamma = config.species.gamma_total_rad_s
        for d_gamma, row in zip(self.detunings, rows):
            where = "%s row detuning=%.6g gamma" % (self.label, d_gamma)
            if not all(math.isfinite(v) for v in row.values()):
                verdict.problems.append("%s has a non-finite value" % where)
                continue
            verdict.problems += checks.finite_positive(where, {"im_chi": row["im_chi"]})
            point = checks.with_fields(config, coupling_gamma=self.coupling, detuning_rad_s=float(d_gamma) * gamma)
            chi = complex(row["re_chi"], row["im_chi"])
            verdict.oracle.append(("chi", _thunk(checks.chi, point, self.kind, temperature, chi)))


class TfOp(CliOp):
    def __init__(self, atom_count, scattering_nm, coupling):
        argv = ["tf", "--geometry", "trap", "--atom-count", _fmt(atom_count),
                "--scattering-length-nm", _fmt(scattering_nm), "--omega-coupling-gamma", _fmt(coupling)]
        super().__init__(" ".join(argv), argv)

    def check_output(self, out, ctx, verdict):
        doc = json.loads(out)
        verdict.rows = 1
        # no oracle covers the T = 0 estimates: finite and positive only
        verdict.problems += checks.finite_positive(self.label, {k: doc[k] for k in _TF_KEYS})


class DelayOp:
    """One library ``slowlight.mean_delay`` call with a finite path."""

    def __init__(self, ctx, theta, radius_m, half_length_m):
        self.config = ctx.configs["trap"]
        self.temperature = theta * ctx.t_c["trap"]
        self.radius_m, self.half_length_m = radius_m, half_length_m
        self.label = "mean_delay(T/Tc=%.6g, R=%.3g m, L=%.3g m)" % (theta, radius_m, half_length_m)

    def run(self):
        pinhole = slowlight.PinholeSpec(radius_mode="fixed", radius_m=self.radius_m,
                                        path_half_length_m=self.half_length_m)
        return slowlight.mean_delay(self.config, self.temperature, pinhole)

    def verify(self, result, ctx):
        verdict = Verdict()
        verdict.rows = 1
        verdict.problems += checks.finite_positive(self.label, {
            "mean_delay_s": result.mean_delay_s, "cloud_size_m": result.cloud_size_m})
        verdict.problems += checks.subluminal(self.label, result.group_velocity_m_s)
        covering = checks.COVERING_PATH_IN_THERMAL_LENGTHS * checks.thermal_length(self.config, self.temperature)
        if self.half_length_m >= covering:
            verdict.oracle.append(("delay", _thunk(
                checks.mean_delay, self.config, self.temperature, self.radius_m, result.mean_delay_s)))
        return verdict


def _thunk(fn, *args):
    return lambda: fn(*args)


def _wide_or_near(grid, u, v):
    if grid == "wide":
        return 0.2 + 0.4 * u, 2.0 + v
    t_min = 1.0 + 10.0 ** (-4.0 + u)
    return t_min, t_min + 0.02 + 0.08 * v


# sweep_trap cycle: (grid, pinhole, fc-mode, scale)
_TRAP_TABLE = (
    ("wide", "fixed", "paper", "linear"),
    ("wide", "fixed", "exact", "log"),
    ("wide", "fixed", "paper", "log"),
    ("wide", "fixed", "exact", "linear"),
    ("wide", "thermal", "paper", "linear"),
    ("wide", "thermal", "exact", "log"),
    ("near", "fixed", "paper", "log"),
    ("near", "fixed", "exact", "linear"),
)


def sweep_trap(rng, ctx):
    """``sweep`` on the trap geometry: wide grid 6/8, near-Tc grid 2/8;
    fixed pinhole 6/8, thermal 2/8; fc-mode paper 4/8, exact 4/8; linear and
    log scale 4/8 each; coupling over its whole range.

    Why: every row is a new temperature, so the trap fugacity bisection
    dominates (about 80% at baseline, 3 solves per row); the box Doppler
    series never runs here.
    """
    n = len(_TRAP_TABLE)
    u, v, coupling, radius = _bins(rng, n), _bins(rng, n), _bins(rng, n), _bins(rng, n)
    ops = []
    for i, j in enumerate(rng.permutation(n)):
        grid, pinhole, fc_mode, scale = _TRAP_TABLE[j]
        t_min, t_max = _wide_or_near(grid, u[i], v[i])
        ops.append(SweepOp("trap", t_min, t_max, scale, 0.3 + 0.7 * coupling[i], fc_mode=fc_mode,
                           radius_um=_log_between(5.0, 40.0, radius[i]) if pinhole == "fixed" else None))
    return ops


# sweep_box cycle: (mode, grid, scale)
_BOX_TABLE = (
    ("exact", "wide", "linear"),
    ("exact", "wide", "log"),
    ("exact", "wide", "linear"),
    ("exact", "wide", "log"),
    ("exact", "near", "linear"),
    ("exact", "near", "log"),
    ("asymptotic", "wide", "log"),
    ("asymptotic", "near", "linear"),
)


def sweep_box(rng, ctx):
    """``sweep --geometry box``: --mode exact 6/8 (4 wide, 2 near-Tc grids),
    asymptotic 2/8 (1 wide, 1 near-Tc); linear and log scale 4/8 each;
    coupling over its whole range.

    Why: it loads ``box_gas.thermal_response_series``, the Faddeeva arrays
    and the box fugacity solve, which is infinitely steep at Tc.  The
    asymptotic share takes the same thermodynamic path without the series, so
    a change to the series shows only on the exact share.
    """
    n = len(_BOX_TABLE)
    u, v, coupling = _bins(rng, n), _bins(rng, n), _bins(rng, n)
    ops = []
    for i, j in enumerate(rng.permutation(n)):
        mode, grid, scale = _BOX_TABLE[j]
        t_min, t_max = _wide_or_near(grid, u[i], v[i])
        ops.append(SweepOp("box", t_min, t_max, scale, 0.3 + 0.7 * coupling[i], mode=mode))
    return ops


# scan_chi cycle: T/Tc bins of the chi calls, one call per bin.  Tc is a bin
# edge because the fugacity solve is free below Tc and costliest just above,
# where the box bins are narrow to keep the cost of a cycle steady.
_CHI_BINS = {
    "trap": (0.3, 0.65, 1.0, 1.1, 1.25, 1.75, 2.25, 3.0),
    "box": (0.3, 0.65, 1.0, 1.05, 1.1, 1.15, 1.2, 1.5, 2.0, 3.0),
}


def scan_chi(rng, ctx):
    """``chi`` at fixed temperatures, 17 calls a cycle: 7 trap and 9 box
    calls, one per T/Tc bin of ``_CHI_BINS`` and uniform within it, and one
    ``tf`` call; coupling and tf draws as in ``coupling`` and ``tf draw``.

    Why: every point of one chi call shares its temperature, which today is
    re-solved for each of the 201 detunings, so per-temperature caching or
    hoisting shows here and barely on the sweeps.  It also covers
    ``eit_core.zeta`` across detuning and ``tf_model``.
    """
    n = sum(len(edges) - 1 for edges in _CHI_BINS.values()) + 1
    coupling = 0.3 + 0.7 * _bins(rng, n)
    ops = [TfOp(_log_between(1e6, 2e7, rng.random()), 2.0 + 1.5 * rng.random(), coupling[-1])]
    for kind, edges in _CHI_BINS.items():
        for lo, hi in zip(edges[:-1], edges[1:]):
            t_nk = (lo + (hi - lo) * rng.random()) * ctx.t_c[kind] * 1e9
            ops.append(ChiOp(kind, t_nk, coupling[len(ops) - 1]))
    return [ops[i] for i in rng.permutation(n)]


def delay_finite(rng, ctx):
    """Library ``mean_delay`` with a finite ``path_half_length_m``, 16 calls
    a cycle: below and above Tc, each with four short and four covering
    paths.  Within each of those four groups the q-th call (q = 0..3) draws
    T/Tc, the pinhole radius and L each from the q-th quarter of its range in
    ``finite path``, so every cycle has the same mix of costs.

    Why: the costliest path (64 radii x adaptive ``quad`` x scalar
    ``polylog``, 0.03-1.6 s per call).  No CLI flag reaches it, so without
    this workload the layer would go unmeasured.
    """
    config = ctx.configs["trap"]
    ops = []
    for side in ("below", "above"):
        for path in ("short", "covering"):
            for q in range(4):
                u_theta, u_radius, u_length = (q + rng.random(3)) / 4.0
                t_over_tc = 0.3 + 0.65 * u_theta if side == "below" else 1.05 + 1.95 * u_theta
                z_th = checks.thermal_length(config, t_over_tc * ctx.t_c["trap"])
                if path == "short":
                    half_length = _log_between(50e-6, 3.0 * z_th, u_length)
                else:
                    half_length = (5.0 + 2.0 * u_length) * z_th
                ops.append(DelayOp(ctx, t_over_tc, _log_between(5e-6, 40e-6, u_radius), half_length))
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {
    "sweep_trap": sweep_trap,
    "sweep_box": sweep_box,
    "scan_chi": scan_chi,
    "delay_finite": delay_finite,
}
