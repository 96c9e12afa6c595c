"""Command-line interface: formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import slowlight
import slowlight.box_gas
from slowlight import (
    C_M_S,
    FieldParams,
    GasResponse,
    PoleError,
    ValidityWarning,
    cli,
    gas_state,
    serialize_config,
    tc_box,
    tc_trap,
)
from slowlight.cli import DEFAULT_CONFIG_TEXT, main
from slowlight.units_params import _DOCUMENT_KEYS, _SCHEMA, _written

from _configs import DOC, box_config, detuned_config, temperature_for_doppler_a, trap_config

METADATA_RE = re.compile(r"^# config_sha256=[0-9a-f]{64} tool_version=0\.1\.0$")
FIELD_RE = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")
SWEEP_HEADER = "t_over_tc,temperature_k,fugacity,re_chi,im_chi,mean_delay_s,cloud_size_m,group_velocity_m_s"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text, header):
    lines = text.splitlines()
    assert METADATA_RE.match(lines[0])
    assert lines[1] == header
    rows = []
    for line in lines[2:]:
        fields = line.split(",")
        for field in fields:
            assert FIELD_RE.match(field), field
        rows.append([float(field) for field in fields])
    return rows


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "sweep" in capsys.readouterr().out
    assert main(["sweep", "--help"]) == 0
    assert "--t-points" in capsys.readouterr().out


def test_sweep_trap_csv(capsys):
    rc, out, err = run(capsys, ["sweep", "--t-min", "0.5", "--t-max", "2.0", "--t-points", "4"])
    assert rc == 0
    assert err == ""
    rows = parse_csv(out, SWEEP_HEADER)
    assert len(rows) == 4
    thetas = [row[0] for row in rows]
    assert thetas == sorted(thetas)
    assert abs(thetas[0] - 0.5) < 1e-10 and abs(thetas[-1] - 2.0) < 1e-10
    for theta, temperature, fugacity, re_chi, im_chi, delay, cloud, v_g in rows:
        assert abs(temperature / theta - rows[0][1] / rows[0][0]) < 1e-12
        assert 0.0 < fugacity <= 1.0
        assert im_chi > 0.0
        assert delay > 0.0
        assert cloud > 0.0
        assert 0.0 < v_g < C_M_S
        assert abs(v_g - cloud / delay) < 1e-11 * v_g


def test_sweep_box_csv(capsys):
    rc, out, err = run(capsys, ["sweep", "--geometry", "box", "--t-min", "0.5", "--t-max", "2.0", "--t-points", "3"])
    assert rc == 0
    rows = parse_csv(out, SWEEP_HEADER)
    for row in rows:
        assert row[5] == 0.0 and row[6] == 0.0  # no cloud traversal in a box
        assert 0.0 < row[7] < C_M_S


def test_sweep_deterministic(capsys):
    base = ["sweep", "--t-min", "0.5", "--t-max", "2.0", "--t-points", "4"]
    _, first, _ = run(capsys, base)
    _, second, _ = run(capsys, base)
    assert first == second


def _count_fugacity_solves(monkeypatch, capsys, argv):
    calls = []
    solve = slowlight.box_gas.fugacity_from_temperature

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(slowlight.box_gas, "fugacity_from_temperature", counted)
        rc, _, _ = run(capsys, argv)
    assert rc == 0
    return len(calls)


def test_one_fugacity_solve_per_temperature(monkeypatch, capsys):
    sweep = ["sweep", "--t-min", "1.1", "--t-max", "2.0", "--t-points", "10"]
    for extra in ([], ["--geometry", "box"], ["--geometry", "box", "--mode", "asymptotic"]):
        assert _count_fugacity_solves(monkeypatch, capsys, sweep + extra) == 10, extra
    for kind in ("trap", "box"):
        chi = ["chi", "--geometry", kind, "--temperature-nk", "500"]
        assert _count_fugacity_solves(monkeypatch, capsys, chi) == 1, kind


def test_chi_scan_computes_its_temperature_once(monkeypatch, capsys):
    # a 201-point chi computes the thermal prefactor and the Doppler width
    # once, and builds no FieldParams beyond the loaded one and the coupling
    # override; a trap sweep row builds one evaluator for chi and its delay
    counts = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    with monkeypatch.context() as patch:
        for name in ("thermal_series_prefactor", "doppler_width_param"):
            patch.setattr(slowlight.box_gas, name, counting(name, getattr(slowlight.box_gas, name)))
        patch.setattr(FieldParams, "__post_init__", counting("FieldParams", FieldParams.__post_init__))
        for kind in ("trap", "box"):
            for extra, constructions in (([], 1), (["--omega-coupling-gamma", "1.0"], 2)):
                counts.clear()
                rc, out, _ = run(capsys, ["chi", "--geometry", kind, "--temperature-nk", "200"] + extra)
                assert rc == 0 and len(out.splitlines()) == 2 + 201
                expected = {"thermal_series_prefactor": 1, "doppler_width_param": 1, "FieldParams": constructions}
                assert counts == expected, (kind, extra)
        counts.clear()
        rc, out, _ = run(capsys, ["sweep", "--t-points", "10"])
        assert rc == 0 and len(out.splitlines()) == 2 + 10
        assert counts == {"thermal_series_prefactor": 10, "doppler_width_param": 10, "FieldParams": 1}

    # nor does the polylog work of a state grow with the scan: from cleared
    # caches, 21 and 2001 detunings call polylog equally often, below and
    # above Tc (where the fugacity solve adds its own calls)
    polylog = slowlight.specfun.polylog
    with monkeypatch.context() as patch:
        for module in (slowlight.specfun, slowlight.box_gas):
            patch.setattr(module, "polylog", counting("polylog", polylog))
        for kind in ("trap", "box"):
            config = trap_config() if kind == "trap" else box_config()
            t_c = tc_trap(config.species, config.geometry) if kind == "trap" else tc_box(config.species, config.geometry.number_density_per_m3)
            for theta in (0.5, 1.5):
                made = []
                for points in ("21", "2001"):
                    for cache in (slowlight.box_gas._tail_polylogs, slowlight.specfun._polylog_tables, slowlight.specfun._start_table):
                        cache.cache_clear()
                    counts.clear()
                    argv = ["chi", "--geometry", kind, "--temperature-nk", repr(theta * t_c * 1e9), "--d-points", points]
                    rc, out, _ = run(capsys, argv)
                    assert rc == 0 and len(out.splitlines()) == 2 + int(points)
                    made.append(counts["polylog"])
                assert made[0] == made[1] > 0, (kind, theta, made)


def test_semiclassical_warning_once_per_row(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, _ = run(capsys, ["sweep", "--t-min", "0.05", "--t-max", "0.07", "--t-points", "3"])
    assert rc == 0
    semiclassical = [w for w in caught if "semiclassical statistics" in str(w.message)]
    assert len(semiclassical) == 3
    assert all(issubclass(w.category, ValidityWarning) for w in semiclassical)


def test_dense_trap_rows_warn_on_large_chi(tmp_path, capsys):
    # 100x the reference atom number puts |chi| at r = 0 above 0.1 on the
    # rows below Tc only
    path = tmp_path / "dense.cfg"
    path.write_text(DOC.replace("atom_count = 8.3e6", "atom_count = 8.3e8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, _ = run(capsys, ["sweep", "--config", str(path), "--t-min", "0.5", "--t-max", "1.5", "--t-points", "6"])
    assert rc == 0
    dense = [w for w in caught if "dilute-response" in str(w.message)]
    assert all(issubclass(w.category, ValidityWarning) for w in dense)
    chis = [abs(complex(row[3], row[4])) for row in parse_csv(out, SWEEP_HEADER)]
    large = [chi for chi in chis if chi >= 0.1]
    assert len(large) == 3
    assert [str(w.message) for w in dense] == [
        "|chi| = %.3g: beyond the dilute-response validity of the group-velocity formula" % chi for chi in large
    ]


def test_sweep_log_scale(capsys):
    base = ["sweep", "--geometry", "box", "--t-min", "0.5", "--t-max", "2.0", "--t-points", "3"]
    _, linear_out, _ = run(capsys, base)
    _, log_out, _ = run(capsys, base + ["--t-scale", "log"])
    linear_mid = parse_csv(linear_out, SWEEP_HEADER)[1][0]
    log_mid = parse_csv(log_out, SWEEP_HEADER)[1][0]
    assert abs(linear_mid - 1.25) < 1e-12
    assert abs(log_mid - 1.0) < 1e-12


def test_sweep_coupling_override(capsys):
    base = ["sweep", "--geometry", "box", "--t-min", "0.5", "--t-max", "1.5", "--t-points", "2"]
    _, weak, _ = run(capsys, base)
    _, strong, _ = run(capsys, base + ["--omega-coupling-gamma", "1.2"])
    v_weak = parse_csv(weak, SWEEP_HEADER)[0][7]
    v_strong = parse_csv(strong, SWEEP_HEADER)[0][7]
    assert v_strong > 2.0 * v_weak


def test_sweep_output_file(tmp_path, capsys):
    # --output writes exactly the bytes each subcommand prints, and prints nothing
    for name, argv in (
        ("sweep.csv", ["sweep", "--geometry", "box", "--t-points", "2", "--t-min", "0.5", "--t-max", "1.5"]),
        ("chi.csv", ["chi", "--temperature-nk", "200", "--d-points", "5"]),
        ("tf.json", ["tf", "--atom-count", "1e6"]),
    ):
        target = tmp_path / name
        rc, out, err = run(capsys, argv + ["--output", str(target)])
        assert (rc, out, err) == (0, "", ""), argv
        _, stdout_text, _ = run(capsys, argv)
        assert target.read_bytes() == stdout_text.encode("utf-8"), argv


def test_sweep_usage_errors(capsys):
    for argv in (
        ["sweep", "--t-points", "1"],
        ["sweep", "--t-min", "0.0"],
        ["sweep", "--t-min", "2.0", "--t-max", "1.0"],
        ["sweep", "--pinhole-radius-um", "-5.0"],
        ["sweep", "--t-points", "nope"],
        # every float flag refuses nan and +-inf before any row runs
        ["sweep", "--t-max", "inf"],
        ["sweep", "--t-min", "nan"],
        ["sweep", "--pinhole-radius-um", "inf"],
        ["sweep", "--omega-coupling-gamma", "-inf"],
    ):
        rc, _, err = run(capsys, argv)
        assert rc == 1, argv
        assert err.startswith("error:")


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(DOC + "geometry.kind = trap\n")
    rc, _, err = run(capsys, ["sweep", "--config", str(bad), "--t-points", "2"])
    assert rc == 1
    assert "duplicate key geometry.kind" in err
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text(DOC + "geometry.shape = round\n")
    rc, _, err = run(capsys, ["sweep", "--config", str(unknown), "--t-points", "2"])
    assert rc == 1
    assert "unknown keys" in err
    rc, _, err = run(capsys, ["sweep", "--config", str(tmp_path / "missing.cfg"), "--t-points", "2"])
    assert rc == 1
    assert err.startswith("error:")


# canonical key -> the document line that moves it about 10% off the default
# (geometry.kind only selects the branch, so it is not listed)
_PERTURBED_LINES = {
    "species.mass_kg": "species.mass_kg = 4.2e-26",
    "species.wavelength_ge_m": "species.wavelength_ge_m = 6.5e-7",
    "species.gamma_total": "species.gamma_total_hz = 1.08e7",
    "fields.omega_coupling": "fields.omega_coupling_hz = 6.0e6",
    "fields.omega_coupling_gamma": "fields.omega_coupling_gamma = 0.62",
    "fields.detuning_g0": "fields.detuning_g0_hz = 1.0e5",
    "fields.detuning_r0": "fields.detuning_r0_hz = 1.0e5",
    "fields.gamma_ge": "fields.gamma_ge_hz = 5.4e6",
    "fields.gamma_gr": "fields.gamma_gr_hz = 1100.0",
    "fields.k_g_per_m": "fields.k_g_per_m = 1.17e7",
    "geometry.number_density_per_m3": "geometry.number_density_per_m3 = 4.2e18",
    "geometry.nu_r": "geometry.nu_r_hz = 77.0",
    "geometry.nu_z": "geometry.nu_z_hz = 22.0",
    "geometry.atom_count": "geometry.atom_count = 9.1e6",
}
_KEY_PROBES = (
    ["sweep", "--t-points", "6"],
    ["sweep", "--geometry", "box", "--t-points", "6"],
    ["chi", "--temperature-nk", "200", "--d-points", "5"],
    ["chi", "--geometry", "box", "--temperature-nk", "200", "--d-points", "5"],
    ["tf"],
)


def _results(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 0, (argv, err)
    return [line for line in out.splitlines() if not line.startswith("# config_sha256=")]


def test_every_config_key_changes_an_output(tmp_path, capsys):
    # a key that no output reads is dead and belongs out of the schema
    assert set(_PERTURBED_LINES) == set(_SCHEMA) - {"geometry.kind"}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        defaults = [_results(capsys, argv) for argv in _KEY_PROBES]
        for key, line in _PERTURBED_LINES.items():
            doc_key = line.split(" = ")[0]
            kept = [old for old in DEFAULT_CONFIG_TEXT.splitlines() if not old.startswith(doc_key + " =")]
            path = tmp_path / "perturbed.cfg"
            path.write_text("\n".join(kept + [line]) + "\n")
            assert any(
                _results(capsys, argv + ["--config", str(path)]) != default
                for argv, default in zip(_KEY_PROBES, defaults)
            ), key


def test_config_file_geometry_override(tmp_path, capsys):
    # one document carries both geometries; the flag picks the branch
    path = tmp_path / "both.cfg"
    path.write_text(DOC)
    rc, box_out, _ = run(capsys, ["sweep", "--config", str(path), "--geometry", "box", "--t-points", "2", "--t-min", "0.5", "--t-max", "1.5"])
    assert rc == 0
    assert parse_csv(box_out, SWEEP_HEADER)[0][5] == 0.0
    rc, trap_out, _ = run(capsys, ["sweep", "--config", str(path), "--geometry", "trap", "--t-points", "2", "--t-min", "0.5", "--t-max", "1.5"])
    assert rc == 0
    assert parse_csv(trap_out, SWEEP_HEADER)[0][5] > 0.0


def test_sweep_physics_error_exit_code(tmp_path, capsys):
    # hot enough that the Doppler expansion parameter leaves the asymptotic domain
    config = detuned_config("box")
    path = tmp_path / "detuned.cfg"
    path.write_text(serialize_config(config))
    theta_hot = temperature_for_doppler_a(config, 0.25) / 1e-9  # way above any Tc
    rc, _, err = run(
        capsys,
        [
            "sweep", "--config", str(path), "--mode", "asymptotic",
            "--t-min", "3000", "--t-max", "4000", "--t-points", "3",
        ],
    )
    assert theta_hot > 0  # the regime exists
    assert rc == 2
    assert err.startswith("physics error:")
    assert "asymptotic expansion requires" in err
    assert "at t_over_tc=" in err
    # an overflow, a division by zero, a non-finite number or v_g outside
    # (0, c) in a row is a physics error that names the row
    for argv in (
        ["sweep", "--omega-coupling-gamma", "1e200"],
        ["sweep", "--geometry", "box", "--t-min", "1e-300", "--t-max", "1e-299", "--t-points", "2"],
        ["sweep", "--t-max", "1e200", "--t-points", "2"],
        ["sweep", "--geometry", "box", "--t-max", "1e200", "--t-points", "2"],
        ["sweep", "--pinhole-radius-um", "1e6"],
        ["sweep", "--pinhole-radius-um", "1e-7"],
    ):
        rc, out, err = run(capsys, argv)
        assert rc == 2, argv
        assert out == ""
        assert err.startswith("physics error: at t_over_tc="), err
    for argv in (
        ["chi", "--temperature-nk", "500", "--omega-coupling-gamma", "1e200"],
        ["chi", "--temperature-nk", "1e300"],
    ):
        rc, _, err = run(capsys, argv)
        assert rc == 2, argv
        assert err.startswith("physics error: at "), err


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    geometry=st.sampled_from(["trap", "box"]),
    log_thetas=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
    log_coupling=st.floats(-3.0, 3.0),
    log_radius_um=st.floats(-4.0, 4.0),
)
def test_sweep_rows_are_admissible_or_exit_2(geometry, log_thetas, log_coupling, log_radius_um):
    t_min, t_max = sorted(10.0**x for x in log_thetas)
    assume(t_max > t_min)
    argv = [
        "sweep", "--geometry", geometry, "--t-points", "3",
        "--t-min", repr(t_min), "--t-max", repr(t_max),
        "--omega-coupling-gamma", repr(10.0**log_coupling),
        "--pinhole-radius-um", repr(10.0**log_radius_um),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 2), argv
    if rc == 0:
        for row in parse_csv(out.getvalue(), SWEEP_HEADER):
            assert all(math.isfinite(value) for value in row), argv
            assert 0.0 < row[7] < C_M_S, argv
            if geometry == "trap":
                assert row[5] > 0.0, argv


# runs the CLI on each argv of argv[1] (JSON), with scipy and numpy
# unimportable when argv[2] is "block", and prints the (status, stdout) of
# each run and the scipy and numpy modules imported, as JSON
_CLI_RUNS = """\
import contextlib, io, json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = sys.modules["numpy"] = None
import slowlight, slowlight.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        runs.append([slowlight.cli.main(argv), out.getvalue()])
imported = {
    package: sorted(name for name, module in sys.modules.items() if name.split(".")[0] == package and module is not None)
    for package in ("scipy", "numpy")
}
print(json.dumps({"runs": runs, "imported": imported}))
"""


def _fresh_interpreter(code, *args):
    """stdout of code run with args in a fresh interpreter that imports this
    slowlight, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(slowlight.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("block", ["block", "allow"])
def test_default_path_imports_no_scipy(capsys, monkeypatch, block):
    # the width of --help follows COLUMNS, here and in the child
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        (["sweep"], 0),
        (["sweep", "--geometry", "box"], 0),
        (["sweep", "--geometry", "box", "--mode", "asymptotic"], 0),
        (["sweep", "--fc-mode", "exact", "--pinhole-thermal"], 0),
        (["chi", "--temperature-nk", "200"], 0),
        (["chi", "--geometry", "box", "--temperature-nk", "200"], 0),
        (["tf"], 0),
        (["--help"], 0),
        (["sweep", "--t-points", "1"], 1),
        (["tf", "--omega-coupling-gamma", "1e5"], 2),
    ]
    result = _fresh_interpreter(_CLI_RUNS, json.dumps([argv for argv, _ in argvs]), block)
    assert result["imported"] == {"scipy": [], "numpy": []}
    for (argv, status), (rc, out) in zip(argvs, result["runs"]):
        assert rc == status, argv
        assert out == run(capsys, argv)[1], argv


# a log-scale sweep and the calls that import numpy on first use (the
# finite-path delays, the exact head of the Doppler kernel), with the status,
# the stdout and the reprs of the results as JSON in `result`
_LAZY_CALLS = """\
import contextlib, io, json
import slowlight, slowlight.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    status = slowlight.cli.main(["sweep", "--t-scale", "log"])
config = slowlight.load_config(slowlight.cli.DEFAULT_CONFIG_TEXT)
t_c = slowlight.tc_trap(config.species, config.geometry)
finite = slowlight.PinholeSpec(radius_mode="fixed", radius_m=15e-6, path_half_length_m=1e-3)
values = [slowlight.mean_delay(config, theta * t_c, finite).mean_delay_s for theta in (0.6, 1.4)]
values.extend(slowlight.thermal_response_series(0.7, 3.0 + 1.0j, 1.0))
result = json.dumps([status, out.getvalue()] + [repr(value) for value in values])
"""


# the hashlib and json modules imported after --help, and after tf, as JSON
_CLI_IMPORTS = """\
import contextlib, io, sys
import slowlight.cli
imported = []
for argv in (["--help"], ["tf"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert slowlight.cli.main(argv) == 0
    imported.append(sorted(name for name in ("hashlib", "json") if name in sys.modules))
sys.stdout.write(repr(imported).replace("'", '"'))
"""


def test_help_and_tf_import_no_hashlib():
    # only the CSV writer hashes the config text, and only tf writes JSON
    assert _fresh_interpreter(_CLI_IMPORTS) == [[], ["json"]]


def test_help_builds_no_polylog_tables():
    # the per-order polylog tables and the fugacity start tables are built on
    # first use, not at import; tf and a chi below Tc (the trap's is about
    # 420 nK) solve no fugacity, and a sweep builds one start table
    code = (
        "import contextlib, io\n"
        "import slowlight.cli\n"
        "from slowlight import specfun\n"
        "built = []\n"
        "for argv in (['--help'], ['tf'], ['chi', '--temperature-nk', '200'], ['sweep']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert slowlight.cli.main(argv) == 0\n"
        "    built.append([f.cache_info().currsize for f in (specfun._polylog_tables, specfun._start_table)])\n"
        "print(built)\n"
    )
    built = _fresh_interpreter(code)
    assert built[0] == [0, 0]
    assert [start for _, start in built] == [0, 0, 0, 1]


def test_lazy_numpy_imports_work_from_cold():
    namespace = {}
    exec(_LAZY_CALLS, namespace)
    assert _fresh_interpreter(_LAZY_CALLS + "print(result)\n") == json.loads(namespace["result"])


def test_chi_scan_csv(capsys):
    rc, out, err = run(
        capsys,
        ["chi", "--temperature-nk", "500", "--d-points", "5", "--d-min-gamma", "-2", "--d-max-gamma", "2"],
    )
    assert rc == 0
    rows = parse_csv(out, "detuning_gamma,detuning_rad_s,re_chi,im_chi")
    assert len(rows) == 5
    assert [row[0] for row in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    gamma = rows[1][1] / rows[1][0]
    assert abs(gamma - 2.0 * math.pi * 9.79e6) < 1.0
    # transparency dip on resonance, absorption on either side
    center = rows[2][3]
    assert center < 0.01 * rows[1][3]
    assert center < 0.01 * rows[3][3]
    assert all(row[3] > 0.0 for row in rows)


def test_chi_scan_without_coupling(capsys):
    argv = ["chi", "--temperature-nk", "500", "--d-points", "5", "--d-min-gamma", "-2", "--d-max-gamma", "2"]
    _, eit_out, _ = run(capsys, argv)
    _, bare_out, _ = run(capsys, argv + ["--omega-coupling-gamma", "0.0"])
    eit_rows = parse_csv(eit_out, "detuning_gamma,detuning_rad_s,re_chi,im_chi")
    bare_rows = parse_csv(bare_out, "detuning_gamma,detuning_rad_s,re_chi,im_chi")
    # without the coupling field the dip becomes the absorption maximum
    assert bare_rows[2][3] > bare_rows[1][3] > bare_rows[0][3]
    assert bare_rows[2][3] > 100.0 * eit_rows[2][3]


def test_chi_dark_state_row(tmp_path, capsys):
    path = tmp_path / "dark.cfg"
    path.write_text(DOC + "fields.gamma_gr_rad = 0.0\n")
    rc, out, err = run(
        capsys,
        ["chi", "--config", str(path), "--temperature-nk", "500", "--d-points", "5", "--d-min-gamma", "-2", "--d-max-gamma", "2"],
    )
    assert rc == 0
    rows = parse_csv(out, "detuning_gamma,detuning_rad_s,re_chi,im_chi")
    # the removable singularity on the two-photon resonance reports chi = 0
    assert rows[2][2] == 0.0 and rows[2][3] == 0.0
    assert rows[1][3] > 0.0 and rows[3][3] > 0.0


def test_chi_pole_in_the_middle_row_names_that_row(tmp_path, capsys):
    # a small nonzero Gamma_gr puts the middle detuning inside the EIT pole's
    # guard band: the error names that row, and no row is written
    path = tmp_path / "narrow.cfg"
    path.write_text(DOC + "fields.gamma_gr_rad = 1.0\n")
    for kind in ("trap", "box"):
        argv = ["chi", "--config", str(path), "--geometry", kind, "--temperature-nk", "500", "--d-points", "5"]
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (2, ""), kind
        assert err.startswith("physics error: at detuning=0 gamma (T=5e-07 K): EIT term pole: "), err


def _single_point_fields(config, temperature, d_min, d_max, points):
    """The CSV fields re_chi, im_chi of GasResponse(state, fields)(detuning),
    a new response at each detuning of the chi grid d_min..d_max (in gamma)
    of so many points."""
    state = gas_state(config, temperature)
    detunings = [d * config.species.gamma_total_rad_s for d in cli._linspace(d_min, d_max, points)]
    chis = [GasResponse(state, config.fields)(d).chi for d in detunings]
    return [["%.11e" % value for value in (chi.real, chi.imag)] for chi in chis]


def test_chi_dark_row_then_the_rows_after_it(tmp_path, capsys):
    # Gamma_gr = 0: the resonance row of a 5-point scan is 0, and the two rows
    # after it are still the single-point responses
    path = tmp_path / "dark.cfg"
    path.write_text(DOC + "fields.gamma_gr_rad = 0.0\n")
    config = slowlight.load_config(path.read_text())
    rc, out, _ = run(capsys, ["chi", "--config", str(path), "--temperature-nk", "500", "--d-points", "5"])
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert len(rows) == 5
    assert [float(x) for x in rows[2]] == [0.0, 0.0, 0.0, 0.0]
    assert [row[2:] for row in rows[3:]] == _single_point_fields(config, 5e-7, 1.0, 2.0, 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(["trap", "box"]),
    theta=st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 5.0)),
    coupling_gamma=st.floats(0.0, 3.0),
    span=st.floats(0.1, 4.0),
    exact_head=st.booleans(),
)
def test_chi_rows_are_the_single_point_responses(tmp_path_factory, geometry, theta, coupling_gamma, span, exact_head):
    # every chi row prints GasResponse(state, fields)(detuning) in both
    # geometries, above and below Tc.  At 1000 times the probe wave number a
    # scan from 20 gamma off the recoil-shifted line starts with |zeta/A| < 70,
    # where the kernel runs exact Faddeeva terms before its tail, and its wider
    # spans reach the tail from l = 1: tail polylogs of two heads in one scan
    config = box_config() if geometry == "box" else trap_config()
    gamma = config.species.gamma_total_rad_s
    fields = replace(config.fields, omega_coupling_rad_s=coupling_gamma * gamma)
    d_min, d_max = -span, span
    if exact_head:
        fields = replace(fields, k_g_per_m=1000.0 * fields.k_g_per_m)
        d_min = 20.0 - slowlight.recoil_frequency(config.species, fields) / gamma
        d_max = d_min + 40.0 * span
    config = replace(config, fields=fields)
    if geometry == "box":
        t_c = tc_box(config.species, config.geometry.number_density_per_m3)
    else:
        t_c = tc_trap(config.species, config.geometry)
    t_nk = theta * t_c * 1e9
    path = tmp_path_factory.mktemp("scan") / "scan.cfg"
    path.write_text(serialize_config(config))
    argv = ["chi", "--config", str(path), "--temperature-nk", repr(t_nk), "--d-points", "7",
            "--d-min-gamma", repr(d_min), "--d-max-gamma", repr(d_max)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        single = _single_point_fields(config, t_nk * 1e-9, d_min, d_max, 7)
        response = GasResponse(gas_state(config, t_nk * 1e-9), config.fields)
    assert [line.split(",")[2:] for line in out.getvalue().splitlines()[2:]] == single
    assert (abs(response.zeta_at(d_min * gamma).value / response.a_param) < 70.0) == exact_head


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    geometry=st.sampled_from(["trap", "box"]),
    theta=st.floats(0.3, 3.0),
    coupling_gamma=st.floats(0.0, 2.0),
    detuning_gamma=st.floats(-3.0, 3.0),
    radius_um=st.floats(0.0, 30.0),
)
def test_scan_response_is_the_single_point_response(
    tmp_path_factory, geometry, theta, coupling_gamma, detuning_gamma, radius_um
):
    # the per-detuning stage of a scan gives, bit for bit, the response of
    # fields that carry the detuning, and the CLI's transparency-limit row
    # (Gamma_gr = 0 on the two-photon resonance) stays 0
    config = box_config() if geometry == "box" else trap_config()
    gamma = config.species.gamma_total_rad_s
    fields = replace(config.fields, omega_coupling_rad_s=coupling_gamma * gamma)
    if geometry == "box":
        t_c, r = tc_box(config.species, config.geometry.number_density_per_m3), 0.0
    else:
        t_c, r = tc_trap(config.species, config.geometry), radius_um * 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        state = gas_state(config, theta * t_c)
    detuning = detuning_gamma * gamma
    point = replace(fields, detuning_g0_rad_s=detuning)
    # called without a detuning, the evaluator takes the fields' own
    single = GasResponse(state, point, r)()
    scanned = GasResponse(state, fields, r)(detuning)
    assert repr((scanned.chi, scanned.dchi_domega)) == repr((single.chi, single.dchi_domega))

    if coupling_gamma == 0.0:
        return
    dark = replace(fields, gamma_gr_rad_s=0.0)
    with pytest.raises(PoleError):
        GasResponse(state, dark, r)(dark.detuning_r0_rad_s)
    path = tmp_path_factory.mktemp("dark") / "dark.cfg"
    path.write_text(serialize_config(replace(config, fields=dark)))
    span = repr(abs(detuning_gamma) + 0.5)
    argv = ["chi", "--config", str(path), "--temperature-nk", repr(theta * t_c * 1e9), "--d-points", "3",
            "--d-min-gamma", "-" + span, "--d-max-gamma", span]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
    rows = parse_csv(out.getvalue(), "detuning_gamma,detuning_rad_s,re_chi,im_chi")
    assert rows[1] == [0.0, 0.0, 0.0, 0.0]


def test_chi_usage_errors(capsys):
    for argv in (
        ["chi", "--temperature-nk", "500", "--d-points", "1"],
        ["chi", "--temperature-nk", "500", "--d-min-gamma", "2", "--d-max-gamma", "-2"],
        ["chi", "--temperature-nk", "-5"],
        ["chi"],
        ["chi", "--temperature-nk", "500", "--d-max-gamma", "inf"],
        ["chi", "--temperature-nk", "500", "--d-min-gamma", "-inf"],
        ["chi", "--temperature-nk", "nan"],
        ["chi", "--temperature-nk", "200", "--omega-coupling-gamma", "nan"],
    ):
        rc, _, err = run(capsys, argv)
        assert rc == 1, argv
        assert err.startswith("error:")


def test_negative_flag_values_in_exponent_notation(capsys):
    base = ["chi", "--temperature-nk", "200", "--d-max-gamma", "1"]
    rc, decimal, err = run(capsys, base + ["--d-min-gamma", "-0.1"])
    assert rc == 0 and err == ""
    for text in ("-1e-1", "-1E-1", "-.1e0", "-0.01e+1"):
        assert run(capsys, base + ["--d-min-gamma", text]) == (0, decimal, ""), text
    # the value reaches the config check, not argparse, in every subcommand
    for argv in (["sweep"], ["chi", "--temperature-nk", "200"], ["tf"]):
        rc, out, err = run(capsys, argv + ["--omega-coupling-gamma", "-2e0"])
        assert (rc, out) == (1, ""), argv
        assert err == "error: fields.omega_coupling_rad must be nonnegative\n", argv
    # a dash word that is no number is still an option, and an unknown one
    # is a usage error
    for argv, message in (
        (base + ["--d-min-gamma", "-x"], "argument --d-min-gamma: expected one argument"),
        (base + ["--d-min-gamma", "-1e"], "argument --d-min-gamma: expected one argument"),
        (base + ["--bogus"], "unrecognized arguments: --bogus"),
        (base + ["-x"], "unrecognized arguments: -x"),
    ):
        rc, out, err = run(capsys, argv)
        assert rc == 1, argv
        assert out == ""
        assert err == "error: %s\n" % message, argv


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argvs = (
        (["sweep", "--fc-mode", "exact", "--pinhole-thermal"], 0),
        (["sweep"], 0),
        (["sweep", "--t-points", "1"], 1),
        (["--help"], 0),
        (["chi", "--d-points", "5"], 1),
        (["chi", "--temperature-nk", "200", "--d-points", "5"], 0),
        (["chi", "--temperature-nk", "200"], 0),
        (["tf", "--atom-count", "1e6"], 0),
        (["tf"], 0),
    )
    cli._build_parser.cache_clear()
    reused = [run(capsys, argv)[:2] for argv, _ in argvs]
    assert cli._build_parser.cache_info().misses == 1
    assert [rc for rc, _ in reused] == [status for _, status in argvs]
    for (argv, _), result in zip(argvs, reused):
        cli._build_parser.cache_clear()
        assert run(capsys, argv)[:2] == result, argv


def test_linear_grid_is_numpy_linspace():
    # the sweep and chi grids are numpy's linspace arithmetic, without numpy
    rng = np.random.default_rng(13)
    cases = [(-2.0, 2.0, 201), (0.2, 2.0, 50), (0.2, 2.0, 200), (0.99, 1.01, 101), (-1e-1, 1.0, 2), (5e-324, 1e-323, 49)]
    for _ in range(2000):
        a, b = sorted(rng.uniform(-10.0, 10.0, 2) * 10.0 ** rng.integers(-6, 6, 2))
        cases.append((float(a), float(b), int(rng.integers(2, 400))))
    for a, b, n in cases:
        assert cli._linspace(a, b, n) == np.linspace(a, b, n).tolist(), (a, b, n)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["sweep", "--geometry", "box", "--t-points", "200"]) == 0
    thetas = [float(line.split(",")[0]) for line in out.getvalue().splitlines()[2:]]
    assert thetas == [float("%.11e" % theta) for theta in np.linspace(0.2, 2.0, 200)]


def test_tf_json(capsys):
    rc, out, err = run(capsys, ["tf", "--atom-count", "1e6"])
    assert rc == 0
    result = json.loads(out)
    assert sorted(result) == ["a0_r", "a0_z", "mu", "n_ideal", "n_tf", "r_tf_r", "r_tf_z", "vg_ideal", "vg_tf"]
    assert all(value > 0.0 for value in result.values())
    assert result["vg_tf"] > result["vg_ideal"]
    assert result["r_tf_r"] < result["r_tf_z"]
    assert result["a0_r"] < result["a0_z"]
    assert result["n_tf"] < result["n_ideal"]
    # serialization is deterministic
    _, again, _ = run(capsys, ["tf", "--atom-count", "1e6"])
    assert again == out


def test_tf_group_velocities_are_admissible_or_exit_2(capsys):
    # Omega^2 overflows at 1e200 gamma, Omega itself is inf at 1e305 gamma,
    # at 1e5 gamma the Thomas-Fermi estimate is faster than light, the
    # Thomas-Fermi scales of 5e-324 atoms underflow to 0, and the ideal-gas
    # density of 1e308 atoms overflows
    for flags, message in (
        (["--omega-coupling-gamma", "1e200"], "Omega^2 overflows at Omega = 6.15e+207 rad/s"),
        (["--omega-coupling-gamma", "1e305"], "vg_ideal = inf m/s is not in (0, c)"),
        (["--omega-coupling-gamma", "1e5"], "vg_tf = 1.17413e+11 m/s is not in (0, c)"),
        (
            ["--atom-count", "5e-324"],
            "the Thomas-Fermi scale leaves the floating-point range at N = 4.94e-324 (mu = 0, R_r = 0, R_z = 0)",
        ),
        (["--atom-count", "1e308"], "the ideal-gas density leaves the floating-point range at N = 1e+308 (n = inf)"),
    ):
        rc, out, err = run(capsys, ["tf"] + flags)
        assert rc == 2, flags
        assert out == ""
        assert err == "physics error: tf estimate: %s\n" % message


# sha256 of stdout of each default-path command: a change that moves any of
# these outputs by one printed digit must update the digest on purpose
_PINNED_STDOUT = (
    (["sweep"], "40e71e65b4ff1bbbc0feaea828f9b89c4f3e51940a4a8aba0fde3fd35c770c36"),
    (["sweep", "--geometry", "box"], "59ca4876f615eaae4ddc7da5f1e91a6572164649eaa9bd0762885edd806cb1d8"),
    (["sweep", "--geometry", "box", "--t-points", "200"],
     "3498b9cb14401f7f66a235724bfbf1bfa7843e7bb45d60f0b3296ce770f7cd76"),
    (["sweep", "--fc-mode", "exact", "--pinhole-thermal"],
     "abf3f8d7256c31cbee1b5915a65ccd5881ef9cfcd89552dbaf83a7e96f92f44d"),
    (["sweep", "--geometry", "box", "--t-min", "0.99", "--t-max", "1.01", "--t-points", "101"],
     "55d676f910f829b850cea004ad2977d13cc490d4428d7cef5df5adc74c077b1e"),
    (["sweep", "--geometry", "box", "--mode", "asymptotic", "--t-scale", "log"],
     "69d556eefeb36fc8d2b4b0058935f51f096167bcf7c9913c0359547eae8d61f4"),
    (["chi", "--geometry", "box", "--temperature-nk", "200"],
     "02368c8a7c9aefb2af6120e30352e4de4965a1545e06248801e6912680c370cc"),
    (["chi", "--geometry", "box", "--temperature-nk", "500", "--omega-coupling-gamma", "0"],
     "7024541b52800037d4d6f4f4a3478e48bae45a678a5f0a015cebc5fc51144f56"),
    (["chi", "--temperature-nk", "200"], "5d01e02cb9c5c7f0bc6b920f09b857467243158211f9be2a9fc914c851554a03"),
    (["chi", "--temperature-nk", "500", "--omega-coupling-gamma", "0"],
     "ed6dc649c8dd0050d8e84b03e804cdd01d82b769db17614aeccecc6560617b4c"),
    (["tf"], "456ff43fd30c6d743437635848d28f2d7445b11f2b76b5cdb5466d6c222c307e"),
    # far above Tc, where every fugacity starts from the interpolated table
    (["sweep", "--geometry", "box", "--t-min", "1.5", "--t-max", "1000", "--t-scale", "log"],
     "155a5961e12ba9fdb5881d5abb8b552d27759bc441aaee84f781aa269608b7ac"),
    (["sweep", "--t-min", "1.1", "--t-max", "100", "--t-scale", "log"],
     "fc69be3407b856a7573a9e381f9f4c8a661bdd503c01975510b2f21a4ca7cc48"),
)


@pytest.mark.parametrize("argv, digest", _PINNED_STDOUT, ids=[" ".join(argv) for argv, _ in _PINNED_STDOUT])
def test_default_outputs_are_pinned(capsys, argv, digest):
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the whole stderr of chi runs that fail in the first row: a fault of the
# temperature alone names that row just as a fault of its detuning does
_PINNED_CHI_ERRORS = (
    (["--temperature-nk", "1e300"],
     "at detuning=-2 gamma (T=1e+291 K): the susceptibility chi = (nan+nanj) "
     "(dchi/domega = (nan+nanj)) is not finite at T = 1e+291 K"),
    (["--temperature-nk", "500", "--omega-coupling-gamma", "1e200"],
     "at detuning=-2 gamma (T=5e-07 K): zeta leaves the floating-point range at T = 5e-07 K "
     "((34, 'Numerical result out of range'))"),
    (["--temperature-nk", "1e-300"],
     "at detuning=-2 gamma (T=1e-309 K): beta = 1/(K_B T) leaves the floating-point range "
     "at T = 1e-309 K (K_B T = 0.0 J)"),
    (["--geometry", "box", "--temperature-nk", "1e300"],
     "at detuning=-2 gamma (T=1e+291 K): the susceptibility chi = (nan+nanj) "
     "(dchi/domega = (nan+nanj)) is not finite at T = 1e+291 K"),
    (["--geometry", "box", "--temperature-nk", "1e-298"],
     "at detuning=-2 gamma (T=1e-307 K): the thermal prefactor chi0 (2 m K_B T/hbar^2)^{3/2}/(8 pi A) "
     "leaves the floating-point range at T = 1e-307 K (complex division by zero)"),
)


@pytest.mark.parametrize("flags, message", _PINNED_CHI_ERRORS, ids=[" ".join(flags) for flags, _ in _PINNED_CHI_ERRORS])
def test_chi_error_messages_are_pinned(capsys, flags, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        rc, out, err = run(capsys, ["chi"] + flags)
    assert (rc, out) == (2, "")
    assert err == "physics error: %s\n" % message


@pytest.mark.parametrize(
    "doc, flags, rc, err",
    [
        # T/Tc = 2e101 in the trap: every chi is 0
        (None, ["--temperature-nk", "1e111"], 0, ""),
        # Tc = 6.5e-224 K in a box of m = 1e191 kg: the thermal prefactor overflows
        (
            "geometry.kind = box\ngeometry.number_density_per_m3 = 3.8e18\nspecies.mass_kg = 1e+191\n",
            ["--temperature-nk", "200"],
            2,
            "physics error: at detuning=-2 gamma (T=2e-07 K): the thermal prefactor chi0 (2 m K_B T/hbar^2)^{3/2}/(8 pi A) "
            "leaves the floating-point range at T = 2e-07 K ((34, 'Numerical result out of range'))\n",
        ),
    ],
    ids=["trap-hot", "box-heavy"],
)
def test_chi_where_alpha_is_inf(tmp_path, capsys, doc, flags, rc, err):
    # g_nu(1) (Tc/T)^nu underflows to 0, so alpha = -ln f is inf: the row is an
    # empty thermal cloud or the named fault of another quantity
    argv = ["chi", "--d-points", "3"] + flags
    if doc is not None:
        path = tmp_path / "hot.cfg"
        path.write_text(doc)
        argv += ["--config", str(path)]
    config = slowlight.load_config(DEFAULT_CONFIG_TEXT if doc is None else doc)
    assert gas_state(config, float(flags[1]) * 1e-9).alpha == math.inf
    got_rc, out, got_err = run(capsys, argv)
    assert (got_rc, got_err) == (rc, err)
    if rc == 0:
        rows = parse_csv(out, "detuning_gamma,detuning_rad_s,re_chi,im_chi")
        assert len(rows) == 3 and all(row[2] == row[3] == 0.0 for row in rows)


def test_sweep_mode_applies_to_trap_rows(tmp_path, capsys):
    # the two-level point two half-widths off resonance (normal dispersion,
    # so v_g > 0) with a probe wave number 10x the sodium one: |zeta/A| is
    # 30 at 1.5 Tc, where the kernel's (A/zeta)^4 terms show in every row
    config = detuned_config("trap", k_g_per_m=10.0 * trap_config().fields.k_g_per_m)
    fields = config.fields
    config = replace(config, fields=replace(fields, detuning_g0_rad_s=fields.detuning_g0_rad_s - 2.0 * fields.gamma_ge_rad_s))
    path = tmp_path / "slow.cfg"
    path.write_text(serialize_config(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for extra, all_rows_move in ((["--config", str(path)], True), ([], False)):
            _, exact, _ = run(capsys, ["sweep", "--mode", "exact"] + extra)
            _, asymptotic, _ = run(capsys, ["sweep", "--mode", "asymptotic"] + extra)
            exact_rows = parse_csv(exact, SWEEP_HEADER)
            asymptotic_rows = parse_csv(asymptotic, SWEEP_HEADER)
            assert len(exact_rows) == len(asymptotic_rows) == 50
            if all_rows_move:
                assert all(a[5] != b[5] and a[7] != b[7] for a, b in zip(exact_rows, asymptotic_rows))
            else:
                # at the sodium EIT defaults |zeta/A| ~ 2e5: the two coincide
                assert exact == asymptotic


def test_float_range_faults_of_the_trap_and_species_exit_2(tmp_path, capsys):
    # nu_z nu_r^2 overflows (nu_r = 1e308) or underflows to 0, so Tc has no
    # mean trap frequency; m K_B underflows at m = 3.5e-308 kg, so a box has
    # no Tc; lambda^3 of chi0 overflows at lambda = 1e200 m.  In tf, |d|^2 of
    # chi0 underflows to 0 at lambda = 1e-300 m, m nu_z^2 of R_z underflows
    # to 0 at nu_z = 1e-150 rad/s and overflows at 1e200 rad/s, and the
    # ground-state volume a0_r^2 a0_z underflows at m = 9.7e255 kg
    trap = "geometry.kind = trap\ngeometry.atom_count = 8.3e6\n"
    tf_trap = trap + "geometry.nu_r_hz = 70.0\n"
    for doc, argvs, message in (
        (
            trap + "geometry.nu_r_rad = 1e308\ngeometry.nu_z_hz = 20.0\n",
            (["sweep"], ["chi", "--temperature-nk", "200"]),
            "nu_bar = (nu_z nu_r^2)^{1/3} leaves the floating-point range at nu_r = 1e+308, nu_z = 126 rad/s",
        ),
        (
            trap + "geometry.nu_r_rad = 1e-300\ngeometry.nu_z_rad = 1e-300\n",
            (["sweep"],),
            "nu_bar = (nu_z nu_r^2)^{1/3} leaves the floating-point range at nu_r = 1e-300, nu_z = 1e-300 rad/s",
        ),
        (DOC + "species.wavelength_ge_m = 1e200\n", (["tf"],), "tf estimate: chi0 = 3 lambda^3 / 32 pi^3 overflows at lambda = 1e+200 m"),
        (
            "geometry.kind = box\ngeometry.number_density_per_m3 = 3.8e18\nspecies.mass_kg = 3.5e-308\n",
            (["sweep"], ["chi", "--temperature-nk", "200"]),
            "Tc leaves the floating-point range at m = 3.5e-308 kg, n = 3.8e+18 m^-3",
        ),
        (
            DOC + "species.wavelength_ge_m = 1e-300\n",
            (["tf"],),
            "tf estimate: 8 pi omega n |d|^2 leaves the floating-point range at n = 6.73e+22 m^-3, |d|^2 = 0",
        ),
        (
            tf_trap + "geometry.nu_z_rad = 1e-150\n",
            (["tf"],),
            "tf estimate: the Thomas-Fermi scale leaves the floating-point range at N = 8.3e+06 (float division by zero)",
        ),
        (
            tf_trap + "geometry.nu_z_rad = 1e200\n",
            (["tf"],),
            "tf estimate: the Thomas-Fermi scale leaves the floating-point range at N = 8.3e+06 "
            "((34, 'Numerical result out of range'))",
        ),
        (
            DOC + "species.mass_kg = 9.7e255\n",
            (["tf"],),
            "tf estimate: the ideal-gas density leaves the floating-point range at N = 8.3e+06 (float division by zero)",
        ),
    ):
        path = tmp_path / "range.cfg"
        path.write_text(doc)
        for argv in argvs:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ValidityWarning)
                rc, out, err = run(capsys, argv + ["--config", str(path)])
            assert (rc, out) == (2, ""), argv
            where = "at T=2e-07 K: " if argv[0] == "chi" else ""
            assert err == "physics error: %s%s\n" % (where, message), argv


def test_pinhole_area_beyond_the_float_range_names_r_and_t(capsys):
    # R = 1e294 m squares past the float range on either path
    message = "the pinhole section pi R^2 leaves the floating-point range at R = 1e+294 m, T = %s K"
    rc, out, err = run(capsys, ["sweep", "--pinhole-radius-um", "1e300"])
    assert (rc, out) == (2, "")
    assert err == "physics error: at t_over_tc=0.2 (T=8.4268e-08 K): %s\n" % (message % "8.43e-08")
    config = trap_config()
    t = 1.5 * slowlight.tc_trap(config.species, config.geometry)
    pinhole = slowlight.PinholeSpec(radius_mode="fixed", radius_m=1e294, path_half_length_m=1e-4)
    with pytest.raises(slowlight.DomainError, match=re.escape(message % ("%.3g" % t))):
        slowlight.mean_delay(config, t, pinhole)


def test_condensate_term_beyond_the_float_range_is_a_domain_error(tmp_path, capsys):
    # at m = 1e-300 kg the recoil makes zeta^2 of the box condensate term overflow
    path = tmp_path / "light.cfg"
    path.write_text("geometry.kind = box\ngeometry.number_density_per_m3 = 3.8e18\nspecies.mass_kg = 1e-300\n")
    message = "the condensate response leaves the floating-point range at T = 2e-07 K (complex exponentiation)"
    config = slowlight.load_config(path.read_text())
    with pytest.raises(slowlight.DomainError, match=re.escape(message)):
        GasResponse(gas_state(config, 2e-7), config.fields)()
    rc, out, err = run(capsys, ["chi", "--temperature-nk", "200", "--config", str(path)])
    assert (rc, out, err) == (2, "", "physics error: at detuning=-2 gamma (T=2e-07 K): %s\n" % message)


# every bounded schema key, and the two detunings, which take either sign
_FUZZED_KEYS = [key for key, row in _SCHEMA.items() if row[2]] + ["fields.detuning_g0", "fields.detuning_r0"]
_FUZZ_RUNS = (
    ["sweep", "--t-points", "3"],
    ["sweep", "--geometry", "box", "--t-points", "3"],
    ["chi", "--temperature-nk", "200", "--d-points", "3"],
    ["chi", "--geometry", "box", "--temperature-nk", "200", "--d-points", "3"],
    ["tf"],
)


@st.composite
def _fuzzed_lines(draw):
    """1-2 schema keys, each log-uniform over 1e-320..1e308 within its bound,
    as document lines."""
    lines = []
    for key in draw(st.lists(st.sampled_from(_FUZZED_KEYS), min_size=1, max_size=2, unique=True)):
        bound = _SCHEMA[key][2]
        value = 10.0 ** draw(st.floats(0.0 if bound == "at least 1" else -320.0, 308.0))
        if bound is None and draw(st.booleans()):
            value = -value
        lines.append("%s = %r" % (_written(key), value))
    return lines


def _assert_exits_cleanly(argv, context):
    """main(argv) exits 0, 1 or 2 with nothing escaping it, prints no nan or
    inf, and an arithmetic fault anywhere names the quantity that left the
    float range: cli._annotate's generic "<Exception>: ..." branch never fires."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2), (context, argv)
    assert not re.search("nan|inf", out.getvalue(), re.IGNORECASE), (context, argv)
    if rc == 2:
        message = err.getvalue().removeprefix("physics error: ")
        if message.startswith(("at ", "tf estimate: ")):
            message = message.split(": ", 1)[1]
        assert "Error: " not in message, (context, argv, err.getvalue())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lines=_fuzzed_lines())
def test_extreme_documents_exit_cleanly_with_named_quantities(lines):
    keys = {_DOCUMENT_KEYS[line.split(" = ")[0]][0] for line in lines}
    kept = [line for line in DEFAULT_CONFIG_TEXT.splitlines() if _DOCUMENT_KEYS.get(line.split(" = ")[0], (None,))[0] not in keys]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "extreme.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(kept + lines) + "\n")
        for argv in _FUZZ_RUNS:
            _assert_exits_cleanly(argv + ["--config", path], lines)


# every float flag of each subcommand; the detunings take either sign
_FUZZED_FLAGS = {
    "sweep": ("--omega-coupling-gamma", "--t-min", "--t-max", "--pinhole-radius-um"),
    "chi": ("--omega-coupling-gamma", "--temperature-nk", "--d-min-gamma", "--d-max-gamma"),
    "tf": ("--omega-coupling-gamma", "--atom-count", "--scattering-length-nm"),
}


@st.composite
def _fuzzed_argv(draw):
    """One run of _FUZZ_RUNS with 1-2 of its float flags, each log-uniform
    over 1e-320..1e308."""
    argv = list(draw(st.sampled_from(_FUZZ_RUNS)))
    for flag in draw(st.lists(st.sampled_from(_FUZZED_FLAGS[argv[0]]), min_size=1, max_size=2, unique=True)):
        value = 10.0 ** draw(st.floats(-320.0, 308.0))
        if flag.startswith("--d-") and draw(st.booleans()):
            value = -value
        argv += [flag, repr(value)]
    return argv


@settings(derandomize=True, max_examples=60, deadline=None)
@given(argv=_fuzzed_argv())
def test_extreme_flags_exit_cleanly_with_named_quantities(argv):
    _assert_exits_cleanly(argv, "flags")


def test_tf_usage_errors(capsys):
    rc, _, err = run(capsys, ["tf", "--geometry", "box"])
    assert rc == 1
    assert "tf requires a harmonic-trap geometry" in err
    rc, _, err = run(capsys, ["tf", "--atom-count", "0"])
    assert rc == 1
    assert "--atom-count must be positive" in err
    rc, _, err = run(capsys, ["tf", "--scattering-length-nm", "0"])
    assert rc == 1
    assert "--scattering-length-nm must be positive" in err
    for argv in (
        ["tf", "--atom-count", "inf"],
        ["tf", "--scattering-length-nm", "inf"],
        ["tf", "--omega-coupling-gamma", "nan"],
    ):
        rc, out, err = run(capsys, argv)
        assert rc == 1, argv
        assert out == ""
        assert err.startswith("error: argument %s: expected a finite number" % argv[1]), err
