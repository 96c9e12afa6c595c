"""Benchmark of the slowlight CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S --trace 0|1]

Runs one workload of ``bench/workloads.py`` from the root of a checkout,
against the package in ``src/``, in one process: a closed loop with one
client, calling ``slowlight.cli.main(argv)`` or the library directly on
inputs generated from ``--seed``.  The loop runs the whole number of input
cycles whose time in calls, corrected for host speed (below), comes nearest
to ``--seconds``.  Off the clock, every output is checked for being finite
and physically admissible, and a seeded sample of outputs is compared with
the oracles of ``tests/_oracles.py`` (``bench/checks.py``).

Every time is corrected for the drifting speed of a shared host
(``bench/hostspeed.py``): a fixed reference kernel is timed between calls and
each time is scaled to a host on which that kernel takes 3 ms.  The output
also prints the times as measured.

With ``--trace 0`` the end-to-end metrics are measured:

* ``setup_s``: median over fresh interpreters of the time to import
  ``slowlight``, load the default config and build the CLI parser;
* ``rows_per_s``: output rows (CSV data rows of ``sweep`` and ``chi``, ``tf``
  documents, ``mean_delay`` results) per second spent inside the calls, as
  the median over the run's input cycles, which all have the same mix;
* ``call_p50_ms`` and ``call_tail_ms``: median call latency, and the latency
  with exactly ten calls above it (the percentile it stands for and the
  sample count are printed);
* ``peak_rss_mb``: peak resident memory of this process after the loop,
  before the oracle checks.

``failed_frac`` (failed over attempted calls) is printed with its base; the
last line carries the same counts as ``attempted`` and ``failed``.  A call
fails if it exits nonzero, raises, emits a non-finite or inadmissible number,
or fails a sampled oracle check.

With ``--trace 1`` the loop runs for half of ``--seconds`` untraced, then
replays the same calls with every public function of the package wrapped in
a span (``bench/tracer.py``).  The per-layer metrics come from the replay,
``trace_overhead_ratio`` compares the two, and the spans are written to
``.bench_out/``.

``--workload all`` runs each workload in its own process and prints every
end-to-end metric of every workload by name with its unit.
"""

import os

# one thread per process: the machine has few cores and the work is scalar
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# oracle checks per run, by check name (the oracles take 0.03-0.4 s each)
ORACLE_SAMPLE = {"fugacity": 16, "chi": 16, "delay": 6}
TAIL_SAMPLES_BEYOND = 10

# the child also times the reference kernel, on its own core, after set-up
_SETUP_CODE = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, %r)
import slowlight, slowlight.cli
slowlight.load_config(slowlight.cli.DEFAULT_CONFIG_TEXT)
with contextlib.redirect_stdout(io.StringIO()):
    slowlight.cli.main(["--help"])
elapsed = time.perf_counter() - t0
sys.path.insert(0, %r)
import hostspeed
host = hostspeed.HostSpeed()
for _ in range(hostspeed.WINDOW):
    host.sample(force=True)
print(elapsed * host.factor(len(host.samples)))
"""


def import_program():
    """Import the package from this checkout's ``src/`` or exit nonzero."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import slowlight
        import slowlight.cli
        import _oracles  # noqa: F401
    except ImportError as exc:
        sys.exit("error: cannot import the program and its oracles from %s: %s" % (ROOT, exc))
    if not Path(slowlight.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit("error: imported slowlight from %s, not from %s" % (slowlight.__file__, ROOT / "src"))
    return slowlight


def machine_facts():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure_setup():
    """Median set-up time over fresh interpreters, corrected for host speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE % (str(ROOT / "src"), str(Path(__file__).resolve().parent))],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def peak_rss_kib():
    """Peak resident set of this process image.

    ``ru_maxrss`` is not used: Linux carries it over from the parent through
    fork and exec, so it would report the caller's peak when that is larger.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Reservoir:
    """A fixed-size uniform sample of a stream (Vitter's algorithm R)."""

    def __init__(self, size, rng):
        self.size, self.rng, self.seen, self.items = size, rng, 0, []

    def offer(self, item):
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            j = int(self.rng.integers(0, self.seen + 1))
            if j < self.size:
                self.items[j] = item
        self.seen += 1


class Phase:
    """Calls made in one timed loop and what was measured of them."""

    def __init__(self):
        self.ops = []
        self.raw_latencies = []
        self.kernel_marks = []  # kernel timings taken before each call
        self.latencies = []  # corrected for host speed, by ``correct``
        self.rows = 0
        self.cycles = []  # (first call, end call, rows) of each whole cycle
        self.failed_ops = {}  # op index -> first problem

    def fail(self, index, problem):
        self.failed_ops.setdefault(index, problem)

    def correct(self, host):
        """Scale each latency by the host-speed factor around its call."""
        host.sample(force=True)
        self.latencies = [t * host.factor(mark) for t, mark in zip(self.raw_latencies, self.kernel_marks)]

    def cycle_rates(self):
        """Rows per second in calls, one value per whole cycle."""
        return [rows / sum(self.latencies[first:end]) for first, end, rows in self.cycles]


def timed_call(op, host, phase):
    """Run one call and record its latency as measured."""
    host.sample()
    phase.kernel_marks.append(len(host.samples))
    t0 = time.perf_counter()
    try:
        return op.run()
    finally:
        phase.raw_latencies.append(time.perf_counter() - t0)


def timed_loop(cycles, seconds, ctx, reservoirs, host):
    """Run the whole number of cycles whose time in calls, corrected for host
    speed, comes nearest to ``seconds`` (at least one); check every output.

    Stopping at the nearest cycle boundary, not the first one past
    ``seconds``, and counting corrected time, keeps the number of calls, and
    so the percentile that ``call_tail_ms`` stands for, the same from run to
    run."""
    phase = Phase()
    while True:
        rows, first = phase.rows, len(phase.ops)
        for op in next(cycles):
            index = len(phase.ops)
            phase.ops.append(op)
            try:
                result = timed_call(op, host, phase)
            except Exception as exc:  # a raising call is a failed operation
                phase.fail(index, "%s raised %r" % (op.label, exc))
                continue
            verdict = op.verify(result, ctx)
            phase.rows += verdict.rows
            if verdict.problems:
                phase.fail(index, verdict.problems[0])
            for name, thunk in verdict.oracle:
                reservoirs[name].offer((index, thunk))
        phase.cycles.append((first, len(phase.ops), phase.rows - rows))
        busy = sum(t * host.factor(mark) for t, mark in zip(phase.raw_latencies, phase.kernel_marks))
        if busy * (1.0 + 0.5 / len(phase.cycles)) >= seconds:
            phase.correct(host)
            return phase


def replay(ops, tracer, host):
    """Run the same calls again, traced and unchecked."""
    phase = Phase()
    for index, op in enumerate(ops):
        tracer.invocation = index
        try:
            timed_call(op, host, phase)
        except Exception:  # counted when the call first ran
            pass
    phase.correct(host)
    return phase


def run_oracles(phase, reservoirs):
    checked = 0
    for reservoir in reservoirs.values():
        for index, thunk in reservoir.items:
            ok, detail = thunk()
            checked += 1
            if not ok:
                phase.fail(index, "oracle: %s" % detail)
    return checked


def tail(latencies):
    """(value, percentile, calls above it): the highest latency with
    TAIL_SAMPLES_BEYOND calls above it, or the maximum of a smaller sample."""
    ordered = sorted(latencies)
    n = len(ordered)
    above = min(TAIL_SAMPLES_BEYOND, n - 1)
    return ordered[n - 1 - above], 100.0 * (n - above) / n, above


PER_LAYER_SPANS = (
    # (span or layer name, statistic, unit)
    ("specfun.fugacity_from_temperature", "calls", "count"),
    ("specfun.fugacity_from_temperature", "s", "s"),
    ("specfun.fugacity_from_temperature", "distinct_ratio", "ratio"),
    ("specfun.fugacity_from_temperature", "share", "ratio"),
    ("box_gas.thermal_response_series", "calls", "count"),
    ("box_gas.thermal_response_series", "s", "s"),
    ("box_gas.thermal_response_series", "distinct_ratio", "ratio"),
    ("box_gas.thermal_response_series", "share", "ratio"),
    ("specfun.faddeeva_w", "points", "count"),
    ("specfun.faddeeva_w", "s", "s"),
    ("specfun.faddeeva_w_prime", "points", "count"),
    ("specfun.faddeeva_w_prime", "s", "s"),
    ("specfun.polylog", "calls", "count"),
    ("specfun.polylog", "s", "s"),
    ("specfun.polylog_tail", "calls", "count"),
    ("specfun.polylog_tail", "s", "s"),
    ("trap_gas.mean_delay", "calls", "count"),
    ("trap_gas.mean_delay", "self_s", "s"),
    ("box_gas.box_thermo", "calls", "count"),
    ("box_gas.box_thermo", "self_s", "s"),
    ("box_gas.chi_box_exact", "calls", "count"),
    ("box_gas.chi_box_exact", "self_s", "s"),
    ("box_gas.chi_box_asymptotic", "calls", "count"),
    ("box_gas.chi_box_asymptotic", "self_s", "s"),
    ("trap_gas.trap_thermo", "calls", "count"),
    ("trap_gas.trap_thermo", "self_s", "s"),
    ("trap_gas.chi_trap_local", "calls", "count"),
    ("trap_gas.chi_trap_local", "self_s", "s"),
    ("eit_core.zeta", "calls", "count"),
    ("eit_core.zeta", "s", "s"),
    ("cli", "self_s", "s"),
    ("units_params.load_config", "s", "s"),
    ("tf_model", "s", "s"),
)


def layer_metrics(tracer, traced, untraced, validity_count):
    stats = {
        "calls": lambda name: tracer.calls[name],
        "points": lambda name: tracer.points[name],
        "s": lambda name: tracer.inclusive[name],
        "self_s": lambda name: tracer.self_time[name],
        "distinct_ratio": tracer.distinct_ratio,
        "share": lambda name: tracer.inclusive[name] / sum(traced.raw_latencies),
    }
    metrics = {}
    for name, stat, unit in PER_LAYER_SPANS:
        metrics["%s.%s" % (name, stat)] = (stats[stat](name), unit)
    metrics["warnings.validity_count"] = (validity_count, "count")
    metrics["trace_overhead_ratio"] = (sum(traced.latencies) / sum(untraced.latencies), "ratio")
    return metrics


def run_workload(name, seed, seconds, trace):
    slowlight = import_program()
    import numpy as np

    import workloads
    from hostspeed import REFERENCE_KERNEL_S, HostSpeed
    from tracer import Tracer

    if name not in workloads.WORKLOADS:
        sys.exit("error: unknown workload %r (known: %s)" % (name, ", ".join(workloads.WORKLOADS)))
    facts = machine_facts()
    setup = None if trace else measure_setup()
    host = HostSpeed()
    ctx = workloads.Context()
    generate = workloads.WORKLOADS[name]
    rng = np.random.default_rng([seed, 0])
    cycles = iter(lambda: generate(rng, ctx), None)
    sample_rng = np.random.default_rng([seed, 1])
    reservoirs = {check: Reservoir(size, sample_rng) for check, size in ORACLE_SAMPLE.items()}
    # warm-up call, untimed and unchecked, from its own input stream
    generate(np.random.default_rng([seed, 2]), ctx)[0].run()

    validity = []
    with warnings.catch_warnings():
        warnings.simplefilter("always", slowlight.ValidityWarning)
        warnings.showwarning = lambda *args, **kwargs: validity.append(args[1])
        phase = timed_loop(cycles, seconds / 2.0 if trace else seconds, ctx, reservoirs, host)
        if trace:
            validity.clear()
            tracer = Tracer()
            tracer.install()
            try:
                traced = replay(phase.ops, tracer, host)
            finally:
                tracer.uninstall()
    peak_rss_mb = peak_rss_kib() / 1024.0
    checked = run_oracles(phase, reservoirs)

    attempted, failed = len(phase.ops), len(phase.failed_ops)
    busy = sum(phase.raw_latencies)
    host_factors = [REFERENCE_KERNEL_S / k for k in host.samples]
    notes = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed loop, 1 client", "calls": attempted, "rows": phase.rows,
        "busy_s": busy, "cycles": len(phase.cycles), "oracle_checks": checked, "failed_frac": failed / attempted,
        "failures": [phase.failed_ops[i] for i in sorted(phase.failed_ops)][:20],
        "machine": facts,
        "host_factor": {"median": statistics.median(host_factors), "min": min(host_factors),
                        "max": max(host_factors), "samples": len(host_factors)},
    }
    if trace:
        metrics = layer_metrics(tracer, traced, phase, len(validity))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / ("spans-%s.tsv" % name)
        tracer.write(spans_path)
        notes["spans"] = {"count": len(tracer.span_start), "path": str(spans_path.relative_to(ROOT))}
    else:
        tail_value, tail_percentile, tail_above = tail(phase.latencies)
        metrics = {
            "setup_s": (setup[0], "s"),
            "rows_per_s": (statistics.median(phase.cycle_rates()), "1/s"),
            "call_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
            "call_tail_ms": (tail_value * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes["setup_samples_s"] = setup[1]
        notes["as_measured"] = {
            "call_p50_ms": statistics.median(phase.raw_latencies) * 1e3,
            "call_tail_ms": tail(phase.raw_latencies)[0] * 1e3,
            "rows_per_s": phase.rows / busy,
        }
        notes["call_tail_percentile"] = tail_percentile
        notes["call_tail_above"] = tail_above
        notes["validity_warnings"] = len(validity)
    return metrics, notes, attempted, failed


def report(metrics, notes, attempted, failed):
    print("workload %s  seed %d  seconds %g  trace %d  (%s)" % (
        notes["workload"], notes["seed"], notes["seconds"], notes["trace"], notes["loop"]))
    print("machine  %s" % json.dumps(notes["machine"], sort_keys=True))
    for key, (value, unit) in metrics.items():
        extra = ""
        if key == "call_tail_ms":
            extra = "  (p%.1f of %d calls, %d above it)" % (
                notes["call_tail_percentile"], attempted, notes["call_tail_above"])
        elif key in ("call_p50_ms", "rows_per_s"):
            extra = "  (%d calls, %d rows, %.3f s in calls, %d cycles)" % (
                attempted, notes["rows"], notes["busy_s"], notes["cycles"])
        elif key == "setup_s":
            extra = "  (median of %d fresh interpreters)" % SETUP_REPEATS
        print("%-48s %14.6g %s%s" % (key, value, unit, extra))
    if "as_measured" in notes:
        print("as measured, before the host-speed correction: %s" % ", ".join(
            "%s %.6g" % item for item in notes["as_measured"].items()))
    print("host-speed factor: median %(median).4f, range %(min).4f-%(max).4f over %(samples)d kernel timings"
          % notes["host_factor"])
    print("%-48s %14.6g ratio  (%d failed of %d calls; %d oracle checks)" % (
        "failed_frac", failed / attempted, failed, attempted, notes["oracle_checks"]))
    for problem in notes["failures"]:
        print("FAILED  %s" % problem)
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / ("result-%s-seed%d-trace%d.json" % (notes["workload"], notes["seed"], notes["trace"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    result_path.write_text(json.dumps(dict(result, notes=notes), indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))


def run_all(seed, seconds, trace):
    """Each workload in a fresh process; a table of every metric."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print("%s: exit %d\n%s" % (name, proc.returncode, proc.stderr.strip()))
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, metric in result["metrics"].items():
            print("%-14s %-48s %14.6g %s" % (name, key, metric["value"], metric["unit"]))
        print("%-14s %-48s %14.6g ratio  (%d failed of %d calls)" % (
            name, "failed_frac", result["failed"] / result["attempted"], result["failed"], result["attempted"]))
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time, rounded to whole input cycles (0: one cycle)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    metrics, notes, attempted, failed = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(metrics, notes, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
