"""Self-test of the benchmark.

    python3 bench/selftest.py

1. Runs every workload of ``BENCHMARK.json`` for one input cycle
   (``--seconds 0``), untraced and traced, and checks that the last line is
   the result object with every end-to-end (untraced) or per-layer (traced)
   metric, each with its declared unit, and no failed call.
2. Feeds the oracle checks outputs perturbed by more than their tolerance
   and checks that each check then fails, and that a non-finite value is
   reported as a problem.
3. Runs the benchmark in a directory holding only ``BENCHMARK.json`` and
   ``bench/`` and checks that it exits nonzero without printing a result.

Exits 0 when every check passes.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"

failures = []


def expect(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def last_json_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_minimal_runs(spec):
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = last_json_line(proc.stdout)
            what = "%s --trace %d" % (name, trace)
            if proc.returncode != 0 or result is None:
                expect(False, "%s ran (exit %d): %s" % (what, proc.returncode, proc.stderr.strip()[-500:]))
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "%s result keys" % what)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s correct, %d of %d calls failed" % (what, result["failed"], result["attempted"]))
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in declared}, "%s emits exactly the declared metrics" % what)
            for metric in declared:
                got = metrics.get(metric["name"], {})
                value = got.get("value")
                expect(got.get("unit") == metric["unit"] and isinstance(value, (int, float)) and math.isfinite(value),
                       "%s %s = %r %s" % (what, metric["name"], value, got.get("unit")))


def _perturb_csv(text, factors):
    """Multiply the named CSV columns of every data row by their factors."""
    lines = text.splitlines()
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[header_at].split(",")
    out = lines[: header_at + 1]
    for line in lines[header_at + 1:]:
        values = [float(v) for v in line.split(",")]
        for column, factor in factors.items():
            values[header.index(column)] *= factor
        out.append(",".join("%.11e" % v for v in values))
    return "\n".join(out) + "\n"


def _oracle_verdicts(verdict, per_check=4):
    """Run up to ``per_check`` evenly spaced oracle checks of each kind."""
    thunks = {}
    for name, thunk in verdict.oracle:
        thunks.setdefault(name, []).append(thunk)
    return {name: [thunk()[0] for thunk in found[:: max(1, len(found) // per_check)][:per_check]]
            for name, found in thunks.items()}


def check_oracles_catch_perturbations():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import workloads

    ctx = workloads.Context()
    cases = (
        # op, perturbation beyond each check's tolerance
        (workloads.SweepOp("trap", 0.8, 1.6, "linear", 0.56, fc_mode="exact", radius_um=15.0),
         {"fugacity": 1 + 1e-9, "re_chi": 1 + 1e-6, "im_chi": 1 + 1e-6, "mean_delay_s": 1 + 1e-5}),
        (workloads.SweepOp("box", 0.8, 1.6, "log", 0.56, mode="exact"),
         {"fugacity": 1 + 1e-9, "re_chi": 1 + 1e-6, "im_chi": 1 + 1e-6}),
        (workloads.ChiOp("box", 1.5 * ctx.t_c["box"] * 1e9, 0.56),
         {"re_chi": 1 + 1e-6, "im_chi": 1 + 1e-6}),
    )
    for op, factors in cases:
        code, out, err = op.run()
        clean = op.verify((code, out, err), ctx)
        expect(not clean.problems, "%s: no problems (%s)" % (op.label, clean.problems[:1]))
        for name, oks in _oracle_verdicts(clean).items():
            expect(all(oks), "%s: %d %s checks pass on the program's output" % (op.label, len(oks), name))
        bad = op.verify((code, _perturb_csv(out, factors), err), ctx)
        for name, oks in _oracle_verdicts(bad).items():
            expect(not any(oks), "%s: %d %s checks fail on a perturbed output" % (op.label, len(oks), name))
        broken = _perturb_csv(out, {"re_chi": math.nan})
        expect(bool(op.verify((code, broken, err), ctx).problems), "%s: a nan is reported" % op.label)

    config = ctx.configs["trap"]
    temperature = 0.7 * ctx.t_c["trap"]
    covering = 6.0 * workloads.checks.thermal_length(config, temperature)
    op = workloads.DelayOp(ctx, 0.7, 15e-6, covering)
    result = op.run()
    for label, value, want in (("program's", result, True),
                               ("perturbed", dataclasses.replace(result, mean_delay_s=result.mean_delay_s * (1 + 1e-5)), False)):
        verdict = op.verify(value, ctx)
        oks = _oracle_verdicts(verdict).get("delay", [])
        expect(len(oks) == 1 and oks[0] is want, "%s: delay check on the %s result is %s" % (op.label, label, want))


def check_fails_without_program():
    empty = ROOT / ".bench_out" / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    (empty / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", empty)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, empty / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_trap", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=empty, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(empty, ignore_errors=True)
    expect(proc.returncode != 0 and last_json_line(proc.stdout) is None,
           "without src/ and tests/ the benchmark exits %d and prints no result" % proc.returncode)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_fails_without_program()
    check_oracles_catch_perturbations()
    check_minimal_runs(spec)
    print("%d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
