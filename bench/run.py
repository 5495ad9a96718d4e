#!/usr/bin/env python3
"""idospec benchmark: one workload, one seed, one client in a closed loop.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from src/. Each
operation calls `idospec.cli.main` in-process and starts only when the one
before it has finished. A run does a fixed number of operations, sized from
--seconds and the workload's typical operation time, so that every run of a
seed does the same work; the checks of each operation's outputs run outside
the timed part.

--trace 0 reports the end-to-end metrics. --trace 1 runs every operation
twice, plain and traced, alternating which goes first, and reports per-layer
metrics from the traced calls together with the tracing overhead.

Everything before the last line of standard output is a readable report; the
last line is the JSON result {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread unless the caller sets one of these. On the two-core
# machine the benchmark was defined on, two BLAS threads were no faster and
# spread three times wider between runs (README.md).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP = "setup"  # op label of the spans recorded during set-up
CAL_COEFFS = [[0.3, 1, 0.5], [0.2, 2, 1.0]]  # calibrate(): fixed P and lambdas
CAL_LAMBDAS = [complex(re, -4.0) for re in range(-20, 21)] * 6

# Per-layer metrics per timed operation: (metric, table row, field, unit).
LAYER_ROWS = [
    ("transform.compute_g.calls", "transform.compute_g", "calls", "count/op"),
    ("transform.compute_g.s", "transform.compute_g", "s", "s/op"),
    ("transform.picard_step.s", "transform.picard_step", "s", "s/op"),
    ("transform.picard_terms", "transform.compute_g", "count", "terms/op"),
    ("transform.assemble_z_kernel.s", "transform.assemble_z_kernel", "s", "s/op"),
    ("transform.s", "transform", "s", "s/op"),
    ("spectral.find_spectrum.s", "spectral.find_spectrum", "s", "s/op"),
    ("spectral.char_delta_deriv.calls", "spectral.char_delta_deriv", "calls", "count/op"),
    ("spectral.char_delta_deriv.s", "spectral.char_delta_deriv", "s", "s/op"),
    ("spectral.delta_points", "spectral.char_delta_deriv", "count", "points/op"),
    ("spectral.roots", "spectral.find_spectrum", "count", "roots/op"),
    ("spectral.eval_e_direct.s", "spectral.eval_e_direct", "s", "s/op"),
    ("spectral.eval_psi.s", "spectral.eval_psi", "s", "s/op"),
    ("spectral.eval_z.s", "spectral.eval_z", "s", "s/op"),
    ("spectral.eval_z_decomposed.s", "spectral.eval_z_decomposed", "s", "s/op"),
    ("spectral.eval_e_via_g.s", "spectral.eval_e_via_g", "s", "s/op"),
    ("spectral.s", "spectral", "s", "s/op"),
    ("inverse.recover_profile.s", "inverse.recover_profile", "s", "s/op"),
    ("inverse.recover_profile.self_s", "inverse.recover_profile", "self_s", "s/op"),
    ("inverse.spectrum_residual.calls", "inverse.spectrum_residual", "calls", "count/op"),
    ("inverse.lm_iterations", "inverse.recover_profile", "count", "iters/op"),
    ("inverse.verify_green_identity.s", "inverse.verify_green_identity", "s", "s/op"),
    ("inverse.verify_change_of_variables.s", "inverse.verify_change_of_variables", "s", "s/op"),
    ("inverse.s", "inverse", "s", "s/op"),
    ("kernels.assemble_kernel.calls", "kernels.assemble_kernel", "calls", "count/op"),
    ("kernels.assemble_kernel.s", "kernels.assemble_kernel", "s", "s/op"),
    ("kernels.compute_B.s", "kernels.compute_B", "s", "s/op"),
    ("kernels.field_from_family.s", "kernels.field_from_family", "s", "s/op"),
    ("kernels.profile_from_family.s", "kernels.profile_from_family", "s", "s/op"),
    ("kernels.s", "kernels", "s", "s/op"),
    ("serialize.s", "serialize", "s", "s/op"),
    ("serialize.bytes_written", "serialize", "count", "B/op"),
    ("cli.s", "cli", "s", "s/op"),
    ("cli.self_s", "cli", "self_s", "s/op"),
]
FAILURE_KINDS = ("PhaseTrackingError", "BoundaryNearZeroError", "PicardConvergenceError",
                 "lm_unconverged")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("spectrum", "invert", "identities"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None,
                    help="JSON file to add this run's full result to, under '<workload>.<mode>'")
    ap.add_argument("--setup-only", type=Path, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def git_commit():
    """HEAD of the git checkout rooted at ROOT, or None (not a git checkout)."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def measure_setup(args, wl, work):
    """Median wall time of the workload's set-ups, each in a fresh process
    from interpreter start (imports included) to the end of the warm-up.
    This process then runs the last set-up again, reusing what it built
    (the `invert` targets), to warm its own caches."""
    reps = []
    for k in range(wl.setup_repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--setup-only", str(work / f"setup{k}")],
                       check=True, stdout=subprocess.DEVNULL)
        reps.append(time.perf_counter() - t0)
    wl.setup(work / f"setup{wl.setup_repeats - 1}")
    return statistics.median(reps)


def calibrate(workloads, min_s=0.075):
    """Mean wall time of one run of a fixed computation of the benchmark's
    own, repeated for at least `min_s` after one untimed run: its reference
    Delta, a node-by-node march with vector work at each node, like the
    package's. Taken right before and right after each operation, its median
    over a run is op_cost's yardstick for the host's speed, which on the
    shared machine the benchmark was defined on swung by a factor of two
    within seconds and drifted by a third over minutes (README.md). The
    untimed run keeps the caches the operation or its check left behind out
    of the yardstick."""
    workloads.direct_delta(CAL_COEFFS, CAL_LAMBDAS, 200)
    reps, t0 = 0, time.perf_counter()
    while reps < 3 or time.perf_counter() - t0 < min_s:
        workloads.direct_delta(CAL_COEFFS, CAL_LAMBDAS, 200)
        reps += 1
    return (time.perf_counter() - t0) / reps


def execute(cli, argvs):
    """Run one operation's CLI calls, stopping at the first non-zero exit code."""
    rc = None
    t0 = time.perf_counter()
    try:
        for argv in argvs:
            rc = cli.main(argv)
            if rc != cli.EXIT_OK:
                break
    except Exception:
        traceback.print_exc()
        rc = None
    return time.perf_counter() - t0, rc


def judge(wl, i, out, rc, cli):
    """Outcome of one operation: ok, numerical (the program reported
    non-convergence, exit 3), misfit (`invert` only: a well-formed profile
    away from the truth), wrong (outputs failed the check) or error."""
    if rc == cli.EXIT_NUMERICAL:
        return "numerical", None
    if rc != cli.EXIT_OK:
        return "error", None
    try:
        return wl.check(i, out)
    except Exception:
        traceback.print_exc()
        return "wrong", None


def measure(wl, cli, workloads, seconds, out, tr=None):
    """Closed loop over the first `wl.operations(seconds)` instances."""
    records = []
    for i in range(wl.operations(seconds, traced=tr is not None)):
        modes = (False,) if tr is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            argvs = wl.prepare(i, out)
            cal_before = calibrate(workloads) if tr is None else None
            if traced:
                tr.op = i
                tr.install()
            try:
                s, rc = execute(cli, argvs)
            finally:
                if traced:
                    tr.restore()
            cal = None if tr is not None else 0.5 * (cal_before + calibrate(workloads))
            outcome, err = judge(wl, i, out, rc, cli)
            records.append({"op": i, "traced": traced, "s": s, "cal_s": cal, "rc": rc,
                            "outcome": outcome, "err": err})
    return records


def summarize(records):
    n = len(records)
    ok = [r for r in records if r["outcome"] == "ok"]
    busy = sum(r["s"] for r in records)
    errs = [r["err"] for r in ok if r["err"] is not None]
    return {
        "attempted": n,
        "ok": len(ok),
        "attempts_per_s": n / busy,
        "ops_per_s": len(ok) / busy,
        "op_s.p50": statistics.median(r["s"] for r in records),
        "fail_frac": (n - len(ok)) / n,
        "err.max": max(errs) if errs else None,
        "busy_s": busy,
    }


def end_to_end(records, setup_s):
    """op_cost.p50 is the median operation time in units of the run's median
    calibration time, so that it holds still while the host's speed moves."""
    s = summarize(records)
    cal = statistics.median(r["cal_s"] for r in records)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "op_cost.p50": (s["op_s.p50"] / cal, "cal"),
        "peak_rss_mb": (peak, "MB"),
    }, {
        "op_s.p50": (s["op_s.p50"], "s"),
        "cal_s.p50": (cal, "s"),
        "attempts_per_s": (s["attempts_per_s"], "1/s"),
        "ops_per_s": (s["ops_per_s"], "1/s"),
        "fail_frac": (s["fail_frac"], "ratio"),
        "err.max": (s["err.max"], "abs"),
    }


def per_layer(tracer, tr, records):
    n = len({r["op"] for r in records if r["traced"]})
    rows = tracer.table(tr.spans, lambda sp: sp.op != SETUP)
    setup_rows = tracer.table(tr.spans, lambda sp: sp.op == SETUP)

    def get(table, key, field):
        return table.get(key, {}).get(field, 0)

    m = {name: (get(rows, key, field) / n, unit) for name, key, field, unit in LAYER_ROWS}
    searched = tracer.count_under(tr.spans, "spectral.char_delta_deriv", "spectral.find_spectrum",
                                  lambda sp: sp.op != SETUP)
    roots = get(rows, "spectral.find_spectrum", "count")
    lm_iters = get(rows, "inverse.recover_profile", "count")
    m["spectral.delta_points_per_root"] = (searched / roots if roots else 0.0, "points/root")
    m["inverse.residuals_per_lm_iter"] = (
        get(rows, "inverse.spectrum_residual", "calls") / lm_iters if lm_iters else 0.0, "calls/iter")
    for kind in FAILURE_KINDS:
        count = sum(v for (op, k), v in tr.failures.items() if k == kind and op != SETUP)
        m[f"failures.{kind}"] = (count / n, "count/op")
    m["setup.spectral.find_spectrum.s"] = (get(setup_rows, "spectral.find_spectrum", "s"), "s")
    m["setup.spectral.delta_points"] = (get(setup_rows, "spectral.char_delta_deriv", "count"), "points")
    plain = summarize([r for r in records if not r["traced"]])
    traced = summarize([r for r in records if r["traced"]])
    m["trace.ops_per_s"] = (traced["ops_per_s"], "1/s")
    m["trace.untraced_ops_per_s"] = (plain["ops_per_s"], "1/s")
    m["trace.overhead"] = (traced["busy_s"] / plain["busy_s"] - 1.0, "ratio")
    return m, rows


def report(args, mach, metrics, extra, records, rows):
    print(f"# idospec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine " + json.dumps(mach))
    s = summarize(records)
    notes = {"op_s.p50": f"(n={s['attempted']})", "op_cost.p50": f"(n={s['attempted']})",
             "fail_frac": f"({s['attempted'] - s['ok']} of {s['attempted']} failed)"}
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit:12s} {notes.get(name, '')}")
    print("# outcomes " + json.dumps(Counter(r["outcome"] for r in records)))
    if rows:
        print(f"# {'function / module':44s} {'calls':>9s} {'s':>10s} {'self_s':>10s} {'count':>12s}")
        for key in sorted(rows):
            r = rows[key]
            print(f"# {key:44s} {r['calls']:9d} {r['s']:10.4f} {r['self_s']:10.4f} {r['count']:12d}")


def record(path, args, mach, metrics, extra, records, rows):
    data = json.loads(path.read_text()) if path.is_file() else {}
    data[f"{args.workload}.{'traced' if args.trace else 'untraced'}"] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": mach,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "operations": records,
        "table": rows,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "idospec").is_dir() or not (tests / "oracles.py").is_file():
        print(f"bench: {src / 'idospec'} or {tests / 'oracles.py'} not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if not any(v in os.environ for v in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(src), str(tests), str(HERE)]
    from idospec import cli
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only is not None:
        wl.setup(args.setup_only)
        return 0
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        rows, tr = None, None
        if args.trace:
            tr = tracer.Tracer()
            tr.op = SETUP
            tr.install()
            try:
                wl.setup(work / "setup")
            finally:
                tr.restore()
        else:
            setup_s = measure_setup(args, wl, work)
        records = measure(wl, cli, workloads, args.seconds, work / "op", tr)
        if args.trace:
            metrics, rows = per_layer(tracer, tr, records)
            extra = {}
        else:
            metrics, extra = end_to_end(records, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mach = machine()
    report(args, mach, metrics, extra, records, rows)
    if args.record is not None:
        record(args.record, args, mach, metrics, extra, records, rows)
    correct = all(r["outcome"] in ("ok", "numerical", "misfit") for r in records)
    failed = sum(r["outcome"] != "ok" for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
