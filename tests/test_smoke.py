"""Whole runs of the CLI, of the benchmark, of its self-tests and of tools/layer_times.py.

Each checks a fact only a whole run shows: the path a fit took and how far
it went, a process's memory peak, the bytes of a large G CSV, or the layers
the benchmark's tracer reads. Facts a smaller test already checks are left
to it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from idospec.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]


def _constant(c):
    return {"kind": "analytic", "family": "constant", "coeffs": [c]}


ZERO, ONE = _constant(0.0), _constant(1.0)
# the benchmark's window and a three-term trig profile like its truths
BENCH_WINDOW = {"re_min": -20.0, "re_max": 20.0, "im_min": -8.0, "im_max": 0.5}
TRIG_P = {"kind": "analytic", "family": "trig", "coeffs": [[0.3, 1, 0.5], [0.25, 2, 1.0], [0.2, 3, 2.0]]}
# R = 1 + 0.2 t: M0 + R P(x - t) is no difference kernel
TILTED_R = {"kind": "analytic", "family": "polynomial", "coeffs": [[1.0, 0, 0], [0.2, 0, 1]]}

# M = P(x - t): m0 and r are constants
LARGE = {"grid_n": 2000, "extrapolate": True, "window": BENCH_WINDOW,
         "kernel": {"m0": ZERO, "components": [{"r": ONE, "p": TRIG_P}]}}
GCSV = {"grid_n": 400, "kernel": {"m0": ZERO, "components": [{"r": ONE, "p": TRIG_P}]}}
TILTED = {"grid_n": 40, "window": {"re_min": -6.0, "re_max": 6.0, "im_min": -6.0, "im_max": 0.5},
          "kernel": {"m0": ZERO, "components": [{"r": TILTED_R, "p": ONE}]}}
TILTED_INVERT = {"grid_n": 40, "d": 4, "init": [0.8] * 4,
                 "kernel": {"m0": ZERO, "components": [{"r": TILTED_R}]}}


def run(tmp_path, command, cfg):
    """Run command on cfg in-process through main; return its --out directory."""
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"{command}_out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_OK
    return out


# Runs the command its arguments give in a child and prints the child's exit
# code and peak RSS in MB. A child's peak counts the memory of the process
# that forked it, so a small process, not the test's own, forks the command.
_PEAK_RUNNER = """
import resource, subprocess, sys
code = subprocess.run(sys.argv[1:]).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""


def test_large_grid_spectrum_memory(tmp_path):
    # m0 and r are constants, so spectrum reads M = P(x - t) as its N + 1
    # difference samples on each grid and forms no field: at N = 2000,
    # extrapolated, one field of the 4000-interval grid is 256 MB, and the
    # whole process peaks near 40 MB. A change that assembled M again would
    # find the same roots, so only the process's peak shows it. No time is
    # checked.
    cfg = tmp_path / "large.json"
    cfg.write_text(json.dumps(LARGE))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RUNNER, sys.executable, "-m", "idospec.cli", "spectrum",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env)
    code, peak_mb = proc.stdout.split()
    assert int(code) == EXIT_OK, proc.stderr
    assert float(peak_mb) < 100, peak_mb
    assert json.loads((tmp_path / "out" / "spectrum.json").read_text())["g_row"] == "series"


def test_tilted_kernel_fit(tmp_path):
    # R = 1 + 0.2 t is no difference kernel, so the fit reads march rows:
    # each residual builds G, and each Jacobian builds one G per parameter
    # (d = 4) for its forward differences. The target comes from the same
    # kernel with P = 1, whose row the spectrum marches; the fit takes 5 LM
    # iterations at most.
    target = run(tmp_path, "spectrum", TILTED) / "spectrum.json"
    assert json.loads(target.read_text())["g_row"] == "march"
    out = run(tmp_path, "invert", {**TILTED_INVERT, "target": str(target)})
    (s,) = json.loads((out / "recovery_report.json").read_text())["stages"]
    assert s["jacobian_evals"] >= 1 and s["g_builds"] == s["residual_evals"] + 4 * s["jacobian_evals"], s
    assert s["converged"] and s["iterations"] <= 5, s


def test_g_csv_fields_read_back_as_written(tmp_path):
    # The CSV writers format a block of floats at a time. Every field of a
    # G CSV at the benchmark's size must read as format(x, ".17g") of the
    # value it parses to, which catches formatting drift on real G values.
    # The same run's e_samples.csv, which write_csv's column path (a value
    # repeated per row through an index) writes, is held to the same rule.
    out = run(tmp_path, "forward", GCSV)
    for name, header, rows in (("g_kernel.csv", "x,t,re,im", 401 * 402 // 2),
                               ("e_samples.csv", "lambda_re,lambda_im,x,re,im", 3 * 401)):
        lines = (out / name).read_text().split("\n")
        assert lines[0] == header and lines[-1] == "", lines[:1] + lines[-1:]
        assert len(lines) == 2 + rows, len(lines)
        drift = [line for line in lines[1:-1]
                 if line != ",".join(format(float(v), ".17g") for v in line.split(","))]
        assert not drift, drift[:3]


# One traced operation of each workload catches a change that breaks the
# tracer's wrapping of the package, such as a call that bypasses the module
# globals it rebinds: the layer its time is claimed for would read zero.
# Every workload's m0 and r are constants, so each kernel is the Profile of a
# difference kernel: no field is sampled or assembled, and each G or row is
# summed as a series, with no compute_g call.
TRACED = [
    # each fit takes the series path; each residual goes through the traced
    # spectrum_residual
    ("invert", ["transform.compute_g.calls", "kernels.field_from_family.s"],
     ["inverse.spectrum_residual.calls"]),
    # a Delta evaluator that bypassed the traced char_delta_deriv would
    # read zero points
    ("spectrum", ["kernels.assemble_kernel.calls"], ["spectral.delta_points"]),
    # a march that bypassed the traced eval_e_direct, or a verify that
    # computed z or the change-of-variables forms inside the CLI instead of
    # through eval_z and verify_change_of_variables
    ("identities", ["transform.compute_g.calls", "kernels.assemble_kernel.calls"],
     ["spectral.eval_e_direct.s", "spectral.eval_z.s", "inverse.verify_change_of_variables.s"]),
]


@pytest.mark.parametrize("workload, zero, positive", TRACED, ids=[w for w, *_ in TRACED])
def test_traced_benchmark_run(workload, zero, positive):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] is True
    assert {name: metrics[name] for name in zero} == dict.fromkeys(zero, 0)
    assert all(metrics[name] > 0 for name in positive), {name: metrics[name] for name in positive}


def test_benchmark_self_tests():
    # bench/ is outside testpaths. Its self-tests read package names the
    # benchmark relies on, idospec.inverse.compute_g among them, so a change
    # to the package that unbinds one fails here
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/test_bench.py"],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_layer_times_runs_every_layer(tmp_path):
    # the tool calls package internals (transform's _march and _inner_table,
    # cli's _parse, _parse_kernel and _sample_kernel): a rename breaks it.
    # Its series problems, whose targets reach |Re nu| = 17, fold the rows
    # of N/2 and N intervals at N = 36 and fit on the one row of N at the
    # odd N = 35; it asserts that neither builds a G
    spec = importlib.util.spec_from_file_location("layer_times", ROOT / "tools" / "layer_times.py")
    layer_times = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # it sets one BLAS thread for its own process
        spec.loader.exec_module(layer_times)
    for n in (36, 35):
        for fn in layer_times.layers(n, tmp_path).values():
            fn()
