"""Print the median time and the memory peak of each solver layer as a Markdown table.

Layers: compute_g, G of the difference kernel M = P(x - t) by
transform.build_g (the series `forward` and `verify` sum in place of the
march), G's last row by transform.last_row for that kernel (the series
`spectrum` sums in place of a G build),
the row march (transform._march), one Picard step added
into a field (transform.picard_step, as compute_g adds its one update into
G1), its inner-integral product (transform._inner_table),
assemble_z_kernel for the field R and for the Profile of R = 1 (what
`verify` hands over for an analytic-constant r), the e-march
(spectral.eval_e_direct) for the 5 lambdas `verify` samples by default (both marches iterate quadrature.march_rows),
Delta at 1000 lambdas on the benchmark's window (a 40 x 25 grid of it)
and the zero search on that window (spectral.find_spectrum), both by
the extrapolated DeltaEvaluator of G's last rows on the grids of N and 2N
intervals, as `spectrum` with "extrapolate" searches,
the LM Jacobian of a fit whose rows are march rows (forward differences
of the stacked residual, inverse._stacked_jacobian, d = 8: eight G builds)
at 18 simple targets and one triple target, the residual of a fit whose
rows are series rows with its exact Jacobian (inverse.spectrum_residual
and the Jacobian it returns, d = 8: rows on the grids of N and of N/2
intervals, or on that of N alone where N is odd or a target's |Re nu|
reaches N/2, M0 = 0 and R = 1 as the Profiles `invert` samples) at those
targets and at 19 simple ones, the triple one taken simple, on one problem
whose Delannoy sums (transform.SeriesTables) are already formed, as for
every residual of a fit but its first, and that first residual with its
Jacobian at the 19 simple targets, which forms them and the problem's
other cached parts (a new InverseProblem each call), building M
from a config (cli._sample_kernel on the kernel cli._parse_kernel read, then
kernels.assemble_kernel), M's N + 1 difference samples from a config whose
m0 and r are constants (kernels.kernel_samples of cli._sample_kernel's
Profiles, what every command reads for such a kernel in place of M) and
the whole forward command (cli.cmd_forward,
writing its G CSV and the other artifacts into a temporary directory), at
N in {100, 200, 400, 800} unless --n names others. The inputs are fixed: M =
M0 + R P(x - t) with smooth M0, R and a three-term trig profile P, given
as the kernel object of a config (KERNEL), its G, and that G as both
kernels of the z-split. M is no difference kernel, so its fit reads
last_row's march row. The series residual, the series G, the last row and the
difference samples need a difference kernel, so they take M = P(x - t),
the Profile P, with M0 = 0 and R = 1 instead: they do not measure the same
kernel as compute_g.
Each time is the median over repeats of a timeit loop of at least 50 ms.
Beside it stands the layer's tracemalloc peak above its inputs (what one
call allocates at most at once, its result included), in (N+1)^2 complex
fields of 16 (N+1)^2 bytes. BLAS runs on one thread unless OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS
is set. A last line gives the start-up time: the median wall time of five
fresh `python -c "import idospec.cli"` processes. Nothing is checked; run
from anywhere:

    python tools/layer_times.py [--n 100 200 400 800]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc
from pathlib import Path

if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from idospec import cli, inverse, transform  # noqa: E402
from idospec.inverse import InverseProblem, spectrum_residual  # noqa: E402
from idospec.kernels import assemble_kernel, kernel_samples  # noqa: E402
from idospec.quadrature import Profile, TriangularField, make_grid  # noqa: E402
from idospec.spectral import (  # noqa: E402
    DeltaEvaluator, Eigenvalue, SearchWindow, Spectrum, eval_e_direct, find_spectrum,
)

LAMBDAS = np.array([0.5, -2.0, 1.5 - 0.5j, 3.0, 0.25j])
# the Jacobian's targets: 18 simple ones across the benchmark's window and a
# triple one, which adds its Delta' and Delta'' rows; they need not be zeros
TARGETS = Spectrum(
    eigenvalues=tuple(Eigenvalue(complex(nu, -0.4), 1, 0.0) for nu in np.linspace(-17.0, 17.0, 18))
    + (Eigenvalue(2.1 - 0.7j, 3, 0.0),),
    window=SearchWindow(-20.0, 20.0, -8.0, 0.5), total_count=21,
)
# Delta's 1000 lambdas: a 40 x 25 grid on the window of TARGETS
DELTA_LAMBDAS = (np.linspace(-20.0, 20.0, 40)[:, None] + 1j * np.linspace(-8.0, 0.5, 25)).ravel()
# the same 18 and the triple one taken simple
SIMPLE_TARGETS = Spectrum(
    eigenvalues=TARGETS.eigenvalues[:-1] + (Eigenvalue(2.1 - 0.7j, 1, 0.0),),
    window=TARGETS.window, total_count=19,
)
# M0 = 0.05 + 0.03 x, R = 1 + 0.2 cos t, P = 0.3 sin(x + 0.5) + 0.25 sin(2x + 1) + 0.2 sin(3x + 2)
KERNEL = {
    "m0": {"kind": "analytic", "family": "polynomial", "coeffs": [[0.05, 0, 0], [0.03, 1, 0]]},
    "components": [{
        "r": {"kind": "analytic", "family": "trig", "coeffs": [[1.0, 0, 0], [0.2, 0, 1]]},
        "p": {"kind": "analytic", "family": "trig",
              "coeffs": [[0.3, 1, 0.5], [0.25, 2, 1.0], [0.2, 3, 2.0]]},
    }],
}
REPEAT = 7
STARTS = 5


def layers(n: int, out: Path) -> dict:
    """Name -> zero-argument callable running that layer once on the N = n
    inputs; forward writes into the directory out."""
    grid = make_grid(n)
    h = grid.step
    kernel = cli._parse_kernel(KERNEL)
    zero, one = ({"kind": "analytic", "family": "constant", "coeffs": [c]} for c in (0.0, 1.0))
    series_kernel = cli._parse_kernel(
        {"m0": zero, "components": [{"r": one, "p": KERNEL["components"][0]["p"]}]})
    sk = cli._sample_kernel(kernel, grid)
    m0, r = sk.m0, sk.components[0].r
    m = assemble_kernel(sk)
    m_series = sk.components[0].p  # the Profile of M = P(x - t)
    r_profile = cli._sample_kernel(series_kernel, grid).components[0].r  # R = 1
    g = transform.compute_g(m).g
    g1 = transform.picard_g1(m).values
    into = TriangularField(grid, g1.copy())  # each call adds one more step to it
    problem = InverseProblem(m0=m0, r=r, target=TARGETS, d=8)
    series_simple, series_triple = (
        InverseProblem(m0=Profile.zeros(grid), r=Profile.constant(grid, 1.0),
                       target=target, d=8) for target in (SIMPLE_TARGETS, TARGETS))
    params = np.interp(problem.param_nodes, grid.nodes, sk.components[0].p.values.real)  # P at the knots
    # the series residuals build no G, on two rows or on one
    assert all(spectrum_residual(params, p)[2] == 0 for p in (series_simple, series_triple))
    stacked = inverse._stacked_residual(params, problem, 0.0)[0]
    forward = cli._parse({"grid_n": n, "kernel": KERNEL}, "forward", None)
    row = g.values[-1]
    m_fine = assemble_kernel(cli._sample_kernel(kernel, make_grid(2 * n)))
    row_fine = transform.compute_g(m_fine).g.values[-1]
    delta = DeltaEvaluator(row, row_fine)
    return {
        "compute_g": lambda: transform.compute_g(m),
        "build_g series (M = P(x - t))": lambda: transform.build_g(m_series),
        "last_row (M = P(x - t))": lambda: transform.last_row(m_series),
        "_march": lambda: transform._march(m.values, g1, h),
        "picard_step": lambda: transform.picard_step(m, g, into),
        "_inner_table": lambda: transform._inner_table(m.values, g.values, h),
        "assemble_z_kernel": lambda: transform.assemble_z_kernel(g, g, r),
        "assemble_z_kernel (Profile R)": lambda: transform.assemble_z_kernel(g, g, r_profile),
        "eval_e_direct (5 lambdas)": lambda: eval_e_direct(m, LAMBDAS),
        "Delta per 1k lambdas (extrapolated)": lambda: delta(DELTA_LAMBDAS),
        "find_spectrum (extrapolated)": lambda: find_spectrum(DeltaEvaluator(row, row_fine),
                                                              TARGETS.window),
        "march-row Jacobian (19 targets)": lambda: inverse._stacked_jacobian(params, stacked, None,
                                                                              problem, 0.0),
        "series residual + Jacobian (19 simple targets)": lambda: series_fit_step(params, series_simple),
        "series residual + Jacobian (18 + triple targets)": lambda: series_fit_step(params, series_triple),
        "first series residual + Jacobian of a fit (19 simple targets, tables formed)":
            lambda: series_fit_step(params, InverseProblem(m0=series_simple.m0, r=series_simple.r,
                                                           target=SIMPLE_TARGETS, d=8)),
        "M from config": lambda: assemble_kernel(cli._sample_kernel(kernel, grid)),
        "difference samples from config": lambda: kernel_samples(cli._sample_kernel(series_kernel, grid)),
        "forward": lambda: cli.cmd_forward("0" * 64, out, None, **forward),
    }


def series_fit_step(params, problem):
    """The series residual and the exact Jacobian it returns."""
    res, jacobian, _ = spectrum_residual(params, problem)
    return res, jacobian()


def median_ms(fn) -> float:
    timer = timeit.Timer(fn)
    number = 1
    while timer.timeit(number) < 0.05:
        number *= 2
    return 1e3 * float(np.median(timer.repeat(REPEAT, number))) / number


def peak_fields(fn, n: int) -> float:
    """tracemalloc peak of one call of fn, in (n+1)^2 complex fields."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * (n + 1) ** 2)


def import_ms() -> float:
    """Median wall time of STARTS fresh interpreters that import idospec.cli."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    times = []
    for _ in range(STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import idospec.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[100, 200, 400, 800])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as out:
        cells = {n: {name: f"{median_ms(fn):.3f} | {peak_fields(fn, n):.2f}"
                     for name, fn in layers(n, Path(out)).items()} for n in args.n}
    print("| layer | " + " | ".join(f"N = {n}: ms | fields" for n in args.n) + " |")
    print("|---|" + "---:|---:|" * len(args.n))
    for name in cells[args.n[0]]:
        print(f"| {name} | " + " | ".join(cells[n][name] for n in args.n) + " |")
    print(f"\nimport idospec.cli: {import_ms():.1f} ms (median of {STARTS} fresh processes)")


if __name__ == "__main__":
    main()
