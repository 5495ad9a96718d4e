"""Acceptance gate: end-to-end numerical criteria at their stated tolerances.

Each test records one visible pass/fail line (printed in the terminal
summary) before asserting, so a full run always reports the status of every
criterion.
"""

import json
import time

import numpy as np
import pytest

from idospec.quadrature import PI, Profile, TriangularField, cumtrapz_nodes, make_grid
from idospec.kernels import KernelComponent, StructuredKernel, assemble_kernel, truncate_kernel
from idospec.transform import compute_g, reflected_kernel, assemble_z_kernel
from idospec.spectral import (
    DeltaEvaluator,
    SearchWindow,
    char_delta,
    eval_e_direct,
    eval_e_via_g,
    eval_psi,
    eval_z,
    eval_z_decomposed,
    find_spectrum,
)
from idospec.inverse import (
    InverseProblem,
    recover_profile,
    recover_sequential,
    verify_green_identity,
)
from idospec.cli import EXIT_OK, main as cli_main

from conftest import (
    LAMBDA_SET_10,
    LAMBDA_SET_20,
    family_diag_integrals,
    family_fields,
    mild_family_fields,
    record_criterion,
)
from oracles import constant_kernel_delta, oracle_roots_in_window

FAMILY_NAMES = ("zero", "constant", "polynomial", "trig", "structured")
ORACLE_WINDOW = SearchWindow(-6.0, 6.0, -6.0, 0.5)
WIDE_WINDOW = SearchWindow(-20.0, 20.0, -8.0, 0.5)


def fam(name):
    return lambda grid: family_fields(grid)[name]


def mild(name):
    return lambda grid: mild_family_fields(grid)[name]


def test_criterion_01_diagonal_identity(g_cache):
    """G(x,x) = i * int_0^x M(t,t) dt against closed-form antiderivatives."""
    worst200 = worst_shrink = 0.0
    worst_time = 0.0
    for name in FAMILY_NAMES:
        residuals = {}
        for n in (200, 400):
            t0 = time.monotonic()
            tk = g_cache(f"fam-{name}", n, fam(name))
            worst_time = max(worst_time, time.monotonic() - t0)
            grid = make_grid(n)
            diag = np.diagonal(tk.g.values)
            residuals[n] = float(np.abs(diag - family_diag_integrals(grid)[name]).max())
        worst200 = max(worst200, residuals[200])
        # exact-to-roundoff families get a floor instead of a shrink ratio
        worst_shrink = max(worst_shrink, residuals[400] / max(residuals[200] / 3.5, 1e-12))
    ok = worst200 <= 1e-4 and worst_shrink <= 1.0 and worst_time < 10.0
    record_criterion(
        1, "diagonal identity, 5 kernel families", ok,
        f"max residual {worst200:.2e} at N=200, worst build {worst_time:.1f}s",
    )
    assert worst200 <= 1e-4
    assert worst_shrink <= 1.0
    assert worst_time < 10.0


def test_criterion_02_left_edge_bitwise_zero(g_cache):
    ok = True
    for name in FAMILY_NAMES:
        for n in (200, 400):
            tk = g_cache(f"fam-{name}", n, fam(name))
            ok = ok and bool(np.all(tk.g.values[:, 0] == 0.0))
    record_criterion(2, "boundary column G(x,0) bitwise zero", ok)
    assert ok


def test_criterion_03_representation_consistency(g_cache):
    """Kernel-form e(x, lambda) vs direct Volterra marching, 20 lambdas."""
    sups = {}
    for n in (200, 400):
        grid = make_grid(n)
        fields = mild_family_fields(grid)
        worst = 0.0
        for name in FAMILY_NAMES:
            tk = g_cache(f"mild-{name}", n, mild(name))
            m = fields[name]
            for lam in LAMBDA_SET_20:
                diff = np.abs(eval_e_via_g(tk, lam) - eval_e_direct(m, lam)).max()
                worst = max(worst, float(diff))
        sups[n] = worst
    order = float(np.log2(sups[200] / sups[400]))
    ok = sups[200] <= 1e-4 and 1.7 <= order <= 2.3
    record_criterion(
        3, "two-path consistency over 20 lambdas", ok,
        f"sup {sups[200]:.2e} at N=200, order {order:.2f}",
    )
    assert sups[200] <= 1e-4
    assert 1.7 <= order <= 2.3


def test_criterion_04_constant_kernel_oracle(g_cache):
    """Delta and eigenvalues for M = 1 against the closed-form ODE reduction."""
    ev = DeltaEvaluator(
        g_cache("const1", 400, lambda g: TriangularField.constant(g, 1.0)),
        g_cache("const1", 800, lambda g: TriangularField.constant(g, 1.0)),
    )
    lams = np.linspace(-6.0, 6.0, 100).astype(complex)
    delta_err = float(np.abs(
        ev(lams) - np.array([constant_kernel_delta(complex(l)) for l in lams])
    ).max())

    spec = find_spectrum(ev, ORACLE_WINDOW)
    oracle = oracle_roots_in_window(-6.0, 6.0, -6.0, 0.5)
    counts_agree = spec.total_count == len(oracle)
    root_err = (
        max(abs(e.value - r) for e, r in zip(spec.eigenvalues, oracle))
        if counts_agree else float("inf")
    )
    ok = delta_err <= 1e-5 and counts_agree and root_err <= 1e-6
    record_criterion(
        4, "constant-kernel oracle", ok,
        f"Delta err {delta_err:.2e}, {spec.total_count} roots, "
        f"worst root err {root_err:.2e}",
    )
    assert delta_err <= 1e-5
    assert counts_agree
    assert root_err <= 1e-6


def test_criterion_05_empty_spectrum():
    tk = compute_g(TriangularField.zeros(make_grid(100)))
    windows = [
        SearchWindow(-5.0, 5.0, -5.0, 0.5),
        SearchWindow(-2.0, 2.0, -1.0, 1.0),
        SearchWindow(0.5, 3.0, -3.0, -0.5),
    ]
    counts = [find_spectrum(tk, w).total_count for w in windows]
    ok = counts == [0, 0, 0]
    record_criterion(5, "empty spectrum for M = 0 on 3 windows", ok,
                     f"counts {counts}")
    assert ok


def test_criterion_06_duality_and_green_identity():
    """|e(pi) - psi(0)| and the integrated Green-type identity, order 2."""
    pairs = [("structured", "polynomial"), ("constant", "trig"), ("trig", "zero")]
    res = {}
    for n in (200, 400):
        fields = mild_family_fields(make_grid(n))
        duality = max(
            abs(eval_e_direct(fields[name], lam)[-1] - eval_psi(fields[name], lam)[0])
            for name in FAMILY_NAMES if name != "zero"
            for lam in LAMBDA_SET_10
        )
        green = max(
            verify_green_identity(fields[a], fields[b], lam)
            for a, b in pairs
            for lam in LAMBDA_SET_10
        )
        res[n] = (float(duality), float(green))
    d_order = float(np.log2(res[200][0] / res[400][0]))
    g_order = float(np.log2(res[200][1] / res[400][1]))
    ok = (
        res[200][0] <= 1e-4 and res[200][1] <= 1e-4
        and 1.7 <= d_order <= 2.3 and 1.7 <= g_order <= 2.3
    )
    record_criterion(
        6, "duality + Green identity", ok,
        f"duality {res[200][0]:.2e} (order {d_order:.2f}), "
        f"green {res[200][1]:.2e} (order {g_order:.2f})",
    )
    assert res[200][0] <= 1e-4 and res[200][1] <= 1e-4
    assert 1.7 <= d_order <= 2.3
    assert 1.7 <= g_order <= 2.3


def test_criterion_07_z_decomposition(g_cache):
    """Pointwise z against its B/K split for the structured pair, 5 lambdas."""
    n = 200
    grid = make_grid(n)
    m0 = TriangularField.from_function(grid, lambda x, t: 0.05 + 0.03 * x)
    r = TriangularField.from_function(grid, lambda x, t: 1.0 + 0.2 * np.cos(t))
    p = Profile.from_function(grid, lambda x: 0.3 * np.sin(x) + 0.15)
    pt = Profile.from_function(grid, lambda x: 0.2 * np.cos(x))
    m = assemble_kernel(StructuredKernel(m0, (KernelComponent(r, p),)))
    mt = assemble_kernel(StructuredKernel(m0, (KernelComponent(r, pt),)))

    k1 = compute_g(reflected_kernel(m))
    k2 = compute_g(mt)
    b, kk = assemble_z_kernel(k1.g, k2.g, r)
    worst = 0.0
    for lam in LAMBDA_SET_10[:5]:
        diff = np.abs(eval_z(r, m, mt, lam) - eval_z_decomposed(b, kk, lam)).max()
        worst = max(worst, float(diff))
    ok = worst <= 1e-3
    record_criterion(7, "z-kernel decomposition", ok, f"sup residual {worst:.2e}")
    assert worst <= 1e-3


def test_criterion_08_reflection_spectral_identity(g_cache):
    """Spectra of m and its reflection agree to 1e-6 (extrapolated Delta)."""
    worst = 0.0
    details = []
    for name, builder in (
        ("constant", lambda g: TriangularField.constant(g, 1.0)),
        ("structured", fam("structured")),
    ):
        key = "const1" if name == "constant" else f"fam-{name}"
        ev = DeltaEvaluator(
            g_cache(key, 400, builder), g_cache(key, 800, builder)
        )
        ev_r = DeltaEvaluator(
            g_cache(f"refl-{name}", 400, lambda g: reflected_kernel(builder(g))),
            g_cache(f"refl-{name}", 800, lambda g: reflected_kernel(builder(g))),
        )
        spec = find_spectrum(ev, ORACLE_WINDOW)
        spec_r = find_spectrum(ev_r, ORACLE_WINDOW)
        assert spec.total_count == spec_r.total_count
        gap = max(
            abs(a.value - b.value)
            for a, b in zip(spec.eigenvalues, spec_r.eigenvalues)
        )
        worst = max(worst, float(gap))
        details.append(f"{name}: {spec.total_count} eigenvalues, gap {gap:.2e}")
    ok = worst <= 1e-6
    record_criterion(8, "reflection spectral identity", ok, "; ".join(details))
    assert worst <= 1e-6


def test_criterion_09_single_profile_round_trip(g_cache):
    """Recover P(x) = sin x from a truncated spectrum, cross-grid protocol."""
    t0 = time.monotonic()
    grid_t = make_grid(400)
    true_m = TriangularField.from_function(grid_t, lambda x, t: np.sin(x - t))
    target = find_spectrum(g_cache("sinconv", 400, lambda g: (
        TriangularField.from_function(g, lambda x, t: np.sin(x - t))
    )), WIDE_WINDOW)
    assert target.total_count >= 12

    grid = make_grid(200)
    problem = InverseProblem(
        m0=TriangularField.zeros(grid),
        r=TriangularField.constant(grid, 1.0),
        target=target,
        d=8,
    )
    report = recover_profile(problem, np.zeros(8))
    sup_err = float(np.abs(report.recovered.values - np.sin(grid.nodes)).max())
    elapsed = time.monotonic() - t0
    ok = report.converged and sup_err <= 1e-2 and elapsed < 300.0
    record_criterion(
        9, "single-profile round trip", ok,
        f"{target.total_count} targets, sup err {sup_err:.2e}, {elapsed:.0f}s",
    )
    assert report.converged
    assert sup_err <= 1e-2
    assert elapsed < 300.0


def test_criterion_10_sequential_round_trip():
    """Two-component family recovered stage by stage under the same protocol."""
    t0 = time.monotonic()

    def build_family(grid):
        r = TriangularField.constant(grid, 1.0)
        return StructuredKernel(
            TriangularField.zeros(grid),
            (
                KernelComponent(r, Profile.constant(grid, 1.0)),
                KernelComponent(r, Profile.from_function(grid, np.cos)),
            ),
        )

    grid_t = make_grid(400)
    family_t = build_family(grid_t)
    spectra = [
        find_spectrum(compute_g(assemble_kernel(truncate_kernel(family_t, k))), WIDE_WINDOW)
        for k in (1, 2)
    ]

    grid = make_grid(200)
    reports = recover_sequential(spectra, build_family(grid), d=8)
    truths = [np.ones(grid.n_nodes), np.cos(grid.nodes)]
    errs = [
        float(np.abs(rep.recovered.values - truth).max())
        for rep, truth in zip(reports, truths)
    ]
    elapsed = time.monotonic() - t0
    ok = (
        len(reports) == 2
        and all(rep.converged for rep in reports)
        and max(errs) <= 1e-2
        and elapsed < 300.0
    )
    record_criterion(
        10, "sequential two-stage round trip", ok,
        f"stage errors {errs[0]:.2e}, {errs[1]:.2e}, {elapsed:.0f}s",
    )
    assert all(rep.converged for rep in reports)
    assert max(errs) <= 1e-2
    assert elapsed < 300.0


def test_criterion_11_cli_determinism(tmp_path):
    """Every CLI command writes byte-identical JSON artifacts on reruns."""
    kernel = {
        "m0": {"kind": "analytic", "family": "constant", "coeffs": [0.0]},
        "components": [{
            "r": {"kind": "analytic", "family": "constant", "coeffs": [1.0]},
            "p": {"kind": "analytic", "family": "constant", "coeffs": [1.0]},
        }],
    }
    spectrum_cfg = tmp_path / "spectrum.json"
    spectrum_cfg.write_text(json.dumps({
        "grid_n": 60, "kernel": kernel,
        "window": {"re_min": -6.0, "re_max": 6.0, "im_min": -6.0, "im_max": 0.5},
    }))
    spec_out = tmp_path / "spec_target"
    assert cli_main([
        "spectrum", "--config", str(spectrum_cfg), "--out", str(spec_out),
    ]) == EXIT_OK

    configs = {
        "forward": {"grid_n": 40, "kernel": kernel},
        "spectrum": json.loads(spectrum_cfg.read_text()),
        "invert": {
            "grid_n": 60, "d": 4,
            "kernel": {"m0": kernel["m0"],
                       "components": [{"r": kernel["components"][0]["r"]}]},
            "target": str(spec_out / "spectrum.json"),
        },
        "verify": {
            "grid_n": 30,
            "m0": {"kind": "analytic", "family": "constant", "coeffs": [0.05]},
            "r": {"kind": "analytic", "family": "constant", "coeffs": [1.0]},
            "p": {"kind": "analytic", "family": "trig", "coeffs": [[0.3, 1.0, 0.0]]},
            "p_tilde": {"kind": "analytic", "family": "constant", "coeffs": [0.2]},
        },
    }
    ok = True
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}_cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            assert cli_main([
                command, "--config", str(cfg_path), "--out", str(out),
            ]) == EXIT_OK
            artifacts = sorted(p.name for p in out.glob("*.json"))
            blobs.append({name: (out / name).read_bytes() for name in artifacts})
        ok = ok and blobs[0] == blobs[1] and len(blobs[0]) > 0
    record_criterion(11, "CLI artifact determinism", ok)
    assert ok
