import ast
import contextlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idospec.cli
import idospec.inverse
import idospec.spectral
import idospec.transform
from idospec import serialize
from idospec.kernels import (
    KernelComponent, NumericalFailure, StructuredKernel, assemble_kernel, kernel_samples,
)
from idospec.quadrature import Profile, TriangularField, as_field, make_grid
from idospec.spectral import DeltaEvaluator, SearchWindow, char_delta, eval_e_via_g
from idospec.transform import build_g, compute_g, last_row
from idospec.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_WEIGHT,
    MAX_EDGE_SAMPLES,
    MAX_HEATMAP_POINTS,
    _OPTION_RANGES,
    main,
)

from oracles import delta_of, find_spectrum_subdivision, transform_kernel_from_files

# A numpy warning that reaches a command is a leak: each command refuses bad
# input with one config-error line, not a warning first.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONST_KERNEL = {
    "m0": {"kind": "analytic", "family": "constant", "coeffs": [0.0]},
    "components": [
        {
            "r": {"kind": "analytic", "family": "constant", "coeffs": [1.0]},
            "p": {"kind": "analytic", "family": "constant", "coeffs": [1.0]},
        }
    ],
}


# R = 1 + 0.2 t: M0 + R P(x - t) is then no difference kernel, so invert fits
# it on the G path, and not its own reflection (x, t) -> (pi - t, pi - x), so
# verify builds the reflected G
TILTED_R = {"kind": "analytic", "family": "polynomial", "coeffs": [[1.0, 0, 0], [0.2, 0, 1]]}


WINDOW = {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5}


@pytest.mark.parametrize("error", [
    idospec.transform.PicardConvergenceError, idospec.inverse.NonFiniteResidualError,
    idospec.spectral.PhaseTrackingError, idospec.spectral.BoundaryNearZeroError,
])
def test_numerical_errors_share_one_class(error):
    # main reports each as exit 3 through this one class
    assert issubclass(error, NumericalFailure)


def test_only_main_reports_a_failure():
    # the commands and helpers raise; main alone prints and returns exit codes
    tree = ast.parse(Path(idospec.cli.__file__).read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name != "main":
            names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            assert not {name for name in names if name == "print" or name.startswith("EXIT_")}, fn.name


def base_config(command, **extra):
    """A fresh config of command at grid_n 16 holding only keys it reads, updated by extra.

    invert's target, "spec.json", is not read before the grid.
    """
    cfg = {"grid_n": 16}
    if command == "verify":
        cfg.update({k: CONST_KERNEL["m0"] for k in ("m0", "r", "p", "p_tilde")})
    else:
        cfg["kernel"] = CONST_KERNEL
    if command == "spectrum":
        cfg["window"] = WINDOW
    if command == "invert":
        cfg.update(d=4, target="spec.json")
    return json.loads(json.dumps({**cfg, **extra}))


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def target_spectrum(workdir):
    """spectrum.json for the constant kernel at n = 80, produced by the CLI."""
    cfg = write_config(workdir / "spec_cfg.json", {
        "grid_n": 80,
        "kernel": CONST_KERNEL,
        "window": {"re_min": -6.0, "re_max": 6.0, "im_min": -6.0, "im_max": 0.5},
    })
    out = workdir / "spec_out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
    return out / "spectrum.json"


class TestForward:
    def test_artifacts_written(self, workdir):
        cfg = write_config(workdir / "fwd_cfg.json", {
            "grid_n": 30,
            "kernel": CONST_KERNEL,
        })
        out = workdir / "fwd_out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "forward_report.json").read_text())
        assert report["diagonal_identity_residual"] < 1e-10
        assert report["boundary_column_max"] == 0.0
        assert (out / "g_kernel.csv").is_file()
        assert (out / "e_samples.csv").is_file()

    @pytest.mark.parametrize("r, build, terms", [(None, "series", 0), (TILTED_R, "march", 2)])
    def test_reports_how_g_was_built(self, workdir, r, build, terms):
        # M = P(x - t) is summed as a series, with no march and no Picard
        # update; the tilted R makes M no difference kernel, so it is marched
        kernel = json.loads(json.dumps(CONST_KERNEL))
        if r is not None:
            kernel["components"][0]["r"] = r
        cfg = write_config(workdir / f"fwd_{build}.json", {"grid_n": 30, "kernel": kernel})
        out = workdir / f"fwd_{build}_out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "forward_report.json").read_text())
        meta = json.loads((out / "g_kernel_meta.json").read_text())
        assert (report["g_build"], report["picard_terms"]) == (meta["g_build"], meta["iterations"]) == (
            build, terms)
        assert report["picard_term_norms"] == meta["term_norms"] and len(meta["term_norms"]) == terms
        assert report["provenance"]["grid_n"] == 30

    def test_grid_override(self, workdir):
        cfg = write_config(workdir / "fwd_cfg2.json", {
            "grid_n": 30,
            "kernel": CONST_KERNEL,
        })
        out = workdir / "fwd_out2"
        assert main([
            "forward", "--config", cfg, "--out", str(out), "--grid-n", "16",
        ]) == EXIT_OK
        report = json.loads((out / "forward_report.json").read_text())
        assert report["provenance"]["grid_n"] == 16

    def test_reruns_byte_identical(self, workdir):
        cfg = write_config(workdir / "fwd_cfg3.json", {
            "grid_n": 24,
            "kernel": CONST_KERNEL,
        })
        outs = []
        for tag in ("a", "b"):
            out = workdir / f"fwd_det_{tag}"
            assert main(["forward", "--config", cfg, "--out", str(out)]) == EXIT_OK
            outs.append(out)
        for name in ("g_kernel.csv", "g_kernel_meta.json", "e_samples.csv",
                     "forward_report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_e_samples_match_per_float_writer(self, workdir):
        lambdas = [[-0.0, 0.0], [1e-5, 2.5], [3.0, -0.5]]
        cfg = write_config(workdir / "fwd_e.json", {
            "grid_n": 30, "kernel": CONST_KERNEL, "lambdas": lambdas,
        })
        out = workdir / "fwd_e_out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == EXIT_OK
        g = transform_kernel_from_files(out / "g_kernel.csv", out / "g_kernel_meta.json")
        fmt = serialize.fmt
        expect = ["lambda_re,lambda_im,x,re,im\n"]
        for re_, im in lambdas:
            lam = complex(re_, im)
            for x, v in zip(g.grid.nodes, eval_e_via_g(g, lam)):
                expect.append(f"{fmt(lam.real)},{fmt(lam.imag)},{fmt(x)},{fmt(v.real)},{fmt(v.imag)}\n")
        assert (out / "e_samples.csv").read_bytes() == "".join(expect).encode()

    def test_picard_budget_exhausted(self, workdir, capsys):
        # max_terms is retired: the budget that allowed no update is refused
        cfg = write_config(workdir / "fwd_bad.json", {
            "grid_n": 30,
            "kernel": CONST_KERNEL,
            "max_terms": 1,
        })
        out = workdir / "fwd_bad_out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "max_terms" in capsys.readouterr().err


# The six truths P = a1 sin(x + phi1) + a2 sin(2x + phi2) of benchmark seed 1,
# as [[a1, 1, phi1], [a2, 2, phi2]]
BENCH_SEED1_TRUTHS = [
    [[0.338718445717945, 1, 3.6731843319365467], [0.08059479868228293, 2, 4.352465272235334]],
    [[0.5087115532273615, 1, 0.6205420232966173], [0.22852571848355674, 2, 3.0046541417873356]],
    [[0.6089519045313043, 1, 4.681695616737447], [0.11245577902352916, 2, 0.4155407300242823]],
    [[0.6583934951283306, 1, 1.1933276684656808], [0.29904329143941444, 2, 3.4923697674449223]],
    [[0.794798673896836, 1, 6.161461514881853], [0.027674806371515773, 2, 5.5161135133391115]],
    [[0.9540905730636418, 1, 2.977289210833149], [0.16108791004334733, 2, 2.0329216673437718]],
]


class TestSpectrum:
    @pytest.mark.parametrize("coeffs", BENCH_SEED1_TRUTHS)
    def test_benchmark_invert_targets(self, workdir, coeffs):
        # the target spectra the benchmark's invert set-up builds, at grid_n
        # 200 on its window, here with the default search settings: each is
        # certified on the companion path, and its roots are the subdivision
        # oracle's on the same G
        window = {"re_min": -20.0, "re_max": 20.0, "im_min": -8.0, "im_max": 0.5}
        cfg = {"grid_n": 200, "window": window, "kernel": {
            "m0": CONST_KERNEL["m0"],
            "components": [{"r": CONST_KERNEL["components"][0]["r"],
                            "p": {"kind": "analytic", "family": "trig", "coeffs": coeffs}}],
        }}
        tag = f"{coeffs[0][0]:.3f}"
        out = workdir / f"spec_bench_out_{tag}"
        path = write_config(workdir / f"spec_bench_{tag}.json", cfg)
        assert main(["spectrum", "--config", path, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "spectrum.json").read_text())["search"]["path"] == "companion"
        spec = serialize.spectrum_from_json(out / "spectrum.json")
        run = idospec.cli._parse(cfg, "spectrum", None)
        g = build_g(kernel_samples(idospec.cli._sample_kernel(run["kernel"], make_grid(200))))
        ref = find_spectrum_subdivision(delta_of(g), SearchWindow(**window))
        assert spec.total_count == ref.total_count >= 18
        assert len(spec.eigenvalues) == len(ref.eigenvalues)
        for a, b in zip(spec.eigenvalues, ref.eigenvalues):
            assert a.multiplicity == b.multiplicity
            assert a.newton_converged == b.newton_converged
            assert abs(a.value - b.value) <= 1e-12

    def test_matches_library_roots(self, target_spectrum):
        spec = serialize.spectrum_from_json(target_spectrum)
        assert spec.total_count == 4
        assert all(ev.multiplicity == 1 for ev in spec.eigenvalues)

    def test_reruns_byte_identical(self, workdir):
        cfg = write_config(workdir / "spec_det.json", {
            "grid_n": 60,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
        })
        blobs = []
        for tag in ("a", "b"):
            out = workdir / f"spec_det_{tag}"
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
            blobs.append((out / "spectrum.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_search_stats_written(self, workdir, monkeypatch):
        calls, bounds = [], []
        delta = idospec.spectral.char_delta_deriv

        def recording(coef, lam, order=0):
            # the rounding bound is the one sum over |coef|, which is real
            (bounds if np.isrealobj(coef) else calls).append((order, np.size(lam)))
            return delta(coef, lam, order)

        monkeypatch.setattr(idospec.spectral, "char_delta_deriv", recording)
        # the top edge passes 0.05 above the zero near -2.545 - 1.3225i, so
        # the phase along it needs refining
        cfg = write_config(workdir / "spec_stats.json", {
            "grid_n": 60,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": -1.27},
            "extrapolate": True,
        })
        out = workdir / "spec_stats_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "spectrum.json").read_text())
        # one pass, no square: each Newton step calls Delta' once, and the
        # radii of the end points call Delta', Delta'' and Delta''' after them
        *steps, radii = [size for order, size in calls if order == 1]
        assert [size for order, size in calls if order > 1] == [radii, radii]
        # Delta is called on the window boundary, once per phase refinement
        # round, once per Newton step and once for the residuals; its bound
        # once per step, once for the radii and once for the residuals
        rounds = sum(order == 0 for order, _ in calls) - len(steps) - 2
        assert data["search"] == {
            "path": "companion", "candidates": steps[0], "newton_steps": len(steps),
            "phase_refinements": rounds,
        }
        assert rounds > 0
        assert len(bounds) == len(steps) + 2
        assert steps[0] >= data["total_count"] > 0
        assert data["deriv_evals"] == sum(size for order, size in calls if order)
        assert data["delta_evals"] == sum(size for order, size in calls if order == 0)

    def test_heatmap_written(self, workdir):
        cfg = write_config(workdir / "spec_hm.json", {
            "grid_n": 40,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
            "heatmap": {"nx": 10, "ny": 8},
        })
        out = workdir / "spec_hm_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "delta_heatmap.csv").read_text().strip().splitlines()
        assert lines[0] == "re,im,abs_delta"
        assert len(lines) == 1 + 10 * 8

    def test_heatmap_matches_per_float_writer(self, workdir):
        window = {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5}
        cfg = write_config(workdir / "spec_hm_bytes.json", {
            "grid_n": 40, "kernel": CONST_KERNEL, "window": window,
            "heatmap": {"nx": 9, "ny": 7},
        })
        out = workdir / "spec_hm_bytes_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        # CONST_KERNEL is M = 1 exactly, the Profile 1, so this is the command's row
        row, way = last_row(Profile.constant(make_grid(40), 1.0))
        assert way == json.loads((out / "spectrum.json").read_text())["g_row"] == "series"
        evaluator = DeltaEvaluator(row)
        fmt = serialize.fmt
        expect = ["re,im,abs_delta\n"]
        res = np.linspace(window["re_min"], window["re_max"], 9)
        for im in np.linspace(window["im_min"], window["im_max"], 7):
            vals = np.abs(evaluator((res + 1j * im).astype(complex)))
            expect += [f"{fmt(re_)},{fmt(im)},{fmt(v)}\n" for re_, v in zip(res, vals)]
        assert (out / "delta_heatmap.csv").read_bytes() == "".join(expect).encode()

    def test_extrapolated_heatmap_uses_the_search_evaluator(self, workdir):
        cfg = write_config(workdir / "spec_hm_ex.json", {
            "grid_n": 40,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
            "extrapolate": True,
            "heatmap": {"nx": 6, "ny": 5},
        })
        out = workdir / "spec_hm_ex_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = np.loadtxt(out / "delta_heatmap.csv", delimiter=",", skiprows=1)
        lams = data[:, 0] + 1j * data[:, 1]
        # CONST_KERNEL assembles to M = 1 exactly
        g, g_f = (compute_g(TriangularField.constant(make_grid(n), 1.0)) for n in (40, 80))
        expect = np.abs(DeltaEvaluator(g.g.values[-1], g_f.g.values[-1])(lams))
        assert np.abs(data[:, 2] - expect).max() <= 1e-12 * expect.max()
        coarse = np.abs(char_delta(g, lams))
        assert np.abs(data[:, 2] - coarse).max() > 1e-6 * expect.max()

    def test_counters_equal_points_evaluated(self, workdir, monkeypatch):
        # delta_evals counts the points of Delta, deriv_evals those of its
        # derivatives of every order; neither counts the rounding bound, the
        # one sum over |coef|, which is real
        points = {0: 0, 1: 0}
        evaluate = idospec.spectral.char_delta_deriv

        def counting(coef, lam, order=0):
            if np.iscomplexobj(coef):
                points[min(order, 1)] += np.size(lam)
            return evaluate(coef, lam, order)

        monkeypatch.setattr(idospec.spectral, "char_delta_deriv", counting)
        cfg = write_config(workdir / "spec_count.json", {
            "grid_n": 40,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
            "extrapolate": True,
        })
        out = workdir / "spec_count_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = json.loads((out / "spectrum.json").read_text())
        assert data["delta_evals"] == points[0] > 0
        assert data["deriv_evals"] == points[1] > 0

    @pytest.mark.parametrize("reach, code", [(8.0, EXIT_CONFIG), (7.5, EXIT_OK)])
    def test_window_beyond_alias_limit_refused(self, workdir, reach, code, monkeypatch):
        builds = []
        monkeypatch.setattr(
            idospec.cli, "last_row", lambda *a, **k: builds.append(1) or last_row(*a, **k)
        )
        cfg = write_config(workdir / f"spec_alias_{reach}.json", {
            "grid_n": 8,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -1.0, "re_max": reach, "im_min": -2.0, "im_max": 0.5},
        })
        out = workdir / f"spec_alias_out_{reach}"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == code
        # refused before any row is formed
        assert bool(builds) == (code == EXIT_OK)

    @pytest.mark.parametrize("reach", [8.0, 7.5])
    def test_target_window_beyond_alias_limit_refused(
        self, workdir, target_spectrum, reach, monkeypatch, capsys
    ):
        # every residual of a fit, on either path, is a spectrum_residual call
        residuals = []
        residual = idospec.inverse.spectrum_residual
        monkeypatch.setattr(
            idospec.inverse, "spectrum_residual",
            lambda *a, **k: residuals.append(1) or residual(*a, **k),
        )
        data = json.loads(target_spectrum.read_text())
        data["window"]["re_min"] = -reach
        target = workdir / f"spec_alias_target_{reach}.json"
        target.write_text(json.dumps(data))
        cfg = write_config(workdir / f"inv_alias_{reach}.json", {
            "grid_n": 8, "d": 4, "target": str(target), "opts": {"max_iter": 1},
            "kernel": {"m0": CONST_KERNEL["m0"],
                       "components": [{"r": CONST_KERNEL["components"][0]["r"]}]},
        })
        out = workdir / f"inv_alias_out_{reach}"
        code = main(["invert", "--config", cfg, "--out", str(out)])
        # a window at pi/h = 8 is refused, naming the file, before any residual
        refused = reach >= 8
        assert (code == EXIT_CONFIG) == refused
        assert bool(residuals) != refused
        assert (str(target) in capsys.readouterr().err) == refused

    def test_target_root_outside_its_window_refused(self, workdir, target_spectrum, monkeypatch, capsys):
        # at grid_n 8 the window (-6, 6) is alias-free, but a root at Re 45
        # lies beyond pi/h = 8 as well as outside the window: it is refused,
        # naming the file and the root, before any G build
        builds = []
        for module, name in ((idospec.cli, "build_g"), (idospec.inverse, "compute_g"),
                             (idospec.transform, "compute_g")):
            monkeypatch.setattr(module, name, lambda *a, **k: builds.append(1))
        data = json.loads(target_spectrum.read_text())
        data["eigenvalues"][0]["re"] = 45.0
        root = complex(45.0, data["eigenvalues"][0]["im"])
        target = workdir / "spec_outside.json"
        target.write_text(json.dumps(data))
        cfg = write_config(workdir / "inv_outside.json", {
            "grid_n": 8, "d": 4, "target": str(target),
            "kernel": {"m0": CONST_KERNEL["m0"],
                       "components": [{"r": CONST_KERNEL["components"][0]["r"]}]},
        })
        assert main(["invert", "--config", cfg, "--out", str(workdir / "inv_outside_out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(target) in err and f"root {root} outside its window" in err, err
        assert not builds

    def test_contour_through_a_zero_is_a_numerical_failure(self, workdir, monkeypatch, capsys):
        def through_a_zero(*args):
            raise idospec.spectral.BoundaryNearZeroError(complex(1.5, -2.25), 3.14159e-20)

        monkeypatch.setattr(idospec.cli, "find_spectrum", through_a_zero)
        cfg = write_config(workdir / "spec_bnz.json", {
            "grid_n": 16, "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
        })
        assert main(["spectrum", "--config", cfg, "--out", str(workdir / "spec_bnz_out")]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: contour too close to a zero at lambda = (1.5-2.25j): |Delta| = 3.142e-20\n"
        )

    def test_unknown_option_is_config_error(self, workdir, capsys):
        cfg = write_config(workdir / "spec_badopt.json", {
            "grid_n": 40,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
            "opts": {"initial_edge_samples": 20, "cell_sise": 1e-4},
        })
        out = workdir / "spec_badopt_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "cell_sise" in capsys.readouterr().err
        assert not (out / "spectrum.json").exists()

    def test_max_depth_is_gone(self, workdir, capsys):
        cfg = write_config(workdir / "spec_depth.json", {
            "grid_n": 16,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
            "opts": {"max_depth": 60},
        })
        out = workdir / "spec_depth_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "max_depth" in capsys.readouterr().err

    def test_options_must_be_an_object(self, workdir):
        cfg = write_config(workdir / "spec_listopt.json", {
            "grid_n": 40,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
            "opts": [["initial_edge_samples", 64]],
        })
        out = workdir / "spec_listopt_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG

    def test_bad_window_is_config_error(self, workdir):
        cfg = write_config(workdir / "spec_badwin.json", {
            "grid_n": 40,
            "kernel": CONST_KERNEL,
            "window": {"re_min": 4.0, "re_max": -4.0, "im_min": -4.0, "im_max": 0.5},
        })
        out = workdir / "spec_badwin_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG


def _constant(c):
    return {"kind": "analytic", "family": "constant", "coeffs": [c]}


# config constants of m0 and r: zeros of both signs, negatives and a spread
_FACTORS = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0]), st.floats(-3.0, 3.0))


@st.composite
def _profile_specs(draw, n, folder):
    """A P spec of each kind: constant, polynomial, trig or a samples CSV on n intervals."""
    kind = draw(st.sampled_from(["constant", "polynomial", "trig", "samples"]))
    small = st.floats(-2.0, 2.0)
    if kind == "constant":
        return _constant(draw(small))
    if kind == "polynomial":
        return {"kind": "analytic", "family": "polynomial",
                "coeffs": draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))}
    if kind == "trig":
        return {"kind": "analytic", "family": "trig", "coeffs": draw(st.lists(
            st.tuples(small, st.floats(0.0, 4.0), st.floats(-3.0, 3.0)).map(list),
            min_size=1, max_size=3))}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    path = folder / f"p_{n}_{draw(st.integers(0, 10**9))}.csv"
    grid = make_grid(n)
    serialize.profile_to_csv(Profile(grid, np.array([1.0, 1j]) @ rng.uniform(-1.0, 1.0, (2, n + 1))), path)
    return {"kind": "samples", "path": str(path)}


class TestDifferenceSamples:
    """A kernel whose m0 and every r are analytic constants is the Profile of
    M's N + 1 difference samples from config to root, formed with no field,
    bitwise column 0 of the M assemble_kernel forms; any other kernel is
    assembled."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 401), m0=_FACTORS,
           rs=st.lists(_FACTORS, min_size=0, max_size=3), r2=_FACTORS)
    def test_samples_are_column_0_bitwise(self, workdir, data, n, m0, rs, r2):
        # kernel_samples' Profile read at x - t is the field assemble_kernel
        # forms of the same parts, bitwise in every entry; so is the stage-2
        # update m0 + r P_recovered that recover_sequential forms from it,
        # against the update of the fields
        grid = make_grid(n)
        specs = [data.draw(_profile_specs(n, workdir)) for _ in rs]
        kernel = idospec.cli._parse_kernel({"m0": _constant(m0), "components": [
            {"r": _constant(r), "p": p} for r, p in zip(rs, specs)]})
        sk = idospec.cli._sample_kernel(kernel, grid)
        p, m = kernel_samples(sk), assemble_kernel(sk)
        assert isinstance(p, Profile) and p.grid is grid
        assert as_field(p).values.tobytes() == m.values.tobytes()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        recovered = Profile(grid, rng.uniform(-1.0, 1.0, n + 1).astype(complex))
        r = Profile.constant(grid, r2)
        update = kernel_samples(StructuredKernel(p, (KernelComponent(r, recovered),)))
        fields = assemble_kernel(StructuredKernel(m, (KernelComponent(as_field(r), recovered),)))
        assert isinstance(update, Profile)
        assert update.values.tobytes() == fields.values[:, 0].tobytes()

    def test_declined_series_marches_the_same_row(self, workdir, monkeypatch):
        # P = 100 at N = 100: the series' rounding guard declines, and the
        # row is compute_g's of M = 100, bitwise
        rows = []
        monkeypatch.setattr(idospec.cli, "last_row", lambda *a: rows.append(last_row(*a)) or rows[-1])
        kernel = {"m0": _constant(0.0), "components": [{"r": _constant(1.0), "p": _constant(100.0)}]}
        cfg = write_config(workdir / "spec_p100.json", {
            "grid_n": 100, "kernel": kernel,
            "window": {"re_min": -2.0, "re_max": 2.0, "im_min": -2.0, "im_max": 0.5}})
        out = workdir / "spec_p100_out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "spectrum.json").read_text())["g_row"] == "march"
        ((row, way),) = rows
        ref = compute_g(TriangularField.constant(make_grid(100), 100.0)).g.values[-1]
        assert way == "march" and row.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("r", [TILTED_R, CONST_KERNEL["components"][0]["r"]], ids=["tilted", "constant"])
    @pytest.mark.parametrize("command", ["spectrum", "forward", "verify", "invert"])
    def test_only_a_factor_that_is_no_constant_assembles_the_field(
        self, workdir, target_spectrum, monkeypatch, command, r
    ):
        # constant factors: no field is sampled or assembled, and every G
        # and row is summed as a series. The tilted R is sampled and
        # assembled, and G is marched
        calls, builds = [], []
        for module, name in ((idospec.cli, "field_from_family"), (idospec.kernels, "assemble_kernel"),
                             (idospec.inverse, "assemble_kernel")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        for module in (idospec.transform, idospec.inverse):
            monkeypatch.setattr(module, "compute_g",
                                lambda *a, fn=module.compute_g: builds.append(1) or fn(*a))
        zero, one = _constant(0.0), _constant(1.0)
        cfg = {
            "spectrum": {"grid_n": 40, "kernel": {"m0": zero, "components": [{"r": r, "p": one}]},
                         "window": WINDOW, "extrapolate": True},
            "forward": {"grid_n": 40, "kernel": {"m0": zero, "components": [{"r": r, "p": one}]}},
            "verify": {"grid_n": 20, "m0": zero, "r": r, "p": one, "p_tilde": _constant(0.5)},
            "invert": {"grid_n": 80, "d": 4, "init": [0.8] * 4, "opts": {"max_iter": 1},
                       "kernel": {"m0": zero, "components": [{"r": r}]}, "target": str(target_spectrum)},
        }[command]
        tag = f"assembled_{command}_{'tilted' if r is TILTED_R else 'constant'}"
        code = main([command, "--config", write_config(workdir / f"{tag}.json", cfg),
                     "--out", str(workdir / tag)])
        # one LM iteration from 0.8 does not converge
        assert code == (EXIT_NUMERICAL if command == "invert" else EXIT_OK)
        tilted = r is TILTED_R
        assert set(calls) == ({"field_from_family", "assemble_kernel"} if tilted else set())
        assert bool(builds) == tilted
        records = {"spectrum": ("spectrum.json", "g_row"), "forward": ("forward_report.json", "g_build")}
        if command in records:
            name, key = records[command]
            assert json.loads((workdir / tag / name).read_text())[key] == ("march" if tilted else "series")
        if command == "invert":
            (stage,) = json.loads((workdir / tag / "recovery_report.json").read_text())["stages"]
            assert (stage["g_builds"] > 0) == tilted and stage["g_builds"] == len(builds)

    def test_overflowing_product_exits_numerical(self, workdir, capsys):
        # P = 10 is finite, but r P is not: the series declines, and the
        # march of the field of inf fails with its message, as the assembled
        # M's did
        kernel = {"m0": _constant(1.0), "components": [{"r": _constant(1e308), "p": _constant(10.0)}]}
        cfg = write_config(workdir / "spec_rp_overflow.json", {
            "grid_n": 8, "kernel": kernel, "window": WINDOW})
        code = main(["spectrum", "--config", cfg, "--out", str(workdir / "spec_rp_overflow")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: march sup norm") and err.count("\n") == 1, err


class TestInvert:
    def invert_cfg(self, target, **extra):
        cfg = {
            "grid_n": 80,
            "d": 4,
            "kernel": {
                "m0": CONST_KERNEL["m0"],
                "components": [{"r": CONST_KERNEL["components"][0]["r"]}],
            },
            "target": str(target),
        }
        cfg.update(extra)
        return cfg

    def test_recovers_constant_profile(self, workdir, target_spectrum):
        cfg = write_config(
            workdir / "inv_cfg.json", self.invert_cfg(target_spectrum)
        )
        out = workdir / "inv_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "recovery_report.json").read_text())
        assert report["stages"][0]["converged"]
        prof = serialize.profile_from_csv(out / "recovered_profile_1.csv")
        assert np.abs(prof.values - 1.0).max() < 1e-2

    def test_report_records_the_weight_each_stage_used(self, workdir, target_spectrum):
        # 4 targets are fewer than 2d = 8 data: mu = 0 fits with 1e-6
        data = json.loads(target_spectrum.read_text())
        assert data["total_count"] == 4
        for mu, used in ((None, 1e-6), (1e-3, 1e-3)):
            extra = {} if mu is None else {"mu": mu}
            cfg = write_config(workdir / f"inv_mu_{mu}.json", self.invert_cfg(target_spectrum, **extra))
            out = workdir / f"inv_mu_out_{mu}"
            assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_OK
            report = json.loads((out / "recovery_report.json").read_text())
            assert report["mu"] == (mu or 0.0)
            assert report["stages"][0]["mu"] == used

    def test_report_counts_g_builds(self, workdir, target_spectrum, monkeypatch):
        # builds of the G path (inverse) and of a series row's march (transform)
        builds = []
        build = idospec.transform.compute_g
        for module in (idospec.inverse, idospec.transform):
            monkeypatch.setattr(module, "compute_g", lambda *a, **k: builds.append(1) or build(*a, **k))
        # On the G path, which the tilted R takes at grid_n 80 and 81, each
        # residual builds G, and each Jacobian one G per parameter for its
        # forward differences, d = 4. The R = 1 fit takes the series path
        # and builds none, at grid_n 80 and at the odd 81 alike.
        for tag, r, n, per_residual, per_jacobian in (
            ("sym", None, 81, 0, 0), ("tilted", TILTED_R, 80, 1, 4),
            ("tilted_odd", TILTED_R, 81, 1, 4), ("series", None, 80, 0, 0),
        ):
            builds.clear()
            cfg = self.invert_cfg(target_spectrum, init=[0.8] * 4, grid_n=n)
            if r is not None:
                cfg["kernel"]["components"] = [{"r": r}]
            path = write_config(workdir / f"inv_count_{tag}.json", cfg)
            out = workdir / f"inv_count_out_{tag}"
            assert main(["invert", "--config", path, "--out", str(out)]) == EXIT_OK
            (stage,) = json.loads((out / "recovery_report.json").read_text())["stages"]
            assert stage["jacobian_evals"] == stage["iterations"] >= 1
            assert stage["g_builds"] == len(builds) == (
                per_residual * stage["residual_evals"] + per_jacobian * stage["jacobian_evals"]
            )

    def test_random_init_follows_the_seed(self, workdir, target_spectrum):
        # "init": "random" draws the start from --seed: one seed gives
        # byte-identical artifacts, another seed another start
        cfg = write_config(workdir / "inv_random.json", self.invert_cfg(target_spectrum, init="random"))
        outs = {}
        for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
            outs[tag] = workdir / f"inv_random_out_{tag}"
            assert main(["invert", "--config", cfg, "--out", str(outs[tag]), "--seed", str(seed)]) == EXIT_OK
        for name in ("recovery_report.json", "recovered_profile_1.csv"):
            assert (outs["a"] / name).read_bytes() == (outs["b"] / name).read_bytes()
        reports = {tag: json.loads((out / "recovery_report.json").read_text()) for tag, out in outs.items()}
        assert reports["a"]["seed"] == 5 and reports["c"]["seed"] == 6
        histories = {tag: report["stages"][0]["history"] for tag, report in reports.items()}
        assert histories["c"][0] != histories["a"][0]

    def test_unconverged_target_root_is_refused(self, workdir, target_spectrum, capsys):
        data = json.loads(target_spectrum.read_text())
        bad = data["eigenvalues"][1]
        bad["newton_converged"] = False
        edited = workdir / "spec_unconverged.json"
        edited.write_text(json.dumps(data))
        cfg = write_config(workdir / "inv_unconv.json", self.invert_cfg(edited))
        out = workdir / "inv_unconv_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert str(edited) in err
        assert str(complex(bad["re"], bad["im"])) in err
        assert not (out / "recovery_report.json").exists()

    def test_newton_flag_that_is_no_bool_is_refused(self, workdir, target_spectrum, capsys):
        # bool("false") is True, which would fit the root as converged
        data = json.loads(target_spectrum.read_text())
        data["eigenvalues"][1]["newton_converged"] = "false"
        edited = workdir / "spec_flag_text.json"
        edited.write_text(json.dumps(data))
        cfg = write_config(workdir / "inv_flag_text.json", self.invert_cfg(edited))
        out = workdir / "inv_flag_text_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"config error: malformed target spectrum file {edited}: "
                       "newton_converged must be true or false, got 'false'\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["re", "im", "residual", "re_min", "re_max", "im_min", "im_max"])
    def test_number_that_is_a_bool_is_refused(self, workdir, target_spectrum, capsys, key):
        # float(True) is 1.0: "re": true would fit a target at lambda = 1
        data = json.loads(target_spectrum.read_text())
        (data["window"] if key in data["window"] else data["eigenvalues"][1])[key] = True
        edited = workdir / f"spec_bool_{key}.json"
        edited.write_text(json.dumps(data))
        cfg = write_config(workdir / f"inv_bool_{key}.json", self.invert_cfg(edited))
        out = workdir / f"inv_bool_{key}_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"config error: malformed target spectrum file {edited}: "
                       f"{key} must be a number, got True\n")
        assert not out.exists()

    def test_iteration_starved_run_fails_numerically(self, workdir, target_spectrum, monkeypatch):
        monkeypatch.setattr(idospec.inverse, "FTOL", 1e-14)
        monkeypatch.setattr(idospec.inverse, "XTOL", 1e-14)
        cfg = write_config(
            workdir / "inv_starved.json",
            self.invert_cfg(target_spectrum, init=[0.5, 0.5, 0.5, 0.5], opts={"max_iter": 1}),
        )
        out = workdir / "inv_starved_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        # an unconverged fit still writes its profile and its report
        (stage,) = json.loads((out / "recovery_report.json").read_text())["stages"]
        assert not stage["converged"]
        assert (out / "recovered_profile_1.csv").is_file()

    def test_unconverged_fit_says_so(self, workdir, target_spectrum, capsys):
        # an unconverged fit writes its artifacts, then exits 3 with one line
        cfg = write_config(
            workdir / "inv_one_iter.json",
            self.invert_cfg(target_spectrum, init=[-3.0, 3.0, -3.0, 3.0], opts={"max_iter": 1}),
        )
        out = workdir / "inv_one_iter_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: stage 1 of 1 did not converge (LM iterations 1, cost ")
        assert err.count("\n") == 1 and err.endswith(")\n"), err
        (stage,) = json.loads((out / "recovery_report.json").read_text())["stages"]
        assert not stage["converged"] and stage["iterations"] == 1
        assert (out / "recovered_profile_1.csv").is_file()

    def test_unknown_option_is_config_error(self, workdir, target_spectrum, capsys):
        cfg = write_config(
            workdir / "inv_badopt.json",
            self.invert_cfg(target_spectrum, opts={"fd_step": 1e-3, "max_iter": 2}),
        )
        out = workdir / "inv_badopt_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "fd_step" in capsys.readouterr().err
        assert not (out / "recovery_report.json").exists()

    # R and a start from which the default fit rejects some trial steps, on
    # the series path of R = 1 and on the G path of the tilted R
    LM_STARTS = [("series", None, [-3.0, 3.0, -3.0, 3.0]), ("tilted", TILTED_R, [-3.0, 3.0, -3.0, 3.0])]

    @pytest.mark.parametrize("tag, r, init", LM_STARTS)
    def test_max_inner_takes_effect(self, workdir, target_spectrum, monkeypatch, tag, r, init):
        # from this start the default fit rejects some trial steps; with one
        # trial per iteration the first rejection ends the fit unconverged
        monkeypatch.setattr(idospec.inverse, "LM_DAMPING0", 1e-8)
        stages = {}
        for max_inner, code in ((None, EXIT_OK), (1, EXIT_NUMERICAL)):
            if max_inner is not None:
                monkeypatch.setattr(idospec.inverse, "MAX_INNER", max_inner)
            cfg = self.invert_cfg(target_spectrum, init=init)
            if r is not None:
                cfg["kernel"]["components"] = [{"r": r}]
            cfg = write_config(workdir / f"inv_inner_{tag}_{max_inner}.json", cfg)
            out = workdir / f"inv_inner_out_{tag}_{max_inner}"
            assert main(["invert", "--config", cfg, "--out", str(out)]) == code
            (stages[max_inner],) = json.loads((out / "recovery_report.json").read_text())["stages"]
        assert (stages[None]["g_builds"] == 0) == (r is None)
        assert stages[None]["residual_evals"] > stages[None]["iterations"] + 1
        assert stages[1]["residual_evals"] == stages[1]["iterations"] + 1
        assert not stages[1]["converged"]

    @pytest.mark.parametrize("path, factor, init", LM_STARTS)
    def test_report_records_damping_and_rejections(self, workdir, target_spectrum, monkeypatch, path, factor, init):
        # the start of test_max_inner_takes_effect: the default fit rejects
        # some trial steps, and with one trial per iteration it stops at the
        # first rejection
        monkeypatch.setattr(idospec.inverse, "LM_DAMPING0", 1e-8)
        for max_inner in (None, 1):
            if max_inner is not None:
                monkeypatch.setattr(idospec.inverse, "MAX_INNER", max_inner)
            cfg = self.invert_cfg(target_spectrum, init=init)
            if factor is not None:
                cfg["kernel"]["components"] = [{"r": factor}]
            cfg = write_config(workdir / f"inv_lm_{path}_{max_inner}.json", cfg)
            texts = []
            for tag in ("a", "b"):
                out = workdir / f"inv_lm_out_{path}_{max_inner}_{tag}"
                main(["invert", "--config", cfg, "--out", str(out)])
                texts.append((out / "recovery_report.json").read_bytes())
            assert texts[0] == texts[1]
            (stage,) = json.loads(texts[0])["stages"]
            damping, rejected = stage["damping"], stage["rejected_trials"]
            assert len(damping) == len(rejected) == stage["iterations"] >= 1
            accepted = stage["iterations"] - (not stage["converged"])
            assert stage["residual_evals"] == 1 + accepted + sum(rejected)
            # each rejection multiplies the damping by 10, each accepted step
            # divides it by 3 for the next iteration
            start = 1e-8
            for d, r in zip(damping, rejected):
                assert d == pytest.approx(start * 10.0**r, rel=1e-12)
                start = d / 3.0
            if max_inner is None:
                assert stage["converged"] and sum(rejected) > 0
            else:
                assert not stage["converged"] and rejected[-1] == 1

    def test_vanishing_weight_is_identifiability_error(self, workdir, target_spectrum):
        cfg = self.invert_cfg(target_spectrum)
        # r(x,t) = t - 1: weight B(x) = x^2/2 - x crosses zero at x = 2
        cfg["kernel"]["components"] = [{
            "r": {
                "kind": "analytic", "family": "polynomial",
                "coeffs": [[1.0, 0, 1], [-1.0, 0, 0]],
            }
        }]
        path = write_config(workdir / "inv_weight.json", cfg)
        out = workdir / "inv_weight_out"
        assert main(["invert", "--config", path, "--out", str(out)]) == EXIT_WEIGHT

    def test_zero_weight_is_identifiability_error(self, workdir, target_spectrum, capsys):
        # r = 0: B = 0 everywhere, so the threshold 1e-8 max|B| is 0 as well
        cfg = self.invert_cfg(target_spectrum)
        cfg["kernel"]["components"] = [{"r": {"kind": "analytic", "family": "constant", "coeffs": [0.0]}}]
        path = write_config(workdir / "inv_zero_weight.json", cfg)
        out = workdir / "inv_zero_weight_out"
        assert main(["invert", "--config", path, "--out", str(out)]) == EXIT_WEIGHT
        err = capsys.readouterr().err
        assert err.startswith("weight condition failure: ") and err.count("\n") == 1, err

    def test_missing_target_is_config_error(self, workdir):
        cfg = write_config(
            workdir / "inv_notarget.json",
            self.invert_cfg(workdir / "no_such_spectrum.json"),
        )
        out = workdir / "inv_notarget_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG


class TestVerify:
    KERNEL = {
        "m0": {"kind": "analytic", "family": "constant", "coeffs": [0.05]},
        "r": {"kind": "analytic", "family": "constant", "coeffs": [1.0]},
        "p": {"kind": "analytic", "family": "trig", "coeffs": [[0.3, 1.0, 0.0]]},
        "p_tilde": {"kind": "analytic", "family": "constant", "coeffs": [0.2]},
    }

    def test_report_residuals_and_order(self, workdir):
        cfg = write_config(workdir / "ver_cfg.json", {"grid_n": 50, **self.KERNEL})
        out = workdir / "ver_out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "verify_report.json").read_text())
        checks = report["checks"]
        for key in ("diagonal_identity", "duality", "green_identity",
                    "change_of_variables", "z_decomposition"):
            assert key in checks
            assert checks[key]["residual_h_over_2"] <= checks[key]["residual_h"] + 1e-13
        # the discretization is second order wherever the residual is not
        # already at roundoff
        order = checks["green_identity"]["observed_order"]
        assert order is not None and order > 1.5

    @pytest.mark.parametrize("count", [1, 7])
    def test_three_marches_per_grid(self, workdir, monkeypatch, count):
        # e, e~ and, unless the kernel is its own reflection, the reflected
        # kernel's march that psi reads backwards
        marches = []
        march = idospec.spectral.eval_e_direct

        def counting(m, lam):
            marches.append(m.grid.n_intervals)
            return march(m, lam)

        for module in (idospec.spectral, idospec.inverse, idospec.cli):
            if hasattr(module, "eval_e_direct"):
                monkeypatch.setattr(module, "eval_e_direct", counting)
        for tag, r, per_grid in (("sym", None, 2), ("tilted", TILTED_R, 3)):
            marches.clear()
            kernel = self.KERNEL if r is None else {**self.KERNEL, "r": r}
            cfg = write_config(workdir / f"ver_marches_{count}_{tag}.json", {
                "grid_n": 20,
                **kernel,
                "lambdas": [[0.5 * k, -0.1] for k in range(count)],
            })
            out = workdir / f"ver_marches_out_{count}_{tag}"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
            assert sorted(marches) == [20] * per_grid + [40] * per_grid

    def test_tilted_kernel_converges(self, workdir):
        # an R that is not its own reflection takes the branch that marches
        # and builds the reflected kernel; every bench kernel is symmetric
        cfg = write_config(workdir / "ver_tilted.json", {"grid_n": 20, **self.KERNEL, "r": TILTED_R})
        out = workdir / "ver_tilted_out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        checks = json.loads((out / "verify_report.json").read_text())["checks"]
        for key in ("green_identity", "change_of_variables", "z_decomposition"):
            assert 1.8 <= checks[key]["observed_order"] <= 2.2, (key, checks[key])
        assert checks["diagonal_identity"]["residual_h"] <= 1e-13
        # duality falls faster than h^2 here: observed orders 4.8-5.0 from
        # grid_n 10 to 100
        assert checks["duality"]["observed_order"] >= 1.8, checks["duality"]

    def test_one_z_per_grid(self, workdir, monkeypatch):
        # z_decomposition and change_of_variables read the same z
        calls = []
        z_of = idospec.spectral.eval_z

        def counting(r, psi, e_tilde):
            calls.append(r.grid.n_intervals)
            return z_of(r, psi, e_tilde)

        for module in (idospec.cli, idospec.inverse):
            if hasattr(module, "eval_z"):
                monkeypatch.setattr(module, "eval_z", counting)
        for tag, r in (("sym", None), ("tilted", TILTED_R)):
            calls.clear()
            kernel = self.KERNEL if r is None else {**self.KERNEL, "r": r}
            cfg = write_config(workdir / f"ver_z_{tag}.json", {"grid_n": 10, **kernel})
            out = workdir / f"ver_z_out_{tag}"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
            assert sorted(calls) == [10, 20]

    def test_picard_budget_exhausted(self, workdir, capsys):
        # max_terms is retired: the budget that allowed no update is refused
        cfg = write_config(workdir / "ver_terms.json", {"grid_n": 8, "max_terms": 1, **self.KERNEL})
        out = workdir / "ver_terms_out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "max_terms" in capsys.readouterr().err


# spectrum.json of one root, with its total_count and multiplicity left to fill in
SPECTRUM_TEXT = (
    '{"window": {"re_min": -5, "re_max": 5, "im_min": -5, "im_max": 0.5}, "h": 0.15, '
    '"total_count": %s, "eigenvalues": [{"re": 1, "im": -0.5, "multiplicity": %s, '
    '"residual": 1e-12, "newton_converged": true}]}'
)


class TestConfigErrors:
    def test_missing_config_file(self, workdir):
        out = workdir / "cfg_missing_out"
        assert main([
            "forward", "--config", str(workdir / "nope.json"), "--out", str(out),
        ]) == EXIT_CONFIG

    def test_invalid_json(self, workdir):
        bad = workdir / "broken.json"
        bad.write_text("{not json")
        out = workdir / "cfg_broken_out"
        assert main(["forward", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, slot, name, text, message", [
        ("forward", "p", "short_profile.csv", "x,re,im\n0,1,0\n1.5,1,0\n3.1,1,0\n",
         "profile file has 2 intervals, grid has 20"),
        ("forward", "m0", "not_triangular.csv", "x,t,re,im\n0,0,1,0\n1,0,1,0\n",
         "not a triangular node count"),
        ("forward", "m0", "not_numeric.csv", "x,t,re,im\nabc,0,1,0\n", "could not convert"),
        ("invert", "target", "not_json.json", "{not json", "Expecting"),
        ("invert", "target", "half_root.json", SPECTRUM_TEXT % (1, 1.5), "multiplicity"),
        ("invert", "target", "no_root.json", SPECTRUM_TEXT % (0, 0), "multiplicity"),
        ("invert", "target", "part_count.json", SPECTRUM_TEXT % (1.5, 1), "total_count"),
        ("invert", "target", "miscount.json", SPECTRUM_TEXT % (5, 1), "total_count 5"),
        ("forward", "p", "empty_profile.csv", "", "no data rows"),
        ("forward", "m0", "header_only.csv", "x,t,re,im\n", "no data rows"),
        # the grid's row count, read at the wrong nodes: a profile on [0, 1],
        # and a field written column by column where field_to_csv goes row by row
        pytest.param("forward", "p", "profile_on_unit.csv",
                     "x,re,im\n" + "".join(f"{k / 20},1,0\n" for k in range(21)),
                     "data row 2 has x = 0.05", id="profile_on_unit"),
        pytest.param("forward", "m0", "field_by_column.csv", "x,t,re,im\n" + "".join(
            f"{serialize.fmt(x)},{serialize.fmt(node)},1,0\n"
            for k, node in enumerate(make_grid(20).nodes) for x in make_grid(20).nodes[k:]
        ), "data row 3 has x, t = 0.31415926535897931, 0, not the grid's 0.15707963267948966, ",
            id="field_by_column"),
    ])
    def test_malformed_input_file(
        self, workdir, capsys, recwarn, command, slot, name, text, message
    ):
        path = workdir / name
        path.write_text(text)
        kernel = json.loads(json.dumps(CONST_KERNEL))
        cfg = {"grid_n": 20, "kernel": kernel}
        samples = {"kind": "samples", "path": str(path)}
        if slot == "p":
            kernel["components"][0]["p"] = samples
        elif slot == "m0":
            kernel["m0"] = samples
        else:
            cfg.update(d=4, target=str(path))
        cfg_path = write_config(workdir / f"cfg_malformed_{name}.json", cfg)
        out = workdir / f"cfg_malformed_{name}_out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "malformed" in err and str(path) in err and message in err
        assert err.count("\n") == 1, err
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("k, drop, text, key", [
        # json.loads keeps the last of two equal keys: this would run without extrapolating
        (0, "window", '"extrapolate": true, "extrapolate": false', "extrapolate"),
        (1, "window",
         '"window": {"re_min": -4.0, "re_min": -3.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5}',
         "window.re_min"),
        (2, "kernel",
         '"kernel": {"m0": {"kind": "analytic", "family": "constant", "coeffs": [1.0]}, "components": '
         '[{"r": {"kind": "analytic", "family": "constant", "coeffs": [1.0], "coeffs": [2.0]}}]}',
         "kernel.components[0].r.coeffs"),
    ])
    def test_duplicate_key(self, workdir, monkeypatch, capsys, k, drop, text, key):
        monkeypatch.setattr(idospec.cli, "make_grid", mock.Mock(side_effect=AssertionError))
        cfg = base_config("spectrum")
        del cfg[drop]
        path = workdir / f"cfg_duplicate_{k}.json"
        path.write_text(json.dumps(cfg)[:-1] + ", " + text + "}")
        assert main(["spectrum", "--config", str(path), "--out", str(workdir / "cfg_duplicate_out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: duplicate key {key}: a config object gives it twice\n"

    def test_more_targets_than_components(self, workdir, target_spectrum, capsys):
        cfg = write_config(workdir / "cfg_no_component.json", {
            "grid_n": 20, "d": 4, "target": str(target_spectrum),
            "kernel": {"m0": CONST_KERNEL["m0"]},
        })
        out = workdir / "cfg_no_component_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "0 kernel components" in capsys.readouterr().err

    def test_missing_grid_n(self, workdir):
        cfg = write_config(workdir / "no_grid.json", {"kernel": CONST_KERNEL})
        out = workdir / "cfg_nogrid_out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG

    def test_missing_m0(self, workdir):
        cfg = write_config(workdir / "no_m0.json", {
            "grid_n": 20, "kernel": {"components": []},
        })
        out = workdir / "cfg_nom0_out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG

    def test_unknown_family(self, workdir):
        cfg = write_config(workdir / "bad_family.json", {
            "grid_n": 20,
            "kernel": {"m0": {"kind": "analytic", "family": "wavelet", "coeffs": [1.0]}},
        })
        out = workdir / "cfg_family_out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, extra, key, start", [
        ("spectrum", {"heatmap": True}, "heatmap", "heatmap must be dict"),
        ("spectrum", {"heatmap": {"nx": 10, "ny": 8.5}}, "heatmap.ny", "heatmap.ny must be int"),
        ("forward", {"grid_n": "sixteen"}, "grid_n", "grid_n must be int"),
        ("forward", {"max_terms": 2.5}, "max_terms", "unknown key max_terms:"),
        ("invert", {"d": "eight"}, "d", "d must be int"),
        ("invert", {"mu": "none"}, "mu", "mu must be float"),
        ("invert", {"init": "ones"}, "init", "init must be"),
        ("invert", {"d": 4, "init": [0.0, 0.0, 0.0]}, "init", "init must be"),
        ("spectrum", {"opts": {"initial_edge_samples": "many"}}, "initial_edge_samples",
         "opts.initial_edge_samples must be int"),
        ("invert", {"opts": {"max_iter": True}}, "max_iter", "opts.max_iter must be int"),
        ("verify", {"lambdas": []}, "lambdas", "lambdas must be"),
        ("forward", {"lambdas": [[1.0]]}, "lambdas", "lambdas must be"),
        ("forward", {"lambdas": "0.5"}, "lambdas", "lambdas must be"),
        ("verify", {"lambdas": [[0.5, True]]}, "lambdas", "lambdas must be"),
    ])
    def test_wrong_type_refused_before_any_build(
        self, workdir, monkeypatch, capsys, command, extra, key, start
    ):
        builds = []
        for module, name in ((idospec.cli, "build_g"), (idospec.inverse, "compute_g"),
                             (idospec.transform, "compute_g")):
            monkeypatch.setattr(module, name, lambda *a, **k: builds.append(1))
        monkeypatch.setattr(idospec.cli, "last_row", lambda *a, **k: builds.append(1))
        cfg = base_config(command, **extra)
        name = f"cfg_type_{command}_{key}_{len(extra)}_{len(str(extra))}"
        path = write_config(workdir / f"{name}.json", cfg)
        assert main([command, "--config", path, "--out", str(workdir / name)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {start}")
        assert not builds

    @pytest.mark.parametrize("command, key, value", [
        ("spectrum", "initial_edge_samples", 0),
        ("spectrum", "initial_edge_samples", MAX_EDGE_SAMPLES + 1),
        ("invert", "max_iter", 0),
    ])
    def test_option_out_of_range_refused_before_any_build(
        self, workdir, monkeypatch, capsys, command, key, value
    ):
        builds = []
        for module, name in ((idospec.cli, "build_g"), (idospec.inverse, "compute_g"),
                             (idospec.transform, "compute_g")):
            monkeypatch.setattr(module, name, lambda *a, **k: builds.append(1))
        monkeypatch.setattr(idospec.cli, "last_row", lambda *a, **k: builds.append(1))
        cfg = base_config(command, opts={key: value})
        path = write_config(workdir / f"cfg_range_{key}_{value}.json", cfg)
        out = workdir / f"cfg_range_{key}_{value}_out"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert f"opts.{key}" in capsys.readouterr().err
        assert not builds

    def test_every_option_has_a_range(self):
        # each opts key is a keyword argument of the function its command
        # calls, whose default has the type the table checks
        calls = {"spectrum": idospec.spectral.find_spectrum,
                 "invert": idospec.inverse.recover_sequential}
        assert set(_OPTION_RANGES) == set(calls)
        for command, ranges in _OPTION_RANGES.items():
            params = inspect.signature(calls[command]).parameters
            for key, (kind, *_) in ranges.items():
                assert params[key].kind is inspect.Parameter.KEYWORD_ONLY
                assert type(params[key].default) is kind

    @pytest.mark.parametrize("command, extra, argv, start", [
        ("forward", {"grid_n": 10**6}, [], "grid_n 1000000 needs a 1000000-interval grid"),
        ("forward", {"grid_n": 16}, ["--grid-n", str(10**6)], "grid_n 1000000 needs a 1000000-interval grid"),
        # grid_n itself is small enough; the 2N grid these commands also build is not
        ("verify", {"grid_n": 2048}, [], "grid_n 2048 needs a 4096-interval grid"),
        ("spectrum", {"grid_n": 2048, "extrapolate": True}, [], "grid_n 2048 needs a 4096-interval grid"),
        ("spectrum", {"heatmap": {"nx": 10**4, "ny": MAX_HEATMAP_POINTS // 10**4 + 1}},
         [], "heatmap has 10000 x 101 points"),
    ])
    def test_oversized_grid_refused_before_allocation(
        self, workdir, monkeypatch, capsys, command, extra, argv, start
    ):
        def no_grid(n):
            raise AssertionError(f"make_grid({n}) called")

        monkeypatch.setattr(idospec.cli, "make_grid", no_grid)
        cfg = base_config(command, **extra)
        name = f"cfg_size_{command}_{len(argv)}_{len(extra)}"
        path = write_config(workdir / f"{name}.json", cfg)
        code = main([command, "--config", path, "--out", str(workdir / name), *argv])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {start}")


class TestOutPath:
    """An --out that is a file, or lies below one, is refused before any grid:
    the writers used to fail on it after the whole run, with a traceback."""

    @pytest.mark.parametrize("command", ["forward", "spectrum", "invert", "verify"])
    @pytest.mark.parametrize("below", ["", "x", "x/y"])
    def test_file_in_the_way_is_config_error(self, workdir, monkeypatch, capsys, command, below):
        def no_grid(n):
            raise AssertionError(f"make_grid({n}) called")

        builds = []
        monkeypatch.setattr(idospec.cli, "make_grid", no_grid)
        for module, name in ((idospec.cli, "build_g"), (idospec.inverse, "compute_g"),
                             (idospec.transform, "compute_g")):
            monkeypatch.setattr(module, name, lambda *a, **k: builds.append(1))
        monkeypatch.setattr(idospec.cli, "last_row", lambda *a, **k: builds.append(1))
        afile = workdir / f"out_file_{command}_{len(below)}"
        afile.write_text("kept\n")
        out = afile / below if below else afile
        path = write_config(workdir / f"{afile.name}.json", base_config(command))
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: --out {out}: {afile} is not a directory\n"
        assert afile.read_text() == "kept\n" and not builds


class TestRefusedBeforeAnyGrid:
    """Config faults that need no grid to see are refused before make_grid runs."""

    def run(self, workdir, monkeypatch, name, command, cfg):
        def no_grid(n):
            raise AssertionError(f"make_grid({n}) called")

        monkeypatch.setattr(idospec.cli, "make_grid", no_grid)
        path = write_config(workdir / f"{name}.json", cfg)
        return main([command, "--config", path, "--out", str(workdir / f"{name}_out")])

    @pytest.mark.parametrize("command", ["forward", "spectrum", "verify"])
    @pytest.mark.parametrize("tol, message", [
        (-1, "picard_tol"), ("tiny", "picard_tol"), (True, "picard_tol"),
        (float("nan"), "NaN"),
    ])
    def test_bad_picard_tol(self, workdir, monkeypatch, capsys, command, tol, message):
        cfg = base_config(command, picard_tol=tol)
        name = f"early_tol_{command}_{tol}"
        assert self.run(workdir, monkeypatch, name, command, cfg) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["forward", "spectrum", "invert", "verify"])
    @pytest.mark.parametrize("key, value", [
        ("max_terms", 1), ("max_terms", 60), ("picard_tol", 1e-12), ("picard_tol", None),
    ])
    def test_retired_picard_key(self, workdir, monkeypatch, capsys, command, key, value):
        # any value, the former defaults included: every G build is
        # compute_g(m), and the two keys are unknown like any other
        cfg = base_config(command, **{key: value})
        name = f"early_retired_{command}_{key}_{value}"
        assert self.run(workdir, monkeypatch, name, command, cfg) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: unknown key {key}: ")

    @pytest.mark.parametrize("command, key", [
        ("spectrum", "residual_tol"), ("spectrum", "boundary_rel_tol"),
        ("spectrum", "max_phase_refinements"), ("spectrum", "newton_max_iter"),
        ("spectrum", "newton_tol"), ("spectrum", "cell_size"), ("invert", "xtol"), ("invert", "ftol"),
        ("invert", "lm_damping0"), ("invert", "max_inner"),
    ])
    @pytest.mark.parametrize("value", [0.0, 1e-9, None])
    def test_retired_option(self, workdir, monkeypatch, capsys, command, key, value):
        # the two spectrum thresholds scale with the window boundary's largest
        # |Delta|, Newton's stop and the grouping radius (cell_size) come
        # from Delta's rounding bound, and the other keys are module
        # constants of spectral and inverse: they are no options, so a config
        # that sets one is refused
        cfg = base_config(command, opts={key: value})
        name = f"early_retired_opt_{key}_{value}"
        assert self.run(workdir, monkeypatch, name, command, cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown key opts.{key}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command, key, bound, argv", [
        ("spectrum", "opts.initial_edge_samples", MAX_EDGE_SAMPLES, []),
        ("invert", "d", 17, []),
        ("invert", "d", 17, ["--grid-n", "16"]),
    ])
    def test_integer_above_its_bound(
        self, workdir, monkeypatch, capsys, target_spectrum, command, key, bound, argv
    ):
        # one above the bound is refused, naming the key, before any grid; the
        # bound itself goes on to build one. d is at most grid_n + 1, with
        # grid_n from --grid-n where given (16, against the config's 40)
        def no_grid(n):
            raise AssertionError(f"make_grid({n}) called")

        monkeypatch.setattr(idospec.cli, "make_grid", no_grid)
        for value in (bound + 1, bound):
            cfg = base_config(command, grid_n=40 if argv else 16)
            if key == "d":
                cfg.update(d=value, target=str(target_spectrum))
            else:
                cfg["opts"] = {"initial_edge_samples": value}
            path = write_config(workdir / f"early_bound_{command}_{value}_{len(argv)}.json", cfg)
            args = [command, "--config", path, "--out", str(workdir / "early_bound_out"), *argv]
            if value > bound:
                assert main(args) == EXIT_CONFIG
                err = capsys.readouterr().err
                assert f"{key} must be int" in err and f"<= {bound}, got {value}" in err, err
            else:
                with pytest.raises(AssertionError, match="make_grid"):
                    main(args)

    def test_invert_without_target(self, workdir, monkeypatch, capsys):
        cfg = {"grid_n": 16, "d": 4, "kernel": CONST_KERNEL}
        assert self.run(workdir, monkeypatch, "early_no_target", "invert", cfg) == EXIT_CONFIG
        assert "'target' or 'targets'" in capsys.readouterr().err

    def test_invert_target_and_targets(self, workdir, monkeypatch, capsys):
        # only one of them could be read
        cfg = base_config("invert", targets=["spec.json"])
        assert self.run(workdir, monkeypatch, "early_both_targets", "invert", cfg) == EXIT_CONFIG
        assert "'target' or 'targets', and not both" in capsys.readouterr().err

    @pytest.mark.parametrize("targets", [[], "spec.json", ["a.json", 3], [["a.json"]], {}])
    def test_invert_targets_not_a_list_of_paths(self, workdir, monkeypatch, capsys, targets):
        cfg = {"grid_n": 16, "d": 4, "kernel": CONST_KERNEL, "targets": targets}
        name = f"early_targets_{len(targets)}_{type(targets).__name__}"
        assert self.run(workdir, monkeypatch, name, "invert", cfg) == EXIT_CONFIG
        assert "targets must be a non-empty list of paths" in capsys.readouterr().err

    @pytest.mark.parametrize("k, value", enumerate(["false", 1, 0, None, [True]]))
    def test_non_bool_extrapolate(self, workdir, monkeypatch, capsys, k, value):
        # "false" is a non-empty string, so it used to build the 2N grid
        cfg = base_config("spectrum", grid_n=20, extrapolate=value)
        assert self.run(workdir, monkeypatch, f"early_extrapolate_{k}", "spectrum", cfg) == EXIT_CONFIG
        assert f"extrapolate must be bool, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, path", [
        ("verify", ("m0",)), ("verify", ("p",)), ("verify", ("p_tilde",)),
        ("spectrum", ("kernel", "m0")), ("spectrum", ("kernel", "components", 0, "r")),
        ("spectrum", ("kernel", "components", 0, "p")),
    ])
    def test_samples_spec_in_a_two_grid_run(self, workdir, monkeypatch, capsys, command, path):
        # verify, and spectrum with extrapolate, sample on grids of N and 2N
        # intervals, and a samples file holds one grid: such a run used to do
        # the coarse grid's work, then refuse the file as the wrong length
        # for the fine grid. A one-grid spectrum reads the same spec
        cfg = base_config(command, grid_n=8)
        if command == "spectrum":
            cfg.update(extrapolate=True, kernel={"m0": self.CONST, "components": [{"r": self.CONST}]})
        node = cfg
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = {"kind": "samples", "path": str(workdir / "p8.csv")}
        key = TestMutatedConfigs.key_path(path)
        run = "verify" if command == "verify" else "an extrapolated spectrum"
        name = f"early_samples_{command}_{key}"
        assert self.run(workdir, monkeypatch, name, command, cfg) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"config error: {key} is a samples file, which holds one "
                                           f"grid, but {run} samples on grids of N and 2N intervals\n")
        if command == "spectrum":
            cfg["extrapolate"] = False
            assert idospec.cli._parse(cfg, command, None)["kernel"]

    @pytest.mark.parametrize("command", ["forward", "spectrum", "invert"])
    @pytest.mark.parametrize("k, kernel", enumerate([None, "const", [CONST_KERNEL]]))
    def test_kernel_object_required(self, workdir, monkeypatch, capsys, command, k, kernel):
        cfg = base_config(command, kernel=kernel)
        if kernel is None:
            del cfg["kernel"]
        name = f"early_kernel_{command}_{k}"
        assert self.run(workdir, monkeypatch, name, command, cfg) == EXIT_CONFIG
        assert f"kernel must be dict, got {kernel!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["forward", "spectrum", "invert"])
    def test_kernel_keys_at_the_top_level(self, workdir, monkeypatch, capsys, command):
        # the kernel keys at the top level of the config are not read as the kernel
        cfg = base_config(command, **CONST_KERNEL)
        name = f"early_kernel_top_{command}"
        assert self.run(workdir, monkeypatch, name, command, cfg) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: unknown key m0: ")

    CONST = CONST_KERNEL["m0"]

    # a kernel object whose contents cannot be sampled, and what the refusal names
    KERNEL_FAULTS = [
        ({"m0": CONST, "components": "x"}, "kernel.components must be a list"),
        ({"m0": CONST, "components": {"r": CONST}}, "kernel.components must be a list"),
        ({"m0": CONST, "components": ["x"]}, "kernel.components[0] must be dict, got 'x'"),
        ({"m0": CONST, "components": [{"r": CONST}] * 9}, "kernel.components must be a list of <= 8"),
        ({"components": [{"r": CONST}]}, "kernel.m0 must be dict, got None"),
        ({"m0": [0.0]}, "kernel.m0 must be dict"),
        ({"m0": CONST, "components": [{"r": CONST}, {"p": CONST}]},
         "kernel.components[1].r must be dict, got None"),
        ({"m0": CONST, "components": [{"r": 1.0}]}, "kernel.components[0].r must be dict"),
        ({"m0": CONST, "components": [{"r": CONST, "p": "const"}]},
         "kernel.components[0].p must be dict"),
    ]

    @pytest.mark.parametrize("command", ["forward", "spectrum", "invert"])
    @pytest.mark.parametrize("k, kernel, message", [(k, *f) for k, f in enumerate(KERNEL_FAULTS)])
    def test_kernel_contents(self, workdir, monkeypatch, capsys, command, k, kernel, message):
        cfg = base_config(command, grid_n=20, kernel=kernel)
        name = f"early_kernel_contents_{command}_{k}"
        assert self.run(workdir, monkeypatch, name, command, cfg) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["m0", "r", "p", "p_tilde"])
    def test_verify_without_key(self, workdir, monkeypatch, capsys, key):
        cfg = {"grid_n": 16, **{k: CONST_KERNEL["m0"] for k in ("m0", "r", "p", "p_tilde")}}
        del cfg[key]
        assert self.run(workdir, monkeypatch, f"early_verify_{key}", "verify", cfg) == EXIT_CONFIG
        assert f"{key} must be dict, got None" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["m0", "r", "p", "p_tilde"])
    @pytest.mark.parametrize("k, value", enumerate([1, "const", [CONST], None]))
    def test_verify_spec_not_an_object(self, workdir, monkeypatch, capsys, key, k, value):
        cfg = {"grid_n": 16, **{s: self.CONST for s in ("m0", "r", "p", "p_tilde")}, key: value}
        name = f"early_verify_spec_{key}_{k}"
        assert self.run(workdir, monkeypatch, name, "verify", cfg) == EXIT_CONFIG
        assert f"{key} must be dict, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("count, extra", [
        (0, {"target": "spec.json"}), (1, {"targets": ["a.json", "b.json"]}),
    ])
    def test_invert_more_targets_than_components(self, workdir, monkeypatch, capsys, count, extra):
        # refused before any target file is read: none of these exists
        kernel = {"m0": self.CONST, "components": [{"r": self.CONST}] * count}
        cfg = {"grid_n": 16, "d": 4, "kernel": kernel, **extra}
        assert self.run(workdir, monkeypatch, f"early_targets_count_{count}", "invert", cfg) == EXIT_CONFIG
        assert f"{count + 1} target spectra but only {count} kernel components" in capsys.readouterr().err

    # spectrum.json of an empty window, as spectrum writes it for M = 0 at grid_n 40
    EMPTY_SPECTRUM = ('{"window": {"re_min": -6, "re_max": 6, "im_min": -6, "im_max": 0.5}, '
                      '"h": 0.078539816339744828, "total_count": 0, "eigenvalues": []}')

    @pytest.mark.parametrize("stage", [0, 1])
    def test_invert_empty_target_without_mu(self, workdir, monkeypatch, capsys, target_spectrum, stage):
        # no eigenvalue and no regularization leave the profile undetermined
        empty = workdir / "empty_spectrum.json"
        empty.write_text(self.EMPTY_SPECTRUM)
        targets = [str(target_spectrum), str(empty)][-1 - stage:]
        cfg = {"grid_n": 16, "d": 4, "targets": targets,
               "kernel": {"m0": self.CONST, "components": [{"r": self.CONST}] * 2}}
        assert self.run(workdir, monkeypatch, f"early_empty_{stage}", "invert", cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"target spectrum {empty} is empty and mu is 0" in err and err.count("\n") == 1, err
        cfg["mu"] = 0.1                # regularized, the fit goes on to build its grid
        with pytest.raises(AssertionError, match="make_grid"):
            self.run(workdir, monkeypatch, f"early_empty_mu_{stage}", "invert", cfg)

    P = "kernel.components[0].p"

    # values that used to run, or to be refused only after the grid was built
    # with a message naming no key, and the key each refusal names now
    MALFORMED = [
        ("forward", ("components", 0, "p", "coeffs"), [True], P + ".coeffs[0]"),
        ("spectrum", ("window", "re_min"), True, "window.re_min"),
        ("spectrum", ("heatmap",), 0, "heatmap"),
        ("forward", ("components", 0, "p"),
         {"kind": "analytic", "family": "polynomial", "coeffs": [[1.0]]}, P + ".coeffs[0]"),
        ("forward", ("components", 0, "p", "coeffs"), 1.5, P + ".coeffs"),
        ("forward", ("m0",), {"kind": "samples", "path": 3}, "kernel.m0.path"),
        ("invert", ("target",), 3, "target"),
        ("forward", ("m0",),
         {"kind": "analytic", "family": "polynomial", "coeffs": [[1.0, -1, 0]]}, "kernel.m0.coeffs[0][1]"),
    ]

    @pytest.mark.parametrize("k, command, path, value, key", [(k, *m) for k, m in enumerate(MALFORMED)])
    def test_malformed_value_names_its_key(
        self, workdir, monkeypatch, capsys, k, command, path, value, key
    ):
        cfg = base_config(command)
        node = cfg["kernel"] if path[0] in CONST_KERNEL else cfg
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        assert self.run(workdir, monkeypatch, f"early_malformed_{k}", command, cfg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command, extra, message", [
        ("forward", {"lambdas": [[0.5, 1e308]]}, "lambdas must have"),
        ("verify", {"lambdas": [[1e308, 0.0]]}, "lambdas must have"),
        ("spectrum", {"window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 1e308}},
         "search window reaches |Im lambda|"),
        ("spectrum", {"window": {"re_min": -(10**400), "re_max": 4.0, "im_min": -4.0, "im_max": 0.5}},
         "window.re_min must be float"),
    ])
    def test_lambda_beyond_float_range(self, workdir, monkeypatch, capsys, command, extra, message):
        # exp(-i lambda x) overflows there, and so would e and Delta
        cfg = base_config(command, **extra)
        name = f"early_reach_{command}_{len(str(extra))}"
        assert self.run(workdir, monkeypatch, name, command, cfg) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")


class TestOverflowingValues:
    """Finite config numbers that overflow a computation end in one exit line, with no numpy warning."""

    WINDOW = {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5}
    BIG = {"kind": "analytic", "family": "constant", "coeffs": [1e308]}

    def run(self, workdir, name, command, cfg):
        path = write_config(workdir / f"{name}.json", cfg)
        return main([command, "--config", path, "--out", str(workdir / f"{name}_out")])

    @pytest.mark.parametrize("key, value, code", [
        ("mu", 1e308, EXIT_NUMERICAL), ("LM_DAMPING0", 1e308, EXIT_NUMERICAL),
        ("XTOL", 1e308, EXIT_OK), ("r", BIG, EXIT_WEIGHT),
    ])
    def test_invert(self, workdir, capsys, monkeypatch, target_spectrum, key, value, code):
        # an upper-case key is a module constant of inverse, patched in place
        kernel = {"m0": CONST_KERNEL["m0"], "components": [{"r": CONST_KERNEL["components"][0]["r"]}]}
        cfg = {"grid_n": 20, "d": 4, "init": [0.8] * 4, "kernel": kernel, "target": str(target_spectrum)}
        if key == "r":
            kernel["components"][0]["r"] = value
        elif key.isupper():
            monkeypatch.setattr(idospec.inverse, key, value)
        else:
            cfg[key] = value
        assert self.run(workdir, f"overflow_invert_{key}_{code}", "invert", cfg) == code
        err = capsys.readouterr().err
        assert err.count("\n") == (code != EXIT_OK)
        if key == "r":
            # B is inf and NaN, which is no vanishing weight
            assert err == ("weight condition failure: weight B(x) is not finite; "
                           "profile is not identifiable\n")

    def test_forward_m0(self, workdir, capsys):
        # compute_g's max_terms is no config key, so the failure does not name it
        cfg = {"grid_n": 8, "kernel": {"m0": self.BIG}}
        assert self.run(workdir, "overflow_m0", "forward", cfg) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "max_terms" not in err, err

    def test_verify_p_tilde(self, workdir, capsys):
        cfg = {"grid_n": 8, **TestVerify.KERNEL, "p_tilde": self.BIG}
        assert self.run(workdir, "overflow_verify", "verify", cfg) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_kernel_product(self, workdir, capsys):
        # R and P are finite, R P is not
        kernel = {"m0": CONST_KERNEL["m0"], "components": [{"r": self.BIG, "p": self.BIG}]}
        assert self.run(workdir, "overflow_product", "forward", {"grid_n": 8, "kernel": kernel}) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure: ")

    def test_verify_lambda_near_im_reach(self, workdir, capsys):
        # |Im lambda| = 225 is below IM_REACH, but the solutions overflow on
        # the grid of half the step: the first residual that is not finite
        # names its check and grid, and no report is written
        const = {"kind": "analytic", "family": "constant", "coeffs": [1.0]}
        cfg = {"grid_n": 20, "lambdas": [[0.0, 225.0]], "m0": const, "r": const, "p": const,
               "p_tilde": {**const, "coeffs": [0.5]}}
        assert self.run(workdir, "overflow_verify_lambda", "verify", cfg) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: change_of_variables residual is nan "
                              "on the 40-interval grid") and err.count("\n") == 1, err
        assert not (workdir / "overflow_verify_lambda_out" / "verify_report.json").exists()


class TestRefusedRunsLeaveNoOutDir:
    """The --out directory, and any parent it lacks, comes with the first
    artifact: a run refused after its config was read writes none."""

    @pytest.mark.parametrize("command, code", [
        ("forward", EXIT_NUMERICAL), ("spectrum", EXIT_CONFIG),
        ("invert", EXIT_CONFIG), ("verify", EXIT_NUMERICAL),
    ])
    def test_refused_run(self, workdir, capsys, command, code):
        big = TestOverflowingValues.BIG
        miscount = workdir / "refused_miscount.json"
        miscount.write_text(SPECTRUM_TEXT % (5, 1))
        cfg = {
            # a kernel whose G overflows
            "forward": {"grid_n": 8, "kernel": {"m0": big}},
            # a samples file that is not there, read once the grid is built
            "spectrum": {"grid_n": 8, "window": TestOverflowingValues.WINDOW, "kernel": {
                **CONST_KERNEL, "m0": {"kind": "samples", "path": str(workdir / "no_such.csv")}}},
            # a target whose total_count is not the sum of its multiplicities
            "invert": {"grid_n": 20, "d": 4, "kernel": CONST_KERNEL, "target": str(miscount)},
            # an overflowing p_tilde
            "verify": {"grid_n": 8, **TestVerify.KERNEL, "p_tilde": big},
        }[command]
        path = write_config(workdir / f"refused_{command}.json", cfg)
        parent = workdir / f"refused_{command}_out"
        assert main([command, "--config", path, "--out", str(parent / "out")]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not parent.exists()


class TestMutatedConfigs:
    """Valid configs of every command, with one or two values replaced or keys deleted."""

    # JSON values a mutation puts in place of a config value
    VALUES = [True, False, None, "x", "", [], [[]], [[1.0]], {}, 0, -1, 1.5, 1e308]
    DELETE = object()
    TILTED_P = {"kind": "analytic", "family": "polynomial", "coeffs": [0.5, 0.1]}

    @pytest.fixture(scope="class")
    def bases(self, workdir):
        grid = make_grid(8)
        serialize.field_to_csv(TriangularField.constant(grid, 0.1), workdir / "mut_m0.csv")
        const = CONST_KERNEL["m0"]
        spec_cfg = write_config(workdir / "mut_target.json", {
            "grid_n": 12, "kernel": CONST_KERNEL,
            "window": {"re_min": -6.0, "re_max": 6.0, "im_min": -6.0, "im_max": 0.5},
        })
        assert main(["spectrum", "--config", spec_cfg, "--out", str(workdir / "mut_target")]) == EXIT_OK
        trig = {"kind": "analytic", "family": "trig", "coeffs": [[1.0, 1.0, 0.0]]}
        return {
            "forward": {"grid_n": 8, "lambdas": [[0.5, -0.1], [1.0, 0.0]], "kernel": {
                "m0": {"kind": "samples", "path": str(workdir / "mut_m0.csv")},
                "components": [{"r": TILTED_R, "p": self.TILTED_P}]}},
            "spectrum": {"grid_n": 8, "extrapolate": True, "heatmap": {"nx": 3, "ny": 2},
                         "kernel": {"m0": const, "components": [{"r": const, "p": trig}]},
                         "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
                         "opts": {"initial_edge_samples": 32}},
            "invert": {"grid_n": 12, "d": 4, "mu": 0.0, "init": [0.8] * 4,
                       "kernel": {"m0": const, "components": [{"r": TILTED_R}]},
                       "target": str(workdir / "mut_target" / "spectrum.json"),
                       "opts": {"max_iter": 20}},
            "verify": {"grid_n": 8, "lambdas": [[0.5, 0.0]], **TestVerify.KERNEL, "r": TILTED_R},
        }

    @staticmethod
    def paths(node, prefix=()):
        """The path of every value inside node, a config or a part of one."""
        items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
        for key, value in items:
            yield prefix + (key,)
            yield from TestMutatedConfigs.paths(value, prefix + (key,))

    @staticmethod
    def key_path(path):
        """A path of keys as a refusal spells it, such as kernel.components[0].p."""
        text = ""
        for key in path:
            text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
        return text

    def test_inserted_key_refused_before_any_grid(self, workdir, bases):
        # a key no command reads, put into the config and into each object in it
        levels = set()
        for command, base in bases.items():
            for path in [()] + list(self.paths(base)):
                cfg = json.loads(json.dumps(base))
                node = cfg
                for key in path:
                    node = node[key]
                if not isinstance(node, dict):
                    continue
                node["extra"] = 1.0
                config = write_config(workdir / "inserted.json", cfg)
                with mock.patch.object(idospec.cli, "make_grid", wraps=make_grid) as grid, \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main([command, "--config", config, "--out", str(workdir / "inserted_out")])
                inserted = self.key_path(path + ("extra",))
                assert code == EXIT_CONFIG and not grid.called, (command, inserted)
                assert err.getvalue().startswith(f"config error: unknown key {inserted}: "), err.getvalue()
                assert err.getvalue().count("\n") == 1, err.getvalue()
                levels.add(err.getvalue().split(": ")[-1])
        # the top level of each command, kernel, component, both spec kinds,
        # window, heatmap and both commands' opts
        assert len(levels) == 12, levels

    def test_bases_run(self, workdir, bases):
        for command, cfg in bases.items():
            path = write_config(workdir / f"mut_base_{command}.json", cfg)
            assert main([command, "--config", path, "--out", str(workdir / "mut_base_out")]) == EXIT_OK

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_mutations_exit_cleanly(self, workdir, bases, data):
        command = data.draw(st.sampled_from(sorted(bases)))
        cfg = json.loads(json.dumps(bases[command]))
        for _ in range(data.draw(st.integers(1, 2))):
            *parents, last = data.draw(st.sampled_from(list(self.paths(cfg))))
            node = cfg
            for key in parents:
                node = node[key]
            value = data.draw(st.sampled_from(self.VALUES + [self.DELETE]))
            if value is self.DELETE:
                del node[last]
            else:
                node[last] = json.loads(json.dumps(value))  # a fresh copy: a second mutation may go inside it
        path = write_config(workdir / "mutated.json", cfg)
        with mock.patch.object(idospec.cli, "make_grid", wraps=make_grid) as grid, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--config", path, "--out", str(workdir / "mutated_out")])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_WEIGHT)
        # after a grid, only a samples file read against it or analytic
        # samples that overflow on it may be refused
        if code == EXIT_CONFIG and grid.called:
            assert re.search(r"samples file|has non-finite samples", err.getvalue()), err.getvalue()


class TestNonFiniteInput:
    """NaN and infinity in a config or a samples file are config errors (exit 2)."""

    WINDOW = {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5}

    def nan_kernel(self):
        kernel = json.loads(json.dumps(CONST_KERNEL))
        kernel["components"][0]["p"]["coeffs"] = [float("nan")]
        return kernel

    def run(self, workdir, name, command, cfg):
        path = write_config(workdir / f"{name}.json", cfg)
        return main([command, "--config", path, "--out", str(workdir / f"{name}_out")])

    def test_forward_nan_coefficient(self, workdir):
        cfg = {"grid_n": 20, "kernel": self.nan_kernel()}
        assert self.run(workdir, "nan_fwd", "forward", cfg) == EXIT_CONFIG

    def test_spectrum_nan_coefficient(self, workdir):
        cfg = {"grid_n": 20, "kernel": self.nan_kernel(), "window": self.WINDOW}
        assert self.run(workdir, "nan_spec", "spectrum", cfg) == EXIT_CONFIG

    def test_spectrum_infinite_window(self, workdir):
        cfg = {"grid_n": 20, "kernel": CONST_KERNEL,
               "window": {**self.WINDOW, "re_min": float("-inf")}}
        assert self.run(workdir, "inf_win", "spectrum", cfg) == EXIT_CONFIG

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_picard_tol(self, workdir, tol):
        cfg = {"grid_n": 20, "kernel": CONST_KERNEL, "picard_tol": tol}
        assert self.run(workdir, f"tol_{tol}", "forward", cfg) == EXIT_CONFIG

    def test_non_finite_lambda(self, workdir):
        cfg = {"grid_n": 20, "kernel": CONST_KERNEL, "lambdas": [[float("nan"), 0.0]]}
        assert self.run(workdir, "nan_lambda", "forward", cfg) == EXIT_CONFIG

    def test_overflowing_literal(self, workdir):
        cfg = {"grid_n": 20, "kernel": CONST_KERNEL, "window": self.WINDOW}
        path = workdir / "overflow.json"
        path.write_text(json.dumps(cfg).replace('"re_max": 4.0', '"re_max": 1e999'))
        assert "1e999" in path.read_text()
        out = str(workdir / "overflow_out")
        assert main(["spectrum", "--config", str(path), "--out", out]) == EXIT_CONFIG

    def test_overflowing_analytic_profile(self, workdir, capsys):
        # overflow in a power, and in the sum of two infinite terms
        for coeffs in ([0.0, 0.0, 0.0, 1e308], [0.0, 1e308, 1e308]):
            kernel = json.loads(json.dumps(CONST_KERNEL))
            kernel["components"][0]["p"] = {
                "kind": "analytic", "family": "polynomial", "coeffs": coeffs,
            }
            cfg = {"grid_n": 20, "kernel": kernel}
            name = f"overflow_profile_{len(coeffs)}"
            assert self.run(workdir, name, "forward", cfg) == EXIT_CONFIG
            assert capsys.readouterr().err == "config error: profile has non-finite samples\n"

    def test_overflowing_g_build(self, workdir, capsys):
        # finite samples whose G build overflows: one failure line, no numpy warning
        kernel = json.loads(json.dumps(CONST_KERNEL))
        kernel["components"][0]["p"] = {
            "kind": "analytic", "family": "trig", "coeffs": [[1e308, 1, 0], [1e308, 2, 0]],
        }
        cfg = {"grid_n": 20, "kernel": kernel}
        assert self.run(workdir, "overflow_g", "forward", cfg) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err

    def test_nan_field_samples(self, workdir):
        grid = make_grid(10)
        vals = TriangularField.constant(grid, 1.0).values
        vals[4, 2] = np.nan
        serialize.field_to_csv(TriangularField(grid, vals), workdir / "nan_field.csv")
        kernel = {"m0": {"kind": "samples", "path": str(workdir / "nan_field.csv")}}
        cfg = {"grid_n": 10, "kernel": kernel}
        assert self.run(workdir, "nan_field", "forward", cfg) == EXIT_CONFIG

    def test_infinite_profile_samples(self, workdir):
        grid = make_grid(10)
        vals = np.ones(grid.n_nodes, dtype=complex)
        vals[3] = complex(0.0, np.inf)
        serialize.profile_to_csv(Profile(grid, vals), workdir / "inf_profile.csv")
        kernel = json.loads(json.dumps(CONST_KERNEL))
        kernel["components"][0]["p"] = {"kind": "samples", "path": str(workdir / "inf_profile.csv")}
        cfg = {"grid_n": 10, "kernel": kernel}
        assert self.run(workdir, "inf_profile", "forward", cfg) == EXIT_CONFIG


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_key_table_matches_the_code():
    # the "key" and "read by" columns of the README's config table, against
    # the key tables _parse refuses every other key by
    text = README.read_text()
    table = text[text.index("| key | read by |"):].split("\n\n")[0].splitlines()[2:]
    documented = {}
    for row in table:
        keys, readers = re.split(r"(?<!\\)\|", row)[1:3]
        for reader in readers.split(", "):
            reader = " ".join(re.findall(r"`([^`]+)`", reader)) or reader.strip()
            for level in idospec.cli.COMMANDS if reader == "all" else [reader]:
                documented.setdefault(level, set()).update(re.findall(r"`([^`]+)`", keys))
    read = {level: set(keys) for level, keys in idospec.cli._KEYS.items()}
    read.update({f"{command} opts": set(ranges) for command, ranges in _OPTION_RANGES.items()})
    assert documented == read


def test_readme_example_configs_parse():
    text = README.read_text()
    examples = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]
    assert len(examples) == 2
    for cfg in examples:
        command = "invert" if "target" in cfg else "spectrum"
        idospec.cli._parse(cfg, command, None)


@pytest.mark.skipif(shutil.which("idospec") is None, reason="entry point not installed")
def test_console_entry_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 16, "kernel": CONST_KERNEL}))
    proc = subprocess.run(
        ["idospec", "forward", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "forward_report.json").is_file()


# Runs each command in-process through main, after making every scipy import
# raise; prints the exit codes as JSON.
_NO_SCIPY_RUNNER = """
import json, sys
sys.modules["scipy"] = None
from idospec.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_commands_run_without_scipy(tmp_path):
    # the package needs numpy only: a scipy import that comes back, at module
    # level or inside a command, makes this run fail
    window = {"re_min": -6.0, "re_max": 6.0, "im_min": -6.0, "im_max": 0.5}
    configs = {
        "forward": {"grid_n": 16, "kernel": CONST_KERNEL},
        "spectrum": {"grid_n": 16, "kernel": CONST_KERNEL, "window": window},
        "invert": {
            "grid_n": 16,
            "d": 4,
            "kernel": {"m0": CONST_KERNEL["m0"], "components": [{"r": TILTED_R}]},
            "target": str(tmp_path / "spectrum_out" / "spectrum.json"),
        },
        "verify": {"grid_n": 8, **TestVerify.KERNEL, "r": TILTED_R},
    }
    argvs = [
        [command, "--config", write_config(tmp_path / f"{command}.json", cfg),
         "--out", str(tmp_path / f"{command}_out")]
        for command, cfg in configs.items()
    ]
    src = str(Path(idospec.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUNNER, json.dumps(argvs)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK] * 4, proc.stderr


# Runs one command in-process through main; prints its exit code and whether
# numpy.ma was imported, as JSON.
_NUMPY_MA_RUNNER = """
import json, sys
from idospec.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "numpy.ma" in sys.modules]))
"""


def test_spectrum_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, 1.3 MB of a process; the
    # zero search groups its Newton end points without it. The kernel and
    # window are the benchmark's, which the companion path searches
    kernel = {"m0": CONST_KERNEL["m0"], "components": [{
        "r": CONST_KERNEL["components"][0]["r"],
        "p": {"kind": "analytic", "family": "trig", "coeffs": [[0.3, 1, 0.5], [0.25, 2, 1.0]]}}]}
    cfg = write_config(tmp_path / "cfg.json", {
        "grid_n": 100, "kernel": kernel, "extrapolate": True,
        "window": {"re_min": -20.0, "re_max": 20.0, "im_min": -8.0, "im_max": 0.5}})
    src = str(Path(idospec.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_RUNNER, "spectrum", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK, False], proc.stderr
    assert json.loads((tmp_path / "out" / "spectrum.json").read_text())["search"]["path"] == "companion"
