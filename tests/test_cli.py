import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import idospec.cli
import idospec.inverse
import idospec.spectral
from idospec import serialize
from idospec.quadrature import Profile, TriangularField, make_grid
from idospec.spectral import DeltaEvaluator, char_delta, eval_e_via_g
from idospec.transform import compute_g
from idospec.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_WEIGHT,
    MAX_HEATMAP_POINTS,
    _OPTION_RANGES,
    _OPTIONS,
    main,
)

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


# R = 1 + 0.2 t: M0 + R P(x - t) is then not its own reflection
# (x, t) -> (pi - t, pi - x), so invert and verify build the reflected G
TILTED_R = {"kind": "analytic", "family": "polynomial", "coeffs": [[1.0, 0, 0], [0.2, 0, 1]]}


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
        g = serialize.transform_kernel_from_files(out / "g_kernel.csv", out / "g_kernel_meta.json")
        fmt = serialize.fmt
        expect = ["lambda_re,lambda_im,x,re,im\n"]
        for re_, im in lambdas:
            lam = complex(re_, im)
            for x, v in zip(g.grid.nodes, eval_e_via_g(g, lam)):
                expect.append(f"{fmt(lam.real)},{fmt(lam.imag)},{fmt(x)},{fmt(v.real)},{fmt(v.imag)}\n")
        assert (out / "e_samples.csv").read_bytes() == "".join(expect).encode()

    def test_picard_budget_exhausted(self, workdir):
        cfg = write_config(workdir / "fwd_bad.json", {
            "grid_n": 30,
            "kernel": CONST_KERNEL,
            "max_terms": 1,
        })
        out = workdir / "fwd_bad_out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL


class TestSpectrum:
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
        calls = []
        delta = idospec.spectral.char_delta_deriv

        def recording(g, lam, order=0, g_fine=None):
            calls.append((order, np.size(lam)))
            return delta(g, lam, order, g_fine)

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
        steps = [size for order, size in calls if order == 1]
        # Delta is called on the window boundary, once per phase refinement
        # round, once per Newton step and once for the residuals
        rounds = sum(order == 0 for order, _ in calls) - len(steps) - 2
        assert data["search"] == {
            "path": "companion", "candidates": steps[0], "newton_steps": len(steps),
            "phase_refinements": rounds,
        }
        assert rounds > 0
        assert steps[0] >= data["total_count"] > 0
        assert data["deriv_evals"] == sum(steps)
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
        # CONST_KERNEL assembles to M = 1 exactly, so this is the command's G
        evaluator = DeltaEvaluator(compute_g(TriangularField.constant(make_grid(40), 1.0)))
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
        expect = np.abs(DeltaEvaluator(g, g_f)(lams))
        assert np.abs(data[:, 2] - expect).max() <= 1e-12 * expect.max()
        coarse = np.abs(char_delta(g, lams))
        assert np.abs(data[:, 2] - coarse).max() > 1e-6 * expect.max()

    def test_counters_equal_points_evaluated(self, workdir, monkeypatch):
        points = {0: 0, 1: 0}
        evaluate = idospec.spectral.char_delta_deriv

        def counting(g, lam, order=0, g_fine=None):
            points[order] += np.size(lam)
            return evaluate(g, lam, order, g_fine)

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
            idospec.cli, "compute_g", lambda *a, **k: builds.append(1) or compute_g(*a, **k)
        )
        cfg = write_config(workdir / f"spec_alias_{reach}.json", {
            "grid_n": 8,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -1.0, "re_max": reach, "im_min": -2.0, "im_max": 0.5},
        })
        out = workdir / f"spec_alias_out_{reach}"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == code
        # refused before any G build
        assert bool(builds) == (code == EXIT_OK)

    def test_unknown_option_is_config_error(self, workdir, capsys):
        cfg = write_config(workdir / "spec_badopt.json", {
            "grid_n": 40,
            "kernel": CONST_KERNEL,
            "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5},
            "opts": {"max_phase_refinements": 20, "cell_sise": 1e-4},
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
            "opts": [["cell_size", 1e-4]],
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

    def test_report_counts_g_builds(self, workdir, target_spectrum, monkeypatch):
        builds = []
        build = idospec.inverse.compute_g
        monkeypatch.setattr(
            idospec.inverse, "compute_g", lambda *a, **k: builds.append(1) or build(*a, **k)
        )
        # R = 1 gives a kernel that is its own reflection: a Jacobian reuses
        # the residual's G; with the tilted R each Jacobian builds one more.
        # (Not from zero: P = 0 makes M = 0, which is its own reflection.)
        for tag, r, per_jacobian in (("sym", None, 0), ("tilted", TILTED_R, 1)):
            builds.clear()
            cfg = self.invert_cfg(target_spectrum, init=[0.8] * 4)
            if r is not None:
                cfg["kernel"]["components"] = [{"r": r}]
            path = write_config(workdir / f"inv_count_{tag}.json", cfg)
            out = workdir / f"inv_count_out_{tag}"
            assert main(["invert", "--config", path, "--out", str(out)]) == EXIT_OK
            (stage,) = json.loads((out / "recovery_report.json").read_text())["stages"]
            assert stage["jacobian_evals"] == stage["iterations"] >= 1
            assert stage["g_builds"] == len(builds) == (
                stage["residual_evals"] + per_jacobian * stage["jacobian_evals"]
            )

    @pytest.mark.parametrize("sequential", [False, True])
    def test_max_terms_reaches_every_g_build(
        self, workdir, target_spectrum, monkeypatch, sequential
    ):
        budgets = []
        build = idospec.inverse.compute_g
        monkeypatch.setattr(
            idospec.inverse, "compute_g",
            lambda *a, **k: budgets.append(k.get("max_terms")) or build(*a, **k),
        )
        cfg = self.invert_cfg(target_spectrum, max_terms=45)
        if sequential:
            # one target for a two-component kernel goes through recover_sequential
            cfg["kernel"]["components"] *= 2
        path = write_config(workdir / f"inv_terms_{sequential}.json", cfg)
        out = workdir / f"inv_terms_out_{sequential}"
        assert main(["invert", "--config", path, "--out", str(out)]) == EXIT_OK
        assert budgets and set(budgets) == {45}

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

    def test_iteration_starved_run_fails_numerically(self, workdir, target_spectrum):
        cfg = write_config(
            workdir / "inv_starved.json",
            self.invert_cfg(
                target_spectrum,
                init=[0.5, 0.5, 0.5, 0.5],
                opts={"max_iter": 1, "ftol": 1e-14, "xtol": 1e-14},
            ),
        )
        out = workdir / "inv_starved_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL

    def test_unknown_option_is_config_error(self, workdir, target_spectrum, capsys):
        cfg = write_config(
            workdir / "inv_badopt.json",
            self.invert_cfg(target_spectrum, opts={"fd_step": 1e-3, "max_iter": 2}),
        )
        out = workdir / "inv_badopt_out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "fd_step" in capsys.readouterr().err
        assert not (out / "recovery_report.json").exists()

    def test_max_inner_takes_effect(self, workdir, target_spectrum):
        # from this start the default fit rejects some trial steps; with one
        # trial per iteration the first rejection ends the fit unconverged
        stages = {}
        for max_inner, code in ((None, EXIT_OK), (1, EXIT_NUMERICAL)):
            opts = {"lm_damping0": 1e-8}
            if max_inner is not None:
                opts["max_inner"] = max_inner
            cfg = write_config(
                workdir / f"inv_inner_{max_inner}.json",
                self.invert_cfg(target_spectrum, init=[3.0, -3.0, 3.0, -3.0], opts=opts),
            )
            out = workdir / f"inv_inner_out_{max_inner}"
            assert main(["invert", "--config", cfg, "--out", str(out)]) == code
            (stages[max_inner],) = json.loads((out / "recovery_report.json").read_text())["stages"]
        assert stages[None]["residual_evals"] > stages[None]["iterations"] + 1
        assert stages[1]["residual_evals"] == stages[1]["iterations"] + 1
        assert not stages[1]["converged"]

    def test_report_records_damping_and_rejections(self, workdir, target_spectrum):
        # the start of test_max_inner_takes_effect: the default fit rejects
        # some trial steps, and with one trial per iteration it stops at the
        # first rejection
        for max_inner in (None, 1):
            opts = {"lm_damping0": 1e-8}
            if max_inner is not None:
                opts["max_inner"] = max_inner
            cfg = write_config(
                workdir / f"inv_lm_{max_inner}.json",
                self.invert_cfg(target_spectrum, init=[3.0, -3.0, 3.0, -3.0], opts=opts),
            )
            texts = []
            for tag in ("a", "b"):
                out = workdir / f"inv_lm_out_{max_inner}_{tag}"
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

    def test_picard_budget_exhausted(self, workdir):
        cfg = write_config(workdir / "ver_terms.json", {"grid_n": 8, "max_terms": 1, **self.KERNEL})
        out = workdir / "ver_terms_out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL

    def test_picard_settings_reach_every_g_build(self, workdir, monkeypatch):
        settings = []
        build = idospec.cli.compute_g
        monkeypatch.setattr(
            idospec.cli, "compute_g", lambda m, **k: settings.append(k) or build(m, **k)
        )
        # G, G~ and, unless the kernel is its own reflection, the reflected
        # kernel's G, on each of the two grids
        for tag, r, per_grid in (("sym", None, 2), ("tilted", TILTED_R, 3)):
            settings.clear()
            kernel = self.KERNEL if r is None else {**self.KERNEL, "r": r}
            cfg = write_config(workdir / f"ver_picard_{tag}.json", {
                "grid_n": 8, "max_terms": 45, "picard_tol": 1e-11, **kernel,
            })
            out = workdir / f"ver_picard_out_{tag}"
            assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
            assert settings == [{"tol": 1e-11, "max_terms": 45}] * (2 * per_grid)


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
        ("forward", "p", "empty_profile.csv", "", "no data rows"),
        ("forward", "m0", "header_only.csv", "x,t,re,im\n", "no data rows"),
    ])
    def test_malformed_input_file(
        self, workdir, capsys, recwarn, command, slot, name, text, message
    ):
        path = workdir / name
        path.write_text(text)
        kernel = json.loads(json.dumps(CONST_KERNEL))
        cfg = {"grid_n": 20, "d": 4, "kernel": kernel}
        samples = {"kind": "samples", "path": str(path)}
        if slot == "p":
            kernel["components"][0]["p"] = samples
        elif slot == "m0":
            kernel["m0"] = samples
        else:
            cfg["target"] = str(path)
        cfg_path = write_config(workdir / f"cfg_malformed_{name}.json", cfg)
        out = workdir / f"cfg_malformed_{name}_out"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "malformed" in err and str(path) in err and message in err
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

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

    WINDOW = {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5}

    @pytest.mark.parametrize("command, extra, key", [
        ("spectrum", {"heatmap": True}, "heatmap"),
        ("spectrum", {"heatmap": {"nx": 10, "ny": 8.5}}, "heatmap.ny"),
        ("forward", {"grid_n": "sixteen"}, "grid_n"),
        ("forward", {"max_terms": 2.5}, "max_terms"),
        ("invert", {"d": "eight"}, "d"),
        ("invert", {"mu": "none"}, "mu"),
        ("invert", {"init": "ones"}, "init"),
        ("invert", {"d": 4, "init": [0.0, 0.0, 0.0]}, "init"),
        ("spectrum", {"opts": {"cell_size": "small"}}, "cell_size"),
        ("invert", {"opts": {"max_iter": True}}, "max_iter"),
        ("verify", {"lambdas": []}, "lambdas"),
        ("forward", {"lambdas": [[1.0]]}, "lambdas"),
        ("forward", {"lambdas": "0.5"}, "lambdas"),
        ("verify", {"lambdas": [[0.5, True]]}, "lambdas"),
    ])
    def test_wrong_type_refused_before_any_build(
        self, workdir, monkeypatch, capsys, command, extra, key
    ):
        builds = []
        for module in (idospec.cli, idospec.inverse):
            monkeypatch.setattr(module, "compute_g", lambda *a, **k: builds.append(1))
        cfg = {"grid_n": 16, "kernel": CONST_KERNEL, "window": self.WINDOW,
               "target": str(workdir / "no_target.json"), **extra}
        name = f"cfg_type_{command}_{key}_{len(extra)}_{len(str(extra))}"
        path = write_config(workdir / f"{name}.json", cfg)
        assert main([command, "--config", path, "--out", str(workdir / name)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not builds

    @pytest.mark.parametrize("command, key, value", [
        ("spectrum", "cell_size", -1.0),
        ("spectrum", "residual_tol", 0.0),
        ("spectrum", "boundary_rel_tol", 0),
        ("spectrum", "initial_edge_samples", 0),
        ("spectrum", "max_phase_refinements", -1),
        ("spectrum", "newton_max_iter", 0),
        ("spectrum", "newton_tol", -1e-12),
        ("invert", "xtol", 0.0),
        ("invert", "ftol", -1.0),
        ("invert", "max_iter", 0),
        ("invert", "lm_damping0", 0.0),
        ("invert", "max_inner", 0),
    ])
    def test_option_out_of_range_refused_before_any_build(
        self, workdir, monkeypatch, capsys, command, key, value
    ):
        builds = []
        for module in (idospec.cli, idospec.inverse):
            monkeypatch.setattr(module, "compute_g", lambda *a, **k: builds.append(1))
        cfg = {"grid_n": 16, "kernel": CONST_KERNEL, "window": self.WINDOW,
               "target": str(workdir / "no_target.json"), "opts": {key: value}}
        path = write_config(workdir / f"cfg_range_{key}.json", cfg)
        out = workdir / f"cfg_range_{key}_out"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert f"opts.{key}" in capsys.readouterr().err
        assert not builds

    def test_every_option_has_a_range(self):
        names = {f.name for cls in _OPTIONS.values() for f in dataclasses.fields(cls)}
        assert names == set(_OPTION_RANGES)

    @pytest.mark.parametrize("command, extra, argv, key", [
        ("forward", {"grid_n": 10**6}, [], "grid_n"),
        ("forward", {"grid_n": 16}, ["--grid-n", str(10**6)], "grid_n"),
        # grid_n itself is small enough; the 2N grid these commands also build is not
        ("verify", {"grid_n": 2048}, [], "4096-interval grid"),
        ("spectrum", {"grid_n": 2048, "extrapolate": True}, [], "4096-interval grid"),
        ("spectrum", {"heatmap": {"nx": 10**4, "ny": MAX_HEATMAP_POINTS // 10**4 + 1}},
         [], "heatmap"),
    ])
    def test_oversized_grid_refused_before_allocation(
        self, workdir, monkeypatch, capsys, command, extra, argv, key
    ):
        def no_grid(n):
            raise AssertionError(f"make_grid({n}) called")

        monkeypatch.setattr(idospec.cli, "make_grid", no_grid)
        cfg = {"grid_n": 16, "kernel": CONST_KERNEL, "window": self.WINDOW, **extra}
        cfg.update({k: CONST_KERNEL["m0"] for k in ("m0", "r", "p", "p_tilde")})
        name = f"cfg_size_{command}_{len(argv)}_{len(extra)}"
        path = write_config(workdir / f"{name}.json", cfg)
        code = main([command, "--config", path, "--out", str(workdir / name), *argv])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err


class TestRefusedBeforeAnyGrid:
    """Config faults that need no grid to see are refused before make_grid runs."""

    WINDOW = {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5}

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
        cfg = {"grid_n": 16, "kernel": CONST_KERNEL, "window": self.WINDOW,
               **{k: CONST_KERNEL["m0"] for k in ("m0", "r", "p", "p_tilde")},
               "picard_tol": tol}
        name = f"early_tol_{command}_{tol}"
        assert self.run(workdir, monkeypatch, name, command, cfg) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_invert_without_target(self, workdir, monkeypatch, capsys):
        cfg = {"grid_n": 16, "d": 4, "kernel": CONST_KERNEL}
        assert self.run(workdir, monkeypatch, "early_no_target", "invert", cfg) == EXIT_CONFIG
        assert "'target' or 'targets'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["m0", "r", "p", "p_tilde"])
    def test_verify_without_key(self, workdir, monkeypatch, capsys, key):
        cfg = {"grid_n": 16, **{k: CONST_KERNEL["m0"] for k in ("m0", "r", "p", "p_tilde")}}
        del cfg[key]
        assert self.run(workdir, monkeypatch, f"early_verify_{key}", "verify", cfg) == EXIT_CONFIG
        assert f"verify config needs '{key}'" in capsys.readouterr().err


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
