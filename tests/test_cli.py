import json
import shutil
import subprocess

import numpy as np
import pytest

from idospec import serialize
from idospec.quadrature import Profile, TriangularField, make_grid
from idospec.spectral import DeltaEvaluator, char_delta
from idospec.transform import compute_g
from idospec.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_WEIGHT,
    main,
)

CONST_KERNEL = {
    "m0": {"kind": "analytic", "family": "constant", "coeffs": [0.0]},
    "components": [
        {
            "r": {"kind": "analytic", "family": "constant", "coeffs": [1.0]},
            "p": {"kind": "analytic", "family": "constant", "coeffs": [1.0]},
        }
    ],
}


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

    def test_picard_budget_exhausted(self, workdir):
        cfg = write_config(workdir / "fwd_bad.json", {
            "grid_n": 30,
            "kernel": CONST_KERNEL,
            "max_terms": 2,
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
    def test_report_residuals_and_order(self, workdir):
        cfg = write_config(workdir / "ver_cfg.json", {
            "grid_n": 50,
            "m0": {"kind": "analytic", "family": "constant", "coeffs": [0.05]},
            "r": {"kind": "analytic", "family": "constant", "coeffs": [1.0]},
            "p": {"kind": "analytic", "family": "trig", "coeffs": [[0.3, 1.0, 0.0]]},
            "p_tilde": {"kind": "analytic", "family": "constant", "coeffs": [0.2]},
        })
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

    def test_overflowing_analytic_profile(self, workdir):
        kernel = json.loads(json.dumps(CONST_KERNEL))
        kernel["components"][0]["p"] = {
            "kind": "analytic", "family": "polynomial", "coeffs": [0.0, 0.0, 0.0, 1e308],
        }
        cfg = {"grid_n": 20, "kernel": kernel}
        assert self.run(workdir, "overflow_profile", "forward", cfg) == EXIT_CONFIG

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
