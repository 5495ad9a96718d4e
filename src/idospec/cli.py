"""Command-line front end: forward solve, spectrum, inversion, verification.

One JSON config per run, no prompts; artifacts are deterministic (fixed
field order, 17-significant-digit floats) and embed the config hash and
grid parameters.

Exit codes: 0 success, 2 config error, 3 numerical non-convergence,
4 weight-condition (identifiability) failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .quadrature import (
    GridMismatchError,
    Profile,
    TriangularField,
    cumtrapz_nodes,
    make_grid,
)
from .kernels import (
    KernelComponent,
    StructuredKernel,
    WeightVanishesError,
    assemble_kernel,
    field_from_family,
    profile_from_family,
)
from .transform import (
    PicardConvergenceError,
    assemble_z_kernel,
    compute_g,
    reflected_kernel,
)
from .spectral import (
    BoundaryNearZeroError,
    DeltaEvaluator,
    PhaseTrackingError,
    SearchWindow,
    SpectrumOptions,
    eval_e_direct,
    eval_e_via_g,
    eval_psi,
    eval_z,
    eval_z_decomposed,
    find_spectrum,
)
from .inverse import (
    InverseProblem,
    RecoverOptions,
    recover_profile,
    recover_sequential,
    verify_green_identity,
    verify_change_of_variables,
)
from . import serialize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_WEIGHT = 4


class ConfigError(ValueError):
    pass


def _finite_number(text: str) -> float:
    """Parse a config number, refusing NaN, Infinity and overflowing literals."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config number {text} is not finite")
    return value


def _load_config(path) -> tuple[dict, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = p.read_bytes()
    try:
        cfg = json.loads(raw, parse_float=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as ex:
        raise ConfigError(f"config is not valid JSON: {ex}") from ex
    return cfg, hashlib.sha256(raw).hexdigest()


def _require_finite(sampled, what):
    """Pass a sampled field or profile through, or refuse one carrying NaN or inf.

    Config numbers are finite, but CSV samples need not be, and a finite
    analytic coefficient can still overflow on the grid.
    """
    if not np.isfinite(sampled.values).all():
        raise ConfigError(f"{what} has non-finite samples")
    return sampled


def _field_from_spec(spec, grid) -> TriangularField:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"bad field spec: {spec!r}")
    if spec["kind"] == "analytic":
        try:
            f = field_from_family(grid, spec["family"], spec["coeffs"])
        except (KeyError, ValueError) as ex:
            raise ConfigError(f"bad analytic field spec: {ex}") from ex
    elif spec["kind"] == "samples":
        path = Path(spec.get("path", ""))
        if not path.is_file():
            raise ConfigError(f"field samples file not found: {path}")
        f = serialize.field_from_csv(path, grid)
    else:
        raise ConfigError(f"unknown field kind {spec['kind']!r}")
    return _require_finite(f, "field")


def _profile_from_spec(spec, grid) -> Profile:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"bad profile spec: {spec!r}")
    if spec["kind"] == "analytic":
        try:
            p = profile_from_family(grid, spec["family"], spec["coeffs"])
        except (KeyError, ValueError) as ex:
            raise ConfigError(f"bad analytic profile spec: {ex}") from ex
    elif spec["kind"] == "samples":
        path = Path(spec.get("path", ""))
        if not path.is_file():
            raise ConfigError(f"profile samples file not found: {path}")
        p = serialize.profile_from_csv(path, grid)
    else:
        raise ConfigError(f"unknown profile kind {spec['kind']!r}")
    return _require_finite(p, "profile")


def _kernel_from_config(cfg, grid) -> StructuredKernel:
    if "m0" not in cfg:
        raise ConfigError("kernel config needs an 'm0' entry")
    m0 = _field_from_spec(cfg["m0"], grid)
    comps = []
    for entry in cfg.get("components", []):
        r = _field_from_spec(entry["r"], grid)
        p = (
            _profile_from_spec(entry["p"], grid)
            if "p" in entry
            else Profile.zeros(grid)
        )
        comps.append(KernelComponent(r, p))
    return StructuredKernel(m0, tuple(comps))


def _window_from_config(cfg) -> SearchWindow:
    try:
        win = cfg["window"]
        return SearchWindow(
            re_min=float(win["re_min"]),
            re_max=float(win["re_max"]),
            im_min=float(win["im_min"]),
            im_max=float(win["im_max"]),
        )
    except (KeyError, TypeError, ValueError) as ex:
        raise ConfigError(f"bad search window: {ex}") from ex


def _lambdas_from_config(cfg, default):
    pairs = cfg.get("lambdas", default)
    return [complex(re, im) for re, im in pairs]


def _grid_n(cfg, override) -> int:
    n = override if override is not None else cfg.get("grid_n")
    if n is None:
        raise ConfigError("grid_n missing from config")
    n = int(n)
    if n < 2:
        raise ConfigError(f"grid_n must be >= 2, got {n}")
    return n


def _picard_tol(cfg) -> float | None:
    tol = cfg.get("picard_tol")
    if tol is not None and not (isinstance(tol, (int, float)) and tol > 0):
        raise ConfigError(f"picard_tol must be a positive number, got {tol!r}")
    return tol


def _provenance(command, sha, grid_n) -> dict:
    return {"command": command, "config_sha256": sha, "grid_n": grid_n}


def _spectrum_opts(cfg) -> SpectrumOptions:
    opts = cfg.get("opts", {})
    known = {k: opts[k] for k in (
        "cell_size", "residual_tol", "boundary_rel_tol", "initial_edge_samples",
        "newton_max_iter", "newton_tol", "max_depth",
    ) if k in opts}
    return SpectrumOptions(**known)


# --- commands ---------------------------------------------------------------


def cmd_forward(cfg, sha, out: Path, args) -> int:
    n = _grid_n(cfg, args.grid_n)
    grid = make_grid(n)
    kernel = _kernel_from_config(cfg.get("kernel", cfg), grid)
    m = assemble_kernel(kernel)
    g = compute_g(m, tol=_picard_tol(cfg), max_terms=cfg.get("max_terms", 60))

    serialize.transform_kernel_to_files(g, out / "g_kernel.csv", out / "g_kernel_meta.json")

    diag_m = np.diagonal(m.values)
    target = 1j * cumtrapz_nodes(diag_m, grid)
    diag_res = float(np.abs(np.diagonal(g.g.values) - target).max())

    lambdas = _lambdas_from_config(cfg, [[0.0, 0.0], [1.0, 0.0], [-2.0, -0.5]])
    with open(out / "e_samples.csv", "w") as fh:
        fh.write("lambda_re,lambda_im,x,re,im\n")
        for lam in lambdas:
            e = eval_e_via_g(g, lam)
            for x, v in zip(grid.nodes, e):
                fh.write(
                    f"{serialize.fmt(lam.real)},{serialize.fmt(lam.imag)},"
                    f"{serialize.fmt(x)},{serialize.fmt(v.real)},{serialize.fmt(v.imag)}\n"
                )

    serialize.write_json(out / "forward_report.json", {
        "provenance": _provenance("forward", sha, n),
        "picard_terms": g.iterations,
        "picard_term_norms": [float(v) for v in g.term_norms],
        "diagonal_identity_residual": diag_res,
        "boundary_column_max": float(np.abs(g.g.values[:, 0]).max()),
        "lambda_samples": [[l.real, l.imag] for l in lambdas],
    })
    return EXIT_OK


def cmd_spectrum(cfg, sha, out: Path, args) -> int:
    n = _grid_n(cfg, args.grid_n)
    grid = make_grid(n)
    kernel = _kernel_from_config(cfg.get("kernel", cfg), grid)
    window = _window_from_config(cfg)
    opts = _spectrum_opts(cfg)

    m = assemble_kernel(kernel)
    g = compute_g(m, tol=_picard_tol(cfg), max_terms=cfg.get("max_terms", 60))
    if cfg.get("extrapolate", False):
        grid_f = make_grid(2 * n)
        kernel_f = _kernel_from_config(cfg.get("kernel", cfg), grid_f)
        g_f = compute_g(assemble_kernel(kernel_f), tol=_picard_tol(cfg),
                        max_terms=cfg.get("max_terms", 60))
        evaluator = DeltaEvaluator(g, g_f)
    else:
        evaluator = DeltaEvaluator(g)
    spec = find_spectrum(evaluator, window, opts)

    data = serialize.spectrum_to_dict(spec, grid.step)
    data = {"provenance": _provenance("spectrum", sha, n), **data}
    serialize.write_json(out / "spectrum.json", data)

    hm = cfg.get("heatmap")
    if hm:
        nx, ny = int(hm.get("nx", 80)), int(hm.get("ny", 60))
        res = np.linspace(window.re_min, window.re_max, nx)
        ims = np.linspace(window.im_min, window.im_max, ny)
        with open(out / "delta_heatmap.csv", "w") as fh:
            fh.write("re,im,abs_delta\n")
            for im in ims:
                lams = res + 1j * im
                vals = np.abs(evaluator(lams.astype(complex)))
                for re_, v in zip(res, vals):
                    fh.write(f"{serialize.fmt(re_)},{serialize.fmt(im)},{serialize.fmt(v)}\n")
    return EXIT_OK


def cmd_invert(cfg, sha, out: Path, args) -> int:
    n = _grid_n(cfg, args.grid_n)
    grid = make_grid(n)
    kernel = _kernel_from_config(cfg.get("kernel", cfg), grid)
    d = int(cfg.get("d", 8))
    mu = float(cfg.get("mu", 0.0))

    target_paths = cfg.get("targets")
    if target_paths is None:
        if "target" not in cfg:
            raise ConfigError("invert config needs 'target' or 'targets'")
        target_paths = [cfg["target"]]
    spectra = []
    for path in target_paths:
        if not Path(path).is_file():
            raise ConfigError(f"target spectrum file not found: {path}")
        spectra.append(serialize.spectrum_from_json(path))

    ropts_cfg = cfg.get("opts", {})
    ropts = RecoverOptions(**{
        k: ropts_cfg[k] for k in ("xtol", "ftol", "max_iter", "lm_damping0", "fd_step")
        if k in ropts_cfg
    })

    init_policy = cfg.get("init", "zero")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)

    def make_init():
        if init_policy == "zero":
            return np.zeros(d)
        if init_policy == "random":
            return 0.1 * rng.standard_normal(d)
        return np.asarray(init_policy, dtype=float)

    if len(spectra) == 1 and kernel.p_count == 1:
        problem = InverseProblem(
            m0=kernel.m0, r=kernel.components[0].r, target=spectra[0],
            d=d, mu=mu, picard_tol=_picard_tol(cfg),
        )
        reports = [recover_profile(problem, make_init(), ropts)]
    else:
        reports = recover_sequential(
            spectra, kernel, d, ropts, mu=mu,
            inits=[make_init() for _ in spectra],
            picard_tol=_picard_tol(cfg),
        )

    stages = []
    for k, rep in enumerate(reports, start=1):
        serialize.profile_to_csv(rep.recovered, out / f"recovered_profile_{k}.csv")
        stages.append({
            "stage": k,
            "converged": rep.converged,
            "iterations": rep.iterations,
            "residual_norm": rep.residual_norm,
            "underdetermined": rep.underdetermined,
            "history": [float(v) for v in rep.history],
        })
    serialize.write_json(out / "recovery_report.json", {
        "provenance": _provenance("invert", sha, n),
        "d": d,
        "mu": mu,
        "seed": args.seed,
        "stages": stages,
    })
    if not all(rep.converged for rep in reports) or len(reports) < len(spectra):
        return EXIT_NUMERICAL
    return EXIT_OK


def _verify_once(grid, cfg, lambdas):
    m0 = _field_from_spec(cfg["m0"], grid)
    r = _field_from_spec(cfg["r"], grid)
    p = _profile_from_spec(cfg["p"], grid)
    pt = _profile_from_spec(cfg["p_tilde"], grid)
    m = assemble_kernel(StructuredKernel(m0, (KernelComponent(r, p),)))
    mt = assemble_kernel(StructuredKernel(m0, (KernelComponent(r, pt),)))

    g = compute_g(m)
    diag_res = float(np.abs(
        np.diagonal(g.g.values) - 1j * cumtrapz_nodes(np.diagonal(m.values), grid)
    ).max())

    duality = max(
        abs(eval_e_direct(m, lam)[-1] - eval_psi(m, lam)[0]) for lam in lambdas
    )
    green = max(verify_green_identity(m, mt, lam) for lam in lambdas)
    cov = max(verify_change_of_variables(m0, r, p, pt, lam) for lam in lambdas)

    k1 = compute_g(reflected_kernel(m))
    k2 = compute_g(mt)
    b, kk = assemble_z_kernel(k1.g, k2.g, r)
    zres = 0.0
    for lam in lambdas:
        zd = eval_z(r, m, mt, lam)
        zk = eval_z_decomposed(b, kk, lam)
        zres = max(zres, float(np.abs(zd - zk).max()))
    return {
        "diagonal_identity": diag_res,
        "duality": float(duality),
        "green_identity": float(green),
        "change_of_variables": float(cov),
        "z_decomposition": zres,
    }


def cmd_verify(cfg, sha, out: Path, args) -> int:
    n = _grid_n(cfg, args.grid_n)
    for key in ("m0", "r", "p", "p_tilde"):
        if key not in cfg:
            raise ConfigError(f"verify config needs '{key}'")
    lambdas = _lambdas_from_config(
        cfg, [[0.5, 0.0], [-2.0, 0.0], [1.5, -0.5], [3.0, 0.0], [0.0, 0.25]]
    )
    coarse = _verify_once(make_grid(n), cfg, lambdas)
    fine = _verify_once(make_grid(2 * n), cfg, lambdas)
    checks = {}
    for key in coarse:
        rc, rf = coarse[key], fine[key]
        order = float(np.log2(rc / rf)) if rc > 1e-13 and rf > 1e-14 else None
        checks[key] = {
            "residual_h": rc,
            "residual_h_over_2": rf,
            "observed_order": order,
        }
    serialize.write_json(out / "verify_report.json", {
        "provenance": _provenance("verify", sha, n),
        "lambda_samples": [[l.real, l.imag] for l in lambdas],
        "checks": checks,
    })
    return EXIT_OK


COMMANDS = {
    "forward": cmd_forward,
    "spectrum": cmd_spectrum,
    "invert": cmd_invert,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idospec",
        description="Forward/inverse spectral solver for first-order "
        "integro-differential operators on [0, pi].",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON run config")
        sp.add_argument("--grid-n", type=int, default=None, dest="grid_n")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, sha = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, sha, out, args)
    except (ConfigError, GridMismatchError, KeyError, TypeError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    except WeightVanishesError as ex:
        print(f"weight condition failure: {ex}", file=sys.stderr)
        return EXIT_WEIGHT
    except BoundaryNearZeroError as ex:
        print(
            f"numerical failure: contour too close to a zero at "
            f"lambda = {ex.point}: |Delta| = {ex.magnitude:.3e}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except (PicardConvergenceError, PhaseTrackingError) as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
