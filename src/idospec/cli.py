"""Command-line front end: forward solve, spectrum, inversion, verification.

One JSON config per run, no prompts; artifacts are deterministic (fixed
field order, 17-significant-digit floats) and embed the config hash and
grid parameters.

Exit codes: 0 success, 2 config error, 3 numerical non-convergence,
4 weight-condition (identifiability) failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import operator
import sys
import typing
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
    eval_z,
    eval_z_decomposed,
    find_spectrum,
)
from .inverse import (
    RecoverOptions,
    recover_sequential,
    verify_green_identity,
    verify_change_of_variables,
)
from . import kernels, serialize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_WEIGHT = 4

# A field holds (N+1)^2 complex samples and a G build keeps several, so a
# command whose finest grid needs larger fields is refused before it
# allocates anything.
MAX_FIELD_BYTES = 256 * 2**20
# Most lambda points a Delta heatmap may sample, one CSV row each.
MAX_HEATMAP_POINTS = 10**6

# Profile parameters an invert config fits when it gives no "d".
_DEFAULT_D = 8
# Attributes of a RecoveryReport that each recovery_report.json stage records, in order.
_STAGE_KEYS = (
    "converged", "iterations", "residual_norm", "underdetermined", "history", "damping",
    "rejected_trials", "residual_evals", "jacobian_evals", "g_builds",
)
# Option dataclass of each command that reads "opts".
_OPTIONS = {"spectrum": SpectrumOptions, "invert": RecoverOptions}
# Numeric config keys: type and least value (grid_n's is checked by _grid_n,
# which also sees --grid-n).
_NUMBERS = {"grid_n": (int, None), "d": (int, 2), "mu": (float, 0.0), "max_terms": (int, 1)}
# Range of each numeric "opts" field, as (comparison, bound): counts are at
# least 1 (refinement rounds at least 0); tolerances, cell_size and the
# initial damping are positive.
_OPTION_RANGES = {
    "cell_size": (">", 0.0), "residual_tol": (">", 0.0), "boundary_rel_tol": (">", 0.0),
    "initial_edge_samples": (">=", 1), "max_phase_refinements": (">=", 0),
    "newton_max_iter": (">=", 1), "newton_tol": (">", 0.0),
    "xtol": (">", 0.0), "ftol": (">", 0.0), "max_iter": (">=", 1),
    "lm_damping0": (">", 0.0), "max_inner": (">=", 1),
}
_COMPARE = {">=": operator.ge, ">": operator.gt}


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


def _read_input(what, read, path, *args):
    """read(path, *args) for an input file named by the config.

    A missing file, or one read refuses (wrong length, not numeric, not
    triangular, not JSON), is a config error naming the file.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    try:
        return read(path, *args)
    except (ValueError, KeyError, IndexError, TypeError) as ex:
        raise ConfigError(f"malformed {what} file {path}: {ex}") from ex


# The family sampler in idospec.kernels and the CSV reader in idospec.serialize
# of each kind of sampled input, by name: looked up in their modules at call
# time, so a caller that rebinds a module's function (a tracer) sees the call.
_READERS = {
    "field": ("field_from_family", "field_from_csv"),
    "profile": ("profile_from_family", "profile_from_csv"),
}


def _from_spec(what, spec, grid):
    """The field or profile (what) a config spec describes, sampled on grid.

    An analytic family that overflows on the grid samples inf or NaN without
    a warning, and is refused as non-finite like a CSV carrying them.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"bad {what} spec: {spec!r}")
    sampler, reader = _READERS[what]
    if spec["kind"] == "analytic":
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                sampled = getattr(kernels, sampler)(grid, spec["family"], spec["coeffs"])
        except (KeyError, ValueError) as ex:
            raise ConfigError(f"bad analytic {what} spec: {ex}") from ex
    elif spec["kind"] == "samples":
        read = getattr(serialize, reader)
        sampled = _read_input(f"{what} samples", read, spec.get("path", ""), grid)
    else:
        raise ConfigError(f"unknown {what} kind {spec['kind']!r}")
    return _require_finite(sampled, what)


def _kernel_from_config(cfg, grid) -> StructuredKernel:
    if "m0" not in cfg:
        raise ConfigError("kernel config needs an 'm0' entry")
    m0 = _from_spec("field", cfg["m0"], grid)
    comps = []
    for entry in cfg.get("components", []):
        r = _from_spec("field", entry["r"], grid)
        p = (
            _from_spec("profile", entry["p"], grid)
            if "p" in entry
            else Profile.zeros(grid)
        )
        comps.append(KernelComponent(r, p))
    return StructuredKernel(m0, tuple(comps))


def _build_g(cfg, grid):
    """The config's kernel M on grid and its G, with the config's Picard settings."""
    m = assemble_kernel(_kernel_from_config(cfg.get("kernel", cfg), grid))
    return m, compute_g(m, **_picard(cfg))


def _window_from_config(cfg) -> SearchWindow:
    try:
        win = cfg["window"]
        return SearchWindow(**{f.name: float(win[f.name]) for f in dataclasses.fields(SearchWindow)})
    except (KeyError, TypeError, ValueError) as ex:
        raise ConfigError(f"bad search window: {ex}") from ex


def _lambdas_from_config(cfg, default):
    pairs = cfg.get("lambdas", default)
    return [complex(re, im) for re, im in pairs]


def _grid_n(cfg, override, refine: int = 1) -> int:
    """grid_n from --grid-n or the config.

    The command's finest grid has refine * grid_n intervals; grid_n is
    refused if that grid's fields would exceed MAX_FIELD_BYTES.
    """
    n = override if override is not None else cfg.get("grid_n")
    if n is None:
        raise ConfigError("grid_n missing from config")
    if n < 2:
        raise ConfigError(f"grid_n must be >= 2, got {n}")
    field_bytes = np.dtype(complex).itemsize * (refine * n + 1) ** 2
    if field_bytes > MAX_FIELD_BYTES:
        raise ConfigError(
            f"grid_n {n} needs a {refine * n}-interval grid of {field_bytes >> 20} MiB "
            f"fields, above the limit of {MAX_FIELD_BYTES >> 20} MiB"
        )
    return n


def _picard(cfg) -> dict:
    """The config's Picard settings, as compute_g's tol and max_terms."""
    return {"tol": cfg.get("picard_tol"), "max_terms": cfg.get("max_terms", 60)}


def _diagonal_residual(m: TriangularField, g) -> float:
    """Sup over x of |G(x, x) - i * integral over [0, x] of M(s, s) ds|."""
    target = 1j * cumtrapz_nodes(np.diagonal(m.values), m.grid)
    return float(np.abs(np.diagonal(g.g.values) - target).max())


def _provenance(command, sha, grid_n) -> dict:
    return {"command": command, "config_sha256": sha, "grid_n": grid_n}


def _is_a(value, kind) -> bool:
    """isinstance against a type or union hint: a bool is no number, an int is a float."""
    kinds = tuple((int, float) if k is float else k for k in typing.get_args(kind) or (kind,))
    return not isinstance(value, bool) and isinstance(value, kinds)


def _check_value(key, value, kind, least=None, op=">=") -> None:
    """Refuse value, naming key, unless _is_a(value, kind) and value op least.

    None, where kind allows it, is in range.
    """
    if not _is_a(value, kind) or not (
        least is None or value is None or _COMPARE[op](value, least)
    ):
        name = kind.__name__ if isinstance(kind, type) else kind
        bound = "" if least is None else f" {op} {least}"
        raise ConfigError(f"{key} must be {name}{bound}, got {value!r}")


def _heatmap_shape(hm: dict) -> tuple:
    """(nx, ny) of a heatmap config object, with their defaults."""
    return hm.get("nx", 80), hm.get("ny", 60)


def _check_config(cfg, command) -> None:
    """Refuse config values of the wrong type or range, naming the key.

    Runs before anything is built or allocated, so a bad value costs no
    grid and no G build. Each "opts" value must have the type of its field
    in the command's option dataclass and lie in its _OPTION_RANGES range.
    Keys a command cannot run without are checked last.
    """
    _check_value("config", cfg, dict)
    for key, (kind, least) in _NUMBERS.items():
        if key in cfg:
            _check_value(key, cfg[key], kind, least)
    _check_value("picard_tol", cfg.get("picard_tol"), float | None, 0.0, ">")
    hm = cfg.get("heatmap") or {}
    _check_value("heatmap", hm, dict)
    nx, ny = _heatmap_shape(hm)
    _check_value("heatmap.nx", nx, int, 1)
    _check_value("heatmap.ny", ny, int, 1)
    if nx * ny > MAX_HEATMAP_POINTS:
        raise ConfigError(f"heatmap has {nx} x {ny} points, above the limit of {MAX_HEATMAP_POINTS}")
    init = cfg.get("init", "zero")
    if init not in ("zero", "random") and not (
        isinstance(init, list)
        and len(init) == cfg.get("d", _DEFAULT_D)
        and all(_is_a(v, float) for v in init)
    ):
        raise ConfigError(f'init must be "zero", "random" or a list of d numbers, got {init!r}')
    lams = cfg.get("lambdas")
    if "lambdas" in cfg and not (isinstance(lams, list) and lams and all(
        isinstance(pair, list) and len(pair) == 2 and all(_is_a(v, float) for v in pair)
        for pair in lams
    )):
        raise ConfigError(f"lambdas must be a non-empty list of [re, im] number pairs, got {lams!r}")
    cls = _OPTIONS.get(command)
    if cls is not None:
        opts = cfg.get("opts", {})
        _check_value("opts", opts, dict)
        fields = typing.get_type_hints(cls)
        unknown = sorted(set(opts) - set(fields))
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} key(s) in opts: {', '.join(unknown)}")
        for key, value in opts.items():
            op, least = _OPTION_RANGES[key]
            _check_value(f"opts.{key}", value, fields[key], least, op)
    if command == "verify":
        for key in ("m0", "r", "p", "p_tilde"):
            if key not in cfg:
                raise ConfigError(f"verify config needs '{key}'")
    if command == "invert" and cfg.get("targets") is None and "target" not in cfg:
        raise ConfigError("invert config needs 'target' or 'targets'")


def _check_alias_free(window: SearchWindow, n: int) -> None:
    """Refuse a window reaching |Re lambda| >= pi/h = n.

    The discrete Delta is a polynomial in exp(-i lambda h), so it repeats
    with period 2 pi / h in Re lambda; a root found beyond pi/h is a copy.
    """
    reach = max(abs(window.re_min), abs(window.re_max))
    if reach >= n:
        raise ConfigError(
            f"search window reaches |Re lambda| = {reach}, at or beyond pi/h = {n} "
            f"where the discrete Delta repeats; raise grid_n or narrow the window"
        )


# --- commands ---------------------------------------------------------------


def cmd_forward(cfg, sha, out: Path, args) -> int:
    n = _grid_n(cfg, args.grid_n)
    grid = make_grid(n)
    m, g = _build_g(cfg, grid)

    serialize.transform_kernel_to_files(g, out / "g_kernel.csv", out / "g_kernel_meta.json")
    diag_res = _diagonal_residual(m, g)

    lambdas = _lambdas_from_config(cfg, [[0.0, 0.0], [1.0, 0.0], [-2.0, -0.5]])
    e = np.concatenate([eval_e_via_g(g, lam) for lam in lambdas])
    lams = np.array(lambdas)
    which = np.repeat(np.arange(lams.size), grid.n_nodes)
    node = np.tile(np.arange(grid.n_nodes), lams.size)
    serialize.write_csv(out / "e_samples.csv", "lambda_re,lambda_im,x,re,im", [
        (lams.real, which), (lams.imag, which), (grid.nodes, node), e.real, e.imag,
    ])

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
    extrapolate = cfg.get("extrapolate", False)
    n = _grid_n(cfg, args.grid_n, refine=2 if extrapolate else 1)
    window = _window_from_config(cfg)
    _check_alias_free(window, n)
    opts = SpectrumOptions(**cfg.get("opts", {}))

    _, g = _build_g(cfg, make_grid(n))
    g_fine = _build_g(cfg, make_grid(2 * n))[1] if extrapolate else None
    evaluator = DeltaEvaluator(g, g_fine)
    spec = find_spectrum(evaluator, window, opts)

    data = serialize.spectrum_to_dict(spec, g.grid.step)
    data = {
        "provenance": _provenance("spectrum", sha, n),
        **data,
        "delta_evals": evaluator.evals,
        "deriv_evals": evaluator.deriv_evals,
        "search": dataclasses.asdict(spec.stats),
    }
    serialize.write_json(out / "spectrum.json", data)

    hm = cfg.get("heatmap")
    if hm:
        nx, ny = _heatmap_shape(hm)
        res = np.linspace(window.re_min, window.re_max, nx)
        ims = np.linspace(window.im_min, window.im_max, ny)
        vals = np.concatenate([np.abs(evaluator((res + 1j * im).astype(complex))) for im in ims])
        serialize.write_csv(out / "delta_heatmap.csv", "re,im,abs_delta", [
            (res, np.tile(np.arange(nx), ny)), (ims, np.repeat(np.arange(ny), nx)), vals,
        ])
    return EXIT_OK


def cmd_invert(cfg, sha, out: Path, args) -> int:
    n = _grid_n(cfg, args.grid_n)
    grid = make_grid(n)
    kernel = _kernel_from_config(cfg.get("kernel", cfg), grid)
    d = cfg.get("d", _DEFAULT_D)
    mu = float(cfg.get("mu", 0.0))

    target_paths = cfg.get("targets")
    if target_paths is None:
        target_paths = [cfg["target"]]
    if len(target_paths) > kernel.p_count:
        raise ConfigError(
            f"{len(target_paths)} target spectra but only {kernel.p_count} kernel components"
        )
    spectra = [
        _read_input("target spectrum", serialize.spectrum_from_json, path)
        for path in target_paths
    ]
    # a root whose Newton polish failed is only a cell centre: fitting it as
    # an exact eigenvalue would pull the profile towards a wrong spectrum
    for path, spec in zip(target_paths, spectra):
        for ev in spec.eigenvalues:
            if not ev.newton_converged:
                print(
                    f"numerical failure: target root {ev.value} in {path} has "
                    f"newton_converged false; refusing to fit it",
                    file=sys.stderr,
                )
                return EXIT_NUMERICAL

    ropts = RecoverOptions(**cfg.get("opts", {}))
    picard = _picard(cfg)

    init_policy = cfg.get("init", "zero")
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)

    def make_init():
        if init_policy == "zero":
            return np.zeros(d)
        if init_policy == "random":
            return 0.1 * rng.standard_normal(d)
        return np.asarray(init_policy, dtype=float)

    reports = recover_sequential(
        spectra, kernel, d, ropts, mu=mu,
        inits=[make_init() for _ in spectra],
        picard_tol=picard["tol"], picard_max_terms=picard["max_terms"],
    )

    stages = []
    for k, rep in enumerate(reports, start=1):
        serialize.profile_to_csv(rep.recovered, out / f"recovered_profile_{k}.csv")
        stages.append({"stage": k, **{key: getattr(rep, key) for key in _STAGE_KEYS}})
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
    m0 = _from_spec("field", cfg["m0"], grid)
    r = _from_spec("field", cfg["r"], grid)
    p = _from_spec("profile", cfg["p"], grid)
    pt = _from_spec("profile", cfg["p_tilde"], grid)
    m = assemble_kernel(StructuredKernel(m0, (KernelComponent(r, p),)))
    mt = assemble_kernel(StructuredKernel(m0, (KernelComponent(r, pt),)))

    picard = _picard(cfg)
    g = compute_g(m, **picard)

    # the marches every check below reads, one column per lambda; psi is the
    # reflected kernel's march read backwards, so for a kernel that is its
    # own reflection it is e's, and k1, the reflected kernel's G, is g
    lam = np.array(lambdas, dtype=complex)
    e, et = eval_e_direct(m, lam), eval_e_direct(mt, lam)
    refl = reflected_kernel(m)
    if refl is m:
        psi, k1 = e[::-1], g
    else:
        psi, k1 = eval_e_direct(refl, lam)[::-1], compute_g(refl, **picard)
    k2 = compute_g(mt, **picard)
    b, kk = assemble_z_kernel(k1.g, k2.g, r)
    z = eval_z(r, psi, et)
    return {
        "diagonal_identity": _diagonal_residual(m, g),
        "duality": float(np.abs(e[-1] - psi[0]).max()),
        "green_identity": float(verify_green_identity(m, mt, psi, et).max()),
        "change_of_variables": float(verify_change_of_variables(r, p, pt, psi, et, z).max()),
        "z_decomposition": float(np.abs(z - eval_z_decomposed(b, kk, lam)).max()),
    }


def cmd_verify(cfg, sha, out: Path, args) -> int:
    n = _grid_n(cfg, args.grid_n, refine=2)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg, sha = _load_config(args.config)
        _check_config(cfg, args.command)
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
