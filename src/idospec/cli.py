"""Command-line front end: forward solve, spectrum, inversion, verification.

One JSON config per run, no prompts; artifacts are deterministic (fixed
field order, 17-significant-digit floats) and embed the config hash and
grid parameters.

Exit codes: 0 success, 2 config error (ConfigError), 3 numerical failure
(kernels.NumericalFailure), 4 weight-condition (identifiability) failure
(kernels.WeightVanishesError). The commands raise; main alone turns a
failure into its exit code and one stderr line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .quadrature import (
    Profile,
    as_field,
    cumtrapz_nodes,
    make_grid,
)
from .kernels import (
    KernelComponent,
    NumericalFailure,
    StructuredKernel,
    WeightVanishesError,
    field_from_family,
    kernel_samples,
    profile_from_family,
)
from .transform import (
    assemble_z_kernel,
    build_g,
    last_row,
    reflected_kernel,
)
from .spectral import (
    DeltaEvaluator,
    SearchWindow,
    eval_e_direct,
    eval_e_via_g,
    eval_z,
    eval_z_decomposed,
    find_spectrum,
)
from .inverse import (
    recover_sequential,
    verify_green_identity,
    verify_change_of_variables,
)
from .serialize import field_from_csv, profile_from_csv
from . import kernels, serialize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_WEIGHT = 4

# A field holds (N+1)^2 complex samples. On large grids a G build holds the
# kernel and at most 2.8 more fields at once (2.5 from N = 400 on) and
# assemble_z_kernel at most 5 (transform.py), and verify keeps a few
# kernels of each of its grids, so a command whose finest grid needs larger
# fields is refused before it allocates anything. The bound holds for a
# kernel read as the Profile of its N + 1 samples too: its series row forms
# no field, but a row or G the series declines is marched on one.
MAX_FIELD_BYTES = 256 * 2**20
# Most lambda points a Delta heatmap may sample, one CSV row each.
MAX_HEATMAP_POINTS = 10**6
# Most samples opts.initial_edge_samples may ask for on each window edge.
MAX_EDGE_SAMPLES = 4096
# Beyond these |Re lambda| and |Im lambda|, exp(-i lambda x) is no float for
# some x in [0, pi] (its phase overflows, or its modulus over- or underflows),
# and neither are e(x, lambda) and Delta.
RE_REACH, IM_REACH = sys.float_info.max / np.pi, np.log(sys.float_info.max) / np.pi

# Profile parameters an invert config fits when it gives no "d".
_DEFAULT_D = 8
# Lambda points of the commands that read "lambdas", when a config gives none.
_DEFAULT_LAMBDAS = {
    "forward": [[0.0, 0.0], [1.0, 0.0], [-2.0, -0.5]],
    "verify": [[0.5, 0.0], [-2.0, 0.0], [1.5, -0.5], [3.0, 0.0], [0.0, 0.25]],
}
# Attributes of a RecoveryReport that each recovery_report.json stage records, in order.
_STAGE_KEYS = (
    "converged", "iterations", "residual_norm", "underdetermined", "history", "damping",
    "rejected_trials", "residual_evals", "jacobian_evals", "g_builds", "mu",
)
# The "opts" keys of each command that reads them, each a keyword argument of
# the function the command calls (find_spectrum, recover_sequential), with
# its type and range as _check_value's (kind, least, op, most): the counts
# are at least 1, and the edge samples at most MAX_EDGE_SAMPLES.
_OPTION_RANGES = {
    "spectrum": {"initial_edge_samples": (int, 1, ">=", MAX_EDGE_SAMPLES)},
    "invert": {"max_iter": (int, 1, ">=", None)},
}
# The keys read at each level of a config, by command (its top level) or by
# object; the "opts" object of a command holds the keys of its
# _OPTION_RANGES. Every other key is refused.
_KEYS = {
    "forward": ("grid_n", "kernel", "lambdas"),
    "spectrum": ("grid_n", "kernel", "window", "extrapolate", "heatmap", "opts"),
    "invert": ("grid_n", "kernel", "targets", "target", "d", "mu", "init", "opts"),
    "verify": ("grid_n", "m0", "r", "p", "p_tilde", "lambdas"),
    "kernel": ("m0", "components"), "component": ("r", "p"),
    "samples": ("kind", "path"), "analytic": ("kind", "family", "coeffs"),
    "window": tuple(f.name for f in dataclasses.fields(SearchWindow)), "heatmap": ("nx", "ny"),
}
# The profile of a kernel component that gives no "p".
_ZERO = {"kind": "analytic", "family": "constant", "coeffs": [0.0]}


class ConfigError(ValueError):
    pass


def _finite_number(text: str) -> float:
    """Parse a config number, refusing NaN, Infinity and overflowing literals."""
    value = float(text)
    if not np.isfinite(value):
        raise ConfigError(f"config number {text} is not finite")
    return value


class _Repeats(dict):
    """A config object that gives its key repeated more than once."""

    def __init__(self, pairs, repeated):
        super().__init__(pairs)
        self.repeated = repeated


def _mark_repeats(pairs) -> dict:
    """A config object from its (key, value) pairs. json.loads would keep the
    last of two equal keys without a word, so an object that repeats a key
    is a _Repeats naming the first such key, which _check_keys refuses with
    its path."""
    seen = set()
    repeated = [key for key, _ in pairs if key in seen or seen.add(key)]
    return _Repeats(pairs, repeated[0]) if repeated else dict(pairs)


def _load_config(path) -> tuple[dict, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = p.read_bytes()
    try:
        cfg = json.loads(raw, parse_float=_finite_number, parse_constant=_finite_number,
                         object_pairs_hook=_mark_repeats)
    except json.JSONDecodeError as ex:
        raise ConfigError(f"config is not valid JSON: {ex}") from ex
    return cfg, hashlib.sha256(raw).hexdigest()


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


def _from_spec(spec, grid):
    """The field or profile a spec from _parse_spec describes, sampled on grid.

    An analytic constant, a field's included, is sampled as a Profile of N + 1
    samples: the constant field c is the difference kernel of the constant
    profile c. Samples carrying NaN or inf are refused. Config numbers are
    finite, but CSV samples need not be, and an analytic family can still
    overflow on the grid: it samples inf or NaN without a warning.
    """
    what, kind, *args = spec
    if kind == "analytic":
        sample = profile_from_family if what == "profile" or args[0] == "constant" else field_from_family
        with np.errstate(over="ignore", invalid="ignore"):
            sampled = sample(grid, *args)
    else:
        read = field_from_csv if what == "field" else profile_from_csv
        sampled = _read_input(f"{what} samples", read, *args, grid)
    if not np.isfinite(sampled.values).all():
        raise ConfigError(f"{what} has non-finite samples")
    return sampled


def _sample_kernel(kernel, grid) -> StructuredKernel:
    """The kernel (m0, ((r, p), ...)) from _parse_kernel, sampled on grid."""
    m0, comps = kernel
    return StructuredKernel(_from_spec(m0, grid), tuple(
        KernelComponent(_from_spec(r, grid), _from_spec(p, grid)) for r, p in comps
    ))


def _diagonal_residual(m, g) -> float:
    """Sup over x of |G(x, x) - i * integral over [0, x] of M(s, s) ds|.

    m is a field, or the Profile p of M = p(x - t), whose diagonal is p[0].
    """
    diag = np.full(m.grid.n_nodes, m.values[0]) if isinstance(m, Profile) else np.diagonal(m.values)
    target = 1j * cumtrapz_nodes(diag, m.grid)
    return float(np.abs(np.diagonal(g.g.values) - target).max())


def _provenance(command, sha, grid_n) -> dict:
    return {"command": command, "config_sha256": sha, "grid_n": grid_n}


def _is_a(value, kind) -> bool:
    """isinstance against a type: a bool is only a bool, an int is a float if one holds it."""
    kinds = (int, float) if kind is float else kind
    return (kind is bool) == isinstance(value, bool) and isinstance(value, kinds) and (
        kind is not float or abs(value) <= sys.float_info.max)


def _check_value(key, value, kind, least=None, op=">=", most=None) -> None:
    """Refuse value, naming key, unless _is_a(value, kind), value op least and value <= most."""
    ok = _is_a(value, kind) and (least is None or value > least or op == ">=" and value == least)
    if not (ok and (most is None or value <= most)):
        bound = ("" if least is None else f" {op} {least}") + ("" if most is None else f" and <= {most}")
        raise ConfigError(f"{key} must be {kind.__name__}{bound}, got {value!r}")


def _check_keys(key, obj, allowed) -> dict:
    """obj, refused unless it is an object whose keys are all in allowed.

    key is the path of obj in the config, "" for the config itself; a
    refusal names it, or the full path of a key the object repeats or of
    the first key not allowed.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{key or 'config'} must be dict, got {obj!r}")
    prefix = f"{key}." if key else ""
    if isinstance(obj, _Repeats):
        raise ConfigError(f"duplicate key {prefix}{obj.repeated}: a config object gives it twice")
    name = next((name for name in obj if name not in allowed), None)
    if name is not None:
        raise ConfigError(f"unknown key {prefix}{name}: the keys read there are {', '.join(allowed)}")
    return obj


def _parse_spec(key, spec, what, two_grids=None) -> tuple:
    """The field or profile (what) spec at key, as (what, "analytic", family,
    coeffs) or (what, "samples", path).

    coeffs must have its family's format in kernels.COEFF_FORMATS. two_grids
    names a run that samples on grids of N and 2N intervals, which refuses
    a samples spec: its file holds one grid.
    """
    # a spec that is no object passes to _check_keys, which refuses it
    kind = spec.get("kind") if isinstance(spec, dict) else "analytic"
    if kind not in ("samples", "analytic"):
        raise ConfigError(f'{key}.kind must be "analytic" or "samples", got {kind!r}')
    _check_keys(key, spec, _KEYS[kind])
    if kind == "samples":
        _check_value(f"{key}.path", spec.get("path"), str)
        if two_grids:
            raise ConfigError(f"{key} is a samples file, which holds one grid, but {two_grids} "
                              f"samples on grids of N and 2N intervals")
        return what, kind, spec["path"]
    formats = kernels.COEFF_FORMATS[what]
    family, coeffs = spec.get("family"), spec.get("coeffs")
    if not (isinstance(family, str) and family in formats):
        raise ConfigError(f"{key}.family must be one of {', '.join(formats)}, got {family!r}")
    count, row = formats[family]
    if not (isinstance(coeffs, list) and count in (None, len(coeffs))):
        size = "" if count is None else f" of {count}"
        raise ConfigError(f"{key}.coeffs of a {family} {what} must be a list{size}, got {coeffs!r}")
    for k, entry in enumerate(coeffs):
        if row is None:
            _check_value(f"{key}.coeffs[{k}]", entry, float)
        elif not (isinstance(entry, list) and len(entry) == len(row)):
            raise ConfigError(
                f"{key}.coeffs[{k}] must be a list of {len(row)} numbers, got {entry!r}")
        else:
            for j, least in enumerate(row):
                _check_value(f"{key}.coeffs[{k}][{j}]", entry[j], float, least)
    return what, kind, family, coeffs


def _parse_kernel(kernel, two_grids=None) -> tuple:
    """A config's kernel object as (m0, ((r, p), ...)) of parsed specs.

    A component without "p" has the zero profile. two_grids is _parse_spec's.
    """
    _check_keys("kernel", kernel, _KEYS["kernel"])
    comps, most = kernel.get("components", []), kernels.MAX_COMPONENTS
    if not (isinstance(comps, list) and len(comps) <= most):
        raise ConfigError(f"kernel.components must be a list of <= {most} objects, got {comps!r}")
    keys = [f"kernel.components[{k}]" for k in range(len(comps))]
    return _parse_spec("kernel.m0", kernel.get("m0"), "field", two_grids), tuple(
        (_parse_spec(f"{key}.r", _check_keys(key, comp, _KEYS["component"]).get("r"), "field",
                     two_grids),
         _parse_spec(f"{key}.p", comp.get("p", _ZERO), "profile", two_grids))
        for key, comp in zip(keys, comps)
    )


def _parse(cfg, command, grid_n) -> dict:
    """The keyword arguments of command's cmd_ function, read from cfg.

    grid_n is --grid-n, which overrides the config's. Each object in cfg
    may hold only the keys its level reads (_KEYS, and _OPTION_RANGES for
    "opts"); any other key is refused with its path. Each value is checked
    for type and range, naming its key, and given its default before
    anything is built or allocated, so a bad value costs no grid: "opts"
    and "extrapolate", the kernel specs (each against kernels.COEFF_FORMATS,
    and no samples spec for verify or an extrapolated spectrum) and the
    lambdas first, then grid_n, then what the grid bounds, invert's d and
    spectrum's window. Lambda points beyond RE_REACH or IM_REACH are refused.
    """
    _check_keys("", cfg, _KEYS[command])
    run = {}
    ranges = _OPTION_RANGES.get(command)
    if ranges is not None:
        opts = run["opts"] = _check_keys("opts", cfg.get("opts", {}), ranges)
        for key, value in opts.items():
            _check_value(f"opts.{key}", value, *ranges[key])
    extrapolate = cfg.get("extrapolate", False)  # only a spectrum config may hold it
    _check_value("extrapolate", extrapolate, bool)
    # the runs whose finest grid has 2N intervals
    two_grids = "verify" if command == "verify" else "an extrapolated spectrum" if extrapolate else None
    if command == "verify":
        run["specs"] = [_parse_spec(key, cfg.get(key), what, two_grids) for key, what in (
            ("m0", "field"), ("r", "field"), ("p", "profile"), ("p_tilde", "profile"))]
    else:
        run["kernel"] = _parse_kernel(cfg.get("kernel"), two_grids)
    if command in _DEFAULT_LAMBDAS:
        lams = cfg.get("lambdas", _DEFAULT_LAMBDAS[command])
        if not (isinstance(lams, list) and lams and all(
            isinstance(pair, list) and len(pair) == 2 and all(_is_a(v, float) for v in pair)
            for pair in lams
        )):
            raise ConfigError(f"lambdas must be a non-empty list of [re, im] number pairs, got {lams!r}")
        if not all(abs(re) < RE_REACH and abs(im) < IM_REACH for re, im in lams):
            raise ConfigError(
                f"lambdas must have |re| < {RE_REACH:.6g} and |im| < {IM_REACH:.6g}, got {lams!r}")
        run["lambdas"] = [complex(re, im) for re, im in lams]
    n = run["n"] = cfg.get("grid_n") if grid_n is None else grid_n
    for value in (cfg.get("grid_n", n), n):  # the config's too where --grid-n overrides it
        _check_value("grid_n", value, int, 2)
    # the command's finest grid has refine * n intervals
    refine = 2 if two_grids else 1
    field_bytes = np.dtype(complex).itemsize * (refine * n + 1) ** 2
    if field_bytes > MAX_FIELD_BYTES:
        raise ConfigError(
            f"grid_n {n} needs a {refine * n}-interval grid of {field_bytes >> 20} MiB "
            f"fields, above the limit of {MAX_FIELD_BYTES >> 20} MiB"
        )
    if command == "invert":
        if ("target" in cfg) == ("targets" in cfg):
            raise ConfigError("invert config needs 'target' or 'targets', and not both")
        if "target" in cfg:
            _check_value("target", cfg["target"], str)
        targets = cfg.get("targets", [cfg.get("target")])
        if not (isinstance(targets, list) and targets and all(isinstance(t, str) for t in targets)):
            raise ConfigError(f"targets must be a non-empty list of paths, got {targets!r}")
        count, comps = len(targets), len(run["kernel"][1])
        if count > comps:
            raise ConfigError(f"{count} target spectra but only {comps} kernel components")
        d, mu, init = cfg.get("d", _DEFAULT_D), cfg.get("mu", 0.0), cfg.get("init", "zero")
        # with more spline knots than grid nodes the basis columns are dependent
        _check_value("d", d, int, 2, most=n + 1)
        _check_value("mu", mu, float, 0.0)
        if init not in ("zero", "random") and not (
            isinstance(init, list) and len(init) == d and all(_is_a(v, float) for v in init)
        ):
            raise ConfigError(f'init must be "zero", "random" or a list of d numbers, got {init!r}')
        run.update(targets=targets, d=d, mu=float(mu), init=[0.0] * d if init == "zero" else init)
    if command == "spectrum":
        hm = {} if cfg.get("heatmap") is None else cfg["heatmap"]
        nx, ny = _check_keys("heatmap", hm, _KEYS["heatmap"]).get("nx", 80), hm.get("ny", 60)
        _check_value("heatmap.nx", nx, int, 1)
        _check_value("heatmap.ny", ny, int, 1)
        if nx * ny > MAX_HEATMAP_POINTS:
            raise ConfigError(f"heatmap has {nx} x {ny} points, above the limit of {MAX_HEATMAP_POINTS}")
        win = _check_keys("window", cfg.get("window"), _KEYS["window"])
        for name in _KEYS["window"]:
            _check_value(f"window.{name}", win.get(name), float)
        try:
            window = SearchWindow(*(float(win[name]) for name in _KEYS["window"]))
        except ValueError as ex:
            raise ConfigError(f"bad search window: {ex}") from ex
        _check_alias_free(window, n, "search window")
        if max(-window.im_min, window.im_max) >= IM_REACH:
            raise ConfigError(f"search window reaches |Im lambda| >= {IM_REACH:.6g}: Delta overflows")
        # an empty heatmap object asks for no heatmap
        run.update(window=window, extrapolate=extrapolate, heatmap=(nx, ny) if hm else None)
    return run


def _check_alias_free(window: SearchWindow, n: int, what: str) -> None:
    """Refuse a window, named by what, reaching |Re lambda| >= pi/h = n.

    The discrete Delta is a polynomial in exp(-i lambda h), so it repeats
    with period 2 pi / h in Re lambda; a root found beyond pi/h is a copy,
    and one fitted there matches a copy of a smaller root.
    """
    reach = max(abs(window.re_min), abs(window.re_max))
    if reach >= n:
        raise ConfigError(
            f"{what} reaches |Re lambda| = {reach}, at or beyond pi/h = {n} "
            f"where the discrete Delta repeats; raise grid_n or narrow the window"
        )


# --- commands ---------------------------------------------------------------


def cmd_forward(sha, out: Path, seed, *, n, kernel, lambdas) -> None:
    grid = make_grid(n)
    m = kernel_samples(_sample_kernel(kernel, grid))
    g = build_g(m)
    diag_res = _diagonal_residual(m, g)
    del m  # so the G writer's blocks sit on G alone

    serialize.transform_kernel_to_files(g, out / "g_kernel.csv", out / "g_kernel_meta.json")

    e = np.concatenate([eval_e_via_g(g, lam) for lam in lambdas])
    lams = np.array(lambdas)
    which = np.repeat(np.arange(lams.size), grid.n_nodes)
    node = np.tile(np.arange(grid.n_nodes), lams.size)
    serialize.write_csv(out / "e_samples.csv", "lambda_re,lambda_im,x,re,im", [
        (lams.real, which), (lams.imag, which), (grid.nodes, node), e.real, e.imag,
    ])

    serialize.write_json(out / "forward_report.json", {
        "provenance": _provenance("forward", sha, n),
        "g_build": g.build,
        "picard_terms": g.iterations,
        "picard_term_norms": [float(v) for v in g.term_norms],
        "diagonal_identity_residual": diag_res,
        "boundary_column_max": float(np.abs(g.g.values[:, 0]).max()),
        "lambda_samples": [[l.real, l.imag] for l in lambdas],
    })


def cmd_spectrum(sha, out: Path, seed, *, n, kernel, window, opts, extrapolate, heatmap) -> None:
    # the zero search reads G's last rows only
    grids = (make_grid(n), make_grid(2 * n)) if extrapolate else (make_grid(n),)
    rows, ways = zip(*(last_row(kernel_samples(_sample_kernel(kernel, g))) for g in grids))
    evaluator = DeltaEvaluator(*rows)
    spec = find_spectrum(evaluator, window, **opts)

    serialize.write_json(out / "spectrum.json", {
        "provenance": _provenance("spectrum", sha, n),
        **serialize.spectrum_to_dict(spec, grids[0].step),
        "delta_evals": evaluator.evals,
        "deriv_evals": evaluator.deriv_evals,
        "search": dataclasses.asdict(spec.stats),
        # "series" when every row was summed without a G build
        "g_row": "series" if set(ways) == {"series"} else "march",
    })

    if heatmap:
        nx, ny = heatmap
        res = np.linspace(window.re_min, window.re_max, nx)
        ims = np.linspace(window.im_min, window.im_max, ny)
        vals = np.concatenate([np.abs(evaluator((res + 1j * im).astype(complex))) for im in ims])
        serialize.write_csv(out / "delta_heatmap.csv", "re,im,abs_delta", [
            (res, np.tile(np.arange(nx), ny)), (ims, np.repeat(np.arange(ny), nx)), vals,
        ])


def cmd_invert(sha, out: Path, seed, *, n, kernel, targets, d, mu, init, opts) -> None:
    spectra = [_read_input("target spectrum", serialize.spectrum_from_json, t) for t in targets]
    for path, spec in zip(targets, spectra):
        w = spec.window
        _check_alias_free(w, n, f"window of target spectrum {path}")
        # the alias check reads the window, so a root outside it could lie
        # beyond pi/h, and find_spectrum writes no such root
        for ev in spec.eigenvalues:
            if not (w.re_min <= ev.value.real <= w.re_max and w.im_min <= ev.value.imag <= w.im_max):
                raise ConfigError(f"target spectrum {path} has root {ev.value} outside its window")
        if spec.total_count == 0 and mu == 0:
            raise ConfigError(f"target spectrum {path} is empty and mu is 0; give mu > 0")
        # a root whose Newton polish failed is only a cell centre: fitting it as
        # an exact eigenvalue would pull the profile towards a wrong spectrum
        for ev in spec.eigenvalues:
            if not ev.newton_converged:
                raise NumericalFailure(f"target root {ev.value} in {path} has "
                                       f"newton_converged false; refusing to fit it")

    rng = np.random.default_rng(seed if seed is not None else 0)
    inits = [0.1 * rng.standard_normal(d) if init == "random" else init for _ in spectra]
    family = _sample_kernel(kernel, make_grid(n))
    # a fit whose numbers overflow ends unconverged or fails its weight test, with no warning
    with np.errstate(all="ignore"):
        reports = recover_sequential(spectra, family, d, mu=mu, inits=inits, **opts)

    stages = []
    for k, rep in enumerate(reports, start=1):
        serialize.profile_to_csv(rep.recovered, out / f"recovered_profile_{k}.csv")
        stages.append({"stage": k, **{key: getattr(rep, key) for key in _STAGE_KEYS}})
    serialize.write_json(out / "recovery_report.json", {
        "provenance": _provenance("invert", sha, n),
        "d": d,
        "mu": mu,
        "seed": seed,
        "stages": stages,
    })
    # recover_sequential stops at the first stage that does not converge
    last = reports[-1]
    if not last.converged:
        raise NumericalFailure(f"stage {len(reports)} of {len(spectra)} did not converge "
                               f"(LM iterations {last.iterations}, cost {last.residual_norm:.6g})")


def _verify_once(grid, specs, lambdas):
    m0, r, p, pt = (_from_spec(spec, grid) for spec in specs)
    m, mt = (kernel_samples(StructuredKernel(m0, (KernelComponent(r, q),))) for q in (p, pt))

    g, k2 = build_g(m), build_g(mt)  # before the marches, which overflow where G does
    # the marches and the checks below read the kernels as fields; r, a
    # Profile or a field, is read as it is
    m, mt = as_field(m), as_field(mt)

    # the marches every check below reads, one column per lambda; psi is the
    # reflected kernel's march read backwards, so for a kernel that is its
    # own reflection it is e's, and k1, the reflected kernel's G, is g
    lam = np.array(lambdas, dtype=complex)
    e, et = eval_e_direct(m, lam), eval_e_direct(mt, lam)
    refl = reflected_kernel(m)
    if refl is m:
        psi, k1 = e[::-1], g
    else:
        psi, k1 = eval_e_direct(refl, lam)[::-1], build_g(refl)
    b, kk = assemble_z_kernel(k1.g, k2.g, r)
    z = eval_z(r, psi, et)
    return {
        "diagonal_identity": _diagonal_residual(m, g),
        "duality": float(np.abs(e[-1] - psi[0]).max()),
        "green_identity": float(verify_green_identity(m, mt, psi, et).max()),
        "change_of_variables": float(verify_change_of_variables(r, p, pt, psi, et, z).max()),
        "z_decomposition": float(np.abs(z - eval_z_decomposed(b, kk, lam)).max()),
    }


def cmd_verify(sha, out: Path, seed, *, n, specs, lambdas) -> None:
    # near IM_REACH the solutions can overflow without G doing so: such a
    # run ends with the first residual that is not finite, with no warning
    with np.errstate(all="ignore"):
        coarse = _verify_once(make_grid(n), specs, lambdas)
        fine = _verify_once(make_grid(2 * n), specs, lambdas)
    for grid_n, residuals in ((n, coarse), (2 * n, fine)):
        for key, value in residuals.items():
            if not np.isfinite(value):
                raise NumericalFailure(f"{key} residual is {value} on the {grid_n}-interval grid")
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
    """Run one command; the exit code, and for a failure its one stderr line."""
    args = _parser().parse_args(argv)
    try:
        cfg, sha = _load_config(args.config)
        run = _parse(cfg, args.command, args.grid_n)
        # the first of --out and its parents that exists must be a directory:
        # the writers would fail on their first file, after all the work
        out = Path(args.out)
        first = next((p for p in (out, *out.parents) if p.exists()), out)
        if not first.is_dir():
            raise ConfigError(f"--out {out}: {first} is not a directory")
        COMMANDS[args.command](sha, out, args.seed, **run)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG
    except WeightVanishesError as ex:
        print(f"weight condition failure: {ex}", file=sys.stderr)
        return EXIT_WEIGHT
    except NumericalFailure as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
