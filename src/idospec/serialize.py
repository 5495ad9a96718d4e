"""CSV and JSON artifact formats.

Float output is fixed at 17 significant digits everywhere so that repeated
runs with the same config produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .quadrature import Grid, Profile, TriangularField, make_grid
from .transform import TransformKernel
from .spectral import Eigenvalue, SearchWindow, Spectrum


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_render(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_render(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no inf or nan; write the literals json.load reads back
        return fmt(obj) if np.isfinite(obj) else json.dumps(float(obj))
    return json.dumps(obj)


def dumps_json(obj) -> str:
    """Deterministic JSON text: insertion order, 17-significant-digit floats."""
    return _json_render(obj) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def _complex(re, im) -> np.ndarray:
    """Complex array from its parts, set one by one: re + 1j * im would turn an
    infinite imaginary part into nan + inf j and lose the real part."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _csv_rows(path) -> np.ndarray:
    """The numeric rows of a CSV file below its header line, one array row each.

    A file with no rows there is refused with ValueError, without numpy's
    warning about it.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0:
        raise ValueError("no data rows below the header")
    return data


# --- profiles -------------------------------------------------------------------


def profile_to_csv(p: Profile, path) -> None:
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(p.grid.nodes, p.values):
            fh.write(f"{fmt(x)},{fmt(v.real)},{fmt(v.imag)}\n")


def profile_from_csv(path, grid: Grid | None = None) -> Profile:
    data = _csv_rows(path)
    n = data.shape[0] - 1
    if grid is None:
        grid = make_grid(n)
    elif grid.n_intervals != n:
        raise ValueError(f"profile file has {n} intervals, grid has {grid.n_intervals}")
    return Profile(grid, _complex(data[:, 1], data[:, 2]))


# --- triangular fields ----------------------------------------------------------


def field_to_csv(f: TriangularField, path) -> None:
    """One line per node pair t <= x, rows of the triangle in order."""
    nodes = [fmt(x) for x in f.grid.nodes]
    with open(path, "w") as fh:
        fh.write("x,t,re,im\n")
        for i, x in enumerate(nodes):
            row = f.values[i, : i + 1]
            fh.write("".join(
                f"{x},{t},{re:.17g},{im:.17g}\n"
                for t, re, im in zip(nodes, row.real.tolist(), row.imag.tolist())
            ))


def field_from_csv(path, grid: Grid | None = None) -> TriangularField:
    data = _csv_rows(path)
    rows = data.shape[0]
    # rows = (n+1)(n+2)/2 for n intervals
    n = int(round((np.sqrt(8 * rows + 1) - 3) / 2))
    if (n + 1) * (n + 2) // 2 != rows:
        raise ValueError(f"{rows} rows is not a triangular node count")
    if grid is None:
        grid = make_grid(n)
    elif grid.n_intervals != n:
        raise ValueError(f"field file has {n} intervals, grid has {grid.n_intervals}")
    vals = np.zeros((n + 1, n + 1), dtype=complex)
    vals[np.tril_indices(n + 1)] = _complex(data[:, 2], data[:, 3])  # row-major, as written
    return TriangularField(grid, vals)


# --- transform kernels ----------------------------------------------------------


def transform_kernel_to_files(tk: TransformKernel, csv_path, sidecar_path) -> None:
    field_to_csv(tk.g, csv_path)
    write_json(
        sidecar_path,
        {
            "tol": tk.tol,
            "iterations": tk.iterations,
            "term_norms": [float(v) for v in tk.term_norms],
        },
    )


def transform_kernel_from_files(csv_path, sidecar_path) -> TransformKernel:
    g = field_from_csv(csv_path)
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    return TransformKernel(
        g=g,
        term_norms=np.asarray(meta["term_norms"], dtype=float),
        iterations=int(meta["iterations"]),
        tol=float(meta["tol"]),
    )


# --- spectra --------------------------------------------------------------------


def spectrum_to_dict(spec: Spectrum, h: float) -> dict:
    return {
        "window": {
            "re_min": spec.window.re_min,
            "re_max": spec.window.re_max,
            "im_min": spec.window.im_min,
            "im_max": spec.window.im_max,
        },
        "h": h,
        "total_count": spec.total_count,
        "eigenvalues": [
            {
                "re": ev.value.real,
                "im": ev.value.imag,
                "multiplicity": ev.multiplicity,
                "residual": ev.residual,
                "newton_converged": ev.newton_converged,
            }
            for ev in spec.eigenvalues
        ],
    }


def spectrum_to_json(spec: Spectrum, h: float, path) -> None:
    write_json(path, spectrum_to_dict(spec, h))


def spectrum_from_json(path) -> Spectrum:
    with open(path) as fh:
        # fmt writes integral floats without a point ("-0", "2"); reading
        # them as floats keeps -0.0, so a rewrite is byte-identical
        data = json.load(fh, parse_int=float)
    win = SearchWindow(**data["window"])
    evs = tuple(
        Eigenvalue(
            value=complex(e["re"], e["im"]),
            multiplicity=int(e["multiplicity"]),
            residual=float(e["residual"]),
            newton_converged=bool(e.get("newton_converged", True)),  # absent in older files
        )
        for e in data["eigenvalues"]
    )
    return Spectrum(eigenvalues=evs, window=win, total_count=int(data["total_count"]))
