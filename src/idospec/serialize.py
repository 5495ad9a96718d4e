"""CSV and JSON artifact formats.

Float output is fixed at 17 significant digits everywhere so that repeated
runs with the same config produce byte-identical artifacts: every float is
written as format(x, ".17g") spells it. JSON writes its floats one by one
(fmt). CSV writers format whole columns at once (fmt_array), exactly: the
17-digit integer of |x| * 10^p comes from a double-double product, and the
elements that product cannot settle (non-finite values, |x| outside
[1e-240, 1e240], and fractions within 1e-9 of a rounding tie) are formatted
one by one by format() instead.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import warnings

import numpy as np

from .quadrature import Grid, Profile, TriangularField, make_grid
from .transform import TransformKernel
from .spectral import Eigenvalue, SearchWindow, Spectrum


def fmt(x: float) -> str:
    return format(float(x), ".17g")


# --- 17-digit text of float arrays ----------------------------------------------

# Columns of one formatted float: at most "-0.000" and 17 digits, or a sign,
# 17 digits, a point and "e-308".
_WIDTH = 24
# Elements per block the CSV writers format at once: bounds their working memory.
CSV_BLOCK = 8192
# |x| range of the exact product: there 10^p and every partial product of
# the double-double multiplication stay normal doubles.
_LOW, _HIGH = 1e-240, 1e240
# p = 16 - k, with the decimal exponent k of |x| in that range, give or take one
_P_MIN, _P_MAX = -225, 257
# Fractions this close to one half may be exact ties, which the product
# cannot tell from near ones; its error is below 1e-14.
_TIE_GAP = 1e-9
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_E16, _E17 = 10**16, 10**17
# Template columns of one element: its 17 digits, then these constants, the
# exponent sign and three exponent digits
_ZERO, _POINT, _MINUS, _NUL, _E, _ESIGN, _EDIGITS = range(17, 24)
# Layout classes of the decimal exponent k: fixed notation for -4 <= k < 17
# (class k + 4), exponent notation with two digits (class 21) or three (22)
_KCLASSES = 23


@functools.cache
def _chunk_digits() -> np.ndarray:
    """(10000, 4) uint8: the four ASCII digits of 0..9999, zero-padded."""
    c = np.arange(10000, dtype=np.int16)[:, None]
    return (c // np.array([1000, 100, 10, 1], dtype=np.int16) % 10 + ord("0")).astype(np.uint8)


@functools.cache
def _pow10() -> np.ndarray:
    """(3, _P_MAX - _P_MIN + 1): hi split in two halves, and lo, of 10^p.

    hi = fl(10^p) and lo = fl(10^p - hi), each from one correctly rounded
    Python int / int division, so hi + lo is 10^p to about 2^-106 relative.
    """
    tens = [10**q for q in range(max(_P_MAX, -_P_MIN) + 1)]
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            hi.append(float(tens[p]))
            lo.append(float(tens[p] - int(hi[-1])))
        else:
            hi.append(1 / tens[-p])
            h_num, h_den = hi[-1].as_integer_ratio()
            lo.append((h_den - h_num * tens[-p]) / (h_den * tens[-p]))
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    return np.stack([hh, hi - hh, np.array(lo)])


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray]:
    """Template column of each output column, and the text length, per layout key.

    key = (sign * _KCLASSES + exponent class) * 18 + significant digits. The
    text is the Python 'g' layout of the digits: fixed notation shows
    max(k + 1, 1) digits before the point (zeros padding an integer),
    -k - 1 zeros after it when k < 0, and the significant digits; exponent
    notation shows one digit before the point, then "e", the sign and at
    least two exponent digits.
    """
    cols = np.full((2 * _KCLASSES * 18, _WIDTH), _NUL, dtype=np.uint8)
    lengths = np.zeros(len(cols), dtype=np.int64)
    for kc in range(_KCLASSES):
        if kc <= 20:
            lead, before, suffix = max(4 - kc, 0), max(kc - 3, 1), []
        else:
            lead, before = 0, 1
            suffix = [_E, _ESIGN, *range(_EDIGITS + (kc == 21), _EDIGITS + 3)]
        stream = [_ZERO] * lead + list(range(17))  # the digits after `lead` zeros
        for nd in range(1, 18):
            shown = max(before, lead + nd)
            point = [_POINT] if shown > before else []
            text = stream[:before] + point + stream[before:shown] + suffix
            for sign in (0, 1):
                key = (sign * _KCLASSES + kc) * 18 + nd
                lengths[key] = sign + len(text)
                cols[key, : lengths[key]] = [_MINUS] * sign + text
    return cols, lengths


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer and fractional part of x * 10^(16 - k), by a Dekker product."""
    hh, hl, lo = _pow10()[:, 16 - k - _P_MIN]
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    prod = x * (hh + hl)
    err = ((xh * hh - prod) + xh * hl + xl * hh) + xl * hl
    b = err + x * lo
    fb = np.floor(b)
    return prod.astype(np.int64) + fb.astype(np.int64), b - fb


def fmt_array(v) -> np.ndarray:
    """format(x, ".17g") of each element of v, as the rows of a uint8 block.

    Row r spells the text of v.flat[r] in ASCII, padded with NULs to the
    block's width, the longest text in it.
    """
    v = np.asarray(v, dtype=float).ravel()
    a = np.abs(v)
    zero = a == 0
    fast = (a >= _LOW) & (a <= _HIGH)  # false for NaN
    x = np.where(fast, a, 1.0)
    k = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scaled(x, k)
    # log10 can miss the exponent by one next to a power of ten
    off = (whole >= _E17).astype(np.int64) - (whole < _E16)
    if off.any():
        redo = off != 0
        k[redo] += off[redo]
        whole[redo], frac[redo] = _scaled(x[redo], k[redo])
    digits17 = whole + (frac > 0.5)
    carry = digits17 == _E17
    digits17[carry] = _E16
    k += carry
    slow = ~zero & (~fast | (np.abs(frac - 0.5) < _TIE_GAP))
    digits17[zero] = 0
    k[zero] = 0

    n = v.size
    tpl = np.empty((n, _EDIGITS + 3), dtype=np.uint8)
    head = digits17 // _E16
    rest = digits17 - head * _E16
    chunks = np.empty((n, 4), dtype=np.int32)
    chunks[:, 0], chunks[:, 2] = np.divmod(rest, 10**8)
    chunks[:, 0], chunks[:, 1] = np.divmod(chunks[:, 0], 10**4)
    chunks[:, 2], chunks[:, 3] = np.divmod(chunks[:, 2], 10**4)
    table = _chunk_digits()
    tpl[:, 0] = head + ord("0")
    tpl[:, 1:17] = table.view(np.uint32)[chunks, 0].view(np.uint8)  # 4 digits at a time
    tpl[:, _ZERO:_ESIGN] = np.frombuffer(b"0.-\0e", dtype=np.uint8)
    fixed = (k >= -4) & (k < 17)
    if not fixed.all():
        sci = ~fixed
        tpl[sci, _ESIGN] = np.where(k[sci] < 0, ord("-"), ord("+"))
        tpl[sci, _EDIGITS:] = table[np.abs(k[sci]), 1:]

    nd = 17 - np.argmax(tpl[:, 16::-1] != ord("0"), axis=1)  # trailing zeros dropped
    nd[zero] = 1
    kclass = np.where(fixed, k + 4, 21 + (np.abs(k) >= 100))
    key = (np.signbit(v) * _KCLASSES + kclass) * 18 + nd
    cols, lengths = _layouts()
    texts = [format(float(e), ".17g").encode() for e in v[slow]]
    width = max([int(lengths[key].max(initial=0))] + [len(t) for t in texts])
    # flat template index of each output byte
    at = cols[:, :width][key] + (np.arange(n) * tpl.shape[1])[:, None]
    out = tpl.ravel().take(at)
    for r, t in zip(np.flatnonzero(slow), texts):
        out[r] = 0
        out[r, : len(t)] = np.frombuffer(t, dtype=np.uint8)
    return out


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


def _lines(fields) -> bytes:
    """The rows of NUL-padded text blocks joined by commas into lines, NULs dropped."""
    out = np.zeros((fields[0].shape[0], sum(f.shape[1] + 1 for f in fields)), dtype=np.uint8)
    end = 0
    for f in fields:
        out[:, end : end + f.shape[1]] = f
        end += f.shape[1] + 1
        out[:, end - 1] = ord(",")
    out[:, -1] = ord("\n")
    flat = out.ravel()
    return flat[flat != 0].tobytes()


def write_csv(path, header: str, columns) -> None:
    """A header line, then one line per row of the columns, floats as fmt writes them.

    A column is an array with one float per line, or a pair (values, index)
    whose line r holds values[index[r]]: values are formatted once and their
    text gathered. Lines are formatted and written CSV_BLOCK at a time.
    """
    texts = [fmt_array(c[0]) if isinstance(c, tuple) else None for c in columns]
    picks = [c[1] if isinstance(c, tuple) else c for c in columns]
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, len(picks[0]), CSV_BLOCK):
            block = slice(start, start + CSV_BLOCK)
            fh.write(_lines([
                fmt_array(p[block]) if t is None else t[p[block]]
                for t, p in zip(texts, picks)
            ]))


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
    write_csv(path, "x,re,im", [p.grid.nodes, p.values.real, p.values.imag])


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
    rows, cols = np.tril_indices(f.grid.n_nodes)
    vals = f.values[rows, cols]
    nodes = f.grid.nodes
    write_csv(path, "x,t,re,im", [(nodes, rows), (nodes, cols), vals.real, vals.imag])


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
        "window": dataclasses.asdict(spec.window),
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
