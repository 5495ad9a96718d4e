"""Uniform grids on [0, pi], trapezoidal quadrature and sampled fields.

Everything downstream (kernels, Picard recursion, characteristic function)
is discretized on a single uniform grid so that every integration limit and
every shifted argument (x - t, t + s - x, ...) lands exactly on a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PI = np.pi
# Rows per block of the loops that run over the rows of a field: march_rows,
# the one driver of both marches (transform._march, spectral.eval_e_direct),
# reads every earlier row in one gemm per block, eval_z contracts a block per
# einsum, and the elementwise passes and sup_norm read a block at a time,
# which bounds their temporaries to a few rows.
ROW_BLOCK = 32


class GridMismatchError(ValueError):
    """Two sampled objects do not share the same grid."""


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform partition of [0, pi] into n_intervals cells."""

    n_intervals: int
    nodes: np.ndarray = field(repr=False)
    step: float

    @property
    def n_nodes(self) -> int:
        return self.n_intervals + 1


def make_grid(n_intervals: int) -> Grid:
    """Uniform grid with n_intervals >= 2 cells covering [0, pi]."""
    if n_intervals < 2:
        raise ValueError(f"n_intervals must be >= 2, got {n_intervals}")
    nodes = np.linspace(0.0, PI, n_intervals + 1)
    return Grid(n_intervals=n_intervals, nodes=nodes, step=PI / n_intervals)


def same_grid(a: Grid, b: Grid) -> bool:
    return a is b or a.n_intervals == b.n_intervals


def require_same_grid(*grids: Grid) -> None:
    g0 = grids[0]
    for g in grids[1:]:
        if not same_grid(g0, g):
            raise GridMismatchError(
                f"grids differ: {g0.n_intervals} vs {g.n_intervals} intervals"
            )


def volterra_apply(values, vec, h: float) -> np.ndarray:
    """Row-wise trapezoid of a lower-triangular field against a vector.

    out[i] = trapezoid over j = 0..i of values[i, j] * vec[j] with step h,
    and out[0] = 0 (an empty range). values must be zero above the diagonal:
    the plain sum over j is then one matrix-vector product, and the two end
    weights per row are corrected with column 0 and the diagonal. vec may
    also be a matrix, whose columns are then treated as separate vectors.
    """
    values = np.asarray(values)
    vec = np.asarray(vec)
    diag = np.diagonal(values).reshape((-1,) + (1,) * (vec.ndim - 1))
    ends = np.multiply.outer(values[:, 0], vec[0]) + diag * vec
    out = h * (values @ vec - 0.5 * ends)
    out[0] = 0.0
    return out


def march_rows(mv: np.ndarray, h: float, v: np.ndarray, lower: bool):
    """Drive the step-by-step trapezoid method for a Volterra equation of the
    second kind in v, row by row: yield (i, p) for i = 1 .. n - 1.

    p[c] is the trapezoid rule, step h, for the integral over tau in [x_lo,
    x_i] of M(x_i, tau) v(tau, c), less its end term at tau = x_i, where v
    is not known yet: h M[i, :i] @ v[:i, c] - h M[i, lo] v[lo, c] / 2. If
    lower, v is lower-triangular (as G), p has the columns c < i and lo = c,
    the diagonal of v; otherwise (as e) p has every column of v and lo = 0.
    Row 0, and if lower the diagonal, must be set before the iteration
    starts. The caller writes row i (its columns < i if lower) before the
    next yield, and may change p in place; rows below i are not read before
    then, so they may hold the caller's own data. One gemm per block of
    ROW_BLOCK rows reads every row above the block, so only the products
    within the block run row by row. h M, p's rows and their end weights are
    formed a block at a time in reused buffers: the driver holds no
    full-size array.
    """
    n, cols = mv.shape[0], v.shape[1]
    ends = 0.5 * (np.diagonal(v) if lower else v[0])   # v at tau = x_lo, halved
    hm_buf = np.empty(min(ROW_BLOCK, n) * n, dtype=complex)
    part_buf, tmp_buf = np.empty((2, min(ROW_BLOCK, n) * cols), dtype=complex)
    for r0 in range(1, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        w = r1 if lower else cols
        hm = hm_buf[: (r1 - r0) * r1].reshape(r1 - r0, r1)
        part, tmp = (b[: (r1 - r0) * w].reshape(r1 - r0, w) for b in (part_buf, tmp_buf))
        hm[...] = mv[r0:r1, :r1]
        hm *= h                            # rows r0 .. r1 - 1 of h M
        np.matmul(hm[:, :r0], v[:r0, :w], out=part)
        tmp[...] = ends[:w]                # numpy buffers a broadcast operand
        part -= np.multiply(hm if lower else hm[:, :1], tmp, out=tmp)
        for i in range(r0, r1):
            p = part[i - r0, :i] if lower else part[i - r0]
            p += hm[i - r0, r0:i] @ (v[r0:i, :i] if lower else v[r0:i])
            yield i, p


def trapezoid_weights(n_nodes: int, step: float) -> np.ndarray:
    """Weight vector w with sum(w * f) = trapezoid of f over the full range."""
    w = np.full(n_nodes, step)
    w[0] = w[-1] = 0.5 * step
    return w


def cumtrapz_nodes(samples, grid: Grid) -> np.ndarray:
    """Cumulative trapezoid F[i] = integral from nodes[0] to nodes[i]; F[0] = 0."""
    samples = np.asarray(samples, dtype=complex)
    out = np.empty_like(samples)
    out[0] = 0.0
    csum = np.cumsum(samples)
    out[1:] = grid.step * (csum[1:] - 0.5 * samples[1:] - 0.5 * samples[0])
    return out


def lag_view(v: np.ndarray) -> np.ndarray:
    """Read-only view with entry (i, j) = v(x_i - t_j) from node samples v.

    On a uniform grid x_i - t_j is the node x_{i-j}, so no interpolation
    error enters here. Row i is a window on v reversed and padded with
    n - 1 zeros, which fill the entries above the diagonal.
    """
    n = v.shape[0]
    padded = np.concatenate([v[::-1], np.zeros(n - 1, dtype=v.dtype)])
    return sliding_window_view(padded, n)[::-1]


def zero_upper(values: np.ndarray) -> np.ndarray:
    """Set the entries of a square array above its diagonal to +0.0, in place.

    Returns values, now bitwise equal to np.tril(values) but with no masked
    copy. The entries are overwritten, not multiplied by a mask, so an inf
    or NaN above the diagonal becomes +0.0 as it does in np.tril.
    """
    np.copyto(values, 0.0, where=~np.tri(len(values), dtype=bool))
    return values


@dataclass(frozen=True, eq=False)
class Profile:
    """Complex function of one variable sampled on the grid nodes."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"profile length {self.values.shape} does not match grid "
                f"({self.grid.n_nodes} nodes)"
            )

    @classmethod
    def from_function(cls, grid: Grid, f) -> "Profile":
        return cls(grid, np.asarray(f(grid.nodes), dtype=complex) + np.zeros(grid.n_nodes))

    @classmethod
    def zeros(cls, grid: Grid) -> "Profile":
        return cls(grid, np.zeros(grid.n_nodes, dtype=complex))

    @classmethod
    def constant(cls, grid: Grid, c) -> "Profile":
        return cls(grid, np.full(grid.n_nodes, c, dtype=complex))


@dataclass(frozen=True, eq=False)
class TriangularField:
    """Complex function sampled on the triangle 0 <= t <= x <= pi.

    values[i, j] = f(x_i, t_j) for j <= i; entries above the diagonal are
    kept at zero, which the Picard step and volterra_apply rely on: they sum
    whole rows and columns in matrix products.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.grid.n_nodes
        if self.values.shape != (n, n):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid ({n} nodes)"
            )

    @classmethod
    def from_function(cls, grid: Grid, f) -> "TriangularField":
        x = grid.nodes[:, None]
        t = grid.nodes[None, :]
        vals = np.asarray(f(x, t), dtype=complex) + np.zeros((grid.n_nodes, grid.n_nodes))
        return cls(grid, zero_upper(vals))

    @classmethod
    def zeros(cls, grid: Grid) -> "TriangularField":
        n = grid.n_nodes
        return cls(grid, np.zeros((n, n), dtype=complex))

    @classmethod
    def constant(cls, grid: Grid, c) -> "TriangularField":
        n = grid.n_nodes
        return cls(grid, zero_upper(np.full((n, n), c, dtype=complex)))

    def sup_norm(self) -> float:
        """max |values|, NaN if any value is NaN. It reads ROW_BLOCK rows at a
        time, so it forms no full-size array of magnitudes."""
        v = self.values
        return float(np.max([np.abs(v[r : r + ROW_BLOCK]).max() for r in range(0, len(v), ROW_BLOCK)]))


def as_field(m: TriangularField | Profile) -> TriangularField:
    """m as a field. A Profile p stands for the difference kernel p(x - t)
    and is lifted to a new field of its samples p[i - j] (lag_view); a
    field is returned itself."""
    if isinstance(m, Profile):
        return TriangularField(m.grid, np.array(lag_view(m.values)))
    return m
