"""Uniform grids on [0, pi], trapezoidal quadrature and sampled fields.

Everything downstream (kernels, Picard recursion, characteristic function)
is discretized on a single uniform grid so that every integration limit and
every shifted argument (x - t, t + s - x, ...) lands exactly on a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PI = np.pi


class GridMismatchError(ValueError):
    """Two sampled objects do not share the same grid."""


class TriangleIndexError(IndexError):
    """Access to a triangular field above the diagonal (t > x)."""


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
    weights per row are corrected with column 0 and the diagonal.
    """
    values = np.asarray(values)
    vec = np.asarray(vec)
    ends = values[:, 0] * vec[0] + np.diagonal(values) * vec
    out = h * (values @ vec - 0.5 * ends)
    out[0] = 0.0
    return out


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


def interp_profile(p: Profile, x: float) -> complex:
    """Piecewise-linear interpolation of a profile; exact at nodes."""
    if x < -1e-12 or x > PI + 1e-12:
        raise ValueError(f"x={x} outside [0, pi]")
    x = min(max(x, 0.0), PI)
    h = p.grid.step
    k = min(int(x / h), p.grid.n_intervals - 1)
    frac = (x - p.grid.nodes[k]) / h
    if frac <= 0.0:
        return complex(p.values[k])
    if frac >= 1.0:
        return complex(p.values[k + 1])
    return complex((1.0 - frac) * p.values[k] + frac * p.values[k + 1])


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

    def at(self, i: int, j: int) -> complex:
        if j > i:
            raise TriangleIndexError(f"t-index {j} exceeds x-index {i}")
        return complex(self.values[i, j])

    @classmethod
    def from_function(cls, grid: Grid, f) -> "TriangularField":
        x = grid.nodes[:, None]
        t = grid.nodes[None, :]
        vals = np.asarray(f(x, t), dtype=complex) + np.zeros((grid.n_nodes, grid.n_nodes))
        return cls(grid, np.tril(vals))

    @classmethod
    def zeros(cls, grid: Grid) -> "TriangularField":
        n = grid.n_nodes
        return cls(grid, np.zeros((n, n), dtype=complex))

    @classmethod
    def constant(cls, grid: Grid, c) -> "TriangularField":
        n = grid.n_nodes
        return cls(grid, np.tril(np.full((n, n), c, dtype=complex)))

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())
