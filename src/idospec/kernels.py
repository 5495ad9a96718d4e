"""Structured kernels M(x,t) = M0(x,t) + sum_j R_j(x,t) P_j(x-t).

The factors R_j and the convolution profiles P_j are stored sampled and
separate, because the inverse solver perturbs the profiles repeatedly and
reassembles the kernel per iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import (
    Grid,
    Profile,
    TriangularField,
    require_same_grid,
    volterra_apply,
)

MAX_COMPONENTS = 8


class ComponentCountError(ValueError):
    """More convolution components than the supported bound."""


class WeightVanishesError(ValueError):
    """The weight B(x) vanishes somewhere on (0, pi]."""


@dataclass(frozen=True, eq=False)
class KernelComponent:
    """One convolution component: factor r(x,t) and profile p(x-t)."""

    r: TriangularField
    p: Profile

    def __post_init__(self):
        require_same_grid(self.r.grid, self.p.grid)


@dataclass(frozen=True, eq=False)
class StructuredKernel:
    m0: TriangularField
    components: tuple

    def __post_init__(self):
        if len(self.components) > MAX_COMPONENTS:
            raise ComponentCountError(
                f"{len(self.components)} components exceeds the bound {MAX_COMPONENTS}"
            )
        require_same_grid(self.m0.grid, *(c.r.grid for c in self.components))
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def grid(self) -> Grid:
        return self.m0.grid

    @property
    def p_count(self) -> int:
        return len(self.components)


def _shift_matrix(v: np.ndarray) -> np.ndarray:
    """Lower-triangular matrix with entry (i, j) = v(x_i - t_j) from node samples v.

    On a uniform grid x_i - t_j is the node x_{i-j}, so no interpolation
    error enters here.
    """
    idx = np.arange(v.shape[0])
    diff = idx[:, None] - idx[None, :]
    return np.tril(v[np.abs(diff)])


def shifted_factor(r: TriangularField) -> np.ndarray:
    """Lower-triangular matrix R[i, k] = r(pi - t_k, x_i - t_k), zero for k > i.

    The factor r enters the weight B and the function z(x, lambda) at this
    shifted argument; with it both are Volterra products. For k > i the
    gather reads r's upper triangle, which is zero.
    """
    n = r.grid.n_intervals
    idx = np.arange(n + 1)
    return r.values[n - idx, idx[:, None] - idx]


def assemble_kernel(sk: StructuredKernel) -> TriangularField:
    """Sample M = M0 + sum_j R_j * P_j(x - t) on the triangle."""
    vals = sk.m0.values.copy()
    for comp in sk.components:
        vals += comp.r.values * _shift_matrix(comp.p.values)
    return TriangularField(sk.grid, np.tril(vals))


def truncate_kernel(sk: StructuredKernel, k: int) -> StructuredKernel:
    """Keep M0 and the first k components."""
    if k < 0 or k > sk.p_count:
        raise ValueError(f"truncation index {k} outside [0, {sk.p_count}]")
    return StructuredKernel(sk.m0, sk.components[:k])


def compute_B(r: TriangularField) -> Profile:
    """Weight B(x) = integral over [0, x] of r(pi - t, x - t) dt."""
    grid = r.grid
    ones = np.ones(grid.n_nodes, dtype=complex)
    return Profile(grid, volterra_apply(shifted_factor(r), ones, grid.step))


def check_B_nonvanishing(b: Profile, tol: float | None = None) -> bool:
    """True iff |B(x_i)| > tol at every node except x = 0 (where B(0) = 0)."""
    vals = b.values[1:]
    mags = np.abs(vals)
    if tol is None:
        tol = 1e-8 * (mags.max() if mags.size else 1.0)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not (mags > tol).all():
        return False
    # a sign change of an essentially real weight forces a zero between nodes
    if mags.size and np.abs(vals.imag).max() <= tol:
        re = vals.real
        if np.any(re[:-1] * re[1:] < 0.0):
            return False
    return True


# --- analytic families for tests and configs ---------------------------------

def field_from_family(grid: Grid, family: str, coeffs) -> TriangularField:
    """Sample a two-variable analytic family on the triangle.

    constant:   coeffs [c]
    polynomial: coeffs [[a, i, j], ...] meaning sum a * x^i * t^j
    trig:       coeffs [[a, b, c], ...] meaning sum a * cos(b*x + c*t)
    """
    if family == "constant":
        (c,) = coeffs
        return TriangularField.constant(grid, c)
    if family == "polynomial":
        return TriangularField.from_function(
            grid, lambda x, t: sum(a * x**i * t**j for a, i, j in coeffs)
        )
    if family == "trig":
        return TriangularField.from_function(
            grid, lambda x, t: sum(a * np.cos(b * x + c * t) for a, b, c in coeffs)
        )
    raise ValueError(f"unknown field family {family!r}")


def profile_from_family(grid: Grid, family: str, coeffs) -> Profile:
    """Sample a one-variable analytic family on the grid.

    constant:   coeffs [c]
    polynomial: coeffs [a0, a1, ...] meaning sum a_k * x^k
    trig:       coeffs [[a, w, phase], ...] meaning sum a * sin(w*x + phase)
    """
    if family == "constant":
        (c,) = coeffs
        return Profile.constant(grid, c)
    if family == "polynomial":
        return Profile.from_function(
            grid, lambda x: sum(a * x**k for k, a in enumerate(coeffs))
        )
    if family == "trig":
        return Profile.from_function(
            grid, lambda x: sum(a * np.sin(w * x + ph) for a, w, ph in coeffs)
        )
    raise ValueError(f"unknown profile family {family!r}")
