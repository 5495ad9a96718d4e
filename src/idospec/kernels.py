"""Structured kernels M(x,t) = M0(x,t) + sum_j R_j(x,t) P_j(x-t).

The factors R_j and the convolution profiles P_j are stored sampled and
separate, because the inverse solver perturbs the profiles repeatedly and
reassembles the kernel per iterate. M0 or an R_j may be a Profile q, which
stands for the difference kernel q(x - t) by its N + 1 samples; the CLI
samples an analytic constant so. When M0 and every R_j are Profiles, M is
the difference kernel of kernel_samples' Profile, and no field is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import (
    Grid,
    Profile,
    TriangularField,
    lag_view,
    require_same_grid,
    volterra_apply,
    zero_upper,
)

MAX_COMPONENTS = 8


class ComponentCountError(ValueError):
    """More convolution components than the supported bound."""


class NumericalFailure(RuntimeError):
    """A computation that did not converge, or whose numbers are not finite.

    The base of every such error the package raises; the CLI reports each
    as exit 3.
    """


class WeightVanishesError(ValueError):
    """The weight B(x) vanishes somewhere on (0, pi], or is not finite there."""


@dataclass(frozen=True, eq=False)
class KernelComponent:
    """One convolution component: factor r(x,t) and profile p(x-t)."""

    r: TriangularField | Profile
    p: Profile

    def __post_init__(self):
        require_same_grid(self.r.grid, self.p.grid)


@dataclass(frozen=True, eq=False)
class StructuredKernel:
    m0: TriangularField | Profile
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


def shifted_rows(r: TriangularField | Profile, i0: int, i1: int, out: np.ndarray) -> np.ndarray:
    """Rows i0 .. i1 - 1 of shifted_factor(r), columns 0 .. i1 - 1, into out.

    out has i1 - i0 rows and at least i1 columns; entry k of row i is
    r.values[N - k, i - k], at flat index N (N + 1) + i - k (N + 2) of the
    C-ordered samples, so one strided copy reads every column but the last.
    For k > i that index falls on r's upper triangle, which is zero. Column
    N would read before the first sample; it is zero but for R[N, N].
    A Profile r, rho(x - t), fills row i with rho(pi - x_i) = rho[N - i]
    up to its diagonal, the same values its lifted field (as_field) gives.
    """
    if isinstance(r, Profile):
        block = out[:, :i1]
        block[...] = 0.0
        np.copyto(block, r.values[::-1][i0:i1, None], where=np.tri(i1 - i0, i1, i0, dtype=bool))
        return out
    n = r.grid.n_intervals
    vals = np.ascontiguousarray(r.values)
    s, k1 = vals.itemsize, min(i1, n)
    out[:, :k1] = np.ndarray((i1 - i0, k1), vals.dtype, vals, (n * (n + 1) + i0) * s, (s, -(n + 2) * s))
    if i1 > n:
        out[:, n] = 0.0
        out[-1, n] = vals[0, 0]
    return out


def shifted_factor(r: TriangularField) -> np.ndarray:
    """Lower-triangular matrix R[i, k] = r(pi - t_k, x_i - t_k), zero for k > i.

    The factor r enters the weight B and the function z(x, lambda) at this
    shifted argument; with it both are Volterra products. It is filled by
    shifted_rows, so the result is the only full-size array.
    """
    n = r.grid.n_nodes
    return shifted_rows(r, 0, n, np.empty((n, n), dtype=r.values.dtype))


def _summed(sk: StructuredKernel, read) -> np.ndarray:
    """read(R_1) read(P_1) + read(M0), then each further read(R_j) read(P_j)
    added in place, read(f) giving the samples of the part f.

    Finite factors whose products overflow give inf or NaN without a warning.
    """
    # each product is a fresh array: the first takes M0 in, so M0 is not copied
    products = (read(c.r) * read(c.p) for c in sk.components)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = next(products, None)
        vals = read(sk.m0).copy() if vals is None else np.add(vals, read(sk.m0), out=vals)
        for prod in products:
            vals += prod
    return vals


def assemble_kernel(sk: StructuredKernel) -> TriangularField:
    """Sample M = M0 + sum_j R_j * P_j(x - t) on the triangle.

    A Profile M0 or R_j is read at x - t (lag_view), as each P_j is. Finite
    factors whose products overflow give inf or NaN samples without a
    warning; compute_g refuses such an M.
    """
    return TriangularField(sk.grid, zero_upper(_summed(
        sk, lambda f: lag_view(f.values) if isinstance(f, Profile) else f.values)))


def kernel_samples(sk: StructuredKernel) -> Profile | TriangularField:
    """M as the Profile p = m0 + sum_j r_j P_j when M0 and every R_j are
    Profiles, else assemble_kernel(sk).

    Such an M is the difference kernel p(x - t), and p, formed with no
    field, is bitwise column 0 of the M assemble_kernel forms: the parts
    are added in its order.
    """
    if not all(isinstance(f, Profile) for f in (sk.m0, *(c.r for c in sk.components))):
        return assemble_kernel(sk)
    return Profile(sk.grid, _summed(sk, lambda f: f.values))


def compute_B(r: TriangularField | Profile) -> Profile:
    """Weight B(x) = integral over [0, x] of r(pi - t, x - t) dt.

    A Profile r stands for rho(x - t), whose integrand rho(pi - x) does not
    depend on t: B(x) = x rho(pi - x), formed with no field. Samples that
    overflow give inf or NaN without a warning, as the field's do.
    """
    grid = r.grid
    if isinstance(r, Profile):
        with np.errstate(over="ignore", invalid="ignore"):
            return Profile(grid, grid.nodes * r.values[::-1])
    ones = np.ones(grid.n_nodes, dtype=complex)
    return Profile(grid, volterra_apply(shifted_factor(r), ones, grid.step))


def check_B_nonvanishing(b: Profile) -> bool:
    """True iff |B(x_i)| > 1e-8 max|B| at every node except x = 0 (where B(0) = 0).

    A weight that is zero everywhere, r = 0, fails at every node.
    """
    vals = b.values[1:]
    mags = np.abs(vals)
    tol = 1e-8 * mags.max()
    if not (mags > tol).all():
        return False
    # a sign change of an essentially real weight forces a zero between nodes
    if np.abs(vals.imag).max() <= tol:
        re = vals.real
        if np.any(re[:-1] * re[1:] < 0.0):
            return False
    return True


# --- analytic families for tests and configs ---------------------------------

# The coeffs of each analytic family, keyed by what it samples, as the
# docstrings below spell them out: (count, row) makes coeffs a list of count
# entries (of any number when count is None). An entry is a number when row
# is None, and else a list of len(row) numbers, each at least its bound in row
# where that is not None: a polynomial's exponents, as x = t = 0 is a node.
COEFF_FORMATS = {
    "field": {"constant": (1, None), "polynomial": (None, (None, 0, 0)), "trig": (None, (None,) * 3)},
    "profile": {"constant": (1, None), "polynomial": (None, None), "trig": (None, (None,) * 3)},
}


def field_from_family(grid: Grid, family: str, coeffs) -> TriangularField:
    """Sample a two-variable analytic family on the triangle.

    constant:   coeffs [c]
    polynomial: coeffs [[a, i, j], ...] meaning sum a * x^i * t^j, i and j >= 0
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
