"""Forward solutions, the characteristic function and its zeros.

The characteristic function Delta(lambda) = e(pi, lambda) is entire in
lambda; the eigenvalues of the boundary value problem are its zeros counted
with multiplicities. Once the transformation kernel G is built, Delta costs
one weighted sum per lambda, which makes argument-principle subdivision
plus Newton polishing the natural search strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (
    TriangularField,
    require_same_grid,
    trapezoid_weights,
    volterra_apply,
)
from .kernels import _shift_matrix, shifted_factor
from .transform import TransformKernel, reflected_kernel


class BoundaryNearZeroError(RuntimeError):
    """|Delta| on a contour dipped below the safety threshold."""

    def __init__(self, point: complex, magnitude: float):
        self.point = point
        self.magnitude = magnitude
        super().__init__(
            f"|Delta({point})| = {magnitude:.3e} too close to zero on the contour"
        )


class PhaseTrackingError(RuntimeError):
    """Contour phase increments could not be refined below pi/2."""


@dataclass(frozen=True)
class SearchWindow:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not np.isfinite(bounds).all():
            raise ValueError(f"search window bounds must be finite, got {bounds}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("degenerate search window")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min


@dataclass(frozen=True)
class Eigenvalue:
    value: complex
    multiplicity: int
    residual: float
    newton_converged: bool = True


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple
    window: SearchWindow
    total_count: int

    def values(self) -> np.ndarray:
        return np.array([ev.value for ev in self.eigenvalues])


# --- forward solutions --------------------------------------------------------


def eval_e_direct(m: TriangularField, lam: complex) -> np.ndarray:
    """March the Volterra integral equation for e(x, lambda) node by node.

    The trapezoid endpoint at the current node makes the update weakly
    implicit; two fixed-point sweeps per node resolve it (the self-term
    carries an O(h^2) coefficient).
    """
    grid = m.grid
    n = grid.n_nodes
    h = grid.step
    x = grid.nodes
    mv = m.values

    ex = np.exp(-1j * lam * x)       # exp(-i lam x_i)
    phase = np.exp(1j * lam * x)     # exp(+i lam x_t)

    e = np.empty(n, dtype=complex)
    f = np.zeros(n, dtype=complex)   # f[k] = integral of m(x_k, .) e(.) over [0, x_k]
    e[0] = 1.0
    for i in range(1, n):
        guess = e[i - 1]
        row = mv[i, : i + 1]
        g_known = phase[:i] * f[:i]
        base = g_known.sum() - 0.5 * g_known[0]
        for _ in range(2):
            e[i] = guess
            fi = h * (np.dot(row, e[: i + 1]) - 0.5 * (row[0] * e[0] + row[i] * e[i]))
            s = ex[i] * h * (base + 0.5 * phase[i] * fi)
            guess = ex[i] + 1j * s
        e[i] = guess
        f[i] = h * (np.dot(row, e[: i + 1]) - 0.5 * (row[0] * e[0] + row[i] * e[i]))
    return e


def eval_psi(m: TriangularField, lam: complex) -> np.ndarray:
    """Adjoint-type solution psi(x, lambda) with psi(pi, lambda) = 1.

    w(x) = psi(pi - x) solves the forward equation of the reflected kernel
    m(pi - t, pi - x), so psi is that forward march read backwards.
    """
    return eval_e_direct(reflected_kernel(m), lam)[::-1]


def eval_z(
    r: TriangularField,
    m: TriangularField,
    m_tilde: TriangularField,
    lam: complex,
) -> np.ndarray:
    """z(x, lambda) = integral of r(pi-t, x-t) w(t) e_tilde(x-t) over [0, x].

    w(t) = psi(pi - t, lambda) is the forward solution of the reflected
    kernel, so z is one Volterra product of R[i, k] e_tilde(x_i - t_k)
    against w.
    """
    require_same_grid(r.grid, m.grid, m_tilde.grid)
    w = eval_e_direct(reflected_kernel(m), lam)
    et = eval_e_direct(m_tilde, lam)
    return volterra_apply(shifted_factor(r) * _shift_matrix(et), w, r.grid.step)


def eval_z_decomposed(b, k: TriangularField, lam: complex) -> np.ndarray:
    """z(x, lambda) from its split form B(x) exp(-i lam x) + int K exp(-i lam t)."""
    grid = k.grid
    ex = np.exp(-1j * lam * grid.nodes)
    return b.values * ex + volterra_apply(k.values, ex, grid.step)


def eval_e_via_g(g: TransformKernel, lam: complex) -> np.ndarray:
    """e(x, lambda) from the transformation-operator representation."""
    grid = g.grid
    ex = np.exp(-1j * lam * grid.nodes)
    return ex + volterra_apply(g.g.values, ex, grid.step)


def char_delta(g: TransformKernel, lam) -> complex | np.ndarray:
    """Delta(lambda) = e(pi, lambda); accepts a scalar or an array of lambda."""
    return char_delta_deriv(g, lam, order=0)


def char_delta_deriv(g: TransformKernel, lam, order: int = 0):
    """d^m/dlambda^m Delta(lambda) via the weighted tail-row quadrature."""
    grid = g.grid
    x = grid.nodes
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    w = trapezoid_weights(grid.n_nodes, grid.step)
    row = w * g.g.values[-1, :] * (-1j * x) ** order
    ex = np.exp(-1j * np.outer(lam_arr, x))            # (K, n)
    vals = (-1j * np.pi) ** order * np.exp(-1j * lam_arr * np.pi) + ex @ row
    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return complex(vals[0])
    return vals


# --- spectrum search ----------------------------------------------------------


@dataclass(frozen=True)
class SpectrumOptions:
    cell_size: float = 1e-3                    # bisection floor for winding >= 2
    residual_tol: float | None = None          # absolute; default set from boundary scale
    boundary_rel_tol: float = 1e-9             # |Delta| guard relative to boundary max
    initial_edge_samples: int = 32             # per-edge minimum; see _rect_boundary
    max_phase_refinements: int = 14
    newton_max_iter: int = 60
    newton_tol: float = 1e-12
    max_depth: int = 60


def _rect_boundary(rect, min_per_edge):
    """Closed counterclockwise path along the rectangle boundary.

    Each edge gets at least min_per_edge points and at least four per unit of
    length, so the carrier exp(-i lambda pi) of Delta turns at most pi/4
    between neighbours however long the edge is.
    """
    re0, re1, im0, im1 = rect
    corners = (complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1))
    edges = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = max(min_per_edge, math.ceil(4.0 * abs(b - a)))
        edges.append(a + np.linspace(0.0, 1.0, n, endpoint=False) * (b - a))
    pts = np.concatenate(edges)
    return np.concatenate([pts, pts[:1]])


class DeltaEvaluator:
    """Vectorized Delta and Delta' from a transformation kernel.

    With a second kernel g_fine on the grid of half the step, both are
    Richardson-extrapolated: the discretizations are second order with
    smooth error expansions, so (4 * fine - coarse) / 3 cancels the h^2
    term for Delta and Delta' alike.
    """

    def __init__(self, g: TransformKernel, g_fine: TransformKernel | None = None):
        if g_fine is not None and g_fine.grid.n_intervals != 2 * g.grid.n_intervals:
            raise ValueError("fine grid must halve the coarse step")
        self.g = g
        self.g_fine = g_fine
        self.evals = 0

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        self.evals += lam.size
        coarse = char_delta_deriv(self.g, lam, order=0)
        if self.g_fine is None:
            return coarse
        return (4.0 * char_delta_deriv(self.g_fine, lam, order=0) - coarse) / 3.0

    def deriv(self, lam):
        lam = np.asarray([lam], dtype=complex)
        coarse = char_delta_deriv(self.g, lam, order=1)
        # numpy and Python complex scalars round division differently in
        # _newton_polish; each branch keeps its scalar type so the roots it
        # finds stay reproducible bit for bit
        if self.g_fine is None:
            return coarse[0]
        return complex(
            (4.0 * char_delta_deriv(self.g_fine, lam, order=1) - coarse)[0] / 3.0
        )


def _winding_number(f, rect, opts: SpectrumOptions, guard: float | None):
    """Winding number of Delta along the rectangle boundary by phase tracking.

    Segments with phase increments >= pi/2 are bisected until all increments
    are safe; the summed phase must land within 0.1 * 2pi of an integer.
    Returns (winding, min |Delta| on the path).
    """
    pts = _rect_boundary(rect, opts.initial_edge_samples)
    vals = f(pts)
    for _ in range(opts.max_phase_refinements):
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(dphi) >= 0.5 * np.pi
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        mid_pts = 0.5 * (pts[idx] + pts[idx + 1])
        mid_vals = f(mid_pts)
        pts = np.insert(pts, idx + 1, mid_pts)
        vals = np.insert(vals, idx + 1, mid_vals)
    else:
        raise PhaseTrackingError(
            f"phase increments on rectangle {rect} did not settle below pi/2"
        )
    min_mag = float(np.abs(vals).min())
    if guard is not None and min_mag < guard:
        k = int(np.argmin(np.abs(vals)))
        raise BoundaryNearZeroError(complex(pts[k]), min_mag)
    total = float(np.angle(vals[1:] / vals[:-1]).sum())
    wind = total / (2.0 * np.pi)
    nearest = round(wind)
    if abs(wind - nearest) >= 0.1:
        raise PhaseTrackingError(
            f"winding estimate {wind:.3f} not near an integer on rectangle {rect}"
        )
    return int(nearest), min_mag


def _split_rect(f, rect, opts, guard):
    """Split the longer side, nudging the cut if it passes too close to a zero."""
    re0, re1, im0, im1 = rect
    vertical = (re1 - re0) >= (im1 - im0)
    for frac in (0.5, 0.46875, 0.53125, 0.4375, 0.5625, 0.40625, 0.59375):
        if vertical:
            cut = re0 + frac * (re1 - re0)
            sub_a = (re0, cut, im0, im1)
            sub_b = (cut, re1, im0, im1)
        else:
            cut = im0 + frac * (im1 - im0)
            sub_a = (re0, re1, im0, cut)
            sub_b = (re0, re1, cut, im1)
        try:
            wa, _ = _winding_number(f, sub_a, opts, guard)
            wb, _ = _winding_number(f, sub_b, opts, guard)
            return (sub_a, wa), (sub_b, wb)
        except BoundaryNearZeroError:
            continue
    raise BoundaryNearZeroError(complex(cut, 0.5 * (im0 + im1)), 0.0)


def _newton_polish(f, z0: complex, mult: int, opts: SpectrumOptions, cell=None):
    """Newton's method from z0, with the step scaled by the multiplicity mult.

    Returns (root, |f(root)|, converged). With a cell (re0, re1, im0, im1)
    the attempt is abandoned, unconverged, as soon as an iterate leaves it.
    """
    z = z0
    for _ in range(opts.newton_max_iter):
        fz = complex(f(np.asarray([z]))[0])
        dz = f.deriv(z)
        if dz == 0:
            break
        step = mult * fz / dz
        z -= step
        if cell is not None and not (
            cell[0] <= z.real <= cell[1] and cell[2] <= z.imag <= cell[3]
        ):
            return z, math.inf, False
        if abs(step) < opts.newton_tol * (1.0 + abs(z)):
            return z, abs(complex(f(np.asarray([z]))[0])), True
    return z, abs(complex(f(np.asarray([z]))[0])), False


def find_spectrum(
    g,
    window: SearchWindow,
    opts: SpectrumOptions = SpectrumOptions(),
) -> Spectrum:
    """Locate all zeros of Delta inside the window, counted with multiplicity.

    Recursive rectangle subdivision by the argument principle. A cell of
    winding number 1 holds exactly one simple zero, so Newton starts from its
    centre at once; a result that converged, never left the cell and has a
    residual within residual_tol is that zero. Otherwise the cell is split
    further. Cells of higher winding w are bisected down to cell_size and
    polished by Newton modified by w, so clusters and multiple roots of
    order w converge quadratically. `g` is either a TransformKernel or any
    evaluator exposing __call__(lam_array) and deriv(lam).
    """
    f = DeltaEvaluator(g) if isinstance(g, TransformKernel) else g
    rect0 = (window.re_min, window.re_max, window.im_min, window.im_max)

    # boundary-magnitude guard, relative to the outer boundary scale
    pts = _rect_boundary(rect0, opts.initial_edge_samples)
    boundary_max = float(np.abs(f(pts)).max())
    guard = opts.boundary_rel_tol * boundary_max
    wind0, _ = _winding_number(f, rect0, opts, guard)
    residual_tol = (
        opts.residual_tol if opts.residual_tol is not None else 1e-10 * boundary_max
    )

    found: list[Eigenvalue] = []

    def recurse(rect, wind, depth):
        if wind == 0:
            return
        re0, re1, im0, im1 = rect
        center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        leaf = max(re1 - re0, im1 - im0) < opts.cell_size or depth >= opts.max_depth
        if wind == 1 and not leaf:
            root, resid, ok = _newton_polish(f, center, 1, opts, cell=rect)
            if ok and resid <= residual_tol:
                found.append(Eigenvalue(value=root, multiplicity=1, residual=resid))
                return
        if leaf:
            root, resid, ok = _newton_polish(f, center, wind, opts)
            margin = 2.0 * opts.cell_size
            inside = (
                re0 - margin <= root.real <= re1 + margin
                and im0 - margin <= root.imag <= im1 + margin
            )
            if not ok or not inside or resid > residual_tol:
                # keep the cell center as a cluster representative
                root, resid, ok = (root if inside else center), resid, False
            found.append(
                Eigenvalue(value=root, multiplicity=wind, residual=resid,
                           newton_converged=ok)
            )
            return
        (ra, wa), (rb, wb) = _split_rect(f, rect, opts, guard)
        recurse(ra, wa, depth + 1)
        recurse(rb, wb, depth + 1)

    recurse(rect0, wind0, 0)

    found.sort(key=lambda ev: (ev.value.real, ev.value.imag))
    total = sum(ev.multiplicity for ev in found)
    if total != wind0:
        raise PhaseTrackingError(
            f"located multiplicities sum to {total}, window winding is {wind0}"
        )
    return Spectrum(eigenvalues=tuple(found), window=window, total_count=total)


def find_spectrum_reflected(
    m: TriangularField,
    window: SearchWindow,
    opts: SpectrumOptions = SpectrumOptions(),
    tol: float | None = None,
) -> Spectrum:
    """Spectrum of the reflected kernel; equals that of m up to discretization."""
    from .transform import compute_g

    g_r = compute_g(reflected_kernel(m), tol=tol)
    return find_spectrum(g_r, window, opts)
