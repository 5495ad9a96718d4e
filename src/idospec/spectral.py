"""Forward solutions, the characteristic function and its zeros.

The characteristic function Delta(lambda) = e(pi, lambda) is entire in
lambda; the eigenvalues of the boundary value problem are its zeros counted
with multiplicities. Once the transformation kernel G is built, Delta is the
trapezoid sum of the last row of G against exp(-i lambda t): on the uniform
grid, x_j = j h and pi = N h, so with q = exp(-i lambda h) it is the
polynomial q^N + sum_j w_j G[N, j] q^j. char_delta_deriv evaluates it, and
its lambda-derivatives, by blocks of the powers q^j, which needs about
2 sqrt(N) exponentials per lambda; the Richardson combination of two grids
is folded into the coefficients, so it is one such sum as well.

Being a polynomial, Delta also hands its zeros over directly: sampled at a
stride s it has degree N/s in exp(-i lambda s h), and the eigenvalues of its
companion matrix are candidate zeros for one batched Newton on the real
evaluator. The argument principle certifies the result: the winding number
on the window boundary must equal the number of distinct zeros found. When
it does not, or when an evaluator carries no G, rectangle subdivision by
the argument principle with Newton polishing finds the zeros instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import TriangularField, trapezoid_weights, volterra_apply
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
class SearchStats:
    """How find_spectrum found its zeros, in deterministic counts.

    path is "companion" when the companion candidates passed the winding
    certificate and "subdivision" when the search fell back to it;
    candidates is the number of companion candidates handed to Newton (0
    for an evaluator without G); newton_steps counts Newton steps, each one
    call of Delta' (a batched step moves all candidates at once).
    """

    path: str
    candidates: int
    newton_steps: int


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple
    window: SearchWindow
    total_count: int
    stats: SearchStats | None = None            # set by find_spectrum

    def values(self) -> np.ndarray:
        return np.array([ev.value for ev in self.eigenvalues])


# --- forward solutions --------------------------------------------------------


def _exponent(grid, lam) -> np.ndarray:
    """lambda x on the nodes: (N+1,) for a scalar lambda, (N+1, K) for K of them."""
    return np.multiply.outer(grid.nodes, np.asarray(lam, dtype=complex))


def eval_e_direct(m: TriangularField, lam) -> np.ndarray:
    """March the Volterra integral equation for e(x, lambda) node by node.

    The trapezoid endpoint at the current node makes the update weakly
    implicit; two fixed-point sweeps per node resolve it (the self-term
    carries an O(h^2) coefficient). lam is a scalar, giving shape (N+1,),
    or a 1-D array of K values, all marched in the one node loop, giving
    shape (N+1, K) with one column per lambda.
    """
    h = m.grid.step
    mv = m.values
    lx = _exponent(m.grid, lam)
    ex = np.exp(-1j * lx)            # exp(-i lam x_i)
    phase = np.exp(1j * lx)          # exp(+i lam x_t)

    e = np.empty_like(ex)
    e[0] = 1.0
    known = np.zeros_like(ex[0])     # sum of phase * f over the nodes before x_i

    def f(i):                        # integral of m(x_i, .) e(.) over [0, x_i]
        row = mv[i, : i + 1]
        return h * (row @ e[: i + 1] - 0.5 * (row[0] * e[0] + row[i] * e[i]))

    for i in range(1, e.shape[0]):
        guess = e[i - 1]
        for _ in range(2):
            e[i] = guess
            guess = ex[i] + 1j * (ex[i] * h * (known + 0.5 * phase[i] * f(i)))
        e[i] = guess
        known = known + phase[i] * f(i)
    return e


def eval_psi(m: TriangularField, lam) -> np.ndarray:
    """Adjoint-type solution psi(x, lambda) with psi(pi, lambda) = 1.

    w(x) = psi(pi - x) solves the forward equation of the reflected kernel
    m(pi - t, pi - x), so psi is that forward march read backwards. lam and
    the result's shape are as for eval_e_direct.
    """
    return eval_e_direct(reflected_kernel(m), lam)[::-1]


def eval_z(r: TriangularField, psi: np.ndarray, e_tilde: np.ndarray) -> np.ndarray:
    """z(x, lambda) = integral of r(pi-t, x-t) psi(pi-t) e_tilde(x-t) over [0, x].

    psi = eval_psi(M, lam) and e_tilde = eval_e_direct(M~, lam), for one
    lambda or with one column per lambda; z has their shape. Each column is
    one Volterra product of R[i, k] e_tilde(x_i - t_k) against
    w(t) = psi(pi - t), the forward solution of the reflected kernel.
    """
    rs = shifted_factor(r)
    w, et = (np.reshape(v, (r.grid.n_nodes, -1)).T for v in (psi[::-1], e_tilde))
    cols = [volterra_apply(rs * _shift_matrix(ek), wk, r.grid.step) for wk, ek in zip(w, et)]
    return np.stack(cols, axis=-1).reshape(psi.shape)


def eval_z_decomposed(b, k: TriangularField, lam) -> np.ndarray:
    """z(x, lambda) from its split form B(x) exp(-i lam x) + int K exp(-i lam t).

    lam and the result's shape are as for eval_e_direct.
    """
    ex = np.exp(-1j * _exponent(k.grid, lam))
    # transposed so that B scales the rows of a (N+1, K) ex as well
    return (b.values * ex.T).T + volterra_apply(k.values, ex, k.grid.step)


def eval_e_via_g(g: TransformKernel, lam, order=0) -> np.ndarray:
    """d^b/dlambda^b e(x, lambda) from the transformation-operator representation.

    e^(b)(x) = (-ix)^b exp(-i lam x) + int G(x, t) (-it)^b exp(-i lam t) dt
    over [0, x], with b = order; its last entry is what char_delta_deriv
    returns. lam and the result's shape are as for eval_e_direct; order is
    an int, or an array giving each lambda its own order.
    """
    grid = g.grid
    powers = np.power.outer(-1j * grid.nodes, np.broadcast_to(order, np.shape(lam)))
    base = powers * np.exp(-1j * _exponent(grid, lam))
    return base + volterra_apply(g.g.values, base, grid.step)


def char_delta(g: TransformKernel, lam) -> complex | np.ndarray:
    """Delta(lambda) = e(pi, lambda); accepts a scalar or an array of lambda."""
    return char_delta_deriv(g, lam, order=0)


def _weighted_tail_row(g: TransformKernel) -> np.ndarray:
    """w_j G[N, j], the last row of G times the trapezoid weights."""
    grid = g.grid
    return trapezoid_weights(grid.n_nodes, grid.step) * g.g.values[-1, :]


def char_delta_deriv(g: TransformKernel, lam, order: int = 0,
                     g_fine: TransformKernel | None = None):
    """d^m/dlambda^m Delta(lambda) by the weighted tail-row quadrature.

    Delta^(m) = (-i pi)^m exp(-i lambda pi) + sum_j c_j q^j with
    q = exp(-i lambda h) and c_j = w_j G[N, j] (-i x_j)^m. Writing
    j = k b + r with b = ceil(sqrt(n)), the sum is the (K, b) matrix of
    exp(-i lambda x_r) times the (b, n/b) coefficient matrix, times the
    (K, n/b) matrix of exp(-i lambda x_kb) elementwise, summed per lambda.
    With g_fine on the grid of half the step, the result is the Richardson
    combination (4 * fine - coarse) / 3: the coarse coefficients sit on the
    even fine nodes, and the carrier, the same on both grids, stays one
    term. Accepts a scalar or an array of lambda.
    """
    if g_fine is None:
        coef, x = _weighted_tail_row(g), g.grid.nodes
    else:
        coef, x = 4.0 * _weighted_tail_row(g_fine), g_fine.grid.nodes
        coef[::2] -= _weighted_tail_row(g)
        coef /= 3.0
    if order:
        coef *= (-1j * x) ** order
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
    n = x.size
    b = math.isqrt(n - 1) + 1                          # ceil(sqrt(n))
    blocks = -(-n // b)
    padded = np.zeros(blocks * b, dtype=complex)
    padded[:n] = coef
    near = np.exp(-1j * np.outer(lam_arr, x[:b]))     # (K, b)
    far = np.exp(-1j * np.outer(lam_arr, x[::b]))     # (K, blocks)
    tail = ((near @ padded.reshape(blocks, b).T) * far).sum(axis=1)
    vals = (-1j * np.pi) ** order * np.exp(-1j * lam_arr * np.pi) + tail
    if np.ndim(lam) == 0:
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
    term for Delta and Delta' alike. evals and deriv_evals count the lambda
    points passed to Delta and to Delta'.
    """

    def __init__(self, g: TransformKernel, g_fine: TransformKernel | None = None):
        if g_fine is not None and g_fine.grid.n_intervals != 2 * g.grid.n_intervals:
            raise ValueError("fine grid must halve the coarse step")
        self.g = g
        self.g_fine = g_fine
        self.evals = 0
        self.deriv_evals = 0

    def __call__(self, lam):
        self.evals += np.size(lam)
        return char_delta_deriv(self.g, lam, 0, self.g_fine)

    def deriv(self, lam):
        self.deriv_evals += np.size(lam)
        return char_delta_deriv(self.g, lam, 1, self.g_fine)


def _check_guard(pts, vals, guard: float | None) -> None:
    """Raise BoundaryNearZeroError if some |Delta| on the path is below guard."""
    if guard is None:
        return
    mags = np.abs(vals)
    k = int(np.argmin(mags))
    if mags[k] < guard:
        raise BoundaryNearZeroError(complex(pts[k]), float(mags[k]))


def _winding_number(f, rect, opts: SpectrumOptions, guard: float | None, vals=None):
    """Winding number of Delta along the rectangle boundary by phase tracking.

    Segments with phase increments >= pi/2 are bisected until all increments
    are safe; the summed phase must land within 0.1 * 2pi of an integer.
    Every sampling, the first and each refinement, is checked against the
    guard, so a path through a zero raises BoundaryNearZeroError rather than
    failing to settle. vals, if given, are f at the path's initial samples.
    Returns the winding number.
    """
    pts = _rect_boundary(rect, opts.initial_edge_samples)
    if vals is None:
        vals = f(pts)
    _check_guard(pts, vals, guard)
    for _ in range(opts.max_phase_refinements):
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(dphi) >= 0.5 * np.pi
        if not bad.any():
            break
        idx = np.nonzero(bad)[0]
        mid_pts = 0.5 * (pts[idx] + pts[idx + 1])
        mid_vals = f(mid_pts)
        _check_guard(mid_pts, mid_vals, guard)
        pts = np.insert(pts, idx + 1, mid_pts)
        vals = np.insert(vals, idx + 1, mid_vals)
    else:
        raise PhaseTrackingError(
            f"phase increments on rectangle {rect} did not settle below pi/2"
        )
    total = float(np.angle(vals[1:] / vals[:-1]).sum())
    wind = total / (2.0 * np.pi)
    nearest = round(wind)
    if abs(wind - nearest) >= 0.1:
        raise PhaseTrackingError(
            f"winding estimate {wind:.3f} not near an integer on rectangle {rect}"
        )
    return int(nearest)


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
            wa = _winding_number(f, sub_a, opts, guard)
            wb = _winding_number(f, sub_b, opts, guard)
            return (sub_a, wa), (sub_b, wb)
        except BoundaryNearZeroError:
            continue
    raise BoundaryNearZeroError(complex(cut, 0.5 * (im0 + im1)), 0.0)


def _newton_polish(f, z0: complex, mult: int, opts: SpectrumOptions, cell=None):
    """Newton's method from z0, with the step scaled by the multiplicity mult.

    Returns (root, |f(root)|, converged, steps). With a cell (re0, re1, im0,
    im1) the attempt is abandoned, unconverged, as soon as an iterate leaves it.
    """
    z, steps = z0, 0
    for steps in range(1, opts.newton_max_iter + 1):
        fz = complex(f(np.asarray([z]))[0])
        dz = f.deriv(z)
        if dz == 0:
            break
        step = mult * fz / dz
        z -= step
        if cell is not None and not (
            cell[0] <= z.real <= cell[1] and cell[2] <= z.imag <= cell[3]
        ):
            return z, math.inf, False, steps
        if abs(step) < opts.newton_tol * (1.0 + abs(z)):
            return z, abs(complex(f(np.asarray([z]))[0])), True, steps
    return z, abs(complex(f(np.asarray([z]))[0])), False, steps


def _subdivide(f, rect0, wind0, opts, guard, residual_tol):
    """Zeros in rect0, of total multiplicity wind0, by recursive subdivision.

    A cell of winding number 1 holds exactly one simple zero, so Newton
    starts from its centre at once; a result that converged, never left the
    cell and has a residual within residual_tol is that zero. Otherwise the
    cell is split further. Cells of higher winding w are bisected down to
    cell_size and polished by Newton modified by w, so clusters and multiple
    roots of order w converge quadratically. Returns (eigenvalues, Newton
    steps).
    """
    found: list[Eigenvalue] = []
    steps = 0

    def recurse(rect, wind, depth):
        nonlocal steps
        if wind == 0:
            return
        re0, re1, im0, im1 = rect
        center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        leaf = max(re1 - re0, im1 - im0) < opts.cell_size or depth >= opts.max_depth
        if wind == 1 and not leaf:
            root, resid, ok, k = _newton_polish(f, center, 1, opts, cell=rect)
            steps += k
            if ok and resid <= residual_tol:
                found.append(Eigenvalue(value=root, multiplicity=1, residual=resid))
                return
        if leaf:
            root, resid, ok, k = _newton_polish(f, center, wind, opts)
            steps += k
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
    return found, steps


# The candidate polynomial samples G(pi, t) exp(-i lambda t) at step s h with
# s h R <= CANDIDATE_PHASE_STEP, R the largest |Re lambda| searched: the
# carrier turns at most that many radians per step.
CANDIDATE_PHASE_STEP = 1.3
# Candidates are taken from the window grown by this margin on every side,
# so that a zero just inside an edge is not lost to the coarse polynomial's
# error.
CANDIDATE_MARGIN = 0.5


def _companion_candidates(g: TransformKernel, rect) -> np.ndarray:
    """Zeros inside rect of Delta sampled at stride s, as lambda values.

    On the nodes 0, s, 2s, ..., N with the trapezoid weights of step s h,
    Delta is a polynomial of degree N/s in Q = exp(-i lambda s h), and its
    constant term w_0 G[N, 0] is zero. np.roots takes its roots from the
    companion matrix; lambda = i log(Q) / (s h) maps them back. s is the
    largest divisor of N with s h R <= CANDIDATE_PHASE_STEP: the eigensolve
    costs O((N/s)^3), and each zero of the coarser sum still lies within
    Newton's reach of a zero of Delta.
    """
    grid = g.grid
    n, h = grid.n_intervals, grid.step
    re0, re1, im0, im1 = rect
    reach = max(abs(re0), abs(re1))
    s = max((d for d in range(2, n + 1)
             if n % d == 0 and d * h * reach <= CANDIDATE_PHASE_STEP), default=1)
    coef = trapezoid_weights(n // s + 1, s * h) * g.g.values[-1, ::s]
    coef[-1] += 1.0                                  # the carrier Q^(N/s)
    q = np.roots(coef[::-1])
    lam = 1j * np.log(q[q != 0]) / (s * h)
    inside = (re0 <= lam.real) & (lam.real <= re1) & (im0 <= lam.imag) & (lam.imag <= im1)
    return lam[inside]


def _batched_newton(f, z, opts: SpectrumOptions):
    """Newton's method from every start in z at once.

    Each step makes one call of f and one of f.deriv for all entries still
    moving. An entry freezes once its step is below newton_tol (1 + |z|), as
    in _newton_polish, or once it turns non-finite. Returns (roots,
    converged, steps).
    """
    z = np.array(z, dtype=complex)
    moving = np.ones(z.shape, dtype=bool)
    converged = np.zeros(z.shape, dtype=bool)
    steps = 0
    with np.errstate(all="ignore"):
        while moving.any() and steps < opts.newton_max_iter:
            idx = np.flatnonzero(moving)
            step = f(z[idx]) / f.deriv(z[idx])
            steps += 1
            z[idx] -= step
            done = np.abs(step) < opts.newton_tol * (1.0 + np.abs(z[idx]))
            converged[idx[done]] = True
            moving[idx[done | ~np.isfinite(z[idx])]] = False
    return z, converged, steps


def _companion_roots(f: DeltaEvaluator, rect0, wind0, opts, residual_tol):
    """Zeros in rect0 from companion candidates, or None if uncertified.

    The candidates of the window grown by CANDIDATE_MARGIN go through one
    batched Newton on f. Converged roots closer than cell_size are merged;
    those inside rect0 with a residual within residual_tol are verified
    zeros. Their number must equal the winding number wind0 of the
    boundary: distinct zeros whose count matches the total multiplicity are
    all simple, and none is missing. Returns (eigenvalues or None,
    candidates, Newton steps).
    """
    re0, re1, im0, im1 = rect0
    grown = (re0 - CANDIDATE_MARGIN, re1 + CANDIDATE_MARGIN,
             im0 - CANDIDATE_MARGIN, im1 + CANDIDATE_MARGIN)
    cand = _companion_candidates(f.g, grown)
    z, converged, steps = _batched_newton(f, cand, opts)
    if not converged.all():
        return None, cand.size, steps
    roots: list[complex] = []
    for r in sorted(z.tolist(), key=lambda v: (v.real, v.imag)):
        if re0 <= r.real <= re1 and im0 <= r.imag <= im1 and all(
            abs(r - k) >= opts.cell_size for k in roots
        ):
            roots.append(r)
    resid = np.abs(f(np.array(roots, dtype=complex)))
    found = [
        Eigenvalue(value=r, multiplicity=1, residual=float(e))
        for r, e in zip(roots, resid)
        if e <= residual_tol
    ]
    return (found if len(found) == wind0 else None), cand.size, steps


def find_spectrum(
    g,
    window: SearchWindow,
    opts: SpectrumOptions = SpectrumOptions(),
) -> Spectrum:
    """Locate all zeros of Delta inside the window, counted with multiplicity.

    The argument principle certifies the result: the winding number of
    Delta on the window boundary is the total multiplicity inside. With G
    at hand (a TransformKernel or a DeltaEvaluator) the zeros of a strided
    Delta polynomial, from its companion matrix, are polished by one
    batched Newton on the evaluator; when the distinct converged zeros
    inside the window match the winding number they are the spectrum, all
    simple. Otherwise, and for any evaluator exposing only
    __call__(lam_array) and deriv(lam), the window is subdivided by the
    argument principle (see _subdivide). Spectrum.stats records which path
    answered.
    """
    f = DeltaEvaluator(g) if isinstance(g, TransformKernel) else g
    rect0 = (window.re_min, window.re_max, window.im_min, window.im_max)

    # boundary-magnitude guard, relative to the outer boundary scale; the
    # winding number reuses these samples
    vals0 = f(_rect_boundary(rect0, opts.initial_edge_samples))
    boundary_max = float(np.abs(vals0).max())
    guard = opts.boundary_rel_tol * boundary_max
    wind0 = _winding_number(f, rect0, opts, guard, vals=vals0)
    residual_tol = (
        opts.residual_tol if opts.residual_tol is not None else 1e-10 * boundary_max
    )

    found, candidates, steps = None, 0, 0
    if isinstance(f, DeltaEvaluator):
        found, candidates, steps = _companion_roots(f, rect0, wind0, opts, residual_tol)
    path = "companion" if found is not None else "subdivision"
    if found is None:
        found, more = _subdivide(f, rect0, wind0, opts, guard, residual_tol)
        steps += more

    found.sort(key=lambda ev: (ev.value.real, ev.value.imag))
    total = sum(ev.multiplicity for ev in found)
    if total != wind0:
        raise PhaseTrackingError(
            f"located multiplicities sum to {total}, window winding is {wind0}"
        )
    return Spectrum(eigenvalues=tuple(found), window=window, total_count=total,
                    stats=SearchStats(path, candidates, steps))
