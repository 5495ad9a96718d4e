"""Forward solutions, the characteristic function and its zeros.

The characteristic function Delta(lambda) = e(pi, lambda) is entire in
lambda; the eigenvalues of the boundary value problem are its zeros counted
with multiplicities. Once the transformation kernel G is built, Delta is the
trapezoid sum of the last row of G against exp(-i lambda t): on the uniform
grid, x_j = j h and pi = N h, so with q = exp(-i lambda h) it is the
polynomial q^N + sum_j w_j G[N, j] q^j, and G's last row is all the zero
search reads (transform.last_row forms it without G for a difference
kernel). DeltaEvaluator takes that row, and optionally the last row on
the grid of half the step, and forms the coefficients w_j G[N, j] once,
with the Richardson combination of the two grids folded in;
char_delta_deriv evaluates Delta and its lambda-derivatives from them by
blocks of the powers q^j, which needs about 2 sqrt(N) exponentials per
lambda.

Being a polynomial, Delta also hands its zeros over directly: sampled at a
stride s it has degree N/s in exp(-i lambda s h), and the eigenvalues of its
companion matrix are candidate zeros for one batched Newton on the real
evaluator. Both the search's tolerances come from the rounding of Delta's
blocked sum, which DeltaEvaluator.rounding bounds: Newton stops where
|Delta| is within that bound, and each end point gets the radius within
which Delta cannot be told from zero, together with the local multiplicity
that radius implies. End points whose discs meet form a group. A converged
singleton of multiplicity 1 is a simple zero; any other group, such as the
pair of a double zero, is counted by the argument principle on a small
square around it, and a zero of multiplicity m is polished by Newton on
the (m-1)-th derivative, where it is simple. The winding number on the
window boundary certifies the result: the multiplicities found must add up
to it, or the search is retried once at stride 1, where the polynomial is
Delta itself.

The inversion fits the same Delta: its residual at the target eigenvalues
is a DeltaEvaluator's, of the series rows for a difference kernel and of
G's last row otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import PI, ROW_BLOCK, TriangularField, march_rows, trapezoid_weights, volterra_apply
from .kernels import NumericalFailure, shifted_rows
from .transform import TransformKernel


class BoundaryNearZeroError(NumericalFailure):
    """|Delta| on a contour dipped below the safety threshold."""

    def __init__(self, point: complex, magnitude: float):
        self.point = point
        self.magnitude = magnitude
        super().__init__(
            f"contour too close to a zero at lambda = {point}: |Delta| = {magnitude:.3e}"
        )


class PhaseTrackingError(NumericalFailure):
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


@dataclass(frozen=True)
class Eigenvalue:
    value: complex
    multiplicity: int
    residual: float
    newton_converged: bool = True


@dataclass(frozen=True)
class SearchStats:
    """How find_spectrum found its zeros, in deterministic counts.

    path is "companion" when the candidates at the chosen stride passed the
    winding certificate and "stride1" when the retry at stride 1 did;
    candidates is the number of companion candidates handed to Newton;
    newton_steps counts Newton steps, each one call of Delta' (a batched
    step moves all candidates at once); phase_refinements counts the
    refinement rounds of every winding number taken, the window's and those
    of the squares around groups.
    """

    path: str
    candidates: int
    newton_steps: int
    phase_refinements: int


@dataclass(frozen=True)
class Spectrum:
    eigenvalues: tuple
    window: SearchWindow
    total_count: int
    stats: SearchStats | None = None            # set by find_spectrum


# --- forward solutions --------------------------------------------------------


def _exponent(grid, lam) -> np.ndarray:
    """lambda x on the nodes: (N+1,) for a scalar lambda, (N+1, K) for K of them."""
    return np.multiply.outer(grid.nodes, np.asarray(lam, dtype=complex))


def eval_e_direct(m: TriangularField, lam) -> np.ndarray:
    """March the Volterra integral equation for e(x, lambda) node by node.

    The trapezoid discretization of
    e(x) = exp(-i lam x) (1 + i int_0^x exp(i lam s) f(s) ds), with
    f(s) = int_0^s m(s, t) e(t) dt, meets node i only through the end
    weights at x_i, with coefficient b = i h^2 M[i,i] / 4, which makes the
    update weakly implicit. Two fixed-point sweeps from e[i-1] resolve it;
    they are linear in e[i], so they are applied in closed form:
    e[i] = (1 + b) a + b^2 e[i-1], where
    a = exp(-i lam x_i) (1 + i h known) + i h p / 2, known is the sum of
    exp(i lam x_k) f(x_k) over the nodes k < i (f(0) = 0, so the end weight
    at s = 0 drops out) and p = h M[i, :i] @ e[:i] less the end weight at
    t = 0, which march_rows yields, one column per lambda. Node i's row of
    e holds exp(-i lam x_i) (1 + b) until the update overwrites it; no
    (N+1) x (N+1) array is formed. lam is a scalar, giving shape (N+1,), or
    a 1-D array of K values, all marched at once, giving shape (N+1, K)
    with one column per lambda.
    """
    h = m.grid.step
    hm_diag = h * np.diagonal(m.values)
    lx = _exponent(m.grid, lam)
    cols = lx[:, None] if lx.ndim == 1 else lx
    phase = np.exp(1j * cols)                      # exp(+i lam x)
    b = 0.25j * h * hm_diag                        # i h^2 M[i,i] / 4
    e = np.exp(-1j * cols) * (1.0 + b)[:, None]    # overwritten node by node
    drive = (1j * h) * e                           # multiplies known
    # multiplies p, as exp(-i lam x) exp(i lam x) = 1
    self_coef = 0.5j * h * (1.0 + b)
    b2 = b * b                                     # multiplies e[i-1]
    half_diag = 0.5 * hm_diag
    e[0] = 1.0
    known = np.zeros_like(e[0])
    for i, p in march_rows(m.values, h, e, lower=False):
        ei = e[i]
        ei += drive[i] * known
        ei += self_coef[i] * p
        ei += b2[i] * e[i - 1]
        p += half_diag[i] * ei                     # h times f(x_i)
        p *= phase[i]
        known += p
    return e[:, 0] if lx.ndim == 1 else e


def eval_z(r: TriangularField, psi: np.ndarray, e_tilde: np.ndarray) -> np.ndarray:
    """z(x, lambda) = integral of r(pi-t, x-t) psi(pi-t) e_tilde(x-t) over [0, x].

    psi = eval_e_direct(reflected_kernel(M), lam)[::-1], the adjoint-type
    solution with psi(pi) = 1, and e_tilde = eval_e_direct(M~, lam), for one
    lambda or with one column per lambda; z has their shape. With
    w(t) = psi(pi - t), the forward solution of the reflected kernel, the
    trapezoid rule gives all columns in one contraction,
    z[i, c] = h sum over k <= i of Rw[i, k] e_tilde[i-k, c] w[k, c],
    where Rw is R = kernels.shifted_factor(r) with its end weights, column 0
    and the diagonal, halved. The sum runs per block of ROW_BLOCK rows over
    the k < i1 the block reads: shifted_rows gathers those rows of R, so R
    is never held whole, and e_tilde[i-k, c] is read through a strided lag
    view of e_tilde, transposed and led by ROW_BLOCK - 1 zeros per column,
    so no field is built per column and the lag tensor is never formed.
    Raises ValueError, before any work, unless psi and e_tilde have
    one shape with r.grid.n_nodes rows.
    """
    n = r.grid.n_nodes
    if psi.shape != e_tilde.shape or psi.shape[:1] != (n,):
        raise ValueError(
            f"psi {psi.shape} and e_tilde {e_tilde.shape} must share one shape with {n} rows"
        )
    w, e = (np.reshape(v, (n, -1)) for v in (psi[::-1], e_tilde))
    rows = np.empty((min(ROW_BLOCK, n), n), dtype=complex)
    lead = ROW_BLOCK - 1
    padded = np.zeros((e.shape[1], lead + n), dtype=e.dtype)
    padded[:, lead:] = e.T                      # padded[c, lead + j] = e_tilde[j, c]
    stride_c, stride_j = padded.strides
    z = np.empty(e.shape, dtype=complex)
    for i0 in range(0, n, ROW_BLOCK):
        i1 = min(i0 + ROW_BLOCK, n)
        # lag[c, i - i0, k] = padded[c, lead + i - k] for i0 <= i < i1 and k < i1,
        # so k runs contiguously; numpy refuses a view reaching outside padded
        lag = np.ndarray((e.shape[1], i1 - i0, i1), padded.dtype, padded,
                         (lead + i0) * stride_j, (stride_c, stride_j, -stride_j))
        rw = shifted_rows(r, i0, i1, rows[: i1 - i0])[:, :i1]
        rw[:, 0] *= 0.5
        np.einsum("ii->i", rw[:, i0:])[...] *= 0.5
        np.einsum("ik,cik,kc->ci", rw, lag, w[:i1], out=z[i0:i1].T)
    z *= r.grid.step
    z[0] = 0.0
    return z.reshape(psi.shape)


def eval_z_decomposed(b, k: TriangularField, lam) -> np.ndarray:
    """z(x, lambda) from its split form B(x) exp(-i lam x) + int K exp(-i lam t).

    lam and the result's shape are as for eval_e_direct.
    """
    ex = np.exp(-1j * _exponent(k.grid, lam))
    # transposed so that B scales the rows of a (N+1, K) ex as well
    return (b.values * ex.T).T + volterra_apply(k.values, ex, k.grid.step)


def eval_e_via_g(g: TransformKernel, lam, order: int = 0) -> np.ndarray:
    """d^b/dlambda^b e(x, lambda) from the transformation-operator representation.

    e^(b)(x) = (-ix)^b exp(-i lam x) + int G(x, t) (-it)^b exp(-i lam t) dt
    over [0, x], with b = order; its last entry is what
    DeltaEvaluator(g.g.values[-1]).deriv(lam, order) returns. lam and the
    result's shape are as for eval_e_direct.
    """
    grid = g.grid
    x = grid.nodes if np.ndim(lam) == 0 else grid.nodes[:, None]
    base = np.power(-1j * x, order) * np.exp(-1j * _exponent(grid, lam))
    return base + volterra_apply(g.g.values, base, grid.step)


def char_delta(g: TransformKernel, lam) -> complex | np.ndarray:
    """Delta(lambda) = e(pi, lambda); accepts a scalar or an array of lambda."""
    return DeltaEvaluator(g.g.values[-1])(lam)


def _weighted_row(row: np.ndarray, stride: int = 1) -> np.ndarray:
    """w_j row[j] on the nodes 0, s, 2s, ..., N of the grid of N = row.size - 1
    intervals on [0, pi], s = stride (a divisor of N), w the trapezoid weights
    of step s h."""
    return trapezoid_weights(row[::stride].size, stride * (PI / (row.size - 1))) * row[::stride]


@functools.lru_cache(maxsize=8)
def _nodes(size: int) -> np.ndarray:
    """The size nodes of the uniform grid on [0, pi], formed once per size and
    read-only, as every caller shares them."""
    x = np.linspace(0.0, PI, size)
    x.flags.writeable = False
    return x


def char_delta_deriv(coef: np.ndarray, lam, order: int = 0):
    """d^m/dlambda^m of the carrier exp(-i lambda pi) plus sum_j coef_j exp(-i lambda x_j).

    x_j are the nodes of the grid of coef.size - 1 intervals on [0, pi];
    DeltaEvaluator forms coef from G's last row, so the sum is Delta^(m).
    It is (-i pi)^m exp(-i lambda pi) + sum_j c_j q^j with q = exp(-i lambda h)
    and c_j = coef_j (-i x_j)^m. Writing j = k b + r with b = ceil(sqrt(n)),
    the sum is the (K, b) matrix of exp(-i lambda x_r) times the (b, n/b)
    coefficient matrix, times the (K, n/b) matrix of exp(-i lambda x_kb)
    elementwise, summed per lambda. Accepts a scalar or an array of lambda.
    """
    x = _nodes(coef.size)
    if order:
        coef = coef * (-1j * x) ** order
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
    return complex(vals[0]) if np.ndim(lam) == 0 else vals


# --- spectrum search ----------------------------------------------------------


# The setting of the zero search, and its default: each edge of a winding
# number's path gets at least INITIAL_EDGE_SAMPLES points (see _rect_boundary).
INITIAL_EDGE_SAMPLES = 32


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
    """Vectorized Delta and its lambda-derivatives from G's last row.

    row is G[N, :] on a grid of N intervals, N + 1 values; Delta is the
    trapezoid sum of it against exp(-i lambda t) plus the carrier. With
    row_fine, the last row on the grid of half the step, both are
    Richardson-extrapolated: the discretizations are second order with
    smooth error expansions, so (4 * fine - coarse) / 3 cancels the h^2
    term for Delta and its derivatives alike. The coefficients are formed
    once, here: the coarse ones sit on the even fine nodes, and the carrier,
    the same on both grids, stays one term. A row_fine of any other length
    raises ValueError. evals and deriv_evals count the lambda points passed
    to Delta and to its derivatives; rounding's points are not counted.

    rounding(lam, order) is mu, a bound on the rounding error of
    deriv(lam, order), to first order in the unit roundoff u = eps / 2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    3.1 and 3.6). char_delta_deriv forms each term c_j (-i x_j)^m q^j from
    the coefficient, the power (-i x_j)^m (at most 4m u) and the
    exponentials of -i lambda x_r and -i lambda x_kb, x_r + x_kb = x_j. Each
    exponential is correct to 4 u for its argument, and the rounding of the
    nodes and of lambda x shifts the two arguments by at most 4 |lambda| x_j u
    together, at most 4 pi |lambda| u. A complex product costs at most 3 u
    (sqrt(2) gamma_2): one forms c_j, one applies the block's exponential.
    The inner sums of b terms and the sum over the B blocks cost at most
    (b + 2) u and (B - 1) u, and adding the carrier, formed the same way,
    costs u. So every term carries a relative error of at most
    (b + B + 4m + 16 + 4 pi |lambda|) u, and b + B <= 2 sqrt(N + 1) + 2;
    mu is that factor times the sum of the term moduli,
    sum_j |c_j| x_j^m exp(Im lambda x_j) + pi^m exp(Im lambda pi). That sum is
    one more blocked sum: char_delta_deriv of |coef| at i Im lambda, whose
    terms all share the phase (-i)^m.
    """

    def __init__(self, row: np.ndarray, row_fine: np.ndarray | None = None):
        self.row, self.coef = row, _weighted_row(row)
        if row_fine is not None:
            if row_fine.size != 2 * row.size - 1:
                raise ValueError(f"fine grid must halve the coarse step: {row_fine.size - 1} "
                                 f"intervals, not {2 * row.size - 2}")
            coef = 4.0 * _weighted_row(row_fine)
            coef[::2] -= self.coef
            self.coef = coef / 3.0
        self.evals = 0
        self.deriv_evals = 0

    def __call__(self, lam):
        self.evals += np.size(lam)
        return char_delta_deriv(self.coef, lam, 0)

    def deriv(self, lam, order: int = 1):
        self.deriv_evals += np.size(lam)
        return char_delta_deriv(self.coef, lam, order)

    def rounding(self, lam, order: int = 0):
        factor = 2 * math.sqrt(self.coef.size) + 4 * order + 18 + 4 * PI * np.abs(lam)
        return factor * 2.0**-53 * np.abs(char_delta_deriv(np.abs(self.coef), 1j * lam.imag, order))


def _check_guard(pts, vals, guard: float | None) -> None:
    """Raise BoundaryNearZeroError if some |Delta| on the path is below guard."""
    if guard is None:
        return
    mags = np.abs(vals)
    k = int(np.argmin(mags))
    if mags[k] < guard:
        raise BoundaryNearZeroError(complex(pts[k]), float(mags[k]))


def _winding_number(f, rect, edge_samples: int, guard: float | None, vals=None):
    """Winding number of Delta along the rectangle boundary by phase tracking.

    Segments with phase increments >= pi/2 are bisected, in at most
    MAX_PHASE_REFINEMENTS rounds, until all increments are safe; the summed
    phase must land within 0.1 * 2pi of an integer. Every sampling, the
    first and each refinement, is checked against the guard, so a path
    through a zero raises BoundaryNearZeroError rather than failing to
    settle; without a guard, a sample where Delta is exactly zero raises
    PhaseTrackingError. The path starts with edge_samples points per edge
    at least, and vals, if given, are f at those samples. Returns the
    winding number and the number of refinement rounds taken.
    """
    pts = _rect_boundary(rect, edge_samples)
    if vals is None:
        vals = f(pts)
    _check_guard(pts, vals, guard)
    rounds = 0
    while True:
        if not vals.all():       # no phase to track through an exact zero
            raise PhaseTrackingError(f"Delta is exactly zero on rectangle {rect}")
        bad = np.abs(np.angle(vals[1:] / vals[:-1])) >= 0.5 * np.pi
        if not bad.any():
            break
        if rounds == MAX_PHASE_REFINEMENTS:
            raise PhaseTrackingError(
                f"phase increments on rectangle {rect} did not settle below pi/2"
            )
        rounds += 1
        idx = np.nonzero(bad)[0]
        mid_pts = 0.5 * (pts[idx] + pts[idx + 1])
        mid_vals = f(mid_pts)
        _check_guard(mid_pts, mid_vals, guard)
        pts = np.insert(pts, idx + 1, mid_pts)
        vals = np.insert(vals, idx + 1, mid_vals)
    total = float(np.angle(vals[1:] / vals[:-1]).sum())
    wind = total / (2.0 * np.pi)
    nearest = round(wind)
    if abs(wind - nearest) >= 0.1:
        raise PhaseTrackingError(
            f"winding estimate {wind:.3f} not near an integer on rectangle {rect}"
        )
    return int(nearest), rounds


# The candidate polynomial samples G(pi, t) exp(-i lambda t) at step s h with
# s h R <= CANDIDATE_PHASE_STEP, R the largest |Re lambda| searched: the
# carrier turns at most that many radians per step.
CANDIDATE_PHASE_STEP = 1.3
# Candidates are taken from the window grown by this margin on every side,
# so that a zero just inside an edge is not lost to the coarse polynomial's
# error.
CANDIDATE_MARGIN = 0.5
# A zero is kept if |Delta| there is at most RESIDUAL_RTOL times the largest
# |Delta| on the window boundary, or within its rounding bound, and the
# boundary is refused as passing too close to a zero where |Delta| falls to
# BOUNDARY_RTOL times that maximum.
RESIDUAL_RTOL = 1e-10
BOUNDARY_RTOL = 1e-9
# Bisection rounds a winding number may take to bring every phase increment
# on its path below pi/2; each round at most doubles the samples it bisects.
MAX_PHASE_REFINEMENTS = 14
# Newton's method stops once |Delta| is within its rounding bound, or after
# NEWTON_MAX_ITER steps. An end point that has not converged by then is
# counted on its square.
NEWTON_MAX_ITER = 60
# Half-width, in rounding radii, of the square that counts the zeros of a
# group of Newton end points. Near an m-fold zero |Delta| grows like the
# m-th power of the distance, so on the square's edge it stands about
# CLUSTER_BOX^m times above the rounding bound; the square shrinks to half
# the distance to the nearest end point of another group.
CLUSTER_BOX = 10.0


def _inside(z, rect):
    """Whether z, a number or an array, lies in the closed rectangle rect."""
    return (rect[0] <= z.real) & (z.real <= rect[1]) & (rect[2] <= z.imag) & (z.imag <= rect[3])


def _companion_candidates(row: np.ndarray, rect, stride1: bool = False) -> np.ndarray:
    """Zeros inside rect of Delta sampled at a stride s, as lambda values.

    row is G's last row on a grid of N intervals. On the nodes 0, s, 2s,
    ..., N with the trapezoid weights of step s h, Delta is a polynomial of
    degree N/s in Q = exp(-i lambda s h), and its constant term w_0 G[N, 0]
    is zero. np.roots takes its roots from the
    companion matrix; lambda = i log(Q) / (s h) maps them back. s is 1 with
    stride1, where the polynomial is Delta itself, and otherwise the largest
    divisor of N with s h R <= CANDIDATE_PHASE_STEP, R the largest
    |Re lambda| in rect: the eigensolve costs O((N/s)^3), and each zero of
    the coarser sum still lies within Newton's reach of a zero of Delta.
    """
    n, h = row.size - 1, PI / (row.size - 1)
    reach = max(abs(rect[0]), abs(rect[1]))
    s = 1 if stride1 else max((d for d in range(2, n + 1)
                               if n % d == 0 and d * h * reach <= CANDIDATE_PHASE_STEP), default=1)
    coef = _weighted_row(row, s)
    coef[-1] += 1.0                                  # the carrier Q^(N/s)
    q = np.roots(coef[::-1])
    lam = 1j * np.log(q[q != 0]) / (s * h)
    return lam[_inside(lam, rect)]


def _batched_newton(f, z, order: int = 0):
    """Newton's method on the order-th derivative of f, from every start in z.

    A zero of f of multiplicity m is a simple zero of its (m-1)-th
    derivative, where Newton converges quadratically and as far as the
    rounding allows. Each step makes one call of f (or f.deriv at order),
    one of f.rounding at order and one of f.deriv at order + 1 for all
    entries still moving. An entry whose value is within its rounding bound
    has converged and freezes where it is; the step it would have taken is
    returned as its last step (0 for every other entry). At a simple zero
    that step polishes the root below the bound, but at a multiple zero,
    whose derivative is lost in rounding too, it can throw the entry
    several radii away (see _rounding_radius), so only the caller, once it
    knows the multiplicity, takes it. An entry also freezes once it turns
    non-finite, and every entry after NEWTON_MAX_ITER steps. Returns
    (roots, converged, last steps, steps).
    """
    z = np.array(z, dtype=complex)
    converged, last = np.zeros(z.shape, dtype=bool), np.zeros_like(z)
    idx, steps = np.arange(z.size), 0
    with np.errstate(all="ignore"):
        while idx.size and steps < NEWTON_MAX_ITER:
            top = f(z[idx]) if order == 0 else f.deriv(z[idx], order)
            done = np.abs(top) <= f.rounding(z[idx], order)
            step = top / f.deriv(z[idx], order + 1)
            steps += 1
            converged[idx[done]], last[idx[done]] = True, step[done]
            z[idx[~done]] -= step[~done]
            idx = idx[~done & np.isfinite(z[idx])]
    return z, converged, last, steps


def _rounding_radius(f, z):
    """Radius within which Delta cannot be told from zero, and the multiplicity it implies.

    Near z, Delta differs from its Taylor term Delta^(m)(z) (w - z)^m / m!
    by less than its rounding bound mu(z) = f.rounding(z) only within
    (m! mu / |Delta^(m)(z)|)^(1/m). At an m-fold zero the derivatives below
    m are lost in rounding and this is least for that m, so the radius is
    the least over m = 1, 2, 3 and the m that attains it estimates the
    multiplicity. Returns both, one entry per entry of z.
    """
    mu = f.rounding(z)
    with np.errstate(all="ignore"):
        radii = [(math.factorial(m) * mu / np.abs(f.deriv(z, m))) ** (1 / m) for m in (1, 2, 3)]
    return np.min(radii, axis=0), np.argmin(radii, axis=0) + 1


def _box_distance(z, c):
    """Distance in the max norm of Re and Im from z, a number or an array, to c."""
    return np.maximum(np.abs(z.real - c.real), np.abs(z.imag - c.imag))


def _groups(z: np.ndarray, radius: np.ndarray) -> list:
    """Index arrays of the chains of points of z whose discs of the given radii meet in turn."""
    near = np.abs(z[:, None] - z) < radius[:, None] + radius
    label = np.arange(z.size)
    while True:                      # each point takes the least label of its neighbours
        least = np.where(near, label, z.size).min(axis=1, initial=z.size)
        if np.array_equal(least, label):
            # np.unique would import numpy.ma, 1.3 MB of a spectrum process
            return [np.flatnonzero(label == k) for k in sorted(set(label.tolist()))]
        label = least


def _companion_roots(f: DeltaEvaluator, rect0, wind0, stride1, edge_samples, residual_tol):
    """Zeros in rect0 from the companion candidates, and whether they are certified.

    The candidates of the window grown by CANDIDATE_MARGIN go through one
    batched Newton on f, and each finite end point, converged or not, gets
    its rounding radius and multiplicity estimate (see _rounding_radius);
    end points whose discs meet form a group (see _groups). A converged
    singleton of estimate 1 is a simple zero, and takes its last Newton
    step. Any other group inside rect0
    (the pair of a double zero, or the end point of a zero Newton could not
    settle on) takes its multiplicity from the winding number on a square
    around its mean, CLUSTER_BOX times its largest radius in half-width,
    that holds no end point of another group and whose half-width is at
    most the half-perimeter of the window, taken with edge_samples points
    per edge at least. The square needs no guard: the phase refinement
    resolves a zero near its edge or fails. A group that winds 0, or whose
    square cannot be drawn or counted, is dropped; one of multiplicity m is
    polished from its mean by Newton on Delta^(m-1). It reports the last
    iterate, or the mean if the polish left the square, and is flagged
    unconverged unless the polish converged inside it. Zeros inside rect0
    with a residual within residual_tol, or within the rounding bound
    where that is larger, are certified if their multiplicities sum to the
    winding number wind0 of the window. Returns
    (eigenvalues, certified, the means of the groups inside rect0 that
    could not be counted, did not converge or failed the residual test,
    (candidates, Newton steps, phase refinement rounds)).
    """
    re0, re1, im0, im1 = rect0
    grow = CANDIDATE_MARGIN
    cand = _companion_candidates(f.row, (re0 - grow, re1 + grow, im0 - grow, im1 + grow), stride1)
    z, converged, last, steps = _batched_newton(f, cand)
    z, converged, last = (v[np.isfinite(z)] for v in (z, converged, last))
    radius, mult_est = _rounding_radius(f, z)
    found, rounds = [], 0            # found: (root, multiplicity, converged)
    unresolved = []                  # means of groups not counted or not converged
    for members in _groups(z, radius):
        k, mean = members[0], z[members].mean()
        if members.size == 1 and converged[k] and mult_est[k] == 1:
            found.append((z[k] - last[k], 1, True))
            continue
        if not _inside(mean, rect0):
            continue
        half = min(CLUSTER_BOX * radius[members].max(), re1 - re0 + im1 - im0,
                   0.5 * _box_distance(np.delete(z, members), mean).min(initial=np.inf))
        if _box_distance(z[members], mean).max() >= half:
            unresolved.append(mean)
            continue
        box = (mean.real - half, mean.real + half, mean.imag - half, mean.imag + half)
        try:
            mult, more = _winding_number(f, box, edge_samples, None)
        except PhaseTrackingError:
            unresolved.append(mean)
            continue
        rounds += more
        if mult:
            (root,), (ok,), _, more = _batched_newton(f, [mean], mult - 1)
            steps += more
            held = _box_distance(root, mean) < half
            found.append((root if held else mean, mult, bool(held and ok)))
    found = [v for v in found if _inside(v[0], rect0)]
    roots = np.array([v[0] for v in found], dtype=complex)
    resid, tol = np.abs(f(roots)), np.maximum(residual_tol, f.rounding(roots))
    eigs = [Eigenvalue(complex(r), m, float(e), ok)
            for (r, m, ok), e, t in zip(found, resid, tol) if e <= t]
    unresolved += [r for (r, _, ok), e, t in zip(found, resid, tol) if not (ok and e <= t)]
    certified = sum(ev.multiplicity for ev in eigs) == wind0
    return eigs, certified, unresolved, (cand.size, steps, rounds)


def find_spectrum(f: DeltaEvaluator, window: SearchWindow, *,
                  initial_edge_samples: int = INITIAL_EDGE_SAMPLES) -> Spectrum:
    """Locate all zeros of Delta inside the window, counted with multiplicity.

    f is the DeltaEvaluator of G's last row. The argument principle
    certifies the result: the winding number of Delta on the window
    boundary is the total multiplicity inside, and the zeros that the
    companion candidates lead to (see _companion_roots) must add up to it.
    If they do not at the chosen stride, the search is retried once at
    stride 1, where the candidate polynomial is Delta itself. If that fails
    too, PhaseTrackingError names the window, the multiplicity the stride-1
    pass found, and the groups it could not count or polish. Every winding
    number's path starts with
    initial_edge_samples points per edge at least.
    Spectrum.stats records which pass answered.
    """
    if not isinstance(f, DeltaEvaluator):
        raise TypeError(f"find_spectrum needs a DeltaEvaluator, got {type(f).__name__}")
    rect0 = (window.re_min, window.re_max, window.im_min, window.im_max)

    # boundary-magnitude guard, relative to the outer boundary scale; the
    # winding number reuses these samples
    vals0 = f(_rect_boundary(rect0, initial_edge_samples))
    boundary_max = float(np.abs(vals0).max())
    guard = BOUNDARY_RTOL * boundary_max
    wind0, refinements = _winding_number(f, rect0, initial_edge_samples, guard, vals=vals0)
    residual_tol = RESIDUAL_RTOL * boundary_max

    counts = np.array([0, 0, refinements])          # candidates, Newton steps, rounds
    for path, stride1 in (("companion", False), ("stride1", True)):
        found, certified, unresolved, more = _companion_roots(
            f, rect0, wind0, stride1, initial_edge_samples, residual_tol)
        counts += more
        if certified:
            break
    else:
        means = ", ".join(f"{complex(z):.6g}" for z in unresolved) or "none"
        raise PhaseTrackingError(
            f"the zeros found in window {rect0} add up to multiplicity "
            f"{sum(ev.multiplicity for ev in found)}, not to its winding number {wind0}; "
            f"groups of Newton end points not counted or not converged: {means}"
        )
    found.sort(key=lambda ev: (ev.value.real, ev.value.imag))
    return Spectrum(eigenvalues=tuple(found), window=window, total_count=wind0,
                    stats=SearchStats(path, *(int(c) for c in counts)))
