"""Independent oracles used by the tests.

For a constant kernel M = c the problem reduces to the second-order ODE
i y'' - lambda y' + c y = 0 with y(0) = 1, y'(0) = -i lambda, solved in
closed form through the roots of i mu^2 - lambda mu + c = 0. These
routines never touch the solver's quadrature or Picard machinery.

integrate_nodes is the plain composite trapezoid on a range of grid nodes,
the reference rule for the package's vectorized Volterra products, and
char_delta_direct is the tail-row sum of Delta with one exponential per node,
the reference for the package's blocked polynomial evaluation. The
remaining oracles do use the package: picard_series_g sums the Picard
series term by term, the reference for the row march of compute_g,
hand_blocked_march and hand_blocked_e_march are the two marches with the
blocked loop each wrote out before both iterated quadrature.march_rows,
the bitwise references for that driver,
fd_jacobian differentiates the inversion residual by forward (or central)
differences, the reference for its analytic Jacobian, newton_polished
moves target roots onto the zeros of a given Delta, eval_z_columns builds
z one column at a time, each column one Volterra product of its own
full-size field, the reference for the blocked contraction of spectral.eval_z,
find_spectrum_reflected searches the spectrum of the reflected kernel,
which must match the direct one, and find_spectrum_subdivision finds the
zeros of Delta by recursive subdivision of the window, the reference for
the package's companion-matrix search.

Four helpers are here because only the tests need them.
eval_psi is the adjoint-type solution psi, the reflected kernel's forward
march read backwards, which verify and the inversion spell out inline.
transform_kernel_from_files reads back the G files that
serialize.transform_kernel_to_files writes. delta_of hands G's last row
(and a fine G's) to DeltaEvaluator, as the spectrum command does, and
spectrum_of searches the zeros of that plain Delta.
"""

from __future__ import annotations

import json
import math

import numpy as np

from idospec.kernels import shifted_factor
from idospec.quadrature import ROW_BLOCK, TriangularField, lag_view, trapezoid_weights, volterra_apply
from idospec.serialize import field_from_csv
from idospec.spectral import (
    BOUNDARY_RTOL,
    INITIAL_EDGE_SAMPLES,
    NEWTON_MAX_ITER,
    RESIDUAL_RTOL,
    BoundaryNearZeroError,
    DeltaEvaluator,
    Eigenvalue,
    PhaseTrackingError,
    SearchWindow,
    Spectrum,
    _rect_boundary,
    _exponent,
    _winding_number,
    eval_e_direct,
    find_spectrum,
)
from idospec.transform import (
    PicardConvergenceError,
    TransformKernel,
    compute_g,
    picard_g1,
    picard_step,
    reflected_kernel,
)

PI = np.pi


def integrate_nodes(samples, grid, i_from: int, i_to: int):
    """Composite trapezoid of node samples over [nodes[i_from], nodes[i_to]].

    Exact for affine integrands; returns exactly 0 for an empty range.
    """
    samples = np.asarray(samples)
    if i_from > i_to:
        raise IndexError(f"i_from={i_from} > i_to={i_to}")
    if i_from < 0 or i_to >= samples.shape[0]:
        raise IndexError(f"index range [{i_from}, {i_to}] out of bounds")
    if i_from == i_to:
        return samples.dtype.type(0)
    seg = samples[i_from : i_to + 1]
    return grid.step * (seg.sum() - 0.5 * (seg[0] + seg[-1]))


def char_delta_direct(g, lam, order: int = 0):
    """Delta^(order)(lambda) with one exponential per node and per lambda.

    Returns the value and the sum of the magnitudes of its terms, the scale
    against which rounding errors are measured.
    """
    grid = g.grid
    x = grid.nodes
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    w = trapezoid_weights(grid.n_nodes, grid.step)
    terms = (w * g.g.values[-1, :] * (-1j * x) ** order) * np.exp(-1j * np.outer(lam, x))
    carrier = (-1j * PI) ** order * np.exp(-1j * lam * PI)
    return carrier + terms.sum(axis=1), np.abs(carrier) + np.abs(terms).sum(axis=1)


def constant_kernel_e(x, lam: complex, c: float = 1.0):
    """Closed-form e(x, lambda) for the constant kernel M = c."""
    lam = complex(lam)
    if c == 0.0:
        return np.exp(-1j * lam * np.asarray(x))
    disc = np.sqrt(lam * lam - 4j * c)
    mu1 = (lam + disc) / 2j
    mu2 = (lam - disc) / 2j
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(mu1 - mu2) < 1e-10:
            a, b = 1.0, -1j * lam - mu1
            return (a + b * np.asarray(x)) * np.exp(mu1 * np.asarray(x))
        a = (-1j * lam - mu2) / (mu1 - mu2)
        b = 1.0 - a
        return a * np.exp(mu1 * np.asarray(x)) + b * np.exp(mu2 * np.asarray(x))


def constant_kernel_delta(lam: complex, c: float = 1.0) -> complex:
    return complex(constant_kernel_e(PI, lam, c))


def oracle_newton_root(z0: complex, c: float = 1.0, tol: float = 1e-13) -> complex:
    """Polish a root of the oracle Delta by finite-difference Newton."""
    z = complex(z0)
    h = 1e-7
    for _ in range(100):
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            return complex(np.nan, np.nan)
        f = constant_kernel_delta(z, c)
        d = (constant_kernel_delta(z + h, c) - constant_kernel_delta(z - h, c)) / (2 * h)
        if d == 0:
            break
        step = f / d
        z -= step
        if abs(step) < tol:
            return z
    return z


def oracle_roots_in_window(re_min, re_max, im_min, im_max, c: float = 1.0,
                           seeds_per_axis: int = 40) -> list:
    """Enumerate oracle roots inside a window by Newton from a seed lattice."""
    roots: list[complex] = []
    res = np.linspace(re_min, re_max, seeds_per_axis)
    ims = np.linspace(im_min, im_max, max(6, seeds_per_axis // 3))
    for re in res:
        for im in ims:
            z = oracle_newton_root(complex(re, im), c)
            if not (re_min < z.real < re_max and im_min < z.imag < im_max):
                continue
            if abs(constant_kernel_delta(z, c)) > 1e-9:
                continue
            if all(abs(z - r) > 1e-6 for r in roots):
                roots.append(z)
    roots.sort(key=lambda z: (z.real, z.imag))
    return roots


def fd_jacobian(residual, params, step: float = 1e-6, central: bool = False) -> np.ndarray:
    """Forward-difference Jacobian of residual(params), column per parameter.

    residual maps a real parameter vector to a (complex) vector; the step
    of parameter k is step * (1 + |params[k]|). With central, the
    differences are central instead.
    """
    params = np.asarray(params, dtype=float)
    base = residual(params)
    jac = np.empty((base.size, params.size), dtype=base.dtype)
    for k in range(params.size):
        h = step * (1.0 + abs(params[k]))
        pert = params.copy()
        pert[k] += h
        if central:
            back = params.copy()
            back[k] -= h
            jac[:, k] = (residual(pert) - residual(back)) / (2.0 * h)
        else:
            jac[:, k] = (residual(pert) - base) / h
    return jac


def newton_polished(spectrum: Spectrum, delta, step: float = 1e-6) -> Spectrum:
    """spectrum with each simple root moved to the zero of delta that Newton finds from it.

    delta maps an array of lambda to Delta values; its derivative is the
    central difference of the given step, which Delta, analytic in lambda,
    allows to about step^2. Newton stops once its step is below
    1e-14 (1 + |lambda|), or after 20 steps.
    """
    z = np.array([ev.value for ev in spectrum.eigenvalues], dtype=complex)
    for _ in range(20):
        shift = delta(z) / ((delta(z + step) - delta(z - step)) / (2.0 * step))
        z -= shift
        if (np.abs(shift) < 1e-14 * (1.0 + np.abs(z))).all():
            break
    eigs = tuple(Eigenvalue(complex(v), 1, float(abs(r)))
                 for v, r in zip(z, np.atleast_1d(delta(z))))
    return Spectrum(eigenvalues=eigs, window=spectrum.window, total_count=spectrum.total_count)


def eval_z_columns(r: TriangularField, psi: np.ndarray, e_tilde: np.ndarray,
                   magnitudes: bool = False) -> np.ndarray:
    """spectral.eval_z one column pair at a time.

    Column c is the Volterra product of the field R[i, k] e_tilde[i-k, c]
    against w = psi[::-1, c], with R = shifted_factor(r); z has psi's shape.
    With magnitudes, every factor is replaced by its modulus, which gives
    h sum over k <= i of |Rw[i, k] e_tilde[i-k, c] w[k, c]| (Rw is R with
    its end weights): the scale the rounding of each entry is bounded by.
    """
    rs = shifted_factor(r)
    w, et = (np.reshape(v, (r.grid.n_nodes, -1)).T for v in (psi[::-1], e_tilde))
    if magnitudes:
        rs, w, et = np.abs(rs), np.abs(w), np.abs(et)
    cols = [volterra_apply(rs * lag_view(ek), wk, r.grid.step) for wk, ek in zip(w, et)]
    return np.stack(cols, axis=-1).reshape(psi.shape)


def eval_psi(m: TriangularField, lam) -> np.ndarray:
    """Adjoint-type solution psi(x, lambda) with psi(pi, lambda) = 1.

    w(x) = psi(pi - x) solves the forward equation of the reflected kernel
    m(pi - t, pi - x), so psi is that forward march read backwards. lam and
    the result's shape are as for eval_e_direct.
    """
    return eval_e_direct(reflected_kernel(m), lam)[::-1]


def transform_kernel_from_files(csv_path, sidecar_path) -> TransformKernel:
    """The TransformKernel that serialize.transform_kernel_to_files wrote."""
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    return TransformKernel(
        g=field_from_csv(csv_path),
        term_norms=np.asarray(meta["term_norms"], dtype=float),
        tol=float(meta["tol"]),
    )


def picard_series_g(m, tol: float | None = None, max_terms: int = 60) -> TransformKernel:
    """G as the sum of the Picard series G_1 + G_2 + ..., the reference for compute_g.

    Sums terms until the latest one drops below tol in sup norm (default
    1e-12 (1 + sup|G_1|)); raises PicardConvergenceError on a term that is
    not finite or after max_terms terms.
    """
    term = picard_g1(m)
    total = term.values.copy()
    norms = [term.sup_norm()]
    if tol is None:
        tol = 1e-12 * (1.0 + norms[0])
    while not norms[-1] < tol:
        if not np.isfinite(norms[-1]) or len(norms) >= max_terms:
            raise PicardConvergenceError(
                f"term {len(norms)} has sup norm {norms[-1]:.3e}, tol {tol:.3e}"
            )
        term = picard_step(m, term, TriangularField.zeros(m.grid))
        total += term.values
        norms.append(term.sup_norm())
    total[:, 0] = 0.0
    return TransformKernel(g=TriangularField(m.grid, np.tril(total)),
                           term_norms=np.array(norms), tol=tol)


# The two marches as each wrote out its own blocked loop, before both came
# to iterate quadrature.march_rows: the references that the driver changes no
# bit of G or e. Code and docstrings are kept as they were.
def hand_blocked_march(mv: np.ndarray, g1: np.ndarray, h: float) -> np.ndarray:
    """Solve the discrete fixed point G = G1 + picard_step(M, G) row by row.

    Both trapezoid sums of the Picard step are causal in rows: inner-table
    row i reads rows <= i of G, and the sum along a diagonal reads
    inner-table rows <= i. Row i meets itself only through the end weights
    at tau = x_i and k = i, so it is explicit:
    G[i, j] = (G1[i, j] + i h (acc[i-j] + partial[j] / 2)) / (1 - i h^2 M[i,i] / 4),
    where partial[j] = h M[i, :i] @ G[:i, j] less the end weight
    h M[i, j] G[j, j] / 2 at tau = x_j, and acc[d] is the sum so far of the
    inner table along diagonal d. Its first entry, in column 0, is zero
    because column 0 of G is, so it needs no half weight. The diagonal of
    G is that of G1, where the step vanishes. This is the step-by-step
    trapezoid method for Volterra equations; it costs about N^3 / 3
    multiply-adds, most of them in one gemm per block of ROW_BLOCK rows.
    h M, the scaled G1 and partial are formed per block, each in a reused
    contiguous buffer of ROW_BLOCK rows, as is the product with the end
    weights: numpy then needs no iterator buffers for them (it allocates
    those for strided or broadcast operands), and the march holds no
    full-size array besides G.
    """
    n = mv.shape[0]
    hm_diag = h * np.diagonal(mv)
    scale = 1.0 / (1.0 - 0.25j * h * hm_diag)
    coef = 1j * h * scale
    half_diag = 0.5 * hm_diag
    ends = 0.5 * np.diagonal(g1)           # G[j, j] / 2, the tau = x_j end weight
    g = np.zeros_like(g1)
    np.einsum("ii->i", g)[...] = np.diagonal(g1)
    acc = np.zeros(n, dtype=complex)
    bufs = np.empty((4, min(ROW_BLOCK, n) * n), dtype=complex)
    for r0 in range(1, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        hm, g1s, part, tmp = (b[: (r1 - r0) * r1].reshape(r1 - r0, r1) for b in bufs)
        hm[...] = mv[r0:r1, :r1]
        hm *= h                            # rows r0 .. r1 - 1 of h M
        np.matmul(hm[:, :r0], g[:r0, :r1], out=part)
        tmp[...] = ends[:r1]
        part -= np.multiply(hm, tmp, out=tmp)
        g1s[...] = g1[r0:r1, :r1]
        tmp[...] = scale[r0:r1, None]
        g1s *= tmp
        for i in range(r0, r1):
            p = part[i - r0, :i]
            p += hm[i - r0, r0:i] @ g[r0:i, :i]
            row = g[i, :i]
            np.multiply(p, 0.5, out=row)
            row += acc[i:0:-1]
            row *= coef[i]
            row += g1s[i - r0, :i]
            row[0] = 0.0
            p += half_diag[i] * row        # inner-table row i
            acc[i:0:-1] += p
    return g


def hand_blocked_e_march(m: TriangularField, lam) -> np.ndarray:
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
    t = 0. As in transform._march, one gemm per block of ROW_BLOCK nodes
    reads every earlier node, and only products within the block run node
    by node. lam is a scalar, giving shape (N+1,), or a 1-D array of K
    values, all marched at once, giving shape (N+1, K) with one column per
    lambda.
    """
    h = m.grid.step
    hm = h * m.values
    lx = _exponent(m.grid, lam)
    cols = lx[:, None] if lx.ndim == 1 else lx
    phase = np.exp(1j * cols)                      # exp(+i lam x)
    b = 0.25j * h * np.diagonal(hm)                # i h^2 M[i,i] / 4
    e = np.exp(-1j * cols) * (1.0 + b)[:, None]    # overwritten node by node
    drive = (1j * h) * e                           # multiplies known
    # multiplies p, as exp(-i lam x) exp(i lam x) = 1
    self_coef = 0.5j * h * (1.0 + b)
    b2 = b * b                                     # multiplies e[i-1]
    half_diag = 0.5 * np.diagonal(hm)
    e[0] = 1.0
    known = np.zeros_like(e[0])
    n = e.shape[0]
    for r0 in range(1, n, ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, n)
        part = hm[r0:r1, :r0] @ e[:r0]
        part -= np.multiply.outer(0.5 * hm[r0:r1, 0], e[0])
        for i in range(r0, r1):
            p = part[i - r0]
            p += hm[i, r0:i] @ e[r0:i]
            ei = e[i]
            ei += drive[i] * known
            ei += self_coef[i] * p
            ei += b2[i] * e[i - 1]
            p += half_diag[i] * ei                 # h times f(x_i)
            p *= phase[i]
            known += p
    return e[:, 0] if lx.ndim == 1 else e



def delta_of(g: TransformKernel, g_fine: TransformKernel | None = None) -> DeltaEvaluator:
    """The DeltaEvaluator of G's last row, extrapolated with g_fine's if given."""
    return DeltaEvaluator(g.g.values[-1], None if g_fine is None else g_fine.g.values[-1])


def spectrum_of(g: TransformKernel, window: SearchWindow, **settings) -> Spectrum:
    """find_spectrum on the plain Delta of g; settings are its keyword arguments."""
    return find_spectrum(delta_of(g), window, **settings)


def find_spectrum_reflected(
    m, window: SearchWindow, **settings,
) -> Spectrum:
    """Spectrum of the reflected kernel; equals that of m up to discretization.

    settings are find_spectrum's keyword arguments.
    """
    return spectrum_of(compute_g(reflected_kernel(m)), window, **settings)


def _split_rect(f, rect, edge_samples, guard):
    """Split the longer side, nudging the cut if it passes too close to a zero."""
    re0, re1, im0, im1 = rect
    vertical = (re1 - re0) >= (im1 - im0)
    for frac in (0.5, 0.46875, 0.53125, 0.4375, 0.5625, 0.40625, 0.59375):
        if vertical:
            cut = re0 + frac * (re1 - re0)
            sub_a, sub_b = (re0, cut, im0, im1), (cut, re1, im0, im1)
        else:
            cut = im0 + frac * (im1 - im0)
            sub_a, sub_b = (re0, re1, im0, cut), (re0, re1, cut, im1)
        try:
            wa = _winding_number(f, sub_a, edge_samples, guard)[0]
            wb = _winding_number(f, sub_b, edge_samples, guard)[0]
            return (sub_a, wa), (sub_b, wb)
        except BoundaryNearZeroError:
            continue
    raise BoundaryNearZeroError(complex(0.5 * (re0 + re1), 0.5 * (im0 + im1)), 0.0)


# The subdivision oracle's own settings: cells narrower than CELL_SIZE are
# not split further, and its Newton stops once a step is below
# NEWTON_TOL (1 + |z|). They are fixed tolerances, independent of the
# rounding bound the package's search derives its stop and radius from.
CELL_SIZE = 1e-3
NEWTON_TOL = 1e-12


def _newton_polish(f, z0: complex, mult: int, cell=None):
    """Newton's method from z0, with the step scaled by the multiplicity mult.

    It stops after NEWTON_MAX_ITER steps, or once a step is below
    NEWTON_TOL (1 + |z|).

    Returns (root, |f(root)|, converged). With a cell (re0, re1, im0, im1)
    the attempt is abandoned, unconverged, as soon as an iterate leaves it.
    """
    z = z0
    for _ in range(NEWTON_MAX_ITER):
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
        if abs(step) < NEWTON_TOL * (1.0 + abs(z)):
            return z, abs(complex(f(np.asarray([z]))[0])), True
    return z, abs(complex(f(np.asarray([z]))[0])), False


def find_spectrum_subdivision(
    f, window: SearchWindow, *, cell_size: float = CELL_SIZE,
    initial_edge_samples: int = INITIAL_EDGE_SAMPLES, max_depth: int = 60,
) -> Spectrum:
    """Zeros of f in the window by recursive subdivision with the argument principle.

    f needs only __call__(lam_array) and deriv(lam). The window's winding
    number is the total multiplicity inside. A cell of winding number 1
    holds exactly one simple zero, so Newton starts from its centre at once;
    a result that converged, never left the cell and has a residual within
    RESIDUAL_RTOL of the largest |f| on the window boundary is that zero,
    and otherwise the cell is split further.
    Cells of higher winding w are bisected down to cell_size (or max_depth
    splits) and polished by Newton modified by w; a leaf whose polish fails
    is kept at its centre, flagged unconverged. The multiplicities found
    must add up to the window's winding number.
    """
    rect0 = (window.re_min, window.re_max, window.im_min, window.im_max)
    vals0 = f(_rect_boundary(rect0, initial_edge_samples))
    boundary_max = float(np.abs(vals0).max())
    guard = BOUNDARY_RTOL * boundary_max
    wind0 = _winding_number(f, rect0, initial_edge_samples, guard, vals=vals0)[0]
    residual_tol = RESIDUAL_RTOL * boundary_max
    found: list[Eigenvalue] = []

    def recurse(rect, wind, depth):
        if wind == 0:
            return
        re0, re1, im0, im1 = rect
        center = complex(0.5 * (re0 + re1), 0.5 * (im0 + im1))
        leaf = max(re1 - re0, im1 - im0) < cell_size or depth >= max_depth
        if wind == 1 and not leaf:
            root, resid, ok = _newton_polish(f, center, 1, cell=rect)
            if ok and resid <= residual_tol:
                found.append(Eigenvalue(value=root, multiplicity=1, residual=resid))
                return
        if leaf:
            root, resid, ok = _newton_polish(f, center, wind)
            margin = 2.0 * cell_size
            inside = (
                re0 - margin <= root.real <= re1 + margin
                and im0 - margin <= root.imag <= im1 + margin
            )
            if not ok or not inside or resid > residual_tol:
                root, ok = (root if inside else center), False
            found.append(
                Eigenvalue(value=root, multiplicity=wind, residual=resid, newton_converged=ok)
            )
            return
        (ra, wa), (rb, wb) = _split_rect(f, rect, initial_edge_samples, guard)
        recurse(ra, wa, depth + 1)
        recurse(rb, wb, depth + 1)

    recurse(rect0, wind0, 0)
    total = sum(ev.multiplicity for ev in found)
    if total != wind0:
        raise PhaseTrackingError(f"located multiplicities sum to {total}, window winding is {wind0}")
    found.sort(key=lambda ev: (ev.value.real, ev.value.imag))
    return Spectrum(eigenvalues=tuple(found), window=window, total_count=total)
