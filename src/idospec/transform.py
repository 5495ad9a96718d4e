"""Transformation-operator kernel G(x,t), solved by a row march.

G is the kernel mapping exp(-i*lambda*x) to the forward solution e(x,lambda).
It solves G = G1 + T(G), where G1 is a single line integral of the kernel M
along a shifted diagonal and T, the Picard step, an iterated integral of M
against G; the successive approximations are the partial sums of the series
G1 + T(G1) + T(T(G1)) + ... On a uniform grid every integration limit and
every shifted argument is a node, so both reduce to trapezoid sums without
interpolation. T is causal in the rows of the grid, so compute_g solves the
discrete equation in one march down the rows and certifies the result with
one more Picard step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.fft import fft, ifft, next_fast_len

from .quadrature import Grid, Profile, TriangularField, require_same_grid
from .kernels import _shift_matrix, compute_B, shifted_factor


class PicardConvergenceError(RuntimeError):
    """G did not settle below tolerance within max_terms terms, or was not finite."""


@dataclass(frozen=True, eq=False)
class TransformKernel:
    """G with the record of its build (see compute_g).

    term_norms[0] is the sup norm of the march and each later entry that of
    one Picard update; iterations is their number and tol the threshold the
    last one fell below.
    """

    g: TriangularField
    term_norms: np.ndarray = field(repr=False)
    iterations: int
    tol: float

    @property
    def grid(self) -> Grid:
        return self.g.grid


def _diagonal_columns(buf: np.ndarray, n: int) -> np.ndarray:
    """(n, n) writable view of a flat buffer with row stride n + 1.

    With an n x n C-ordered field stored from offset n - 1 of buf,
    view[i, n-1-d] is field[i, i-d]: diagonal offset d becomes view column
    n-1-d, whose rows i < d fall on the buffer's first n - 1 elements or on
    the field's upper triangle. Distinct view entries address distinct
    elements, so results can be written through the view.
    """
    s = buf.itemsize
    return as_strided(buf, shape=(n, n), strides=((n + 1) * s, s), writeable=True)


def _cumtrapz_along_diagonals(vals: np.ndarray, h: float) -> np.ndarray:
    """out[i, j] = trapezoid over k of vals[k, k-(i-j)] for k = i-j .. i.

    This is the discrete form of integrating a field along the line
    t - x = const, which is how both G_1 and the outer integral of the
    Picard step read their integrand. out[i, i-d] depends only on the
    diagonal at offset d, so one cumulative sum down the columns of a
    sheared copy integrates every diagonal at once:
    out[i, j] = h * (C[i, j] - vals[i, j] / 2 - vals[i-j, 0] / 2), where C is
    the running sum along the diagonal up to (i, j). The zeros above the
    diagonal of vals lead each running sum, so they must be exact zeros;
    the result is zero there too, and its column 0 is exactly zero.
    """
    n = vals.shape[0]
    src = np.zeros(n * n + n - 1, dtype=complex)
    src[n - 1 :] = vals.ravel()
    buf = np.zeros_like(src)
    np.cumsum(_diagonal_columns(src, n), axis=0, out=_diagonal_columns(buf, n))
    out = buf[n - 1 :].reshape(n, n)
    half = src[n - 1 :].reshape(n, n)   # reused as scratch from here on
    half *= 0.5
    out -= half
    np.multiply(_shift_matrix(vals[:, 0]), 0.5, out=half)
    out -= half
    out *= h
    out[:, 0] = 0.0
    return out


def picard_g1(m: TriangularField) -> TriangularField:
    """First term: G_1(x,t) = i * integral over s in [x-t, x] of m(s, t+s-x)."""
    out = _cumtrapz_along_diagonals(m.values, m.grid.step)
    out *= 1j
    return TriangularField(m.grid, out)


def _inner_table(mv: np.ndarray, gv: np.ndarray, h: float) -> np.ndarray:
    """inner[k, c] = trapezoid over tau in [x_c, x_k] of m(x_k, tau) g(tau, x_c).

    Both factors are zero above the diagonal, so the plain sum over tau is
    the matrix product; halving the diagonal of m supplies the end weight at
    tau = x_k, and subtracting m(x_k, x_c) g(x_c, x_c) / 2 the one at
    tau = x_c. The upper triangle of the result is zero by the same
    structure; the diagonal (an empty range) is set to zero.
    """
    scratch = h * mv
    np.einsum("ii->i", scratch)[...] *= 0.5
    inner = scratch @ gv
    np.multiply(mv, (0.5 * h) * np.diagonal(gv), out=scratch)
    inner -= scratch
    np.einsum("ii->i", inner)[...] = 0.0
    return inner


def picard_step(m: TriangularField, g_n: TriangularField) -> TriangularField:
    """Next term: G_{n+1}(x,t) = i * iterated integral of m against G_n."""
    require_same_grid(m.grid, g_n.grid)
    h = m.grid.step
    out = _cumtrapz_along_diagonals(_inner_table(m.values, g_n.values, h), h)
    out *= 1j
    return TriangularField(m.grid, out)


# Rows of G solved per block of the march: one gemm per block reads every
# earlier row, and only products within the block run row by row.
_MARCH_BLOCK = 32


def _march(mv: np.ndarray, g1: np.ndarray, h: float) -> np.ndarray:
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
    multiply-adds, most of them in one gemm per block of _MARCH_BLOCK rows.
    """
    n = mv.shape[0]
    hm = h * mv
    scale = 1.0 / (1.0 - 0.25j * h * np.diagonal(hm))
    g1s = g1 * scale[:, None]
    coef = 1j * h * scale
    half_diag = 0.5 * np.diagonal(hm)
    ends = 0.5 * np.diagonal(g1)           # G[j, j] / 2, the tau = x_j end weight
    g = np.zeros_like(g1)
    np.einsum("ii->i", g)[...] = np.diagonal(g1)
    acc = np.zeros(n, dtype=complex)
    for r0 in range(1, n, _MARCH_BLOCK):
        r1 = min(r0 + _MARCH_BLOCK, n)
        part = hm[r0:r1, :r0] @ g[:r0, :r1]
        part -= hm[r0:r1, :r1] * ends[:r1]
        for i in range(r0, r1):
            p = part[i - r0, :i]
            p += hm[i, r0:i] @ g[r0:i, :i]
            row = g[i, :i]
            np.multiply(p, 0.5, out=row)
            row += acc[i:0:-1]
            row *= coef[i]
            row += g1s[i, :i]
            row[0] = 0.0
            p += half_diag[i] * row        # inner-table row i
            acc[i:0:-1] += p
    return g


def compute_g(
    m: TriangularField,
    tol: float | None = None,
    max_terms: int = 60,
) -> TransformKernel:
    """Solve for G by the row march and certify it with Picard steps.

    The march (see _march) solves the discrete fixed point G = G1 + T(G),
    T the Picard step, to rounding. The iterates G_{k+1} = G1 + T(G_k)
    start from G_0 = the march and stop once an update drops below tol in
    sup norm; from G_0 = 0 they would be the partial sums of the Picard
    series. term_norms[0] is the sup norm of the march and each later entry
    that of one update, so on a solved march iterations is 2 and
    term_norms[1] is the residual of the discrete equation. The default tol
    is 1e-12 (1 + sup|G1|). An update whose sup norm is not finite (a
    kernel carrying NaN or overflowing), or a budget of max_terms spent
    before an update drops below tol, raises PicardConvergenceError.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if tol is not None and not tol > 0:
        raise ValueError("tol must be positive")
    g1 = picard_g1(m)
    if tol is None:
        tol = 1e-12 * (1.0 + g1.sup_norm())
    total = _march(m.values, g1.values, m.grid.step)
    norms = [float(np.abs(total).max())]
    n_terms = 1
    while not norms[-1] < tol:
        if not np.isfinite(norms[-1]):
            raise PicardConvergenceError(f"term {n_terms} has sup norm {norms[-1]}")
        if n_terms >= max_terms:
            raise PicardConvergenceError(
                f"term sup norm {norms[-1]:.3e} still >= tol {tol:.3e} "
                f"after {max_terms} terms"
            )
        nxt = picard_step(m, TriangularField(m.grid, total)).values
        nxt += g1.values
        norms.append(float(np.abs(nxt - total).max()))
        total = nxt
        n_terms += 1

    total[:, 0] = 0.0  # boundary identity G(x, 0) = 0, kept exact
    g = TriangularField(m.grid, np.tril(total))
    return TransformKernel(g=g, term_norms=np.array(norms), iterations=n_terms, tol=tol)


def reflected_kernel(m: TriangularField) -> TriangularField:
    """Field (x,t) -> m(pi - t, pi - x); an involution on the triangle.

    A field the reflection leaves unchanged (equal values, as for
    M0 + R P(x - t) with M0 and R invariant, e.g. R = 1 and M0 = 0) is
    returned itself, so callers can test `reflected_kernel(m) is m` and
    reuse what they computed for m instead of solving the adjoint problem
    again.
    """
    vals = m.values[::-1, ::-1].T
    if np.array_equal(vals, m.values):
        return m
    return TriangularField(m.grid, np.tril(vals))


def _shear(vals: np.ndarray) -> np.ndarray:
    """out[i, d] = vals[i, i-d] for d <= i and zero for d > i.

    Diagonal offset d of a lower-triangular field becomes column d, so a
    product against the sheared field integrates along the lines
    x - t = const. vals must be zero above the diagonal.
    """
    m = vals.shape[0]
    buf = np.zeros(m * m + m - 1, dtype=complex)
    buf[m - 1 :] = vals.ravel()
    return np.ascontiguousarray(_diagonal_columns(buf, m)[:, ::-1])


def _unshear(sheared: np.ndarray) -> np.ndarray:
    """Inverse of _shear: out[i, i-d] = sheared[i, d]; sheared must vanish for d > i."""
    m = sheared.shape[0]
    buf = np.zeros(m * m + m - 1, dtype=complex)
    _diagonal_columns(buf, m)[:, ::-1] = sheared
    return buf[m - 1 :].reshape(m, m)


def assemble_z_kernel(
    k1: TriangularField,
    k2: TriangularField,
    r: TriangularField,
) -> tuple[Profile, TriangularField]:
    """Split z(x, lambda) into B(x) exp(-i*lambda*x) + int K(x,t) exp(-i*lambda*t) dt.

    k1 is the transformation kernel of the reflected solution w, k2 that of
    the second forward solution; r is the convolution factor. Both k1 and
    k2 must vanish at t = 0 (column 0 exactly zero), as compute_g's G does;
    other input raises ValueError. With R[i, k] = r(pi - t_k, x_i - t_k),
    R2[i, s] = R[i, i-s] and the sheared kernels S1[k, d] = k1[k, k-d],
    S2[k, d] = k2[k, k-d], every sum below is a trapezoid in the summation
    index, and K collects three terms:

    - k1 at shifted argument x-t+tau: K[i, i-d] += trapezoid over k in
      [d, i] of R[i, k] S1[k, d], i.e. _inner_table(R, S1, h)[i, d];
    - k2 at t+xi: K[i, i-d] += _inner_table(R2, S2, h)[i, d];
    - their bilinear convolution: K[i, j] += h * sum over 0 < k < i of
      R[i, k] C_k[j], where C_k[j] is the trapezoid over tau of
      k1[k, tau] k2[i-k, j-tau]. Each end of the tau range falls on the
      diagonal of k1 or k2 or on column 0, which is zero, so halving the
      diagonals of k1 and k2 supplies every end weight and the trapezoid
      is a plain convolution: one FFT product per row i. The term is zero
      on the diagonal j = i, where the tau range is empty.

    No Python loop runs over pairs of grid nodes: the only loop is over
    rows i, one vector-matrix product and one inverse FFT each.
    """
    require_same_grid(k1.grid, k2.grid, r.grid)
    if np.any(k1.values[:, 0]) or np.any(k2.values[:, 0]):
        raise ValueError("k1 and k2 must vanish at t = 0: column 0 is not exactly zero")
    grid = r.grid
    m, h = grid.n_nodes, grid.step

    # terms 1 and 2, indexed [i, d]
    rmat = shifted_factor(r)
    acc = _inner_table(rmat, _shear(k1.values), h)
    acc += _inner_table(_shear(rmat), _shear(k2.values), h)
    kout = _unshear(acc)
    del acc

    # term 3: rows of k1 and k2 vanish past the diagonal, so each
    # convolution has degree <= i < m and a length >= m cannot wrap
    size = next_fast_len(m)
    fa, fb = (
        fft(k.values - 0.5 * np.diag(np.diagonal(k.values)), size, axis=1) for k in (k1, k2)
    )
    h2 = h * h
    prod = np.empty((m - 2, size), dtype=complex)
    for i in range(2, m):
        p = np.multiply(fa[1:i], fb[i - 1 : 0 : -1], out=prod[: i - 1])
        spec = rmat[i, 1:i] @ p
        spec *= h2
        kout[i, 1:i] += ifft(spec)[1:i]

    kout[:, 0] = 0.0
    b = compute_B(r)
    return b, TriangularField(grid, kout)

