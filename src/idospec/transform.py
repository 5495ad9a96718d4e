"""Transformation-operator kernel G(x,t) by successive approximations.

G is the kernel mapping exp(-i*lambda*x) to the forward solution e(x,lambda):
G = sum of Picard terms G_n, where G_1 is a single line integral of the
kernel M along a shifted diagonal and each G_{n+1} is an iterated integral
of M against G_n. On a uniform grid every integration limit and every
shifted argument is a node, so the whole recursion reduces to trapezoid
sums without interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.fft import fft, ifft, next_fast_len

from .quadrature import Grid, Profile, TriangularField, require_same_grid
from .kernels import compute_B, shifted_factor


class PicardConvergenceError(RuntimeError):
    """The term series failed to drop below tolerance within max_terms."""


@dataclass(frozen=True, eq=False)
class TransformKernel:
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
    # vals[i-j, 0] / 2 where j <= i, zero above the diagonal
    first = np.concatenate([vals[::-1, 0], np.zeros(n - 1, dtype=complex)])
    np.multiply(sliding_window_view(first, n)[::-1], 0.5, out=half)
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


def compute_g(
    m: TriangularField,
    tol: float | None = None,
    max_terms: int = 60,
) -> TransformKernel:
    """Sum the Picard series until the latest term drops below tol in sup norm.

    The exact series converges absolutely and uniformly for continuous
    kernels; non-convergence here signals a discretization or configuration
    problem and raises PicardConvergenceError, as does a term whose sup norm
    is not finite (a kernel carrying NaN or overflowing).
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    if tol is not None and not tol > 0:
        raise ValueError("tol must be positive")
    term = picard_g1(m)
    total = term.values.copy()
    norms = [term.sup_norm()]
    if tol is None:
        tol = 1e-12 * (1.0 + norms[0])
    n_terms = 1
    while not norms[-1] < tol:
        if not np.isfinite(norms[-1]):
            raise PicardConvergenceError(f"term {n_terms} has sup norm {norms[-1]}")
        if n_terms >= max_terms:
            raise PicardConvergenceError(
                f"term sup norm {norms[-1]:.3e} still >= tol {tol:.3e} "
                f"after {max_terms} terms"
            )
        term = picard_step(m, term)
        total += term.values
        norms.append(term.sup_norm())
        n_terms += 1

    total[:, 0] = 0.0  # boundary identity G(x, 0) = 0, kept exact
    g = TriangularField(m.grid, np.tril(total))
    return TransformKernel(g=g, term_norms=np.array(norms), iterations=n_terms, tol=tol)


def reflected_kernel(m: TriangularField) -> TriangularField:
    """Field (x,t) -> m(pi - t, pi - x); an involution on the triangle."""
    vals = m.values[::-1, ::-1].T.copy()
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
    the second forward solution; r is the convolution factor. With
    R[i, k] = r(pi - t_k, x_i - t_k), R2[i, s] = R[i, i-s] and the sheared
    kernels S1[k, d] = k1[k, k-d], S2[k, d] = k2[k, k-d], every sum below is
    a trapezoid in the summation index, and K collects three terms:

    - k1 at shifted argument x-t+tau: K[i, i-d] += trapezoid over k in
      [d, i] of R[i, k] S1[k, d], i.e. _inner_table(R, S1, h)[i, d];
    - k2 at t+xi: K[i, i-d] += _inner_table(R2, S2, h)[i, d];
    - their bilinear convolution: K[i, j] += h * sum over 0 < k < i of
      R[i, k] C_k[j], where C_k[j] is the trapezoid over tau of
      k1[k, tau] k2[i-k, j-tau]. The plain sums over tau are one FFT
      convolution per row i; the trapezoid end weights in tau are two
      sheared products (against the diagonals of k1 and k2) and two plain
      ones (against column 0 of k1 and k2). The term is zero on the
      diagonal j = i, where the tau range is empty.

    No Python loop runs over pairs of grid nodes: the only loop is over
    rows i, one vector-matrix product and one inverse FFT each.
    """
    require_same_grid(k1.grid, k2.grid, r.grid)
    grid = r.grid
    m, h = grid.n_nodes, grid.step
    k1v, k2v = k1.values, k2.values
    h2 = h * h

    idx = np.arange(m)
    lag = idx[:, None] - idx   # i - k; negative indices land on zeros of the factor

    def lagged(x, v):
        """x[i, k] * v[i - k] below the diagonal, zero on and above it."""
        out = v[lag]
        out *= x
        np.einsum("ii->i", out)[...] = 0.0
        return out

    rmat = shifted_factor(r)
    rmat2 = _shear(rmat)
    s1, s2 = _shear(k1v), _shear(k2v)
    d1, d2 = np.diagonal(k1v), np.diagonal(k2v)

    # terms 1 and 2, and the sheared end weights of term 3, indexed [i, d]
    acc = _inner_table(rmat, s1, h)
    acc += _inner_table(rmat2, s2, h)
    tmp = lagged(rmat, d2)               # R[i, k] k2(x_i - t_k, x_i - t_k)
    ends = tmp @ s1
    tmp *= k1v[:, 0]                     # k = d is the column-0 case, below
    ends -= tmp
    ends += lagged(rmat2, d1) @ s2
    ends[:, 0] = 0.0
    ends *= 0.5 * h2
    acc -= ends
    del tmp, ends, s1, s2
    kout = _unshear(acc)
    del acc

    # plain end weights of term 3, indexed [i, j]
    plain = lagged(rmat2, k1v[:, 0]) @ k2v
    tmp = lagged(rmat, k2v[:, 0])
    plain += tmp @ k1v
    tmp *= d1                            # k = j is the diagonal case, above
    plain -= tmp
    del tmp
    plain *= -0.5 * h2
    kout += plain
    del plain

    # plain sums of term 3: rows of k1 and k2 vanish past the diagonal, so
    # each convolution has degree <= i < m and a length >= m cannot wrap
    size = next_fast_len(m)
    fa = fft(k1v, size, axis=1)
    fb = fft(k2v, size, axis=1)
    prod = np.empty((m - 2, size), dtype=complex)
    for i in range(2, m):
        p = np.multiply(fa[1:i], fb[i - 1 : 0 : -1], out=prod[: i - 1])
        spec = rmat[i, 1:i] @ p
        spec *= h2
        kout[i, 1:i] += ifft(spec)[1:i]

    kout[:, 0] = 0.0
    b = compute_B(r)
    return b, TriangularField(grid, kout)
