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

from .quadrature import Grid, Profile, TriangularField, require_same_grid
from .kernels import compute_B


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
    problem and raises PicardConvergenceError.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    term = picard_g1(m)
    if tol is None:
        tol = 1e-12 * (1.0 + term.sup_norm())
    if tol <= 0:
        raise ValueError("tol must be positive")

    total = term.values.copy()
    norms = [term.sup_norm()]
    n_terms = 1
    while norms[-1] >= tol:
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


def assemble_z_kernel(
    k1: TriangularField,
    k2: TriangularField,
    r: TriangularField,
) -> tuple[Profile, TriangularField]:
    """Split z(x, lambda) into B(x) exp(-i*lambda*x) + int K(x,t) exp(-i*lambda*t) dt.

    k1 is the transformation kernel of the reflected solution w, k2 that of
    the second forward solution; r is the convolution factor. K collects
    three contributions: k1 entering at shifted argument x-t+tau, k2 at
    t+xi, and their bilinear convolution.
    """
    require_same_grid(k1.grid, k2.grid, r.grid)
    grid = r.grid
    n = grid.n_intervals
    h = grid.step
    rv, k1v, k2v = r.values, k1.values, k2.values

    kout = np.zeros_like(rv)
    for i in range(1, grid.n_nodes):
        k_all = np.arange(i + 1)
        r_slice = rv[n - k_all, i - k_all]  # r(pi - t_k, x_i - t_k)

        # term 1: u = x - t + tau, t from x-u to x
        for j in range(1, i + 1):
            ks = np.arange(i - j, i + 1)
            f = rv[n - ks, i - ks] * k1v[ks, j - i + ks]
            if ks.size > 1:
                kout[i, j] += h * (f.sum() - 0.5 * (f[0] + f[-1]))

        # term 2: u = t + xi, t from 0 to u
        for j in range(1, i + 1):
            ks = np.arange(0, j + 1)
            f = rv[n - ks, i - ks] * k2v[i - ks, j - ks]
            if ks.size > 1:
                kout[i, j] += h * (f.sum() - 0.5 * (f[0] + f[-1]))

        # term 3: bilinear k1 * k2 contribution; for each t the tau-integral
        # is a finite convolution of k1(t, .) with k2(x-t, .)
        conv_tab = np.zeros((i + 1, i + 1), dtype=complex)
        js = np.arange(1, i + 1)
        for k in range(1, i):
            a = k1v[k, : k + 1]
            b = k2v[i - k, : i - k + 1]
            s = np.convolve(a, b)  # s[u] = sum over tau of a[tau] b[u - tau]
            lo = np.maximum(0, js - (i - k))
            hi = np.minimum(k, js)
            valid = hi > lo
            end = a[lo] * b[js - lo] + a[hi] * b[js - hi]
            conv_tab[k, js[valid]] = h * (s[js[valid]] - 0.5 * end[valid])
        for j in range(1, i + 1):
            f = r_slice * conv_tab[k_all, j]
            kout[i, j] += h * (f.sum() - 0.5 * (f[0] + f[-1]))

    b = compute_B(r)
    return b, TriangularField(grid, np.tril(kout))
