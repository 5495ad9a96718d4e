"""Transformation-operator kernel G(x,t), solved by a row march.

G is the kernel mapping exp(-i*lambda*x) to the forward solution e(x,lambda).
It solves G = G1 + T(G), where G1 is a single line integral of the kernel M
along a shifted diagonal and T, the Picard step, an iterated integral of M
against G; the successive approximations are the partial sums of the series
G1 + T(G1) + T(T(G1)) + ... On a uniform grid every integration limit and
every shifted argument is a node, so both reduce to trapezoid sums without
interpolation. T is causal in the rows of the grid, so compute_g solves the
discrete equation directly, in one march down the rows, instead of summing
the series, and certifies the result with a single Picard update. For a
difference kernel M = p(x - t), handed in as the Profile of its samples p,
that march unrolls into a short series whose terms are rank one along the
diagonals of G. series_row sums them for G's last row and decides where
the series stops, once: last_row returns that row, build_g forms all of G
from the factors of the same terms with no march, and series_jacobian
gives the row's exact derivative in the samples of p, for the inversion
to fit on. The Delannoy sums the terms' coefficients are formed from
depend on N alone: a SeriesTables holds them, so the rows one fit sums on
a grid form them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .quadrature import (ROW_BLOCK, Grid, Profile, TriangularField, as_field, march_rows,
                         require_same_grid, volterra_apply, zero_upper)
from .kernels import NumericalFailure, compute_B, shifted_factor


class PicardConvergenceError(NumericalFailure):
    """A G build's last sup norm, of its march or of its one update, was not below tol."""


@dataclass(frozen=True, eq=False)
class TransformKernel:
    """G with the record of its build (see compute_g and build_g).

    term_norms holds the sup norm of the march and, unless that was already
    below tol, that of the one Picard update which certified it; tol is the
    threshold the last norm fell below. A G summed as a series (_series_g)
    ran neither: its term_norms is empty, and tol is the bound its rounding
    guard met.
    """

    g: TriangularField
    term_norms: np.ndarray = field(repr=False)
    tol: float

    @property
    def grid(self) -> Grid:
        return self.g.grid

    @property
    def iterations(self) -> int:
        """Number of recorded norms: 0 (a series), 1 (a march already below tol) or 2."""
        return len(self.term_norms)

    @property
    def build(self) -> str:
        """How G was built: "series" (no norm recorded) or "march"."""
        return "march" if len(self.term_norms) else "series"


def _diagonal_columns(buf: np.ndarray, rows: int, n: int) -> np.ndarray:
    """(rows, n) writable view of a flat buffer with row stride n + 1.

    With a rows x n C-ordered block stored from offset n - 1 of buf,
    view[i, n-1-d] is block[i, i-d]: diagonal offset d becomes view column
    n-1-d, whose rows i < d fall on the buffer's first n - 1 elements or on
    the block's upper triangle. Distinct view entries address distinct
    elements, so results can be written through the view. A view of
    buf[i0:] reads block row i as row i0 + i of a field: view[i, n-1-d] is
    then its entry on diagonal d.
    """
    s = buf.itemsize
    return as_strided(buf, shape=(rows, n), strides=((n + 1) * s, s), writeable=True)


# Rows and columns per block of _lower_product, and rows per block of
# _inner_table and _diagonal_trapezoid.
_PRODUCT_BLOCK = 64


def _diagonal_trapezoid(rows, n: int, scale: complex, into: np.ndarray) -> np.ndarray:
    """Add to into[i, j] scale times the trapezoid over k of f[k, k-(i-j)]
    for k = i-j .. i; return into.

    This is the discrete form of integrating a field along the line
    t - x = const, which is how both G_1 and the outer integral of the
    Picard step read their integrand. f is lower-triangular, n x n, and
    comes a block of _PRODUCT_BLOCK rows at a time, top down:
    rows(i0, i1, work) returns its rows i0 .. i1 - 1 as a C-ordered array,
    and may use work, an array of that shape, as scratch. Each entry of a
    block becomes scale / 2 times its sum with its predecessor on the
    diagonal (for the block's first row, one in the last row of the block
    above, kept in pred), column 0 (the start of each diagonal) zero. One
    cumulative sum down the columns of _diagonal_columns then integrates
    every diagonal of the block at once, its first row added to carry, the
    running sums the block above ended with: each diagonal is summed in the
    order of one cumulative sum down the whole field. The block, +0.0
    above the diagonal and in column 0, is then added to its rows of into;
    only one block of rows exists at a time.
    """
    block = min(_PRODUCT_BLOCK, n)
    buf = np.zeros(n - 1 + block * n, dtype=complex)  # a block from offset n - 1, as sums reads it
    carry = np.zeros(n, dtype=complex)  # diagonal d's running sum in column n-1-d
    pred = np.zeros(n, dtype=complex)
    half = 0.5 * scale
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        flat = buf[n - 1 : n - 1 + (i1 - i0) * n]
        x = flat.reshape(i1 - i0, n)
        f = rows(i0, i1, x)
        fl = f.reshape(-1)
        np.add(fl[n + 1 :], fl[: -n - 1], out=flat[n + 1 :])  # predecessors, n + 1 entries back
        np.add(f[0, 1:], pred[:-1], out=x[0, 1:])
        pred[...] = f[-1]
        x[:, 0] = 0.0
        flat *= half
        # sums reads the diagonals that start below this block from the
        # padding and the block's upper triangle: zeros, as are their carries
        sums = _diagonal_columns(buf[i0:], i1 - i0, n)
        sums[0] += carry
        np.cumsum(sums, axis=0, out=sums)
        carry[...] = sums[-1]
        # the entries above the diagonal that sums skips: the superdiagonal,
        # and the last row, whose upper triangle is the next block's to read
        flat[i0 + 1 :: n + 1] = 0.0
        x[-1, i1:] = 0.0
        into[i0:i1] += x
    return into


def picard_g1(m: TriangularField) -> TriangularField:
    """First term: G_1(x,t) = i * integral over s in [x-t, x] of m(s, t+s-x)."""
    n = m.grid.n_nodes
    mv = m.values
    g1 = np.zeros((n, n), dtype=complex)
    return TriangularField(m.grid, _diagonal_trapezoid(
        lambda i0, i1, work: mv[i0:i1], n, 1j * m.grid.step, g1))


def _lower_product(a: np.ndarray, b: np.ndarray, out: np.ndarray, i0: int = 0) -> np.ndarray:
    """Rows i0 .. i0 + len(a) - 1 of A @ b, for square lower-triangular A and b,
    skipping the zero blocks.

    a holds those rows of A. Over blocks of _PRODUCT_BLOCK rows and columns,
    an output block right of the rows' last diagonal entry is zero and is
    not written (out must hold zeros there); the others sum only
    over the k between the two blocks, where both factors can be nonzero:
    about n^3 / 6 multiply-adds for the whole product instead of n^3, in a
    different order of summation than one dense product.
    """
    rows = a.shape[0]
    for r0 in range(0, rows, _PRODUCT_BLOCK):
        r1 = min(r0 + _PRODUCT_BLOCK, rows)
        k1 = i0 + r1  # these rows of A vanish from column k1 on
        for j0 in range(0, k1, _PRODUCT_BLOCK):
            j1 = min(j0 + _PRODUCT_BLOCK, k1)
            np.matmul(a[r0:r1, j0:k1], b[j0:k1, j0:j1], out=out[r0:r1, j0:j1])
    return out


def _inner_rows(mv: np.ndarray, gv: np.ndarray, h: float, i0: int, i1: int,
                out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Rows i0 .. i1 - 1 (at most _PRODUCT_BLOCK) of _inner_table, into out.

    out and work have that many rows of n entries; out must be zero right
    of column i1 - 1, and stays so.
    """
    a = np.multiply(mv[i0:i1], h, out=work)
    np.einsum("ii->i", a[:, i0:i1])[...] *= 0.5
    rows = _lower_product(a, gv, out, i0)
    ends = (0.5 * h) * np.diagonal(gv)
    np.einsum("ij,j->ij", mv[i0:i1], ends, out=a)  # np.multiply allocates buffers here
    rows -= a
    np.einsum("ii->i", rows[:, i0:i1])[...] = 0.0
    return rows


def _inner_table(mv: np.ndarray, gv: np.ndarray, h: float) -> np.ndarray:
    """inner[k, c] = trapezoid over tau in [x_c, x_k] of m(x_k, tau) g(tau, x_c).

    Both factors are zero above the diagonal, so the plain sum over tau is
    their triangular product (_lower_product); halving the diagonal of m
    supplies the end weight at tau = x_k, and subtracting
    m(x_k, x_c) g(x_c, x_c) / 2 the one at tau = x_c. Both weights are
    applied per block of _PRODUCT_BLOCK rows (_inner_rows). The upper
    triangle of the result is zero by the same structure; the diagonal (an
    empty range) is set to zero.
    """
    n = mv.shape[0]
    out = np.zeros((n, n), dtype=complex)
    work = np.empty((min(_PRODUCT_BLOCK, n), n), dtype=complex)
    for i0 in range(0, n, _PRODUCT_BLOCK):
        i1 = min(i0 + _PRODUCT_BLOCK, n)
        _inner_rows(mv, gv, h, i0, i1, out[i0:i1], work[: i1 - i0])
    return out


def picard_step(m: TriangularField, g_n: TriangularField, into: TriangularField) -> TriangularField:
    """Add the next term, G_{n+1}(x,t) = i * iterated integral of m against
    G_n, to into, and return into.

    One block of _PRODUCT_BLOCK rows of the inner table at a time is
    integrated along the diagonals (_diagonal_trapezoid) and added to its
    rows of into, so besides into the step holds two such blocks and no
    full-size array. The term alone is its sum into a zero field. into
    must not share memory with m or g_n.
    """
    require_same_grid(m.grid, g_n.grid, into.grid)
    n, h = m.grid.n_nodes, m.grid.step
    mv, gv = m.values, g_n.values
    inner = np.zeros((min(_PRODUCT_BLOCK, n), n), dtype=complex)
    _diagonal_trapezoid(lambda i0, i1, work: _inner_rows(mv, gv, h, i0, i1, inner[: i1 - i0], work),
                        n, 1j * h, into.values)
    return into


def _march(mv: np.ndarray, g1: np.ndarray, h: float) -> np.ndarray:
    """Solve the discrete fixed point G = G1 + picard_step(M, G) row by row.

    Both trapezoid sums of the Picard step are causal in rows: inner-table
    row i reads rows <= i of G, and the sum along a diagonal reads
    inner-table rows <= i. Row i meets itself only through the end weights
    at tau = x_i and k = i, so it is explicit:
    G[i, j] = (G1[i, j] + i h (acc[i-j] + partial[j] / 2)) / (1 - i h^2 M[i,i] / 4),
    where partial[j] = h M[i, :i] @ G[:i, j] less the end weight
    h M[i, j] G[j, j] / 2 at tau = x_j, the p that march_rows yields for a
    lower-triangular field, and acc[d] is the sum so far of the inner table
    along diagonal d. Its first entry, in column 0, is zero because column
    0 of G is, so it needs no half weight. The diagonal of G is that of G1,
    where the step vanishes. This is the step-by-step trapezoid method for
    Volterra equations; it costs about N^3 / 3 multiply-adds, most of them
    in march_rows' gemms, and holds no full-size array besides G.
    """
    n = mv.shape[0]
    hm_diag = h * np.diagonal(mv)
    scale = 1.0 / (1.0 - 0.25j * h * hm_diag)
    coef = 1j * h * scale
    half_diag = 0.5 * hm_diag
    g = np.zeros_like(g1)
    # row i holds the scaled G1 until the march adds the step to it
    np.multiply(g1, scale[:, None], out=g, where=np.tri(n, k=-1, dtype=bool))
    np.einsum("ii->i", g)[...] = np.diagonal(g1)
    acc, step = np.zeros((2, n), dtype=complex)
    for i, p in march_rows(mv, h, g, lower=True):
        row, s = g[i, :i], step[:i]
        np.multiply(p, 0.5, out=s)
        s += acc[i:0:-1]
        s *= coef[i]
        row += s
        row[0] = 0.0
        p += half_diag[i] * row            # inner-table row i
        acc[i:0:-1] += p
    return g


def compute_g(m: TriangularField, max_terms: int = 60) -> TransformKernel:
    """Solve for G by the row march and certify it with one Picard update.

    The march (see _march) solves the discrete fixed point G = G1 + T(G),
    T the Picard step, to rounding; the Picard series G1 + T(G1) + ...
    sums to the same G where it converges. term_norms[0] is the sup norm of
    the march. Unless that is already below tol (a zero kernel: 1 term),
    the update G1 + T(G) replaces the march, and the sup norm of the change,
    the residual of the discrete equation, is term_norms[1]: 2 terms. tol is
    1e-12 (1 + sup|G|), G the march: the rounding of the march's residual
    scales with G itself, which for a large M grows far beyond G1. max_terms
    1 allows no update and any larger value exactly one; no command sets it.
    PicardConvergenceError, naming the last norm and tol, is raised unless
    that norm is below tol: a march that is not finite (a kernel carrying
    NaN or overflowing) gets no update. The update is added into G1's own
    buffer, so besides M a build holds two fields, G1 and the march, and
    blocks of rows (see _march and picard_step): 2.7 fields at N = 200, 2.4
    at N = 400.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    # a kernel that overflows shows as a non-finite norm, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        g1 = picard_g1(m)
        g = TriangularField(m.grid, _march(m.values, g1.values, m.grid.step))
        norms = [g.sup_norm()]
        tol = 1e-12 * (1.0 + norms[0])
        if not norms[0] < tol and np.isfinite(norms[0]) and max_terms > 1:
            update = picard_step(m, g, g1)  # G1 + T(G), in G1's buffer
            g.values[...] -= update.values  # the change, negated, in place of the march
            norms.append(g.sup_norm())
            g = update
    if not norms[-1] < tol:
        raise PicardConvergenceError(
            f"{'Picard update' if len(norms) > 1 else 'march'} sup norm {norms[-1]:.3e} "
            f"not below tol {tol:.3e}"
        )

    # the march and picard_step leave +0.0 above the diagonal, so G is
    # already lower-triangular
    g.values[:, 0] = 0.0  # boundary identity G(x, 0) = 0, kept exact
    return TransformKernel(g=g, term_norms=np.array(norms), tol=tol)


# Most terms _series_terms yields. Every row or field its guard admits on
# grids of 40 intervals or more ends within about 55 terms; more are needed
# only on a coarser grid whose step h^2 |p[0]| / 4 nears 1, where the march
# is cheap.
_SERIES_MAX_TERMS = 64


class SeriesTables:
    """The Delannoy sums of _series_terms on a grid of n intervals, formed once each.

    sums(k) is term k's (2, n + 1) array: the sum over m < j of the Delannoy
    number D(m, k), and its cumulative sum over j, j = 0 .. n. They depend
    on n and k alone, not on p, so one object serves every row summed on its
    grid: term k's sums are formed the first time a row reads them, from
    D(m, k), which advances one term at a time, and are kept, read-only. A
    fresh object forms a row's sums as one pass of _series_terms would; an
    InverseProblem holds one per row grid, so a fit forms them once.
    """

    def __init__(self, n: int):
        self.n = n
        self._d = np.ones(n)   # D(m, k) for m = 0 .. n - 1, k the last term formed
        self._sums: list[np.ndarray] = []

    def sums(self, k: int) -> np.ndarray:
        while len(self._sums) <= k:
            d = self._d
            if self._sums:
                # D(m, k + 1) = D(m - 1, k + 1) + D(m, k) + D(m - 1, k), D(0, k + 1) = 1
                d[1:] += d[:-1]
                d[0] = 1.0
                np.cumsum(d, out=d)
            sums = np.zeros((2, self.n + 1))
            np.cumsum(d, out=sums[0, 1:])
            np.cumsum(sums[0], out=sums[1])
            sums.flags.writeable = False
            self._sums.append(sums)
        return self._sums[k]


def _series_terms(p: np.ndarray, h: float, tables: SeriesTables | None = None):
    """Yield the factors (c[:, k], z^k p, sums), k = 0, 1, ..., of G for M[i, j] = p[i - j].

    The row march (see _march) of a difference kernel is Crank-Nicolson in
    t along the lines x - t = const: with H_j[d] = G[d + j, j], q = h p but
    q[0] = h p[0] / 2, and z = (i h / 2) T(q), T(q) the lower-triangular
    Toeplitz matrix of q, it solves
    (1 - z) H_j = (1 + z) H_{j-1} + s_j p, H_0 = 0,
    s_l = i h + (h^3 p[0] / 4) (2 l - 1). Unrolled, H_j is the sum over
    m < j of s_{j-m} (1 + z)^m / (1 - z)^(m+1) p, and the coefficient of
    z^k in that power series is the Delannoy number D(m, k), so
    G[d + j, j] = H_j[d] = sum over k of c[j, k] (z^k p)[d], with
    c[j, k] = sum over m < j of s_{j-m} D(m, k): one Toeplitz product per
    term and two cumulative sums over m per coefficient column. sums, read
    from tables (a SeriesTables of the grid, a fresh one if None), holds
    these two, the sum over m < j of D(m, k) and its cumulative sum over j,
    so c[:, k] = s_first sums[0] + s_slope sums[1], s_l = s_first + s_slope l:
    c depends on p only through p[0]. These are the march's own discrete
    equations, so a sum of the terms agrees with compute_g's G to rounding.
    series_row stops the sum; the generator ends after _SERIES_MAX_TERMS
    terms. c and z^k p are new arrays for each term, except that the first
    z^0 p is p itself; sums is the table's own read-only array. Tables for
    a grid of another size raise ValueError before the first term.
    """
    n = p.size - 1
    if tables is not None and tables.n != n:
        raise ValueError(f"series tables for {tables.n} intervals, p for {n}")
    q = h * p
    q[0] *= 0.5
    tables = SeriesTables(n) if tables is None else tables  # after q, as its d was
    s_first, s_slope = 1j * h - 0.25 * h**3 * p[0], 0.5 * h**3 * p[0]
    v = p                                   # z^k p
    for k in range(_SERIES_MAX_TERMS):
        sums = tables.sums(k)
        yield s_first * sums[0] + s_slope * sums[1], v, sums
        v = (0.5j * h) * np.convolve(q, v)[: n + 1]


@np.errstate(over="ignore", invalid="ignore")
def series_row(p: np.ndarray, h: float, factors: list | None = None,
               tables: SeriesTables | None = None) -> np.ndarray | None:
    """G's last row for M[i, j] = p[i - j], summed from _series_terms, or None.

    G[N, j] = sum over k of c[j, k] (z^k p)[N - j]. The sum stops after the
    first term whose sup norm is at most eps times the row's. It is None,
    with no warning, for compute_g to build G instead, if the row is not
    finite, if _SERIES_MAX_TERMS terms do not reach that point, or if eps
    times the sum of the terms' sup norms, which bounds the rounding their
    cancellation leaves, exceeds compute_g's tol 1e-12 (1 + sup|row|). If
    factors is a list, the factors of every term summed are appended to it,
    for series_jacobian. The terms read their Delannoy sums from tables, a
    SeriesTables of the grid of p.size - 1 intervals that a caller summing
    several rows on one grid passes to each; None forms fresh ones.
    """
    eps = np.finfo(float).eps
    row = np.zeros(p.size, dtype=complex)
    total = 0.0
    for c, v, sums in _series_terms(p, h, tables):
        if factors is not None:
            factors.append((c, v, sums))
        term = c * v[::-1]
        row += term
        size = np.abs(term).max()
        total += size
        if not np.isfinite(total):
            return None
        if size <= eps * np.abs(row).max():
            break
    else:
        return None
    sup = np.abs(row).max()
    if not (np.isfinite(sup) and eps * total <= 1e-12 * (1.0 + sup)):
        return None
    row[0] = 0.0  # G(pi, 0) = 0, kept exact
    return row


def series_jacobian(p: np.ndarray, h: float, factors: list) -> np.ndarray:
    """J[j, l] = d row[j] / d p[l] of series_row(p, h, factors)'s row.

    Term k of the row is c[j, k] V_k[N - j], V_k = z^k p. With
    V_k = (i h / 2) q * V_{k-1} (a convolution truncated to N + 1 terms),
    d V_k[d] / d p[l] = F_k[d - l] for l >= 1, where F_0 is the unit impulse
    and F_k = (i h / 2) (q * F_{k-1} + h V_{k-1}): p enters as V_0 and
    through each factor q = h p. Hence J[j, l] = sum over k of
    c[j, k] F_k[N - j - l] = G'[N - l, j], G' the sheared product of the
    factors (C, F) as G is that of (C, V) (see _sheared_product). Column 0
    takes two corrections: q[0] = h p[0] / 2 halves the V part there, which
    sums to k (i h / 2) V_{k-1} in F_k, and c depends on p[0] with
    dc[:, k] / dp[0] = h^3 (sums[1] / 2 - sums[0] / 4). Row 0 is zero, as
    the row's entry is. This is the exact derivative of the sum of the
    terms the row summed.
    """
    cs, vs, sums = zip(*factors)
    n, ks, a = p.size - 1, np.arange(1, len(vs)), 0.5j * h
    q = h * p
    q[0] *= 0.5
    vmat, cmat = np.stack(vs), np.stack(cs, axis=1)
    fmat = np.eye(*vmat.shape, dtype=complex)  # its row 0 is F_0; the loop writes the others
    for k in ks:
        fmat[k] = a * (np.convolve(q, fmat[k - 1])[: n + 1] + h * vmat[k - 1])
    jac = _sheared_product(cmat, fmat)[::-1].T
    # column 0: c's dependence on p[0], less the V part q[0]'s half weight drops
    jac[:, 0] += (np.einsum("kij,i,kj->j", np.stack(sums), [-0.25 * h**3, 0.5 * h**3], vmat[:, ::-1])
                  - (0.5 * h * a) * np.einsum("jk,kj->j", cmat[:, 1:] * ks, vmat[:-1, ::-1]))
    return jac


def _sheared_product(cmat: np.ndarray, vmat: np.ndarray) -> np.ndarray:
    """The lower-triangular (N + 1) x (N + 1) array G with G[d + j, j] = (C V)[j, d].

    C is (N + 1) x K and V K x (N + 1). The sheared S = C V is formed
    ROW_BLOCK rows at a time, one gemm each, and each block is copied into
    G's diagonals through a strided view: S[j, d] lies at offset
    j (N + 2) + d (N + 1) of G's buffer. A block's entries with j + d > N
    fall outside the triangle, past G's last row; the buffer holds
    ROW_BLOCK - 1 more rows to take them, so besides G and those rows the
    product holds one block of S, no second field.
    """
    n = vmat.shape[1]
    block = min(ROW_BLOCK, n)
    buf = np.zeros((n + block - 1) * n, dtype=complex)  # G, then the rows past its last
    s = buf.itemsize
    for j0 in range(0, n, block):
        rows = cmat[j0 : j0 + block] @ vmat[:, : n - j0]  # S[j0 .. j0 + block - 1, :N + 1 - j0]
        as_strided(buf[j0 * (n + 1) :], shape=rows.shape, strides=((n + 1) * s, n * s),
                   writeable=True)[...] = rows
    return buf[: n * n].reshape(n, n)


@np.errstate(over="ignore", invalid="ignore")
def _series_g(p: np.ndarray, grid: Grid) -> TransformKernel | None:
    """G for M[i, j] = p[i - j] as the product of series_row's factors, or None.

    The sheared G, S[j, d] = G[d + j, j], is C V with C[:, k] = c[:, k]
    and V[k] = z^k p, an (N + 1) x K and a K x (N + 1) matrix, formed by
    _sheared_product from the K terms series_row sums for G's last row.
    Term k adds c[j, k] (z^k p)[d] to G's entries, j + d <= N; its sup norm
    on G, at most sup|c[:, k]| sup|z^k p|, is its size. It is None, for
    compute_g to build G instead, if series_row declines the row, if the
    last term's size exceeds eps times the sum of the sizes (the row
    stopped before G would), or if eps times that sum, which bounds the
    rounding the terms' cancellation leaves, exceeds compute_g's tol
    1e-12 (1 + sup|G|); an overflow gives no warning. No Picard update
    certifies it: that guard does. term_norms is empty (no march ran), and
    tol is that of the guard.
    """
    factors = []
    if series_row(p, grid.step, factors) is None:
        return None
    cmat, vmat = np.stack([c for c, _, _ in factors], axis=1), np.stack([v for _, v, _ in factors])
    del factors
    # sup over j + d <= N of |c[j, k]| |v[k, d]|: term k's sup norm on G
    sizes = (np.abs(cmat) * np.maximum.accumulate(np.abs(vmat), axis=1)[:, ::-1].T).max(axis=0)
    eps, total = np.finfo(float).eps, sizes.sum()
    if not sizes[-1] <= eps * total:
        return None
    g = TriangularField(grid, _sheared_product(cmat, vmat))
    g.values[:, 0] = 0.0  # boundary identity G(x, 0) = 0, kept exact
    tol = 1e-12 * (1.0 + g.sup_norm())
    if not (np.isfinite(tol) and eps * total <= tol):
        return None
    return TransformKernel(g=g, term_norms=np.zeros(0), tol=tol)


def build_g(m: TriangularField | Profile) -> TransformKernel:
    """G of the kernel m: _series_g's for a difference kernel, else compute_g's.

    m is a kernel field, or a Profile p that stands for the difference
    kernel M[i, j] = p[i - j] by its N + 1 samples. A Profile takes the
    series unless its guard declines; a field, or a Profile it declines
    (lifted by quadrature.as_field), takes compute_g, whose G and record are
    returned unchanged, and which raises PicardConvergenceError for a kernel
    that overflows.
    """
    tk = _series_g(m.values, m.grid) if isinstance(m, Profile) else None
    return compute_g(as_field(m)) if tk is None else tk


def last_row(m: TriangularField | Profile, factors: list | None = None,
             tables: SeriesTables | None = None) -> tuple[np.ndarray, str]:
    """G's last row, G[N, :], and how it was formed: "series" or "march".

    m is a kernel field, or a Profile p that stands for the difference
    kernel M[i, j] = p[i - j] by its N + 1 samples. A Profile takes
    series_row's row, with no field built. Its Delannoy sums come from
    tables, a SeriesTables of m's grid that a fit keeps for all its rows on
    that grid, or fresh ones if None. If factors is a list, series_row
    appends its terms' factors to it, for series_jacobian, and they are
    complete where the row is "series". A field, which reads no tables, or
    a Profile the series declines (lifted by quadrature.as_field), gets
    compute_g's last row, a view of the G built, which raises
    PicardConvergenceError as compute_g does for a kernel that overflows.
    """
    row = series_row(m.values, m.grid.step, factors, tables) if isinstance(m, Profile) else None
    if row is None:
        return compute_g(as_field(m)).g.values[-1], "march"
    return row, "series"


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
    return TriangularField(m.grid, zero_upper(vals.copy()))  # vals is a view of m


def _next_fast_len(n: int) -> int:
    """Smallest m >= n with no prime factor above 11: a fast complex FFT length.

    This is the length scipy.fft.next_fast_len(n) returns for complex input
    (101 -> 105, 201 -> 210, 401 -> 405).
    """
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _shear(vals: np.ndarray) -> np.ndarray:
    """out[i, d] = vals[i, i-d] for d <= i and zero for d > i.

    Diagonal offset d of a lower-triangular field becomes column d, so a
    product against the sheared field integrates along the lines
    x - t = const. vals must be zero above the diagonal; so is the result,
    and shearing it again gives vals back.
    """
    m = vals.shape[0]
    buf = np.zeros(m * m + m - 1, dtype=complex)  # the result from offset m - 1
    _diagonal_columns(buf, m, m)[:, ::-1] = vals
    return buf[m - 1 :].reshape(m, m)


def _halved_row_spectra(vals: np.ndarray, size: int) -> np.ndarray:
    """FFTs of length size of the rows of a square vals with its diagonal
    halved, ROW_BLOCK rows at a time in place: a new (len(vals), size) array."""
    m = len(vals)
    f = np.zeros((m, size), dtype=complex)
    f[:, :m] = vals
    np.einsum("ii->i", f[:, :m])[...] *= 0.5
    for r0 in range(0, m, ROW_BLOCK):
        rows = f[r0 : r0 + ROW_BLOCK]
        rows[...] = np.fft.fft(rows, axis=1)
    return f


def _column_convolve(fa: np.ndarray, fb: np.ndarray, length: int) -> None:
    """Replace each column of fa by the first len(fa) entries of its linear
    convolution with the same column of fb, by FFTs of the given length.

    The columns run ROW_BLOCK at a time, transposed into two buffers of
    that many rows, so the FFTs run along contiguous rows; length at least
    2 len(fa) - 1 keeps the product from wrapping.
    """
    m, size = fa.shape
    pt, qt = np.empty((2, min(ROW_BLOCK, size), length), dtype=complex)
    for c0 in range(0, size, ROW_BLOCK):
        c1 = min(c0 + ROW_BLOCK, size)
        p, q = pt[: c1 - c0], qt[: c1 - c0]
        for buf, f in ((p, fa), (q, fb)):
            buf[:, :m] = f[:, c0:c1].T
            buf[:, m:] = 0.0
            buf[...] = np.fft.fft(buf, axis=1)
        p *= q
        p[...] = np.fft.ifft(p, axis=1)
        fa[:, c0:c1] = p[:, :m].T


def _difference_z_kernel(k1v: np.ndarray, k2v: np.ndarray, r: Profile) -> np.ndarray:
    """assemble_z_kernel's K for the Profile r of rho(x - t).

    Its shifted factor R[i, k] = rho(pi - x_i) does not depend on k, so
    K[i, j] is rho(pi - x_i) times two sums with no weight from R:

    - terms 1 and 2, h times the trapezoid of k1 + k2 along the diagonal
      through (x_i, t_j), from column 0 to row i: one _diagonal_trapezoid;
    - term 3, h^2 times the 2-D linear convolution of k1 and k2, both with
      halved diagonals, on 0 < j < i. Rows 0 of k1 and k2 are zero, so the
      sum over 0 < k < i may run over every k. Row FFTs of length
      _next_fast_len(m) cannot wrap, as in the field path; _column_convolve
      then convolves the columns of the two row spectra in place, so no
      padded array of 2m rows is formed.

    It holds the two row-spectrum arrays and _column_convolve's buffers at
    most; k2's spectra go before K is formed in k1's.
    """
    m, h = r.grid.n_nodes, r.grid.step
    size = _next_fast_len(m)
    fa = _halved_row_spectra(k1v, size)
    _column_convolve(fa, _halved_row_spectra(k2v, size), _next_fast_len(2 * m - 1))
    for r0 in range(0, m, ROW_BLOCK):
        rows = fa[r0 : r0 + ROW_BLOCK]
        rows[...] = np.fft.ifft(rows, axis=1)

    kout = zero_upper(fa[:, :m])  # term 3, on 0 < j < i only
    np.einsum("ii->i", kout)[...] = 0.0
    kout *= h * h
    pair = np.empty((min(_PRODUCT_BLOCK, m), m), dtype=complex)
    _diagonal_trapezoid(
        lambda i0, i1, work: np.add(k1v[i0:i1], k2v[i0:i1], out=pair[: i1 - i0]), m, h, kout)
    kout *= r.values[::-1, None]  # rho(pi - x_i) along row i
    kout[:, 0] = 0.0
    return np.ascontiguousarray(kout)


def assemble_z_kernel(
    k1: TriangularField,
    k2: TriangularField,
    r: TriangularField | Profile,
) -> tuple[Profile, TriangularField]:
    """Split z(x, lambda) into B(x) exp(-i*lambda*x) + int K(x,t) exp(-i*lambda*t) dt.

    k1 is the transformation kernel of the reflected solution w, k2 that of
    the second forward solution; r is the convolution factor, a field or
    the Profile rho of rho(x - t). Both k1 and k2 must vanish at t = 0
    (column 0 exactly zero), as compute_g's G does; other input raises
    ValueError. A Profile r takes _difference_z_kernel's K and
    kernels.compute_B's B, with no shifted factor; a field r takes the sums
    below. With R[i, k] = r(pi - t_k, x_i - t_k),
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

    No Python loop runs over pairs of grid nodes: the loop runs over rows
    i and, within a row, over chunks of ROW_BLOCK values of k, one
    vector-matrix product each; the inverse FFTs run on ROW_BLOCK rows at
    a time. Besides its result and R it holds at most two more full-size
    arrays at once (plus a few rows), where a batch over all rows would
    hold several.
    """
    require_same_grid(k1.grid, k2.grid, r.grid)
    if np.any(k1.values[:, 0]) or np.any(k2.values[:, 0]):
        raise ValueError("k1 and k2 must vanish at t = 0: column 0 is not exactly zero")
    grid = r.grid
    if isinstance(r, Profile):
        return compute_B(r), TriangularField(grid, _difference_z_kernel(k1.values, k2.values, r))
    m, h = grid.n_nodes, grid.step
    rmat = shifted_factor(r)
    b = Profile(grid, volterra_apply(rmat, np.ones(m, dtype=complex), h))  # compute_B(r)

    # terms 1 and 2, indexed [i, d]
    acc = _inner_table(_shear(rmat), _shear(k2.values), h)
    acc += _inner_table(rmat, _shear(k1.values), h)
    kout = _shear(acc)
    del acc

    # term 3: rows of k1 and k2 vanish past the diagonal, so each
    # convolution has degree <= i < m and a length >= m cannot wrap. fb
    # holds the rows of k2 in reverse order, so the rows i-1 .. 1 that row
    # i of K pairs with k1's rows 1 .. i-1 are contiguous.
    size = _next_fast_len(m)
    fa = _halved_row_spectra(k1.values, size)
    fb = _halved_row_spectra(k2.values, size)[::-1]
    prod = np.empty((ROW_BLOCK, size), dtype=complex)
    spec = np.empty((ROW_BLOCK, size), dtype=complex)
    for c0 in range(2, m, ROW_BLOCK):
        block = spec[: min(ROW_BLOCK, m - c0)]  # rows c0, c0 + 1, ... of K
        block[...] = 0.0
        for i, row in enumerate(block, c0):
            back = m - 1 - i  # fb holds k2's row i - k as its row back + k
            for k0 in range(1, i, ROW_BLOCK):
                k_end = min(k0 + ROW_BLOCK, i)
                p = np.multiply(fa[k0:k_end], fb[back + k0 : back + k_end],
                                out=prod[: k_end - k0])
                row += rmat[i, k0:k_end] @ p
        block *= h * h
        # row i of K takes columns 1 .. i-1 of its row's inverse FFT
        for i, row in enumerate(np.fft.ifft(block, axis=1), c0):
            kout[i, 1:i] += row[1:i]

    kout[:, 0] = 0.0
    return b, TriangularField(grid, kout)
