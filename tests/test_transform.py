import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

from idospec.quadrature import PI, TriangularField, make_grid
from idospec.transform import (
    PicardConvergenceError,
    _PRODUCT_BLOCK,
    _cumtrapz_along_diagonals,
    _inner_table,
    _lower_product,
    _march,
    _next_fast_len,
    assemble_z_kernel,
    compute_g,
    picard_g1,
    picard_step,
    reflected_kernel,
)

from idospec.kernels import compute_B

from conftest import family_fields, family_diag_integrals
from oracles import picard_series_g


# Loop forms of the two Picard helpers, kept as reference oracles for the
# vectorized versions in idospec.transform.
def _cumtrapz_along_diagonals_loop(vals, h):
    n = vals.shape[0]
    out = np.zeros_like(vals)
    for d in range(n):
        diag = np.ascontiguousarray(np.diagonal(vals, offset=-d))
        ct = np.empty_like(diag)
        ct[0] = 0.0
        csum = np.cumsum(diag)
        ct[1:] = h * (csum[1:] - 0.5 * diag[1:] - 0.5 * diag[0])
        rows = np.arange(d, n)
        out[rows, rows - d] = ct
    return out


def _inner_table_loop(mv, gv, h):
    n = mv.shape[0]
    inner = np.zeros_like(mv)
    for c in range(n - 1):
        sub = mv[c:, c:]
        gc = gv[c:, c]
        prod = sub * gc[None, :]
        partial = np.cumsum(prod, axis=1).diagonal().copy()
        diag = prod.diagonal()
        col = h * (partial - 0.5 * prod[:, 0] - 0.5 * diag)
        col[0] = 0.0
        inner[c:, c] = col
    return inner


def _assemble_z_kernel_loop(k1v, k2v, rv, h):
    """Node-by-node form of assemble_z_kernel's K (before the final tril)."""
    n = rv.shape[0] - 1
    kout = np.zeros_like(rv)
    for i in range(1, n + 1):
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
    return kout


def _random_lower(rng, n, scale):
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.tril(scale * vals)


class TestPicardHelpersMatchLoops:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 64),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
    )
    def test_random_lower_triangular_fields(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        mv = _random_lower(rng, n, scale)
        gv = _random_lower(rng, n, 1.0)
        h = PI / (n - 1)

        inner = _inner_table(mv, gv, h)
        ref = _inner_table_loop(mv, gv, h)
        assert np.abs(inner - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.all(np.triu(inner) == 0.0)

        ct = _cumtrapz_along_diagonals(mv, h)
        assert np.array_equal(ct, _cumtrapz_along_diagonals_loop(mv, h))
        assert np.all(ct[:, 0] == 0.0)
        assert np.all(np.triu(ct, 1) == 0.0)


class TestLowerProduct:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(
            st.integers(1, 200),
            st.sampled_from([_PRODUCT_BLOCK - 1, _PRODUCT_BLOCK, _PRODUCT_BLOCK + 1,
                             2 * _PRODUCT_BLOCK, 2 * _PRODUCT_BLOCK + 1]),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_product(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = _random_lower(rng, n, 1.0), _random_lower(rng, n, 1.0)
        out = _lower_product(a, b)
        ref = a @ b
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.all(np.triu(out, 1) == 0.0)


class TestPicardTerms:
    def test_g1_constant_kernel(self, grid100):
        # m = 1: G_1(x,t) = i * int_{x-t}^{x} 1 ds = i t, exact for trapezoid
        g1 = picard_g1(TriangularField.constant(grid100, 1.0))
        expect = np.tril(1j * np.broadcast_to(grid100.nodes, (101, 101)))
        assert np.abs(g1.values - expect).max() < 1e-13

    def test_g2_constant_kernel(self, grid100):
        # m = 1: G_2(x,t) = -(x - t) t^2 / 2; integrands stay polynomial of
        # low degree so the nested trapezoid is exact up to roundoff
        m = TriangularField.constant(grid100, 1.0)
        g2 = picard_step(m, picard_g1(m))
        x = grid100.nodes[:, None]
        t = grid100.nodes[None, :]
        expect = np.tril(-(x - t) * t**2 / 2)
        assert np.abs(g2.values - expect).max() < 5e-4

    def test_g1_linear_in_kernel(self, grid50):
        m = TriangularField.from_function(grid50, lambda x, t: np.cos(x) + t)
        m2 = TriangularField(grid50, 2.0 * m.values)
        assert np.abs(picard_g1(m2).values - 2.0 * picard_g1(m).values).max() < 1e-13


class TestComputeG:
    @pytest.mark.parametrize("name", ["zero", "constant", "polynomial", "trig", "structured"])
    def test_left_edge_vanishes(self, grid100, name):
        tk = compute_g(family_fields(grid100)[name])
        assert np.all(tk.g.values[:, 0] == 0.0)

    @pytest.mark.parametrize("name", ["constant", "polynomial", "trig", "structured"])
    def test_diagonal_identity_closed_form(self, name):
        # G(x, x) must equal i * int_0^x M(t,t) dt; the reference integrals
        # come from antiderivatives, independent of any quadrature
        errs = []
        for n in (100, 200):
            grid = make_grid(n)
            tk = compute_g(family_fields(grid)[name])
            diag = np.diagonal(tk.g.values)
            errs.append(np.abs(diag - family_diag_integrals(grid)[name]).max())
        assert errs[1] < 1e-4
        if errs[1] > 1e-12:  # constant family is exact up to roundoff
            assert errs[0] / errs[1] > 3.0  # second-order shrink

    @pytest.mark.parametrize("name", ["constant", "polynomial", "trig", "structured"])
    def test_one_update_certifies_the_march(self, grid100, name):
        tk = compute_g(family_fields(grid100)[name])
        assert tk.iterations == len(tk.term_norms) == 2
        assert tk.term_norms[1] < tk.tol

    def test_zero_kernel_gives_zero_g(self, grid50):
        tk = compute_g(TriangularField.zeros(grid50))
        assert np.all(tk.g.values == 0.0)
        assert tk.iterations == 1

    def test_nonconvergence_raises(self, grid50):
        with pytest.raises(PicardConvergenceError):
            compute_g(TriangularField.constant(grid50, 1.0), max_terms=1)

    @pytest.mark.parametrize("tol", [None, 1e-10])
    def test_non_finite_term_raises(self, grid50, tol):
        vals = TriangularField.constant(grid50, 1.0).values
        vals[7, 3] = np.nan
        with pytest.raises(PicardConvergenceError):
            compute_g(TriangularField(grid50, vals), tol=tol)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-10])
    def test_bad_tol_rejected(self, grid50, tol):
        with pytest.raises(ValueError):
            compute_g(TriangularField.constant(grid50, 1.0), tol=tol)

    def test_grid_convergence(self):
        # full kernel G against a fine-grid reference, second order in h
        ref = compute_g(family_fields(make_grid(400))["trig"]).g.values
        errs = []
        for n in (100, 200):
            tk = compute_g(family_fields(make_grid(n))["trig"])
            stride = 400 // n
            errs.append(np.abs(tk.g.values - ref[::stride, ::stride]).max())
        assert 2.5 < errs[0] / errs[1] < 6.0


class TestMarchAgainstPicardSeries:
    """compute_g's march against the summed Picard series of tests/oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 64),
        seed=st.integers(0, 2**32 - 1),
        amp=st.floats(0.3, 5.0),
    )
    def test_random_lower_triangular_fields(self, n, seed, amp):
        m = TriangularField(make_grid(n), _random_lower(np.random.default_rng(seed), n + 1, amp))
        tk = compute_g(m)
        g = tk.g.values
        assert tk.iterations == 2
        assert np.all(g[:, 0] == 0.0)
        assert np.array_equal(np.diagonal(g), np.diagonal(picard_g1(m).values))
        # the series' truncation error is about its tol, so the oracle sums to
        # a tol far below compute_g's; where it diverges there is no reference
        try:
            with np.errstate(all="ignore"):
                ref = picard_series_g(m, tol=1e-15 * (1.0 + picard_g1(m).sup_norm()),
                                      max_terms=400).g.values
        except PicardConvergenceError:
            return
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 120),
        seed=st.integers(0, 2**32 - 1),
        amp=st.floats(0.3, 5.0),
    )
    @example(n=31, seed=1, amp=1.0)
    @example(n=32, seed=2, amp=1.0)
    @example(n=63, seed=3, amp=1.0)
    @example(n=64, seed=4, amp=5.0)
    @example(n=96, seed=5, amp=1.0)
    def test_iterates_keep_upper_triangle_zero(self, n, seed, amp):
        # the march (blocks of _MARCH_BLOCK rows) and the certifying Picard
        # update leave every entry above the diagonal at +0.0, bit for bit,
        # so compute_g's final np.tril changes no value
        m = TriangularField(make_grid(n), _random_lower(np.random.default_rng(seed), n + 1, amp))
        g1 = picard_g1(m)
        march = _march(m.values, g1.values, m.grid.step)
        update = picard_step(m, TriangularField(m.grid, march)).values + g1.values
        zeros = np.zeros_like(march).tobytes()
        for g in (g1.values, march, update):
            assert np.triu(g, 1).tobytes() == zeros

    @pytest.mark.parametrize("n", [100, 400])
    @pytest.mark.parametrize("name", ["constant", "polynomial", "trig", "structured"])
    def test_families_match_series(self, n, name):
        # grids past one block of _lower_product; the largest gap seen is
        # 2.3e-15 (constant, N = 400)
        m = family_fields(make_grid(n))[name]
        tk = compute_g(m)
        g = tk.g.values
        assert tk.iterations == 2
        assert np.all(g[:, 0] == 0.0)
        ref = picard_series_g(m, tol=1e-15 * (1.0 + picard_g1(m).sup_norm()),
                              max_terms=400).g.values
        assert np.abs(g - ref).max() <= 5e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_divergent_series_still_solved(self, n):
        # amplitude 5 on a coarse grid: the discrete Picard series diverges,
        # but G = G1 + T(G) still has a solution, and the march finds it
        rng = np.random.default_rng(0)
        m = TriangularField(make_grid(n), _random_lower(rng, n + 1, 5.0))
        with pytest.raises(PicardConvergenceError), np.errstate(all="ignore"):
            picard_series_g(m, max_terms=400)
        tk = compute_g(m)
        assert tk.iterations == 2
        g = tk.g.values
        residual = g - picard_g1(m).values - picard_step(m, tk.g).values
        assert np.abs(residual).max() < tk.tol


class TestReflectedKernel:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_involution_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        m = TriangularField(make_grid(n), _random_lower(rng, n + 1, 1.0))
        back = reflected_kernel(reflected_kernel(m))
        assert back.values.tobytes() == m.values.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_returns_itself_exactly_when_symmetric(self, n, seed):
        rng = np.random.default_rng(seed)
        a = _random_lower(rng, n + 1, 1.0)
        sym = TriangularField(make_grid(n), a + a[::-1, ::-1].T)
        assert reflected_kernel(sym) is sym
        # one entry off the anti-diagonal i + j = n, which the reflection fixes
        cells = [(i, j) for i in range(n + 1) for j in range(i + 1) if i + j != n]
        i, j = cells[rng.integers(len(cells))]
        bumped = sym.values.copy()
        bumped[i, j] += 1.0
        m = TriangularField(sym.grid, bumped)
        ref = reflected_kernel(m)
        assert ref is not m
        assert not np.array_equal(ref.values, m.values)
        assert ref.values.tobytes() == np.tril(bumped[::-1, ::-1].T).tobytes()

    def test_involution(self, grid50):
        m = family_fields(grid50)["structured"]
        back = reflected_kernel(reflected_kernel(m))
        assert np.abs(back.values - m.values).max() < 1e-15

    def test_pointwise_definition(self, grid50):
        m = family_fields(grid50)["polynomial"]
        ref = reflected_kernel(m)
        n = grid50.n_intervals
        for i, j in [(5, 2), (30, 30), (50, 0), (17, 11)]:
            assert ref.at(i, j) == m.at(n - j, n - i)


class TestZKernelAssembly:
    def test_fft_length_matches_scipy(self):
        # the FFT sizes of the bilinear term are those scipy.fft would pick
        got = [_next_fast_len(n) for n in range(1, 2049)]
        assert got == [scipy.fft.next_fast_len(n) for n in range(1, 2049)]
        assert [_next_fast_len(n) for n in (101, 201, 401)] == [105, 210, 405]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(n)
        # the diagonals and column 0 of r carry trapezoid end weights, so
        # keep them non-zero; k1 and k2 vanish at t = 0, as G does
        fields = []
        for _ in range(3):
            vals = _random_lower(rng, n + 1, 1.0)
            vals[:, 0] += 2.0
            np.einsum("ii->i", vals)[...] += 2.0
            fields.append(TriangularField(grid, vals))
        k1, k2, r = fields
        k1.values[:, 0] = 0.0
        k2.values[:, 0] = 0.0
        b, k = assemble_z_kernel(k1, k2, r)
        ref = _assemble_z_kernel_loop(k1.values, k2.values, r.values, grid.step)
        assert np.abs(k.values - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(b.values, compute_B(r).values)
        assert np.all(np.triu(k.values, 1) == 0.0)
        assert np.all(k.values[:, 0] == 0.0)

    @pytest.mark.parametrize("which", [0, 1])
    def test_nonzero_first_column_refused(self, grid50, which):
        r = TriangularField.constant(grid50, 1.0)
        kernels = [picard_g1(family_fields(grid50)["trig"]) for _ in range(2)]
        kernels[which].values[7, 0] = 1e-300
        with pytest.raises(ValueError, match="column 0"):
            assemble_z_kernel(*kernels, r)

    def test_zero_transform_kernels(self, grid50):
        r = TriangularField.constant(grid50, 1.0)
        z = TriangularField.zeros(grid50)
        b, k = assemble_z_kernel(z, z, r)
        assert np.all(k.values == 0.0)
        assert np.abs(b.values - grid50.nodes).max() < 1e-12

    def test_linear_in_first_kernel(self, grid50):
        r = TriangularField.from_function(grid50, lambda x, t: 1.0 + 0.1 * t)
        k1 = picard_g1(family_fields(grid50)["trig"])
        k1_scaled = TriangularField(grid50, 3.0 * k1.values)
        z = TriangularField.zeros(grid50)
        _, ka = assemble_z_kernel(k1, z, r)
        _, kb = assemble_z_kernel(k1_scaled, z, r)
        assert np.abs(kb.values - 3.0 * ka.values).max() < 1e-12
