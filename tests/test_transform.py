import gc
import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

import idospec.transform
from idospec import cli
from idospec.quadrature import PI, ROW_BLOCK, Profile, TriangularField, as_field, make_grid
from idospec.transform import (
    PicardConvergenceError,
    SeriesTables,
    _PRODUCT_BLOCK,
    _diagonal_trapezoid,
    _inner_table,
    _lower_product,
    _march,
    _next_fast_len,
    assemble_z_kernel,
    build_g,
    compute_g,
    last_row,
    picard_g1,
    picard_step,
    reflected_kernel,
    series_jacobian,
    series_row,
)

from idospec.kernels import compute_B, shifted_factor
from idospec.spectral import eval_e_direct, eval_z

from conftest import family_fields, family_diag_integrals
from oracles import hand_blocked_e_march, hand_blocked_march, picard_series_g


# Loop forms of the two Picard helpers, kept as reference oracles for the
# vectorized versions in idospec.transform.
def _cumtrapz_along_diagonals_loop(vals, scale):
    """Each diagonal's running sum of scale / 2 times consecutive pair sums."""
    n = vals.shape[0]
    out = np.zeros_like(vals)
    for d in range(n):
        diag = np.diagonal(vals, offset=-d)
        steps = np.zeros_like(diag)
        steps[1:] = (diag[1:] + diag[:-1]) * (0.5 * scale)
        rows = np.arange(d, n)
        out[rows, rows - d] = np.cumsum(steps)
    return out


def _cumtrapz(vals, scale):
    """_diagonal_trapezoid of vals, added to zeros."""
    return _diagonal_trapezoid(lambda i0, i1, work: vals[i0:i1], len(vals), scale,
                               np.zeros_like(vals))


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


def _peak_fields(fn, n):
    """tracemalloc peak of fn() above what was allocated before it, result
    included, in complex fields of an n-interval grid."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (16 * (n + 1) ** 2)
    finally:
        tracemalloc.stop()


def _random_lower(rng, n, scale):
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.tril(scale * vals)


def _step(m, g):
    """The Picard step alone: picard_step added into a zero field."""
    return picard_step(m, g, TriangularField.zeros(m.grid))


# Sizes at the edges of the row blocks of _march and of _inner_table and
# _diagonal_trapezoid
CHUNK_EDGES = sorted({k * b + e for b in (ROW_BLOCK, _PRODUCT_BLOCK) for k in (1, 2)
                      for e in (-1, 0, 1)})


class TestPicardHelpersMatchLoops:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 64), st.sampled_from(CHUNK_EDGES)),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
    )
    @example(n=ROW_BLOCK + 1, seed=0, scale=1.0)
    @example(n=2 * _PRODUCT_BLOCK + 1, seed=1, scale=1.0)
    def test_random_lower_triangular_fields(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        mv = _random_lower(rng, n, scale)
        gv = _random_lower(rng, n, 1.0)
        h = PI / (n - 1)

        inner = _inner_table(mv, gv, h)
        ref = _inner_table_loop(mv, gv, h)
        assert np.abs(inner - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.all(np.triu(inner) == 0.0)

        for s in (h, 1j * h):
            ct = _cumtrapz(mv, s)
            assert ct.tobytes() == _cumtrapz_along_diagonals_loop(mv, s).tobytes()
            assert np.all(ct[:, 0] == 0.0)
            # +0.0 above the diagonal, whatever the sign of the zeros there
            assert np.triu(ct, 1).tobytes() == np.zeros_like(ct).tobytes()
            neg = mv.copy()
            neg[np.triu_indices(n, 1)] = complex(-0.0, -0.0)
            assert _cumtrapz(neg, s).tobytes() == ct.tobytes()


class TestDiagonalTrapezoid:
    @pytest.mark.parametrize("n", [2, _PRODUCT_BLOCK - 1, _PRODUCT_BLOCK, _PRODUCT_BLOCK + 1,
                                   2 * _PRODUCT_BLOCK - 1, 2 * _PRODUCT_BLOCK, 2 * _PRODUCT_BLOCK + 1])
    def test_blocks_sum_as_one_pass_down_each_diagonal(self, n):
        # each diagonal's running sum crosses the block edges in the loop's
        # order, bit for bit; -0.0 on a whole row, on a diagonal, at scattered
        # entries and above the diagonal changes no sign in the result
        rng = np.random.default_rng(n)
        vals = _random_lower(rng, n, 1.0)
        neg = complex(-0.0, -0.0)
        vals[n // 2, : n // 2 + 1] = neg
        np.einsum("ii->i", vals[1:, :-1])[...] = neg
        rows, cols = np.tril_indices(n)
        hit = rng.random(rows.size) < 0.1
        vals[rows[hit], cols[hit]] = neg
        vals[np.triu_indices(n, 1)] = neg
        h = PI / (n - 1)
        for s in (h, 1j * h):
            ref = _cumtrapz_along_diagonals_loop(vals, s)
            assert _cumtrapz(vals, s).view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()
        zeros = np.full((n, n), neg)
        assert _cumtrapz(zeros, 1j * h).tobytes() == np.zeros((n, n), dtype=complex).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(3, 70), st.sampled_from(CHUNK_EDGES)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=_PRODUCT_BLOCK + 1, seed=0)
    def test_picard_step_adds_into(self, n, seed):
        # the step streamed into a field equals the field plus the step, bit
        # for bit, and writes nothing to m or g
        rng = np.random.default_rng(seed)
        grid = make_grid(n - 1)
        m, g = (TriangularField(grid, _random_lower(rng, n, 1.0)) for _ in range(2))
        b = _random_lower(rng, n, 1.0)
        b[np.triu_indices(n, 1)] = complex(-0.0, -0.0)
        b[rng.integers(n), 0] = complex(-0.0, 0.0)
        m_bytes, g_bytes = m.values.tobytes(), g.values.tobytes()
        into = TriangularField(grid, b.copy())
        assert picard_step(m, g, into) is into
        assert into.values.tobytes() == (b + _step(m, g).values).tobytes()
        assert m.values.tobytes() == m_bytes and g.values.tobytes() == g_bytes


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
        out = _lower_product(a, b, np.zeros((n, n), dtype=complex))
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
        g2 = _step(m, picard_g1(m))
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

    @pytest.mark.parametrize("c, n", [(60.0, 100), (60.0, 400), (100.0, 100)])
    def test_large_kernel_certified_in_one_update(self, c, n):
        # sup|G| grows 10^7 to 10^9 times beyond sup|G1| here; the march's
        # update stays at rounding relative to G, so the default tol,
        # which follows G, takes it
        tk = compute_g(TriangularField.constant(make_grid(n), c))
        assert tk.iterations == 2
        assert tk.tol == 1e-12 * (1.0 + tk.term_norms[0])
        assert tk.term_norms[1] < 1e-14 * tk.term_norms[0]

    def test_zero_kernel_gives_zero_g(self, grid50):
        tk = compute_g(TriangularField.zeros(grid50))
        assert np.all(tk.g.values == 0.0)
        assert tk.iterations == 1

    def test_nonconvergence_raises(self, grid50):
        with pytest.raises(PicardConvergenceError):
            compute_g(TriangularField.constant(grid50, 1.0), max_terms=1)

    def _count_steps(self, monkeypatch):
        calls = []
        step = idospec.transform.picard_step
        monkeypatch.setattr(idospec.transform, "picard_step",
                            lambda *a: calls.append(1) or step(*a))
        return calls

    def test_update_above_tol_refused_after_one_update(self, grid50, monkeypatch):
        # a march that is off by far more than rounding gets one update,
        # whose change is not below tol: refused rather than iterated on
        calls = self._count_steps(monkeypatch)
        march = idospec.transform._march

        def perturbed(*args):
            g = march(*args)
            g[30, 10] += 1e-6
            return g

        monkeypatch.setattr(idospec.transform, "_march", perturbed)
        with pytest.raises(PicardConvergenceError, match="Picard update sup norm"):
            compute_g(family_fields(grid50)["trig"])
        assert len(calls) == 1

    @pytest.mark.parametrize("max_terms", [2, 3, 60])
    def test_any_budget_above_one_allows_one_update(self, grid50, monkeypatch, max_terms):
        calls = self._count_steps(monkeypatch)
        m = family_fields(grid50)["trig"]
        tk = compute_g(m, max_terms=max_terms)
        assert len(calls) == 1 and tk.iterations == 2
        assert tk.g.values.tobytes() == compute_g(m).g.values.tobytes()

    def test_non_finite_term_raises(self, grid50):
        vals = TriangularField.constant(grid50, 1.0).values
        vals[7, 3] = np.nan
        with pytest.raises(PicardConvergenceError):
            compute_g(TriangularField(grid50, vals))

    def test_grid_convergence(self):
        # full kernel G against a fine-grid reference, second order in h
        ref = compute_g(family_fields(make_grid(400))["trig"]).g.values
        errs = []
        for n in (100, 200):
            tk = compute_g(family_fields(make_grid(n))["trig"])
            stride = 400 // n
            errs.append(np.abs(tk.g.values - ref[::stride, ::stride]).max())
        assert 2.5 < errs[0] / errs[1] < 6.0


def _difference_kernel(n, p):
    """M[i, j] = p(x_i - t_j) on the grid of n intervals, p a function of x,
    as the Profile of its samples."""
    grid = make_grid(n)
    return Profile(grid, np.asarray(p(grid.nodes), dtype=complex))


def _random_profile(kind, amp, seed):
    """A profile of amplitude about amp: a four-term trig sum, or a cubic
    in x / pi with real or complex coefficients."""
    c = amp * np.random.default_rng(seed).uniform(-1.0, 1.0, (2, 4))
    if kind == "trig":
        return lambda x: sum(c[0, k] * np.sin(k * x + c[1, k]) for k in range(4))
    coef = c[0] + 1j * c[1] if kind == "complex" else c[0]
    return lambda x: np.polyval(coef, x / PI)


class TestLastRow:
    """last_row's series of a Profile against compute_g's last row of its
    field, and its fallback to the march."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 400),
        kind=st.sampled_from(["trig", "polynomial", "complex"]),
        amp=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=400, kind="trig", amp=3.0, seed=0)
    @example(n=401, kind="complex", amp=3.0, seed=1)
    @example(n=2, kind="polynomial", amp=0.0, seed=0)
    def test_series_matches_the_march(self, n, kind, amp, seed):
        m = _difference_kernel(n, _random_profile(kind, amp, seed))
        row, way = last_row(m)
        ref = compute_g(as_field(m)).g.values[-1]
        assert row.shape == ref.shape
        assert row[:1].tobytes() == np.zeros(1, dtype=complex).tobytes()  # G(pi, 0) = +0.0
        assert np.abs(row - ref).max() <= 1e-12 * (1.0 + np.abs(row).max())
        if n >= 16:
            # the series declines only for a far larger P
            assert way == "series"

    def test_large_kernel_falls_back_to_the_march(self):
        # the terms of P = 100 grow far enough that their rounding would
        # exceed compute_g's tol
        m = Profile.constant(make_grid(100), 100.0)
        row, way = last_row(m)
        assert way == "march"
        assert row.tobytes() == compute_g(as_field(m)).g.values[-1].tobytes()

    def test_non_difference_kernel_is_marched(self, grid50):
        m = family_fields(grid50)["structured"]
        row, way = last_row(m)
        assert way == "march"
        assert row.tobytes() == compute_g(m).g.values[-1].tobytes()

    def test_field_of_a_difference_kernel_is_marched(self, grid50):
        # only a Profile takes the series: a field is not inspected
        m = as_field(Profile.constant(grid50, 1.0))
        row, way = last_row(m)
        assert way == "march"
        assert row.tobytes() == compute_g(m).g.values[-1].tobytes()

    def test_overflowing_profile_exits_numerical(self, tmp_path, capsys):
        # the series overflows and hands the kernel to compute_g, whose
        # march fails with its own message, and no numpy warning
        big = {"kind": "analytic", "family": "constant", "coeffs": [1e308]}
        cfg = tmp_path / "overflow.json"
        cfg.write_text(json.dumps({"grid_n": 8, "kernel": {"m0": big}, "extrapolate": True,
                                   "window": {"re_min": -4.0, "re_max": 4.0, "im_min": -4.0, "im_max": 0.5}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: march sup norm") and err.count("\n") == 1, err


class TestBuildG:
    """build_g's series G of a Profile against compute_g's G of its field,
    and its fallback to compute_g."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 401),
        kind=st.sampled_from(["trig", "polynomial", "complex"]),
        amp=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=400, kind="trig", amp=3.0, seed=0)
    @example(n=401, kind="complex", amp=3.0, seed=1)
    @example(n=2, kind="polynomial", amp=0.0, seed=0)
    @example(n=2 * ROW_BLOCK, kind="polynomial", amp=1.0, seed=2)
    def test_series_matches_the_march(self, n, kind, amp, seed):
        m = _difference_kernel(n, _random_profile(kind, amp, seed))
        tk, ref = build_g(m), compute_g(as_field(m))
        g = tk.g.values
        assert g.shape == ref.g.values.shape
        assert g[:, 0].tobytes() == np.zeros(n + 1, dtype=complex).tobytes()  # G(x, 0) = +0.0
        assert np.triu(g, 1).tobytes() == np.zeros_like(g).tobytes()  # +0.0 above the diagonal
        assert np.abs(g - ref.g.values).max() <= 1e-12 * (1.0 + ref.g.sup_norm())
        if n >= 16:
            # the series declines only for a far larger P
            assert (tk.build, tk.iterations) == ("series", 0)
            assert tk.tol == 1e-12 * (1.0 + tk.g.sup_norm())
            row, way = last_row(m)
            assert way == "series" and np.abs(g[-1] - row).max() <= tk.tol

    @pytest.mark.parametrize("m", [
        Profile.constant(make_grid(100), 100.0),  # its rounding guard declines
        family_fields(make_grid(50))["structured"],  # no difference kernel
        family_fields(make_grid(50))["trig"],
        as_field(Profile.constant(make_grid(50), 1.0)),  # a field is not inspected
    ], ids=["P=100", "structured", "trig", "field of M = 1"])
    def test_otherwise_compute_g_bitwise(self, m):
        tk, ref = build_g(m), compute_g(as_field(m))
        assert tk.build == "march"
        assert tk.g.values.tobytes() == ref.g.values.tobytes()
        assert tk.term_norms.tobytes() == ref.term_norms.tobytes() and tk.tol == ref.tol

    @pytest.mark.parametrize("n", [16, 100, 401])
    def test_row_stopped_early_is_declined(self, n, monkeypatch):
        # G checks the stop of series_row on its own terms: a row that ends
        # one term early, its last factor dropped, leaves G's last term above
        # eps times the sum of the terms, and G is marched instead
        row = idospec.transform.series_row

        def early(p, h, factors):
            out = row(p, h, factors)
            factors.pop()
            return out

        m = _difference_kernel(n, lambda x: 0.3 * np.sin(x + 0.5) + 0.25 * np.sin(2 * x + 1.0))
        assert build_g(m).build == "series"
        monkeypatch.setattr(idospec.transform, "series_row", early)
        tk = build_g(m)
        assert tk.build == "march"
        assert tk.g.values.tobytes() == compute_g(as_field(m)).g.values.tobytes()

    def test_overflowing_profile_raises_as_compute_g(self):
        m = Profile.constant(make_grid(8), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PicardConvergenceError, match="march sup norm"):
                build_g(m)


def _series_and_jacobian(p, h, tables=None):
    """series_row's row of p, with its terms' factors and series_jacobian of
    them (None with a row the series declines)."""
    factors = []
    row = series_row(p, h, factors, tables)
    return row, factors, None if row is None else series_jacobian(p, h, factors)


class TestSeriesTables:
    """Rows summed on one shared SeriesTables against the same rows on fresh ones."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 201),
        kinds=st.lists(st.sampled_from(["trig", "polynomial", "complex"]), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=100, kinds=["trig", "complex"], seed=0)
    @example(n=101, kinds=["polynomial", "trig"], seed=1)
    def test_shared_tables_are_bitwise_fresh(self, n, kinds, seed):
        # a row of few terms first, then larger profiles with other p[0],
        # then the small one again: the table is read while partly built,
        # grows, and is read again after it has grown
        h = make_grid(n).step
        small = _difference_kernel(n, _random_profile("trig", 0.01, seed)).values
        ps = [small] + [_difference_kernel(n, _random_profile(kind, 3.0, seed + k)).values
                        for k, kind in enumerate(kinds, 1)] + [small]
        tables, lengths = SeriesTables(n), []
        for p in ps:
            row, factors, jac = _series_and_jacobian(p, h, tables)
            ref, ref_factors, ref_jac = _series_and_jacobian(p, h)
            assert (row is None) == (ref is None)
            assert len(factors) == len(ref_factors)
            lengths.append(len(factors))
            if row is not None:
                assert row.tobytes() == ref.tobytes()
                assert jac.tobytes() == ref_jac.tobytes()
        assert len({p[0] for p in ps[:-1]}) == len(ps) - 1
        if n >= 16:
            # the rows of amplitude 3 need more terms than the small one
            assert lengths[0] == lengths[-1] < max(lengths)

    @pytest.mark.parametrize("n, other", [(100, 50), (50, 100), (101, 100)])
    def test_tables_of_another_grid_raise_before_any_sum(self, n, other):
        m = _difference_kernel(n, lambda x: 0.3 * np.sin(x + 0.5))
        tables, read, factors = SeriesTables(other), [], []
        tables.sums = lambda k: read.append(k)
        with pytest.raises(ValueError, match="intervals"):
            series_row(m.values, m.grid.step, factors, tables)
        with pytest.raises(ValueError, match="intervals"):
            last_row(m, factors, tables)
        assert read == [] and factors == []


class TestSeriesTablesScope:
    """Tables live only as long as the call or the fit that formed them: a
    table pinned for the whole process moves the heap's layout and the
    memory peak of unrelated commands."""

    @pytest.fixture
    def formed(self, monkeypatch):
        """A list that gains an entry per SeriesTables formed."""
        formed, init = [], SeriesTables.__init__
        monkeypatch.setattr(SeriesTables, "__init__", lambda self, n: formed.append(n) or init(self, n))
        return formed

    @staticmethod
    def live_tables() -> int:
        gc.collect()
        return sum(isinstance(obj, SeriesTables) for obj in gc.get_objects())

    def test_transform_holds_no_tables(self):
        # on a grid no other test uses, so a table kept in any container shows
        m = _difference_kernel(37, lambda x: 0.3 * np.sin(x + 0.5))
        last_row(m)
        build_g(m)
        gc.collect()
        assert not [obj for obj in gc.get_objects() if isinstance(obj, SeriesTables) and obj.n == 37]
        assert not [v for v in vars(idospec.transform).values() if isinstance(v, SeriesTables)]

    @pytest.mark.parametrize("call", ["build_g", "last_row"])
    def test_no_tables_survive_a_row_or_g(self, call, formed):
        m = _difference_kernel(100, lambda x: 0.3 * np.sin(x + 0.5) + 0.25 * np.sin(2 * x + 1.0))
        before = self.live_tables()
        {"build_g": build_g, "last_row": last_row}[call](m)
        assert formed == [100]
        assert self.live_tables() == before

    def test_no_tables_survive_spectrum(self, tmp_path, formed):
        zero, one = ({"kind": "analytic", "family": "constant", "coeffs": [c]} for c in (0.0, 1.0))
        p = {"kind": "analytic", "family": "trig", "coeffs": [[0.3, 1, 0.5], [0.25, 2, 1.0]]}
        cfg = tmp_path / "spectrum.json"
        cfg.write_text(json.dumps({
            "grid_n": 40, "extrapolate": True, "kernel": {"m0": zero, "components": [{"r": one, "p": p}]},
            "window": {"re_min": -6.0, "re_max": 6.0, "im_min": -6.0, "im_max": 0.5}}))
        before = self.live_tables()
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert sorted(formed) == [40, 80]  # one fresh table per row
        assert self.live_tables() == before


class TestWorkingMemory:
    """Full-size arrays a G build and the z-split hold at once, result included.

    A G build holds two fields, G1 (which the Picard update is added into)
    and the march, plus blocks of rows: three of ROW_BLOCK rows in the march
    (quadrature.march_rows), two of _PRODUCT_BLOCK rows in the update. That
    is 2.7 fields at N = 200 and 2.4 at N = 400. The e-march holds arrays of
    N + 1 entries per lambda and the driver's ROW_BLOCK rows of h M, no
    field: 0.65 fields at N = 100 and 0.30 at N = 200 for 5 lambdas. The
    z-split holds its result, R and two row-spectrum arrays. shifted_factor
    holds only its result, and eval_z a block of ROW_BLOCK rows of R plus
    arrays of about N + 32 entries per column: its lag view of e_tilde
    builds no field per column. build_g's series G of a difference kernel
    holds G, ROW_BLOCK - 1 rows past it that take the product's entries
    outside the triangle, one block of ROW_BLOCK rows of the product and
    its factors, about 2 K rows for K terms, and no second field: 1.5
    fields at N = 200 and 1.3 at N = 400. forward holds M (the Profile of
    a difference kernel) beside a G build, and only G beside its CSV
    writer, so with the series its peak is the writer's. spectrum of a
    kernel whose m0 and every r are constants holds arrays of N + 1
    entries per term of its rows and the zero search's arrays, no field:
    0.08 fields of its 2N grid at N = 400.
    """

    def test_shifted_factor(self):
        n = 200
        r = TriangularField.from_function(make_grid(n), lambda x, t: 1.0 + 0.2 * np.cos(t))
        assert _peak_fields(lambda: shifted_factor(r), n) <= 1.1

    @pytest.mark.parametrize("n, bound", [(100, 1.25), (200, 0.7)])
    def test_eval_e_direct(self, n, bound):
        # the 5 lambdas verify samples
        m = family_fields(make_grid(n))["structured"]
        lams = np.array([0.5, -2.0, 1.5 - 0.5j, 3.0, 0.25j])
        assert _peak_fields(lambda: eval_e_direct(m, lams), n) <= bound

    def test_eval_z(self):
        n, cols = 200, 24
        grid = make_grid(n)
        r = TriangularField.constant(grid, 1.0)
        lams = np.linspace(-17.0, 17.0, cols) - 0.4j
        e = eval_e_direct(family_fields(grid)["structured"], lams)
        psi = e[::-1].copy()
        assert _peak_fields(lambda: eval_z(r, psi, e), n) <= 0.5

    COMPUTE_G_FIELDS = {200: 2.8, 400: 2.5}

    @pytest.mark.parametrize("n", [200, 400])
    def test_compute_g(self, n):
        m = family_fields(make_grid(n))["structured"]
        assert _peak_fields(lambda: compute_g(m), n) <= self.COMPUTE_G_FIELDS[n]

    @pytest.mark.parametrize("n", [200, 400])
    def test_forward(self, tmp_path, n):
        # the G CSV writer sizes its blocks by the grid, to about two fields
        p = {"kind": "analytic", "family": "trig", "coeffs": [[0.3, 1, 0.5], [0.25, 2, 1.0]]}
        r = {"kind": "analytic", "family": "trig", "coeffs": [[1.0, 0, 0], [0.2, 0, 1]]}
        m0 = {"kind": "analytic", "family": "polynomial", "coeffs": [[0.05, 0, 0], [0.03, 1, 0]]}
        run = cli._parse({"grid_n": n, "kernel": {"m0": m0, "components": [{"r": r, "p": p}]}},
                         "forward", None)
        peak = _peak_fields(lambda: cli.cmd_forward("0" * 64, tmp_path, None, **run), n)
        assert peak <= 1.0 + self.COMPUTE_G_FIELDS[n]

    SERIES_G_FIELDS = {200: 1.6, 400: 1.3}

    @pytest.mark.parametrize("n", [200, 400])
    def test_build_g_series(self, n):
        m = _difference_kernel(n, lambda x: 0.3 * np.sin(x + 0.5) + 0.25 * np.sin(2 * x + 1.0))
        assert build_g(m).build == "series"
        assert _peak_fields(lambda: build_g(m), n) <= self.SERIES_G_FIELDS[n]

    @pytest.mark.parametrize("n", [200, 400])
    def test_forward_difference_kernel(self, tmp_path, n):
        # M = P(x - t): G is the series' and the G CSV writer holds the peak
        zero, one = ({"kind": "analytic", "family": "constant", "coeffs": [c]} for c in (0.0, 1.0))
        p = {"kind": "analytic", "family": "trig", "coeffs": [[0.3, 1, 0.5], [0.25, 2, 1.0]]}
        run = cli._parse({"grid_n": n, "kernel": {"m0": zero, "components": [{"r": one, "p": p}]}},
                         "forward", None)
        peak = _peak_fields(lambda: cli.cmd_forward("0" * 64, tmp_path, None, **run), n)
        assert json.loads((tmp_path / "forward_report.json").read_text())["g_build"] == "series"
        assert peak <= 1.0 + self.COMPUTE_G_FIELDS[n]

    def test_spectrum_difference_kernel(self, tmp_path):
        # m0 and r are constants: each row is summed from M's N + 1
        # difference samples, and the search reads the two rows, so no field
        # of either grid is formed
        zero, one = ({"kind": "analytic", "family": "constant", "coeffs": [c]} for c in (0.0, 1.0))
        p = {"kind": "analytic", "family": "trig", "coeffs": [[0.3, 1, 0.5], [0.25, 2, 1.0]]}
        n = 400
        run = cli._parse({"grid_n": n, "extrapolate": True,
                          "kernel": {"m0": zero, "components": [{"r": one, "p": p}]},
                          "window": {"re_min": -20.0, "re_max": 20.0, "im_min": -8.0, "im_max": 0.5}},
                         "spectrum", None)
        peak = _peak_fields(lambda: cli.cmd_spectrum("0" * 64, tmp_path, None, **run), 2 * n)
        assert json.loads((tmp_path / "spectrum.json").read_text())["g_row"] == "series"
        assert peak < 0.1

    def test_assemble_z_kernel(self):
        n = 200
        grid = make_grid(n)
        g = compute_g(family_fields(grid)["structured"]).g
        r = TriangularField.from_function(grid, lambda x, t: 1.0 + 0.2 * np.cos(t))
        assemble_z_kernel(g, g, r)  # fills numpy's FFT plan cache, which is no working memory
        assert _peak_fields(lambda: assemble_z_kernel(g, g, r), n) <= 5.0


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
        # the march (blocks of ROW_BLOCK rows) and the certifying Picard
        # update leave every entry above the diagonal at +0.0, bit for bit,
        # so compute_g's final np.tril changes no value
        m = TriangularField(make_grid(n), _random_lower(np.random.default_rng(seed), n + 1, amp))
        g1 = picard_g1(m)
        march = _march(m.values, g1.values, m.grid.step)
        update = picard_step(m, TriangularField(m.grid, march),
                             TriangularField(m.grid, g1.values.copy())).values
        zeros = np.zeros_like(march).tobytes()
        for g in (g1.values, march, update):
            assert np.triu(g, 1).tobytes() == zeros

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
    def test_g_is_g1_plus_one_picard_step(self, n, seed, amp):
        # compute_g streams the update into G1's buffer; the sums are those
        # of adding a whole Picard step to G1
        m = TriangularField(make_grid(n), _random_lower(np.random.default_rng(seed), n + 1, amp))
        g = compute_g(m).g.values
        march = TriangularField(m.grid, _march(m.values, picard_g1(m).values, m.grid.step))
        assert g.tobytes() == (picard_g1(m).values + _step(m, march).values).tobytes()

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
        residual = g - picard_g1(m).values - _step(m, tk.g).values
        assert np.abs(residual).max() < tk.tol


class TestMarchRows:
    """Both marches, iterating quadrature.march_rows, against the blocked
    loops each wrote out before (tests/oracles.py): G and e bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 130), st.sampled_from(CHUNK_EDGES)),
        seed=st.integers(0, 2**32 - 1),
        amp=st.sampled_from([1e-3, 1.0, 5.0]),
    )
    @example(n=ROW_BLOCK + 1, seed=0, amp=5.0)
    def test_g_march(self, n, seed, amp):
        m = TriangularField(make_grid(n), _random_lower(np.random.default_rng(seed), n + 1, amp))
        g1 = picard_g1(m).values
        got, ref = (f(m.values, g1, m.grid.step) for f in (_march, hand_blocked_march))
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 130), st.sampled_from(CHUNK_EDGES)),
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([None, 1, 5, 40]),  # None: a scalar lambda
    )
    @example(n=ROW_BLOCK + 1, seed=0, k=40)
    def test_e_march(self, n, seed, k):
        # K = 40 exceeds ROW_BLOCK, and N + 1 where N <= 38
        rng = np.random.default_rng(seed)
        m = TriangularField(make_grid(n), _random_lower(rng, n + 1, 2.0))
        lam = rng.uniform(-20.0, 20.0, k) + 1j * rng.uniform(-3.0, 1.0, k)
        lam = complex(lam) if k is None else lam
        got, ref = (np.ascontiguousarray(f(m, lam)) for f in (eval_e_direct, hand_blocked_e_march))
        assert got.shape == ref.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


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
            assert ref.values[i, j] == m.values[n - j, n - i]


class TestZKernelAssembly:
    def test_fft_length_matches_scipy(self):
        # the FFT sizes of the bilinear term are those scipy.fft would pick
        got = [_next_fast_len(n) for n in range(1, 2049)]
        assert got == [scipy.fft.next_fast_len(n) for n in range(1, 2049)]
        assert [_next_fast_len(n) for n in (101, 201, 401)] == [105, 210, 405]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    # the bilinear term runs rows 2 .. n and products over k = 1 .. i-1 in
    # chunks of ROW_BLOCK: n = 33, 34 end at and just past the first chunk
    @example(n=ROW_BLOCK + 1, seed=0)
    @example(n=ROW_BLOCK + 2, seed=1)
    @example(n=2 * ROW_BLOCK + 2, seed=2)
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

    @pytest.mark.parametrize("n", [33, 64, 100])
    @pytest.mark.parametrize("tilt", [0.0, 1.0])
    def test_bilinear_term_is_eval_z_on_row_spectra(self, n, tilt):
        # the bilinear term is eval_z's contraction with the row spectra of
        # k1 and k2 (diagonals halved) as its columns, one per frequency:
        # at k = 0 and k = i the halved end weights of eval_z meet column 0
        # of k1 or row 0 of k2, both zero
        grid = make_grid(n)
        rng = np.random.default_rng(n)
        r = TriangularField.from_function(
            grid, lambda x, t: 1.0 + tilt * (0.2 * np.cos(t) + 0.1 * x))
        k1, k2 = (TriangularField(grid, _random_lower(rng, n + 1, 1.0)) for _ in range(2))
        k1.values[:, 0] = k2.values[:, 0] = 0.0
        zero = TriangularField.zeros(grid)
        full = assemble_z_kernel(k1, k2, r)[1].values
        term3 = (full - assemble_z_kernel(k1, zero, r)[1].values
                 - assemble_z_kernel(zero, k2, r)[1].values)
        f1, f2 = (np.fft.fft(np.tril(k.values, -1) + 0.5 * np.diag(np.diagonal(k.values)),
                             2 * (n + 1), axis=1) for k in (k1, k2))
        ref = np.fft.ifft(grid.step * eval_z(r, f1[::-1], f2), axis=1)[:, : n + 1]
        below = np.tril(np.ones((n + 1, n + 1), dtype=bool), -1)
        below[:, 0] = False
        assert np.abs(term3 - ref)[below].max() <= 1e-14 * np.abs(full).max()

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
