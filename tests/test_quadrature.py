import numpy as np
import pytest

from idospec.quadrature import (
    PI,
    ROW_BLOCK,
    Profile,
    TriangularField,
    make_grid,
    march_rows,
    volterra_apply,
    zero_upper,
)

from oracles import integrate_nodes


class TestMakeGrid:
    def test_n2(self):
        g = make_grid(2)
        assert np.allclose(g.nodes, [0.0, PI / 2, PI])
        assert g.step == PI / 2

    def test_n4(self):
        g = make_grid(4)
        assert np.allclose(g.nodes, [0.0, PI / 4, PI / 2, 3 * PI / 4, PI])

    def test_endpoints_exact(self):
        g = make_grid(7)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == PI

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError):
            make_grid(n)


class TestIntegrateNodes:
    def test_constant(self):
        g = make_grid(64)
        val = integrate_nodes(np.ones(g.n_nodes), g, 0, g.n_intervals)
        assert abs(val - PI) < 1e-13

    def test_affine_exact(self):
        g = make_grid(17)
        val = integrate_nodes(g.nodes, g, 0, g.n_intervals)
        assert abs(val - PI**2 / 2) < 1e-12

    def test_quadratic_oracle(self):
        # closed-form antiderivative: int_0^pi x^2 dx = pi^3 / 3
        g = make_grid(200)
        val = integrate_nodes(g.nodes**2, g, 0, g.n_intervals)
        assert abs(val - PI**3 / 3) / (PI**3 / 3) < 1e-4

    def test_empty_range_is_exact_zero(self):
        g = make_grid(10)
        assert integrate_nodes(g.nodes, g, 4, 4) == 0.0

    def test_index_errors(self):
        g = make_grid(10)
        with pytest.raises(IndexError):
            integrate_nodes(np.ones(5), g, 0, 10)
        with pytest.raises(IndexError):
            integrate_nodes(np.ones(11), g, 5, 3)

    def test_second_order_convergence(self):
        f = lambda x: np.exp(x) * np.sin(2 * x)
        exact = None
        errs = []
        for n in (100, 200):
            g = make_grid(n)
            val = integrate_nodes(f(g.nodes), g, 0, n)
            # reference from a much finer grid
            gf = make_grid(3200)
            ref = integrate_nodes(f(gf.nodes), gf, 0, 3200)
            errs.append(abs(val - ref))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


class TestTriangularField:
    def test_shape_checked(self):
        g = make_grid(5)
        with pytest.raises(ValueError):
            TriangularField(g, np.zeros((4, 4), dtype=complex))

    def test_from_function_lower_triangular(self):
        g = make_grid(6)
        f = TriangularField.from_function(g, lambda x, t: x + t)
        assert np.all(f.values[np.triu_indices(7, k=1)] == 0)


class TestZeroUpper:
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_bitwise_equal_to_tril(self, n, dtype):
        # inf, NaN and signed zeros anywhere, above the diagonal included: a
        # product with a 0/1 mask would turn inf there into NaN and keep -0.0
        rng = np.random.default_rng(n)
        specials = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0])
        vals = np.zeros((n, n), dtype=dtype)
        parts = (vals.real, vals.imag) if dtype is complex else (vals,)
        for part in parts:
            part[...] = rng.standard_normal((n, n))
            pick = rng.random((n, n)) < 0.4
            part[pick] = rng.choice(specials, pick.sum())
        expect = np.tril(vals)
        assert zero_upper(vals) is vals
        assert vals.tobytes() == expect.tobytes()


class TestVolterraApply:
    def test_rows_match_integrate_nodes(self):
        grid = make_grid(12)
        rng = np.random.default_rng(3)
        n = grid.n_nodes
        vals = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = volterra_apply(vals, vec, grid.step)
        assert out[0] == 0.0
        for i in range(n):
            ref = integrate_nodes(vals[i, : i + 1] * vec[: i + 1], grid, 0, i)
            assert abs(out[i] - ref) < 1e-13

    def test_matrix_right_hand_side_is_columnwise(self):
        grid = make_grid(12)
        rng = np.random.default_rng(4)
        n = grid.n_nodes
        vals = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        vecs = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        out = volterra_apply(vals, vecs, grid.step)
        assert out.shape == (n, 3)
        for k in range(3):
            ref = volterra_apply(vals, vecs[:, k], grid.step)
            assert np.abs(out[:, k] - ref).max() < 1e-13


class TestMarchRows:
    @pytest.mark.parametrize("n", [2, 3, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2, 2 * ROW_BLOCK + 3])
    @pytest.mark.parametrize("lower", [True, False])
    def test_yields_each_rows_partial_sum(self, n, lower):
        # p[c] = h M[i, :i] @ v[:i, c] - h M[i, lo] v[lo, c] / 2, with lo = c
        # (v lower-triangular) or lo = 0, from the rows the caller wrote
        rng = np.random.default_rng(n)
        h, k = 0.1, n if lower else 3
        mv = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        full = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        v = np.zeros_like(full)
        if lower:
            full = np.tril(full)
            np.einsum("ii->i", v)[...] = np.diagonal(full)
        v[0] = full[0]
        rows = []
        for i, p in march_rows(mv, h, v, lower):
            cols = np.arange(i if lower else k)
            lo = cols if lower else np.zeros_like(cols)
            expect = h * (mv[i, :i] @ full[:i, cols]) - 0.5 * h * mv[i, lo] * full[lo, cols]
            assert np.abs(p - expect).max() <= 1e-13 * max(1.0, np.abs(expect).max())
            v[i, cols] = full[i, cols]
            rows.append(i)
        assert rows == list(range(1, n))
