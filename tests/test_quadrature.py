import numpy as np
import pytest

from idospec.quadrature import (
    PI,
    Profile,
    TriangularField,
    TriangleIndexError,
    interp_profile,
    make_grid,
    volterra_apply,
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


class TestInterpProfile:
    def test_linear_reproduced(self):
        g = make_grid(20)
        p = Profile(g, g.nodes.astype(complex))
        assert abs(interp_profile(p, 0.3) - 0.3) < 1e-14

    def test_node_exact(self):
        g = make_grid(9)
        p = Profile.from_function(g, np.cos)
        for k in (0, 3, 9):
            assert interp_profile(p, g.nodes[k]) == p.values[k]

    def test_out_of_range(self):
        g = make_grid(4)
        p = Profile.zeros(g)
        with pytest.raises(ValueError):
            interp_profile(p, -0.1)
        with pytest.raises(ValueError):
            interp_profile(p, PI + 0.1)

    def test_affine_exact_everywhere(self):
        g = make_grid(13)
        p = Profile.from_function(g, lambda x: 2.0 * x - 0.7)
        for x in np.linspace(0, PI, 37):
            assert abs(interp_profile(p, x) - (2.0 * x - 0.7)) < 1e-12


class TestTriangularField:
    def test_upper_access_rejected(self):
        g = make_grid(5)
        f = TriangularField.constant(g, 1.0)
        assert f.at(3, 2) == 1.0
        with pytest.raises(TriangleIndexError):
            f.at(2, 3)

    def test_shape_checked(self):
        g = make_grid(5)
        with pytest.raises(ValueError):
            TriangularField(g, np.zeros((4, 4), dtype=complex))

    def test_from_function_lower_triangular(self):
        g = make_grid(6)
        f = TriangularField.from_function(g, lambda x, t: x + t)
        assert np.all(f.values[np.triu_indices(7, k=1)] == 0)


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
