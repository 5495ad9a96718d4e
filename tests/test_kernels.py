import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idospec.quadrature import PI, Profile, TriangularField, make_grid
from idospec.kernels import (
    ComponentCountError,
    KernelComponent,
    StructuredKernel,
    assemble_kernel,
    check_B_nonvanishing,
    compute_B,
    field_from_family,
    profile_from_family,
    truncate_kernel,
)
from idospec.transform import assemble_z_kernel

from oracles import integrate_nodes


def one_component(grid, r_fun, p_fun):
    return KernelComponent(
        TriangularField.from_function(grid, r_fun),
        Profile.from_function(grid, p_fun),
    )


class TestAssemble:
    def test_unit_component(self, grid50):
        sk = StructuredKernel(
            TriangularField.zeros(grid50),
            (one_component(grid50, lambda x, t: 1.0 + 0 * x, lambda x: 1.0 + 0 * x),),
        )
        m = assemble_kernel(sk)
        tri = np.tril_indices(grid50.n_nodes)
        assert np.allclose(m.values[tri], 1.0)

    def test_m0_only(self, grid50):
        sk = StructuredKernel(TriangularField.constant(grid50, 2.5), ())
        m = assemble_kernel(sk)
        assert np.array_equal(m.values, TriangularField.constant(grid50, 2.5).values)

    def test_shift_profile(self, grid50):
        sk = StructuredKernel(
            TriangularField.zeros(grid50),
            (one_component(grid50, lambda x, t: 1.0 + 0 * x, lambda x: x),),
        )
        m = assemble_kernel(sk)
        x = grid50.nodes[:, None]
        t = grid50.nodes[None, :]
        assert np.abs(m.values - np.tril(x - t)).max() < 1e-13

    def test_linear_in_profile(self, grid50):
        comp = one_component(grid50, lambda x, t: 1.0 + 0.5 * t, np.sin)
        doubled = KernelComponent(comp.r, Profile(grid50, 2.0 * comp.p.values))
        m0 = TriangularField.constant(grid50, 0.2)
        m1 = assemble_kernel(StructuredKernel(m0, (comp,)))
        m2 = assemble_kernel(StructuredKernel(m0, (doubled,)))
        assert np.abs((m2.values - m0.values) - 2.0 * (m1.values - m0.values)).max() < 1e-13

    def test_component_bound(self, grid50):
        comps = tuple(
            one_component(grid50, lambda x, t: 1.0 + 0 * x, np.sin) for _ in range(9)
        )
        with pytest.raises(ComponentCountError):
            StructuredKernel(TriangularField.zeros(grid50), comps)


class TestTruncate:
    def setup_method(self):
        grid = make_grid(10)
        self.sk = StructuredKernel(
            TriangularField.constant(grid, 1.0),
            tuple(
                one_component(grid, lambda x, t: float(j) + 0 * x, np.cos)
                for j in range(1, 4)
            ),
        )

    def test_zero_keeps_m0(self):
        tk = truncate_kernel(self.sk, 0)
        assert tk.p_count == 0
        assert tk.m0 is self.sk.m0

    def test_full_is_identity(self):
        tk = truncate_kernel(self.sk, 3)
        assert tk.components == self.sk.components
        assert np.array_equal(
            assemble_kernel(tk).values, assemble_kernel(self.sk).values
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_truncation_composes(self, data):
        grid = make_grid(4)
        p = data.draw(st.integers(0, 8))
        k = data.draw(st.integers(0, p))
        j = data.draw(st.integers(0, k))
        sk = StructuredKernel(
            TriangularField.constant(grid, 1.0),
            tuple(one_component(grid, lambda x, t: 0 * x + c, np.cos) for c in range(p)),
        )
        twice = truncate_kernel(truncate_kernel(sk, k), j)
        once = truncate_kernel(sk, j)
        assert twice.m0 is once.m0 is sk.m0
        assert len(twice.components) == len(once.components) == j
        assert all(a is b for a, b in zip(twice.components, once.components))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            truncate_kernel(self.sk, 4)
        with pytest.raises(ValueError):
            truncate_kernel(self.sk, -1)


def _compute_B_loop(r):
    """Row-by-row trapezoid of r(pi - t, x - t), the reference oracle for compute_B."""
    grid = r.grid
    n = grid.n_intervals
    vals = np.zeros(grid.n_nodes, dtype=complex)
    for i in range(1, grid.n_nodes):
        k = np.arange(i + 1)
        vals[i] = integrate_nodes(r.values[n - k, i - k], grid, 0, i)
    return vals


class TestComputeB:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    def test_matches_row_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(n)
        vals = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        r = TriangularField(grid, np.tril(vals))
        b = compute_B(r)
        ref = _compute_B_loop(r)
        assert b.values[0] == 0.0
        assert np.abs(b.values - ref).max() <= 1e-13 * np.abs(ref).max()
        z = TriangularField.zeros(grid)
        assert np.array_equal(assemble_z_kernel(z, z, r)[0].values, b.values)

    def test_unit_r_gives_identity(self, grid100):
        r = TriangularField.constant(grid100, 1.0)
        b = compute_B(r)
        assert np.abs(b.values - grid100.nodes).max() < 1e-12

    def test_linear_r_closed_form(self, grid100):
        # r(x,t) = t  ->  B(x) = int_0^x (x - t) dt = x^2 / 2
        r = TriangularField.from_function(grid100, lambda x, t: t + 0 * x)
        b = compute_B(r)
        assert np.abs(b.values - grid100.nodes**2 / 2).max() < 1e-12

    def test_b_at_zero(self, grid100):
        r = TriangularField.from_function(grid100, lambda x, t: np.cos(x) + t)
        assert compute_B(r).values[0] == 0.0


class TestCheckB:
    def test_positive(self, grid50):
        b = Profile(grid50, grid50.nodes.astype(complex))
        assert check_B_nonvanishing(b, 1e-8)

    def test_sign_change(self, grid100):
        # r(x,t) = t - 1 -> B(x) = x^2/2 - x, zero at x = 2
        r = TriangularField.from_function(grid100, lambda x, t: t - 1.0 + 0 * x)
        assert not check_B_nonvanishing(compute_B(r))

    def test_zero_profile(self, grid50):
        assert not check_B_nonvanishing(Profile.zeros(grid50), 1e-8)


class TestFamilies:
    def test_constant_field(self, grid50):
        f = field_from_family(grid50, "constant", [0.7])
        assert f.at(5, 3) == 0.7

    def test_polynomial_field(self, grid50):
        f = field_from_family(grid50, "polynomial", [[1.0, 1, 0], [-1.0, 0, 1]])
        x, t = grid50.nodes[4], grid50.nodes[2]
        assert abs(f.at(4, 2) - (x - t)) < 1e-13

    def test_trig_profile(self, grid50):
        p = profile_from_family(grid50, "trig", [[1.0, 1.0, 0.0]])
        assert np.abs(p.values - np.sin(grid50.nodes)).max() < 1e-13

    def test_unknown_family(self, grid50):
        with pytest.raises(ValueError):
            field_from_family(grid50, "wavelet", [1.0])
