import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idospec.quadrature import PI, Profile, TriangularField, as_field, lag_view, make_grid, zero_upper
from idospec.kernels import (
    COEFF_FORMATS,
    ComponentCountError,
    KernelComponent,
    StructuredKernel,
    assemble_kernel,
    check_B_nonvanishing,
    compute_B,
    field_from_family,
    profile_from_family,
    shifted_factor,
    shifted_rows,
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

    @pytest.mark.parametrize("count", [0, 1, 2])
    @pytest.mark.parametrize("n", [8, 33, 100])
    def test_bitwise_equal_to_copy_then_add(self, n, count):
        # M0 copied, each product added to it: the form the product-first
        # assembly replaced, on random samples with signed zeros in M0
        grid, rng = make_grid(n), np.random.default_rng(n + count)

        def sample(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        m0 = sample((n + 1, n + 1))
        m0.real[::3, ::2], m0.imag[1::4, ::3] = -0.0, -0.0
        comps = tuple(
            KernelComponent(TriangularField(grid, sample((n + 1, n + 1))), Profile(grid, sample(n + 1)))
            for _ in range(count)
        )
        m0_bytes = m0.tobytes()
        ref = m0.copy()
        for comp in comps:
            ref += comp.r.values * lag_view(comp.p.values)
        m = assemble_kernel(StructuredKernel(TriangularField(grid, m0), comps))
        assert m.values.tobytes() == zero_upper(ref).tobytes()
        assert m0.tobytes() == m0_bytes

    def test_component_bound(self, grid50):
        comps = tuple(
            one_component(grid50, lambda x, t: 1.0 + 0 * x, np.sin) for _ in range(9)
        )
        with pytest.raises(ComponentCountError):
            StructuredKernel(TriangularField.zeros(grid50), comps)


class TestShiftMatrix:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_entries_and_read_only(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s = lag_view(v)
        i, j = np.indices((n, n))
        below = i >= j
        assert np.array_equal(s[below], v[(i - j)[below]])
        assert np.all(s[~below] == 0.0)
        with pytest.raises(ValueError):
            s[n - 1, 0] = 1.0


class TestShiftedFactor:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 97), seed=st.integers(0, 2**32 - 1))
    def test_equals_one_shot_gather(self, n, seed):
        # R[i, k] = r[N - k, i - k] by one fancy index over the whole square;
        # for k > i it reads r's upper triangle, which is zero
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
        r = TriangularField(make_grid(n), np.tril(vals))
        idx = np.arange(n + 1)
        assert np.array_equal(shifted_factor(r), r.values[n - idx, idx[:, None] - idx])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 97), seed=st.integers(0, 2**32 - 1))
    def test_profile_rows_are_its_lifted_fields(self, n, seed):
        # rho(x - t) gives row i the value rho(pi - x_i) up to the diagonal,
        # bitwise the rows of its lifted field, for any block of rows
        rng = np.random.default_rng(seed)
        rho = Profile(make_grid(n), rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        i0 = int(rng.integers(0, n + 1))
        i1 = int(rng.integers(i0 + 1, n + 2))
        got, ref = (shifted_rows(r, i0, i1, np.full((i1 - i0, n + 1), np.nan, dtype=complex))[:, :i1]
                    for r in (rho, as_field(rho)))
        assert got.tobytes() == ref.tobytes()
        assert shifted_factor(rho).tobytes() == shifted_factor(as_field(rho)).tobytes()


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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 201), seed=st.integers(0, 2**32 - 1),
           shift=st.sampled_from([0.0, 2.0, -2.0]), imag=st.sampled_from([0.0, 1.0]))
    def test_profile_matches_its_field(self, n, seed, shift, imag):
        # a Profile rho, read as rho(x - t), gives the B of its field, with
        # the same decision; shift 0 makes a real rho change sign
        rng = np.random.default_rng(seed)
        grid = make_grid(n)
        r = Profile(grid, shift + rng.uniform(-1.0, 1.0, n + 1) + 1j * imag * rng.uniform(-1.0, 1.0, n + 1))
        b, ref = compute_B(r), compute_B(as_field(r))
        assert np.abs(b.values - ref.values).max() <= 1e-13 * np.abs(ref.values).max()
        assert check_B_nonvanishing(b) == check_B_nonvanishing(ref)

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
        assert check_B_nonvanishing(b)

    def test_sign_change(self, grid100):
        # r(x,t) = t - 1 -> B(x) = x^2/2 - x, zero at x = 2
        r = TriangularField.from_function(grid100, lambda x, t: t - 1.0 + 0 * x)
        assert not check_B_nonvanishing(compute_B(r))

    def test_zero_profile(self, grid50):
        # the threshold 1e-8 max|B| is 0 here, and no |B| exceeds it
        assert not check_B_nonvanishing(Profile.zeros(grid50))


class TestFamilies:
    def test_constant_field(self, grid50):
        f = field_from_family(grid50, "constant", [0.7])
        assert f.values[5, 3] == 0.7

    def test_polynomial_field(self, grid50):
        f = field_from_family(grid50, "polynomial", [[1.0, 1, 0], [-1.0, 0, 1]])
        x, t = grid50.nodes[4], grid50.nodes[2]
        assert abs(f.values[4, 2] - (x - t)) < 1e-13

    def test_trig_profile(self, grid50):
        p = profile_from_family(grid50, "trig", [[1.0, 1.0, 0.0]])
        assert np.abs(p.values - np.sin(grid50.nodes)).max() < 1e-13

    def test_unknown_family(self, grid50):
        with pytest.raises(ValueError):
            field_from_family(grid50, "wavelet", [1.0])

    @pytest.mark.parametrize("what, sample", [("field", field_from_family), ("profile", profile_from_family)])
    def test_coeff_formats_are_what_the_samplers_read(self, grid50, what, sample):
        # the sampler takes coeffs of each format at the format's bounds, and
        # refuses the families the table does not list
        for family, (count, row) in COEFF_FORMATS[what].items():
            entry = 0.5 if row is None else [0.5 if least is None else least for least in row]
            values = sample(grid50, family, [entry] * (count or 3)).values
            assert np.isfinite(values).all() and np.abs(values).max() > 0, family
        with pytest.raises(ValueError):
            sample(grid50, "wavelet", [0.5])
