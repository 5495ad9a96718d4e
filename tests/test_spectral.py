import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idospec.quadrature import PI, TriangularField, make_grid
from idospec.transform import TransformKernel, compute_g
from idospec.spectral import (
    BoundaryNearZeroError,
    DeltaEvaluator,
    PhaseTrackingError,
    SearchWindow,
    SpectrumOptions,
    _rect_boundary,
    char_delta,
    char_delta_deriv,
    eval_e_direct,
    eval_e_via_g,
    eval_psi,
    eval_z,
    eval_z_decomposed,
    find_spectrum,
)
from idospec.transform import assemble_z_kernel, reflected_kernel

from conftest import LAMBDA_SET_10, mild_family_fields
from oracles import (
    char_delta_direct,
    constant_kernel_delta,
    constant_kernel_e,
    find_spectrum_reflected,
    oracle_roots_in_window,
)


def constant_field(n, c=1.0):
    return TriangularField.constant(make_grid(n), c)


# Node-by-node forms of psi and z, kept as reference oracles for the
# reflected forward march and the Volterra product in idospec.spectral.
def _eval_psi_march(m, lam):
    """Backward march of the adjoint-type equation with psi(pi) = 1."""
    grid = m.grid
    n = grid.n_nodes
    h = grid.step
    x = grid.nodes
    mv = m.values
    ex = np.exp(1j * lam * (x - np.pi))
    phase = np.exp(-1j * lam * x)
    psi = np.empty(n, dtype=complex)
    tail = np.zeros(n, dtype=complex)  # tail[k] = integral of m(., x_k) psi over [x_k, pi]
    psi[n - 1] = 1.0
    for i in range(n - 2, -1, -1):
        guess = psi[i + 1]
        col = mv[i:, i]
        g_known = phase[i + 1 :] * tail[i + 1 :]
        base = g_known.sum() - 0.5 * g_known[-1]
        for _ in range(2):
            psi[i] = guess
            ti = h * (np.dot(col, psi[i:]) - 0.5 * (col[0] * psi[i] + col[-1] * psi[-1]))
            s = np.exp(1j * lam * x[i]) * h * (base + 0.5 * phase[i] * ti)
            guess = ex[i] + 1j * s
        psi[i] = guess
        tail[i] = h * (np.dot(col, psi[i:]) - 0.5 * (col[0] * psi[i] + col[-1] * psi[-1]))
    return psi


def _eval_z_loop(r, m, m_tilde, lam):
    """Row-by-row trapezoid of r(pi-t, x-t) w(t) e_tilde(x-t), w(t) = psi(pi-t)."""
    grid = r.grid
    n = grid.n_intervals
    h = grid.step
    w = _eval_psi_march(m, lam)[::-1]
    et = eval_e_direct(m_tilde, lam)
    z = np.zeros(grid.n_nodes, dtype=complex)
    for i in range(1, grid.n_nodes):
        k = np.arange(i + 1)
        f = r.values[n - k, i - k] * w[k] * et[i - k]
        z[i] = h * (f.sum() - 0.5 * (f[0] + f[-1]))
    return z


def _random_field(rng, grid):
    n = grid.n_nodes
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return TriangularField(grid, np.tril(vals))


def _rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestMarchesMatchLoops:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 64),
        seed=st.integers(0, 2**32 - 1),
        lams=st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-2.0, 1.0)), min_size=1, max_size=6
        ),
    )
    def test_random_complex_fields(self, n, seed, lams):
        rng = np.random.default_rng(seed)
        grid = make_grid(n)
        r, m, mt = (_random_field(rng, grid) for _ in range(3))
        lams = np.array([complex(re, im) for re, im in lams])

        # one batched march per kernel; column k must match the scalar march
        # and the loop oracles at lams[k]
        e, psi, et = eval_e_direct(m, lams), eval_psi(m, lams), eval_e_direct(mt, lams)
        z = eval_z(r, psi, et)
        assert e.shape == psi.shape == z.shape == (n + 1, lams.size)
        for k, lam in enumerate(lams):
            assert _rel_err(e[:, k], eval_e_direct(m, lam)) <= 1e-13

            assert psi[-1, k] == 1.0
            assert _rel_err(psi[:, k], eval_psi(m, lam)) <= 1e-13
            assert _rel_err(psi[:, k], _eval_psi_march(m, lam)) <= 1e-13

            assert z[0, k] == 0.0
            assert _rel_err(z[:, k], _eval_z_loop(r, m, mt, lam)) <= 1e-13


@pytest.fixture(scope="module")
def g_const_200(g_cache):
    return g_cache("const1", 200, lambda grid: TriangularField.constant(grid, 1.0))


@pytest.fixture(scope="module")
def g_const_400(g_cache):
    return g_cache("const1", 400, lambda grid: TriangularField.constant(grid, 1.0))


class TestForwardSolutions:
    @pytest.mark.parametrize("lam", [0.0, 1.0 + 0.0j, -2.0 - 0.5j, 0.5 + 0.25j])
    def test_zero_kernel_is_exponential(self, grid100, lam):
        e = eval_e_direct(TriangularField.zeros(grid100), lam)
        assert np.abs(e - np.exp(-1j * lam * grid100.nodes)).max() < 1e-12

    @pytest.mark.parametrize("lam", [0.5, -1.5 - 0.5j, 2.0 - 1.0j])
    def test_constant_kernel_oracle(self, lam):
        m = constant_field(200)
        e = eval_e_direct(m, lam)
        ref = constant_kernel_e(make_grid(200).nodes, lam)
        assert np.abs(e - ref).max() < 2e-3

    def test_initial_value(self, grid100):
        e = eval_e_direct(mild_family_fields(grid100)["trig"], 1.3 - 0.2j)
        assert e[0] == 1.0

    def test_psi_terminal_value(self, grid100):
        psi = eval_psi(mild_family_fields(grid100)["trig"], 0.7 + 0.1j)
        assert psi[-1] == 1.0

    @pytest.mark.parametrize("name", ["constant", "polynomial", "structured"])
    def test_two_representations_agree(self, grid100, name, g_cache):
        m = mild_family_fields(grid100)[name]
        tk = g_cache(f"mild-{name}", 100, lambda grid: mild_family_fields(grid)[name])
        for lam in LAMBDA_SET_10:
            direct = eval_e_direct(m, lam)
            via_g = eval_e_via_g(tk, lam)
            assert np.abs(direct - via_g).max() < 2e-3


class TestCharDelta:
    def test_matches_endpoint_of_e(self, g_const_200):
        for lam in (0.3, -1.0 - 0.5j):
            assert abs(char_delta(g_const_200, lam) - eval_e_via_g(g_const_200, lam)[-1]) < 1e-12

    def test_vectorized_matches_scalar(self, g_const_200):
        lams = np.array([0.1 + 0j, -2.0 - 1j, 3.0 + 0.2j])
        vec = char_delta(g_const_200, lams)
        for lam, v in zip(lams, vec):
            assert abs(char_delta(g_const_200, complex(lam)) - v) < 1e-14

    def test_oracle_convergence(self):
        lams = [0.5 + 0j, -1.5 - 0.5j, 2.0 + 0.25j]
        errs = []
        for n in (100, 200):
            tk = compute_g(constant_field(n))
            errs.append(max(
                abs(char_delta(tk, lam) - constant_kernel_delta(lam)) for lam in lams
            ))
        assert errs[1] < 3e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)

    def test_prime_matches_finite_difference(self, g_const_200):
        h = 1e-5
        for lam in (0.7 + 0j, -1.2 - 0.4j):
            fd = (char_delta(g_const_200, lam + h) - char_delta(g_const_200, lam - h)) / (2 * h)
            assert abs(char_delta_deriv(g_const_200, lam, order=1) - fd) < 1e-7

    def test_second_derivative_finite_difference(self, g_const_200):
        lam = 0.4 - 0.3j
        h = 1e-4
        fd = (
            char_delta(g_const_200, lam + h)
            - 2 * char_delta(g_const_200, lam)
            + char_delta(g_const_200, lam - h)
        ) / h**2
        assert abs(char_delta_deriv(g_const_200, lam, order=2) - fd) < 1e-5


class TestExtrapolatedDelta:
    def test_grid_ratio_enforced(self, g_const_200):
        with pytest.raises(ValueError):
            DeltaEvaluator(g_const_200, g_const_200)

    def test_fourth_order_accuracy(self, g_const_200, g_const_400):
        ev = DeltaEvaluator(g_const_200, g_const_400)
        lams = np.array([0.5 + 0j, -1.5 - 0.5j, 2.0 + 0.25j])
        vals = ev(lams)
        for lam, v in zip(lams, vals):
            assert abs(v - constant_kernel_delta(complex(lam))) < 5e-7

    def test_deriv_extrapolates_too(self, g_const_200, g_const_400):
        ev = DeltaEvaluator(g_const_200, g_const_400)
        lam = 0.8 - 0.2j
        h = 1e-5
        fd = (ev(np.array([lam + h]))[0] - ev(np.array([lam - h]))[0]) / (2 * h)
        assert abs(ev.deriv(lam) - fd) < 1e-7


class TestDeltaEvaluator:
    """Delta and Delta', plain and extrapolated, equal in value and scalar type
    to one char_delta_deriv call, and within rounding of the formulas written
    out: the direct sum, and (4 * fine - coarse) / 3 of direct sums."""

    LAMS = np.array([0.3 + 0j, -1.7 - 0.6j, 2.2 + 0.1j, -4.0 - 3.0j])

    def test_plain_matches_formula(self, g_const_200):
        ev = DeltaEvaluator(g_const_200)
        vals = ev(self.LAMS)
        assert np.array_equal(vals, char_delta_deriv(g_const_200, self.LAMS))
        derivs = []
        for lam in self.LAMS:
            got, want = ev(lam), char_delta_deriv(g_const_200, lam)
            assert type(got) is type(want) and got == want
            got, want = ev.deriv(lam), char_delta_deriv(g_const_200, lam, order=1)
            assert type(got) is type(want) and got == want
            derivs.append(got)
        for order, got in ((0, vals), (1, np.array(derivs))):
            want, scale = char_delta_direct(g_const_200, self.LAMS, order)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert ev.evals == 2 * self.LAMS.size
        assert ev.deriv_evals == self.LAMS.size

    def test_extrapolated_matches_formula(self, g_const_200, g_const_400):
        ev = DeltaEvaluator(g_const_200, g_const_400)
        vals = ev(self.LAMS)
        assert np.array_equal(
            vals, char_delta_deriv(g_const_200, self.LAMS, 0, g_const_400)
        )
        derivs = []
        for lam in self.LAMS:
            got, want = ev(lam), char_delta_deriv(g_const_200, lam, 0, g_const_400)
            assert type(got) is complex and got == want
            got, want = ev.deriv(lam), char_delta_deriv(g_const_200, lam, 1, g_const_400)
            assert type(got) is complex and got == want
            derivs.append(got)
        for order, got in ((0, vals), (1, np.array(derivs))):
            fine, s_fine = char_delta_direct(g_const_400, self.LAMS, order)
            coarse, s_coarse = char_delta_direct(g_const_200, self.LAMS, order)
            want = (4.0 * fine - coarse) / 3.0
            assert np.all(np.abs(got - want) <= 1e-13 * (4.0 * s_fine + s_coarse) / 3.0)
        assert ev.evals == 2 * self.LAMS.size
        assert ev.deriv_evals == self.LAMS.size


def _random_tail_kernel(n, rng):
    """A TransformKernel on n intervals whose last row is random (G[N, 0] = 0).

    Delta reads only that row, so the rest stays zero.
    """
    values = np.zeros((n + 1, n + 1), dtype=complex)
    values[-1, 1:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return TransformKernel(TriangularField(make_grid(n), values), np.zeros(1), 1, 0.0)


class TestBlockedPolynomial:
    """char_delta_deriv sums blocks of powers of q = exp(-i lambda h); the
    direct sum with one exponential per node is the reference. Rounding is
    measured against the carrier plus the sum of |c_j| |q^j|."""

    @pytest.mark.parametrize("n", [2, 3, 7, 16, 100, 101, 400, 800])
    def test_blocked_matches_direct(self, n):
        rng = np.random.default_rng(n)
        g, g_fine = _random_tail_kernel(n, rng), _random_tail_kernel(2 * n, rng)
        re = np.linspace(-n, n, 21)
        im = np.linspace(-8.0, 8.0, 9)
        lams = (re[:, None] + 1j * im[None, :]).ravel()
        for order in range(3):
            want, scale = char_delta_direct(g, lams, order)
            got = char_delta_deriv(g, lams, order)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

            fine, s_fine = char_delta_direct(g_fine, lams, order)
            got = char_delta_deriv(g, lams, order, g_fine)
            want = (4.0 * fine - want) / 3.0
            assert np.all(np.abs(got - want) <= 1e-13 * (4.0 * s_fine + scale) / 3.0)


class TestZeroKernel:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 64),
        re=st.floats(-20.0, 20.0),
        im=st.floats(-8.0, 8.0),
    )
    def test_delta_is_exponential(self, n, re, im):
        g = compute_g(TriangularField.zeros(make_grid(n)))
        lam = complex(re, im)
        want = np.exp(-1j * lam * PI)
        assert abs(char_delta(g, lam) - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n", [2, 7, 50])
    def test_extrapolated_delta_is_the_carrier(self, n):
        g, g_fine = (compute_g(TriangularField.zeros(make_grid(k))) for k in (n, 2 * n))
        lams = np.array([0.0, 1.5 - 2.0j, -3.25 + 0.5j])
        want = np.exp(-1j * lams * PI)
        assert np.array_equal(char_delta_deriv(g, lams, 0, g_fine), want)


class TestFindSpectrum:
    def test_zero_kernel_empty_spectrum(self, grid100):
        tk = compute_g(TriangularField.zeros(grid100))
        spec = find_spectrum(tk, SearchWindow(-3.0, 3.0, -2.0, 2.0))
        assert spec.total_count == 0
        assert spec.eigenvalues == ()

    def test_constant_kernel_matches_oracle(self, g_const_200):
        window = SearchWindow(-6.0, 6.0, -6.0, 0.5)
        spec = find_spectrum(g_const_200, window)
        oracle = oracle_roots_in_window(-6.0, 6.0, -6.0, 0.5)
        assert spec.total_count == len(oracle)
        for ev, ref in zip(spec.eigenvalues, oracle):
            assert ev.multiplicity == 1
            assert ev.newton_converged
            assert abs(ev.value - ref) < 2e-3

    def test_sorted_by_real_part(self, g_const_200):
        spec = find_spectrum(g_const_200, SearchWindow(-6.0, 6.0, -6.0, 0.5))
        reals = [ev.value.real for ev in spec.eigenvalues]
        assert reals == sorted(reals)

    def test_residuals_small(self, g_const_200):
        spec = find_spectrum(g_const_200, SearchWindow(-6.0, 6.0, -6.0, 0.5))
        for ev in spec.eigenvalues:
            assert ev.residual < 1e-9

    def test_boundary_through_root_rejected(self, g_const_200):
        spec = find_spectrum(g_const_200, SearchWindow(-6.0, 6.0, -6.0, 0.5))
        root = spec.eigenvalues[0].value
        # a window corner sitting exactly on a zero must be refused loudly
        bad = SearchWindow(root.real, root.real + 2.0, root.imag, root.imag + 2.0)
        with pytest.raises((BoundaryNearZeroError, PhaseTrackingError)):
            find_spectrum(g_const_200, bad)

    def test_evaluator_interface(self, g_const_200, g_const_400):
        ev = DeltaEvaluator(g_const_200, g_const_400)
        window = SearchWindow(-6.0, 6.0, -6.0, 0.5)
        spec = find_spectrum(ev, window)
        oracle = oracle_roots_in_window(-6.0, 6.0, -6.0, 0.5)
        assert spec.total_count == len(oracle)
        for got, ref in zip(spec.eigenvalues, oracle):
            assert abs(got.value - ref) < 1e-6

    def test_reflected_spectrum_close(self, grid100):
        m = TriangularField.constant(grid100, 1.0)
        window = SearchWindow(-6.0, 6.0, -6.0, 0.5)
        direct = find_spectrum(compute_g(m), window)
        refl = find_spectrum_reflected(m, window)
        assert refl.total_count == direct.total_count
        for a, b in zip(direct.eigenvalues, refl.eigenvalues):
            assert abs(a.value - b.value) < 1e-2


WIDE = (-20.0, 20.0, -8.0, 0.5)


def _assert_matches_oracle(spec, window, c, tol):
    """Found roots match the closed-form roots one-to-one within tol.

    Oracle roots on the window grown by tol are candidates; each found root
    claims its nearest one, and every oracle root farther than tol inside
    the edge must be claimed (one within tol of the edge may be found or not).
    """
    re0, re1, im0, im1 = window
    oracle = np.array(oracle_roots_in_window(re0 - tol, re1 + tol, im0 - tol, im1 + tol, c=c))
    claimed = set()
    for ev in spec.eigenvalues:
        assert ev.multiplicity == 1 and ev.newton_converged
        dist = np.abs(oracle - ev.value)
        k = int(np.argmin(dist))
        assert dist[k] < tol and k not in claimed
        claimed.add(k)
    for k, z in enumerate(oracle):
        if re0 + tol < z.real < re1 - tol and im0 + tol < z.imag < im1 - tol:
            assert k in claimed


class TestConstantKernelProperty:
    # N=100 discretization error of roots near |Re lambda| = 20
    TOL = 2e-2

    @settings(max_examples=6, deadline=None)
    @given(c=st.floats(0.5, 2.0))
    def test_wide_window_matches_closed_form(self, c):
        spec = find_spectrum(compute_g(constant_field(100, c)), SearchWindow(*WIDE))
        _assert_matches_oracle(spec, WIDE, c, self.TOL)

    # These put a root 0.13 and 0.09 below the top edge. With 32 samples on
    # that 40-unit edge the carrier exp(-i lambda pi) turns 1.25 pi between
    # two samples and the root can add the rest of a whole turn, which the
    # phase tracking cannot see.
    @pytest.mark.parametrize("c, count", [(0.583873, 19), (1.772611, 18)])
    def test_root_just_below_the_top_edge(self, c, count):
        spec = find_spectrum(compute_g(constant_field(100, c)), SearchWindow(*WIDE))
        assert spec.total_count == count
        _assert_matches_oracle(spec, WIDE, c, self.TOL)

    def test_wide_window_eval_budget(self, g_const_200):
        ev = DeltaEvaluator(g_const_200)
        spec = find_spectrum(ev, SearchWindow(*WIDE))
        assert spec.total_count == 18
        # bisecting every root cell down to cell_size costs about 120k points
        assert ev.evals < 30_000


class PolyExp:
    """p(lambda) exp(a lambda) with p given by its roots: an entire function
    whose zeros and multiplicities are known exactly."""

    def __init__(self, roots, a=0.3j):
        self.roots = np.asarray(roots, dtype=complex)
        self.a = a
        self.evals = 0

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        self.evals += lam.size
        return np.prod(lam[..., None] - self.roots, axis=-1) * np.exp(self.a * lam)

    def deriv(self, lam):
        d = lam - self.roots
        dp = sum(np.prod(np.delete(d, k)) for k in range(d.size))
        return complex((dp + self.a * np.prod(d)) * np.exp(self.a * lam))


class TestSyntheticSearch:
    def test_double_root(self):
        double, simple = 0.3217 - 0.4123j, -1.1 + 0.27j
        spec = find_spectrum(PolyExp([double, double, simple]), SearchWindow(-2.0, 2.0, -1.0, 1.0))
        assert spec.total_count == 3
        (a, b) = spec.eigenvalues
        assert a.multiplicity == 1 and abs(a.value - simple) < 1e-12
        assert b.multiplicity == 2 and abs(b.value - double) < 1e-10

    def test_close_simple_roots(self):
        roots = [0.2 + 0.1j, 0.21 + 0.1j]
        spec = find_spectrum(PolyExp(roots), SearchWindow(-1.0, 1.0, -1.0, 1.0))
        assert [ev.multiplicity for ev in spec.eigenvalues] == [1, 1]
        for ev, ref in zip(spec.eigenvalues, roots):
            assert ev.newton_converged and abs(ev.value - ref) < 1e-12

    def test_escaping_newton_falls_back_to_bisection(self):
        root = 0.4 + 0.3j
        f = PolyExp([root], a=1.6 - 0.6j)
        window = SearchWindow(-1.0, 1.0, -1.0, 1.0)
        # the first Newton iterate from the window centre is 1.667j, outside
        first = 0.0 - f(np.asarray([0j]))[0] / f.deriv(0j)
        assert first.imag > window.im_max
        spec = find_spectrum(f, window)
        assert spec.total_count == 1
        (ev,) = spec.eigenvalues
        assert ev.multiplicity == 1 and ev.newton_converged
        assert abs(ev.value - root) < 1e-12

    def test_cut_through_a_zero_is_nudged(self):
        # the second root keeps the cell (-1.25, -1.0, 0.0, 0.5) at winding 2,
        # and its bisection at im = 0.25 passes through the first root; the
        # guard must reject that cut so _split_rect tries a nudged one
        roots = [-1.1 + 0.25j, -1.1 + 0.1j]
        spec = find_spectrum(PolyExp(roots), SearchWindow(-2.0, 2.0, -1.0, 1.0))
        assert spec.total_count == 2
        found = sorted((ev.value for ev in spec.eigenvalues), key=lambda z: z.imag)
        for got, ref in zip(found, sorted(roots, key=lambda z: z.imag)):
            assert abs(got - ref) < 1e-12

    def test_outer_boundary_sampled_once(self):
        rect = (-2.0, 2.0, -1.0, 1.0)
        outer = _rect_boundary(rect, SpectrumOptions().initial_edge_samples)
        batches = []

        class Recording(PolyExp):
            def __call__(self, lam):
                batches.append(np.array(lam, dtype=complex))
                return super().__call__(lam)

        find_spectrum(Recording([0.3 - 0.4j, -1.1 + 0.27j]), SearchWindow(*rect))
        assert sum(np.array_equal(b, outer) for b in batches) == 1


class GOnly:
    """Delta and Delta' of a DeltaEvaluator without access to its G, so
    find_spectrum has no companion candidates and subdivides."""

    def __init__(self, ev):
        self.ev = ev

    def __call__(self, lam):
        return self.ev(lam)

    def deriv(self, lam):
        return self.ev.deriv(lam)


def _smooth_kernel(n, coeffs):
    """M(x, t) = sum_k a_k cos(k x + b_k t + c_k), a smooth complex kernel."""
    def m(x, t):
        return sum(a * np.cos(k * x + b * t + c) for k, (a, b, c) in enumerate(coeffs))
    return TriangularField.from_function(make_grid(n), m)


class TestCompanionCandidates:
    WINDOW = SearchWindow(-7.3, 7.3, -4.1, 0.7)

    @settings(max_examples=25, deadline=None)
    @given(
        coeffs=st.lists(
            st.tuples(st.complex_numbers(max_magnitude=1.0), st.floats(-1.0, 1.0),
                      st.floats(0.0, 6.3)),
            min_size=1, max_size=3,
        ),
        extrapolate=st.booleans(),
    )
    def test_matches_subdivision(self, coeffs, extrapolate):
        n = 40
        g = compute_g(_smooth_kernel(n, coeffs))
        g_fine = compute_g(_smooth_kernel(2 * n, coeffs)) if extrapolate else None
        try:
            forced = find_spectrum(GOnly(DeltaEvaluator(g, g_fine)), self.WINDOW)
        except (BoundaryNearZeroError, PhaseTrackingError):
            return  # a zero on the window edge; no spectrum to compare
        spec = find_spectrum(DeltaEvaluator(g, g_fine), self.WINDOW)
        assert forced.stats.path == "subdivision" and forced.stats.candidates == 0
        assert spec.total_count == forced.total_count
        assert len(spec.eigenvalues) == len(forced.eigenvalues)
        for a, b in zip(spec.eigenvalues, forced.eigenvalues):
            assert a.multiplicity == b.multiplicity
            assert a.newton_converged == b.newton_converged
            assert abs(a.value - b.value) <= 1e-12

    def test_double_root_falls_back(self):
        # Delta(q) = q^(N-2) (q - a)^2 with q = exp(-i lambda h): one zero of
        # multiplicity 2 at lambda = i log(a) / h, which no set of distinct
        # simple zeros can certify. A coarse grid keeps |Delta| near the zero
        # above the guard, which scales with h^2 there.
        n, lam0 = 8, 0.3217 - 0.4123j
        grid = make_grid(n)
        a = np.exp(-1j * lam0 * grid.step)
        values = np.zeros((n + 1, n + 1), dtype=complex)
        values[-1, n - 1] = -2.0 * a / grid.step
        values[-1, n - 2] = a * a / grid.step
        g = TransformKernel(TriangularField(grid, values), np.zeros(1), 1, 0.0)
        spec = find_spectrum(g, SearchWindow(-1.0, 1.3, -1.7, 0.6))
        assert spec.stats.path == "subdivision"
        (ev,) = spec.eigenvalues
        assert ev.multiplicity == 2 and ev.newton_converged
        # a double zero is located to about the square root of the rounding
        assert abs(ev.value - 1j * np.log(a) / grid.step) < 1e-7


class TestZDecomposition:
    def test_pointwise_vs_kernel_form(self, grid100):
        fields = mild_family_fields(grid100)
        m = fields["structured"]
        mt = fields["polynomial"]
        r = TriangularField.from_function(grid100, lambda x, t: 1.0 + 0.2 * np.cos(t))
        k1 = compute_g(reflected_kernel(m))
        k2 = compute_g(mt)
        b, kk = assemble_z_kernel(k1.g, k2.g, r)
        for lam in (0.5, -1.0 - 0.5j, 1.5 + 0.25j):
            zd = eval_z(r, eval_psi(m, lam), eval_e_direct(mt, lam))
            zk = eval_z_decomposed(b, kk, lam)
            assert np.abs(zd - zk).max() < 2e-3

    def test_z_starts_at_zero(self, grid100):
        fields = mild_family_fields(grid100)
        lam = 0.9 - 0.1j
        z = eval_z(
            TriangularField.constant(grid100, 1.0),
            eval_psi(fields["constant"], lam), eval_e_direct(fields["trig"], lam),
        )
        assert z[0] == 0.0


class TestSearchWindow:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            SearchWindow(1.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            SearchWindow(-1.0, 1.0, 2.0, -2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        for k in range(4):
            bounds = [-1.0, 1.0, -1.0, 1.0]
            bounds[k] = bad
            with pytest.raises(ValueError):
                SearchWindow(*bounds)

    def test_dimensions(self):
        w = SearchWindow(-2.0, 4.0, -1.0, 0.5)
        assert w.width == 6.0
        assert w.height == 1.5
