import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import idospec.spectral
from idospec.quadrature import PI, Profile, TriangularField, as_field, make_grid
from idospec.transform import TransformKernel, compute_g
from idospec.spectral import (
    CLUSTER_BOX,
    BoundaryNearZeroError,
    DeltaEvaluator,
    PhaseTrackingError,
    INITIAL_EDGE_SAMPLES,
    SearchWindow,
    _rect_boundary,
    _rounding_radius,
    _winding_number,
    char_delta,
    char_delta_deriv,
    eval_e_direct,
    eval_e_via_g,
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
    delta_of,
    eval_psi,
    eval_z_columns,
    find_spectrum_reflected,
    find_spectrum_subdivision,
    oracle_roots_in_window,
    spectrum_of,
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


def _eval_e_march(m, lam):
    """Forward march of the e equation, two fixed-point sweeps per node."""
    h = m.grid.step
    mv = m.values
    ex = np.exp(-1j * lam * m.grid.nodes)
    phase = np.exp(1j * lam * m.grid.nodes)
    e = np.empty_like(ex)
    e[0] = 1.0
    known = 0.0  # sum of phase * f over the nodes before x_i

    def f(i):  # integral of m(x_i, .) e(.) over [0, x_i]
        row = mv[i, : i + 1]
        return h * (row @ e[: i + 1] - 0.5 * (row[0] * e[0] + row[i] * e[i]))

    for i in range(1, e.size):
        guess = e[i - 1]
        for _ in range(2):
            e[i] = guess
            guess = ex[i] + 1j * (ex[i] * h * (known + 0.5 * phase[i] * f(i)))
        e[i] = guess
        known = known + phase[i] * f(i)
    return e


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
        n=st.integers(2, 80),
        seed=st.integers(0, 2**32 - 1),
        lams=st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(-2.0, 1.0)), min_size=1, max_size=6
        ),
    )
    def test_blocked_march_matches_node_loop(self, n, seed, lams):
        # n crosses the 32-node blocks of the march: one partial block, one
        # full one, and several with a partial last block
        rng = np.random.default_rng(seed)
        m = _random_field(rng, make_grid(n))
        lams = np.array([complex(re, im) for re, im in lams])
        e = eval_e_direct(m, lams)
        for k, lam in enumerate(lams):
            assert _rel_err(e[:, k], _eval_e_march(m, lam)) <= 1e-13

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


def _random_columns(rng, n_nodes, n_cols):
    shape = (n_nodes, n_cols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


EPS = np.finfo(float).eps


def _assert_z_matches(z, r, psi, e_tilde):
    """z within the rounding of two summation orders of the column loop's z.

    Each entry is h times a sum over k <= i of at most n + 1 terms
    t_k = Rw[i, k] e_tilde[i-k] w[k], T = sum of |t_k|. Complex sums and
    products round as in Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sections 3.1 and 3.6, with u = eps / 2: a sum of
    m terms is off by at most gamma_(m-1) = (m - 1) u times the sum of their
    moduli, and a complex product by sqrt(2) gamma_2 times the product of
    the moduli. eval_z forms t_k with two complex products (its halvings
    are exact), sums them and multiplies by h: at most (n + 8) u T. The
    column loop sums the terms with full end weights (at most 2 T), then
    subtracts the halved end terms and multiplies by h: at most
    (2 n + 20) u T. Their difference is within (1.5 n + 14) eps T, which is
    at most 6 (n + 1) eps T for n >= 2: c = 6.
    """
    n = r.grid.n_intervals
    scale = eval_z_columns(r, psi, e_tilde, magnitudes=True)
    assert np.all(np.abs(z - eval_z_columns(r, psi, e_tilde)) <= 6 * (n + 1) * EPS * scale)


class TestEvalZContraction:
    """eval_z's blocked contraction against the column loop of tests/oracles.py."""

    @settings(max_examples=40, deadline=None)
    @given(
        # sizes at the edges of the 32-row blocks, and small ones
        n=st.sampled_from([31, 32, 33, 63, 64, 65, 97]) | st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        n_cols=st.integers(1, 6),
    )
    def test_matches_column_loop(self, n, seed, n_cols):
        rng = np.random.default_rng(seed)
        r = _random_field(rng, make_grid(n))
        psi, et = (_random_columns(rng, n + 1, n_cols) for _ in range(2))
        z = eval_z(r, psi, et)
        assert z.shape == psi.shape and np.all(z[0] == 0.0)
        _assert_z_matches(z, r, psi, et)
        # one lambda: 1-D columns in, 1-D z out
        z1 = eval_z(r, psi[:, 0], et[:, 0])
        assert z1.shape == (n + 1,) and z1[0] == 0.0
        _assert_z_matches(z1, r, psi[:, 0], et[:, 0])

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([31, 32, 33, 63, 64, 65, 97]) | st.integers(2, 40),
           seed=st.integers(0, 2**32 - 1), n_cols=st.integers(1, 6))
    def test_profile_r_is_its_lifted_field(self, n, seed, n_cols):
        # verify hands r to eval_z as the Profile of rho(x - t) when it is one
        rng = np.random.default_rng(seed)
        rho = Profile(make_grid(n), rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
        psi, et = (_random_columns(rng, n + 1, n_cols) for _ in range(2))
        assert eval_z(rho, psi, et).tobytes() == eval_z(as_field(rho), psi, et).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([31, 32, 33, 64, 97]),
        seed=st.integers(0, 2**32 - 1),
        mults=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    )
    def test_order_j_column_pairs(self, n, seed, mults):
        # column pairs (a, b) with a + b = j, the pairs of a Leibniz rule
        # for order-j rows, read from psi and e by repeated, non-contiguous
        # indices
        rng = np.random.default_rng(seed)
        r = _random_field(rng, make_grid(n))
        orders = [j for m in mults for j in range(m)]
        cols_a, cols_b = (list(c) for c in zip(
            *[(row - j + a, row - a) for row, j in enumerate(orders) for a in range(j + 1)]
        ))
        psi, e = (_random_columns(rng, n + 1, len(orders)) for _ in range(2))
        pa, eb = psi[::-1][:, cols_a], e[:, cols_b]
        _assert_z_matches(eval_z(r, pa, eb), r, pa, eb)

    @pytest.mark.parametrize("psi_cols, e_cols, rows", [(2, 3, 11), (3, 2, 11), (2, 2, 10)])
    def test_mismatched_shapes_raise_before_any_work(self, monkeypatch, psi_cols, e_cols, rows):
        rng = np.random.default_rng(0)
        r = _random_field(rng, make_grid(10))
        psi = _random_columns(rng, rows, psi_cols)
        et = _random_columns(rng, 11, e_cols)

        def no_work(*args):
            raise AssertionError("eval_z started work on inputs it must refuse")

        monkeypatch.setattr(idospec.spectral, "shifted_rows", no_work)
        with pytest.raises(ValueError, match=re.escape(f"psi {psi.shape} and e_tilde {et.shape}")):
            eval_z(r, psi, et)


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

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_match_endpoint_of_e(self, g_const_200, order):
        # the same trapezoid sum over G's last row, summed in another order
        ev = DeltaEvaluator(g_const_200.g.values[-1])
        for lam in (0.3, -1.0 - 0.5j, 4.5 - 3.0j):
            want = eval_e_via_g(g_const_200, lam, order)[-1]
            assert abs(ev.deriv(lam, order) - want) <= 1e-12 * max(1.0, abs(want))

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
            assert abs(delta_of(g_const_200).deriv(lam, 1) - fd) < 1e-7

    def test_second_derivative_finite_difference(self, g_const_200):
        lam = 0.4 - 0.3j
        h = 1e-4
        fd = (
            char_delta(g_const_200, lam + h)
            - 2 * char_delta(g_const_200, lam)
            + char_delta(g_const_200, lam - h)
        ) / h**2
        assert abs(delta_of(g_const_200).deriv(lam, 2) - fd) < 1e-5


class TestExtrapolatedDelta:
    def test_grid_ratio_enforced(self, g_const_200):
        row = g_const_200.g.values[-1]
        with pytest.raises(ValueError):
            DeltaEvaluator(row, row)

    @pytest.mark.parametrize("n_fine", [8, 15, 17])
    def test_fold_refuses_a_fine_grid_that_does_not_halve_the_step(self, n_fine):
        # a fine grid of 17 intervals against 8 used to fold silently, giving
        # 0.9736+3.4232i at lambda = 0.5 where the 16-interval grid gives
        # 0.8927+3.4528i
        row = compute_g(constant_field(8)).g.values[-1]
        with pytest.raises(ValueError, match="fine grid must halve the coarse step: "
                                             f"{n_fine} intervals, not 16"):
            DeltaEvaluator(row, compute_g(constant_field(n_fine)).g.values[-1])
        good = compute_g(constant_field(16)).g.values[-1]
        assert abs(DeltaEvaluator(row, good)(0.5) - (0.8927 + 3.4528j)) < 1e-4

    def test_fourth_order_accuracy(self, g_const_200, g_const_400):
        ev = delta_of(g_const_200, g_const_400)
        lams = np.array([0.5 + 0j, -1.5 - 0.5j, 2.0 + 0.25j])
        vals = ev(lams)
        for lam, v in zip(lams, vals):
            assert abs(v - constant_kernel_delta(complex(lam))) < 5e-7

    def test_deriv_extrapolates_too(self, g_const_200, g_const_400):
        ev = delta_of(g_const_200, g_const_400)
        lam = 0.8 - 0.2j
        h = 1e-5
        fd = (ev(np.array([lam + h]))[0] - ev(np.array([lam - h]))[0]) / (2 * h)
        assert abs(ev.deriv(lam) - fd) < 1e-7


class TestDeltaEvaluator:
    """Delta and Delta', plain and extrapolated, equal in value and scalar type
    to one char_delta_deriv call on the evaluator's coefficients, and within
    rounding of the formulas written out: the direct sum, and
    (4 * fine - coarse) / 3 of direct sums. The coefficients are formed
    once, and no evaluation changes them."""

    LAMS = np.array([0.3 + 0j, -1.7 - 0.6j, 2.2 + 0.1j, -4.0 - 3.0j])

    def check_calls(self, ev):
        coef, before = ev.coef, ev.coef.copy()
        vals = ev(self.LAMS)
        assert np.array_equal(vals, char_delta_deriv(coef, self.LAMS))
        derivs = []
        for lam in self.LAMS:
            got, want = ev(lam), char_delta_deriv(coef, lam)
            assert type(got) is complex and got == want
            got, want = ev.deriv(lam), char_delta_deriv(coef, lam, 1)
            assert type(got) is complex and got == want
            derivs.append(got)
        assert ev.coef is coef and np.array_equal(coef, before)
        assert ev.evals == 2 * self.LAMS.size
        assert ev.deriv_evals == self.LAMS.size
        return vals, np.array(derivs)

    def test_plain_matches_formula(self, g_const_200):
        vals, derivs = self.check_calls(delta_of(g_const_200))
        for order, got in ((0, vals), (1, derivs)):
            want, scale = char_delta_direct(g_const_200, self.LAMS, order)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_extrapolated_matches_formula(self, g_const_200, g_const_400):
        vals, derivs = self.check_calls(delta_of(g_const_200, g_const_400))
        for order, got in ((0, vals), (1, derivs)):
            fine, s_fine = char_delta_direct(g_const_400, self.LAMS, order)
            coarse, s_coarse = char_delta_direct(g_const_200, self.LAMS, order)
            want = (4.0 * fine - coarse) / 3.0
            assert np.all(np.abs(got - want) <= 1e-13 * (4.0 * s_fine + s_coarse) / 3.0)


def planted_kernel(n, roots):
    """A TransformKernel on n intervals with Delta = q^(N-k) prod (q - q_r).

    q = exp(-i lambda h) and q_r = exp(-i r h) for the k roots r (repeat a
    root for a multiple zero), so the zeros of Delta with |Re lambda| < pi/h
    are the roots. The polynomial's lower coefficients sit on the last row
    of G over its interior weights h; the rest of G stays zero.
    """
    grid = make_grid(n)
    coef = np.poly(np.exp(-1j * grid.step * np.asarray(roots, dtype=complex)))[::-1]
    values = np.zeros((n + 1, n + 1), dtype=complex)
    values[-1, n - len(roots):n] = coef[:-1] / grid.step
    return TransformKernel(TriangularField(grid, values), np.zeros(1), 0.0)


def _rounding(g, root, order):
    """Rounding of the sum for Delta^(order) at root: eps times its terms' magnitudes."""
    return np.finfo(float).eps * char_delta_direct(g, root, order)[1][0]


def _attainable_error(g, root, order):
    """How far Newton on Delta^(order) may end from its simple zero root.

    That is a few hundred times the rounding of Delta^(order) over
    |Delta^(order+1)|. Planted roots all map to q near 1, so a pair 0.01
    apart at N = 40 makes this about 1e-9.
    """
    return 300 * _rounding(g, root, order) / abs(delta_of(g).deriv(root, order + 1))


def _random_tail_kernel(n, rng):
    """A TransformKernel on n intervals whose last row is random (G[N, 0] = 0).

    Delta reads only that row, so the rest stays zero.
    """
    values = np.zeros((n + 1, n + 1), dtype=complex)
    values[-1, 1:] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return TransformKernel(TriangularField(make_grid(n), values), np.zeros(1), 0.0)


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
            got = delta_of(g).deriv(lams, order)
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

            fine, s_fine = char_delta_direct(g_fine, lams, order)
            got = delta_of(g, g_fine).deriv(lams, order)
            want = (4.0 * fine - want) / 3.0
            assert np.all(np.abs(got - want) <= 1e-13 * (4.0 * s_fine + scale) / 3.0)

    @pytest.mark.parametrize("n", [2, 7, 100, 401])
    def test_rounding_bounds_the_error(self, n):
        # the evaluator's own coefficients summed in extended precision
        # (64-bit significand) on the nodes j PI / N, with the carrier
        rng = np.random.default_rng(n)
        g, g_fine = _random_tail_kernel(n, rng), _random_tail_kernel(2 * n, rng)
        re = np.linspace(-n, n, 21)
        im = np.linspace(-8.0, 8.0, 9)
        lams = (re[:, None] + 1j * im[None, :]).ravel()
        wide = lams.astype(np.clongdouble)
        pi = np.longdouble(PI)
        for f in (delta_of(g), delta_of(g, g_fine)):
            x = np.arange(f.coef.size) * (pi / (f.coef.size - 1))
            terms = f.coef.astype(np.clongdouble) * np.exp(-1j * np.multiply.outer(wide, x))
            for order in range(3):
                want = (terms * (-1j * x) ** order).sum(axis=1) + (-1j * pi) ** order * np.exp(-1j * wide * pi)
                err = np.abs(f.deriv(lams, order) - want)
                assert np.all(err <= f.rounding(lams, order))


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
        assert np.array_equal(delta_of(g, g_fine)(lams), want)


class TestFindSpectrum:
    def test_zero_kernel_empty_spectrum(self, grid100):
        tk = compute_g(TriangularField.zeros(grid100))
        spec = spectrum_of(tk, SearchWindow(-3.0, 3.0, -2.0, 2.0))
        assert spec.total_count == 0
        assert spec.eigenvalues == ()

    def test_constant_kernel_matches_oracle(self, g_const_200):
        window = SearchWindow(-6.0, 6.0, -6.0, 0.5)
        spec = spectrum_of(g_const_200, window)
        oracle = oracle_roots_in_window(-6.0, 6.0, -6.0, 0.5)
        assert spec.total_count == len(oracle)
        for ev, ref in zip(spec.eigenvalues, oracle):
            assert ev.multiplicity == 1
            assert ev.newton_converged
            assert abs(ev.value - ref) < 2e-3

    def test_sorted_by_real_part(self, g_const_200):
        spec = spectrum_of(g_const_200, SearchWindow(-6.0, 6.0, -6.0, 0.5))
        reals = [ev.value.real for ev in spec.eigenvalues]
        assert reals == sorted(reals)

    def test_residuals_small(self, g_const_200):
        spec = spectrum_of(g_const_200, SearchWindow(-6.0, 6.0, -6.0, 0.5))
        for ev in spec.eigenvalues:
            assert ev.residual < 1e-9

    def test_boundary_through_root_rejected(self, g_const_200):
        spec = spectrum_of(g_const_200, SearchWindow(-6.0, 6.0, -6.0, 0.5))
        root = spec.eigenvalues[0].value
        # a window corner sitting exactly on a zero must be refused loudly
        bad = SearchWindow(root.real, root.real + 2.0, root.imag, root.imag + 2.0)
        with pytest.raises((BoundaryNearZeroError, PhaseTrackingError)):
            spectrum_of(g_const_200, bad)

    def test_evaluator_interface(self, g_const_200, g_const_400):
        ev = delta_of(g_const_200, g_const_400)
        window = SearchWindow(-6.0, 6.0, -6.0, 0.5)
        spec = find_spectrum(ev, window)
        oracle = oracle_roots_in_window(-6.0, 6.0, -6.0, 0.5)
        assert spec.total_count == len(oracle)
        for got, ref in zip(spec.eigenvalues, oracle):
            assert abs(got.value - ref) < 1e-6

    def test_reflected_spectrum_close(self, grid100):
        m = TriangularField.constant(grid100, 1.0)
        window = SearchWindow(-6.0, 6.0, -6.0, 0.5)
        direct = spectrum_of(compute_g(m), window)
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
        spec = spectrum_of(compute_g(constant_field(100, c)), SearchWindow(*WIDE))
        _assert_matches_oracle(spec, WIDE, c, self.TOL)

    # These put a root 0.13 and 0.09 below the top edge. With 32 samples on
    # that 40-unit edge the carrier exp(-i lambda pi) turns 1.25 pi between
    # two samples and the root can add the rest of a whole turn, which the
    # phase tracking cannot see.
    @pytest.mark.parametrize("c, count", [(0.583873, 19), (1.772611, 18)])
    def test_root_just_below_the_top_edge(self, c, count):
        spec = spectrum_of(compute_g(constant_field(100, c)), SearchWindow(*WIDE))
        assert spec.total_count == count
        _assert_matches_oracle(spec, WIDE, c, self.TOL)

    def test_wide_window_eval_budget(self, g_const_200):
        ev = delta_of(g_const_200)
        spec = find_spectrum(ev, SearchWindow(*WIDE))
        assert spec.total_count == 18
        # the subdivision oracle, bisecting every root cell down to
        # cell_size, costs about 120k points
        assert ev.evals < 30_000


class TestSyntheticSearch:
    """Hand-built kernels whose Delta has known zeros and multiplicities."""

    def test_double_root(self):
        double, simple = 0.3217 - 0.4123j, -1.1 + 0.27j
        g = planted_kernel(40, [double, double, simple])
        spec = spectrum_of(g, SearchWindow(-2.0, 2.0, -1.0, 1.0))
        assert spec.total_count == 3
        (a, b) = spec.eigenvalues
        assert a.multiplicity == 1 and abs(a.value - simple) < 1e-12
        assert b.multiplicity == 2 and abs(b.value - double) < 1e-10

    @pytest.mark.parametrize("n, tol", [(8, 1e-12), (40, 1e-11)])
    def test_close_simple_roots(self, n, tol):
        # Delta' at either root is about h |q_1 - q_2| = 0.01 h^2, small
        # against the rounding of Delta's sum once h is small: at N = 40
        # Newton's steps hover at about 1e-11 and stop only where |Delta|
        # reaches its rounding bound. At N = 8 the pair is well conditioned.
        roots = [0.2 + 0.1j, 0.21 + 0.1j]
        spec = spectrum_of(planted_kernel(n, roots), SearchWindow(-1.0, 1.0, -1.0, 1.0))
        assert [ev.multiplicity for ev in spec.eigenvalues] == [1, 1]
        for ev, ref in zip(spec.eigenvalues, roots):
            assert ev.newton_converged and abs(ev.value - ref) < tol

    def test_outer_boundary_sampled_once(self):
        rect = (-2.0, 2.0, -1.0, 1.0)
        outer = _rect_boundary(rect, INITIAL_EDGE_SAMPLES)
        batches = []

        class Recording(DeltaEvaluator):
            def __call__(self, lam):
                batches.append(np.array(lam, dtype=complex))
                return super().__call__(lam)

        g = planted_kernel(40, [0.3 - 0.4j, -1.1 + 0.27j])
        find_spectrum(Recording(g.g.values[-1]), SearchWindow(*rect))
        assert sum(np.array_equal(b, outer) for b in batches) == 1

    WINDOW = SearchWindow(-2.0, 2.0, -1.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(8, 400),
        points=st.lists(st.tuples(st.floats(-1.8, 1.8), st.floats(-0.8, 0.8)),
                        min_size=1, max_size=5),
    )
    def test_planted_roots(self, n, points):
        # points[0] is planted twice; every planted root is 0.2 inside the
        # window, and the squares of CLUSTER_BOX rounding radii around any
        # two of them do not meet: closer zeros cannot be told from a
        # cluster, which the search counts as one
        roots = [complex(re, im) for re, im in points]
        g = planted_kernel(n, [roots[0], *roots])
        radius, mult = _rounding_radius(delta_of(g), np.array(roots))
        assume(all(abs(roots[a] - roots[b]) >= CLUSTER_BOX * (radius[a] + radius[b])
                   for a in range(len(roots)) for b in range(a)))
        spec = spectrum_of(g, self.WINDOW)
        assert spec.total_count == len(roots) + 1
        assert len(spec.eigenvalues) == len(roots)
        for ev in spec.eigenvalues:
            dist = [abs(ev.value - r) for r in roots]
            k = int(np.argmin(dist))
            assert ev.multiplicity == mult[k] == (2 if k == 0 else 1)
            assert ev.newton_converged
            # a zero of multiplicity m is a simple zero of Delta^(m-1)
            bound = _attainable_error(g, roots[k], ev.multiplicity - 1)
            assert dist[k] < max(1e-7 if k == 0 else 1e-10, bound)

    def test_cluster_within_rounding_is_counted_whole(self):
        # a double zero in a cluster of five zeros 0.01 to 0.02 apart, all
        # near q = 1 at N = 35: Delta is lost in rounding across the
        # cluster, whose zeros all lie within one rounding radius of its
        # centre, so the search certifies the five planted multiplicities
        # as one zero of multiplicity 5 there, the zero of Delta^(4)
        double, simple = 0.0577 + 0.0087j, [0.0667 + 0.0133j, 0.05, 0.07]
        planted = [double, double, *simple]
        g = planted_kernel(35, planted)
        spec = spectrum_of(g, self.WINDOW)
        assert spec.total_count == 5
        (ev,) = spec.eigenvalues
        assert ev.multiplicity == 5 and ev.newton_converged
        assert abs(delta_of(g).deriv(ev.value, 4)) <= delta_of(g).rounding(ev.value, 4)
        (radius,), _ = _rounding_radius(delta_of(g), np.array([ev.value]))
        assert max(abs(z - ev.value) for z in planted) < radius

    def test_failed_search_names_what_it_found(self, monkeypatch):
        # with squares a thousandth of a rounding radius wide, the pair of
        # Newton end points around the double zero does not fit inside its
        # square, so neither pass counts it, and the error says what the
        # stride-1 pass found and where its unresolved group is
        monkeypatch.setattr(idospec.spectral, "CLUSTER_BOX", 1e-3)
        double = 0.3217 - 0.4123j
        g = planted_kernel(40, [double, double, -1.1 + 0.27j])
        with pytest.raises(PhaseTrackingError) as err:
            spectrum_of(g, self.WINDOW)
        msg = str(err.value)
        assert re.search(r"add up to multiplicity 1, not to its winding number 3;", msg)
        (listed,) = msg.split("not converged: ")[1].split(", ")
        (radius,), _ = _rounding_radius(delta_of(g), np.array([double]))
        assert abs(complex(listed) - double) < radius

    def test_anything_but_an_evaluator_is_refused(self):
        g = planted_kernel(8, [0.2 + 0.1j])
        for f in (g, g.g.values[-1], lambda lam: np.exp(-1j * lam)):
            with pytest.raises(TypeError, match="find_spectrum needs a DeltaEvaluator"):
                find_spectrum(f, self.WINDOW)


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
            forced = find_spectrum_subdivision(delta_of(g, g_fine), self.WINDOW)
        except (BoundaryNearZeroError, PhaseTrackingError):
            return  # a zero on the window edge; no spectrum to compare
        spec = find_spectrum(delta_of(g, g_fine), self.WINDOW)
        assert spec.total_count == forced.total_count
        assert len(spec.eigenvalues) == len(forced.eigenvalues)
        for a, b in zip(spec.eigenvalues, forced.eigenvalues):
            assert a.multiplicity == b.multiplicity
            assert a.newton_converged == b.newton_converged
            assert abs(a.value - b.value) <= 1e-12

    # Delta(q) = q^(N-2) (q - a)^2 with q = exp(-i lambda h): one zero of
    # multiplicity 2 at lambda = i log(a) / h. Its Newton pair is grouped and
    # counted on a square around it; a double zero is then a simple zero of
    # Delta', where Newton reaches it to the rounding.
    LAM0 = 0.3217 - 0.4123j

    @pytest.mark.parametrize("n", [40, 400])
    def test_double_root_falls_back(self, n):
        # the coarse stride (5 at N = 40, 50 at N = 400) never samples the
        # nonzero nodes N - 2 and N - 1, so only the retry at stride 1 has
        # candidates
        g = planted_kernel(n, [self.LAM0, self.LAM0])
        spec = spectrum_of(g, SearchWindow(-2.0, 2.0, -1.0, 1.0))
        assert spec.stats.path == "stride1"
        (ev,) = spec.eigenvalues
        assert ev.multiplicity == 2 and ev.newton_converged
        assert abs(ev.value - self.LAM0) < 1e-7

    def test_double_root_on_a_coarse_grid(self):
        g = planted_kernel(8, [self.LAM0, self.LAM0])
        for window in (SearchWindow(-2.0, 2.0, -1.0, 1.0), SearchWindow(-1.0, 1.3, -1.7, 0.6)):
            spec = spectrum_of(g, window)
            (ev,) = spec.eigenvalues
            assert ev.multiplicity == 2 and ev.newton_converged
            assert abs(ev.value - self.LAM0) < 1e-7


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


class TestWindingNumber:
    RECT = (-1.0, 1.0, -1.0, 1.0)

    @staticmethod
    def fast_carrier(lam):
        return np.exp(-40j * np.asarray(lam))

    def test_refinement_budget_is_spent_in_full(self, monkeypatch):
        # 32 samples on an edge of length 2 let exp(-40 i lambda) turn 2.5
        # radians between neighbours: exactly one refinement settles it
        for budget in (1, 2):
            monkeypatch.setattr(idospec.spectral, "MAX_PHASE_REFINEMENTS", budget)
            assert _winding_number(self.fast_carrier, self.RECT, INITIAL_EDGE_SAMPLES, None) == (0, 1)
        monkeypatch.setattr(idospec.spectral, "MAX_PHASE_REFINEMENTS", 0)
        with pytest.raises(PhaseTrackingError):
            _winding_number(self.fast_carrier, self.RECT, INITIAL_EDGE_SAMPLES, None)

    def test_no_refinement_needs_no_budget(self, monkeypatch):
        monkeypatch.setattr(idospec.spectral, "MAX_PHASE_REFINEMENTS", 0)
        spec = spectrum_of(compute_g(constant_field(100)), SearchWindow(*WIDE))
        assert spec.stats.phase_refinements == 0
        assert spec.total_count > 0

    def test_exact_zero_on_the_path_is_refused(self):
        # the corner -1 - i is a sample; unguarded, a zero there has no phase
        with pytest.raises(PhaseTrackingError, match="exactly zero"):
            _winding_number(lambda lam: np.asarray(lam) - (-1.0 - 1.0j), self.RECT,
                            INITIAL_EDGE_SAMPLES, None)


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
