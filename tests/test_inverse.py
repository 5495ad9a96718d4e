import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from idospec.quadrature import PI, Profile, TriangularField, make_grid
from idospec.kernels import (
    KernelComponent,
    StructuredKernel,
    WeightVanishesError,
    assemble_kernel,
)
from idospec.transform import PicardConvergenceError, compute_g, last_row
from idospec.spectral import (
    DeltaEvaluator,
    Eigenvalue,
    SearchWindow,
    Spectrum,
    eval_e_direct,
    eval_z,
)
import idospec.inverse
import idospec.transform
from idospec.inverse import (
    STALL_RTOL,
    InverseProblem,
    NonFiniteResidualError,
    UnderdeterminedError,
    _delta_at_targets,
    profile_from_params,
    recover_profile,
    recover_sequential,
    spectrum_residual,
    verify_green_identity,
    verify_change_of_variables,
)

from conftest import mild_family_fields
from oracles import eval_psi, fd_jacobian, newton_polished, oracle_roots_in_window, spectrum_of

WINDOW = SearchWindow(-6.0, 6.0, -6.0, 0.5)
WIDE = SearchWindow(-20.0, 20.0, -8.0, 0.5)


def count_builds(monkeypatch) -> list:
    """A list that gains an entry per G build: compute_g of last_row's march
    row, in transform, the one place a fit builds G."""
    builds = []
    build = idospec.transform.compute_g
    monkeypatch.setattr(idospec.transform, "compute_g", lambda *a, **k: builds.append(1) or build(*a, **k))
    return builds


def two_sine(x):
    """A two-term sine profile whose fit from zero reaches the discretization floor."""
    return 0.7483 * np.sin(x + 1.1261) + 0.2921 * np.sin(2 * x + 3.3854)


def tilted_r(grid):
    """A factor R that is not its own reflection (x, t) -> (pi - t, pi - x)."""
    return TriangularField.from_function(grid, lambda x, t: 1.0 + 0.3 * np.cos(x) + 0.2 * t)


# 19 simple targets across the benchmark's window, down to Im lambda = -8;
# they need not be zeros
DEEP = Spectrum(
    eigenvalues=tuple(Eigenvalue(complex(re, im), 1, 0.0) for re, im in zip(
        np.linspace(-19.0, 19.0, 19), np.resize([-8.0, -0.4, -4.0, 0.4], 19))),
    window=WIDE, total_count=19,
)
# the same with the last two taken triple and double, which add Delta' and
# Delta'' rows at Im lambda = -8 and -0.4
DEEP_MULTIPLE = Spectrum(
    eigenvalues=DEEP.eigenvalues[:-2] + tuple(
        Eigenvalue(ev.value, mult, 0.0) for ev, mult in zip(DEEP.eigenvalues[-2:], (3, 2))),
    window=WIDE, total_count=22,
)


def convolution_problem(target, n, r=None, d=8):
    """d-parameter fit of M = R(x, t) P(x - t) on n intervals. M0 = 0 and R
    = 1 are Profiles, as invert samples such constants; R is the field r(grid)
    if given."""
    grid = make_grid(n)
    r = Profile.constant(grid, 1.0) if r is None else r(grid)
    return InverseProblem(m0=Profile.zeros(grid), r=r, target=target, d=d)


def extrapolated_delta(p):
    """DeltaEvaluator(row_N/2, row_N) of M = p(x - t), with last_row's rows of
    the Profiles of p on the grid of N = len(p) - 1 intervals and on its
    every other node: the Delta of the series path's residual."""
    n = p.size - 1
    return DeltaEvaluator(*(last_row(Profile(make_grid(n // s), p[::s]))[0] for s in (2, 1)))


def constant_target(n, polish):
    """Spectrum of M = 1 on the window WINDOW at n intervals: the G roots, and
    with polish those roots moved to the zeros of the extrapolated Delta of
    the series rows, the zero set of the series path's own residual."""
    grid = make_grid(n)
    target = spectrum_of(compute_g(TriangularField.constant(grid, 1.0)), WINDOW)
    if not polish:
        return target
    return newton_polished(target, extrapolated_delta(np.ones(n + 1, dtype=complex)))


@pytest.fixture(scope="module")
def grid80():
    return make_grid(80)


@pytest.fixture(scope="module")
def const_problem(grid80):
    """Inverse crime setup on the series path: P = 1, R = 1, M0 = 0 at N = 80,
    M0 and R as Profiles, and a target that is the zero set of the fit's own
    residual."""
    problem = InverseProblem(
        m0=Profile.zeros(grid80), r=Profile.constant(grid80, 1.0),
        target=constant_target(80, polish=True), d=4,
    )
    assert problem.series is not None
    return problem


@pytest.fixture(scope="module")
def odd_problem():
    """Inverse crime setup on the series path with one row: P = 1, R = 1 and
    M0 = 0 at the odd N = 81, M0 and R as Profiles, whose target is the G
    roots on the same grid, the zeros of that row's Delta to rounding."""
    grid = make_grid(81)
    problem = InverseProblem(
        m0=Profile.zeros(grid), r=Profile.constant(grid, 1.0),
        target=constant_target(81, polish=False), d=4,
    )
    assert problem.series is not None and problem.row_grids == (grid,)
    return problem


@pytest.fixture(scope="module")
def tilted_problem(grid80):
    """Inverse crime setup on a field, fitted on march rows: P = 1, the
    tilted R and M0 = 0 at N = 80, whose target is the G roots of that
    kernel on the same grid."""
    r = tilted_r(grid80)
    m = assemble_kernel(StructuredKernel(
        TriangularField.zeros(grid80), (KernelComponent(r, Profile.constant(grid80, 1.0)),)))
    problem = InverseProblem(m0=Profile.zeros(grid80), r=r, target=spectrum_of(compute_g(m), WINDOW), d=4)
    assert problem.series is None
    return problem


class TestProfileFromParams:
    def test_interpolates_params(self, grid80, const_problem):
        params = np.array([0.0, 1.0, -0.5, 0.2])
        prof = profile_from_params(params, const_problem)
        nodes = np.linspace(0.0, PI, 4)
        for xk, pk in zip(nodes, params):
            i = int(round(xk / grid80.step))
            if abs(grid80.nodes[i] - xk) < 1e-12:  # only where nodes coincide
                assert abs(prof.values[i] - pk) < 1e-12

    def test_constant_params_give_constant_profile(self, const_problem):
        problem = InverseProblem(
            m0=const_problem.m0, r=const_problem.r, target=const_problem.target, d=5,
        )
        prof = profile_from_params(np.full(5, 0.7), problem)
        assert np.abs(prof.values - 0.7).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 24), n=st.integers(2, 400))
    def test_matches_spline_of_params(self, const_problem, d, n):
        # the basis is scipy's not-a-knot CubicSpline of the unit samples,
        # including its line (d = 2) and parabola (d = 3)
        grid = make_grid(n)
        problem = InverseProblem(
            m0=TriangularField.zeros(grid), r=TriangularField.constant(grid, 1.0),
            target=const_problem.target, d=d,
        )
        ref = CubicSpline(problem.param_nodes, np.eye(d))(grid.nodes)
        assert problem.basis.shape == (n + 1, d)
        assert np.abs(problem.basis - ref).max() <= 1e-13 * np.abs(ref).max()

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 24),
        n=st.integers(2, 400),
        coeffs=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    )
    def test_reproduces_polynomials(self, const_problem, d, n, coeffs):
        # not-a-knot splines are exact on cubics; with d = 3 on quadratics
        # and with d = 2 on lines
        grid = make_grid(n)
        problem = InverseProblem(
            m0=TriangularField.zeros(grid), r=TriangularField.constant(grid, 1.0),
            target=const_problem.target, d=d,
        )
        poly = np.polynomial.Polynomial(coeffs[: min(d, 4)])
        prof = profile_from_params(poly(problem.param_nodes), problem)
        scale = 1.0 + sum(abs(c) * PI**k for k, c in enumerate(coeffs))
        assert np.abs(prof.values - poly(grid.nodes)).max() <= 1e-13 * scale

    def test_shape_checked(self, const_problem):
        with pytest.raises(ValueError):
            profile_from_params(np.zeros(3), const_problem)


class TestProblemSetup:
    def test_small_d_rejected(self, grid80, const_problem):
        with pytest.raises(ValueError):
            InverseProblem(
                m0=const_problem.m0, r=const_problem.r,
                target=const_problem.target, d=1,
            )

    def test_negative_mu_rejected(self, const_problem):
        with pytest.raises(ValueError):
            InverseProblem(
                m0=const_problem.m0, r=const_problem.r,
                target=const_problem.target, d=4, mu=-1.0,
            )

    def test_weight_condition_passes(self, const_problem):
        b = const_problem.check_weight_condition()
        assert np.abs(b.values - const_problem.grid.nodes).max() < 1e-12

    def test_weight_condition_fails_for_sign_change(self, grid80, const_problem):
        # r(x,t) = t - 1 has weight x^2/2 - x with a zero at x = 2
        bad_r = TriangularField.from_function(grid80, lambda x, t: t - 1.0 + 0 * x)
        problem = InverseProblem(
            m0=const_problem.m0, r=bad_r, target=const_problem.target, d=4,
        )
        with pytest.raises(WeightVanishesError):
            problem.check_weight_condition()

    def test_series_path_is_decided_by_type(self, const_problem):
        # M0 and R Profiles; a field is not inspected, even R = 1. The rows
        # of N/2 and N intervals are folded where N is even and every
        # |Re nu| < N/2, a multiple target too; else, and for a field M at
        # any N, the row of N intervals serves alone
        target = const_problem.target
        samples = lambda grid: 0.3 + 0.2 * np.cos(grid.nodes)

        def one(grid):
            return Profile.constant(grid, 1.0)

        def diff(grid):
            return Profile(grid, samples(grid) + 0j)

        def field(grid):                # R = 1 as a field
            return TriangularField.constant(grid, 1.0)

        def ramp(grid):
            return TriangularField.from_function(grid, lambda x, t: 0.05 + 0.03 * x)

        def single(nu, mult=1):
            return Spectrum(eigenvalues=(Eigenvalue(nu, mult, 0.0),), window=WIDE, total_count=mult)

        cases = [
            (80, one, one, target, 2), (80, diff, diff, target, 2),
            (8, one, one, single(-3.9 - 0.5j), 2), (8, one, one, single(4.0 - 0.5j), 1),
            (81, one, one, target, 1), (80, one, one, single(1.0 - 0.5j, 2), 2),
            (80, one, tilted_r, target, 0), (80, ramp, one, target, 0),
            (80, one, field, target, 0), (80, field, one, target, 0),
        ]
        for n, m0, r, tgt, rows in cases:
            grid = make_grid(n)
            problem = InverseProblem(m0=m0(grid), r=r(grid), target=tgt, d=4)
            assert (problem.series is not None) == bool(rows), (n, m0, r, tgt)
            if rows:
                assert [g.n_intervals for g in problem.row_grids] == [n // 2, n][-rows:], (n, tgt)
            else:
                assert problem.row_grids == (grid,), (n, m0, r)
        grid = make_grid(80)
        problem = InverseProblem(m0=diff(grid), r=diff(grid), target=target, d=4)
        m0_samples, lift = problem.series
        assert np.array_equal(m0_samples, samples(grid))
        assert np.array_equal(lift, samples(grid)[:, None] * problem.basis)

    def test_underdetermined_flag(self, const_problem, grid80):
        assert not const_problem.is_underdetermined()  # 4 targets, d = 4
        wide = InverseProblem(
            m0=const_problem.m0, r=const_problem.r,
            target=const_problem.target, d=6,
        )
        assert wide.is_underdetermined()


class TestSpectrumResidual:
    @pytest.mark.parametrize("name", ["const_problem", "odd_problem"])
    def test_vanishes_at_true_parameters(self, name, request):
        # at the odd N = 81 the row of N intervals serves alone: its Delta is
        # the one the G roots are the zeros of. Neither builds a G
        problem = request.getfixturevalue(name)
        res, jacobian, builds = spectrum_residual(np.ones(4), problem)
        assert res.shape == (problem.target.total_count,)
        assert jacobian().shape == (res.size, 4)
        assert builds == 0
        assert np.abs(res).max() < 1e-9

    def test_vanishes_at_true_parameters_on_the_g_path(self, tilted_problem):
        # the G path's Jacobian is recover_profile's forward differences
        res, jacobian, builds = spectrum_residual(np.ones(4), tilted_problem)
        assert jacobian is None and builds == 1
        assert res.shape == (tilted_problem.target.total_count,)
        assert np.abs(res).max() < 1e-9

    @pytest.mark.parametrize("m0", ["profile", "field"])
    def test_field_residual_is_the_delta_of_compute_g(self, tilted_problem, m0):
        # bitwise: a field M's one row is compute_g's last row of the
        # assembled kernel, one G build, and the Jacobian is left to forward
        # differences; with the tilted R, or with a field M0 and R = 1 at
        # targets with Delta' and Delta'' rows
        grid = tilted_problem.grid
        problem = tilted_problem if m0 == "profile" else InverseProblem(
            m0=TriangularField.from_function(grid, lambda x, t: 0.05 + 0.03 * x),
            r=Profile.constant(grid, 1.0), target=DEEP_MULTIPLE, d=4)
        params = np.array([0.9, 1.2, 0.7, 1.1])
        res, jacobian, builds = spectrum_residual(params, problem)
        prof = profile_from_params(params, problem)
        m = assemble_kernel(StructuredKernel(problem.m0, (KernelComponent(problem.r, prof),)))
        expected = _delta_at_targets(DeltaEvaluator(compute_g(m).g.values[-1]), problem)
        assert jacobian is None and builds == 1
        assert res.tobytes() == expected.tobytes()

    def test_single_row_residual_is_the_delta_of_last_row(self, odd_problem):
        # bitwise: the residual is DeltaEvaluator of last_row's one row at
        # the target orders, here a double target's Delta' row too
        evs = odd_problem.target.eigenvalues
        problem = InverseProblem(
            m0=odd_problem.m0, r=odd_problem.r, d=4,
            target=Spectrum(eigenvalues=evs[:-1] + (Eigenvalue(evs[-1].value, 2, 0.0),),
                            window=WINDOW, total_count=len(evs) + 1),
        )
        params = np.array([0.9, 1.2, 0.7, 1.1])
        res, _, _ = spectrum_residual(params, problem)
        m0, lift = problem.series
        delta = DeltaEvaluator(last_row(Profile(problem.grid, m0 + lift @ params))[0])
        nus = np.array([ev.value for ev in evs])
        expected = np.concatenate([delta(nus), delta.deriv(nus[-1:], 1)])
        assert res.tobytes() == expected.tobytes()

    def test_series_residual_is_the_delta_of_last_row(self, two_sine_target):
        # one Delta: the residual is the extrapolated Delta of last_row's
        # rows that spectrum searches, and Delta' and Delta'' for a triple
        # target, to rounding
        target = Spectrum(two_sine_target.eigenvalues[:-1] + (Eigenvalue(2.1 - 0.7j, 3, 0.0),),
                          window=WIDE, total_count=two_sine_target.total_count + 2)
        problem = convolution_problem(target, 100)
        params = TestSpectrumJacobian.PARAMS
        res, _, builds = spectrum_residual(params, problem)
        m0, lift = problem.series
        delta = extrapolated_delta(m0 + lift @ params)
        nus = np.array([ev.value for ev in two_sine_target.eigenvalues[:-1]])
        expected = np.concatenate([delta(nus)] + [delta.deriv(np.array([2.1 - 0.7j]), j) for j in range(3)])
        assert builds == 0 and res.shape == expected.shape
        assert np.abs(res - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("r", [None, tilted_r], ids=["series", "g_path"])
    def test_non_finite_series_residual_raises(self, const_problem, r):
        # finite rows, or a finite G, but exp(-i nu x) overflows at Im nu = 300
        far = Spectrum(eigenvalues=(Eigenvalue(300j, 1, 0.0),), window=WIDE, total_count=1)
        r = const_problem.r if r is None else r(const_problem.grid)
        problem = InverseProblem(m0=const_problem.m0, r=r, target=far, d=4)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteResidualError):
            spectrum_residual(np.ones(4), problem)

    def test_nan_candidate_fails_in_the_march(self, const_problem):
        # the series declines a row that is not finite, and the march it
        # falls back to refuses it, as last_row does
        with np.errstate(invalid="ignore"), pytest.raises(PicardConvergenceError):
            spectrum_residual(np.full(4, np.nan), const_problem)

    def test_declined_row_takes_the_march_row(self):
        # P = 100 grows the series' terms past its rounding guard on both
        # grids: each row is last_row's march row, one G build each, and the
        # Jacobian is left to forward differences
        problem = convolution_problem(DEEP, 100, d=4)
        params = np.full(4, 100.0)
        res, jacobian, builds = spectrum_residual(params, problem)
        m0, lift = problem.series
        p = m0 + lift @ params
        rows = [last_row(Profile(make_grid(100 // s), p[::s])) for s in (2, 1)]
        assert [way for _, way in rows] == ["march", "march"]
        assert jacobian is None and builds == 2
        nus = np.array([ev.value for ev in DEEP.eigenvalues])
        assert res.tobytes() == DeltaEvaluator(*(row for row, _ in rows))(nus).tobytes()


@pytest.fixture(scope="module")
def two_sine_target():
    """Wide-window spectrum of M = two_sine(x - t) at N = 200."""
    grid = make_grid(200)
    m = assemble_kernel(StructuredKernel(
        TriangularField.zeros(grid),
        (KernelComponent(TriangularField.constant(grid, 1.0),
                         Profile.from_function(grid, two_sine)),),
    ))
    return spectrum_of(compute_g(m), WIDE)


class TestSpectrumJacobian:
    PARAMS = 0.8 * two_sine(np.linspace(0.0, PI, 8)) + 0.05

    @pytest.mark.parametrize("target", [DEEP, DEEP_MULTIPLE], ids=["simple", "multiple"])
    @pytest.mark.parametrize("n", [50, 51, 100, 101, 200])
    def test_series_jacobian_matches_central_differences(self, n, target):
        # the exact derivative of the discrete residual, targets down to
        # Im lambda = -8, with Delta' and Delta'' rows for multiple targets;
        # an odd N fits on the one row of N intervals
        problem = convolution_problem(target, n)
        assert problem.series is not None
        _, jacobian, _ = spectrum_residual(self.PARAMS, problem)
        jac = jacobian()
        fd = fd_jacobian(lambda p: spectrum_residual(p, problem)[0], self.PARAMS,
                         step=1e-5, central=True)
        rel = np.abs(jac - fd).max(axis=1) / np.abs(fd).max(axis=1)
        assert rel.shape == (target.total_count,)
        assert rel.max() <= 1e-7

    @pytest.mark.parametrize("r, bound", [(tilted_r, 1e-6), (None, 1e-7)], ids=["g_path", "series"])
    def test_derivative_rows_of_a_multiple_target(self, r, bound):
        # a triple target contributes Delta, Delta' and Delta'' rows; nu need
        # not be a zero for the rows to be the derivatives of the residual.
        # The G path's forward differences and the series path's exact
        # Jacobian against central differences
        target = Spectrum(
            eigenvalues=(Eigenvalue(2.1 - 0.7j, 3, 0.0), Eigenvalue(-1.3 - 0.2j, 1, 0.0)),
            window=WIDE, total_count=4,
        )
        problem = convolution_problem(target, 100, r=r)
        res, jacobian, _ = idospec.inverse._stacked_residual(self.PARAMS, problem, 0.0)
        assert (jacobian is None) == (problem.series is None) == (r is not None)
        stacked, _ = idospec.inverse._stacked_jacobian(self.PARAMS, res, jacobian, problem, 0.0)
        jac = stacked[:4] + 1j * stacked[4:]
        fd = fd_jacobian(lambda p: spectrum_residual(p, problem)[0], self.PARAMS,
                         step=1e-5, central=True)
        rel = np.abs(jac - fd).max(axis=1) / np.abs(fd).max(axis=1)
        assert rel.shape == (4,)
        assert rel.max() <= bound

    @pytest.mark.parametrize("n", [100, 101])
    def test_fit_from_zero_converges_past_the_floor(self, two_sine_target, n):
        # N = 100 folds the series rows of N/2 and N intervals, N = 101 fits
        # on the row of N intervals alone; neither builds a G
        problem = convolution_problem(two_sine_target, n)
        assert problem.series is not None and len(problem.row_grids) == 2 - n % 2
        report = recover_profile(problem, np.zeros(8))
        assert report.converged and report.g_builds == 0
        grid = problem.grid
        assert np.abs(report.recovered.values - two_sine(grid.nodes)).max() <= 0.05

    @pytest.mark.parametrize("n", [100, 101])
    def test_fit_near_the_floor_does_not_crawl(self, n):
        # truth 0 of benchmark seed 1: its fit from zero ends at the
        # discretization floor, where a Jacobian further from the residual's
        # derivative makes LM crawl (13 iterations and 25 residuals with
        # nested-trapezoid pair integrals); N = 100 fits on the folded
        # series rows, N = 101 on the one row of N intervals, each with its
        # exact Jacobian
        def truth(x):
            return (0.338718445717945 * np.sin(x + 3.6731843319365467)
                    + 0.08059479868228293 * np.sin(2 * x + 4.352465272235334))

        grid = make_grid(200)
        m = assemble_kernel(StructuredKernel(
            TriangularField.zeros(grid),
            (KernelComponent(TriangularField.constant(grid, 1.0),
                             Profile.from_function(grid, truth)),),
        ))
        target = spectrum_of(compute_g(m), WIDE, initial_edge_samples=64)
        problem = convolution_problem(target, n)
        report = recover_profile(problem, np.zeros(8))
        assert report.converged
        assert np.abs(report.recovered.values - truth(problem.grid.nodes)).max() <= 0.05
        assert report.iterations <= 8

    def test_evaluation_counts_add_up_to_g_builds(self, const_problem, odd_problem, monkeypatch):
        # on the G path, which the tilted R takes at N = 80 and 81, each
        # residual builds G and each Jacobian one G per parameter; the
        # series path builds none, with simple targets, with a double one
        # and with the one row of the odd N = 81
        builds = count_builds(monkeypatch)
        tilted, tilted_odd = (InverseProblem(
            m0=problem.m0, r=tilted_r(problem.grid), target=problem.target, d=4,
        ) for problem in (const_problem, odd_problem))
        evs = const_problem.target.eigenvalues
        double = InverseProblem(
            m0=const_problem.m0, r=const_problem.r, d=4,
            target=Spectrum(eigenvalues=evs[:-1] + (Eigenvalue(evs[-1].value, 2, 0.0),),
                            window=WINDOW, total_count=len(evs) + 1),
        )
        assert double.series is not None
        for problem, per_residual, per_jacobian in (
            (tilted, 1, 4), (tilted_odd, 1, 4), (const_problem, 0, 0), (double, 0, 0), (odd_problem, 0, 0),
        ):
            builds.clear()
            report = recover_profile(problem, np.full(4, 0.8))
            assert report.jacobian_evals == report.iterations >= 1
            assert report.residual_evals > report.iterations
            assert report.g_builds == len(builds) == (
                per_residual * report.residual_evals + per_jacobian * report.jacobian_evals
            )


class TestRecoverProfile:
    def test_stationary_at_truth(self, const_problem):
        report = recover_profile(const_problem, np.ones(4))
        assert report.converged
        assert report.iterations == 0
        assert np.abs(report.recovered.values - 1.0).max() < 1e-12

    def test_converges_from_offset(self, const_problem):
        report = recover_profile(const_problem, np.full(4, 0.8))
        assert report.converged
        assert np.abs(report.recovered.values - 1.0).max() < 1e-3
        assert report.history[-1] < report.history[0]

    def test_iteration_budget_respected(self, const_problem, monkeypatch):
        monkeypatch.setattr(idospec.inverse, "FTOL", 1e-14)
        monkeypatch.setattr(idospec.inverse, "XTOL", 1e-14)
        report = recover_profile(const_problem, np.full(4, 0.5), max_iter=1)
        assert report.iterations <= 1
        assert not report.converged

    def test_one_kernel_assembly_per_residual(self, const_problem, odd_problem, monkeypatch):
        # on the G path each residual, those of the Jacobian's d forward
        # differences included, assembles one kernel and nothing else does,
        # with the tilted R at N = 80 and 81; the series path of the odd
        # N = 81 assembles none
        calls = []
        assemble = idospec.inverse.assemble_kernel
        monkeypatch.setattr(
            idospec.inverse, "assemble_kernel",
            lambda *a, **k: calls.append(1) or assemble(*a, **k),
        )
        for base in (const_problem, odd_problem):
            tilted = InverseProblem(m0=base.m0, r=tilted_r(base.grid), target=base.target, d=4)
            calls.clear()
            report = recover_profile(tilted, np.full(4, 0.8))
            assert report.jacobian_evals >= 1
            assert len(calls) == report.residual_evals + tilted.d * report.jacobian_evals
        calls.clear()
        report = recover_profile(odd_problem, np.full(4, 0.8))
        assert report.jacobian_evals >= 1 and calls == [] and report.g_builds == 0

    def test_declined_rows_fit_on_forward_differences(self, const_problem, monkeypatch):
        # where the series declines every row, each residual takes last_row's
        # march rows, two G builds, and each Jacobian is forward differences
        # of d more residuals; the fit still converges
        builds = count_builds(monkeypatch)
        monkeypatch.setattr(idospec.transform, "series_row", lambda *a, **k: None)
        report = recover_profile(const_problem, np.full(4, 0.8))
        assert report.converged and report.jacobian_evals == report.iterations >= 1
        assert report.g_builds == len(builds) == 2 * (report.residual_evals + 4 * report.jacobian_evals)
        assert np.abs(report.recovered.values - 1.0).max() < 1e-3

    def test_fit_from_a_declined_start_reaches_the_series(self, const_problem, monkeypatch):
        # from P = 100 the series' rounding guard declines the rows, which
        # take the march until the fit nears P = 1, where it takes the series;
        # g_builds counts every build of either kind of iteration
        builds = count_builds(monkeypatch)
        report = recover_profile(const_problem, np.full(4, 100.0))
        assert report.converged and report.jacobian_evals == report.iterations
        assert 0 < report.g_builds == len(builds) < 2 * (report.residual_evals + 4 * report.jacobian_evals)
        assert np.abs(report.recovered.values - 1.0).max() < 1e-6

    def test_series_path_builds_no_field(self, const_problem, monkeypatch):
        # no kernel assembly and no G build: each residual brings its exact
        # Jacobian
        calls = []
        for module, name in ((idospec.inverse, "assemble_kernel"), (idospec.inverse, "compute_g"),
                             (idospec.transform, "compute_g")):
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
        report = recover_profile(const_problem, np.full(4, 0.8))
        assert report.converged and report.jacobian_evals >= 1
        assert report.g_builds == 0 and calls == []

    def test_stall_at_discretization_floor_converges(self, const_problem, monkeypatch):
        # target from a finer grid, so the cost has a floor above zero; with
        # ftol and xtol off, only the stall rule can end the fit as converged
        fine = make_grid(160)
        m = assemble_kernel(StructuredKernel(
            TriangularField.zeros(fine),
            (KernelComponent(TriangularField.constant(fine, 1.0),
                             Profile.constant(fine, 1.0)),),
        ))
        problem = InverseProblem(
            m0=const_problem.m0, r=const_problem.r,
            target=spectrum_of(compute_g(m), WINDOW), d=4,
        )
        monkeypatch.setattr(idospec.inverse, "FTOL", 0.0)
        monkeypatch.setattr(idospec.inverse, "XTOL", 0.0)
        report = recover_profile(problem, np.full(4, 0.8))
        assert report.converged
        before, after = report.history[-2:]
        assert 0.0 < before - after <= STALL_RTOL * before
        assert np.abs(report.recovered.values - 1.0).max() < 5e-3  # O(h^2) grid mismatch

    def test_records_the_regularization_weight_it_used(self, const_problem):
        # 4 targets are fewer than 2d = 8 data, so mu = 0 is raised to 1e-6;
        # with d = 2 they suffice, and a weight that is set is kept
        for d, mu, used in ((4, 0.0, 1e-6), (4, 1e-3, 1e-3), (2, 0.0, 0.0)):
            problem = InverseProblem(
                m0=const_problem.m0, r=const_problem.r, target=const_problem.target, d=d, mu=mu,
            )
            assert recover_profile(problem, np.ones(d)).mu == used

    def test_empty_target_without_regularization(self, const_problem):
        empty = Spectrum(eigenvalues=(), window=WINDOW, total_count=0)
        problem = InverseProblem(
            m0=const_problem.m0, r=const_problem.r, target=empty, d=4,
        )
        with pytest.raises(UnderdeterminedError):
            recover_profile(problem, np.zeros(4))

    def test_wrong_init_length(self, const_problem):
        with pytest.raises(ValueError):
            recover_profile(const_problem, np.zeros(5))


class TestClosedFormRoots:
    def test_constant_profile_is_recovered_to_fourth_order(self):
        # P = 1 from the 18 zeros of its continuous Delta on the benchmark's
        # window: the extrapolated residual recovers it to O(h^4) (the G
        # path's plain Delta reaches 1.37e-3 and 3.41e-4 at N = 100 and 200)
        roots = oracle_roots_in_window(WIDE.re_min, WIDE.re_max, WIDE.im_min, WIDE.im_max)
        assert len(roots) == 18
        target = Spectrum(eigenvalues=tuple(Eigenvalue(z, 1, 0.0) for z in roots),
                          window=WIDE, total_count=18)
        errs = []
        for n in (100, 200):
            problem = convolution_problem(target, n)
            assert problem.series is not None
            report = recover_profile(problem, np.zeros(8))
            assert report.converged
            errs.append(np.abs(report.recovered.values - 1.0).max())
        assert errs[1] <= 2e-5
        assert errs[0] >= 10.0 * errs[1]


class TestRecoverSequential:
    def test_too_many_spectra_rejected(self, grid80, const_problem):
        family = StructuredKernel(
            TriangularField.zeros(grid80),
            (KernelComponent(const_problem.r, Profile.constant(grid80, 1.0)),),
        )
        with pytest.raises(ValueError):
            recover_sequential([const_problem.target] * 2, family, d=4)

    def test_single_stage_matches_direct(self, grid80, const_problem):
        family = StructuredKernel(
            const_problem.m0,
            (KernelComponent(const_problem.r, Profile.constant(grid80, 1.0)),),
        )
        reports = recover_sequential(
            [const_problem.target], family, d=4, inits=[np.full(4, 0.8)],
        )
        assert len(reports) == 1
        assert reports[0].converged
        assert np.abs(reports[0].recovered.values - 1.0).max() < 1e-3

    @pytest.mark.parametrize("stages", [1, 2, 3])
    def test_known_kernel_assembled_between_stages_only(
        self, grid80, const_problem, monkeypatch, stages
    ):
        # with the stage fits stubbed out, every kernel_samples call is a
        # stage's recovered profile frozen into the next stage's known part.
        # M0 and R are Profiles, so that part is the Profile m0 + r P, which
        # keeps the next stage on the series path, and no field is assembled
        problems = []

        def fit(problem, init, *, max_iter):
            problems.append(problem)
            return idospec.inverse.RecoveryReport(
                recovered=Profile.constant(grid80, 1.0), residual_norm=0.0,
                iterations=0, converged=True,
            )

        calls = []
        samples = idospec.inverse.kernel_samples
        monkeypatch.setattr(idospec.inverse, "recover_profile", fit)
        monkeypatch.setattr(idospec.inverse, "kernel_samples", lambda sk: calls.append(1) or samples(sk))
        for module in (idospec.inverse, idospec.kernels):
            monkeypatch.setattr(module, "assemble_kernel", lambda *a: calls.append("assembled"))
        family = StructuredKernel(
            const_problem.m0,
            (KernelComponent(const_problem.r, Profile.constant(grid80, 1.0)),) * 3,
        )
        spectra = [const_problem.target] * stages
        reports = recover_sequential(spectra, family, d=4)
        assert len(reports) == stages
        assert calls == [1] * (len(spectra) - 1)
        for k, problem in enumerate(problems):
            assert isinstance(problem.m0, Profile) and problem.series is not None
            assert np.array_equal(problem.m0.values, np.full(grid80.n_nodes, float(k)))


class TestIdentities:
    @pytest.mark.parametrize("lam", [0.5, -1.5 - 0.5j, 2.0 + 0.25j])
    def test_green_identity_small(self, grid100, lam):
        fields = mild_family_fields(grid100)
        m, mt = fields["structured"], fields["polynomial"]
        res = verify_green_identity(m, mt, eval_psi(m, lam), eval_e_direct(mt, lam))
        assert res < 1e-3

    def test_green_identity_second_order(self):
        lam = 1.0 - 0.5j
        errs = []
        for n in (100, 200):
            fields = mild_family_fields(make_grid(n))
            m, mt = fields["structured"], fields["trig"]
            errs.append(verify_green_identity(m, mt, eval_psi(m, lam), eval_e_direct(mt, lam)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4)

    @pytest.mark.parametrize("lam", [0.5, -1.0 - 0.5j])
    def test_change_of_variables_small(self, grid100, lam):
        m0 = TriangularField.from_function(grid100, lambda x, t: 0.05 + 0.03 * x)
        r = TriangularField.from_function(grid100, lambda x, t: 1.0 + 0.2 * np.cos(t))
        p = Profile.from_function(grid100, lambda x: 0.3 * np.sin(x) + 0.15)
        pt = Profile.from_function(grid100, lambda x: 0.2 * np.cos(x))
        m = assemble_kernel(StructuredKernel(m0, (KernelComponent(r, p),)))
        mt = assemble_kernel(StructuredKernel(m0, (KernelComponent(r, pt),)))
        psi, et = eval_psi(m, lam), eval_e_direct(mt, lam)
        assert verify_change_of_variables(r, p, pt, psi, et, eval_z(r, psi, et)) < 1e-3
