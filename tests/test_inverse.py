from unittest import mock

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
from idospec.transform import compute_g, reflected_kernel
from idospec.spectral import (
    Eigenvalue,
    SearchWindow,
    Spectrum,
    eval_e_direct,
    eval_psi,
    eval_z,
    find_spectrum,
)
import idospec.inverse
from idospec.inverse import (
    STALL_RTOL,
    InverseProblem,
    RecoverOptions,
    UnderdeterminedError,
    profile_from_params,
    recover_profile,
    recover_sequential,
    spectrum_jacobian,
    spectrum_residual,
    verify_green_identity,
    verify_change_of_variables,
)

from conftest import mild_family_fields
from oracles import fd_jacobian

WINDOW = SearchWindow(-6.0, 6.0, -6.0, 0.5)
WIDE = SearchWindow(-20.0, 20.0, -8.0, 0.5)


def two_sine(x):
    """A profile whose N = 100 fit from zero stalls without the secant correction."""
    return 0.7483 * np.sin(x + 1.1261) + 0.2921 * np.sin(2 * x + 3.3854)


def tilted_r(grid):
    """A factor R that is not its own reflection (x, t) -> (pi - t, pi - x)."""
    return TriangularField.from_function(grid, lambda x, t: 1.0 + 0.3 * np.cos(x) + 0.2 * t)


def convolution_problem(target, n, r=None):
    """d = 8 fit of M = R(x, t) P(x - t) on n intervals; R = 1 unless given."""
    grid = make_grid(n)
    r = TriangularField.constant(grid, 1.0) if r is None else r(grid)
    return InverseProblem(m0=TriangularField.zeros(grid), r=r, target=target, d=8)


@pytest.fixture(scope="module")
def grid80():
    return make_grid(80)


@pytest.fixture(scope="module")
def const_problem(grid80):
    """Inverse crime setup: target spectrum generated on the same grid."""
    m0 = TriangularField.zeros(grid80)
    r = TriangularField.constant(grid80, 1.0)
    true_p = Profile.constant(grid80, 1.0)
    m = assemble_kernel(StructuredKernel(m0, (KernelComponent(r, true_p),)))
    target = find_spectrum(compute_g(m), WINDOW)
    return InverseProblem(m0=m0, r=r, target=target, d=4)


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

    def test_underdetermined_flag(self, const_problem, grid80):
        assert not const_problem.is_underdetermined()  # 4 targets, d = 4
        wide = InverseProblem(
            m0=const_problem.m0, r=const_problem.r,
            target=const_problem.target, d=6,
        )
        assert wide.is_underdetermined()


class TestSpectrumResidual:
    def test_vanishes_at_true_parameters(self, const_problem):
        res, g, m = spectrum_residual(np.ones(4), const_problem)
        assert g.grid is m.grid is const_problem.grid
        assert res.shape == (const_problem.target.total_count,)
        assert np.abs(res).max() < 1e-9


@pytest.fixture(scope="module")
def two_sine_target():
    """Wide-window spectrum of M = two_sine(x - t) at N = 200."""
    grid = make_grid(200)
    m = assemble_kernel(StructuredKernel(
        TriangularField.zeros(grid),
        (KernelComponent(TriangularField.constant(grid, 1.0),
                         Profile.from_function(grid, two_sine)),),
    ))
    return find_spectrum(compute_g(m), WIDE)


class TestSpectrumJacobian:
    PARAMS = 0.8 * two_sine(np.linspace(0.0, PI, 8)) + 0.05

    @staticmethod
    def jacobians(problem, params):
        res, g, m = spectrum_residual(params, problem)
        analytic, _ = spectrum_jacobian(m, problem, g)
        fd = fd_jacobian(lambda p: spectrum_residual(p, problem)[0], params)
        return analytic, fd

    def test_columns_match_fd_to_second_order(self, two_sine_target):
        errs = []
        for n in (50, 100, 200):
            problem = convolution_problem(two_sine_target, n)
            analytic, fd = self.jacobians(problem, self.PARAMS)
            assert analytic.shape == (two_sine_target.total_count, 8)
            errs.append(np.abs(analytic - fd).max() / np.abs(fd).max())
        assert errs[1] < 2e-3
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_derivative_rows_of_a_multiple_target(self):
        # a triple target contributes Delta, Delta' and Delta'' rows; nu need
        # not be a zero for the rows to be the derivatives of the residual
        target = Spectrum(
            eigenvalues=(Eigenvalue(2.1 - 0.7j, 3, 0.0), Eigenvalue(-1.3 - 0.2j, 1, 0.0)),
            window=WIDE, total_count=4,
        )
        problem = convolution_problem(target, 100, r=tilted_r)
        analytic, fd = self.jacobians(problem, self.PARAMS)
        rel = np.abs(analytic - fd).max(axis=1) / np.abs(fd).max(axis=1)
        assert rel.shape == (4,)
        assert rel.max() <= 5e-3

    def test_fit_from_zero_converges_past_the_floor(self, two_sine_target):
        problem = convolution_problem(two_sine_target, 100)
        report = recover_profile(problem, np.zeros(8))
        assert report.converged
        grid = problem.grid
        assert np.abs(report.recovered.values - two_sine(grid.nodes)).max() <= 0.05

    def test_evaluation_counts_add_up_to_g_builds(self, const_problem, monkeypatch):
        # M = P(x - t) is its own reflection, so a Jacobian reuses the
        # residual's G; with the tilted R each Jacobian builds the reflected G
        builds = []
        build = idospec.inverse.compute_g
        monkeypatch.setattr(
            idospec.inverse, "compute_g", lambda *a, **k: builds.append(1) or build(*a, **k)
        )
        tilted = InverseProblem(
            m0=const_problem.m0, r=tilted_r(const_problem.grid),
            target=const_problem.target, d=4,
        )
        for problem, per_jacobian in ((const_problem, 0), (tilted, 1)):
            builds.clear()
            report = recover_profile(problem, np.full(4, 0.8))
            assert report.jacobian_evals == report.iterations >= 1
            assert report.residual_evals > report.iterations
            assert report.g_builds == len(builds) == (
                report.residual_evals + per_jacobian * report.jacobian_evals
            )

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(8, 40), seed=st.integers(0, 2**32 - 1))
    def test_symmetric_kernel_reuses_g_bitwise(self, n, seed):
        # random M0 and R invariant under the reflection, a random profile and
        # targets with a double point: the Jacobian that reuses g is the one
        # computed from an explicitly built reflected G, bit for bit
        rng = np.random.default_rng(seed)
        grid = make_grid(n)

        def symmetric_field(scale):
            a = np.tril(rng.standard_normal((n + 1, 2 * n + 2)).view(complex))
            return TriangularField(grid, scale * (a + a[::-1, ::-1].T))

        nus = rng.uniform(-4.0, 4.0, 3) + 1j * rng.uniform(-1.0, 0.0, 3)
        target = Spectrum(
            eigenvalues=(Eigenvalue(nus[0], 2, 0.0), Eigenvalue(nus[1], 1, 0.0),
                         Eigenvalue(nus[2], 1, 0.0)),
            window=WIDE, total_count=4,
        )
        r = TriangularField(grid, symmetric_field(0.05).values + np.tril(np.ones((n + 1, n + 1))))
        problem = InverseProblem(m0=symmetric_field(0.02), r=r, target=target, d=5)
        params = rng.uniform(-1.0, 1.0, 5)
        _, g, m = spectrum_residual(params, problem)
        jac, g_refl = spectrum_jacobian(m, problem, g)
        assert g_refl is g

        def explicit(m):
            return TriangularField(m.grid, reflected_kernel(m).values.copy())

        with mock.patch.object(idospec.inverse, "reflected_kernel", explicit):
            jac_built, g_built = spectrum_jacobian(m, problem, g)
        assert g_built is not g
        assert g_built.g.values.tobytes() == g.g.values.tobytes()
        assert jac_built.tobytes() == jac.tobytes()


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

    def test_iteration_budget_respected(self, const_problem):
        opts = RecoverOptions(max_iter=1, ftol=1e-14, xtol=1e-14)
        report = recover_profile(const_problem, np.full(4, 0.5), opts)
        assert report.iterations <= 1
        assert not report.converged

    def test_one_kernel_assembly_per_residual(self, const_problem, monkeypatch):
        # the Jacobian linearizes at the kernel its residual assembled, with
        # a symmetric kernel and with one that builds the reflected G
        calls = []
        assemble = idospec.inverse.assemble_kernel
        monkeypatch.setattr(
            idospec.inverse, "assemble_kernel",
            lambda *a, **k: calls.append(1) or assemble(*a, **k),
        )
        tilted = InverseProblem(
            m0=const_problem.m0, r=tilted_r(const_problem.grid),
            target=const_problem.target, d=4,
        )
        for problem in (const_problem, tilted):
            calls.clear()
            report = recover_profile(problem, np.full(4, 0.8))
            assert report.jacobian_evals >= 1
            assert len(calls) == report.residual_evals

    def test_stall_at_discretization_floor_converges(self, const_problem):
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
            target=find_spectrum(compute_g(m), WINDOW), d=4,
        )
        opts = RecoverOptions(ftol=0.0, xtol=0.0)
        report = recover_profile(problem, np.full(4, 0.8), opts)
        assert report.converged
        before, after = report.history[-2:]
        assert 0.0 < before - after <= STALL_RTOL * before
        assert np.abs(report.recovered.values - 1.0).max() < 5e-3  # O(h^2) grid mismatch

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
        # with the stage fits stubbed out, every assemble_kernel call is a
        # stage's recovered profile frozen into the next stage's known part
        def fit(problem, init, opts):
            return idospec.inverse.RecoveryReport(
                recovered=Profile.constant(grid80, 1.0), residual_norm=0.0,
                iterations=0, converged=True,
            )

        assemblies = []
        assemble = idospec.inverse.assemble_kernel
        monkeypatch.setattr(idospec.inverse, "recover_profile", fit)
        monkeypatch.setattr(
            idospec.inverse, "assemble_kernel",
            lambda sk: assemblies.append(1) or assemble(sk),
        )
        family = StructuredKernel(
            const_problem.m0,
            (KernelComponent(const_problem.r, Profile.constant(grid80, 1.0)),) * 3,
        )
        spectra = [const_problem.target] * stages
        reports = recover_sequential(spectra, family, d=4)
        assert len(reports) == stages
        assert len(assemblies) == len(spectra) - 1


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
