"""Profile recovery from spectra and numerical checks of the proof identities.

The residual never re-solves the eigenvalue problem inside the optimizer
loop: a target eigenvalue nu of multiplicity m contributes the values
Delta(nu), Delta'(nu), ..., Delta^(m-1)(nu) of the candidate characteristic
function, which all vanish exactly when nu is a zero of that multiplicity.
Delta is always spectral.DeltaEvaluator of G's last row, the Delta whose
zeros find_spectrum finds. A fit takes one of two paths to that row, which
InverseProblem.series decides once, by the types of M0 and R alone.

When M0 and R are Profiles, so that M = M0 + R P(x - t) is a difference
kernel (the series path), the rows are transform.series_row's, so no G is
built, and the exact Jacobian of the rows (transform.series_jacobian)
gives the residual's. Where N is even and no target aliases on the grid of
N/2 intervals, the rows are those on the grid and on its every other node,
as spectrum with "extrapolate" reads them, and Delta is their Richardson
combination; otherwise the row on the grid serves alone, the Delta that
spectrum searches when it does not extrapolate.

Otherwise (the G path: a field M0 or R) Delta is that of the candidate G's
last row, and the Jacobian is forward differences of that residual, one G
build per parameter. The paper's Green identity and change of variables
are not needed for the fit; verify_green_identity and
verify_change_of_variables check them numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import (
    Grid,
    Profile,
    TriangularField,
    lag_view,
    make_grid,
    require_same_grid,
    trapezoid_weights,
    volterra_apply,
)
from .kernels import (
    KernelComponent,
    StructuredKernel,
    assemble_kernel,
    kernel_samples,
    compute_B,
    check_B_nonvanishing,
    NumericalFailure,
    WeightVanishesError,
)
from .transform import compute_g, last_row, series_jacobian
from .spectral import DeltaEvaluator, Spectrum


class UnderdeterminedError(ValueError):
    """Fewer target data than parameters with no regularization."""


class NonFiniteResidualError(NumericalFailure):
    """A fit's residual is not finite, though the rows it was read from are."""


# The fit's one setting, and its default: it ends unconverged after MAX_ITER
# iterations.
MAX_ITER = 40
# An accepted LM step that lowers the cost by at most this fraction of it ends
# the fit as converged: the cost has reached the floor the discretization
# leaves, and further steps only trade round-off.
STALL_RTOL = 1e-6
# The fit also converges once the cost falls below FTOL, or once a step is
# below XTOL (1 + |params|).
XTOL = 1e-9
FTOL = 1e-8
# The LM damping starts at LM_DAMPING0; an iteration tries at most MAX_INNER
# damped steps, each rejection raising the damping tenfold.
LM_DAMPING0 = 1e-3
MAX_INNER = 12
# A forward-difference Jacobian moves parameter k by FD_STEP (1 + |p_k|),
# about the square root of the double precision epsilon.
FD_STEP = 1.5e-8


def _spline_basis(knots: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """(len(nodes), d) values of the not-a-knot cubic splines through unit samples.

    Column k interpolates 1 at knots[k] and 0 at the other d knots, in the
    arithmetic of scipy's CubicSpline(knots, eye(d)). The slopes s at the
    knots solve the C2 continuity rows, closed by not-a-knot rows (third
    derivative continuous at the second and the second-to-last knot). With
    d = 3 both closing rows coincide and the spline is the parabola through
    the samples; with d = 2 it is the line. For d >= 4 the system is
    tridiagonal, and on uniform knots elimination needs no row interchange,
    so the plain forward sweep and back substitution below are the steps
    LAPACK's tridiagonal solver takes. On [knots[k], knots[k+1]] the spline
    is the cubic of the samples and slopes at both ends, summed in powers
    of x - knots[k].
    """
    d = len(knots)
    dx = np.diff(knots)
    y = np.eye(d)
    slope = np.diff(y, axis=0) / dx[:, None]
    if d == 2:
        s = np.vstack((slope, slope))
    elif d == 3:
        a = np.array([[1.0, 1.0, 0.0], [dx[1], 2.0 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        b = np.vstack((2.0 * slope[0], 3.0 * (dx[0] * slope[1] + dx[1] * slope[0]), 2.0 * slope[1]))
        s = np.linalg.solve(a, b)
    else:
        w0, w1 = knots[2] - knots[0], knots[-1] - knots[-3]
        lower = np.append(dx[1:], w1)        # lower[i]: row i + 1, column i
        diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]))
        upper = np.insert(dx[:-1], 0, w0)    # upper[i]: row i, column i + 1
        s = np.empty((d, d))
        s[0] = ((dx[0] + 2.0 * w0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / w0
        s[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
        s[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * w1 + dx[-1]) * dx[-2] * slope[-1]) / w1
        for i in range(d - 1):
            f = lower[i] / diag[i]
            diag[i + 1] -= f * upper[i]
            s[i + 1] -= f * s[i]
        s[-1] /= diag[-1]
        for i in range(d - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx[:, None]
    cubic, square = t / dx[:, None], (slope - s[:-1]) / dx[:, None] - t
    k = np.clip(np.searchsorted(knots, nodes, side="right") - 1, 0, d - 2)
    u = (nodes - knots[k])[:, None]
    u2 = u * u
    return y[k] + s[k] * u + square[k] * u2 + cubic[k] * (u2 * u)


@dataclass(frozen=True, eq=False)
class InverseProblem:
    """Single-profile recovery setup: M0 and R known, P unknown.

    M0 and R are fields, or Profiles that stand for the difference kernels
    of their samples (kernels.StructuredKernel). A problem whose series
    property is set is fitted on series rows (see spectrum_residual). Each
    G that spectrum_residual builds, for any other problem or for a row the
    series declines, is compute_g's: the row march, certified by one Picard
    update at the tolerance the march sets.
    """

    m0: TriangularField | Profile
    r: TriangularField | Profile
    target: Spectrum
    d: int
    mu: float = 0.0

    def __post_init__(self):
        require_same_grid(self.m0.grid, self.r.grid)
        if self.d < 2:
            raise ValueError("need at least 2 profile parameters")
        if self.mu < 0:
            raise ValueError("regularization weight must be nonnegative")

    @property
    def grid(self) -> Grid:
        return self.m0.grid

    @property
    def param_nodes(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.d)

    @cached_property
    def basis(self) -> np.ndarray:
        """(N+1) x d matrix whose column k is the cubic spline through unit sample k.

        The spline lift is linear in the samples, so the profile of a
        parameter vector is this matrix times it.
        """
        return _spline_basis(self.param_nodes, self.grid.nodes)

    @cached_property
    def series(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(m0, lift) when the fit takes the series path, else None.

        The path needs M = M0 + R P(x - t) to be a difference kernel, decided
        by type: M0 and R must each be a Profile. A field is not inspected,
        even one that equals a Profile read at x - t. Then M's difference
        samples are m0 + lift @ params, with m0 the samples of M0 and lift
        the basis scaled by those of R.
        """
        if not (isinstance(self.m0, Profile) and isinstance(self.r, Profile)):
            return None
        return self.m0.values, self.r.values[:, None] * self.basis

    @cached_property
    def row_grids(self) -> tuple[Grid, ...]:
        """The grids the series rows are summed on.

        Those of N/2 and of N intervals, whose rows Delta folds, where N is
        even and every |Re nu| < N/2, so that the coarse grid does not alias
        a target; else the grid of N intervals alone.
        """
        n = self.grid.n_intervals
        if n % 2 or any(abs(ev.value.real) >= n / 2 for ev in self.target.eigenvalues):
            return (self.grid,)
        return make_grid(n // 2), self.grid

    @cached_property
    def row_gradients(self) -> tuple[np.ndarray, ...]:
        """The derivatives of the series residual in the rows of row_grids.

        Row t of the residual is Delta^(m)(nu), whose coefficients are
        w_j row_N[j] for one row, and (4 w_j row_N[j] - [j even]
        w'_(j/2) row_N/2[j/2]) / 3 for two (DeltaEvaluator), w and w' the
        trapezoid weights of the two grids, so its derivative in a row's
        entry j is that entry's weight times (-i x_j)^m exp(-i nu x_j), x_j
        the node the entry sits on.
        """
        (nus, orders), x, h = _target_orders(self), self.grid.nodes, self.grid.step
        terms = (-1j * x) ** orders[:, None] * np.exp(-1j * np.outer(nus, x))
        fine = terms * trapezoid_weights(x.size, h)
        if len(self.row_grids) == 1:
            return (fine,)
        return terms[:, ::2] * trapezoid_weights(x.size // 2 + 1, 2 * h) / -3.0, fine * (4.0 / 3.0)

    def is_underdetermined(self) -> bool:
        return self.target.total_count < self.d

    def check_weight_condition(self) -> Profile:
        b = compute_B(self.r)
        if not check_B_nonvanishing(b):
            fault = "vanishes inside (0, pi]" if np.isfinite(b.values).all() else "is not finite"
            raise WeightVanishesError(f"weight B(x) {fault}; profile is not identifiable")
        return b


@dataclass
class RecoveryReport:
    recovered: Profile
    residual_norm: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list)
    underdetermined: bool = False
    residual_evals: int = 0     # residuals of the start and of each trial step
    jacobian_evals: int = 0     # Jacobians taken
    g_builds: int = 0           # compute_g calls: on the G path one per residual, so d
                                # per Jacobian; on the series path one per row the
                                # series declines
    mu: float = 0.0             # the regularization weight the fit used
    # per LM iteration: the damping of the step it accepted (the damping it
    # ended at if it accepted none), and its trial residuals that did not
    # lower the cost
    damping: list = field(default_factory=list)
    rejected_trials: list = field(default_factory=list)


def profile_from_params(params, problem: InverseProblem) -> Profile:
    """Cubic-spline lift of the d parameter samples to the solver grid."""
    params = np.asarray(params, dtype=float)
    if params.shape != (problem.d,):
        raise ValueError(f"expected {problem.d} parameters, got shape {params.shape}")
    return Profile(problem.grid, (problem.basis @ params).astype(complex))


def _target_orders(problem: InverseProblem) -> tuple[np.ndarray, np.ndarray]:
    """Target values and derivative orders, one entry per residual row."""
    evs = problem.target.eigenvalues
    nus = [ev.value for ev in evs for _ in range(ev.multiplicity)]
    orders = [j for ev in evs for j in range(ev.multiplicity)]
    return np.array(nus, dtype=complex), np.array(orders, dtype=int)


def _series_residual(p_params, problem: InverseProblem):
    """spectrum_residual on the series path."""
    m0, lift = problem.series
    p = m0 + lift @ p_params
    rows, terms = [], []
    for grid in problem.row_grids:
        stride = problem.grid.n_intervals // grid.n_intervals
        samples, factors = p[::stride], []
        row, way = last_row(Profile(grid, samples), factors)
        rows.append(row)
        terms.append((samples, grid.step, factors if way == "series" else None, lift[::stride]))
    res = _delta_at_targets(DeltaEvaluator(*rows), problem)
    builds = sum(factors is None for _, _, factors, _ in terms)

    def jacobian():
        return sum(grad @ (series_jacobian(samples, h, factors) @ lift)
                   for grad, (samples, h, factors, lift) in zip(problem.row_gradients, terms))
    return res, None if builds else jacobian, builds


def _delta_at_targets(delta: DeltaEvaluator, problem: InverseProblem) -> np.ndarray:
    """Delta^(j)(nu) for each residual row's target nu and order j."""
    nus, orders = _target_orders(problem)
    res = np.empty(nus.size, dtype=complex)
    for order in set(orders.tolist()):  # np.unique would import numpy.ma, 0.5 MB
        res[orders == order] = delta.deriv(nus[orders == order], order)
    return res


def spectrum_residual(p_params, problem: InverseProblem):
    """Candidate Delta (and derivatives, per multiplicity) at the target points.

    Returns (residual, jacobian, G builds). jacobian is a function of no
    argument that returns the exact Jacobian, one row per residual row and
    one column per parameter, or None: recover_profile then takes it by
    forward differences. On the series path (problem.series set) the
    residual is the DeltaEvaluator of the series rows of M's difference
    samples on problem.row_grids: with two, the Richardson combination
    (4 Delta_N - Delta_N/2) / 3 of the rows on the grid and on its every
    other node, fourth order in h; with one, Delta_N, the Delta of G's last
    row to rounding. No kernel field and no G is formed, and jacobian
    chains series_jacobian through the lift. A row whose rounding guard
    declines is last_row's march row, one G build; jacobian is then None.
    On the G path each derivative order is one call of the DeltaEvaluator
    of G's last row over its targets, one G build, and jacobian is None.
    On either path a residual that is not finite raises
    NonFiniteResidualError.
    """
    if problem.series is not None:
        res, jacobian, builds = _series_residual(p_params, problem)
    else:
        prof = profile_from_params(p_params, problem)
        g = compute_g(assemble_kernel(StructuredKernel(problem.m0, (KernelComponent(problem.r, prof),))))
        res, jacobian, builds = _delta_at_targets(DeltaEvaluator(g.g.values[-1]), problem), None, 1
    if not np.isfinite(res).all():
        raise NonFiniteResidualError("the residual of the fit is not finite")
    return res, jacobian, builds


def _stacked(values: np.ndarray, params: np.ndarray, mu: float) -> np.ndarray:
    """The real and imaginary parts of values, then with mu > 0 sqrt(mu) times
    the second differences of params: the stacked residual of residual
    values at params, or with the identity for params its Jacobian."""
    parts = [values.real, values.imag]
    if mu > 0:
        parts.append(np.sqrt(mu) * (params[:-2] - 2.0 * params[1:-1] + params[2:]))
    return np.concatenate(parts)


def _stacked_residual(params: np.ndarray, problem: InverseProblem, mu: float):
    res, jacobian, builds = spectrum_residual(params, problem)
    return _stacked(res, params, mu), jacobian, builds


def _stacked_jacobian(params: np.ndarray, res: np.ndarray, jacobian, problem: InverseProblem, mu: float):
    """The stacked Jacobian at params, whose stacked residual res came with
    jacobian, and the G builds it took.

    With jacobian None column k is the forward difference of the stacked
    residual with step FD_STEP (1 + |p_k|); otherwise jacobian gives the
    residual's rows.
    """
    if jacobian is None:
        steps = FD_STEP * (1.0 + np.abs(params))
        trials = [_stacked_residual(params + step * unit, problem, mu)
                  for step, unit in zip(steps, np.eye(problem.d))]
        return (np.stack([(t[0] - res) / step for t, step in zip(trials, steps)], axis=1),
                sum(t[2] for t in trials))
    return _stacked(jacobian(), np.eye(problem.d), mu), 0


def recover_profile(
    problem: InverseProblem,
    init,
    *,
    max_iter: int = MAX_ITER,
) -> RecoveryReport:
    """Damped Gauss-Newton (Levenberg-Marquardt) fit of the profile parameters.

    Minimizes 0.5 * ||stacked residual||^2 with a second-difference
    regularizer of weight mu; with fewer than 2d target data, mu = 0 is
    raised to 1e-6, and the report records the weight used. On the series
    path each residual comes with its exact Jacobian, taken only for the
    residuals an iteration starts from, and no G is built. On the G path,
    or where a series row declines, each residual builds G, and the
    iteration's Jacobian is forward differences of the stacked residual, d
    more residuals (see _stacked_jacobian); g_builds counts every build.
    The fit converges when the cost drops below FTOL, the step below XTOL,
    or an accepted step lowers the cost by at most STALL_RTOL of it; it
    ends unconverged after max_iter iterations, or when MAX_INNER damped
    steps of one iteration all fail to lower the cost.
    """
    problem.check_weight_condition()
    params = np.asarray(init, dtype=float).copy()
    if params.shape != (problem.d,):
        raise ValueError(f"init must have length {problem.d}")

    mu = problem.mu
    underdet = problem.is_underdetermined()
    if problem.target.total_count == 0 and mu == 0:
        raise UnderdeterminedError("empty target spectrum and no regularization")
    if mu == 0 and problem.target.total_count < 2 * problem.d:
        mu = 1e-6  # truncated spectra can be practically underdetermined

    res, jacobian, g_builds = _stacked_residual(params, problem, mu)
    residual_evals, jacobian_evals = 1, 0
    cost = float(np.linalg.norm(res))
    history = [cost]
    dampings, rejected = [], []
    damping = LM_DAMPING0
    converged = cost < FTOL
    it = 0
    while not converged and it < max_iter:
        it += 1
        jac, builds = _stacked_jacobian(params, res, jacobian, problem, mu)
        jacobian_evals += 1
        g_builds += builds

        accepted = False
        rejected.append(0)
        for _ in range(MAX_INNER):
            jtj = jac.T @ jac
            scale = np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                delta = np.linalg.solve(jtj + damping * scale, -(jac.T @ res))
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = params + delta
            trial_res, trial_jacobian, builds = _stacked_residual(trial, problem, mu)
            residual_evals += 1
            g_builds += builds
            trial_cost = float(np.linalg.norm(trial_res))
            if trial_cost < cost:
                stalled = cost - trial_cost <= STALL_RTOL * cost
                params, res, cost, jacobian = trial, trial_res, trial_cost, trial_jacobian
                accepted = True
                break
            rejected[-1] += 1
            damping *= 10.0
        history.append(cost)
        dampings.append(damping)
        if not accepted:
            break
        damping = max(damping / 3.0, 1e-12)
        converged = bool(
            stalled
            or cost < FTOL
            or np.linalg.norm(delta) < XTOL * (1.0 + np.linalg.norm(params))
        )

    return RecoveryReport(
        recovered=profile_from_params(params, problem),
        residual_norm=cost,
        iterations=it,
        converged=converged,
        history=history,
        underdetermined=underdet,
        residual_evals=residual_evals,
        jacobian_evals=jacobian_evals,
        g_builds=g_builds,
        mu=mu,
        damping=dampings,
        rejected_trials=rejected,
    )


def recover_sequential(
    spectra,
    family: StructuredKernel,
    d: int,
    *,
    max_iter: int = MAX_ITER,
    mu: float = 0.0,
    inits=None,
) -> list:
    """Stage-by-stage recovery of P_1, ..., P_p from the truncation spectra.

    Stage k sees the spectrum of the k-truncated kernel and solves for P_k
    with the previously recovered profiles frozen into the known part, as
    kernel_samples forms it: a Profile where M0 and the R_j so far are.
    """
    if len(spectra) > family.p_count:
        raise ValueError(
            f"{len(spectra)} spectra but only {family.p_count} kernel components"
        )
    reports = []
    m0_eff = family.m0
    for k, target in enumerate(spectra):
        comp = family.components[k]
        problem = InverseProblem(m0=m0_eff, r=comp.r, target=target, d=d, mu=mu)
        init = (
            np.zeros(d)
            if inits is None
            else np.asarray(inits[k], dtype=float)
        )
        report = recover_profile(problem, init, max_iter=max_iter)
        reports.append(report)
        if not report.converged or k + 1 == len(spectra):
            break
        m0_eff = kernel_samples(
            StructuredKernel(m0_eff, (KernelComponent(comp.r, report.recovered),))
        )
    return reports


# --- identity verification -----------------------------------------------------


def _triangle_double_integral(outer, field_vals, inner, grid: Grid):
    """Nested trapezoid of outer(x) * integral over [0,x] of field(x,t) inner(t).

    outer and inner are node samples, or matrices with one column per
    lambda, which give one value per column.
    """
    f = outer * volterra_apply(field_vals, inner, grid.step)
    return trapezoid_weights(grid.n_nodes, grid.step) @ f


def verify_green_identity(
    m: TriangularField, m_tilde: TriangularField, psi: np.ndarray, e_tilde: np.ndarray
):
    """|LHS - RHS| of the integrated Green-type identity.

    psi = eval_e_direct(reflected_kernel(m), lam)[::-1] and
    e_tilde = eval_e_direct(m_tilde, lam), for one lambda or with one column
    per lambda, giving one residual per lambda.
    LHS is the double integral of psi * (M - M_tilde) * e_tilde over the
    triangle; RHS is i * (e_tilde(pi) - psi(0)).
    """
    require_same_grid(m.grid, m_tilde.grid)
    lhs = _triangle_double_integral(psi, m.values - m_tilde.values, e_tilde, m.grid)
    return np.abs(lhs - 1j * (e_tilde[-1] - psi[0]))


def verify_change_of_variables(
    r: TriangularField,
    p: Profile,
    p_tilde: Profile,
    psi: np.ndarray,
    e_tilde: np.ndarray,
    z: np.ndarray,
):
    """Residual between the two equivalent forms of the profile-difference term.

    psi is the adjoint solution of M = M0 + R P, e_tilde the forward
    solution of M~ = M0 + R P~ and z = eval_z(r, psi, e_tilde), for one
    lambda or with one column per lambda, giving one residual per lambda.
    Form A integrates psi * R * (P - P_tilde)(x - t) * e_tilde over the
    triangle; form B integrates (P - P_tilde)(pi - x) against z(x, lambda).
    Both equal the same quantity in exact arithmetic.
    """
    require_same_grid(r.grid, p.grid, p_tilde.grid)
    grid = r.grid
    dp = p.values - p_tilde.values
    form_a = _triangle_double_integral(psi, r.values * lag_view(dp), e_tilde, grid)
    weights = trapezoid_weights(grid.n_nodes, grid.step) * dp[::-1]
    return np.abs(form_a - weights @ z)
