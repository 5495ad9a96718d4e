"""Profile recovery from spectra and numerical checks of the proof identities.

The residual never re-solves the eigenvalue problem inside the optimizer
loop: a target eigenvalue nu of multiplicity m contributes the values
Delta(nu), Delta'(nu), ..., Delta^(m-1)(nu) of the candidate characteristic
function, which all vanish exactly when nu is a zero of that multiplicity.
Delta is spectral.DeltaEvaluator of rows from transform.last_row, the Delta
whose zeros find_spectrum finds: exact Jacobian when every row is a series
row, forward differences otherwise.

The candidate M = M0 + R P(x - t) is a Profile of difference samples where
M0 and R are Profiles (InverseProblem.series, decided by type alone), else
an assembled field. last_row sums a Profile's row as a series, so no G is
built, with the Delannoy sums the problem keeps per row grid for the whole
fit (InverseProblem.series_tables), and marches G for a field or for a row
the series declines. Where N is even and no target aliases on the grid of
N/2 intervals, a Profile's rows are those on the grid and on its every
other node, as spectrum with "extrapolate" reads them, and Delta is their
Richardson combination;
otherwise the row on the grid serves alone. The paper's Green identity and
change of variables are not needed for the fit; verify_green_identity and
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
# compute_g is not called here; the benchmark's self-tests and the tests' build counters read it
from .transform import SeriesTables, compute_g, last_row, series_jacobian
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
    of their samples (kernels.StructuredKernel). spectrum_residual reads
    the candidate M's rows on row_grids from transform.last_row: series
    rows where the series property is set and the series accepts them,
    else the last row of compute_g's march. The series rows read their
    Delannoy sums from series_tables, which the problem keeps, so a fit
    forms them once and they are freed with the problem.
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
        """(m0, lift) when M = M0 + R P(x - t) is a difference kernel, else None.

        That is decided by type: M0 and R must each be a Profile. A field is
        not inspected, even one that equals a Profile read at x - t. Then
        M's difference samples are m0 + lift @ params, with m0 the samples
        of M0 and lift the basis scaled by those of R.
        """
        if not (isinstance(self.m0, Profile) and isinstance(self.r, Profile)):
            return None
        return self.m0.values, self.r.values[:, None] * self.basis

    @cached_property
    def row_grids(self) -> tuple[Grid, ...]:
        """The grids spectrum_residual reads M's last rows on.

        Where the fit takes series rows, those of N/2 and of N intervals,
        whose rows Delta folds, where N is even and every |Re nu| < N/2, so
        that the coarse grid does not alias a target; else, and always for
        a field M, the grid of N intervals alone.
        """
        n = self.grid.n_intervals
        if (self.series is None or n % 2
                or any(abs(ev.value.real) >= n / 2 for ev in self.target.eigenvalues)):
            return (self.grid,)
        return make_grid(n // 2), self.grid

    @cached_property
    def series_tables(self) -> tuple[SeriesTables | None, ...]:
        """One transform.SeriesTables per entry of row_grids where series is
        set, each filled as the fit's rows read it; else one None per grid,
        and no tables are formed."""
        if self.series is None:
            return (None,) * len(self.row_grids)
        return tuple(SeriesTables(grid.n_intervals) for grid in self.row_grids)

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
    g_builds: int = 0           # compute_g calls: one per march row of each residual,
                                # those of forward-difference Jacobians included
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


def _delta_at_targets(delta: DeltaEvaluator, problem: InverseProblem) -> np.ndarray:
    """Delta^(j)(nu) for each residual row's target nu and order j."""
    nus, orders = _target_orders(problem)
    res = np.empty(nus.size, dtype=complex)
    for order in set(orders.tolist()):  # np.unique would import numpy.ma, 0.5 MB
        res[orders == order] = delta.deriv(nus[orders == order], order)
    return res


def spectrum_residual(p_params, problem: InverseProblem):
    """Candidate Delta (and derivatives, per multiplicity) at the target points.

    Returns (residual, jacobian, G builds). The residual is the
    DeltaEvaluator of the rows transform.last_row reads of the candidate M on
    problem.row_grids, M the difference samples m0 + lift @ params where
    problem.series is set, else the assembled kernel field. Each series row
    reads its Delannoy sums from the problem's series_tables for its grid,
    so only the first residual of a fit forms them. With two rows,
    on the grid and on its every other node, it is the Richardson
    combination (4 Delta_N - Delta_N/2) / 3, fourth order in h; with one,
    Delta_N. jacobian is a function of no argument that returns the exact
    Jacobian, one row per residual row and one column per parameter, by
    series_jacobian chained through the lift, when every row is a series
    row; otherwise it is None and recover_profile takes forward
    differences. Each march row is one G build. A residual that is not
    finite raises NonFiniteResidualError.
    """
    if problem.series is not None:
        m0, lift = problem.series
        m = Profile(problem.grid, m0 + lift @ p_params)
    else:
        prof = profile_from_params(p_params, problem)
        m = assemble_kernel(StructuredKernel(problem.m0, (KernelComponent(problem.r, prof),)))
    rows, terms = [], []
    for grid, tables in zip(problem.row_grids, problem.series_tables):
        stride = problem.grid.n_intervals // grid.n_intervals
        sub, factors = m if stride == 1 else Profile(grid, m.values[::stride]), []
        row, way = last_row(sub, factors, tables)
        rows.append(row)
        terms.append((sub, factors, stride) if way == "series" else None)
    res = _delta_at_targets(DeltaEvaluator(*rows), problem)
    if not np.isfinite(res).all():
        raise NonFiniteResidualError("the residual of the fit is not finite")
    builds = terms.count(None)

    def jacobian():
        return sum(grad @ (series_jacobian(sub.values, sub.grid.step, factors) @ lift[::stride])
                   for grad, (sub, factors, stride) in zip(problem.row_gradients, terms))
    return res, None if builds else jacobian, builds


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
    raised to 1e-6, and the report records the weight used. A residual
    whose rows are all series rows comes with its exact Jacobian, taken
    only for the residuals an iteration starts from; otherwise the
    iteration's Jacobian is forward differences of the stacked residual, d
    more residuals (see _stacked_jacobian). g_builds counts the march rows
    of every residual.
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
    r: TriangularField | Profile,
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
    Both equal the same quantity in exact arithmetic. r is a field or the
    Profile rho of rho(x - t), whose R (P - P_tilde)(x - t) is the
    difference kernel of rho (P - P_tilde): formed on its lag view, it has
    the values of the lifted field's product.
    """
    require_same_grid(r.grid, p.grid, p_tilde.grid)
    grid = r.grid
    dp = p.values - p_tilde.values
    rdp = np.array(lag_view(r.values * dp)) if isinstance(r, Profile) else r.values * lag_view(dp)
    form_a = _triangle_double_integral(psi, rdp, e_tilde, grid)
    weights = trapezoid_weights(grid.n_nodes, grid.step) * dp[::-1]
    return np.abs(form_a - weights @ z)
