"""Profile recovery from spectra and numerical checks of the proof identities.

The residual never re-solves the eigenvalue problem inside the optimizer
loop: a target eigenvalue nu of multiplicity m contributes the values
Delta(nu), Delta'(nu), ..., Delta^(m-1)(nu) of the candidate characteristic
function, which all vanish exactly when nu is a zero of that multiplicity.
Their derivatives in the profile parameters come from the paper's Green
identity Delta~ - Delta = i * double integral of psi (M~ - M) e~, linearized
at M~ = M, so a Jacobian needs the forward solutions e and psi of the
current kernel only, not one residual per parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import (
    Grid,
    Profile,
    TriangularField,
    require_same_grid,
    trapezoid_weights,
    volterra_apply,
)
from .kernels import (
    KernelComponent,
    StructuredKernel,
    _shift_matrix,
    assemble_kernel,
    compute_B,
    check_B_nonvanishing,
    WeightVanishesError,
)
from .transform import TransformKernel, compute_g, reflected_kernel
from .spectral import Spectrum, char_delta_deriv, eval_e_via_g


class UnderdeterminedError(ValueError):
    """Fewer target data than parameters with no regularization."""


# An accepted LM step that lowers the cost by at most this fraction of it ends
# the fit as converged: the cost has reached the floor the discretization
# leaves, and further steps only trade round-off.
STALL_RTOL = 1e-6


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
    """Single-profile recovery setup: M0 and R known, P unknown."""

    m0: TriangularField
    r: TriangularField
    target: Spectrum
    d: int
    mu: float = 0.0
    picard_tol: float | None = None
    picard_max_terms: int = 60

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
    def weighted_basis_fields(self) -> np.ndarray:
        """d x (N+1) x (N+1) stack of R(x, t) phi_k(x - t) times trapezoid weights.

        R(x, t) phi_k(x - t) is the derivative of the kernel M in parameter
        k. The weight of node (x_i, t_j) is that of the nested trapezoid
        rule over t <= x: w_i h, halved at t = 0 and at t = x, and zero on
        row 0, where the inner range is empty. A double integral of
        psi(x) dM(x, t) e(t) is then psi @ layer @ e.
        """
        grid = self.grid
        inner = np.tril(np.full((grid.n_nodes,) * 2, grid.step))
        inner[:, 0] *= 0.5
        np.einsum("ii->i", inner)[...] *= 0.5
        inner[0] = 0.0
        weights = trapezoid_weights(grid.n_nodes, grid.step)[:, None] * inner
        return np.stack([weights * self.r.values * _shift_matrix(phi) for phi in self.basis.T])

    def is_underdetermined(self) -> bool:
        return self.target.total_count < self.d

    def check_weight_condition(self, tol: float | None = None) -> Profile:
        b = compute_B(self.r)
        if not check_B_nonvanishing(b, tol):
            raise WeightVanishesError(
                "weight B(x) vanishes inside (0, pi]; profile is not identifiable"
            )
        return b


@dataclass
class RecoveryReport:
    recovered: Profile
    residual_norm: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list)
    underdetermined: bool = False
    residual_evals: int = 0     # spectrum_residual calls, one G build each
    jacobian_evals: int = 0     # spectrum_jacobian calls, at most one G build each
    g_builds: int = 0           # compute_g calls: a Jacobian builds none when
                                # the kernel is its own reflection
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


def _candidate_kernel(p_params, problem: InverseProblem) -> TriangularField:
    prof = profile_from_params(p_params, problem)
    return assemble_kernel(
        StructuredKernel(problem.m0, (KernelComponent(problem.r, prof),))
    )


def _target_orders(problem: InverseProblem) -> tuple[np.ndarray, np.ndarray]:
    """Target values and derivative orders, one entry per residual row."""
    evs = problem.target.eigenvalues
    nus = [ev.value for ev in evs for _ in range(ev.multiplicity)]
    orders = [j for ev in evs for j in range(ev.multiplicity)]
    return np.array(nus, dtype=complex), np.array(orders, dtype=int)


def spectrum_residual(p_params, problem: InverseProblem):
    """Candidate Delta (and derivatives, per multiplicity) at the target points.

    Each derivative order is one char_delta_deriv call over its targets.
    Returns the residual, the G it was computed from and the candidate
    kernel M that G solves, the point where spectrum_jacobian linearizes.
    """
    m = _candidate_kernel(p_params, problem)
    g = compute_g(m, tol=problem.picard_tol, max_terms=problem.picard_max_terms)
    nus, orders = _target_orders(problem)
    res = np.empty(nus.size, dtype=complex)
    for order in np.unique(orders):
        rows = orders == order
        res[rows] = char_delta_deriv(g, nus[rows], order=int(order))
    return res, g, m


def spectrum_jacobian(m: TriangularField, problem: InverseProblem, g: TransformKernel):
    """Derivatives of spectrum_residual in the parameters, from the Green identity.

    m and g are the candidate kernel and its G that spectrum_residual
    returned for the parameters. Linearizing the identity at M~ = M and
    differentiating it j times in nu (Leibniz) gives the row of
    Delta^(j)(nu) as
    i * sum over a + b = j of C(j, a) * double integral over t <= x of
    psi^(a)(x, nu) R(x, t) phi_k(x - t) e^(b)(t, nu), for each basis column
    phi_k. e^(b) comes from g; psi^(a)(x) = w^(a)(pi - x), with w the forward
    solution of the reflected kernel, so this builds one G, that one, unless
    the kernel is its own reflection (see reflected_kernel): then w = e and
    g serves for both. Every double integral the rows read is one product
    of the stacked weighted_basis_fields against the columns of e it needs,
    contracted with the matching columns of psi. The rows are the
    continuous derivative by the trapezoid rule, O(h^2) away from the
    derivative of the discrete residual. Returns the Jacobian, rows in the
    order of spectrum_residual and one column per parameter, and the
    reflected kernel's G, which is g itself when no G was built.
    """
    grid = problem.grid
    refl = reflected_kernel(m)
    g_refl = g if refl is m else compute_g(
        refl, tol=problem.picard_tol, max_terms=problem.picard_max_terms
    )
    nus, orders = _target_orders(problem)
    e = eval_e_via_g(g, nus, orders)
    psi = (e if g_refl is g else eval_e_via_g(g_refl, nus, orders))[::-1]
    # row r holds order j of a target whose order-0 row is r - j; it sums
    # C(j, a) times the double integral of column r - j + a of psi against
    # column r - a of e, one (a, b) column pair each
    rows, cols_a, cols_b, coef = np.array(
        [(r, r - j + a, r - a, math.comb(j, a))
         for r, j in enumerate(orders) for a in range(j + 1)], dtype=int,
    ).reshape(-1, 4).T
    n = grid.n_nodes
    fields_e = problem.weighted_basis_fields.reshape(-1, n) @ e[:, cols_b]
    pair = np.einsum("kxp,xp->kp", fields_e.reshape(problem.d, n, -1), psi[:, cols_a])
    jac = np.zeros((orders.size, problem.d), dtype=complex)
    np.add.at(jac, rows, coef[:, None] * pair.T)
    return 1j * jac, g_refl


@dataclass(frozen=True)
class RecoverOptions:
    xtol: float = 1e-9
    ftol: float = 1e-8
    max_iter: int = 40
    lm_damping0: float = 1e-3
    max_inner: int = 12


def _second_difference(params: np.ndarray) -> np.ndarray:
    return params[:-2] - 2.0 * params[1:-1] + params[2:]


def _stacked_residual(params: np.ndarray, problem: InverseProblem, mu: float):
    res, g, m = spectrum_residual(params, problem)
    parts = [res.real, res.imag]
    if mu > 0:
        parts.append(np.sqrt(mu) * _second_difference(params))
    return np.concatenate(parts), g, m


def _stacked_jacobian(m, problem: InverseProblem, mu: float, g):
    jac, g_refl = spectrum_jacobian(m, problem, g)
    parts = [jac.real, jac.imag]
    if mu > 0:
        parts.append(np.sqrt(mu) * _second_difference(np.eye(problem.d)))
    return np.concatenate(parts), g_refl


def recover_profile(
    problem: InverseProblem,
    init,
    opts: RecoverOptions = RecoverOptions(),
) -> RecoveryReport:
    """Damped Gauss-Newton (Levenberg-Marquardt) fit of the profile parameters.

    Minimizes 0.5 * ||stacked residual||^2 with a second-difference
    regularizer of weight mu. Each iteration takes spectrum_jacobian at the
    G its accepted residual already built, so a Jacobian costs at most one
    G build whatever d is, and none for a reflection-symmetric kernel. That
    Jacobian is O(h^2) away from the derivative of the discrete residual,
    which can leave no damped step that lowers the cost near the
    discretization floor; so each rejected trial step corrects it
    by a secant (Broyden) update from the residual the trial computed,
    J += (r_trial - r - J delta) delta^T / (delta^T delta), before the next
    damped solve. The fit converges when the cost drops below ftol, the step
    below xtol, or an accepted step lowers the cost by at most STALL_RTOL
    of it.
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

    res, g, m = _stacked_residual(params, problem, mu)
    residual_evals, jacobian_evals, g_builds = 1, 0, 1
    cost = float(np.linalg.norm(res))
    history = [cost]
    dampings, rejected = [], []
    damping = float(opts.lm_damping0)
    converged = cost < opts.ftol
    it = 0
    while not converged and it < opts.max_iter:
        it += 1
        jac, g_refl = _stacked_jacobian(m, problem, mu, g)
        jacobian_evals += 1
        g_builds += g_refl is not g

        accepted = False
        rejected.append(0)
        for _ in range(opts.max_inner):
            jtj = jac.T @ jac
            scale = np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                delta = np.linalg.solve(jtj + damping * scale, -(jac.T @ res))
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = params + delta
            trial_res, trial_g, trial_m = _stacked_residual(trial, problem, mu)
            residual_evals += 1
            g_builds += 1
            trial_cost = float(np.linalg.norm(trial_res))
            if trial_cost < cost:
                stalled = cost - trial_cost <= STALL_RTOL * cost
                params, res, cost, g, m = trial, trial_res, trial_cost, trial_g, trial_m
                accepted = True
                break
            rejected[-1] += 1
            jac += np.outer(trial_res - res - jac @ delta, delta / (delta @ delta))
            damping *= 10.0
        history.append(cost)
        dampings.append(damping)
        if not accepted:
            break
        damping = max(damping / 3.0, 1e-12)
        converged = bool(
            stalled
            or cost < opts.ftol
            or np.linalg.norm(delta) < opts.xtol * (1.0 + np.linalg.norm(params))
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
        damping=dampings,
        rejected_trials=rejected,
    )


def recover_sequential(
    spectra,
    family: StructuredKernel,
    d: int,
    opts: RecoverOptions = RecoverOptions(),
    mu: float = 0.0,
    inits=None,
    picard_tol: float | None = None,
    picard_max_terms: int = 60,
) -> list:
    """Stage-by-stage recovery of P_1, ..., P_p from the truncation spectra.

    Stage k sees the spectrum of the k-truncated kernel and solves for P_k
    with the previously recovered profiles frozen into the known part.
    """
    if len(spectra) > family.p_count:
        raise ValueError(
            f"{len(spectra)} spectra but only {family.p_count} kernel components"
        )
    reports = []
    m0_eff = family.m0
    for k, target in enumerate(spectra):
        comp = family.components[k]
        problem = InverseProblem(
            m0=m0_eff, r=comp.r, target=target, d=d, mu=mu,
            picard_tol=picard_tol, picard_max_terms=picard_max_terms,
        )
        init = (
            np.zeros(d)
            if inits is None
            else np.asarray(inits[k], dtype=float)
        )
        report = recover_profile(problem, init, opts)
        reports.append(report)
        if not report.converged or k + 1 == len(spectra):
            break
        m0_eff = assemble_kernel(
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

    psi = eval_psi(m, lam) and e_tilde = eval_e_direct(m_tilde, lam), for one
    lambda or with one column per lambda, giving one residual per lambda.
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
    form_a = _triangle_double_integral(psi, r.values * _shift_matrix(dp), e_tilde, grid)
    weights = trapezoid_weights(grid.n_nodes, grid.step) * dp[::-1]
    return np.abs(form_a - weights @ z)
