"""Profile recovery from spectra and numerical checks of the proof identities.

The residual never re-solves the eigenvalue problem inside the optimizer
loop: a target eigenvalue nu of multiplicity m contributes the values
Delta(nu), Delta'(nu), ..., Delta^(m-1)(nu) of the candidate characteristic
function, which all vanish exactly when nu is a zero of that multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .quadrature import Grid, Profile, TriangularField, require_same_grid, volterra_apply
from .kernels import (
    KernelComponent,
    StructuredKernel,
    _shift_matrix,
    assemble_kernel,
    compute_B,
    check_B_nonvanishing,
    WeightVanishesError,
)
from .transform import compute_g
from .spectral import (
    Spectrum,
    char_delta_deriv,
    eval_e_direct,
    eval_psi,
    eval_z,
)


class UnderdeterminedError(ValueError):
    """Fewer target data than parameters with no regularization."""


# An accepted LM step that lowers the cost by at most this fraction of it ends
# the fit as converged: the cost has reached the floor the discretization
# leaves, and further steps only trade round-off.
STALL_RTOL = 1e-6


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


def profile_from_params(params, grid: Grid, d: int) -> Profile:
    """Cubic-spline lift of the d parameter samples to the solver grid."""
    params = np.asarray(params, dtype=float)
    if params.shape != (d,):
        raise ValueError(f"expected {d} parameters, got shape {params.shape}")
    spline = CubicSpline(np.linspace(0.0, np.pi, d), params)
    return Profile(grid, spline(grid.nodes).astype(complex))


def spectrum_residual(p_params, problem: InverseProblem) -> np.ndarray:
    """Candidate Delta (and derivatives, per multiplicity) at the target points."""
    prof = profile_from_params(p_params, problem.grid, problem.d)
    sk = StructuredKernel(problem.m0, (KernelComponent(problem.r, prof),))
    m = assemble_kernel(sk)
    g = compute_g(m, tol=problem.picard_tol, max_terms=problem.picard_max_terms)
    out = []
    for ev in problem.target.eigenvalues:
        for order in range(ev.multiplicity):
            out.append(char_delta_deriv(g, complex(ev.value), order=order))
    return np.asarray(out, dtype=complex)


@dataclass(frozen=True)
class RecoverOptions:
    xtol: float = 1e-9
    ftol: float = 1e-8
    max_iter: int = 40
    lm_damping0: float = 1e-3
    fd_step: float = 1e-6
    max_inner: int = 12


def _second_difference(params: np.ndarray) -> np.ndarray:
    return params[:-2] - 2.0 * params[1:-1] + params[2:]


def _stacked_residual(params: np.ndarray, problem: InverseProblem, mu: float):
    res = spectrum_residual(params, problem)
    parts = [res.real, res.imag]
    if mu > 0:
        parts.append(np.sqrt(mu) * _second_difference(params))
    return np.concatenate(parts)


def recover_profile(
    problem: InverseProblem,
    init,
    opts: RecoverOptions = RecoverOptions(),
) -> RecoveryReport:
    """Damped Gauss-Newton (Levenberg-Marquardt) fit of the profile parameters.

    Minimizes 0.5 * ||stacked residual||^2 with a second-difference
    regularizer of weight mu; the Jacobian is forward finite differences.
    The fit converges when the cost drops below ftol, the step below xtol,
    or an accepted step lowers the cost by at most STALL_RTOL of it.
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

    res = _stacked_residual(params, problem, mu)
    cost = float(np.linalg.norm(res))
    history = [cost]
    if cost < opts.ftol:
        return RecoveryReport(
            recovered=profile_from_params(params, problem.grid, problem.d),
            residual_norm=cost, iterations=0, converged=True,
            history=history, underdetermined=underdet,
        )

    damping = opts.lm_damping0
    converged = False
    it = 0
    for it in range(1, opts.max_iter + 1):
        # forward-difference Jacobian, column per parameter
        jac = np.empty((res.size, problem.d))
        for k in range(problem.d):
            step = opts.fd_step * (1.0 + abs(params[k]))
            pert = params.copy()
            pert[k] += step
            jac[:, k] = (_stacked_residual(pert, problem, mu) - res) / step

        jtj = jac.T @ jac
        jtr = jac.T @ res
        scale = np.diag(np.maximum(np.diag(jtj), 1e-12))

        accepted = False
        for _ in range(opts.max_inner):
            try:
                delta = np.linalg.solve(jtj + damping * scale, -jtr)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = params + delta
            trial_res = _stacked_residual(trial, problem, mu)
            trial_cost = float(np.linalg.norm(trial_res))
            if trial_cost < cost:
                stalled = cost - trial_cost <= STALL_RTOL * cost
                params, res, cost = trial, trial_res, trial_cost
                damping = max(damping / 3.0, 1e-12)
                accepted = True
                break
            damping *= 10.0
        history.append(cost)
        if not accepted:
            break
        if stalled or cost < opts.ftol or np.linalg.norm(delta) < opts.xtol * (
            1.0 + np.linalg.norm(params)
        ):
            converged = True
            break

    return RecoveryReport(
        recovered=profile_from_params(params, problem.grid, problem.d),
        residual_norm=cost,
        iterations=it,
        converged=converged,
        history=history,
        underdetermined=underdet,
    )


def recover_sequential(
    spectra,
    family: StructuredKernel,
    d: int,
    opts: RecoverOptions = RecoverOptions(),
    mu: float = 0.0,
    inits=None,
    picard_tol: float | None = None,
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
            m0=m0_eff, r=comp.r, target=target, d=d, mu=mu, picard_tol=picard_tol
        )
        init = (
            np.zeros(d)
            if inits is None
            else np.asarray(inits[k], dtype=float)
        )
        report = recover_profile(problem, init, opts)
        reports.append(report)
        if not report.converged:
            break
        stage_kernel = StructuredKernel(
            TriangularField.zeros(family.grid),
            (KernelComponent(comp.r, report.recovered),),
        )
        m0_eff = TriangularField(
            family.grid, m0_eff.values + assemble_kernel(stage_kernel).values
        )
    return reports


# --- identity verification -----------------------------------------------------


def _triangle_double_integral(outer, field_vals, inner, grid: Grid) -> complex:
    """Nested trapezoid of outer(x) * integral over [0,x] of field(x,t) inner(t)."""
    h = grid.step
    f = outer * volterra_apply(field_vals, inner, h)
    return complex(h * (f.sum() - 0.5 * (f[0] + f[-1])))


def verify_green_identity(
    m: TriangularField, m_tilde: TriangularField, lam: complex
) -> float:
    """|LHS - RHS| of the integrated Green-type identity.

    LHS is the double integral of psi * (M - M_tilde) * e_tilde over the
    triangle; RHS is i * (e_tilde(pi) - psi(0)).
    """
    require_same_grid(m.grid, m_tilde.grid)
    psi = eval_psi(m, lam)
    et = eval_e_direct(m_tilde, lam)
    diff = m.values - m_tilde.values
    lhs = _triangle_double_integral(psi, diff, et, m.grid)
    rhs = 1j * (et[-1] - psi[0])
    return abs(lhs - rhs)


def verify_change_of_variables(
    m0: TriangularField,
    r: TriangularField,
    p: Profile,
    p_tilde: Profile,
    lam: complex,
) -> float:
    """Residual between the two equivalent forms of the profile-difference term.

    Form A integrates psi * R * (P - P_tilde)(x - t) * e_tilde over the
    triangle; form B integrates (P - P_tilde)(pi - x) against z(x, lambda).
    Both equal the same quantity in exact arithmetic.
    """
    require_same_grid(m0.grid, r.grid, p.grid, p_tilde.grid)
    grid = m0.grid
    sk = StructuredKernel(m0, (KernelComponent(r, p),))
    skt = StructuredKernel(m0, (KernelComponent(r, p_tilde),))
    m = assemble_kernel(sk)
    mt = assemble_kernel(skt)

    psi = eval_psi(m, lam)
    et = eval_e_direct(mt, lam)
    dp = p.values - p_tilde.values
    form_a = _triangle_double_integral(psi, r.values * _shift_matrix(dp), et, grid)

    z = eval_z(r, m, mt, lam)
    h = grid.step
    f = dp[::-1] * z
    form_b = complex(h * (f.sum() - 0.5 * (f[0] + f[-1])))
    return abs(form_a - form_b)
