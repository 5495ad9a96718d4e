"""Independent oracles used by the tests.

For a constant kernel M = c the problem reduces to the second-order ODE
i y'' - lambda y' + c y = 0 with y(0) = 1, y'(0) = -i lambda, solved in
closed form through the roots of i mu^2 - lambda mu + c = 0. These
routines never touch the solver's quadrature or Picard machinery.

integrate_nodes is the plain composite trapezoid on a range of grid nodes,
the reference rule for the package's vectorized Volterra products, and
char_delta_direct is the tail-row sum of Delta with one exponential per node,
the reference for the package's blocked polynomial evaluation. The
remaining oracles do use the package: fd_jacobian differentiates the
inversion residual by forward differences, the reference for its analytic
Jacobian, and find_spectrum_reflected searches the spectrum of the
reflected kernel, which must match the direct one.
"""

from __future__ import annotations

import numpy as np

from idospec.quadrature import trapezoid_weights
from idospec.spectral import SearchWindow, Spectrum, SpectrumOptions, find_spectrum
from idospec.transform import compute_g, reflected_kernel

PI = np.pi


def integrate_nodes(samples, grid, i_from: int, i_to: int):
    """Composite trapezoid of node samples over [nodes[i_from], nodes[i_to]].

    Exact for affine integrands; returns exactly 0 for an empty range.
    """
    samples = np.asarray(samples)
    if i_from > i_to:
        raise IndexError(f"i_from={i_from} > i_to={i_to}")
    if i_from < 0 or i_to >= samples.shape[0]:
        raise IndexError(f"index range [{i_from}, {i_to}] out of bounds")
    if i_from == i_to:
        return samples.dtype.type(0)
    seg = samples[i_from : i_to + 1]
    return grid.step * (seg.sum() - 0.5 * (seg[0] + seg[-1]))


def char_delta_direct(g, lam, order: int = 0):
    """Delta^(order)(lambda) with one exponential per node and per lambda.

    Returns the value and the sum of the magnitudes of its terms, the scale
    against which rounding errors are measured.
    """
    grid = g.grid
    x = grid.nodes
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    w = trapezoid_weights(grid.n_nodes, grid.step)
    terms = (w * g.g.values[-1, :] * (-1j * x) ** order) * np.exp(-1j * np.outer(lam, x))
    carrier = (-1j * PI) ** order * np.exp(-1j * lam * PI)
    return carrier + terms.sum(axis=1), np.abs(carrier) + np.abs(terms).sum(axis=1)


def constant_kernel_e(x, lam: complex, c: float = 1.0):
    """Closed-form e(x, lambda) for the constant kernel M = c."""
    lam = complex(lam)
    if c == 0.0:
        return np.exp(-1j * lam * np.asarray(x))
    disc = np.sqrt(lam * lam - 4j * c)
    mu1 = (lam + disc) / 2j
    mu2 = (lam - disc) / 2j
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(mu1 - mu2) < 1e-10:
            a, b = 1.0, -1j * lam - mu1
            return (a + b * np.asarray(x)) * np.exp(mu1 * np.asarray(x))
        a = (-1j * lam - mu2) / (mu1 - mu2)
        b = 1.0 - a
        return a * np.exp(mu1 * np.asarray(x)) + b * np.exp(mu2 * np.asarray(x))


def constant_kernel_delta(lam: complex, c: float = 1.0) -> complex:
    return complex(constant_kernel_e(PI, lam, c))


def oracle_newton_root(z0: complex, c: float = 1.0, tol: float = 1e-13) -> complex:
    """Polish a root of the oracle Delta by finite-difference Newton."""
    z = complex(z0)
    h = 1e-7
    for _ in range(100):
        if not (np.isfinite(z.real) and np.isfinite(z.imag)):
            return complex(np.nan, np.nan)
        f = constant_kernel_delta(z, c)
        d = (constant_kernel_delta(z + h, c) - constant_kernel_delta(z - h, c)) / (2 * h)
        if d == 0:
            break
        step = f / d
        z -= step
        if abs(step) < tol:
            return z
    return z


def oracle_roots_in_window(re_min, re_max, im_min, im_max, c: float = 1.0,
                           seeds_per_axis: int = 40) -> list:
    """Enumerate oracle roots inside a window by Newton from a seed lattice."""
    roots: list[complex] = []
    res = np.linspace(re_min, re_max, seeds_per_axis)
    ims = np.linspace(im_min, im_max, max(6, seeds_per_axis // 3))
    for re in res:
        for im in ims:
            z = oracle_newton_root(complex(re, im), c)
            if not (re_min < z.real < re_max and im_min < z.imag < im_max):
                continue
            if abs(constant_kernel_delta(z, c)) > 1e-9:
                continue
            if all(abs(z - r) > 1e-6 for r in roots):
                roots.append(z)
    roots.sort(key=lambda z: (z.real, z.imag))
    return roots


def fd_jacobian(residual, params, step: float = 1e-6) -> np.ndarray:
    """Forward-difference Jacobian of residual(params), column per parameter.

    residual maps a real parameter vector to a (complex) vector; the step
    of parameter k is step * (1 + |params[k]|).
    """
    params = np.asarray(params, dtype=float)
    base = residual(params)
    jac = np.empty((base.size, params.size), dtype=base.dtype)
    for k in range(params.size):
        h = step * (1.0 + abs(params[k]))
        pert = params.copy()
        pert[k] += h
        jac[:, k] = (residual(pert) - base) / h
    return jac


def find_spectrum_reflected(
    m, window: SearchWindow, opts: SpectrumOptions = SpectrumOptions(),
    tol: float | None = None,
) -> Spectrum:
    """Spectrum of the reflected kernel; equals that of m up to discretization."""
    return find_spectrum(compute_g(reflected_kernel(m), tol=tol), window, opts)
