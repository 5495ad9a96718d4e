"""Forward and inverse spectral solver for first-order integro-differential
operators i y'(x) + int_0^x M(x,t) y(t) dt = lambda y(x) on [0, pi] with
y(pi) = 0, for convolution-structured kernels.

Import names from the module that defines them; the package root binds the
modules, and only the few names the benchmark reads from it.
"""

from . import inverse, kernels, quadrature, spectral, transform
from .quadrature import TriangularField, make_grid
from .transform import PicardConvergenceError, compute_g

__version__ = "0.1.0"
