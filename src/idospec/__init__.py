"""Forward and inverse spectral solver for first-order integro-differential
operators i y'(x) + int_0^x M(x,t) y(t) dt = lambda y(x) on [0, pi] with
y(pi) = 0, for convolution-structured kernels."""

from .quadrature import (
    Grid,
    GridMismatchError,
    Profile,
    TriangularField,
    make_grid,
)
from .kernels import (
    KernelComponent,
    StructuredKernel,
    WeightVanishesError,
    assemble_kernel,
    check_B_nonvanishing,
    compute_B,
)
from .transform import (
    PicardConvergenceError,
    TransformKernel,
    assemble_z_kernel,
    compute_g,
    picard_g1,
    picard_step,
    reflected_kernel,
)
from .spectral import (
    BoundaryNearZeroError,
    DeltaEvaluator,
    Eigenvalue,
    PhaseTrackingError,
    SearchStats,
    SearchWindow,
    Spectrum,
    char_delta,
    eval_e_direct,
    eval_e_via_g,
    eval_z,
    find_spectrum,
)
from .inverse import (
    InverseProblem,
    RecoveryReport,
    recover_profile,
    recover_sequential,
    spectrum_jacobian,
    spectrum_residual,
    verify_green_identity,
    verify_change_of_variables,
)

__version__ = "0.1.0"
