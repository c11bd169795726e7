"""FFT-accelerated reproducing kernel particle method.

A meshfree Galerkin Poisson/diffusion solver whose neighbor-loop
summations are circular convolutions on an extended periodic box,
evaluated with cached FFT spectra, next to a traditional direct-summation
implementation that serves as correctness oracle and benchmark
counterpart.
"""

from .basis import (
    BasisIndex,
    BasisTable,
    KernelSpec,
    build_basis_table,
    enumerate_basis,
    eval_kernel_1d,
    weighted_monomials,
)
from .grid import (
    ExtensionPlan,
    PeriodicGrid,
    box_predicates,
    boundary_face_weights,
    build_grid,
    build_masks,
    plan_extension,
    quadrature_weights,
)
from .moment import MomentPrecomp, assemble_moment_fields, build_moment_precomp, invert_moments
from .operators import (
    boundary_force,
    evaluate_field,
    evaluate_gradient,
    external_force,
    internal_force,
    lumped_mass,
    mass_force,
    nonlinear_force_gradient,
)
from .problems import (
    Discretization,
    ErrorReport,
    ManufacturedCase,
    continuous_l2_error_1d,
    convergence_slope,
    discretize,
    nodal_errors,
    poisson_case,
)
from .solvers import (
    SolveReport,
    SolverConfig,
    TransientState,
    explicit_stable_dt,
    run_transient,
    solve_static_linear,
    solve_static_nonlinear,
    step_transient_diffusion,
)
from .spectral import (
    CountingFFTProvider,
    FFTProvider,
    ScipyFFTProvider,
    circular_convolve,
    direct_circular_convolve,
    forward,
    inverse,
)

__version__ = "0.1.0"


def __getattr__(name):
    """Load the direct-summation oracle (and scipy.sparse with it) on first
    use of ReferenceModel or NeighborTable (PEP 562)."""
    if name in ("NeighborTable", "ReferenceModel"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
