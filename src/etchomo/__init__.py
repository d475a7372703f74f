"""Effective thermal conductivity of voxel RVEs.

Finite-volume two-point flux discretization of the mixed Dirichlet-Neumann
problem, solved by conjugate gradients with a homogeneous-reference
preconditioner that diagonalizes under plane-wise fast cosine transforms
into batched tridiagonal solves.
"""

from .grid import (
    Axis,
    BoundaryConfig,
    ConfigError,
    GridSpec,
    OrthotropicField,
    RANDOM_BALL_PRESETS,
    VoxFormatError,
    gen_center_ball,
    gen_channels,
    gen_random_balls,
    gen_smooth_problem,
    read_vox,
    write_vox,
)
from .krylov import PcgBreakdownError, SolveReport, pcg
from .pipeline import (
    ExperimentPlan,
    axis_permute,
    channels_study,
    compare_preconditioners,
    homogenize,
    precision_study,
    run_convergence_study,
    solve_smooth,
)
from .preconditioner import (
    CoefficientStats,
    FctPreconditioner,
    ReferenceParams,
    coefficient_stats,
    identity_apply,
    ones_reference,
    solve_reference_lp,
    thomas_solve_batch,
)
from .tpfa import (
    DiscreteSystem,
    add_source,
    apply_operator,
    build_rhs,
    build_system,
    effective_conductivity,
    l2_error_midpoint,
    reconstruct_boundary_flux,
)
from .transforms import fct_backward_batch, fct_forward_batch

__version__ = "0.1.0"
