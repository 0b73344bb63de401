"""anisoplate: anisotropic fourth-order free-boundary laboratory.

Divergence-form operators with variable symmetric coefficients, dissection
of their fundamental solutions into explicit logarithmic singularities plus
Sobolev remainders, minimization of a bending-energy-plus-measure functional
over a trace class, and nodal-set diagnostics for the resulting minimizers.
"""

from .anisotropy import (
    CoefficientField,
    MatrixFrame,
    SingularityConstants,
    build_frame,
    d1_quadrature,
    diag_field,
    identity_field,
    invert_spd2,
    m0_matrix,
    make_field,
    poly_field,
    rot_field,
)
from .grid import (
    DiscreteDomain,
    ScalarField,
    SparseOperator,
    assemble_operator,
    build_domain,
    central_gradient,
    disk_shape,
    parse_shape,
    rect_shape,
)
from .greens import (
    FrehseReport,
    GreensColumn,
    LogFitReport,
    frehse_residual,
    greens_column_L,
    greens_column_L2,
    log_bound_check,
    node_near,
    singular_split,
)
from .linsolve import SolveReport, solve_spd
from .minimizer import (
    DivergenceError,
    MinimizerState,
    default_schedule,
    harmonic_extension,
    minimize,
    sharp_energy,
    smoothed_energy,
    supersolution_check,
    write_history,
)
from .nodal import (
    MeasureDensity,
    NodalLoop,
    NodalSet,
    ResidualRecord,
    bilinear_sample,
    bump_bank,
    domain_variation_residual,
    el_residual,
    extract_nodal,
    measure_density,
    tensor_bump,
    write_nodal_csv,
)
from .runner import (
    ConfigError,
    RunConfig,
    convergence_study,
    load_config,
    run,
)

__version__ = "0.1.0"
