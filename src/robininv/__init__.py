"""Robin interface coefficient identification toolkit."""

from .errors import CoercivityError, NumericalError, ParameterError
from .fem import (
    ArcwiseGamma,
    Conductivity,
    SparseSystem,
    analytic_concentric_oracle,
    assemble_system,
    boundary_l2,
    boundary_norm,
    interface_l2,
    nodal_field,
    oracle_boundary_trace,
    oracle_interface_trace,
    solve_adjoint,
    solve_forward,
    solve_interface_source,
    trace_boundary,
    trace_interface,
)
from .lipschitz import (
    LipschitzReport,
    build_gamma_km,
    compute_K,
    compute_gkm,
    lipschitz_constant,
    verify_stability,
)
from .locpot import (
    CgneResult,
    apply_A,
    apply_Astar,
    cgne_solve,
    localized_potential,
    runge_approximate,
)
from .mesh import Mesh, PartitionSpec, generate_disk_mesh, interface_partition, load_mesh, save_mesh
from .ndmap import (
    NdForm,
    alessandrini_residual,
    apply_nd,
    check_monotonicity,
    monotonicity_estimate_check,
    nd_form,
    nd_form_matrix,
    nd_quadratic_form,
    operator_norm_diff,
    orthonormal_boundary_basis,
    raw_trig_basis,
)
from .reconstruct import (
    BfgsOptions,
    BfgsState,
    DataSet,
    add_noise,
    bfgs_lockstep,
    bfgs_minimize,
    cost,
    gradient,
    synthesize_data,
)

__all__ = [name for name in dir() if not name.startswith("_")]
