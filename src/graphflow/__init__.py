"""Two-species nonlocal interaction gradient flows on finite weighted graphs.

The package simulates the coupled upwind dynamics, evaluates the induced
transportation quasi-metric by convex path optimization, and checks the
variational structure (energy dissipation, chain rule, De Giorgi residual,
Hölder-type duality, refinement stability) numerically.
"""

__version__ = "0.1.0"

from .dynamics import (
    IntegratorOptions,
    SpeciesPairState,
    Trajectory,
    integrate,
    rhs,
    upwind_flux,
)
from .graph import (
    AssumptionReport,
    BaseMeasure,
    Exponents,
    FiniteGraph,
    build_graph,
    check_assumptions,
    nonlocal_divergence,
    nonlocal_gradient,
)
from .kernels import (
    KernelSet,
    System,
    build_kernel_set,
    energy,
)
from .mobility import (
    Mobility,
    MobilityClass,
    alpha_density,
    recession,
    validate_mobility,
)
from .transport import (
    DiscretePath,
    SolverCertificate,
    action,
    dual_action,
    geodesic_profile,
    pairing_l,
    pairing_l_tilde,
    transport_cost,
)
from .diagnostics import (
    DeGiorgiReport,
    chain_rule_residual,
    de_giorgi,
    dissipation,
    moment,
    property_harness,
    w1_distance,
)
from .config import RunConfig, parse_config, emit_config, project_initial, run_refinement_study

__all__ = [name for name in dir() if not name.startswith("_")]
