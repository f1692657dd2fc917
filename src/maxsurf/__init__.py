"""Maximal hypersurfaces in Minkowski space via mean curvature flow.

Spacelike graphs with a perpendicular free boundary on a timelike tube are
evolved by their mean curvature until they relax to volume-critical (maximal)
surfaces; the package also verifies the evolution identities, boundary
derivatives and a-priori estimate quantities along every discrete trajectory.
"""

from .lorentz import (
    CausalClass,
    boost_factor,
    causal_class,
    minkowski_inner,
    minkowski_square,
    unit_spacelike,
    unit_timelike,
)
from .profiles import (
    BoundaryCurvature,
    CmcLeaf,
    PlanarBoundary,
    ProfileError,
    RotationalProfile,
    check_condition_curvature,
    cmc_leaf_through,
    cylinder,
    foliation_monotonicity,
    leaf_mean_curvature,
    planar_boundary_data,
    profile_curvature,
    profile_from_spec,
    pseudosphere,
    sine_tube,
    trumpet,
)
from .foliation import (
    ChartCompatibilityReport,
    ChartError,
    FlatChart,
    RotationalCmcChart,
    check_compatibility,
    hat_v_field,
)
from .geometry import (
    FlowState,
    GeometryFields,
    GridSpec,
    SpacelikeError,
    geometry,
    height_gradient_identity,
    laplace_beltrami,
    oscillation,
    spacelike_margin,
)
from .flow import (
    FlowError,
    FlowEvent,
    GuardTrip,
    RECORD_COLUMNS,
    StepControl,
    Trajectory,
    comparison_pair_run,
    run,
    step,
)
from .monitors import (
    StabilityCertificate,
    boundary_identities,
    estimate_monitors,
    evolution_residuals,
    refinement_orders,
    stability_certificate,
    volume_identity,
)
from .config import ConfigError, ScenarioConfig, parse_config, serialize
from .scenarios import Scenario, build_scenario
from .runner import check_boundary, convergence_study, run_batch, run_scenario

__version__ = "0.1.0"
