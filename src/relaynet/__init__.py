"""Communication-aware deployment planning for robot teams on grid maps."""

from .clustering import Cluster, VisitSequence, cluster_goals, visit_order
from .connectivity import (
    Assignment,
    FeasibilityReport,
    RelayPlan,
    build_conn_graph,
    check_feasibility,
    hungarian_assign,
    movement_cost,
    movement_costs,
    plan_relays,
)
from .eikonal import (
    DistanceField,
    Path,
    VelocityField,
    base_velocity,
    ca_fmm_path,
    comm_velocity,
    coverage_fraction,
    extract_path,
    solve_eikonal,
)
from .gridmap import GridMap, count_traversals, parse_map
from .mission import (
    DeploymentPlan,
    Metrics,
    MissionTrace,
    Scenario,
    compute_metrics,
    execute_mission,
    plan_deployment,
    replan,
)
from .radio import (
    CoverageBook,
    RadioParams,
    coverage_distance,
    coverage_field,
    path_loss,
)

__version__ = "0.1.0"
