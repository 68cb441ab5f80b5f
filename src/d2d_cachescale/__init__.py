"""Throughput model, cache placement optimizer and delivery simulator
for hierarchical device-to-device caching grids."""

from .analysis import (
    BoundsResult,
    ScalingExponent,
    achievable_exponent,
    baseline_exponent,
    classify_regime,
    converse_exponent,
    critical_skewness,
    lower_bound,
    throughput_bounds,
    upper_bound,
)
from .delivery import (
    EdgeLoadReport,
    SimConfig,
    capacity_check,
    report_csv_rows,
    simulate,
)
from .errors import (
    BracketError,
    CacheScaleError,
    DomainError,
    InfeasibleProblemError,
    InvalidParameterError,
    InvariantViolationError,
    SizeGuardError,
)
from .exact import (
    ThresholdForm,
    brute_force,
    feasible_for_rate,
    from_threshold,
    solve_exact,
    to_threshold,
)
from .hierarchy import (
    CapacityEnvelope,
    LevelCapacities,
    NetworkGrid,
    NetworkInterference,
    capacity_envelope,
    edge_capacities,
    multihop_envelope,
)
from .phy import (
    ClusterRate,
    PhyMode,
    PhyParams,
    cluster_rate,
    interference_power,
    optimal_stages,
    rate_hcoop,
    rate_multihop,
    reuse_factor,
)
from .placement import (
    PlacementOutcome,
    PlacementVector,
    RelaxedSolution,
    ThroughputReport,
    check_optimality,
    evaluate_throughput,
    guarantee_factor,
    guarantee_floor,
    optimize_placement,
    placement_document,
    rebalance,
    relaxed_cache_load,
    relaxed_rate,
    relaxed_solution_at,
    round_to_feasible,
    solve_relaxed,
)
from .popularity import (
    PopularityModel,
    tail_inverse,
    tail_mass,
    zipf_pmf,
)

__version__ = "0.1.0"
SCHEMA_VERSION = f"d2d-cachescale v{__version__}"
