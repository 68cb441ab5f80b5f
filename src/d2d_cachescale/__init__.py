"""Throughput model, cache placement optimizer and delivery simulator
for hierarchical device-to-device caching grids.

The package root exports the README's library example and the solver
entry points; every other name is imported from its module.
"""

from .analysis import throughput_bounds
from .delivery import SimConfig, simulate
from .errors import (
    BracketError,
    CacheScaleError,
    DomainError,
    InfeasibleProblemError,
    InvalidParameterError,
    InvariantViolationError,
    SizeGuardError,
)
from .exact import brute_force, solve_exact
from .hierarchy import NetworkGrid, edge_capacities
from .phy import PhyParams
from .placement import PlacementVector, evaluate_throughput, optimize_placement
from .popularity import zipf_pmf

__version__ = "0.1.0"
SCHEMA_VERSION = f"d2d-cachescale v{__version__}"
