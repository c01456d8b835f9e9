"""Wire-cutting area optimization for regular polygons and the circle limit.

Cut a wire into pieces, bend each piece into a prescribed shape, and ask
about the total enclosed area: its closed-form minimum, its vertex maximum,
the perimeter ranges where it beats or stays under a threshold, and the
best way to spend a fixed budget of polygon sides across several wires.
A deliberately naive brute-force oracle cross-checks every solver.
"""

from .allocation import (
    AllocationProblem,
    AllocationResult,
    composition_count,
    optimize_allocation,
    stationarity_residual,
    stationarity_term,
    total_area_for_allocation,
)
from .bounds import (
    BoundQuery,
    FeasibilityRange,
    IntervalSet,
    feasibility_range,
    shared_perimeter_total,
    solve_equal_perimeter,
    solve_two_polygon,
    threshold_roots,
)
from .errors import InfeasibleBudgetError, ResourceLimitError, WirecutError
from .extrema import (
    FACE_STATIONARY,
    GRID_SAMPLE,
    INTERIOR_MINIMUM,
    VERTEX_MAXIMUM,
    PartitionProblem,
    PartitionResult,
    face_stationary,
    maximize_partition,
    minimize_partition,
    paper_face_max,
    total_area,
)
from .geometry import (
    CIRCLE,
    Shape,
    apothem,
    area,
    half_angle,
    parse_shape,
    regular,
    sigma,
)
from .oracle import GridSpec, enumerate_allocations, grid_max, grid_min
from .verify import Check, cross_check

__version__ = "0.1.0"

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "BoundQuery",
    "CIRCLE",
    "Check",
    "FACE_STATIONARY",
    "FeasibilityRange",
    "GRID_SAMPLE",
    "GridSpec",
    "INTERIOR_MINIMUM",
    "InfeasibleBudgetError",
    "IntervalSet",
    "PartitionProblem",
    "PartitionResult",
    "ResourceLimitError",
    "Shape",
    "VERTEX_MAXIMUM",
    "WirecutError",
    "apothem",
    "area",
    "composition_count",
    "cross_check",
    "enumerate_allocations",
    "face_stationary",
    "feasibility_range",
    "grid_max",
    "grid_min",
    "half_angle",
    "maximize_partition",
    "minimize_partition",
    "optimize_allocation",
    "paper_face_max",
    "parse_shape",
    "regular",
    "shared_perimeter_total",
    "sigma",
    "solve_equal_perimeter",
    "solve_two_polygon",
    "stationarity_residual",
    "stationarity_term",
    "threshold_roots",
    "total_area",
    "total_area_for_allocation",
]
