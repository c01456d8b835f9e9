"""Deliberately naive brute-force references for the closed-form solvers.

The partition oracles scan a uniform lattice over the simplex of piece
lengths; the allocation oracle enumerates side assignments with plain
nested loops via itertools.product. Nothing here shares logic with the
closed forms beyond the area kernel itself, so agreement is evidence.
"""

import itertools
import math
from dataclasses import dataclass

from . import allocation as _allocation
from .allocation import AllocationProblem, AllocationResult, total_area_for_allocation
from .errors import ResourceLimitError
from .extrema import GRID_SAMPLE, PartitionProblem, PartitionResult
from .geometry import Shape, _check_count, area

__all__ = [
    "GridSpec",
    "grid_min",
    "grid_max",
    "enumerate_allocations",
]

# The lattice blows up combinatorially with the number of shapes.
MAX_GRID_SHAPES = 6
_SAMPLE_LIMIT = 10**8


@dataclass(frozen=True)
class GridSpec:
    """Number of lattice steps along each simplex edge."""

    resolution: int

    def __post_init__(self):
        _check_count(self.resolution, "resolution")
        if self.resolution < 2:
            raise ValueError(f"resolution must be at least 2, got {self.resolution}")


def _lattice(total: int, parts: int):
    """All non-negative integer compositions of total into `parts` parts.

    Covers every simplex vertex and edge exactly, so endpoint extrema are
    always sampled.
    """
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _lattice(total - head, parts - 1):
            yield (head,) + tail


def _scan(problem: PartitionProblem, grid: GridSpec, want_max: bool) -> PartitionResult:
    shapes = problem.shapes
    count = len(shapes)
    if count > MAX_GRID_SHAPES:
        raise ResourceLimitError(
            f"grid scan supports at most {MAX_GRID_SHAPES} shapes, got {count}"
        )
    samples = math.comb(grid.resolution + count - 1, count - 1)
    if samples > _SAMPLE_LIMIT:
        raise ResourceLimitError(
            f"{samples} lattice samples exceed the scan limit of {_SAMPLE_LIMIT}"
        )
    length = problem.total_length
    resolution = grid.resolution
    best_lengths = None
    best_areas = None
    best_total = -math.inf if want_max else math.inf
    for counts in _lattice(resolution, count):
        lengths = tuple(length * (c / resolution) for c in counts)
        areas = tuple(area(s, x) for s, x in zip(shapes, lengths))
        total = sum(areas)
        if (total > best_total) if want_max else (total < best_total):
            best_lengths = lengths
            best_areas = areas
            best_total = total
    return PartitionResult(GRID_SAMPLE, best_lengths, best_areas, best_total)


def grid_min(problem: PartitionProblem, grid: GridSpec) -> PartitionResult:
    """Smallest total area over the lattice; upper bound on the true minimum."""
    return _scan(problem, grid, want_max=False)


def grid_max(problem: PartitionProblem, grid: GridSpec) -> PartitionResult:
    """Largest total area over the lattice; lower bound on the true maximum."""
    return _scan(problem, grid, want_max=True)


def enumerate_allocations(problem: AllocationProblem) -> AllocationResult:
    """Reference optimizer: try every side assignment by nested loops.

    Totals are evaluated through the same total_area_for_allocation kernel,
    so agreement with the optimizer is exact, not merely within tolerance.
    """
    wires = len(problem.wire_lengths)
    budget = problem.side_budget
    head_range = range(3, budget - 3 * (wires - 1) + 1)
    tuples = len(head_range) ** (wires - 1)
    if tuples > _SAMPLE_LIMIT:
        raise ResourceLimitError(
            f"{tuples} side tuples exceed the scan limit of {_SAMPLE_LIMIT}"
        )
    best_sides = None
    best_total = -math.inf
    for head in itertools.product(head_range, repeat=wires - 1):
        last = budget - sum(head)
        if last < 3:
            continue
        sides = head + (last,)
        total = total_area_for_allocation(problem.wire_lengths, sides)
        if total > best_total:
            best_sides = sides
            best_total = total
    areas = tuple(area(Shape(n), x) for n, x in zip(best_sides, problem.wire_lengths))
    residuals = _allocation.stationarity_residual(problem.wire_lengths, best_sides)
    return AllocationResult(best_sides, areas, sum(areas), residuals)
