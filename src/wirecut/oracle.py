"""Deliberately naive brute-force references for the closed-form solvers.

The partition oracles score every sample of a uniform lattice over the
simplex of piece lengths, in lexicographic order, keeping the first best.
They evaluate the area kernel once per distinct shape and lattice step
(at most k*(res+1) calls, not one per shape and sample) and add each
sample's areas left to right. A two-shape lattice is one run of samples,
streamed without tables. The allocation oracle enumerates side assignments
with plain nested loops via itertools.product. Nothing here shares logic
with the closed forms beyond the area kernel itself, so agreement is evidence.
"""

import math
from dataclasses import dataclass
from itertools import count, product, repeat, tee
from operator import add, itemgetter, mul, truediv

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


def _steps(length: float, resolution: int, descending: bool = False):
    """Piece lengths length*(c/resolution) for c = 0..resolution, lazily."""
    counts = range(resolution, -1, -1) if descending else range(resolution + 1)
    return map(mul, repeat(length), map(truediv, counts, repeat(resolution)))


def _runs(tables, prefix, left, heads, pick):
    """Yield (total, counts) for the first best sample of each run, in
    lexicographic order.

    A run fixes the counts of all parts but the last two and holds the
    samples (*head, j, left-j) for j = 0..left. It is scored in one pass over
    the last two tables, and ``pick`` and ``list.index`` take its first
    extremum. `heads` are the counts fixed so far, `prefix` their areas
    added left to right, and `left` the steps still to hand out.
    """
    table, *rest = tables
    if len(rest) > 2:
        for c in range(left + 1):
            yield from _runs(rest, prefix + table[c], left - c, heads + (c,), pick)
        return
    firsts, seconds = rest
    for c in range(left + 1):
        run_prefix = prefix + table[c]
        run_left = left - c
        totals = [run_prefix + a + b for a, b in zip(firsts, seconds[run_left::-1])]
        best = pick(totals)
        j = totals.index(best)
        yield best, heads + (c, j, run_left - j)


def _scan(problem: PartitionProblem, grid: GridSpec, want_max: bool) -> PartitionResult:
    shapes = problem.shapes
    parts = len(shapes)
    if parts > MAX_GRID_SHAPES:
        raise ResourceLimitError(
            f"grid scan supports at most {MAX_GRID_SHAPES} shapes, got {parts}"
        )
    samples = math.comb(grid.resolution + parts - 1, parts - 1)
    if samples > _SAMPLE_LIMIT:
        raise ResourceLimitError(
            f"{samples} lattice samples exceed the scan limit of {_SAMPLE_LIMIT}"
        )
    length = problem.total_length
    resolution = grid.resolution
    pick = max if want_max else min
    if parts == 2:
        # A single run whose areas are each used once: stream it.
        firsts, first_areas = tee(map(area, repeat(shapes[0]), _steps(length, resolution)))
        seconds, second_areas = tee(
            map(area, repeat(shapes[1]), _steps(length, resolution, descending=True))
        )
        stream = zip(map(add, firsts, seconds), count(), first_areas, second_areas)
        total, j, *areas = pick(stream, key=itemgetter(0))
        counts = (j, resolution - j)
    else:
        steps = list(_steps(length, resolution))
        distinct = {s: list(map(area, repeat(s), steps)) for s in dict.fromkeys(shapes)}
        tables = [distinct[s] for s in shapes]
        total, counts = pick(_runs(tables, 0, resolution, (), pick), key=itemgetter(0))
        areas = [table[c] for table, c in zip(tables, counts)]
    if not math.isfinite(total):
        raise ValueError("lattice totals are not finite (lengths beyond the float range)")
    lengths = tuple(length * (c / resolution) for c in counts)
    return PartitionResult(GRID_SAMPLE, lengths, tuple(areas), total)


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
    The kernel's totals are correctly rounded (math.fsum), so equal wires tie
    exactly and the first of the ties, kept here, ascends over them. The
    optimizer memoizes only values per side count: its candidate totals and
    its reported total take math.fsum of the same area() values, on Shapes
    equal to the ones built here; this scan still tries every tuple.
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
    for head in product(head_range, repeat=wires - 1):
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
    return AllocationResult(best_sides, areas, math.fsum(areas), residuals)
