"""Deliberately naive brute-force references for the closed-form solvers.

The partition oracles score every sample of a uniform lattice over the
simplex of piece lengths, in lexicographic order, and grid_extremes keeps
the first minimum and the first maximum from one pass. A pass evaluates
the area kernel once per distinct shape and lattice step (at most
k*(res+1) calls, not one per shape and sample) and adds each sample's
areas left to right.
A plain recursion over all parts but the last two hands the lattice to one
keeper a run at a time; a two-shape lattice is one run over its two
tables. The allocation oracle enumerates side assignments with plain
nested loops via itertools.product and ranks them by exact totals. Both
refuse scans of more than _SAMPLE_LIMIT lattice samples or side tuples.
Nothing here shares logic with the solvers beyond the area kernels
themselves, so agreement is evidence.
"""

import math
from itertools import product, repeat
from operator import add

from . import allocation as _allocation
from .allocation import AllocationProblem, AllocationResult
from .errors import ResourceLimitError
from .extrema import GRID_SAMPLE, PartitionProblem, PartitionResult
from .geometry import Shape, _check_count, _integer_lengths, _Record, _total_area, _unit_area_exact, area

__all__ = [
    "GridSpec",
    "grid_extremes",
    "enumerate_allocations",
]

# The lattice blows up combinatorially with the number of shapes.
MAX_GRID_SHAPES = 6
_SAMPLE_LIMIT = 10**5


class GridSpec(_Record):
    """Number of lattice steps along each simplex edge."""

    resolution: int

    def __init__(self, resolution):
        _check_count(resolution, "resolution")
        if resolution < 2:
            raise ValueError(f"resolution must be at least 2, got {resolution}")
        object.__setattr__(self, "resolution", resolution)


def _keep(found, where, totals):
    """Keep in found the first minimum and the first maximum, each as
    (total, where, index), over runs passed in lexicographic order. Totals
    are sums of areas, never NaN: the first extreme of the first run that
    strictly beats the runs before it is the first extreme of the lattice."""
    low, high = min(totals), max(totals)
    if found[0] is None or low < found[0][0]:
        found[0] = (low, where, totals.index(low))
    if found[1] is None or high > found[1][0]:
        found[1] = (high, where, totals.index(high))


def _scan(tables, prefix, left, heads, found):
    """Hand each run of the lattice to _keep, in lexicographic order.

    A run fixes the counts of all parts but the last two, its heads, and
    holds the samples (*heads, j, m-j) for j = 0..m, m = len(totals)-1. It is
    scored in one pass over the last two tables. As arguments, `heads` are
    the counts fixed so far, `prefix` their areas added left to right, and
    `left` the steps still to hand out.
    """
    table, *rest = tables
    if len(rest) > 2:
        for c in range(left + 1):
            _scan(rest, prefix + table[c], left - c, heads + (c,), found)
        return
    firsts, seconds = rest
    for c in range(left + 1):
        run_prefix = prefix + table[c]
        totals = [run_prefix + a + b for a, b in zip(firsts, seconds[left - c::-1])]
        _keep(found, heads + (c,), totals)


def _extremes(problem: PartitionProblem, grid: GridSpec) -> list:
    """[(total, counts, areas)] of the lattice's first minimum and first
    maximum, in that order, from one pass in lexicographic order. A
    two-shape lattice is one run, scored in one pass over its two tables."""
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
    steps = [length * (c / resolution) for c in range(resolution + 1)]
    distinct = {s: list(map(area, repeat(s), steps)) for s in dict.fromkeys(shapes)}
    tables = [distinct[s] for s in shapes]
    found = [None, None]
    if parts == 2:
        _keep(found, (), list(map(add, tables[0], reversed(tables[1]))))
    else:
        _scan(tables, 0, resolution, (), found)
    extremes = []
    for total, heads, j in found:
        counts = heads + (j, resolution - sum(heads) - j)
        extremes.append((total, counts, tuple(table[c] for table, c in zip(tables, counts))))
    return extremes


def grid_extremes(
    problem: PartitionProblem, grid: GridSpec
) -> tuple[PartitionResult, PartitionResult]:
    """The lattice's first minimum and first maximum, from one scan: an
    upper bound on the true minimum and a lower bound on the true maximum.

    Raises ValueError where either extreme's total is not finite.
    """
    results = []
    for total, counts, areas in _extremes(problem, grid):
        if not math.isfinite(total):
            raise ValueError("lattice totals are not finite (lengths beyond the float range)")
        lengths = tuple(problem.total_length * (c / grid.resolution) for c in counts)
        results.append(PartitionResult(GRID_SAMPLE, lengths, areas, total))
    return tuple(results)


def enumerate_allocations(problem: AllocationProblem) -> AllocationResult:
    """Reference optimizer: try every side assignment by nested loops.

    The winner has the largest exact total and, of equal ones, comes first
    in scan order, so it is the lexicographically smallest; exact totals tie
    only where wires of bit-equal length trade counts. Each wire's area at
    each count is the int X**2 * U(n), X the wire's length scaled to an
    integer (geometry._integer_lengths) and U(n) the unit area
    geometry._unit_area_exact(n), so sums are exact in any order.

    Raises ResourceLimitError when the scan would visit more than 10**5
    side tuples, before any exact area is taken, and ValueError where the
    total area overflows a float. Two wires visit one tuple per count, so
    the limit also bounds the exact areas kept per wire.
    """
    lengths = problem.wire_lengths
    wires = len(lengths)
    budget = problem.side_budget
    head_range = range(3, budget - 3 * (wires - 1) + 1)
    tuples = len(head_range) ** (wires - 1)
    if tuples > _SAMPLE_LIMIT:
        raise ResourceLimitError(f"{tuples} side tuples exceed the scan limit of {_SAMPLE_LIMIT}")
    tables = [{n: x * x * _unit_area_exact(n) for n in range(3, head_range.stop)}
              for x in _integer_lengths(lengths)]
    best_sides, best_total = None, -1
    for head in product(head_range, repeat=wires - 1):
        last = budget - sum(head)
        if last < 3:
            continue
        sides = head + (last,)
        total = sum(map(dict.__getitem__, tables, sides))
        if total > best_total:
            best_sides, best_total = sides, total
    areas = tuple(area(Shape(n), x) for n, x in zip(best_sides, lengths))
    residuals = _allocation.stationarity_residual(lengths, best_sides)
    return AllocationResult(best_sides, areas, _total_area(areas), residuals)
