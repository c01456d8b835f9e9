"""Cross-checks of the solvers against the brute-force oracle.

``cross_check`` returns one ``Check`` record per comparison: a partition's
closed-form minimum and vertex maximum against one lattice scan's, a bound
query's intervals against direct samples and its endpoints against the
threshold, and an allocation against plain enumeration. Tolerances are
documented in the README's problem-file section.
"""

import sys
from bisect import bisect_left, bisect_right

from .allocation import AllocationProblem, optimize_allocation
from .bounds import BoundQuery, _line_totals, solve_equal_perimeter
from .extrema import PartitionProblem, maximize_partition, minimize_partition
from .geometry import _Record, sigma
from .oracle import _check_resolution, enumerate_allocations, grid_extremes

__all__ = ["Check", "cross_check"]

# Grid resolutions keyed by shape count. The scans take C(resolution + k - 1,
# k - 1) lattice samples: 2,001, 7,381, 12,341, 10,626 and 6,188 for k = 2-6.
_RESOLUTIONS = {2: 2000, 3: 120, 4: 40, 5: 20, 6: 12}


class Check(_Record):
    """One comparison: what was checked, how far apart the two sides came,
    the tolerance, and whether the deviation stayed within it."""

    check: str
    deviation: float
    bound: float
    ok: bool

    def __init__(self, check, deviation, bound, ok):
        self.__dict__.update(check=check, deviation=deviation, bound=bound, ok=ok)


def cross_check(problem, resolution: int | None = None) -> tuple[Check, ...]:
    """Check the solvers' answers to one problem against the oracle.

    resolution, an int of at least 2, sets the lattice steps of a partition
    scan, as grid_extremes takes it; by default it follows the shape count.
    A bad resolution raises ValueError before any solver runs. Other
    problems take no resolution and raise ValueError when given one. Raises
    ResourceLimitError where the oracle's scan would be too large (more
    than six shapes or 10**5 samples), and ValueError, before comparing
    anything, where a total it reads overflows a float, as the solvers
    raise it, or where the areas a check compares (a partition's check
    bounds, a bound query's sampled totals, an allocation's best total)
    fall below the smallest normal float, "areas underflow", where they
    round to zero or lose digits.
    """
    if isinstance(problem, PartitionProblem):
        return _partition_checks(problem, resolution)
    if not isinstance(problem, (BoundQuery, AllocationProblem)):
        raise TypeError(f"cannot cross-check a {type(problem).__name__}")
    if resolution is not None:
        raise ValueError(f"resolution applies only to partition problems, "
                         f"not to {type(problem).__name__}")
    if isinstance(problem, BoundQuery):
        return _bound_checks(problem)
    fast = optimize_allocation(problem)
    _comparable((fast.total_area,))
    slow = enumerate_allocations(problem)
    gap = abs(fast.total_area - slow.total_area)
    same = fast.sides == slow.sides and fast.total_area == slow.total_area
    return (Check("optimizer vs plain enumeration", gap, 0.0, same),)


def _comparable(values):
    """Refuse areas that floats cannot compare: below the smallest normal
    float they round to zero or lose digits."""
    if min(values) < sys.float_info.min:
        raise ValueError("areas underflow: lengths below the float range")


def _partition_checks(problem, resolution):
    if resolution is None:
        resolution = _RESOLUTIONS.get(len(problem.shapes), 12)
    # The bound divides by the resolution, so it is checked before the scan checks it.
    _check_resolution(resolution)
    step = problem.total_length / resolution
    min_bound = step * step * sum(1.0 / (4.0 * sigma(s)) for s in problem.shapes)
    closed_min = minimize_partition(problem)
    closed_max = maximize_partition(problem)
    max_bound = 1e-9 * closed_max.total_area
    _comparable((min_bound, max_bound))
    sampled_min, sampled_max = grid_extremes(problem, resolution)
    min_gap = sampled_min.total_area - closed_min.total_area
    max_gap = abs(closed_max.total_area - sampled_max.total_area)
    slack = 1e-9 * closed_min.total_area
    label = f"vs grid (resolution {resolution})"
    return (
        Check(f"minimum {label}", min_gap, min_bound, -slack <= min_gap <= min_bound + slack),
        Check(f"maximum {label}", max_gap, max_bound, max_gap <= max_bound),
    )


def _bound_checks(query):
    threshold = query.threshold
    intervals = solve_equal_perimeter(query)
    domain_hi = intervals.domain[1]
    guard = 1e-6 * query.problem.total_length
    samples = 200
    xs = [domain_hi * i / samples for i in range(1, samples)]
    edges = [
        edge
        for lo, hi in intervals.intervals
        for edge in (lo, hi)
        if guard < edge < domain_hi - guard
    ]
    totals = _line_totals(query.problem, xs + edges)
    _comparable(totals)

    violations = 0
    for total, (inside, clear_outside) in zip(totals, _membership(xs, intervals.intervals, guard)):
        satisfied = total > threshold if query.sense == "lower" else total < threshold
        if inside and not satisfied or clear_outside and satisfied:
            violations += 1
    worst_residual = max(
        [0.0] + [abs(total - threshold) / threshold for total in totals[len(xs):]]
    )
    return (
        Check(f"interval membership ({len(xs)} samples)", float(violations), 0.0, violations == 0),
        Check("endpoint residual (relative)", worst_residual, 1e-6, worst_residual <= 1e-6),
    )


def _membership(xs, intervals, guard):
    """For each x of an ascending list, (inside, clear): whether some
    interval holds x more than guard within its ends, and whether x lies
    more than guard outside every interval. Bisection finds each interval's
    runs of samples in (lo + guard, hi - guard), which are inside, and in
    [lo - guard, hi + guard], which are not clear; an interval narrower
    than 2*guard can give stop < start, an empty slice that marks nothing."""
    inside, clear = [False] * len(xs), [True] * len(xs)
    for lo, hi in intervals:
        start, stop = bisect_right(xs, lo + guard), bisect_left(xs, hi - guard)
        inside[start:stop] = [True] * (stop - start)
        start, stop = bisect_left(xs, lo - guard), bisect_right(xs, hi + guard)
        clear[start:stop] = [False] * (stop - start)
    return zip(inside, clear)
