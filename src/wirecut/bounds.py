"""Interval solutions to strict area-bound inequalities.

The configuration is one-dimensional: with shapes s_1 .. s_{k+1}, the first
k pieces share a perimeter x and the last piece takes up the remainder
L - k*x (for two shapes this is the ordinary split x / L - x). The total
area is then an upward-opening quadratic in x, so "total > A" and
"total < A" have solution sets that are unions of at most two open
intervals inside the feasible domain (0, L/k).

The quadratic is solved directly and its sign regions are intersected with
the feasible domain; that handles every threshold uniformly, including
thresholds below the constrained minimum or above the domain supremum.
"""

import math
from dataclasses import dataclass

from .extrema import PartitionProblem, total_area
from .geometry import _check_positive, sigma

__all__ = [
    "IntervalSet",
    "BoundQuery",
    "FeasibilityRange",
    "shared_perimeter_total",
    "threshold_roots",
    "feasibility_range",
    "solve_two_polygon",
    "solve_equal_perimeter",
]

# Intervals shorter than this fraction of L are indistinguishable from
# roundoff and are dropped.
_WIDTH_FLOOR = 1e-12

_SENSES = ("lower", "upper")


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint open intervals, ascending; the solution set of one query."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(lo < x < hi for lo, hi in self.intervals)


@dataclass(frozen=True)
class BoundQuery:
    """Ask where the total area strictly exceeds (lower) or stays under
    (upper) the threshold, under the shared-perimeter convention."""

    problem: PartitionProblem
    threshold: float
    sense: str

    def __post_init__(self):
        _check_positive(self.threshold, "threshold")
        if self.sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {self.sense!r}")
        object.__setattr__(self, "threshold", float(self.threshold))


@dataclass(frozen=True)
class FeasibilityRange:
    """Threshold band [a_low, a_high] for which both senses get nontrivial
    solutions, plus length diagnostics when a threshold is supplied.

    a_low is the constrained minimum of the total along the line; a_high is
    the total at x = 0 (whole wire to the last shape). l_low/l_high invert
    the band into bounds on L at fixed threshold, and x_hat is the two-shape
    half-width of the solution interval around the minimizer.
    """

    a_low: float
    a_high: float
    l_low: float | None = None
    l_high: float | None = None
    x_hat: float | None = None


def _line_coefficients(problem: PartitionProblem):
    """Quadratic a*x**2 + b*x + c0 for the total area along the shared line,
    with the summed inverse weights of the shared shapes and of the last."""
    k = len(problem.shapes) - 1
    length = problem.total_length
    shared = sum(1.0 / sigma(s) for s in problem.shapes[:-1])
    last = 1.0 / sigma(problem.shapes[-1])
    a = (shared + k * k * last) / 4.0
    b = -length * k * last / 2.0
    c0 = length * length * last / 4.0
    return k, a, b, c0, shared, last


def shared_perimeter_total(problem: PartitionProblem, x: float) -> float:
    """Directly evaluated total area at shared perimeter x (no quadratic)."""
    k = len(problem.shapes) - 1
    length = problem.total_length
    last = length - k * x
    # evaluating at the domain endpoint x = L/k can leave roundoff debris
    if last < 0.0 and last > -1e-9 * length:
        last = 0.0
    lengths = [x] * k + [last]
    return total_area(problem.shapes, lengths)


def threshold_roots(problem: PartitionProblem, threshold: float):
    """Roots (x_minus, x_plus) of total(x) = threshold, or None if the line
    never reaches the threshold. Roots may fall outside the feasible domain."""
    _check_positive(threshold, "threshold")
    _, a, b, c, _, _ = _line_coefficients(problem)
    c = c - threshold
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return None
    # b <= 0 always, so this split avoids cancellation in the large root.
    q = (-b + math.sqrt(disc)) / 2.0
    hi = q / a
    lo = c / q if q != 0.0 else 0.0
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def feasibility_range(problem: PartitionProblem, threshold: float | None = None) -> FeasibilityRange:
    """Band of thresholds with two-sided solutions, plus optional diagnostics.

    With a threshold given, l_low/l_high are the wire lengths between which
    that threshold stays inside the band (l_low <= L <= l_high exactly when
    a_low <= threshold <= a_high), and x_hat (two-shape problems only) is
    half the width of the upper-sense solution interval.
    """
    k, a, b, c0, shared, last = _line_coefficients(problem)
    length = problem.total_length
    a_low = c0 - b * b / (4.0 * a)
    a_high = c0
    l_low = l_high = x_hat = None
    if threshold is not None:
        _check_positive(threshold, "threshold")
        l_low = 2.0 * math.sqrt(threshold / last)
        l_high = 2.0 * math.sqrt(threshold * (shared + k * k * last) / (last * shared))
        if len(problem.shapes) == 2:
            first_w = sigma(problem.shapes[0])
            last_w = sigma(problem.shapes[1])
            total_w = first_w + last_w
            squared = first_w * last_w * (4.0 * threshold - length * length / total_w) / total_w
            if squared >= 0.0:
                x_hat = math.sqrt(squared)
    return FeasibilityRange(a_low, a_high, l_low, l_high, x_hat)


def _clip(lo: float, hi: float, domain_hi: float, floor: float):
    lo = max(lo, 0.0)
    hi = min(hi, domain_hi)
    if hi - lo > floor:
        return (lo, hi)
    return None


def solve_equal_perimeter(query: BoundQuery) -> IntervalSet:
    """General case: first k shapes share perimeter x, last takes L - k*x.
    Open intervals within (0, L/k); reduces to solve_two_polygon at k = 1."""
    k = len(query.problem.shapes) - 1
    length = query.problem.total_length
    domain_hi = length / k
    floor = _WIDTH_FLOOR * length
    roots = threshold_roots(query.problem, query.threshold)
    if roots is None:
        # The quadratic stays above the threshold everywhere.
        pieces = [(0.0, domain_hi)] if query.sense == "lower" else []
    elif query.sense == "lower":
        pieces = [(0.0, roots[0]), (roots[1], domain_hi)]
    else:
        pieces = [roots]
    kept = [piece for lo, hi in pieces if (piece := _clip(lo, hi, domain_hi, floor))]
    return IntervalSet(tuple(kept))


def solve_two_polygon(query: BoundQuery) -> IntervalSet:
    """Two shapes: where does area(first, x) + area(second, L - x) beat or
    stay under the threshold? Open intervals within (0, L)."""
    if len(query.problem.shapes) != 2:
        raise ValueError("solve_two_polygon expects exactly two shapes")
    return solve_equal_perimeter(query)
