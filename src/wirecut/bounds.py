"""Interval solutions to strict area-bound inequalities.

The configuration is one-dimensional: with shapes s_1 .. s_{k+1}, the first
k pieces share a perimeter x and the last piece takes up the remainder
L - k*x (for two shapes this is the ordinary split x / L - x). The total
area is then an upward-opening quadratic in x, so "total > A" and
"total < A" have solution sets that are unions of at most two open
intervals inside the feasible domain (0, L/k).

Every answer is read off one scale-free line: the quadratic in u = x/L
with areas in units of L**2, which depends only on the shapes. Roots, the
intervals and x_hat solve it at A/L**2 and scale back by L (for A > L**2,
far above the band, the unit is sqrt(A) instead, so that the ratio cannot
overflow); the threshold band scales by L**2, and l_low/l_high are that
band turned into lengths. So roots and intervals stay finite beyond
L ~ 1e154, where L**2 overflows; only the band's areas can leave the float
range. The sign regions are intersected with the feasible domain, which
handles every threshold uniformly, including thresholds below the
constrained minimum or above the domain supremum.
"""

import math

from .extrema import PartitionProblem
from .geometry import _check_positive, _Record, sigma

__all__ = [
    "IntervalSet",
    "BoundQuery",
    "FeasibilityRange",
    "shared_perimeter_total",
    "threshold_roots",
    "feasibility_range",
    "solve_equal_perimeter",
]

# Intervals shorter than this fraction of L are indistinguishable from
# roundoff and are dropped.
_WIDTH_FLOOR = 1e-12

_SENSES = ("lower", "upper")


class IntervalSet(_Record):
    """Disjoint open intervals, ascending, inside the feasible domain
    (0, L/k); the solution set of one query."""

    intervals: tuple[tuple[float, float], ...]
    domain: tuple[float, float]

    def __init__(self, intervals, domain):
        self.__dict__.update(intervals=intervals, domain=domain)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: float) -> bool:
        return any(lo < x < hi for lo, hi in self.intervals)


class BoundQuery(_Record):
    """Ask where the total area strictly exceeds (lower) or stays under
    (upper) the threshold, under the shared-perimeter convention."""

    problem: PartitionProblem
    threshold: float
    sense: str

    def __init__(self, problem, threshold, sense):
        if not isinstance(problem, PartitionProblem):
            raise TypeError(f"cannot query the bounds of a {type(problem).__name__}")
        _check_positive(threshold, "threshold")
        if sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "threshold", float(threshold))
        object.__setattr__(self, "sense", sense)


class FeasibilityRange(_Record):
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

    def __init__(self, a_low, a_high, l_low=None, l_high=None, x_hat=None):
        self.__dict__.update(a_low=a_low, a_high=a_high, l_low=l_low, l_high=l_high, x_hat=x_hat)


def _sums(problem: PartitionProblem):
    """(k, shared, last): the number k of shapes sharing the perimeter, the
    sum of their 1/sigma and the last shape's 1/sigma."""
    inverse = [1.0 / s._sigma for s in problem.shapes]
    last = inverse.pop()
    return len(inverse), sum(inverse), last


def _line(length: float, sums, threshold: float = 0.0):
    """(s, a, b, c, discriminant): the total along the shared line of a wire
    of that length, with the shapes' _sums, less the threshold A is
    a*v**2 + b*v + c in units of s = max(L, sqrt(A)), with v = x/s and
    areas over s**2, where neither side overflows; b < 0 < a."""
    k, shared, last = sums
    scale = max(length, math.sqrt(threshold))
    ratio = length / scale
    a = (shared + k * k * last) / 4.0
    b = -k * last / 2.0 * ratio
    c = last / 4.0 * ratio * ratio - threshold / scale / scale
    return scale, a, b, c, b * b - 4.0 * a * c


def shared_perimeter_total(problem: PartitionProblem, x: float) -> float:
    """Directly evaluated total area at shared perimeter x (no quadratic)."""
    _check_positive(x, "perimeter", allow_zero=True)
    return _line_totals(problem, [x])[0]


def _line_totals(problem: PartitionProblem, xs) -> list[float]:
    """The direct total at each shared perimeter x of xs, as total_area
    gives it for lengths [x]*k + [L - k*x], bit for bit: each shape's
    4*sigma is taken once, and each total adds the areas left to right.
    Raises ValueError where L - k*x is negative beyond roundoff."""
    *shared, last = [4.0 * sigma(s) for s in problem.shapes]
    k = len(shared)
    length = problem.total_length
    totals = []
    for x in xs:
        rest = length - k * x
        if rest < 0.0:
            # Evaluating at the domain endpoint x = L/k can leave roundoff
            # debris; beyond that, the last perimeter is refused.
            if rest <= -1e-9 * length:
                _check_positive(rest, "perimeter", allow_zero=True)
            rest = 0.0
        totals.append(sum([x * x / w for w in shared] + [rest * rest / last]))
    return totals


def threshold_roots(problem: PartitionProblem, threshold: float):
    """Roots (x_minus, x_plus) of total(x) = threshold, or None if the line
    never reaches the threshold. Roots may fall outside the feasible domain."""
    _check_positive(threshold, "threshold")
    return _roots(problem, threshold)


def _roots(problem: PartitionProblem, threshold: float):
    """threshold_roots for a threshold already checked, as a BoundQuery's is."""
    scale, a, b, c, disc = _line(problem.total_length, _sums(problem), threshold)
    if disc < 0.0:
        return None
    # b < 0, so this split avoids cancellation in the small root.
    q = (-b + math.sqrt(disc)) / 2.0
    lo, hi = c / q, q / a
    if lo > hi:
        lo, hi = hi, lo
    return lo * scale, hi * scale


def feasibility_range(problem: PartitionProblem, threshold: float | None = None) -> FeasibilityRange:
    """Band of thresholds with two-sided solutions, plus optional diagnostics.

    With a threshold given, l_low/l_high are the wire lengths between which
    that threshold stays inside the band (l_low <= L <= l_high exactly when
    a_low <= threshold <= a_high), and x_hat (two-shape problems only) is
    half the width of the roots' interval, None exactly when they are.
    """
    length = problem.total_length
    sums = _sums(problem)
    _, a, _, high, disc = _line(length, sums)
    low = -disc / (4.0 * a)
    l_low = l_high = x_hat = None
    if threshold is not None:
        _check_positive(threshold, "threshold")
        # The band scales as L**2, so the threshold meets an edge at L = sqrt(A / edge).
        l_low = math.sqrt(threshold) / math.sqrt(high)
        l_high = math.sqrt(threshold) / math.sqrt(low)
        if len(problem.shapes) == 2:
            scale, a, _, _, disc = _line(length, sums, threshold)
            if disc >= 0.0:
                x_hat = scale * math.sqrt(disc) / (2.0 * a)
    return FeasibilityRange(length * length * low, length * length * high, l_low, l_high, x_hat)


def solve_equal_perimeter(query: BoundQuery) -> IntervalSet:
    """The first k shapes share perimeter x and the last takes L - k*x.
    Open intervals within (0, L/k); k = 1 is the paper's two-shape split
    x / L - x."""
    k = len(query.problem.shapes) - 1
    length = query.problem.total_length
    domain_hi = length / k
    floor = _WIDTH_FLOOR * length
    # Without roots the line stays above the threshold, as with a double root
    # at 0: the upper set is empty and the lower one is the whole domain.
    lo, hi = _roots(query.problem, query.threshold) or (0.0, 0.0)
    lo, hi = min(max(lo, 0.0), domain_hi), min(max(hi, 0.0), domain_hi)
    pieces = [(0.0, lo), (hi, domain_hi)] if query.sense == "lower" else [(lo, hi)]
    kept = tuple([(start, end) for start, end in pieces if end - start > floor])
    return IntervalSet(kept, (0.0, domain_hi))

