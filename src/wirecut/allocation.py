"""Optimal integer allocation of a fixed side budget across several wires.

Each wire of length L_i is bent into a regular polygon with n_i sides; the
n_i are integers >= 3 that must sum to a given budget I. The total area
sum(L_i**2 * g(n_i)), with g(n) = 1/(4 n tan(pi/n)), is separable and
concave in each n_i, so marginal analysis is exact (Fox 1966): the optimum
holds the I - 3k largest marginal gains. A solve starts near the continuous
optimum, n_i - 3 proportional to (L_i/L_max)**(2/3), hands out the sides
the floors leave, then moves one side at a time from the smallest last gain
to the largest next gain while that gains. Of equal gains the later wire
takes the side and the earlier one gives it; the repair takes O(k) moves
whatever I (Hochbaum 1994; Ibaraki & Katoh 1988, ch. 4).

The result is the allocation of the largest exact total and, of equal exact
totals, the lexicographically smallest side sequence, as in the oracle's
plain enumeration. Exact totals tie only where wires of bit-equal length
trade counts, and the greedy's vector ascends over each group of them.
Both passes take their gains from one kernel: the unit areas of
geometry._unit_area_exact, ints scaled by 2**_BITS. The exact gain of a
side is the difference of two of them, and the float gain is that int
correctly rounded. Float gains misorder only gains within their rounding
error. So where gains lie within a far wider tolerance of the greedy
cutoff, the same exchange runs again over every wire, on exact gains
weighed by the squared lengths scaled to integers; wires far from the
cutoff cannot move. It starts from the greedy's vector, so it reads a few
exact areas per wire at any budget. Where every wire that could give or
take a side near the cutoff has one length, nothing needs it, and this is
decided first: the float gains of bit-equal wires order as their exact
ones (Yap 1997: decide the combinatorial outcome exactly, compute the
values in floats). Reported areas are floats and the total is their
correctly rounded sum (geometry._total_area). The continuous
first-order conditions have no closed form; they are kept only as
residual diagnostics on the integer winner.

Every value that depends only on a side count n (the exact and the float
gain of the (n+1)-th side of a unit wire, the angle pi/n with the
stationarity score's factor, and the Shape) sits in a table per value, a
dict that computes and keeps the entry for n on its first lookup. A
process computes each once, for the counts its solves touch; import fills
nothing and nothing that depends on the lengths is kept. The tolerance
scales with sum(weights)/12, which bounds the total area from above (an
n-gon of weight w encloses w/(4 n tan(pi/n)) < w/(4 pi) < w/12); inside
the band exact gains decide, so a wider band changes no result.
"""

import math
from operator import sub

from .errors import InfeasibleBudgetError, ResourceLimitError
from .geometry import (
    _BITS, Shape, _check_count, _check_positive, _integer_lengths, _Record, _sequence, _total_area,
    _unit_area_exact, areas,
)

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "optimize_allocation",
    "stationarity_term",
    "stationarity_residual",
]

# Most sides one wire can receive, I - 3(k-1). A solve's work does not grow
# with it, but each count that a process's solves touch keeps an entry in
# every per-count table: about 560 B a count with its exact area and gain,
# 11.2 MB for tables filled up to this limit (tracemalloc, CPython 3.11),
# and 0.56 GB at 10**6 counts.
SIDE_LIMIT = 20_000

# _factor_at's a/tan(a)**2 - 1/tan(a) + a = -(a*cot(a))' = 2a/3 + 4a**3/45 + ...:
# coefficients of a .. a**11; for a < 0.15 the sum is within 6 ulps.
_FACTOR_SERIES = (
    2 / 3,
    4 / 45,
    4 / 315,
    8 / 4725,
    4 / 18711,
    5528 / 212837625,
)


class AllocationProblem(_Record):
    """Wire lengths plus the total number of polygon sides to hand out."""

    wire_lengths: tuple[float, ...]
    side_budget: int

    def __init__(self, wire_lengths, side_budget):
        lengths = _sequence(wire_lengths, "wire lengths", "numbers")
        if len(lengths) < 2:
            raise ValueError("an allocation problem needs at least two wires")
        for x in lengths:
            _check_positive(x, "wire length")
        _check_count(side_budget, "side budget")
        if side_budget < 3 * len(lengths):
            raise InfeasibleBudgetError(
                f"budget {side_budget} cannot give {len(lengths)} wires 3 sides each"
            )
        object.__setattr__(self, "wire_lengths", tuple(map(float, lengths)))
        object.__setattr__(self, "side_budget", side_budget)


class AllocationResult(_Record):
    """Winning side counts with per-wire areas and stationarity residuals."""

    sides: tuple[int, ...]
    per_wire_areas: tuple[float, ...]
    total_area: float
    residuals: tuple[float, ...]

    def __init__(self, sides, per_wire_areas, total_area, residuals):
        self.__dict__.update(sides=sides, per_wire_areas=per_wire_areas,
                             total_area=total_area, residuals=residuals)


class _Table(dict):
    """One value of a side count per entry, computed on the entry's first lookup."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, n):
        self[n] = value = self.fill(n)
        return value


def _factor_at(alpha: float) -> float:
    """alpha/tan(alpha)**2 - 1/tan(alpha) + alpha, the stationarity score
    divided by (alpha*length)**2. Its terms near 1/alpha cancel to about
    2 alpha/3, losing about 1/alpha**2 ulps, so for alpha < 0.15 (n >= 21)
    the series is summed instead."""
    if alpha >= 0.15:
        cot = 1.0 / math.tan(alpha)
        return alpha * cot * cot - cot + alpha
    s = alpha * alpha
    acc = 0.0
    for c in reversed(_FACTOR_SERIES):
        acc = acc * s + c
    return acc * alpha


# The (n+1)-th side of a unit wire adds U(n+1) - U(n), U(n) the unit area
# geometry._unit_area_exact(n): exactly, in units of 2**-_BITS, and as the
# float that int / int true division rounds it to, correctly. A wire of
# weight w adds w * _gain[n] in units of the longest wire's length squared.
_exact_gain = _Table(lambda n: _unit_area_exact(n + 1) - _unit_area_exact(n))
_gain = _Table(lambda n: _exact_gain[n] / (1 << _BITS))
# A wire of n sides scores (pi/n * length)**2 * _factor_at(pi/n); one entry holds both.
_angle = _Table(lambda n: (alpha := math.pi / n, _factor_at(alpha)))
_polygon = _Table(Shape)


def optimize_allocation(problem: AllocationProblem) -> AllocationResult:
    """Best side assignment by marginal analysis: the largest exact total,
    and of equal ones the smallest side sequence (see the module docstring).

    Raises ResourceLimitError when one wire could get more than SIDE_LIMIT
    sides, and ValueError where the total area overflows a float.
    """
    lengths = problem.wire_lengths
    wires = len(lengths)
    budget = problem.side_budget
    widest = budget - 3 * (wires - 1)
    if widest > SIDE_LIMIT:
        raise ResourceLimitError(
            f"one wire could get {widest} sides, over the limit of {SIDE_LIMIT} "
            "that bounds the per-count tables a process keeps"
        )
    gain, inf = _gain, math.inf
    # Weights relative to the longest wire, so that no gain over- or underflows.
    longest = max(lengths)
    weights = [(x / longest) ** 2 for x in lengths]
    # Warm start near the continuous optimum, where n - 3 grows as w**(1/3).
    roots = [w ** (1 / 3) for w in weights]
    scale = (budget - 3 * wires) / sum(roots)
    # Next and last gains by wire. A wire at 3 sides has no last side to give.
    sides, nexts, lasts = [], [], []
    for i, w in enumerate(weights):
        n = 3 + int(scale * roots[i])
        sides.append(n)
        nexts.append(w * gain[n])
        lasts.append(w * gain[n - 1] if n > 3 else inf)
    # Hand out what the floors leave (under k sides), then move sides while that gains.
    best_rejected, worst_accepted = _exchange(sides, weights, gain, budget - sum(sides), nexts, lasts)

    # Float gains misorder only gains within their rounding error, far below
    # the tolerance, so the exact optimum differs from the greedy's only in
    # sides whose gains lie within it of the cutoff. sum(weights) / 12 bounds
    # the total area from above; exact gains decide inside the band.
    tolerance = (wires + 8) * 2.0**-50 * sum(weights) / 12
    ceiling = best_rejected + tolerance
    floor = worst_accepted - tolerance
    # The band's wires are those that could give a side (last gain up to the
    # ceiling) or take one (next gain from the floor). Where they share one
    # length, their float gains order as their exact ones: bit-equal wires
    # gain bit-equal amounts at each count, and each wire's gains fall
    # strictly with the count. So the greedy's vector is the first exact
    # optimum, and nothing is ranked exactly.
    if worst_accepted <= ceiling and len({x for x, last, step in zip(lengths, lasts, nexts)
                                          if last <= ceiling or step >= floor}) > 1:
        # Run the exchange again from the greedy's vector on int gains
        # X**2 * _exact_gain[m], X the wire's length scaled to an integer,
        # whose products and comparisons are exact. A wire outside the band
        # can neither give nor take a side.
        weights = [x * x for x in _integer_lengths(lengths)]
        nexts = [w * _exact_gain[n] for w, n in zip(weights, sides)]
        lasts = [w * _exact_gain[n - 1] if n > 3 else inf for w, n in zip(weights, sides)]
        _exchange(sides, weights, _exact_gain, 0, nexts, lasts)
    per_wire = tuple(areas(map(_polygon.__getitem__, sides), lengths))
    terms = _scores(map(_angle.__getitem__, sides), lengths)
    return AllocationResult(tuple(sides), per_wire, _total_area(per_wire), tuple(map(sub, terms, terms[1:])))


def _exchange(sides, weights, gain, left, nexts, lasts) -> tuple:
    """Hand out `left` more sides, then move one side at a time from the
    smallest last gain to the largest next gain while that gains. The
    (m+1)-th side of wire i adds weights[i] * gain[m]; nexts[i] and lasts[i]
    hold wire i's next and last gain, inf where it has 3 sides. Of equal
    gains the later wire takes a side and the earlier one gives it, so the
    greedy's vector is the first exact optimum. Updates the three lists in
    place; returns the largest rejected and the smallest accepted gain."""
    inf, last = math.inf, len(nexts) - 1
    # While the loop runs, wire i's next gain sits at nexts[last - i], so
    # that index() finds the last wire of equal gains as it does the first.
    nexts.reverse()
    while True:
        top = max(nexts)
        i = last - nexts.index(top)
        if left:
            left -= 1
        else:
            bottom = min(lasts)
            j = lasts.index(bottom)
            if top < bottom or top == bottom and i <= j:
                nexts.reverse()
                return top, bottom
            sides[j] -= 1
            nexts[last - j] = bottom
            n = sides[j] - 1
            lasts[j] = weights[j] * gain[n] if n > 2 else inf
        n = sides[i] = sides[i] + 1
        lasts[i], nexts[last - i] = top, weights[i] * gain[n]


def stationarity_term(side: float, length: float) -> float:
    """Per-wire score whose equality across wires marks a continuous optimum.

    With alpha = pi/side, the score is (alpha*length)**2 times
    (alpha/tan(alpha)**2 - 1/tan(alpha) + alpha); side may be fractional but
    must exceed 2 so that alpha < pi/2. Raises ValueError where the score
    overflows a float (lengths beyond about 1e154).
    """
    _check_positive(side, "side count")
    if side <= 2:
        raise ValueError(f"side count must exceed 2, got {side!r}")
    _check_positive(length, "length")
    alpha = math.pi / side
    return _scores(((alpha, _factor_at(alpha)),), (length,))[0]


def _scores(pairs, lengths) -> list:
    """Stationarity scores of valid inputs, each from the wire's pair of
    angle alpha = pi/side and factor _factor_at(alpha). No score is negative
    or NaN, so one that overflows makes the largest infinite."""
    scores = [(scaled := a * x) * scaled * f for (a, f), x in zip(pairs, lengths)]
    if max(scores) == math.inf:
        length = lengths[scores.index(math.inf)]
        raise ValueError(f"stationarity score of a wire of length {length!r} overflows a float")
    return scores


def stationarity_residual(lengths, sides) -> tuple[float, ...]:
    """Consecutive differences of the per-wire scores; near-zero entries mean
    the continuous first-order conditions approximately hold."""
    lengths = _sequence(lengths, "lengths", "numbers")
    sides = _sequence(sides, "sides", "side counts")
    if len(lengths) != len(sides):
        raise ValueError("need exactly one side count per wire")
    terms = [stationarity_term(n, x) for n, x in zip(sides, lengths)]
    return tuple(map(sub, terms, terms[1:]))
