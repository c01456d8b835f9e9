"""Optimal integer allocation of a fixed side budget across several wires.

Each wire of length L_i is bent into a regular polygon with n_i sides; the
n_i are integers >= 3 that must sum to a given budget I. The total area
sum(L_i**2 * g(n_i)), with g(n) = 1/(4 n tan(pi/n)), is separable and
concave in each n_i, so marginal analysis is exact (Fox 1966): start every
wire at 3 sides and hand out the rest one at a time, each to the wire whose
next side adds the most area. That costs O(I log k) instead of a scan of
all C(I-2k-1, k-1) compositions.

The result keeps the contract of the plain enumeration in the oracle: the
largest total as computed in floating point and, on equal totals, the
lexicographically smallest side sequence. Rounding can reorder allocations
whose exact totals lie within a few ulps of each other, so every allocation
that close to the greedy cutoff is scored with total_area_for_allocation.
Where the float totals themselves overflow or underflow (lengths beyond
about 1e154 or below 1e-154), that check still covers only allocations
near the exact optimum, not every allocation whose total rounds the same.
The continuous first-order conditions have no closed form; they are kept
only as residual diagnostics on the integer winner.

Every value a solve needs per side count depends on the count alone, so the
module keeps one table indexed by it: the excess tan(a)/a - 1 behind each
gain and the cotangent behind each stationarity score, plus the Shape of
every count a result or near-tie candidate has used. A solve grows the
columns to I - 3(k-1) + 1, the largest count the greedy cutoff looks at,
after the SIDE_LIMIT guard; m new counts take at most 2m tans, and each new
Shape one more, once per process. Nothing is filled at import. A solve then
costs its heap steps, each two column reads and one gain, and the near-tie
check: it takes no tan, and on counts used before builds no Shape and
validates nothing again, while its areas and candidate totals still run the
shared area kernel. Each column is an immutable tuple, the two rebound
together, and a solve reads them once, so concurrent solves each see a
whole table at least as long as they need. No result is cached.
"""

import heapq
import math
from dataclasses import dataclass
from operator import sub

from .errors import InfeasibleBudgetError, ResourceLimitError
from .geometry import Shape, _check_count, _check_positive, area

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "total_area_for_allocation",
    "optimize_allocation",
    "stationarity_term",
    "stationarity_residual",
]

# Most sides one wire can receive, I - 3(k-1). Float areas increase strictly
# with every added side up to this count; past it rounding noise, not the
# geometry, decides which allocation has the largest float total.
SIDE_LIMIT = 20_000

# Most near-tie allocations the check may score, the most any scan in this
# package scores. The near-tie allocations are some of the compositions, so
# no problem with at most this many compositions is refused. Only many
# nearly equal wires come near it: k equal wires sharing r sides tie C(k, r)
# ways.
CANDIDATE_LIMIT = 10**8

# tan(a)/a - 1 = a**2/3 + 2a**4/15 + ...: coefficients of a**2 .. a**16.
_TAN_SERIES = (
    1 / 3,
    2 / 15,
    17 / 315,
    62 / 2835,
    1382 / 155925,
    21844 / 6081075,
    929569 / 638512875,
    6404582 / 10854718875,
)


@dataclass(frozen=True)
class AllocationProblem:
    """Wire lengths plus the total number of polygon sides to hand out."""

    wire_lengths: tuple[float, ...]
    side_budget: int

    def __post_init__(self):
        lengths = tuple(self.wire_lengths)
        if len(lengths) < 2:
            raise ValueError("an allocation problem needs at least two wires")
        for x in lengths:
            _check_positive(x, "wire length")
        budget = self.side_budget
        _check_count(budget, "side budget")
        if budget < 3 * len(lengths):
            raise InfeasibleBudgetError(
                f"budget {budget} cannot give {len(lengths)} wires 3 sides each"
            )
        object.__setattr__(self, "wire_lengths", tuple(map(float, lengths)))


@dataclass(frozen=True)
class AllocationResult:
    """Winning side counts with per-wire areas and stationarity residuals."""

    sides: tuple[int, ...]
    per_wire_areas: tuple[float, ...]
    total_area: float
    residuals: tuple[float, ...]


# (excess, cotangent) columns indexed by side count, counts 0-2 holding None,
# and the Shapes built so far for counts the columns cover.
_table = ((None,) * 3,) * 2
_shapes = {}


def _grown(size: int):
    """The table's columns, grown to hold every side count below size."""
    global _table
    table = _table
    excess, cot = table
    if len(excess) < size:
        counts = range(len(excess), size)
        table = (
            excess + tuple(map(_excess, counts)),
            cot + tuple(1.0 / math.tan(math.pi / n) for n in counts),
        )
        _table = table
    return table


def _shape(n) -> Shape:
    """Shape(n), built once for each count the table covers; other values,
    4.0 and True among them, still go through Shape's checks."""
    if type(n) is not int:
        return Shape(n)
    shape = _shapes.get(n)
    if shape is None:
        shape = Shape(n)
        if n < len(_table[0]):
            _shapes[n] = shape
    return shape


def total_area_for_allocation(lengths, sides) -> float:
    """Total enclosed area when wire i is bent into a regular sides[i]-gon."""
    lengths = tuple(lengths)
    sides = tuple(sides)
    if len(lengths) != len(sides):
        raise ValueError("need exactly one side count per wire")
    return sum(area(_shape(n), x) for n, x in zip(sides, lengths))


def _excess(n: int) -> float:
    """tan(a)/a - 1 with a = pi/n; a unit-perimeter n-gon encloses
    1/(4 pi (1 + excess)). The series avoids cancellation for small a."""
    a = math.pi / n
    if a >= 0.1:
        return math.tan(a) / a - 1.0
    s = a * a
    acc = 0.0
    for c in reversed(_TAN_SERIES):
        acc = acc * s + c
    return acc * s


def _gain(weight: float, e_from: float, e_to: float) -> float:
    """Area added by one more side, from the excesses before and after, in a
    form free of the cancellation in g(n+1) - g(n)."""
    return weight * (e_from - e_to) / (4.0 * math.pi * (1.0 + e_from) * (1.0 + e_to))


def optimize_allocation(problem: AllocationProblem) -> AllocationResult:
    """Best side assignment by marginal analysis, with ties settled as the
    plain enumeration settles them (see the module docstring).

    Raises ResourceLimitError when one wire could get more than SIDE_LIMIT
    sides, or when more than CANDIDATE_LIMIT allocations tie near the
    greedy cutoff.
    """
    lengths = problem.wire_lengths
    wires = len(lengths)
    budget = problem.side_budget
    widest = budget - 3 * (wires - 1)
    if widest > SIDE_LIMIT:
        raise ResourceLimitError(
            f"one wire could get {widest} sides, over the limit of {SIDE_LIMIT} "
            "up to which float areas grow with every side"
        )
    excess, cot = _grown(widest + 2)
    # Weights relative to the longest wire, so that no gain over- or underflows.
    longest = max(lengths)
    weights = [(x / longest) ** 2 for x in lengths]
    sides = [3] * wires
    heap = [(-_gain(w, excess[3], excess[4]), i) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    worst_accepted = math.inf
    for _ in range(budget - 3 * wires):
        neg_gain, i = heap[0]
        if -neg_gain < worst_accepted:
            worst_accepted = -neg_gain
        sides[i] += 1
        n = sides[i]
        heapq.heapreplace(heap, (-_gain(weights[i], excess[n], excess[n + 1]), i))
    best_rejected = -heap[0][0]

    # An allocation can tie or beat the greedy one in float only if its exact
    # total lies below the greedy total by at most the rounding error of two
    # totals, each under k+6 units in the last place. Every side it takes
    # away then adds at most that much more than the best rejected side, and
    # every side it adds at most that much less than the worst accepted side.
    total = sum(w / (4.0 * math.pi * (1.0 + excess[n])) for w, n in zip(weights, sides))
    tolerance = (wires + 8) * 2.0**-50 * total
    # A wire can only take as many sides as the others can give, and back.
    removable = [_top_run(excess, w, n, best_rejected + tolerance) for w, n in zip(weights, sides)]
    given = sum(removable)
    addable = [
        _next_run(excess, w, n, worst_accepted - tolerance, given - r)
        for w, n, r in zip(weights, sides, removable)
    ]
    taken = sum(addable)
    moves = [range(-min(r, taken - a), a + 1) for r, a in zip(removable, addable)]
    best = tuple(sides)
    if any(len(m) > 1 for m in moves):
        reach = _reach(moves)
        candidates = reach[0][0]
        if candidates > CANDIDATE_LIMIT:
            raise ResourceLimitError(
                f"{candidates} near-tie allocations exceed the limit of {CANDIDATE_LIMIT}"
            )
        # Lexicographic order, so the first of equal totals is the one kept.
        best_total = -math.inf
        for move in _zero_sum(moves, reach):
            candidate = tuple(n + d for n, d in zip(sides, move))
            candidate_total = total_area_for_allocation(lengths, candidate)
            if candidate_total > best_total:
                best, best_total = candidate, candidate_total
    areas = tuple(area(_shape(n), x) for n, x in zip(best, lengths))
    terms = [_score(n, cot[n], x) for n, x in zip(best, lengths)]
    return AllocationResult(best, areas, sum(areas), tuple(map(sub, terms, terms[1:])))


def _reach(moves) -> list:
    """reach[i] maps each sum that one value from each of moves[i:] can make
    to the number of ways to make it."""
    reach = [{0: 1}]
    for steps in reversed(moves):
        ways = {}
        for total, count in reach[-1].items():
            for d in steps:
                ways[total + d] = ways.get(total + d, 0) + count
        reach.append(ways)
    reach.reverse()
    return reach


def _zero_sum(moves, reach):
    """Every vector taking one value from each range of moves and summing to
    zero, in lexicographic order. A value is tried only if the ranges after
    it can still close the sum, so no dead branch is walked."""
    last = len(moves) - 1
    move = [0] * len(moves)
    need = [0] * len(moves)  # need[i]: the sum moves[i:] must make
    stack = [iter(moves[0])]
    while stack:
        i = len(stack) - 1
        for d in stack[i]:
            if need[i] - d in reach[i + 1]:
                break
        else:
            stack.pop()
            continue
        move[i] = d
        if i == last:
            yield tuple(move)
        else:
            need[i + 1] = need[i] - d
            stack.append(iter(moves[i + 1]))


def _top_run(excess, weight: float, n: int, ceiling: float) -> int:
    """How many of the sides already given, from the n-th down, each added at
    most ceiling; never counts below 3 sides."""
    count = 0
    while n - count > 3:
        if _gain(weight, excess[n - count - 1], excess[n - count]) > ceiling:
            break
        count += 1
    return count


def _next_run(excess, weight: float, n: int, floor: float, limit: int) -> int:
    """How many of the next sides, from the (n+1)-th up, would each add at
    least floor; counts at most limit."""
    count = 0
    while count < limit:
        if _gain(weight, excess[n + count], excess[n + count + 1]) < floor:
            break
        count += 1
    return count


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
    return _score(side, 1.0 / math.tan(math.pi / side), length)


def _score(side, cot: float, length: float) -> float:
    """stationarity_term of valid inputs, given cot = 1/tan(pi/side)."""
    alpha = math.pi / side
    scaled = alpha * length
    score = scaled * scaled * (alpha * cot * cot - cot + alpha)
    if not math.isfinite(score):
        raise ValueError(f"stationarity score of a wire of length {length!r} overflows a float")
    return score


def stationarity_residual(lengths, sides) -> tuple[float, ...]:
    """Consecutive differences of the per-wire scores; near-zero entries mean
    the continuous first-order conditions approximately hold."""
    lengths = tuple(lengths)
    sides = tuple(sides)
    if len(lengths) != len(sides):
        raise ValueError("need exactly one side count per wire")
    terms = [stationarity_term(n, x) for n, x in zip(sides, lengths)]
    return tuple(map(sub, terms, terms[1:]))
