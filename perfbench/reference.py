"""Independent reference math and output checks for the benchmark.

Every check here recomputes the expected answer from the paper's formulas
without calling the program, so a wrong kernel cannot vouch for itself.
Lengths are compared in units of the wire length L and areas in units of
L**2, which keeps the checks exact in shape at extreme magnitudes where
the raw quantities overflow.
"""

import math
import sys

from wirecut.errors import WirecutError

# Relative tolerance of the closed-form identities.
REL = 1e-9
_LOG_MAX = math.log(sys.float_info.max)


def sigma(shape) -> float:
    """Area weight n*tan(pi/n) of a shape token (an int or "circle")."""
    if shape == "circle":
        return math.pi
    return shape * math.tan(math.pi / shape)


def overflows(length: float, weight: float) -> bool:
    """True when the area L**2 / (4*weight) exceeds the largest float."""
    return 2.0 * math.log(length) - math.log(4.0 * weight) > _LOG_MAX


def close(value, expected, scale=None) -> bool:
    """Finite and within REL of expected (relative to scale if given)."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return False
    return abs(value - expected) <= REL * (abs(expected) if scale is None else scale)


def finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def outcome(out, overflow: bool, check) -> bool:
    """Verdict on one call: a typed error is right only where the true
    answer overflows; any other exception or a non-finite answer is wrong."""
    if isinstance(out, BaseException):
        return overflow and isinstance(out, (ValueError, WirecutError))
    return not overflow and check(out)


# ---- partitions: lengths / L, areas / L**2 -----------------------------------


def partition_ok(length, weights, lengths, areas, total, expected_total, excluded=None) -> bool:
    """A partition result: pieces sum to L, areas match the kernel, and the
    total equals expected_total (in units of L**2)."""
    if len(lengths) != len(weights) or len(areas) != len(weights):
        return False
    if not finite(lengths) or not finite(areas) or not finite([total]):
        return False
    if any(x < 0.0 for x in lengths) or not close(sum(lengths) / length, 1.0):
        return False
    if excluded is not None and lengths[excluded] != 0.0:
        return False
    for x, a, w in zip(lengths, areas, weights):
        u = x / length
        if not close(a / length / length, u * u / (4.0 * w), scale=expected_total):
            return False
    return close(total / length / length, expected_total)


# ---- bounds: the shared-perimeter line -----------------------------------------


class Line:
    """Total area along x -> (x, ..., x, L - k*x) in unit coordinates u = x/L."""

    def __init__(self, length, weights):
        self.length = length
        self.k = len(weights) - 1
        self.shared = sum(1.0 / w for w in weights[:-1])
        self.last = 1.0 / weights[-1]
        self.a_high = self.last / 4.0
        self.a_low = self.a_high * self.shared / (self.shared + self.k * self.k * self.last)
        self.weights = weights

    def total(self, u: float) -> float:
        rest = 1.0 - self.k * u
        return (u * u * self.shared + rest * rest * self.last) / 4.0

    def overflow(self) -> bool:
        return overflows(self.length, self.weights[-1])


def intervals_ok(line, alpha, sense, intervals) -> bool:
    """Open intervals in x: inside (0, L/k), ascending and disjoint; interior
    edges meet the threshold, midpoints satisfy the sense, and probe points
    clearly outside every interval do not."""
    length, k = line.length, line.k
    top = 1.0 / k
    scale = max(alpha, line.a_high)
    previous = 0.0
    units = []
    for piece in intervals:
        if len(piece) != 2 or not finite(piece):
            return False
        lo, hi = piece[0] / length, piece[1] / length
        if not previous <= lo < hi <= top * (1.0 + REL):
            return False
        previous = hi
        units.append((lo, hi))
    guard = 1e-7 * top
    for lo, hi in units:
        for edge in (lo, hi):
            if guard < edge < top - guard and abs(line.total(edge) - alpha) > REL * scale:
                return False
        if not _holds(line.total((lo + hi) / 2.0), alpha, sense):
            return False
    for j in range(1, 8):
        u = top * j / 8.0
        if all(u < lo - guard or u > hi + guard for lo, hi in units) and _holds(line.total(u), alpha, sense):
            return False
    return True


def _holds(total, alpha, sense) -> bool:
    return total > alpha if sense == "lower" else total < alpha


def roots_ok(line, alpha, roots) -> bool:
    """None exactly when the threshold sits below the line's minimum;
    otherwise two finite roots of total = threshold."""
    scale = max(alpha, line.a_high)
    if roots is None:
        return alpha <= line.a_low + REL * scale
    if len(roots) != 2 or not finite(roots) or roots[0] > roots[1]:
        return False
    return all(abs(line.total(r / line.length) - alpha) <= REL * scale for r in roots)


def band_ok(line, alpha, band, roots) -> bool:
    """Band edges and their inversion into bounds on L, plus the two-shape
    half-width of the root interval."""
    length = line.length
    if not (close(band[0] / length / length, line.a_low, scale=line.a_high)
            and close(band[1] / length / length, line.a_high)):
        return False
    l_low = 2.0 * math.sqrt(alpha / line.last)
    l_high = 2.0 * math.sqrt(alpha * (line.shared + line.k ** 2 * line.last) / (line.last * line.shared))
    if band[2] is None or band[3] is None:
        return False
    if not close(band[2] / length, l_low) or not close(band[3] / length, l_high):
        return False
    x_hat = band[4]
    if line.k != 1 or roots is None:
        return x_hat is None
    if x_hat is None:
        # a threshold at the minimum itself may lose its roots to roundoff
        return alpha <= line.a_low + REL * line.a_high
    half = (roots[1] - roots[0]) / 2.0 / length
    return finite([x_hat]) and abs(x_hat / length - half) <= 1e-7


# ---- allocation -------------------------------------------------------------------


def polygon_gain(n: int) -> float:
    """Area of a unit-perimeter regular n-gon."""
    return 1.0 / (4.0 * sigma(n))


def allocation_ok(lengths, budget, sides, per_wire, total) -> bool:
    """Sides sum to the budget, each >= 3, the areas match, and no single
    side moved from one wire to another raises the total. The objective is
    separable and concave in each side count, so that last test is exact
    optimality and needs no scan."""
    k = len(lengths)
    if len(sides) != k or len(per_wire) != k or not finite(per_wire) or not finite([total]):
        return False
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 3 for n in sides):
        return False
    if sum(sides) != budget:
        return False
    squares = [x * x for x in lengths]
    expected = sum(q * polygon_gain(n) for q, n in zip(squares, sides))
    if not close(total, expected) or not all(
        close(a, q * polygon_gain(n), scale=expected) for a, q, n in zip(per_wire, squares, sides)
    ):
        return False
    loss = [q * (polygon_gain(n) - polygon_gain(n - 1)) if n > 3 else math.inf for q, n in zip(squares, sides)]
    gain = [q * (polygon_gain(n + 1) - polygon_gain(n)) for q, n in zip(squares, sides)]
    slack = 1e-12 * expected
    return all(gain[j] - loss[i] <= slack for i in range(k) for j in range(k) if i != j)
