"""Side-budget allocation: greedy marginal analysis and stationarity diagnostics."""

import functools
import itertools
import json
import math
import random
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import (
    AllocationProblem,
    InfeasibleBudgetError,
    PartitionProblem,
    ResourceLimitError,
    Shape,
    allocation,
    area,
    cross_check,
    enumerate_allocations,
    feasibility_range,
    geometry,
    maximize_partition,
    minimize_partition,
    optimize_allocation,
    paper_face_max,
    stationarity_residual,
    stationarity_term,
    total_area,
)

# Few distinct lengths, two of them one ulp apart, so that exact and
# near-exact ties between allocations are common.
LENGTH_POOL = (0.5, 1.0, math.nextafter(1.0, 2.0), 2.0, 3.0)


def test_total_area_two_squares():
    assert total_area((4, 4), (1.0, 1.0)) == pytest.approx(0.125, rel=1e-12)


def test_total_area_triangle_hexagon():
    expected = 1 / (12 * math.sqrt(3)) + math.sqrt(3) / 6
    assert total_area((3, 6), (1.0, 2.0)) == pytest.approx(expected, rel=1e-12)


def test_total_area_single_wire_matches_kernel():
    from wirecut import Shape, area

    assert total_area((5,), (7.0,)) == pytest.approx(
        area(Shape(5), 7.0), rel=1e-15
    )


def test_total_area_validation():
    with pytest.raises(ValueError):
        total_area((4,), (1.0, 1.0))
    # 4.0 reads as a square, as in a problem file; 4.5 is no side count.
    for bad in (4.5, True, 2, -1, [4]):
        with pytest.raises(ValueError):
            total_area((4, bad), (1.0, 1.0))
    # A valid count past any a solve can use gives the kernel's area.
    huge = total_area((4, 10**9), (1.0, 1.0))
    assert huge == area(Shape(4), 1.0) + area(Shape(10**9), 1.0)
    # Text and bytes are not sequences of numbers: b"ab" would be lengths 97 and 98.
    # Sets and dicts have no written order, and a dict would give its keys.
    for lengths, sides in ((b"ab", (3, 4)), ("12", (3, 4)), ((1.0, 1.0), b"\x04\x04"),
                           (bytearray(b"ab"), (3, 4)), ({2.0, 1.0}, (4, 3)),
                           (frozenset({2.0, 1.0}), (4, 3)), ((1.0, 2.0), {4: 0, 3: 0})):
        with pytest.raises(ValueError, match="must be a sequence of"):
            total_area(sides, lengths)


def test_total_area_that_overflows_raises():
    """Every total is finite or a ValueError that names the field. Twenty-four
    triangles of wire 1.27e154 have finite areas and stationarity scores,
    but their sum is not finite (fsum raises OverflowError on it); a piece
    of 5e154 or 1e200 has an infinite area; the threshold band of a wire of
    1e200 lies past the float range, though its roots do not."""
    lengths = (1.27e154,) * 24
    problem = AllocationProblem(lengths, 72)
    huge = PartitionProblem(1e200, (3, 4))
    total, band = "total area overflows a float", "threshold band overflows a float"
    for solve, message in (
        (functools.partial(total_area, (3,) * 24, lengths), total),
        (functools.partial(optimize_allocation, problem), total),
        (functools.partial(enumerate_allocations, problem), total),
        (functools.partial(optimize_allocation, AllocationProblem((5e154, 1.0), 40)), total),
        (functools.partial(total_area, (3, 4), (1e200, 1.0)), total),
        (functools.partial(minimize_partition, huge), total),
        (functools.partial(maximize_partition, huge), total),
        (functools.partial(paper_face_max, huge), total),
        (functools.partial(feasibility_range, huge, 1e300), band),
    ):
        with pytest.raises(ValueError, match=message):
            solve()


def test_optimize_equal_wires_even_budget():
    result = optimize_allocation(AllocationProblem((1.0, 1.0), 8))
    assert result.sides == (4, 4)
    assert result.total_area == pytest.approx(0.125, rel=1e-12)
    assert result.residuals == pytest.approx((0.0,), abs=1e-15)


def test_optimize_unequal_wires():
    result = optimize_allocation(AllocationProblem((1.0, 2.0), 9))
    assert result.sides == (4, 5)
    assert result.total_area == pytest.approx(0.3377763840942347, rel=1e-12)


def test_optimize_tight_budget():
    result = optimize_allocation(AllocationProblem((1.0, 1.0, 1.0), 9))
    assert result.sides == (3, 3, 3)


def test_infeasible_budget_raises():
    with pytest.raises(InfeasibleBudgetError):
        AllocationProblem((1.0, 1.0), 5)


def test_budget_must_be_integer():
    for bad in (8.0, True, 10**400):
        with pytest.raises(ValueError):
            AllocationProblem((1.0, 1.0), bad)


def test_lengths_validated():
    with pytest.raises(ValueError):
        AllocationProblem((1.0,), 8)
    with pytest.raises(ValueError):
        AllocationProblem((1.0, -2.0), 8)
    with pytest.raises(ValueError):
        AllocationProblem((1.0, math.inf), 8)


def test_lengths_not_coerced():
    for bad in (("1", "2"), (True, 2.0), (1.0, False), (1.0, None), (1.0, 10**400),
                b"\x01\x02\x03", bytearray(b"\x01\x02\x03"), {2.0, 1.0}, frozenset({2.0, 1.0}),
                {2.0: "a", 1.0: "b"}):
        with pytest.raises(ValueError):
            AllocationProblem(bad, 9)
    for good in ((1, 2), [1, 2], range(1, 3), (x for x in (1, 2))):
        assert AllocationProblem(good, 9).wire_lengths == (1.0, 2.0)


def test_resource_guard():
    # Twelve equal wires: 8.6e16 compositions, but greedy needs no scan.
    assert optimize_allocation(AllocationProblem((1.0,) * 12, 200)).sides.count(17) == 8
    # The guard is on I - 3(k-1), the most sides one wire can get.
    assert sum(optimize_allocation(AllocationProblem((1.0, 2.0, 3.0), 20006)).sides) == 20006
    with pytest.raises(ResourceLimitError, match="one wire could get 20001 sides, over the limit of "
                       "20000 that bounds the per-count tables a process keeps"):
        optimize_allocation(AllocationProblem((1.0, 2.0, 3.0), 20007))
    with pytest.raises(ResourceLimitError):
        optimize_allocation(AllocationProblem((1.0,) * 8, 100000))
    # Thirty lengths one ulp apart sharing fifteen extra sides nearly tie
    # C(30, 15) = 1.6e8 ways; ranked exactly, the fifteen longest take them.
    assert optimize_allocation(AllocationProblem(ulp_chain(1.0, 30), 105)).sides == (3,) * 15 + (4,) * 15
    # Thirty equal wires tie exactly, and the first of the ties ascends.
    assert optimize_allocation(AllocationProblem((1.0,) * 30, 105)).sides == (3,) * 15 + (4,) * 15


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("start, left", [((5, 4), 0), ((4, 4), 1)])
def test_exchange_moves_equal_gains_only_to_a_later_wire(start, left, exact):
    """Two equal wires, on float gains and on the exact pass's int ones:
    of equal gains the later wire takes a side and the earlier one gives it.
    So (5, 4) trades its tie to (4, 5), where a loop that stopped at equal
    gains would keep (5, 4), and a side handed to (4, 4) goes to the second
    wire."""
    sides = list(start)
    if exact:
        weights, gain = [1] * 2, allocation._exact_gain
    else:
        weights, gain = [1.0] * 2, allocation._gain
    nexts = [w * gain[n] for w, n in zip(weights, sides)]
    lasts = [w * gain[n - 1] for w, n in zip(weights, sides)]
    allocation._exchange(sides, weights, gain, left, nexts, lasts)
    assert sides == [4, 5]


def test_equal_wires_take_the_first_tie_unscored():
    # Seventeen equal wires and one extra side: 17 compositions in all, while
    # the ranges each wire may move over span 2**17 side vectors.
    lengths = (1.0,) * 17
    best_total, best = -math.inf, None
    for taker in range(17):
        sides = tuple(4 if i == taker else 3 for i in range(17))
        total = total_area(sides, lengths)
        if total > best_total or (total == best_total and sides < best):
            best_total, best = total, sides
    result = optimize_allocation(AllocationProblem(lengths, 52))
    assert result.sides == best
    assert result.total_area == best_total


def grouped_ascending_vectors(lengths, budget, prefix=()):
    """Every side vector of the given sum with counts of at least 3, ascending
    over each group of equal lengths, in lexicographic order."""
    i = len(prefix)
    if i == len(lengths):
        if budget == 0:
            yield prefix
        return
    low = max([3] + [n for n, x in zip(prefix, lengths) if x == lengths[i]])
    for n in range(low, budget - 3 * (len(lengths) - i - 1) + 1):
        yield from grouped_ascending_vectors(lengths, budget - n, prefix + (n,))


@pytest.mark.parametrize("beside", [(), (7.0,)], ids=["alone", "beside_7"])
@pytest.mark.parametrize("size, extra", [(size, extra) for size in (2, 5, 20) for extra in range(1, size)])
def test_twenty_equal_wires_score_at_most_one_candidate(monkeypatch, size, extra, beside):
    """Equal wires tie exactly under every permutation, so a brute force over
    vectors ascending over the group finds the winner. Of equal gains the
    later wire takes the side, so the greedy's own vector ascends and the
    solve ranks no gain exactly. A wire of length 7.0 beside the group takes
    12 sides: its 12th adds more, and its 13th less, than a group wire's 4th."""
    lengths = (1.0,) * size + beside
    budget = 3 * size + extra + 12 * len(beside)
    best_total, best = -math.inf, None
    for sides in grouped_ascending_vectors(lengths, budget):
        total = total_area(sides, lengths)
        if total > best_total:
            best_total, best = total, sides
    assert best == (3,) * (size - extra) + (4,) * extra + (12,) * len(beside)
    refuse_the_band(monkeypatch)
    pieces = []

    def counting(shapes, perimeters, kernel=allocation.areas):
        found = kernel(shapes, perimeters)
        pieces.extend(found)
        return found

    monkeypatch.setattr(allocation, "areas", counting)
    result = optimize_allocation(AllocationProblem(lengths, budget))
    assert result.sides == best and result.total_area == best_total
    assert list(result.sides[:size]) == sorted(result.sides[:size])
    assert len(pieces) <= 2 * len(lengths)


@pytest.mark.parametrize("lengths", [
    (1.0,) * 15 + (1 + 2**-52,) * 15,
    (1.0, 1 + 2**-52) * 15,
])
def test_two_near_equal_groups_check_only_ascending_vectors(lengths):
    """Two groups of equal wires an ulp apart sharing fifteen extra sides:
    C(30, 15) vectors nearly tie, but permuting a group leaves the exact
    total unchanged, so the first exact optimum ascends over each group and
    a brute force over the vectors that ascend finds it: the fifteen longer
    wires take the sides."""
    best_total, best = -1, None
    for sides in grouped_ascending_vectors(lengths, 105):
        total = exact_total(lengths, sides)
        if total > best_total:
            best_total, best = total, sides
    assert best == tuple(4 if x > 1.0 else 3 for x in lengths)
    result = optimize_allocation(AllocationProblem(lengths, 105))
    assert result.sides == best
    assert result.total_area == total_area(best, lengths)


def refuse_the_band(monkeypatch):
    """Make the exact pass fail the test: of a solve's steps, only it scales
    the lengths to integers."""

    def refuse(*args):
        raise AssertionError("the band was ranked exactly")

    monkeypatch.setattr(allocation, "_integer_lengths", refuse)


@pytest.mark.parametrize("lengths, budget, sides", [
    ((1.0, 1.0), 20_003, (10_001, 10_002)),
    ((1.0,) * 6, 25, (4, 4, 4, 4, 4, 5)),
    ((2.0, 2.0, 2.0, 7.0), 28, (5, 5, 6, 12)),
    ((1.0,) * 8, 20_021, (2502,) * 3 + (2503,) * 5),
])
def test_band_of_one_length_is_not_walked(monkeypatch, lengths, budget, sides):
    """Where every wire that could give or take a side has one length, the
    greedy's vector is the first exact optimum, so the band is not ranked
    exactly, however many counts its wires span. The 7.0 wire's last and
    next gains lie far from the cutoff."""
    refuse_the_band(monkeypatch)
    result = optimize_allocation(AllocationProblem(lengths, budget))
    assert result.sides == sides
    assert result.total_area == total_area(sides, lengths)


@pytest.mark.parametrize("wires", [2, 3, 8, 20])
def test_equal_wires_share_the_budget_evenly(monkeypatch, wires):
    """k equal wires at the smallest budgets and those up to the side limit:
    the last I - 3k mod k wires take one side more than the rest."""
    refuse_the_band(monkeypatch)
    lengths = (1.0,) * wires
    top = allocation.SIDE_LIMIT + 3 * (wires - 1)
    for budget in [*range(3 * wires, 6 * wires + 1), *range(top - 2 * wires, top + 1)]:
        q, r = divmod(budget - 3 * wires, wires)
        assert optimize_allocation(AllocationProblem(lengths, budget)).sides == (3 + q,) * (wires - r) + (4 + q,) * r


@pytest.mark.parametrize("lengths, budget, sides", [
    ((2.5169430940636435, 2.516943094063644, 1e-300), 84, (40, 41, 3)),
    ((2.0, 50.0, 2.0000000000000004), 46, (4, 37, 5)),
    ((2.7617399612805915, 6.589560752288529, 2.761739961280592), 24, (6, 11, 7)),
])
def test_exact_pass_leaves_wires_far_from_the_cutoff(monkeypatch, lengths, budget, sides):
    """Two lengths an ulp apart nearly tie beside a wire whose last and next
    gains lie far from the cutoff (the 1e-300 wire's weight is 0.0): the
    exact pass runs over all three and still returns the oracle's optimum."""
    scaled = []
    kernel = allocation._integer_lengths
    monkeypatch.setattr(allocation, "_integer_lengths", lambda lengths: scaled.append(lengths) or kernel(lengths))
    problem = AllocationProblem(lengths, budget)
    fast = optimize_allocation(problem)
    assert len(scaled) == 1
    slow = enumerate_allocations(problem)
    assert fast.sides == slow.sides == sides
    assert fast.total_area.hex() == slow.total_area.hex()


@st.composite
def one_group_problems(draw):
    """Two to four wires of one bit-equal length beside zero to two other
    lengths, some an ulp or two from the group's, in any order."""
    length = draw(st.floats(0.25, 4.0))
    below = math.nextafter(length, 0.0)
    near = (math.nextafter(below, 0.0), below, *ulp_chain(length, 3)[1:])
    other = st.one_of(st.floats(0.25, 4.0), st.sampled_from(LENGTH_POOL), st.sampled_from(near))
    lengths = draw(st.permutations([length] * draw(st.integers(2, 4)) + draw(st.lists(other, max_size=2))))
    wires = len(lengths)
    budget = draw(st.integers(3 * wires, 3 * wires + (16 if wires < 4 else 24 // wires)))
    return AllocationProblem(tuple(lengths), budget)


@given(one_group_problems())
@settings(max_examples=150, deadline=None)
def test_one_equal_group_beside_others_equals_enumeration(problem):
    fast = optimize_allocation(problem)
    slow = enumerate_allocations(problem)
    assert fast.sides == slow.sides
    assert fast.total_area.hex() == slow.total_area.hex()


@given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.integers(3, 10_000)), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_total_area_is_correctly_rounded_in_any_order(pairs, rng):
    lengths, sides = zip(*pairs)
    total = total_area(sides, lengths)
    assert total.hex() == math.fsum(area(Shape(n), x) for x, n in pairs).hex()
    rng.shuffle(pairs)
    lengths, sides = zip(*pairs)
    assert total_area(sides, lengths).hex() == total.hex()


def ulp_chain(base, size):
    """base and the size - 1 floats above it."""
    chain = [base]
    while len(chain) < size:
        chain.append(math.nextafter(chain[-1], math.inf))
    return tuple(chain)


@functools.cache
def reference_area(n):
    """1/(4 n tan(pi/n)) to about 80 digits, apart from the package's kernel:
    pi, sin and cos by the recipes of the decimal module's documentation,
    summed at 90 digits."""
    with localcontext(Context(prec=90)):
        lasts, t, pi, k, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while pi != lasts:
            lasts = pi
            k, na = k + na, na + 8
            d, da = d + da, da + 32
            t = (t * k) / d
            pi += t
        x = pi / n
        sums = []
        for i, term in ((1, x), (0, Decimal(1))):  # sin, then cos
            lasts, total, fact, num, sign = 0, term, 1, term, 1
            while total != lasts:
                lasts = total
                i += 2
                fact *= i * (i - 1)
                num *= x * x
                sign *= -1
                total += num / fact * sign
            sums.append(total)
        sin, cos = sums
        return cos / (4 * n * sin)


def exact_total(lengths, sides):
    """sum(L**2 * g(n)) to about 80 digits, its terms added in ascending
    order: permuting the counts of bit-equal lengths permutes equal terms,
    so it leaves the sum as it is."""
    with localcontext(Context(prec=90)):
        return sum(sorted(Decimal(x) ** 2 * reference_area(n) for x, n in zip(lengths, sides)))


def exact_best(lengths, budget):
    """The exact optimum by brute force: the largest exact total and, of
    equal ones, the lexicographically smallest vector."""
    best_total, best = -1, None
    heads = range(3, budget - 3 * (len(lengths) - 1) + 1)
    for head in itertools.product(heads, repeat=len(lengths) - 1):
        sides = head + (budget - sum(head),)
        if sides[-1] >= 3 and (total := exact_total(lengths, sides)) > best_total:
            best_total, best = total, sides
    return best


@st.composite
def pooled_problems(draw):
    """Two to five wires drawn with repeats from two or three lengths, some of
    them a few ulps apart."""
    value = st.one_of(st.sampled_from(LENGTH_POOL), st.floats(0.25, 4.0))
    chain = st.builds(ulp_chain, st.floats(0.25, 4.0), st.integers(2, 3))
    pool = draw(st.one_of(st.lists(value, min_size=2, max_size=3, unique=True), chain))
    wires = draw(st.integers(2, 5))
    lengths = tuple(draw(st.sampled_from(pool)) for _ in range(wires))
    budget = draw(st.integers(3 * wires, 3 * wires + (20 if wires < 4 else 10)))
    return AllocationProblem(lengths, budget)


@given(pooled_problems())
@settings(max_examples=100, deadline=None)
def test_greedy_equals_enumeration_on_repeated_lengths(problem):
    fast = optimize_allocation(problem)
    slow = enumerate_allocations(problem)
    assert fast.sides == slow.sides
    assert fast.total_area.hex() == slow.total_area.hex()


@pytest.mark.parametrize("base, picks, budget", [
    (0.1, (3, 0, 1), 10),
    (3.0, (3, 1, 0, 2), 29),
    (3.0, (3, 1, 0, 1, 2), 19),
])
def test_ulp_chains_match_enumeration(base, picks, budget):
    """Lengths a few ulps apart, where correctly rounded and left-to-right
    totals order the near-tie candidates differently."""
    chain = ulp_chain(base, 4)
    problem = AllocationProblem(tuple(chain[i] for i in picks), budget)
    fast = optimize_allocation(problem)
    slow = enumerate_allocations(problem)
    assert fast.sides == slow.sides
    assert fast.total_area.hex() == slow.total_area.hex()


def test_near_tie_scoring_takes_each_area_once(monkeypatch):
    """Twenty lengths one ulp apart share ten extra sides C(20, 10) = 184,756
    ways, and thirty share fifteen C(30, 15) ways; the exact exchange fills
    the exact kernel at most once per count, and only for the counts its
    wires' last and next gains read, whatever the number of near ties."""

    class Fills(geometry._Table):
        def __setitem__(self, n, value):
            fills.append(n)
            super().__setitem__(n, value)

    for wires, budget in ((20, 70), (30, 105)):
        fills = []
        monkeypatch.setattr(geometry, "_exact_areas", Fills(geometry._unit_area_series))
        allocation._exact_gain.clear()
        lengths = ulp_chain(1.0, wires)
        result = optimize_allocation(AllocationProblem(lengths, budget))
        assert result.sides == (3,) * (wires // 2) + (4,) * (wires // 2)
        assert sorted(fills) == [3, 4, 5]
        assert result.total_area == total_area(result.sides, lengths)
        if wires == 20:
            assert result.total_area.hex() == "0x1.1b2b05cfc1564p+0"


def test_near_tie_at_the_guard_and_oracle_agreement():
    """Lengths (1, 1.3) nearly tie at the side guard, where the exact pass
    settles them; a small solve equals the oracle's and passes its check."""
    assert optimize_allocation(AllocationProblem((1.0, 1.3), 20_003)).sides == (9129, 10874)
    problem = AllocationProblem((1.0, 2.0), 9)
    checks = cross_check(problem)
    assert enumerate_allocations(problem) == optimize_allocation(problem) and checks[0].ok


@st.composite
def small_problems(draw):
    wires = draw(st.integers(2, 4))
    lengths = tuple(draw(st.sampled_from(LENGTH_POOL)) for _ in range(wires))
    budget = draw(st.integers(3 * wires, 3 * wires + 20))
    return AllocationProblem(lengths, budget)


@given(small_problems())
@settings(max_examples=100, deadline=None)
def test_greedy_equals_enumeration(problem):
    fast = optimize_allocation(problem)
    slow = enumerate_allocations(problem)
    assert fast.sides == slow.sides
    assert fast.total_area == slow.total_area


def test_rounding_decides_near_ties():
    """Exact totals a few ulps apart, which float totals cannot order: the
    optimizer's exact gains and the oracle's exact totals agree."""
    one_up = math.nextafter(1.0, 2.0)
    for lengths, budget in (
        ((one_up, 1.0), 9),
        ((0.5, one_up, 1.0, 7.3), 35),
        ((0.03966255784091284, 0.039662557840912833), 20003),
    ):
        problem = AllocationProblem(lengths, budget)
        fast = optimize_allocation(problem)
        slow = enumerate_allocations(problem)
        assert fast.sides == slow.sides
        assert fast.total_area == slow.total_area


def test_three_lengths_an_ulp_apart_rank_by_exact_total():
    """Float totals put (5, 6, 6) first, giving the shortest wire more sides
    than the middle one; the exact optimum (6, 6, 5) is larger by 1.1e-17."""
    lengths = (3.6338891343852056, 3.633889134385206, 3.633889134385205)
    assert exact_total(lengths, (6, 6, 5)) - exact_total(lengths, (5, 6, 6)) > Decimal("1e-17")
    problem = AllocationProblem(lengths, 17)
    assert optimize_allocation(problem).sides == enumerate_allocations(problem).sides == (6, 6, 5)


@pytest.mark.parametrize("low, high", [(4, 5), (3, 5), (6, 9)])
def test_distinct_lengths_whose_next_gains_nearly_tie_rank_exactly(low, high):
    """A wire of length 1 at `low` sides and a longer one at `high` sides,
    its length y within two ulps of sqrt(d(low)/d(high)), d(m) = g(m+1) -
    g(m), so that their next gains tie to a few ulps: the one side left goes
    to the larger exact gain, whichever wire that is."""
    with localcontext(Context(prec=90)):
        ratio = (reference_area(low + 1) - reference_area(low)) / (reference_area(high + 1) - reference_area(high))
        root = float(ratio.sqrt())
    winners = set()
    for y in ulp_chain(math.nextafter(math.nextafter(root, 0.0), 0.0), 5):
        lengths, budget = (1.0, y), low + high + 1
        best = exact_best(lengths, budget)
        problem = AllocationProblem(lengths, budget)
        assert optimize_allocation(problem).sides == enumerate_allocations(problem).sides == best
        winners.add(best)
    assert winners == {(low + 1, high), (low, high + 1)}


def seeded_problems(rng, count):
    """k = 2..4 wires with lengths an ulp or a few apart, random, or both,
    some of them bit-equal, and up to 12 extra sides."""
    for _ in range(count):
        wires = rng.randint(2, 4)
        chain = ulp_chain(rng.uniform(0.1, 10.0), rng.randint(1, 4))
        pool = {
            "ulp": chain,
            "random": tuple(rng.uniform(0.1, 10.0) for _ in range(3)),
            "mixed": chain + (rng.uniform(0.1, 10.0),),
        }[rng.choice(("ulp", "random", "mixed"))]
        lengths = tuple(rng.choice(pool) for _ in range(wires))
        yield lengths, 3 * wires + rng.randint(0, (12, 10, 8)[wires - 2])


def test_optimizer_and_oracle_match_an_exact_brute_force():
    """Both return the largest exact total and, of equal ones, the smallest
    vector, against an 80-digit brute force that shares no code with them."""
    for lengths, budget in seeded_problems(random.Random(23), 300):
        problem = AllocationProblem(lengths, budget)
        best = exact_best(lengths, budget)
        assert optimize_allocation(problem).sides == best, (lengths, budget)
        assert enumerate_allocations(problem).sides == best, (lengths, budget)


def test_gain_table_is_far_inside_the_band_tolerance():
    """The float gain of the (n+1)-th side of a unit wire against the
    difference of 80-digit reference areas, which share no code with the
    package's kernel, for every count up to 400 and every 37th up to the
    side limit. The smallest band is (2 + 8) * 2**-50 / 12: two wires, the
    longest of weight 1. A pair of gains misorders only within the sum of
    their errors, so twenty times the worst error under it leaves the band
    a margin of ten for the weights' rounding."""
    counts = sorted({*range(3, 400), *range(400, allocation.SIDE_LIMIT, 37), allocation.SIDE_LIMIT})
    with localcontext(Context(prec=90)):
        worst = max(abs(Decimal(allocation._gain[n]) - (reference_area(n + 1) - reference_area(n))) for n in counts)
        assert 20 * worst < Decimal(10 * 2.0**-50 / 12)


@pytest.mark.parametrize("lengths, budget, sides", [
    ((1e-200, 1.0), 10, (3, 7)),
    ((1e-200, 1e-200, 1.0), 12, (3, 3, 6)),
    ((1e-200, 3e-200, 1.0), 40, (3, 3, 34)),
])
def test_weights_that_underflow_to_zero(lengths, budget, sides):
    """A wire 1e200 times shorter than the longest has weight 0.0: its gains
    are 0 and a wire at 3 sides gives none, never 0 * inf = nan."""
    problem = AllocationProblem(lengths, budget)
    assert optimize_allocation(problem).sides == enumerate_allocations(problem).sides == sides


@st.composite
def chained_problems(draw):
    """Two to six wires drawn from lengths a few ulps apart, or from them
    and other lengths, with up to 24 extra sides."""
    chain = ulp_chain(draw(st.floats(0.1, 10.0)), draw(st.integers(2, 4)))
    others = draw(st.lists(st.floats(0.1, 10.0), max_size=2))
    wires = draw(st.integers(2, 6))
    lengths = tuple(draw(st.sampled_from(chain + tuple(others))) for _ in range(wires))
    return AllocationProblem(lengths, draw(st.integers(3 * wires, 3 * wires + 24)))


@given(chained_problems())
@settings(max_examples=200, deadline=None)
def test_a_longer_wire_never_gets_fewer_sides(problem):
    """Each gain of a longer wire beats the same gain of a shorter one, so at
    the exact optimum a side never sits on the shorter wire at fewer sides."""
    lengths, sides = problem.wire_lengths, optimize_allocation(problem).sides
    for i, j in itertools.permutations(range(len(lengths)), 2):
        if lengths[i] > lengths[j]:
            assert sides[i] >= sides[j]


def test_eight_wires_no_single_move_improves():
    rng = random.Random(16)
    unequal = [tuple(rng.uniform(0.5, 3.0) for _ in range(8)) for _ in range(3)]
    for lengths in [(1.0,) * 8] + unequal:
        result = optimize_allocation(AllocationProblem(lengths, 60))
        assert sum(result.sides) == 60
        assert result.total_area == total_area(result.sides, lengths)
        for donor, taker in itertools.permutations(range(8), 2):
            if result.sides[donor] == 3:
                continue
            moved = list(result.sides)
            moved[donor] -= 1
            moved[taker] += 1
            assert total_area(moved, lengths) <= result.total_area


def test_budget_monotonicity():
    rng = random.Random(13)
    for _ in range(10):
        lengths = tuple(rng.uniform(0.5, 3.0) for _ in range(rng.randint(2, 3)))
        floor = 3 * len(lengths)
        previous = None
        for budget in range(floor, floor + 12):
            total = optimize_allocation(AllocationProblem(lengths, budget)).total_area
            if previous is not None:
                assert total >= previous * (1 - 1e-12)
            previous = total


def test_permutation_symmetry():
    rng = random.Random(14)
    for _ in range(10):
        lengths = tuple(rng.uniform(0.5, 3.0) for _ in range(3))
        budget = rng.randint(9, 24)
        base = optimize_allocation(AllocationProblem(lengths, budget))
        order = [0, 1, 2]
        rng.shuffle(order)
        permuted = optimize_allocation(
            AllocationProblem(tuple(lengths[i] for i in order), budget)
        )
        assert permuted.total_area == pytest.approx(base.total_area, rel=1e-12)
        assert sorted(permuted.sides) == sorted(base.sides)


def test_scaling_leaves_winner_unchanged():
    rng = random.Random(15)
    for _ in range(10):
        lengths = tuple(rng.uniform(0.5, 3.0) for _ in range(2))
        budget = rng.randint(7, 30)
        factor = rng.uniform(0.1, 10.0)
        base = optimize_allocation(AllocationProblem(lengths, budget))
        scaled = optimize_allocation(
            AllocationProblem(tuple(factor * x for x in lengths), budget)
        )
        assert scaled.sides == base.sides
        assert scaled.total_area == pytest.approx(factor**2 * base.total_area, rel=1e-9)


def test_stationarity_term_golden():
    expected = (math.pi / 4) ** 2 * (math.pi / 2 - 1)
    assert stationarity_term(4, 1.0) == pytest.approx(expected, rel=1e-12)


def _factor_exact(alpha, terms=8):
    """alpha/tan(alpha)**2 - 1/tan(alpha) + alpha = -(alpha*cot(alpha))' at the
    float alpha, summed exactly: sum of 2k 4**k |B_2k| / (2k)! alpha**(2k-1)."""
    bernoulli = [Fraction(1)]
    for m in range(1, 2 * terms + 1):
        bernoulli.append(-sum(math.comb(m + 1, j) * bernoulli[j] for j in range(m)) / (m + 1))
    a = Fraction(alpha)
    return sum(2 * k * 4**k * abs(bernoulli[2 * k]) / math.factorial(2 * k) * a ** (2 * k - 1)
               for k in range(1, terms + 1))


@pytest.mark.parametrize("n", [*range(21, 32), 32, 10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9])
def test_stationarity_factor_is_accurate_at_large_side_counts(n):
    """The direct form's terms near 1/alpha cancel (107 ulps at n = 30, 2e-5
    relative at n = 10**6); eight terms of the exact series leave under 1e-20
    relative for n >= 21. The six-term float series is within 6 ulps there,
    and within 2 from n = 32."""
    alpha = math.pi / n
    exact = _factor_exact(alpha)
    ulps = 8 if n < 32 else 2
    assert abs(Fraction(allocation._factor_at(alpha)) - exact) <= ulps * Fraction(math.ulp(float(exact)))
    assert stationarity_term(n, 1.0) == pytest.approx(float(exact) * alpha**2, rel=1e-15)


def test_stationarity_factor_keeps_the_direct_form_up_to_20_sides():
    """Residuals of allocations of at most 20 sides a wire stay bit-identical."""
    for n in range(3, 21):
        alpha = math.pi / n
        cot = 1.0 / math.tan(alpha)
        assert allocation._factor_at(alpha) == alpha * cot * cot - cot + alpha


def test_stationarity_term_positive_everywhere():
    for side in [2.001 + 0.37 * i for i in range(200)]:
        value = stationarity_term(side, 1.7)
        assert math.isfinite(value) and value > 0


def test_stationarity_term_validation():
    with pytest.raises(ValueError):
        stationarity_term(2.0, 1.0)
    for side, length in ((4.0, 0.0), (3, True), (3, 10**400), (10**400, 1.0)):
        with pytest.raises(ValueError):
            stationarity_term(side, length)


def test_overflowing_stationarity_score_raises_value_error():
    with pytest.raises(ValueError, match="overflows"):
        stationarity_term(4, 1e200)
    with pytest.raises(ValueError, match="overflows"):
        optimize_allocation(AllocationProblem((1e200, 1.0), 20))
    # The message names the first wire whose score overflows, not the longest.
    for lengths, named in (((1.0, 1e200, 1e201), "1e+200"), ((1e201, 1.0, 1e200), "1e+201")):
        with pytest.raises(ValueError, match=rf"length {re.escape(named)} overflows"):
            optimize_allocation(AllocationProblem(lengths, 20))


def test_residual_zero_for_identical_wires():
    for n in (3, 5, 11):
        for c in (0.3, 1.0, 12.5):
            assert stationarity_residual((c, c), (n, n)) == (0.0,)


def test_residual_sign_change_brackets_winner():
    lengths = (1.0, 2.0)
    residual = {
        sides: stationarity_residual(lengths, sides)[0]
        for sides in ((3, 6), (4, 5), (5, 4))
    }
    assert residual[(3, 6)] > 0 > residual[(4, 5)]
    winner = optimize_allocation(AllocationProblem(lengths, 9)).sides
    assert winner in ((3, 6), (4, 5))


def test_residual_shape():
    values = stationarity_residual((1.0, 2.0, 3.0), (4, 5, 6))
    assert len(values) == 2
    with pytest.raises(ValueError):
        stationarity_residual((1.0, 2.0), (4,))
    with pytest.raises(ValueError, match="must be a sequence of"):
        stationarity_residual(b"\x01\x02", (4, 5))
    with pytest.raises(ValueError, match="must be a sequence of"):
        stationarity_residual({2.0, 1.0}, (4, 3))


@st.composite
def scaled_problems(draw):
    """k = 2..8 wires, all tied, some tied or all distinct, with lengths
    log-uniform over 1e-150..1e150 and up to 200 sides to hand out."""
    wires = draw(st.integers(2, 8))
    draw_length = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)
    pool = draw(st.lists(draw_length, min_size=1, max_size=wires))
    lengths = tuple(draw(st.sampled_from(pool)) for _ in range(wires))
    budget = draw(st.integers(3 * wires, 3 * wires + 200))
    return AllocationProblem(lengths, budget)


@given(scaled_problems())
@settings(max_examples=200, deadline=None)
def test_result_is_bit_identical_to_public_kernels(problem):
    """The tabulated solve reports what the public kernels compute afresh,
    compared by float.hex on the running interpreter."""
    lengths = problem.wire_lengths
    result = optimize_allocation(problem)
    sides = result.sides
    for n, x, got in zip(sides, lengths, result.per_wire_areas):
        assert got.hex() == area(Shape(n), x).hex()
    assert result.total_area.hex() == total_area(sides, lengths).hex()
    expected = stationarity_residual(lengths, sides)
    assert [r.hex() for r in result.residuals] == [r.hex() for r in expected]


# The tables behind a solve, keyed by side count, found by type.
TABLES = tuple(name for name, value in vars(allocation).items() if isinstance(value, allocation._Table))


@pytest.fixture
def fresh_tables():
    for name in TABLES:
        getattr(allocation, name).clear()


def test_total_area_checks_counts_the_table_holds(fresh_tables):
    """Checking an allocation, valid or not, leaves every solve table as
    the last solve left it: a count past any a solve can use is built
    but not kept."""
    optimize_allocation(AllocationProblem((1.0, 2.0), 20))
    held = {name: len(getattr(allocation, name)) for name in TABLES}
    assert held["_polygon"] > 0
    total_area((4, 4), (1.0, 1.0))
    test_total_area_validation()
    assert {name: len(getattr(allocation, name)) for name in TABLES} == held


def count_work(monkeypatch):
    """Lists that record every tan taken and every Shape built."""
    tans, shapes = [], []
    tan = math.tan
    init = Shape.__init__

    def counting_tan(x):
        tans.append(x)
        return tan(x)

    def counting_init(self, sides):
        shapes.append(sides)
        init(self, sides)

    monkeypatch.setattr(math, "tan", counting_tan)
    monkeypatch.setattr(Shape, "__init__", counting_init)
    return tans, shapes


@pytest.mark.parametrize("lengths, budget", [
    ((1.0, 2.0, 3.0), 40),
    ((1.0,) * 6, 25),  # equal wires: the band is formed
    ((0.5, 1.0, 1.0, 7.3), 2000),
])
def test_second_solve_takes_no_tan_and_builds_no_shape(monkeypatch, fresh_tables, lengths, budget):
    problem = AllocationProblem(lengths, budget)
    first = optimize_allocation(problem)
    tans, shapes = count_work(monkeypatch)
    # The same problem again, and one twice as long, which has the same winner.
    assert optimize_allocation(problem) == first
    doubled = optimize_allocation(AllocationProblem(tuple(2.0 * x for x in lengths), budget))
    assert doubled.sides == first.sides
    assert tans == [] and shapes == []


EIGHT_WIRES = (0.6, 0.9, 1.0, 1.3, 1.7, 2.1, 2.6, 3.0)


def test_solve_work_does_not_grow_with_the_budget(monkeypatch, fresh_tables):
    """Gains, tans and Shapes per solve stay within a few per wire from a
    budget of 60 up to the side limit. Each gain reads one entry of _gain,
    so its lookups count the gains; fills would undercount them at small
    budgets, where wires share counts."""
    gains = []

    class CountingTable(allocation._Table):
        def __getitem__(self, n):
            gains.append(n)
            return super().__getitem__(n)

    monkeypatch.setattr(allocation, "_gain", CountingTable(allocation._gain.fill))
    tans, shapes = count_work(monkeypatch)
    wires = len(EIGHT_WIRES)
    counts = []
    for budget in (60, 2_000, 20_021):
        del gains[:], tans[:], shapes[:]
        assert sum(optimize_allocation(AllocationProblem(EIGHT_WIRES, budget)).sides) == budget
        assert len(tans) <= 4 * wires and len(shapes) <= 2 * wires
        counts.append(len(gains))
    assert max(counts) <= 8 * wires
    assert max(counts) < 2 * min(counts)


@pytest.mark.parametrize("lengths, budget, sides", [
    ((1.0, 1.3), 20_003, (9129, 10874)),
    (EIGHT_WIRES, 20_021, (1310, 1717, 1842, 2194, 2624, 3020, 3483, 3831)),
])
def test_exact_exchange_reads_a_few_areas_per_wire(monkeypatch, lengths, budget, sides):
    """Gains that nearly tie at the side limit: the exact exchange starts
    from the greedy's vector, so it reads a few exact areas per wire, those
    of its last and next gains, beside those the float pass rounds its
    gains from."""
    monkeypatch.setattr(geometry, "_exact_areas", geometry._Table(geometry._unit_area_series))
    allocation._exact_gain.clear()
    assert optimize_allocation(AllocationProblem(lengths, budget)).sides == sides
    assert 0 < len(geometry._exact_areas) <= 4 * len(lengths)


def test_import_fills_nothing():
    assert TABLES
    script = (
        "import wirecut; from wirecut import allocation; "
        f"print([len(getattr(allocation, name)) for name in {TABLES!r}])"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == str([0] * len(TABLES))


def test_side_limit_solve_fills_only_the_counts_it_touches():
    """A fresh process solving eight wires at the side limit keeps a few
    entries per wire in each table, not one per count up to the limit."""
    script = (
        "from wirecut import allocation, AllocationProblem, optimize_allocation; "
        f"optimize_allocation(AllocationProblem({EIGHT_WIRES!r}, 20_021)); "
        f"print([len(getattr(allocation, name)) for name in {TABLES!r}])"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    sizes = json.loads(result.stdout)
    assert len(sizes) == len(TABLES) and 0 < min(sizes) and max(sizes) <= 5 * len(EIGHT_WIRES)


def test_concurrent_solves_match_serial(fresh_tables):
    """Solves that fill the tables, and the exact kernel's values, at the
    same time get the serial results."""
    problems = [AllocationProblem((1.0, 1.7, 2.9), budget) for budget in (900, 3100, 6300, 12700)]
    problems += [AllocationProblem(ulp_chain(1.0, 12), budget) for budget in (40, 50, 60, 70)]
    serial = [optimize_allocation(p) for p in problems]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            for name in TABLES:
                getattr(allocation, name).clear()
            geometry._exact_areas.clear()
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(optimize_allocation, problems, timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)
