"""Area-bound inequalities: roots, intervals, feasibility diagnostics."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import (
    AllocationProblem,
    BoundQuery,
    PartitionProblem,
    feasibility_range,
    maximize_partition,
    minimize_partition,
    shared_perimeter_total,
    solve_equal_perimeter,
    threshold_roots,
    total_area,
)

SHAPE_POOL = list(range(3, 13)) + ["circle"]


def random_problem(rng, min_shapes=2, max_shapes=6):
    count = rng.randint(min_shapes, max_shapes)
    shapes = tuple(rng.choice(SHAPE_POOL) for _ in range(count))
    return PartitionProblem(rng.uniform(1.0, 100.0), shapes)


def domain_high(problem):
    return problem.total_length / (len(problem.shapes) - 1)


def domain_supremum(problem):
    hi = domain_high(problem)
    return max(shared_perimeter_total(problem, 0.0), shared_perimeter_total(problem, hi))


def test_roots_square_triangle():
    roots = threshold_roots(PartitionProblem(12, (4, 3)), 5.0)
    assert roots == pytest.approx((2.087, 8.352), abs=2e-3)


def test_roots_three_shapes():
    roots = threshold_roots(PartitionProblem(10, (4, 3, "circle")), 5.0)
    assert roots == pytest.approx((1.089, 6.332), abs=2e-3)


def test_roots_six_shapes():
    roots = threshold_roots(PartitionProblem(20, (3, 4, 6, 8, 12, "circle")), 23.0)
    assert roots == pytest.approx((0.609, 6.235), abs=2e-3)


def test_roots_none_below_minimum():
    assert threshold_roots(PartitionProblem(12, (4, 3)), 1.0) is None


def test_two_polygon_goldens():
    problem = PartitionProblem(12, (4, 3))
    lower = solve_equal_perimeter(BoundQuery(problem, 5.0, "lower"))
    assert len(lower.intervals) == 2
    assert lower.intervals[0] == pytest.approx((0.0, 2.087), abs=2e-3)
    assert lower.intervals[1] == pytest.approx((8.352, 12.0), abs=2e-3)
    upper = solve_equal_perimeter(BoundQuery(problem, 5.0, "upper"))
    assert len(upper.intervals) == 1
    assert upper.intervals[0] == pytest.approx((2.087, 8.352), abs=2e-3)


def test_two_polygon_degenerate_thresholds():
    problem = PartitionProblem(12, (4, 3))
    lower = solve_equal_perimeter(BoundQuery(problem, 1.0, "lower"))
    assert lower.intervals == ((0.0, 12.0),)
    assert solve_equal_perimeter(BoundQuery(problem, 1.0, "upper")).is_empty
    upper = solve_equal_perimeter(BoundQuery(problem, 10.0, "upper"))
    assert upper.intervals == ((0.0, 12.0),)
    assert solve_equal_perimeter(BoundQuery(problem, 10.0, "lower")).is_empty


def test_equal_perimeter_clips_to_domain():
    problem = PartitionProblem(10, (4, 3, "circle"))
    upper = solve_equal_perimeter(BoundQuery(problem, 5.0, "upper"))
    assert len(upper.intervals) == 1
    assert upper.intervals[0] == pytest.approx((1.089, 5.0), abs=2e-3)
    lower = solve_equal_perimeter(BoundQuery(problem, 5.0, "lower"))
    assert len(lower.intervals) == 1
    assert lower.intervals[0] == pytest.approx((0.0, 1.089), abs=2e-3)


def test_query_validation():
    problem = PartitionProblem(12, (4, 3))
    for bad in (0.0, -1.0, math.nan, math.inf, True, "5"):
        with pytest.raises(ValueError):
            BoundQuery(problem, bad, "lower")
    with pytest.raises(ValueError):
        BoundQuery(problem, 5.0, "between")
    for bad in (None, 12, AllocationProblem((1.0, 2.0), 9)):
        with pytest.raises(TypeError, match="cannot query the bounds of a"):
            BoundQuery(bad, 1.0, "lower")
    for bad in (-2.0, True, 10**400):
        with pytest.raises(ValueError):
            threshold_roots(problem, bad)
        with pytest.raises(ValueError):
            feasibility_range(problem, bad)


def test_feasibility_square_triangle():
    band = feasibility_range(PartitionProblem(12, (4, 3)))
    assert band.a_low == pytest.approx(36 / (4 + 3 * math.sqrt(3)), rel=1e-9)
    assert band.a_high == pytest.approx(4 * math.sqrt(3), rel=1e-9)


def test_feasibility_hexagon_square_closed_form():
    length = 3.7
    band = feasibility_range(PartitionProblem(length, (6, 4)))
    assert band.a_low == pytest.approx((2 - math.sqrt(3)) * length**2 / 8, rel=1e-9)
    assert band.a_high == pytest.approx(length**2 / 16, rel=1e-9)


def test_feasibility_six_shapes():
    band = feasibility_range(PartitionProblem(20, (3, 4, 6, 8, 12, "circle")))
    assert band.a_low == pytest.approx(4.599, abs=2e-3)
    assert band.a_high == pytest.approx(31.831, abs=2e-3)


def test_feasibility_band_ends_are_attained():
    rng = random.Random(7)
    for _ in range(25):
        problem = random_problem(rng)
        band = feasibility_range(problem)
        hi = domain_high(problem)
        x_low = min(
            (shared_perimeter_total(problem, hi * i / 400) for i in range(401)),
        )
        assert band.a_low <= x_low * (1 + 1e-9)
        assert band.a_high == pytest.approx(shared_perimeter_total(problem, 0.0), rel=1e-12)


def test_x_hat_matches_root_half_width():
    rng = random.Random(8)
    checked = 0
    while checked < 30:
        problem = random_problem(rng, max_shapes=2)
        band = feasibility_range(problem)
        threshold = rng.uniform(band.a_low, band.a_high)
        info = feasibility_range(problem, threshold)
        roots = threshold_roots(problem, threshold)
        if info.x_hat is None or roots is None:
            continue
        assert info.x_hat == pytest.approx((roots[1] - roots[0]) / 2, rel=1e-9)
        checked += 1


def test_length_band_equivalent_to_area_band():
    rng = random.Random(9)
    for _ in range(100):
        problem = random_problem(rng)
        band = feasibility_range(problem)
        threshold = rng.uniform(0.5, 1.5) * rng.choice((band.a_low, band.a_high))
        info = feasibility_range(problem, threshold)
        in_area_band = band.a_low <= threshold <= band.a_high
        in_length_band = info.l_low <= problem.total_length <= info.l_high
        margin = min(
            abs(threshold - band.a_low) / band.a_low,
            abs(threshold - band.a_high) / band.a_high,
        )
        if margin > 1e-9:
            assert in_area_band == in_length_band


def test_complementarity_covers_domain():
    rng = random.Random(10)
    for _ in range(40):
        problem = random_problem(rng)
        sup = domain_supremum(problem)
        threshold = rng.uniform(0.2, 1.2) * sup
        lower = solve_equal_perimeter(BoundQuery(problem, threshold, "lower"))
        upper = solve_equal_perimeter(BoundQuery(problem, threshold, "upper"))
        hi = domain_high(problem)
        guard = 1e-9 * problem.total_length
        for i in range(1, 200):
            x = hi * i / 200
            inside_lower = lower.contains(x)
            inside_upper = upper.contains(x)
            assert not (inside_lower and inside_upper)
            near_edge = any(
                abs(x - e) < guard
                for piece in (*lower.intervals, *upper.intervals)
                for e in piece
            )
            if not near_edge:
                assert inside_lower or inside_upper


def test_membership_soundness_randomized():
    rng = random.Random(11)
    for _ in range(60):
        problem = random_problem(rng)
        sup = domain_supremum(problem)
        low = minimize_partition(problem).total_area
        pick = rng.random()
        if pick < 0.6:
            threshold = rng.uniform(low, sup)
        elif pick < 0.8:
            threshold = low * rng.uniform(0.2, 0.95)
        else:
            threshold = sup * rng.uniform(1.05, 2.0)
        sense = rng.choice(("lower", "upper"))
        intervals = solve_equal_perimeter(BoundQuery(problem, threshold, sense))
        hi = domain_high(problem)
        guard = 1e-6 * problem.total_length

        def satisfied(x):
            value = shared_perimeter_total(problem, x)
            return value > threshold if sense == "lower" else value < threshold

        for i in range(1, 200):
            x = hi * i / 200
            inside = any(lo + guard < x < edge - guard for lo, edge in intervals.intervals)
            clear = all(x < lo - guard or x > edge + guard for lo, edge in intervals.intervals)
            if inside:
                assert satisfied(x)
            elif clear and guard < x < hi - guard:
                assert not satisfied(x)

        for lo, edge in intervals.intervals:
            for endpoint in (lo, edge):
                if endpoint <= guard or endpoint >= hi - guard:
                    continue
                value = shared_perimeter_total(problem, endpoint)
                assert value == pytest.approx(threshold, rel=1e-6)


def test_shared_perimeter_total_direct():
    problem = PartitionProblem(10, (4, 3, "circle"))
    x = 1.25
    sigma3 = 3 * math.sqrt(3)
    by_hand = x * x / 16 + x * x / (4 * sigma3) + (10 - 2 * x) ** 2 / (4 * math.pi)
    assert shared_perimeter_total(problem, x) == pytest.approx(by_hand, rel=1e-12)


def test_shared_perimeter_total_far_end_and_refusals():
    """At x = L/k, where L - k*x is roundoff debris below zero, the last
    piece is empty; beyond the far end, and for an x that is not a number,
    ValueError."""
    problem = PartitionProblem(29.10391729003553, (4, 3, 5, "circle"))
    far = problem.total_length / 3
    assert problem.total_length - 3 * far < 0.0
    assert shared_perimeter_total(problem, far) == total_area(problem.shapes, [far] * 3 + [0.0])
    with pytest.raises(ValueError, match="perimeter must be a non-negative finite number"):
        shared_perimeter_total(problem, far * 1.01)
    with pytest.raises(ValueError, match="perimeter must be a non-negative finite number, got '1'"):
        shared_perimeter_total(problem, "1")


def test_vertex_max_dominates_line():
    rng = random.Random(12)
    for _ in range(20):
        problem = random_problem(rng)
        ceiling = maximize_partition(problem).total_area
        hi = domain_high(problem)
        for i in range(101):
            assert shared_perimeter_total(problem, hi * i / 100) <= ceiling * (1 + 1e-12)


def test_x_hat_is_none_exactly_when_roots_are():
    """Thresholds a few ulps around the band's bottom, where the two used to
    disagree on whether the line reaches the threshold."""
    rng = random.Random(13)
    for _ in range(300):
        problem = random_problem(rng, max_shapes=2)
        start = feasibility_range(problem).a_low
        for direction in (0.0, math.inf):
            threshold = start
            for _ in range(7):
                x_hat = feasibility_range(problem, threshold).x_hat
                roots = threshold_roots(problem, threshold)
                assert (x_hat is None) == (roots is None), (problem, threshold)
                threshold = math.nextafter(threshold, direction)


def _normal(value):
    return sys.float_info.min <= value <= sys.float_info.max


@st.composite
def scaled_queries(draw):
    """A bound query at L in [0.5, 2] and a power of two c = 2**m whose
    scaled copy (L*c, A*c**2) keeps every intermediate a normal float. Small
    thresholds let L*c reach far past 1e154."""
    shapes = tuple(draw(st.lists(st.sampled_from(SHAPE_POOL), min_size=2, max_size=6)))
    length = draw(st.floats(0.5, 2.0))
    # A/L**2 inside the band (about 0.005 to 0.08) or far below it
    log_alpha = draw(st.one_of(st.floats(-3.0, -0.5), st.floats(-250.0, -3.0)))
    threshold = 10.0**log_alpha * length * length
    log_l, log_a = math.log2(length), math.log2(threshold)
    low = math.ceil(max(-900 - log_l, (-900 - log_a) / 2, -900 - log_a + log_l))
    high = math.floor(min(1000 - log_l, (1000 - log_a) / 2))
    m = low + round(draw(st.floats(0.0, 1.0)) * (high - low))
    sense = draw(st.sampled_from(("lower", "upper")))
    return shapes, length, threshold, 2.0**m, sense


def _bound_answers(problem, threshold, sense):
    """Intervals, roots and the band's (l_low, l_high, x_hat), or None in
    their place where the band overflows a float and is refused."""
    intervals = solve_equal_perimeter(BoundQuery(problem, threshold, sense)).intervals
    try:
        band = feasibility_range(problem, threshold)
        lengths = band.l_low, band.l_high, band.x_hat
    except ValueError as exc:
        assert str(exc) == "threshold band overflows a float"
        lengths = None
    return intervals, threshold_roots(problem, threshold), lengths


@given(scaled_queries())
@settings(max_examples=400, deadline=None)
def test_power_of_two_scaling_is_exact(case):
    """The problem is covariant under x -> c*x, A -> c**2*A; for c a power of
    two every length answer scales by exactly c. The band's lengths come
    with the band, which is refused exactly where L**2 times the band at
    L = 1 overflows a float."""
    shapes, length, threshold, c, sense = case
    big_length, big_threshold = length * c, threshold * c * c
    assert _normal(big_length) and _normal(big_threshold) and _normal(big_threshold / big_length)
    intervals, roots, (l_low, l_high, x_hat) = _bound_answers(
        PartitionProblem(length, shapes), threshold, sense
    )
    unit_top = feasibility_range(PartitionProblem(1.0, shapes)).a_high
    expected = (
        tuple((lo * c, hi * c) for lo, hi in intervals),
        None if roots is None else (roots[0] * c, roots[1] * c),
        None if big_length * big_length * unit_top == math.inf
        else (l_low * c, l_high * c, None if x_hat is None else x_hat * c),
    )
    assert _bound_answers(PartitionProblem(big_length, shapes), big_threshold, sense) == expected


def test_huge_length_keeps_roots_and_intervals_finite():
    problem = PartitionProblem(1e200, (3, 4))
    assert threshold_roots(problem, 1e300) is None
    assert solve_equal_perimeter(BoundQuery(problem, 1e300, "lower")).intervals == ((0.0, 1e200),)
    assert solve_equal_perimeter(BoundQuery(problem, 1e300, "upper")).is_empty
    # Only the band, about 6e398, leaves the float range.
    with pytest.raises(ValueError, match="threshold band overflows a float"):
        feasibility_range(problem, 1e300)


def test_threshold_far_above_tiny_length_keeps_finite_roots():
    """A/L**2 overflows a float here; the roots (about +-sqrt(A)) do not."""
    problem = PartitionProblem(1e-10, (3, 4))
    roots = threshold_roots(problem, 1e300)
    assert roots is not None and all(math.isfinite(r) for r in roots)
    assert roots[0] < 0.0 < 1e-10 < roots[1]
    upper = solve_equal_perimeter(BoundQuery(problem, 1e300, "upper"))
    assert upper.intervals == ((0.0, 1e-10),)
    assert solve_equal_perimeter(BoundQuery(problem, 1e300, "lower")).is_empty


@pytest.mark.parametrize("shapes", [(4, 3), (4, 3, "circle"), (3, 5, 7, 9, 12)])
def test_interval_set_carries_the_domain(shapes):
    problem = PartitionProblem(12.0, shapes)
    for sense in ("lower", "upper"):
        intervals = solve_equal_perimeter(BoundQuery(problem, 5.0, sense))
        assert intervals.domain == (0.0, domain_high(problem))
        assert all(0.0 <= lo < hi <= intervals.domain[1] for lo, hi in intervals.intervals)
