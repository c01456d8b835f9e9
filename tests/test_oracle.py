"""Brute-force oracle: lattice scans and plain allocation enumeration."""

import math
import random
import tracemalloc
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import (
    AllocationProblem,
    GridSpec,
    PartitionProblem,
    ResourceLimitError,
    enumerate_allocations,
    grid_extremes,
    minimize_partition,
    optimize_allocation,
    sigma,
)
from wirecut import oracle
from wirecut.geometry import area, parse_shape

SHAPE_POOL = list(range(3, 13)) + ["circle"]


def lattice_error_bound(problem, resolution):
    step = problem.total_length / resolution
    return step * step * sum(1.0 / (4.0 * sigma(s)) for s in problem.shapes)


def test_grid_spec_validation():
    for bad in (1, 0, -2, 2.5, True, 10**400):
        with pytest.raises(ValueError):
            GridSpec(bad)


def test_grid_rejects_many_shapes():
    problem = PartitionProblem(10, (3,) * 7)
    with pytest.raises(ResourceLimitError):
        grid_extremes(problem, GridSpec(4))


def test_grid_rejects_huge_sample_count():
    problem = PartitionProblem(10, (3, 4, 5, 6, 7, 8))
    with pytest.raises(ResourceLimitError):
        grid_extremes(problem, GridSpec(10**4))


def test_grid_min_two_shapes_close_to_closed_form():
    problem = PartitionProblem(12, (4, 3))
    result = grid_extremes(problem, GridSpec(10**4))[0]
    closed = minimize_partition(problem)
    assert result.total_area >= closed.total_area
    assert result.total_area - closed.total_area <= 1e-4


def test_grid_min_error_shrinks_quadratically():
    problem = PartitionProblem(7.0, (5, "circle"))
    closed = minimize_partition(problem).total_area
    gap_coarse = grid_extremes(problem, GridSpec(100))[0].total_area - closed
    gap_fine = grid_extremes(problem, GridSpec(1000))[0].total_area - closed
    assert 0 <= gap_fine <= gap_coarse
    assert gap_fine <= lattice_error_bound(problem, 1000)
    assert gap_coarse <= lattice_error_bound(problem, 100)


def test_grid_min_identical_shapes_centers():
    problem = PartitionProblem(10, (4, 4))
    result = grid_extremes(problem, GridSpec(100))[0]
    assert result.lengths == pytest.approx((5.0, 5.0), rel=1e-12)
    pair = PartitionProblem(10, ("circle", "circle"))
    result = grid_extremes(pair, GridSpec(101))[0]
    # odd resolution: the two samples astride the center tie; either is fine
    assert result.lengths[0] == pytest.approx(5.0, abs=10 / 101)
    assert result.total_area == pytest.approx(minimize_partition(pair).total_area, rel=1e-3)


def test_grid_max_two_shapes_at_endpoint():
    problem = PartitionProblem(12, (4, 3))
    result = grid_extremes(problem, GridSpec(500))[1]
    assert result.lengths in ((12.0, 0.0), (0.0, 12.0))
    assert result.total_area == pytest.approx(9.0, rel=1e-12)


def test_grid_max_pentagon_tie():
    problem = PartitionProblem(4.0, (5, 5))
    result = grid_extremes(problem, GridSpec(250))[1]
    assert sorted(result.lengths) == pytest.approx([0.0, 4.0], abs=1e-12)


def test_grid_max_finds_circle_vertex():
    problem = PartitionProblem(10, (4, 3, "circle"))
    result = grid_extremes(problem, GridSpec(1000))[1]
    assert result.lengths == (0.0, 0.0, 10.0)
    assert result.total_area == pytest.approx(100 / (4 * math.pi), rel=1e-12)


def test_grid_max_below_isoperimetric_ceiling():
    rng = random.Random(16)
    for _ in range(20):
        count = rng.randint(2, 4)
        shapes = tuple(rng.choice(SHAPE_POOL) for _ in range(count))
        problem = PartitionProblem(rng.uniform(1.0, 50.0), shapes)
        result = grid_extremes(problem, GridSpec(40))[1]
        ceiling = problem.total_length ** 2 / (4 * math.pi)
        assert result.total_area <= ceiling * (1 + 1e-12)


def test_grid_results_are_consistent_samples():
    problem = PartitionProblem(9.0, (3, 6, "circle"))
    for result in grid_extremes(problem, GridSpec(60)):
        assert result.kind == "grid-sample"
        assert sum(result.lengths) == pytest.approx(9.0, rel=1e-9)
        assert sum(result.per_shape_areas) == pytest.approx(result.total_area, rel=1e-12)


def test_enumerate_matches_optimizer_small_grid():
    rng = random.Random(17)
    for wires in (2, 3):
        for _ in range(5):
            lengths = tuple(rng.uniform(0.5, 4.0) for _ in range(wires))
            budget = rng.randint(3 * wires, 3 * wires + 15)
            problem = AllocationProblem(lengths, budget)
            fast = optimize_allocation(problem)
            slow = enumerate_allocations(problem)
            assert fast.sides == slow.sides
            assert fast.total_area == slow.total_area


def test_enumerate_all_threes():
    result = enumerate_allocations(AllocationProblem((2.0, 1.0, 3.0), 9))
    assert result.sides == (3, 3, 3)


def test_enumerate_resource_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_allocations(AllocationProblem((1.0,) * 12, 200))


def test_enumerate_guard_counts_visited_tuples():
    # 32 M compositions, but the nested loops would visit 37**7 = 9.5e10 tuples.
    with pytest.raises(ResourceLimitError):
        enumerate_allocations(AllocationProblem((1.0,) * 8, 60))


def test_enumerate_guard_counts_exact_areas(monkeypatch):
    """Two wires visit as many tuples as one wire has counts, so the tuple
    limit alone would let the exact table grow to 10**8 ints; the count
    limit refuses the scan before any exact area is taken."""

    def refuse(n):
        raise AssertionError("an exact area was taken")

    monkeypatch.setattr(oracle, "_unit_area_exact", refuse)
    with pytest.raises(ResourceLimitError, match="100001 side counts per wire exceed the exact table limit of 100000"):
        enumerate_allocations(AllocationProblem((1.0, 2.0), 100_006))
    monkeypatch.undo()
    # The limit is on the counts kept, 3 .. I - 3(k-1): 18 here at budget 23.
    monkeypatch.setattr(oracle, "_COUNT_LIMIT", 18)
    assert enumerate_allocations(AllocationProblem((1.0, 2.0), 23)).sides == (9, 14)
    with pytest.raises(ResourceLimitError, match="19 side counts per wire exceed the exact table limit of 18"):
        enumerate_allocations(AllocationProblem((1.0, 2.0), 24))


def _lattice(total, parts):
    """Every composition of total into `parts` non-negative parts, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _lattice(total - head, parts - 1):
            yield (head,) + tail


def reference_scan(problem, resolution, want_max):
    """One sample at a time: the first sample strictly better than all
    before it wins, its total its areas added left to right (what sum()
    does with floats before Python 3.12, which compensates)."""
    length = problem.total_length
    best = (None, None, -math.inf if want_max else math.inf)
    for counts in _lattice(resolution, len(problem.shapes)):
        lengths = tuple(length * (c / resolution) for c in counts)
        areas = tuple(area(s, x) for s, x in zip(problem.shapes, lengths))
        total = reduce(add, areas)
        if (total > best[2]) if want_max else (total < best[2]):
            best = (lengths, areas, total)
    return best


# Resolutions keep each example to a few thousand samples.
_MAX_RESOLUTION = {2: 300, 3: 40, 4: 14, 5: 9, 6: 7}


@st.composite
def lattice_scans(draw):
    parts = draw(st.integers(2, 6))
    # A small pool makes repeated shapes, and with them exact ties, common.
    pool = draw(st.sampled_from([(3, 4, "circle", 10**6), (4,), (5, 5, "circle")]))
    shapes = tuple(draw(st.sampled_from(pool)) for _ in range(parts))
    length = draw(st.one_of(
        st.sampled_from([1.0, 4.0, 12.0, 1e-150, 1e150]),
        st.floats(min_value=1e-3, max_value=1e3),
    ))
    resolution = draw(st.integers(2, _MAX_RESOLUTION[parts]))
    return PartitionProblem(length, shapes), resolution


@given(lattice_scans())
@settings(max_examples=150, deadline=None)
def test_one_pass_takes_both_extremes(scan):
    problem, resolution = scan
    both = grid_extremes(problem, GridSpec(resolution))
    got = [(r.lengths, r.per_shape_areas, r.total_area) for r in both]
    expected = [reference_scan(problem, resolution, want_max) for want_max in (False, True)]
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("shapes, extremes", [
    # Mirror samples tie exactly across blocks.
    ((5, 5), [(2.0, 2.0), (0.0, 4.0)]),
    # The maximum is the last sample, alone in the last block.
    ((4, 3), [None, (4.0, 0.0)]),
])
def test_two_shape_blocks_keep_the_first_extremes(shapes, extremes):
    problem = PartitionProblem(4.0, shapes)
    resolution = 2 * oracle._BLOCK
    both = grid_extremes(problem, GridSpec(resolution))
    for result, lengths in zip(both, extremes):
        assert lengths is None or result.lengths == lengths
    got = [(r.lengths, r.per_shape_areas, r.total_area) for r in both]
    assert got == [reference_scan(problem, resolution, want_max) for want_max in (False, True)]


@pytest.mark.parametrize("shapes, resolution", [
    ((4, 3), 500),
    ((3, 6, "circle"), 60),
    ((5, 5, 5), 30),
    ((3, 4, 6, 8, 12, "circle"), 12),
])
def test_scan_calls_area_once_per_shape_and_step(monkeypatch, shapes, resolution):
    calls = []

    def counted(shape, perimeter):
        calls.append(shape)
        return area(shape, perimeter)

    monkeypatch.setattr(oracle, "area", counted)
    problem = PartitionProblem(9.0, shapes)
    grid_extremes(problem, GridSpec(resolution))
    assert 0 < len(calls) <= len(shapes) * (resolution + 1)
    assert set(calls) == {parse_shape(s) for s in shapes}


@pytest.mark.parametrize("shapes, resolution", [
    ((4, 3), 500),
    ((4, 3), 2500),
    ((3, 6, "circle"), 60),
    ((5, 5, 5), 30),
    ((3, 4, 6, 8, 12, "circle"), 12),
])
def test_one_pass_calls_area_once_per_shape_and_step(monkeypatch, shapes, resolution):
    calls = []

    def counted(shape, perimeter):
        calls.append(shape)
        return area(shape, perimeter)

    monkeypatch.setattr(oracle, "area", counted)
    grid_extremes(PartitionProblem(9.0, shapes), GridSpec(resolution))
    assert 0 < len(calls) <= len(shapes) * (resolution + 1)
    assert set(calls) == {parse_shape(s) for s in shapes}


def test_one_pass_streams_two_shapes():
    problem = PartitionProblem(12.0, (4, 3))
    tracemalloc.start()
    try:
        grid_extremes(problem, GridSpec(200_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_one_pass_raises_where_either_extreme_is_not_finite():
    # At 1.5e154 only some totals overflow: the minimum is finite, the maximum is not.
    for problem in (PartitionProblem(1e200, (3, 4)), PartitionProblem(1e200, (3, 4, 5)),
                    PartitionProblem(1.5e154, (3, 4, 5))):
        with pytest.raises(ValueError, match="lattice totals are not finite"):
            grid_extremes(problem, GridSpec(4))
