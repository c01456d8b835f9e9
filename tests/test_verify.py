"""Library cross-checks: Check records against the brute-force oracle."""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import (
    AllocationProblem,
    BoundQuery,
    Check,
    PartitionProblem,
    cross_check,
    maximize_partition,
    minimize_partition,
    optimize_allocation,
    solve_equal_perimeter,
    total_area,
)
from wirecut import verify
from wirecut.bounds import _line_totals
from wirecut.cli import _decode, main
from wirecut.verify import _membership

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda path: path.name)
def test_shipped_problem_files_pass(path):
    checks = cross_check(_decode(json.loads(path.read_text())))
    assert checks
    for check in checks:
        assert isinstance(check, Check)
        assert check.ok, check
        assert check.deviation <= check.bound, check


def test_membership_label_counts_its_samples():
    query = _decode(json.loads((PROBLEMS / "bounds_three_shapes.json").read_text()))
    names = [check.check for check in cross_check(query)]
    assert names[0] == "interval membership (199 samples)"


def _wrong_min(problem):
    result = minimize_partition(problem)
    return replace(result, total_area=result.total_area * 1.01)


def _wrong_max(problem):
    result = maximize_partition(problem)
    return replace(result, total_area=result.total_area * 0.9)


def _wrong_intervals(query):
    return replace(solve_equal_perimeter(query), intervals=((0.5, 4.0),))


def _wrong_sides(problem):
    return replace(optimize_allocation(problem), sides=(3, 6))


@pytest.mark.parametrize("name, solver, wrong, oks", [
    ("partition_square_triangle.json", "minimize_partition", _wrong_min, [False, True]),
    ("partition_square_triangle.json", "maximize_partition", _wrong_max, [True, False]),
    ("bounds_three_shapes.json", "solve_equal_perimeter", _wrong_intervals, [False, False]),
    ("allocation_two_wires.json", "optimize_allocation", _wrong_sides, [False]),
], ids=["minimum", "maximum", "bounds", "allocation"])
def test_wrong_solver_fails_its_check(capsys, monkeypatch, name, solver, wrong, oks):
    """A solver that answers wrong fails exactly the checks that compare its
    answer, and `wirecut verify` then reports the failure and exits 1."""
    path = PROBLEMS / name
    monkeypatch.setattr(verify, solver, wrong)
    checks = cross_check(_decode(json.loads(path.read_text())))
    assert [check.ok for check in checks] == oks, checks
    assert main(["verify", "--file", str(path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verification FAILED"
    assert main(["verify", "--file", str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert [check["ok"] for check in payload["checks"]] == oks


@pytest.mark.parametrize("shapes", [(4, 3), (3, 4, 6)])
def test_minimum_above_the_true_one_fails_its_check(monkeypatch, shapes):
    """A closed-form minimum 1e-4 above the true one lies below no lattice
    sample by more than the check's slack of 1e-9 of the total, so the
    minimum check fails while the maximum check still passes."""

    def high_min(problem):
        result = minimize_partition(problem)
        return replace(result, total_area=result.total_area * (1 + 1e-4))

    monkeypatch.setattr(verify, "minimize_partition", high_min)
    checks = cross_check(PartitionProblem(12.0, shapes))
    assert [check.ok for check in checks] == [False, True], checks


def test_cross_check_rejects_other_types():
    with pytest.raises(TypeError, match="cannot cross-check a int"):
        cross_check(42)


@pytest.mark.parametrize("name", ["bounds_three_shapes.json", "allocation_two_wires.json"])
def test_resolution_rejected_for_non_partition_problems(name):
    problem = _decode(json.loads((PROBLEMS / name).read_text()))
    with pytest.raises(ValueError, match="resolution"):
        cross_check(problem, resolution=3)


@pytest.mark.parametrize("length", [1e-200, 1e-160, 1e-150])
def test_underflowing_partition_raises(length):
    """Every area rounds to zero or below the normal range, so the checks
    would compare zeros and pass whatever the solvers returned. At 1e-150
    only the maximum check's bound, 1e-9 * total, is subnormal."""
    problem = PartitionProblem(length, (3, 4, 5))
    with pytest.raises(ValueError, match="areas underflow: lengths below the float range"):
        cross_check(problem)


def test_underflowing_allocation_raises():
    """Every float total is 0.0, so the optimizer and the enumeration would
    disagree on rounding noise alone."""
    with pytest.raises(ValueError, match="areas underflow: lengths below the float range"):
        cross_check(AllocationProblem((1e-170, 1e-170), 20))


@pytest.mark.parametrize("sense", ["lower", "upper"])
@pytest.mark.parametrize("length, threshold, raises", [(1e-160, 4.5e-322, True),
                                                       (1e-150, 4.5e-302, False)])
def test_underflowing_bound_query_raises(length, threshold, raises, sense):
    """At L = 1e-160 the threshold band is [2.7e-322, 6.3e-322]: the sampled
    totals are subnormal and hold a digit or two, too few to compare with
    the threshold. At L = 1e-150 the smallest total is 2.7e-302, a normal
    float."""
    query = BoundQuery(PartitionProblem(length, (3, 4)), threshold, sense)
    if raises:
        with pytest.raises(ValueError, match="areas underflow: lengths below the float range"):
            cross_check(query)
    else:
        assert all(check.ok for check in cross_check(query))


@pytest.mark.parametrize("lengths", [(1e-150, 1e-150), (1.0, 1e-170)])
def test_allocation_with_normal_best_total_passes(lengths):
    (check,) = cross_check(AllocationProblem(lengths, 20))
    assert check.ok, check


@pytest.mark.parametrize("length, shapes, threshold, sense", [
    (2e154, (4, 3), 3e307, "lower"),
    (2e154, (4, 3), 3e307, "upper"),
    (1e160, (3, 4), 1e308, "lower"),
    (1e160, (3, 4), 1e308, "upper"),
    (1.7e154, (3, 4, 6), 1e307, "lower"),
])
def test_overflowing_bound_query_raises(length, shapes, threshold, sense):
    """At L = 2e154 every total along the line is at most 2.5e307, but the
    last piece's perimeter squared overflows near x = 0, so the intervals
    would fail on infinite totals; at 1e160 every sampled total is inf and
    at 1.7e154 with three shapes some are, where the check would pass
    whatever the intervals were. The sampled totals refuse them."""
    query = BoundQuery(PartitionProblem(length, shapes), threshold, sense)
    with pytest.raises(ValueError, match="total area overflows a float"):
        cross_check(query)


def test_overflowing_partition_raises_before_the_scan(monkeypatch):
    """At L = 1e200 the extrema's totals overflow, so the partition is
    refused without scanning the lattice."""

    def scan(problem, grid):
        raise AssertionError("the lattice was scanned")

    monkeypatch.setattr(verify, "grid_extremes", scan)
    with pytest.raises(ValueError, match="total area overflows a float"):
        cross_check(PartitionProblem(1e200, (3, 4)))


@st.composite
def bound_samples(draw):
    """A partition of 2..6 shapes and points across its shared-perimeter
    domain, short of the far end as the bounds check's samples and edges are."""
    shapes = draw(st.lists(st.sampled_from([3, 4, 5, 6, 12, 10**6, "circle"]), min_size=2, max_size=6))
    length = draw(st.floats(-150.0, 150.0).map(lambda e: 10.0**e))
    problem = PartitionProblem(length, shapes)
    domain_hi = length / (len(shapes) - 1)
    fractions = st.floats(1e-9, 1.0 - 1e-6)
    return problem, [domain_hi * f for f in draw(st.lists(fractions, min_size=1, max_size=20))]


@given(bound_samples())
@settings(max_examples=200, deadline=None)
def test_bound_check_totals_match_total_area(sample):
    problem, xs = sample
    k = len(problem.shapes) - 1
    length = problem.total_length
    expected = [total_area(problem.shapes, [x] * k + [length - k * x]).hex() for x in xs]
    assert [total.hex() for total in _line_totals(problem, xs)] == expected



def random_intervals(rng, guard):
    """Disjoint ascending intervals in (0, 10): some touch the one before,
    some are narrower than the guard."""
    intervals = []
    end = rng.uniform(0.0, 1.0)
    for _ in range(rng.randint(0, 6)):
        lo = end if rng.random() < 0.3 else end + rng.uniform(0.0, 2.0)
        width = rng.choice([rng.uniform(0.0, guard), rng.uniform(0.0, 2.0)])
        intervals.append((lo, lo + width))
        end = lo + width
    return tuple(intervals)


def test_membership_bisection_matches_any_all_reference():
    """Bisection classifies every sample as the per-sample any/all scan over
    the intervals does, so the bounds check counts the same violations."""
    rng = random.Random(11)
    for _ in range(3000):
        guard = rng.choice([0.0, 1e-6, 0.05, 0.4])
        intervals = random_intervals(rng, guard)
        # Uniform samples plus every interval end and its guard band's edges.
        edges = [e + s for lo, hi in intervals for e in (lo, hi) for s in (-guard, 0.0, guard)]
        xs = sorted([rng.uniform(0.0, 14.0) for _ in range(rng.randint(0, 40))] + edges)
        expected = [
            (any(lo + guard < x < hi - guard for lo, hi in intervals),
             all(x < lo - guard or x > hi + guard for lo, hi in intervals))
            for x in xs
        ]
        got = list(_membership(xs, intervals, guard))
        assert got == expected, (intervals, guard)
        satisfied = [rng.random() < 0.5 for _ in xs]

        def violations(classes):
            return sum(inside and not ok or clear and ok for (inside, clear), ok in zip(classes, satisfied))

        assert violations(got) == violations(expected)
