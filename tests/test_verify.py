"""Library cross-checks: Check records against the brute-force oracle."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import (
    AllocationProblem,
    Check,
    PartitionProblem,
    cross_check,
    shared_perimeter_total,
)
from wirecut.cli import _decode
from wirecut.verify import _shared_totals

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")), ids=lambda path: path.name)
def test_shipped_problem_files_pass(path):
    checks = cross_check(_decode(json.loads(path.read_text())))
    assert checks
    for check in checks:
        assert isinstance(check, Check)
        assert check.ok, check
        assert check.deviation <= check.bound, check


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


@pytest.mark.parametrize("lengths", [(1e-150, 1e-150), (1.0, 1e-170)])
def test_allocation_with_normal_best_total_passes(lengths):
    (check,) = cross_check(AllocationProblem(lengths, 20))
    assert check.ok, check


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
def test_bound_check_totals_match_shared_perimeter_total(sample):
    problem, xs = sample
    expected = [shared_perimeter_total(problem, x).hex() for x in xs]
    assert [total.hex() for total in _shared_totals(problem, xs)] == expected

