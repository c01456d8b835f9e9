"""Library cross-checks: Check records against the brute-force oracle."""

import json
from pathlib import Path

import pytest

from wirecut import AllocationProblem, Check, PartitionProblem, cross_check
from wirecut.cli import _decode

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
