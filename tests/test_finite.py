"""Every public result is finite, or the call raises ValueError.

Lengths and thresholds span the whole positive float range, log-uniform
from 1e-300 to the largest float, so totals underflow to zero, overflow,
or overflow only in their sum; shapes run from triangles to 10**7-gons and
the circle.
"""

import dataclasses
import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import (
    AllocationProblem,
    BoundQuery,
    PartitionProblem,
    cross_check,
    face_stationary,
    feasibility_range,
    maximize_partition,
    minimize_partition,
    optimize_allocation,
    paper_face_max,
    shared_perimeter_total,
    solve_equal_perimeter,
    stationarity_residual,
    threshold_roots,
    total_area,
)

MAGNITUDES = st.one_of(
    st.floats(math.log(1e-300), math.log(sys.float_info.max)).map(
        lambda e: min(math.exp(e), sys.float_info.max)),
    st.sampled_from((1e-300, 1.3e154, 5e154, 1e200, sys.float_info.max)),
)
SHAPES = st.lists(st.one_of(st.integers(3, 12), st.integers(3, 10**7), st.just("circle")),
                  min_size=2, max_size=6)


def floats(value):
    """Every float in a result: a float, a record's fields, a tuple's items."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from floats(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from floats(getattr(value, field.name))


@st.composite
def calls(draw):
    """Calls to every public solver on one drawn partition, bound query and
    allocation, each a thunk."""
    shapes = draw(SHAPES)
    problem = PartitionProblem(draw(MAGNITUDES), shapes)
    threshold = draw(MAGNITUDES)
    query = BoundQuery(problem, threshold, draw(st.sampled_from(("lower", "upper"))))
    lengths = draw(st.lists(MAGNITUDES, min_size=2, max_size=6))
    allocation = AllocationProblem(lengths, 3 * len(lengths) + draw(st.integers(0, 40)))
    x = problem.total_length / (len(shapes) - 1) * draw(st.floats(0.0, 1.0))
    excluded = draw(st.integers(0, len(shapes) - 1))
    return [
        lambda: minimize_partition(problem),
        lambda: maximize_partition(problem),
        lambda: face_stationary(problem, excluded),
        lambda: paper_face_max(problem),
        lambda: total_area(shapes, lengths[:1] * len(shapes)),
        lambda: feasibility_range(problem),
        lambda: feasibility_range(problem, threshold),
        lambda: threshold_roots(problem, threshold),
        lambda: solve_equal_perimeter(query),
        lambda: shared_perimeter_total(problem, x),
        lambda: cross_check(query),
        lambda: optimize_allocation(allocation),
        lambda: total_area(optimize_allocation(allocation).sides, lengths),
        lambda: stationarity_residual(lengths, [3] * len(lengths)),
    ]


@given(calls())
@settings(max_examples=200, deadline=None)
def test_every_public_result_is_finite_or_raises_value_error(thunks):
    for call in thunks:
        try:
            result = call()
        except ValueError:
            continue
        assert all(map(math.isfinite, floats(result))), result
