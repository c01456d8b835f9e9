"""Partition extrema: closed forms, boundary diagnostics, and convexity."""

import math
import random
import re
import sys
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wirecut.extrema

from wirecut import (
    CIRCLE,
    FACE_STATIONARY,
    INTERIOR_MINIMUM,
    VERTEX_MAXIMUM,
    PartitionProblem,
    Shape,
    area,
    face_stationary,
    maximize_partition,
    minimize_partition,
    paper_face_max,
    sigma,
    total_area,
)

SHAPE_POOL = list(range(3, 13)) + ["circle"]


def random_problem(rng, min_shapes=2, max_shapes=6):
    count = rng.randint(min_shapes, max_shapes)
    shapes = tuple(rng.choice(SHAPE_POOL) for _ in range(count))
    return PartitionProblem(rng.uniform(1.0, 100.0), shapes)


def random_simplex_point(rng, total, parts):
    gaps = [-math.log(rng.random()) for _ in range(parts)]
    norm = sum(gaps)
    return [total * g / norm for g in gaps]


def test_minimize_square_triangle():
    result = minimize_partition(PartitionProblem(12, (4, 3)))
    assert result.kind == INTERIOR_MINIMUM
    assert result.lengths[0] == pytest.approx(48 / (4 + 3 * math.sqrt(3)), rel=1e-12)
    assert result.lengths == pytest.approx((5.220, 6.780), abs=2e-3)
    assert result.per_shape_areas == pytest.approx((1.703, 2.212), abs=2e-3)
    assert result.total_area == pytest.approx(3.915, abs=2e-3)


def test_minimize_hexagon_square_closed_form():
    result = minimize_partition(PartitionProblem(1.0, (6, 4)))
    assert result.lengths[0] == pytest.approx(2 * math.sqrt(3) - 3, rel=1e-9)
    assert result.total_area == pytest.approx((2 - math.sqrt(3)) / 8, rel=1e-9)


def test_minimize_six_shapes():
    result = minimize_partition(PartitionProblem(20, (3, 4, 6, 8, 12, "circle")))
    assert result.lengths == pytest.approx(
        (4.654, 3.582, 3.103, 2.968, 2.880, 2.814), abs=2e-3
    )
    assert result.total_area == pytest.approx(4.478, abs=2e-3)


def test_minimize_identical_shapes_splits_evenly():
    result = minimize_partition(PartitionProblem(9, (5, 5, 5)))
    assert result.lengths == pytest.approx((3.0, 3.0, 3.0), rel=1e-12)


def test_maximize_square_triangle():
    result = maximize_partition(PartitionProblem(12, (4, 3)))
    assert result.kind == VERTEX_MAXIMUM
    assert result.lengths == (12.0, 0.0)
    assert result.total_area == pytest.approx(9.0, rel=1e-12)


def test_maximize_prefers_circle():
    result = maximize_partition(PartitionProblem(10, (4, 3, CIRCLE)))
    assert result.lengths == (0.0, 0.0, 10.0)
    assert result.total_area == pytest.approx(100 / (4 * math.pi), rel=1e-12)


def test_maximize_tie_goes_to_lowest_index():
    result = maximize_partition(PartitionProblem(1.0, (5, 5)))
    assert result.lengths == (1.0, 0.0)
    assert result.total_area == pytest.approx(math.sqrt(5 * (5 + 2 * math.sqrt(5))) / 100, rel=1e-9)


def test_face_stationary_three_shapes():
    problem = PartitionProblem(10, (4, 3, CIRCLE))
    result = face_stationary(problem, 1)
    assert result.kind == FACE_STATIONARY
    assert result.excluded_index == 1
    assert result.lengths == pytest.approx((5.601, 0.0, 4.399), abs=2e-3)
    assert result.total_area == pytest.approx(25 / (math.pi + 4), rel=1e-9)


def test_face_stationary_identical_shapes():
    result = face_stationary(PartitionProblem(12, (7, 7, 7, 7)), 2)
    assert result.lengths == pytest.approx((4.0, 4.0, 0.0, 4.0), rel=1e-12)


def test_face_stationary_two_shapes_is_vertex():
    result = face_stationary(PartitionProblem(5.0, (4, 3)), 0)
    assert result.lengths == (0.0, 5.0)
    assert result.excluded_index == 0


def test_face_stationary_rejects_bad_index():
    problem = PartitionProblem(10, (4, 3, CIRCLE))
    for bad in (-1, 3, 1.0, "1", None, 10**400):
        with pytest.raises(ValueError):
            face_stationary(problem, bad)


def test_paper_face_max_six_shapes():
    result = paper_face_max(PartitionProblem(20, (3, 4, 6, 8, 12, "circle")))
    assert result.excluded_index == 0
    assert result.total_area == pytest.approx(5.836, abs=2e-3)
    assert result.lengths == pytest.approx(
        (0.0, 4.669, 4.043, 3.868, 3.753, 3.667), abs=2e-3
    )


def test_paper_face_max_three_shapes():
    result = paper_face_max(PartitionProblem(10, (4, 3, CIRCLE)))
    assert result.excluded_index == 1
    assert result.total_area == pytest.approx(3.5007, abs=2e-3)


def test_paper_face_max_two_shapes_matches_better_endpoint():
    problem = PartitionProblem(7.0, (6, 4))
    face = paper_face_max(problem)
    vertex = maximize_partition(problem)
    assert face.total_area == pytest.approx(vertex.total_area, rel=1e-12)


def test_paper_face_max_below_vertex_max():
    rng = random.Random(20260815)
    for _ in range(50):
        problem = random_problem(rng)
        assert paper_face_max(problem).total_area <= maximize_partition(
            problem
        ).total_area * (1 + 1e-12)


def reference_face_max(problem):
    """The scan paper_face_max replaces: score all k faces, keep the first largest."""
    faces = (face_stationary(problem, b) for b in range(len(problem.shapes)))
    return max(faces, key=attrgetter("total_area"))


# Rich in duplicates, in large polygons whose weights tie pi within an ulp
# or two, and in the circle itself.
FACE_POOL = [3, 3, 4, 4, 5, 6, 12, 10**6, 10**6 + 1, 10**7, "circle", "circle"]


@st.composite
def face_problems(draw):
    shapes = draw(st.lists(st.sampled_from(FACE_POOL), min_size=2, max_size=12))
    length = 10.0 ** draw(st.floats(-150.0, 150.0))
    return PartitionProblem(length, tuple(shapes))


def count_rule_face(shapes):
    """The face the side counts pick: the first smallest count, or piece 0
    where every shape is a circle."""
    return min(range(len(shapes)), key=lambda i: (shapes[i].is_circle, shapes[i].sides or 0))


@given(face_problems())
@settings(max_examples=400, deadline=None)
def test_paper_face_max_matches_full_face_scan(problem):
    """The count rule's face, solved once; its total is within rounding of
    the best float total over all k faces. A float total is a sum of k
    weights, a scale, k products, k areas and a sum of k areas, each weight
    a few ulps from its exact value."""
    chosen = paper_face_max(problem)
    pinned = count_rule_face(problem.shapes)
    assert repr(chosen) == repr(face_stationary(problem, pinned))
    best = reference_face_max(problem).total_area
    tol = (4 * len(problem.shapes) + 8) * 2.0**-52
    assert chosen.total_area >= best - tol * best


@pytest.mark.parametrize("shapes", [(3, 4, 6, "circle"), (5, 3, 3, 4), (10**6, 10**6 + 1, 10**7)])
def test_paper_face_max_solves_one_face(monkeypatch, shapes):
    calls = []

    def counting(problem, excluded_index):
        calls.append(excluded_index)
        return face_stationary(problem, excluded_index)

    monkeypatch.setattr(wirecut.extrema, "face_stationary", counting)
    problem = PartitionProblem(10.0, shapes)
    assert paper_face_max(problem) == face_stationary(problem, count_rule_face(problem.shapes))
    assert len(calls) == 1


@pytest.mark.parametrize("length", [1e-200, 1.0, 1e150])
def test_paper_face_max_pins_heaviest_shape_at_any_scale(length):
    """At 1e-200 every face total is 0.0 and at 1e150 about 3.5e298, yet the
    face stays the one the side counts pick at every scale a float total holds."""
    assert paper_face_max(PartitionProblem(length, (4, "circle", 3))).excluded_index == 2


@pytest.mark.parametrize("shapes, winner", [((5828600, 5828599), 0), ((10**9, "circle"), 1)])
def test_maximize_decides_the_vertex_by_side_count(shapes, winner):
    """Float sigma puts the 5,828,599-gon below the 5,828,600-gon, and rounds
    the 10**9-gon's to pi; the side counts still pick the larger count and
    the circle."""
    problem = PartitionProblem(1, shapes)
    result = maximize_partition(problem)
    lengths = [0.0, 0.0]
    lengths[winner] = 1.0
    assert result.lengths == tuple(lengths)
    assert result.total_area == area(problem.shapes[winner], 1.0)


def count_rule_vertex(shapes):
    """The vertex the side counts pick: the first circle, else the first
    largest count."""
    return min(range(len(shapes)), key=lambda i: (not shapes[i].is_circle, -(shapes[i].sides or 0)))


@st.composite
def vertex_problems(draw):
    pool = st.one_of(st.sampled_from(FACE_POOL + [5828599, 5828600, 10**9]), st.integers(3, 10**9))
    shapes = draw(st.lists(pool, min_size=2, max_size=10))
    return PartitionProblem(10.0 ** draw(st.floats(-200.0, 200.0)), tuple(shapes))


@given(vertex_problems())
@settings(max_examples=400, deadline=None)
def test_maximize_takes_the_count_rule_vertex_with_the_bits_of_split(problem):
    vertex = [0.0] * len(problem.shapes)
    vertex[count_rule_vertex(problem.shapes)] = 1.0
    try:
        expected = wirecut.extrema._split(VERTEX_MAXIMUM, problem, vertex)
    except ValueError as error:
        with pytest.raises(ValueError, match=re.escape(str(error))):
            maximize_partition(problem)
    else:
        assert repr(maximize_partition(problem)) == repr(expected)


def test_lengths_sum_and_area_consistency():
    rng = random.Random(1)
    for _ in range(50):
        problem = random_problem(rng)
        for result in (minimize_partition(problem), maximize_partition(problem)):
            assert sum(result.lengths) == pytest.approx(problem.total_length, rel=1e-12)
            assert sum(result.per_shape_areas) == pytest.approx(result.total_area, rel=1e-12)


@st.composite
def split_problems(draw):
    sides = st.one_of(st.integers(3, 10**7), st.just("circle"))
    shapes = draw(st.lists(sides, min_size=2, max_size=8))
    return PartitionProblem(draw(st.floats(1e-150, 1e150)), tuple(shapes))


@given(split_problems(), st.data())
@settings(max_examples=300, deadline=None)
def test_split_areas_are_area_bit_for_bit(problem, data):
    """The solvers take their pieces' areas from geometry.areas in one call;
    each must be area's own bits."""
    excluded = data.draw(st.integers(0, len(problem.shapes) - 1))
    for result in (
        minimize_partition(problem),
        maximize_partition(problem),
        face_stationary(problem, excluded),
        paper_face_max(problem),
    ):
        expected = [area(s, x).hex() for s, x in zip(problem.shapes, result.lengths)]
        assert [a.hex() for a in result.per_shape_areas] == expected
        assert result.total_area.hex() == math.fsum(result.per_shape_areas).hex()
        assert result.total_area.hex() == total_area(problem.shapes, result.lengths).hex()


def test_piece_past_the_largest_float_is_refused_as_area_refuses_it():
    """At L = the largest float, the 11-gon's face piece sigma * (L / sigma)
    rounds up to inf, which area refuses; other pieces stay finite and only
    their areas overflow, which the total refuses."""
    problem = PartitionProblem(sys.float_info.max, (3, 11))
    message = "perimeter must be a non-negative finite number, got inf"
    for solve in (lambda p: face_stationary(p, 0), paper_face_max):
        with pytest.raises(ValueError, match=message):
            solve(problem)
    for solve in (minimize_partition, maximize_partition):
        with pytest.raises(ValueError, match="total area overflows a float"):
            solve(problem)


def test_minimum_total_closed_form_identity():
    rng = random.Random(2)
    for _ in range(50):
        problem = random_problem(rng)
        expected = problem.total_length ** 2 / (4 * sum(sigma(s) for s in problem.shapes))
        direct = total_area(problem.shapes, minimize_partition(problem).lengths)
        assert direct == pytest.approx(expected, rel=1e-12)


def test_scale_equivariance():
    rng = random.Random(3)
    for _ in range(25):
        problem = random_problem(rng)
        factor = rng.uniform(0.1, 10.0)
        scaled = PartitionProblem(factor * problem.total_length, problem.shapes)
        base = minimize_partition(problem)
        big = minimize_partition(scaled)
        for a, b in zip(big.lengths, base.lengths):
            assert a == pytest.approx(factor * b, rel=1e-12)
        assert big.total_area == pytest.approx(factor * factor * base.total_area, rel=1e-12)


def test_gradient_vanishes_at_minimizer():
    rng = random.Random(4)
    for _ in range(25):
        problem = random_problem(rng)
        lengths = list(minimize_partition(problem).lengths)
        scale = problem.total_length
        step = 1e-6 * scale
        grad_scale = minimize_partition(problem).total_area / scale
        # move along sum-preserving directions e_i - e_j
        for i in range(len(lengths) - 1):
            j = i + 1
            plus = list(lengths)
            minus = list(lengths)
            plus[i] += step
            plus[j] -= step
            minus[i] -= step
            minus[j] += step
            grad = (total_area(problem.shapes, plus) - total_area(problem.shapes, minus)) / (
                2 * step
            )
            assert abs(grad) <= 1e-8 * max(grad_scale, 1e-30)


def test_midpoint_convexity():
    rng = random.Random(5)
    for _ in range(50):
        problem = random_problem(rng)
        parts = len(problem.shapes)
        p = random_simplex_point(rng, problem.total_length, parts)
        q = random_simplex_point(rng, problem.total_length, parts)
        mid = [(a + b) / 2 for a, b in zip(p, q)]
        lhs = total_area(problem.shapes, mid)
        rhs = (total_area(problem.shapes, p) + total_area(problem.shapes, q)) / 2
        assert lhs <= rhs * (1 + 1e-12)
        if max(abs(a - b) for a, b in zip(p, q)) > 1e-6 * problem.total_length:
            assert lhs < rhs


def test_problem_validation():
    with pytest.raises(ValueError):
        PartitionProblem(0.0, (4, 3))
    with pytest.raises(ValueError):
        PartitionProblem(-2.0, (4, 3))
    with pytest.raises(ValueError):
        PartitionProblem(math.nan, (4, 3))
    with pytest.raises(ValueError):
        PartitionProblem(5.0, (4,))
    with pytest.raises(ValueError):
        PartitionProblem(5.0, (4, 2))
    for bad in (True, False, "12", 10**400):
        with pytest.raises(ValueError):
            PartitionProblem(bad, (3, 4))
    for bad in ("43", b"43", bytearray(b"43"), {4, 3}, frozenset({4, "circle"}), {4: "a", 3: "b"}):
        with pytest.raises(ValueError, match="shapes must be a sequence of shapes"):
            PartitionProblem(12.0, bad)
    for good in ([4, 3], (4, 3), range(4, 2, -1), (n for n in (4, 3))):
        assert PartitionProblem(12.0, good).shapes == (Shape(4), Shape(3))


def test_total_area_requires_matching_lengths():
    with pytest.raises(ValueError):
        total_area((Shape(4), Shape(3)), (1.0,))


def test_total_area_reads_shapes_and_lengths_as_sequences():
    """Shapes are read as PartitionProblem reads them; a str, bytes, set,
    frozenset or dict is refused as shapes or as lengths."""
    lengths = (1.0, 2.0, 3.0)
    assert total_area((4, 3, "circle"), lengths) == total_area((Shape(4), Shape(3), CIRCLE), lengths)
    assert total_area([4, 3], [1.0, 2.0]) == total_area((Shape(4), Shape(3)), (1.0, 2.0))
    for bad in ("43", b"43", {4, 3}, frozenset({4, 3}), {4: 1.0, 3: 2.0}):
        with pytest.raises(ValueError, match="shapes must be a sequence of shapes"):
            total_area(bad, (1.0, 2.0))
    for bad in ("12", b"12", {1.0, 2.0}, frozenset({1.0, 2.0}), {1.0: 0, 2.0: 0}):
        with pytest.raises(ValueError, match="lengths must be a sequence of numbers"):
            total_area((4, 3), bad)
