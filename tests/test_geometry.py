"""Area kernel: golden values, invariants, and input validation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import CIRCLE, Shape, apothem, area, half_angle, parse_shape, regular, sigma

shape_st = st.one_of(st.integers(min_value=3, max_value=2000).map(Shape), st.just(CIRCLE))
perimeter_st = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


def test_half_angle_goldens():
    assert half_angle(Shape(6)) == pytest.approx(math.pi / 3, rel=1e-15)
    assert half_angle(Shape(4)) == pytest.approx(math.pi / 4, rel=1e-15)
    assert half_angle(CIRCLE) == math.pi / 2


def test_half_angle_range():
    for n in range(3, 500):
        assert math.pi / 6 <= half_angle(Shape(n)) < math.pi / 2


def test_apothem_goldens():
    assert apothem(Shape(4), 12) == pytest.approx(1.5, rel=1e-12)
    assert apothem(Shape(6), 12) == pytest.approx(math.sqrt(3), rel=1e-12)
    assert apothem(CIRCLE, 2 * math.pi) == pytest.approx(1.0, rel=1e-12)


def test_area_goldens():
    assert area(Shape(4), 12) == pytest.approx(9.0, rel=1e-12)
    assert area(Shape(3), 12) == pytest.approx(4 * math.sqrt(3), rel=1e-12)
    assert area(CIRCLE, 10) == pytest.approx(100 / (4 * math.pi), rel=1e-12)
    assert area(Shape(4), 0.0) == 0.0


def test_sigma_goldens():
    assert sigma(Shape(4)) == pytest.approx(4.0, rel=1e-12)
    assert sigma(Shape(3)) == pytest.approx(3 * math.sqrt(3), rel=1e-12)
    assert sigma(CIRCLE) == math.pi


def test_sigma_circle_is_large_n_limit():
    assert sigma(Shape(10**6)) == pytest.approx(math.pi, rel=1e-5)
    # convergence is quadratic in 1/n
    gap_small = sigma(Shape(1000)) - math.pi
    gap_big = sigma(Shape(2000)) - math.pi
    assert gap_small > gap_big > 0
    assert gap_small / gap_big == pytest.approx(4.0, rel=1e-3)


@given(shape_st, perimeter_st)
@settings(max_examples=200, deadline=None)
def test_area_sigma_identity(shape, perimeter):
    assert area(shape, perimeter) * sigma(shape) == pytest.approx(
        perimeter * perimeter / 4.0, rel=1e-12
    )


@given(shape_st, perimeter_st, st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200, deadline=None)
def test_quadratic_scaling(shape, perimeter, factor):
    assert area(shape, factor * perimeter) == pytest.approx(
        factor * factor * area(shape, perimeter), rel=1e-12
    )


@given(shape_st, perimeter_st)
@settings(max_examples=200, deadline=None)
def test_ceiling_and_floor(shape, perimeter):
    ceiling = perimeter * perimeter / (4 * math.pi)
    floor = perimeter * perimeter / (12 * math.sqrt(3))
    value = area(shape, perimeter)
    assert value <= ceiling * (1 + 1e-12)
    assert value >= floor * (1 - 1e-12)


def test_apothem_times_half_perimeter_is_area():
    for shape in (Shape(3), Shape(7), Shape(12), CIRCLE):
        p = 7.25
        assert apothem(shape, p) * p / 2 == pytest.approx(area(shape, p), rel=1e-12)


def test_monotonic_in_sides_dense_prefix():
    prev = area(Shape(3), 1.0)
    for n in range(4, 5001):
        nxt = area(Shape(n), 1.0)
        assert nxt > prev
        prev = nxt


def test_parse_shape():
    assert parse_shape("circle") == CIRCLE
    assert parse_shape(" CIRCLE ") == CIRCLE
    assert parse_shape(5) == Shape(5)
    assert parse_shape("12") == Shape(12)
    assert parse_shape(6.0) == Shape(6)
    assert parse_shape(Shape(9)) == Shape(9)
    assert regular(4) == Shape(4)


def test_shape_str():
    assert str(Shape(7)) == "7"
    assert str(CIRCLE) == "circle"
    assert CIRCLE.is_circle and not Shape(3).is_circle


@pytest.mark.parametrize("bad", [2, 0, -1, 4.5, "hexagon", True, None])
def test_parse_shape_rejects(bad):
    with pytest.raises(ValueError):
        parse_shape(bad)


@pytest.mark.parametrize("bad", [2, 1, -3, 2.5, pytest.param(10**400, id="int-over-float")])
def test_shape_rejects_small_or_fractional(bad):
    with pytest.raises(ValueError):
        Shape(bad)


@pytest.mark.parametrize(
    "bad", [-1.0, math.nan, math.inf, "x", True, pytest.param(10**400, id="int-over-float")]
)
def test_negative_perimeter_rejected(bad):
    with pytest.raises(ValueError):
        area(Shape(4), bad)
    with pytest.raises(ValueError):
        apothem(Shape(4), bad)
