"""Area kernel: golden values, invariants, and input validation."""

import copy
import dataclasses
import math
import pickle
import re
import subprocess
import sys
from decimal import Context, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import (
    CIRCLE,
    PartitionProblem,
    Shape,
    area,
    areas,
    cross_check,
    geometry,
    parse_shape,
    regular,
    sigma,
)

shape_st = st.one_of(st.integers(min_value=3, max_value=2000).map(Shape), st.just(CIRCLE))
perimeter_st = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)


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
    # The apothem, the centre-to-side distance, is half a side over tan(pi/n).
    p = 7.25
    for n in (3, 7, 12):
        apothem = p / (2 * n) / math.tan(math.pi / n)
        assert apothem * p / 2 == pytest.approx(area(Shape(n), p), rel=1e-12)
    assert p / (2 * math.pi) * p / 2 == pytest.approx(area(CIRCLE, p), rel=1e-12)


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
    "bad",
    [-1.0, math.nan, math.inf, "x", True, pytest.param(10**400, id="int-over-float"),
     False, -math.inf, -5e-324, -3],
)
def test_negative_perimeter_rejected(bad):
    message = f"^{re.escape(f'perimeter must be a non-negative finite number, got {bad!r}')}$"
    with pytest.raises(ValueError, match=message):
        area(Shape(4), bad)


# Perimeters area accepts: both zeros, subnormals, ints whose square a float
# holds, and any finite non-negative float (squares past ~1.3e154 overflow
# to inf on either side of the comparison).
accepted_perimeter_st = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.min, 1e154, sys.float_info.max]),
    st.floats(min_value=0.0, max_value=sys.float_info.min, allow_subnormal=True),
    st.integers(min_value=0, max_value=10**150),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)


@given(shape_st, accepted_perimeter_st)
@settings(max_examples=400, deadline=None)
def test_area_is_the_closed_form_bit_for_bit(shape, perimeter):
    weight = math.pi if shape.is_circle else shape.sides * math.tan(math.pi / shape.sides)
    expected = perimeter * perimeter / (4.0 * weight)
    assert area(shape, perimeter).hex() == expected.hex()
    assert sigma(shape).hex() == weight.hex()


def outcome(compute):
    """The bits of each value computed, or the error raised."""
    try:
        return [value.hex() for value in compute()]
    except (ValueError, OverflowError, TypeError) as exc:
        return type(exc), str(exc)


@given(st.lists(st.tuples(shape_st, st.one_of(
    accepted_perimeter_st,
    st.sampled_from([-1.0, math.nan, math.inf, True, "x", -3, 10**200, 10**400]),
)), max_size=6))
@settings(max_examples=400, deadline=None)
def test_areas_is_area_per_piece(pieces):
    """Same bits where area accepts every piece; else the error area raises
    on the first piece it refuses or cannot square."""
    shapes = [shape for shape, _ in pieces]
    perimeters = [perimeter for _, perimeter in pieces]
    expected = outcome(lambda: [area(s, p) for s, p in pieces])
    assert outcome(lambda: areas(shapes, perimeters)) == expected
    assert outcome(lambda: areas(tuple(shapes), tuple(perimeters))) == expected


def test_weight_is_no_dataclass_field():
    shape = Shape(5)
    assert [field.name for field in dataclasses.fields(Shape)] == ["sides"]
    assert dataclasses.asdict(shape) == {"sides": 5}
    assert repr(shape) == "Shape(sides=5)" and repr(CIRCLE) == "Shape(sides=None)"
    assert shape == Shape(5) and shape != Shape(6)
    assert hash(shape) == hash((5,)) and hash(CIRCLE) == hash((None,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        shape.sides = 6


@pytest.mark.parametrize("shape", [Shape(3), Shape(7), Shape(10**6), CIRCLE], ids=str)
def test_weight_survives_copy_pickle_and_replace(shape):
    for twin in (copy.copy(shape), copy.deepcopy(shape), pickle.loads(pickle.dumps(shape))):
        assert twin == shape
        assert sigma(twin) == sigma(shape)
    assert sigma(dataclasses.replace(shape)) == sigma(shape)
    assert sigma(dataclasses.replace(shape, sides=4)) == 4.0 * math.tan(math.pi / 4)
    assert sigma(dataclasses.replace(shape, sides=None)) == math.pi


@pytest.mark.parametrize(
    "shapes, resolution", [((3, 7), 500), ((3, 4, 5), 60), ((4, "circle", 4, 9), 12)]
)
def test_tan_taken_once_per_shape(monkeypatch, shapes, resolution):
    """The weight is computed when a shape is built, not on every area call."""
    calls = []
    tan = math.tan

    def counting_tan(x):
        calls.append(x)
        return tan(x)

    monkeypatch.setattr(math, "tan", counting_tan)
    problem = PartitionProblem(10.0, shapes)
    checks = cross_check(problem, resolution)
    assert all(check.ok for check in checks)
    assert len(calls) <= sum(s != "circle" for s in shapes)


def test_exact_area_matches_radicals_to_55_digits():
    """tan(pi/n) in radicals, which share nothing with the kernel's series."""
    with localcontext(Context(prec=80)):
        root3, root5 = Decimal(3).sqrt(), Decimal(5).sqrt()
        tangents = {3: root3, 4: Decimal(1), 5: (5 - 2 * root5).sqrt(), 6: 1 / root3,
                    8: Decimal(2).sqrt() - 1, 10: (1 - 2 / root5).sqrt(), 12: 2 - root3}
        for n, tangent in tangents.items():
            expected = 1 / (4 * n * tangent)
            value = Decimal(geometry._unit_area_exact(n)) / 2**geometry._BITS
            assert abs(value - expected) <= expected * Decimal("1e-55"), n
            assert float(value) == pytest.approx(area(Shape(n), 1.0), rel=1e-15)


def test_importing_the_cli_loads_no_decimal():
    """Nor does a solve that ranks its band exactly, or a verify that
    enumerates allocations: both take their exact areas as ints."""
    problem = Path(__file__).resolve().parents[1] / "problems" / "allocation_two_wires.json"
    script = (
        "import sys, wirecut.cli; "
        "wirecut.cli.main(['allocate', '--lengths', '1,1.3', '--budget', '20003']); "
        f"wirecut.cli.main(['verify', '--file', {str(problem)!r}]); "
        "print('decimal' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert "9129" in result.stdout and "verification passed" in result.stdout
    assert result.stdout.splitlines()[-1] == "False"
