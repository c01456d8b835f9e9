"""Area kernels for regular polygons and their circle limit.

Everything reduces to one weight per shape, ``sigma = n * tan(pi/n)``:
a shape of perimeter P encloses area P**2 / (4 * sigma), so a small sigma
marks an efficient encloser. The circle is a distinct variant rather than a
huge-n polygon, which keeps its limiting values (sigma = pi, area =
P**2 / (4*pi)) exact instead of suffering cancellation in tan near pi/2.

Each Shape computes its weight once, when it is built, and keeps it in an
attribute that is not one of its fields, so ``sigma`` is a lookup while
equality, hashing and repr see only the side count; copies and pickles carry
the weight along, and ``dataclasses.replace`` computes it afresh. Every
record of the package, problem or result, derives from ``_Record``, defined
here as the lowest module.

``areas`` is ``area`` over a list of pieces in one call: where every
perimeter is a finite non-negative float, which ``area`` would accept, it
evaluates the same expression in one list pass, and otherwise it calls
``area`` on each piece in turn, so it returns the same bits and raises the
same errors. The closed-form solvers take their pieces' areas from it.

``_total_area`` is the one rule for every total area: the correctly
rounded sum of the pieces (math.fsum; Shewchuk 1997), finite or ValueError.

``_unit_area_exact`` gives the area of a unit-perimeter n-gon times
2**_BITS as a plain int, from a fixed-point series (Brent 1976). The
allocation optimizer rounds its float gains from these ints and ranks near
ties on them exactly, as does the oracle, each wire's areas weighed by the
square of its length scaled to an integer (``_integer_lengths``).
"""

import math
from dataclasses import FrozenInstanceError, dataclass, fields

__all__ = [
    "Shape",
    "CIRCLE",
    "regular",
    "parse_shape",
    "area",
    "areas",
    "sigma",
]


class _Record:
    """Base of the package's records: a subclass declares its fields as
    annotations and fills them in its own ``__init__``.

    A problem sets each field with ``object.__setattr__``, which keeps the
    values inside the instance. Reading ``__dict__`` would give each instance
    a dict of its own, which on CPython 3.11 doubles its memory and slows the
    reads the solvers make on every call. A result, built once per solve and
    rarely read, fills its ``__dict__`` in one ``update``, which builds faster.

    The subclass becomes a dataclass that generates no method, so
    ``dataclasses.fields``, ``replace`` and ``asdict`` see its fields, and this
    base supplies what ``frozen=True`` would generate: equality of the field
    tuples between records of one class, the hash of that tuple, the repr
    ``Name(field=value, ...)``, and ``FrozenInstanceError`` on any assignment
    or deletion. Copy and pickle restore ``__dict__`` directly, as they do for
    a frozen dataclass.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(cls, init=False, repr=False, eq=False)
        cls._field_names = tuple(field.name for field in fields(cls))

    def _values(self):
        return tuple([getattr(self, name) for name in self._field_names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in self._field_names]) + ")"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Shape(_Record):
    """A regular polygon with ``sides >= 3``, or the circle limit (``sides=None``)."""

    sides: int | None

    def __init__(self, sides):
        if sides is not None:
            _check_count(sides, "side count")
            if sides < 3:
                raise ValueError(f"a polygon needs at least 3 sides, got {sides}")
        object.__setattr__(self, "sides", sides)
        # n * tan(pi/n) is n / tan of the half interior angle, well-conditioned for large n.
        weight = math.pi if sides is None else sides * math.tan(math.pi / sides)
        object.__setattr__(self, "_sigma", weight)

    @property
    def is_circle(self) -> bool:
        return self.sides is None

    def __str__(self) -> str:
        return "circle" if self.sides is None else str(self.sides)


CIRCLE = Shape(None)


def regular(sides: int) -> Shape:
    """Regular polygon with the given number of sides."""
    return Shape(sides)


def parse_shape(token: "int | float | str | Shape") -> Shape:
    """Parse the problem-file encoding: an integer >= 3 or the literal ``"circle"``."""
    if isinstance(token, Shape):
        return token
    if isinstance(token, str):
        text = token.strip().lower()
        if text == "circle":
            return CIRCLE
        try:
            sides = int(text)
        except ValueError:
            raise ValueError(
                f"shape must be an integer side count or 'circle', got {token!r}"
            ) from None
        return Shape(sides)
    if isinstance(token, int):
        return Shape(token)
    if isinstance(token, float) and token.is_integer():
        return Shape(int(token))
    raise ValueError(f"shape must be an integer side count or 'circle', got {token!r}")


def sigma(shape: Shape) -> float:
    """The weight n / tan of the half interior angle, evaluated as
    ``n * tan(pi/n)`` when the shape was built; pi for the circle."""
    return shape._sigma


def area(shape: Shape, perimeter: float) -> float:
    """Enclosed area at the given perimeter; zero perimeter means zero area."""
    if not (type(perimeter) is float and 0.0 <= perimeter < math.inf):
        _check_positive(perimeter, "perimeter", allow_zero=True)
    return perimeter * perimeter / (4.0 * shape._sigma)


def areas(shapes, perimeters) -> list[float]:
    """``[area(s, p) for s, p in zip(shapes, perimeters)]`` for two
    sequences, without a call per piece where area's check passes for
    every perimeter."""
    for p in perimeters:
        if not (type(p) is float and 0.0 <= p < math.inf):
            return [area(s, p) for s, p in zip(shapes, perimeters)]
    return [p * p / (4.0 * s._sigma) for s, p in zip(shapes, perimeters)]


# _unit_area_exact's values are unit areas times 2**_BITS. Its series run
# with 32 guard bits, on pi * 2**(_BITS + 32) rounded to an int.
_BITS = 224
_PI = 0x3243F6A8885A308D313198A2E03707344A4093822299F31D0082EFA98EC4E6C89
_exact_areas = {}


def _unit_area_exact(n: int) -> int:
    """1/(4 n tan(pi/n)), the area of a regular n-gon of unit perimeter,
    times 2**_BITS as an int, from the Taylor series of sin and cos of pi/n
    in fixed point. The terms are summed as magnitudes of alternating sign,
    until the cos term floors to 0. Each count is computed on its first
    call and kept."""
    value = _exact_areas.get(n)
    if value is None:
        point = _BITS + 32
        x = _PI // n
        square = x * x >> point
        sin = odd = x
        cos = even = 1 << point
        j, sign = 1, -1
        while even:
            even = even * square // (j * (j + 1) << point)
            odd = odd * square // ((j + 1) * (j + 2) << point)
            cos += sign * even
            sin += sign * odd
            j, sign = j + 2, -sign
        _exact_areas[n] = value = (cos << _BITS) // (4 * n * sin)
    return value


def _integer_lengths(lengths) -> list[int]:
    """The float lengths times the one power of two that makes each an
    integer, so that their squares weigh exact areas exactly."""
    ratios = [x.as_integer_ratio() for x in lengths]
    scale = max([den for _, den in ratios])
    return [num * (scale // den) for num, den in ratios]


def _total_area(areas, what="total area") -> float:
    """math.fsum of the areas, their correctly rounded sum in any order and
    on any Python; ValueError naming what where it overflows a float,
    whether one area is infinite or only the sum of finite ones is."""
    try:
        total = math.fsum(areas)
    except OverflowError:  # every area is finite, a partial sum is not
        total = math.inf
    if total == math.inf:
        raise ValueError(f"{what} overflows a float")
    return total


def _check_positive(value, what, allow_zero=False):
    """Reject anything but a positive (with allow_zero, non-negative) finite
    int or float; bool and str are not numbers here, and an int too large
    for a float is not finite."""
    if isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)):
        try:
            if math.isfinite(value) and (value > 0 or allow_zero and value == 0):
                return
        except OverflowError:
            pass
    sign = "non-negative" if allow_zero else "positive"
    raise ValueError(f"{what} must be a {sign} finite number, got {value!r}")


def _check_count(value, what):
    """Reject anything but an int that a float can hold; a bool is not a count."""
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            float(value)
            return
        except OverflowError:
            pass
    raise ValueError(f"{what} must be an integer a float can hold, got {value!r}")


def _sequence(value, what, items):
    """tuple(value), refusing a str, bytes or bytearray, whose characters or
    bytes would otherwise be read as the items, and a set, frozenset or dict,
    whose order is not the order written (a dict would give its keys)."""
    if isinstance(value, (str, bytes, bytearray, set, frozenset, dict)):
        raise ValueError(f"{what} must be a sequence of {items}, not {value!r}")
    return tuple(value)
