"""Extrema of total enclosed area for a wire cut into several shapes.

A wire of length L is cut into one piece per shape and each piece is bent
into that shape's perimeter. The total area is a strictly convex quadratic
of the piece lengths, so over the simplex {sum = L, all >= 0} it has a
unique interior minimum in closed form and attains its maximum at a vertex.
Boundary stationary points (one piece pinned to zero) are exposed as
diagnostics; they are minima of the restricted problem, not maxima.

sigma(n) = n * tan(pi/n) falls strictly with n towards the circle's pi, so
the side counts choose the maximum's vertex and paper_face_max's face exactly.
"""

from .geometry import Shape, _check_count, _check_positive, _Record, _sequence, _total_area, area, areas, parse_shape

__all__ = [
    "INTERIOR_MINIMUM",
    "VERTEX_MAXIMUM",
    "FACE_STATIONARY",
    "GRID_SAMPLE",
    "PartitionProblem",
    "PartitionResult",
    "total_area",
    "minimize_partition",
    "maximize_partition",
    "face_stationary",
    "paper_face_max",
]

INTERIOR_MINIMUM = "interior-minimum"
VERTEX_MAXIMUM = "vertex-maximum"
FACE_STATIONARY = "face-stationary"
GRID_SAMPLE = "grid-sample"


class PartitionProblem(_Record):
    """A wire of positive total length cut into one piece per listed shape."""

    total_length: float
    shapes: tuple[Shape, ...]

    def __init__(self, total_length, shapes):
        _check_positive(total_length, "total length")
        shapes = tuple(map(parse_shape, _sequence(shapes, "shapes", "shapes")))
        if len(shapes) < 2:
            raise ValueError("a partition problem needs at least two shapes")
        object.__setattr__(self, "total_length", float(total_length))
        object.__setattr__(self, "shapes", shapes)


class PartitionResult(_Record):
    """Piece lengths with their areas and a tag describing the kind of point.

    ``excluded_index`` is set only for face-stationary results and names the
    piece that was pinned to zero.
    """

    kind: str
    lengths: tuple[float, ...]
    per_shape_areas: tuple[float, ...]
    total_area: float
    excluded_index: int | None = None

    def __init__(self, kind, lengths, per_shape_areas, total_area, excluded_index=None):
        self.__dict__.update(kind=kind, lengths=lengths, per_shape_areas=per_shape_areas,
                             total_area=total_area, excluded_index=excluded_index)


def total_area(shapes, lengths) -> float:
    """Total area when lengths[i] is bent into shapes[i]; no sum constraint.
    Shapes are read as PartitionProblem reads them; ValueError where the
    total overflows a float."""
    shapes = tuple(map(parse_shape, _sequence(shapes, "shapes", "shapes")))
    lengths = _sequence(lengths, "lengths", "numbers")
    if len(shapes) != len(lengths):
        raise ValueError("need exactly one length per shape")
    return _total_area(areas(shapes, lengths))


def _split(kind, problem, weights, excluded_index=None) -> PartitionResult:
    """Each piece proportional to its weight, the pieces summing to L.

    The areas come from geometry.areas in one call, with area's bits, and
    the total from geometry._total_area; a piece that rounds up past the
    largest float, as w * L / sum(weights) can for L within a few ulps of
    it, is refused as area refuses it.
    """
    scale = problem.total_length / sum(weights)
    lengths = [w * scale for w in weights]
    pieces = areas(problem.shapes, lengths)
    return PartitionResult(kind, tuple(lengths), tuple(pieces), _total_area(pieces), excluded_index)


def minimize_partition(problem: PartitionProblem) -> PartitionResult:
    """Unique global minimum: each piece proportional to its shape's sigma weight.

    Setting the constrained gradient to zero gives lengths[i] =
    L * sigma_i / sum(sigma), hence total = L**2 / (4 * sum(sigma)).
    """
    return _split(INTERIOR_MINIMUM, problem, [s._sigma for s in problem.shapes])


def maximize_partition(problem: PartitionProblem) -> PartitionResult:
    """Global maximum: the whole wire goes to the best single shape.

    The total is strictly convex, so its maximum over the simplex sits at a
    vertex: the shape of smallest sigma, which is the first circle if there
    is one, else the first shape of largest side count. The result has the
    bits, and the overflow ValueError, of _split on that one-hot vertex.
    """
    shapes = problem.shapes
    sides = [s.sides for s in shapes]
    best = sides.index(None) if None in sides else sides.index(max(sides))
    lengths = [0.0] * len(sides)
    lengths[best] = problem.total_length
    pieces = [0.0] * len(sides)
    pieces[best] = area(shapes[best], problem.total_length)
    return PartitionResult(VERTEX_MAXIMUM, tuple(lengths), tuple(pieces), _total_area(pieces))


def face_stationary(problem: PartitionProblem, excluded_index: int) -> PartitionResult:
    """Stationary point on the simplex face where one piece is pinned to zero.

    The remaining pieces follow the closed-form minimizer of the reduced
    problem, so this is the minimum over that face. With only two shapes the
    face degenerates to the opposite vertex.
    """
    count = len(problem.shapes)
    _check_count(excluded_index, "excluded index")
    if not 0 <= excluded_index < count:
        raise ValueError(f"excluded index {excluded_index} out of range for {count} shapes")
    weights = [s._sigma for s in problem.shapes]
    # A zero weight pins the piece; adding 0.0 leaves the sum's bits alone.
    weights[excluded_index] = 0.0
    return _split(FACE_STATIONARY, problem, weights, excluded_index)


def paper_face_max(problem: PartitionProblem) -> PartitionResult:
    """Largest face-stationary total over all choices of pinned piece.

    Kept as a boundary diagnostic: every face point is dominated by the
    vertex maximum, so this is a lower bound on maximize_partition, not the
    maximum itself. Pinning piece b leaves the total L**2 / (4 * (S - sigma_b)),
    S = sum(sigma), so the face pinning the heaviest shape wins: the first
    shape of smallest side count, or piece 0 where every shape is a circle,
    at every scale. A total that overflows raises ValueError.
    """
    sides = [s.sides for s in problem.shapes]
    polygons = [n for n in sides if n is not None]
    return face_stationary(problem, sides.index(min(polygons)) if polygons else 0)
