"""Wire-cutting area optimization for regular polygons and the circle limit.

Cut a wire into pieces, bend each piece into a prescribed shape, and ask
about the total enclosed area: its closed-form minimum, its vertex maximum,
the perimeter ranges where it beats or stays under a threshold, and the
best way to spend a fixed budget of polygon sides across several wires.
A deliberately naive brute-force oracle cross-checks every solver.
"""

from . import allocation, bounds, errors, extrema, geometry, oracle, verify
from .allocation import *
from .bounds import *
from .errors import *
from .extrema import *
from .geometry import *
from .oracle import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    *allocation.__all__,
    *bounds.__all__,
    *errors.__all__,
    *extrema.__all__,
    *geometry.__all__,
    *oracle.__all__,
    *verify.__all__,
]
