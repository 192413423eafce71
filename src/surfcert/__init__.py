"""Triangle-mesh toolkit for curvature-based surface analysis.

The package splits into layers that build on one another:

``geometry``
    exact triangle/ball clipping, angles, compensated summation, box pairs.
``curves``
    closed polygons, turning angles, radial projection, cone meshes.
``surfaces``
    validated triangle-mesh model with cached derived data, the ring-strip
    triangulation, area densities, mean curvature.
``intersect``
    embeddedness by projection, triangle-pair distances and the self-contact
    sweep.
``monotonicity``
    area-ratio profiles, weighted monotonicity and large-radius checks.
``certificates``
    machine-checkable records tying measured quantities to conclusions
    (density lower bounds, embeddedness, corner dichotomy, genus).
``catalog``
    named analytic scenes with their meshes and boundary curves.
``fileio`` / ``cli``
    OBJ/OFF/JSON persistence, report envelopes, the ``surfcert`` tool.

Each library module owns the public names in its ``__all__``; the package
exports exactly those. ``cli`` and ``selftest`` are imported by name only.
"""

from .errors import *
from .geometry import *
from .curves import *
from .surfaces import *
from .monotonicity import *
from .intersect import *
from .certificates import *
from .catalog import *
from .fileio import *
from . import (
    catalog, certificates, curves, errors, fileio, geometry, intersect, monotonicity, surfaces,
)

__version__ = "0.1.0"

__all__ = [
    name
    for module in (
        errors, geometry, curves, surfaces, monotonicity, intersect, certificates, catalog, fileio
    )
    for name in module.__all__
] + ["__version__"]
