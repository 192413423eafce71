"""Exception taxonomy shared by every module.

All toolkit errors derive from GeometryError so callers (and the CLI) can
distinguish domain failures from programming bugs.
"""

__all__ = [
    "GeometryError",
    "InvalidParameterError",
    "ProjectionSingularError",
    "RadiusTooLargeError",
    "InputInconsistentError",
    "UnsupportedOperationError",
    "InfeasibleError",
    "MeshParseError",
]


class GeometryError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(GeometryError, ValueError):
    """A parameter is outside its documented domain (tol <= 0, p <= 2, ...)."""


class ProjectionSingularError(GeometryError):
    """The projection center lies on (or numerically on) the curve."""


class RadiusTooLargeError(GeometryError):
    """A ball radius reaches past the region where the requested measure is meaningful."""

    def __init__(self, message: str, suggested_radius: float | None = None):
        super().__init__(message)
        self.suggested_radius = suggested_radius


class InputInconsistentError(GeometryError):
    """Inputs disagree with each other (dimension mismatch, boundary mismatch, bad mesh)."""


class UnsupportedOperationError(GeometryError):
    """The operation needs data this input cannot provide (e.g. no analytic source)."""


class InfeasibleError(GeometryError):
    """No admissible solution exists for the requested inequality."""


class MeshParseError(GeometryError):
    """A mesh or curve file failed to parse; carries the file position."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line
