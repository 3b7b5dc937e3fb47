"""Exception types shared across the package."""


class UasNavError(Exception):
    """Base class for all package errors."""


class BoundsError(UasNavError, ValueError):
    """An index, landmark, or pixel position is outside its valid range."""


class InvalidStateError(UasNavError, ValueError):
    """An operation was called in a state where it is not defined."""


class CoverageError(UasNavError, ValueError):
    """A requested window or footprint falls outside the world raster."""


class RasterFormatError(UasNavError, ValueError):
    """A raster file or its registration sidecar could not be parsed."""


class PolicyFormatError(UasNavError, ValueError):
    """A policy file is malformed, incomplete, or has the wrong version."""


class MatchingError(UasNavError):
    """Base class for correspondence/estimation failures."""


class InsufficientMatchesError(MatchingError, ValueError):
    """Fewer correspondences than the minimal sample size."""


class DegenerateGeometryError(MatchingError, ValueError):
    """All candidate models were degenerate (e.g. collinear samples)."""


class PolicyInconsistencyError(UasNavError, ValueError):
    """A policy's route commands a move off the grid, reaches a cell without
    an entry, or returns to a cell it already left; an optimal policy's
    route from any start does none of these."""


class ConfigError(UasNavError, ValueError):
    """A run configuration file or override is invalid."""
