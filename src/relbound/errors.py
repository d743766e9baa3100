"""Exception types shared across the package."""

__all__ = ["RelboundError", "StructureParseError", "StructureError", "DegenerateSampleError",
           "EstimationError", "ConfigError"]


class RelboundError(Exception):
    """Base class for all relbound errors."""


class StructureParseError(RelboundError):
    """Structure expression could not be parsed."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class StructureError(RelboundError):
    """Invalid structure tree: bad component ids, empty children, k out of range."""


class DegenerateSampleError(RelboundError):
    """All log lifetimes identical, so the scale cannot be estimated."""


class EstimationError(RelboundError):
    """Point estimation failed: non-convergence, insufficient data, or singular information."""


class ConfigError(RelboundError):
    """Request or study configuration file is malformed."""
