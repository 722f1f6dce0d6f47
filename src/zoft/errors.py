"""Exception types shared across the package."""


class ZoftError(Exception):
    """Base class for all package errors."""


class PartitionMismatchError(ZoftError):
    """Scales, vectors, networks or activation caches do not agree on the
    block partition."""


class NumericOverflowError(ZoftError):
    """An operation produced a non-finite value."""


class InvalidScaleError(ZoftError):
    """Perturbation scales are non-positive, non-finite, or sum to a zero budget."""


class CheckpointError(ZoftError):
    """A checkpoint file is malformed or was trained for other blocks; the
    message starts with the file's path."""


class DivergenceError(ZoftError):
    """The optimization loss exceeded the divergence guard threshold."""


class ConfigError(ZoftError):
    """An experiment configuration is missing, malformed, or inconsistent."""


class DegenerateBoundError(ZoftError):
    """The blockwise bound has no curvature term to optimize against."""
