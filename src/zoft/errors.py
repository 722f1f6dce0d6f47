"""Exception types shared across the package."""


class ZoftError(Exception):
    """Base class for all package errors."""


class PartitionMismatchError(ZoftError):
    """Scales, vectors, or networks do not agree on the block partition."""


class NumericOverflowError(ZoftError):
    """An operation produced a non-finite value."""


class InvalidScaleError(ZoftError):
    """Perturbation scales are non-positive, non-finite, or sum to a zero budget."""


class ContractViolationError(ZoftError):
    """An activation cache or state object does not match its producer."""


class CheckpointError(ZoftError):
    """Base class for checkpoint parse failures."""


class MagicMismatchError(CheckpointError):
    """The checkpoint header does not start with the expected magic string."""


class TruncatedCheckpointError(CheckpointError):
    """The checkpoint ended before all declared blocks were read."""


class DimensionMismatchError(CheckpointError):
    """A checkpoint row has the wrong number of fields."""


class DivergenceError(ZoftError):
    """The optimization loss exceeded the divergence guard threshold."""


class ConfigError(ZoftError):
    """An experiment configuration is missing, malformed, or inconsistent."""


class DegenerateBoundError(ZoftError):
    """The blockwise bound has no curvature term to optimize against."""
