"""Shared exception types for the bubblelink toolkit."""


class ValidationError(ValueError):
    """Invalid parameters, malformed input, or a violated invariant.

    The CLI maps this class (and subclasses) to exit code 2.
    """


class FormatError(ValidationError):
    """A data file violates its documented format contract."""


class UndefinedMetricError(ValidationError):
    """A metric is undefined for the given inputs (e.g. zero denominator)."""


class ResourceLimitError(RuntimeError):
    """A run would exceed a configured resource cap (e.g. trace length)."""
