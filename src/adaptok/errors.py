"""Exception hierarchy with stable machine-readable categories.

Every error raised by this package carries a ``category`` string that the
CLI emits on the diagnostic stream, so callers can dispatch on failures
without parsing human-readable messages.
"""


class AdaptokError(Exception):
    """Base class for all errors raised by adaptok."""

    category = "error"


class InvalidInputError(AdaptokError):
    """Input violates a documented precondition (shape, sign, finiteness)."""

    category = "invalid-input"


class DegenerateInputError(AdaptokError):
    """Input is structurally valid but the operation is undefined on it."""

    category = "degenerate-input"


class InvalidBudgetError(AdaptokError):
    """A requested selection size is outside the feasible range."""

    category = "invalid-budget"


class FormatError(AdaptokError):
    """An on-disk artifact does not conform to its binary or text schema."""

    category = "format-error"


class BadMagicError(FormatError):
    category = "bad-magic"


class TruncatedPayloadError(FormatError):
    category = "truncated-payload"


class TrailingDataError(FormatError):
    category = "trailing-data"


class NonFiniteValueError(FormatError):
    category = "non-finite-value"


class ValueRangeError(FormatError):
    category = "value-range"
