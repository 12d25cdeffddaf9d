"""Exception types shared across the package.

Every error the library raises deliberately derives from CurvalignError so
the CLI can map each class to a distinct exit status.
"""


class CurvalignError(Exception):
    """Base class for all errors raised on purpose by this package."""


# numerics
class ShapeMismatchError(CurvalignError):
    pass


class NonFiniteError(CurvalignError):
    pass


class NotScalarOutputError(CurvalignError):
    pass


# geometry / rkhs
class KTooLargeError(CurvalignError):
    pass


class DegenerateEdgeError(CurvalignError):
    pass


# losses / data batching
class BatchTooSmallError(CurvalignError):
    pass


# model / checkpoints
class InvalidArchitectureError(CurvalignError):
    pass


class IoFailureError(CurvalignError):
    pass


class FormatVersionMismatchError(CurvalignError):
    pass


class DigestMismatchError(CurvalignError):
    pass


# data ingestion
class BadMagicError(CurvalignError):
    pass


class CountMismatchError(CurvalignError):
    pass


class TruncatedFileError(CurvalignError):
    pass


class InvalidCountsError(CurvalignError):
    pass


class EmptyDatasetError(CurvalignError):
    pass


# config
class UnknownKeyError(CurvalignError):
    pass


class ConfigTypeError(CurvalignError):
    pass


class InvariantViolationError(CurvalignError, ValueError):
    """An invalid config value; raised by the type that owns the rule."""
