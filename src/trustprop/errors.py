"""Exception types raised by the public API.

Everything derives from TrustPropError so callers can catch broadly; the CLI
maps input-shaped failures to exit code 2 and configuration failures to 3.
"""
from __future__ import annotations


class TrustPropError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TrustPropError, ValueError):
    """Raised when input data (files, tables, stores) is unusable.

    Also a ValueError: most of these surface from constructor validation,
    and callers reasonably treat them as value errors.
    """


class ConfigError(TrustPropError):
    """Raised when a configuration value or file is invalid."""


# --- model / builder ---

class UnknownLayerError(InputError):
    """A value that should name one of the three layers does not."""


class UnsupportedLayerPairError(InputError):
    """Requested an inter-layer block for a pair that has no belongs-to relation."""


class IntraLayerBlockError(InputError):
    """An operation that needs an inter-layer block received an intra-layer one."""


class DimensionMismatchError(InputError):
    """Vector/matrix shapes do not line up."""


# --- scoring ---

class InvalidConfigError(ConfigError):
    """A residual or convergence configuration fails its own constraints."""


# --- evaluation ---

class LengthMismatchError(InputError):
    """Two paired sequences differ in length."""


class TooFewSamplesError(InputError):
    """A correlation was requested on fewer than two observations."""


class KTooLargeError(InputError):
    """Top-k was requested with k larger than the number of items."""


class IdUniverseMismatchError(InputError):
    """Two scored lists do not cover the same set of entity ids."""


# --- synthetic stress ---

class EmptyTableError(InputError):
    """An edge table with no records was given to a generator."""


class OutOfShapeError(InputError):
    """An edge record references an id outside the target matrix shape."""


# --- ingestion / serialization ---

class MalformedRowError(InputError):
    """A CSV row failed to parse. Carries the 1-based line number and a reason."""

    def __init__(self, path: str, line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason


class MissingColumnError(InputError):
    """A required CSV column is absent from the header row."""


class SchemaVersionError(InputError):
    """An emitted file declares a schema version this build does not understand."""
