"""Exception types raised by the public API: one type per CLI exit code.

Every failure the package raises on bad input is a TrustPropError, so callers
can catch broadly. InputError (also a ValueError) covers unusable data, tables,
bundles and arguments; the CLI exits 2 on it. ConfigError covers an invalid
configuration value or file; the CLI exits 3 on it. MalformedRowError is the
InputError for one bad line of a file; its message starts with ``path:line:``.
"""
from __future__ import annotations


class TrustPropError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TrustPropError, ValueError):
    """Raised when input data (files, tables, stores, arguments) is unusable.

    Also a ValueError: most of these surface from constructor validation,
    and callers reasonably treat them as value errors.
    """


class ConfigError(TrustPropError):
    """Raised when a configuration value or file is invalid."""


class MalformedRowError(InputError):
    """A line of a file failed to parse. Carries the path, the 1-based line number and a reason."""

    def __init__(self, path: str, line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason
