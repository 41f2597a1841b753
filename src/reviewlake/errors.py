"""Exception hierarchy.

``ConfigurationError`` maps to CLI exit code 2; every other ``ReviewLakeError``
is a data/IO fatal and maps to exit code 1. Per-row rejects are not errors and
never raise.
"""

from __future__ import annotations


class ReviewLakeError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReviewLakeError):
    """Invalid configuration or usage (bad flag value, malformed run config)."""


class MappingFileError(ReviewLakeError):
    """A source mapping file is unreadable or structurally invalid."""


class CsvParseError(ReviewLakeError):
    """Unrecoverable CSV structure problem, e.g. an unterminated quote at EOF."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


class CorruptLakeError(ReviewLakeError):
    """A lake directory fails validation against its manifest."""


class QueryTypeError(ReviewLakeError):
    """A metric field held a value that is not a finite number, or a metric's
    value left the float range; the message names the metric and the lowest
    failing group key."""
