"""Exception hierarchy.

``ConfigurationError`` maps to CLI exit code 2; every other ``ReviewLakeError``
is a data/IO fatal and maps to exit code 1. Per-row rejects are not errors and
never raise. An ``OSError`` is fatal too; :class:`naming` makes one that a
write or an fsync raises name its file, for the CLI's error line.
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


class naming:
    """``with naming(path):`` re-raises an OSError that names no file as
    the same error naming ``path``; one that names a file passes as it is.

    A write, a flush at close or an ``os.fsync`` that fails raises an
    OSError without a file name, so the error line would not say where.
    """

    __slots__ = ("path",)

    def __init__(self, path: str):
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, OSError) and exc.filename is None:
            raise OSError(exc.errno, exc.strerror, self.path) from exc
