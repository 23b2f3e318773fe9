"""Exception types raised by parsers, distance kernels, and clustering routines.

Everything derives from DataError so CLI entry points can catch one class and
exit with a data-error status instead of a traceback.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path


class DataError(Exception):
    """Base class for malformed input or contract violations in data."""


# ---------------------------------------------------------------------- I/O


class EmptyInput(DataError):
    pass


class UndecodableText(DataError):
    """A text input holds bytes that its encoding cannot decode."""


@contextmanager
def text_input(path: str | Path):
    """Report text read from `path` inside this block that cannot be
    decoded as UndecodableText naming the file; every text reader reads
    its file inside one."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise UndecodableText(
            f"{path} is not {exc.encoding} text ({exc.reason})"
        ) from None


class MalformedRow(DataError):
    def __init__(self, row: int, detail: str):
        super().__init__(f"row {row}: {detail}")
        self.row = row


class DuplicateId(DataError):
    def __init__(self, ident: str):
        super().__init__(f"duplicate identifier {ident!r}")
        self.ident = ident


class RaggedAlignment(DataError):
    def __init__(self, expected: int, got: int, ident: str):
        super().__init__(
            f"sequence {ident!r} has {got} sites, expected {expected}"
        )
        self.expected = expected
        self.got = got
        self.ident = ident


class IllegalCharacter(DataError):
    def __init__(self, char: str, ident: str, site: int):
        super().__init__(
            f"illegal residue {char!r} in sequence {ident!r} at site {site}"
        )
        self.char = char
        self.ident = ident
        self.site = site


class UnbalancedParentheses(DataError):
    pass


class DuplicateTipLabel(DataError):
    def __init__(self, label: str):
        super().__init__(f"duplicate tip label {label!r}")
        self.label = label


class NegativeBranchLength(DataError):
    def __init__(self, length: float, label: str = ""):
        where = f" at {label!r}" if label else ""
        super().__init__(f"negative branch length {length}{where}")
        self.length = length


class TrailingGarbage(DataError):
    def __init__(self, text: str):
        super().__init__(f"unparsed text after tree: {text[:40]!r}")
        self.text = text


class MissingColumn(DataError):
    def __init__(self, column: str):
        super().__init__(f"required column {column!r} not found")
        self.column = column


class BadDate(DataError):
    def __init__(self, value: str, row: int):
        super().__init__(f"cannot parse date {value!r} on row {row}")
        self.value = value
        self.row = row


class UnknownStage(DataError):
    def __init__(self, token: str, row: int):
        super().__init__(f"unknown stage {token!r} on row {row}")
        self.token = token
        self.row = row


# ----------------------------------------------------------------- distance


class MalformedMatrix(DataError):
    """A distance-matrix file or its id sidecar does not hold a matrix."""


class UndefinedDistance(DataError):
    def __init__(self, i: str | int, j: str | int):
        super().__init__(f"distance between {i!r} and {j!r} is undefined")
        self.i = i
        self.j = j


# --------------------------------------------------------------------- trees


class TipSetMismatch(DataError):
    pass


class DegenerateTree(DataError):
    pass


# ---------------------------------------------------------------- clustering


class MissingSequence(DataError):
    def __init__(self, ident: str):
        super().__init__(f"tree tip {ident!r} has no aligned sequence")
        self.ident = ident


class UnannotatedSupport(DataError):
    def __init__(self, detail: str = "internal node lacks a support value"):
        super().__init__(detail)


# --------------------------------------------------------------- evaluation


class UnassignedId(DataError):
    def __init__(self, ident: str):
        super().__init__(f"id {ident!r} missing from partition")
        self.ident = ident


class IdSetMismatch(DataError):
    pass


class EmptyList(DataError):
    pass


# ------------------------------------------------------------------- growth


class MissingMetadata(DataError):
    def __init__(self, ident: str):
        super().__init__(f"no metadata row for id {ident!r}")
        self.ident = ident
