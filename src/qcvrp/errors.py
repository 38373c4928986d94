"""Exception types shared across the package."""

from __future__ import annotations


class CvrpError(Exception):
    """Base class for every error this package raises on purpose."""


class MissingSection(CvrpError):
    """A required keyword or data section is absent from an instance file."""

    def __init__(self, section: str) -> None:
        super().__init__(f"missing required keyword or section: {section}")
        self.section = section


class MalformedLine(CvrpError):
    """A line of an instance file could not be interpreted."""

    def __init__(self, line_number: int, reason: str) -> None:
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class DimensionMismatch(CvrpError):
    """A data section disagrees with the declared DIMENSION."""


class UnsupportedEdgeWeightType(CvrpError):
    """The file asks for a distance convention this package does not implement."""


class IndexOutOfRange(CvrpError, IndexError):
    """A node index fell outside 0..dimension-1."""


class InvalidInstance(CvrpError, ValueError):
    """Instance fields violate a structural invariant."""


class SchemaError(CvrpError):
    """A configuration document does not match the expected schema."""

    def __init__(self, field: str, reason: str = "") -> None:
        msg = f"bad configuration field: {field}"
        if reason:
            msg = f"{msg} ({reason})"
        super().__init__(msg)
        self.field = field


class DuplicateName(CvrpError):
    """Two entries in one configuration document share a name."""

    def __init__(self, name: str) -> None:
        super().__init__(f"duplicate name: {name}")
        self.name = name


class TooLarge(CvrpError):
    """The model exceeds a size or work bound of the exact solver."""


class LengthMismatch(CvrpError, ValueError):
    """An assignment string does not have one bit per model variable."""


class EmptyInput(CvrpError, ValueError):
    """An operation that needs at least one element received none."""
