"""Shared exception types for the zonoharm package."""


class ZonoharmError(Exception):
    """Base class for all package-specific errors."""


class SizeExceededError(ZonoharmError):
    """Input is beyond a documented brute-force size cap."""


class NotTotallyUnimodularError(ZonoharmError):
    """A computation met a subdeterminant or covector value outside {-1, 0, 1}."""


class IsLoopError(ZonoharmError):
    """Operation requires a non-loop element."""


class IsColoopError(ZonoharmError):
    """Operation requires a non-coloop element."""


class LoopOrColoopError(ZonoharmError):
    """Operation requires an element that is neither a loop nor a coloop."""


class EmptyPointSetError(ZonoharmError):
    """Evaluation requested on an empty point set."""


class DegreeOverflowError(ZonoharmError):
    """Requested graded degree exceeds the top degree of the filtration."""


class CertificateError(ZonoharmError):
    """A derived result failed its exact certificate; indicates an internal bug."""


class NotIntegralError(ZonoharmError):
    """An integrality postcondition failed; indicates an internal bug."""


class ParseError(ZonoharmError):
    """Input text does not match the expected format."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
