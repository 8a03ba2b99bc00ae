"""Shared exception types for the zonoharm package."""


class ZonoharmError(Exception):
    """Base class for all package-specific errors."""


class SizeExceededError(ZonoharmError):
    """Input is beyond a documented brute-force size cap."""


class NotTotallyUnimodularError(ZonoharmError):
    """Some basis of columns has a determinant other than +-1.

    ``basis`` holds the labels of the witness columns and ``determinant``
    their determinant; ``covector`` is the cocircuit that found them and
    ``values`` its pairings with the columns, both named in the message.
    """

    def __init__(self, basis: tuple, determinant: int, covector: tuple, values: tuple):
        super().__init__(
            f"basis {list(basis)} has determinant {determinant}"
            f" (cocircuit {covector} pairs to {values})"
        )
        self.basis = basis
        self.determinant = determinant
        self.covector = covector
        self.values = values


class LoopOrColoopError(ZonoharmError):
    """Operation requires an element that is neither a loop nor a coloop."""


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
