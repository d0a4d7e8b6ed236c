"""Exception types shared across the package."""


class CurvedRSError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomain(CurvedRSError):
    """A point lies outside the validity domain of a metric chart."""


class SingularMetric(CurvedRSError):
    """Metric determinant is numerically zero at the requested point."""


class SignatureError(CurvedRSError):
    """Metric does not have signature (+,-,-,-) at the requested point."""


class InvalidParameter(CurvedRSError):
    """A preset parameter is outside its allowed range."""


class InvalidTransform(CurvedRSError):
    """Transformation parameters violate a + b + 4ab = 0."""


class EvalError(CurvedRSError):
    """Expression evaluation hit a domain violation (sqrt of a negative, ...).

    ``position`` is the index, in a program's flat list of results, of the
    value that could not be computed.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ParseError(CurvedRSError):
    """Syntax error in an expression or configuration document.

    Carries the 1-based line/column of the offending token and the set of
    token kinds that would have been accepted there.
    """

    def __init__(self, message, line=None, column=None, expected=()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = tuple(sorted(expected))
        loc = ""
        if line is not None:
            loc = f" at line {line}, column {column}"
        hint = ""
        if self.expected:
            hint = " (expected " + ", ".join(self.expected) + ")"
        super().__init__(f"{message}{loc}{hint}")


class ConfigError(CurvedRSError):
    """Structurally invalid metric configuration or CLI usage."""
