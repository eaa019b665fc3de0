"""Exception types shared across the package, and the integer check that
raises one for a bad count or seed.

The CLI maps these onto exit codes: usage problems exit 1, failed
computations exit 2, and I/O failures (plain OSError) exit 3.
"""


class UsageError(ValueError):
    """Bad arguments or violated preconditions."""


class ParseError(UsageError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ComputationError(RuntimeError):
    """A computation could not be carried out."""


class GeometryError(ComputationError):
    """Degenerate molecular geometry (e.g. coincident nuclei)."""


class LinearDependenceError(ComputationError):
    """Overlap matrix is not positive definite."""


class ResourceError(ComputationError):
    """Problem size exceeds a hard resource guard."""


class ScanError(ComputationError):
    """Every point of a bond-length scan failed."""


def check_integer(name: str, value, lowest: int, error=UsageError):
    """Raise `error` unless value is an int (a bool is not) >= lowest."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lowest:
        raise error(f"{name} must be an integer >= {lowest}, got {value!r}")
