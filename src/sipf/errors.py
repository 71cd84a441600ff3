"""Exception hierarchy shared across the toolkit."""


class SipfError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(SipfError, ValueError):
    """A caller-supplied argument is out of its documented range."""


class InvalidInputError(SipfError, ValueError):
    """Input data violates a type invariant (non-finite, wrong norm, ...)."""


class ParseError(InvalidInputError):
    """A point-cloud file could not be parsed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc += f"line {line}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class DegenerateGeometryError(SipfError):
    """Local geometry admits no well-defined construction (e.g. zero barycenter axis)."""

    def __init__(self, message, index=None):
        if index is not None:
            message = f"point {index}: {message}"
        super().__init__(message)
        self.index = index


class DegenerateFrameError(DegenerateGeometryError):
    """A point's primary axis, its frame, is undefined: the normal or barycenter axis has norm below 1e-12."""


class CoincidentPointError(SipfError):
    """A pairwise feature was requested for two coincident points."""


class SamplerStallError(SipfError):
    """The rejection sampler's acceptance rate collapsed below the safety floor."""


class NumericError(SipfError):
    """A numeric quantity became non-finite during computation."""
