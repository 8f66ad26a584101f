"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
runtime failures exit 3.
"""


class RemixSEError(Exception):
    """Base class for all package errors."""


class UsageError(RemixSEError):
    """Caller passed inconsistent or disallowed inputs (CLI exit code 2)."""


class ShapeMismatch(RemixSEError):
    """Arrays that must share a shape (batches, rows, signal pairs) do not."""


# -- audio -------------------------------------------------------------

class ZeroPowerSignal(RemixSEError):
    pass


class ZeroPowerNoise(RemixSEError):
    pass


class UnsupportedFormat(RemixSEError):
    pass


class SampleRateMismatch(RemixSEError):
    pass


# -- model / checkpoints ----------------------------------------------

class ConfigMismatch(RemixSEError):
    pass


class VersionMismatch(RemixSEError):
    pass


class CorruptHeader(RemixSEError):
    pass


# -- training ----------------------------------------------------------

class EmptyCorpus(RemixSEError):
    pass


class NonFiniteLoss(RemixSEError):
    pass


class MissingExtNoise(UsageError):
    pass


class UnexpectedExtNoise(UsageError):
    pass


# -- corpus / manifests -------------------------------------------------

class ParseError(RemixSEError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class MissingFile(RemixSEError):
    pass


class UnreadableFile(RemixSEError):
    """A file exists but opening or reading it failed (permissions, I/O)."""


class UnwritableFile(RemixSEError):
    """The directory of an output file cannot be created."""


class RoleMismatch(UsageError):
    pass


# -- metrics -------------------------------------------------------------

class TooShort(RemixSEError):
    pass


class ZeroReference(RemixSEError):
    pass
