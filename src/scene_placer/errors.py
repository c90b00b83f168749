"""Exception hierarchy for scene-placer, and the bounded value text of its messages."""


def describe(value) -> str:
    """A rejected value's repr for an error message, or its type if that is long."""
    text = repr(value)
    return text if len(text.encode()) <= 32 else f"a {type(value).__name__}"


class ScenePlacerError(Exception):
    """Base class for all scene-placer errors."""


class DimensionMismatch(ScenePlacerError):
    """Grids passed to an operation have incompatible dimensions."""


class EmptyDrivableSpace(ScenePlacerError):
    """The drivable mask contains no set pixels."""


class InvalidBox(ScenePlacerError):
    """A bounding box is degenerate (non-positive width or height)."""


class InvalidSample(ScenePlacerError):
    """A sample value violates a precondition (e.g. non-positive for log fits)."""


class InsufficientData(ScenePlacerError):
    """Not enough data points for the requested fit or statistic."""


class DegenerateFit(ScenePlacerError):
    """The least-squares system is singular (e.g. all x values equal)."""


class UnknownClass(ScenePlacerError):
    """A class id has no fitted model."""


class MaxAttemptsExceeded(ScenePlacerError):
    """Proposal rejection sampling exhausted its attempt budget."""


class EmptyMask(ScenePlacerError):
    """An instance mask has no set pixels."""


class ParseError(ScenePlacerError):
    """A file could not be parsed; carries a byte offset when known."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


class SchemaError(ScenePlacerError):
    """A parsed file violates the expected schema (e.g. dangling category id)."""


class FormatError(ScenePlacerError):
    """A binary grid file has the wrong magic number or maxval."""


class VersionError(ScenePlacerError):
    """A serialized model has an unsupported schema version."""
