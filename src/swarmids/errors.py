"""Exception hierarchy shared across the package."""

import copyreg


class SwarmidsError(Exception):
    """Base class for all package errors.

    Errors pickle as their final message and attributes, not through
    ``__init__`` (whose arguments some subclasses reshape), so one raised
    in a fold's worker process reaches the caller with its type, text and
    attributes unchanged.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(SwarmidsError):
    """Invalid configuration value, flag, or config-file key."""


class DataError(SwarmidsError):
    """Problem with input data (I/O, shape, unexpected content)."""


class ParseError(DataError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownLabelError(DataError):
    """Attack name not present in the shipped category table."""

    def __init__(self, label: str):
        super().__init__(f"unknown attack label: {label!r}")
        self.label = label


class TrainingError(SwarmidsError):
    """Classifier training cannot proceed (e.g. single-class input)."""


class ObjectiveError(SwarmidsError):
    """Fitness callback failed; carries the offending mask bitstring, or
    None when the population's result as a whole is wrong."""

    def __init__(self, mask_bits: str | None, cause: object):
        subject = "the population" if mask_bits is None else f"mask {mask_bits}"
        super().__init__(f"objective failed for {subject}: {cause}")
        self.mask_bits = mask_bits


class DataWarning(UserWarning):
    """Non-fatal data condition (e.g. a class with fewer rows than folds)."""
