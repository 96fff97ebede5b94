"""Exception hierarchy for the rahar pipeline.

Every domain error raised by the library derives from :class:`RaharError`,
so callers (and the CLI) can map failure classes to exit codes without
string matching.
"""

from __future__ import annotations


class RaharError(Exception):
    """Base class for all rahar domain errors."""

    def __reduce__(self):
        # Rebuilt from its args and attributes as they stand, not through
        # __init__: a subclass that formats its message from several
        # arguments, or whose args a caller rewrote, still unpickles as
        # raised, so an error crosses from a worker process unchanged.
        return (_rebuild, (type(self), self.args), self.__dict__)


def _rebuild(cls, args):
    return Exception.__new__(cls, *args)


# --- ingestion -------------------------------------------------------------

class ParseError(RaharError):
    """Input file could not be parsed at all (bad header, bad encoding)."""


class MalformedRow(ParseError):
    """A CSV row has the wrong shape or an unparseable field."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NegativeCount(ParseError):
    """Activity counts and step counts must be non-negative."""

    def __init__(self, line_number: int, field: str, value: int):
        super().__init__(f"line {line_number}: {field} = {value} is negative")
        self.line_number = line_number
        self.field = field


class UnknownInclinometer(ParseError):
    """Inclinometer token is not one of off/standing/sitting/lying."""

    def __init__(self, line_number: int, token: str):
        super().__init__(f"line {line_number}: unknown inclinometer state {token!r}")
        self.line_number = line_number
        self.token = token


class ValidationError(RaharError):
    """Series-level consistency check failed."""


class GapDetected(ValidationError):
    """Non-contiguous timestamps; carries the full gap report."""

    def __init__(self, gaps):
        desc = "; ".join(f"{g.start.isoformat()} ({g.length} missing)" for g in gaps)
        super().__init__(f"{len(gaps)} gap(s): {desc}")
        self.gaps = list(gaps)


class DuplicateTimestamp(ValidationError):
    pass


class NonMonotone(ValidationError):
    pass


class MisalignedTimestamp(ValidationError):
    """Timestamps are not aligned to whole epochs."""


class GapFillTooLarge(ValidationError):
    """Filling the gaps would insert more epochs than one file may gain."""


class ZeroFactor(RaharError):
    """Aggregation factor must be a positive integer."""


# --- cut points ------------------------------------------------------------

class InvalidScale(RaharError):
    """Cut-point scale fails its structural invariants or lacks an age band."""


# --- sleep metrics ---------------------------------------------------------

class DegenerateBed(RaharError):
    """Total minutes in bed is zero, so efficiency is undefined."""


# --- segmentation / features ------------------------------------------------

class EmptyAwakeSpan(RaharError):
    """The awake span has no epochs, so mode fractions are undefined."""


class EmptyDataset(RaharError):
    """All segments were filtered out; nothing to model."""


# --- change points ----------------------------------------------------------

class SegmentTooSmall(RaharError):
    """Not enough observations on one side of a candidate split."""


# --- models ------------------------------------------------------------------

class ModelError(RaharError):
    """Base class for training/evaluation failures."""


class ClassCollapse(ModelError):
    """Training data contains only one class."""


class DimensionMismatch(ModelError):
    """Feature matrix width does not match the trained model."""


class SingleClassAUC(ModelError):
    """ROC/AUC needs at least one example of each class."""


class TooFewPerClass(ModelError):
    """Each class must have at least `folds` members for stratified CV."""


# --- synthetic data -----------------------------------------------------------

class InvalidProfile(RaharError):
    """Synthetic day profile violates a generator precondition."""


# --- worker processes ---------------------------------------------------------

class WorkerLost(RaharError):
    """A worker process ended before it returned its task's result."""
