"""Exception types shared across the toolkit; `require_count`, the one check of
a size, count, seed or offset; and `require_real`, the one check of a real
hyper-parameter or fraction."""

import math
import numbers
from typing import Callable


class ConceptParseError(Exception):
    """Base class for all toolkit errors."""


# parse core


class EmptyUtteranceError(ConceptParseError):
    """Raised when an utterance has no non-whitespace content."""


class MalformedAnnotationError(ConceptParseError):
    """Raised when a seqlogical annotation cannot be parsed against its utterance."""


class PointerRangeError(ConceptParseError):
    """Raised when a pointer index falls outside the source sequence."""


class MalformedTargetError(ConceptParseError):
    """Raised when a target sequence violates bracket discipline.

    Carries the first offending token position in ``position``, and in
    ``reason`` the rule broken as a fixed phrase, with no tag names or numbers.
    """

    def __init__(self, reason: str, position: int, message: str = ""):
        super().__init__(f"{message or reason} (position {position})")
        self.position = position
        self.reason = reason


class UnknownTagFormatError(ConceptParseError):
    """Raised when a tag token string does not match any known shape."""


# data io


class DataError(ConceptParseError):
    """Raised when an input file is missing or unreadable."""


class DomainNotFoundError(ConceptParseError):
    """Raised when a requested domain does not exist in the corpus."""


class SpanAlignmentError(ConceptParseError):
    """Raised when a mention span does not align to token boundaries."""


# tensors and model


class ShapeError(ConceptParseError):
    """Raised when tensor operands have incompatible shapes."""


class NotScalarError(ConceptParseError):
    """Raised when backward is started from a non-scalar tensor."""


class NonFiniteError(ConceptParseError):
    """Raised when a forward op produces NaN or Inf values, or when a model
    whose weights hold them is saved."""


class LengthExceededError(ConceptParseError):
    """Raised when a sequence exceeds the configured maximum length."""


class EmptyDescriptionError(ConceptParseError):
    """Raised when a concept tag carries an empty description."""


class UnknownConceptError(ConceptParseError):
    """Raised when a concept tag is not present in the active bank."""


# training and evaluation


class EmptyEvalSetError(ConceptParseError):
    """Raised when evaluation or training is requested on an empty record set."""


class NeedTwoDomainsError(ConceptParseError):
    """Raised when a leave-one-out run is requested on a single-domain corpus."""


class CheckpointMismatchError(ConceptParseError):
    """Raised when a checkpoint is used with an incompatible config or vocabulary."""


def require_count(name: str, value, low: int) -> int:
    """``value`` if it is an ``int``, not a ``bool``, of at least ``low``; else `ValueError`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
    return value


def require_real(name: str, value, bound: str, within: Callable[[float], bool]) -> float:
    """``value`` if it is a finite real, not a ``bool``, that ``within`` accepts;
    else `ValueError` naming ``bound``."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not math.isfinite(value) or not within(value)):
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
    return value
