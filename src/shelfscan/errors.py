"""Exception types raised across the package, and the sign check of seeds and counts.

Everything derives from ShelfScanError so callers can catch the whole
family; most conditions are also ValueErrors since they signal bad input
values rather than environmental failures.
"""


class ShelfScanError(Exception):
    """Base class for all shelfscan errors."""


class ParseError(ShelfScanError, ValueError):
    """A data file could not be parsed."""


class ValidationError(ShelfScanError, ValueError):
    """A domain object violates an invariant.

    `element` identifies the offending item (shelf id, portal id, ...)
    when one can be named.
    """

    def __init__(self, message, element=None):
        super().__init__(message if element is None else f"{message} (element: {element})")
        self.element = element


class InvalidWindow(ShelfScanError, ValueError):
    """Smoothing window is even, non-positive, or longer than the data."""


class TooShort(ShelfScanError, ValueError):
    """Trajectory has too few samples for the requested computation."""


class FrameMismatch(ShelfScanError, ValueError):
    """Track and layout belong to different stores."""


class UnknownShelf(ShelfScanError, ValueError):
    """A record references a shelf id outside the layout."""


class UnknownTrajectory(ShelfScanError, ValueError):
    """A record references a trajectory that is not part of the dataset."""


class ReviewerCountMismatch(ShelfScanError, ValueError):
    """Labels reference more distinct reviewers than the declared panel size."""


class AxisMismatch(ShelfScanError, ValueError):
    """Two matrices do not share the same trajectory/shelf/sample axes."""


class EmptyDataset(ShelfScanError, ValueError):
    """An operation requires at least one trajectory."""


class EmptyGrid(ShelfScanError, ValueError):
    """A parameter grid contains no points."""


class FractionOutOfRange(ShelfScanError, ValueError):
    """Calibration fraction p is outside its legal interval."""


class DegenerateSplit(ShelfScanError, ValueError):
    """A random split left the train or test side empty."""


class ShelfOutOfRange(ShelfScanError, ValueError):
    """A stop or purchase references a shelf id beyond the layout's count."""


class EmptyInput(ShelfScanError, ValueError):
    """An aggregate was asked for over an empty collection."""


class LengthMismatch(ShelfScanError, ValueError):
    """Vectors in an aggregate have inconsistent lengths."""


class InconsistentPopulation(ShelfScanError, ValueError):
    """Purchase records reference trajectories outside the analyzed set."""


class InfeasibleScript(ShelfScanError, ValueError):
    """A synthetic scenario script cannot be realized in its store."""


def non_negative(name: str, value: int) -> int:
    """Return `value`, a seed or a count, or raise ValidationError if it is negative."""
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value
