"""Exception types shared across the package."""


class EventWeaveError(Exception):
    """Base class for all package-specific errors."""


class DuplicateLabel(EventWeaveError):
    """Two tensor factors carry the same link id."""


class MissingLabel(EventWeaveError):
    """A contraction names a factor the state does not carry."""


class NonUnitVector(EventWeaveError):
    """A vector that is required to be normalized is not."""


class LabelCollision(EventWeaveError):
    """A new event would emit a link id that is already used: by the history,
    by a candidate applied to a cut state, or by an earlier stage."""


class UnknownEvent(EventWeaveError):
    """An event id that is not part of the history."""


class InvalidCut(EventWeaveError):
    """A cut that is not past-closed, or that references unknown events; or
    a cut given to ``realize`` that leaves out events, since new events are
    added at the frontier."""


class OverlappingBackwardLinks(EventWeaveError):
    """Joint candidates attempt to consume the same free link."""


class NotExhaustive(EventWeaveError):
    """An alternative set whose probabilities do not sum to one."""

    def __init__(self, total: float, tolerance: float):
        self.total = float(total)
        self.tolerance = float(tolerance)
        super().__init__(
            f"alternative probabilities sum to {self.total!r}, "
            f"not 1 within {self.tolerance:g}"
        )


class ZeroProbabilityEvent(EventWeaveError):
    """Attempt to realize a candidate whose probability vanishes."""


class TooManyOutcomePaths(EventWeaveError):
    """A staged scenario whose outcome paths are too many to enumerate."""


class PartitionNotUnity(EventWeaveError):
    """Cell functions do not sum to one at every grid point."""


class NoMatch(EventWeaveError):
    """No packet width reproduces the thermal diagonal within tolerance."""

    def __init__(self, residual: float, tolerance: float):
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        super().__init__(
            f"momentum-diagonal mismatch {self.residual:.3e} exceeds "
            f"tolerance {self.tolerance:g}"
        )


class ZeroNormBranch(EventWeaveError):
    """Branch state carries no weight, so no momentum spread is defined."""
