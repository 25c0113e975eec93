"""Exception types shared across the package."""


class HeisencurveError(Exception):
    """Base class for all domain errors raised by this package."""


class NoSignChange(HeisencurveError):
    """A bracketed root search found no sign change inside the allowed bracket."""


class MarginViolated(HeisencurveError):
    """A derivative that must stay bounded away from zero dropped below its margin."""


class MonotonicityViolated(HeisencurveError):
    """Sampled increments of a function that must be strictly monotone changed sign."""


class NotCommonZero(HeisencurveError):
    """The base point does not lie on both surfaces to within the zero tolerance."""


class DependentNormals(HeisencurveError):
    """The two horizontal gradients are linearly dependent at the base point."""


class NoZeroFound(HeisencurveError):
    """No member of the flow family crosses the zero level of the traced function."""


class WindowExit(HeisencurveError):
    """An ODE trajectory left the integration window before producing any samples."""


class GridMismatch(HeisencurveError):
    """Two sampled paths do not share the same uniform grid."""


class OrderingViolation(HeisencurveError):
    """Pointwise ordering required between two paths does not hold."""


class MeanBisectionFailure(HeisencurveError):
    """No candidate solution realized the target integral mean within tolerance."""

    def __init__(self, target, gap):
        self.target = target
        self.gap = gap
        super().__init__(
            f"cannot realize integral mean {target!r}; best candidate misses by {gap:.3e}"
        )


class NotInVerticalSubgroup(HeisencurveError):
    """A point expected to lie in the vertical subgroup has a nonzero graph coordinate."""


class ConfigError(HeisencurveError):
    """A run configuration is syntactically or semantically invalid."""
