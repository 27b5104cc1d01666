"""Exception types shared across the package.

Every failure mode raised by the library is one of these classes, so callers
can distinguish bad shapes from bad configs from bad data without string
matching.
"""


class ShapeError(ValueError):
    """Tensor dimensions do not satisfy an operation's contract."""


class LabelError(ValueError):
    """A class label lies outside the valid index range."""


class ParameterError(ValueError):
    """A scalar argument violates its precondition (negative lambda, bad h, ...)."""


class StateError(RuntimeError):
    """A protocol was violated (restore without perturb, mixed tapes, ...)."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the contract requires finite numbers."""


class DataError(ValueError):
    """Dataset contents violate an invariant (empty split, missing domain, ...)."""


class ConfigError(ValueError):
    """A configuration is internally contradictory or incomplete.

    `key` optionally names the offending JSON key path inside the object
    being built (`"variants[1]"`); the config parser appends it to the
    object's own path when it reports the error.
    """

    def __init__(self, message: str, key: str = ""):
        super().__init__(message)
        self.key = key


class ParseError(ValueError):
    """A file could not be parsed; message carries path and line number."""


class UndefinedResultError(ArithmeticError):
    """The requested statistic is undefined for this input (zero variance,
    zero baseline)."""


class DegenerateGradientError(RuntimeError):
    """Gradient norm too small to normalize; callers skip the perturbation."""
