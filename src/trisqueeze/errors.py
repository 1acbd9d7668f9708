"""Exception types shared across the package.

The CLI maps InvalidParameterError (and argparse failures) to exit code 2
and NumericError subclasses to exit code 3.
"""


class InvalidParameterError(ValueError):
    """An argument is outside the documented domain of an operation."""


class SingularParameterError(InvalidParameterError):
    """A parameter value at which a closed form is singular (e.g. zero squeezing
    in the ratio-of-exponentials amplitude pair)."""


class DomainError(InvalidParameterError):
    """A derived quantity leaves the domain of a later step (e.g. a vanishing
    mean photon number in a normalized statistic)."""


class NumericError(RuntimeError):
    """A numeric procedure failed to deliver the requested accuracy."""


class TruncationError(NumericError):
    """A truncated Fock-space computation is untrustworthy at the current
    cutoff (an amplitude too large for it, or too much evolved probability on
    the outermost occupation shell)."""
