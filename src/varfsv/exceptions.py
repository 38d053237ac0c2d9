"""Exception types shared across the package."""


class VarFsvError(Exception):
    """Base class for all package errors."""


class NumericalError(VarFsvError):
    """Fatal numerical failure."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix required to be positive definite has a non-positive pivot."""


class DimensionMismatchError(VarFsvError):
    pass


class NonStationaryError(NumericalError):
    """An AR coefficient left the stationary region (|phi| >= 1)."""


class TruncationFailureError(NumericalError):
    """Sampling from a truncated normal failed."""


class MaxIterationsExceededError(NumericalError):
    pass


class DegenerateWeightsError(NumericalError):
    """Importance weights collapsed (effective sample size below 2).

    The marginal-likelihood estimator also reports the number of outer draws
    `r2`, the `ess`, the largest normalised weight `max_weight`, and the
    standard deviations of the log likelihood, log prior and log family
    parts of the log weights (`sd_like`, `sd_prior`, `sd_family`); these
    are None when not given.
    """

    def __init__(self, msg, r2=None, ess=None, max_weight=None, sd_like=None,
                 sd_prior=None, sd_family=None):
        super().__init__(msg)
        self.r2 = r2
        self.ess = ess
        self.max_weight = max_weight
        self.sd_like = sd_like
        self.sd_prior = sd_prior
        self.sd_family = sd_family


class InsufficientDrawsError(VarFsvError):
    pass


class NonPositiveScaleError(VarFsvError):
    pass


class MaxResimulationsError(VarFsvError):
    pass


class ConfigError(VarFsvError):
    """Invalid configuration."""
