"""Exception types shared across the package."""


class ShockLabError(Exception):
    """Base class for all shocklab errors."""


class OutOfRangeError(ShockLabError):
    """Argument outside the interval on which the quantity is defined."""


class ArgumentError(OutOfRangeError, ValueError):
    """Arguments that break their function's rules; carries (argument, rule) pairs."""

    prefix = ""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__(self.prefix + "; ".join(f"{a}: {r}" for a, r in self.issues))


class EqualStatesError(ArgumentError):
    """The end states coincide or are not finite, so no shock speed is defined."""


class NotAdmissibleError(ShockLabError):
    """Shock violates the entropy (Lax) condition."""


class StepTooLargeError(ShockLabError):
    """Profile integration lost monotonicity; reduce the step."""


class TailTooShortError(ShockLabError):
    """Profile tails carry too few samples for a rate fit."""


class BadExponentError(ShockLabError):
    """Norm or bound exponent outside its valid range."""


class RangeExceededError(ShockLabError):
    """Field values left the flux validity range."""


class BlowupError(ShockLabError):
    """Solution exceeded the blow-up guard during time stepping."""


class BoundaryLeakError(ShockLabError):
    """Perturbation reached the truncated domain ends; domain too small."""


class MassDriftError(ShockLabError):
    """Perturbation mass drifted beyond its allowance during time stepping."""


class WaveNotConvergedError(ShockLabError):
    """Newton iteration for the discrete traveling wave did not converge."""


class TooFewSamplesError(ShockLabError):
    """Not enough samples in the fit window."""


class NonPositiveValueError(ShockLabError):
    """Log-space fit requested on non-positive values."""


class RoundOffError(ShockLabError):
    """Every sample a check would use lies at the round-off floor."""


class HypothesisViolatedError(ShockLabError):
    """Parameters violate the hypotheses of the decay bound."""


class MissingChannelError(ShockLabError):
    """Norm series lacks a channel required by the check."""


class ZeroDenominatorError(ShockLabError):
    """Ratio monitor hit a zero denominator."""


class BadKindError(ShockLabError):
    """Unknown bound-check kind."""


class ConfigParseError(ShockLabError):
    """Config file missing or not well-formed JSON."""


class ConfigValidationError(ArgumentError):
    """Config failed validation; carries (field, message) pairs."""

    prefix = "invalid config: "
