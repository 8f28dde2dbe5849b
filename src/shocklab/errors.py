"""Exception types shared across the package."""


class ShockLabError(Exception):
    """Base class for all shocklab errors."""


class EqualStatesError(ShockLabError):
    """The two end states coincide, so no shock speed is defined."""


class OutOfRangeError(ShockLabError):
    """Argument outside the interval on which the quantity is defined."""


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


class NonzeroModePresentError(ShockLabError):
    """1-d reference run requested for data with a non-zero mode."""


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


class ConfigValidationError(ShockLabError):
    """Config failed validation; carries (field, message) pairs."""

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(f"{field}: {msg}" for field, msg in self.issues)
        super().__init__(f"invalid config: {lines}")
