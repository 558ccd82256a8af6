"""Exception and warning types shared across the toolkit."""


class FawError(Exception):
    """Base class for all toolkit errors."""


class PowerOutOfRange(FawError):
    """A power fraction is outside [0, 1] or a single actor holds >= 0.5."""


class BudgetExceeded(FawError):
    """Powers or infiltration fractions sum past their budget."""


class ConstraintViolated(FawError):
    """A scenario or operation precondition does not hold."""


class DegenerateInput(FawError):
    """Input collapses a formula (zero denominator, empty target pool)."""


class TooManyPools(FawError):
    """Pool count exceeds MAX_POOLS, the width of the simulator's withheld-set bitmask."""


class InconsistentDistribution(FawError):
    """Honest-power shares do not sum to the required total."""


class UnknownFixture(FawError):
    """No built-in reproduction fixture with that name."""


class ScenarioFileError(FawError):
    """A scenario file failed to parse; the message names the offending key."""


class RationalFloorWarning(UserWarning):
    """Branch-win probability is below the rational-manager floor alpha1 + alpha2."""


class NegativeEffectiveMinersWarning(UserWarning):
    """An expelled-identity count exceeds the identity budget; term floored at 0."""
