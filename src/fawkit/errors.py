"""Exception and warning types shared across the toolkit, and where a warning points."""

import os
import sys

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _caller_stacklevel() -> int:
    """``warnings.warn`` stacklevel of the first frame outside this package.

    Called by the function that warns, so that its warning names the user's line. Frames
    are placed by module ``__file__``: a dataclass ``__init__``'s code file is ``<string>``.
    """
    frame, level = sys._getframe(1), 1
    while frame is not None and (frame.f_globals.get("__file__") or "").startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


class FawError(Exception):
    """Base class for all toolkit errors."""


class ConstraintViolated(FawError):
    """An input is not a number, or breaks a precondition; range and budget errors subclass it."""


class PowerOutOfRange(ConstraintViolated):
    """A fraction or probability is outside [0, 1], or a single actor holds >= 0.5."""


class BudgetExceeded(ConstraintViolated):
    """Powers or infiltration fractions sum past their budget."""


class DegenerateInput(FawError):
    """Input collapses a formula (zero denominator, empty target pool)."""


class TooManyPools(FawError):
    """Pool count exceeds MAX_POOLS, which bounds the simulator's 2^n-row withheld-set tables."""


class InconsistentDistribution(FawError):
    """Honest-power shares do not sum to the required total."""


class UnknownFixture(FawError):
    """No built-in reproduction fixture with that name."""


class ScenarioFileError(FawError):
    """A scenario file failed to read or parse; the message names the offending key or file."""


class RationalFloorWarning(UserWarning):
    """Branch-win probability is below the rational-manager floor alpha1 + alpha2."""


class NegativeEffectiveMinersWarning(UserWarning):
    """An expelled-identity count exceeds the identity budget; term floored at 0."""
