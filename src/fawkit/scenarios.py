"""Scenario types and validation for pool-infiltration analyses.

All computational powers are fractions of the total network hash power,
which is normalized to 1. The block reward is likewise normalized to 1 per
round, so with everyone honest a miner's expected per-round reward equals
its power fraction. No single miner or pool may hold 0.5 or more (majority
guard), and unintentional forks are ignored throughout.

Each scenario type stores its fields as Python floats and runs its validate_* when built,
so every instance is valid and computes in float64, and a function taking one checks only
its kind, with _check_kind; all are immutable, safe to share across threads. The checkers
return the floats they check, and every entry point computes on those or on its scenario's
fields, so a numpy float32 argument computes in float64 at every entry point.
"""

from __future__ import annotations

import json
import numbers
import sys
import warnings
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path

from .errors import (
    BudgetExceeded,
    ConstraintViolated,
    DegenerateInput,
    PowerOutOfRange,
    RationalFloorWarning,
    ScenarioFileError,
    TooManyPools,
    _caller_stacklevel,
)

MAX_SINGLE_ACTOR = 0.5  # strict bound: any one miner or pool stays below half the network
MAX_POOLS = 8           # the simulator's withheld-set tables have 2^n rows


def _check_real(name: str, value) -> float:
    """``value`` as a Python float, which every entry point computes on (so a numpy float32
    computes in float64); numpy's reals pass, a bool or a real past the float range fails."""
    if type(value) is float:  # first, as the ABC test costs ten times more
        return value
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise ConstraintViolated(f"{name}={value!r} must be a real number")
    if type(value) is not int or abs(value) <= sys.float_info.max:  # exact, even past 4300 digits
        try:
            return float(value)
        except OverflowError:  # a huge Fraction, say
            pass
    raise ConstraintViolated(f"{name} is above the largest float in magnitude")


def _check_integer(name: str, value, low: int = 1, high: int | None = None) -> int:
    """``value`` as an int in [``low``, ``high``]; numpy's integers pass, a bool fails."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConstraintViolated(f"{name}={value!r} must be an integer")
    value = int(value)  # numpy integers do not serialise
    if high is not None and value > high:  # names the cap: the value may be too long to print
        raise ConstraintViolated(f"{name} must be at most {high}")
    if abs(value) > sys.float_info.max:  # exact for an int of any size, even one too long to print
        raise ConstraintViolated(f"{name} is above the largest float in magnitude")
    if value < low:
        raise ConstraintViolated(f"{name}={value!r} must be >= {low}")
    return value


def _check_kind(name: str, value, kind) -> None:
    """A scenario reader first checks its argument is of ``kind``, a type or ``Scenario``."""
    if not isinstance(value, kind):
        what = "scenario" if kind is Scenario else kind.__name__
        raise ConstraintViolated(f"{name}={value!r} must be a {what}")


def _check_unit(name: str, value) -> float:
    if type(value) is not float:  # a scenario's fields are floats: skip the call for them
        value = _check_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise PowerOutOfRange(f"{name}={value!r} outside [0, 1]")
    return value


def _check_actor_power(name: str, value) -> float:
    value = _check_unit(name, value)
    if value >= MAX_SINGLE_ACTOR:
        raise PowerOutOfRange(
            f"{name}={value!r} reaches the majority guard ({MAX_SINGLE_ACTOR})"
        )
    return value


def _sequence(name: str, values) -> tuple:
    if not isinstance(values, str):  # a string is a sequence of characters, not of numbers
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ConstraintViolated(f"{name}={values!r} must be a sequence of real numbers")


def _floats(name: str, values) -> tuple[float, ...]:
    return tuple([v if type(v) is float else _check_real(f"{name}[{i}]", v)
                  for i, v in enumerate(_sequence(name, values))])  # names only a non-float


def _store_floats(obj, sequences: tuple[str, ...] = ()) -> None:
    """Check each field of the frozen dataclass ``obj`` and store it as a Python float, or
    through _floats as a tuple of floats if named in ``sequences``; a float stays as it is."""
    for name in obj.__match_args__:
        value = getattr(obj, name)
        if name in sequences:
            object.__setattr__(obj, name, _floats(name, value))
        elif type(value) is not float:
            object.__setattr__(obj, name, _check_real(name, value))


@dataclass(frozen=True)
class SinglePoolScenario:
    """One attacker infiltrating one proportional-payout pool, checked by validate_single.

    alpha: attacker's total power
    beta:  victim pool's power, excluding the attacker's infiltration part
    tau:   fraction of alpha diverted into the victim pool
    c:     probability the attacker's withheld block wins a two-branch fork
    """

    alpha: float
    beta: float
    tau: float
    c: float

    def __post_init__(self):
        _store_floats(self)
        validate_single(self)


@dataclass(frozen=True)
class MultiPoolScenario:
    """One attacker infiltrating up to MAX_POOLS pools at once, checked by validate_multi.

    A fork with k attacker branches gives each branch win probability c/k,
    so the attacker side never exceeds c in total.
    """

    alpha: float
    betas: tuple[float, ...]
    taus: tuple[float, ...]
    c: float

    def __post_init__(self):
        _store_floats(self, ("betas", "taus"))
        validate_multi(self)


@dataclass(frozen=True)
class GameScenario:
    """Two pools infiltrating each other, checked by validate_game.

    f1, f2 are absolute infiltration powers (f_i = tau_i * alpha_i).
    c1, c2 are two-branch win probabilities for the block found by pool i's
    infiltrator; c1p, c2p are the three-branch analogues and must sum to <= 1.
    """

    alpha1: float
    alpha2: float
    f1: float
    f2: float
    c1: float
    c2: float
    c1p: float
    c2p: float

    def __post_init__(self):
        _store_floats(self)
        validate_game(self)


Scenario = SinglePoolScenario | MultiPoolScenario | GameScenario


def validate_single(s: SinglePoolScenario) -> SinglePoolScenario:
    """The checks a SinglePoolScenario runs on construction; returns ``s`` unchanged."""
    _check_actor_power("alpha", s.alpha)
    _check_actor_power("beta", s.beta)
    _check_unit("tau", s.tau)
    _check_unit("c", s.c)
    return s


def validate_multi(s: MultiPoolScenario) -> MultiPoolScenario:
    """The checks a MultiPoolScenario runs on construction; returns ``s`` unchanged."""
    n = len(s.betas)
    if n != len(s.taus):
        raise ConstraintViolated(
            f"betas ({n}) and taus ({len(s.taus)}) must have equal length"
        )
    if n < 1:
        raise ConstraintViolated("at least one target pool is required")
    if n > MAX_POOLS:
        raise TooManyPools(f"{n} pools exceeds the cap of {MAX_POOLS} set by the simulator's "
                           "2^n-row withheld-set tables")
    _check_actor_power("alpha", s.alpha)
    for i, b in enumerate(s.betas):
        _check_actor_power(f"betas[{i}]", b)
    for i, t in enumerate(s.taus):
        _check_unit(f"taus[{i}]", t)
    _check_unit("c", s.c)
    # summed in order, as the closed form and the simulator sum them: the builtin sum
    # compensates from Python 3.12 on
    total_tau = reduce(add, s.taus)
    if total_tau > 1.0 + 1e-15:
        raise BudgetExceeded(f"sum of taus = {total_tau!r} exceeds 1")
    total = s.alpha + reduce(add, s.betas)
    if total > 1.0 + 1e-15:
        raise BudgetExceeded(f"alpha + sum(betas) = {total!r} exceeds 1")
    return s


def validate_game(s: GameScenario) -> GameScenario:
    """The checks a GameScenario runs on construction; returns ``s`` unchanged.

    Each pool must hold some power, its own or the opponent's infiltrator.
    Branch-win probabilities below the rational-manager floor
    ``alpha1 + alpha2`` are legal (full [0, 1] sweeps stay reproducible)
    but raise a :class:`RationalFloorWarning`.
    """
    _check_actor_power("alpha1", s.alpha1)
    _check_actor_power("alpha2", s.alpha2)
    for name, f, cap in (("f1", s.f1, s.alpha1), ("f2", s.f2, s.alpha2)):
        if not 0.0 <= f <= cap:
            raise ConstraintViolated(f"{name}={f!r} outside [0, alpha]={cap!r}")
    for pool, power, f_in in ((1, s.alpha1, s.f2), (2, s.alpha2, s.f1)):
        if power + f_in == 0.0:  # the infiltrator's share of an empty pool is 0/0
            raise DegenerateInput(f"pool {pool} is empty: alpha{pool} + f{3 - pool} = 0.0")
    for name, c in (("c1", s.c1), ("c2", s.c2), ("c1p", s.c1p), ("c2p", s.c2p)):
        _check_unit(name, c)
    if s.c1p + s.c2p > 1.0 + 1e-15:
        raise ConstraintViolated(f"c1p + c2p = {s.c1p + s.c2p!r} exceeds 1")
    if min(s.c1, s.c2) < s.alpha1 + s.alpha2:
        warnings.warn(
            "branch-win probability below the rational-manager floor alpha1 + alpha2",
            RationalFloorWarning,
            stacklevel=_caller_stacklevel(),
        )
    return s


def validate(s: Scenario) -> Scenario:
    """Re-run the checks of ``s``'s type; a built scenario always passes them."""
    _check_kind("s", s, Scenario)
    if isinstance(s, SinglePoolScenario):
        return validate_single(s)
    if isinstance(s, MultiPoolScenario):
        return validate_multi(s)
    return validate_game(s)


def rer(reward: float, honest_power: float) -> float:
    """Relative extra reward in percent: (reward - honest) / honest * 100.

    ``honest_power`` is the actor's honest per-round reward, i.e. its power
    fraction. Negative values mean a loss versus honest mining.
    """
    if honest_power == 0:
        raise DegenerateInput("honest power is zero; RER undefined")
    return (reward - honest_power) / honest_power * 100.0


# --- scenario files ---------------------------------------------------------
#
# A scenario file is a flat JSON object whose keys exactly match the field
# names of one scenario type, which checks and stores the values as it does
# any others. A reward document wraps the echo under a "scenario" key, which
# scenario_from_dict unwraps, so it can be fed straight back in.

_FIELD_SETS = {
    frozenset(("alpha", "beta", "tau", "c")): SinglePoolScenario,
    frozenset(("alpha", "betas", "taus", "c")): MultiPoolScenario,
    frozenset(("alpha1", "alpha2", "f1", "f2", "c1", "c2", "c1p", "c2p")): GameScenario,
}


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario, which checks its own values, from a flat mapping."""
    if not isinstance(data, dict):
        raise ScenarioFileError(f"expected a JSON object, got {type(data).__name__}")
    if "scenario" in data and isinstance(data["scenario"], dict):
        data = data["scenario"]
    keys = frozenset(data)
    cls = _FIELD_SETS.get(keys)
    if cls is None:
        for fields, candidate in _FIELD_SETS.items():
            if keys >= fields:
                extra = sorted(keys - fields, key=str)
                raise ScenarioFileError(f"unknown key '{extra[0]}' for {candidate.__name__}")
            if keys < fields:
                missing = sorted(fields - keys)
                raise ScenarioFileError(f"missing key '{missing[0]}' for {candidate.__name__}")
        raise ScenarioFileError(f"keys {sorted(keys, key=str)} match no scenario type")
    return cls(**data)


def load_scenario(path) -> Scenario:
    """Load a scenario from the JSON file at ``path``."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"invalid JSON in scenario: {exc}") from exc
    # not a path, not UTF-8, over 4300 digits, too deep
    except (TypeError, OSError, ValueError, RecursionError) as exc:
        raise ScenarioFileError(f"cannot read scenario file {path}: {exc}") from exc
    return scenario_from_dict(data)


def scenario_to_dict(s: Scenario) -> dict:
    """Flat mapping suitable for JSON echo; inverse of scenario_from_dict."""
    _check_kind("s", s, Scenario)
    # the fields are floats and tuples of floats: a shallow copy is enough
    return {k: list(v) if type(v) is tuple else v for k, v in vars(s).items()}
