"""Every public function checks its numbers as a scenario does: a malformed one raises a
FawError that names it, never a raw TypeError, ValueError or AttributeError."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import game_scenarios, multi_scenarios, single_scenarios
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fawkit import (
    ConstraintViolated,
    FawError,
    HonestPowerDistribution,
    SimConfig,
    best_response,
    bonus_scheme_reward,
    c_from_gamma,
    c_max_single,
    c_min_rational,
    detection_resilient_reward,
    game_payoffs,
    gamma_upper_bound,
    honeypot_bwh_bound,
    load_scenario,
    net_payoffs,
    optimal_tau,
    optimize_allocation,
    preset_attack,
    reward_npool,
    reward_single,
    reward_two_pools,
    safe_bonus_threshold,
    scenario_to_dict,
    selfish_mining_threshold,
    simulate,
    solve_equilibrium,
    sweep_regions,
    sweep_regions_assumed_c,
    victim_reward,
    write_sweep_csv,
)
from fawkit.game import sweep_axis, unilateral_gain
from fawkit.scenarios import (
    GameScenario,
    MultiPoolScenario,
    SinglePoolScenario,
    scenario_from_dict,
    validate,
)
from fawkit.simulator import simulate_multi, simulate_single

SINGLE = SinglePoolScenario(0.2, 0.2, 0.3, 0.5)

MALFORMED = {
    "selfish-none": (lambda: selfish_mining_threshold(None), "gamma=None"),
    "selfish-str": (lambda: selfish_mining_threshold("0.5"), "gamma='0.5'"),
    "c-from-gamma-str": (lambda: c_from_gamma("x", 0.2, 0.1), "gamma='x'"),
    "bonus-t-none": (lambda: bonus_scheme_reward(0.2, 0.2, 0.1, 0.5, None), "t=None"),
    "bonus-threshold-none": (lambda: safe_bonus_threshold(0.3, None), "c_max=None"),
    "bonus-threshold-pool-0": (lambda: safe_bonus_threshold(0.0, 0.5),
                               "pool_power=0.0 outside (0, 1]"),
    "shares-item-str": (lambda: HonestPowerDistribution(["x"]), "shares[0]='x'"),
    "shares-float": (lambda: HonestPowerDistribution(0.3), "shares=0.3"),
    "atomized-str": (lambda: HonestPowerDistribution([0.1], "x"), "atomized_remainder='x'"),
    "two-pools-c-none": (lambda: reward_two_pools(0.2, 0.1, 0.1, 0.1, 0.1, None, 1, 0.5, 0.5),
                         "c1_two=None"),
    "sweep-axis-str": (lambda: sweep_axis("a", 1, 0.1), "start='a'"),
    "unilateral-gain-none": (lambda: unilateral_gain(None, 0.1, 1, 1, 0.5, 0.5, 0, 0), "a1=None"),
    "unilateral-gain-f1-past-alpha1": (lambda: unilateral_gain(0.2, 0.1, 1, 1, 0.5, 0.5, 0.5, 0),
                                       "f1=0.5 outside [0, alpha]=0.2"),
    "unilateral-gain-c1-7": (lambda: unilateral_gain(0.2, 0.1, 7, 1, 0.5, 0.5, 0, 0),
                             "c1=7.0 outside [0, 1]"),
    "unilateral-gain-nan": (lambda: unilateral_gain(math.nan, 0.1, 1, 1, 0.5, 0.5, 0, 0),
                            "alpha1=nan outside [0, 1]"),
    "unilateral-gain-majority": (lambda: unilateral_gain(0.7, 0.1, 1, 1, 0.5, 0.5, 0, 0),
                                 "alpha1=0.7 reaches the majority guard"),
    "unilateral-gain-f1-negative": (lambda: unilateral_gain(0.2, 0.1, 1, 1, 0.5, 0.5, -0.5, 0),
                                    "f1=-0.5 outside [0, alpha]=0.2"),
    "start-none": (lambda: solve_equilibrium(0.2, 0.1, 1, 1, 0.5, 0.5, start=None),
                   "start=None"),
    "sweep-axis-none": (lambda: sweep_regions(0.2, None, [0.5]), "alpha2_axis=None"),
    "betas-none": (lambda: optimize_allocation(0.2, None, 1), "betas=None"),
    "betas-item-str": (lambda: optimize_allocation(0.2, ["x"], 1), "betas[0]='x'"),
    "betas-str": (lambda: MultiPoolScenario(0.2, "0.1", (0.5,), 1),
                  "betas='0.1' must be a sequence of real numbers"),
    "sim-scenario-none": (lambda: simulate(SimConfig(100, 1, None)), "scenario=None"),
    "sim-workers-0": (lambda: SimConfig(100, 1, SINGLE, workers=0), "workers=0 must be >= 1"),
    "preset-list": (lambda: preset_attack([]), "preset []"),
    "dist-none": (lambda: c_max_single(0.2, 0.1, None), "dist=None"),
    "scenario-path-none": (lambda: load_scenario(None), "scenario file None"),
    "scenario-path-int": (lambda: load_scenario(3), "scenario file 3"),  # not file descriptor 3
    "responder-bool": (
        lambda: best_response(GameScenario(0.2, 0.1, 0.0, 0.0, 1, 1, 0.5, 0.5), True),
        "responder=True"),
    "best-response-none": (lambda: best_response(None, 1), "g=None must be a GameScenario"),
    "best-response-single": (lambda: best_response(SINGLE, 1),
                             f"g={SINGLE!r} must be a GameScenario"),
    "validate-none": (lambda: validate(None), "s=None must be a scenario"),
    "sim-multi-single": (lambda: simulate_multi(SimConfig(100, 1, SINGLE)),
                         f"scenario={SINGLE!r} must be a MultiPoolScenario"),
    "reward-single-none": (lambda: reward_single(None), "s=None must be a SinglePoolScenario"),
    "victim-str": (lambda: victim_reward("x"), "s='x' must be a SinglePoolScenario"),
    "npool-single": (lambda: reward_npool(SINGLE), f"s={SINGLE!r} must be a MultiPoolScenario"),
    "game-payoffs-none": (lambda: game_payoffs(None), "g=None must be a GameScenario"),
    "net-payoffs-str": (lambda: net_payoffs("x"), "g='x' must be a GameScenario"),
    "net-payoffs-multi": (
        lambda: net_payoffs(MultiPoolScenario(0.2, (0.1,), (0.5,), 1)),
        "must be a GameScenario"),
    "echo-none": (lambda: scenario_to_dict(None), "s=None must be a scenario"),
    "echo-dict": (lambda: scenario_to_dict({"alpha": 0.2}), "s={'alpha': 0.2} must be a scenario"),
    "simulate-none": (lambda: simulate(None), "cfg=None must be a SimConfig"),
    "simulate-single-none": (lambda: simulate_single(None), "cfg=None must be a SimConfig"),
    "from-dict-mixed-keys": (lambda: scenario_from_dict({1: 2, "a": 3}),
                             "keys [1, 'a'] match no scenario type"),
    "fraction-past-the-floats": (lambda: SinglePoolScenario(Fraction(10**400), 0.2, 0.1, 0.5),
                                 "alpha is above the largest float in magnitude"),
    "sweep-c-true-after-1": (lambda: sweep_regions(0.2, [0.1], [1.0, True]), "c1=True"),
    "sweep-csv-none": (lambda: write_sweep_csv(None), "cells=None must be a Sequence"),
    "sweep-csv-number": (lambda: write_sweep_csv([1]), "cells[0]=1 must be a RegionCell"),
}

BOOLS = {
    "selfish": (lambda: selfish_mining_threshold(True), "gamma=True"),
    "bonus-t": (lambda: bonus_scheme_reward(0.2, 0.2, 0.1, 0.5, t=True), "t=True"),
    "bonus-threshold": (lambda: safe_bonus_threshold(True, 0.5), "pool_power=True"),
    "shares": (lambda: HonestPowerDistribution([True]), "shares[0]=True"),
}


@pytest.mark.parametrize("call, named", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_raises_a_faw_error_naming_it(call, named):
    with pytest.raises(FawError, match=re.escape(named)):
        call()


@pytest.mark.parametrize("call, named", BOOLS.values(), ids=BOOLS)
def test_a_bool_is_not_a_number(call, named):
    with pytest.raises(ConstraintViolated, match=re.escape(f"{named} must be a real number")):
        call()


def _game_error(*args):
    with pytest.raises(FawError) as caught:
        GameScenario(*args)
    return caught.value


@pytest.mark.parametrize("sweep", [sweep_regions, sweep_regions_assumed_c],
                         ids=["plain", "assumed-c"])
@pytest.mark.parametrize("axis_a2, axis_c, game", [
    ([0.1, "x"], [0.5], (0.2, "x", 0.0, 0.0, 0.5, 0.5, 0.25, 0.25)),
    ([0.1], [0.5, "x"], (0.2, 0.1, 0.0, 0.0, "x", "x", "x", "x")),
    ([0.1, [0.1]], [0.5], (0.2, [0.1], 0.0, 0.0, 0.5, 0.5, 0.25, 0.25)),
    ([0.1], [0.5, {}], (0.2, 0.1, 0.0, 0.0, {}, {}, {}, {})),
], ids=["alpha2", "c", "alpha2-unhashable", "c-unhashable"])
def test_a_sweep_value_that_is_not_a_number_raises_its_cells_error(sweep, axis_a2, axis_c, game):
    err = _game_error(*game)
    with pytest.raises(type(err), match=re.escape(str(err))):
        sweep(0.2, axis_a2, axis_c)


def _fields(s) -> list:
    """The scenario's numbers, each tuple field's items in place."""
    return [x for v in vars(s).values() for x in (v if type(v) is tuple else (v,))]


@st.composite
def _numpy_twins(draw):
    """A scenario type, its values cast to numpy float32 (a whole one to int or np.int64), and
    float() of each cast value."""
    s = draw(st.one_of(single_scenarios(), multi_scenarios(max_pools=3), game_scenarios()))

    def cast(v):
        x = np.float32(v)
        return draw(st.sampled_from((int, np.int64)))(x) if x == int(x) else x

    cast_values = [tuple(map(cast, v)) if type(v) is tuple else cast(v) for v in vars(s).values()]
    floats = [tuple(map(float, v)) if type(v) is tuple else float(v) for v in cast_values]
    return type(s), cast_values, floats


_READER = {SinglePoolScenario: reward_single, MultiPoolScenario: reward_npool,
           GameScenario: net_payoffs}


@pytest.mark.filterwarnings("ignore::fawkit.errors.RationalFloorWarning")
@settings(max_examples=40)
@given(_numpy_twins())
def test_numpy_numbers_compute_as_their_float_twins(twins):
    """A scenario stores Python floats, so it computes bit for bit as one built from floats."""
    cls, cast_values, floats = twins
    try:
        want = cls(*floats)
    except FawError as exc:  # float32 rounding may break a budget: the same error then
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            cls(*cast_values)
        return
    got = cls(*cast_values)
    assert all(type(x) is float for x in _fields(got))
    assert list(map(float.hex, _fields(got))) == list(map(float.hex, _fields(want)))
    read = _READER[cls]
    assert repr(read(got)) == repr(read(want))
    runs = [simulate(SimConfig(1000, 5, s)).to_json() for s in (got, want)]
    assert runs[0] == runs[1]


# Every exported callable that takes raw numbers, and sweep_axis, with the kind of each
# argument: a key of _FLOATS or _COUNTS, a tuple of them for a sequence, or "game" for a
# game scenario; a "dist" argument is the honest power the "power" and "third" arguments
# leave, a drawn part of it as one share. rer and classify_winner are left out on purpose:
# they compute on numbers their caller computed and check none of them, as a game sweep
# calls classify_winner on every cell.
_RAW_CALLS = {
    "optimal_tau": (optimal_tau, ("power", "power", "unit")),
    "optimize_allocation": (optimize_allocation, ("third", ("third", "third"), "unit")),
    "reward_two_pools": (reward_two_pools, ("third",) * 3 + ("half",) * 2 + ("unit",) * 2
                         + ("half",) * 2),
    "solve_equilibrium": (
        lambda a1, a2, c1, c2, c1p, c2p, start: solve_equilibrium(a1, a2, c1, c2, c1p, c2p,
                                                                  start=start),
        ("power", "power", "unit", "unit", "half", "half", ("small", "small"))),
    "best_response": (best_response, ("game", "responder")),
    "sweep_regions": (sweep_regions, ("power", ("power", "power"), ("unit", "unit"))),
    "sweep_regions_assumed_c": (sweep_regions_assumed_c,
                                ("power", ("power", "power"), ("unit", "unit"))),
    "sweep_axis": (sweep_axis, ("unit", "unit", "step")),
    "c_max_single": (c_max_single, ("power", "power", "dist")),
    "c_min_rational": (c_min_rational, ("power", "power")),
    "c_from_gamma": (c_from_gamma, ("unit", "power", "power")),
    "selfish_mining_threshold": (selfish_mining_threshold, ("unit",)),
    "gamma_upper_bound": (gamma_upper_bound, ("dist", "power")),
    "detection_resilient_reward": (detection_resilient_reward,
                                   ("power", "power", "unit", "unit", "count")),
    "honeypot_bwh_bound": (honeypot_bwh_bound, ("power", "power", "unit", "count")),
    "bonus_scheme_reward": (bonus_scheme_reward, ("power", "power", "unit", "unit", "unit")),
    "safe_bonus_threshold": (safe_bonus_threshold, ("unit", "unit")),
    "HonestPowerDistribution": (HonestPowerDistribution, (("half", "half"), "unit")),
    "SinglePoolScenario": (SinglePoolScenario, ("power", "power", "unit", "unit")),
    "MultiPoolScenario": (MultiPoolScenario, ("third", ("third", "third"), ("half", "half"),
                                              "unit")),
    "GameScenario": (GameScenario, ("power", "power", "small", "small", "unit", "unit", "half",
                                    "half")),
    "SimConfig": (lambda rounds, seed: simulate(SimConfig(rounds, seed, SINGLE)).to_json_dict(),
                  ("rounds", "seed")),
}
_FLOATS = {"power": st.floats(0.0, 0.49), "third": st.floats(0.001, 0.33),
           "half": st.floats(0.0, 0.5), "unit": st.floats(0.0, 1.0),
           "small": st.floats(0.0, 0.01), "step": st.floats(0.01, 0.5),
           "dist": st.floats(0.0, 1.0)}
_COUNTS = {"count": st.integers(1, 20), "responder": st.integers(1, 2),
           "rounds": st.integers(100, 1000), "seed": st.integers(0, 2**63 - 1)}
# each ends in a FawError wherever an argument is expected
_NOT_AN_ARGUMENT = (None, "0.2", True, math.nan, math.inf, -math.inf, [[0.1]], SINGLE)


def _twin(kind, x):
    """The float an argument of ``kind`` computes as: an int for a count, a list of them for a
    sequence, and a scenario or distribution as it is."""
    if isinstance(kind, tuple):
        return [_twin(k, v) for k, v in zip(kind, x)]
    return int(x) if kind in _COUNTS else x if kind in ("game", "dist") else float(x)


_FORMS = (float, np.float32, np.float64, int, np.int64)


@st.composite
def _calls(draw):
    """For each _RAW_CALLS entry: its name; its arguments, each number a float, numpy float32
    or float64, or when whole an int or numpy int64 (a count an int or numpy int64); and the
    place and value of a malformed argument."""
    def arg(kind):
        if isinstance(kind, tuple):
            return [arg(k) for k in kind]
        if kind == "game":
            return draw(game_scenarios())
        if kind in _COUNTS:
            return draw(st.sampled_from((int, np.int64)))(draw(_COUNTS[kind]))
        x = draw(_FLOATS[kind])
        if kind == "dist":
            return x
        form = draw(st.sampled_from(_FORMS))
        return x if form in (int, np.int64) and x != int(x) else form(x)

    calls = []
    for name, (_, kinds) in _RAW_CALLS.items():
        args = [arg(kind) for kind in kinds]
        if "dist" in kinds:  # a drawn part of the honest power left, the rest atomized
            honest = 1.0 - sum(float(x) for k, x in zip(kinds, args) if k in ("power", "third"))
            i = kinds.index("dist")
            args[i] = HonestPowerDistribution((honest * (1.0 - args[i]),), honest * args[i])
        bad = draw(st.integers(0, len(kinds) - 1)), draw(st.sampled_from(_NOT_AN_ARGUMENT))
        calls.append((name, args, bad))
    return calls


def _leaves(x) -> list:
    """The numbers, strings and bools of a result, through dataclasses, dicts and sequences."""
    if dataclasses.is_dataclass(x):
        x = vars(x)
    if isinstance(x, dict):
        x = list(x.values())
    return [leaf for v in x for leaf in _leaves(v)] if isinstance(x, (list, tuple)) else [x]


def _computes_as_its_float_twin(name, args):
    """The call computes bit for bit as on the float twins of ``args``, and returns Python
    numbers, or raises the twins' error."""
    call, kinds = _RAW_CALLS[name]
    try:
        want = call(*map(_twin, kinds, args))
    except FawError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            call(*args)
        return
    got = call(*args)
    assert {type(x) for x in _leaves(got)} <= {float, int, bool, str}
    assert repr(got) == repr(want)


@pytest.mark.filterwarnings("ignore::fawkit.errors.RationalFloorWarning")
@pytest.mark.filterwarnings("ignore::fawkit.errors.NegativeEffectiveMinersWarning")
@settings(max_examples=6)
@given(_calls())
# each returned a numpy number, or computed in float32, before the checkers returned floats
@example([
    ("optimal_tau", [np.float32(0.2), 0.2, 0.5], (0, None)),
    ("optimize_allocation", [np.float32(0.2), [0.1, 0.2], 1.0], (0, None)),
    ("detection_resilient_reward", [0.2, 0.2, 0.1, 0.5, np.int64(3)], (0, None)),
    ("bonus_scheme_reward", [np.float32(0.2), 0.2, 0.1, 0.5, 0.3], (0, None)),
    ("c_max_single", [np.float32(0.2), 0.1, HonestPowerDistribution([0.7])], (0, None)),
    ("solve_equilibrium", [np.float32(0.2), 0.1, 1, 1, 0.5, 0.5, [0.0, 0.0]], (0, None)),
    ("sweep_regions_assumed_c", [np.float32(0.2), [0.1], [0.5]], (0, None)),
    ("sweep_axis", [np.float32(0.1), 0.3, 0.1], (0, None)),
])
def test_raw_numbers_compute_as_their_float_twins(calls):
    """For each entry of the table, a numpy or int argument computes bit for bit as its float
    twin, or raises the twin's error, and a malformed one, in any place, raises a FawError."""
    for name, args, (i, bad) in calls:
        _computes_as_its_float_twin(name, args)
        with pytest.raises(FawError):
            _RAW_CALLS[name][0](*args[:i], bad, *args[i + 1:])
