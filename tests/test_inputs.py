"""Every public function checks its numbers as a scenario does: a malformed one raises a
FawError that names it, never a raw TypeError, ValueError or AttributeError."""

import re

import numpy as np
import pytest
from conftest import game_scenarios, multi_scenarios, single_scenarios
from hypothesis import given, settings
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
    game_payoffs,
    load_scenario,
    net_payoffs,
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
)
from fawkit.game import sweep_axis
from fawkit.scenarios import GameScenario, MultiPoolScenario, SinglePoolScenario, validate
from fawkit.simulator import simulate_multi

SINGLE = SinglePoolScenario(0.2, 0.2, 0.3, 0.5)

MALFORMED = {
    "selfish-none": (lambda: selfish_mining_threshold(None), "gamma=None"),
    "selfish-str": (lambda: selfish_mining_threshold("0.5"), "gamma='0.5'"),
    "c-from-gamma-str": (lambda: c_from_gamma("x", 0.2, 0.1), "gamma='x'"),
    "bonus-t-none": (lambda: bonus_scheme_reward(0.2, 0.2, 0.1, 0.5, None), "t=None"),
    "bonus-threshold-none": (lambda: safe_bonus_threshold(0.3, None), "c_max=None"),
    "shares-item-str": (lambda: HonestPowerDistribution(["x"]), "shares[0]='x'"),
    "shares-float": (lambda: HonestPowerDistribution(0.3), "shares=0.3"),
    "atomized-str": (lambda: HonestPowerDistribution([0.1], "x"), "atomized_remainder='x'"),
    "two-pools-c-none": (lambda: reward_two_pools(0.2, 0.1, 0.1, 0.1, 0.1, None, 1, 0.5, 0.5),
                         "c1_two=None"),
    "sweep-axis-str": (lambda: sweep_axis("a", 1, 0.1), "start='a'"),
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
