"""Every public function checks its numbers as a scenario does: a malformed one raises a
FawError that names it, never a raw TypeError, ValueError or AttributeError."""

import re

import pytest

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
from fawkit.scenarios import GameScenario, MultiPoolScenario, SinglePoolScenario

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
    "sim-scenario-none": (lambda: simulate(SimConfig(100, 1, None)), "scenario=None"),
    "preset-list": (lambda: preset_attack([]), "preset []"),
    "dist-none": (lambda: c_max_single(0.2, 0.1, None), "dist=None"),
    "scenario-path-none": (lambda: load_scenario(None), "scenario file None"),
    "responder-bool": (
        lambda: best_response(GameScenario(0.2, 0.1, 0.0, 0.0, 1, 1, 0.5, 0.5), True),
        "responder=True"),
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
