"""The public surface: the names ``import fawkit`` exports and the ``faw`` subcommands with
their options. Adding or removing one changes the public API."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import fawkit
from fawkit.cli import build_parser

EXPORTS = {
    # submodules that the package imports
    "bounds", "errors", "game", "multi_pool", "scenarios", "simulator", "single_pool",
    # bounds
    "HonestPowerDistribution", "bonus_scheme_reward", "c_from_gamma", "c_max_single",
    "c_min_rational", "detection_resilient_reward", "gamma_upper_bound", "honeypot_bwh_bound",
    "safe_bonus_threshold", "selfish_mining_threshold",
    # errors
    "BudgetExceeded", "ConstraintViolated", "DegenerateInput", "FawError",
    "InconsistentDistribution", "NegativeEffectiveMinersWarning", "PowerOutOfRange",
    "RationalFloorWarning", "ScenarioFileError", "TooManyPools", "UnknownFixture",
    # game
    "EquilibriumResult", "RegionCell", "best_response", "classify_winner", "game_payoffs",
    "net_payoffs", "solve_equilibrium", "sweep_regions", "sweep_regions_assumed_c",
    "write_sweep_csv",
    # multi_pool
    "AllocationResult", "POOL_PRESETS", "optimize_allocation", "preset_attack",
    "reward_npool", "reward_two_pools",
    # scenarios
    "GameScenario", "MultiPoolScenario", "SinglePoolScenario", "load_scenario", "rer",
    "scenario_to_dict",
    # simulator
    "SimConfig", "SimOutcome", "simulate",
    # single_pool
    "OptimalTauResult", "optimal_tau", "reward_single", "victim_reward",
}


def test_exported_names_are_pinned():
    # a fresh interpreter: importing fawkit.cli elsewhere in the suite would add "cli"
    src = str(Path(fawkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    listing = "import fawkit; print(*(n for n in dir(fawkit) if not n.startswith('_')))"
    names = subprocess.run([sys.executable, "-c", listing], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert set(names) == EXPORTS
    assert len(names) == 57


_RUN = ("--format", "--output")
_SIM = ("--rounds", "--seed", "--scenario", *_RUN)
_SINGLE = ("--alpha", "--beta", "--c", "--tau")
_MULTI = ("--alpha", "--betas", "--taus", "--c", "--preset")
_GAME = ("--alpha1", "--alpha2", "--f1", "--f2", "--c", "--c1", "--c2", "--c1p", "--c2p")
# subcommand -> its option strings, in --help order, without -h/--help
CLI_SURFACE = {
    "reward-single": (*_SINGLE, "--scenario", *_RUN),
    "sim-single": (*_SINGLE, *_SIM),
    "reward-multi": (*_MULTI, "--scenario", *_RUN),
    "sim-multi": (*_MULTI, *_SIM),
    "reward-game": (*_GAME, "--scenario", *_RUN),
    "sim-game": (*_GAME, *_SIM),
    "game-sweep": ("--alpha1", "--alpha2", "--c", "--assumed-c", *_RUN),
    "bounds": ("--alpha", "--beta", "--gamma", "--shares", "--atomized", *_RUN),
    "counter": ("--alpha", "--beta", "--tau", "--c", "-L", "--identities", "--t", "--pool-power",
                "--c-max", *_RUN),
    "reproduce": _RUN,
}


def test_cli_surface_is_pinned():
    (commands,) = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    surface = {name: tuple(option for action in parser._actions
                           for option in action.option_strings if option not in ("-h", "--help"))
               for name, parser in commands.choices.items()}
    assert surface == CLI_SURFACE
    assert list(surface) == list(CLI_SURFACE)
