"""The public surface: the names ``import fawkit`` exports and the ``faw`` subcommands with
their options. Adding or removing one changes the public API. Also what the surface loads: the
CLI starts with five fawkit modules, and the closed-form commands without numpy."""

import argparse
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import fawkit
import fawkit.reproduce
from fawkit import cli
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


def test_cli_keeps_the_reproduce_names():
    # the benchmark reads fixtures through cli.load_fixture
    for name in ("FIXTURE_NAMES", "load_fixture", "reproduce"):
        assert getattr(cli, name) is getattr(fawkit.reproduce, name)


def _fresh(code, *options):
    """``code``'s stdout, run in a fresh interpreter, given ``options``, that imports fawkit
    from this tree."""
    src = str(Path(fawkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *options, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True).stdout


def test_star_import_binds_every_export():
    star = "from fawkit import *; print(*(n for n in dir() if not n.startswith('_')))"
    names = _fresh(star).split()
    assert set(names) == EXPORTS
    assert len(names) == 57


def test_each_export_is_its_submodules_object():
    for name in EXPORTS:
        value = getattr(fawkit, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"fawkit.{name}"]
        elif name == "POOL_PRESETS":  # plain data, defined where the CLI reads it without numpy
            assert value is fawkit.scenarios.POOL_PRESETS is fawkit.multi_pool.POOL_PRESETS
        else:
            assert value.__module__.startswith("fawkit.")
            assert value is getattr(sys.modules[value.__module__], name)
    with pytest.raises(AttributeError, match="no_such_name"):
        fawkit.no_such_name


# commands that read no game, multi_pool or simulator code
NUMPY_FREE = [
    ["reward-single", "--alpha", "0.2", "--beta", "0.2", "--c", "1"],
    ["counter", "bonus", "--alpha", "0.2", "--beta", "0.2", "--tau", "0.1", "--c", "0.5",
     "--t", "0.3"],
    ["bounds", "c-min", "--alpha", "0.2", "--beta", "0.1"],
    *(["reproduce", fixture] for fixture in ("table1", "cmax-0914", "selfish-009")),
]


def test_closed_form_commands_start_without_numpy():
    # one process for every command; reward-multi must then load numpy, so the check can see it
    code = f"""
import contextlib, io, sys
from fawkit.cli import build_parser, main
build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {NUMPY_FREE!r}]
    before = "numpy" in sys.modules
    codes.append(main(["reward-multi", "--preset", "table2", "--c", "1"]))
print(*codes, before, "numpy" in sys.modules)
"""
    assert _fresh(code).split() == ["0"] * 7 + ["False", "True"]


START = ["fawkit", "fawkit.cli", "fawkit.errors", "fawkit.reproduce", "fawkit.scenarios"]
ABSENT = ("csv", "pathlib", "importlib.resources", "numpy")  # nor does any of them load these


@pytest.mark.parametrize("argv, loads", [
    ([], []),
    (["bounds", "c-min", "--alpha", "0.2", "--beta", "0.1"],
     ["fawkit.bounds", "fawkit.single_pool"]),
    (["reward-single", "--alpha", "0.2", "--beta", "0.2", "--c", "1"], ["fawkit.single_pool"]),
], ids=["start", "bounds", "reward-single"])
def test_the_cli_loads_only_what_its_command_runs(argv, loads):
    # -S: no site hook may import a module first and so hide its import here
    code = f"""
import contextlib, io, sys
from fawkit.cli import build_parser, main
build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r}) if {argv!r} else 0
print(code, *sorted(name for name in sys.modules if name.startswith("fawkit")))
print(*(name for name in {ABSENT!r} if name in sys.modules))
"""
    loaded, absent = _fresh(code, "-S").splitlines()
    assert loaded.split() == ["0", *sorted(START + loads)]
    assert absent == ""
