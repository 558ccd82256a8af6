import argparse
import contextlib
import csv
import errno
import io
import json
import os
import re
import shlex
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fawkit import game as game_mod
from fawkit import multi_pool
from fawkit.cli import main, parse_range
from fawkit.errors import UnknownFixture
from fawkit.game import SWEEP_CSV_HEADER
from fawkit.reproduce import FIXTURE_NAMES, load_fixture, reproduce
from fawkit.scenarios import rer
from fawkit.single_pool import optimal_tau

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP_FLAGS = ("game-sweep", "--alpha1", "0.2", "--alpha2", "0.05:0.45:0.05", "--c", "0.1:1.0:0.3")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_range_inclusive_stop():
    vals = parse_range("0.1:0.5:0.1")
    assert len(vals) == 5
    assert vals[0] == pytest.approx(0.1)
    assert vals[-1] == pytest.approx(0.5)
    assert parse_range("0.25") == [0.25]
    # stop off the grid is excluded
    assert parse_range("0:1:0.3")[-1] == pytest.approx(0.9)


@given(st.floats(-10.0, 10.0), st.floats(0.0, 10.0), st.floats(1e-3, 1.0))
def test_parse_range_inclusive_stop_property(start, span, step):
    stop = start + span
    values = parse_range(f"{start!r}:{stop!r}:{step!r}")
    assert values[0] == start
    assert values[-1] <= stop + 1e-12
    assert start + len(values) * step > stop + 1e-12


@pytest.mark.parametrize("text, named", [
    ("0:inf:0.1", "inf"),
    ("0:1:nan", "nan"),
    ("-inf:0:0.1", "-inf"),
    ("0:1:1e-09", "1000000 points"),
])
def test_parse_range_rejects_unbounded_ranges(capsys, text, named):
    with pytest.raises(argparse.ArgumentTypeError, match=named):
        parse_range(text)
    with pytest.raises(SystemExit) as exc:
        main(["game-sweep", "--alpha1", "0.2", f"--alpha2={text}", "--c", "1"])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_readme_cli_lines_parse(capsys, tmp_path):
    """Every faw line of the README's CLI block runs to exit 0, at most 2*10^4 rounds each."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("faw ")]
    assert len(lines) >= 15
    for line in lines:
        argv = shlex.split(line)[1:]
        for i, flag in enumerate(argv[:-1]):
            if flag == "--rounds":
                argv[i + 1] = str(min(int(argv[i + 1]), 20000))
            elif flag == "--output":
                argv[i + 1] = str(tmp_path / argv[i + 1])
        assert run_cli(capsys, *argv)[0] == 0, line


def test_readme_library_tour_runs(capsys):
    """The README's Python block runs and gives the values its comments state."""
    block = README.read_text().split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1]
    names = {}
    exec(block.split("```")[0], names)
    res, alloc = names["res"], names["alloc"]
    assert res.tau_bar == pytest.approx(0.187, abs=5e-4)
    assert res.reward_at_optimum == pytest.approx(0.2035, abs=5e-5)
    assert rer(res.reward_at_optimum, 0.2) == pytest.approx(1.74, abs=5e-3)
    assert (names["alpha"], names["betas"]) == (0.2, (0.2, 0.1, 0.1, 0.1))
    assert alloc.rer_pct == pytest.approx(4.63, abs=5e-3)
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_reward_single_optimal(capsys):
    code, out, _ = run_cli(capsys, "reward-single", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert abs(doc["rer_pct"] - 1.14) <= 0.05
    assert doc["scenario"]["alpha"] == 0.2
    assert doc["pool_rer_pct"] < 0


_SINGLE_AT = ("--alpha", "0.2", "--beta", "0.2", "--c", "0.5")
_SIM_AT = ("--rounds", "20000", "--seed", "4")
_GAME_AT = ("--alpha1", "0.2", "--alpha2", "0.1", "--c", "1")


def _tau(solve):
    return "--tau", repr(solve["tau_bar"])


def _split(solve):
    return "--taus", ",".join(map(repr, solve["taus"]))


def _infiltrations(solve):
    return "--f1", repr(solve["f1_star"]), "--f2", repr(solve["f2_star"])


def _equilibrium():
    return asdict(game_mod.solve_equilibrium(0.2, 0.1, 1.0, 1.0, 0.5, 0.5))


# a subcommand with its strategy omitted, the solve it should record, and the
# flags that give the solved strategy
@pytest.mark.parametrize("argv, solve, strategy", [
    (("reward-single", *_SINGLE_AT), lambda: asdict(optimal_tau(0.2, 0.2, 0.5)), _tau),
    (("sim-single", *_SINGLE_AT, *_SIM_AT), lambda: asdict(optimal_tau(0.2, 0.2, 0.5)), _tau),
    (("reward-multi", "--preset", "table2", "--c", "0.7"),
     lambda: asdict(multi_pool.optimize_allocation(*multi_pool.preset_attack("table2"), 0.7)),
     _split),
    (("sim-multi", "--alpha", "0.15", "--betas", "0.1,0.05,0.05", "--c", "1", *_SIM_AT),
     lambda: asdict(multi_pool.optimize_allocation(0.15, (0.1, 0.05, 0.05), 1.0)), _split),
    (("sim-game", *_GAME_AT, *_SIM_AT), _equilibrium, _infiltrations),
    (("reward-game", *_GAME_AT), _equilibrium, _infiltrations),
], ids=["reward-single", "sim-single", "reward-multi", "sim-multi", "sim-game", "reward-game"])
def test_omitted_strategy_is_solved_for(capsys, argv, solve, strategy):
    """Omitting the strategy gives the run at the solved strategy, bit for bit, plus its solve."""
    code, solved, _ = run_cli(capsys, *argv)
    assert code == 0
    record = solve()
    code, given, _ = run_cli(capsys, *argv, *strategy(record))
    assert code == 0
    solved, given = json.loads(solved), json.loads(given)
    assert "solve" not in given
    assert solved.pop("solve") == json.loads(json.dumps(record))  # tuples as JSON lists
    assert solved == given


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "reward-single", "--alpha", "0.6", "--beta", "0.2",
                           "--c", "0", "--tau", "0.1")
    assert code == 1
    assert "alpha" in err and "majority" in err


def test_optimal_tau_table_format(capsys):
    code, out, _ = run_cli(capsys, "reward-single", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "1", "--format", "table")
    assert code == 0
    table = dict(line.split(None, 1) for line in out.splitlines())
    assert table["solve.method"] == "closed_form"
    assert table["solve.tau_bar"] == table["scenario.tau"]


def test_small_alpha_optimum_is_below_one_half(capsys):
    # the unrationalized closed form put this optimum at tau = 4901
    code, out, _ = run_cli(capsys, "reward-single", "--alpha", "1e-12", "--beta", "1e-8",
                           "--c", "1")
    assert code == 0
    solve = json.loads(out)["solve"]
    assert solve["tau_bar"] < 0.5
    assert solve["method"] == "closed_form"


def test_optimize_alloc_preset(capsys):
    code, out, _ = run_cli(capsys, "reward-multi", "--preset", "table2", "--c", "1")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["rer_pct"] - 4.63) <= 0.05
    assert doc["solve"]["converged"] is True
    assert doc["solve"]["taus"] == doc["scenario"]["taus"]
    assert len(doc["solve"]["taus"]) == 4


def _cap_solves_at_one_round(monkeypatch):
    monkeypatch.setattr(game_mod, "MAX_ITER", 1)


def test_game_solve_and_exit_codes(capsys, monkeypatch):
    """reward-game at the game's solve, and exit 2 when that solve did not converge."""
    code, out, _ = run_cli(capsys, "reward-game", *_GAME_AT)
    assert code == 0
    doc = json.loads(out)
    assert doc["rer1_pct"] > 0 > doc["rer2_pct"]
    _cap_solves_at_one_round(monkeypatch)
    code, out, _ = run_cli(capsys, "reward-game", *_GAME_AT)
    assert code == 2
    assert json.loads(out)["solve"]["converged"] is False


@pytest.mark.parametrize("argv, golden", [
    (SWEEP_FLAGS, "game_sweep.csv"),
    ((*SWEEP_FLAGS, "--assumed-c"), "game_sweep_assumed_c.csv"),
    (("reward-game", "--alpha1", "0.25", "--alpha2", "0.15", "--c1", "0.9", "--c2", "0.7",
      "--c1p", "0.5", "--c2p", "0.3"), "reward_game.json"),
], ids=["sweep", "sweep-assumed-c", "solve"])
def test_game_output_matches_golden(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_optimize_alloc_exits_2_when_sweeps_run_out(capsys, monkeypatch):
    monkeypatch.setattr(multi_pool, "ALLOC_MAX_STEPS", 1)
    for argv in (("reward-multi",), ("sim-multi", "--rounds", "1000")):
        code, out, _ = run_cli(capsys, *argv, "--preset", "table2", "--c", "1")
        assert code == 2
        solve = json.loads(out)["solve"]
        assert solve["converged"] is False
        assert len(solve["taus"]) == 4
        # a given split runs no solve, so it neither records one nor exits 2
        code, out, _ = run_cli(capsys, *argv, "--preset", "table2", "--c", "1",
                               "--taus", "0.12,0.06,0.06,0.06")
        assert code == 0 and "solve" not in json.loads(out)


def test_sim_game_exits_2_when_the_equilibrium_does_not_converge(capsys, monkeypatch):
    _cap_solves_at_one_round(monkeypatch)
    code, out, _ = run_cli(capsys, "sim-game", *_GAME_AT, "--rounds", "1000")
    assert code == 2
    assert json.loads(out)["solve"]["converged"] is False
    code, out, _ = run_cli(capsys, "sim-game", *_GAME_AT, "--f1", "0.05", "--f2", "0.02",
                           "--rounds", "1000")
    assert code == 0 and "solve" not in json.loads(out)


@pytest.mark.parametrize("command, flags", [
    ("reward-multi", ()),
    ("sim-multi", ("--rounds", "1000")),
])
def test_multi_powers_come_from_one_source(capsys, command, flags):
    argv = (command, *flags, "--taus", "0.1,0.1,0.1,0.1")
    code, out, err = run_cli(capsys, *argv, "--preset", "table2", "--alpha", "0.3",
                             "--betas", "0.1", "--c", "1")
    assert (code, out, err) == (1, "", "error: give --preset or --alpha with --betas, not both\n")
    assert run_cli(capsys, *argv, "--preset", "table2", "--betas", "0.1", "--c", "1")[0] == 1
    code, out, err = run_cli(capsys, *argv, "--preset", "table2")
    assert (code, out, err) == (1, "", "error: missing required flag --c\n")
    code, out, err = run_cli(capsys, command, *flags, "--alpha", "0.2", "--betas", "0.1")
    assert (code, out, err) == (1, "", "error: missing required flag --c\n")


def test_game_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "game-sweep", "--alpha1", "0.2",
                           "--alpha2", "0.1:0.3:0.1", "--c", "0.5:1.0:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha2,c,f1,f2,rer1_pct,rer2_pct,winner,converged"
    assert len(lines) == 1 + 3 * 2
    # row-major with c outer
    assert lines[1].startswith("0.1,0.5")
    assert lines[4].startswith("0.1,1")


def test_sim_single_roundtrip_via_scenario_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sim-single", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "1", "--tau", "0.4", "--rounds", "20000",
                           "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    scen = tmp_path / "echo.json"
    scen.write_text(json.dumps(doc["config"]["scenario"]))
    code, out2, _ = run_cli(capsys, "sim-single", "--scenario", str(scen),
                            "--rounds", "20000", "--seed", "42")
    assert code == 0
    assert json.loads(out2) == doc


def test_sim_multi_preset(capsys):
    code, out, _ = run_cli(capsys, "sim-multi", "--preset", "table2",
                           "--taus", "0.12,0.06,0.06,0.06", "--c", "1",
                           "--rounds", "50000", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "multi"
    assert sum(doc["case_counts"].values()) == 50000


def test_omitted_seed_is_42(capsys):
    code, out, _ = run_cli(capsys, "sim-single", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "0", "--tau", "0.1", "--rounds", "1000")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 42


@pytest.mark.parametrize("flags, named", [
    (("--rounds", "0"), "rounds"),
    (("--rounds", "1000", "--seed", "-1"), "seed"),
    (("--rounds", str(2 ** 53 + 1)), "rounds"),
], ids=["rounds-0", "seed-negative", "rounds-past-2^53"])
def test_invalid_sim_input_is_a_typed_error(capsys, flags, named):
    code, out, err = run_cli(capsys, "sim-single", "--alpha", "0.2", "--beta", "0.2",
                             "--c", "0", "--tau", "0.1", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("argv, named", [
    (("reward-game", "--alpha1", "0", "--alpha2", "0.1", "--c", "1"), "alpha1"),
    (("reward-game", "--alpha1", "0.2", "--alpha2", "0", "--c", "1"), "alpha2"),
    (("game-sweep", "--alpha1", "0.2", "--alpha2", "0:0.2:0.1", "--c", "1"), "alpha2"),
    (("sim-game", "--alpha1", "0.2", "--alpha2", "0", "--f1", "0", "--f2", "0", "--c", "1",
      "--rounds", "100"), "alpha2 + f1"),
    (("sim-game", "--alpha1", "0.2", "--alpha2", "0.1", "--f1", "0.05", "--c", "1",
      "--rounds", "100"), "both --f1 and --f2"),
    (("counter", "detection", "--alpha", "0", "--beta", "0.2", "--tau", "0.4", "--c", "0.5"),
     "honest power is zero"),
], ids=["solve-alpha1-0", "solve-alpha2-0", "sweep-alpha2-0", "sim-game-empty-pool",
        "sim-game-one-infiltration", "detection-alpha-0"])
def test_degenerate_input_is_a_typed_error(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_detection_when_the_pool_never_wins(capsys):
    # beta = 0 and c = 0: the infiltrated pool never wins a block
    code, out, _ = run_cli(capsys, "counter", "detection", "--alpha", "0.2", "--beta", "0",
                           "--tau", "0.4", "--c", "0", "-L", "3")
    assert code == 0
    assert json.loads(out)["reward_lower_bound"] == pytest.approx(0.6 * 0.2 / (1 - 0.08))


@pytest.mark.parametrize("argv, line", [
    ("counter detection --alpha 0.2 --beta 0.2 --tau 0.4 --c 0.5",
     "warning: NegativeEffectiveMinersWarning: L - d - 1 went negative and was floored at 0; "
     "expulsions outpace identities\n"),
    ("reward-game --alpha1 0.2 --alpha2 0.1 --c 0.1",
     "warning: RationalFloorWarning: branch-win probability below the rational-manager floor "
     "alpha1 + alpha2\n"),
], ids=("detection", "reward-game"))
def test_warning_is_one_stderr_line(capsys, argv, line):
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert (code, err) == (0, line)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(capsys, *shlex.split(argv)) == (0, out, "")


@pytest.mark.parametrize("argv, count", [
    ("reward-game --f1 0.05 --f2 0.02", 1),
    ("sim-game --f1 0.05 --f2 0.02 --rounds 1000", 1),
    ("reward-game", 2),
    ("sim-game --rounds 1000", 2),
], ids=("reward-game", "sim-game", "reward-game-solved", "sim-game-solved"))
def test_floor_warning_once_per_built_scenario(capsys, argv, count):
    # a solved run builds two scenarios: the solve's start and the equilibrium
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, *shlex.split(argv), "--alpha1", "0.2", "--alpha2", "0.1",
                               "--c", "0.1")
    assert code == 0
    assert err.count("warning: RationalFloorWarning") == count


def test_game_sweep_warns_in_one_stderr_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # the sweep itself must not repeat the warning
        code, _, err = run_cli(capsys, *SWEEP_FLAGS)
    assert code == 0
    assert re.fullmatch(r"warning: RationalFloorWarning: \d+ of 36 sweep plans have a "
                        r"branch-win probability below the rational-manager floor "
                        r"alpha1 \+ alpha2\n", err)


# one scenario file per kind, each valid on its own
_SCENARIO_FILES = {
    "SinglePoolScenario": {"alpha": 0.2, "beta": 0.2, "tau": 0.4, "c": 1.0},
    "MultiPoolScenario": {"alpha": 0.2, "betas": [0.2, 0.1], "taus": [0.1, 0.05], "c": 1.0},
    "GameScenario": {"alpha1": 0.2, "alpha2": 0.1, "f1": 0.05, "f2": 0.02,
                     "c1": 0.5, "c2": 0.5, "c1p": 0.25, "c2p": 0.25},
}
_NEEDED = {"single": "SinglePoolScenario", "multi": "MultiPoolScenario", "game": "GameScenario"}
# each kind's scenario flags, each with a value it parses
_INLINE = {
    "single": {"--alpha": "0.2", "--beta": "0.2", "--c": "1", "--tau": "0.4"},
    "multi": {"--alpha": "0.2", "--betas": "0.1", "--taus": "0.1", "--c": "1",
              "--preset": "table2"},
    "game": {"--alpha1": "0.2", "--alpha2": "0.1", "--f1": "0.05", "--f2": "0.02", "--c": "1",
             "--c1": "0.5", "--c2": "0.5", "--c1p": "0.25", "--c2p": "0.25"},
}
_SCENARIO_COMMANDS = [
    ("reward-single", ()),
    ("reward-multi", ()),
    ("sim-single", ("--rounds", "100")),
    ("sim-multi", ("--rounds", "100")),
    ("sim-game", ("--rounds", "100")),
    ("reward-game", ()),
]


@pytest.mark.parametrize("command, flags", _SCENARIO_COMMANDS)
def test_scenario_file_of_another_kind_is_rejected(capsys, tmp_path, command, flags):
    needed = _NEEDED[command.split("-")[1]]
    for kind, doc in _SCENARIO_FILES.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--scenario", str(path), *flags)
        if kind == needed:
            assert code == 0
            continue
        assert code == 1
        assert out == ""
        assert err == f"error: scenario file holds a {kind}, need {needed}\n"


@pytest.mark.parametrize("command, flags", _SCENARIO_COMMANDS)
def test_scenario_file_with_a_scenario_flag_is_rejected(capsys, tmp_path, command, flags):
    kind = command.split("-")[1]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_SCENARIO_FILES[_NEEDED[kind]]))
    for flag, value in _INLINE[kind].items():
        code, out, err = run_cli(capsys, command, "--scenario", str(path), *flags, flag, value)
        assert (code, out, err) == (1, "", f"error: give --scenario or {flag}, not both\n")


@pytest.mark.parametrize("command", ["sim-single", "sim-multi", "sim-game"])
def test_scenario_file_takes_the_run_flags(capsys, tmp_path, command):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_SCENARIO_FILES[_NEEDED[command.split("-")[1]]]))
    dest = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, command, "--scenario", str(path), "--rounds", "100",
                             "--seed", "3", "--format", "csv",
                             "--output", str(dest))
    assert (code, out, err) == (0, "", "")
    assert len(dest.read_text().splitlines()) == 2


def test_scenario_path_may_start_with_a_brace(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("{run}.json").write_text(json.dumps(_SCENARIO_FILES["SinglePoolScenario"]))
    code, out, _ = run_cli(capsys, "reward-single", "--scenario", "{run}.json")
    assert code == 0
    assert json.loads(out)["scenario"] == _SCENARIO_FILES["SinglePoolScenario"]


@pytest.mark.parametrize("command, flags", [
    ("reward-game", ()),
    ("sim-game", ("--rounds", "100")),
])
@pytest.mark.parametrize("split", ["--c1", "--c2", "--c1p", "--c2p"])
def test_game_costs_come_from_one_source(capsys, command, flags, split):
    code, out, err = run_cli(capsys, command, *_GAME_AT, *flags, split, "0.3")
    assert (code, out, err) == (1, "", "error: give --c or --c1/--c2/--c1p/--c2p, not both\n")


def test_bounds_commands(capsys):
    code, out, _ = run_cli(capsys, "bounds", "c-max", "--alpha", "0.2", "--beta", "0.1",
                           "--shares", "0.2,0.1,0.1", "--atomized", "0.3")
    assert code == 0
    assert abs(json.loads(out)["c_max"] - 0.914) <= 0.001
    code, out, _ = run_cli(capsys, "bounds", "selfish-threshold", "--gamma", "0.89")
    assert code == 0
    assert 0.0899 <= json.loads(out)["threshold"] <= 0.0905


def test_counter_commands(capsys):
    code, out, _ = run_cli(capsys, "counter", "bonus-threshold",
                           "--pool-power", "0.3", "--c-max", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["threshold"] == pytest.approx(1 / 0.6)
    assert doc["feasible"] is False
    code, out, _ = run_cli(capsys, "counter", "detection", "--alpha", "0.2",
                           "--beta", "0.2", "--tau", "0.4", "--c", "0.5", "-L", "10")
    assert code == 0
    doc = json.loads(out)
    # expulsions cost the attacker versus the unguarded reward
    from fawkit.scenarios import SinglePoolScenario
    from fawkit.single_pool import reward_single
    unguarded = reward_single(SinglePoolScenario(0.2, 0.2, 0.4, 0.5))
    assert 0.0 < doc["reward_lower_bound"] < unguarded


# every analytic with the flags it is run with, those it cannot do without,
# and one it does not read
ANALYTICS = [
    ("bounds c-max", {"--alpha": "0.2", "--beta": "0.1", "--shares": "0.2,0.1,0.1",
                      "--atomized": "0.3"}, ("--alpha", "--beta"), ("--gamma", "0.5")),
    ("bounds c-min", {"--alpha": "0.2", "--beta": "0.1"}, ("--alpha", "--beta"),
     ("--atomized", "0")),
    ("bounds c-from-gamma", {"--gamma": "0.5", "--alpha": "0.2", "--beta": "0.1"},
     ("--gamma", "--alpha", "--beta"), ("--shares", "0.2")),
    ("bounds selfish-threshold", {"--gamma": "0.89"}, ("--gamma",), ("--alpha", "0.3")),
    ("bounds gamma-bound", {"--alpha": "0.2", "--shares": "0.5,0.3"}, ("--alpha",),
     ("--beta", "0.1")),
    ("counter detection", {"--alpha": "0.2", "--beta": "0.2", "--tau": "0.4", "--c": "0.5",
                           "-L": "10"}, ("--alpha", "--beta", "--tau", "--c"), ("--t", "0.1")),
    ("counter honeypot", {"--alpha": "0.2", "--beta": "0.2", "--tau": "0.4", "-L": "10"},
     ("--alpha", "--beta", "--tau"), ("--c", "0.5")),
    ("counter bonus", {"--alpha": "0.2", "--beta": "0.2", "--tau": "0.4", "--c": "0.5",
                       "--t": "0.1"}, ("--alpha", "--beta", "--tau", "--c", "--t"),
     ("-L", "1")),
    ("counter bonus-threshold", {"--pool-power": "0.3", "--c-max": "0.5"},
     ("--pool-power", "--c-max"), ("--tau", "0.9")),
]
_ANALYTIC_IDS = [command.split()[1] for command, *_ in ANALYTICS]


@pytest.mark.parametrize("command, flags, required, _", ANALYTICS, ids=_ANALYTIC_IDS)
def test_analytic_needs_every_flag_it_reads(capsys, command, flags, required, _):
    def argv(without=None):
        pairs = [item for flag, value in flags.items() if flag != without
                 for item in (flag, value)]
        return (*command.split(), *pairs)

    assert run_cli(capsys, *argv())[0] == 0
    for flag in required:
        assert run_cli(capsys, *argv(without=flag)) == (
            1, "", f"error: missing required flag {flag}\n")


@pytest.mark.parametrize("command, flags, _, unread", ANALYTICS, ids=_ANALYTIC_IDS)
def test_analytic_rejects_a_flag_it_does_not_read(capsys, command, flags, _, unread):
    """Even at its default value, a flag the analytic does not read ends the run."""
    argv = (*command.split(), *(item for pair in flags.items() for item in pair), *unread)
    what, flag = command.split()[1], unread[0]
    assert run_cli(capsys, *argv) == (1, "", f"error: {what} does not read {flag}\n")


@pytest.mark.parametrize("argv, named", [
    (("c-min", "--alpha", "0.7", "--beta", "0.9"), "alpha=0.7 reaches the majority guard"),
    (("c-from-gamma", "--gamma", "0.5", "--alpha", "-1", "--beta", "0.9"),
     "alpha=-1.0 outside [0, 1]"),
    (("gamma-bound", "--alpha", "0.9", "--atomized", "0.1"), "alpha=0.9 reaches the majority guard"),
    (("c-max", "--alpha", "0.6", "--beta", "0.1", "--atomized", "0.3"),
     "alpha=0.6 reaches the majority guard"),
    (("c-max", "--alpha", "0.2", "--beta", "0.1", "--shares", "0.2,0.1,0.1", "--atomized", "nan"),
     "atomized_remainder=nan"),
    (("c-max", "--alpha", "0.2", "--beta", "0.1", "--shares", "nan,0.7"), "shares[0]=nan"),
], ids=["c-min-majority", "c-from-gamma-negative", "gamma-bound-majority", "c-max-majority",
        "c-max-nan-atomized", "c-max-nan-share"])
def test_bounds_reject_impossible_powers(capsys, argv, named):
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err


def test_csv_output_is_one_header_and_one_row(capsys):
    code, out, _ = run_cli(capsys, "reward-single", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "1", "--format", "csv")
    assert code == 0
    header, row = (line.split(",") for line in out.splitlines())
    assert header[:3] == ["schema_version", "scenario.alpha", "scenario.beta"]
    assert row[:3] == ["1", "0.2", "0.2"]
    solve = [f"solve.{key}" for key in asdict(optimal_tau(0.2, 0.2, 1.0))]
    assert header[-len(solve):] == solve
    assert len(row) == len(header)


def test_sim_csv_records_the_solve(capsys):
    argv = ("sim-multi", "--preset", "table2", "--c", "1", "--rounds", "1000")
    solve = json.loads(run_cli(capsys, *argv)[1])["solve"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert header[-len(solve):] == [f"solve.{key}" for key in solve]
    fields = dict(zip(header, row))
    assert json.loads(fields["solve.taus"]) == solve["taus"]
    assert fields["solve.converged"] == "True"


@pytest.mark.parametrize("kind, flags", [
    ("single", ("--alpha", "0.2", "--beta", "0.2", "--c", "1", "--tau", "0.4")),
    ("multi", ("--preset", "table2", "--taus", "0.12,0.06,0.06,0.06", "--c", "1")),
    ("game", ("--alpha1", "0.2", "--alpha2", "0.1", "--f1", "0.05", "--f2", "0.02",
              "--c", "1")),
])
def test_sim_csv_and_table_match_json(capsys, kind, flags):
    """CSV and table both hold the flattened JSON document: the same keys, the same values."""
    argv = (f"sim-{kind}", *flags, "--rounds", "5000", "--seed", "9")
    doc = json.loads(run_cli(capsys, *argv)[1])
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert len(header) == len(row)
    csv_doc = dict(zip(header, row))
    assert (csv_doc["kind"], csv_doc["config.rounds"], csv_doc["config.seed"]) == (kind, "5000",
                                                                                    "9")
    for tag, count in doc["case_counts"].items():
        assert int(csv_doc[f"case_counts.{tag}"]) == count
    for actor, total in doc["reward_sums"].items():
        assert float(csv_doc[f"reward_means.{actor}"]) == total / 5000
    code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 0
    table = dict(line.split(None, 1) for line in out.splitlines())
    assert table == csv_doc
    assert table["kind"] == kind
    assert table["config.rounds"] == "5000"
    assert table["rng.block_rounds"] == str(doc["rng"]["block_rounds"])
    for actor, total in doc["reward_sums"].items():
        assert float(table[f"reward_sums.{actor}"]) == total


def test_game_sweep_json_matches_csv(capsys):
    code, out, _ = run_cli(capsys, *SWEEP_FLAGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha1"] == 0.2 and doc["assumed_c"] is False
    rows = (GOLDEN / "game_sweep.csv").read_text().splitlines()[1:]
    assert len(doc["cells"]) == len(rows) == 36
    for cell, row in zip(doc["cells"], rows):
        assert tuple(cell) == SWEEP_CSV_HEADER
        assert row.split(",")[-2:] == [cell["winner"], str(cell["converged"]).lower()]
        assert float(row.split(",")[2]) == pytest.approx(cell["f1"], abs=1e-12)


def test_output_to_file(capsys, tmp_path):
    dest = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "reward-single", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "0", "--output", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["solve"]["method"] == "closed_form"


def test_reproduce_fixtures_cheap_ones(capsys):
    for name in FIXTURE_NAMES:
        code, out, _ = run_cli(capsys, "reproduce", name)
        assert code == 0, out
        assert "result: PASS" in out


def test_reproduce_json_format(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "selfish-009", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(row["ok"] for row in doc["checks"])


def test_unknown_fixture_raises():
    with pytest.raises(UnknownFixture):
        load_fixture("bogus")


def test_reproduce_api():
    ok, rows = reproduce("case4")
    assert ok
    assert {r["check"] for r in rows} == {"bwh_rer_pct", "faw_rer_pct", "improvement_pct"}


@pytest.mark.parametrize("c", ["1.5", "-0.5"])
def test_assumed_c_axis_out_of_range_is_a_typed_error(capsys, c):
    code, out, err = run_cli(capsys, "game-sweep", "--alpha1", "0.2", "--alpha2", "0.1",
                             f"--c={c}", "--assumed-c")
    assert (code, out, err) == (1, "", f"error: c1={c} outside [0, 1]\n")


@pytest.mark.parametrize("argv", [
    ("reward-single", *_SINGLE_AT),
    ("reward-game", *_GAME_AT, "--format", "table"),
    ("game-sweep", "--alpha1", "0.2", "--alpha2", "0.1", "--c", "1"),
], ids=["reward-single", "reward-game", "game-sweep"])
@pytest.mark.parametrize("where, reason", [
    ("missing/out.json", errno.ENOENT),
    (".", errno.EISDIR),
], ids=["missing-directory", "directory"])
def test_unwritable_output_is_a_typed_error(capsys, tmp_path, argv, where, reason):
    dest = tmp_path / where
    code, out, err = run_cli(capsys, *argv, "--output", str(dest))
    assert (code, out, err) == (1, "", f"error: cannot write {dest}: {os.strerror(reason)}\n")


@pytest.mark.parametrize("argv, emitted, ignored", [
    (SWEEP_FLAGS, ("csv", "json"), "table"),
    (("reproduce", "selfish-009"), ("table", "json"), "csv"),
], ids=["game-sweep", "reproduce"])
def test_format_is_one_the_subcommand_emits(capsys, argv, emitted, ignored):
    """The default first; a format the subcommand would not emit is an argparse error."""
    outputs = [run_cli(capsys, *argv, "--format", fmt) for fmt in emitted]
    assert [code for code, _, _ in outputs] == [0, 0]
    assert run_cli(capsys, *argv)[1] == outputs[0][1]
    assert outputs[1][1].startswith("{")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", ignored])
    assert exc.value.code == 2
    assert f"invalid choice: '{ignored}'" in capsys.readouterr().err


# the first two values of each flag are valid on their own
_NUMBERS = ("0.1", "0.2", "0", "0.3", "0.49", "0.5", "1", "1.5", "-0.5", "1e-300",
            "nan", "inf", "-inf")
_JUNK = ("junk", "")
_GAME = {flag: _NUMBERS for flag in ("--alpha1", "--alpha2", "--c", "--c1", "--c2", "--c1p",
                                      "--c2p")}
_SINGLE = {"--alpha": _NUMBERS, "--beta": _NUMBERS, "--c": _NUMBERS, "--tau": _NUMBERS}
_POOLS = ("0.1", "0.1,0.2", "0.2,0.1,0.05", "0.3,0.3", "nan,0.1", "-0.1", "0,0")
_MULTI = {"--alpha": _NUMBERS, "--betas": _POOLS, "--c": _NUMBERS,
          "--preset": tuple(sorted(multi_pool.POOL_PRESETS))}
# every sim run is small
_SIM = {"--rounds": ("1", "2000", "0", "-1"), "--seed": ("1", "0", "-1", str(2**64))}
# a range flag gives at most a few points: a small step on both axes asks for 10^12 cells
_RANGES = ("0.1", "0.05:0.15:0.05", "0:1:0.5", "0.3:0.1:0.1", "0:1:0", "0:nan:0.1", "0:1:1e-9",
           "nan", "1.5", "-0.5")
# subcommand -> flag -> values ("" is the positional argument, () a switch)
_FUZZ = {
    "reward-single": _SINGLE,
    "reward-multi": {**_MULTI, "--taus": _POOLS},
    "reward-game": {**_GAME, "--f1": _NUMBERS, "--f2": _NUMBERS},
    "game-sweep": {"--alpha1": _NUMBERS, "--alpha2": _RANGES, "--c": _RANGES,
                   "--assumed-c": ()},
    "sim-single": {**_SINGLE, **_SIM},
    "sim-multi": {**_MULTI, "--taus": _POOLS, **_SIM},
    "sim-game": {**_GAME, "--f1": _NUMBERS, "--f2": _NUMBERS, **_SIM},
    "bounds": {"": ("c-max", "c-min", "c-from-gamma", "selfish-threshold", "gamma-bound"),
               "--alpha": _NUMBERS, "--beta": _NUMBERS, "--gamma": _NUMBERS,
               "--shares": ("0.1", "0.2,0.3", "0.5,0.6", "nan"), "--atomized": _NUMBERS},
    "counter": {"": ("detection", "honeypot", "bonus", "bonus-threshold"),
                "--alpha": _NUMBERS, "--beta": _NUMBERS, "--tau": _NUMBERS, "--c": _NUMBERS,
                "-L": ("1", "3", "0", "-1", "1000000", str(10**400)), "--t": _NUMBERS,
                "--pool-power": _NUMBERS, "--c-max": _NUMBERS},
}
# flags argparse requires
_ALWAYS = {"", "--rounds", "--alpha1", "--alpha2", "game-sweep --c"}


@st.composite
def _cli_argvs(draw):
    """A subcommand and a flag set: valid values only, any values, or any values and junk."""
    command = draw(st.sampled_from(sorted(_FUZZ)))
    mode = draw(st.sampled_from(("valid", "any", "junk")))
    argv = [command]
    for flag, values in _FUZZ[command].items():
        if flag in _ALWAYS or f"{command} {flag}" in _ALWAYS or draw(st.booleans()):
            if not values:
                argv.append(flag)
                continue
            if mode == "valid" and flag not in ("", "--preset"):
                values = values[:2]
            elif mode == "junk":
                values += _JUNK
            value = draw(st.sampled_from(values))
            argv.append(value if flag == "" else f"{flag}={value}")
    if draw(st.booleans()):
        formats = ("json", "csv", "table") + (_JUNK if mode == "junk" else ())
        argv.append(f"--format={draw(st.sampled_from(formats))}")
    return argv


@settings(max_examples=150)
@given(_cli_argvs())
def test_no_flag_set_escapes_main(argv):
    """Any flag set ends in exit 0, 1 or 2: nothing but SystemExit leaves main."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
