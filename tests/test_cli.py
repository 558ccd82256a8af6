import argparse
import contextlib
import io
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fawkit import multi_pool
from fawkit.cli import build_parser, main, parse_range
from fawkit.errors import UnknownFixture
from fawkit.game import SWEEP_CSV_HEADER
from fawkit.reproduce import FIXTURE_NAMES, load_fixture, reproduce

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


def test_readme_cli_lines_parse():
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("faw ")]
    assert len(lines) >= 15
    for line in lines:
        argv = shlex.split(line)[1:]
        assert build_parser().parse_args(argv).command == argv[0]


def test_reward_single_optimal(capsys):
    code, out, _ = run_cli(capsys, "reward-single", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "0", "--optimal-tau")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert abs(doc["rer_pct"] - 1.14) <= 0.05
    assert doc["scenario"]["alpha"] == 0.2
    assert doc["pool_rer_pct"] < 0


def test_reward_single_tau_auto_matches_flag(capsys):
    _, out_a, _ = run_cli(capsys, "reward-single", "--alpha", "0.2", "--beta", "0.2",
                          "--c", "0.5", "--tau", "auto")
    _, out_b, _ = run_cli(capsys, "reward-single", "--alpha", "0.2", "--beta", "0.2",
                          "--c", "0.5", "--optimal-tau")
    assert json.loads(out_a) == json.loads(out_b)


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "reward-single", "--alpha", "0.6", "--beta", "0.2",
                           "--c", "0", "--tau", "0.1")
    assert code == 1
    assert "alpha" in err and "majority" in err


def test_optimal_tau_table_format(capsys):
    code, out, _ = run_cli(capsys, "optimal-tau", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "1", "--format", "table")
    assert code == 0
    assert "tau_bar" in out
    assert "closed_form" in out


def test_optimize_alloc_preset(capsys):
    code, out, _ = run_cli(capsys, "optimize-alloc", "--preset", "table2", "--c", "1")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["rer_pct"] - 4.63) <= 0.05
    assert doc["converged"]
    assert len(doc["taus"]) == 4


def test_game_solve_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "game-solve", "--alpha1", "0.2", "--alpha2", "0.1",
                           "--c", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["rer1_pct"] > 0 > doc["rer2_pct"]
    code, out, _ = run_cli(capsys, "game-solve", "--alpha1", "0.2", "--alpha2", "0.1",
                           "--c", "1", "--max-iter", "1")
    assert code == 2
    assert json.loads(out)["converged"] is False


@pytest.mark.parametrize("argv, golden", [
    (SWEEP_FLAGS, "game_sweep.csv"),
    ((*SWEEP_FLAGS, "--assumed-c"), "game_sweep_assumed_c.csv"),
    (("game-solve", "--alpha1", "0.25", "--alpha2", "0.15", "--c1", "0.9", "--c2", "0.7",
      "--c1p", "0.5", "--c2p", "0.3"), "game_solve.json"),
], ids=["sweep", "sweep-assumed-c", "solve"])
def test_game_output_matches_golden(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_optimize_alloc_exits_2_when_sweeps_run_out(capsys, monkeypatch):
    monkeypatch.setattr(multi_pool, "ALLOC_MAX_SWEEPS", 1)
    code, out, _ = run_cli(capsys, "optimize-alloc", "--preset", "table2", "--c", "1")
    assert code == 2
    doc = json.loads(out)
    assert doc["converged"] is False
    assert len(doc["taus"]) == 4


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


def test_sim_game_equilibrium(capsys):
    code, out, _ = run_cli(capsys, "sim-game", "--alpha1", "0.2", "--alpha2", "0.1",
                           "--c", "1", "--equilibrium", "--rounds", "50000",
                           "--seed", "4")
    assert code == 0
    doc = json.loads(out)
    assert "pool1" in doc["gross_reward_means"]


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FAW_SEED", "12345")
    code, out, _ = run_cli(capsys, "sim-single", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "0", "--tau", "0.1", "--rounds", "1000")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 12345


@pytest.mark.parametrize("flags, seed_env, named", [
    (("--rounds", "0"), None, "rounds"),
    (("--rounds", "1000", "--workers", "0"), None, "workers"),
    (("--rounds", "1000", "--seed", "-1"), None, "seed"),
    (("--rounds", "1000"), "abc", "FAW_SEED"),
], ids=["rounds-0", "workers-0", "seed-negative", "seed-env-not-int"])
def test_invalid_sim_input_is_a_typed_error(capsys, monkeypatch, flags, seed_env, named):
    if seed_env is not None:
        monkeypatch.setenv("FAW_SEED", seed_env)
    code, out, err = run_cli(capsys, "sim-single", "--alpha", "0.2", "--beta", "0.2",
                             "--c", "0", "--tau", "0.1", *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("command, alpha2, flag, value", [
    ("game-solve", "0.1", "--tol", "0"),
    ("game-sweep", "0.1:0.2:0.1", "--tol", "0"),
    ("game-solve", "0.1", "--tol", "nan"),
    ("game-solve", "0.1", "--max-iter", "0"),
    ("game-solve", "0.1", "--tol", "1e-9"),
    ("game-sweep", "0.1:0.2:0.1", "--tol", "1e-9"),
], ids=["solve-0", "sweep-0", "solve-nan", "solve-max-iter-0", "solve-1e-9", "sweep-1e-9"])
def test_bad_tol_is_a_typed_error(capsys, command, alpha2, flag, value):
    code, out, err = run_cli(capsys, command, "--alpha1", "0.2", "--alpha2", alpha2,
                             "--c", "1", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (("game-solve", "--alpha1", "0", "--alpha2", "0.1", "--c", "1"), "alpha1"),
    (("game-solve", "--alpha1", "0.2", "--alpha2", "0", "--c", "1"), "alpha2"),
    (("game-sweep", "--alpha1", "0.2", "--alpha2", "0:0.2:0.1", "--c", "1"), "alpha2"),
    (("sim-game", "--alpha1", "0.2", "--alpha2", "0", "--f1", "0", "--f2", "0", "--c", "1",
      "--rounds", "100"), "alpha2 + f1"),
    (("counter", "detection", "--alpha", "0", "--beta", "0.2", "--tau", "0.4", "--c", "0.5"),
     "honest power is zero"),
], ids=["solve-alpha1-0", "solve-alpha2-0", "sweep-alpha2-0", "sim-game-empty-pool",
        "detection-alpha-0"])
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
    ("game-solve --alpha1 0.2 --alpha2 0.1 --c 0.1",
     "warning: RationalFloorWarning: branch-win probability below the rational-manager floor "
     "alpha1 + alpha2\n"),
], ids=("detection", "game-solve"))
def test_warning_is_one_stderr_line(capsys, argv, line):
    code, out, err = run_cli(capsys, *shlex.split(argv))
    assert (code, err) == (0, line)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(capsys, *shlex.split(argv)) == (0, out, "")


def test_game_sweep_warns_in_one_stderr_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # the sweep itself must not repeat the warning
        code, _, err = run_cli(capsys, *SWEEP_FLAGS)
    assert code == 0
    assert re.fullmatch(r"warning: RationalFloorWarning: \d+ of 36 sweep plans have a "
                        r"branch-win probability below the rational-manager floor "
                        r"alpha1 \+ alpha2\n", err)


@pytest.mark.parametrize("command, flags", [
    ("reward-single", ()),
    ("reward-multi", ()),
    ("sim-single", ("--rounds", "100")),
    ("sim-multi", ("--rounds", "100")),
    ("sim-game", ("--rounds", "100")),
])
def test_scenario_file_of_another_kind_is_rejected(capsys, tmp_path, command, flags):
    files = {
        "SinglePoolScenario": {"alpha": 0.2, "beta": 0.2, "tau": 0.4, "c": 1.0},
        "MultiPoolScenario": {"alpha": 0.2, "betas": [0.2, 0.1], "taus": [0.1, 0.05], "c": 1.0},
        "GameScenario": {"alpha1": 0.2, "alpha2": 0.1, "f1": 0.05, "f2": 0.02,
                         "c1": 0.5, "c2": 0.5, "c1p": 0.25, "c2p": 0.25},
    }
    needed = {"single": "SinglePoolScenario", "multi": "MultiPoolScenario",
              "game": "GameScenario"}[command.split("-")[1]]
    for kind, doc in files.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, "--scenario", str(path), *flags)
        if kind == needed:
            assert code == 0
            continue
        assert code == 1
        assert out == ""
        assert err == f"error: scenario file holds a {kind}, need {needed}\n"


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


# every analytic with the flags it is run with and those it cannot do without
ANALYTICS = [
    ("bounds c-max", {"--alpha": "0.2", "--beta": "0.1", "--shares": "0.2,0.1,0.1",
                      "--atomized": "0.3"}, ("--alpha", "--beta")),
    ("bounds c-min", {"--alpha": "0.2", "--beta": "0.1"}, ("--alpha", "--beta")),
    ("bounds c-from-gamma", {"--gamma": "0.5", "--alpha": "0.2", "--beta": "0.1"},
     ("--gamma", "--alpha", "--beta")),
    ("bounds selfish-threshold", {"--gamma": "0.89"}, ("--gamma",)),
    ("bounds gamma-bound", {"--alpha": "0.2", "--shares": "0.5,0.3"}, ("--alpha",)),
    ("counter detection", {"--alpha": "0.2", "--beta": "0.2", "--tau": "0.4", "--c": "0.5",
                           "-L": "10"}, ("--alpha", "--beta", "--tau", "--c")),
    ("counter honeypot", {"--alpha": "0.2", "--beta": "0.2", "--tau": "0.4", "-L": "10"},
     ("--alpha", "--beta", "--tau")),
    ("counter bonus", {"--alpha": "0.2", "--beta": "0.2", "--tau": "0.4", "--c": "0.5",
                       "--t": "0.1"}, ("--alpha", "--beta", "--tau", "--c", "--t")),
    ("counter bonus-threshold", {"--pool-power": "0.3", "--c-max": "0.5"},
     ("--pool-power", "--c-max")),
]


@pytest.mark.parametrize("command, flags, required", ANALYTICS,
                         ids=[command.split()[1] for command, _, _ in ANALYTICS])
def test_analytic_needs_every_flag_it_reads(capsys, command, flags, required):
    def argv(without=None):
        pairs = [item for flag, value in flags.items() if flag != without
                 for item in (flag, value)]
        return (*command.split(), *pairs)

    assert run_cli(capsys, *argv())[0] == 0
    for flag in required:
        assert run_cli(capsys, *argv(without=flag)) == (
            1, "", f"error: missing required flag {flag}\n")


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
    code, out, _ = run_cli(capsys, "optimal-tau", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "1", "--format", "csv")
    assert code == 0
    header, row = (line.split(",") for line in out.splitlines())
    assert header[:4] == ["schema_version", "alpha", "beta", "c"]
    assert row[:4] == ["1", "0.2", "0.2", "1.0"]
    assert len(row) == len(header)


@pytest.mark.parametrize("kind, flags", [
    ("single", ("--alpha", "0.2", "--beta", "0.2", "--c", "1", "--tau", "0.4")),
    ("multi", ("--preset", "table2", "--taus", "0.12,0.06,0.06,0.06", "--c", "1")),
    ("game", ("--alpha1", "0.2", "--alpha2", "0.1", "--f1", "0.05", "--f2", "0.02",
              "--c", "1")),
])
def test_sim_csv_and_table_match_json(capsys, kind, flags):
    argv = (f"sim-{kind}", *flags, "--rounds", "5000", "--seed", "9")
    doc = json.loads(run_cli(capsys, *argv)[1])
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, row = (line.split(",") for line in out.splitlines())
    assert len(header) == len(row)
    csv_doc = dict(zip(header, row))
    assert (csv_doc["kind"], csv_doc["rounds"], csv_doc["seed"]) == (kind, "5000", "9")
    for tag, count in doc["case_counts"].items():
        assert int(csv_doc[tag]) == count
    for actor, total in doc["reward_sums"].items():
        assert float(csv_doc[f"{actor}_mean"]) == total / 5000
    code, out, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 0
    table = dict(line.split(None, 1) for line in out.splitlines())
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
    code, out, _ = run_cli(capsys, "optimal-tau", "--alpha", "0.2", "--beta", "0.2",
                           "--c", "0", "--output", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["method"] == "closed_form"


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
    ("game-solve", "--alpha2", "0.1"),
    ("game-sweep", "--alpha2", "0.1:0.2:0.1"),
    ("game-sweep", "--alpha2", "0.1:0.2:0.1", "--assumed-c"),
], ids=["solve", "sweep", "sweep-assumed-c"])
def test_infinite_tol_is_a_typed_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--alpha1", "0.2", "--c", "1", "--tol", "inf")
    assert (code, out, err) == (1, "", "error: tol=inf must be finite\n")


# the first two values of each flag are valid on their own
_NUMBERS = ("0.1", "0.2", "0", "0.3", "0.49", "0.5", "1", "1.5", "-0.5", "1e-300",
            "nan", "inf", "-inf")
_JUNK = ("junk", "")
_GAME = {flag: _NUMBERS for flag in ("--alpha1", "--alpha2", "--c", "--c1", "--c2", "--c1p",
                                      "--c2p")}
_SINGLE = {"--alpha": _NUMBERS, "--beta": _NUMBERS, "--c": _NUMBERS, "--tau": _NUMBERS + ("auto",)}
_POOLS = ("0.1", "0.1,0.2", "0.2,0.1,0.05", "0.3,0.3", "nan,0.1", "-0.1", "0,0")
_MULTI = {"--alpha": _NUMBERS, "--betas": _POOLS, "--c": _NUMBERS,
          "--preset": tuple(sorted(multi_pool.POOL_PRESETS))}
# every sim run is small and on at most two threads
_SIM = {"--rounds": ("1", "2000", "0", "-1"), "--workers": ("1", "2"),
        "--seed": ("1", "0", "-1", str(2**64))}
# a range flag gives at most a few points: a small step on both axes asks for 10^12 cells
_RANGES = ("0.1", "0.05:0.15:0.05", "0:1:0.5", "0.3:0.1:0.1", "0:1:0", "0:nan:0.1", "0:1:1e-9",
           "nan", "1.5", "-0.5")
_TOLS = ("1e-7", "5e-8", "1e-3", "1e-9", "0", "-1", "nan", "inf")
# subcommand -> flag -> values ("" is the positional argument, () a switch)
_FUZZ = {
    "reward-single": {**_SINGLE, "--optimal-tau": ()},
    "optimal-tau": {"--alpha": _NUMBERS, "--beta": _NUMBERS, "--c": _NUMBERS},
    "reward-multi": {**_MULTI, "--taus": _POOLS},
    "optimize-alloc": {**_MULTI, "--budget": _NUMBERS},
    "game-solve": {**_GAME, "--tol": _TOLS, "--max-iter": ("50", "1", "0", "-1")},
    "game-sweep": {"--alpha1": _NUMBERS, "--alpha2": _RANGES, "--c": _RANGES,
                   "--assumed-c": (), "--tol": _TOLS},
    "sim-single": {**_SINGLE, **_SIM},
    "sim-multi": {**_MULTI, "--taus": _POOLS, **_SIM},
    "sim-game": {**_GAME, "--f1": _NUMBERS, "--f2": _NUMBERS, "--equilibrium": (), **_SIM},
    "bounds": {"": ("c-max", "c-min", "c-from-gamma", "selfish-threshold", "gamma-bound"),
               "--alpha": _NUMBERS, "--beta": _NUMBERS, "--gamma": _NUMBERS,
               "--shares": ("0.1", "0.2,0.3", "0.5,0.6", "nan"), "--atomized": _NUMBERS},
    "counter": {"": ("detection", "honeypot", "bonus", "bonus-threshold"),
                "--alpha": _NUMBERS, "--beta": _NUMBERS, "--tau": _NUMBERS, "--c": _NUMBERS,
                "-L": ("1", "3", "0", "-1", "1000000"), "--t": _NUMBERS,
                "--pool-power": _NUMBERS, "--c-max": _NUMBERS},
}
# flags argparse requires, and --workers, which defaults to every core
_ALWAYS = {"", "--workers", "--rounds", "--alpha1", "--alpha2", "optimal-tau --alpha",
           "optimal-tau --beta", "optimal-tau --c", "optimize-alloc --c", "game-sweep --c"}


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
