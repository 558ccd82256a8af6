import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import game_scenarios, single_scenarios
from fawkit import simulator
from fawkit.errors import ConstraintViolated
from fawkit.game import game_payoffs, solve_equilibrium
from fawkit.multi_pool import optimize_allocation, preset_attack
from fawkit.scenarios import GameScenario, MultiPoolScenario, SinglePoolScenario, scenario_from_dict
from fawkit.simulator import (
    SimConfig,
    SimOutcome,
    simulate,
    simulate_game,
    simulate_multi,
    simulate_single,
)
from fawkit.single_pool import reward_single

pytestmark = pytest.mark.filterwarnings("ignore::fawkit.errors.RationalFloorWarning")

SINGLE = SinglePoolScenario(0.2, 0.2, 0.44151844, 1.0)
# to_json_dict() of the single, table2-optimum multi and game scenarios at
# seed 7 with 1, 150 and 600 000 rounds (two full blocks and a partial one),
# written by the per-round engine that _oracle_block keeps below
SEEDED = json.loads((Path(__file__).resolve().parent / "golden" / "sim_seeded.json").read_text())


def test_bitwise_reproducible():
    cfg = SimConfig(rounds=200_000, seed=99, scenario=SINGLE)
    a = simulate(cfg).to_json_dict()
    b = simulate(cfg).to_json_dict()
    assert a == b


def _table2_at_optimum():
    alpha, betas = preset_attack("table2")
    return MultiPoolScenario(alpha, betas, optimize_allocation(alpha, betas, 1.0).taus, 1.0)


@pytest.mark.parametrize("make_scenario", [
    lambda: SINGLE,
    _table2_at_optimum,
    lambda: GameScenario(0.2, 0.15, 0.1, 0.07, 0.8, 0.6, 0.4, 0.3),
], ids=["single", "multi", "game"])
def test_worker_count_only_partitions(make_scenario):
    scenario = make_scenario()
    # 600k rounds are 3 blocks of BLOCK_ROUNDS, spread over up to 4 workers
    base = SimConfig(rounds=600_000, seed=7, scenario=scenario, workers=1)
    threaded = SimConfig(rounds=600_000, seed=7, scenario=scenario, workers=4)
    a = simulate(base)
    b = simulate(threaded)
    assert a.case_counts == b.case_counts
    assert a.reward_sums == b.reward_sums
    assert a.reward_sumsq == b.reward_sumsq
    assert a.extras == b.extras


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("run", sorted(SEEDED))
def test_seeded_outputs_match_golden(run, workers):
    want = SEEDED[run]
    config = want["config"]
    cfg = SimConfig(config["rounds"], config["seed"], scenario_from_dict(config["scenario"]),
                    workers)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the short runs warn
        doc = simulate(cfg).to_json_dict()
    assert json.loads(json.dumps(doc)) == {**want, "config": {**config, "workers": workers}}


def test_different_seeds_differ():
    a = simulate(SimConfig(rounds=100_000, seed=1, scenario=SINGLE))
    b = simulate(SimConfig(rounds=100_000, seed=2, scenario=SINGLE))
    assert a.case_counts != b.case_counts


def test_zero_infiltration_earns_power():
    scenario = SinglePoolScenario(0.2, 0.2, 0.0, 0.5)
    out = simulate(SimConfig(rounds=1_000_000, seed=5, scenario=scenario))
    se = out.std_error["attacker"]
    assert abs(out.reward_means["attacker"] - 0.2) <= 3 * se
    assert out.case_counts["C_fork_from_withheld"] == 0


def test_single_matches_analytic():
    out = simulate(SimConfig(rounds=2_000_000, seed=11, scenario=SINGLE))
    analytic = reward_single(SINGLE)
    assert abs(out.reward_means["attacker"] - analytic) <= 3 * out.std_error["attacker"]


def test_case_frequencies_match_closed_form():
    s = SINGLE
    n = 2_000_000
    out = simulate(SimConfig(rounds=n, seed=13, scenario=s))
    ta = s.tau * s.alpha
    probs = {
        "A_innocent_win": (1 - s.tau) * s.alpha / (1 - ta),
        "B_pool_honest_win": s.beta / (1 - ta),
        "C_fork_from_withheld": ta * (1 - s.alpha - s.beta) / (1 - ta),
        "E_external_win_no_withheld": 1 - s.alpha - s.beta,
    }
    assert abs(sum(probs.values()) - 1.0) < 1e-12
    for tag, p in probs.items():
        se = math.sqrt(p * (1 - p) / n)
        assert abs(out.case_counts[tag] / n - p) <= 3 * se, tag


def test_case_counts_partition_rounds():
    out = simulate(SimConfig(rounds=500_000, seed=17, scenario=SINGLE))
    assert sum(out.case_counts.values()) == out.rounds_run


def test_one_reward_unit_per_round():
    out = simulate(SimConfig(rounds=500_000, seed=19, scenario=SINGLE))
    assert sum(out.reward_sums.values()) == pytest.approx(out.rounds_run, rel=1e-12)


def test_multi_single_pool_agrees_with_single_engine():
    single = simulate(SimConfig(rounds=1_000_000, seed=23, scenario=SINGLE))
    multi_scn = MultiPoolScenario(0.2, (0.2,), (0.44151844,), 1.0)
    multi = simulate(SimConfig(rounds=1_000_000, seed=23, scenario=multi_scn))
    analytic = reward_single(SINGLE)
    for out in (single, multi):
        assert abs(out.reward_means["attacker"] - analytic) <= 3 * out.std_error["attacker"]
    # same category order, so the same draws: only the pool's name differs
    assert single.case_counts == multi.case_counts
    assert list(single.reward_sums.values()) == list(multi.reward_sums.values())


def test_multi_matches_analytic_and_conserves():
    # four-pool preset at the optimal split, the heaviest published scenario
    alpha, betas = preset_attack()
    alloc = optimize_allocation(alpha, betas, 1.0)
    scenario = MultiPoolScenario(alpha, betas, alloc.taus, 1.0)
    out = simulate(SimConfig(rounds=10_000_000, seed=29, scenario=scenario, workers=2))
    assert abs(out.reward_means["attacker"] - alloc.reward) <= 3 * out.std_error["attacker"]
    assert sum(out.reward_sums.values()) == pytest.approx(out.rounds_run, rel=1e-12)
    assert sum(out.case_counts.values()) == out.rounds_run
    assert out.case_counts["D_multi_branch_fork"] > 0


def test_two_equal_pools_match_analytic_at_high_rounds():
    # two 0.1 pools, optimal symmetric split, full fork success
    alloc = optimize_allocation(0.2, (0.1, 0.1), 1.0)
    scenario = MultiPoolScenario(0.2, (0.1, 0.1), alloc.taus, 1.0)
    out = simulate(SimConfig(rounds=10_000_000, seed=59, scenario=scenario, workers=2))
    assert abs(out.reward_means["attacker"] - alloc.reward) <= 3 * out.std_error["attacker"]


def test_game_zero_infiltration():
    g = GameScenario(0.2, 0.1, 0.0, 0.0, 1.0, 1.0, 0.5, 0.5)
    out = simulate(SimConfig(rounds=1_000_000, seed=31, scenario=g))
    assert abs(out.reward_means["pool1"] - 0.2) <= 3 * out.std_error["pool1"]
    assert abs(out.reward_means["pool2"] - 0.1) <= 3 * out.std_error["pool2"]
    assert out.case_counts["C_fork_from_withheld"] == 0
    assert out.case_counts["D_multi_branch_fork"] == 0


def test_game_at_equilibrium_matches_payoffs():
    eq = solve_equilibrium(0.2, 0.15, 0.8, 0.8, 0.4, 0.4)
    g = GameScenario(0.2, 0.15, eq.f1_star, eq.f2_star, 0.8, 0.8, 0.4, 0.4)
    out = simulate(SimConfig(rounds=2_000_000, seed=37, scenario=g))
    r1, r2 = game_payoffs(g)
    gross_mean_1 = out.gross_reward_sums["pool1"] / out.rounds_run
    gross_mean_2 = out.gross_reward_sums["pool2"] / out.rounds_run
    assert abs(gross_mean_1 - r1) <= 3 * out.gross_std_error["pool1"]
    assert abs(gross_mean_2 - r2) <= 3 * out.gross_std_error["pool2"]


def test_game_symmetric_scenario():
    g = GameScenario(0.2, 0.2, 0.08, 0.08, 0.9, 0.9, 0.45, 0.45)
    out = simulate(SimConfig(rounds=1_000_000, seed=41, scenario=g))
    spread = abs(out.reward_means["pool1"] - out.reward_means["pool2"])
    assert spread <= 3 * (out.std_error["pool1"] + out.std_error["pool2"])


def test_game_conserves_reward():
    g = GameScenario(0.2, 0.15, 0.1, 0.07, 0.8, 0.6, 0.4, 0.3)
    out = simulate(SimConfig(rounds=500_000, seed=43, scenario=g))
    assert sum(out.reward_sums.values()) == pytest.approx(out.rounds_run, rel=1e-9)
    assert sum(out.case_counts.values()) == out.rounds_run


@pytest.mark.parametrize("n, sums, sumsq, want", [
    (1000, 500.0, 250.0, 0.0),           # every round paid exactly 0.5: sumsq = n * 0.25
    (10_000, 5000.0, 5000.0, 0.005),     # fair 0/1 rewards
], ids=["constant", "bernoulli"])
def test_std_errors(n, sums, sumsq, want):
    got = simulator._std_errors({"x": sums}, {"x": sumsq}, n)["x"]
    assert got == pytest.approx(want, rel=1e-3, abs=0.0)


def test_error_scales_as_inverse_sqrt_rounds():
    ses = []
    sizes = [10_000, 100_000, 1_000_000]
    for n in sizes:
        out = simulate(SimConfig(rounds=n, seed=47, scenario=SINGLE))
        ses.append(out.std_error["attacker"])
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert abs(slope + 0.5) < 0.05


def test_small_run_warns():
    with pytest.warns(UserWarning, match="100 rounds"):
        simulate(SimConfig(rounds=50, seed=1, scenario=SINGLE))


def test_outcome_export_shapes():
    out = simulate(SimConfig(rounds=1000, seed=53, scenario=SINGLE))
    doc = out.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["rng"]["algorithm"] == "philox4x64"
    assert doc["config"]["scenario"]["alpha"] == 0.2
    header, values = out.csv_row()
    assert len(header) == len(values)
    assert "attacker_mean" in header
    wins, fork_wins = doc["extras"]["wins"], doc["extras"]["fork_wins"]
    assert list(wins) == list(fork_wins) == list(out.reward_sums)
    assert sum(wins.values()) == out.rounds_run
    forks = out.case_counts["C_fork_from_withheld"] + out.case_counts["D_multi_branch_fork"]
    assert sum(fork_wins.values()) == forks


def test_categories_match_searchsorted():
    # zero powers repeat an edge, as at tau = 0; some draws land exactly on one
    cum = simulator._power_cum([0.0, 0.1, 0.3, 0.0, 0.2, 0.4])
    u = np.random.default_rng(3).random(100_000)
    u[:5] = cum[:-1]
    assert np.array_equal(simulator._categories(cum, u), np.searchsorted(cum, u, side="right"))


def test_branch_table_splits_c_evenly():
    c = 0.7
    model = simulator._pool_model("multi", 0.2, (0.1,) * 3, (0.2,) * 3, c, ("a", "b", "c"))
    u = np.random.default_rng(5).random(10_000)
    for mask in range(1, 8):
        held = [i for i in range(3) if mask >> i & 1]
        k = len(held)
        # reference: u < c picks one of the k withheld branches uniformly, else external
        want = [held[min(int(x / c * k), k - 1)] if x < c else 3 for x in u]
        got = np.count_nonzero(model.table[mask] <= u[:, None], axis=1)
        assert got.tolist() == want


def test_typed_entry_points_reject_wrong_scenarios():
    cfg = SimConfig(rounds=10, seed=1, scenario=SINGLE)
    with pytest.raises(TypeError):
        simulate_multi(cfg)
    with pytest.raises(TypeError):
        simulate_game(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert simulate_single(cfg).rounds_run == 10


@pytest.mark.parametrize("value", [True, 2.0, 1.5, float("nan"), "3", None])
@pytest.mark.parametrize("name", ["rounds", "seed", "workers"])
def test_config_rejects_non_integers(name, value):
    kwargs = {"rounds": 10, "seed": 1, "scenario": SINGLE, "workers": 1, name: value}
    with pytest.raises(ConstraintViolated, match=f"^{name}=.* must be an integer$"):
        SimConfig(**kwargs)


def test_config_takes_numpy_integers():
    cfg = SimConfig(rounds=np.int64(150), seed=np.uint64(2 ** 63), scenario=SINGLE,
                    workers=np.int32(2))
    config = json.loads(simulate(cfg).to_json())["config"]
    assert [config[k] for k in ("rounds", "seed", "workers")] == [150, 2 ** 63, 2]


# The block engine as it was with one withheld-set mask per round of the
# block: the reference that _block must match count for count.
_POPCOUNT = np.array([bin(m).count("1") for m in range(256)], dtype=np.uint8)


def _oracle_race(rng, n, cum, n_infil):
    terminal = simulator._categories(cum, rng.random(n)) - n_infil
    mask = np.zeros(n, dtype=np.uint8)
    active = np.flatnonzero(terminal < 0)
    found = terminal[active] + n_infil
    while active.size:
        mask[active] |= simulator._BITS[found]
        cat = simulator._categories(cum, rng.random(active.size))
        terminal[active] = cat - n_infil  # rounds still racing are overwritten later
        racing = cat < n_infil
        active, found = active[racing], cat[racing]
    return terminal, mask


def _oracle_block(model, rng, n):
    m = len(model.actors)
    terminal, mask = _oracle_race(rng, n, model.cum, model.table.shape[1])
    counts = np.zeros(2 * m + 2, dtype=np.int64)
    for e in range(m):
        counts[e] = np.count_nonzero(terminal == e)
    held = np.flatnonzero(mask)
    forked = mask[held[terminal[held] == m - 1]]
    counts[m - 1] -= forked.size
    counts[-2] = np.count_nonzero(_POPCOUNT[forked] == 1)
    counts[-1] = forked.size - counts[-2]
    if forked.size:
        u = rng.random(forked.size)
        branch = np.count_nonzero(model.table[forked] <= u[:, None], axis=1)
        counts[m:2 * m] = np.bincount(model.host[branch], minlength=m)
    return counts


@st.composite
def _sparse_multi_scenarios(draw):
    """Up to 8 pools, where any beta or tau may be 0 and c is often exactly 0 or 1."""
    n = draw(st.integers(1, 8))
    alpha = draw(st.floats(0.0, 0.49))
    powers = st.floats(0.0, min(0.49, (1.0 - alpha) / n))
    betas = draw(st.lists(st.just(0.0) | powers, min_size=n, max_size=n))
    taus = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0 / n), min_size=n, max_size=n))
    c = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return MultiPoolScenario(alpha, tuple(betas), tuple(taus), c)


@settings(max_examples=150)
@given(st.one_of(single_scenarios(), _sparse_multi_scenarios(), game_scenarios()),
       st.integers(1, 4096), st.integers(0, 2 ** 64 - 1), st.integers(0, 3))
def test_block_counts_match_the_per_round_oracle(scenario, n, seed, index):
    model = simulator._model(scenario)
    got = simulator._block(model, simulator._block_rng(seed, index), n)
    want = _oracle_block(model, simulator._block_rng(seed, index), n)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
