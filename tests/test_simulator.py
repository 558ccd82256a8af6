import json
import math
import warnings
from dataclasses import asdict
from functools import reduce
from operator import add
from pathlib import Path
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import game_scenarios, multi_scenarios, single_scenarios
from fawkit import simulator
from fawkit.errors import ConstraintViolated
from fawkit.game import game_payoffs, net_payoffs, solve_equilibrium
from fawkit.multi_pool import optimize_allocation, preset_attack, reward_npool
from fawkit.scenarios import (
    MAX_POOLS,
    GameScenario,
    MultiPoolScenario,
    SinglePoolScenario,
    scenario_from_dict,
    scenario_to_dict,
)
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
# seed 7 with 1, 150 and 600 000 rounds, written by the engine that draws a run as
# one block of counts of rounds per withheld set
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
    # the worker count is only echoed in the config
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
    wins, fork_wins = doc["extras"]["wins"], doc["extras"]["fork_wins"]
    assert list(wins) == list(fork_wins) == list(out.reward_sums)
    assert sum(wins.values()) == out.rounds_run
    forks = out.case_counts["C_fork_from_withheld"] + out.case_counts["D_multi_branch_fork"]
    assert sum(fork_wins.values()) == forks


def test_branch_table_splits_c_evenly():
    # the reference construction's table; the library's branch rows are its steps, bit for bit
    c = 0.7
    model = _reference_model(MultiPoolScenario(0.2, (0.1,) * 3, (0.2,) * 3, c))
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
    with pytest.raises(ConstraintViolated, match="must be a MultiPoolScenario"):
        simulate_multi(cfg)
    with pytest.raises(ConstraintViolated, match="must be a GameScenario"):
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


@pytest.mark.parametrize("name", ["rounds", "seed", "workers"])
def test_config_rejects_ints_past_the_largest_float(name):
    # too many digits to format with !r
    kwargs = {"rounds": 10, "seed": 1, "scenario": SINGLE, "workers": 1, name: -10 ** 5000}
    with pytest.raises(ConstraintViolated, match=f"^{name} is above the largest float"):
        SimConfig(**kwargs)


def test_a_run_of_the_largest_size_keeps_exact_counts():
    out = simulate(SimConfig(rounds=simulator.BLOCK_ROUNDS, seed=3, scenario=SINGLE))
    assert out.rounds_run == 2 ** 53
    assert sum(out.case_counts.values()) == sum(out.extras["wins"].values()) == 2 ** 53


@pytest.mark.parametrize("rounds", [2 ** 53 + 1, 10 ** 5000], ids=["2^53+1", "10^5000"])
def test_config_rejects_rounds_past_the_cap(rounds):
    with pytest.raises(ConstraintViolated, match="^rounds must be at most 9007199254740992$"):
        SimConfig(rounds=rounds, seed=1, scenario=SINGLE)


def test_config_takes_numpy_integers():
    cfg = SimConfig(rounds=np.int64(150), seed=np.uint64(2 ** 63), scenario=SINGLE,
                    workers=np.int32(2))
    config = json.loads(simulate(cfg).to_json())["config"]
    assert [config[k] for k in ("rounds", "seed", "workers")] == [150, 2 ** 63, 2]


# The model construction as it was before the race tables were built in fewer numpy
# calls, with the taus summed in order as the library sums them: the reference that
# _model's arrays must match bit for bit, and the cumulative powers and branch table
# that the per-round oracles below read.
def _power_cum(powers) -> np.ndarray:
    # clipping rounding-negative powers and overshoots of 1 keeps cum non-decreasing,
    # so its steps are powers that multinomial takes
    cum = np.minimum(np.cumsum(np.maximum(np.asarray(powers, dtype=float), 0.0)), 1.0)
    cum[-1] = 1.0  # guard against cumulative rounding at the top boundary
    return cum


def _reference_pool_model(alpha, betas, taus, c, pools) -> SimpleNamespace:
    n = len(betas)
    ta = np.array([t * alpha for t in taus])
    betas = np.asarray(betas, dtype=float)
    ext_power = 1.0 - alpha - float(betas.sum())
    cum = _power_cum(list(ta) + [(1.0 - reduce(add, taus)) * alpha] + list(betas) + [ext_power])
    shares = np.divide(ta, betas + ta, out=np.zeros(n), where=betas + ta > 0.0)
    payout = np.diag(np.r_[1.0, 1.0 - shares, 1.0])
    payout[1:-1, 0] = shares
    held = np.cumsum((np.arange(1 << n)[:, None] >> np.arange(n)) & 1, axis=1)
    return SimpleNamespace(actors=("attacker", *pools, "external"), cum=cum,
                           host=np.arange(1, n + 2), table=c * (held / np.maximum(held[:, -1:], 1)),
                           payout=payout, gross=None)


def _reference_game_model(s: GameScenario) -> SimpleNamespace:
    k1 = s.f1 / (s.alpha2 + s.f1)
    k2 = s.f2 / (s.alpha1 + s.f2)
    pots = np.array([[1.0, k2], [k1, 1.0], [0.0, 0.0]]) / (1.0 - k1 * k2)
    return SimpleNamespace(
        actors=("pool1", "pool2", "external"),
        cum=_power_cum([s.f1, s.f2, s.alpha1 - s.f1, s.alpha2 - s.f2, 1.0 - s.alpha1 - s.alpha2]),
        host=np.array([1, 0, 2]),
        table=np.array([[0.0, 0.0], [s.c1, s.c1], [0.0, s.c2], [s.c1p, s.c1p + s.c2p]]),
        payout=np.column_stack((pots * [1.0 - k2, 1.0 - k1], [0.0, 0.0, 1.0])),
        gross=pots,
    )


def _reference_model(s) -> SimpleNamespace:
    if isinstance(s, SinglePoolScenario):
        model = _reference_pool_model(s.alpha, (s.beta,), (s.tau,), s.c, ("pool",))
    elif isinstance(s, MultiPoolScenario):
        pools = tuple(f"pool_{i + 1}" for i in range(len(s.betas)))
        model = _reference_pool_model(s.alpha, s.betas, s.taus, s.c, pools)
    else:
        model = _reference_game_model(s)
    k = model.table.shape[1]
    powers = np.diff(model.cum, prepend=0.0)
    sets = np.arange(1 << k)[:, None]
    bits = 1 << np.arange(k)
    ender = powers[k:].sum()
    jump = np.column_stack((((sets & bits) == 0) * powers[:k], np.full(1 << k, ender)))
    branch = np.maximum(np.diff(model.table, axis=1, prepend=0.0, append=1.0), 0.0)
    model.race = (powers, powers[k:] / ender, jump / jump.sum(axis=1, keepdims=True),
                  sets | bits, branch)
    return model


def _reference_moments(actors, wins: np.ndarray, payout: np.ndarray) -> tuple[dict, dict]:
    whole = payout == 1.0
    shares = np.where(whole, 0.0, payout)
    exact = wins @ whole
    sums = exact + np.sum(wins[:, None] * shares, axis=0)
    sumsq = exact + np.sum(wins[:, None] * shares ** 2, axis=0)
    return dict(zip(actors, sums.tolist())), dict(zip(actors, sumsq.tolist()))


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=100)
@given(st.one_of(single_scenarios(), multi_scenarios(max_pools=MAX_POOLS), game_scenarios()),
       st.lists(st.integers(0, 2 ** 49), min_size=MAX_POOLS + 2, max_size=MAX_POOLS + 2))
# numpy sums these eight ender powers pairwise, which here differs from summing them in order
@example(MultiPoolScenario(0.29, (0.02, 0.11, 0.06, 0.07, 0.08, 0.11),
                           (0.08, 0.09, 0.03, 0.12, 0.09, 0.09), 0.5), list(range(10)))
def test_model_keeps_the_bits_of_the_reference_construction(scenario, wins):
    model, want = simulator._model(scenario), _reference_model(scenario)
    assert model.actors == want.actors
    for got, ref in zip((*model.race, model.host, model.payout),
                        (*want.race, want.host, want.payout), strict=True):
        assert _same_bits(got, ref)
    wins = wins[:len(model.actors)]
    assert (simulator._moments(model.actors, wins, model.payout)
            == _reference_moments(want.actors, np.array(wins), want.payout))
    assert (model.gross is None) == (want.gross is None)
    if model.gross is not None:
        assert _same_bits(model.gross, want.gross)
        assert (simulator._moments(model.actors[:-1], wins, model.gross)
                == _reference_moments(want.actors[:-1], np.array(wins), want.gross))
    echo = asdict(scenario)
    for key in ("betas", "taus"):
        if key in echo:
            echo[key] = list(echo[key])
    assert list(scenario_to_dict(scenario).items()) == list(echo.items())


def test_the_innocent_power_sums_the_taus_in_order():
    # the builtin sum compensates from Python 3.12 on: 0.6 for these taus, against
    # 0.6000000000000001 in order; at alpha = 0.24 the innocent category's step of the
    # running total is its power exactly, and the two sums give different steps
    taus = (0.1, 0.2, 0.3)
    powers = simulator._model(MultiPoolScenario(0.24, (0.1,) * 3, taus, 1.0)).race[0]
    assert powers[3] == (1.0 - reduce(add, taus)) * 0.24 != (1.0 - math.fsum(taus)) * 0.24


# The block engine as it was with one uniform per find and one withheld-set
# mask per round of the block: the reference that _block must match in distribution.
_POPCOUNT = np.array([bin(m).count("1") for m in range(256)], dtype=np.uint8)
_BITS = (1 << np.arange(8)).astype(np.uint8)  # one bit per infiltration category


def _categories(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category of each uniform draw: how many cumulative powers are <= it."""
    cat = np.zeros(u.size, dtype=np.int16)
    for edge in cum[:-1]:  # u < cum[-1] == 1 always
        cat += u >= edge
    return cat


def test_categories_match_searchsorted():
    # zero powers repeat an edge, as at tau = 0; 130 powers give 129 edges, past an int8
    # counter; some draws land exactly on an edge
    spread = np.random.default_rng(4).random(130)
    for powers in ([0.0, 0.1, 0.3, 0.0, 0.2, 0.4], spread / spread.sum()):
        cum = _power_cum(powers)
        u = np.random.default_rng(3).random(100_000)
        u[:5], u[5] = cum[:5], cum[-2]
        assert np.array_equal(_categories(cum, u), np.searchsorted(cum, u, side="right"))


def _oracle_race(rng, n, cum, n_infil):
    terminal = _categories(cum, rng.random(n)) - n_infil
    mask = np.zeros(n, dtype=np.uint8)
    active = np.flatnonzero(terminal < 0)
    found = terminal[active] + n_infil
    while active.size:
        mask[active] |= _BITS[found]
        cat = _categories(cum, rng.random(active.size))
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


ORACLE_BLOCKS = 8
FALSE_ALARM = 1e-5  # chance that one case fails although both engines draw alike


@pytest.mark.parametrize("make_scenario", [
    lambda: SINGLE,
    _table2_at_optimum,
    lambda: GameScenario(0.2, 0.15, 0.1, 0.07, 0.8, 0.6, 0.4, 0.3),
    # a pool with no power of its own, one left alone, and c strictly inside (0, 1)
    lambda: MultiPoolScenario(0.3, (0.2, 0.0, 0.1, 0.15), (0.3, 0.2, 0.0, 0.4), 0.6),
    # MAX_POOLS pools: every one of the 256 withheld sets, and up to 8 race passes
    lambda: MultiPoolScenario(0.3, tuple(np.linspace(0.02, 0.09, 8)), (0.12,) * 8, 0.7),
], ids=["single", "table2", "game", "sparse-multi", "max-pools"])
def test_block_counts_match_the_per_round_oracle_in_distribution(make_scenario):
    # each entry counts the rounds of one kind, so over N rounds it is Binomial(N, p) in
    # either engine; a pooled two-sample z per entry, Bonferroni over the entries
    scenario = make_scenario()
    model = simulator._model(scenario)
    n = 1 << 18
    rounds = ORACLE_BLOCKS * n
    # disjoint substreams keep the two sums independent
    got = sum(simulator._block(model, simulator._block_rng(61, i), n)
              for i in range(ORACLE_BLOCKS))
    want = sum(_oracle_block(_reference_model(scenario), simulator._block_rng(61, ORACLE_BLOCKS + i), n)
               for i in range(ORACLE_BLOCKS))
    bound = NormalDist().inv_cdf(1 - FALSE_ALARM / (2 * got.size))
    pooled = (got + want) / (2 * rounds)
    for k in np.flatnonzero(got + want):
        z = (got[k] - want[k]) / math.sqrt(2 * rounds * pooled[k] * (1 - pooled[k]))
        assert abs(z) <= bound, (k, got.tolist(), want.tolist())


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


@settings(max_examples=100)
@given(st.one_of(single_scenarios(), _sparse_multi_scenarios(), game_scenarios()),
       st.integers(1, 4096), st.integers(0, 2 ** 64 - 1), st.integers(0, 3))
# a full budget: alpha + sum(betas) rounds past 1, so the cumulative powers overshoot 1
@example(MultiPoolScenario(0.42, (0.18, 1.0 - 0.42 - 0.18), (0.3, 0.2), 0.5), 4096, 0, 0)
def test_block_counts_keep_their_invariants(scenario, n, seed, index):
    model = simulator._model(scenario)
    m = len(model.actors)
    powers, _, _, grow, branch = model.race
    counts = simulator._block(model, simulator._block_rng(seed, index), n)
    ends, fork_wins, forks = counts[:m], counts[m:2 * m], counts[-2:]
    assert counts.dtype == np.int64 and counts.min() >= 0
    assert ends.sum() + fork_wins.sum() == n
    assert fork_wins.sum() == forks.sum()
    if not powers[:grow.shape[1]].any():  # no infiltration power
        assert forks.sum() == 0
    if not branch[:, :-1].any():  # c = 0: no withheld branch ever wins
        assert fork_wins[:-1].sum() == 0


PROPERTY_ROUNDS = 2 ** 40


@settings(max_examples=100)
@given(st.one_of(single_scenarios(), multi_scenarios(max_pools=MAX_POOLS), game_scenarios()),
       st.integers(0, 2 ** 64 - 1))
def test_simulated_means_match_the_closed_forms(scenario, seed):
    # Each checked mean is off by more than 5 SE with chance 5.7e-7 under the normal
    # approximation, so 100 examples of at most 2 checks each give a false alarm with
    # chance about 1.1e-4 (the profile draws the same examples on every run). An outcome
    # rarer than 1/rounds can go unseen, and its sample SE is then about 0; the 10/rounds
    # floor covers it.
    out = simulate(SimConfig(rounds=PROPERTY_ROUNDS, seed=seed, scenario=scenario))
    if isinstance(scenario, GameScenario):
        want = dict(zip(("pool1", "pool2"), net_payoffs(scenario)))
    elif isinstance(scenario, SinglePoolScenario):
        want = {"attacker": reward_single(scenario)}
    else:
        want = {"attacker": reward_npool(scenario)}
    for actor, value in want.items():
        bound = 5 * out.std_error[actor] + 10 / PROPERTY_ROUNDS
        assert abs(out.reward_means[actor] - value) <= bound, actor
