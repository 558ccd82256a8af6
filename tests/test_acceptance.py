"""Acceptance gate: one test per release criterion.

Each test prints a [PASS]/[FAIL] line with the measured numbers so a plain
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from fawkit.bounds import (
    HonestPowerDistribution,
    bonus_scheme_reward,
    c_max_single,
    gamma_upper_bound,
    safe_bonus_threshold,
    selfish_mining_threshold,
)
from fawkit.game import (
    TOL,
    WINNER_POOL1,
    solve_equilibrium,
    sweep_regions,
)
from fawkit.multi_pool import (
    fixed_tau_reward_mismatched_c,
    optimize_allocation,
    preset_attack,
    reward_npool,
    reward_two_pools,
)
from fawkit.scenarios import MultiPoolScenario, SinglePoolScenario, rer
from fawkit.simulator import SimConfig, simulate
from fawkit.single_pool import optimal_tau, victim_reward

pytestmark = pytest.mark.filterwarnings("ignore::fawkit.errors.RationalFloorWarning")

TABLE1_EXPECTED = {
    # c: RER(%) by alpha = 0.1, 0.2, 0.3, 0.4 at beta = 0.2
    0.00: (0.53, 1.14, 1.85, 2.70),
    0.25: (0.65, 1.38, 2.20, 3.10),
    0.50: (0.85, 1.74, 2.70, 3.75),
    0.75: (1.21, 2.37, 3.52, 4.69),
    1.00: (2.12, 3.75, 5.13, 6.37),
}
TABLE1_ALPHAS = (0.1, 0.2, 0.3, 0.4)
TABLE1_BETA = 0.2


def _report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_reference_table_analytic():
    t0 = time.perf_counter()
    worst = 0.0
    for c, row in TABLE1_EXPECTED.items():
        for alpha, expected in zip(TABLE1_ALPHAS, row):
            res = optimal_tau(alpha, TABLE1_BETA, c)
            got = rer(res.reward_at_optimum, alpha)
            worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed < 1.0
    _report(1, "20-cell analytic RER table", ok,
            f"max |error| {worst:.4f} pp (tol 0.05), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_reference_table_simulation():
    t0 = time.perf_counter()
    rounds = 10 ** 7
    worst_ratio = 0.0
    detail_cells = []
    for ci, (c, _) in enumerate(TABLE1_EXPECTED.items()):
        for ai, alpha in enumerate(TABLE1_ALPHAS):
            res = optimal_tau(alpha, TABLE1_BETA, c)
            scenario = SinglePoolScenario(alpha, TABLE1_BETA, res.tau_bar, c)
            out = simulate(SimConfig(rounds=rounds, seed=1000 + 10 * ci + ai,
                                     scenario=scenario, workers=2))
            analytic_rer = rer(res.reward_at_optimum, alpha)
            sim_rer = rer(out.reward_means["attacker"], alpha)
            se_pp = out.std_error["attacker"] / alpha * 100.0
            tol = max(3.0 * se_pp, 0.1)
            ratio = abs(sim_rer - analytic_rer) / tol
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 1.0:
                detail_cells.append((alpha, c, sim_rer, analytic_rer, tol))
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 and elapsed < 600.0
    _report(2, "20-cell simulated RER table at 1e7 rounds", ok,
            f"worst |sim-analytic|/tol {worst_ratio:.2f} (<=1), runtime {elapsed:.0f}s "
            f"(< 600s){'; offenders ' + repr(detail_cells) if detail_cells else ''}")


def test_criterion_03_four_pool_headline():
    alpha, betas = preset_attack()
    bwh = optimize_allocation(alpha, betas, 0.0)
    faw = optimize_allocation(alpha, betas, 1.0)
    improvement = (faw.rer_pct - bwh.rer_pct) / bwh.rer_pct * 100.0
    ok = (abs(bwh.rer_pct - 2.96) <= 0.05
          and abs(faw.rer_pct - 4.63) <= 0.05
          and abs(improvement - 56.24) <= 1.0)
    _report(3, "four-pool optimal split headline", ok,
            f"bwh {bwh.rer_pct:.4f}% (2.96±0.05), faw {faw.rer_pct:.4f}% (4.63±0.05), "
            f"improvement {improvement:.2f}% (56.24±1)")


def test_criterion_04_mismatched_c_robustness():
    # split planned for c = 0 at the 0.01 granularity the reference numbers
    # use; exact-precision planning gives 4.03% / 35.9% instead
    alpha, betas = preset_attack()
    planned = (0.12, 0.06, 0.06, 0.06)
    bwh_rer = rer(fixed_tau_reward_mismatched_c(alpha, betas, planned, 0.0), alpha)
    mis_rer = rer(fixed_tau_reward_mismatched_c(alpha, betas, planned, 1.0), alpha)
    improvement = (mis_rer - bwh_rer) / bwh_rer * 100.0
    ok = abs(mis_rer - 3.99) <= 0.05 and abs(improvement - 34.62) <= 1.0
    _report(4, "planned-at-c=0 split under realized c=1", ok,
            f"rer {mis_rer:.4f}% (3.99±0.05), improvement {improvement:.2f}% (34.62±1)")


def test_criterion_05_game_borderline_at_full_c():
    step = 0.005
    axis = [round(0.05 + i * step, 10) for i in range(81)]
    cells = sweep_regions(0.2, axis, [1.0])
    flip = None
    for prev, cell in zip(cells, cells[1:]):
        if prev.winner == WINNER_POOL1 and cell.winner != WINNER_POOL1:
            flip = 0.5 * (prev.alpha2 + cell.alpha2)
            break
    larger_wins = all(
        (cell.winner == WINNER_POOL1) == (0.2 > cell.alpha2)
        for cell in cells if abs(cell.alpha2 - 0.2) > step + 1e-12
    )
    ok = flip is not None and abs(flip - 0.2) <= step + 1e-12 and larger_wins
    _report(5, "winner flips at equal sizes when c=1", ok,
            f"flip at alpha2≈{flip}, larger pool wins everywhere off the diagonal: {larger_wins}")


def test_criterion_06_equilibrium_uniqueness_and_stability():
    rng = np.random.default_rng(20170914)
    tol = TOL
    worst_spread = 0.0
    worst_gain = -math.inf
    for _ in range(100):
        a1 = rng.uniform(0.05, 0.45)
        a2 = rng.uniform(0.05, min(0.45, 0.99 - a1))
        c1, c2 = rng.uniform(0, 1, 2)
        c1p = rng.uniform(0, 1)
        c2p = rng.uniform(0, 1 - c1p)
        points = []
        for start in ((0.0, 0.0), (a1, a2), (a1, 0.0)):
            res = solve_equilibrium(a1, a2, c1, c2, c1p, c2p, start=start, keep_trace=False)
            assert res.converged, (a1, a2, c1, c2, c1p, c2p, start)
            points.append(res)
        spread = max(
            max(abs(p.f1_star - points[0].f1_star), abs(p.f2_star - points[0].f2_star))
            for p in points
        )
        worst_spread = max(worst_spread, spread)
        worst_gain = max(worst_gain, max(p.deviation_gain for p in points))
    ok = worst_spread <= 10 * tol and worst_gain <= 10 * tol
    _report(6, "equilibrium unique and deviation-stable on 100 random games", ok,
            f"worst cross-start spread {worst_spread:.2e} (<=1e-6), "
            f"worst unilateral gain {worst_gain:.2e} (<=1e-6)")


def test_criterion_07_dominance_property_suite():
    alphas = np.linspace(0.025, 0.475, 20)
    betas = np.linspace(0.025, 0.475, 20)
    cs = np.linspace(0.0, 1.0, 11)
    taus = np.arange(0.1, 0.95, 0.1)
    violations = 0
    checks = 0
    for alpha in alphas:
        for beta in betas:
            bwh_opt = optimal_tau(alpha, beta, 0.0).reward_at_optimum
            if bwh_opt < alpha - 1e-12:
                violations += 1
            for c in cs:
                checks += 1
                faw_opt = optimal_tau(alpha, beta, c).reward_at_optimum
                if faw_opt < bwh_opt - 1e-12:
                    violations += 1
                for tau in taus:
                    rp = victim_reward(SinglePoolScenario(alpha, beta, tau, c))
                    if not rp < beta + tau * alpha:
                        violations += 1
    ok = violations == 0
    _report(7, "dominance and victim-loss sweep (20x20x11 grid)", ok,
            f"{violations} violations over {checks} optimizer cells "
            f"and {checks * len(taus)} victim checks")


def test_criterion_08_collapse_consistency():
    from fawkit.single_pool import reward_single

    rng = np.random.default_rng(424242)
    worst1 = worst2 = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.05, 0.45)
        b1 = rng.uniform(0.02, 0.3)
        b2 = rng.uniform(0.02, max(0.021, min(0.3, 0.95 - alpha - b1)))
        t1 = rng.uniform(0, 0.5)
        t2 = rng.uniform(0, min(0.5, 1 - t1))
        c = rng.uniform(0, 1)
        single = reward_single(SinglePoolScenario(alpha, b1, t1, c))
        n1 = reward_npool(MultiPoolScenario(alpha, (b1,), (t1,), c))
        worst1 = max(worst1, abs(n1 - single))
        if alpha + b1 + b2 <= 1:
            two = reward_two_pools(alpha, b1, b2, t1, t2, c, c, c / 2, c / 2)
            n2 = reward_npool(MultiPoolScenario(alpha, (b1, b2), (t1, t2), c))
            worst2 = max(worst2, abs(n2 - two))
    ok = worst1 <= 1e-12 and worst2 <= 1e-12
    _report(8, "n-pool formula collapses (n=1, n=2) on 1000 random scenarios", ok,
            f"max |n1 - single| {worst1:.2e}, max |n2 - two-pool| {worst2:.2e} (tol 1e-12)")


def test_criterion_09_bound_fixtures():
    dist = HonestPowerDistribution(shares=(0.2, 0.1, 0.1), atomized_remainder=0.3)
    cmax = c_max_single(0.2, 0.1, dist)
    thresh = selfish_mining_threshold(0.89)
    gbound = gamma_upper_bound(
        HonestPowerDistribution(shares=(0.2, 0.2, 0.1, 0.1, 0.1)), 0.3)
    ok = (abs(cmax - 0.914) <= 0.001
          and 0.0899 <= thresh <= 0.0905
          and abs(gbound - 0.89) <= 1e-12)
    _report(9, "network bound fixtures", ok,
            f"c_max {cmax:.6f} (0.914±0.001), selfish threshold {thresh:.6f} "
            f"([0.0899, 0.0905]), gamma bound {gbound!r} (0.89 exact)")


def test_criterion_10_bonus_scheme_guarantee():
    taus = np.linspace(0.005, 0.995, 100)
    alphas = np.arange(0.10, 0.451, 0.05)
    worst_excess = -math.inf
    feasible_combos = 0
    for pool_power in np.arange(0.1, 0.51, 0.1):
        for c_max in (0.0, 0.25, 0.5):
            t = safe_bonus_threshold(pool_power, c_max)
            if t > 1.0:  # no bonus fraction can be paid
                continue
            feasible_combos += 1
            cs = np.linspace(0.0, c_max, 11)
            for alpha in alphas:
                for tau in taus:
                    beta = pool_power - tau * alpha
                    if beta <= 0.0:
                        continue
                    for c in cs:
                        excess = bonus_scheme_reward(alpha, beta, tau, c, t) - alpha
                        worst_excess = max(worst_excess, excess)
    ok = feasible_combos > 0 and worst_excess < 1e-9
    _report(10, "bonus threshold keeps attacks unprofitable", ok,
            f"{feasible_combos} feasible (P, c_max) combos, worst reward excess "
            f"{worst_excess:.2e} (< 1e-9)")


def test_criterion_11_simulated_case_probabilities():
    alpha, beta, c = 0.2, 0.2, 0.5
    tau = optimal_tau(alpha, beta, c).tau_bar
    n = 10 ** 7
    out = simulate(SimConfig(rounds=n, seed=905, scenario=SinglePoolScenario(alpha, beta, tau, c),
                             workers=2))
    ta = tau * alpha
    probs = {
        "A_innocent_win": (1 - tau) * alpha / (1 - ta),
        "B_pool_honest_win": beta / (1 - ta),
        "C_fork_from_withheld": ta * (1 - alpha - beta) / (1 - ta),
        "E_external_win_no_withheld": 1 - alpha - beta,
    }
    worst_z = 0.0
    for tag, p in probs.items():
        se = math.sqrt(p * (1 - p) / n)
        z = abs(out.case_counts[tag] / n - p) / se
        worst_z = max(worst_z, z)
    ok = worst_z <= 3.0 and abs(sum(probs.values()) - 1) < 1e-12
    _report(11, "simulated case frequencies match closed-form probabilities", ok,
            f"worst |z| {worst_z:.2f} over 4 cases at 1e7 rounds (<= 3)")
