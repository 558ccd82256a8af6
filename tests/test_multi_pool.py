import sys

import numpy as np
import pytest
from conftest import multi_scenarios, single_scenarios
from hypothesis import given, settings
from hypothesis import strategies as st

from fawkit import multi_pool
from fawkit.errors import ConstraintViolated, DegenerateInput, PowerOutOfRange, TooManyPools
from fawkit.multi_pool import (
    POOL_PRESETS,
    TABLE2_POWERS,
    fixed_tau_reward_mismatched_c,
    optimize_allocation,
    preset_attack,
    reward_npool,
    reward_two_pools,
)
from fawkit.scenarios import MultiPoolScenario, SinglePoolScenario, rer
from fawkit.single_pool import reward_single


def _random_single_compatible(rng):
    alpha = rng.uniform(0.05, 0.45)
    beta = rng.uniform(0.02, min(0.45, 0.95 - alpha))
    tau = rng.uniform(0.0, 1.0)
    c = rng.uniform(0.0, 1.0)
    return alpha, beta, tau, c


def _ordered_walk_reward(s):
    """reward_npool summed over every ordered sequence of withheld finds.

    The O(n!) depth-first reference for the recursion over withheld sets:
    each sequence's product term is the probability of that find order
    followed by an external find, and a k-pool sequence credits each of its
    pools c/k of the external power times that product.
    """
    n = len(s.betas)
    ta = [t * s.alpha for t in s.taus]
    ext = 1.0 - s.alpha - sum(s.betas)
    pots = [0.0] * n

    def descend(seq, prefix_prod, prefix_sum):
        for j in range(n):
            if j in seq or ta[j] <= 0.0:
                continue
            found = prefix_sum + ta[j]
            p = prefix_prod * ta[j] / (1.0 - found)
            w = (s.c / (len(seq) + 1)) * ext * p
            for i in (*seq, j):
                pots[i] += w
            descend((*seq, j), p, found)

    descend((), 1.0, 0.0)
    total_ta = sum(s.taus) * s.alpha
    r = (1.0 - sum(s.taus)) * s.alpha / (1.0 - total_ta)
    for b, t, pot in zip(s.betas, ta, pots):
        if b + t > 0.0:
            r += t / (b + t) * (b / (1.0 - total_ta) + pot)
    return r


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_matches_ordered_walk(n):
    rng = np.random.default_rng(40 + n)
    for trial in range(12 if n < 7 else 4):
        alpha = rng.uniform(0.05, 0.45)
        betas = rng.uniform(0.0, 1.0, size=n)
        betas = tuple(betas / betas.sum() * rng.uniform(0.1, 0.99 - alpha))
        taus = rng.uniform(0.0, 1.0, size=n) * rng.uniform(0.05, 1.0) / n
        taus[rng.random(n) < 0.25] = 0.0  # some pools left un-infiltrated
        c = (0.0, 1.0, rng.uniform(0.0, 1.0))[trial % 3]
        s = MultiPoolScenario(alpha, betas, tuple(taus), c)
        assert abs(reward_npool(s) - _ordered_walk_reward(s)) <= 1e-12


@given(multi_scenarios())
def test_matches_ordered_walk_property(s):
    assert abs(reward_npool(s) - _ordered_walk_reward(s)) <= 1e-12


def test_collapses_to_single_pool_formula():
    rng = np.random.default_rng(21)
    for _ in range(300):
        alpha, beta, tau, c = _random_single_compatible(rng)
        n1 = reward_npool(MultiPoolScenario(alpha, (beta,), (tau,), c))
        s1 = reward_single(SinglePoolScenario(alpha, beta, tau, c))
        assert abs(n1 - s1) <= 1e-12


def test_collapses_to_two_pool_formula_under_c_over_k():
    rng = np.random.default_rng(22)
    for _ in range(300):
        alpha = rng.uniform(0.05, 0.45)
        b1 = rng.uniform(0.02, 0.3)
        b2 = rng.uniform(0.02, min(0.3, 0.95 - alpha - b1))
        t1 = rng.uniform(0.0, 0.5)
        t2 = rng.uniform(0.0, min(0.5, 1.0 - t1))
        c = rng.uniform(0.0, 1.0)
        n2 = reward_npool(MultiPoolScenario(alpha, (b1, b2), (t1, t2), c))
        e2 = reward_two_pools(alpha, b1, b2, t1, t2, c, c, c / 2, c / 2)
        assert abs(n2 - e2) <= 1e-12


def test_two_pools_degenerate_second_pool():
    # an empty, un-infiltrated second pool reduces to the single-pool attack
    r = reward_two_pools(0.2, 0.2, 0.0, 0.4, 0.0, 0.7, 0.3, 0.35, 0.15)
    s = reward_single(SinglePoolScenario(0.2, 0.2, 0.4, 0.7))
    assert r == pytest.approx(s, abs=1e-15)


def test_no_infiltration_returns_alpha():
    assert reward_two_pools(0.2, 0.1, 0.1, 0.0, 0.0, 1, 1, 0.5, 0.5) == pytest.approx(0.2)
    r = reward_npool(MultiPoolScenario(0.3, (0.1, 0.2, 0.1), (0.0, 0.0, 0.0), 0.9))
    assert r == pytest.approx(0.3, abs=1e-15)


def test_two_pool_precondition_errors():
    with pytest.raises(ConstraintViolated):
        reward_two_pools(0.2, 0.1, 0.1, 0.7, 0.6, 1, 1, 0.5, 0.5)
    with pytest.raises(ConstraintViolated):
        reward_two_pools(0.2, 0.1, 0.1, 0.1, 0.1, 1, 1, 0.7, 0.7)


@pytest.mark.parametrize("args", [
    (0.6, 0.1, 0.1, 0.5, 0.5, 1, 1, 0.5, 0.5),
    (0.2, -0.1, 0.1, 0.1, 0.1, 1, 1, 0.5, 0.5),
    (1.0, 0.0, 0.0, 1.0, 0.0, 1, 1, 0.5, 0.5),
], ids=["majority-attacker", "negative-beta", "whole-network-attacker"])
def test_two_pools_rejects_what_npool_rejects(args):
    alpha, b1, b2, t1, t2, c = args[:6]
    with pytest.raises(PowerOutOfRange):
        reward_npool(MultiPoolScenario(alpha, (b1, b2), (t1, t2), c))
    with pytest.raises(PowerOutOfRange):
        reward_two_pools(*args)


def test_npool_pool_cap():
    with pytest.raises(TooManyPools):
        reward_npool(MultiPoolScenario(0.2, (0.05,) * 9, (0.05,) * 9, 0.5))


def test_table2_preset():
    assert sum(TABLE2_POWERS.values()) == pytest.approx(1.0)
    alpha, betas = preset_attack()
    assert alpha == 0.2
    assert betas == (0.2, 0.1, 0.1, 0.1)
    assert "table2" in POOL_PRESETS
    with pytest.raises(ConstraintViolated):
        preset_attack(attacker="Unknown")


def test_four_pool_headline_numbers():
    alpha, betas = preset_attack()
    bwh = optimize_allocation(alpha, betas, 0.0)
    faw = optimize_allocation(alpha, betas, 1.0)
    assert abs(bwh.rer_pct - 2.96) <= 0.05
    assert abs(faw.rer_pct - 4.63) <= 0.05
    improvement = (faw.rer_pct - bwh.rer_pct) / bwh.rer_pct * 100
    assert abs(improvement - 56.24) <= 1.0
    assert bwh.converged and faw.converged
    assert bwh.evaluations > 0


def test_symmetric_pools_get_equal_shares():
    res = optimize_allocation(0.2, (0.1, 0.1), 0.0)
    assert res.taus[0] == res.taus[1]
    res = optimize_allocation(0.2, (0.2, 0.1, 0.1, 0.1), 1.0)
    assert res.taus[1] == res.taus[2] == res.taus[3]


def test_optimizer_respects_budget():
    rng = np.random.default_rng(23)
    for _ in range(5):
        alpha = rng.uniform(0.1, 0.4)
        betas = tuple(rng.uniform(0.05, 0.15, size=3))
        budget = rng.uniform(0.2, 1.0)
        res = optimize_allocation(alpha, betas, rng.uniform(0, 1), budget=budget)
        assert all(t >= 0 for t in res.taus)
        assert sum(res.taus) <= budget + 1e-9


def test_allocation_result_reward_reevaluates():
    res = optimize_allocation(0.2, (0.15, 0.1), 0.7)
    again = reward_npool(MultiPoolScenario(0.2, (0.15, 0.1), res.taus, 0.7))
    assert res.reward == pytest.approx(again, abs=1e-15)
    assert res.rer_pct == pytest.approx(rer(again, 0.2), abs=1e-12)


def test_reward_nondecreasing_in_c():
    rng = np.random.default_rng(29)
    for _ in range(100):
        alpha = rng.uniform(0.05, 0.4)
        betas = tuple(rng.uniform(0.03, 0.12, size=3))
        taus = tuple(rng.uniform(0.0, 0.2, size=3))
        c_lo, c_hi = sorted(rng.uniform(0, 1, size=2))
        lo = reward_npool(MultiPoolScenario(alpha, betas, taus, c_lo))
        hi = reward_npool(MultiPoolScenario(alpha, betas, taus, c_hi))
        assert hi >= lo - 1e-15


def test_optimizer_reports_exhausted_sweeps(monkeypatch):
    monkeypatch.setattr(multi_pool, "ALLOC_MAX_SWEEPS", 1)
    alpha, betas = preset_attack()
    res = optimize_allocation(alpha, betas, 1.0)
    assert not res.converged
    assert res.reward == reward_npool(MultiPoolScenario(alpha, betas, res.taus, 1.0))


def test_optimizer_rejects_empty_pool():
    with pytest.raises(DegenerateInput):
        optimize_allocation(0.2, (0.1, 0.0), 0.5)


def test_mismatched_c_consistency_when_planned_equals_actual():
    alpha, betas = preset_attack()
    for c in (0.0, 0.5, 1.0):
        plan = optimize_allocation(alpha, betas, c)
        replay = fixed_tau_reward_mismatched_c(alpha, betas, plan.taus, c)
        assert replay == pytest.approx(plan.reward, abs=1e-15)


def test_changing_c_reference_values():
    # split planned for c = 0 at 0.01 granularity, realized c = 1
    alpha, betas = preset_attack()
    planned = (0.12, 0.06, 0.06, 0.06)
    bwh_rer = rer(fixed_tau_reward_mismatched_c(alpha, betas, planned, 0.0), alpha)
    mis_rer = rer(fixed_tau_reward_mismatched_c(alpha, betas, planned, 1.0), alpha)
    assert abs(mis_rer - 3.99) <= 0.05
    improvement = (mis_rer - bwh_rer) / bwh_rer * 100
    assert abs(improvement - 34.62) <= 1.0


@given(multi_scenarios(max_pools=8), st.data())
def test_kernel_scores_columns_like_rows(s, data):
    # the optimizer's scan: some pools' taus are grid columns, the rest floats
    n, rows = len(s.betas), data.draw(st.integers(1, 4))
    columns = [
        np.array(data.draw(st.lists(st.floats(0.0, 1.0 / n), min_size=rows, max_size=rows)))
        if data.draw(st.booleans()) else t
        for t in s.taus
    ]
    got = np.broadcast_to(multi_pool._reward_raw(s.alpha, s.betas, columns, s.c), rows)
    for k in range(rows):
        row = tuple(float(np.broadcast_to(col, rows)[k]) for col in columns)
        assert got[k] == reward_npool(MultiPoolScenario(s.alpha, s.betas, row, s.c))


@given(multi_scenarios(max_pools=8))
def test_no_infiltration_earns_exactly_alpha(s):
    assert reward_npool(MultiPoolScenario(s.alpha, s.betas, (0.0,) * len(s.betas), s.c)) == s.alpha


@settings(max_examples=25)
@given(st.floats(0.01, 0.4), st.lists(st.floats(0.01, 0.14), min_size=1, max_size=4),
       st.floats(0.0, 1.0), st.floats(0.05, 1.0))
def test_optimizer_beats_honest_mining_and_every_single_pool_vertex(alpha, betas, c, budget):
    betas = tuple(betas)
    res = optimize_allocation(alpha, betas, c, budget=budget)
    n = len(betas)
    vertices = [
        reward_npool(MultiPoolScenario(alpha, betas, tuple(budget if j == i else 0.0
                                                            for j in range(n)), c))
        for i in range(n)
    ]
    assert res.reward >= max(alpha, *vertices) - 1e-12


def _close(x, y, alpha):
    """Within 1e-14 of alpha, the scale of the reward's terms.

    The routes round differently in the last bits on a few percent of draws.
    Relative to the reward itself the gap is unbounded where terms cancel
    (taus summing to 1 - 1e-16 leave a reward near 5e-17 that the routes
    put a factor 2 apart), and a subnormal alpha keeps too few bits, so the
    scale is alpha, and at least the smallest normal float.
    """
    return abs(x - y) <= 1e-14 * max(alpha, sys.float_info.min)


@settings(max_examples=150)
@given(single_scenarios())
def test_one_pool_is_the_single_pool_reward(s):
    assert _close(reward_npool(MultiPoolScenario(s.alpha, (s.beta,), (s.tau,), s.c)),
                  reward_single(s), s.alpha)


@settings(max_examples=150)
@given(multi_scenarios(min_pools=2, max_pools=2))
def test_two_pools_are_the_two_pool_reward_under_c_over_k(s):
    (b1, b2), (t1, t2), c = s.betas, s.taus, s.c
    two = reward_two_pools(s.alpha, b1, b2, t1, t2, c, c, c / 2, c / 2)
    assert _close(reward_npool(s), two, s.alpha)
