import sys
import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest
from conftest import multi_scenarios, single_scenarios
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fawkit import multi_pool
from fawkit.errors import ConstraintViolated, DegenerateInput, PowerOutOfRange, TooManyPools
from fawkit.multi_pool import (
    COMPLEX_STEP,
    POOL_PRESETS,
    TABLE2_POWERS,
    fixed_tau_reward_mismatched_c,
    optimize_allocation,
    preset_attack,
    reward_npool,
    reward_two_pools,
)
from fawkit.optimize import grid_golden_max
from fawkit.scenarios import MAX_POOLS, MultiPoolScenario, SinglePoolScenario, rer
from fawkit.single_pool import attacker_reward_formula, reward_single


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


def _per_mask_reward(alpha, betas, taus, c):
    """The n-pool reward as one Python loop over the 2^n withheld-set bitmasks.

    The exact reference for multi_pool._reward_raw, by another route: the
    recursion reach(S) = sum_{j in S} reach(S - j) ta_j / (1 - ta(S)) over
    the withheld sets, with c/|S| of each set's fork income to each of its
    pools, one set at a time. Each tau is a float or an ndarray. Every sum
    is an explicit left-to-right add: the builtin sum compensates float
    sums from Python 3.12 on.
    """
    n = len(betas)
    ta = [t * alpha for t in taus]
    ext = 1.0 - alpha - reduce(add, betas)
    pots = [0.0] * n
    reach = [1.0] * (1 << n)
    for s in range(1, 1 << n):
        members = [j for j in range(n) if s >> j & 1]
        found = reduce(add, [ta[j] for j in members])
        reach[s] = reduce(add, [reach[s ^ 1 << j] * ta[j] for j in members]) / (1.0 - found)
        w = (c / len(members)) * ext * reach[s]
        for i in members:
            pots[i] += w
    total_tau = reduce(add, taus)
    total_ta = total_tau * alpha
    r = (1.0 - total_tau) * alpha / (1.0 - total_ta)
    for b, t, pot in zip(betas, ta, pots):
        share = t / (b + t) if b > 0.0 else 1.0
        r += share * (b / (1.0 - total_ta) + pot)
    return r


def _per_pool_reward(alpha, betas, taus, c):
    """multi_pool._reward_raw as one pass per pool: the bitwise reference for its chunked passes.

    The same arithmetic in the same order as the kernel: 1 - ta(S) pool by
    pool, each pool's pot over its predecessor sets ascending as bitmasks,
    and the pools' terms added to the reward in pool order. Each tau is a
    float or an ndarray.
    """
    ta = [t * alpha for t in taus]
    ext = 1.0 - alpha - reduce(add, betas, 0.0)
    free = np.ones((1,) + np.broadcast(*ta).shape)  # 1 - ta(S), sets as bitmasks
    for t in ta:
        free = np.concatenate((free, free - t))
    others, weights = multi_pool._predecessors(len(betas))
    weights = weights.reshape(weights.shape + (1,) * (free.ndim - 1))
    total_tau = reduce(add, taus, 0.0)
    total_ta = total_tau * alpha
    r = (1.0 - total_tau) * alpha / (1.0 - total_ta)
    for b, t, sets, w in zip(betas, ta, others.T, weights.swapaxes(0, 1)):
        before = free[sets]
        forks = np.add.accumulate(w / (before * (before - t)))[-1]
        share = t / (b + t) if b > 0.0 else 1.0
        r += share * (b / (1.0 - total_ta) + c * ext * t * forks)
    return r


def _close(x, y, alpha):
    """Within 1e-14 of alpha, the scale of the reward's terms.

    The routes round differently in the last bits on a few percent of draws.
    Relative to the reward itself the gap is unbounded where terms cancel
    (taus summing to 1 - 1e-16 leave a reward near 5e-17 that the routes
    put a factor 2 apart), and a subnormal alpha keeps too few bits, so the
    scale is alpha, and at least the smallest normal float.
    """
    return abs(x - y) <= 1e-14 * max(alpha, sys.float_info.min)


def _close_elementwise(got, want, alpha):
    """Same shape, and every element within _close of the other."""
    return np.shape(got) == np.shape(want) and bool(np.all(_close(got, want, alpha)))


@settings(max_examples=60)
@given(multi_scenarios(max_pools=8), st.data())
def test_kernel_is_close_to_the_per_mask_loop(s, data):
    n = len(s.betas)
    taus = [
        np.array(data.draw(st.lists(st.floats(0.0, 1.0 / n), min_size=3, max_size=3)))
        if data.draw(st.booleans()) else t
        for t in s.taus
    ]
    # the solver's batch: an (n, points) array whose point j steps pool j % n by
    # COMPLEX_STEP i beta, on the solver's domain, where each step is a normal float
    points = data.draw(st.integers(1, 12))
    real = np.array(data.draw(st.lists(st.floats(0.0, 1.0 / n), min_size=n * points,
                                       max_size=n * points))).reshape(n, points)
    steps = np.arange(points) % n == np.arange(n)[:, None]
    batch = real + COMPLEX_STEP * 1j * np.array(s.betas)[:, None] * steps
    solver_domain = min(s.betas) >= sys.float_info.min / COMPLEX_STEP
    for args in ((s.alpha, s.betas, s.taus, s.c), (s.alpha, s.betas, taus, s.c),
                 (s.alpha, s.betas, batch, s.c))[:3 if solver_domain else 2]:
        got = multi_pool._reward_raw(*args)
        assert np.array_equal(got, _per_pool_reward(*args))
        assert _close_elementwise(got, _per_mask_reward(*args), s.alpha)


def test_kernel_is_close_to_the_per_mask_loop_where_forks_pay_everything():
    # powerless pools and taus summing to 1: the reward is the sum of the fork
    # pots, so an error in any pot shows in the reward
    rng = np.random.default_rng(60)
    for trial in range(200):
        n = int(rng.integers(3, 9))
        alpha = rng.uniform(0.3, 0.49)
        taus = rng.uniform(0.0, 1.0, size=n)
        taus = (taus / taus.sum()).tolist()  # Python floats: from 3.12 on, builtin sum compensates these
        if trial % 4 == 0:  # the optimizer's scan of one coordinate
            taus[0] = np.linspace(0.0, taus[0], 201)
        args = (alpha, (0.0,) * n, taus, rng.uniform())
        assert _close_elementwise(multi_pool._reward_raw(*args), _per_mask_reward(*args), alpha)


@pytest.mark.parametrize("n, seed", [(12, 0), (12, 1), (12, 2), (16, 0), (16, 1)])
def test_kernel_is_close_to_the_per_mask_loop_past_the_pool_cap(n, seed):
    # the kernel itself has no cap; MAX_POOLS only guards reward_npool
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.05, 0.45)
    betas = tuple(rng.uniform(0.0, 1.0, size=n) * (1.0 - alpha) / n)
    taus = list(rng.uniform(0.0, 1.0 / n, size=n))
    taus[seed] = 0.0
    if n == 12:
        taus[-1] = np.linspace(0.0, 1.0 / n, 3)
    c = (0.0, 1.0, rng.uniform())[seed]
    got = multi_pool._reward_raw(alpha, betas, taus, c)
    assert np.array_equal(got, _per_pool_reward(alpha, betas, taus, c))
    assert _close_elementwise(got, _per_mask_reward(alpha, betas, taus, c), alpha)


def test_a_grid_column_peaks_within_four_tables():
    # the kernel scores its pools in chunks of a bounded size: one 201-point column at
    # n = 12 peaks at about 2.5 times its 2^n-row table of 1 - ta(S), and at 19 times
    # with every pool in one pass
    n = 12
    rng = np.random.default_rng(12)
    betas = tuple(rng.uniform(0.0, 0.5 / n, size=n))
    taus = list(rng.uniform(0.0, 1.0 / n, size=n))
    taus[0] = np.linspace(0.0, 1.0 / n, 201)
    tracemalloc.start()
    try:
        multi_pool._reward_raw(0.2, betas, taus, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (1 << n) * 201 * 8


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
    with pytest.raises(ConstraintViolated, match="unknown pool preset 'table3'"):
        preset_attack("table3")


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


def _coordinate_ascent(alpha, betas, c):
    """(taus, reward) of projected coordinate ascent on grid scans: the global oracle for the split.

    Newton finds a local maximum; this scans each coordinate's whole range.
    Pools of equal power share one tau. Each coordinate in turn is set by a
    200-cell scan of its feasible range and zoomed rescans of the winner's
    bracket down to 1e-10, and sweeps repeat until one gains less than 1e-8
    of reward, at most 200 times.
    """
    powers = list(dict.fromkeys(betas))
    group = [powers.index(b) for b in betas]
    sizes = [group.count(g) for g in range(len(powers))]
    shared = [0.0] * len(sizes)

    def objective(g, x):
        return multi_pool._reward_raw(alpha, betas, [x if h == g else shared[h] for h in group], c)

    current = objective(0, shared[0])
    for _ in range(200):
        previous = current
        for g, size in enumerate(sizes):
            others = sum(sizes[h] * shared[h] for h in range(len(sizes)) if h != g)
            hi = min(1.0, max((1.0 - others) / size, 0.0))
            shared[g], current = grid_golden_max(lambda x: objective(g, x), 0.0, hi,
                                                 n_grid=200, xtol=1e-10)
        if abs(current - previous) < 1e-8:
            break
    taus = tuple(shared[g] for g in group)
    return taus, reward_npool(MultiPoolScenario(alpha, betas, taus, c))


def _check_against_the_oracle(alpha, betas, c):
    """The Newton split converges, scores at least the oracle's reward, and is stationary.

    The KKT bound holds at any beta, mixed powers with pools below 1e-12 of
    the network included.
    """
    res = optimize_allocation(alpha, betas, c)
    _, oracle = _coordinate_ascent(alpha, betas, c)
    assert res.converged
    assert res.reward >= oracle - 1e-14 * alpha
    assert res.kkt_residual <= 1e-10


@pytest.mark.parametrize("alpha, betas, c", [
    # a 1e-20 pool once ended at tau = 7.4e-16 with d reward / d tau = 1.8e-10
    (0.25, (1e-20,), 1.0),
    # 1 - alpha - sum(beta) rounds to -1.1e-16, inside the budget check's 1e-15
    (0.2257557110985943, (0.15094127367938476, 0.08699108831342976, 0.19174077094451075,
                          0.3445711559640805), 0.5),
], ids=["tiny-pool", "budget-rounding"])
def test_edge_split_is_at_least_the_coordinate_ascent(alpha, betas, c):
    _check_against_the_oracle(alpha, betas, c)


@settings(max_examples=20)
@given(st.data())
def test_newton_split_is_at_least_the_coordinate_ascent(data):
    n = data.draw(st.integers(1, 4))
    alpha = data.draw(st.floats(sys.float_info.min, 0.49))
    cap = min(0.49, (1.0 - alpha) / n)
    betas = tuple(data.draw(st.lists(st.floats(sys.float_info.min / COMPLEX_STEP, cap),
                                     min_size=n, max_size=n)))
    _check_against_the_oracle(alpha, betas, data.draw(st.floats(0.0, 1.0)))


@given(st.data())
def test_a_tiny_pool_does_not_send_the_split_wandering(data):
    # a pool near the solver's floor once took 54 Newton steps (1084 points) from a start
    # within 0.5 % of the optimum; 6000 such draws took at most 84 points
    n = data.draw(st.integers(2, 4))
    alpha = data.draw(st.floats(0.01, 0.45))
    floor = sys.float_info.min / COMPLEX_STEP
    cap = min(0.49, (1.0 - alpha) / n)
    betas = [data.draw(st.floats(floor, 1e-200)),
             *data.draw(st.lists(st.floats(floor, cap), min_size=n - 1, max_size=n - 1))]
    res = optimize_allocation(alpha, tuple(data.draw(st.permutations(betas))),
                              data.draw(st.floats(0.0, 1.0)))
    assert res.converged
    assert res.evaluations <= 200


@pytest.mark.parametrize("c", [0.0, 0.7, 1.0])
def test_table2_split_is_at_least_the_coordinate_ascent(c):
    _check_against_the_oracle(*preset_attack("table2"), c)


def test_eight_pool_split_converges_at_a_tiny_attacker():
    # the reward's curvature is of order alpha^2 here, so an eigenvalue floor
    # fixed in absolute terms would take over the Newton step
    _check_against_the_oracle(1e-6, tuple(0.02 + 0.005 * i for i in range(8)), 0.7)


def test_optimizer_reports_exhausted_sweeps(monkeypatch):
    monkeypatch.setattr(multi_pool, "ALLOC_MAX_STEPS", 1)
    alpha, betas = preset_attack()
    res = optimize_allocation(alpha, betas, 1.0)
    assert not res.converged
    assert res.reward == reward_npool(MultiPoolScenario(alpha, betas, res.taus, 1.0))


def test_newton_step_goes_uphill_on_an_indefinite_hessian():
    # the plain Newton step -H^-1 g heads for the saddle and lowers the reward; the
    # clamped eigenvalues turn the positive-curvature direction uphill
    grad, hess = np.array([1.0, 0.5]), np.diag([1.0, -1.0])
    assert grad @ np.linalg.solve(hess, -grad) < 0.0
    assert grad @ multi_pool._newton_step(grad, hess) > 0.0


def test_optimizer_stops_at_the_start_when_no_step_scores_higher(monkeypatch):
    derivatives, points = multi_pool._derivatives, []

    def every_trial_scores_lower(alpha, betas, c, group, scale, u, diff_step):
        reward, grad, hess, scored = derivatives(alpha, betas, c, group, scale, u, diff_step)
        points.append(tuple(float(u[g] * scale[g]) for g in group))
        if len(points) > 1:  # a trial, not the start
            reward -= 1.0
        return reward, grad, hess, scored

    monkeypatch.setattr(multi_pool, "_derivatives", every_trial_scores_lower)
    res = optimize_allocation(*preset_attack(), 1.0)
    assert res.converged
    assert len(points) > 2  # the first step was halved, down to no step at all
    assert res.taus == points[0]


def test_optimizer_rejects_empty_pool():
    with pytest.raises(DegenerateInput):
        optimize_allocation(0.2, (0.1, 0.0), 0.5)
    with pytest.raises(DegenerateInput, match="beta >= 2.2250738585072014e-288"):
        optimize_allocation(0.2, (0.1, 5e-324), 0.5)
    with pytest.raises(DegenerateInput, match="alpha=5e-324 must be at least"):
        optimize_allocation(5e-324, (0.1, 0.2), 0.5)


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
       st.floats(0.0, 1.0))
def test_optimizer_beats_honest_mining_and_every_single_pool_vertex(alpha, betas, c):
    betas = tuple(betas)
    res = optimize_allocation(alpha, betas, c)
    assert all(t >= 0 for t in res.taus)
    assert sum(res.taus) <= 1.0 + 1e-9
    n = len(betas)
    vertices = [
        reward_npool(MultiPoolScenario(alpha, betas, tuple(float(j == i) for j in range(n)), c))
        for i in range(n)
    ]
    assert res.reward >= max(alpha, *vertices) - 1e-12


@settings(max_examples=150)
@given(single_scenarios())
@example(SinglePoolScenario(0.2, 0.0, 0.5, 1.0))  # a powerless pool pays its infiltrator all
@example(SinglePoolScenario(0.2, 0.0, 0.0, 1.0))  # ... and with no infiltrator has no pot
def test_one_pool_is_the_single_pool_reward(s):
    # one share rule: a float call is a float with the bits of its entry in an array call
    single = attacker_reward_formula(s.alpha, s.beta, s.tau, s.c)
    column = attacker_reward_formula(s.alpha, s.beta, np.array([0.0, s.tau, 1.0]), s.c)
    assert type(single) is float
    assert repr(single) == repr(float(column[1])) == repr(reward_single(s))
    assert _close(reward_npool(MultiPoolScenario(s.alpha, (s.beta,), (s.tau,), s.c)),
                  single, s.alpha)


@settings(max_examples=150)
@given(multi_scenarios(min_pools=2, max_pools=2))
def test_two_pools_are_the_two_pool_reward_under_c_over_k(s):
    (b1, b2), (t1, t2), c = s.betas, s.taus, s.c
    two = reward_two_pools(s.alpha, b1, b2, t1, t2, c, c, c / 2, c / 2)
    assert _close(reward_npool(s), two, s.alpha)


def _proportional_split(alpha, betas, scale, c):
    """tau_i = scale * beta_i / sum(beta), and the reward of one pool of the summed power.

    Each pool then pays out the same share of its revenue, so the n pools
    act as one pool of power sum(beta) infiltrated with sum(tau).
    """
    taus = tuple(scale * b / sum(betas) for b in betas)
    return taus, reward_single(SinglePoolScenario(alpha, sum(betas), sum(taus), c))


@given(multi_scenarios(max_pools=MAX_POOLS), st.floats(0.0, 1.0))
def test_proportional_split_is_one_pool_of_the_summed_power(s, scale):
    assume(0.0 < sum(s.betas) < 0.5)  # the summed pool is under the majority guard
    taus, single = _proportional_split(s.alpha, s.betas, scale, s.c)
    assert _close(reward_npool(MultiPoolScenario(s.alpha, s.betas, taus, s.c)), single, s.alpha)


@pytest.mark.parametrize("n, seed", [(12, 0), (12, 1), (16, 0), (16, 1)])
def test_proportional_split_past_the_pool_cap(n, seed):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.05, 0.45)
    betas = tuple(rng.uniform(0.0, 1.0, size=n) * rng.uniform(0.1, 0.49) / n)
    c = rng.uniform()
    taus, single = _proportional_split(alpha, betas, rng.uniform(), c)
    assert _close(multi_pool._reward_raw(alpha, betas, taus, c), single, alpha)


def _bwh_closed_form(alpha, betas, taus):
    """(1-T)a/(1-Ta) + sum_i ta_i/(b_i+ta_i) * b_i/(1-Ta): the reward with no fork income."""
    total_tau = reduce(add, taus)  # as the kernel adds T
    total_ta = total_tau * alpha
    r = (1.0 - total_tau) * alpha / (1.0 - total_ta)
    for b, t in zip(betas, taus):
        if b > 0.0:  # a powerless pool pays out nothing without forks
            r += t * alpha / (b + t * alpha) * (b / (1.0 - total_ta))
    return r


@given(multi_scenarios(max_pools=8))
def test_no_fork_credit_at_c_zero_is_the_bwh_closed_form(s):
    s = MultiPoolScenario(s.alpha, s.betas, s.taus, 0.0)
    got = reward_npool(s)
    assert got == _bwh_closed_form(s.alpha, s.betas, s.taus)  # fork terms 0.0, never 0 * inf
    if len(s.betas) == 1:
        bwh = reward_single(SinglePoolScenario(s.alpha, s.betas[0], s.taus[0], 0.0))
        assert _close(got, bwh, s.alpha)
