import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import single_scenarios
from hypothesis import assume, given
from hypothesis import strategies as st

from fawkit.errors import DegenerateInput
from fawkit.optimize import grid_golden_max
from fawkit.scenarios import SinglePoolScenario, rer
from fawkit.single_pool import (
    attacker_reward_formula,
    optimal_tau,
    optimal_tau_closed_form,
    reward_single,
    victim_reward,
)


def test_tau_zero_is_exactly_alpha():
    for alpha, beta, c in [(0.2, 0.2, 0.0), (0.2, 0.2, 1.0), (0.35, 0.1, 0.4)]:
        r = reward_single(SinglePoolScenario(alpha, beta, 0.0, c))
        assert abs(r - alpha) <= 1e-12


@pytest.mark.parametrize("alpha,c,expected", [
    (0.2, 0.0, 1.14),
    (0.3, 1.0, 5.13),
    (0.1, 0.5, 0.85),
    (0.2, 1.0, 3.75),
])
def test_reference_rer_values_at_optimum(alpha, c, expected):
    res = optimal_tau(alpha, 0.2, c)
    got = rer(res.reward_at_optimum, alpha)
    assert abs(got - expected) <= 0.05


def test_bwh_baseline_values():
    tau = optimal_tau(0.2, 0.2, 0.0).tau_bar
    assert abs(rer(reward_single(SinglePoolScenario(0.2, 0.2, tau, 0.0)), 0.2) - 1.14) <= 0.05
    tau = optimal_tau(0.4, 0.2, 0.0).tau_bar
    assert abs(rer(reward_single(SinglePoolScenario(0.4, 0.2, tau, 0.0)), 0.4) - 2.70) <= 0.05
    assert reward_single(SinglePoolScenario(0.2, 0.2, 0.0, 0.0)) == pytest.approx(0.2, abs=1e-12)


def test_victim_reward_values():
    assert victim_reward(SinglePoolScenario(0.2, 0.2, 0.0, 0.0)) == pytest.approx(0.2)
    # direct arithmetic: beta/(1-ta) and the c-term on top
    assert victim_reward(SinglePoolScenario(0.2, 0.2, 0.5, 0.0)) == pytest.approx(0.2 / 0.9)
    assert victim_reward(SinglePoolScenario(0.2, 0.2, 0.5, 1.0)) == pytest.approx(
        0.2 / 0.9 + 0.1 * 0.6 / 0.9)


def test_victim_always_loses():
    rng = np.random.default_rng(3)
    for _ in range(500):
        alpha = rng.uniform(0.01, 0.49)
        beta = rng.uniform(0.01, min(0.49, 1 - alpha))
        tau = rng.uniform(0.01, 0.99)
        c = rng.uniform(0, 1)
        rp = victim_reward(SinglePoolScenario(alpha, beta, tau, c))
        assert rp < beta + tau * alpha


def test_rewards_increase_with_c():
    rng = np.random.default_rng(5)
    for _ in range(300):
        alpha = rng.uniform(0.05, 0.45)
        beta = rng.uniform(0.05, min(0.45, 1 - alpha))
        tau = rng.uniform(0.05, 0.95)
        c_lo, c_hi = sorted(rng.uniform(0, 1, 2))
        if c_hi - c_lo < 1e-6:
            continue
        lo = reward_single(SinglePoolScenario(alpha, beta, tau, c_lo))
        hi = reward_single(SinglePoolScenario(alpha, beta, tau, c_hi))
        assert hi > lo
        assert victim_reward(SinglePoolScenario(alpha, beta, tau, c_hi)) > \
            victim_reward(SinglePoolScenario(alpha, beta, tau, c_lo))


@given(single_scenarios(), st.floats(0.0, 1.0))
def test_victim_pot_does_not_fall_as_c_grows(s, other_c):
    lo, hi = sorted((s.c, other_c))
    assert victim_reward(replace(s, c=hi)) >= victim_reward(replace(s, c=lo))


def test_dominance_chain_small_grid():
    # fork-assisted optimum >= withholding optimum >= honest mining
    for alpha in (0.1, 0.25, 0.4):
        for beta in (0.1, 0.3):
            bwh = optimal_tau(alpha, beta, 0.0).reward_at_optimum
            assert bwh >= alpha - 1e-12
            for c in (0.25, 0.5, 1.0):
                faw = optimal_tau(alpha, beta, c).reward_at_optimum
                assert faw >= bwh - 1e-12


# the reference maximizer: a 1000-cell scan of [0, 1], then zoomed rescans of the winner
# down to a bracket of 1e-9
def _scan(alpha, beta, c):
    return grid_golden_max(lambda t: attacker_reward_formula(alpha, beta, t, c), 0.0, 1.0,
                           n_grid=1000, xtol=1e-9)


# the closed form's reward was never below the scan's by more than 4 ulps of alpha over
# 40 000 draws (alpha and beta log-uniform down to 1e-320, c in {0, 1, U(0, 1)}); the
# bound doubles that
REWARD_ULPS = 8


def test_closed_form_and_numeric_agree():
    rng = np.random.default_rng(9)
    for _ in range(200):
        alpha = rng.uniform(0.05, 0.45)
        beta = rng.uniform(0.05, min(0.45, 0.99 - alpha))
        c = rng.uniform(0, 1)
        res = optimal_tau(alpha, beta, c)
        scan_tau, scan_reward = _scan(alpha, beta, c)
        assert abs(res.tau_bar - scan_tau) < 1e-6
        assert res.reward_at_optimum >= scan_reward - REWARD_ULPS * math.ulp(alpha)
        assert res.method == "closed_form"


@pytest.mark.parametrize("alpha, beta, c, exact", [
    # 60-digit values of the same expression; the unrationalized form gave 3.85, 4901
    # and a negative discriminant here
    (1e-17, 0.1, 1.0, 0.49999999999999998875),
    (1e-12, 1e-8, 1.0, 0.4999875006250859402346),
    (1e-6, 1e-300, 1.0, 1.000000500000375035468e-147),
    # A^2 and alpha*E*K underflow here unless scaled, which gave tau = 1
    (5e-324, 5e-324, 1.0, 0.4142135623730950488017),
    (0.4, 5e-324, 1.0, 4.53718729795438416464e-162),
])
def test_closed_form_keeps_its_precision_at_small_powers(alpha, beta, c, exact):
    assert optimal_tau_closed_form(alpha, beta, c) == pytest.approx(exact, rel=4e-16)
    assert optimal_tau(alpha, beta, c).tau_bar == optimal_tau_closed_form(alpha, beta, c)


def _positive_beta(s):
    assume(s.beta > 0.0)
    return s.alpha, s.beta, s.c


@given(single_scenarios())
def test_closed_form_scores_at_least_the_scan(s):
    alpha, beta, c = _positive_beta(s)
    _, scan_reward = _scan(alpha, beta, c)
    assert optimal_tau(alpha, beta, c).reward_at_optimum >= \
        scan_reward - REWARD_ULPS * math.ulp(alpha)


# tau* was at most 2.6 ulps from the exact root over 30 000 draws (60-digit mpmath), so
# the bracket of one ulp on each side missed the root in 7 % of them; this bound is 1.5x
ROOT_ULPS = 4


@given(single_scenarios())
def test_closed_form_is_the_root_of_the_exact_numerator(s):
    """dR/dtau has the sign of beta^2 - 2 beta A tau - alpha E K tau^2; in exact rationals
    it falls through 0 within ROOT_ULPS ulps of tau*, and tau* <= beta / (2A) <= 1/2 in
    floats, so no clamp is needed."""
    tau = optimal_tau_closed_form(*_positive_beta(s))
    alpha, beta, c = (Fraction(x) for x in (s.alpha, s.beta, s.c))
    ext = 1 - alpha - beta
    a, k = beta + (1 - c) * ext, (1 - c) + c * beta
    for side, sign in ((-1, 1), (1, -1)):
        t = Fraction(tau) + side * ROOT_ULPS * Fraction(math.ulp(tau))
        assert sign * (beta * beta - 2 * beta * a * t - alpha * ext * k * t * t) > 0
    float_a = s.beta + (1.0 - s.c) * (1.0 - s.alpha - s.beta)
    assert 0.0 <= tau <= s.beta / (2.0 * float_a) <= 0.5  # 0 where beta / (2A) rounds to 0


def test_optimal_tau_result_is_consistent():
    res = optimal_tau(0.2, 0.2, 0.5)
    f = lambda t: float(attacker_reward_formula(0.2, 0.2, t, 0.5))
    assert res.reward_at_optimum == pytest.approx(f(res.tau_bar), abs=1e-15)
    assert res.reward_at_optimum >= f(0.0) - 1e-12
    assert res.reward_at_optimum >= f(1.0) - 1e-12
    assert 0.0 <= res.tau_bar <= 1.0


def test_optimal_tau_rejects_empty_pool():
    with pytest.raises(DegenerateInput):
        optimal_tau(0.2, 0.0, 0.5)


def test_empty_pool_share_factor_is_one():
    # with beta = 0 and tau > 0 every pool win is the attacker's
    alpha, tau, c = 0.2, 0.5, 0.8
    ta = tau * alpha
    expected = (1 - tau) * alpha / (1 - ta) + c * ta * (1 - alpha) / (1 - ta)
    got = reward_single(SinglePoolScenario(alpha, 0.0, tau, c))
    assert got == pytest.approx(expected, abs=1e-15)


def test_closed_form_spot_value():
    # hand-checked: alpha = beta = 0.2, c = 0 gives tau just under 0.12
    tau = optimal_tau_closed_form(0.2, 0.2, 0.0)
    assert tau == pytest.approx(0.119633, abs=1e-6)


def test_optimal_tau_against_fine_grid_oracle():
    # independent oracle: exhaustive 1e-7-step scan of the raw formula
    alpha, beta, c = 0.1, 0.2, 0.5
    step = 1e-7
    best_tau, best_val = 0.0, -1.0
    for lo in np.arange(0.0, 1.0, 0.1):
        taus = lo + np.arange(0.0, 0.1, step)
        vals = attacker_reward_formula(alpha, beta, taus, c)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_tau = float(vals[i]), float(taus[i])
    res = optimal_tau(alpha, beta, c)
    assert abs(res.tau_bar - best_tau) <= 2e-7
    assert res.reward_at_optimum >= best_val - 1e-14
    assert abs(rer(res.reward_at_optimum, alpha) - 0.85) <= 0.05
