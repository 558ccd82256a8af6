import math
import re
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from conftest import single_scenarios
from hypothesis import example, given
from hypothesis import strategies as st

from fawkit.bounds import (
    GAMMA_AS_TAU_NOTE,
    bonus_scheme_reward,
    c_from_gamma,
    c_max_single,
    c_min_rational,
    detection_resilient_reward,
    gamma_upper_bound,
    honeypot_bwh_bound,
    safe_bonus_threshold,
    selfish_mining_threshold,
)
from fawkit.errors import (
    ConstraintViolated,
    InconsistentDistribution,
    NegativeEffectiveMinersWarning,
)
from fawkit.scenarios import SinglePoolScenario
from fawkit.simulator import SimConfig, simulate
from fawkit.single_pool import _pots, optimal_tau, reward_single


def test_c_max_single_node_owns_everything():
    alpha, beta = 0.2, 0.2
    assert c_max_single(alpha, beta, (0.6,)) == pytest.approx(alpha + beta)


def test_c_max_fully_atomized():
    assert c_max_single(0.2, 0.2, (), atomized_remainder=0.6) == 1.0


def test_c_max_two_pool_game_reference():
    # 0.2 vs 0.1 game; honest = three named pools + atomized 0.3 remainder
    got = c_max_single(0.2, 0.1, (0.2, 0.1, 0.1), 0.3)
    assert abs(got - 0.914) <= 0.001


def test_c_max_checks_totals():
    with pytest.raises(InconsistentDistribution):
        c_max_single(0.2, 0.2, (0.5,))


@pytest.mark.parametrize("shares, atomized, named", [
    ((float("nan"), 0.7), 0.0, "shares[0]=nan"),
    ((0.2, 0.1, 0.1), float("nan"), "atomized_remainder=nan"),
    ((0.7,), float("inf"), "atomized_remainder=inf"),
    ((-0.1, 0.8), 0.0, "shares[0]=-0.1"),
], ids=["nan-share", "nan-atomized", "inf-atomized", "negative-share"])
def test_distribution_rejects_non_finite_or_negative_power(shares, atomized, named):
    for call in (lambda: c_max_single(0.2, 0.1, shares, atomized),
                 lambda: gamma_upper_bound(0.3, shares, atomized)):
        with pytest.raises(ConstraintViolated, match=re.escape(named)):
            call()


def test_honest_shares_are_summed_in_order():
    # as validate_multi sums the taus: the builtin sum compensates from Python 3.12 on, and
    # math.fsum, which rounds correctly, gives 0.6 and 0.1025 here
    shares = (0.1, 0.2, 0.3)
    assert math.fsum(shares) == 0.6
    with pytest.raises(InconsistentDistribution, match=re.escape(
            "honest shares sum to 0.6000000000000001, expected 1 - alpha = 0.9")):
        gamma_upper_bound(0.1, shares)
    shares = (0.1, 0.3, 0.05)  # their squares sum to 0.10250000000000001 in order
    assert c_max_single(0.25, 0.2, shares, 0.1) == 0.8136363636363636
    assert 1.0 - math.fsum(x * x for x in shares) / 0.55 == 0.8136363636363637


def test_c_max_antitone_under_merging():
    rng = np.random.default_rng(61)
    for _ in range(200):
        alpha = rng.uniform(0.05, 0.4)
        beta = rng.uniform(0.05, min(0.4, 0.9 - alpha))
        ext = 1 - alpha - beta
        cuts = np.sort(rng.uniform(0, ext, size=3))
        shares = np.diff(np.concatenate([[0.0], cuts, [ext]]))
        merged = (shares[0] + shares[1], *shares[2:])
        assert c_max_single(alpha, beta, merged) <= c_max_single(alpha, beta, shares) + 1e-15


def test_c_min_rational():
    assert c_min_rational(0.2, 0.2) == 0.4
    assert c_min_rational(0.0, 0.0) == 0.0
    assert c_min_rational(0.2, 0.1) == pytest.approx(0.3)


def test_c_from_gamma():
    assert c_from_gamma(0.0, 0.2, 0.2) == c_min_rational(0.2, 0.2)
    assert c_from_gamma(1.0, 0.2, 0.2) == 1.0
    assert c_from_gamma(0.5, 0.2, 0.2) == pytest.approx(0.7)
    with pytest.raises(ConstraintViolated):
        c_from_gamma(1.5, 0.2, 0.2)


def test_selfish_mining_threshold():
    assert selfish_mining_threshold(0.0) == pytest.approx(1 / 3)
    assert selfish_mining_threshold(1.0) == 0.0
    got = selfish_mining_threshold(0.89)
    assert 0.0899 <= got <= 0.0905


def test_selfish_threshold_strictly_decreasing():
    gs = np.linspace(0, 1, 101)
    vals = [selfish_mining_threshold(g) for g in gs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_gamma_upper_bound_reference():
    assert abs(gamma_upper_bound(0.3, (0.2, 0.2, 0.1, 0.1, 0.1)) - 0.89) <= 1e-12


def test_gamma_upper_bound_edge_cases():
    alpha = 0.3
    single = (1 - alpha,)
    assert gamma_upper_bound(alpha, single) == pytest.approx(1 - (1 - alpha) ** 2)
    assert gamma_upper_bound(alpha, (), atomized_remainder=1 - alpha) == 1.0
    with pytest.raises(InconsistentDistribution):
        gamma_upper_bound(0.1, single)


def test_detection_reward_converges_to_unguarded():
    rng = np.random.default_rng(67)
    for _ in range(50):
        alpha = rng.uniform(0.05, 0.45)
        beta = rng.uniform(0.05, min(0.45, 0.9 - alpha))
        tau = rng.uniform(0.05, 0.95)
        c = rng.uniform(0, 1)
        full = reward_single(SinglePoolScenario(alpha, beta, tau, c))
        guarded = detection_resilient_reward(alpha, beta, tau, c, L=10 ** 6)
        assert abs(guarded - full) <= 1e-6


def test_detection_reward_nondecreasing_in_identities():
    with pytest.warns(NegativeEffectiveMinersWarning):  # L - d - 1 < 0 only at L = 1
        values = [detection_resilient_reward(0.2, 0.2, 0.4, 0.5, 1)]
    values += [detection_resilient_reward(0.2, 0.2, 0.4, 0.5, L) for L in (2, 5, 20, 100)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_detection_reward_bwh_limit():
    guarded = detection_resilient_reward(0.2, 0.2, 0.4, 0.0, L=10 ** 6)
    assert abs(guarded - reward_single(SinglePoolScenario(0.2, 0.2, 0.4, 0.0))) <= 1e-6


@pytest.mark.parametrize("tau, c", [(0.4, 0.0), (0.0, 0.7)])
def test_detection_reward_when_the_pool_never_wins(tau, c):
    # beta = 0 and c*tau*alpha = 0: no block ever pays the pool, so only
    # innocent mining is left, exactly as under plain withholding
    for L in (1, 3, 10):
        got = detection_resilient_reward(0.2, 0.0, tau, c, L)
        bwh = reward_single(SinglePoolScenario(0.2, 0.0, tau, 0.0))
        assert got == pytest.approx(bwh, abs=1e-15)


def test_detection_floors_negative_identity_counts():
    with pytest.warns(NegativeEffectiveMinersWarning):
        detection_resilient_reward(0.3, 0.01, 0.9, 0.0, L=1)


@pytest.mark.parametrize("call, count", [
    (lambda: detection_resilient_reward(0.2, 0.05, 0.4, 0.5, 1), "L - d - 1"),
    (lambda: honeypot_bwh_bound(0.2, 0.05, 0.4, 1), "L - d"),  # d = 0.08 * 0.92 / 0.05 > L
], ids=["detection", "honeypot"])
def test_negative_count_warning_names_the_callers_line(call, count):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [(w.category, str(w.message), w.filename, w.lineno) for w in caught] == [
        (NegativeEffectiveMinersWarning,
         f"{count} went negative and was floored at 0; expulsions outpace identities",
         __file__, call.__code__.co_firstlineno)]


def test_detection_at_beta_zero_keeps_only_the_solo_income():
    # d = (1 - c) / c is exactly 1 at c = 0.5, so at L = 1 neither pot keeps an identity to
    # share it with: L*beta + count*ta is 0 in both terms
    with pytest.warns(NegativeEffectiveMinersWarning) as caught:
        got = detection_resilient_reward(0.2, 0.0, 0.4, 0.5, 1)
    assert [str(w.message) for w in caught] == [
        "L - d - 1 went negative and was floored at 0; expulsions outpace identities"]
    assert got == _pots(0.2, 0.0, 0.4, 0.5)[1] == 0.13043478260869565


@pytest.mark.parametrize("L, named", [(0, "L=0 must be >= 1"), (2 ** 1024, "L is above"),
                                      (10 ** 5000, "L is above")],
                         ids=["zero", "2^1024", "10^5000"])
@pytest.mark.parametrize("guarded", [lambda L: detection_resilient_reward(0.2, 0.2, 0.5, 0.5, L),
                                     lambda L: honeypot_bwh_bound(0.2, 0.2, 0.5, L)],
                         ids=["detection", "honeypot"])
def test_identity_count_out_of_range_is_rejected(guarded, L, named):
    # an int past the largest float once overflowed at L - d; one past 4300 digits has no repr
    with pytest.raises(ConstraintViolated, match=named):
        guarded(L)


@pytest.mark.parametrize("L", [float("nan"), 1.5, 2.0, "3", True, None],
                         ids=["nan", "1.5", "2.0", "str", "bool", "none"])
@pytest.mark.parametrize("guarded", [lambda L: detection_resilient_reward(0.2, 0.2, 0.5, 0.5, L),
                                     lambda L: honeypot_bwh_bound(0.2, 0.2, 0.5, L)],
                         ids=["detection", "honeypot"])
def test_identity_count_that_is_not_an_integer_is_rejected(guarded, L):
    with pytest.raises(ConstraintViolated, match="^L=.* must be an integer$"):
        guarded(L)


@pytest.mark.parametrize("L", [np.int64(3), np.uint8(3), np.int32(3)],
                         ids=["int64", "uint8", "int32"])
def test_identity_count_takes_numpy_integers(L):
    assert detection_resilient_reward(0.2, 0.2, 0.5, 0.5, L) == \
        detection_resilient_reward(0.2, 0.2, 0.5, 0.5, 3)
    assert honeypot_bwh_bound(0.2, 0.2, 0.5, L) == honeypot_bwh_bound(0.2, 0.2, 0.5, 3)


def test_detection_specific_value_by_independent_arithmetic():
    # longhand evaluation at the optimal split for c = 0.5, ten identities
    alpha = beta = 0.2
    c, L = 0.5, 10
    tau = optimal_tau(alpha, beta, c).tau_bar
    ta = tau * alpha
    ext = 1 - alpha - beta
    d = (1 - c) * ta * ext / (beta + c * ta * ext)
    expected = (1 - tau) * alpha / (1 - ta) \
        + beta / (1 - ta) * ((L - d) * ta) / (L * beta + (L - d) * ta) \
        + c * ta * ext / (1 - ta) * ((L - d - 1) * ta) / (L * beta + (L - d - 1) * ta)
    got = detection_resilient_reward(alpha, beta, tau, c, L)
    assert got == pytest.approx(expected, abs=1e-15)
    # expulsions must cost something relative to the unguarded attack
    assert got < reward_single(SinglePoolScenario(alpha, beta, tau, c))
    assert detection_resilient_reward.substitution_note == GAMMA_AS_TAU_NOTE


def test_honeypot_limits():
    assert honeypot_bwh_bound(0.2, 0.2, 0.0, L=5) == pytest.approx(0.2)
    big_l = honeypot_bwh_bound(0.2, 0.2, 0.5, L=10 ** 7)
    assert abs(big_l - reward_single(SinglePoolScenario(0.2, 0.2, 0.5, 0.0))) <= 1e-6
    # beta = 0: the pool never wins a block, so only the solo income (1-t)a/(1-ta) is left,
    # with no warning, as detection_resilient_reward gives it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solo = honeypot_bwh_bound(0.2, 0.0, 0.3, 2)
    assert solo == reward_single(SinglePoolScenario(0.2, 0.0, 0.3, 0.0)) == 0.14893617021276595


def test_honeypot_specific_value():
    # independent arithmetic for alpha=beta=0.2, tau=0.5, L=20
    alpha = beta = 0.2
    tau, L = 0.5, 20
    ta = tau * alpha
    d = ta * (1 - ta) / beta
    expected = (1 - tau) * alpha / (1 - ta) \
        + beta / (1 - ta) * (L - d) * ta / (L * beta + (L - d) * ta)
    assert honeypot_bwh_bound(alpha, beta, tau, L) == pytest.approx(expected, abs=1e-15)


def test_bonus_scheme_collapses_at_zero_bonus():
    rng = np.random.default_rng(71)
    for _ in range(100):
        alpha = rng.uniform(0.05, 0.45)
        beta = rng.uniform(0.05, min(0.45, 0.9 - alpha))
        tau = rng.uniform(0, 1)
        c = rng.uniform(0, 1)
        plain = reward_single(SinglePoolScenario(alpha, beta, tau, c))
        assert bonus_scheme_reward(alpha, beta, tau, c, 0.0) == pytest.approx(plain, abs=1e-14)


@given(single_scenarios(), st.floats(0.0, 1.0), st.integers(1, 10**6))
def test_no_infiltration_earns_exactly_alpha(s, t, L):
    # every member of the single-pool reward family, whatever its countermeasure
    alpha, beta, c = s.alpha, s.beta, s.c
    assert reward_single(replace(s, tau=0.0)) == alpha
    assert bonus_scheme_reward(alpha, beta, 0.0, c, t) == alpha
    assert detection_resilient_reward(alpha, beta, 0.0, c, L) == alpha
    assert honeypot_bwh_bound(alpha, beta, 0.0, L) == alpha


@given(single_scenarios())
@example(SinglePoolScenario(0.2, 0.0, 0.5, 1.0))  # the share rule's beta = 0 edge
@example(SinglePoolScenario(0.2, 0.0, 0.0, 1.0))
def test_bonus_at_zero_is_the_unguarded_reward(s):
    assert abs(bonus_scheme_reward(s.alpha, s.beta, s.tau, s.c, 0.0) - reward_single(s)) <= 1e-15


@pytest.mark.parametrize("alpha, beta, tau, c, t, seed", [
    (0.2, 0.2, 0.4, 0.6, 0.3, 1),
    (0.3, 0.1, 0.8, 1.0, 0.7, 2),
    (0.05, 0.4, 0.2, 0.2, 1.0, 3),
    (0.45, 0.3, 0.5, 0.0, 0.5, 4),
])
def test_bonus_scheme_reward_is_the_mean_over_simulated_rounds(alpha, beta, tau, c, t, seed):
    # the reward depends only on how a round ended: an innocent win pays the
    # attacker 1, an honest pool win (1-t)s and a pool win by its withheld
    # block t + (1-t)s, and the simulator counts exactly those rounds
    out = simulate(SimConfig(rounds=1 << 30, seed=seed,
                             scenario=SinglePoolScenario(alpha, beta, tau, c)))
    wins, forks = out.extras["wins"], out.extras["fork_wins"]["pool"]
    share = tau * alpha / (beta + tau * alpha)
    counts = np.array([wins["attacker"], wins["pool"] - forks, forks])
    pays = np.array([1.0, (1.0 - t) * share, t + (1.0 - t) * share])
    n = out.rounds_run
    mean = counts @ pays / n
    se = np.sqrt((counts @ pays ** 2 / n - mean ** 2) / (n - 1))
    assert abs(mean - bonus_scheme_reward(alpha, beta, tau, c, t)) <= 5 * se


def test_bonus_scheme_tau_zero():
    assert bonus_scheme_reward(0.2, 0.2, 0.0, 0.7, 0.3) == pytest.approx(0.2)


def test_safe_bonus_threshold_values():
    assert safe_bonus_threshold(0.3, 0.0) == 0.5
    assert safe_bonus_threshold(1.0, 1.0) == 0.5
    t = safe_bonus_threshold(0.3, 1.0)
    assert t == pytest.approx(1 / 0.6)
    assert t > 1.0  # infeasible: no bonus fraction can be paid


@given(st.floats(sys.float_info.min, 1.0), st.floats(0.0, 1.0))
@example(5e-17, 1.0)  # 1 - c_max * (1 - P) rounded to 0: a ZeroDivisionError
@example(1e-16, 1.0)  # and to 2**-53, for 4503599627370496.0
def test_safe_bonus_threshold_is_within_a_few_ulps_of_exact(pool_power, c_max):
    exact = 1 / (2 * (1 - Fraction(c_max) * (1 - Fraction(pool_power))))
    assert abs(Fraction(safe_bonus_threshold(pool_power, c_max)) / exact - 1) <= 4 * 2.0**-53


def test_safe_bonus_threshold_past_the_float_range_is_inf():
    # at c_max = 1 the threshold is 1 / (2P): past the largest float for a subnormal P
    assert safe_bonus_threshold(5e-324, 1.0) == math.inf
    assert safe_bonus_threshold(sys.float_info.min, 1.0) == 1 / (2 * sys.float_info.min)


def test_bonus_guarantee_small_grid():
    # at the safe threshold no (tau, c <= c_max) choice beats honest mining
    for pool_power, c_max in ((0.2, 0.25), (0.4, 0.5)):
        t = safe_bonus_threshold(pool_power, c_max)
        assert t <= 1.0
        for alpha in (0.15, 0.3, 0.45):
            worst = -1.0
            for tau in np.linspace(0.01, 0.99, 25):
                beta = pool_power - tau * alpha
                if beta <= 0:
                    continue
                for c in np.linspace(0, c_max, 5):
                    worst = max(worst, bonus_scheme_reward(alpha, beta, tau, c, t))
            assert worst < alpha + 1e-9
