"""Closed-form rewards for withhold-and-fork infiltration of a single pool.

Per round, with attacker power ``a``, victim pool power ``b``, infiltration
fraction ``t`` and fork-win probability ``c``, the attacker's expected reward
is

    R_a(t) = (1-t)a/(1-ta) + [ b/(1-ta) + c*ta*(1-a-b)/(1-ta) ] * ta/(b+ta)

i.e. solo mining income plus the attacker's proportional share of everything
the victim pool wins, where the pool wins either through its own honest
miners or through the attacker's withheld block surviving a fork. Setting
c = 0 removes the fork channel and leaves the plain block-withholding
baseline, which lower-bounds R_a.

The maximizing t is the paper's closed form, rationalized so that no
difference of nearly equal terms is formed (optimal_tau_closed_form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateInput
from .scenarios import SinglePoolScenario, _check_kind


def _pots(alpha, beta, tau, c):
    """(ta, innocent, honest_pot, fork_pot); ufunc-friendly, no validation.

    The attacker's solo income, and the victim pool's income from its own
    miners and from forks won by the withheld block.
    """
    ta = tau * alpha
    innocent = (1.0 - tau) * alpha / (1.0 - ta)
    honest_pot = beta / (1.0 - ta)
    fork_pot = c * ta * (1.0 - alpha - beta) / (1.0 - ta)
    return ta, innocent, honest_pot, fork_pot


def _share(ta, beta):
    """The infiltrator's share ta/(beta+ta) of a pool; 1 if beta = 0, where ta = 0 leaves no pot."""
    return ta / (beta + ta) if beta > 0.0 else 1.0


def attacker_reward_formula(alpha, beta, tau, c):
    """Raw reward expression; ufunc-friendly in tau, no validation.

    At tau = 0 this is exactly alpha. A float call returns a float with the
    bits of its entry in an array call.
    """
    ta, innocent, honest_pot, fork_pot = _pots(alpha, beta, tau, c)
    return innocent + (honest_pot + fork_pot) * _share(ta, beta)


def reward_single(s: SinglePoolScenario) -> float:
    """Attacker's expected per-round reward."""
    _check_kind("s", s, SinglePoolScenario)
    return attacker_reward_formula(s.alpha, s.beta, s.tau, s.c)


def victim_reward(s: SinglePoolScenario) -> float:
    """Victim pool's expected per-round reward.

    Strictly below beta + tau*alpha (the un-attacked pool income) for any
    tau in (0, 1), and increasing in c: a manager who propagates the stale
    block quickly shrinks his own loss.
    """
    _check_kind("s", s, SinglePoolScenario)
    _, _, honest_pot, fork_pot = _pots(s.alpha, s.beta, s.tau, s.c)
    return honest_pot + fork_pot


def optimal_tau_closed_form(alpha: float, beta: float, c: float) -> float:
    """The reward's maximizer over tau in [0, 1]; raw, no validation, beta > 0.

    With E = 1 - alpha - beta, A = beta + (1 - c)E and K = (1 - c) + c*beta,
    dR/dtau has the sign of beta^2 - 2*beta*A*tau - alpha*E*K*tau^2: beta^2
    at tau = 0, and falling for tau >= 0. Its root is the paper's optimum,
    rationalized (Higham 2002) so that no difference is formed:

        tau* = beta / (A + sqrt(A^2 + alpha*E*K))

    A >= beta, in floats too, so tau* <= beta / (2A) <= 1/2 needs no clamp.
    It holds for any beta up to 1 - alpha (multi_pool passes the summed
    power). Scaling by powers of two, which is exact, keeps A^2 and
    alpha*E*K from underflowing (at c = 1 and a tiny beta that would return
    1); tau* is then within 3 ulps of the exact root.
    """
    ext = max(1.0 - alpha - beta, 0.0)  # a summed power may pass 1 - alpha by a rounding
    a = beta + (1.0 - c) * ext
    k = (1.0 - c) + c * beta
    # beta, A and sqrt(alpha*E*K) times 2^h, which puts A in [1/2, 1]
    h = -min(math.frexp(a)[1], 0)
    mant, exp = math.frexp(alpha)
    e = exp + h
    root = math.ldexp(math.sqrt(math.ldexp(mant * ext * math.ldexp(k, h), e % 2)), e // 2)
    a = math.ldexp(a, h)
    return math.ldexp(beta, h) / (a + math.hypot(a, root))


@dataclass(frozen=True)
class OptimalTauResult:
    """Optimal infiltration fraction and the reward there.

    ``tau_bar`` is optimal_tau_closed_form's value; ``method`` is always
    "closed_form", kept as the solver's provenance in result records.
    """

    tau_bar: float
    reward_at_optimum: float
    method: str


def optimal_tau(alpha: float, beta: float, c: float) -> OptimalTauResult:
    """Maximize the attacker reward over tau in [0, 1] by the closed form.

    beta must be positive: infiltrating an empty pool is meaningless and the
    closed form degenerates there.
    """
    alpha, beta, _, c = vars(SinglePoolScenario(alpha, beta, 0.0, c)).values()  # checked floats
    if beta <= 0.0:
        raise DegenerateInput("optimal_tau needs beta > 0")
    tau_bar = optimal_tau_closed_form(alpha, beta, c)
    return OptimalTauResult(
        tau_bar=tau_bar,
        reward_at_optimum=attacker_reward_formula(alpha, beta, tau_bar, c),
        method="closed_form",
    )
