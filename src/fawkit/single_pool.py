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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput
from .optimize import grid_golden_max
from .scenarios import SinglePoolScenario

TAU_AGREEMENT_TOL = 1e-6  # closed form and numeric optimum must agree to this
TAU_GRID = 1000           # optimal_tau: coarse scan points over [0, 1]
TAU_XTOL = 1e-9           # optimal_tau: final zoom bracket width, also the boundary band


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


def attacker_reward_formula(alpha, beta, tau, c):
    """Raw reward expression; ufunc-friendly, no validation.

    At tau = 0 this is exactly alpha. With beta = 0 and tau > 0 the in-pool
    share factor ta/(beta+ta) is 1.
    """
    ta, innocent, honest_pot, fork_pot = _pots(alpha, beta, tau, c)
    denom = beta + ta
    share = np.where(denom > 0.0, ta / np.where(denom > 0.0, denom, 1.0), 0.0)
    return innocent + (honest_pot + fork_pot) * share


def reward_single(s: SinglePoolScenario) -> float:
    """Attacker's expected per-round reward."""
    return float(attacker_reward_formula(s.alpha, s.beta, s.tau, s.c))


def victim_reward(s: SinglePoolScenario) -> float:
    """Victim pool's expected per-round reward.

    Strictly below beta + tau*alpha (the un-attacked pool income) for any
    tau in (0, 1), and increasing in c: a manager who propagates the stale
    block quickly shrinks his own loss.
    """
    _, _, honest_pot, fork_pot = _pots(s.alpha, s.beta, s.tau, s.c)
    return float(honest_pot + fork_pot)


def optimal_tau_closed_form(alpha: float, beta: float, c: float) -> float:
    """Closed-form optimal infiltration fraction.

    Implemented verbatim; the numeric optimum is authoritative when the two
    disagree (see optimal_tau). Raises ValueError when the expression leaves
    its real domain.
    """
    ext = 1.0 - alpha - beta
    disc = (ext * ext) * c * c + ext * (alpha * beta + alpha - 2.0) * c \
        - alpha * (1.0 + beta) + 1.0
    if disc < 0.0:
        raise ValueError("negative discriminant")
    num = (1.0 - alpha) * (1.0 - c) * beta + beta * beta * c - beta * math.sqrt(disc)
    den = alpha * ext * (c * (1.0 - beta) - 1.0)
    if den == 0.0:
        raise ValueError("zero denominator")
    return num / den


@dataclass(frozen=True)
class OptimalTauResult:
    """Optimal infiltration fraction with provenance.

    ``method`` records which route produced tau_bar: "closed_form" when the
    closed form agrees with the numeric maximizer to TAU_AGREEMENT_TOL,
    "numeric" otherwise (boundary optimum, closed form out of domain, or a
    disagreement, in which case ``discrepancy`` is set and the numeric value
    wins).
    """

    tau_bar: float
    reward_at_optimum: float
    method: str  # "closed_form" | "numeric"
    numeric_tau: float
    closed_form_tau: float | None
    discrepancy: bool


def optimal_tau(alpha: float, beta: float, c: float) -> OptimalTauResult:
    """Maximize the attacker reward over tau in [0, 1].

    Computes both the closed form and a numeric maximum (TAU_GRID coarse scan,
    then zoomed rescans of the best bracket down to TAU_XTOL). beta must be
    positive: infiltrating an empty pool is meaningless and the closed form
    degenerates there.
    """
    SinglePoolScenario(alpha, beta, 0.0, c)  # checks the powers and c
    if beta <= 0.0:
        raise DegenerateInput("optimal_tau needs beta > 0")

    def f(tau):
        return attacker_reward_formula(alpha, beta, tau, c)

    numeric, _ = grid_golden_max(f, 0.0, 1.0, n_grid=TAU_GRID, xtol=TAU_XTOL)

    try:
        closed = optimal_tau_closed_form(alpha, beta, c)
    except ValueError:
        closed = None

    boundary = numeric <= TAU_XTOL or numeric >= 1.0 - TAU_XTOL
    if closed is not None and not boundary and abs(closed - numeric) < TAU_AGREEMENT_TOL:
        tau_bar, method, discrepancy = closed, "closed_form", False
    else:
        tau_bar, method = numeric, "numeric"
        discrepancy = closed is not None and abs(closed - numeric) >= TAU_AGREEMENT_TOL
    return OptimalTauResult(
        tau_bar=float(tau_bar),
        reward_at_optimum=float(f(tau_bar)),
        method=method,
        numeric_tau=float(numeric),
        closed_form_tau=closed,
        discrepancy=discrepancy,
    )
