"""Rewards for infiltrating several pools at once, and the split optimizer.

The attacker keeps at most one withheld block per target pool, so a round
can end in a fork of up to n+1 branches, one per pool in the withheld set
plus the external block; each of k withheld branches wins with chance c/k.
With T = sum(tau), B = sum(beta), ta_i = tau_i * a and ta(S) the sum of ta
over a set S of pools, the n-pool reward is

    R_a   = (1-T)a/(1-Ta) + sum_i  ta_i/(b_i+ta_i) * (b_i/(1-Ta) + pot_i)
    pot_i = c(1-a-B) ta_i  sum_{P of pools other than i}
                w_|P| / ((1 - ta(P)) (1 - ta(P) - ta_i))

where w_k = 1 / (n C(n-1, k)) is the chance that exactly the pools of P
come before pool i in a uniformly random order of the n pools. pot_i is
pool i's fork income. Give each pool's first infiltration find an
exponential clock of rate ta_j and let y_j = e^(ta_j t) - 1: the attacker
withholds in exactly the pools of S before an external find with
probability (1-a-B) reach(S), reach(S) = int_0^inf e^-t prod_{j in S} y_j dt.

  1. Expanding the product, reach(S) is the sum over the sets U in S of
     (-1)^|S-U| / (1 - ta(U)).
  2. With 1/|S| = int_0^1 x^(|S|-1) dx, the sum of reach(S)/|S| over the
     sets S containing i is int_0^inf e^-t y_i int_0^1 prod_{j != i}
     (1 - x + x e^(ta_j t)) dx dt; expanded, each set P of other pools
     gets the Beta integral B(|P|+1, n-|P|) = w_|P| in x.
  3. Pairing P with P + i leaves 1/(1 - ta(P) - ta_i) - 1/(1 - ta(P)),
     which is the term above.

Every term is positive: 1 - ta(P) - ta_i >= 1 - Ta > 1/2 under the majority
guard, so no sum cancels. Pool counts are capped at MAX_POOLS by the
simulator's 2^n-row withheld-set tables; the kernel itself has no cap.

The kernel _reward_raw takes each tau as a float or an ndarray: reward_npool
calls it on a scenario's floats, and optimize_allocation scores each
coordinate's whole grid as one array in one call. Every sum is sequential,
in a fixed order (1 - ta(S) pool by pool, each pot over P ascending as
bitmasks, T and B pool by pool), so a float call and a grid column give the
same bits. T and B are not taken with the builtin sum, which compensates
float sums from Python 3.12 on but adds an ndarray plainly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from operator import add

import numpy as np

from .errors import ConstraintViolated, DegenerateInput
from .optimize import grid_golden_max
from .scenarios import MultiPoolScenario, rer

# Approximate network power distribution used throughout the worked examples:
# open pools plus an "Unknown" remainder of closed pools and solo miners.
TABLE2_POWERS = {
    "Unknown": 0.30,
    "F2Pool": 0.20,
    "AntPool": 0.20,
    "BTCC Pool": 0.10,
    "BW.com": 0.10,
    "BitFury": 0.10,
}

POOL_PRESETS = {"table2": TABLE2_POWERS}

ALLOC_REWARD_TOL = 1e-8  # optimize_allocation stops when a sweep gains less reward
ALLOC_MAX_SWEEPS = 200   # ... or after this many sweeps, unconverged
ALLOC_COORD_GRID = 200   # coarse scan points per coordinate
ALLOC_XTOL = 1e-10       # final zoom bracket width per coordinate


def preset_attack(name: str = "table2"):
    """(attacker power, target pool powers) for a named distribution preset.

    F2Pool attacks, and its targets are the other open pools; the Unknown
    share is closed pools and solo miners, which cannot be joined.
    """
    try:
        powers = POOL_PRESETS[name]
    except KeyError:
        raise ConstraintViolated(f"unknown pool preset {name!r}") from None
    targets = tuple(p for owner, p in powers.items() if owner not in ("Unknown", "F2Pool"))
    return powers["F2Pool"], targets


def reward_two_pools(alpha, beta1, beta2, tau1, tau2,
                     c1_two, c2_two, c1_three, c2_three) -> float:
    """Attacker reward against exactly two pools with free win probabilities.

    ``ci_two`` is the chance pool i's withheld block wins a two-branch fork;
    ``ci_three`` the three-branch analogue (c1_three + c2_three <= 1). The
    c/k model is the special case ci_two = c, ci_three = c/2. Powers and
    taus are checked as a two-pool MultiPoolScenario.
    """
    for name, v in (("c1_two", c1_two), ("c2_two", c2_two),
                    ("c1_three", c1_three), ("c2_three", c2_three)):
        if not 0.0 <= v <= 1.0:
            raise ConstraintViolated(f"{name}={v!r} outside [0, 1]")
    if tau1 + tau2 > 1.0 + 1e-15:
        raise ConstraintViolated(f"tau1 + tau2 = {tau1 + tau2!r} exceeds 1")
    if c1_three + c2_three > 1.0 + 1e-15:
        raise ConstraintViolated("c1_three + c2_three exceeds 1")
    MultiPoolScenario(alpha, (beta1, beta2), (tau1, tau2), c1_two)

    ta1, ta2 = tau1 * alpha, tau2 * alpha
    total_ta = ta1 + ta2
    ext = 1.0 - alpha - beta1 - beta2
    r = (1.0 - tau1 - tau2) * alpha / (1.0 - total_ta)
    # both-withheld term: find in pool j first, then the other, then external
    cross = 0.0
    if ta1 > 0.0 and ta2 > 0.0:
        cross = (ta1 * ta2 / (1.0 - ta1) + ta2 * ta1 / (1.0 - ta2)) \
            * ext / (1.0 - total_ta)
    for b, ta, c2br, c3br in ((beta1, ta1, c1_two, c1_three),
                              (beta2, ta2, c2_two, c2_three)):
        if b + ta <= 0.0:
            continue
        pool_pot = b / (1.0 - total_ta)
        if ta > 0.0:
            pool_pot += c2br * ta * ext / (1.0 - ta)
        pool_pot += c3br * cross
        r += ta / (b + ta) * pool_pot
    return r


@lru_cache(maxsize=None)
def _predecessors(n):
    """Each pool's sets P of other pools and their weights w_|P|, built on first use.

    Row i holds the 2^(n-1) bitmasks without pool i, ascending, and the
    weights 1 / (n C(n-1, |P|)) of those sets; both are (n, 2^(n-1)).
    """
    masks = np.arange(1 << n)
    sizes = (masks[:, None] >> np.arange(n) & 1).sum(axis=1)
    others = np.array([masks[masks >> i & 1 == 0] for i in range(n)])
    k_sets = np.array([comb(n - 1, k) for k in range(n)])  # sets of k other pools
    return others, 1.0 / (n * k_sets[sizes[others]])


def _reward_raw(alpha, betas, taus, c):
    """reward_npool's sum, unvalidated; each tau is a float or a broadcastable ndarray."""
    ta = [t * alpha for t in taus]
    ext = 1.0 - alpha - reduce(add, betas)
    free = np.ones((1,) + np.broadcast(*ta).shape)  # 1 - ta(S), sets as bitmasks
    for t in ta:
        free = np.concatenate((free, free - t))
    others, weights = _predecessors(len(betas))
    weights = weights.reshape(weights.shape + (1,) * (free.ndim - 1))
    total_tau = reduce(add, taus)
    total_ta = total_tau * alpha
    r = (1.0 - total_tau) * alpha / (1.0 - total_ta)
    for b, t, sets, w in zip(betas, ta, others, weights):
        before = free[sets]
        forks = np.add.accumulate(w / (before * (before - t)))[-1]
        # a pool with no power of its own pays its infiltrator everything,
        # and with no infiltrator either its fork pot is 0
        share = t / (b + t) if b > 0.0 else 1.0
        r += share * (b / (1.0 - total_ta) + c * ext * t * forks)
    return r


def reward_npool(s: MultiPoolScenario) -> float:
    """Attacker reward against n pools under the c/k branch-win model.

    Collapses to the single-pool formula at n=1 and to reward_two_pools with
    (c, c/2) at n=2. The scenario checked itself when it was built.
    """
    return float(_reward_raw(s.alpha, s.betas, s.taus, s.c))


@dataclass(frozen=True)
class AllocationResult:
    """Optimized infiltration split. ``reward`` re-evaluates at ``taus``.

    ``evaluations`` counts the points the kernel scored, not its calls: a
    coarse scan scores ALLOC_COORD_GRID + 1 points in one call.
    """

    taus: tuple[float, ...]
    reward: float
    rer_pct: float
    evaluations: int
    converged: bool


def optimize_allocation(alpha, betas, c) -> AllocationResult:
    """Maximize reward_npool over the simplex {tau_i >= 0, sum(tau) <= 1}.

    Projected coordinate ascent: pools with equal power are tied to one
    shared variable (the optimum is symmetric across them), each coordinate
    is solved by a coarse scan and zoomed rescans of its best bracket (each
    one kernel call on a grid column), and sweeps repeat until
    the reward improves by less than ALLOC_REWARD_TOL. Exhausting
    ALLOC_MAX_SWEEPS returns the best point found with converged=False.
    """
    betas = tuple(float(b) for b in betas)
    if any(b <= 0.0 for b in betas):
        raise DegenerateInput("every target pool needs beta > 0")
    MultiPoolScenario(alpha, betas, (0.0,) * len(betas), c)  # checks the powers and c

    powers = list(dict.fromkeys(betas))  # pools of equal power share one tau
    group = [powers.index(b) for b in betas]
    sizes = [group.count(g) for g in range(len(powers))]
    shared = [0.0] * len(sizes)
    evals = 0

    def objective(g, x):
        """Reward with group g's tau at x (a float or a grid), the others at ``shared``."""
        nonlocal evals
        evals += np.size(x)
        return _reward_raw(alpha, betas, [x if h == g else shared[h] for h in group], c)

    current = objective(0, shared[0])
    converged = False
    for _ in range(ALLOC_MAX_SWEEPS):
        previous = current
        for g, size in enumerate(sizes):
            others = sum(sizes[h] * shared[h] for h in range(len(sizes)) if h != g)
            hi = min(1.0, max((1.0 - others) / size, 0.0))
            shared[g], current = grid_golden_max(lambda x: objective(g, x), 0.0, hi,
                                                 n_grid=ALLOC_COORD_GRID, xtol=ALLOC_XTOL)
        if abs(current - previous) < ALLOC_REWARD_TOL:
            converged = True
            break

    taus = tuple(shared[g] for g in group)
    reward = reward_npool(MultiPoolScenario(alpha, betas, taus, c))
    return AllocationResult(
        taus=taus,
        reward=reward,
        rer_pct=rer(reward, alpha),
        evaluations=evals,
        converged=converged,
    )


def fixed_tau_reward_mismatched_c(alpha, betas, taus_planned, c_actual) -> float:
    """Reward when the split was planned for one c but another is realized.

    Evaluates the n-pool reward at the planned tau vector with the actual c
    substituted; planning with c_assumed = c_actual reproduces the optimizer
    reward exactly.
    """
    return reward_npool(MultiPoolScenario(alpha, tuple(betas), tuple(taus_planned), c_actual))
