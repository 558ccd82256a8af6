"""Rewards for infiltrating several pools at once, and the split optimizer.

The attacker keeps at most one withheld block per target pool, so a round
can end in a fork of up to n+1 branches, one per pool in the withheld set S
plus the external block. The chance of forking from S does not depend on
the order in which S was found, so the n-pool reward sums over the 2^n
withheld sets:

    R_a = (1-T)a/(1-Ta)
        + sum_i  ta_i/(b_i+ta_i) * ( b_i/(1-Ta)
            + sum_{S containing i}  c/|S| * (1-a-B) * reach(S) )

    reach({}) = 1,  reach(S) = sum_{j in S} reach(S - j) * ta_j / (1 - ta(S))

with T = sum(tau), B = sum(beta), ta_i = tau_i * a and ta(S) the sum of ta
over S. (1-a-B) * reach(S) is the probability that the attacker withholds
in exactly the pools of S and then an external miner finds a block; c/k is
one branch's win probability in a (k+1)-branch fork. Pool counts are capped
at MAX_POOLS by the simulator's uint8 withheld-set bitmask.

The kernel _reward_raw takes each tau as a float or an ndarray: reward_npool
validates and calls it on floats, and optimize_allocation scores each
coordinate's whole grid as one array in one call.

It runs the recursion one popcount layer at a time: layer k computes
reach for all C(n, k) sets of k pools at once, from layer k-1 through index
tables built once per n (_layers). Every sum is sequential, in a fixed
order, so the result is the same to the last bit whether a tau is a float
or a grid column:

    ta(S)    = ta(S - h) + ta_h                       h the highest pool of S
    reach(S) = ((reach(S - j1) ta_j1 + reach(S - j2) ta_j2) + ...) / (1 - ta(S))
                                                       j1 < j2 < ... the pools of S
    w(S)     = ((c/k) (1-a-B)) reach(S)
    pot_i    = (w(S1) + w(S2)) + ...                  S1 < S2 < ... as bitmasks
    T, B     = (x_1 + x_2) + ...                      pools in order

T and B are not taken with the builtin sum, which compensates float sums
from Python 3.12 on but adds an ndarray plainly.

Memory: reach and w hold 2^n x grid floats each (0.4 MB at n = 8 with a
201-point grid, 105 MB at n = 16), and a layer's gathers are up to 1.6
times that, so one call peaks at about 5.3 such arrays. A 16-pool scan of
a 201-point grid would need about 0.56 GB and must be split into chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from operator import add

import numpy as np

from .errors import ConstraintViolated, DegenerateInput
from .optimize import grid_golden_max
from .scenarios import MultiPoolScenario, rer, validate_multi

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
ALLOC_XTOL = 1e-10       # golden-section bracket width per coordinate


def preset_attack(name: str = "table2", attacker: str = "F2Pool"):
    """(attacker power, target pool powers) for a named distribution preset.

    Targets are the open pools other than the attacker; the Unknown share is
    closed pools and solo miners, which cannot be joined.
    """
    try:
        powers = POOL_PRESETS[name]
    except KeyError:
        raise ConstraintViolated(f"unknown pool preset {name!r}") from None
    if attacker not in powers or attacker == "Unknown":
        raise ConstraintViolated(f"{attacker!r} is not an open pool in preset {name!r}")
    targets = tuple(
        p for owner, p in powers.items() if owner not in ("Unknown", attacker)
    )
    return powers[attacker], targets


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
    validate_multi(MultiPoolScenario(alpha, (beta1, beta2), (tau1, tau2), c1_two))

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
def _layers(n):
    """Index tables of the DP over n pools' withheld sets, built on first use.

    Sets are stored by popcount, ascending within a popcount, so layer k is
    one slice. Returns (layers, containing): each layer is (k, its slice,
    members, subsets), members[j] the j-th lowest pool of each k-set and
    subsets[j] the position of that set without it, both (k, C(n, k));
    containing[i] holds the positions of the sets containing pool i in
    ascending bitmask order, shape (n, 2^(n-1)).
    """
    masks = np.arange(1 << n)
    bits = masks[:, None] >> np.arange(n) & 1
    order = np.argsort(bits.sum(axis=1), kind="stable")
    position = np.empty_like(order)
    position[order] = masks
    layers, lo = [], 1
    for k in range(1, n + 1):
        sets = order[lo:lo + comb(n, k)]
        # contiguous: gathers through a transposed view are several times slower
        members = np.nonzero(bits[sets])[1].reshape(-1, k).T.copy()
        layers.append((k, slice(lo, lo + len(sets)), members,
                       position[sets ^ 1 << members]))
        lo += len(sets)
    return layers, position[np.nonzero(bits.T)[1].reshape(n, -1)]


def _reward_raw(alpha, betas, taus, c):
    """reward_npool's sum, unvalidated; each tau is a float or a broadcastable ndarray."""
    n = len(betas)
    ta = [t * alpha for t in taus]
    ext = 1.0 - alpha - reduce(add, betas)
    # filled row by row: np.array(np.broadcast_arrays(*ta)) takes 2-4 times as long
    ta_rows = np.empty((n,) + np.broadcast(*ta).shape)
    for j, t in enumerate(ta):
        ta_rows[j] = t
    layers, containing = _layers(n)
    reach = np.empty((1 << n,) + ta_rows.shape[1:])  # by set position, see _layers
    reach[0] = 1.0
    w = np.empty_like(reach)  # each set's fork income to each of its pools
    for k, layer, members, subsets in layers:
        ta_sets = ta_rows[members]
        parts = reach[subsets]
        parts *= ta_sets
        found, pushed = ta_sets[0], parts[0]
        for j in range(1, k):  # sequential sums over the ascending members
            found += ta_sets[j]
            pushed += parts[j]
        np.divide(pushed, 1.0 - found, out=reach[layer])
        np.multiply((c / k) * ext, reach[layer], out=w[layer])
        del ta_sets, parts, found, pushed  # free this layer's gathers before the next one's
    total_tau = reduce(add, taus)
    total_ta = total_tau * alpha
    r = (1.0 - total_tau) * alpha / (1.0 - total_ta)
    for b, t, sets in zip(betas, ta, containing):
        # a pool with no power of its own pays its infiltrator everything,
        # and with no infiltrator either its fork pot is 0
        share = t / (b + t) if b > 0.0 else 1.0
        r += share * (b / (1.0 - total_ta) + np.add.accumulate(w[sets])[-1])
    return r


def reward_npool(s: MultiPoolScenario) -> float:
    """Attacker reward against n pools under the c/k branch-win model.

    Collapses to the single-pool formula at n=1 and to reward_two_pools with
    (c, c/2) at n=2.
    """
    validate_multi(s)
    return float(_reward_raw(s.alpha, s.betas, s.taus, s.c))


@dataclass(frozen=True)
class AllocationResult:
    """Optimized infiltration split. ``reward`` re-evaluates at ``taus``."""

    taus: tuple[float, ...]
    reward: float
    rer_pct: float
    evaluations: int
    converged: bool


def optimize_allocation(alpha, betas, c, budget: float = 1.0) -> AllocationResult:
    """Maximize reward_npool over the simplex {tau_i >= 0, sum <= budget}.

    Projected coordinate ascent: pools with equal power are tied to one
    shared variable (the optimum is symmetric across them), each coordinate
    is solved by a coarse scan plus golden-section, and sweeps repeat until
    the reward improves by less than ALLOC_REWARD_TOL. Exhausting
    ALLOC_MAX_SWEEPS returns the best point found with converged=False.
    """
    betas = tuple(float(b) for b in betas)
    if any(b <= 0.0 for b in betas):
        raise DegenerateInput("every target pool needs beta > 0")
    if not 0.0 < budget <= 1.0:
        raise ConstraintViolated(f"budget={budget!r} outside (0, 1]")
    validate_multi(MultiPoolScenario(alpha, betas, (0.0,) * len(betas), c))

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
            hi = min(1.0, max((budget - others) / size, 0.0))
            shared[g], _ = grid_golden_max(lambda x: objective(g, x), 0.0, hi,
                                           n_grid=ALLOC_COORD_GRID, xtol=ALLOC_XTOL)
            current = objective(g, shared[g])
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
