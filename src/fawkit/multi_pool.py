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

The kernel _reward_raw takes each tau as a float or an ndarray, real or
complex: reward_npool calls it on a scenario's floats, and
optimize_allocation on a batch of complex points, whose imaginary parts
carry exact derivatives. Every sum is sequential, in a fixed order
(1 - ta(S) pool by pool, each pot over P ascending as bitmasks, T and B
pool by pool), so a float call and an array entry give the same bits. T
and B are not taken with the builtin sum, which compensates float sums
from Python 3.12 on but adds an ndarray plainly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, sqrt, ulp
from operator import add

import numpy as np

from .errors import ConstraintViolated, DegenerateInput
from .scenarios import MultiPoolScenario, _check_kind, _check_unit, _floats, rer
from .single_pool import _share, optimal_tau_closed_form

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

# optimize_allocation's Newton solve in u = tau / beta; see its docstring
ALLOC_MAX_STEPS = 100   # steps before it gives up, unconverged
ALLOC_STEP_TOL = 1e-9   # it converges after a step this small in every u (relative past 1)
ALLOC_GRAD_ULPS = 64    # ... or where each d reward / d tau is within this many ulps of rounding
ALLOC_ULPS = 4          # a step may lower the reward by this many ulps
ALLOC_EIG_FLOOR = 1e-8  # Hessian eigenvalues are clamped to -this * the largest |one| or below
COMPLEX_STEP = 1e-20    # imaginary step in u: the reward's imaginary part over it is a derivative


def preset_attack(name: str = "table2"):
    """(attacker power, target pool powers) for a named distribution preset.

    F2Pool attacks, and its targets are the other open pools; the Unknown
    share is closed pools and solo miners, which cannot be joined.
    """
    try:
        powers = POOL_PRESETS[name]
    except (KeyError, TypeError):  # a list is unhashable
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
    c1_two, c2_two, c1_three, c2_three = (
        _check_unit(name, v) for name, v in (("c1_two", c1_two), ("c2_two", c2_two),
                                             ("c1_three", c1_three), ("c2_three", c2_three)))
    if c1_three + c2_three > 1.0 + 1e-15:
        raise ConstraintViolated("c1_three + c2_three exceeds 1")
    alpha, (beta1, beta2), (tau1, tau2), _ = vars(
        MultiPoolScenario(alpha, (beta1, beta2), (tau1, tau2), c1_two)).values()

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
        r += _share(t, b) * (b / (1.0 - total_ta) + c * ext * t * forks)
    return r


def reward_npool(s: MultiPoolScenario) -> float:
    """Attacker reward against n pools under the c/k branch-win model.

    Collapses to the single-pool formula at n=1 and to reward_two_pools with
    (c, c/2) at n=2. The scenario checked itself when it was built.
    """
    _check_kind("s", s, MultiPoolScenario)
    return float(_reward_raw(s.alpha, s.betas, s.taus, s.c))


@dataclass(frozen=True)
class AllocationResult:
    """Optimized infiltration split. ``reward`` re-evaluates at ``taus``.

    ``evaluations`` counts the points the kernel scored, not its calls:
    each Newton step scores (m+1)·m complex points in one call, for m
    distinct pool powers, and the KKT check n more. ``kkt_residual`` is
    the largest violation of the first-order (KKT) conditions for a
    maximum over {tau >= 0, sum(tau) <= 1} at ``taus``, in reward per unit
    of tau: about 1e-16 for a converged solve at alpha = 0.2.
    """

    taus: tuple[float, ...]
    reward: float
    rer_pct: float
    evaluations: int
    converged: bool
    kkt_residual: float


def _derivatives(alpha, betas, c, group, scale, u, diff_step):
    """(reward, gradient, Hessian, points scored) in u, where group g's tau is u[g] * scale[g].

    One kernel call on (m+1)·m complex points: row k is u (k = 0) or u plus
    diff_step·max(u[k], 1) in coordinate k, column j adds COMPLEX_STEP·i to
    coordinate j. Each imaginary part over COMPLEX_STEP is an exact partial
    derivative at its row's point (Squire & Trapp 1998), and the rows'
    differences give the Hessian. Of its two estimates of each mixed
    derivative, the one differencing the smaller pool's gradient is kept:
    a gradient's rounding error grows with its pool's scale.
    """
    eye = np.eye(len(u))
    rows = np.vstack((u, u + diff_step * np.diag(np.maximum(u, 1.0))))
    points = (rows[:, None, :] + COMPLEX_STEP * 1j * eye) * scale
    r = _reward_raw(alpha, betas, [points[..., g].ravel() for g in group], c)
    grads = (r.imag / COMPLEX_STEP).reshape(rows.shape)
    hess = (grads[1:] - grads[0]) / (np.diag(rows[1:]) - u)[:, None]  # [j, i]: d grad_i / d u_j
    return r[0].real, grads[0], np.where(scale <= scale[:, None], hess, hess.T), r.size


def _newton_step(grad, hess):
    """The step to the top of the quadratic model, its Hessian made negative definite.

    The Hessian is scaled to a unit diagonal first, so that pools of very
    different power get curvatures of one size. If an eigenvalue is above
    -ALLOC_EIG_FLOOR times the largest |eigenvalue|, each is clamped to at
    most that (Nocedal & Wright, Numerical Optimization, ch. 3); otherwise
    the model is solved directly, since the eigenvectors of nearly equal
    eigenvalues mix pools whose gradients differ by more than 1/eps.
    """
    d = np.sqrt(np.abs(np.diag(hess)))
    d[d == 0.0] = 1.0  # a pool whose reward is flat in floats: its power is tiny against alpha
    scaled, grad = hess / np.outer(d, d), grad / d
    lam, vec = np.linalg.eigh(scaled)
    floor = -ALLOC_EIG_FLOOR * np.abs(lam).max()
    if lam.max() <= floor:
        return np.linalg.solve(scaled, -grad) / d
    return vec @ (vec.T @ grad / -np.minimum(lam, floor)) / d


def _kkt_residual(alpha, betas, c, taus) -> tuple[float, int]:
    """(largest KKT violation at taus, points scored), from one complex-step gradient per pool.

    Pool i's step is COMPLEX_STEP·beta_i, small against the size of its
    tau. A pool at tau = 0 violates only by a positive derivative; when the
    taus sum to 1, the sum's multiplier is the largest derivative, if
    positive.
    """
    points = np.asarray(taus) + COMPLEX_STEP * 1j * np.diag(betas)
    grad = _reward_raw(alpha, betas, list(points.T), c).imag / COMPLEX_STEP / betas
    slack = grad - (max(grad.max(), 0.0) if reduce(add, taus) >= 1.0 else 0.0)
    violation = np.where(np.asarray(taus) > 0.0, np.abs(slack), slack)
    return float(np.max(violation, initial=0.0)), grad.size


def optimize_allocation(alpha, betas, c) -> AllocationResult:
    """Maximize reward_npool over the simplex {tau_i >= 0, sum(tau) <= 1}.

    Damped Newton. Pools of equal power share one variable (the optimum is
    symmetric across them), u[g] = tau / beta_g: a pool's optimal tau
    grows with its power. The solve starts from the proportional split,
    u = tau_bar / sum(beta) for tau_bar the optimal tau of one pool of the
    summed power, which is exact at c = 0 and close at c > 0. Each step is
    _newton_step's, halved until it stays in the region and lowers the
    reward by at most ALLOC_ULPS ulps. The solve converges where the
    gradient has fallen to its rounding, ALLOC_GRAD_ULPS ulps of alpha in
    every d reward / d tau, or after a step of at most ALLOC_STEP_TOL in
    every u, relative to u past 1. ALLOC_MAX_STEPS steps without either
    return the last point with converged=False.
    """
    betas = _floats("betas", betas)
    min_beta = sys.float_info.min / COMPLEX_STEP  # each complex step stays a normal float
    if any(b < min_beta for b in betas):
        raise DegenerateInput(f"every target pool needs beta >= {min_beta!r}")
    alpha, _, _, c = vars(MultiPoolScenario(alpha, betas, (0.0,) * len(betas), c)).values()
    if alpha < sys.float_info.min:  # a subnormal reward has too few bits to compare splits
        raise DegenerateInput(f"alpha={alpha!r} must be at least {sys.float_info.min!r}, "
                              "the smallest normal float")

    powers = list(dict.fromkeys(betas))  # pools of equal power share one tau
    group = [powers.index(b) for b in betas]
    sizes = np.array([group.count(g) for g in range(len(powers))])
    total = reduce(add, betas)
    scale = np.array(powers)
    # the raw closed form, as sum(beta) may pass the majority guard (table2's is 0.5)
    u = np.full(len(powers), optimal_tau_closed_form(alpha, total, c) / total)
    # the gradient rounds to about eps·alpha and the curvature is of order alpha^2, so this
    # step of the differences that give the Hessian balances their rounding against
    # truncation; past 1e-2 (alpha below 2e-12) truncation would slow the steps too much
    diff_step = min(sqrt(sys.float_info.epsilon / alpha), 1e-2)
    # d reward / d tau sums terms of order alpha, so d reward / d u rounds to about an ulp
    # of alpha times beta, and its imaginary part to no finer than the smallest subnormal
    noise = ALLOC_GRAD_ULPS * (ulp(alpha) * scale + ulp(0.0) / COMPLEX_STEP)
    reward, grad, hess, evals = _derivatives(alpha, betas, c, group, scale, u, diff_step)
    converged = False
    for _ in range(ALLOC_MAX_STEPS):
        # below alpha of about 1e-154, alpha^2 underflows and leaves no curvature
        if np.all(np.abs(grad) <= noise) or not hess.any():
            converged = True
            break
        step = _newton_step(grad, hess)
        while step.any():
            trial = u + step
            if trial.min() >= 0.0 and sizes @ (trial * scale) <= 1.0:
                found = _derivatives(alpha, betas, c, group, scale, trial, diff_step)
                evals += found[3]
                if found[0] >= reward - ALLOC_ULPS * ulp(reward):
                    break
            step = step / 2.0
        else:  # the step halved to zero: no float near u scores higher
            converged = True
            break
        u, (reward, grad, hess, _) = trial, found
        if np.all(np.abs(step) <= ALLOC_STEP_TOL * np.maximum(u, 1.0)):
            converged = True
            break

    taus = tuple(float(u[g] * scale[g]) for g in group)
    kkt, points = _kkt_residual(alpha, betas, c, taus)
    reward = reward_npool(MultiPoolScenario(alpha, betas, taus, c))
    return AllocationResult(
        taus=taus,
        reward=reward,
        rer_pct=rer(reward, alpha),
        evaluations=evals + points,
        converged=converged,
        kkt_residual=kkt,
    )


def fixed_tau_reward_mismatched_c(alpha, betas, taus_planned, c_actual) -> float:
    """Reward when the split was planned for one c but another is realized.

    Evaluates the n-pool reward at the planned tau vector with the actual c
    substituted; planning with c_assumed = c_actual reproduces the optimizer
    reward exactly.
    """
    return reward_npool(MultiPoolScenario(alpha, betas, taus_planned, c_actual))
