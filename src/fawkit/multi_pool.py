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

The kernel _reward_raw takes n taus, each a float or an ndarray, or one
(n, ...) ndarray. It gathers the pools' sets P in chunked passes and sums
each pot over P ascending as bitmasks; every other sum is sequential too
(1 - ta(S), T, B and the pools' terms, pool by pool), so a float call and
an array entry give the same bits. _derivatives differentiates the same sum.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb, ulp

import numpy as np

from .errors import ConstraintViolated, DegenerateInput
from .scenarios import POOL_PRESETS, TABLE2_POWERS  # noqa: F401 (TABLE2_POWERS re-exported)
from .scenarios import MultiPoolScenario, _check_kind, _check_unit, _floats, _total, rer
from .single_pool import _share, optimal_tau_closed_form

# optimize_allocation's Newton solve in u = tau / beta; see its docstring
ALLOC_MAX_STEPS = 100   # steps before it gives up, unconverged
ALLOC_STEP_TOL = 1e-9   # it converges after a step this small in every u (relative past 1)
ALLOC_GRAD_ULPS = 64    # ... or where each d reward / d tau is within this many ulps of rounding
ALLOC_ULPS = 4          # a step may lower the reward by this many ulps
ALLOC_EIG_FLOOR = 1e-8  # Hessian eigenvalues are clamped to -this * the largest |one| or below
# bytes one _reward_raw pass gathers (one pool at least): 32 KiB took 20 % longer on a 20-point
# n = 8 batch, and 128 KiB 40 % on a 201-point n = 6 column, whose passes then page-faulted
_CHUNK_BYTES = 1 << 16


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
    cross = (ta1 * ta2 / (1.0 - ta1) + ta2 * ta1 / (1.0 - ta2)) * ext / (1.0 - total_ta)
    for b, ta, c2br, c3br in ((beta1, ta1, c1_two, c1_three),
                              (beta2, ta2, c2_two, c2_three)):
        if b + ta <= 0.0:
            continue
        pool_pot = b / (1.0 - total_ta) + c2br * ta * ext / (1.0 - ta) + c3br * cross
        r += ta / (b + ta) * pool_pot
    return r


@lru_cache(maxsize=None)
def _predecessors(n):
    """Each pool's sets P of other pools and their weights w_|P|, built on first use.

    Column i holds the 2^(n-1) bitmasks without pool i, ascending, and the
    weights 1 / (n C(n-1, |P|)) of those sets; both are (2^(n-1), n).
    """
    masks = np.arange(1 << n)
    sizes = (masks[:, None] >> np.arange(n) & 1).sum(axis=1)
    others = np.array([masks[masks >> i & 1 == 0] for i in range(n)]).T
    k_sets = np.array([comb(n - 1, k) for k in range(n)])  # sets of k other pools
    return others, 1.0 / (n * k_sets[sizes[others]])


def _fork_sets(ta, chunk):
    """Yield (pools, x, g) per pass of chunk pools: x = 1 - ta(P), g = w_|P| / (x (x - ta_i)),
    each (2^(n-1), pools, ...), pool i's sets P ascending as bitmasks."""
    free = np.empty((1 << len(ta),) + ta.shape[1:])  # 1 - ta(S), sets as bitmasks
    free[0] = 1.0
    for i in range(len(ta)):
        np.subtract(free[:1 << i], ta[i], out=free[1 << i:2 << i])
    others, weights = _predecessors(len(ta))
    weights = weights.reshape(weights.shape + (1,) * (ta.ndim - 1))
    for i in range(0, len(ta), chunk):
        pools = slice(i, i + chunk)
        x = free[others[:, pools]]
        yield pools, x, weights[:, pools] / (x * (x - ta[pools]))


def _reward_raw(alpha, betas, taus, c):
    """reward_npool's sum, unvalidated; taus is an (n, ...) ndarray or n floats and ndarrays."""
    ext = 1.0 - alpha - _total(betas)
    total_tau = _total(taus)
    total_ta = total_tau * alpha
    shape = getattr(total_ta, "shape", ())  # a Python float has none
    if shape and not isinstance(taus, np.ndarray):  # floats among broadcastable columns
        taus = [t + np.zeros(shape) for t in taus]
    ta = np.multiply(taus, alpha)
    forks = np.empty_like(ta)
    chunk = max(_CHUNK_BYTES // (ta[0].nbytes << len(ta) - 1), 1)  # pools per pass
    for pools, _, g in _fork_sets(ta, chunk):
        forks[pools] = np.add.accumulate(g, axis=0)[-1]
    if shape:
        b = np.reshape(betas, (-1,) + (1,) * len(shape))
        share = np.divide(ta, b + ta, out=np.ones_like(ta), where=b > 0.0)  # 1 where beta = 0
        terms = share * (b / (1.0 - total_ta) + c * ext * ta * forks)
    else:  # floats: a numpy call costs more than a pool's arithmetic
        terms = [_share(t, b) * (b / (1.0 - total_ta) + c * ext * t * f)
                 for b, t, f in zip(betas, ta.tolist(), forks.tolist())]
    return _total([(1.0 - total_tau) * alpha / (1.0 - total_ta), *terms])


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

    ``evaluations`` counts derivative passes, one at the start and one per
    trial point. ``kkt_residual`` is the largest violation of the first-order
    (KKT) conditions for a maximum over {tau >= 0, sum(tau) <= 1} at ``taus``,
    in reward per unit of tau: about 1e-16 for a converged solve at alpha = 0.2.
    """

    taus: tuple[float, ...]
    reward: float
    rer_pct: float
    evaluations: int
    converged: bool
    kkt_residual: float


def _derivatives(alpha, betas, c, u):
    """(reward, gradient, Hessian) in u = tau / beta, pool by pool: the kernel's reward, and
    its exact derivatives from one pass over the same sets; the Hessian is exactly symmetric.

    With x = 1 - ta(P), y = x - ta_i and g = w_|P| / (x y) for pool i and a
    set P of other pools, d g / d ta = g e for e = Z/x + Z'/y, Z marking the
    pools of P and Z' those of P + i, and d^2 g = g (e e^T + Z Z^T / x^2 +
    Z' Z'^T / y^2). In u every factor is bounded at any beta, such as the
    share's p = beta / (beta + ta) = 1 / (1 + alpha u), with ds/du = alpha p^2.
    """
    n, b = len(u), np.array(betas)
    taus = u * b
    total_tau, ta = _total(taus), taus * alpha
    total_ta, share = total_tau * alpha, ta / (b + ta)
    (_, x, g), = _fork_sets(ta, n)
    forks, k = np.add.accumulate(g)[-1], c * (1.0 - alpha - _total(betas))
    reward = _total([(1.0 - total_tau) * alpha / (1.0 - total_ta),
                     *share * (b / (1.0 - total_ta) + k * ta * forks)])
    r, p, d = alpha * b, 1.0 / (1.0 + alpha * u), 1.0 / (1.0 - total_ta)  # r = d ta / d u
    # the solo and honest terms are 1 + e0 d, with d (beta s) / d u = r p^2 and d^2 = -2 alpha r p^3
    e0, db = _total(share * b) - (1.0 - alpha), r * p * p
    # the fork terms are k sum_i s_i ta_i F_i, with d (s ta) / d u = r s (1 + p)
    st, dst = share * ta, r * share * (1.0 + p)
    z = (_predecessors(n)[0][:, :, None] >> np.arange(n) & 1) * r  # Z, Z' / x and / y, in u
    zx, zy = z / x[..., None], (z + np.diag(r)) / (x - ta)[..., None]
    fd = np.einsum("pi,pij->ij", g, zx + zy)  # d F_i / d u_j
    grad = db * d + e0 * r * d * d + k * (dst * forks + st @ fd)
    # sum_i s_i ta_i d^2 F_i in three products: stacked, they page-faulted at n = 8 (glibc trim)
    w = (g * st)[..., None]
    fdd = _total((a * w).reshape(-1, n).T @ a.reshape(-1, n) for a in (zx + zy, zx, zy))
    half = (np.outer(db, r) * d * d + k * dst[:, None] * fd + e0 * d ** 3 * np.outer(r, r)
            + np.diag(alpha * r * p ** 3 * (k * forks - d)) + k * fdd / 2.0)
    return reward, grad, half + half.T


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
    if any(b < sys.float_info.min for b in betas):  # below it, u = tau / beta may overflow
        raise DegenerateInput(f"every target pool needs beta >= {sys.float_info.min!r}, "
                              "the smallest normal float")
    alpha, _, _, c = vars(MultiPoolScenario(alpha, betas, (0.0,) * len(betas), c)).values()
    if alpha < sys.float_info.min:  # a subnormal reward has too few bits to compare splits
        raise DegenerateInput(f"alpha={alpha!r} must be at least {sys.float_info.min!r}, "
                              "the smallest normal float")

    powers = list(dict.fromkeys(betas))  # pools of equal power share one tau
    group = [powers.index(b) for b in betas]
    pools = np.eye(len(powers))[group]  # row i marks pool i's group
    sizes, scale, total = pools.sum(axis=0), np.array(powers), _total(betas)
    # the raw closed form, as sum(beta) may pass the majority guard (table2's is 0.5)
    u = np.full(len(powers), optimal_tau_closed_form(alpha, total, c) / total)
    # d reward / d tau sums terms of order alpha: d reward / d u rounds to an ulp of alpha·beta
    noise = ALLOC_GRAD_ULPS * ulp(alpha) * scale
    reward, grad, hess = _derivatives(alpha, betas, c, u[group])
    passes, converged = 1, False
    for _ in range(ALLOC_MAX_STEPS):
        # below alpha of about 1e-154, alpha^2 underflows and leaves no curvature
        if np.all(np.abs(grad @ pools) <= noise) or not hess.any():
            converged = True
            break
        step = _newton_step(grad @ pools, pools.T @ hess @ pools)
        while step.any():
            trial = u + step
            if trial.min() >= 0.0 and sizes @ (trial * scale) <= 1.0:
                found = _derivatives(alpha, betas, c, trial[group])
                passes += 1
                if found[0] >= reward - ALLOC_ULPS * ulp(reward):
                    break
            step = step / 2.0
        else:  # the step halved to zero: no float near u scores higher
            converged = True
            break
        u, (reward, grad, hess) = trial, found
        if np.all(np.abs(step) <= ALLOC_STEP_TOL * np.maximum(u, 1.0)):
            converged = True
            break

    taus = tuple(float(u[g] * scale[g]) for g in group)
    reward = reward_npool(MultiPoolScenario(alpha, betas, taus, c))
    slope = grad / betas  # each d reward / d tau, at the point accepted last
    # a pool at tau = 0 violates the KKT conditions only by a positive slope; when the taus
    # sum to 1, the sum's multiplier is the largest slope, if positive
    slack = slope - (max(slope.max(), 0.0) if _total(taus) >= 1.0 else 0.0)
    kkt = np.where(np.asarray(taus) > 0.0, np.abs(slack), slack).max(initial=0.0)
    return AllocationResult(taus=taus, reward=reward, rer_pct=rer(reward, alpha),
                            evaluations=passes, converged=converged, kkt_residual=float(kkt))


def fixed_tau_reward_mismatched_c(alpha, betas, taus_planned, c_actual) -> float:
    """Reward when the split was planned for one c but another is realized.

    Evaluates the n-pool reward at the planned tau vector with the actual c
    substituted; planning with c_assumed = c_actual reproduces the optimizer
    reward exactly.
    """
    return reward_npool(MultiPoolScenario(alpha, betas, taus_planned, c_actual))
