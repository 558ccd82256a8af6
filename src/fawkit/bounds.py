"""Bounds on the fork-win probability and countermeasure economics.

The fork-win probability c is bracketed by network structure: an external
honest miner who found the competing block always keeps his own, so even
with perfect propagation c is capped by how concentrated external honest
power is, while a rational victim manager who prefers his own pool's block
floors c at alpha + beta.

The countermeasure rewards are single-pool rewards with changed shares:
the attacker's solo income plus the victim pool's honest and fork pots
(single_pool._pots), each times the share the countermeasure leaves it.
A function checks alpha and beta by building their SinglePoolScenario, and
its other numbers with the same checkers, so a bad one raises ConstraintViolated;
it computes on the floats the scenario stores and the checkers return.

Several expressions here substitute the infiltration fraction tau where the
source derivations print an undefined gamma; every function doing so says
so in its docstring and carries GAMMA_AS_TAU_NOTE as ``substitution_note``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ConstraintViolated,
    InconsistentDistribution,
    NegativeEffectiveMinersWarning,
    _warn,
)
from .scenarios import (
    SinglePoolScenario,
    _check_integer,
    _check_kind,
    _check_unit,
    _each,
    _store,
    _total,
)
from .single_pool import _pots, _share

GAMMA_AS_TAU_NOTE = (
    "expelled-identity formulas are evaluated with the infiltration fraction "
    "tau substituted for their printed gamma"
)

_TOTAL_TOL = 1e-9
_DISTRIBUTION_CHECKS = (_each(_check_unit), _check_unit)


@dataclass(frozen=True)
class HonestPowerDistribution:
    """External honest power split into named shares plus an atomized rest.

    ``atomized_remainder`` models power spread over arbitrarily many tiny
    miners; it counts toward the total but contributes zero to the
    concentration sum of squares. Each is a power fraction in [0, 1].
    """

    shares: tuple[float, ...]
    atomized_remainder: float = 0.0

    def __post_init__(self):
        _store(self, _DISTRIBUTION_CHECKS)

    @property
    def total(self) -> float:
        return _total(self.shares) + self.atomized_remainder

    @property
    def square_sum(self) -> float:
        return _total(x * x for x in self.shares)


def _require_total(dist: HonestPowerDistribution, expected: float, what: str):
    _check_kind("dist", dist, HonestPowerDistribution)
    if not abs(dist.total - expected) <= _TOTAL_TOL:
        raise InconsistentDistribution(
            f"honest shares sum to {dist.total!r}, expected {what} = {expected!r}"
        )


def c_max_single(alpha: float, beta: float, dist: HonestPowerDistribution) -> float:
    """Upper bound on c from external honest power concentration.

        c_max = 1 - sum(o_j^2) / (1 - alpha - beta)

    The honest shares must sum to 1 - alpha - beta. For a two-pool game,
    pass the pool powers as alpha and beta; the denominator is then one
    minus the participants' total. Fully atomized honest power gives 1; a
    single honest node owning everything gives alpha + beta.
    """
    alpha, beta, _, _ = vars(SinglePoolScenario(alpha, beta, 0.0, 0.0)).values()
    external = 1.0 - alpha - beta
    _require_total(dist, external, "1 - alpha - beta")
    return 1.0 - dist.square_sum / external


def c_min_rational(alpha: float, beta: float) -> float:
    """Lower bound on c when the victim manager is rational: alpha + beta."""
    alpha, beta, _, _ = vars(SinglePoolScenario(alpha, beta, 0.0, 0.0)).values()
    return alpha + beta


def c_from_gamma(gamma: float, alpha: float, beta: float) -> float:
    """Map the honest-split fraction gamma to c: gamma*(1-a-b) + a + b.

    gamma is the fraction of external honest power that ends up mining on
    the withheld branch; gamma = 0 reproduces c_min_rational and gamma = 1
    gives 1.
    """
    gamma = _check_unit("gamma", gamma)
    alpha, beta, _, _ = vars(SinglePoolScenario(alpha, beta, 0.0, 0.0)).values()
    return gamma * (1.0 - alpha - beta) + alpha + beta


def selfish_mining_threshold(gamma: float) -> float:
    """Minimum power for profitable selfish mining: (1-gamma)/(3-2*gamma).

    Strictly decreasing from 1/3 at gamma = 0 to 0 at gamma = 1.
    """
    gamma = _check_unit("gamma", gamma)
    return (1.0 - gamma) / (3.0 - 2.0 * gamma)


def gamma_upper_bound(dist: HonestPowerDistribution, alpha: float) -> float:
    """Loose cap on the selfish miner's gamma: 1 - sum(o_i^2).

    This is the weakest link of the chain of inequalities and therefore the
    safest cap; the honest shares must sum to 1 - alpha.
    """
    alpha = SinglePoolScenario(alpha, 0.0, 0.0, 0.0).alpha
    _require_total(dist, 1.0 - alpha, "1 - alpha")
    return 1.0 - dist.square_sum


def _diluted(pot, ta, beta, L, count, what):
    """The attacker's part of ``pot`` when ``count`` of its L identities keep theirs.

    A negative count (expulsions outpace identities) is floored at 0 with a warning.
    """
    if count < 0.0:
        _warn(f"{what} went negative and was floored at 0; expulsions outpace identities",
              NegativeEffectiveMinersWarning)
        count = 0.0
    if L * beta + count * ta > 0.0:
        return pot * (count * ta) / (L * beta + count * ta)
    return 0.0


def detection_resilient_reward(alpha, beta, tau, c, L: int) -> float:
    """Attacker reward floor when stale submissions get identities expelled.

    The attacker splits infiltration across L identities; each pool win
    costs on average d of them their accrued share (and one more in the
    fork-win term, where the winning identity is the expelled one):

        (1-t)a/(1-ta) + b/(1-ta) * (L-d)ta / (Lb + (L-d)ta)
                      + c*ta*(1-a-b)/(1-ta) * (L-d-1)ta / (Lb + (L-d-1)ta)

    with d = (1-c) * ta * (1-a-b) / (b + c * ta * (1-a-b)) the expected
    stale withheld blocks per pool win.

    Nondecreasing in L and converging to the unguarded reward as L grows.
    Negative effective-identity counts are floored at zero with a warning.
    Evaluated with tau substituted for the printed gamma.
    """
    L = _check_integer("L", L)
    alpha, beta, tau, c = vars(SinglePoolScenario(alpha, beta, tau, c)).values()
    ta, innocent, honest_pot, fork_pot = _pots(alpha, beta, tau, c)
    ext = 1.0 - alpha - beta
    wins = beta + c * ta * ext
    if wins == 0.0:
        return innocent  # the pool can never win a block, so d is undefined and nothing is shared
    d = (1.0 - c) * ta * ext / wins
    return (innocent
            + _diluted(honest_pot, ta, beta, L, L - d, "L - d")
            + _diluted(fork_pot, ta, beta, L, L - d - 1.0, "L - d - 1"))


detection_resilient_reward.substitution_note = GAMMA_AS_TAU_NOTE


def honeypot_bwh_bound(alpha, beta, tau, L: int) -> float:
    """Withholding-attacker reward floor under a honeypot trap.

    Same identity-splitting argument with d = ta*(1-ta)/b and no fork term:

        (1-t)a/(1-ta) + b/(1-ta) * (L-d)ta / (Lb + (L-d)ta)

    Converges to the plain withholding reward as L grows; tau = 0 gives
    alpha, and beta = 0 the solo income. Evaluated with tau substituted for
    the printed gamma.
    """
    L = _check_integer("L", L)
    alpha, beta, tau, _ = vars(SinglePoolScenario(alpha, beta, tau, 0.0)).values()
    ta, innocent, honest_pot, _ = _pots(alpha, beta, tau, 0.0)
    if ta == 0.0 or beta == 0.0:
        return innocent  # at beta = 0 the pool never wins a block, and d is undefined
    d = ta * (1.0 - ta) / beta
    return innocent + _diluted(honest_pot, ta, beta, L, L - d, "L - d")


honeypot_bwh_bound.substitution_note = GAMMA_AS_TAU_NOTE


def bonus_scheme_reward(alpha, beta, tau, c, t: float) -> float:
    """Attacker reward when the block finder keeps a bonus fraction t.

    The pool pays t of each block reward to the miner who produced the
    winning block and splits the rest proportionally:

        (1-tau)a/(1-ta) + b/(1-ta) * (1-t) * s
            + c*ta*(1-a-b)/(1-ta) * (t + (1-t) * s),   s = ta/(b+ta)

    At t = 0 this is exactly the unguarded reward. (The final share factor
    is s; an alternative reading with denominator b + tau*b fails that
    collapse and is rejected.)
    """
    t = _check_unit("t", t)
    alpha, beta, tau, c = vars(SinglePoolScenario(alpha, beta, tau, c)).values()
    ta, innocent, honest_pot, fork_pot = _pots(alpha, beta, tau, c)
    share = _share(ta, beta)
    return innocent + honest_pot * (1.0 - t) * share + fork_pot * (t + (1.0 - t) * share)


def safe_bonus_threshold(pool_power: float, c_max: float) -> float:
    """Bonus fraction guaranteeing attackers under 0.5 power lose out.

        t = 1 / (2 * (1 - c_max * (1 - P)))

    P is the pool's current observed power (honest part plus infiltration).
    Values above 1 are returned as-is: they mean no feasible bonus fraction
    exists, which is itself the analytical result (large c defeats this
    defense for small pools). c_max = 0 gives 0.5.
    """
    pool_power = _check_unit("pool_power", pool_power)
    if pool_power == 0.0:
        raise ConstraintViolated(f"pool_power={pool_power!r} outside (0, 1]")
    c_max = _check_unit("c_max", c_max)
    return 1.0 / (2.0 * (1.0 - c_max * (1.0 - pool_power)))

