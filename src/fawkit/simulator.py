"""Round-level Monte Carlo engine: one race → fork → payout path for every scenario.

Race: within a round, block finders are drawn one after another in
proportion to raw hash power. A find by an infiltration category is
withheld (the first per category is kept, later duplicates discarded) and
does not end the round; a find by any other category, an *ender*, does.
If the ender is external while blocks are withheld, the round ends in a
fork, resolved by one uniform draw. Exactly one unit of reward is paid out
per round.

A block of rounds is raced in passes that draw one uniform per round still
racing, in round order. The first pass only counts the rounds that end at
once; the rounds that withheld a block race on in compact arrays of their
own. A fork's branch is the number of branch-table columns at or below its
draw.

Each scenario kind only supplies a model (``_Model``) with four parts:

- **powers**: category powers, ordered as infiltration categories, then
  enders, with external last (the model keeps their cumulative sums);
- **host map**: for each infiltration category, the ender whose pool a
  winning withheld block credits, with external appended for a lost fork;
- **branch table**: for each withheld-set bitmask, the cumulative win
  probability of each infiltration branch in category order; a draw at or
  above the last entry is won by the external branch;
- **payout**: the reward each actor takes from a round won by each ender
  (the two-pool game adds a gross-pot matrix for its pools).

Single pool is the one-pool case of the n-pool model, so the two draw
identically at the same seed.

The attacker's cut of a pool win is credited as the deterministic share
expectation ta/(b+ta) rather than sampling share submissions; submission
counts concentrate tightly around power fractions, so this removes
variance without bias.

Reproducibility: rounds are partitioned into fixed-size blocks and block
``i`` draws from ``Philox`` seeded with ``SeedSequence((seed, i))``. The
worker count only distributes whole blocks across threads and merging is
done in block order, so outcomes are bitwise identical for any worker
count given the same (seed, rounds, scenario).
"""

from __future__ import annotations

import json
import numbers
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolated, _caller_stacklevel
from .scenarios import (
    GameScenario,
    MultiPoolScenario,
    Scenario,
    SinglePoolScenario,
    scenario_to_dict,
)

SCHEMA_VERSION = 1
BLOCK_ROUNDS = 1 << 18
RNG_ALGORITHM = "philox4x64"

CASE_TAGS = (
    "A_innocent_win",
    "B_pool_honest_win",
    "C_fork_from_withheld",
    "D_multi_branch_fork",
    "E_external_win_no_withheld",
)

# Withheld sets are uint8 bitmasks, one bit per infiltration category:
# enough for MAX_POOLS = 8 pools.
_BITS = (1 << np.arange(8)).astype(np.uint8)


@dataclass(frozen=True)
class SimConfig:
    """One simulation request; per-worker substreams derive from the seed."""

    rounds: int
    seed: int
    scenario: Scenario
    workers: int = 1

    def __post_init__(self):
        for name in ("rounds", "seed", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConstraintViolated(f"{name}={value!r} must be an integer")
            object.__setattr__(self, name, int(value))  # numpy integers do not serialise
        if self.rounds < 1:
            raise ConstraintViolated(f"rounds={self.rounds!r} must be >= 1")
        if self.workers < 1:
            raise ConstraintViolated(f"workers={self.workers!r} must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConstraintViolated(f"seed={self.seed!r} must fit in an unsigned 64-bit integer")


@dataclass
class SimOutcome:
    """Accumulated per-actor rewards, case counts, and error estimates.

    ``reward_sums``/``reward_sumsq`` hold per-round sums, so means are
    sums/rounds and standard errors follow from the usual sample variance.
    For game runs the pool actors are net takes (they sum with external to
    one per round); the mutually-recursive pot payoffs appear under
    ``gross_reward_sums``.

    ``extras`` has one shape for every kind, keyed by actor name:
    ``{"wins": {actor: rounds}, "fork_wins": {actor: rounds}}``. A round is
    won by the actor whose own miners or pool mined the winning block, so
    ``wins`` sums to ``rounds_run``; ``fork_wins`` counts those won in a fork.
    """

    kind: str
    rounds_run: int
    case_counts: dict
    reward_sums: dict
    reward_sumsq: dict
    std_error: dict
    rng: dict
    config: dict
    extras: dict = field(default_factory=dict)
    gross_reward_sums: dict | None = None
    gross_std_error: dict | None = None

    @property
    def reward_means(self) -> dict:
        return {k: v / self.rounds_run for k, v in self.reward_sums.items()}

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config": self.config,
            "rng": self.rng,
            "rounds_run": self.rounds_run,
            "case_counts": self.case_counts,
            "reward_sums": self.reward_sums,
            "reward_means": self.reward_means,
            "std_error": self.std_error,
            "extras": self.extras,
        }
        if self.gross_reward_sums is not None:
            doc["gross_reward_means"] = {
                k: v / self.rounds_run for k, v in self.gross_reward_sums.items()
            }
            doc["gross_std_error"] = self.gross_std_error
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _std_errors(sums: dict, sumsq: dict, n: int) -> dict:
    """Standard error of each actor's per-round mean; 0 for a single round."""
    out = {}
    for actor, total in sums.items():
        mean = total / n
        var = max(sumsq[actor] / n - mean * mean, 0.0) * n / (n - 1) if n > 1 else 0.0
        out[actor] = float(np.sqrt(var / n))
    return out


@dataclass(frozen=True)
class _Model:
    """Everything that differs between scenario kinds; see the module docstring.

    Enders are named after the actor that takes a round they win alone, so
    ``actors`` doubles as the ender list (external last) and ``payout`` is
    square: ``payout[e, a]`` is actor a's reward from a round ender e won.
    """

    kind: str
    actors: tuple[str, ...]
    tags: tuple[str, ...]   # case tag of a round each ender won without a fork
    cum: np.ndarray         # inclusive cumulative category powers, cum[-1] == 1
    host: np.ndarray        # ender credited per infiltration branch, then external
    table: np.ndarray       # (2**n_infil, n_infil) cumulative branch win probabilities
    payout: np.ndarray
    gross: np.ndarray | None = None  # (enders, pools) gross pots, game only


def _power_cum(powers) -> np.ndarray:
    # clipping a rounding-negative power keeps cum non-decreasing
    cum = np.cumsum(np.maximum(np.asarray(powers, dtype=float), 0.0))
    cum[-1] = 1.0  # guard against cumulative rounding at the top boundary
    return cum


def _pool_model(kind, alpha, betas, taus, c, pools) -> _Model:
    """One attacker infiltrating len(betas) pools; a k-branch fork gives each branch c/k.

    Categories: [infiltration of each pool, innocent, each pool, external].
    """
    n = len(betas)
    ta = np.array([t * alpha for t in taus])
    betas = np.asarray(betas, dtype=float)
    ext_power = 1.0 - alpha - float(betas.sum())
    cum = _power_cum(list(ta) + [(1.0 - float(sum(taus))) * alpha] + list(betas) + [ext_power])
    shares = np.divide(ta, betas + ta, out=np.zeros(n), where=betas + ta > 0.0)
    payout = np.diag(np.r_[1.0, 1.0 - shares, 1.0])  # each ender's own actor
    payout[1:-1, 0] = shares                          # the attacker's cut of pool wins
    # held[mask, i]: how many of branches 0..i the withheld set holds
    held = np.cumsum((np.arange(1 << n)[:, None] >> np.arange(n)) & 1, axis=1)
    return _Model(
        kind=kind,
        actors=("attacker", *pools, "external"),
        tags=("A_innocent_win",) + ("B_pool_honest_win",) * n + ("E_external_win_no_withheld",),
        cum=cum,
        host=np.arange(1, n + 2),
        table=c * (held / np.maximum(held[:, -1:], 1)),
        payout=payout,
    )


def _game_model(s: GameScenario) -> _Model:
    """Two pools infiltrating each other.

    Categories: [pool 1's miners in pool 2, pool 2's miners in pool 1,
    pool 1, pool 2, external]. A pool hosting the round's win pays its
    infiltrator a share of its pot, which includes the share flowing back
    the other way; the pool actors record net takes so one reward unit is
    distributed per round.
    """
    k1 = s.f1 / (s.alpha2 + s.f1)
    k2 = s.f2 / (s.alpha1 + s.f2)
    det = 1.0 - k1 * k2
    # row: hosting pool (or external), column: pool's pot
    pots = np.array([[1.0, k2], [k1, 1.0], [0.0, 0.0]]) / det
    payout = np.column_stack((pots * [1.0 - k2, 1.0 - k1], [0.0, 0.0, 1.0]))
    return _Model(
        kind="game",
        actors=("pool1", "pool2", "external"),
        tags=("A_innocent_win", "A_innocent_win", "E_external_win_no_withheld"),
        cum=_power_cum([s.f1, s.f2, s.alpha1 - s.f1, s.alpha2 - s.f2,
                        1.0 - s.alpha1 - s.alpha2]),
        host=np.array([1, 0, 2]),
        table=np.array([[0.0, 0.0], [s.c1, s.c1], [0.0, s.c2], [s.c1p, s.c1p + s.c2p]]),
        payout=payout,
        gross=pots,
    )


def _model(s) -> _Model:
    if isinstance(s, SinglePoolScenario):
        return _pool_model("single", s.alpha, (s.beta,), (s.tau,), s.c, ("pool",))
    if isinstance(s, MultiPoolScenario):
        pools = tuple(f"pool_{i + 1}" for i in range(len(s.betas)))
        return _pool_model("multi", s.alpha, s.betas, s.taus, s.c, pools)
    if isinstance(s, GameScenario):
        return _game_model(s)
    raise TypeError(f"not a scenario: {s!r}")


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block_index))))


def _run_blocks(cfg: SimConfig, block_fn):
    """Run block_fn(rng, n) over blocks of BLOCK_ROUNDS, returning results in block order."""
    sizes = [min(BLOCK_ROUNDS, cfg.rounds - start)
             for start in range(0, cfg.rounds, BLOCK_ROUNDS)]

    def one(i):
        return block_fn(_block_rng(cfg.seed, i), sizes[i])

    if cfg.workers == 1 or len(sizes) == 1:
        return [one(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(one, range(len(sizes))))


def _categories(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category of each uniform draw: how many cumulative powers are <= it."""
    cat = np.zeros(u.size, dtype=np.int8)
    for edge in cum[:-1]:  # u < cum[-1] == 1 always
        cat += u >= edge
    return cat


def _block(model: _Model, rng, n) -> np.ndarray:
    """Race, then fork, n rounds; returns one count vector.

    With m enders the vector holds the rounds each ender won without a fork
    (m entries; external's are case E), the forks each ender won (m), then
    the case C and case D counts.
    """
    cum, n_infil, m = model.cum, model.table.shape[1], len(model.actors)
    u = rng.random(n)
    held = np.flatnonzero(u < cum[n_infil - 1])
    # rounds whose first draw is at or past each ender's lower edge
    reached = [n - held.size] + [np.count_nonzero(u >= edge) for edge in cum[n_infil:-1]]
    # each held round's withheld set and, once it has ended, its ender
    mask = _BITS[_categories(cum[:n_infil], u[held])]
    ender = np.empty(held.size, dtype=np.int8)
    active = np.arange(held.size)
    while active.size:
        cat = _categories(cum, rng.random(active.size))
        ender[active] = cat - n_infil  # rounds still racing are overwritten later
        racing = cat < n_infil
        active = active[racing]
        mask[active] |= _BITS[cat[racing]]
    forked = mask[ender == m - 1]  # a held round that external ends forks
    ends = -np.diff(reached, append=0) + np.bincount(ender, minlength=m)
    ends[-1] -= forked.size
    single = np.count_nonzero((forked & (forked - 1)) == 0)  # case C: one bit set
    u = rng.random(forked.size)
    branch = sum(column[forked] <= u for column in model.table.T)
    fork_wins = np.bincount(model.host[branch], minlength=m)
    return np.concatenate((ends, fork_wins, [single, forked.size - single]), dtype=np.int64)


def _moments(actors, wins: np.ndarray, payout: np.ndarray) -> tuple[dict, dict]:
    """Per-actor ``wins @ payout`` and ``wins @ payout**2``.

    Whole-unit credits are exact integer counts added after the share terms,
    so each result is rounded as few times as possible.
    """
    whole = payout == 1.0
    shares = np.where(whole, 0.0, payout)
    exact = wins @ whole
    sums = exact + np.sum(wins[:, None] * shares, axis=0)
    sumsq = exact + np.sum(wins[:, None] * shares ** 2, axis=0)
    return dict(zip(actors, sums.tolist())), dict(zip(actors, sumsq.tolist()))


def simulate(cfg: SimConfig) -> SimOutcome:
    """Run the scenario's model for ``cfg.rounds`` rounds."""
    model = _model(cfg.scenario)
    if cfg.rounds < 100:
        warnings.warn("fewer than 100 rounds; statistics will be degenerate",
                      UserWarning, stacklevel=_caller_stacklevel())
    counts = np.sum(_run_blocks(cfg, lambda rng, n: _block(model, rng, n)), axis=0)
    ends, fork_wins = counts[:-2].reshape(2, -1)
    wins = ends + fork_wins
    cases = dict.fromkeys(CASE_TAGS, 0)
    for tag, count in zip(model.tags, ends.tolist()):
        cases[tag] += count
    cases["C_fork_from_withheld"], cases["D_multi_branch_fork"] = counts[-2:].tolist()
    sums, sumsq = _moments(model.actors, wins, model.payout)
    out = SimOutcome(
        kind=model.kind,
        rounds_run=cfg.rounds,
        case_counts=cases,
        reward_sums=sums,
        reward_sumsq=sumsq,
        std_error=_std_errors(sums, sumsq, cfg.rounds),
        rng={
            "algorithm": RNG_ALGORITHM,
            "seed": cfg.seed,
            "block_rounds": BLOCK_ROUNDS,
            "substream": "SeedSequence((seed, block_index))",
        },
        config={
            "rounds": cfg.rounds,
            "seed": cfg.seed,
            "workers": cfg.workers,
            "scenario": scenario_to_dict(cfg.scenario),
        },
        extras={"wins": dict(zip(model.actors, wins.tolist())),
                "fork_wins": dict(zip(model.actors, fork_wins.tolist()))},
    )
    if model.gross is not None:
        gross, gross_sq = _moments(model.actors[:-1], wins, model.gross)
        out.gross_reward_sums = gross
        out.gross_std_error = _std_errors(gross, gross_sq, cfg.rounds)
    return out


def _kind_only(scenario_type, name: str):
    """``simulate`` behind a check that the scenario is a ``scenario_type``."""
    def entry(cfg: SimConfig) -> SimOutcome:
        if not isinstance(cfg.scenario, scenario_type):
            raise TypeError(f"{name} needs a {scenario_type.__name__}")
        return simulate(cfg)
    entry.__name__ = entry.__qualname__ = name
    entry.__doc__ = f":func:`simulate` for a {scenario_type.__name__} only."
    return entry


simulate_single = _kind_only(SinglePoolScenario, "simulate_single")
simulate_multi = _kind_only(MultiPoolScenario, "simulate_multi")
simulate_game = _kind_only(GameScenario, "simulate_game")
